"""Clock-free cost checks of an LRA episode: the text its context audit and
its prompt fills read, recorded by call, so an episode that re-reads the
constant template or re-splits a template fails at any speed."""

from collections import Counter
from functools import lru_cache

from helpers import ScriptedReasoner, make_tool_bank
from toolrouter import lra, prompts
from toolrouter.registry import CandidatePool
from toolrouter.router import RouterConfig

POOL_SIZE = 2005  # the benchmark's LRA pool
ORACLE = RouterConfig(variant="oracle")
STEPS = (
    {"action": "route", "need": "something capable"},
    {"action": "execute", "arguments": {"target": "x"}},
    {"action": "final", "answer": "done"},
)


class RecordingPattern:
    """A compiled pattern that records the text each of its methods is called on."""

    def __init__(self, pattern):
        self.pattern, self.texts = pattern, []

    def __getattr__(self, method):
        def call(text, *args):
            self.texts.append(text)
            return getattr(self.pattern, method)(text, *args)

        return call


class RecordingReasoner(ScriptedReasoner):
    def __init__(self, actions):
        super().__init__(actions)
        self.prompts = []

    def decide(self, prompt):
        self.prompts.append(prompt)
        return super().decide(prompt)


@lru_cache(maxsize=None)
def whole_pool() -> CandidatePool:
    return CandidatePool.whole_bank(make_tool_bank(POOL_SIZE))


def episode(task: str) -> tuple[lra.EpisodeLog, list[str]]:
    pool = whole_pool()
    label = pool.membership[0]
    executor = lra.ExecutorBinding.mock_for(pool)
    executor.scripted[(label, lra._args_key({"target": "x"}))] = f"ran {label}\nlisted 2 rows"  # a two-line turn
    reasoner = RecordingReasoner(list(STEPS))
    log = lra.run_episode(task, pool, ORACLE, executor, reasoner, oracle_label=label)
    assert len(log.steps) == 3 and log.outcome == "finished"
    return log, reasoner.prompts


def test_an_episode_reads_only_the_task_and_transcript_lines(monkeypatch):
    episode("warm the process")
    words = RecordingPattern(lra._WORD_RE)
    monkeypatch.setattr(lra, "_WORD_RE", words)
    log, shown = episode("do the thing")
    template = prompts.fill(
        prompts.LRA_REASONER_TEMPLATE, TOOLS_JSON=lra.REASONER_TOOLS_JSON, TASK="<<TASK>>", TRANSCRIPT="<<TRANSCRIPT>>"
    )
    fixed = {line for line in template.split("\n") if line and "<<TASK>>" not in line and "<<TRANSCRIPT>>" not in line}
    assert not any(set(text.split("\n")) & fixed for text in words.texts)  # no template or tools-JSON line
    # the task's and the transcript's lines, each once, with its newline
    own = {line for prompt in shown for line in prompt.split("\n")} - fixed - {""}
    assert {"Task: do the thing", "(empty)"} <= own
    assert sum(map(len, words.texts)) <= sum(len(line) + 1 for line in own)
    assert log.context_audit["catalog_entries_in_prompt"] == 0


def test_each_template_is_split_once_per_process(monkeypatch):
    prompts._pieces.cache_clear()
    slots = RecordingPattern(prompts._SLOT_RE)
    monkeypatch.setattr(prompts, "_SLOT_RE", slots)
    for task in ("do the thing", "do another thing"):
        episode(task)
    assert slots.texts and max(Counter(slots.texts).values()) == 1
