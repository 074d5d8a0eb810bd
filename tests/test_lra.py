"""Light Routing Agent episode loop, execution legality, and context audit."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import ScriptedReasoner, make_tool_bank, make_tool_doc, mock_gateway
from toolrouter import lra, prompts
from toolrouter.errors import BadConfig
from toolrouter.lra import (
    EXECUTE_CANDIDATE_TOOL,
    ROUTER_INVOKE_TOOL,
    ExecutorBinding,
    GatewayReasoner,
    run_episode,
    save_episode_logs,
)
from toolrouter.registry import CandidateBank, CandidatePool, validate_spec
from toolrouter.router import RouterConfig, RouterDecision
from toolrouter.synthesis import Observation, serialize_history

BANK = make_tool_bank(10)
POOL = CandidatePool.whole_bank(BANK)
LABEL = BANK.names()[0]
ORACLE = RouterConfig(variant="oracle")


def scripted(*actions):
    return ScriptedReasoner(list(actions))


def test_reasoner_tool_contract():
    assert ROUTER_INVOKE_TOOL["name"] == "router_invoke"
    assert EXECUTE_CANDIDATE_TOOL["name"] == "execute_candidate"
    assert ROUTER_INVOKE_TOOL["inputSchema"]["required"] == ["need"]


def test_route_execute_final_episode():
    reasoner = scripted(
        {"action": "route", "need": "something capable"},
        {"action": "execute", "arguments": {"target": "x"}},
        {"action": "final", "answer": "done"},
    )
    log = run_episode(
        "do the thing", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, oracle_label=LABEL
    )
    assert log.outcome == "finished"
    assert log.final_answer == "done"
    assert len(log.steps) == 3
    assert log.steps[0].decision.chosen == LABEL
    assert log.steps[1].execution_result.startswith("[executed] " + LABEL)
    assert log.context_audit["tool_spec_count"] == 2
    assert log.context_audit["pool_size"] == len(POOL)
    assert log.context_audit["catalog_entries_in_prompt"] == 0


def test_context_audit_reads_every_prompt_shown():
    executor = ExecutorBinding.mock_for(POOL)
    executor.scripted[(LABEL, lra._args_key({"target": "x"}))] = "listing: " + ", ".join(POOL.membership)
    reasoner = scripted(
        {"action": "route", "need": "something capable"},
        {"action": "execute", "arguments": {"target": "x"}},
        {"action": "final", "answer": "done"},
    )
    log = run_episode("do the thing", POOL, ORACLE, executor, reasoner, oracle_label=LABEL)
    # every pool name reached the last prompt; the one routed to is no catalog entry
    assert log.context_audit["catalog_entries_in_prompt"] == len(POOL) - 1


def test_audit_names_are_whole_words():
    text = "ran tool_15 then web-search (web_fetch)"
    names = frozenset(["tool_1", "tool_15", "web-search", "web_fetch", "fetch"])
    assert lra._names_in(text, names, re.findall(r"\w+", text)) == {
        "tool_15",
        "web-search",
        "web_fetch",
    }


def test_audit_of_a_2005_member_pool_matches_the_per_name_search():
    docs = [make_tool_doc(i) for i in range(2005)]
    for i, name in {7: "web-search-7", 8: "9lives_8", 9: "café_9", 10: "tag-files"}.items():
        docs[i]["name"] = name  # no ASCII identifiers: looked up as substrings
    bank = CandidateBank(kind="tool", entries=tuple(validate_spec(doc, "tool") for doc in docs))
    pool = CandidatePool.whole_bank(bank)
    label = pool.membership[0]
    listed = pool.membership[1::7]  # among them names that are prefixes of others, such as summarize_tickets_1
    executor = ExecutorBinding.mock_for(pool)
    result = "listing: " + ", ".join(listed) + "; see xweb-search-7y and café_9z"
    executor.scripted[(label, lra._args_key({"target": "x"}))] = result
    reasoner = RecordingReasoner(
        [
            {"action": "route", "need": "something capable"},
            {"action": "execute", "arguments": {"target": "x"}},
            {"action": "final", "answer": "done"},
        ]
    )
    log = run_episode("do the thing", pool, ORACLE, executor, reasoner, oracle_label=label)
    text = "\n".join(reasoner.prompts)
    words = set(re.findall(r"\w+", text))
    reference = {
        name
        for name in pool.membership
        if name in words or not (name.isascii() and name.isidentifier()) and name in text
    }
    assert reference - set(listed) == {label, "web-search-7", "café_9"}  # the two found inside longer words
    assert log.context_audit["catalog_entries_in_prompt"] == len(reference - {label})


# names the template shows, and names that are no ASCII identifier, one of them on two lines
FIXED_AUDIT_NAMES = ("route", "Task", "empty", "web-search", "café", "split\nname")


@settings(max_examples=100, deadline=None)
@given(
    identifiers=st.lists(st.text(alphabet="qz_9", min_size=1, max_size=4).filter(str.isidentifier), unique=True),
    data=st.data(),
)
def test_audit_counts_the_names_a_search_of_the_joined_prompts_finds(identifiers, data):
    prefixes = [name[:-1] for name in identifiers if name[:-1].isidentifier()]
    names = list(dict.fromkeys([*identifiers, *prefixes, *FIXED_AUDIT_NAMES]))
    docs = [{**make_tool_doc(i), "name": name} for i, name in enumerate(names)]
    pool = CandidatePool.whole_bank(CandidateBank(kind="tool", entries=tuple(validate_spec(d, "tool") for d in docs)))
    label = data.draw(st.sampled_from(names))
    listed = data.draw(st.lists(st.sampled_from(names), max_size=8))
    separator = data.draw(st.sampled_from([", ", "\n", "x"]))  # "x" glues names into longer words
    executor = ExecutorBinding.mock_for(pool)
    executor.scripted[(label, lra._args_key({"target": "x"}))] = "listing: " + separator.join(listed)
    reasoner = RecordingReasoner(
        [
            {"action": "route", "need": "something capable"},
            {"action": "execute", "arguments": {"target": "x"}},
            {"action": "final", "answer": "done"},
        ]
    )
    log = run_episode("do the thing", pool, ORACLE, executor, reasoner, oracle_label=label)
    text = "\n".join(reasoner.prompts)
    words = set(re.findall(r"\w+", text))
    reference = {
        name
        for name in pool.membership
        if name in words or not (name.isascii() and name.isidentifier()) and name in text
    }
    assert {"route", "Task", "empty"} <= reference
    assert log.context_audit["catalog_entries_in_prompt"] == len(reference - {label})


def test_audit_finds_every_word_of_the_template_lines():
    template = prompts.fill(prompts.LRA_REASONER_TEMPLATE, TOOLS_JSON=lra.REASONER_TOOLS_JSON, TASK="", TRANSCRIPT="")
    names = sorted(set(re.findall(r"\w+", template)))
    docs = [{**make_tool_doc(i), "name": name} for i, name in enumerate(names)]
    pool = CandidatePool.whole_bank(CandidateBank(kind="tool", entries=tuple(validate_spec(d, "tool") for d in docs)))
    reasoner = scripted({"action": "route", "need": "something capable"}, {"action": "final", "answer": "done"})
    log = run_episode("do the thing", pool, ORACLE, ExecutorBinding.mock_for(pool), reasoner, oracle_label=names[0])
    # every prompt shows each name; the two tool names and the one routed to are no catalog entries
    expected = set(names) - {names[0], ROUTER_INVOKE_TOOL["name"], EXECUTE_CANDIDATE_TOOL["name"]}
    assert log.context_audit["catalog_entries_in_prompt"] == len(expected)


class RecordingReasoner(ScriptedReasoner):
    def __init__(self, actions):
        super().__init__(actions)
        self.prompts = []

    def decide(self, prompt):
        self.prompts.append(prompt)
        return super().decide(prompt)


def test_router_history_and_reasoner_transcript_are_the_same_turns(monkeypatch):
    histories = []
    real_route = lra.route

    def recording_route(cfg, query, history, *args, **kwargs):
        histories.append(history)
        return real_route(cfg, query, history, *args, **kwargs)

    monkeypatch.setattr(lra, "route", recording_route)
    reasoner = RecordingReasoner(
        [
            {"action": "route", "need": "first need"},
            {"action": "execute", "arguments": {"target": "x"}},
            {"action": "route", "need": "second need"},
            {"action": "final", "answer": "done"},
        ]
    )
    log = run_episode("two routes", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, oracle_label=LABEL)
    assert log.outcome == "finished"
    first, second = histories
    assert first == (Observation(text="two routes"),)  # the first route sees only the task
    assert len(second) == 3 and second[0] == first[0]
    transcript = serialize_history(second[1:])
    assert f"Transcript so far:\n{transcript}\n\n" in reasoner.prompts[2]
    assert transcript.splitlines() == [
        f"Assistant: route(need='first need') -> [router decision] {LABEL}",
        f"Assistant: execute() -> [execution result] {log.steps[1].execution_result}",
    ]
    assert "Transcript so far:\n(empty)\n" in reasoner.prompts[0]


class FixedReasoner:
    """Gives the same raw reply to every prompt."""

    def __init__(self, reply):
        self.reply = reply

    def decide(self, prompt):
        return self.reply


@pytest.mark.parametrize(
    "reply",
    [
        "42",
        "null",
        '["route"]',
        '{"action": "route", "need": 5}',
        '{"action": "execute", "arguments": [1, 2]}',
        '{"action": "execute", "arguments": null}',
        '{"action": "final", "answer": 5}',
    ],
)
def test_reply_the_loop_cannot_act_on_is_the_final_answer(reply):
    """Like non-JSON text: a reply that is no JSON object, whose need or
    answer is no string, or whose arguments are no object, finishes the
    episode with the raw reply."""
    gateway = mock_gateway(0)
    router = RouterConfig(variant="embedding_q")
    log = run_episode("task", POOL, router, ExecutorBinding.mock_for(POOL), FixedReasoner(reply), gateway=gateway)
    assert (log.outcome, log.final_answer) == ("finished", reply)
    assert len(log.steps) == 1 and log.steps[0].decision is None


@pytest.mark.parametrize(
    "abstained, outcome",
    [([True, True], "error"), ([True, False], "finished"), ([False, True], "finished")],
)
def test_an_episode_whose_every_route_abstained_ends_in_error(monkeypatch, abstained, outcome):
    """A final answer after routes that all abstained ends an episode that
    executed no routed candidate: its outcome is error, not finished."""
    decisions = iter([RouterDecision(chosen=None if a else LABEL, abstained=a) for a in abstained])
    monkeypatch.setattr(lra, "route", lambda *args, **kwargs: next(decisions))
    steps = [({"action": "route", "need": "n"}, {"action": "execute", "arguments": {}}) for _ in abstained]
    reasoner = scripted(*[action for pair in steps for action in pair], {"action": "final", "answer": "done"})
    log = run_episode("task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner)
    assert (log.outcome, log.final_answer) == (outcome, "done")


def test_an_oracle_route_without_a_label_abstains_and_the_episode_ends_in_error():
    reasoner = scripted(
        {"action": "route", "need": "something capable"},
        {"action": "execute", "arguments": {}},
        {"action": "final", "answer": "done"},
    )
    log = run_episode("task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner)
    assert log.steps[0].decision.abstained
    assert "ExecuteBeforeRoute" in log.steps[1].execution_result
    assert (log.outcome, log.final_answer) == ("error", "done")


class FencedReasoner(ScriptedReasoner):
    """Replays its actions, each inside a ```json code fence."""

    def decide(self, prompt):
        return f"```json\n{super().decide(prompt)}\n```"


def test_reply_in_a_code_fence_is_acted_on():
    reasoner = FencedReasoner([{"action": "route", "need": "something capable"}, {"action": "final", "answer": "done"}])
    log = run_episode("task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, oracle_label=LABEL)
    assert [step.decision is not None for step in log.steps] == [True, False]
    assert log.steps[0].decision.chosen == LABEL
    assert (log.outcome, log.final_answer) == ("finished", "done")


def test_execute_before_route_is_recorded_not_fatal():
    reasoner = scripted(
        {"action": "execute", "arguments": {}},
        {"action": "route", "need": "capability"},
        {"action": "execute", "arguments": {}},
        {"action": "final", "answer": "ok"},
    )
    log = run_episode(
        "task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, oracle_label=LABEL
    )
    assert log.outcome == "finished"
    assert "ExecuteBeforeRoute" in log.steps[0].execution_result
    assert log.steps[2].execution_result.startswith("[executed]")


def test_execution_consumes_the_decision():
    # a second execute without a fresh route must fail
    reasoner = scripted(
        {"action": "route", "need": "capability"},
        {"action": "execute", "arguments": {}},
        {"action": "execute", "arguments": {}},
        {"action": "final", "answer": "ok"},
    )
    log = run_episode(
        "task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, oracle_label=LABEL
    )
    assert log.steps[1].execution_result.startswith("[executed]")
    assert "ExecuteBeforeRoute" in log.steps[2].execution_result


def test_budget_exhaustion():
    reasoner = scripted(*[{"action": "route", "need": "loop"}] * 10)
    log = run_episode(
        "task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, budget=3, oracle_label=LABEL
    )
    assert log.outcome == "budget_exhausted"
    assert len(log.steps) == 3
    with pytest.raises(ValueError):
        run_episode("task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, budget=0)



def test_a_budget_below_one_is_bad_config():
    reasoner = scripted({"action": "route", "need": "loop"})
    with pytest.raises(BadConfig, match="budget must be >= 1, got 0"):
        run_episode("task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, budget=0)
    assert reasoner._index == 0  # refused before the reasoner is asked

def test_non_callable_candidates_refuse_execution():
    pool = CandidatePool(bank=BANK, membership=BANK.names(), non_callable=frozenset({LABEL}))
    reasoner = scripted(
        {"action": "route", "need": "x"},
        {"action": "execute", "arguments": {}},
        {"action": "final", "answer": "ok"},
    )
    log = run_episode(
        "task", pool, ORACLE, ExecutorBinding.mock_for(pool), reasoner, oracle_label=LABEL
    )
    assert "non-callable distractor" in log.steps[1].execution_result


def test_scripted_executor_results():
    binding = ExecutorBinding.mock_for(POOL)
    import hashlib

    key = hashlib.sha256(json.dumps({"target": "x"}, sort_keys=True).encode()).hexdigest()[:16]
    binding.scripted[(LABEL, key)] = "scripted result"
    assert binding.execute(LABEL, {"target": "x"}) == "scripted result"
    assert binding.execute("unbound_name", {}) == "error: no executor bound for unbound_name"
    assert binding.bound >= set(POOL.membership)


def test_gateway_reasoner_runs_full_episode():
    gateway = mock_gateway(0)
    log = run_episode(
        "complete the workflow",
        POOL,
        ORACLE,
        ExecutorBinding.mock_for(POOL),
        GatewayReasoner(gateway),
        gateway=gateway,
        oracle_label=LABEL,
    )
    assert log.outcome == "finished"
    kinds = [json.loads(step.reasoner_text)["action"] for step in log.steps]
    assert kinds == ["route", "execute", "final"]


def test_prompt_size_independent_of_pool_size():
    small_pool = CandidatePool(bank=BANK, membership=BANK.names()[:2])
    big_bank = make_tool_bank(300)
    big_pool = CandidatePool.whole_bank(big_bank)
    script = [
        {"action": "route", "need": "fixed need"},
        {"action": "execute", "arguments": {}},
        {"action": "final", "answer": "ok"},
    ]
    label = BANK.names()[0]  # present in both pools
    small_log = run_episode(
        "same task", small_pool, ORACLE, ExecutorBinding.mock_for(small_pool), scripted(*script), oracle_label=label
    )
    big_log = run_episode(
        "same task", big_pool, ORACLE, ExecutorBinding.mock_for(big_pool), scripted(*script), oracle_label=label
    )
    assert small_log.context_audit["tool_spec_count"] == big_log.context_audit["tool_spec_count"] == 2
    assert small_log.context_audit["max_prompt_chars"] == big_log.context_audit["max_prompt_chars"]
    assert big_log.context_audit["pool_size"] == 300


def test_episode_log_file(tmp_path):
    reasoner = scripted({"action": "final", "answer": "immediate"})
    log = run_episode("task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, oracle_label=LABEL)
    path = tmp_path / "episodes.jsonl"
    save_episode_logs([log], path)
    loaded = json.loads(path.read_text().splitlines()[0])
    assert loaded["outcome"] == "finished"
    assert loaded["final_answer"] == "immediate"
    assert loaded["context_audit"]["tool_spec_count"] == 2
