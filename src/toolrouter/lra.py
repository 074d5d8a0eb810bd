"""Light Routing Agent: a reasoner loop over exactly two tools.

The reasoner only ever sees (router_invoke, execute_candidate) plus the
dialogue so far; the candidate catalog never enters its prompt, so prompt
size is independent of pool size. Execution is tied to the most recent
router decision, which keeps the reasoner from bypassing the router.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Protocol

from . import prompts
from ._util import write_jsonl
from .errors import BadConfig, NotParseable
from .gateway import Gateway, parse_json_reply, user_request
from .registry import CandidatePool
from .router import RouterConfig, RouterDecision, route
from .synthesis import Action, Observation, Turn, serialize_history

ROUTER_INVOKE_TOOL = {
    "name": "router_invoke",
    "description": (
        "Query the router to select the most appropriate candidate for the stated "
        "need, taking the dialogue history into account."
    ),
    "inputSchema": {
        "type": "object",
        "properties": {
            "need": {"type": "string", "description": "What capability is needed right now."}
        },
        "required": ["need"],
    },
}

EXECUTE_CANDIDATE_TOOL = {
    "name": "execute_candidate",
    "description": (
        "Execute the candidate most recently returned by router_invoke, with the "
        "given arguments."
    ),
    "inputSchema": {
        "type": "object",
        "properties": {
            "arguments": {"type": "object", "description": "Arguments for the routed candidate."}
        },
    },
}

REASONER_TOOLS_JSON = json.dumps([ROUTER_INVOKE_TOOL, EXECUTE_CANDIDATE_TOOL], ensure_ascii=False, indent=2)


class Reasoner(Protocol):
    def decide(self, prompt: str) -> str: ...


REASONER_TEMPERATURE = 0.2  # of the LRA's own chat calls


class GatewayReasoner:
    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway

    def decide(self, prompt: str) -> str:
        return self.gateway.chat(user_request(prompt, temperature=REASONER_TEMPERATURE))


def _args_key(arguments: dict) -> str:
    return hashlib.sha256(json.dumps(arguments, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class ExecutorBinding:
    """The candidate names bound to the mock executor, with scripted results for some calls."""

    bound: frozenset[str] = frozenset()
    scripted: dict[tuple[str, str], str] = field(default_factory=dict)  # (name, args key) -> result
    non_callable: frozenset[str] = frozenset()

    @staticmethod
    def mock_for(pool: CandidatePool) -> "ExecutorBinding":
        return ExecutorBinding(bound=frozenset(pool.membership), non_callable=frozenset(pool.non_callable))

    def execute(self, name: str, arguments: dict) -> str:
        if name in self.non_callable:
            return f"error: candidate {name} is a non-callable distractor"
        if name not in self.bound:
            return f"error: no executor bound for {name}"
        key = _args_key(arguments)
        return self.scripted.get((name, key), f"[executed] {name} ok ({key})")


@dataclass
class EpisodeStep:
    reasoner_text: str
    route_query: str | None = None
    decision: RouterDecision | None = None
    execution_arguments: dict | None = None
    execution_result: str | None = None

    def to_dict(self) -> dict:
        return {
            "reasoner_text": self.reasoner_text,
            "route_query": self.route_query,
            "decision": None
            if self.decision is None
            else {
                "chosen": self.decision.chosen,
                "abstained": self.decision.abstained,
            },
            "execution_arguments": self.execution_arguments,
            "execution_result": self.execution_result,
        }


@dataclass
class EpisodeLog:
    task: str
    steps: list[EpisodeStep] = field(default_factory=list)
    outcome: str = "error"  # finished | budget_exhausted | error
    context_audit: dict = field(default_factory=dict)
    final_answer: str | None = None

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "steps": [step.to_dict() for step in self.steps],
            "outcome": self.outcome,
            "context_audit": self.context_audit,
            "final_answer": self.final_answer,
        }


_WORD_RE = re.compile(r"\w+")
_TOOL_NAMES = tuple(spec["name"] for spec in json.loads(REASONER_TOOLS_JSON))  # as every prompt shows them
# The reasoner prompt's lines with the tool specs in and the task and transcript slots open.
_PROMPT_LINES = prompts.fill(
    prompts.LRA_REASONER_TEMPLATE, TOOLS_JSON=REASONER_TOOLS_JSON, TASK="<<TASK>>", TRANSCRIPT="<<TRANSCRIPT>>"
).split("\n")
(_TASK_LINE,) = [line for line in _PROMPT_LINES if "<<TASK>>" in line]
assert "<<TRANSCRIPT>>" in _PROMPT_LINES, "the audit reads the transcript as whole lines"
# The words of the lines every prompt shows, read once per process.
_FIXED_WORDS = frozenset(_WORD_RE.findall("\n".join(set(_PROMPT_LINES) - {_TASK_LINE, "<<TRANSCRIPT>>"})))


@lru_cache(maxsize=8)
def _non_identifiers(names: frozenset[str]) -> tuple[str, ...]:
    """The names that are no ASCII identifier, classified once per name set."""
    return tuple(name for name in names if not (name.isascii() and name.isidentifier()))


def _names_in(text: str, names: frozenset[str], words: Iterable[str]) -> set[str]:
    """The names that occur in ``text`` as whole words, so ``tool_1`` does not occur
    in ``tool_15``; ``words`` are the words of ``text``, as the caller has read
    them. A name that is no ASCII identifier is looked up as a substring."""
    return names.intersection(words).union(name for name in _non_identifiers(names) if name in text)


def run_episode(
    task: str,
    pool: CandidatePool,
    router: RouterConfig,
    executor: ExecutorBinding,
    reasoner: Reasoner,
    *,
    gateway: Gateway | None = None,
    budget: int = 8,
    oracle_label: str | None = None,
) -> EpisodeLog:
    """Reasoner loop: route / execute / final answer, within a step budget.

    Each route and execute step appends one turn to the episode. The router
    gets every turn so far as its history; the reasoner reads the turns after
    the task as its transcript. Tool 2 executes the last routed candidate;
    calling it with no fresh decision is recorded as ExecuteBeforeRoute and
    surfaced to the reasoner. The context audit counts the pool names in any
    prompt shown, less the two tool names and the names routed to. No word
    spans a line and the transcript only grows, so the audit reads the words
    of the task's line once and of each transcript line as it is first shown;
    the words of the template's other lines are read once per process. A reply
    that is no JSON object (code fence optional), whose ``need`` or
    ``answer`` is no string, or whose ``arguments`` is no object, is the
    final answer as it stands. A final answer ends the episode ``finished``,
    or ``error`` when it routed and every route abstained.
    """
    if budget < 1:
        raise BadConfig(f"budget must be >= 1, got {budget}")
    log = EpisodeLog(task=task)
    turns: list[Turn] = [Observation(text=task)]
    pending: RouterDecision | None = None
    prompts_shown: list[str] = []
    transcript, added = "", "(empty)"  # the turns after the task; the text new to the next prompt
    words = set(_WORD_RE.findall(prompts.fill(_TASK_LINE, TASK=task)))  # of the prompts shown, less _FIXED_WORDS

    for _step in range(budget):
        words.update(_WORD_RE.findall(added))
        prompt = prompts.fill(
            prompts.LRA_REASONER_TEMPLATE, TOOLS_JSON=REASONER_TOOLS_JSON, TASK=task, TRANSCRIPT=transcript or "(empty)"
        )
        prompts_shown.append(prompt)
        raw = reasoner.decide(prompt)
        try:
            action = parse_json_reply(raw, "reasoner reply")
        except NotParseable:
            action = None
        if (
            action is None
            or not isinstance(action.get("need", task), str)
            or not isinstance(action.get("arguments", {}), dict)
            or not isinstance(action.get("answer", ""), str)
        ):
            action = {"action": "final", "answer": raw}  # a reply the loop cannot act on ends the episode
        step = EpisodeStep(reasoner_text=raw)
        log.steps.append(step)

        kind = action.get("action")
        if kind == "route":
            need = action.get("need", task)
            decision = route(router, need, tuple(turns), pool, gateway, oracle_label=oracle_label)
            step.route_query = need
            step.decision = decision
            pending = decision if not decision.abstained else None
            turns.append(Action(text=f"route(need={need!r}) -> [router decision] {decision.chosen or 'abstained'}"))
        elif kind == "execute":
            arguments = action.get("arguments", {})
            if pending is None:
                result = "error: ExecuteBeforeRoute (no routed candidate to execute)"
            else:
                result = executor.execute(pending.chosen, arguments)
                step.execution_arguments = arguments
            step.execution_result = result
            pending = None
            turns.append(Action(text=f"execute() -> [execution result] {result}"))
        else:
            log.final_answer = action.get("answer", "")
            decisions = [step.decision for step in log.steps if step.decision is not None]
            log.outcome = "error" if decisions and all(d.abstained for d in decisions) else "finished"
            break
        added = serialize_history(turns[-1:])
        transcript = f"{transcript}\n{added}" if transcript else added
    else:
        log.outcome = "budget_exhausted"

    allowed = {*_TOOL_NAMES, *(step.decision.chosen for step in log.steps if step.decision is not None)}
    found = _names_in("\n".join(prompts_shown), pool.member_set, words.union(_FIXED_WORDS))
    log.context_audit = {
        "max_prompt_chars": max(map(len, prompts_shown)),
        "tool_spec_count": len(_TOOL_NAMES),
        "pool_size": len(pool),
        "catalog_entries_in_prompt": len(found - allowed),
    }
    return log


def save_episode_logs(logs: Iterable[EpisodeLog], path: str | Path) -> None:
    write_jsonl(path, (log.to_dict() for log in logs), "episode log")
