"""Light Routing Agent: a reasoner loop over exactly two tools.

The reasoner only ever sees (router_invoke, execute_candidate) plus the
dialogue so far; the candidate catalog never enters its prompt, so prompt
size is independent of pool size. Execution is tied to the most recent
router decision, which keeps the reasoner from bypassing the router.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from . import prompts
from ._util import write_jsonl
from .gateway import Gateway, user_request
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


class ScriptedReasoner:
    """Replays a fixed list of actions; each action is a JSON-able dict."""

    def __init__(self, actions: Iterable[dict]) -> None:
        self._actions = list(actions)
        self._index = 0

    def decide(self, prompt: str) -> str:
        if self._index >= len(self._actions):
            return json.dumps({"action": "final", "answer": "out of scripted actions"})
        action = self._actions[self._index]
        self._index += 1
        return json.dumps(action)


class GatewayReasoner:
    def __init__(self, gateway: Gateway, model_id: str = "default", temperature: float = 0.2) -> None:
        self.gateway = gateway
        self.model_id = model_id
        self.temperature = temperature

    def decide(self, prompt: str) -> str:
        return self.gateway.chat(
            user_request(prompt, temperature=self.temperature, model_id=self.model_id)
        )


def _args_key(arguments: dict) -> str:
    return hashlib.sha256(json.dumps(arguments, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class ExecutorBinding:
    """Maps candidate names to execution descriptors; mock/scripted only here."""

    descriptors: dict[str, str] = field(default_factory=dict)  # name -> "mock" | "scripted"
    scripted: dict[tuple[str, str], str] = field(default_factory=dict)  # (name, args key) -> result
    non_callable: frozenset[str] = frozenset()

    def covers(self, pool: CandidatePool) -> bool:
        return all(name in self.descriptors for name in pool.membership)

    @staticmethod
    def mock_for(pool: CandidatePool) -> "ExecutorBinding":
        return ExecutorBinding(
            descriptors={name: "mock" for name in pool.membership},
            non_callable=frozenset(pool.non_callable),
        )

    def execute(self, name: str, arguments: dict) -> str:
        if name in self.non_callable:
            return f"error: candidate {name} is a non-callable distractor"
        descriptor = self.descriptors.get(name)
        if descriptor is None:
            return f"error: no executor bound for {name}"
        key = (name, _args_key(arguments))
        if key in self.scripted:
            return self.scripted[key]
        if descriptor == "mock":
            return f"[executed] {name} ok ({_args_key(arguments)})"
        return f"error: unsupported executor descriptor {descriptor!r}"


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


def _reasoner_prompt(task: str, turns: Sequence[Turn]) -> str:
    """The reasoner's prompt; ``turns`` are the episode's turns after the task."""
    transcript = serialize_history(turns) or "(empty)"
    return prompts.fill(prompts.LRA_REASONER_TEMPLATE, TOOLS_JSON=REASONER_TOOLS_JSON, TASK=task, TRANSCRIPT=transcript)


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
    surfaced to the reasoner.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    log = EpisodeLog(task=task)
    turns: list[Turn] = [Observation(text=task)]
    pending: RouterDecision | None = None
    max_prompt_chars = 0

    for _step in range(budget):
        prompt = _reasoner_prompt(task, turns[1:])
        max_prompt_chars = max(max_prompt_chars, len(prompt))
        raw = reasoner.decide(prompt)
        try:
            action = json.loads(raw)
        except json.JSONDecodeError:
            action = {"action": "final", "answer": raw}
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
            arguments = action.get("arguments", {}) or {}
            if pending is None or pending.chosen is None:
                result = "error: ExecuteBeforeRoute (no routed candidate to execute)"
            else:
                result = executor.execute(pending.chosen, arguments)
                step.execution_arguments = arguments
            step.execution_result = result
            pending = None
            turns.append(Action(text=f"execute() -> [execution result] {result}"))
        else:
            log.final_answer = action.get("answer", "")
            log.outcome = "finished"
            break
    else:
        log.outcome = "budget_exhausted"

    # audit measured on the prompt actually shown to the reasoner
    base_prompt = _reasoner_prompt(task, ())
    tools_block = base_prompt.split("Available tools:", 1)[1]
    tool_specs = json.JSONDecoder().raw_decode(tools_block[tools_block.index("[") :])[0]
    spec_names = {spec["name"] for spec in tool_specs}
    catalog_hits = sum(1 for name in pool.membership if name in base_prompt and name not in spec_names)
    log.context_audit = {
        "max_prompt_chars": max_prompt_chars,
        "tool_spec_count": len(tool_specs),
        "pool_size": len(pool),
        "catalog_entries_in_prompt": catalog_hits,
    }
    return log


def save_episode_logs(logs: Iterable[EpisodeLog], path: str | Path) -> None:
    write_jsonl(path, (log.to_dict() for log in logs), "episode log")
