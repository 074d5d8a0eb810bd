"""Task proposal and environment-free multi-turn trajectory simulation.

All roles (assistant, user, execution environment) are LLM-simulated via the
gateway; nothing is ever really executed. Invalid simulations are discarded,
not repaired.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from . import prompts
from ._util import derive_seed, read_jsonl, strings, typed, write_jsonl
from .errors import (
    BadConfig,
    Discarded,
    NotParseable,
    OutOfSubsetReference,
    RetriesExhaustedSynthesis,
)
from .gateway import Gateway, check_temperature, parse_json_reply, user_request
from .graph import CandidateGraph
from .registry import CandidateSpec, pool_json, public_spec
from .sampler import CandidateSubset, SamplerConfig, attempt_config, sample_subset

# --- trajectory types ---------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    goal: str
    candidate: str


@dataclass(frozen=True)
class TaskPlan:
    task_text: str
    steps: tuple[PlanStep, ...]

    def to_dict(self) -> dict:
        return {"task": self.task_text, "steps": [{"goal": s.goal, "candidate": s.candidate} for s in self.steps]}

    @staticmethod
    def from_dict(document: dict) -> "TaskPlan":
        """Inverse of :meth:`to_dict` (a trajectory file's plan, a plan reply); KeyError or TypeError otherwise."""
        steps = tuple(
            PlanStep(goal=typed(s["goal"], str, "step goal"), candidate=typed(s["candidate"], str, "step candidate"))
            for s in typed(document["steps"], list, "plan steps")
        )
        return TaskPlan(task_text=typed(document["task"], str, "plan task"), steps=steps)


@dataclass(frozen=True)
class CandidateCall:
    name: str
    arguments: dict
    simulated_result: str


@dataclass(frozen=True)
class Observation:
    text: str


@dataclass(frozen=True)
class Action:
    text: str
    calls: tuple[CandidateCall, ...] = ()


Turn = Union[Observation, Action]


def serialize_history(turns: Sequence[Turn], kind: str = "agent") -> str:
    """Render turns as the one dialogue transcript of the pipeline.

    Each turn starts a line with ``User:`` or ``Assistant:``; candidate calls
    appear as <agent_call>/<tool_call> tags followed by ``Tool results:``.
    Simulation prompts, dataset histories, the q+h router and the LRA
    reasoner all read this text.
    """
    tag = f"{kind}_call"
    lines: list[str] = []
    for turn in turns:
        if isinstance(turn, Observation):
            lines.append(f"User: {turn.text}")
        else:
            lines.append(f"Assistant: {turn.text}")
            for call in turn.calls:
                arguments = json.dumps(call.arguments, ensure_ascii=False)
                lines.append(f"<{tag}>{call.name}{arguments}</{tag}>")
                lines.append(f"Tool results: {call.simulated_result}")
    return "\n".join(lines)


@dataclass(frozen=True)
class Trajectory:
    trajectory_id: str
    turns: tuple[Turn, ...]
    subset: CandidateSubset
    plan: TaskPlan


@dataclass(frozen=True)
class SynthesisConfig:
    rng_seed: int = 0
    max_retries: int = 2
    max_turns: int = 12
    error_prob: float = 0.1  # chance a simulated user reports the last result as wrong
    temperature: float = 0.8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise BadConfig("max_retries must be >= 0")
        if self.max_turns < 4:
            raise BadConfig("max_turns must be >= 4: a one-step plan already takes 4 turns")
        if not 0 <= self.error_prob <= 1:
            raise BadConfig("error_prob must be in [0, 1]")
        check_temperature(self.temperature, BadConfig)


# --- helpers ----------------------------------------------------------------------


_JSON_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "null": lambda v: v is None,
}


def check_arguments(arguments: dict, schema: Mapping) -> list[str]:
    """Required-field and basic type conformance; returns violation strings. A value
    may have any type a property lists; a type this check does not know takes any value."""
    violations = []
    properties = schema.get("properties", {})
    for required in schema.get("required", []):
        if required not in arguments:
            violations.append(f"missing required argument {required!r}")
    for key, value in arguments.items():
        expected = properties.get(key, {}).get("type")
        checks = [_JSON_TYPE_CHECKS.get(name) for name in (expected if isinstance(expected, list) else [expected])]
        if checks and None not in checks and not any(check(value) for check in checks):
            violations.append(f"argument {key!r} is not of type {expected!r}")
    return violations


# --- operations -----------------------------------------------------------------------


def propose_task(
    subset: CandidateSubset,
    specs: Mapping[str, CandidateSpec],
    gateway: Gateway,
    cfg: SynthesisConfig = SynthesisConfig(),
) -> TaskPlan:
    """LLM-generate a task and coarse plan conditioned on the subset.

    A reply that is no plan as a trajectory file holds it, has no task or
    no steps, or names a candidate outside the subset is re-asked up to
    cfg.max_retries times.
    """
    if not subset.members:
        raise ValueError("subset must be non-empty")
    content = prompts.fill(
        prompts.TASK_PROPOSAL_TEMPLATE, CANDIDATES_JSON=pool_json(specs[name] for name in subset.members)
    )
    request = user_request(content, temperature=cfg.temperature)

    def read(reply: str) -> TaskPlan:
        document = parse_json_reply(reply, "plan reply")
        if not document.get("task") or not document.get("steps"):
            raise NotParseable("plan reply missing task or steps")
        plan = TaskPlan.from_dict(document)
        for step in plan.steps:
            if step.candidate not in subset:
                raise OutOfSubsetReference(step.candidate)
        return plan

    rejects = (KeyError, TypeError, NotParseable, OutOfSubsetReference)
    plan, _, rejection = gateway.ask(request, read, cfg.max_retries, rejects)
    if plan is None:
        raise RetriesExhaustedSynthesis(f"could not obtain a valid plan: {rejection}")
    return plan


def simulate_trajectory(
    plan: TaskPlan,
    subset: CandidateSubset,
    specs: Mapping[str, CandidateSpec],
    gateway: Gateway,
    cfg: SynthesisConfig = SynthesisConfig(),
    trajectory_id: str = "traj-0",
) -> Trajectory:
    """Role-based simulation of one multi-turn trajectory.

    Each assistant reply gets the checks of an action turn in a trajectory
    file as it is read; the turns alternate by construction. Raises Discarded
    for a reply that fails them; the caller drops the sample.
    """
    if 2 * len(plan.steps) + 2 > cfg.max_turns:  # the finished trajectory could never fit
        raise Discarded("over length")
    rng = random.Random(derive_seed(cfg.rng_seed, trajectory_id))
    kind = specs[subset.members[0]].kind
    turns: list[Turn] = [Observation(text=plan.task_text)]
    plan_json = json.dumps(plan.to_dict(), ensure_ascii=False)

    def assistant_action(step: PlanStep | None) -> Action:
        if step is None:
            step_section = prompts.PLAN_COMPLETE_SENTENCE
        else:
            step_doc = {
                "goal": step.goal,
                "candidate": step.candidate,
                "spec": public_spec(specs[step.candidate]),
            }
            step_section = f"{prompts.NEXT_STEP_HEADER}\n{json.dumps(step_doc, ensure_ascii=False)}"
        content = prompts.fill(
            prompts.ASSISTANT_TURN_TEMPLATE,
            TASK=plan.task_text,
            PLAN_JSON=plan_json,
            TRANSCRIPT=serialize_history(turns, kind),
            STEP_SECTION=step_section,
        )
        reply = gateway.chat(user_request(content, temperature=cfg.temperature))
        try:  # the checks of an action turn in a trajectory file
            document = parse_json_reply(reply, "assistant turn")
            text = typed(document.get("assistant", ""), str, "assistant text")
            raw_calls = [typed(raw, dict, "call") for raw in typed(document.get("calls", []), list, "assistant calls")]
            for raw in raw_calls:
                typed(raw.get("arguments", {}), dict, "call arguments")
        except (NotParseable, TypeError) as exc:
            raise Discarded(f"unparseable assistant turn: {exc}") from exc
        if len(raw_calls) > 2:
            raise Discarded("assistant action carries more than 2 calls")
        calls = []
        for raw in raw_calls:
            name = raw.get("name")
            if name not in subset:
                raise Discarded(f"out-of-subset call: {name!r}")
            arguments = raw.get("arguments", {})
            violations = check_arguments(arguments, specs[name].input_schema)
            if violations:
                raise Discarded(f"schema-violating arguments for {name}: {violations}")
            calls.append(
                CandidateCall(
                    name=name,
                    arguments=arguments,
                    simulated_result=simulate_result(name, arguments),
                )
            )
        return Action(text=text, calls=tuple(calls))

    def simulate_result(name: str, arguments: dict) -> str:
        content = prompts.fill(
            prompts.RESULT_SIM_TEMPLATE,
            NAME=name,
            ARGS_JSON=json.dumps(arguments, ensure_ascii=False),
            SPEC_JSON=json.dumps(public_spec(specs[name]), ensure_ascii=False),
        )
        return gateway.chat(user_request(content, temperature=cfg.temperature))

    def user_feedback() -> Observation:
        hint = prompts.ERROR_HINT_SENTENCE if rng.random() < cfg.error_prob else ""
        content = prompts.fill(prompts.USER_TURN_TEMPLATE, ERROR_HINT=hint, TRANSCRIPT=serialize_history(turns, kind))
        reply = gateway.chat(user_request(content, temperature=cfg.temperature))
        return Observation(text=reply.strip())

    for step in plan.steps:
        turns.append(assistant_action(step))
        turns.append(user_feedback())
    turns.append(assistant_action(None))
    return Trajectory(trajectory_id=trajectory_id, turns=tuple(turns), subset=subset, plan=plan)


def validate_trajectory(trajectory: Trajectory) -> list[str]:
    """Pure structural check (alternation, membership of its subset); the violations found."""
    violations = []
    turns = trajectory.turns
    if len(turns) < 2:
        violations.append("trajectory has fewer than 2 turns")
    for index, turn in enumerate(turns):
        expected = Observation if index % 2 == 0 else Action
        if not isinstance(turn, expected):
            violations.append(f"alternation violation at turn {index}")
    if turns and not isinstance(turns[-1], Action):
        violations.append("trajectory must end with an action")
    for index, turn in enumerate(turns):
        if not isinstance(turn, Action):
            continue
        for call in turn.calls:
            if call.name not in trajectory.subset:
                violations.append(f"out-of-subset call {call.name!r} at turn {index}")
    return violations


# --- batch pipeline + dataset file -------------------------------------------------------


def synthesize_batch(
    graph: CandidateGraph,
    count: int,
    sampler_cfg: SamplerConfig,
    synth_cfg: SynthesisConfig,
    gateway: Gateway,
) -> list[Trajectory]:
    """Sample -> propose -> simulate, skipping discarded samples."""
    trajectories: list[Trajectory] = []
    attempts = 0
    while len(trajectories) < count and attempts < 3 * count:
        subset = sample_subset(graph, attempt_config(sampler_cfg, synth_cfg.rng_seed, attempts))
        attempts += 1
        trajectory_id = f"traj-{len(trajectories):05d}"
        try:
            plan = propose_task(subset, graph.specs, gateway, synth_cfg)
            trajectories.append(
                simulate_trajectory(plan, subset, graph.specs, gateway, synth_cfg, trajectory_id)
            )
        except (Discarded, RetriesExhaustedSynthesis):
            continue
    return trajectories


def turn_to_dict(turn: Turn) -> dict:
    if isinstance(turn, Observation):
        return {"type": "observation", "text": turn.text}
    return {
        "type": "action",
        "text": turn.text,
        "calls": [
            {"name": c.name, "arguments": c.arguments, "result": c.simulated_result}
            for c in turn.calls
        ],
    }


def turn_from_dict(raw: dict) -> Turn:
    text = typed(raw["text"], str, "turn text")
    if raw["type"] == "observation":
        return Observation(text=text)
    if raw["type"] != "action":
        raise ValueError(f"unknown turn type {raw['type']!r}")
    calls = tuple(
        CandidateCall(
            name=typed(c["name"], str, "call name"),
            arguments=typed(c["arguments"], dict, "call arguments"),
            simulated_result=typed(c["result"], str, "call result"),
        )
        for c in typed(raw.get("calls", []), list, "turn calls")
    )
    return Action(text=text, calls=calls)


def trajectory_to_dict(trajectory: Trajectory) -> dict:
    return {
        "trajectory_id": trajectory.trajectory_id,
        "subset": trajectory.subset.to_dict(),
        "plan": trajectory.plan.to_dict(),
        "turns": [turn_to_dict(turn) for turn in trajectory.turns],
    }


def trajectory_from_dict(document: dict) -> Trajectory:
    """Inverse of :func:`trajectory_to_dict`; ValueError for an invalid structure."""
    subset_doc, plan_doc = document["subset"], document["plan"]
    subset = CandidateSubset(
        members=strings(subset_doc["members"], "subset members"),
        seed_nodes=strings(subset_doc["seed_nodes"], "subset seed_nodes"),
        walk_trace=tuple(strings(t, "walk_trace step") for t in typed(subset_doc["walk_trace"], list, "walk_trace")),
    )
    plan = TaskPlan.from_dict(plan_doc)
    trajectory = Trajectory(
        trajectory_id=typed(document["trajectory_id"], str, "trajectory_id"),
        turns=tuple(turn_from_dict(raw) for raw in typed(document["turns"], list, "turns")),
        subset=subset,
        plan=plan,
    )
    violations = validate_trajectory(trajectory)
    if violations:
        raise ValueError("; ".join(violations))
    return trajectory


def save_trajectories(trajectories: Iterable[Trajectory], path: str | Path) -> None:
    write_jsonl(path, map(trajectory_to_dict, trajectories), "trajectory file")


def load_trajectories(path: str | Path) -> list[Trajectory]:
    return read_jsonl(path, "trajectory file", trajectory_from_dict)
