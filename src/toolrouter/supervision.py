"""Turn trajectories into history-aware routing instances and render them
into the training/benchmark exchange format.

Convention for the first action of a trajectory: query is the initial user
message and the history is empty. For action t > 0, the query is the
observation immediately preceding the action and the history is everything
strictly before that observation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from . import prompts
from ._util import read_jsonl, typed, write_jsonl
from .errors import ParseError, PoolMissingLabel
from .registry import CandidatePool, pool_json, public_spec
from .synthesis import (
    Action,
    Observation,
    Trajectory,
    Turn,
    serialize_history,
    turn_from_dict,
    turn_to_dict,
)


@dataclass(frozen=True)
class InstanceOrigin:
    trajectory_id: str
    step: int  # action index within the trajectory
    call_index: int = 0


@dataclass(frozen=True)
class RoutingInstance:
    query: str
    history: tuple[Turn, ...]
    pool: CandidatePool
    label: str
    origin: InstanceOrigin


@dataclass(frozen=True)
class RenderedSample:
    system: str
    user: str
    expected: tuple[str, ...]


def extract_instances(trajectory: Trajectory, pool: CandidatePool) -> list[RoutingInstance]:
    """One routing instance per candidate call, in temporal order.

    Multi-call actions yield instances sharing (query, history) with distinct
    labels in call order.
    """
    instances: list[RoutingInstance] = []
    turns = trajectory.turns
    action_index = 0
    for turn_index, turn in enumerate(turns):
        if not isinstance(turn, Action):
            continue
        preceding = turns[turn_index - 1]
        assert isinstance(preceding, Observation)
        query = preceding.text
        history = tuple(turns[: turn_index - 1])
        for call_index, call in enumerate(turn.calls):
            if call.name not in pool.membership:
                raise PoolMissingLabel(call.name)
            instances.append(
                RoutingInstance(
                    query=query,
                    history=history,
                    pool=pool,
                    label=call.name,
                    origin=InstanceOrigin(
                        trajectory_id=trajectory.trajectory_id,
                        step=action_index,
                        call_index=call_index,
                    ),
                )
            )
        action_index += 1
    return instances


def strip_history(instance: RoutingInstance) -> RoutingInstance:
    """History-stripped ablation twin; idempotent."""
    return replace(instance, history=())


_HISTORY_BLOCK_RE = re.compile(r"<history>(.*?)</history>", re.DOTALL)
_TURN_LINE_RE = re.compile(r"^(?:User|Assistant): ", re.MULTILINE)


def parse_history_turn_count(user_text: str) -> int:
    """Recover the serialized turn count from a rendered sample's history block."""
    match = _HISTORY_BLOCK_RE.search(user_text)
    if match is None:
        raise ParseError("<user text>", "no <history> block found")
    return len(_TURN_LINE_RE.findall(match.group(1)))


# --- rendering -------------------------------------------------------------------


def render_pool_block(pool: CandidatePool) -> str:
    return pool_json(pool.specs())


def render_prompt(query: str, history: Sequence[Turn], pool: CandidatePool, kind: str) -> tuple[str, str]:
    """The (system, user) router messages for a query, its history and a pool."""
    if kind not in ("tool", "agent"):
        raise ValueError(f"unknown kind: {kind!r}")
    system = prompts.ROUTER_SYSTEM_AGENT if kind == "agent" else prompts.ROUTER_SYSTEM_TOOL
    history_text = serialize_history(history, kind)
    history_slot = f"\n{history_text}\n" if history_text else ""
    plural = "agents" if kind == "agent" else "tools"
    user = prompts.fill(
        prompts.ROUTER_USER_TEMPLATE,
        HISTORY=history_slot,
        QUERY=query,
        POOL_JSON=render_pool_block(pool),
        PLURAL=plural,
        SINGULAR=kind,
    )
    return system, user


def render_sample(instance: RoutingInstance, kind: str) -> RenderedSample:
    """Render one instance into the (system, user, expected) exchange format."""
    if instance.label not in instance.pool.membership:
        raise PoolMissingLabel(instance.label)
    system, user = render_prompt(instance.query, instance.history, instance.pool, kind)
    return RenderedSample(system=system, user=user, expected=(instance.label,))


# --- dataset file ------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetRecord:
    """Self-contained routing sample: rendered prompt plus structured fields."""

    kind: str
    system: str
    user: str
    query: str
    history: tuple[Turn, ...]
    pool_specs: tuple[dict, ...]
    label: str
    group: str = "all"
    origin: dict | None = None

    @property
    def expected_key(self) -> str:
        return "expected_agent" if self.kind == "agent" else "expected_tool"

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "user": self.user,
            self.expected_key: [self.label],
            "kind": self.kind,
            "query": self.query,
            "history": [turn_to_dict(t) for t in self.history],
            "pool": list(self.pool_specs),
            "label": self.label,
            "group": self.group,
            "origin": self.origin,
        }

    @staticmethod
    def from_dict(document: dict) -> "DatasetRecord":
        if document["kind"] not in ("tool", "agent"):
            raise ValueError(f"unknown kind {document['kind']!r}")
        return DatasetRecord(
            kind=document["kind"],
            system=typed(document["system"], str, "system"),
            user=typed(document["user"], str, "user"),
            query=typed(document["query"], str, "query"),
            history=tuple(turn_from_dict(t) for t in typed(document.get("history", []), list, "history")),
            pool_specs=tuple(typed(entry, dict, "pool entry") for entry in typed(document["pool"], list, "pool")),
            label=typed(document["label"], str, "label"),
            group=typed(document.get("group", "all"), str, "group"),
            origin=document.get("origin"),
        )


def record_from_instance(instance: RoutingInstance, kind: str) -> DatasetRecord:
    rendered = render_sample(instance, kind)
    return DatasetRecord(
        kind=kind,
        system=rendered.system,
        user=rendered.user,
        query=instance.query,
        history=instance.history,
        pool_specs=tuple(public_spec(spec) for spec in instance.pool.specs()),
        label=instance.label,
        origin={
            "trajectory_id": instance.origin.trajectory_id,
            "step": instance.origin.step,
            "call_index": instance.origin.call_index,
        },
    )


def build_dataset(
    trajectories: Sequence[Trajectory],
    pools: Sequence[CandidatePool],
    path: str | Path,
    *,
    kind: str = "tool",
    ablation: bool = False,
) -> dict[str, int]:
    """Stream rendered samples to a JSONL file; ``pools`` holds one pool per trajectory.

    With ablation=True a history-stripped twin set is written alongside, to
    ``<path>.nohistory``. Returns sample counts per emitted file.
    """
    path = Path(path)
    if len(pools) != len(trajectories):
        raise ValueError("pools must hold one pool per trajectory")

    instances = [
        instance
        for trajectory, pool in zip(trajectories, pools)
        for instance in extract_instances(trajectory, pool)
    ]
    counts = {str(path): save_dataset((record_from_instance(i, kind) for i in instances), path)}
    if ablation:
        twin_path = path.with_name(path.name + ".nohistory")
        twins = (record_from_instance(strip_history(i), kind) for i in instances)
        counts[str(twin_path)] = save_dataset(twins, twin_path)
    return counts


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    return read_jsonl(path, "dataset", DatasetRecord.from_dict)


def save_dataset(records: Iterable[DatasetRecord], path: str | Path) -> int:
    return write_jsonl(path, (record.to_dict() for record in records), "dataset")
