"""Turn trajectories into history-aware routing instances and render them
into the training/benchmark exchange format.

Convention for the first action of a trajectory: query is the initial user
message and the history is empty. For action t > 0, the query is the
observation immediately preceding the action and the history is everything
strictly before that observation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from . import prompts
from ._util import JSON_LINE, json_object, parse_lines, read_lines, typed, write_jsonl, write_lines
from .errors import PoolMissingLabel
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
            if call.name not in pool.member_set:
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


# --- rendering -------------------------------------------------------------------


def render_prompt(query: str, history: Sequence[Turn], pool: CandidatePool) -> tuple[str, str]:
    """The (system, user) router messages for a query, its history and a pool,
    worded for the kind of the pool's candidates."""
    system, user = _prompt(query, history, pool.bank.kind, pool_json(pool.specs()))
    return system, "".join(user)


def _prompt(query: str, history: Sequence[Turn], kind: str, block: str) -> tuple[str, list[str]]:
    """``render_prompt`` over a pool of ``kind`` whose prompt block is ``block``,
    with the user message as its :func:`prompts.pieces`: ``block`` itself is
    the piece that holds the block."""
    system = prompts.ROUTER_SYSTEM_AGENT if kind == "agent" else prompts.ROUTER_SYSTEM_TOOL
    history_text = serialize_history(history, kind)
    history_slot = f"\n{history_text}\n" if history_text else ""
    plural = "agents" if kind == "agent" else "tools"
    user = prompts.pieces(
        prompts.ROUTER_USER_TEMPLATE,
        HISTORY=history_slot,
        QUERY=query,
        POOL_JSON=block,
        PLURAL=plural,
        SINGULAR=kind,
    )
    return system, user


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
        """The record's JSON document, ``pool`` first: a reader finds it at a written line's start."""
        return {
            "pool": list(self.pool_specs),
            "system": self.system,
            "user": self.user,
            self.expected_key: [self.label],
            "kind": self.kind,
            "query": self.query,
            "history": [turn_to_dict(t) for t in self.history],
            "label": self.label,
            "group": self.group,
            "origin": self.origin,
        }

    @staticmethod
    def from_dict(document: dict) -> "DatasetRecord":
        if document["kind"] not in ("tool", "agent"):
            raise ValueError(f"unknown kind {document['kind']!r}")
        record = DatasetRecord(
            kind=document["kind"],
            system=typed(document["system"], str, "system"),
            user=typed(document["user"], str, "user"),
            query=typed(document["query"], str, "query"),
            history=tuple(turn_from_dict(t) for t in typed(document.get("history", []), list, "history")),
            pool_specs=_pool_entries(document["pool"]),
            label=typed(document["label"], str, "label"),
            group=typed(document.get("group", "all"), str, "group"),
            origin=None if document.get("origin") is None else typed(document["origin"], dict, "origin"),
        )
        expected = document[record.expected_key]
        if expected != [record.label]:
            raise ValueError(f"{record.expected_key} {expected!r} does not state the label {record.label!r} alone")
        return record


def _pool_entries(value: object) -> tuple[dict, ...]:
    """A dataset line's ``pool`` value as its tuple of entries; TypeError unless it is a list of dicts."""
    return tuple(typed(entry, dict, "pool entry") for entry in typed(value, list, "pool"))


def render_sample(instance: RoutingInstance) -> DatasetRecord:
    """Render one instance into a dataset record, in the kind of its pool's candidates."""
    specs = instance.pool.specs()
    return _sample(instance, tuple(map(public_spec, specs)), pool_json(specs))[0]


def _sample(instance: RoutingInstance, documents: tuple[dict, ...], block: str) -> tuple[DatasetRecord, list[str]]:
    """``render_sample`` with the public documents and the prompt block of the
    instance's pool given, and the record's ``user`` text as its pieces."""
    if instance.label not in instance.pool.member_set:
        raise PoolMissingLabel(instance.label)
    kind = instance.pool.bank.kind
    system, user = _prompt(instance.query, instance.history, kind, block)
    record = DatasetRecord(
        kind=kind,
        system=system,
        user="".join(user),
        query=instance.query,
        history=instance.history,
        pool_specs=documents,
        label=instance.label,
        origin=asdict(instance.origin),
    )
    return record, user


def build_dataset(
    trajectories: Sequence[Trajectory],
    pools: Sequence[CandidatePool],
    path: str | Path,
    *,
    ablation: bool = False,
) -> dict[str, int]:
    """Stream rendered samples to a JSONL file; ``pools`` holds one pool per trajectory.

    With ablation=True a history-stripped twin set is written alongside, to
    ``<path>.nohistory``. Returns sample counts per emitted file. The lines
    have the bytes ``save_dataset`` writes for the rendered records, but each
    distinct pool object's documents and prompt block are built and encoded
    once per call, for both files, not once per record.
    """
    path = Path(path)
    if len(pools) != len(trajectories):
        raise ValueError("pools must hold one pool per trajectory")

    instances = [
        instance
        for trajectory, pool in zip(trajectories, pools)
        for instance in extract_instances(trajectory, pool)
    ]
    kept: dict[int, tuple[CandidatePool, _PoolText]] = {}  # id(pool) -> the pool, held so its id stays its own

    def line(instance: RoutingInstance) -> str:
        pool = instance.pool
        if id(pool) not in kept:
            kept[id(pool)] = (pool, _PoolText.of(pool))
        text = kept[id(pool)][1]
        return _line(*_sample(instance, text.documents, text.block), text)

    counts = {str(path): write_lines(path, map(line, instances), "dataset")}
    if ablation:
        twin_path = path.with_name(path.name + ".nohistory")
        counts[str(twin_path)] = write_lines(twin_path, (line(strip_history(i)) for i in instances), "dataset")
    return counts


@dataclass(frozen=True)
class _PoolText:
    """A pool's public documents, which the records rendered over it share,
    and its texts in a dataset line: its encoded ``pool`` field, and its
    prompt block as rendered and JSON-escaped (without the quotes)."""

    documents: tuple[dict, ...]
    field: str
    block: str
    escaped_block: str

    @staticmethod
    def of(pool: CandidatePool) -> "_PoolText":
        specs = pool.specs()
        documents = tuple(map(public_spec, specs))
        block = pool_json(specs)
        return _PoolText(documents, JSON_LINE.encode(list(documents)), block, JSON_LINE.encode(block)[1:-1])


def _line(record: DatasetRecord, user: list[str], pool: _PoolText) -> str:
    """``JSON_LINE.encode(record.to_dict())``: each value encoded on its own and
    joined in ``to_dict`` order with the encoder's ", " and ": " separators, so
    the line opens with its ``pool`` field. ``user`` is the record's ``user``
    text as its pieces, and ``pool`` the texts of the pool the record was
    rendered over: they give the ``pool`` field and the block in ``user``
    without encoding them again. The encoder escapes each character on its
    own, so ``user`` is encoded piece by piece."""
    escaped = (pool.escaped_block if piece is pool.block else JSON_LINE.encode(piece)[1:-1] for piece in user)
    encoded = {"user": '"' + "".join(escaped) + '"', "pool": pool.field}
    fields = (
        f"{JSON_LINE.encode(key)}: {encoded[key] if key in encoded else JSON_LINE.encode(value)}"
        for key, value in record.to_dict().items()
    )
    return "{" + ", ".join(fields) + "}"


_DECODE = json.JSONDecoder().raw_decode  # the decoder of json.loads, from a given index on
_POOL_START = '{"pool": '  # how a written line opens: its pool text starts at len(_POOL_START)
_POOL_END = '], "system": '  # what follows a pool text in a written line


class _DatasetReader:
    """Reads dataset lines, decoding and checking each distinct ``pool`` text once.

    A line that opens with ``_POOL_START`` has its pool text looked up among
    the texts read before: a JSON array ends where its text does, so a known
    text at the pool's start is the field. A new text is decoded and checked
    once, and every line with that text gets the same tuple of entries. The
    rest of the line is decoded as one object. Any other line is decoded whole,
    as is a line whose pool is no list of dicts or whose rest is no JSON object
    with keys and without a second ``pool``.
    """

    def __init__(self) -> None:
        self.pools: dict[str, tuple[dict, ...]] = {}  # pool text -> its checked entries

    def record(self, line: str) -> DatasetRecord:
        """The record a dataset line holds."""
        if line.startswith(_POOL_START):
            try:
                pool_specs, end = self._pool(line)
                rest = json_object("{" + line[end + 2 :]) if line.startswith(", ", end) else None
            except (RecursionError, TypeError, ValueError):  # no JSON, or a pool that is no list of dicts
                rest = None
            if rest and "pool" not in rest:  # an empty rest is a trailing ", " in the line
                # The document is the line's, with an empty pool in place of the entries checked before.
                rest["pool"] = []
                return replace(DatasetRecord.from_dict(rest), pool_specs=pool_specs)
        return DatasetRecord.from_dict(json_object(line))

    def _pool(self, line: str) -> tuple[tuple[dict, ...], int]:
        """The entries of the pool text that opens the line and the index after
        it. A text read before is found among the ends ``_POOL_END`` marks."""
        at = len(_POOL_START)
        end = line.find(_POOL_END, at)
        while end >= 0:
            if (text := line[at : end + 1]) in self.pools:
                return self.pools[text], end + 1
            end = line.find(_POOL_END, end + 1)
        value, end = _DECODE(line, at)
        pool_specs = self.pools[line[at:end]] = _pool_entries(value)
        return pool_specs, end


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """The records of a dataset file, one per non-blank line.

    Each distinct ``pool`` text is decoded and checked once per call: records
    whose lines hold equal pool text share one ``pool_specs`` tuple, and so
    its dicts. An in-place edit of one record's pool documents therefore
    shows in every record of the file read with the same text. A line that
    opens with its pool, as ``_line`` writes it, is read as its pool text and
    the rest of the line; any other line is decoded whole, so the records and
    each ``file:line`` error are those of
    ``DatasetRecord.from_dict(json.loads(line))``. A file whose lines hold
    ``pool`` after other keys loads to the same records, but each of them has
    a tuple of its own.
    """
    path = Path(path)
    return parse_lines(path, read_lines(path, "dataset"), _DatasetReader().record)


def save_dataset(records: Iterable[DatasetRecord], path: str | Path) -> int:
    """Write one JSON line per record, ``JSON_LINE.encode(record.to_dict())``;
    returns the line count. Each record's own pool is encoded."""
    return write_jsonl(path, (record.to_dict() for record in records), "dataset")
