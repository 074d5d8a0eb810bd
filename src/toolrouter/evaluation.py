"""Robustness pool settings, avg@k routing-accuracy evaluation, and report tables.

Settings are cumulative: Clean is the base pool, Multi merges all group
banks, +Mutation adds synthesized non-callable distractors from a graph,
+External further adds a real external bank. Ground-truth labels must stay
members under every setting.
"""

from __future__ import annotations

import copy
import json
import marshal
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

from ._util import derive_seed, write_jsonl, write_lines
from .errors import BadConfig, MissingParameter, SpecError, ValidationError
from .gateway import Gateway
from .graph import CandidateGraph
from .registry import CandidateBank, CandidatePool, pool_json, validate_spec
from .router import REPEATABLE, RouterConfig, RouterDecision, route
from .supervision import DatasetRecord, _prompt


class Setting(Enum):
    CLEAN = "Clean"
    MULTI = "Multi"
    PLUS_MUTATION = "+Mutation"
    PLUS_EXTERNAL = "+External"


SETTING_ORDER: tuple[Setting, ...] = tuple(Setting)


@dataclass(frozen=True)
class PoolSetting:
    """A pool setting and its memo of expanded pools.

    A setting keeps one expanded pool per distinct inline pool for as long
    as it lives, and derives the banks it adds once per kind. Reusing one
    setting across routers and ``evaluate()`` calls is the intended use, as
    in the methods x settings table. The memo is keyed by ``_pool_key``: the
    marshal bytes of a pool of plain values, else its JSON text, so a pool
    is checked for JSON and validated once, when it is first stored. Its
    inputs must not change after construction, and the memo assumes one
    calling thread, as the gateway.
    """

    variant: Setting = Setting.CLEAN
    group_banks: tuple[CandidateBank, ...] = ()
    mutation_graph: CandidateGraph | None = None
    external_bank: CandidateBank | None = None
    # kind -> (the banks merged after a base bank, the names among them that are not callable)
    _expansions: dict[str, tuple[tuple[CandidateBank, ...], frozenset[str]]] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )
    # _pool_key (or, for a pool of other values, _pool_json) -> (the record's inline bank, its expanded pool)
    _pools: dict[bytes | str, tuple[CandidateBank, CandidatePool]] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        rank = SETTING_ORDER.index(self.variant)
        if rank >= SETTING_ORDER.index(Setting.PLUS_MUTATION) and self.mutation_graph is None:
            raise MissingParameter("mutation_graph")
        if self.variant is Setting.PLUS_EXTERNAL and self.external_bank is None:
            raise MissingParameter("external_bank")

    def _expansion(self, kind: str) -> tuple[tuple[CandidateBank, ...], frozenset[str]]:
        if kind not in self._expansions:
            rank = SETTING_ORDER.index(self.variant)
            banks: list[CandidateBank] = []
            if rank >= SETTING_ORDER.index(Setting.MULTI):
                banks.extend(bank for bank in self.group_banks if bank.kind == kind)
            non_callable: frozenset[str] = frozenset()
            if rank >= SETTING_ORDER.index(Setting.PLUS_MUTATION):
                mutants = _mutant_bank(self.mutation_graph, kind)
                banks.append(mutants)
                non_callable = frozenset(mutants.names())
            if rank >= SETTING_ORDER.index(Setting.PLUS_EXTERNAL):
                banks.append(self.external_bank)
            self._expansions[kind] = (tuple(banks), non_callable)
        return self._expansions[kind]


def _mutant_bank(graph: CandidateGraph, kind: str) -> CandidateBank:
    """The graph's mutants in name order when its candidates are of ``kind``; no mutants otherwise."""
    specs = map(graph.specs.__getitem__, graph.names() if graph.kind == kind else ())
    entries = tuple(spec for spec in specs if spec.provenance.origin == "mutant")
    return CandidateBank(kind=kind, entries=entries)


def build_pool(base: CandidatePool, setting: PoolSetting) -> CandidatePool:
    """Expand a base pool per the setting; labels (base members) never leave."""
    banks, non_callable = setting._expansion(base.bank.kind)
    merged = CandidateBank.merge(base.bank.kind, [base.bank, *banks])
    # The merged bank holds every base member, so the membership is the base
    # order followed by the rest of the merged names.
    membership = tuple(dict.fromkeys(base.membership + merged.names()))
    return CandidatePool(
        bank=merged,
        membership=membership,
        non_callable=(base.non_callable | non_callable).intersection(membership),
    )


@dataclass(frozen=True)
class Metrics:
    per_run: tuple[float, ...]
    avg_at_k: float
    per_group: dict[str, float]
    n_instances: int

    def to_dict(self) -> dict:
        return {
            "per_run": list(self.per_run),
            "avg_at_k": self.avg_at_k,
            "per_group": dict(self.per_group),
            "n_instances": self.n_instances,
        }


def _record_pool(record: DatasetRecord) -> CandidatePool:
    """The record's inline pool, validated from a copy of its documents, so
    that the stored pool shares no dict with the record."""
    entries = tuple(validate_spec(doc, record.kind) for doc in copy.deepcopy(record.pool_specs))
    bank = CandidateBank(kind=record.kind, entries=entries)
    return CandidatePool.whole_bank(bank)


def _pool_json(record: DatasetRecord) -> str:
    """The record's kind and inline pool as JSON text; SpecError if it is no JSON."""
    try:
        return json.dumps([record.kind, record.pool_specs])
    except (TypeError, ValueError) as exc:
        raise SpecError(f"pool is not JSON: {exc}") from exc


def _pool_key(record: DatasetRecord) -> bytes | str:
    """The record's kind and inline pool as marshal (version 2) bytes, else as JSON text.

    Version 2 writes no interning or sharing marks, so the bytes depend only
    on the values, their exact types and the key order: two pools that differ
    in key order, in 1, 1.0 and True, or in a list and a tuple get two keys.
    ``evaluate()`` stores a new pool under these bytes only when marshal reads
    them back equal to it: not a numpy scalar, which marshal writes as bytes,
    nor a NaN. A value marshal refuses (an OrderedDict, a str subclass) keys
    by JSON text.
    """
    try:
        return marshal.dumps((record.kind, record.pool_specs), 2)
    except ValueError:
        return _pool_json(record)


def evaluate(
    router: RouterConfig,
    dataset: Sequence[DatasetRecord],
    setting: PoolSetting,
    k: int = 5,
    seed: int = 0,
    gateway: Gateway | None = None,
) -> Metrics:
    """avg@k routing accuracy: k independent passes with derived seeds.

    Each record's label must be a member of its inline pool. Abstentions
    count as incorrect. Per-group accuracies average over runs. The setting
    keeps one expanded pool per distinct inline pool for as long as it
    lives, so reuse one setting across routers and calls (one calling
    thread, as the gateway). A stored pool costs one marshal per distinct
    pool object per call: records that share one ``pool_specs`` tuple, as
    ``load_dataset`` gives records with equal pool text, share one lookup.
    A new pool is also checked for JSON, validated and built.

    Once per call and distinct pool object: the pool lookup and, for
    ``llm``, the prompt block. Once per call and record: the label's check;
    for ``llm``, the rendered prompt; for a ``REPEATABLE`` variant, the
    decision, which later passes reuse unless it abstained (an abstention,
    such as a gateway error, is routed again in the next pass). Once per
    pass and record: the ``random`` variant's draw from that pass's rng,
    and the ``llm`` variant's sampled chat call, sent in record order, so
    its k requests for a record are equal and every reply is fresh. Nothing
    of this outlives the call.
    """
    if k < 1:
        raise BadConfig(f"k must be >= 1, got {k}")
    if not dataset:
        raise BadConfig("dataset is empty")

    pools: list[CandidatePool] = []
    # (kind, id of a pool_specs tuple) -> its stored pool; the records hold the tuples for the call
    looked_up: dict[tuple[str, int], tuple[CandidateBank, CandidatePool]] = {}
    for record in dataset:
        pool_object = (record.kind, id(record.pool_specs))
        if pool_object not in looked_up:
            try:
                key = _pool_key(record)
                if key not in setting._pools:
                    # A new pool: check it is JSON, once (a text key is that check). Key it by that text
                    # when marshal reads its bytes back as another value (a numpy scalar, a NaN).
                    text = key if isinstance(key, str) else _pool_json(record)
                    if isinstance(key, bytes) and marshal.loads(key) != (record.kind, record.pool_specs):
                        key = text
                if key not in setting._pools:
                    inline = _record_pool(record)
                    setting._pools[key] = (inline.bank, build_pool(inline, setting))
            except (RecursionError, SpecError, ValidationError) as exc:  # RecursionError: copying a deep pool
                raise ValidationError(record.label, f"dataset record unusable: {exc}") from exc
            looked_up[pool_object] = setting._pools[key]
        inline_bank, pool = looked_up[pool_object]
        if inline_bank.get(record.label) is None:
            raise ValidationError(record.label, "dataset record unusable: label not in its pool")
        pools.append(pool)

    repeatable = router.variant in REPEATABLE
    prompts: list[tuple[str, str] | None] = [None] * len(dataset)
    if router.variant == "llm":
        blocks: dict[int, str] = {}  # id of a pool -> its prompt block; the pools are held for the call
        for i, (record, pool) in enumerate(zip(dataset, pools)):
            if id(pool) not in blocks:
                blocks[id(pool)] = pool_json(pool.specs())
            system, user = _prompt(record.query, record.history, pool.bank.kind, blocks[id(pool)])
            prompts[i] = system, "".join(user)
    decisions: list[RouterDecision | None] = [None] * len(dataset)
    per_run: list[float] = []
    group_totals: dict[str, float] = {}
    for run in range(k):
        rng = random.Random(derive_seed(seed, "run", run))
        correct = 0
        group_correct: dict[str, int] = {}
        group_count: dict[str, int] = {}
        for i, (record, pool) in enumerate(zip(dataset, pools)):
            decision = decisions[i]
            if decision is None or decision.abstained or not repeatable:
                decision = decisions[i] = route(
                    router,
                    record.query,
                    record.history,
                    pool,
                    gateway,
                    oracle_label=record.label,
                    rng=rng,
                    prompt=prompts[i],
                )
            hit = (not decision.abstained) and decision.chosen == record.label
            correct += int(hit)
            group_count[record.group] = group_count.get(record.group, 0) + 1
            group_correct[record.group] = group_correct.get(record.group, 0) + int(hit)
        per_run.append(correct / len(dataset))
        for group, count in group_count.items():
            group_totals[group] = group_totals.get(group, 0.0) + group_correct[group] / count

    per_group = {group: total / k for group, total in sorted(group_totals.items())}
    return Metrics(
        per_run=tuple(per_run),
        avg_at_k=sum(per_run) / k,
        per_group=per_group,
        n_instances=len(dataset),
    )


def report(metrics_by_method: dict[str, dict[str, Metrics]]) -> str:
    """Aligned table: methods as rows, settings/groups as columns.

    Column order follows SETTING_ORDER for known setting names; missing cells
    render as an em dash.
    """
    known = [s.value for s in SETTING_ORDER]
    columns: list[str] = [name for name in known if any(name in row for row in metrics_by_method.values())]
    for row in metrics_by_method.values():
        for name in row:
            if name not in columns:
                columns.append(name)

    header = ["Method", *columns]
    rows: list[list[str]] = []
    for method in metrics_by_method:
        cells = [method]
        for column in columns:
            metric = metrics_by_method[method].get(column)
            cells.append("—" if metric is None else f"{metric.avg_at_k:.4f}")
        rows.append(cells)

    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for cells in rows:
        lines.append("  ".join(cells[i].ljust(widths[i]) for i in range(len(cells))))
    return "\n".join(lines)


def save_results(
    metrics_by_method: dict[str, dict[str, Metrics]], path: str | Path
) -> None:
    """One JSONL record per (method, setting) plus the rendered table."""
    path = Path(path)
    records = (
        {"method": method, "setting": setting_name, **metric.to_dict()}
        for method, row in metrics_by_method.items()
        for setting_name, metric in row.items()
    )
    write_jsonl(path, records, "results")
    write_lines(path.with_suffix(path.suffix + ".table.txt"), [report(metrics_by_method)], "results table")
