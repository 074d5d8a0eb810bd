"""Robustness pool settings, avg@k routing-accuracy evaluation, and report tables.

Settings are cumulative: Clean is the base pool, Multi merges all group
banks, +Mutation adds synthesized non-callable distractors from a graph,
+External further adds a real external bank. Ground-truth labels must stay
members under every setting.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from ._util import derive_seed, write_jsonl, write_lines
from .errors import MissingParameter, SpecError, ValidationError
from .gateway import Gateway
from .graph import CandidateGraph
from .registry import CandidateBank, CandidatePool, validate_spec
from .router import RouterConfig, route
from .supervision import DatasetRecord


class Setting(Enum):
    CLEAN = "Clean"
    MULTI = "Multi"
    PLUS_MUTATION = "+Mutation"
    PLUS_EXTERNAL = "+External"


SETTING_ORDER: tuple[Setting, ...] = (
    Setting.CLEAN,
    Setting.MULTI,
    Setting.PLUS_MUTATION,
    Setting.PLUS_EXTERNAL,
)


@dataclass(frozen=True)
class PoolSetting:
    variant: Setting = Setting.CLEAN
    group_banks: tuple[CandidateBank, ...] = ()
    mutation_graph: CandidateGraph | None = None
    external_bank: CandidateBank | None = None

    def __post_init__(self) -> None:
        rank = SETTING_ORDER.index(self.variant)
        if rank >= SETTING_ORDER.index(Setting.PLUS_MUTATION) and self.mutation_graph is None:
            raise MissingParameter("mutation_graph")
        if self.variant is Setting.PLUS_EXTERNAL and self.external_bank is None:
            raise MissingParameter("external_bank")


def _mutant_bank(graph: CandidateGraph, kind: str) -> CandidateBank:
    entries = tuple(
        node.spec
        for name, node in sorted(graph.nodes.items())
        if node.spec.provenance.origin == "mutant" and node.spec.kind == kind
    )
    return CandidateBank(kind=kind, entries=entries)


def build_pool(base: CandidatePool, setting: PoolSetting) -> CandidatePool:
    """Expand a base pool per the setting; labels (base members) never leave."""
    kind = base.bank.kind
    banks: list[CandidateBank] = [base.bank]
    non_callable: set[str] = set(base.non_callable)
    rank = SETTING_ORDER.index(setting.variant)

    if rank >= SETTING_ORDER.index(Setting.MULTI):
        banks.extend(bank for bank in setting.group_banks if bank.kind == kind)
    if rank >= SETTING_ORDER.index(Setting.PLUS_MUTATION):
        assert setting.mutation_graph is not None
        mutants = _mutant_bank(setting.mutation_graph, kind)
        banks.append(mutants)
        non_callable.update(mutants.names())
    if rank >= SETTING_ORDER.index(Setting.PLUS_EXTERNAL):
        assert setting.external_bank is not None
        banks.append(setting.external_bank)

    merged = CandidateBank.merge(kind, banks)
    # The merged bank holds every base member, so the membership is the base
    # order followed by the rest of the merged names.
    membership = tuple(dict.fromkeys(base.membership + merged.names()))
    return CandidatePool(
        bank=merged,
        membership=membership,
        non_callable=frozenset(non_callable).intersection(membership),
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
    entries = tuple(validate_spec(dict(doc), record.kind) for doc in record.pool_specs)
    bank = CandidateBank(kind=record.kind, entries=entries)
    return CandidatePool.whole_bank(bank)


def _pool_key(record: DatasetRecord) -> str:
    """The record's kind and inline pool as JSON text: two keys are equal only
    for the same documents with the same key order."""
    try:
        return json.dumps([record.kind, record.pool_specs])
    except (TypeError, ValueError) as exc:
        raise SpecError(f"pool is not JSON: {exc}") from exc


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
    count as incorrect. Per-group accuracies average over runs.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not dataset:
        raise ValueError("dataset is empty")

    pools: list[CandidatePool] = []
    built: dict[str, tuple[CandidateBank, CandidatePool]] = {}  # one build per distinct inline pool
    for record in dataset:
        try:
            key = _pool_key(record)
            if key not in built:
                inline = _record_pool(record)
                built[key] = (inline.bank, build_pool(inline, setting))
        except (SpecError, ValidationError) as exc:
            raise ValidationError(record.label, f"dataset record unusable: {exc}") from exc
        inline_bank, pool = built[key]
        if inline_bank.get(record.label) is None:
            raise ValidationError(record.label, "dataset record unusable: label not in its pool")
        pools.append(pool)

    per_run: list[float] = []
    group_totals: dict[str, float] = {}
    for run in range(k):
        rng = random.Random(derive_seed(seed, "run", run))
        correct = 0
        group_correct: dict[str, int] = {}
        group_count: dict[str, int] = {}
        for record, pool in zip(dataset, pools):
            decision = route(
                router,
                record.query,
                record.history,
                pool,
                gateway,
                oracle_label=record.label,
                rng=rng,
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
