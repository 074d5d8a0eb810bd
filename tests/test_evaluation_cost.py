"""Clock-free cost checks of evaluate(): the work a call does, counted by call
at growing dataset sizes, so a per-record JSON encode or pool build fails at
every size instead of only slowing the large ones."""

import json

import pytest

from helpers import count_calls, make_tool_doc
from toolrouter import evaluation
from toolrouter.evaluation import PoolSetting, Setting, evaluate
from toolrouter.registry import CandidateBank, validate_spec
from toolrouter.router import RouterConfig
from toolrouter.supervision import DatasetRecord

SIZES = (250, 1000, 4000)
POOLS, POOL_SIZE = 4, 4
CFG = RouterConfig(variant="oracle")
GROUP_BANK = CandidateBank(kind="tool", entries=tuple(validate_spec(make_tool_doc(100 + i), "tool") for i in range(3)))


def records_over_pools(n: int) -> list[DatasetRecord]:
    """``n`` records over POOLS distinct pools; each record decodes its own
    documents from its pool's line, as ``load_dataset`` reads them."""
    lines = [json.dumps([make_tool_doc(POOL_SIZE * p + i) for i in range(POOL_SIZE)]) for p in range(POOLS)]
    records = []
    for i in range(n):
        pool_specs = tuple(json.loads(lines[i % POOLS]))
        records.append(
            DatasetRecord(
                kind="tool",
                system="sys",
                user="user",
                query=f"query {i}",
                history=(),
                pool_specs=pool_specs,
                label=pool_specs[i % POOL_SIZE]["name"],
                group=f"pool{i % POOLS}",
            )
        )
    return records


@pytest.mark.parametrize("n", SIZES)
def test_a_second_evaluate_encodes_validates_and_builds_nothing(monkeypatch, n):
    records = records_over_pools(n)
    setting = PoolSetting(variant=Setting.MULTI, group_banks=(GROUP_BANK,))
    counts = count_calls(
        monkeypatch,
        pool_json=(evaluation, "_pool_json"),
        record_pool=(evaluation, "_record_pool"),
        validate_spec=(evaluation, "validate_spec"),
        build_pool=(evaluation, "build_pool"),
    )
    cold = evaluate(CFG, records, setting, k=1)
    assert cold.avg_at_k == 1.0
    assert counts == {"pool_json": POOLS, "record_pool": POOLS, "validate_spec": POOLS * POOL_SIZE, "build_pool": POOLS}
    counts.update(dict.fromkeys(counts, 0))
    assert evaluate(CFG, records, setting, k=1) == cold
    assert counts == dict.fromkeys(counts, 0)
