"""Clock-free cost checks of evaluate(): the work a call does, counted by call
at growing dataset sizes, so a per-record JSON encode or pool build fails at
every size instead of only slowing the large ones."""

import json

import pytest

from helpers import count_calls, make_tool_doc
from toolrouter import evaluation, router
from toolrouter.evaluation import PoolSetting, Setting, evaluate
from toolrouter.gateway import Gateway
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
        pool_key=(evaluation, "_pool_key"),
        pool_json=(evaluation, "_pool_json"),
        record_pool=(evaluation, "_record_pool"),
        validate_spec=(evaluation, "validate_spec"),
        build_pool=(evaluation, "build_pool"),
    )
    cold = evaluate(CFG, records, setting, k=1)
    assert cold.avg_at_k == 1.0
    # each record holds a pool object of its own, so each is keyed
    expected = {"pool_json": POOLS, "record_pool": POOLS, "validate_spec": POOLS * POOL_SIZE, "build_pool": POOLS}
    assert counts == {"pool_key": n, **expected}
    counts.update(dict.fromkeys(counts, 0))
    assert evaluate(CFG, records, setting, k=1) == cold
    assert counts == {**dict.fromkeys(counts, 0), "pool_key": n}


K = 5


class OneDirection:
    """Embeds every text to one row: the calls, not the mock's hashing, are counted."""

    dim, model_id = 2, "one-direction"

    def embed(self, texts):
        return [[1.0, 0.0]] * len(texts)


class FirstMember:
    """Replies with the first member of pool 0; the mock's prompt decode is not what is counted."""

    reply = json.dumps([make_tool_doc(0)["name"]])

    def complete(self, request):
        return self.reply


# variant -> the calls one evaluate() of n records at k = K makes, by name: what
# cannot change between passes happens once per record (the llm prompt block once
# per pool), a sampled reply or a seeded draw once per pass and record.
PER_CALL = {
    "embedding_q": lambda n: {"route": n, "most_similar": n},
    "embedding_qh": lambda n: {"route": n, "most_similar": n},
    "llm": lambda n: {"route": K * n, "pool_block": POOLS, "prompt": n, "chat": K * n},
    "random": lambda n: {"route": K * n},
}


def records_sharing_pools(n: int) -> list[DatasetRecord]:
    """``n`` records over POOLS pools whose documents they share, with 50
    distinct queries: what grows with ``n`` is the routing alone."""
    pools = [tuple(make_tool_doc(POOL_SIZE * p + i) for i in range(POOL_SIZE)) for p in range(POOLS)]
    return [
        DatasetRecord(
            kind="tool",
            system="sys",
            user="user",
            query=f"query {i % 50}",
            history=(),
            pool_specs=pools[i % POOLS],
            label=pools[i % POOLS][i % POOL_SIZE]["name"],
            group=f"pool{i % POOLS}",
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("n", SIZES)
def test_passes_share_what_cannot_change_between_them(monkeypatch, n):
    records = records_sharing_pools(n)
    setting, gateway = PoolSetting(), Gateway(chat_backend=FirstMember(), embedding_backend=OneDirection())
    counts = count_calls(
        monkeypatch,
        pool_key=(evaluation, "_pool_key"),
        route=(evaluation, "route"),
        most_similar=(Gateway, "most_similar"),
        pool_block=(evaluation, "pool_json"),
        prompt=(evaluation, "_prompt"),
        render_prompt_in_route=(router, "render_prompt"),
        chat=(Gateway, "chat"),
    )
    for variant, calls in PER_CALL.items():
        counts.update(dict.fromkeys(counts, 0))
        evaluate(RouterConfig(variant=variant), records, setting, k=K, gateway=gateway)
        # records that share a pool object share its key, once per call
        assert counts == {**dict.fromkeys(counts, 0), "pool_key": POOLS, **calls(n)}, variant
