"""Pool settings, avg@k evaluation mechanics, and report rendering."""

import copy
import json
import random
from dataclasses import replace

import pytest

from helpers import make_agent_bank, make_tool_bank, make_tool_doc, mock_gateway
from toolrouter import evaluation
from toolrouter.errors import MissingParameter, ValidationError
from toolrouter.evaluation import (
    Metrics,
    PoolSetting,
    SETTING_ORDER,
    Setting,
    build_pool,
    evaluate,
    report,
    save_results,
)
from toolrouter.graph import GraphConfig, build_graph
from toolrouter.mutation import EvolveConfig, evolve
from toolrouter.registry import CandidateBank, CandidatePool, validate_spec
from toolrouter.router import RouterConfig
from toolrouter.supervision import DatasetRecord


def _prefixed_bank(prefix, size):
    entries = []
    for i in range(size):
        doc = make_tool_doc(i)
        doc["name"] = f"{prefix}_{doc['name']}"
        entries.append(validate_spec(doc, "tool"))
    return CandidateBank(kind="tool", entries=tuple(entries))


BASE_BANK = make_tool_bank(10)
GROUP_BANK = _prefixed_bank("group", 5)
EXTERNAL_BANK = _prefixed_bank("ext", 5)


@pytest.fixture(scope="module")
def mutation_graph():
    gateway = mock_gateway(7)
    graph = build_graph(make_tool_bank(10), GraphConfig(), gateway)
    return evolve(graph, 8, EvolveConfig(rng_seed=3), gateway).graph


def base_pool(size=4):
    return CandidatePool(bank=BASE_BANK, membership=BASE_BANK.names()[:size])


def make_records(n, pool_size=10, seed=0):
    rng = random.Random(seed)
    pool_docs = tuple(make_tool_doc(i) for i in range(pool_size))
    names = [doc["name"] for doc in pool_docs]
    return [
        DatasetRecord(
            kind="tool",
            system="sys",
            user="user",
            query=f"query {i}",
            history=(),
            pool_specs=pool_docs,
            label=rng.choice(names),
            group="even" if i % 2 == 0 else "odd",
        )
        for i in range(n)
    ]


def test_setting_parameter_requirements(mutation_graph):
    with pytest.raises(MissingParameter):
        PoolSetting(variant=Setting.PLUS_MUTATION)
    with pytest.raises(MissingParameter):
        PoolSetting(variant=Setting.PLUS_EXTERNAL, mutation_graph=mutation_graph)
    PoolSetting(
        variant=Setting.PLUS_EXTERNAL,
        mutation_graph=mutation_graph,
        external_bank=EXTERNAL_BANK,
    )


def test_build_pool_cumulative_nesting(mutation_graph):
    base = base_pool()
    pools = {}
    for setting in SETTING_ORDER:
        pools[setting] = build_pool(
            base,
            PoolSetting(
                variant=setting,
                group_banks=(GROUP_BANK,),
                mutation_graph=mutation_graph,
                external_bank=EXTERNAL_BANK,
            ),
        )
    clean, multi, plus_mut, plus_ext = (pools[s] for s in SETTING_ORDER)
    assert set(clean.membership) <= set(multi.membership)
    assert set(multi.membership) <= set(plus_mut.membership)
    assert set(plus_mut.membership) <= set(plus_ext.membership)
    # base members always lead the ordering
    for pool in pools.values():
        assert pool.membership[: len(base.membership)] == base.membership
    # mutants are present and flagged non-callable from +Mutation on
    mutants = {
        name
        for name, node in mutation_graph.nodes.items()
        if node.spec.provenance.origin == "mutant"
    }
    assert mutants and mutants <= set(plus_mut.membership)
    assert mutants <= plus_mut.non_callable
    assert not clean.non_callable
    # external names only appear at the last rank
    assert set(EXTERNAL_BANK.names()) <= set(plus_ext.membership)
    assert not set(EXTERNAL_BANK.names()) & set(plus_mut.membership)


def test_multi_merges_only_group_banks_of_the_base_kind():
    agents = make_agent_bank(5)
    agent_base = CandidateBank(kind="agent", entries=agents.entries[:2])
    agent_group = CandidateBank(kind="agent", entries=agents.entries[2:])
    setting = PoolSetting(variant=Setting.MULTI, group_banks=(GROUP_BANK, agent_group))
    tool_pool = build_pool(base_pool(), setting)
    assert set(tool_pool.membership) == set(BASE_BANK.names()) | set(GROUP_BANK.names())
    agent_pool = build_pool(CandidatePool.whole_bank(agent_base), setting)
    assert set(agent_pool.membership) == set(agents.names())


def test_build_pool_label_containment_fuzz(mutation_graph):
    rng = random.Random(0)
    names = BASE_BANK.names()
    for _ in range(300):
        members = tuple(rng.sample(names, rng.randint(1, len(names))))
        base = CandidatePool(bank=BASE_BANK, membership=members)
        setting = PoolSetting(
            variant=rng.choice(SETTING_ORDER),
            group_banks=(GROUP_BANK,) if rng.random() < 0.5 else (),
            mutation_graph=mutation_graph,
            external_bank=EXTERNAL_BANK,
        )
        pool = build_pool(base, setting)
        assert set(members) <= set(pool.membership)


def test_evaluate_oracle_perfect_and_random_near_uniform():
    records = make_records(200, pool_size=10)
    oracle = evaluate(RouterConfig(variant="oracle"), records, PoolSetting(), k=5, seed=1)
    assert oracle.avg_at_k == 1.0
    assert oracle.per_run == (1.0,) * 5
    assert oracle.n_instances == 200
    assert set(oracle.per_group) == {"even", "odd"}

    rand = evaluate(RouterConfig(variant="random"), records, PoolSetting(), k=5, seed=1)
    assert abs(rand.avg_at_k - 0.10) < 0.06
    # runs differ (different derived seeds) but are reproducible
    again = evaluate(RouterConfig(variant="random"), records, PoolSetting(), k=5, seed=1)
    assert rand == again
    other = evaluate(RouterConfig(variant="random"), records, PoolSetting(), k=5, seed=2)
    assert rand.per_run != other.per_run


def test_evaluate_abstention_counts_as_incorrect():
    records = make_records(20)
    # llm router without a gateway always abstains
    metrics = evaluate(RouterConfig(variant="llm"), records, PoolSetting(), k=2, seed=0)
    assert metrics.avg_at_k == 0.0


def test_evaluate_input_validation():
    records = make_records(5)
    with pytest.raises(ValueError):
        evaluate(RouterConfig(variant="oracle"), records, PoolSetting(), k=0)
    with pytest.raises(ValueError):
        evaluate(RouterConfig(variant="oracle"), [], PoolSetting())


def test_evaluate_builds_each_record_pool_once(monkeypatch, mutation_graph):
    calls = []

    def counting_build_pool(base, setting):
        calls.append(base)
        return build_pool(base, setting)

    monkeypatch.setattr(evaluation, "build_pool", counting_build_pool)
    records = make_records(6)
    setting = PoolSetting(variant=Setting.PLUS_MUTATION, mutation_graph=mutation_graph)
    evaluate(RouterConfig(variant="random"), records, setting, k=3, seed=0)
    assert len(calls) == 1  # the 6 records share one inline pool


def _touch_first_description(docs):
    docs[0]["inputSchema"]["properties"]["target"]["description"] += "!"
    return docs


def _reorder_first_keys(docs):
    docs[0] = dict(reversed(docs[0].items()))
    return docs


@pytest.mark.parametrize(
    "second_pool",
    [
        lambda docs: [make_tool_doc(i) for i in range(4, 8)],
        _touch_first_description,
        _reorder_first_keys,
    ],
    ids=["other-tools", "one-property-description", "key-order"],
)
def test_evaluate_builds_each_distinct_inline_pool_once(monkeypatch, mutation_graph, second_pool):
    first = [make_tool_doc(i) for i in range(4)]
    pools = [first, second_pool(copy.deepcopy(first))]
    records = [
        DatasetRecord(
            kind="tool",
            system="sys",
            user="user",
            query=f"query {i}",
            history=(),
            pool_specs=tuple(copy.deepcopy(pools[i % 2])),  # equal documents, never the same objects
            label=pools[i % 2][i % 4]["name"],
            group="even" if i % 2 == 0 else "odd",
        )
        for i in range(8)
    ]
    setting = PoolSetting(variant=Setting.PLUS_MUTATION, mutation_graph=mutation_graph)
    builds, validated = [], []

    def counting_build_pool(base, setting):
        builds.append(base)
        return build_pool(base, setting)

    def counting_validate_spec(document, kind):
        validated.append(document["name"])
        return validate_spec(document, kind)

    def run():
        return evaluate(RouterConfig(variant="random"), records, setting, k=3, seed=0)

    monkeypatch.setattr(evaluation, "validate_spec", counting_validate_spec)
    monkeypatch.setattr(evaluation, "build_pool", counting_build_pool)
    shared = run()
    assert len(builds) == 2
    assert sorted(validated) == sorted(doc["name"] for docs in pools for doc in docs)
    monkeypatch.setattr(evaluation, "_pool_key", lambda record: str(id(record)))  # every record built alone
    assert run() == shared
    assert len(builds) == 2 + len(records)


def test_evaluate_rejects_a_pool_that_is_not_json():
    record = make_records(1)[0]
    pool_specs = ({**record.pool_specs[0], "tags": {"not", "json"}}, *record.pool_specs[1:])
    with pytest.raises(ValidationError, match="dataset record unusable: pool is not JSON"):
        evaluate(RouterConfig(variant="oracle"), [replace(record, pool_specs=pool_specs)], PoolSetting())


@pytest.mark.parametrize("variant", [Setting.CLEAN, Setting.PLUS_EXTERNAL])
def test_evaluate_rejects_a_label_outside_its_inline_pool(mutation_graph, variant):
    # under +External the expanded pool holds the label, but the record's own pool does not
    record = replace(make_records(1)[0], label=EXTERNAL_BANK.names()[0])
    setting = PoolSetting(variant=variant, mutation_graph=mutation_graph, external_bank=EXTERNAL_BANK)
    with pytest.raises(ValidationError, match="dataset record unusable: label not in its pool"):
        evaluate(RouterConfig(variant="oracle"), [record], setting)


def test_evaluate_under_expanded_settings(mutation_graph):
    records = make_records(50)
    for setting in SETTING_ORDER:
        metrics = evaluate(
            RouterConfig(variant="oracle"),
            records,
            PoolSetting(
                variant=setting,
                group_banks=(GROUP_BANK,),
                mutation_graph=mutation_graph,
                external_bank=EXTERNAL_BANK,
            ),
            k=2,
            seed=0,
        )
        assert metrics.avg_at_k == 1.0


def test_report_table_order_and_missing_cells():
    metric = Metrics(per_run=(1.0,), avg_at_k=0.5, per_group={}, n_instances=1)
    table = report(
        {
            "method_b": {"+Mutation": metric, "Clean": metric},
            "method_a": {"Clean": metric, "custom": metric},
        }
    )
    lines = table.splitlines()
    header = lines[0].split()
    assert header == ["Method", "Clean", "+Mutation", "custom"]
    assert "—" in table  # missing cells


def test_save_results(tmp_path):
    metric = Metrics(per_run=(1.0, 0.5), avg_at_k=0.75, per_group={"g": 0.75}, n_instances=4)
    path = tmp_path / "results.jsonl"
    save_results({"oracle": {"Clean": metric}}, path)
    record = json.loads(path.read_text().splitlines()[0])
    assert record == {
        "method": "oracle",
        "setting": "Clean",
        "per_run": [1.0, 0.5],
        "avg_at_k": 0.75,
        "per_group": {"g": 0.75},
        "n_instances": 4,
    }
    table = (tmp_path / "results.jsonl.table.txt").read_text()
    assert "oracle" in table and "0.7500" in table
