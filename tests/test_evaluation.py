"""Pool settings, avg@k evaluation mechanics, and report rendering."""

import copy
import json
import marshal
import random
import sys
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    count_calls,
    distinct_pool_records,
    make_agent_bank,
    make_tool_bank,
    make_tool_doc,
    mock_gateway,
)
from toolrouter import evaluation
from toolrouter._util import derive_seed
from toolrouter.backends import MockChatBackend, MockEmbeddingBackend
from toolrouter.errors import BadConfig, MissingParameter, ValidationError
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
from toolrouter.gateway import ChatRequest, EmbeddingVector, Gateway, TransientBackendError
from toolrouter.graph import GraphConfig, build_graph
from toolrouter.mutation import EvolveConfig, evolve
from toolrouter.registry import CandidateBank, CandidatePool, pool_json, serialize_phi, validate_spec
from toolrouter.router import VARIANTS, RouterConfig, route
from toolrouter.supervision import DatasetRecord
from toolrouter.synthesis import Action, Observation


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


def test_plus_mutation_pool_builds_no_embedding_vector(monkeypatch):
    gateway = mock_gateway(7)  # a graph of its own: no earlier read of it may have run
    graph = evolve(build_graph(make_tool_bank(10), GraphConfig(), gateway), 8, EvolveConfig(rng_seed=3), gateway).graph
    counts = count_calls(monkeypatch, vectors=(EmbeddingVector, "__post_init__"))
    pool = build_pool(base_pool(), PoolSetting(variant=Setting.PLUS_MUTATION, mutation_graph=graph))
    assert pool.non_callable and counts == {"vectors": 0}


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
    mutants = {name for name, spec in mutation_graph.specs.items() if spec.provenance.origin == "mutant"}
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


@pytest.mark.parametrize("variant", SETTING_ORDER, ids=[s.name for s in SETTING_ORDER])
def test_one_setting_across_routers_and_calls_scores_as_fresh_settings(mutation_graph, variant):
    records = distinct_pool_records()
    inputs = dict(group_banks=(GROUP_BANK,), mutation_graph=mutation_graph, external_bank=EXTERNAL_BANK)
    shared = PoolSetting(variant=variant, **inputs)
    for _ in range(2):
        for router in ("oracle", "random", "embedding_q", "embedding_qh", "llm"):
            cfg = RouterConfig(variant=router)
            reused = evaluate(cfg, records, shared, k=2, seed=3, gateway=mock_gateway(1))
            fresh = evaluate(cfg, records, PoolSetting(variant=variant, **inputs), k=2, seed=3, gateway=mock_gateway(1))
            assert reused == fresh, router


def test_repeated_evaluate_calls_build_nothing_more(monkeypatch, mutation_graph):
    counts = count_calls(
        monkeypatch,
        build_pool=(evaluation, "build_pool"),
        record_pool=(evaluation, "_record_pool"),
        mutant_bank=(evaluation, "_mutant_bank"),
    )
    tools, agents = distinct_pool_records(3), distinct_pool_records(2, kind="agent")
    setting = PoolSetting(variant=Setting.PLUS_EXTERNAL, mutation_graph=mutation_graph, external_bank=EXTERNAL_BANK)
    for router in ("oracle", "random", "oracle"):
        evaluate(RouterConfig(variant=router), tools, setting, k=2, seed=0)
    assert counts == {"build_pool": 3, "record_pool": 3, "mutant_bank": 1}
    # an agent pool adds its own expansion once; a second setting builds its own
    agent_setting = PoolSetting(variant=Setting.PLUS_MUTATION, mutation_graph=mutation_graph)
    for _ in range(2):
        evaluate(RouterConfig(variant="oracle", kind="agent"), agents, agent_setting, k=1, seed=0)
        evaluate(RouterConfig(variant="oracle"), tools, agent_setting, k=1, seed=0)
    assert counts == {"build_pool": 3 + 5, "record_pool": 3 + 5, "mutant_bank": 1 + 2}


def test_a_pool_edited_between_calls_is_rebuilt(monkeypatch, mutation_graph):
    records = distinct_pool_records(2)
    inputs = dict(variant=Setting.PLUS_MUTATION, mutation_graph=mutation_graph)
    setting = PoolSetting(**inputs)
    seen = []

    def recording_route(cfg, query, history, pool, *args, **kwargs):
        seen.append(pool)
        return route(cfg, query, history, pool, *args, **kwargs)

    monkeypatch.setattr(evaluation, "route", recording_route)
    cfg = RouterConfig(variant="random")
    evaluate(cfg, records, setting, k=1, seed=0)
    # rename a candidate that no record's label names, in place, in the first record only
    edited = records[0].pool_specs[3]
    old_name = edited["name"]
    edited["name"] = "renamed_tool"
    seen.clear()
    again = evaluate(cfg, records, setting, k=1, seed=0)
    assert "renamed_tool" in seen[0].membership and old_name not in seen[0].membership
    assert old_name in seen[1].membership  # the other records keep their own pool
    assert again == evaluate(cfg, records, PoolSetting(**inputs), k=1, seed=0)


def test_a_record_edited_below_the_top_level_leaves_the_stored_pool_unedited(monkeypatch):
    records = distinct_pool_records(1, per_pool=2)
    setting = PoolSetting()
    seen = []

    def recording_route(cfg, query, history, pool, *args, **kwargs):
        seen.append(pool)
        return route(cfg, query, history, pool, *args, **kwargs)

    monkeypatch.setattr(evaluation, "route", recording_route)
    cfg = RouterConfig(variant="random")
    evaluate(cfg, records, setting, k=1, seed=0)
    records[0].pool_specs[0]["inputSchema"]["properties"]["target"]["description"] = "EDITED"
    seen.clear()
    evaluate(cfg, records, setting, k=1, seed=0)
    target = seen[1].specs()[0].input_schema["properties"]["target"]
    assert target["description"] == records[1].pool_specs[0]["inputSchema"]["properties"]["target"]["description"]
    assert "EDITED" not in pool_json(seen[1].specs())


def test_a_label_outside_a_cached_pool_raises_on_every_call(mutation_graph):
    good = distinct_pool_records(1, per_pool=1)[0]
    stray = replace(good, label=EXTERNAL_BANK.names()[0])  # the same pool, a label outside it
    setting = PoolSetting(variant=Setting.PLUS_EXTERNAL, mutation_graph=mutation_graph, external_bank=EXTERNAL_BANK)
    evaluate(RouterConfig(variant="oracle"), [good], setting)
    for _ in range(2):
        with pytest.raises(ValidationError, match="dataset record unusable: label not in its pool"):
            evaluate(RouterConfig(variant="oracle"), [good, stray], setting)


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


def test_evaluate_with_k_below_one_is_bad_config():
    with pytest.raises(BadConfig, match="k must be >= 1, got 0"):
        evaluate(RouterConfig(variant="oracle"), make_records(2), PoolSetting(), k=0)


def test_evaluate_of_an_empty_dataset_is_bad_config():
    with pytest.raises(BadConfig, match="dataset is empty"):
        evaluate(RouterConfig(variant="oracle"), [], PoolSetting())


# --- the pool memo's key: marshal bytes of plain values, else JSON text -------------


def _records_over(pool_specs, n=3, group="g"):
    """``n`` records over one inline pool, each label a member of it."""
    return [
        DatasetRecord(
            kind="tool",
            system="sys",
            user="user",
            query=f"query {group} {i}",
            history=(),
            pool_specs=tuple(pool_specs),
            label=pool_specs[i % len(pool_specs)]["name"],
            group=group,
        )
        for i in range(n)
    ]


def _with_target(docs, target):
    """A deep copy of ``docs`` whose first document's ``target`` property is ``target``."""
    docs = copy.deepcopy(docs)
    docs[0]["inputSchema"]["properties"]["target"] = target
    return docs


def _interned(value):
    """``value`` rebuilt with every string, keys included, interned."""
    if isinstance(value, str):
        return sys.intern(value)
    if isinstance(value, dict):
        return {sys.intern(key): _interned(item) for key, item in value.items()}
    return [_interned(item) for item in value]


@pytest.fixture
def routed(monkeypatch):
    """The public JSON of each pool ``evaluate()`` routes over, in call order."""
    seen = []

    def recording_route(cfg, query, history, pool, *args, **kwargs):
        seen.append(pool_json(pool.specs()))
        return route(cfg, query, history, pool, *args, **kwargs)

    monkeypatch.setattr(evaluation, "route", recording_route)
    return seen


def _scores(routed, cfg, records, setting):
    """One ``evaluate()`` call's Metrics and the pools it routed over."""
    routed.clear()
    metrics = evaluate(cfg, records, setting, k=2, seed=5, gateway=mock_gateway(1))
    return metrics, list(routed)


def test_equal_pools_made_three_ways_build_once_per_setting(monkeypatch, routed, mutation_graph):
    docs = [make_tool_doc(i) for i in range(4)]
    line = json.dumps(docs)
    records = [
        *_records_over(json.loads(line), group="decoded"),
        *_records_over(copy.deepcopy(docs), group="copied"),
        *_records_over(_interned([make_tool_doc(i) for i in range(4)]), group="interned"),
    ]
    inputs = dict(variant=Setting.PLUS_MUTATION, mutation_graph=mutation_graph)
    setting, cfg = PoolSetting(**inputs), RouterConfig(variant="embedding_qh")
    counts = count_calls(monkeypatch, record_pool=(evaluation, "_record_pool"), build_pool=(evaluation, "build_pool"))
    shared = [_scores(routed, cfg, records, setting) for _ in range(2)]
    assert counts == {"record_pool": 1, "build_pool": 1}
    assert shared[0] == shared[1] == _scores(routed, cfg, records, PoolSetting(**inputs))


@pytest.mark.parametrize(
    "targets",
    [
        [{"type": "string", "description": "d"}, {"description": "d", "type": "string"}],
        [{"type": "integer", "description": "d", "default": value} for value in (1, 1.0, True)],
        [{"type": "string", "description": "d", "examples": value} for value in (["a", "b"], ("a", "b"))],
        [{"type": "string", "description": "d", "labels": {key: "a"}} for key in (1, "1")],
        [{"type": "number", "description": "d", "default": value} for value in (float("nan"), float("inf"))],
    ],
    ids=["key-order", "one-float-true", "list-tuple", "int-str-key", "nan-inf"],
)
def test_pools_that_differ_only_in_key_order_or_type_score_like_fresh_settings(monkeypatch, routed, targets):
    docs = [make_tool_doc(i) for i in range(4)]
    pools = [_with_target(docs, target) for target in targets]
    setting, cfg = PoolSetting(), RouterConfig(variant="llm")
    counts = count_calls(monkeypatch, record_pool=(evaluation, "_record_pool"))
    for _ in range(2):
        for i, pool in enumerate(pools):
            records = _records_over(pool, group=f"pool{i}")
            assert _scores(routed, cfg, records, setting) == _scores(routed, cfg, records, PoolSetting())
    assert counts == {"record_pool": 3 * len(pools)}  # each pool once in the shared setting, twice in fresh ones


def test_a_bytes_pool_that_marshals_as_a_stored_numpy_pool_is_not_json(monkeypatch):
    docs = [make_tool_doc(i) for i in range(4)]
    numeric = _records_over(_with_target(docs, {"type": "number", "default": np.float64(0.5)}), n=2)
    raw = _records_over(_with_target(docs, {"type": "number", "default": np.float64(0.5).tobytes()}), n=2)
    as_bytes = [marshal.dumps((record.kind, record.pool_specs), 2) for record in (numeric[0], raw[0])]
    assert as_bytes[0] == as_bytes[1]  # marshal writes the float64 as its buffer: a key alone cannot tell them apart
    setting, cfg = PoolSetting(), RouterConfig(variant="oracle")
    fresh = evaluate(cfg, numeric, PoolSetting())
    counts = count_calls(monkeypatch, record_pool=(evaluation, "_record_pool"))
    for _ in range(2):
        assert evaluate(cfg, numeric, setting) == fresh
        with pytest.raises(ValidationError, match="dataset record unusable: pool is not JSON"):
            evaluate(cfg, raw, setting)
    assert counts == {"record_pool": 1}


class _Text(str):
    pass


@pytest.mark.parametrize(
    "document",
    [OrderedDict, lambda doc: {**doc, "description": _Text(doc["description"])}],
    ids=["ordered-dict", "str-subclass"],
)
def test_pools_that_marshal_refuses_share_one_build_through_their_json_text(monkeypatch, routed, document):
    records = [
        record
        for copies in range(3)
        for record in _records_over([document(make_tool_doc(i)) for i in range(4)], n=2, group=f"copy{copies}")
    ]
    with pytest.raises(ValueError):
        marshal.dumps(records[0].pool_specs, 2)
    setting, cfg = PoolSetting(), RouterConfig(variant="embedding_q")
    counts = count_calls(monkeypatch, record_pool=(evaluation, "_record_pool"))
    shared = [_scores(routed, cfg, records, setting) for _ in range(2)]
    assert counts == {"record_pool": 1}
    assert shared[0] == shared[1] == _scores(routed, cfg, records, PoolSetting())


class RecordingChat(MockChatBackend):
    """The mock chat backend, keeping every request it is sent."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed=seed)
        self.requests: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> str:
        self.requests.append(request)
        return super().complete(request)


class FailsFirstCall(MockEmbeddingBackend):
    """The mock embedder, except that its first call fails."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed=seed)
        self.failed = False

    def embed(self, texts):
        if not self.failed:
            self.failed = True
            raise TransientBackendError("the first call fails")
        return super().embed(texts)


def reference_evaluate(cfg, dataset, setting, k, seed, gateway):
    """avg@k as a loop that routes every record in every pass, each llm
    decision rendering its own prompt: what evaluate() must score and spend."""
    pools = []
    for record in dataset:
        bank = CandidateBank(kind=record.kind, entries=tuple(validate_spec(doc, record.kind) for doc in record.pool_specs))
        pools.append(build_pool(CandidatePool.whole_bank(bank), setting))
    per_run, group_totals = [], {}
    for run in range(k):
        rng = random.Random(derive_seed(seed, "run", run))
        hits: dict[str, list[bool]] = {}
        for record, pool in zip(dataset, pools):
            decision = route(cfg, record.query, record.history, pool, gateway, oracle_label=record.label, rng=rng)
            hits.setdefault(record.group, []).append(not decision.abstained and decision.chosen == record.label)
        per_run.append(sum(map(sum, hits.values())) / len(dataset))
        for group, group_hits in hits.items():
            group_totals[group] = group_totals.get(group, 0.0) + sum(group_hits) / len(group_hits)
    per_group = {group: total / k for group, total in sorted(group_totals.items())}
    return Metrics(per_run=tuple(per_run), avg_at_k=sum(per_run) / k, per_group=per_group, n_instances=len(dataset))


def _varied_records(kind):
    """Records over three pools of ``kind``: every other query names its label, and two in three carry a history."""
    history = (Observation("Earlier I asked about the archive."), Action("Noted, the archive comes next."))
    records = distinct_pool_records(pools=3, per_pool=4, kind=kind)
    return [
        replace(record, query=f"{record.query} {record.label}" if i % 2 else record.query, history=history if i % 3 else ())
        for i, record in enumerate(records)
    ]


def _scored_both_ways(cfg, records, embedder=MockEmbeddingBackend, k=3, **gateway_kwargs):
    """For evaluate() and the reference loop: the Metrics, the gateway's usage and the chat requests sent."""
    runs = []
    for score in (evaluate, reference_evaluate):
        chat = RecordingChat(seed=1)
        gateway = Gateway(chat_backend=chat, embedding_backend=embedder(seed=1), backoff_s=0.0, **gateway_kwargs)
        metrics = score(cfg, records, PoolSetting(), k=k, seed=5, gateway=gateway)
        runs.append((metrics, gateway.usage, chat.requests))
    return runs


@pytest.mark.parametrize("kind", ["tool", "agent"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_evaluate_scores_and_spends_as_a_loop_that_routes_every_pass(kind, variant):
    shared, reference = _scored_both_ways(RouterConfig(variant=variant, kind=kind), _varied_records(kind))
    assert shared == reference
    assert shared[0].avg_at_k > 0.0  # some decisions hit, so equal Metrics compare real picks


def test_each_record_sends_k_equal_llm_requests_in_the_loops_order():
    records, k = _varied_records("tool"), 3
    (metrics, usage, requests), reference = _scored_both_ways(RouterConfig(variant="llm"), records, k=k)
    n = len(records)
    assert requests == reference[2] and usage.chat_calls == k * n
    assert all(requests[i::n] == [requests[i]] * k for i in range(n))
    assert len(set(requests[:n])) == n


@pytest.mark.parametrize("variant", ["embedding_q", "embedding_qh"])
def test_a_decision_that_abstained_is_routed_again_in_the_next_pass(variant):
    records = []
    for record in distinct_pool_records(pools=3, per_pool=4):
        label_doc = next(doc for doc in record.pool_specs if doc["name"] == record.label)
        records.append(replace(record, query=serialize_phi(validate_spec(label_doc, "tool"))))  # the label's own row
    shared, reference = _scored_both_ways(RouterConfig(variant=variant), records, FailsFirstCall, k=2, max_retries=0)
    assert shared == reference
    assert shared[0].per_run == ((len(records) - 1) / len(records), 1.0)  # only the first record's first route failed
