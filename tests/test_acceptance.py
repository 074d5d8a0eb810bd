"""Acceptance gate: one test per criterion, fully offline on mock backends.

Frozen fixture constants: the 20-tool bank with chat/embedding mock seed 7 and
evolution seed 102 yields a 40-round run in which every mutation round is
accepted (seeds 135 and 146 work too; most seeds produce occasional
duplicate-name rejections because the mock mutant namer is deterministic).
"""

import random
import time

import numpy as np
import pytest

from helpers import (
    ScriptedReasoner,
    StaticEmbeddingBackend,
    edges_of_kind,
    make_tool_bank,
    mock_gateway,
    planted_unit_vector,
)
from toolrouter.evaluation import PoolSetting, SETTING_ORDER, evaluate
from toolrouter.gateway import Gateway
from toolrouter.graph import GraphConfig, build_graph, save_graph
from toolrouter.lra import ExecutorBinding, run_episode
from toolrouter.mutation import EvolveConfig, evolve
from toolrouter.registry import (
    CandidateBank,
    CandidatePool,
    serialize_phi,
    validate_spec,
)
from toolrouter.router import RouterConfig, embedding_route, parse_decision
from toolrouter.sampler import CandidateSubset, SamplerConfig
from toolrouter.supervision import (
    DatasetRecord,
    InstanceOrigin,
    RoutingInstance,
    build_dataset,
    extract_instances,
    load_dataset,
    render_sample,
    strip_history,
)
from toolrouter.synthesis import (
    Action,
    CandidateCall,
    Observation,
    PlanStep,
    SynthesisConfig,
    TaskPlan,
    Trajectory,
    synthesize_batch,
)

BANK_SIZE = 20
GATEWAY_SEED = 7
EVOLVE_SEED = 102
EVOLVE_ROUNDS = 40


def run_pipeline(trajectory_count=100):
    """Bank -> graph -> evolve -> synthesize -> dataset records, timed elsewhere."""
    gateway = mock_gateway(GATEWAY_SEED)
    bank = make_tool_bank(BANK_SIZE)
    graph = build_graph(bank, GraphConfig(), gateway)
    result = evolve(graph, EVOLVE_ROUNDS, EvolveConfig(rng_seed=EVOLVE_SEED), gateway)
    evolved = result.graph
    trajectories = synthesize_batch(
        evolved,
        trajectory_count,
        SamplerConfig(target_range=(2, 4)),
        SynthesisConfig(rng_seed=5),
        gateway,
    )
    full_bank = CandidateBank(
        kind="tool", entries=tuple(map(evolved.specs.__getitem__, evolved.names()))
    )
    pools = [CandidatePool(bank=full_bank, membership=t.subset.members) for t in trajectories]
    return gateway, evolved, trajectories, pools, result


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    path = tmp_path_factory.mktemp("pipeline") / "dataset.jsonl"
    gateway, graph, trajectories, pools, result = run_pipeline()
    build_dataset(trajectories, pools, path)
    records = load_dataset(path)
    return {
        "gateway": gateway,
        "graph": graph,
        "trajectories": trajectories,
        "pools": pools,
        "records": records,
        "evolve_result": result,
    }


# --- criterion 1: graph construction equals a brute-force oracle ---------------


def test_criterion_1_graph_oracle_equivalence():
    started = time.monotonic()
    bank = make_tool_bank(200)
    gateway = mock_gateway(0)
    cfg = GraphConfig()
    graph = build_graph(bank, cfg, gateway)

    # independent recomputation: numpy cosine over the same embeddings
    texts = [serialize_phi(spec) for spec in bank]
    matrix = np.array([v.values for v in mock_gateway(0).embed_texts(texts)])
    norms = np.linalg.norm(matrix, axis=1)
    sims = (matrix @ matrix.T) / np.outer(norms, norms)
    names = bank.names()
    expected = set()
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if float(sims[i, j]) > cfg.tau:
                a, b = sorted((names[i], names[j]))
                expected.add((a, b))
    got = {(e.a, e.b) for e in edges_of_kind(graph, "similarity")}
    assert got == expected
    assert not edges_of_kind(graph, "mutation")
    assert time.monotonic() - started < 10.0


# --- criterion 2: strict threshold semantics ------------------------------------


def test_criterion_2_threshold_semantics():
    def spec(name):
        return validate_spec(
            {
                "name": name,
                "description": f"Planted candidate {name}.",
                "inputSchema": {"type": "object", "properties": {}},
            },
            "tool",
        )

    specs = {name: spec(name) for name in ("anchor", "sim_83", "sim_81", "sim_82")}
    mapping = {
        serialize_phi(specs["anchor"]): (1.0, 0.0),
        serialize_phi(specs["sim_83"]): planted_unit_vector(0.83),
        serialize_phi(specs["sim_81"]): planted_unit_vector(0.81),
        serialize_phi(specs["sim_82"]): planted_unit_vector(0.82),
    }
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim=2), backoff_s=0.0)
    bank = CandidateBank(kind="tool", entries=tuple(specs.values()))
    graph = build_graph(bank, GraphConfig(tau=0.82), gateway)
    pairs = {(e.a, e.b) for e in edges_of_kind(graph, "similarity")}
    assert ("anchor", "sim_83") in pairs  # 0.83 > 0.82
    assert ("anchor", "sim_81") not in pairs  # 0.81 < 0.82
    assert ("anchor", "sim_82") not in pairs  # tie at tau: strictly greater required

    # monotonicity: raising tau never adds edges (50 random graphs)
    rng = random.Random(0)
    for case in range(50):
        bank = make_tool_bank(rng.randint(4, 10))
        gw = mock_gateway(case)
        low_tau = rng.uniform(0.05, 0.5)
        high_tau = low_tau + rng.uniform(0.05, 0.4)
        low = {(e.a, e.b) for e in edges_of_kind(build_graph(bank, GraphConfig(tau=low_tau), gw), "similarity")}
        high = {(e.a, e.b) for e in edges_of_kind(build_graph(bank, GraphConfig(tau=high_tau), gw), "similarity")}
        assert high <= low


# --- criterion 3: mutation forest shape and reproducibility ----------------------


def test_criterion_3_mutation_forest(tmp_path):
    started = time.monotonic()

    def one_run():
        gateway = mock_gateway(GATEWAY_SEED)
        graph = build_graph(make_tool_bank(BANK_SIZE), GraphConfig(), gateway)
        return evolve(graph, EVOLVE_ROUNDS, EvolveConfig(rng_seed=EVOLVE_SEED), gateway)

    result = one_run()
    graph = result.graph
    assert result.accepted == EVOLVE_ROUNDS  # frozen seed: every round accepted
    assert len(graph) == BANK_SIZE + EVOLVE_ROUNDS == 60
    mutation_edges = edges_of_kind(graph, "mutation")
    assert len(mutation_edges) == EVOLVE_ROUNDS == 40

    seeds = {n for n, spec in graph.specs.items() if spec.provenance.origin == "seed"}
    mutants = {n for n, spec in graph.specs.items() if spec.provenance.origin == "mutant"}
    assert len(seeds) == BANK_SIZE and len(mutants) == EVOLVE_ROUNDS

    pair_set = {(e.a, e.b) for e in mutation_edges}
    for name in mutants:
        parent = graph.specs[name].provenance.parent_name
        assert parent in graph.specs
        assert tuple(sorted((parent, name))) in pair_set
        # exactly one parent edge per mutant
        parent_edges = [
            e for e in mutation_edges
            if name in (e.a, e.b) and graph.specs[e.b if e.a == name else e.a].provenance.parent_name != name
        ]
        assert len(parent_edges) == 1
        # reachable from a seed by walking provenance up the mutation forest
        cursor, hops = name, 0
        while cursor not in seeds:
            cursor = graph.specs[cursor].provenance.parent_name
            hops += 1
            assert hops <= len(graph)
        assert cursor in seeds

    # byte-identical reruns
    first, second = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    save_graph(graph, first)
    save_graph(one_run().graph, second)
    assert first.read_bytes() == second.read_bytes()
    assert time.monotonic() - started < 30.0


# --- criterion 4: supervision extraction correctness -----------------------------


def test_criterion_4_supervision_correctness():
    bank = make_tool_bank(8)
    pool = CandidatePool.whole_bank(bank)
    names = bank.names()
    rng = random.Random(42)

    def hand_trajectory(tid):
        steps = rng.randint(1, 4)
        turns = [Observation(text=f"task text {tid}")]
        call_names = []
        for step in range(steps):
            per_action = rng.choice([1, 1, 2])  # include multi-call actions
            calls = tuple(
                CandidateCall(rng.choice(names), {"target": "x"}, f"result {tid}-{step}-{c}")
                for c in range(per_action)
            )
            call_names.extend(call.name for call in calls)
            turns.append(Action(text=f"act {step}", calls=calls))
            turns.append(Observation(text=f"feedback {tid}-{step}"))
        turns.append(Action(text="done", calls=()))
        subset = CandidateSubset(members=tuple(names), seed_nodes=(names[0],), walk_trace=())
        plan = TaskPlan(task_text=turns[0].text, steps=(PlanStep("g", call_names[0]),))
        return Trajectory(trajectory_id=tid, turns=tuple(turns), subset=subset, plan=plan), call_names

    trajectories = [hand_trajectory(f"hand-{i}") for i in range(25)]
    for trajectory, call_names in trajectories:
        instances = extract_instances(trajectory, pool)
        # independent recount oracle: one instance per call, labels in call order
        assert [i.label for i in instances] == call_names
        for instance in instances:
            turn_index = 2 * instance.origin.step + 1
            action = trajectory.turns[turn_index]
            assert instance.label == action.calls[instance.origin.call_index].name
            # (Q, H) convention: query is the preceding observation, history all before it
            assert instance.query == trajectory.turns[turn_index - 1].text
            assert instance.history == trajectory.turns[: turn_index - 1]
        if instances:
            first = instances[0]
            assert first.history == () and first.query == trajectory.turns[0].text
        # ablation twins differ only in history
        for instance in instances:
            twin = strip_history(instance)
            assert twin.history == ()
            assert (twin.query, twin.label, twin.pool, twin.origin) == (
                instance.query,
                instance.label,
                instance.pool,
                instance.origin,
            )


# --- criterion 5: rendered-format fidelity ----------------------------------------


def test_criterion_5_rendered_format_fidelity():
    agents = [
        validate_spec(
            {
                "name": name,
                "description": description,
                "tools": ["collect_data", "run_model", "summarize_findings", "plot_series"],
                "inputSchema": {
                    "type": "object",
                    "properties": {
                        "instruction": {
                            "type": "string",
                            "description": "Natural-language instruction for the agent.",
                        }
                    },
                },
                "tags": ["analysis agent"],
            },
            "agent",
        )
        for name, description in [
            ("economy_forecasting_agent", "Forecasts macroeconomic indicators from time series."),
            ("sports_news_agent", "Aggregates and summarizes sports news coverage."),
        ]
    ]
    pool = CandidatePool.whole_bank(CandidateBank(kind="agent", entries=tuple(agents)))
    history = (
        Observation(text="What is the GDP outlook for next year?"),
        Action(
            text="Routing to the forecasting agent.",
            calls=(
                CandidateCall(
                    "economy_forecasting_agent",
                    {"instruction": "forecast GDP"},
                    "GDP growth projected at 2.1%.",
                ),
            ),
        ),
    )
    instance = RoutingInstance(
        query="And how will inflation move over the same horizon?",
        history=history,
        pool=pool,
        label="economy_forecasting_agent",
        origin=InstanceOrigin("appendix", 1),
    )
    rendered = render_sample(instance)

    assert rendered.system.startswith("You are an Agent Router.")
    assert "select the most relevant agents" in rendered.system
    assert "Return only one agent that is most relevant." in rendered.system
    assert (
        'Output strictly in the required format: ["agent_name"], no extra commentary.'
        in rendered.system
    )
    assert "<history>" in rendered.user and "</history>" in rendered.user
    assert "<agent_call>economy_forecasting_agent" in rendered.user
    assert "Tool results: GDP growth projected at 2.1%." in rendered.user
    assert f'<current query>"{instance.query}"</current query>' in rendered.user
    assert "<agents>" in rendered.user
    assert '"name": "economy_forecasting_agent"' in rendered.user
    assert rendered.kind == "agent" and rendered.to_dict()["expected_agent"] == ["economy_forecasting_agent"]

    reply = '<think>\nThe history shows an economics thread, so stay with it.\n</think>\n\n["economy_forecasting_agent"]'
    assert parse_decision(reply, pool) == "economy_forecasting_agent"


# --- criterion 6: router properties -------------------------------------------------


def test_criterion_6_router_properties(pipeline):
    records = pipeline["records"]
    graph = pipeline["graph"]
    gateway = pipeline["gateway"]

    # oracle avg@5 = 1.0 under all four pool settings
    group_bank = make_tool_bank(25)  # superset bank acting as an extra group
    external = CandidateBank(
        kind="tool",
        entries=tuple(
            validate_spec(
                {
                    "name": f"external_probe_{i}",
                    "description": f"External candidate {i} unrelated to the bank.",
                    "inputSchema": {"type": "object", "properties": {}},
                },
                "tool",
            )
            for i in range(6)
        ),
    )
    for setting in SETTING_ORDER:
        metrics = evaluate(
            RouterConfig(variant="oracle"),
            records,
            PoolSetting(
                variant=setting,
                group_banks=(group_bank,),
                mutation_graph=graph,
                external_bank=external,
            ),
            k=5,
            seed=0,
        )
        assert metrics.avg_at_k == 1.0, setting

    # uniform-random router on pool size 10, 1000 instances: 0.10 +/- 0.03
    pool_docs = tuple(
        {
            "name": f"uniform_{i}",
            "description": f"Uniform candidate {i}.",
            "inputSchema": {"type": "object", "properties": {}},
        }
        for i in range(10)
    )
    rng = random.Random(1)
    uniform_records = [
        DatasetRecord(
            kind="tool",
            system="sys",
            user="user",
            query=f"q{i}",
            history=(),
            pool_specs=pool_docs,
            label=rng.choice([doc["name"] for doc in pool_docs]),
        )
        for i in range(1000)
    ]
    metrics = evaluate(
        RouterConfig(variant="random"), uniform_records, PoolSetting(), k=5, seed=3
    )
    assert abs(metrics.avg_at_k - 0.10) <= 0.03

    # Q vs Q+H divergence: history evidence flips the embedding decision
    a = validate_spec(
        {
            "name": "report_builder",
            "description": "Build a concise report summary document from notes.",
            "inputSchema": {
                "type": "object",
                "properties": {"notes": {"type": "string", "description": "Notes."}},
            },
            "tags": ["docs"],
        },
        "tool",
    )
    b = validate_spec(
        {
            "name": "flux_analyzer",
            "description": "Analyze zebra quantum flux readings and calibrate the flux sensor.",
            "inputSchema": {
                "type": "object",
                "properties": {"readings": {"type": "string", "description": "Readings."}},
            },
            "tags": ["sensors"],
        },
        "tool",
    )
    pool = CandidatePool.whole_bank(CandidateBank(kind="tool", entries=(a, b)))
    query = "please build a concise report summary document"
    history = (
        Observation(text="We measured zebra quantum flux readings on the flux sensor."),
        Action(text="Calibrating the zebra quantum flux sensor with the flux readings.", calls=()),
    )
    divergence_gateway = mock_gateway(0)
    assert embedding_route(divergence_gateway, query, (), pool).chosen == "report_builder"
    assert embedding_route(divergence_gateway, query, history, pool).chosen == "flux_analyzer"


# --- criterion 7: LRA context bound and execution legality ----------------------------


def test_criterion_7_lra_context_bound():
    small_pool = CandidatePool.whole_bank(make_tool_bank(10))
    big_pool = CandidatePool.whole_bank(make_tool_bank(2005))
    label = small_pool.membership[0]  # shared by both pools
    oracle = RouterConfig(variant="oracle")
    script = [
        {"action": "route", "need": "a fixed capability request"},
        {"action": "execute", "arguments": {}},
        {"action": "final", "answer": "done"},
    ]

    audits = {}
    for tag, pool in (("small", small_pool), ("big", big_pool)):
        log = run_episode(
            "the same task text",
            pool,
            oracle,
            ExecutorBinding.mock_for(pool),
            ScriptedReasoner(script),
            oracle_label=label,
        )
        assert log.outcome == "finished"
        audits[tag] = log.context_audit

    assert audits["small"]["tool_spec_count"] == audits["big"]["tool_spec_count"] == 2
    assert audits["small"]["catalog_entries_in_prompt"] == 0
    assert audits["big"]["catalog_entries_in_prompt"] == 0
    assert audits["big"]["pool_size"] == 2005
    # identical dialogue -> identical prompt size despite the 200x pool gap
    assert audits["small"]["max_prompt_chars"] == audits["big"]["max_prompt_chars"]

    # execution legality over 100 randomized scripted episodes
    rng = random.Random(9)
    for episode in range(100):
        actions = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(["route", "execute"])
            if kind == "route":
                actions.append({"action": "route", "need": f"need {rng.randint(0, 9)}"})
            else:
                actions.append({"action": "execute", "arguments": {}})
        actions.append({"action": "final", "answer": "end"})
        log = run_episode(
            f"episode {episode}",
            small_pool,
            oracle,
            ExecutorBinding.mock_for(small_pool),
            ScriptedReasoner(actions),
            oracle_label=label,
        )
        pending = None
        for step in log.steps:
            if step.decision is not None:
                pending = step.decision.chosen if not step.decision.abstained else None
            elif step.execution_result is not None:
                if pending is None:
                    assert "ExecuteBeforeRoute" in step.execution_result
                else:
                    assert step.execution_result.startswith(f"[executed] {pending} ")
                pending = None


# --- criterion 8: robustness-protocol mechanics -----------------------------------------


def test_criterion_8_robustness_mechanics(pipeline):
    from toolrouter.evaluation import build_pool

    graph = pipeline["graph"]
    base_bank = make_tool_bank(BANK_SIZE)
    group_bank = make_tool_bank(30)
    external = CandidateBank(
        kind="tool",
        entries=tuple(
            validate_spec(
                {
                    "name": f"fuzz_external_{i}",
                    "description": f"External fuzz candidate {i}.",
                    "inputSchema": {"type": "object", "properties": {}},
                },
                "tool",
            )
            for i in range(10)
        ),
    )
    names = base_bank.names()
    rng = random.Random(123)
    for case in range(1000):
        members = tuple(rng.sample(names, rng.randint(1, len(names))))
        base = CandidatePool(bank=base_bank, membership=members)
        setting = PoolSetting(
            variant=rng.choice(SETTING_ORDER),
            group_banks=(group_bank,) if rng.random() < 0.5 else (),
            mutation_graph=graph,
            external_bank=external,
        )
        pool = build_pool(base, setting)  # no label leaves over 1,000 cases
        assert set(members) <= set(pool.membership)

    # nesting Clean <= Multi <= +Mutation <= +External on a fixed base
    base = CandidatePool(bank=base_bank, membership=names[:5])
    sizes = []
    previous = None
    for setting in SETTING_ORDER:
        pool = build_pool(
            base,
            PoolSetting(
                variant=setting,
                group_banks=(group_bank,),
                mutation_graph=graph,
                external_bank=external,
            ),
        )
        if previous is not None:
            assert set(previous.membership) <= set(pool.membership)
        sizes.append(len(pool))
        previous = pool
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]

    # oracle accuracy invariant to the setting
    records = pipeline["records"][:50]
    accuracies = []
    for setting in SETTING_ORDER:
        metrics = evaluate(
            RouterConfig(variant="oracle"),
            records,
            PoolSetting(
                variant=setting,
                group_banks=(group_bank,),
                mutation_graph=graph,
                external_bank=external,
            ),
            k=2,
            seed=0,
        )
        accuracies.append(metrics.avg_at_k)
    assert accuracies == [1.0, 1.0, 1.0, 1.0]


# --- criterion 9: end-to-end mock pipeline ------------------------------------------------


def test_criterion_9_end_to_end_pipeline(tmp_path):
    started = time.monotonic()

    def full_run(tag):
        gateway, graph, trajectories, pools, result = run_pipeline(trajectory_count=100)
        assert len(trajectories) == 100
        path = tmp_path / f"dataset_{tag}.jsonl"
        build_dataset(trajectories, pools, path)
        records = load_dataset(path)
        oracle = evaluate(
            RouterConfig(variant="oracle"), records, PoolSetting(), k=5, seed=0, gateway=gateway
        )
        embedding = evaluate(
            RouterConfig(variant="embedding_q"),
            records,
            PoolSetting(),
            k=5,
            seed=0,
            gateway=gateway,
        )
        return path, oracle, embedding

    first_path, first_oracle, first_embedding = full_run("a")
    second_path, second_oracle, second_embedding = full_run("b")

    assert first_oracle.avg_at_k == 1.0
    assert 0.0 < first_embedding.avg_at_k <= 1.0
    assert first_path.read_bytes() == second_path.read_bytes()  # deterministic rerun
    assert (first_oracle, first_embedding) == (second_oracle, second_embedding)
    assert time.monotonic() - started < 300.0
