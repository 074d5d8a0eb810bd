"""DFS-with-restart subset sampling over the candidate graph."""

import random

import pytest

from helpers import make_tool_bank, mock_gateway
from toolrouter.errors import BadConfig, EmptyGraph
from toolrouter.gateway import EmbeddingVector
from toolrouter.graph import CandidateGraph, Edge, GraphConfig, GraphNode
from toolrouter.registry import validate_spec
from toolrouter.sampler import SamplerConfig, sample_subset


def tiny_graph(names, edges):
    """Hand-built graph; embeddings are irrelevant to sampling."""
    nodes = {}
    for name in names:
        spec = validate_spec(
            {
                "name": name,
                "description": f"Tool {name}.",
                "inputSchema": {"type": "object", "properties": {}},
            },
            "tool",
        )
        nodes[name] = GraphNode(spec=spec, embedding=EmbeddingVector(values=(1.0,), model_id="t"))
    edge_set = frozenset(Edge.make(a, b, kind, 0.9 if kind == "similarity" else None) for a, b, kind in edges)
    return CandidateGraph(config=GraphConfig(), nodes=nodes, edges=edge_set)


def test_config_validation():
    with pytest.raises(BadConfig):
        SamplerConfig(num_seeds=0)
    with pytest.raises(BadConfig):
        SamplerConfig(target_range=(5, 2))
    with pytest.raises(BadConfig):
        SamplerConfig(restart_prob=1.0)


def test_empty_graph_rejected():
    graph = CandidateGraph(config=GraphConfig())
    with pytest.raises(EmptyGraph):
        sample_subset(graph, SamplerConfig())


def test_isolated_node_graph():
    graph = tiny_graph(["solo"], [])
    subset = sample_subset(graph, SamplerConfig(target_range=(3, 3), rng_seed=0))
    assert subset.members == ("solo",)
    assert subset.seed_nodes == ("solo",)
    assert subset.walk_trace == ()


def test_path_graph_walk():
    graph = tiny_graph(["a", "b", "c"], [("a", "b", "similarity"), ("b", "c", "mutation")])
    subset = sample_subset(graph, SamplerConfig(target_range=(3, 3), restart_prob=0.0, rng_seed=1))
    assert set(subset.members) == {"a", "b", "c"}
    # every traced step walks a real edge
    pairs = {(e.a, e.b) for e in graph.edges}
    for frm, to, kind in subset.walk_trace:
        assert (min(frm, to), max(frm, to)) in pairs


def test_walk_uses_both_edge_kinds():
    graph = tiny_graph(["a", "b", "c"], [("a", "b", "similarity"), ("b", "c", "mutation")])
    kinds = set()
    for seed in range(50):
        subset = sample_subset(graph, SamplerConfig(target_range=(3, 3), restart_prob=0.0, rng_seed=seed))
        kinds.update(kind for _, _, kind in subset.walk_trace)
    assert kinds == {"similarity", "mutation"}


def test_component_exhaustion_draws_new_seed():
    graph = tiny_graph(["a", "b", "x", "y"], [("a", "b", "similarity"), ("x", "y", "similarity")])
    subset = sample_subset(graph, SamplerConfig(target_range=(4, 4), rng_seed=0))
    assert set(subset.members) == {"a", "b", "x", "y"}
    assert len(subset.seed_nodes) >= 2  # one per component


def test_requested_seeds_start_walks_before_random_ones():
    graph = tiny_graph(list("abcdef"), [("a", "b", "similarity"), ("c", "d", "similarity"), ("e", "f", "mutation")])
    pairs = {frozenset("ab"), frozenset("cd"), frozenset("ef")}
    for seed in range(20):
        subset = sample_subset(graph, SamplerConfig(num_seeds=2, target_range=(4, 4), restart_prob=0.0, rng_seed=seed))
        requested = random.Random(seed).sample(graph.names(), 2)
        assert len(subset) == 4 and set(requested) <= set(subset.members)
        assert not set(subset.seed_nodes) & {step[1] for step in subset.walk_trace}  # a seed is never a walk step
        if frozenset(requested) in pairs:  # the first walk reaches the second seed, so a random seed follows
            assert subset.seed_nodes[0] == requested[0] and requested[1] not in subset.seed_nodes
            assert len(subset.seed_nodes) == 2
        else:  # the second seed walks its own pair: no random seed
            assert subset.seed_nodes == tuple(requested)


def test_target_capped_at_graph_size():
    graph = tiny_graph(["a", "b"], [("a", "b", "similarity")])
    subset = sample_subset(graph, SamplerConfig(target_range=(6, 8), rng_seed=0))
    assert len(subset) == 2


def test_determinism_and_seed_sensitivity():
    graph = build_demo_graph()
    cfg = SamplerConfig(target_range=(4, 8), rng_seed=11)
    assert sample_subset(graph, cfg) == sample_subset(graph, cfg)
    variants = {sample_subset(graph, SamplerConfig(target_range=(4, 8), rng_seed=s)).members for s in range(30)}
    assert len(variants) > 5


def build_demo_graph():
    return __import__("toolrouter.graph", fromlist=["build_graph"]).build_graph(
        make_tool_bank(20), GraphConfig(tau=0.5), mock_gateway(0)
    )


def test_membership_and_size_properties_over_many_samples():
    graph = build_demo_graph()
    names = set(graph.names())
    for seed in range(200):
        subset = sample_subset(graph, SamplerConfig(target_range=(2, 6), rng_seed=seed))
        assert 2 <= len(subset) <= 6
        assert len(set(subset.members)) == len(subset.members)
        assert set(subset.members) <= names
        assert set(subset.seed_nodes) <= set(subset.members)
        # trace endpoints are members and each target newly visited
        seen = set(subset.seed_nodes[:1])
        for frm, to, _kind in subset.walk_trace:
            assert frm in subset.members and to in subset.members
