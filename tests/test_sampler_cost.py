"""Clock-free cost checks of sample_subset(): the work a walk does, counted by
call at growing graph sizes, so an adjacency rebuilt per step (an O(|E|) scan)
fails at every size instead of only slowing the large ones."""

import random
from functools import cached_property

import pytest

from toolrouter.gateway import EmbeddingVector
from toolrouter.graph import CandidateGraph, Edge, GraphConfig, GraphNode
from toolrouter.registry import validate_spec
from toolrouter.sampler import SamplerConfig, sample_subset

SIZES = (250, 1000, 4000)
SAMPLES = 30


def random_graph(n: int, seed: int = 0) -> CandidateGraph:
    """``n`` nodes, each linked to two random others (similarity or mutation);
    embeddings are irrelevant to sampling."""
    rng = random.Random(seed)
    names = [f"tool_{i:05d}" for i in range(n)]
    embedding = EmbeddingVector(values=(1.0,), model_id="t")
    nodes = {
        name: GraphNode(
            spec=validate_spec({"name": name, "description": "d", "inputSchema": {"type": "object"}}, "tool"),
            embedding=embedding,
        )
        for name in names
    }
    pairs = {tuple(sorted(rng.sample(names, 2))) for _ in range(2 * n)}
    edges = [Edge(a, b, "similarity", 0.9) if rng.random() < 0.7 else Edge(a, b, "mutation") for a, b in sorted(pairs)]
    return CandidateGraph(config=GraphConfig(), nodes=nodes, edges=edges)


def count_adjacency_builds(monkeypatch) -> list:
    """Patch ``CandidateGraph._adjacency`` (a cached property) to record each graph it is built for."""
    builds = []
    derive = CandidateGraph._adjacency.func

    def counted(graph):
        builds.append(graph)
        return derive(graph)

    prop = cached_property(counted)
    prop.__set_name__(CandidateGraph, "_adjacency")
    monkeypatch.setattr(CandidateGraph, "_adjacency", prop)
    return builds


@pytest.mark.parametrize("n", SIZES)
def test_a_snapshot_derives_its_adjacency_once_and_each_step_reads_it_once(monkeypatch, n):
    graph = random_graph(n)
    builds = count_adjacency_builds(monkeypatch)
    asked: list[str] = []
    neighbors = CandidateGraph.neighbors

    def recording_neighbors(graph, name):
        asked.append(name)
        return neighbors(graph, name)

    monkeypatch.setattr(CandidateGraph, "neighbors", recording_neighbors)
    for seed in range(SAMPLES):
        asked.clear()
        cfg = SamplerConfig(num_seeds=1 + seed % 2, target_range=(4, 40), restart_prob=0.15, rng_seed=seed)
        subset = sample_subset(graph, cfg)
        # Each neighbors call is followed by one step: a move along an edge
        # (one per trace entry) or a pop (at most one per member).
        assert 0 < len(asked) <= len(subset.walk_trace) + len(subset)
        # A step always changes the node on top of the stack, so no node is asked twice in a row.
        assert all(a != b for a, b in zip(asked, asked[1:]))
    assert builds == [graph]
