"""Cosine similarity, thresholded graph construction, insertion, snapshots."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    BROKEN_SNAPSHOTS,
    corrupt_snapshot,
    make_family_bank,
    make_tool_bank,
    mock_gateway,
    planted_unit_vector,
)
from toolrouter.backends import StaticEmbeddingBackend
from toolrouter.errors import DimensionMismatch, DuplicateName, EmptyBank, UnknownParent, ZeroVector
from toolrouter.gateway import EmbeddingVector, Gateway
from toolrouter.graph import (
    CandidateGraph,
    Edge,
    GraphConfig,
    build_graph,
    add_mutant,
    cosine_similarity,
    load_graph,
    save_graph,
)
from toolrouter.registry import CandidateBank, as_mutant, serialize_phi, validate_spec


def vec(*values):
    return EmbeddingVector(values=tuple(float(v) for v in values), model_id="test")


def test_cosine_hand_value():
    # dot = 32, norms sqrt(14) and sqrt(77)
    expected = 32 / math.sqrt(14 * 77)
    assert cosine_similarity(vec(1, 2, 3), vec(4, 5, 6)) == pytest.approx(expected, abs=1e-12)


def test_cosine_bounds_and_symmetry():
    a, b = vec(0.3, -1.2, 2.0), vec(1.1, 0.4, -0.5)
    assert cosine_similarity(a, b) == cosine_similarity(b, a)
    assert cosine_similarity(a, a) == pytest.approx(1.0)
    assert cosine_similarity(a, vec(-0.3, 1.2, -2.0)) == pytest.approx(-1.0)


def test_cosine_error_cases():
    with pytest.raises(DimensionMismatch):
        cosine_similarity(vec(1, 2), vec(1, 2, 3))
    with pytest.raises(ZeroVector):
        cosine_similarity(vec(0, 0), vec(1, 1))


def test_edge_canonical_storage():
    edge = Edge.make("zz", "aa", "similarity", weight=0.9)
    assert (edge.a, edge.b) == ("aa", "zz")
    with pytest.raises(ValueError):
        Edge(a="b", b="a", kind="similarity")
    with pytest.raises(ValueError):
        Edge.make("same", "same", "similarity")


def test_graph_config_tau_bounds():
    with pytest.raises(ValueError):
        GraphConfig(tau=0.0)
    with pytest.raises(ValueError):
        GraphConfig(tau=1.0)


def test_build_graph_rejects_empty_bank():
    from toolrouter.registry import CandidateBank

    with pytest.raises(EmptyBank):
        build_graph(CandidateBank(kind="tool"), GraphConfig(), mock_gateway(0))


def test_build_graph_matches_brute_force_oracle():
    bank = make_tool_bank(30)
    gateway = mock_gateway(0)
    cfg = GraphConfig()
    graph = build_graph(bank, cfg, gateway)

    # independent recomputation straight from the embeddings
    vectors = {
        spec.name: gateway.embed_text(serialize_phi(spec)) for spec in bank
    }
    names = sorted(vectors)
    expected = set()
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if cosine_similarity(vectors[a], vectors[b]) > cfg.tau:
                expected.add((a, b))
    got = {(e.a, e.b) for e in graph.similarity_edges()}
    assert got == expected
    assert not graph.mutation_edges()


def test_strict_threshold_and_monotonicity():
    bank = make_tool_bank(15)
    gateway = mock_gateway(0)
    low = build_graph(bank, GraphConfig(tau=0.30), gateway)
    high = build_graph(bank, GraphConfig(tau=0.60), gateway)
    low_pairs = {(e.a, e.b) for e in low.similarity_edges()}
    high_pairs = {(e.a, e.b) for e in high.similarity_edges()}
    assert high_pairs <= low_pairs
    for edge in low.similarity_edges():
        assert edge.weight > 0.30


def test_add_mutant_edges_and_immutability():
    bank = make_tool_bank(5)
    gateway = mock_gateway(0)
    graph = build_graph(bank, GraphConfig(tau=0.5), gateway)
    parent = bank.names()[0]
    mutant = as_mutant(
        validate_spec(
            {
                "name": "brand_new_tool",
                "description": "A fresh variant.",
                "inputSchema": {"type": "object", "properties": {}},
            },
            "tool",
        ),
        parent=parent,
        operator="Usage Extension",
    )
    embedding = gateway.embed_text(serialize_phi(mutant))
    expanded = add_mutant(graph, parent, mutant, embedding)
    assert len(graph) == 5  # original untouched
    assert len(expanded) == 6
    mutation = expanded.mutation_edges()
    assert len(mutation) == 1
    assert {mutation[0].a, mutation[0].b} == {parent, "brand_new_tool"}
    assert mutation[0].weight is None
    # similarity edges of the mutant all clear tau
    for other, kind in expanded.neighbors("brand_new_tool"):
        if kind == "similarity":
            sim = cosine_similarity(embedding, expanded.nodes[other].embedding)
            assert sim > expanded.config.tau

    with pytest.raises(UnknownParent):
        add_mutant(graph, "nope", mutant, embedding)
    with pytest.raises(DuplicateName):
        add_mutant(expanded, parent, mutant, embedding)


def test_snapshot_roundtrip_and_byte_stability(tmp_path):
    bank = make_tool_bank(8)
    graph = build_graph(bank, GraphConfig(tau=0.5), mock_gateway(0))
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_graph(graph, first)
    loaded = load_graph(first)
    assert loaded.config == graph.config
    assert loaded.names() == graph.names()
    assert loaded.edges == graph.edges
    save_graph(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def scanned_neighbors(graph, name):
    """Reference: scan every edge."""
    return sorted(
        (edge.b if edge.a == name else edge.a, edge.kind) for edge in graph.edges if name in (edge.a, edge.b)
    )


def tool(name):
    return validate_spec(
        {"name": name, "description": f"Planted candidate {name}.", "inputSchema": {"type": "object", "properties": {}}},
        "tool",
    )


def mutant_of(parent, name, description="A fresh variant."):
    spec = validate_spec(
        {"name": name, "description": description, "inputSchema": {"type": "object", "properties": {}}},
        "tool",
    )
    return as_mutant(spec, parent=parent, operator="Usage Extension")


@settings(max_examples=60, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 11), st.integers(0, 11), st.sampled_from(["similarity", "mutation"])),
        max_size=40,
    )
)
def test_neighbors_index_matches_edge_scan(triples):
    edges = frozenset(Edge.make(f"n{x}", f"n{y}", kind) for x, y, kind in triples if x != y)
    graph = CandidateGraph(config=GraphConfig(), edges=edges)
    for name in [f"n{i}" for i in range(13)]:  # n12 has no edges
        assert graph.neighbors(name) == scanned_neighbors(graph, name)


def test_neighbors_index_after_add_mutant_chain():
    gateway = mock_gateway(0)
    rng = random.Random(4)
    graph = build_graph(make_family_bank(40, seed=1), GraphConfig(), gateway)
    for step in range(15):
        parent = rng.choice(graph.names())
        words = graph.nodes[parent].spec.description.rstrip(".").split()
        mutant = mutant_of(parent, f"mutant_{step}", " ".join(words[:-1] + [f"step{step}"]) + ".")
        before = graph
        graph = add_mutant(graph, parent, mutant, gateway.embed_text(serialize_phi(mutant)))
        assert before.neighbors(parent) == scanned_neighbors(before, parent)  # old snapshot untouched
        for name in graph.names():
            assert graph.neighbors(name) == scanned_neighbors(graph, name)
    similarity = {(e.a, e.b) for e in graph.similarity_edges()}
    assert any("mutant_" in a + b for a, b in similarity)  # mutants joined by similarity too


def planted_graph(tau=0.82):
    mapping = {serialize_phi(tool("anchor")): (1.0, 0.0), serialize_phi(tool("far")): (0.0, 1.0)}
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim=2), backoff_s=0.0)
    bank = CandidateBank(kind="tool", entries=(tool("anchor"), tool("far")))
    return build_graph(bank, GraphConfig(tau=tau), gateway)


def test_add_mutant_planted_tie_gives_no_edge():
    graph = planted_graph()
    for name, target in (("tie_82", 0.82), ("above_83", 0.83), ("below_81", 0.81)):
        embedding = EmbeddingVector(values=planted_unit_vector(target), model_id="static-embed")
        graph = add_mutant(graph, "far", mutant_of("far", name), embedding)
    # 0.83 > tau, the tie at tau and 0.81 give no edge to the anchor
    assert graph.neighbors("anchor") == [("above_83", "similarity")]
    weights = {(e.a, e.b): e.weight for e in graph.similarity_edges()}
    assert weights[("above_83", "anchor")] == 0.83


def test_screen_keeps_pair_the_matrix_rounds_below_tau():
    """A cosine one ulp above tau is an edge even where the float64 matrix
    product of the normalised rows rounds below the scalar value."""
    rng = random.Random(0)
    while True:
        a = tuple(rng.uniform(-1, 1) for _ in range(8))
        b = tuple(x + rng.uniform(-0.3, 0.3) for x in a)
        sim = cosine_similarity(vec(*a), vec(*b))
        unit = np.array([a, b]) / np.linalg.norm(np.array([a, b]), axis=1, keepdims=True)
        if 0 < sim < 1 and float(unit[0] @ unit[1]) < sim:
            break
    mapping = {serialize_phi(tool("first")): a, serialize_phi(tool("second")): b}
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim=8), backoff_s=0.0)
    bank = CandidateBank(kind="tool", entries=(tool("first"), tool("second")))
    graph = build_graph(bank, GraphConfig(tau=math.nextafter(sim, 0.0)), gateway)
    assert [(e.a, e.b, e.weight) for e in graph.similarity_edges()] == [("first", "second", sim)]


def test_zero_and_mismatched_embeddings_raise():
    zero = {serialize_phi(tool("anchor")): (1.0, 0.0), serialize_phi(tool("zero")): (0.0, 0.0)}
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(zero, dim=2), backoff_s=0.0)
    with pytest.raises(ZeroVector):
        build_graph(CandidateBank(kind="tool", entries=(tool("anchor"), tool("zero"))), GraphConfig(), gateway)
    mixed = {serialize_phi(tool("anchor")): (1.0, 0.0), serialize_phi(tool("wide")): (1.0, 0.0, 0.0)}
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mixed, dim=2), backoff_s=0.0)
    with pytest.raises(DimensionMismatch):
        build_graph(CandidateBank(kind="tool", entries=(tool("anchor"), tool("wide"))), GraphConfig(), gateway)

    graph = planted_graph()
    with pytest.raises(ZeroVector):
        add_mutant(graph, "far", mutant_of("far", "m"), vec(0, 0))
    with pytest.raises(DimensionMismatch):
        add_mutant(graph, "far", mutant_of("far", "m"), vec(1, 0, 0))


@pytest.mark.parametrize("case", sorted(BROKEN_SNAPSHOTS))
def test_load_graph_rejects_broken_snapshots(tmp_path, case):
    path = tmp_path / "graph.jsonl"
    save_graph(build_graph(make_tool_bank(12), GraphConfig(tau=0.5), mock_gateway(0)), path)
    path.write_text("\n".join(corrupt_snapshot(path.read_text().splitlines(), case)) + "\n")
    error, phrase = BROKEN_SNAPSHOTS[case]
    with pytest.raises(error, match=phrase) as info:
        load_graph(path)
    if case == "node without embedding":
        assert f"{path}:2" in str(info.value)
