"""Cosine similarity, thresholded graph construction, insertion, snapshots."""

import json
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
    ORDERED_LOOP_ROWS,
    CandidateGraph,
    Edge,
    GraphConfig,
    GraphNode,
    build_graph,
    add_mutant,
    _ordered_dots,
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
    # meta first, then 12 nodes; an appended record is the last line
    line = {"meta": 1, "node": 2, "edge": 14, "appended": len(path.read_text().splitlines())}.get(case.split()[0])
    if line is not None:
        assert f"{path}:{line}:" in str(info.value)


def scalar_scan(graph):
    """Reference: every pair of nodes decided by the scalar cosine."""
    names = graph.names()
    edges = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            sim = cosine_similarity(graph.nodes[a].embedding, graph.nodes[b].embedding)
            if sim > graph.config.tau:
                edges[(a, b)] = sim
    return edges


def similarity_weights(graph):
    return {(e.a, e.b): e.weight for e in graph.similarity_edges()}


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 7, 64, 65]),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.05, 1.0),
    tie=st.integers(0, 10**6),
)
def test_edges_and_weights_equal_scalar_scan_bit_for_bit(dim, seed, spread, tie):
    """build_graph and 10 add_mutant inserts give the scalar scan's edges,
    with weights equal by ==; tau is planted at one pair's exact cosine."""
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=dim)
    vectors = [tuple((centre + spread * rng.normal(size=dim)).tolist()) for _ in range(22)]
    sims = {
        (x, y): cosine_similarity(vec(*vectors[x]), vec(*vectors[y])) for x in range(22) for y in range(x)
    }
    ties = sorted(pair for pair, sim in sims.items() if 0 < sim < 1)
    tied = ties[tie % len(ties)] if ties else None
    tau = sims[tied] if tied else 0.82

    names = [f"t{i:02d}" for i in range(12)]
    mapping = {serialize_phi(tool(name)): vector for name, vector in zip(names, vectors)}
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim=dim), backoff_s=0.0)
    graph = build_graph(CandidateBank(kind="tool", entries=tuple(map(tool, names))), GraphConfig(tau=tau), gateway)
    assert similarity_weights(graph) == scalar_scan(graph)
    for step, vector in enumerate(vectors[12:]):
        name = f"m{step:02d}"
        parent = names[rng.integers(len(names))]
        graph = add_mutant(graph, parent, mutant_of(parent, name), EmbeddingVector(values=vector, model_id="static-embed"))
        names.append(name)
    expected = scalar_scan(graph)
    assert similarity_weights(graph) == expected
    if tied:
        assert tuple(sorted((names[tied[0]], names[tied[1]]))) not in expected


@pytest.mark.parametrize("rows", [1, ORDERED_LOOP_ROWS - 1, ORDERED_LOOP_ROWS])
def test_ordered_dots_equal_the_scalar_loop_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    a = rng.normal(size=(rows, 65)) * 10.0 ** rng.integers(-8, 8, size=(rows, 1))
    b = rng.normal(size=(rows, 65))
    a[0], b[0] = -0.0, np.abs(b[0])  # every product is -0.0; the loop's sum from 0.0 is +0.0
    expected = []
    for x, y in zip(a.tolist(), b.tolist()):
        dot = 0.0
        for u, v in zip(x, y):
            dot += u * v
        expected.append(dot)
    assert _ordered_dots(a, b).tobytes() == np.array(expected).tobytes()
    assert _ordered_dots(a[:, :0], b[:, :0]).tolist() == [0.0] * rows


def reference_snapshot(graph):
    """Reference writer: one json.dumps per record."""
    records = [{"meta": {"tau": graph.config.tau, "embedding_model_id": graph.config.embedding_model_id}}]
    for name in graph.names():
        node = graph.nodes[name]
        records.append(
            {
                "node": {
                    "name": name,
                    "kind": node.spec.kind,
                    "spec": node.spec.to_dict(),
                    "embedding": node.embedding.values.tolist(),
                    "embedding_model_id": node.embedding.model_id,
                }
            }
        )
    for edge in sorted(graph.edges, key=lambda e: (e.a, e.b, e.kind)):
        records.append({"edge": {"a": edge.a, "b": edge.b, "kind": edge.kind, "weight": edge.weight}})
    return "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records).encode("utf-8")


# Name pieces that would break a writer joining JSON text: quotes, escapes,
# the list separator, a fragment of an edge record, non-ASCII and control characters.
_ADVERSARIAL = st.lists(
    st.sampled_from(['"', "\\", ", ", '}}, {"edge": ', "é", "名", "\x00", "\n", "\x1f", "\u2028", "a", " "]),
    max_size=4,
).map("".join)


@settings(max_examples=80, deadline=None)
@given(
    names=st.lists(_ADVERSARIAL.map(lambda text: "n" + text), min_size=1, max_size=6, unique=True),
    model_id=_ADVERSARIAL,
    links=st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 5),
            st.sampled_from(["similarity", "mutation"]),
            st.one_of(st.none(), st.floats(), st.integers(-3, 3)),
        ),
        max_size=12,
    ),
    embedding=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3),
)
def test_save_graph_bytes_equal_per_record_json_dumps(tmp_path_factory, names, model_id, links, embedding):
    nodes = {
        name: GraphNode(spec=tool(name), embedding=EmbeddingVector(values=embedding, model_id=model_id))
        for name in names
    }
    edges = frozenset(
        Edge.make(names[x % len(names)], names[y % len(names)], kind, weight)
        for x, y, kind, weight in links
        if x % len(names) != y % len(names)
    )
    path = tmp_path_factory.mktemp("snapshot") / "graph.jsonl"
    for graph in (
        CandidateGraph(config=GraphConfig(tau=0.5, embedding_model_id=model_id), nodes=nodes, edges=edges),
        CandidateGraph(config=GraphConfig(tau=0.5, embedding_model_id=model_id), nodes=nodes),  # edge-free
    ):
        save_graph(graph, path)
        assert path.read_bytes() == reference_snapshot(graph)


def test_save_graph_refuses_a_weight_that_splits(tmp_path):
    edges = frozenset({Edge.make("a", "b", "similarity", "high, very"), Edge.make("a", "c", "similarity", 0.9)})
    with pytest.raises(TypeError, match="numbers or None"):
        save_graph(CandidateGraph(config=GraphConfig(), edges=edges), tmp_path / "graph.jsonl")


def test_failed_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "graph.jsonl"
    save_graph(build_graph(make_tool_bank(6), GraphConfig(tau=0.5), mock_gateway(0)), path)
    old = path.read_bytes()
    edges = frozenset({Edge.make("a", "b", "similarity", "high, very"), Edge.make("a", "c", "similarity", 0.9)})
    with pytest.raises(TypeError):
        save_graph(CandidateGraph(config=GraphConfig(), edges=edges), path)
    assert path.read_bytes() == old
    assert [entry.name for entry in tmp_path.iterdir()] == ["graph.jsonl"]
