"""Cosine similarity, thresholded graph construction, insertion, snapshots."""

import json
import math
import random
from dataclasses import replace
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    BROKEN_SNAPSHOTS,
    RAW_LINE_BREAKS,
    SNAPSHOT_POSITIONS,
    StaticEmbeddingBackend,
    corrupt_snapshot,
    edges_of_kind,
    make_agent_bank,
    make_agent_doc,
    make_family_bank,
    make_tool_bank,
    mock_gateway,
    planted_unit_vector,
    tool_bank_describing,
)
from toolrouter import graph as graph_module
from toolrouter.errors import (
    BadConfig,
    DimensionMismatch,
    DuplicateName,
    EmptyBank,
    GraphError,
    MalformedEmbedding,
    ParseError,
    UnknownParent,
    ZeroVector,
)
from toolrouter.gateway import ORDERED_LOOP_ROWS, EmbeddingVector, Gateway, _ordered_dots
from toolrouter.graph import (
    CandidateGraph,
    Edge,
    GraphConfig,
    GraphNode,
    build_graph,
    add_mutant,
    cosine_similarity,
    load_graph,
    save_graph,
)
from toolrouter.registry import CandidateBank, as_mutant, serialize_phi, validate_spec


def vec(*values):
    return EmbeddingVector(values=tuple(float(v) for v in values), model_id="test")


def planted_vector(values):
    """An embedding of the static backend's model."""
    return EmbeddingVector(values=values, model_id="static-embed")


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
    with pytest.raises(BadConfig):
        GraphConfig(tau=0.0)
    with pytest.raises(BadConfig):
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
        spec.name: gateway.embed_texts([serialize_phi(spec)])[0] for spec in bank
    }
    names = sorted(vectors)
    expected = set()
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if cosine_similarity(vectors[a], vectors[b]) > cfg.tau:
                expected.add((a, b))
    got = {(e.a, e.b) for e in edges_of_kind(graph, "similarity")}
    assert got == expected
    assert not edges_of_kind(graph, "mutation")


def test_strict_threshold_and_monotonicity():
    bank = make_tool_bank(15)
    gateway = mock_gateway(0)
    low = build_graph(bank, GraphConfig(tau=0.30), gateway)
    high = build_graph(bank, GraphConfig(tau=0.60), gateway)
    low_pairs = {(e.a, e.b) for e in edges_of_kind(low, "similarity")}
    high_pairs = {(e.a, e.b) for e in edges_of_kind(high, "similarity")}
    assert high_pairs <= low_pairs
    for edge in edges_of_kind(low, "similarity"):
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
    embedding = gateway.embed_texts([serialize_phi(mutant)])[0]
    expanded = add_mutant(graph, parent, mutant, gateway)
    assert len(graph) == 5  # original untouched
    assert len(expanded) == 6
    mutation = edges_of_kind(expanded, "mutation")
    assert len(mutation) == 1
    assert {mutation[0].a, mutation[0].b} == {parent, "brand_new_tool"}
    assert mutation[0].weight is None
    # similarity edges of the mutant all clear tau
    for other, kind in expanded.neighbors("brand_new_tool"):
        if kind == "similarity":
            sim = cosine_similarity(embedding, gateway.embed_texts([serialize_phi(expanded.specs[other])])[0])
            assert sim > expanded.config.tau

    with pytest.raises(UnknownParent):
        add_mutant(graph, "nope", mutant, gateway)
    with pytest.raises(DuplicateName):
        add_mutant(expanded, parent, mutant, gateway)


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


@pytest.mark.parametrize("char", RAW_LINE_BREAKS)
def test_a_snapshot_whose_spec_holds_a_raw_line_break_reads_back(tmp_path, char):
    graph = build_graph(tool_bank_describing(char), GraphConfig(tau=0.5), mock_gateway(0))
    save_graph(graph, tmp_path / "graph.jsonl")
    loaded = load_graph(tmp_path / "graph.jsonl")
    assert dict(loaded.specs) == dict(graph.specs) and loaded.edges == graph.edges


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


def tool_nodes(names):
    """name -> GraphNode of a planted tool with a one-dimensional embedding."""
    return {name: GraphNode(spec=tool(name), embedding=vec(1.0)) for name in names}


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
    edges = frozenset(
        Edge.make(f"n{x}", f"n{y}", kind, 0.9 if kind == "similarity" else None) for x, y, kind in triples if x != y
    )
    graph = CandidateGraph(config=GraphConfig(), nodes=tool_nodes(f"n{i}" for i in range(12)), edges=edges)
    for name in [f"n{i}" for i in range(13)]:  # n12 has no edges
        assert graph.neighbors(name) == scanned_neighbors(graph, name)


def test_neighbors_index_after_add_mutant_chain():
    gateway = mock_gateway(0)
    rng = random.Random(4)
    graph = build_graph(make_family_bank(40, seed=1), GraphConfig(), gateway)
    for step in range(15):
        parent = rng.choice(graph.names())
        words = graph.specs[parent].description.rstrip(".").split()
        mutant = mutant_of(parent, f"mutant_{step}", " ".join(words[:-1] + [f"step{step}"]) + ".")
        before = graph
        graph = add_mutant(graph, parent, mutant, gateway)
        assert before.neighbors(parent) == scanned_neighbors(before, parent)  # old snapshot untouched
        for name in graph.names():
            assert graph.neighbors(name) == scanned_neighbors(graph, name)
    similarity = {(e.a, e.b) for e in edges_of_kind(graph, "similarity")}
    assert any("mutant_" in a + b for a, b in similarity)  # mutants joined by similarity too


def graph_state(graph, path):
    """What a snapshot shows: each node's neighbors, the edges, and its saved bytes."""
    save_graph(graph, path)
    return {name: graph.neighbors(name) for name in graph.names()}, list(graph.edges), path.read_bytes()


def test_branching_inserts_from_one_snapshot(tmp_path):
    """Two inserts into one snapshot share its store: neither the snapshot
    nor the first insert's graph may see the second insert."""
    gateway = mock_gateway(0)
    bank = make_family_bank(30, seed=2)
    g0 = build_graph(bank, GraphConfig(), gateway)
    parent = g0.names()[0]
    doc = {key: value for key, value in g0.specs[parent].to_dict().items() if key != "provenance"}
    m1, m2 = (  # the parent's spec under a new name: similar to the parent's family
        as_mutant(validate_spec({**doc, "name": name}, "tool"), parent=parent, operator="Usage Extension")
        for name in ("mutant_one", "mutant_two")
    )
    before = graph_state(g0, tmp_path / "g0.jsonl")
    g1 = add_mutant(g0, parent, m1, gateway)
    g1_state = graph_state(g1, tmp_path / "g1.jsonl")
    assert ("mutant_one", "mutation") in g1.neighbors(parent)
    g2 = add_mutant(g0, parent, m2, gateway)
    g3 = add_mutant(g1, parent, m2, gateway)  # extends g1's store in place

    assert graph_state(g0, tmp_path / "g0.jsonl") == before
    assert graph_state(g1, tmp_path / "g1.jsonl") == g1_state
    assert "mutant_two" in g2.specs and "mutant_one" not in g2.specs
    assert g2.names() == sorted([*g0.names(), "mutant_two"])
    assert all("mutant_one" not in (edge.a, edge.b) for edge in g2.edges)
    assert any(kind == "similarity" for _, kind in g2.neighbors("mutant_two"))
    assert g2.kind == "tool"
    assert g3.names() == sorted([*g1.names(), "mutant_two"])
    embeddings = {spec.name: gateway.embed_texts([spec.phi])[0] for spec in (*bank, m1, m2)}
    for graph in (g0, g1, g2, g3):
        assert similarity_weights(graph) == scalar_scan(graph, embeddings)
        for name in graph.names():
            assert graph.neighbors(name) == scanned_neighbors(graph, name)


def test_sorted_names_on_sibling_branches(tmp_path):
    """Inserts, and a sibling branch from a snapshot whose store a later
    insert extended, keep each snapshot's names equal to a sorted scan of its nodes."""
    gateway = mock_gateway(0)
    g0 = build_graph(make_agent_bank(6), GraphConfig(), gateway)
    parent = g0.names()[-1]

    def insert(graph, name):
        mutant = as_mutant(validate_spec({**make_agent_doc(0), "name": name}, "agent"), parent, "Domain Transfer")
        return add_mutant(graph, parent, mutant, gateway)

    g1 = insert(g0, "aaa_first_agent")
    g2 = insert(g1, "zzz_last_agent")
    g3 = insert(g2, "monitor_middle_agent")
    sibling = insert(g1, "aab_sibling_agent")  # g2 already extended g1's store
    save_graph(g3, tmp_path / "g3.jsonl")
    loaded = load_graph(tmp_path / "g3.jsonl")
    for graph in (g0, g1, g2, g3, sibling, loaded):
        assert graph.names() == sorted(graph.specs) and graph.kind == "agent"
    assert "aab_sibling_agent" not in g2.names() and "zzz_last_agent" not in sibling.names()
    assert sibling.names() == sorted([*g1.names(), "aab_sibling_agent"])


def test_a_graph_holds_one_kind(tmp_path):
    """A node or mutant of another kind than the graph's is refused wherever it enters."""
    gateway = mock_gateway(0)
    graph = build_graph(make_tool_bank(12), GraphConfig(tau=0.5), gateway)
    assert graph.kind == "tool" and CandidateGraph(GraphConfig()).kind is None
    agent = validate_spec(make_agent_doc(0), "agent")
    embedding = gateway.embed_texts([agent.phi])[0]
    with pytest.raises(GraphError, match="agent mutant .* in a graph of tools"):
        add_mutant(graph, graph.names()[0], as_mutant(agent, graph.names()[0], "Domain Transfer"), gateway)
    nodes = {**{name: GraphNode(graph.specs[name], embedding) for name in graph.names()[:2]}, agent.name: GraphNode(agent, embedding)}
    with pytest.raises(GraphError, match="a graph holds one kind"):
        CandidateGraph(GraphConfig(), nodes=nodes)

    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[6])  # a node in the middle of the node block
    record["node"].update(name=agent.name, kind="agent", spec=agent.to_dict())
    lines[6] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_graph(path)
    assert f"{path}:7: agent node {agent.name!r} in a graph of tools" in str(info.value)


def static_gateway(mapping, dim=2, model_id="static-embed"):
    """A gateway that embeds each text of ``mapping`` to its row."""
    return Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim, model_id), backoff_s=0.0)


def planted_graph(tau=0.82):
    mapping = {serialize_phi(tool("anchor")): (1.0, 0.0), serialize_phi(tool("far")): (0.0, 1.0)}
    bank = CandidateBank(kind="tool", entries=(tool("anchor"), tool("far")))
    return build_graph(bank, GraphConfig(tau=tau), static_gateway(mapping))


def test_add_mutant_planted_tie_gives_no_edge():
    graph = planted_graph()
    for name, target in (("tie_82", 0.82), ("above_83", 0.83), ("below_81", 0.81)):
        mutant = mutant_of("far", name)
        graph = add_mutant(graph, "far", mutant, static_gateway({mutant.phi: planted_unit_vector(target)}))
    # 0.83 > tau, the tie at tau and 0.81 give no edge to the anchor
    assert graph.neighbors("anchor") == [("above_83", "similarity")]
    weights = similarity_weights(graph)
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
    assert [(e.a, e.b, e.weight) for e in edges_of_kind(graph, "similarity")] == [("first", "second", sim)]


def test_zero_and_mismatched_embeddings_raise():
    zero = {serialize_phi(tool("anchor")): (1.0, 0.0), serialize_phi(tool("zero")): (0.0, 0.0)}
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(zero, dim=2), backoff_s=0.0)
    with pytest.raises(MalformedEmbedding, match="has norm 0.0"):
        build_graph(CandidateBank(kind="tool", entries=(tool("anchor"), tool("zero"))), GraphConfig(), gateway)
    mixed = {serialize_phi(tool("anchor")): (1.0, 0.0), serialize_phi(tool("wide")): (1.0, 0.0, 0.0)}
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mixed, dim=2), backoff_s=0.0)
    with pytest.raises(DimensionMismatch):
        build_graph(CandidateBank(kind="tool", entries=(tool("anchor"), tool("wide"))), GraphConfig(), gateway)

    graph, mutant = planted_graph(), mutant_of("far", "m")
    with pytest.raises(MalformedEmbedding, match="has norm 0.0"):
        add_mutant(graph, "far", mutant, static_gateway({mutant.phi: (0.0, 0.0)}))
    with pytest.raises(DimensionMismatch):
        add_mutant(graph, "far", mutant, static_gateway({mutant.phi: (1.0, 0.0, 0.0)}, dim=3))
    with pytest.raises(GraphError, match="'test'.*'static-embed'"):  # one embedding model per graph
        add_mutant(graph, "far", mutant, static_gateway({mutant.phi: (0.0, 1.0)}, model_id="test"))
    assert graph.names() == ["anchor", "far"]
    nodes = {"a": GraphNode(tool("a"), vec(1, 0)), "b": GraphNode(tool("b"), planted_vector((0.0, 1.0)))}
    with pytest.raises(GraphError, match="more than one model"):
        CandidateGraph(GraphConfig(), nodes=nodes)
    with pytest.raises(GraphError, match="embedding of 'b' has norm 0.0"):
        CandidateGraph(GraphConfig(), nodes={**tool_nodes("a"), "b": GraphNode(tool("b"), vec(0.0))})


def test_snapshot_names_the_model_of_its_nodes(tmp_path):
    """The meta record names the model that embedded the nodes, and a meta
    naming another model is refused at the first node's line."""
    path = tmp_path / "graph.jsonl"
    save_graph(planted_graph(), path)  # embedded by the static backend under GraphConfig(tau=0.82)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["meta"]["embedding_model_id"] == "static-embed"
    assert {json.loads(line)["node"]["embedding_model_id"] for line in lines[1:3]} == {"static-embed"}
    save_graph(load_graph(path), tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_text(encoding="utf-8").splitlines() == lines
    meta = json.loads(lines[0])
    meta["meta"]["embedding_model_id"] = "other-embed"
    path.write_text("\n".join([json.dumps(meta), *lines[1:]]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="more than one model") as info:
        load_graph(path)
    assert f"{path}:2:" in str(info.value)


@pytest.mark.parametrize("case", sorted(BROKEN_SNAPSHOTS))
def test_load_graph_rejects_broken_snapshots(tmp_path, case):
    path = tmp_path / "graph.jsonl"
    save_graph(build_graph(make_tool_bank(12), GraphConfig(tau=0.5), mock_gateway(0)), path)
    saved = path.read_text().splitlines()
    edges = sum(line.startswith('{"edge": ') for line in saved)
    assert edges >= 3  # the first, middle and last edge lines differ
    error, phrase = BROKEN_SNAPSHOTS[case]
    names = [json.loads(line)["node"]["name"] for line in saved[1:13]]
    for position, at in SNAPSHOT_POSITIONS.items():
        path.write_text("\n".join(corrupt_snapshot(saved, case, position)) + "\n")
        with pytest.raises(error, match=phrase) as info:
            load_graph(path)
        # meta first, then 12 nodes, then the edges; an appended record is the last line
        line = {"meta": 1, "node": 2 + at(12), "edge": 14 + at(edges), "appended": len(saved) + 1}.get(case.split()[0])
        if line is not None:
            assert f"{path}:{line}:" in str(info.value), position
        if "norm" in case:  # checked over all the rows at once: the error names the node
            assert f"embedding of {names[at(12)]!r}" in str(info.value), position


def scalar_scan(graph, embeddings):
    """Reference: every pair of the graph's nodes decided by the scalar cosine
    of their embeddings as the test made them (name -> EmbeddingVector)."""
    names = graph.names()
    edges = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            sim = cosine_similarity(embeddings[a], embeddings[b])
            if sim > graph.config.tau:
                edges[(a, b)] = sim
    return edges


def similarity_weights(graph):
    return {(e.a, e.b): e.weight for e in edges_of_kind(graph, "similarity")}


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
    mutants = {f"m{step:02d}": vector for step, vector in enumerate(vectors[12:])}
    mapping = {serialize_phi(tool(name)): vector for name, vector in zip(names, vectors)}
    mapping.update((mutant_of(names[0], name).phi, vector) for name, vector in mutants.items())  # phi names no parent
    gateway = static_gateway(mapping, dim=dim)
    graph = build_graph(CandidateBank(kind="tool", entries=tuple(map(tool, names))), GraphConfig(tau=tau), gateway)
    embeddings = {name: planted_vector(vector) for name, vector in zip(names, vectors)}
    assert similarity_weights(graph) == scalar_scan(graph, embeddings)
    for name, vector in mutants.items():
        parent = names[rng.integers(len(names))]
        embeddings[name] = planted_vector(vector)
        graph = add_mutant(graph, parent, mutant_of(parent, name), gateway)
        names.append(name)
    expected = scalar_scan(graph, embeddings)
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


def reference_snapshot(tau, nodes, edges):
    """Reference writer: one json.dumps per record of the nodes and edges a graph was built from."""
    (model_id,) = {node.embedding.model_id for node in nodes.values()}
    records = [{"meta": {"tau": tau, "embedding_model_id": model_id}}]
    for name in sorted(nodes):
        node = nodes[name]
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
    for edge in sorted(edges, key=lambda e: (e.a, e.b, e.kind)):
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
    links=st.lists(  # a weight makes a similarity edge, None a mutation edge
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 5),
            st.one_of(st.none(), st.floats(0.5, exclude_min=True, allow_infinity=False), st.integers(1, 3)),
        ),
        max_size=12,
    ),
    embedding=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3).filter(
        lambda row: 0 < sum(x * x for x in row) < math.inf  # a graph's rows have a finite, nonzero norm
    ),
)
def test_save_graph_bytes_equal_per_record_json_dumps(tmp_path_factory, names, model_id, links, embedding):
    nodes = {
        name: GraphNode(spec=tool(name), embedding=EmbeddingVector(values=embedding, model_id=model_id))
        for name in names
    }
    edges = {}  # one edge per (a, b, kind): the constructor refuses a repeated one
    for x, y, weight in links:
        a, b = names[x % len(names)], names[y % len(names)]
        if a != b:
            edge = Edge.make(a, b, "mutation" if weight is None else "similarity", weight)
            edges[edge.a, edge.b, edge.kind] = edge
    edges = frozenset(edges.values())
    path = tmp_path_factory.mktemp("snapshot") / "graph.jsonl"
    again = path.with_name("again.jsonl")
    for graph_edges in (edges, frozenset()):  # and edge-free
        save_graph(CandidateGraph(config=GraphConfig(tau=0.5), nodes=nodes, edges=graph_edges), path)
        assert path.read_bytes() == reference_snapshot(0.5, nodes, graph_edges)
        # an edge line whose names need an escape, or whose weight is an int, is read
        # as JSON and the others by the pattern, in one file
        loaded = load_graph(path)
        assert loaded.names() == sorted(names) and dict(loaded.specs) == {name: tool(name) for name in names}
        assert set(loaded.edges) == graph_edges
        save_graph(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def graph_with_a_mutant():
    """A 12-tool graph with similarity edges and one mutant's mutation edge."""
    gateway = mock_gateway(0)
    graph = build_graph(make_tool_bank(12), GraphConfig(tau=0.5), gateway)
    mutant = mutant_of(graph.names()[0], "zz_mutant")
    return add_mutant(graph, graph.names()[0], mutant, gateway)


def split_snapshot(graph, path):
    """Save ``graph`` to ``path``: (the meta and node lines, the edge lines)."""
    save_graph(graph, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    edges_from = next(at for at, line in enumerate(lines) if line.startswith('{"edge": '))
    return lines[:edges_from], lines[edges_from:]


def re_encoded(line):
    """An edge line with other separators, which the edge pattern does not match."""
    return json.dumps(json.loads(line), separators=(",", ":"))


def test_an_edge_block_in_any_order_or_encoding_loads_to_the_same_graph(tmp_path):
    graph, path = graph_with_a_mutant(), tmp_path / "graph.jsonl"
    head, block = split_snapshot(graph, path)
    saved = path.read_bytes()
    assert {json.loads(line)["edge"]["kind"] for line in block} == {"similarity", "mutation"}
    assert not graph_module._EDGE_LINE.match(re_encoded(block[0]))
    compact = list(map(re_encoded, block))
    mixed = [line if at % 2 else re_encoded(line) for at, line in enumerate(block)]
    for edges in (block[::-1], compact, compact[::-1], mixed, mixed[::-1]):
        path.write_text("\n".join(head + edges) + "\n", encoding="utf-8")
        loaded = load_graph(path)
        assert loaded.names() == graph.names() and set(loaded.edges) == set(graph.edges)
        save_graph(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == saved


@pytest.mark.parametrize(
    "fault, phrase",
    [
        ("weight not above tau", "not above tau"),
        ("edge to a missing node", "missing node"),
        ("edge with a >= b", "a < b"),
        ("edge repeating the re-encoded one", "repeated similarity edge"),
    ],
)
def test_a_broken_edge_line_the_pattern_matches_fails_at_its_own_line(tmp_path, fault, phrase):
    """After a line read as JSON, a matched line is still checked, and reported, at its own line."""
    path = tmp_path / "graph.jsonl"
    head, block = split_snapshot(build_graph(make_tool_bank(12), GraphConfig(tau=0.5), mock_gateway(0)), path)
    first, second = (json.loads(line)["edge"] for line in block[:2])
    if fault == "weight not above tau":
        second["weight"] = 0.1
    elif fault == "edge to a missing node":
        second["b"] = "zzz_missing"
    elif fault == "edge with a >= b":
        second["a"], second["b"] = second["b"], second["a"]
    else:
        second = {**first, "weight": 0.99}
    broken = json.dumps({"edge": second})
    assert graph_module._EDGE_LINE.match(broken)
    path.write_text("\n".join([*head, re_encoded(block[0]), broken, *block[2:]]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=phrase) as info:
        load_graph(path)
    assert f"{path}:{len(head) + 2}:" in str(info.value)


def test_constructor_refuses_nodes_of_two_widths():
    nodes = {"a": GraphNode(tool("a"), vec(1, 0)), "b": GraphNode(tool("b"), vec(1, 0, 0))}
    with pytest.raises(DimensionMismatch, match=r"dims differ: \[2, 3\]"):
        CandidateGraph(GraphConfig(), nodes=nodes)


def test_specs_is_a_read_only_view_of_the_snapshot_nodes_in_insertion_order():
    gateway = mock_gateway(0)
    parent = build_graph(make_tool_bank(6), GraphConfig(), gateway)
    child = add_mutant(parent, "search_files_0", mutant_of("search_files_0", "a_mutant"), gateway)
    assert isinstance(child.specs, MappingProxyType)
    assert list(parent.specs) == list(make_tool_bank(6).names())
    assert list(child.specs) == [*parent.specs, "a_mutant"] and "a_mutant" not in parent.specs
    with pytest.raises(TypeError):
        child.specs["other"] = child.specs["a_mutant"]


def test_constructor_refuses_a_weight_no_float_holds():
    edges = frozenset({Edge.make("a", "b", "similarity", 10**400)})
    with pytest.raises(GraphError, match="not a finite number"):
        CandidateGraph(config=GraphConfig(), nodes=tool_nodes("abc"), edges=edges)


def test_constructor_refuses_a_weight_that_is_no_number():
    edges = frozenset({Edge.make("a", "b", "similarity", "high, very"), Edge.make("a", "c", "similarity", 0.9)})
    with pytest.raises(GraphError, match="not a finite number"):
        CandidateGraph(config=GraphConfig(), nodes=tool_nodes("abc"), edges=edges)


# Constructor inputs that load_graph refuses in a snapshot: case -> (nodes
# added to the tools a and b, edges as Edge.make arguments, a phrase of the error).
BROKEN_GRAPHS = {
    "similarity edge without a weight": ({}, [("a", "b", "similarity")], "has no weight"),
    "similarity weight not above tau": ({}, [("a", "b", "similarity", 0.82)], "not above tau"),
    "mutation edge with a weight": ({}, [("a", "b", "mutation", 0.9)], "carries a weight"),
    "edge of an unknown kind": ({}, [("a", "b", "friendship")], "unknown edge kind"),
    "edge to a missing node": ({}, [("a", "zz", "similarity", 0.9)], "missing node 'zz'"),
    "mutant with a missing parent": ({"m": mutant_of("zz", "m")}, [], "missing parent 'zz'"),
    "node under another spec's name": ({"c": tool("d")}, [], "holds the spec of"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_GRAPHS))
def test_constructor_refuses_what_load_graph_refuses(case):
    specs, links, phrase = BROKEN_GRAPHS[case]
    nodes = {**tool_nodes("ab"), **{name: GraphNode(spec, vec(1.0)) for name, spec in specs.items()}}
    with pytest.raises(GraphError, match=phrase):
        CandidateGraph(GraphConfig(), nodes=nodes, edges=[Edge.make(*link) for link in links])


def test_failed_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "graph.jsonl"
    save_graph(build_graph(make_tool_bank(6), GraphConfig(tau=0.5), mock_gateway(0)), path)
    old = path.read_bytes()
    nodes = tool_nodes("ab")
    nodes["b"] = GraphNode(replace(tool("b"), input_schema={"type": "object", "enum": {1, 2}}), nodes["b"].embedding)
    with pytest.raises(TypeError):  # a set is no JSON value
        save_graph(CandidateGraph(config=GraphConfig(), nodes=nodes), path)
    assert path.read_bytes() == old
    assert [entry.name for entry in tmp_path.iterdir()] == ["graph.jsonl"]
