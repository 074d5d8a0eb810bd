"""Clock-free cost checks of the graph layer: the work an insert and a load
do, counted by call at growing graph sizes, so a store copied per insert, a
full re-screen or an edge line decoded as JSON fails at every size instead of
only slowing the large ones."""

import random

import numpy as np
import pytest

from helpers import count_calls
from toolrouter import _util, graph as graph_module
from toolrouter.gateway import EmbeddingVector, Gateway
from toolrouter.graph import CandidateGraph, Edge, GraphConfig, GraphNode, _Store, add_mutant, load_graph, save_graph
from toolrouter.registry import validate_spec

SIZES = (250, 1000, 4000)
MUTANTS = 5
DIM = 8


def tool(name: str):
    return validate_spec({"name": name, "description": "d", "inputSchema": {"type": "object"}}, "tool")


def embedding(rng: random.Random) -> EmbeddingVector:
    return EmbeddingVector(values=[rng.uniform(-1, 1) for _ in range(DIM)], model_id="t")


class RandomRows:
    """An embedding backend of the random graphs' model: a random row per text."""

    dim, model_id = DIM, "t"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def embed(self, texts):
        return [[self.rng.uniform(-1, 1) for _ in range(DIM)] for _ in texts]


def random_graph(n: int, seed: int = 0) -> CandidateGraph:
    """``n`` nodes with random embeddings, each linked to two random others
    (similarity or mutation); the weights need not be the rows' cosines."""
    rng = random.Random(seed)
    names = [f"tool_{i:05d}" for i in range(n)]
    nodes = {name: GraphNode(spec=tool(name), embedding=embedding(rng)) for name in names}
    pairs = {tuple(sorted(rng.sample(names, 2))) for _ in range(2 * n)}
    edges = [Edge(a, b, "similarity", 0.9) if rng.random() < 0.7 else Edge(a, b, "mutation") for a, b in sorted(pairs)]
    return CandidateGraph(config=GraphConfig(), nodes=nodes, edges=edges)


@pytest.mark.parametrize("n", SIZES)
def test_a_chain_of_inserts_copies_no_store_and_screens_each_mutant_with_one_mat_vec(monkeypatch, n):
    graph, gateway = random_graph(n), Gateway(embedding_backend=RandomRows(random.Random(1)))
    products = []  # (rows, columns) of each screening product

    class RecordingRows(np.ndarray):
        def __matmul__(self, other):
            products.append((self.shape[0], other.shape[1]))
            return np.asarray(self) @ np.asarray(other)

    unit = _Store.unit.fget
    monkeypatch.setattr(_Store, "unit", property(lambda store: unit(store).view(RecordingRows)))
    counts = count_calls(monkeypatch, copy=(_Store, "copy"))
    for i in range(MUTANTS):
        graph = add_mutant(graph, graph.names()[i], tool(f"tool_mutant_{i}"), gateway)
    assert len(graph) == n + MUTANTS
    assert counts == {"copy": 0}
    assert products == [(1, n + i + 1) for i in range(MUTANTS)]


class CountingPattern:
    """A compiled pattern that counts its ``match`` calls and the lines they match."""

    def __init__(self, pattern) -> None:
        self.pattern, self.calls, self.matches = pattern, 0, 0

    def match(self, text: str):
        self.calls += 1
        found = self.pattern.match(text)
        self.matches += found is not None
        return found


@pytest.mark.parametrize("n", SIZES)
def test_load_graph_decodes_the_meta_and_node_lines_alone_and_the_edges_in_one_pass(tmp_path, monkeypatch, n):
    graph = random_graph(n)
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    edge_lines = CountingPattern(graph_module._EDGE_LINE)
    monkeypatch.setattr(graph_module, "_EDGE_LINE", edge_lines)
    counts = count_calls(monkeypatch, loads=(_util.json, "loads"))
    loaded = load_graph(path)
    edges = len(graph.edges)
    # each line is tried once; every edge line matches, so none is decoded as JSON
    assert counts == {"loads": 1 + n} and edge_lines.calls == 1 + n + edges and edge_lines.matches == edges
    assert len(loaded) == n and set(loaded.edges) == set(graph.edges)
