"""Candidate graph: thresholded cosine-similarity edges plus mutation edges.

Graphs are immutable snapshots; insertion returns a new graph. Similarity
edges use strict ``sim > tau`` (a tie at exactly tau produces no edge).
A blocked float64 matrix product screens the pairs, and the arithmetic of
the scalar :func:`cosine_similarity`, vectorised over the pairs that clear
the screen, decides them, so the edges and their weights are bit for bit
those of an all-pairs scalar scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._util import JSON_LINE, read_jsonl, typed, write_lines
from .errors import (
    DimensionMismatch,
    DuplicateName,
    EmptyBank,
    ParseError,
    UnknownParent,
    ZeroVector,
)
from .gateway import EmbeddingVector, Gateway, _ordered_dots, json_numbers
from .registry import CandidateBank, CandidateSpec, validate_spec

DEFAULT_TAU = 0.82
# The screen keeps pairs above tau - SCREEN_MARGIN; the float64 rounding gap
# between the matrix and the scalar cosine is orders of magnitude smaller.
SCREEN_MARGIN = 1e-9
SCREEN_BLOCK_ROWS = 256  # rows per block of the screening product


@dataclass(frozen=True)
class GraphConfig:
    tau: float = DEFAULT_TAU
    embedding_model_id: str = "mock-embed-64"

    def __post_init__(self) -> None:
        if not 0 < self.tau < 1:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")


@dataclass(frozen=True)
class Edge:
    a: str
    b: str
    kind: str  # "similarity" | "mutation"
    weight: float | None = None

    def __post_init__(self) -> None:
        if self.a >= self.b:
            raise ValueError("edges must be stored canonically with a < b")

    @staticmethod
    def make(x: str, y: str, kind: str, weight: float | None = None) -> "Edge":
        if x == y:
            raise ValueError("self-edges are not allowed")
        a, b = (x, y) if x < y else (y, x)
        return Edge(a=a, b=b, kind=kind, weight=weight)


@dataclass(frozen=True)
class GraphNode:
    spec: CandidateSpec
    embedding: EmbeddingVector


@dataclass(frozen=True)
class CandidateGraph:
    config: GraphConfig
    nodes: dict[str, GraphNode] = field(default_factory=dict)
    edges: frozenset[Edge] = frozenset()

    def __len__(self) -> int:
        return len(self.nodes)

    def names(self) -> list[str]:
        return sorted(self.nodes)

    def names_of_kind(self, kind: str) -> list[str]:
        return sorted(name for name, node in self.nodes.items() if node.spec.kind == kind)

    @cached_property
    def _adjacency(self) -> dict[str, list[tuple[str, str]]]:
        """name -> sorted (other, kind) pairs, derived once per snapshot."""
        adjacency: dict[str, list[tuple[str, str]]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.a, []).append((edge.b, edge.kind))
            adjacency.setdefault(edge.b, []).append((edge.a, edge.kind))
        for pairs in adjacency.values():
            pairs.sort()
        return adjacency

    def neighbors(self, name: str) -> list[tuple[str, str]]:
        """(other name, edge kind) pairs, sorted for determinism."""
        return list(self._adjacency.get(name, ()))

    def mutation_edges(self) -> list[Edge]:
        return sorted((e for e in self.edges if e.kind == "mutation"), key=lambda e: (e.a, e.b))

    def similarity_edges(self) -> list[Edge]:
        return sorted((e for e in self.edges if e.kind == "similarity"), key=lambda e: (e.a, e.b))


def cosine_similarity(h_i: EmbeddingVector, h_j: EmbeddingVector) -> float:
    if h_i.dim != h_j.dim:
        raise DimensionMismatch(f"dims differ: {h_i.dim} vs {h_j.dim}")
    dot = 0.0
    norm_i = 0.0
    norm_j = 0.0
    for x, y in zip(h_i.values.tolist(), h_j.values.tolist()):
        dot += x * y
        norm_i += x * x
        norm_j += y * y
    if norm_i == 0.0 or norm_j == 0.0:
        raise ZeroVector("cosine similarity of a zero vector is undefined")
    return dot / (math.sqrt(norm_i) * math.sqrt(norm_j))


def _stacked_rows(vectors: Sequence[EmbeddingVector]) -> np.ndarray:
    """The vectors as the rows of one float64 matrix; mixed dims raise as in the scalar cosine."""
    try:
        return np.array([vector.values for vector in vectors], dtype=np.float64)
    except ValueError:  # numpy refuses rows of different lengths
        raise DimensionMismatch(f"dims differ: {sorted({vector.dim for vector in vectors})}") from None


def _ordered_norms(rows: np.ndarray) -> np.ndarray:
    """Row norms with the scalar cosine's arithmetic; a zero row raises as there."""
    norms = np.sqrt(_ordered_dots(rows, rows))
    if not norms.all():
        raise ZeroVector("cosine similarity of a zero vector is undefined")
    return norms


def _similarity_edges(names: Sequence[str], rows: np.ndarray, tau: float, first: int = 0) -> list[Edge]:
    """Similarity edges of every pair (i, j) of embedding rows with j < i and i >= first.

    The matrix product of the unit rows screens the pairs; the scalar
    cosine's operations, run in its order over all the pairs the screen
    keeps at once, decide each one and give the edge its weight.
    """
    norms = _ordered_norms(rows)
    unit = rows / norms[:, None]
    cut = tau - SCREEN_MARGIN
    edges = []
    for start in range(first, len(names), SCREEN_BLOCK_ROWS):
        stop = min(start + SCREEN_BLOCK_ROWS, len(names))
        i, j = np.nonzero(unit[start:stop] @ unit[:stop].T > cut)
        i += start
        below = j < i
        i, j = i[below], j[below]
        sims = _ordered_dots(rows[i], rows[j]) / (norms[i] * norms[j])
        above = sims > tau
        edges.extend(
            Edge.make(names[x], names[y], "similarity", weight=sim)
            for x, y, sim in zip(i[above].tolist(), j[above].tolist(), sims[above].tolist())
        )
    return edges


def build_graph(bank: CandidateBank, cfg: GraphConfig, gateway: Gateway) -> CandidateGraph:
    """Embed every candidate's canonical text and connect pairs above tau."""
    if len(bank) == 0:
        raise EmptyBank("cannot build a graph from an empty bank")
    embeddings = gateway.embed_texts([spec.phi for spec in bank])
    nodes = {
        spec.name: GraphNode(spec=spec, embedding=embedding)
        for spec, embedding in zip(bank, embeddings)
    }
    edges = _similarity_edges(bank.names(), _stacked_rows(embeddings), cfg.tau)
    return CandidateGraph(config=cfg, nodes=nodes, edges=frozenset(edges))


def add_mutant(
    graph: CandidateGraph,
    parent: str,
    mutant: CandidateSpec,
    embedding: EmbeddingVector,
) -> CandidateGraph:
    """Insert a mutant node with its mutation edge plus fresh similarity edges."""
    if parent not in graph.nodes:
        raise UnknownParent(parent)
    if mutant.name in graph.nodes:
        raise DuplicateName(mutant.name)
    nodes = dict(graph.nodes)
    nodes[mutant.name] = GraphNode(spec=mutant, embedding=embedding)
    new_edges = set(graph.edges)
    new_edges.add(Edge.make(parent, mutant.name, "mutation"))
    rows = _stacked_rows([node.embedding for node in nodes.values()])
    new_edges.update(_similarity_edges(list(nodes), rows, graph.config.tau, len(graph)))  # the mutant is the last row
    return CandidateGraph(config=graph.config, nodes=nodes, edges=frozenset(new_edges))


def save_graph(graph: CandidateGraph, path: str | Path) -> None:
    """Line-oriented snapshot: meta, sorted nodes, sorted edges.

    Each line has the bytes of ``json.dumps(record, ensure_ascii=False)``.
    """
    write_lines(path, _snapshot_lines(graph), "graph snapshot")


def _snapshot_lines(graph: CandidateGraph) -> Iterator[str]:
    encode = JSON_LINE.encode
    yield encode({"meta": {"tau": graph.config.tau, "embedding_model_id": graph.config.embedding_model_id}})
    for name in graph.names():
        node = graph.nodes[name]
        yield encode(
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
    edges = sorted(graph.edges, key=attrgetter("a", "b", "kind"))
    if not edges:
        return
    # Every string is encoded once, and all weights in one list, which splits
    # back into one piece per edge: a JSON number or null holds no ", ".
    weights = encode([edge.weight for edge in edges])[1:-1].split(", ")
    if len(weights) != len(edges):
        raise TypeError("edge weights must be numbers or None")
    quoted = {text: encode(text) for text in {text for edge in edges for text in (edge.a, edge.b, edge.kind)}}
    for edge, weight in zip(edges, weights):
        yield (
            f'{{"edge": {{"a": {quoted[edge.a]}, "b": {quoted[edge.b]}, '
            f'"kind": {quoted[edge.kind]}, "weight": {weight}}}}}'
        )


def _edge_record(raw: dict, tau: float) -> Edge:
    """The edge of a snapshot record; ValueError names what is wrong with it."""
    kind, weight = raw["kind"], raw.get("weight")
    if kind == "mutation":
        if weight is not None:
            raise ValueError(f"mutation edge carries a weight {weight!r}")
    elif kind != "similarity":
        raise ValueError(f"unknown edge kind {kind!r}")
    elif weight is None:
        raise ValueError("similarity edge has no weight")
    elif isinstance(weight, bool) or not isinstance(weight, (int, float)) or not math.isfinite(weight):
        raise ValueError(f"similarity edge weight {weight!r} is not a finite number")
    elif not weight > tau:
        raise ValueError(f"similarity weight {weight!r} is not above tau {tau!r}")
    return Edge(a=raw["a"], b=raw["b"], kind=kind, weight=weight)


# Each record kind and the kinds the record before it may have: the order save_graph writes.
_PREVIOUS_KINDS = {"meta": (None,), "node": ("meta",), "edge": ("meta", "node")}


def load_graph(path: str | Path) -> CandidateGraph:
    """Load a snapshot without re-embedding, checking its invariants.

    Each record is checked at its own line against the records before it,
    so they must come in the order ``save_graph`` writes them.
    """
    config: GraphConfig | None = None
    nodes: dict[str, GraphNode] = {}
    edges: dict[tuple[str, str, str], Edge] = {}
    previous: str | None = None  # the kind of the last record read

    def read(record: dict) -> None:
        nonlocal config, previous
        kind = next(iter(record), "")
        if kind != previous or kind == "meta":
            if kind not in _PREVIOUS_KINDS:
                raise ValueError("unknown record type")
            if previous not in _PREVIOUS_KINDS[kind]:
                raise ValueError(f"{kind} record out of order: a snapshot holds one meta record, nodes, then edges")
            previous = kind
        raw = record[kind]
        if kind == "edge":
            edge = _edge_record(raw, config.tau)
            for end in (edge.a, edge.b):
                if end not in nodes:
                    raise ValueError(f"edge names a missing node {end!r}")
            if edges.setdefault((edge.a, edge.b, edge.kind), edge) is not edge:
                raise ValueError(f"repeated {edge.kind} edge {edge.a!r} - {edge.b!r}")
        elif kind == "node":
            name = raw["name"]
            if name in nodes:
                raise ValueError(f"duplicate node {name!r}")
            spec = validate_spec(raw["spec"], raw["kind"])
            if spec.name != name:
                raise ValueError(f"node {name!r} holds the spec of {spec.name!r}")
            model_id = typed(raw["embedding_model_id"], str, "node embedding_model_id")
            embedding = EmbeddingVector(values=json_numbers(raw["embedding"]), model_id=model_id)
            nodes[name] = GraphNode(spec=spec, embedding=embedding)
        else:
            model_id = typed(raw["embedding_model_id"], str, "meta embedding_model_id")
            config = GraphConfig(tau=raw["tau"], embedding_model_id=model_id)

    read_jsonl(path, "graph snapshot", read)
    if config is None:
        raise ParseError(str(path), "missing meta record")
    for name, node in nodes.items():
        parent = node.spec.provenance.parent_name
        if parent is not None and parent not in nodes:
            raise ParseError(str(path), f"mutant {name!r} names a missing parent {parent!r}")
    model_ids = sorted({node.embedding.model_id for node in nodes.values()})
    if len(model_ids) > 1:
        raise ParseError(str(path), f"node embeddings come from more than one model: {model_ids}")
    dims = sorted({node.embedding.dim for node in nodes.values()})
    if len(dims) > 1:
        raise DimensionMismatch(f"{path}: node embeddings have dims {dims}")
    return CandidateGraph(config=config, nodes=nodes, edges=frozenset(edges.values()))
