"""Candidate graph: thresholded cosine-similarity edges plus mutation edges.

Graphs are immutable snapshots; insertion returns a new graph. Similarity
edges use strict ``sim > tau`` (a tie at exactly tau produces no edge).
A blocked float32 product of the unit rows screens the pairs, and the
arithmetic of the scalar :func:`cosine_similarity`, vectorised over the
pairs that clear the screen, decides them, so the edges and their weights
are bit for bit those of an all-pairs scalar scan.

A graph holds candidates of one kind, tools or agents. The snapshots of one
chain of insertions share a store of arrays that only grows: the nodes'
names and specs, a ``name -> row`` index, one float64 embedding matrix of
one embedding model with its norms (grown by amortised doubling), and an
edge table of endpoint rows, kinds and weights, one list each. A snapshot
reads the first ``len(graph)`` rows and the first edges of the store, so a
parent never sees a child's node or edges; inserting into a snapshot whose
store a sibling insertion has already extended copies the snapshot's part of
the store first. Names are read only at the boundary: ``graph.specs``,
``neighbors()``, snapshot lines and the ``Edge`` objects, which are built
only for a caller that reads ``edges``. ``load_graph`` reads each snapshot
line once, and every edge, loaded or given to the constructor, passes the
one check of ``_SnapshotReader.edge``.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence, Set
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from ._util import JSON_LINE, finite, json_object, parse_lines, read_lines, typed, write_lines
from .errors import (
    BadConfig,
    DimensionMismatch,
    DuplicateName,
    EmptyBank,
    GraphError,
    ParseError,
    UnknownParent,
    ZeroVector,
)
from .gateway import EmbeddingVector, Gateway, _ordered_dots, _screen_margin, _unit_rows, _usable_norms, json_numbers
from .registry import CandidateBank, CandidateSpec, validate_spec

DEFAULT_TAU = 0.82
SCREEN_BLOCK_ROWS = 256  # rows per block of the screening product


@dataclass(frozen=True)
class GraphConfig:
    tau: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        if not 0 < self.tau < 1:
            raise BadConfig(f"tau must be in (0, 1), got {self.tau}")


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


def _stack(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """The rows as one float64 matrix; rows of different lengths raise as in the scalar cosine."""
    if not rows:
        return np.empty((0, 0))
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError:  # numpy refuses rows of different lengths
        raise DimensionMismatch(f"dims differ: {sorted({len(row) for row in rows})}") from None


class _Store:
    """The nodes and edges of a chain of snapshots; rows and edges are only appended.

    Node row r is ``names[r]``, ``specs[r]`` and the embedding ``matrix[r]``
    of the model ``model_id``, with its finite, nonzero norm ``norms[r]`` and
    the float32 unit row ``unit[r]`` that the similarity screen reads (derived
    on first use). The arrays have spare rows past ``len(self)``. Edge e
    joins rows ``edge_x[e] != edge_y[e]`` (in either order) and is of kind
    ``edge_kind[e]`` with weight ``edge_weight[e]``.
    """

    def __init__(
        self,
        names: list[str],
        specs: list[CandidateSpec],
        model_id: str,
        matrix: np.ndarray,
        norms: np.ndarray,
        edges: tuple[list, list, list, list] | None = None,
        unit: np.ndarray | None = None,
    ) -> None:
        self.names, self.specs, self.model_id = names, specs, model_id
        self.index = dict(zip(names, range(len(names))))
        self.matrix, self.norms, self._unit = matrix, norms, unit
        self.edge_x, self.edge_y, self.edge_kind, self.edge_weight = edges if edges is not None else ([], [], [], [])

    def __len__(self) -> int:
        return len(self.names)

    @property
    def unit(self) -> np.ndarray:
        if self._unit is None:  # before append_node first grows the arrays: no spare rows yet
            self._unit = _unit_rows(self.matrix, self.norms)
        return self._unit

    def copy(self, n: int, m: int) -> "_Store":
        """A store of its own that holds the first n rows and first m edges."""
        edges = (self.edge_x[:m], self.edge_y[:m], self.edge_kind[:m], self.edge_weight[:m])
        rows = (self.matrix[:n].copy(), self.norms[:n].copy(), edges, self.unit[:n].copy())
        return _Store(self.names[:n], self.specs[:n], self.model_id, *rows)

    def append_node(self, spec: CandidateSpec, values: np.ndarray, norm: float) -> None:
        row, arrays = len(self.names), (self.matrix, self.norms, self.unit)
        if row == len(self.matrix):
            grown = [np.empty((max(1, 2 * row), *array.shape[1:]), array.dtype) for array in arrays]
            for new, old in zip(grown, arrays):
                new[:row] = old[:row]
            self.matrix, self.norms, self._unit = arrays = grown
        for array, value in zip(arrays, (values, norm, _unit_rows(values, norm))):
            array[row] = value
        self.index[spec.name] = row
        self.names.append(spec.name)
        self.specs.append(spec)

    def append_edges(self, x: list[int], y: list[int], kind: str, weights: list) -> None:
        """Edges between rows x[e] and y[e] != x[e]."""
        self.edge_x.extend(x)
        self.edge_y.extend(y)
        self.edge_kind.extend([kind] * len(x))
        self.edge_weight.extend(weights)


class _Edges(Set):
    """A snapshot's edges as Edge objects in (a, b, kind) order, built as they are read."""

    def __init__(self, graph: "CandidateGraph") -> None:
        self._graph = graph

    def __len__(self) -> int:
        return self._graph._m

    def __iter__(self) -> Iterator[Edge]:
        return map(Edge, *self._graph._edge_columns())

    def __contains__(self, edge: object) -> bool:
        return edge in self._set

    @cached_property
    def _set(self) -> frozenset[Edge]:
        return frozenset(self)


class CandidateGraph:
    """One snapshot: the first ``len(self)`` nodes and first ``len(self.edges)`` edges of a store."""

    def __init__(
        self,
        config: GraphConfig,
        nodes: Mapping[str, GraphNode] | None = None,
        edges: Iterable[Edge] = (),
    ) -> None:
        """A graph of ``nodes`` and ``edges``: GraphError for any that ``load_graph`` would refuse."""
        given = dict(nodes or {})
        checks = _SnapshotReader(config, next((node.embedding.model_id for node in given.values()), ""))
        try:
            for name, node in given.items():
                checks.node(name, node.spec, node.embedding.model_id, node.embedding.values)
            for edge in edges:
                checks.edge(edge.a, edge.b, edge.kind, edge.weight)
            store = checks.store()
        except ValueError as exc:
            raise GraphError(str(exc)) from exc
        self._bind(config, store)

    @classmethod
    def _view(cls, config: GraphConfig, store: _Store) -> "CandidateGraph":
        """The snapshot of all of ``store``."""
        graph = cls.__new__(cls)
        graph._bind(config, store)
        return graph

    def _bind(self, config: GraphConfig, store: _Store) -> None:
        self.config = config
        self._store, self._n, self._m = store, len(store), len(store.edge_x)

    @property
    def edges(self) -> Set[Edge]:
        return _Edges(self)  # made per read: a view held by the graph would make a reference cycle

    def __len__(self) -> int:
        return self._n

    @cached_property
    def specs(self) -> Mapping[str, CandidateSpec]:
        """name -> spec of the snapshot's nodes in store order, read-only; built on first read."""
        return MappingProxyType(dict(zip(self._store.names[: self._n], self._store.specs[: self._n])))

    @property
    def kind(self) -> str | None:
        """The kind of every node; None for a graph without nodes."""
        return self._store.specs[0].kind if self._n else None

    @cached_property
    def _names(self) -> tuple[str, ...]:
        return tuple(sorted(self._store.names[: self._n]))

    def names(self) -> list[str]:
        return list(self._names)

    @cached_property
    def _edge_codes(self) -> tuple[np.ndarray, list[str], np.ndarray, np.ndarray, np.ndarray]:
        """(row -> its name's place among the sorted names, the edge kinds in
        order, and each edge's a and b, the smaller and larger place of its
        rows, and its kind's place among the kinds)."""
        store, n, m = self._store, self._n, self._m
        place = np.empty(n, np.intp)
        place[list(map(store.index.__getitem__, self._names))] = np.arange(n)
        x, y = place[store.edge_x[:m]], place[store.edge_y[:m]]
        kinds = sorted(set(store.edge_kind[:m]))
        kind = np.fromiter(map(dict(zip(kinds, range(len(kinds)))).__getitem__, store.edge_kind[:m]), np.intp, m)
        return place, kinds, np.minimum(x, y), np.maximum(x, y), kind

    def _edge_columns(self, text: Callable[[str], str] = str) -> tuple[list, list, list, list]:
        """The snapshot's edges as (a, b, kind, weight) columns in (a, b, kind)
        order, with ``text(name)`` for each name and ``text(kind)`` for each kind."""
        _, kinds, a, b, kind = self._edge_codes
        order = np.lexsort((kind, b, a))  # stable: ties keep their table order
        names, kinds, weights = list(map(text, self._names)), list(map(text, kinds)), self._store.edge_weight
        columns = ((names, a[order]), (names, b[order]), (kinds, kind[order]), (weights, order))
        return tuple(list(map(values.__getitem__, codes.tolist())) for values, codes in columns)

    @cached_property
    def _adjacency(self) -> tuple[list[int], list[int], list[str], list[str]]:
        """(row -> its place p, and the (other, kind) pairs of the node at place p
        at [bounds[p], bounds[p + 1]) of the two lists, sorted), derived once per snapshot."""
        place, kinds, a, b, kind = self._edge_codes
        ends, others, pair_kinds = np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([kind, kind])
        order = np.lexsort((pair_kinds, others, ends))
        bounds = np.searchsorted(ends[order], np.arange(self._n + 1)).tolist()
        return (
            place.tolist(),
            bounds,
            list(map(self._names.__getitem__, others[order].tolist())),
            list(map(kinds.__getitem__, pair_kinds[order].tolist())),
        )

    def neighbors(self, name: str) -> list[tuple[str, str]]:
        """(other name, edge kind) pairs, sorted for determinism."""
        row = self._store.index.get(name, self._n)
        if row >= self._n:
            return []
        place, bounds, others, kinds = self._adjacency
        start, stop = bounds[place[row]], bounds[place[row] + 1]
        return list(zip(others[start:stop], kinds[start:stop]))


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


def _link_similar(store: _Store, tau: float, first: int) -> None:
    """Append the similarity edges of every row i >= first to each row j < i.

    The matrix product of the float32 unit rows screens the pairs; the
    scalar cosine's operations, run in its order over all the pairs the
    screen keeps at once, decide each one and give the edge its weight.
    """
    count = len(store)
    rows, norms, unit = store.matrix[:count], store.norms[:count], store.unit[:count]
    cut = tau - _screen_margin(rows.shape[1])  # keeps every pair whose scalar cosine is above tau
    for start in range(first, count, SCREEN_BLOCK_ROWS):
        stop = min(start + SCREEN_BLOCK_ROWS, count)
        i, j = np.nonzero(unit[start:stop] @ unit[:stop].T > cut)
        i += start
        below = j < i
        i, j = i[below], j[below]
        sims = _ordered_dots(rows[i], rows[j]) / (norms[i] * norms[j])
        above = sims > tau
        store.append_edges(i[above].tolist(), j[above].tolist(), "similarity", sims[above].tolist())


def build_graph(bank: CandidateBank, cfg: GraphConfig, gateway: Gateway) -> CandidateGraph:
    """Embed every candidate's canonical text and connect pairs above tau."""
    if len(bank) == 0:
        raise EmptyBank("cannot build a graph from an empty bank")
    matrix, norms = gateway.embedding_rows([spec.phi for spec in bank])
    store = _Store(list(bank.names()), list(bank), gateway.embed_model_id, matrix, norms)
    _link_similar(store, cfg.tau, 0)
    return CandidateGraph._view(cfg, store)


def add_mutant(graph: CandidateGraph, parent: str, mutant: CandidateSpec, gateway: Gateway) -> CandidateGraph:
    """Insert a mutant node, embedded through ``gateway`` as ``build_graph``
    embeds a bank, with its mutation edge plus fresh similarity edges.

    The new graph appends to the parent's store; the parent's snapshot does
    not see what was appended.
    """
    if parent not in graph.specs:
        raise UnknownParent(parent)
    if mutant.name in graph.specs:
        raise DuplicateName(mutant.name)
    if mutant.kind != graph.kind:
        raise GraphError(f"{mutant.kind} mutant {mutant.name!r} in a graph of {graph.kind}s")
    store, n = graph._store, len(graph)
    if gateway.embed_model_id != store.model_id:
        raise GraphError(f"mutant embedded by {gateway.embed_model_id!r}, the graph's nodes by {store.model_id!r}")
    (row,), (norm,) = gateway.embedding_rows([mutant.phi])
    if row.shape != store.matrix.shape[1:]:
        raise DimensionMismatch(f"dims differ: {sorted({store.matrix.shape[1], len(row)})}")
    if len(store) != n or len(store.edge_x) != graph._m:
        store = store.copy(n, graph._m)  # a sibling insertion extended the store
    store.append_node(mutant, row, norm)
    store.append_edges([store.index[parent]], [n], "mutation", [None])
    _link_similar(store, graph.config.tau, n)
    return CandidateGraph._view(graph.config, store)


def save_graph(graph: CandidateGraph, path: str | Path) -> None:
    """Line-oriented snapshot: meta, sorted nodes, sorted edges.

    Each line has the bytes of ``json.dumps(record, ensure_ascii=False)``.
    """
    write_lines(path, _snapshot_lines(graph), "graph snapshot")


def _snapshot_lines(graph: CandidateGraph) -> Iterator[str]:
    encode = JSON_LINE.encode
    store = graph._store
    yield encode({"meta": {"tau": graph.config.tau, "embedding_model_id": store.model_id}})
    for name in graph._names:
        row = store.index[name]
        spec = store.specs[row]
        yield encode(
            {
                "node": {
                    "name": name,
                    "kind": spec.kind,
                    "spec": spec.to_dict(),
                    "embedding": store.matrix[row].tolist(),
                    "embedding_model_id": store.model_id,
                }
            }
        )
    a, b, kind, weight = graph._edge_columns(encode)
    # Every name and kind is encoded once, and all weights in one list, which
    # splits back into one piece per edge: a JSON number or null holds no ", ".
    for a_text, b_text, kind_text, weight_text in zip(a, b, kind, encode(weight)[1:-1].split(", ")):
        yield f'{{"edge": {{"a": {a_text}, "b": {b_text}, "kind": {kind_text}, "weight": {weight_text}}}}}'


# An edge line exactly as save_graph writes it, when its names need no JSON
# escape and its weight is a JSON float: a, b and, for a similarity edge, the
# weight's text. A match spans one whole line; any other line is read as JSON.
_NAME = r'"([^"\\\x00-\x1f]*)"'
_EDGE_LINE = re.compile(
    rf'\{{"edge": \{{"a": {_NAME}, "b": {_NAME}, "kind": (?:"mutation", "weight": null|"similarity", '
    r'"weight": (-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)))\}\}$'
)

# Each record kind and the kinds the record before it may have: the order save_graph writes.
_PREVIOUS_KINDS = {"meta": (None,), "node": ("meta",), "edge": ("meta", "node")}


class _SnapshotReader:
    """Checks a snapshot's records in order and collects them for the store. The
    ``CandidateGraph`` constructor runs the checks of :meth:`node`, :meth:`edge` and :meth:`store` too."""

    def __init__(self, config: GraphConfig | None = None, model_id: str = "") -> None:
        self.config = config
        self.model_id = model_id  # the meta record's: every node's embeddings must come from this model
        self.previous: str | None = None  # the kind of the last record read
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.specs: list[CandidateSpec] = []
        self.embeddings: list[np.ndarray] = []
        self.edge_x, self.edge_y, self.edge_kind, self.edge_weight = [], [], [], []  # the store's edge columns
        self.edge_keys: set[tuple[int, int, str]] = set()

    def record(self, line: str) -> None:
        """Check and collect the record a snapshot line holds."""
        match = _EDGE_LINE.match(line)
        record = None if match else json_object(line)
        kind = "edge" if match else next(iter(record), "")
        if kind != self.previous or kind == "meta":
            if kind not in _PREVIOUS_KINDS:
                raise ValueError("unknown record type")
            if self.previous not in _PREVIOUS_KINDS[kind]:
                raise ValueError(f"{kind} record out of order: a snapshot holds one meta record, nodes, then edges")
            self.previous = kind
        if match:
            a, b, weight = match.groups()  # no weight: a mutation edge
            self.edge(a, b, "similarity" if weight else "mutation", float(weight) if weight else None)
            return
        raw = record[kind]
        if kind == "edge":
            self.edge(raw["a"], raw["b"], raw["kind"], raw.get("weight"))
        elif kind == "node":
            self._node(raw)
        else:
            self.model_id = typed(raw["embedding_model_id"], str, "meta embedding_model_id")
            self.config = GraphConfig(tau=raw["tau"])

    def _node(self, raw: dict) -> None:
        spec = validate_spec(raw["spec"], raw["kind"])
        model_id = typed(raw["embedding_model_id"], str, "node embedding_model_id")
        values = raw["embedding"]
        if not isinstance(values, list):
            raise TypeError("an embedding must be a flat sequence of JSON numbers")
        self.node(raw["name"], spec, model_id, np.array(json_numbers(values), dtype=np.float64))

    def node(self, name: str, spec: CandidateSpec, model_id: str, values: np.ndarray) -> None:
        if name in self.index:
            raise ValueError(f"duplicate node {name!r}")
        if spec.name != name:
            raise ValueError(f"node {name!r} holds the spec of {spec.name!r}")
        if model_id != self.model_id:
            raise ValueError(f"node embeddings come from more than one model: {model_id!r}, not {self.model_id!r}")
        if self.specs and spec.kind != self.specs[0].kind:
            raise ValueError(f"{spec.kind} node {name!r} in a graph of {self.specs[0].kind}s: a graph holds one kind")
        self.index[name] = len(self.names)
        self.names.append(name)
        self.specs.append(spec)
        self.embeddings.append(values)

    def edge(self, a: str, b: str, kind: str, weight: float | None) -> None:
        if kind == "similarity":
            if weight is None:
                raise ValueError("similarity edge has no weight")
            if isinstance(weight, bool) or not isinstance(weight, (int, float)) or not finite(weight):
                raise ValueError(f"similarity weight {weight!r} is not a finite number")
            if not weight > self.config.tau:
                raise ValueError(f"similarity weight {weight!r} is not above tau {self.config.tau!r}")
        elif kind != "mutation":
            raise ValueError(f"unknown edge kind {kind!r}")
        elif weight is not None:
            raise ValueError(f"mutation edge carries a weight {weight!r}")
        if not a < b:
            raise ValueError("edges must be stored canonically with a < b")
        x, y = self.index.get(a), self.index.get(b)
        if x is None or y is None:
            raise ValueError(f"edge names a missing node {(a if x is None else b)!r}")
        key = (x, y, kind)
        if key in self.edge_keys:
            raise ValueError(f"repeated {kind} edge {a!r} - {b!r}")
        self.edge_keys.add(key)
        self.edge_x.append(x)
        self.edge_y.append(y)
        self.edge_kind.append(kind)
        self.edge_weight.append(weight)

    def store(self) -> _Store:
        """The store of the nodes and edges read, once every mutant's parent
        is a node and every embedding has a finite, nonzero norm."""
        for name, spec in zip(self.names, self.specs):
            parent = spec.provenance.parent_name
            if parent is not None and parent not in self.index:
                raise ValueError(f"mutant {name!r} names a missing parent {parent!r}")
        matrix = _stack(self.embeddings)
        edges = (self.edge_x, self.edge_y, self.edge_kind, self.edge_weight)
        return _Store(self.names, self.specs, self.model_id, matrix, _usable_norms(matrix, self.names), edges)

    def graph(self, path: Path) -> CandidateGraph:
        """The snapshot, once the invariants across records hold."""
        if self.config is None:
            raise ParseError(str(path), "missing meta record")
        dims = sorted(set(map(len, self.embeddings)))
        if len(dims) > 1:
            raise DimensionMismatch(f"{path}: node embeddings have dims {dims}")
        try:
            return CandidateGraph._view(self.config, self.store())
        except ValueError as exc:
            raise ParseError(str(path), str(exc)) from exc


def load_graph(path: str | Path) -> CandidateGraph:
    """Load a snapshot without re-embedding, checking its invariants.

    Each line is read once, and its record is checked at its own line
    against the records before it: one meta record, the nodes, then the
    edges, each block in any order. An edge line as ``save_graph`` writes
    it is read by a pattern and any other line as JSON; both take the same
    checks.
    """
    path = Path(path)
    reader = _SnapshotReader()
    parse_lines(path, read_lines(path, "graph snapshot"), reader.record)
    return reader.graph(path)
