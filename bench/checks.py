"""Output checks and artifact digests, computed from the files the CLI wrote.

The checks parse the artifacts themselves rather than through the program's
loaders, so a loader bug cannot hide a writer bug.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from toolrouter.gateway import EmbeddingVector
from toolrouter.graph import cosine_similarity

# Pairs whose matrix-product similarity lies this close to tau are decided
# by the scalar cosine_similarity, so a planted exact tie stays edge-free.
TIE_BAND = 1e-9


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def digest(path: Path) -> str:
    """sha256 of a JSONL artifact with float edge weights left out."""
    h = hashlib.sha256()
    for record in _records(path):
        if "edge" in record:
            record = {"edge": {k: v for k, v in record["edge"].items() if k != "weight"}}
        h.update(json.dumps(record, sort_keys=True, ensure_ascii=False).encode("utf-8"))
    return h.hexdigest()[:16]


def digest_value(value: object) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def check_graph(path: Path) -> tuple[list[str], dict]:
    """Edges of a snapshot against an independent sim > tau recomputation.

    Returns (problems, properties): node count, edge counts, mean similarity degree.
    """
    records = _records(path)
    tau = next(r["meta"]["tau"] for r in records if "meta" in r)
    nodes = [r["node"] for r in records if "node" in r]
    edges = [r["edge"] for r in records if "edge" in r]
    names = [node["name"] for node in nodes]
    index = {name: i for i, name in enumerate(names)}
    problems = []

    matrix = np.array([node["embedding"] for node in nodes], dtype=float)
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    sims = np.triu(matrix @ matrix.T, k=1)
    expected = {(names[i], names[j]) for i, j in zip(*np.nonzero(sims > tau + TIE_BAND))}
    for i, j in zip(*np.nonzero(np.abs(sims - tau) <= TIE_BAND)):
        a, b = nodes[i], nodes[j]
        scalar = cosine_similarity(
            EmbeddingVector(tuple(a["embedding"]), a["embedding_model_id"]),
            EmbeddingVector(tuple(b["embedding"]), b["embedding_model_id"]),
        )
        if scalar > tau:
            expected.add((names[i], names[j]))
    expected = {tuple(sorted(pair)) for pair in expected}

    got_sim, got_mut = set(), set()
    for edge in edges:
        pair = (edge["a"], edge["b"])
        if edge["a"] not in index or edge["b"] not in index or edge["a"] >= edge["b"]:
            problems.append(f"{path.name}: bad edge endpoints {pair}")
        elif edge["kind"] == "similarity":
            got_sim.add(pair)
        elif edge["kind"] == "mutation":
            got_mut.add(pair)
        else:
            problems.append(f"{path.name}: unknown edge kind {edge['kind']!r}")
    if got_sim != expected:
        problems.append(
            f"{path.name}: similarity edges differ from sim > tau "
            f"({len(got_sim - expected)} extra, {len(expected - got_sim)} missing)"
        )
    parents = {
        tuple(sorted((node["spec"]["provenance"]["parent_name"], node["name"])))
        for node in nodes
        if node["spec"].get("provenance", {}).get("origin") == "mutant"
    }
    if got_mut != parents:
        problems.append(f"{path.name}: mutation edges do not match mutant provenance")
    properties = {
        "n": len(nodes),
        "similarity_edges": len(got_sim),
        "mutation_edges": len(got_mut),
        "mean_similarity_degree": round(2 * len(got_sim) / max(1, len(nodes)), 2),
    }
    return problems, properties


def check_count(path: Path, expected: int) -> tuple[list[str], dict]:
    """A command wrote one record per unit of work it was asked for."""
    got = len(_records(path))
    return ([] if got == expected else [f"{path.name}: {got} records, {expected} asked for"]), {"records": got}


def check_dataset(trajectories: Path, dataset: Path, twin: Path) -> tuple[list[str], dict]:
    """Instance counts against trajectory calls; every label in its pool."""
    trajs = _records(trajectories)
    calls = sum(len(turn.get("calls", [])) for t in trajs for turn in t["turns"] if turn["type"] == "action")
    problems = []
    pool_sizes = []
    for path in (dataset, twin):
        records = _records(path)
        if len(records) != calls:
            problems.append(f"{path.name}: {len(records)} instances for {calls} calls")
        for record in records:
            pool = {spec["name"] for spec in record["pool"]}
            pool_sizes.append(len(pool))
            if record["label"] not in pool:
                problems.append(f"{path.name}: label {record['label']!r} not in its pool")
    subset_sizes = [len(t["subset"]["members"]) for t in trajs]
    properties = {
        "trajectories": len(trajs),
        "records": calls,
        "subset_size_mean": round(sum(subset_sizes) / max(1, len(subset_sizes)), 2),
        "pool_size_mean": round(sum(pool_sizes) / max(1, len(pool_sizes)), 1),
    }
    return problems, properties


def check_results(path: Path) -> tuple[list[str], dict]:
    """Oracle scores avg@k = 1.0 under every setting; counts the decisions."""
    problems = []
    decisions = 0
    for record in _records(path):
        decisions += len(record["per_run"]) * record["n_instances"]
        if record["method"] == "oracle" and record["avg_at_k"] != 1.0:
            problems.append(f"{path.name}: oracle avg@k {record['avg_at_k']} under {record['setting']}")
    return problems, {"decisions": decisions}
