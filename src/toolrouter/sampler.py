"""Locally coherent candidate subsets via seeded DFS-with-restart walks."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ._util import derive_seed
from .errors import BadConfig, EmptyGraph
from .graph import CandidateGraph


@dataclass(frozen=True)
class SamplerConfig:
    num_seeds: int = 1
    target_range: tuple[int, int] = (4, 8)  # a fixed size k is (k, k)
    restart_prob: float = 0.15
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_seeds < 1:
            raise BadConfig("num_seeds must be >= 1")
        lo, hi = self.target_range
        if not 1 <= lo <= hi:
            raise BadConfig(f"bad target_range: {self.target_range}")
        if not 0 <= self.restart_prob < 1:
            raise BadConfig("restart_prob must be in [0, 1)")


def attempt_config(cfg: SamplerConfig, seed: int, attempt: int) -> SamplerConfig:
    """The config of the subset that synthesize's attempt ``attempt`` draws under the run seed ``seed``."""
    return replace(cfg, rng_seed=derive_seed(seed, "sample", attempt))


@dataclass(frozen=True)
class CandidateSubset:
    members: tuple[str, ...]  # visit order
    seed_nodes: tuple[str, ...]
    walk_trace: tuple[tuple[str, str, str], ...]  # (from, to, edge kind)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def to_dict(self) -> dict:
        return {
            "members": list(self.members),
            "seed_nodes": list(self.seed_nodes),
            "walk_trace": [list(step) for step in self.walk_trace],
        }


def sample_subset(graph: CandidateGraph, cfg: SamplerConfig) -> CandidateSubset:
    """Grow a DFS from uniform seed nodes over both edge kinds.

    With probability restart_prob a step backtracks to the previous branch
    point instead of descending. When a walk ends before the target size,
    the next walk starts at the next requested seed that no walk reached, or
    else at an extra uniform seed drawn from the unvisited nodes.
    Deterministic given (graph, cfg).
    """
    if len(graph) == 0:
        raise EmptyGraph("cannot sample from an empty graph")
    rng = random.Random(cfg.rng_seed)
    lo, hi = cfg.target_range
    # A one-size range draws nothing from the rng: randint(k, k) would.
    target = min(lo if lo == hi else rng.randint(lo, hi), len(graph))

    all_names = graph.names()
    if cfg.num_seeds > len(all_names):
        raise BadConfig("num_seeds exceeds graph size")
    seeds = rng.sample(all_names, min(cfg.num_seeds, target))

    visited: dict[str, None] = {}  # insertion-ordered member set
    seed_nodes: list[str] = []
    trace: list[tuple[str, str, str]] = []
    stack: list[str] = []
    pending_seeds = iter(seeds)

    while len(visited) < target:
        if not stack:  # a walk starts; a requested seed that an earlier walk reached is skipped
            seed = next((name for name in pending_seeds if name not in visited), None)
            if seed is None:
                seed = rng.choice([name for name in all_names if name not in visited])  # target <= len(graph)
            visited[seed] = None
            seed_nodes.append(seed)
            stack.append(seed)
            continue
        current = stack[-1]
        frontier = [(other, kind) for other, kind in graph.neighbors(current) if other not in visited]
        if not frontier:
            stack.pop()
            continue
        if len(stack) > 1 and rng.random() < cfg.restart_prob:
            stack.pop()
            continue
        nxt, kind = rng.choice(frontier)
        visited[nxt] = None
        trace.append((current, nxt, kind))
        stack.append(nxt)

    return CandidateSubset(
        members=tuple(visited),
        seed_nodes=tuple(seed_nodes),
        walk_trace=tuple(trace),
    )
