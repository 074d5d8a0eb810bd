"""Workload definitions and the seeded generator of their input files.

Every input file is a pure function of (workload, seed, scale). Tool banks
are made of families: the members of a family share a verb, a domain, four
core words and their parameter names, and each adds six words of its own.
Under the mock embedder most pairs inside a family clear tau = 0.82 and
almost no pair across families does, so the mean similarity degree stays in
the tens (about 23) at any bank size. A bank cut from one template instead
links every n/40-th entry, and its edge count grows as n^2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from toolrouter.config import PipelineConfig, make_gateway
from toolrouter.graph import DEFAULT_TAU, CandidateGraph, Edge, GraphConfig, GraphNode, save_graph
from toolrouter.mutation import TOOL_OPERATORS
from toolrouter.registry import CandidateBank, save_bank, serialize_phi, validate_spec

SYLLABLES = (
    "ka", "lo", "mi", "ner", "ta", "vos", "qui", "zer", "pa", "dun",
    "ri", "sel", "mo", "bra", "tek", "fi", "gul", "han", "jo", "wex",
)
# The pipeline's own seed is the same in every run, so every run draws the
# same sequence of subset sizes and discards the same share of attempts; the
# benchmark seed varies the bank, and with it the graph.
PIPELINE_SEED = 7
# Every family has the same size, so the edge count, and the work of the
# stages that scan or copy the edge set, varies little from seed to seed.
FAMILY_SIZE = 24
CORE_WORDS = 4
OWN_WORDS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bank_size: int  # seed tools the CLI chain starts from
    mutate_rounds: int
    trajectories: int
    # Per round: LRA episodes, and evaluate() calls of the mix cycling over
    # (setting, router), each over the first mix_records dataset records.
    episodes: int
    mix_cells: int
    mix_records: int
    large_pools: bool = False  # +Mutation/+External inputs


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pipeline-large-bank",
            why=(
                "1000 tools, 20 mutate rounds, 20 trajectories: graph reads dominate (O(n^2) "
                "build_graph, |E|-scanning neighbors), where an indexed graph pays off"
            ),
            bank_size=1000,
            mutate_rounds=20,
            trajectories=20,
            episodes=10,
            mix_cells=25,
            mix_records=60,
        ),
        Workload(
            "route-large-pool",
            why=(
                "evaluate() under Clean/+Mutation/+External with pools up to ~2100 and LRA "
                "episodes over a 2005 pool: pool lookup, embedding and pool rebuilds"
            ),
            bank_size=100,
            mutate_rounds=5,
            trajectories=8,
            episodes=5,
            mix_cells=15,
            mix_records=1,
            large_pools=True,
        ),
    )
}

# With large pools, 10 mutants per seed tool and a 1000-tool external bank
# give pools of about 105 / 1105 / 2105 under Clean / +Mutation / +External.
MUTANTS_PER_PARENT = 10
EXTERNAL_SIZE = 1000
# Every workload routes its LRA episodes over one whole-bank pool of this
# size, so lra_episode_* mean the same on every workload.
LRA_POOL_SIZE = 2005
MIX_PASSES = 2  # k of every evaluate() call of the mix


def scaled(value: int, scale: float, minimum: int) -> int:
    return max(minimum, round(value * scale))


@dataclass(frozen=True)
class Inputs:
    """The generated files a workload hands to the program."""

    config: Path
    bank: Path
    lra_bank: Path  # whole-bank LRA pool
    mutants: Path | None = None  # +Mutation graph snapshot
    external: Path | None = None  # +External bank


def _word(rng: random.Random, syllables: int = 3) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(syllables))


def tool_docs(rng: random.Random, n: int, prefix: str = "") -> list[dict]:
    """n exchange-format tool documents in families of FAMILY_SIZE members."""
    docs: list[dict] = []
    while len(docs) < n:
        verb, domain = _word(rng, 2), _word(rng)
        core = [_word(rng) for _ in range(CORE_WORDS)]
        params = [_word(rng, 2) for _ in range(3)]
        for _ in range(min(FAMILY_SIZE, n - len(docs))):
            own = [_word(rng) for _ in range(OWN_WORDS)]
            docs.append(
                {
                    "name": f"{prefix}{verb}_{domain}_{len(docs):05d}",
                    "description": f"{verb} {' '.join(core + own)}.",
                    "inputSchema": {
                        "type": "object",
                        "properties": {
                            p: {"type": "string", "description": f"{p} of the {domain} item"}
                            for p in params
                        },
                        "required": [params[0]],
                    },
                    "tags": [domain],
                }
            )
    return docs


def mutant_docs(rng: random.Random, parents: list[dict], per_parent: int) -> list[dict]:
    """Tool mutants with provenance, as the mutate stage would stamp them."""
    out = []
    for parent in parents:
        for j in range(per_parent):
            extra = _word(rng, 2)
            schema = dict(parent["inputSchema"])
            schema["properties"] = {
                **schema["properties"],
                extra: {"type": "string", "description": f"{extra} selector of this variant"},
            }
            out.append(
                {
                    "name": f"{parent['name']}_m{j}",
                    "description": f"{parent['description']} Variant {_word(rng)} {_word(rng)}.",
                    "inputSchema": schema,
                    "tags": parent["tags"],
                    "provenance": {
                        "origin": "mutant",
                        "parent_name": parent["name"],
                        "operator": TOOL_OPERATORS[j % len(TOOL_OPERATORS)].value,
                    },
                }
            )
    return out


def _bank(docs: list[dict]) -> CandidateBank:
    return CandidateBank(kind="tool", entries=tuple(validate_spec(doc, "tool") for doc in docs))


def _mutation_graph(parents: list[dict], mutants: list[dict]) -> CandidateGraph:
    """Seed parents plus mutants, linked by mutation edges only.

    +Mutation reads only the mutant nodes. Siblings of one parent clear tau
    pairwise, so similarity edges would make the snapshot some 170k edges.
    """
    specs = list(_bank(parents + mutants))
    vectors = make_gateway(PipelineConfig(seed=PIPELINE_SEED)).embed_texts([serialize_phi(spec) for spec in specs])
    edges = frozenset(
        Edge.make(spec.provenance.parent_name, spec.name, "mutation")
        for spec in specs
        if spec.provenance.origin == "mutant"
    )
    nodes = {spec.name: GraphNode(spec=spec, embedding=vec) for spec, vec in zip(specs, vectors)}
    return CandidateGraph(config=GraphConfig(), nodes=nodes, edges=edges)


def setup(workload: Workload, seed: int, scale: float, work: Path) -> Inputs:
    """Write the workload's input files into work/ and name them."""
    rng = random.Random(f"{workload.name}:{seed}")
    config = work / "config.yaml"
    config.write_text(f"seed: {PIPELINE_SEED}\ntau: {DEFAULT_TAU}\nbackend:\n  mode: mock\n", encoding="utf-8")
    bank_docs = tool_docs(rng, scaled(workload.bank_size, scale, 20))
    bank = work / "bank.jsonl"
    save_bank(_bank(bank_docs), bank)
    lra_bank = work / "lra_bank.jsonl"
    lra_rng = random.Random(f"lra:{seed}")
    save_bank(_bank(tool_docs(lra_rng, scaled(LRA_POOL_SIZE, scale, 20), "lra_")), lra_bank)
    if not workload.large_pools:
        return Inputs(config=config, bank=bank, lra_bank=lra_bank)

    inputs = Inputs(
        config=config, bank=bank, lra_bank=lra_bank, mutants=work / "mutants.jsonl", external=work / "external.jsonl"
    )
    mutants = mutant_docs(rng, bank_docs, MUTANTS_PER_PARENT)
    save_graph(_mutation_graph(bank_docs, mutants), inputs.mutants)
    save_bank(_bank(tool_docs(rng, scaled(EXTERNAL_SIZE, scale, 20), "ext_")), inputs.external)
    return inputs
