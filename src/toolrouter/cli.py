"""Pipeline orchestration commands.

Every command reads declared inputs and writes declared outputs; with mock
backends and a fixed seed, reruns are byte-identical. Usage errors exit 2,
data errors exit 1 with a diagnostic.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import click

from ._util import write_jsonl
from .config import PipelineConfig, load_config, make_gateway
from .errors import ParseError, ToolRouterError
from .evaluation import Metrics, PoolSetting, Setting, evaluate, save_results
from .graph import GraphConfig, build_graph, load_graph, save_graph
from .lra import ExecutorBinding, GatewayReasoner, run_episode, save_episode_logs
from .mutation import evolve, write_mutation_log
from .registry import CandidateBank, CandidatePool, load_bank
from .router import VARIANTS, RouterConfig
from .sampler import attempt_config, sample_subset
from .supervision import build_dataset, load_dataset
from .synthesis import load_trajectories, save_trajectories, synthesize_batch


class _Pipeline(click.Group):
    """Ends any command that raises a ToolRouterError with one ``error:`` line and exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ToolRouterError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


def _router_config(cfg: PipelineConfig, variant: str, kind: str) -> RouterConfig:
    """The config's ``eval`` router settings for one variant over candidates of ``kind``."""
    return replace(cfg.eval, variant=variant, kind=kind, rng_seed=cfg.rng_seed)


common_options = [
    click.option("--config", "config_path", type=click.Path(exists=True), default=None),
    click.option("--seed", type=int, default=None, help="Overrides the config seed."),
    click.option("--backend", type=click.Choice(["mock", "live"]), default=None),
]


def with_common(func):
    for option in reversed(common_options):
        func = option(func)
    return func


@click.group(cls=_Pipeline)
def main() -> None:
    """History-aware routing supervision pipeline."""


@main.command("build-graph")
@with_common
@click.option("--bank", "bank_path", type=click.Path(exists=True), required=True)
@click.option("--tau", type=float, default=None)
@click.option("--out", "out_path", type=click.Path(), required=True)
def build_graph_cmd(config_path, seed, backend, bank_path, tau, out_path) -> None:
    """Embed a candidate bank and build the similarity graph."""
    cfg = load_config(config_path, seed=seed, backend=backend, tau=tau)
    bank = load_bank(bank_path)
    graph = build_graph(bank, GraphConfig(tau=cfg.tau), make_gateway(cfg))
    save_graph(graph, out_path)
    click.echo(f"graph: {len(graph)} nodes, {len(graph.edges)} edges -> {out_path}")


@main.command("mutate")
@with_common
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--rounds", type=click.IntRange(min=0), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--log", "log_path", type=click.Path(), default=None)
def mutate_cmd(config_path, seed, backend, graph_path, rounds, out_path, log_path) -> None:
    """Expand a graph with self-evolutionary mutations."""
    cfg = load_config(config_path, seed=seed, backend=backend)
    graph = load_graph(graph_path)
    result = evolve(graph, rounds, replace(cfg.mutation, rng_seed=cfg.rng_seed), make_gateway(cfg))
    save_graph(result.graph, out_path)
    if log_path:
        write_mutation_log(result.records, log_path)
    if result.aborted_error:
        click.echo(f"aborted after partial progress: {result.aborted_error}", err=True)
        sys.exit(1)
    click.echo(
        f"mutation: {result.accepted}/{len(result.records)} accepted, "
        f"{len(result.graph)} nodes -> {out_path}"
    )


@main.command("sample")
@with_common
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--count", type=click.IntRange(min=0), default=1)
@click.option("--out", "out_path", type=click.Path(), required=True)
def sample_cmd(config_path, seed, backend, graph_path, count, out_path) -> None:
    """Draw candidate subsets via DFS-with-restart walks: subset i is synthesize's attempt i."""
    cfg = load_config(config_path, seed=seed, backend=backend)
    graph = load_graph(graph_path)
    subsets = (sample_subset(graph, attempt_config(cfg.sampler, cfg.rng_seed, index)) for index in range(count))
    write_jsonl(out_path, (subset.to_dict() for subset in subsets), "subset file")
    click.echo(f"sampled {count} subsets -> {out_path}")


@main.command("synthesize")
@with_common
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--count", type=click.IntRange(min=0), default=10)
@click.option("--out", "out_path", type=click.Path(), required=True)
def synthesize_cmd(config_path, seed, backend, graph_path, count, out_path) -> None:
    """Sample subsets, propose tasks, and simulate trajectories."""
    cfg = load_config(config_path, seed=seed, backend=backend)
    graph = load_graph(graph_path)
    trajectories = synthesize_batch(
        graph,
        count,
        cfg.sampler,
        replace(cfg.synthesis, rng_seed=cfg.rng_seed),
        make_gateway(cfg),
    )
    save_trajectories(trajectories, out_path)
    click.echo(f"synthesized {len(trajectories)} trajectories -> {out_path}")
    if len(trajectories) < count:
        click.echo(f"synthesize: kept {len(trajectories)} of {count} requested trajectories", err=True)


@main.command("extract")
@with_common
@click.option("--trajectories", "traj_path", type=click.Path(exists=True), required=True)
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--pool-scope", type=click.Choice(["subset", "graph"]), default="subset")
@click.option("--ablation", is_flag=True, default=False)
@click.option("--out", "out_path", type=click.Path(), required=True)
def extract_cmd(config_path, seed, backend, traj_path, graph_path, pool_scope, ablation, out_path) -> None:
    """Extract history-aware routing instances over the graph's candidates into a dataset file."""
    load_config(config_path, seed=seed, backend=backend)  # a bad config exits 1 here as in every command
    trajectories = load_trajectories(traj_path)
    graph = load_graph(graph_path)
    bank = CandidateBank(kind=graph.kind, entries=tuple(map(graph.specs.__getitem__, graph.names())))
    if pool_scope == "graph":
        pools = [CandidatePool.whole_bank(bank)] * len(trajectories)
    else:
        pools = [
            CandidatePool(bank=bank, membership=trajectory.subset.members)
            for trajectory in trajectories
        ]
    counts = build_dataset(trajectories, pools, out_path, ablation=ablation)
    for file_path, count in counts.items():
        click.echo(f"dataset: {count} samples -> {file_path}")


def _once_each(ctx: click.Context, param: click.Parameter, values: tuple[str, ...]) -> tuple[str, ...]:
    """The values of a repeatable option, each of which may be given once (a usage error otherwise)."""
    repeated = sorted({value for value in values if values.count(value) > 1})
    if repeated:
        raise click.BadParameter(f"{', '.join(repeated)} given more than once")
    return values


@main.command("evaluate")
@with_common
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), required=True)
@click.option(
    "--router",
    "variants",
    type=click.Choice(VARIANTS),
    multiple=True,
    required=True,
    callback=_once_each,
)
@click.option("--k", type=click.IntRange(min=1), default=5)
@click.option("--out", "out_path", type=click.Path(), default=None)
def evaluate_cmd(config_path, seed, backend, dataset_path, variants, k, out_path) -> None:
    """Routing-accuracy evaluation (avg@k) on a rendered dataset."""
    cfg = load_config(config_path, seed=seed, backend=backend)
    records = load_dataset(dataset_path)
    if not records:
        raise ParseError(dataset_path, "empty dataset file")
    kind = records[0].kind
    other = next((index for index, record in enumerate(records) if record.kind != kind), None)
    if other is not None:
        raise ParseError(f"{dataset_path}[{other}]", f"{records[other].kind} record in a dataset of {kind} records")
    gateway = make_gateway(cfg)
    setting = PoolSetting(variant=Setting.CLEAN)  # one setting for every router: each pool is built once
    results: dict[str, dict[str, Metrics]] = {}
    for variant in variants:
        router_cfg = _router_config(cfg, variant, kind)
        metrics = evaluate(router_cfg, records, setting, k=k, seed=cfg.rng_seed, gateway=gateway)
        results[variant] = {Setting.CLEAN.value: metrics}
        click.echo(f"{variant}: avg@{k} = {metrics.avg_at_k:.4f} over {metrics.n_instances} instances")
    if out_path:
        save_results(results, out_path)


@main.command("lra-run")
@with_common
@click.option("--bank", "bank_path", type=click.Path(exists=True), required=True)
@click.option("--task", type=str, required=True)
@click.option(  # an episode plants no label, so the oracle could only abstain
    "--router", "variant", type=click.Choice([v for v in VARIANTS if v != "oracle"]), default="llm"
)
@click.option("--budget", type=click.IntRange(min=1), default=8)
@click.option("--out", "out_path", type=click.Path(), default=None)
def lra_run_cmd(config_path, seed, backend, bank_path, task, variant, budget, out_path) -> None:
    """Run one Light Routing Agent episode against a candidate bank."""
    cfg = load_config(config_path, seed=seed, backend=backend)
    bank = load_bank(bank_path)
    pool = CandidatePool.whole_bank(bank)
    gateway = make_gateway(cfg)
    log = run_episode(
        task,
        pool,
        _router_config(cfg, variant, bank.kind),
        ExecutorBinding.mock_for(pool),
        GatewayReasoner(gateway),
        gateway=gateway,
        budget=budget,
    )
    if out_path:
        save_episode_logs([log], out_path)
    click.echo(f"episode outcome: {log.outcome} in {len(log.steps)} steps")

