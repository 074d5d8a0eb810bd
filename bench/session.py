"""One measured run of a workload: CLI chains, evaluation and LRA episodes.

Every load is closed-loop from this single thread: each CLI command, each
evaluate() call and each episode starts after the previous one returned.
Library functions are reached through their modules (``evaluation.evaluate``),
so the tracer's rebinding applies to the benchmark's own calls as well.
"""

from __future__ import annotations

import io
import random
import statistics
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from toolrouter import cli, config, evaluation, graph, lra, registry, router, supervision

import checks
from tracing import VARIANTS, Tracer
from workloads import MIX_PASSES, Inputs, Workload, scaled

LRA_ROUTER = "embedding_qh"  # the LRA routes with the whole episode transcript as history
CHAIN_ROUTERS = ("oracle", "embedding_qh")
SMALL_POOL = 10
SLOTS = 5  # one after each command of the chain


class CommandFailed(Exception):
    pass


@dataclass
class Ops:
    """Operations attempted and the ones that failed.

    An operation is a CLI command, an evaluate() call or an episode. It fails
    on a non-zero exit, an exception, an unfinished episode or a failed check.
    """

    tracer: Tracer | None = None
    attempted: int = 0
    failed: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # artifact -> first digest seen

    def run(self, label: str, fn: Callable, *args, **kwargs) -> tuple[int, object]:
        op = self.attempted
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = op
        try:
            return op, fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not raised
            self.fail(op, [f"{label}: {exc!r}"])
            return op, None

    def fail(self, op: int, problems: list[str]) -> None:
        if problems:
            self.failed.add(op)
            self.problems.extend(problems)

    def digest(self, name: str, digest: str, op: int) -> None:
        """Every repeat on the same inputs must produce the same artifact."""
        first = self.digests.setdefault(name, digest)
        if first != digest:
            self.fail(op, [f"{name}: digest {digest} differs from {first} on the same inputs"])

    @contextmanager
    def checking(self) -> Iterator[None]:
        """Output checks call library code; keep it out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False


@dataclass
class RunResult:
    timed_s: float = 0.0  # every timed operation: commands, evaluate() calls, episodes
    pipeline_s: list[float] = field(default_factory=list)  # one per chain
    cell_s: dict[str, list[float]] = field(default_factory=dict)  # "router setting" -> one per call
    cell_decisions: int = 0  # decisions in one call of the mix
    episode_ms: list[float] = field(default_factory=list)
    properties: dict[str, object] = field(default_factory=dict)
    command_s: dict[str, float] = field(default_factory=dict)  # of the last chain


def _cli(tracer: Tracer | None, command: str, *args: object) -> str:
    """Run one toolrouter command in-process; a non-zero exit raises."""
    out = io.StringIO()
    span = tracer.span(f"cli.{command}") if tracer is not None else nullcontext()
    with span, redirect_stdout(out), redirect_stderr(out):
        try:
            cli.main.main(args=[command, *map(str, args)], prog_name="toolrouter", standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise CommandFailed(f"exit {exc.code}: {out.getvalue().strip()}") from None
    return out.getvalue()


def _checked(check: Callable, *paths: Path) -> tuple[list[str], object]:
    """Run a check over files that a failed command may not have written."""
    try:
        return check(*paths)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"{check.__name__}: {exc!r}"], None


def run_chain(
    ops: Ops, wl: Workload, scale: float, inputs: Inputs, work: Path, result: RunResult,
    after_command: Callable[[], None],
) -> None:
    """build-graph -> mutate -> synthesize -> extract --ablation -> evaluate, then checks.

    after_command() runs after each command, outside the chain's time.
    """
    paths = {name: work / f"{name}.jsonl" for name in ("graph", "evolved", "mutations", "trajs", "dataset", "results")}
    paths["dataset.nohistory"] = work / "dataset.jsonl.nohistory"  # named by extract --ablation
    scope = ("--pool-scope", "graph") if wl.large_pools else ()
    routers = [arg for name in CHAIN_ROUTERS for arg in ("--router", name)]
    rounds, count = scaled(wl.mutate_rounds, scale, 1), scaled(wl.trajectories, scale, 4)
    chain = [
        ("build-graph", "--bank", inputs.bank, "--out", paths["graph"]),
        ("mutate", "--graph", paths["graph"], "--rounds", rounds, "--out", paths["evolved"], "--log", paths["mutations"]),
        ("synthesize", "--graph", paths["evolved"], "--count", count, "--out", paths["trajs"]),
        ("extract", "--trajectories", paths["trajs"], "--graph", paths["evolved"], *scope,
         "--ablation", "--out", paths["dataset"]),
        ("evaluate", "--dataset", paths["dataset"], *routers, "--k", 1, "--out", paths["results"]),
    ]
    op_of: dict[str, int] = {}
    for command, *args in chain:
        t0 = time.perf_counter()
        op_of[command], _ = ops.run(command, _cli, ops.tracer, command, *args, "--config", inputs.config)
        result.command_s[command] = time.perf_counter() - t0
        after_command()
    result.pipeline_s.append(sum(result.command_s.values()))
    result.timed_s += result.pipeline_s[-1]

    with ops.checking():
        for name, command in (("graph", "build-graph"), ("evolved", "mutate")):
            problems, props = _checked(checks.check_graph, paths[name])
            ops.fail(op_of[command], problems)
            result.properties[name] = props
        # a command that quietly does less work must not look faster
        for name, command, expected in (("mutations", "mutate", rounds), ("trajs", "synthesize", count)):
            problems, _ = _checked(checks.check_count, paths[name], expected)
            ops.fail(op_of[command], problems)
        problems, props = _checked(checks.check_dataset, paths["trajs"], paths["dataset"], paths["dataset.nohistory"])
        ops.fail(op_of["extract"], problems)
        result.properties["dataset"] = props
        problems, props = _checked(checks.check_results, paths["results"])
        ops.fail(op_of["evaluate"], problems)
        result.properties["results"] = props
    producer = {"graph": "build-graph", "evolved": "mutate", "mutations": "mutate", "trajs": "synthesize",
                "dataset": "extract", "dataset.nohistory": "extract", "results": "evaluate"}
    for name, path in paths.items():
        if path.exists():
            ops.digest(path.name, checks.digest(path), op_of[producer[name]])


def _record_pool(record: supervision.DatasetRecord) -> registry.CandidatePool:
    specs = tuple(registry.validate_spec(dict(doc), record.kind) for doc in record.pool_specs)
    return registry.CandidatePool.whole_bank(registry.CandidateBank(kind=record.kind, entries=specs))


class Mix:
    """The evaluate() mix: every router under every pool setting the inputs
    allow, cycled one evaluate() call per step."""

    def __init__(self, ops: Ops, seed: int, records: int, inputs: Inputs, work: Path, result: RunResult) -> None:
        self.ops, self.seed, self.result = ops, seed, result
        self.records = supervision.load_dataset(work / "dataset.jsonl")[:records]
        self.settings = [evaluation.PoolSetting()]
        if inputs.mutants is not None:
            mutants = graph.load_graph(inputs.mutants)
            external = registry.load_bank(inputs.external)
            self.settings += [
                evaluation.PoolSetting(variant=evaluation.Setting.PLUS_MUTATION, mutation_graph=mutants),
                evaluation.PoolSetting(
                    variant=evaluation.Setting.PLUS_EXTERNAL, mutation_graph=mutants, external_bank=external
                ),
            ]
        self.grid = [(setting, variant) for setting in self.settings for variant in VARIANTS]
        self.gateway = config.make_gateway(config.load_config(inputs.config))
        self.op_of: dict[str, int] = {}
        self.calls = 0
        result.cell_decisions = len(self.records) * MIX_PASSES

    def step(self) -> None:
        setting, variant = self.grid[self.calls % len(self.grid)]
        self.calls += 1
        label = setting.variant.value
        router_cfg = router.RouterConfig(variant=variant, kind=self.records[0].kind, rng_seed=self.seed)
        t0 = time.perf_counter()
        op, metrics = self.ops.run(
            f"evaluate {variant} {label}", evaluation.evaluate,
            router_cfg, self.records, setting, k=MIX_PASSES, seed=self.seed, gateway=self.gateway,
        )
        elapsed = time.perf_counter() - t0
        self.op_of[label] = op
        self.result.timed_s += elapsed
        self.result.cell_s.setdefault(f"{variant} {label}", []).append(elapsed)
        if metrics is not None:
            self.ops.digest(f"mix {variant} {label}", checks.digest_value(metrics.to_dict()), op)
            if variant == "oracle" and metrics.avg_at_k != 1.0:
                self.ops.fail(op, [f"oracle avg@k {metrics.avg_at_k} under {label}"])

    def finish(self) -> None:
        """Every record's label is in its pool under every setting."""
        with self.ops.checking():
            for setting in self.settings:
                label = setting.variant.value
                pools = [evaluation.build_pool(_record_pool(record), setting) for record in self.records]
                for record, pool in zip(self.records, pools):
                    if record.label not in pool.membership:
                        self.ops.fail(self.op_of[label], [f"label {record.label!r} left its pool under {label}"])
                self.result.properties[f"pool_size {label}"] = round(statistics.mean(len(pool) for pool in pools), 1)


def episode_tasks(bank: registry.CandidateBank, seed: int, count: int) -> list[str]:
    rng = random.Random(f"tasks:{seed}")
    return [f"Find a tool to {rng.choice(bank.entries).description.rstrip('.')}" for _ in range(count)]


def _episode_problems(log: lra.EpisodeLog) -> list[str]:
    problems = []
    if log.outcome != "finished":
        problems.append(f"episode ended {log.outcome}")
    if log.context_audit["catalog_entries_in_prompt"] != 0:
        problems.append(f"{log.context_audit['catalog_entries_in_prompt']} catalog entries in the LRA prompt")
    return problems


class Episodes:
    """LRA episodes against one whole-bank pool, cycling over a fixed task
    list, one timed episode per step. A repeated task must log the same episode."""

    def __init__(self, ops: Ops, seed: int, tasks: int, inputs: Inputs, result: RunResult) -> None:
        self.ops, self.result = ops, result
        self.bank = registry.load_bank(inputs.lra_bank)
        self.pool = registry.CandidatePool.whole_bank(self.bank)
        self.executor = lra.ExecutorBinding.mock_for(self.pool)
        self.gateway = config.make_gateway(config.load_config(inputs.config))
        self.router_cfg = router.RouterConfig(variant=LRA_ROUTER, kind=self.bank.kind)
        self.reasoner = lra.GatewayReasoner(self.gateway)
        self.tasks = episode_tasks(self.bank, seed, tasks)
        self.logs: dict[int, dict] = {}  # task index -> its first episode log
        self.digests: dict[int, str] = {}
        self.first_op: int | None = None
        self.calls = 0

    def _episode(
        self, task: str, pool: registry.CandidatePool, executor: lra.ExecutorBinding
    ) -> tuple[int, lra.EpisodeLog | None]:
        return self.ops.run(
            "run_episode", lra.run_episode, task, pool, self.router_cfg, executor, self.reasoner, gateway=self.gateway
        )

    def step(self) -> None:
        index = self.calls % len(self.tasks)
        self.calls += 1
        t0 = time.perf_counter()
        op, log = self._episode(self.tasks[index], self.pool, self.executor)
        elapsed = time.perf_counter() - t0
        self.first_op = op if self.first_op is None else self.first_op
        self.result.timed_s += elapsed
        if log is None:
            return
        self.result.episode_ms.append(1000 * elapsed)
        self.ops.fail(op, _episode_problems(log))
        logged = log.to_dict()
        if self.digests.setdefault(index, checks.digest_value(logged)) != checks.digest_value(logged):
            self.ops.fail(op, [f"episode for task {index} differs from its first run"])
        self.logs.setdefault(index, logged)

    def finish(self) -> None:
        """The same task over a 10-candidate pool that holds the first
        episode's pick routes the same way, so its prompts must be the same size."""
        first = self.logs.get(0)
        picked = next((s["decision"]["chosen"] for s in first["steps"] if s["decision"]), None) if first else None
        entries = [spec for spec in self.bank.entries if spec.name == picked]
        entries += [spec for spec in self.bank.entries if spec.name != picked][: SMALL_POOL - len(entries)]
        small = registry.CandidatePool.whole_bank(registry.CandidateBank(kind=self.bank.kind, entries=tuple(entries)))
        op, small_log = self._episode(self.tasks[0], small, lra.ExecutorBinding.mock_for(small))
        if small_log is not None and first:
            problems = _episode_problems(small_log)
            if small_log.context_audit["max_prompt_chars"] != first["context_audit"]["max_prompt_chars"]:
                problems.append(f"LRA prompt size differs between pools of {len(small)} and {len(self.pool)}")
            self.ops.fail(op, problems)
        self.result.properties["lra_pool_size"] = len(self.pool)
        if self.first_op is not None:
            self.ops.digest("episodes", checks.digest_value(sorted(self.digests.items())), self.first_op)


def run(
    ops: Ops, wl: Workload, seed: int, scale: float, inputs: Inputs, work: Path,
    seconds: float, min_rounds: int, between_rounds: Callable[[], None] = lambda: None,
) -> RunResult:
    """Rounds until `seconds` have passed, at least `min_rounds` of them.

    A round is one chain with the workload's episodes and evaluate() calls
    dealt out in equal slots after its commands: a shared host's speed can
    swing within a second or two, and samples taken in one block would all
    see the same swing. The first round's slots run after its chain, whose
    output they read. A round starts while at least half of the last
    round's length is left before the deadline, or while it is one of the
    first `min_rounds`; so a run ends within half a round of `seconds`,
    with as many samples as fit. between_rounds() runs at the start of
    each round after the first, outside every timed operation.
    """
    result = RunResult()
    deadline = time.perf_counter() + seconds
    per_round = (scaled(wl.episodes, scale, SLOTS), scaled(wl.mix_cells, scale, SLOTS))
    loops: list[Episodes | Mix] = []

    def slot() -> None:
        for loop, steps in zip(loops, per_round):
            for _ in range(-(-steps // SLOTS)):
                loop.step()

    rounds = 0
    while True:
        started = time.perf_counter()
        if rounds:
            between_rounds()
        run_chain(ops, wl, scale, inputs, work, result, slot)
        if not loops:
            loops += [Episodes(ops, seed, per_round[0], inputs, result),
                      Mix(ops, seed, wl.mix_records, inputs, work, result)]
            for _ in range(SLOTS):
                slot()
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now + (now - started) / 2 > deadline:
            break
    for loop in loops:
        loop.finish()
    return result
