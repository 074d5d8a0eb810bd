"""Benchmark of the toolrouter supervision pipeline and large-pool routing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale F]

Run from the root of a source checkout; the program is imported from src/.
A run generates the workload's inputs from --seed under .bench_work/<workload>/
(the set-up, timed). It then runs rounds in-process for --seconds (at least
two): a round is the CLI chain build-graph -> mutate -> synthesize -> extract
--ablation -> evaluate, with LRA episodes through run_episode() and calls of
a fixed evaluate() mix dealt out after its commands. The set-up is repeated
before, between and after the rounds. Every output is checked; a failed
check fails its operation. One run at a time per checkout: runs share
.bench_work/.

--trace 0 prints the end-to-end metrics. --trace 1 runs alternating
untraced and traced rounds, writes the first traced round's spans to
trace.jsonl beside the results and prints its per-layer metrics. The last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one thread: the load comes from this process alone

import tracing  # noqa: E402  (imports nothing from toolrouter)

ROOT = Path(__file__).resolve().parent.parent
# The set-up runs in slots before, between and after the rounds, so that
# its samples span the run; a slot repeats it at least this often and for
# at least this long. setup_s is the median of all of them.
SETUP_SLOT_REPEATS = 1
SETUP_SLOT_S = 0.3
MIN_ROUNDS = 2
# Untraced/traced round pairs of a traced run; trace.overhead_s is the
# median of their differences.
TRACE_PAIRS = 2

# (name, unit): the end-to-end metrics of an untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("eval_decisions_per_s", "1/s"),
    ("lra_episode_p50_ms", "ms"),
    ("lra_episode_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[len(ordered) - 11]


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies every input size (smoke runs)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "toolrouter" / "__init__.py").is_file():
        print(f"error: no toolrouter sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import session
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_s: list[float] = []

    def set_up(into: Path) -> workloads.Inputs:
        slot: list[float] = []
        while len(slot) < SETUP_SLOT_REPEATS or sum(slot) < SETUP_SLOT_S:
            t0 = time.perf_counter()
            inputs = workloads.setup(wl, args.seed, args.scale, into)
            slot.append(time.perf_counter() - t0)
        setup_s.extend(slot)
        return inputs

    inputs = set_up(work)
    ops = session.Ops()
    if args.trace:
        # single rounds, so that an untraced and a traced one do the same work
        overheads = []
        for pair in range(TRACE_PAIRS):
            untraced = session.run(ops, wl, args.seed, args.scale, inputs, work, 0.0, 1)
            ops.tracer = tracing.Tracer()
            with ops.tracer:
                traced = session.run(ops, wl, args.seed, args.scale, inputs, work, 0.0, 1)
            overheads.append((traced.timed_s - untraced.timed_s, untraced.timed_s))
            if pair == 0:
                tracer, runs = ops.tracer, [untraced, traced]
                tracer.write(work / "trace.jsonl")
            ops.tracer = None
    else:
        repeat = work / "setup-repeat"
        repeat.mkdir()
        runs = [session.run(ops, wl, args.seed, args.scale, inputs, work, args.seconds, MIN_ROUNDS,
                            between_rounds=lambda: set_up(repeat))]
        set_up(repeat)

    print(f"workload: {wl.name} -- {wl.why}")
    print(f"inputs: {json.dumps(runs[0].properties)}")
    print("digests: " + " ".join(f"{name}={digest}" for name, digest in ops.digests.items()))
    failed = len(ops.failed)
    print(f"failed_op_ratio: {failed / ops.attempted:.4f} ratio ({failed} failed / {ops.attempted} attempted)")
    for problem in ops.problems[:20]:
        print(f"problem: {problem}")

    if args.trace:
        metrics = tracer.metrics(_overhead(overheads))
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        _report_trace(tracer, runs[1], runs[0], metrics, work)
    else:
        metrics = _end_to_end(runs[0], setup_s)
        units = dict(END_TO_END)

    result = {
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def _overhead(pairs: list[tuple[float, float]]) -> float:
    """Median traced-minus-untraced time of the pairs, with the untraced
    rounds' own spread printed beside it: host drift can exceed the cost of tracing."""
    overhead = statistics.median(diff for diff, _ in pairs)
    untraced = [seconds for _, seconds in pairs]
    spread = max(untraced) - min(untraced)
    print(f"trace.overhead_s: median {overhead:.4f} s of " + " ".join(f"{diff:.4f}" for diff, _ in pairs)
          + f"; untraced rounds spread {spread:.4f} s"
          + (" (unresolved: within that spread)" if abs(overhead) <= spread else ""))
    return overhead


def _end_to_end(result, setup_s: list[float]) -> dict[str, float]:
    percentile, tail_ms = tail(result.episode_ms)
    print(f"setup_s: {len(setup_s)} set-ups, median {statistics.median(setup_s):.4f} s")
    # A run holds 3-7 chains; their mean covers all of the run's chain time,
    # and it spread less across seeds than their median did.
    print(f"pipeline_s: mean of {' '.join(f'{v:.4f}' for v in result.pipeline_s)} "
          f"(median {statistics.median(result.pipeline_s):.4f}); last chain "
          + " ".join(f"{command}={seconds:.3f}s" for command, seconds in result.command_s.items()))
    calls = sum(map(len, result.cell_s.values()))
    eval_s = sum(map(sum, result.cell_s.values()))
    print(f"eval_decisions_per_s: {calls * result.cell_decisions} decisions in {eval_s:.4f} s "
          f"({calls} evaluate() calls over {len(result.cell_s)} cells)")
    print(f"lra_episode_tail_ms: p{percentile:g} of {len(result.episode_ms)} episodes")
    return {
        "setup_s": statistics.median(setup_s),
        "pipeline_s": statistics.mean(result.pipeline_s),
        "eval_decisions_per_s": calls * result.cell_decisions / eval_s,
        "lra_episode_p50_ms": statistics.median(result.episode_ms),
        "lra_episode_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _report_trace(tracer, traced, untraced, metrics: dict[str, float], work: Path) -> None:
    """Layer self times with their share of the traced run, and stage means."""
    print(f"trace: {len(tracer.spans)} spans -> {work / 'trace.jsonl'}")
    print(f"trace: traced {traced.timed_s:.4f} s, untraced {untraced.timed_s:.4f} s of timed operations")
    for layer in tracing.LAYERS:
        self_s = metrics[f"{layer}.self_s"]
        print(f"layer {layer:<12} self {self_s:9.4f} s  {100 * self_s / traced.timed_s:5.1f} % of {traced.timed_s:.4f} s")
    for name, base in tracer.bases().items():
        print(f"ratio {name}: {metrics[name]:.4f} ({base})")
    print("discarded by reason: " + (", ".join(f"{k}={v}" for k, v in sorted(tracer.discards.items())) or "none"))
    calls, seconds, _ = tracer.stats()

    def mean(name: str, count: float) -> str:
        return f"{seconds[name] / count:.6f} s" if seconds.get(name) and count else "n/a"

    print("stage means (untraced where marked):")
    n = traced.properties.get("graph", {}).get("n")
    print(f"  build_graph per call at n={n}: {mean('graph.build_graph', calls.get('graph.build_graph', 0))}")
    print(f"  evolve per round: {mean('mutation.evolve', metrics['mutation.rounds'])}")
    print(f"  sample_subset per call: {mean('sampler.sample_subset', calls.get('sampler.sample_subset', 0))}")
    print(f"  synthesize_batch per kept trajectory: {mean('synthesis.synthesize_batch', metrics['synthesis.trajectories'])}")
    for cell, times in untraced.cell_s.items():
        print(f"  route {cell}: {1000 * statistics.median(times) / untraced.cell_decisions:.3f} ms per decision (untraced)")


if __name__ == "__main__":
    sys.exit(main())
