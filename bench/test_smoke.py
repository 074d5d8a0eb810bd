"""Smoke runs of the benchmark, so the harness cannot rot.

Each workload runs at a tiny scale through the real entry point, traced and
untraced, with every output check on. Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(v) for v in range(40)]) == (75.0, 29.0)
    assert run.tail([1.0, 3.0, 2.0]) == (100.0, 3.0)


def test_count_check_catches_a_command_that_did_less(tmp_path):
    log = tmp_path / "mutations.jsonl"
    log.write_text('{"accepted": true}\n{"accepted": false}\n', encoding="utf-8")
    assert checks.check_count(log, 2) == ([], {"records": 2})
    problems, _ = checks.check_count(log, 3)
    assert problems == ["mutations.jsonl: 2 records, 3 asked for"]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "route-large-pool", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
