"""CLI pipeline commands, exit codes, and mock determinism."""

import hashlib
import json

import pytest
from click.testing import CliRunner

from helpers import BROKEN_SNAPSHOTS, corrupt_snapshot, make_family_bank, make_tool_bank
from toolrouter.cli import main
from toolrouter.registry import save_bank
from toolrouter.supervision import load_dataset

CONFIG_YAML = """\
seed: 11
sampler:
  target_range: [2, 4]
"""


@pytest.fixture()
def workspace(tmp_path):
    bank_path = tmp_path / "bank.jsonl"
    save_bank(make_tool_bank(12), bank_path)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(CONFIG_YAML, encoding="utf-8")
    return tmp_path, str(bank_path), str(config_path)


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_build_graph_command(workspace):
    tmp_path, bank_path, config_path = workspace
    out = tmp_path / "graph.jsonl"
    result = run(["build-graph", "--config", config_path, "--bank", bank_path, "--out", str(out)])
    assert result.exit_code == 0
    assert "graph: 12 nodes" in result.output
    assert out.exists()


def test_mutate_zero_rounds_identity(workspace):
    tmp_path, bank_path, config_path = workspace
    graph_path = tmp_path / "graph.jsonl"
    run(["build-graph", "--config", config_path, "--bank", bank_path, "--out", str(graph_path)])
    out = tmp_path / "mutated.jsonl"
    result = run(
        ["mutate", "--config", config_path, "--graph", str(graph_path), "--rounds", "0", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert "mutation: 0/0 accepted" in result.output
    assert out.read_bytes() == graph_path.read_bytes()


def test_full_mock_pipeline_with_recount(workspace):
    tmp_path, bank_path, config_path = workspace
    graph_path = tmp_path / "graph.jsonl"
    mutated_path = tmp_path / "mutated.jsonl"
    traj_path = tmp_path / "trajectories.jsonl"
    dataset_path = tmp_path / "dataset.jsonl"

    assert run(["build-graph", "--config", config_path, "--bank", bank_path, "--out", str(graph_path)]).exit_code == 0
    mutate = run(
        ["mutate", "--config", config_path, "--graph", str(graph_path), "--rounds", "5",
         "--out", str(mutated_path), "--log", str(tmp_path / "log.jsonl")]
    )
    assert mutate.exit_code == 0
    synth = run(
        ["synthesize", "--config", config_path, "--graph", str(mutated_path), "--count", "8",
         "--out", str(traj_path)]
    )
    assert synth.exit_code == 0
    assert "synthesized 8 trajectories" in synth.output

    extract = run(
        ["extract", "--config", config_path, "--trajectories", str(traj_path),
         "--graph", str(mutated_path), "--out", str(dataset_path), "--ablation"]
    )
    assert extract.exit_code == 0

    # independent recount: dataset size equals the call count over trajectories
    total_calls = 0
    for line in traj_path.read_text().splitlines():
        doc = json.loads(line)
        total_calls += sum(len(turn.get("calls", [])) for turn in doc["turns"] if turn["type"] == "action")
    records = load_dataset(dataset_path)
    assert len(records) == total_calls
    twins = load_dataset(str(dataset_path) + ".nohistory")
    assert len(twins) == total_calls

    evaluate = run(
        ["evaluate", "--config", config_path, "--dataset", str(dataset_path),
         "--router", "oracle", "--router", "random", "--k", "2",
         "--out", str(tmp_path / "results.jsonl")]
    )
    assert evaluate.exit_code == 0
    assert "oracle: avg@2 = 1.0000" in evaluate.output
    assert (tmp_path / "results.jsonl.table.txt").exists()


def test_pipeline_determinism(workspace):
    tmp_path, bank_path, config_path = workspace
    outputs = []
    for tag in ("a", "b"):
        graph_path = tmp_path / f"graph_{tag}.jsonl"
        mutated_path = tmp_path / f"mutated_{tag}.jsonl"
        run(["build-graph", "--config", config_path, "--bank", bank_path, "--out", str(graph_path)])
        run(["mutate", "--config", config_path, "--graph", str(graph_path), "--rounds", "4",
             "--out", str(mutated_path)])
        outputs.append(mutated_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_usage_errors_exit_2(workspace):
    tmp_path, bank_path, config_path = workspace
    runner = CliRunner()
    missing_arg = runner.invoke(main, ["build-graph", "--bank", bank_path])
    assert missing_arg.exit_code == 2
    bad_choice = runner.invoke(
        main, ["evaluate", "--dataset", bank_path, "--router", "not_a_router"]
    )
    assert bad_choice.exit_code == 2


def test_data_errors_exit_1(workspace, tmp_path):
    _, _, config_path = workspace
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["build-graph", "--config", config_path, "--bank", str(empty), "--out", str(tmp_path / "g.jsonl")],
    )
    assert result.exit_code == 1
    assert "error:" in result.output


def test_lra_run_command(workspace):
    tmp_path, bank_path, config_path = workspace
    out = tmp_path / "episode.jsonl"
    result = run(
        ["lra-run", "--config", config_path, "--bank", bank_path,
         "--task", "complete the workflow", "--router", "llm", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert "episode outcome: finished" in result.output
    log = json.loads(out.read_text().splitlines()[0])
    assert log["context_audit"]["tool_spec_count"] == 2


def one_error_line(result):
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output


@pytest.mark.parametrize("case", sorted(BROKEN_SNAPSHOTS))
def test_broken_snapshot_exits_1(workspace, case):
    tmp_path, bank_path, config_path = workspace
    graph_path = tmp_path / "graph.jsonl"
    run(["build-graph", "--config", config_path, "--bank", bank_path, "--out", str(graph_path)])
    graph_path.write_text("\n".join(corrupt_snapshot(graph_path.read_text().splitlines(), case)) + "\n")
    result = run(
        ["synthesize", "--config", config_path, "--graph", str(graph_path), "--out", str(tmp_path / "t.jsonl")]
    )
    one_error_line(result)


@pytest.mark.parametrize(
    "config_text",
    [
        "seed: 1\nsurprise: 2\n",  # unknown top-level key
        "seed: 1\nbackend:\n  surprise: 2\n",  # unknown backend key
        "seed: 1\nbackend:\n  mode: bogus\n",  # typed BadConfig from validate()
        "seed: [1\n",  # not YAML
        "seed: 1\ntau: 2\n",  # tau outside (0, 1)
    ],
)
def test_bad_config_exits_1(workspace, config_text):
    tmp_path, bank_path, _ = workspace
    config_path = tmp_path / "bad.yaml"
    config_path.write_text(config_text, encoding="utf-8")
    result = run(["build-graph", "--config", str(config_path), "--bank", bank_path, "--out", str(tmp_path / "g.jsonl")])
    one_error_line(result)


def test_tau_flag_outside_range_exits_1(workspace):
    tmp_path, bank_path, config_path = workspace
    result = run(
        ["build-graph", "--config", config_path, "--bank", bank_path, "--tau", "1.5", "--out", str(tmp_path / "g.jsonl")]
    )
    one_error_line(result)


# sha256 of the mock build-graph and mutate snapshots, edge weights included.
# A change to them must be explained in CHANGES.md.
PINNED_SNAPSHOTS = {
    "graph.jsonl": "4d11d31b8db6e611c75df7cc6c8281bcd207b270b954cc5233d8b3bb83e1d2a0",
    "mutated.jsonl": "a80f9f0a0d7d5289f29d988a333d8443e160f3b22d477f85a9de94fa4756cbc7",
}


def test_snapshots_byte_identical_to_pinned(tmp_path):
    bank_path, config_path = tmp_path / "bank.jsonl", tmp_path / "config.yaml"
    save_bank(make_family_bank(150, seed=3), bank_path)
    config_path.write_text("seed: 5\n", encoding="utf-8")
    graph_path, mutated_path = tmp_path / "graph.jsonl", tmp_path / "mutated.jsonl"
    built = run(["build-graph", "--config", str(config_path), "--bank", str(bank_path), "--out", str(graph_path)])
    assert "150 nodes, 804 edges" in built.output
    mutated = run(
        ["mutate", "--config", str(config_path), "--graph", str(graph_path), "--rounds", "10", "--out", str(mutated_path)]
    )
    assert "10/10 accepted" in mutated.output
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (graph_path, mutated_path)}
    assert digests == PINNED_SNAPSHOTS
