"""CLI pipeline commands, exit codes, and mock determinism."""

import hashlib
import json
import math
from pathlib import Path
from typing import get_type_hints

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    BROKEN_SNAPSHOTS,
    MALFORMED_SPEC_FIELDS,
    corrupt_snapshot,
    count_calls,
    distinct_pool_records,
    make_agent_bank,
    make_family_bank,
    make_tool_bank,
)
from toolrouter import cli, evaluation, synthesis
from toolrouter.cli import main
from toolrouter.config import STAGE_KEYS, BackendConfig, PipelineConfig
from toolrouter.graph import load_graph
from toolrouter.registry import save_bank
from toolrouter.supervision import load_dataset, save_dataset

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


def test_sample_writes_the_subsets_synthesize_draws(workspace, monkeypatch):
    tmp_path, bank_path, config_path = workspace
    graph, subsets = tmp_path / "graph.jsonl", tmp_path / "subsets.jsonl"
    run(["build-graph", "--config", config_path, "--bank", bank_path, "--out", str(graph)])
    drawn = []
    real_sample_subset = synthesis.sample_subset

    def recording_sample_subset(*args):
        drawn.append(real_sample_subset(*args))
        return drawn[-1]

    monkeypatch.setattr(synthesis, "sample_subset", recording_sample_subset)
    run(["synthesize", "--config", config_path, "--graph", str(graph), "--count", "3", "--out", str(tmp_path / "t.jsonl")])
    assert len(drawn) >= 3
    run(["sample", "--config", config_path, "--graph", str(graph), "--count", str(len(drawn)), "--out", str(subsets)])
    assert [json.loads(line) for line in subsets.read_text().splitlines()] == [s.to_dict() for s in drawn]


def test_build_graph_command(workspace):
    tmp_path, bank_path, config_path = workspace
    out = tmp_path / "graph.jsonl"
    result = run(["build-graph", "--config", config_path, "--bank", bank_path, "--out", str(out)])
    assert result.exit_code == 0
    assert "graph: 12 nodes" in result.output
    assert out.exists()



def test_synthesize_reports_a_shortfall_on_stderr(workspace):
    tmp_path, bank_path, config_path = workspace
    graph, out = tmp_path / "graph.jsonl", tmp_path / "t.jsonl"
    run(["build-graph", "--config", config_path, "--bank", bank_path, "--out", str(graph)])
    kept = run(["synthesize", "--config", config_path, "--graph", str(graph), "--count", "2", "--out", str(out)])
    assert (kept.exit_code, kept.stdout, kept.stderr) == (0, f"synthesized 2 trajectories -> {out}\n", "")
    # the default sampler's plans need more turns than 6: every sample is discarded
    short = tmp_path / "short.yaml"
    short.write_text("seed: 11\nsynthesis:\n  max_turns: 6\n", encoding="utf-8")
    result = run(["synthesize", "--config", str(short), "--graph", str(graph), "--count", "10", "--out", str(out)])
    assert result.exit_code == 0
    assert result.stdout == f"synthesized 0 trajectories -> {out}\n"
    assert result.stderr == "synthesize: kept 0 of 10 requested trajectories\n"

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


def test_mutate_stopped_by_the_chat_budget_exits_1_and_writes_its_partial_result(workspace):
    tmp_path, bank_path, _ = workspace
    config = tmp_path / "budget.yaml"
    config.write_text("seed: 11\nbackend:\n  max_chat_calls: 2\n", encoding="utf-8")
    graph, out, log = tmp_path / "graph.jsonl", tmp_path / "mutated.jsonl", tmp_path / "log.jsonl"
    run(["build-graph", "--config", str(config), "--bank", bank_path, "--out", str(graph)])
    result = run(
        ["mutate", "--config", str(config), "--graph", str(graph), "--rounds", "5", "--out", str(out), "--log", str(log)]
    )
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == "aborted after partial progress: chat call budget of 2 exhausted\n"
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert [record["accepted"] for record in records] == [True, True, False]
    accepted = [record["mutant_name"] for record in records[:2]]
    assert load_graph(out).names() == sorted([*load_graph(graph).names(), *accepted])


def test_mutate_with_another_embedding_model_exits_1_and_writes_nothing(workspace):
    tmp_path, bank_path, _ = workspace
    graph_path, out = tmp_path / "graph.jsonl", tmp_path / "mutated.jsonl"
    configs = {}
    for model in ("model-a", "model-b"):
        configs[model] = tmp_path / f"{model}.yaml"
        configs[model].write_text(f"seed: 11\nbackend:\n  embed_model: {model}\n", encoding="utf-8")
    built = run(["build-graph", "--config", str(configs["model-a"]), "--bank", bank_path, "--out", str(graph_path)])
    assert built.exit_code == 0
    result = run(
        ["mutate", "--config", str(configs["model-b"]), "--graph", str(graph_path), "--rounds", "3", "--out", str(out)]
    )
    one_error_line(result)
    assert "model-b" in result.output
    assert not out.exists()


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
    out = str(tmp_path / "out.jsonl")
    out_of_range = [
        ["mutate", "--graph", bank_path, "--rounds", "-1", "--out", out],
        ["sample", "--graph", bank_path, "--count", "-1", "--out", out],
        ["synthesize", "--graph", bank_path, "--count", "-1", "--out", out],
        ["evaluate", "--dataset", bank_path, "--router", "oracle", "--k", "0"],
        ["lra-run", "--bank", bank_path, "--task", "t", "--budget", "0"],
    ]
    for args in out_of_range:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (args, result.output)
        assert "Invalid value" in result.output
    assert not (tmp_path / "out.jsonl").exists()


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


def test_lra_run_takes_the_eval_section_and_seed(workspace, monkeypatch):
    tmp_path, bank_path, _ = workspace
    config_path = tmp_path / "eval.yaml"
    config_path.write_text("seed: 11\neval:\n  temperature: 0.0\n", encoding="utf-8")
    received = []
    real_run_episode = cli.run_episode

    def recording_run_episode(task, pool, router, *args, **kwargs):
        received.append(router)
        return real_run_episode(task, pool, router, *args, **kwargs)

    monkeypatch.setattr(cli, "run_episode", recording_run_episode)
    for seed in ("1", "2"):
        result = run(
            ["lra-run", "--config", str(config_path), "--seed", seed, "--bank", bank_path, "--task", "t",
             "--router", "random"]
        )
        assert result.exit_code == 0
    assert [(r.variant, r.kind, r.temperature, r.rng_seed) for r in received] == [
        ("random", "tool", 0.0, 1),
        ("random", "tool", 0.0, 2),
    ]


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
    assert BROKEN_SNAPSHOTS[case][1] in result.output


@pytest.mark.parametrize(
    "config_text",
    [
        "seed: 1\nsurprise: 2\n",  # unknown top-level key
        "seed: 1\nbackend:\n  surprise: 2\n",  # unknown backend key
        "seed: 1\nbackend:\n  mode: bogus\n",  # typed BadConfig from BackendConfig
        "seed: [1\n",  # not YAML
        "seed: 1\ntau: 2\n",  # tau outside (0, 1)
        "seed: 1\ntau: x\n",  # mistyped top-level value
        "seed: 1\nsampler: [1, 2]\n",  # section not a mapping
        "seed: 1\nsampler:\n  target_range: 5\n",  # not a pair
        "seed: 1\nsynthesis:\n  max_turns: \"12\"\n",  # string for an integer
        "seed: 1\nsampler:\n  restart_probabilty: 0.3\n",  # misspelt key
        "seed: 1\nmutation:\n  tool_fraction: x\n",  # unknown key: a graph holds one kind, so none to choose
        "seed: 1\nsampler:\n  rng_seed: 3\n",  # derived field
        "seed: 1\nmutation:\n  max_retries: -1\n",  # evolve would make no attempt
        "seed: 1\nmutation:\n  temperature: -1\n",  # chat requests need temperature >= 0
        "seed: 1\nsynthesis:\n  temperature: -0.5\n",
        "seed: 1\neval:\n  temperature: -1\n",
        "seed: 1\nsynthesis:\n  max_retries: -1\n",  # synthesize would make no attempt
        "seed: 1\nbackend:\n  max_retries: -1\n",  # the gateway would make no attempt
        "seed: 1\nbackend:\n  embed_dim: 0\n",  # no embedding row to score
        "seed: 1\nbackend:\n  embed_dim: -3\n",
        "seed: 1\nbackend:\n  max_chat_calls: -1\n",  # a budget below 0; 0 allows no chat call
        "seed: 1\nsynthesis:\n  max_turns: 3\n",  # no plan could ever fit: 0 trajectories
        "seed: 1\nsynthesis:\n  error_prob: -1\n",  # a probability
        "seed: 1\nsynthesis:\n  error_prob: 7\n",
        "seed: 1\nmutation:\n  tool_fraction: -2\n",  # unknown key, whatever its value
    ],
)
def test_bad_config_exits_1(workspace, config_text):
    tmp_path, bank_path, _ = workspace
    config_path = tmp_path / "bad.yaml"
    config_path.write_text(config_text, encoding="utf-8")
    result = run(["build-graph", "--config", str(config_path), "--bank", bank_path, "--out", str(tmp_path / "g.jsonl")])
    one_error_line(result)


def test_a_share_of_tool_rounds_is_an_unknown_key(workspace):
    """A graph holds one kind, so a config has no share of tool rounds to set."""
    tmp_path, bank_path, _ = workspace
    config_path = tmp_path / "old.yaml"
    config_path.write_text("seed: 1\nmutation:\n  tool_fraction: 0.5\n", encoding="utf-8")
    result = run(["build-graph", "--config", str(config_path), "--bank", bank_path, "--out", str(tmp_path / "g.jsonl")])
    one_error_line(result)
    assert f"unknown config {config_path} mutation key(s): tool_fraction" in result.output


@pytest.mark.parametrize(
    ("file_text", "flags", "same_as"),
    [
        ("seed: null\n", ["--seed", "7"], "seed: 7\n"),
        ("seed: 7\ntau: 1.5\n", ["--tau", "0.5"], "seed: 7\ntau: 0.5\n"),
        ("seed: 7\nbackend:\n  mode: bogus\n", ["--backend", "mock"], "seed: 7\nbackend:\n  mode: mock\n"),
    ],
)
def test_a_flag_replaces_the_file_value_before_it_is_checked(workspace, file_text, flags, same_as):
    tmp_path, bank_path, _ = workspace
    outputs = []
    for name, text, extra in (("flagged", file_text, flags), ("plain", same_as, [])):
        config_path, out = tmp_path / f"{name}.yaml", tmp_path / f"{name}.jsonl"
        config_path.write_text(text, encoding="utf-8")
        result = run(["build-graph", "--config", str(config_path), "--bank", bank_path, *extra, "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_tau_flag_outside_range_exits_1(workspace):
    tmp_path, bank_path, config_path = workspace
    result = run(
        ["build-graph", "--config", config_path, "--bank", bank_path, "--tau", "1.5", "--out", str(tmp_path / "g.jsonl")]
    )
    one_error_line(result)


@pytest.fixture()
def chain_files(workspace):
    """A mock graph, trajectory file and dataset built from the workspace bank."""
    tmp_path, bank_path, config_path = workspace
    graph, trajs, dataset = tmp_path / "graph.jsonl", tmp_path / "trajs.jsonl", tmp_path / "dataset.jsonl"
    config = ["--config", config_path]
    run(["build-graph", *config, "--bank", bank_path, "--out", str(graph)])
    run(["synthesize", *config, "--graph", str(graph), "--count", "3", "--out", str(trajs)])
    run(["extract", *config, "--trajectories", str(trajs), "--graph", str(graph), "--out", str(dataset)])
    return config, graph, trajs, dataset


def test_extract_with_graph_scope_pools_the_graph_bank_of_the_kind(chain_files):
    config, graph, trajs, dataset = chain_files
    args = ["extract", *config, "--trajectories", str(trajs), "--graph", str(graph), "--pool-scope", "graph"]
    assert run([*args, "--out", str(dataset)]).exit_code == 0
    records = load_dataset(dataset)
    names = load_graph(graph).names()
    assert len(records) > 1 and len(names) == 12
    assert all([spec["name"] for spec in record.pool_specs] == names for record in records)


@pytest.mark.parametrize("scope", ["subset", "graph"])
def test_agent_bank_chain_writes_agent_records(workspace, scope):
    """extract takes the kind from the graph's candidates, so an agent bank's chain needs no kind flag."""
    tmp_path, _, config_path = workspace
    bank, graph, evolved, trajs, dataset = (tmp_path / f"{name}.jsonl" for name in ("bank", "g", "e", "t", "d"))
    save_bank(make_agent_bank(8), bank)
    chain = [
        ["build-graph", "--bank", str(bank), "--out", str(graph)],
        ["mutate", "--graph", str(graph), "--rounds", "3", "--out", str(evolved)],
        ["synthesize", "--graph", str(evolved), "--count", "3", "--out", str(trajs)],
        ["extract", "--trajectories", str(trajs), "--graph", str(evolved), "--pool-scope", scope, "--out", str(dataset)],
        ["evaluate", "--dataset", str(dataset), "--router", "oracle", "--router", "llm"],
    ]
    for args in chain:
        result = run([*args, "--config", config_path])
        assert result.exit_code == 0, result.output
    records = load_dataset(dataset)
    assert len(records) > 1 and {record.kind for record in records} == {"agent"}
    assert all(record.system.startswith("You are an Agent Router.") for record in records)
    assert "oracle: avg@5 = 1.0000" in result.output


def test_extract_has_no_kind_flag(chain_files):
    config, graph, trajs, dataset = chain_files
    args = ["extract", *config, "--trajectories", str(trajs), "--graph", str(graph), "--kind", "tool"]
    result = run([*args, "--out", str(dataset)])
    assert result.exit_code == 2 and "No such option '--kind'" in result.output


def _edit_first_pool_entry(case):
    edit = MALFORMED_SPEC_FIELDS[case][1]
    return lambda doc: {**doc, "pool": [edit(doc["pool"][0]), *doc["pool"][1:]]}


TOOL_FIELD_CASES = sorted(case for case, (kind, _, _) in MALFORMED_SPEC_FIELDS.items() if kind == "tool")


@pytest.mark.parametrize(
    "target, edit, where",
    [
        ("trajectories", lambda doc: [1], "{path}:2"),
        ("trajectories", lambda doc: {**doc, "subset": {**doc["subset"], "members": 5}}, "{path}:2"),
        # two observations in a row
        ("trajectories", lambda doc: {**doc, "turns": doc["turns"][:1] + doc["turns"]}, "{path}:2"),
        ("dataset", lambda doc: [1], "{path}:2"),
        ("dataset", lambda doc: {**doc, "pool": 5}, "{path}:2"),
        ("dataset", lambda doc: {**doc, "query": 5}, "{path}:2"),
        ("dataset", lambda doc: {**doc, "label": "not_in_the_pool", "expected_tool": ["not_in_the_pool"]},
         "label not in its pool"),
        # a record states its label twice: both places must agree
        ("dataset", lambda doc: {**doc, "expected_tool": [next(e["name"] for e in doc["pool"] if e["name"] != doc["label"])]},
         "{path}:2: expected_tool"),
        # a pool entry with a mistyped field fails in evaluate, which names the field
        *(("dataset", _edit_first_pool_entry(case), MALFORMED_SPEC_FIELDS[case][2]) for case in TOOL_FIELD_CASES),
    ],
    ids=[
        "traj-not-object", "traj-members-int", "traj-alternation", "dataset-not-object", "dataset-pool-int",
        "dataset-query-int", "dataset-label-outside-pool", "dataset-expected-not-label",
        *(f"dataset-pool-{case}" for case in TOOL_FIELD_CASES),
    ],
)
def test_malformed_jsonl_line_exits_1(chain_files, target, edit, where):
    config, graph, trajs, dataset = chain_files
    path = trajs if target == "trajectories" else dataset
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps(edit(json.loads(lines[1])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if target == "trajectories":
        args = ["extract", *config, "--trajectories", str(trajs), "--graph", str(graph), "--out", str(dataset)]
    else:
        args = ["evaluate", *config, "--dataset", str(dataset), "--router", "embedding_q", "--router", "llm"]
    result = run(args)
    one_error_line(result)
    assert where.format(path=path) in result.output


# One-field edits of a dataset pool entry that no spec accepts: wrong types,
# an unhashable name, a missing key, or an entry that is not an object.
_NOT_A_STRING = st.sampled_from([5, 1.5, True, None, [], ["a"], {}, {"a": 1}])
_POOL_ENTRY_EDITS = st.one_of(
    st.tuples(st.just("name"), st.one_of(_NOT_A_STRING, st.just(""))),
    st.tuples(st.just("description"), _NOT_A_STRING),
    st.tuples(
        st.just("inputSchema"),
        st.one_of(_NOT_A_STRING, st.just({"type": "array"}), st.just({"type": "object", "properties": 5})),
    ),
    st.tuples(st.just("tags"), st.sampled_from([5, 1.5, True, "tag", [1], [None], [["a"]], {"a": 1}])),
    st.tuples(st.just("missing"), st.sampled_from(["name", "description", "inputSchema"])),
    st.tuples(st.just("entry"), st.sampled_from([5, "x", [], None, True])),
)


def _apply_pool_entry_edit(entry, edit):
    target, value = edit
    if target == "entry":
        return value
    if target == "missing":
        return {key: item for key, item in entry.items() if key != value}
    return {**entry, target: value}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=_POOL_ENTRY_EDITS, position=st.integers(min_value=0, max_value=10**6))
def test_fuzzed_dataset_pool_entry_exits_1(chain_files, edit, position):
    config, _, _, dataset = chain_files
    lines = dataset.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    index = position % len(record["pool"])
    record["pool"][index] = _apply_pool_entry_edit(record["pool"][index], edit)
    fuzzed = dataset.with_name("fuzzed.jsonl")
    fuzzed.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n", encoding="utf-8")
    one_error_line(run(["evaluate", *config, "--dataset", str(fuzzed), "--router", "oracle"]))


# One-field edits of a similarity edge record that no snapshot accepts: an
# endpoint that is no node or breaks the a < b order, an unknown or swapped
# kind, a weight that is not a finite number above tau (0.82), a missing key,
# or an edge that is not an object.
_EDGE_RECORD_EDITS = st.one_of(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([5, 1.5, True, None, [], ["a"], {}, "", "zzz_missing"])),
    st.tuples(st.just("kind"), st.sampled_from([5, True, None, [], {}, "", "friendship", "Similarity", "mutation"])),
    st.tuples(
        st.just("weight"),
        st.sampled_from(
            [None, True, False, "0.9", "high, very", [], [0.9], {}, math.nan, math.inf, -math.inf, 0, -1, 0.1, 0.82]
        ),
    ),
    st.tuples(st.just("missing"), st.sampled_from(["a", "b", "kind", "weight"])),
    st.tuples(st.just("edge"), st.sampled_from([5, "x", [], None, True, {}])),
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=_EDGE_RECORD_EDITS, position=st.integers(min_value=0, max_value=10**6))
def test_fuzzed_snapshot_edge_record_exits_1(chain_files, edit, position):
    config, graph, _, _ = chain_files
    lines = graph.read_text(encoding="utf-8").splitlines()
    edge_lines = [lineno for lineno, line in enumerate(lines) if line.startswith('{"edge": ')]
    lineno = edge_lines[position % len(edge_lines)]
    record = json.loads(lines[lineno])
    target, value = edit
    if target == "edge":
        record["edge"] = value
    elif target == "missing":
        del record["edge"][value]
    else:
        record["edge"][target] = value
    fuzzed = graph.with_name("fuzzed.jsonl")
    fuzzed.write_text("\n".join([*lines[:lineno], json.dumps(record), *lines[lineno + 1 :]]) + "\n", encoding="utf-8")
    result = run(["synthesize", *config, "--graph", str(fuzzed), "--out", str(graph.with_name("t.jsonl"))])
    one_error_line(result)
    assert f"{fuzzed}:{lineno + 1}" in result.output


# One-field edits of a node record that no snapshot accepts: a name unlike
# its spec's, an unknown or wrong kind, a spec that is no valid spec, an
# embedding that is not a flat list of finite JSON numbers of the snapshot's
# length, a model id that is not the snapshot's string, a missing key, or a
# node that is not an object.
_EMBEDDING_EDITS = {
    "nested": lambda values: [values],
    "shorter": lambda values: values[:-1],
    "longer": lambda values: [*values, 0.5],
    "nan": lambda values: [math.nan, *values[1:]],
    "inf": lambda values: [*values[:-1], math.inf],
    "-inf": lambda values: [-math.inf, *values[1:]],
    "string entry": lambda values: ["x", *values[1:]],
    "numeric string entry": lambda values: [str(values[0]), *values[1:]],
    "bool entry": lambda values: [True, *values[1:]],
}
_NODE_RECORD_EDITS = st.one_of(
    st.tuples(st.just("name"), st.sampled_from([5, 1.5, True, None, [], {}, "", "zzz_other"])),
    st.tuples(st.just("kind"), st.sampled_from([5, True, None, [], {}, "", "agent", "Tool"])),
    st.tuples(st.just("spec"), st.sampled_from([5, "x", None, True, [], {}])),
    st.tuples(st.just("embedding"), st.sampled_from([5, "x", "0.5", None, True, [], {}])),
    st.tuples(st.just("embedding edit"), st.sampled_from(sorted(_EMBEDDING_EDITS))),
    st.tuples(st.just("embedding_model_id"), st.sampled_from([5, True, None, [1], {}, "", "other-embed"])),
    st.tuples(st.just("missing"), st.sampled_from(["name", "kind", "spec", "embedding", "embedding_model_id"])),
    st.tuples(st.just("node"), st.sampled_from([5, "x", [], None, True, {}])),
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=_NODE_RECORD_EDITS, position=st.integers(min_value=0, max_value=10**6))
def test_fuzzed_snapshot_node_record_exits_1(chain_files, edit, position):
    config, graph, _, _ = chain_files
    lines = graph.read_text(encoding="utf-8").splitlines()
    node_lines = [lineno for lineno, line in enumerate(lines) if line.startswith('{"node": ')]
    lineno = node_lines[position % len(node_lines)]
    record = json.loads(lines[lineno])
    target, value = edit
    if target == "node":
        record["node"] = value
    elif target == "missing":
        del record["node"][value]
    elif target == "embedding edit":
        record["node"]["embedding"] = _EMBEDDING_EDITS[value](record["node"]["embedding"])
    else:
        record["node"][target] = value
    fuzzed = graph.with_name("fuzzed.jsonl")
    fuzzed.write_text("\n".join([*lines[:lineno], json.dumps(record), *lines[lineno + 1 :]]) + "\n", encoding="utf-8")
    one_error_line(run(["synthesize", *config, "--graph", str(fuzzed), "--out", str(graph.with_name("t.jsonl"))]))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=_POOL_ENTRY_EDITS, position=st.integers(min_value=0, max_value=10**6))
def test_fuzzed_bank_line_exits_1(workspace, edit, position):
    tmp_path, bank_path, config_path = workspace
    lines = Path(bank_path).read_text(encoding="utf-8").splitlines()
    index = position % len(lines)
    lines[index] = json.dumps(_apply_pool_entry_edit(json.loads(lines[index]), edit))
    fuzzed = tmp_path / "fuzzed_bank.jsonl"
    fuzzed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = run(["build-graph", "--config", config_path, "--bank", str(fuzzed), "--out", str(tmp_path / "g.jsonl")])
    one_error_line(result)


# One-field edits of a trajectory line that no trajectory file accepts: a
# turn, call or plan step that is no object, a field of the wrong type, a call
# outside the subset, an unknown turn type, or a missing key. An edit names
# the elements it may hit ("turns", "actions": the action turns, "calls",
# "steps", "plan"), the key it sets ("whole": the element itself, "missing":
# the key it deletes) and the value.
_TRAJECTORY_EDITS = st.one_of(
    st.tuples(st.sampled_from(["turns", "calls", "steps"]), st.just("whole"), st.sampled_from([5, "x", [], None, True])),
    st.tuples(st.just("turns"), st.just("text"), _NOT_A_STRING),
    st.tuples(st.just("turns"), st.just("type"), st.sampled_from([5, True, None, [], {}, "", "tool", "Action"])),
    st.tuples(st.just("actions"), st.just("calls"), st.sampled_from([5, "x", {}, None, True, [5], [None], ["x"]])),
    st.tuples(st.just("calls"), st.sampled_from(["name", "result"]), _NOT_A_STRING),
    st.tuples(st.just("calls"), st.just("name"), st.just("zzz_missing")),
    st.tuples(st.just("calls"), st.just("arguments"), st.sampled_from([5, 1.5, True, None, "x", [], ["a"]])),
    st.tuples(st.just("steps"), st.sampled_from(["goal", "candidate"]), _NOT_A_STRING),
    st.tuples(st.just("plan"), st.just("task"), _NOT_A_STRING),
    st.tuples(st.just("plan"), st.just("steps"), st.sampled_from([5, "x", None, True, {}, [5], [None]])),
    st.tuples(st.just("turns"), st.just("missing"), st.sampled_from(["text", "type"])),
    st.tuples(st.just("calls"), st.just("missing"), st.sampled_from(["name", "arguments", "result"])),
    st.tuples(st.just("steps"), st.just("missing"), st.sampled_from(["goal", "candidate"])),
    st.tuples(st.just("plan"), st.just("missing"), st.sampled_from(["task", "steps"])),
)


def _trajectory_slots(record, target):
    """(container, key) of each element of a trajectory record that ``target`` names."""
    turns = record["turns"]
    if target == "turns":
        return [(turns, index) for index in range(len(turns))]
    if target == "actions":
        return [(turns, index) for index, turn in enumerate(turns) if turn["type"] == "action"]
    if target == "calls":
        actions = [turn for turn in turns if turn["type"] == "action"]
        return [(turn["calls"], index) for turn in actions for index in range(len(turn["calls"]))]
    if target == "steps":
        return [(record["plan"]["steps"], index) for index in range(len(record["plan"]["steps"]))]
    return [(record, "plan")]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=_TRAJECTORY_EDITS, position=st.integers(min_value=0, max_value=10**6))
def test_fuzzed_trajectory_line_exits_1(chain_files, edit, position):
    config, graph, trajs, dataset = chain_files
    lines = trajs.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    target, key, value = edit
    slots = _trajectory_slots(record, target)
    container, index = slots[position % len(slots)]
    if key == "whole":
        container[index] = value
    elif key == "missing":
        del container[index][value]
    else:
        container[index][key] = value
    fuzzed = trajs.with_name("fuzzed.jsonl")
    fuzzed.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n", encoding="utf-8")
    result = run(["extract", *config, "--trajectories", str(fuzzed), "--graph", str(graph), "--out", str(dataset)])
    one_error_line(result)
    assert f"{fuzzed}:2" in result.output


# Values of a type that a YAML-settable config key does not take, by the
# key's type, and values that no config section takes.
_WRONG_CONFIG_VALUES = {
    int: ["12", 1.5, True, None, [1], {"a": 1}],
    int | None: ["12", 1.5, True, [1], {"a": 1}],
    float: ["0.5", True, None, [0.5], {"a": 1}],
    str: [5, 1.5, True, None, ["a"], {"a": 1}],
    tuple[int, int]: [5, "2, 4", None, [2], [2, 3, 4], [2.5, 4], {"a": 1}],
}
_WRONG_SECTIONS = [5, "x", [1, 2], {"surprise": 1}]


def _config_edits():
    """(key path, value) for every wrong value of every YAML-settable config key."""
    top = get_type_hints(PipelineConfig)
    edits = [((key,), value) for key in ("seed", "tau") for value in _WRONG_CONFIG_VALUES[top[key]]]
    sections = {"backend": (BackendConfig, tuple(get_type_hints(BackendConfig))), **STAGE_KEYS}
    for section, (cls, keys) in sections.items():
        types = get_type_hints(cls)
        edits += [((section,), value) for value in _WRONG_SECTIONS]
        edits += [((section, key), value) for key in keys for value in _WRONG_CONFIG_VALUES[types[key]]]
    return edits


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=st.sampled_from(_config_edits()))
def test_fuzzed_config_value_exits_1(workspace, edit):
    tmp_path, bank_path, _ = workspace
    (*sections, key), value = edit
    document = {"seed": 11, "sampler": {"target_range": [2, 4]}}
    target = document
    for section in sections:
        target = target.setdefault(section, {})
    target[key] = value
    config_path = tmp_path / "fuzzed.yaml"
    config_path.write_text(yaml.safe_dump(document), encoding="utf-8")
    result = run(["build-graph", "--config", str(config_path), "--bank", bank_path, "--out", str(tmp_path / "g.jsonl")])
    one_error_line(result)


MALFORMED_BANK_ENTRIES = {
    **MALFORMED_SPEC_FIELDS,
    "entry-not-object": ("tool", lambda doc: [doc], None),
    "provenance-not-object": ("tool", lambda doc: {**doc, "provenance": 5}, None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BANK_ENTRIES))
def test_malformed_bank_entry_exits_1(workspace, case):
    tmp_path, _, config_path = workspace
    kind, edit, _ = MALFORMED_BANK_ENTRIES[case]
    bank_path = tmp_path / f"{kind}_bank.jsonl"
    save_bank(make_agent_bank(6) if kind == "agent" else make_tool_bank(6), bank_path)
    lines = bank_path.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps(edit(json.loads(lines[1])))
    bank_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = run(["build-graph", "--config", config_path, "--bank", str(bank_path), "--out", str(tmp_path / "g.jsonl")])
    one_error_line(result)


def test_evaluate_empty_dataset_exits_1(workspace):
    tmp_path, _, config_path = workspace
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    one_error_line(run(["evaluate", "--config", config_path, "--dataset", str(empty), "--router", "oracle"]))


def test_evaluate_builds_each_distinct_pool_once_for_every_router(workspace, monkeypatch):
    tmp_path, _, config_path = workspace
    records = distinct_pool_records(pools=3, per_pool=4)
    distinct = len({json.dumps(record.pool_specs) for record in records})
    dataset = tmp_path / "dataset.jsonl"
    save_dataset(records, dataset)
    counts = count_calls(
        monkeypatch, build_pool=(evaluation, "build_pool"), record_pool=(evaluation, "_record_pool")
    )
    routers = ["--router", "oracle", "--router", "embedding_qh"]
    result = run(["evaluate", "--config", config_path, "--dataset", str(dataset), *routers])
    assert result.exit_code == 0 and "oracle: avg@5 = 1.0000 over 12 instances" in result.output
    assert counts == {"build_pool": distinct, "record_pool": distinct} and distinct == 3


def test_evaluate_refuses_a_dataset_of_tool_and_agent_records(workspace):
    tmp_path, _, config_path = workspace
    records = distinct_pool_records(pools=1, per_pool=2) + distinct_pool_records(pools=1, per_pool=2, kind="agent")
    dataset = tmp_path / "mixed.jsonl"
    save_dataset(records, dataset)
    result = run(["evaluate", "--config", config_path, "--dataset", str(dataset), "--router", "oracle"])
    one_error_line(result)
    assert f"{dataset}[2]: agent record in a dataset of tool records" in result.output


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


# Every settable section key at a non-default value.
ALL_SECTION_KEYS_YAML = """\
seed: 9
mutation:
  max_retries: 1
  temperature: 0.6
sampler:
  num_seeds: 2
  target_size: 5
  target_range: [3, 6]
  restart_prob: 0.6
synthesis:
  max_retries: 3
  max_turns: 13
  error_prob: 0.4
  temperature: 0.5
eval:
  temperature: 0.7
"""

# sha256 of the downstream mock artifacts under ALL_SECTION_KEYS_YAML.
# A change to them must be explained in CHANGES.md.
PINNED_DOWNSTREAM = {
    "trajs.jsonl": "5cccf7da99efe87cfae0b1d954dc7f50e01c1e4db6d3ad5266007bf84048ac56",
    "dataset.jsonl": "06499c0f8000208d7569eb9863076ded7f611652c0aa25b5e8a1790b1dbeb099",
    "dataset.jsonl.nohistory": "e461ad9e2b727522b1120c57891b57bd54d7c53443f63c32db1cf2a9ad58a8bf",
    "results.jsonl": "0b2894fd595990278be93fc013a6edf462de5503f271f42314760455aa785062",
}


def test_downstream_artifacts_byte_identical_to_pinned(tmp_path):
    bank_path, config_path = tmp_path / "bank.jsonl", tmp_path / "config.yaml"
    save_bank(make_family_bank(60, seed=3), bank_path)
    config_path.write_text(ALL_SECTION_KEYS_YAML, encoding="utf-8")
    config = ["--config", str(config_path)]
    graph, mutated, trajs = tmp_path / "graph.jsonl", tmp_path / "mutated.jsonl", tmp_path / "trajs.jsonl"
    dataset, results = tmp_path / "dataset.jsonl", tmp_path / "results.jsonl"
    steps = [
        ["build-graph", *config, "--bank", str(bank_path), "--out", str(graph)],
        ["mutate", *config, "--graph", str(graph), "--rounds", "4", "--out", str(mutated)],
        ["synthesize", *config, "--graph", str(mutated), "--count", "5", "--out", str(trajs)],
        ["extract", *config, "--trajectories", str(trajs), "--graph", str(mutated), "--ablation", "--out", str(dataset)],
        ["evaluate", *config, "--dataset", str(dataset), "--router", "llm", "--router", "embedding_qh",
         "--router", "random", "--k", "2", "--out", str(results)],
    ]
    for args in steps:
        assert run(args).exit_code == 0, args[0]
    paths = (trajs, dataset, tmp_path / "dataset.jsonl.nohistory", results)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
    assert digests == PINNED_DOWNSTREAM


# sha256 of the extract --pool-scope graph --ablation files over the same chain as
# PINNED_DOWNSTREAM: every record inlines the whole graph as its pool.
PINNED_GRAPH_SCOPE = {
    "dataset.jsonl": "41b6c24e1297e43ded31edf2d2ef17469017848ac13e27d1d119891b86deb348",
    "dataset.jsonl.nohistory": "7c617036825d233ba4058828a7ba7f3a9c166ab56539f9628dbcc3462b68cb20",
}


def test_graph_scope_dataset_byte_identical_to_pinned(tmp_path):
    bank_path, config_path = tmp_path / "bank.jsonl", tmp_path / "config.yaml"
    save_bank(make_family_bank(60, seed=3), bank_path)
    config_path.write_text(ALL_SECTION_KEYS_YAML, encoding="utf-8")
    config = ["--config", str(config_path)]
    graph, mutated, trajs = tmp_path / "graph.jsonl", tmp_path / "mutated.jsonl", tmp_path / "trajs.jsonl"
    dataset = tmp_path / "dataset.jsonl"
    steps = [
        ["build-graph", *config, "--bank", str(bank_path), "--out", str(graph)],
        ["mutate", *config, "--graph", str(graph), "--rounds", "4", "--out", str(mutated)],
        ["synthesize", *config, "--graph", str(mutated), "--count", "5", "--out", str(trajs)],
        ["extract", *config, "--trajectories", str(trajs), "--graph", str(mutated), "--pool-scope", "graph",
         "--ablation", "--out", str(dataset)],
    ]
    for args in steps:
        assert run(args).exit_code == 0, args[0]
    paths = (dataset, tmp_path / "dataset.jsonl.nohistory")
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths} == PINNED_GRAPH_SCOPE
