"""Light Routing Agent episode loop, execution legality, and context audit."""

import json

import pytest

from helpers import make_tool_bank, mock_gateway
from toolrouter import lra
from toolrouter.lra import (
    EXECUTE_CANDIDATE_TOOL,
    ROUTER_INVOKE_TOOL,
    ExecutorBinding,
    GatewayReasoner,
    ScriptedReasoner,
    run_episode,
    save_episode_logs,
)
from toolrouter.registry import CandidatePool
from toolrouter.router import RouterConfig
from toolrouter.synthesis import Observation, serialize_history

BANK = make_tool_bank(10)
POOL = CandidatePool.whole_bank(BANK)
LABEL = BANK.names()[0]
ORACLE = RouterConfig(variant="oracle")


def scripted(*actions):
    return ScriptedReasoner(list(actions))


def test_reasoner_tool_contract():
    assert ROUTER_INVOKE_TOOL["name"] == "router_invoke"
    assert EXECUTE_CANDIDATE_TOOL["name"] == "execute_candidate"
    assert ROUTER_INVOKE_TOOL["inputSchema"]["required"] == ["need"]


def test_route_execute_final_episode():
    reasoner = scripted(
        {"action": "route", "need": "something capable"},
        {"action": "execute", "arguments": {"target": "x"}},
        {"action": "final", "answer": "done"},
    )
    log = run_episode(
        "do the thing", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, oracle_label=LABEL
    )
    assert log.outcome == "finished"
    assert log.final_answer == "done"
    assert len(log.steps) == 3
    assert log.steps[0].decision.chosen == LABEL
    assert log.steps[1].execution_result.startswith("[executed] " + LABEL)
    assert log.context_audit["tool_spec_count"] == 2
    assert log.context_audit["pool_size"] == len(POOL)
    assert log.context_audit["catalog_entries_in_prompt"] == 0


def test_context_audit_reads_every_prompt_shown():
    executor = ExecutorBinding.mock_for(POOL)
    executor.scripted[(LABEL, lra._args_key({"target": "x"}))] = "listing: " + ", ".join(POOL.membership)
    reasoner = scripted(
        {"action": "route", "need": "something capable"},
        {"action": "execute", "arguments": {"target": "x"}},
        {"action": "final", "answer": "done"},
    )
    log = run_episode("do the thing", POOL, ORACLE, executor, reasoner, oracle_label=LABEL)
    # every pool name reached the last prompt; the one routed to is no catalog entry
    assert log.context_audit["catalog_entries_in_prompt"] == len(POOL) - 1


def test_audit_names_are_whole_words():
    text = "ran tool_15 then web-search (web_fetch)"
    assert lra._names_in(text, ["tool_1", "tool_15", "web-search", "web_fetch", "fetch"]) == {
        "tool_15",
        "web-search",
        "web_fetch",
    }


class RecordingReasoner(ScriptedReasoner):
    def __init__(self, actions):
        super().__init__(actions)
        self.prompts = []

    def decide(self, prompt):
        self.prompts.append(prompt)
        return super().decide(prompt)


def test_router_history_and_reasoner_transcript_are_the_same_turns(monkeypatch):
    histories = []
    real_route = lra.route

    def recording_route(cfg, query, history, *args, **kwargs):
        histories.append(history)
        return real_route(cfg, query, history, *args, **kwargs)

    monkeypatch.setattr(lra, "route", recording_route)
    reasoner = RecordingReasoner(
        [
            {"action": "route", "need": "first need"},
            {"action": "execute", "arguments": {"target": "x"}},
            {"action": "route", "need": "second need"},
            {"action": "final", "answer": "done"},
        ]
    )
    log = run_episode("two routes", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, oracle_label=LABEL)
    assert log.outcome == "finished"
    first, second = histories
    assert first == (Observation(text="two routes"),)  # the first route sees only the task
    assert len(second) == 3 and second[0] == first[0]
    transcript = serialize_history(second[1:])
    assert f"Transcript so far:\n{transcript}\n\n" in reasoner.prompts[2]
    assert transcript.splitlines() == [
        f"Assistant: route(need='first need') -> [router decision] {LABEL}",
        f"Assistant: execute() -> [execution result] {log.steps[1].execution_result}",
    ]
    assert "Transcript so far:\n(empty)\n" in reasoner.prompts[0]


def test_execute_before_route_is_recorded_not_fatal():
    reasoner = scripted(
        {"action": "execute", "arguments": {}},
        {"action": "route", "need": "capability"},
        {"action": "execute", "arguments": {}},
        {"action": "final", "answer": "ok"},
    )
    log = run_episode(
        "task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, oracle_label=LABEL
    )
    assert log.outcome == "finished"
    assert "ExecuteBeforeRoute" in log.steps[0].execution_result
    assert log.steps[2].execution_result.startswith("[executed]")


def test_execution_consumes_the_decision():
    # a second execute without a fresh route must fail
    reasoner = scripted(
        {"action": "route", "need": "capability"},
        {"action": "execute", "arguments": {}},
        {"action": "execute", "arguments": {}},
        {"action": "final", "answer": "ok"},
    )
    log = run_episode(
        "task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, oracle_label=LABEL
    )
    assert log.steps[1].execution_result.startswith("[executed]")
    assert "ExecuteBeforeRoute" in log.steps[2].execution_result


def test_budget_exhaustion():
    reasoner = scripted(*[{"action": "route", "need": "loop"}] * 10)
    log = run_episode(
        "task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, budget=3, oracle_label=LABEL
    )
    assert log.outcome == "budget_exhausted"
    assert len(log.steps) == 3
    with pytest.raises(ValueError):
        run_episode("task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, budget=0)


def test_non_callable_candidates_refuse_execution():
    pool = CandidatePool(bank=BANK, membership=BANK.names(), non_callable=frozenset({LABEL}))
    reasoner = scripted(
        {"action": "route", "need": "x"},
        {"action": "execute", "arguments": {}},
        {"action": "final", "answer": "ok"},
    )
    log = run_episode(
        "task", pool, ORACLE, ExecutorBinding.mock_for(pool), reasoner, oracle_label=LABEL
    )
    assert "non-callable distractor" in log.steps[1].execution_result


def test_scripted_executor_results():
    binding = ExecutorBinding.mock_for(POOL)
    import hashlib

    key = hashlib.sha256(json.dumps({"target": "x"}, sort_keys=True).encode()).hexdigest()[:16]
    binding.scripted[(LABEL, key)] = "scripted result"
    assert binding.execute(LABEL, {"target": "x"}) == "scripted result"
    assert binding.execute("unbound_name", {}) == "error: no executor bound for unbound_name"
    assert binding.covers(POOL)


def test_gateway_reasoner_runs_full_episode():
    gateway = mock_gateway(0)
    log = run_episode(
        "complete the workflow",
        POOL,
        ORACLE,
        ExecutorBinding.mock_for(POOL),
        GatewayReasoner(gateway),
        gateway=gateway,
        oracle_label=LABEL,
    )
    assert log.outcome == "finished"
    kinds = [json.loads(step.reasoner_text)["action"] for step in log.steps]
    assert kinds == ["route", "execute", "final"]


def test_prompt_size_independent_of_pool_size():
    small_pool = CandidatePool(bank=BANK, membership=BANK.names()[:2])
    big_bank = make_tool_bank(300)
    big_pool = CandidatePool.whole_bank(big_bank)
    script = [
        {"action": "route", "need": "fixed need"},
        {"action": "execute", "arguments": {}},
        {"action": "final", "answer": "ok"},
    ]
    label = BANK.names()[0]  # present in both pools
    small_log = run_episode(
        "same task", small_pool, ORACLE, ExecutorBinding.mock_for(small_pool), scripted(*script), oracle_label=label
    )
    big_log = run_episode(
        "same task", big_pool, ORACLE, ExecutorBinding.mock_for(big_pool), scripted(*script), oracle_label=label
    )
    assert small_log.context_audit["tool_spec_count"] == big_log.context_audit["tool_spec_count"] == 2
    assert small_log.context_audit["max_prompt_chars"] == big_log.context_audit["max_prompt_chars"]
    assert big_log.context_audit["pool_size"] == 300


def test_episode_log_file(tmp_path):
    reasoner = scripted({"action": "final", "answer": "immediate"})
    log = run_episode("task", POOL, ORACLE, ExecutorBinding.mock_for(POOL), reasoner, oracle_label=LABEL)
    path = tmp_path / "episodes.jsonl"
    save_episode_logs([log], path)
    loaded = json.loads(path.read_text().splitlines()[0])
    assert loaded["outcome"] == "finished"
    assert loaded["final_answer"] == "immediate"
    assert loaded["context_audit"]["tool_spec_count"] == 2
