"""Task proposal, trajectory simulation, structural validation, persistence."""

import json
from dataclasses import replace

import pytest

from helpers import RAW_LINE_BREAKS, count_calls, make_tool_bank, mock_gateway
from toolrouter import prompts
from toolrouter.backends import MockChatBackend
from toolrouter.errors import Discarded, RetriesExhaustedSynthesis
from toolrouter.gateway import EmbeddingVector, Gateway
from toolrouter.graph import GraphConfig, build_graph
from toolrouter.mutation import EvolveConfig, evolve
from toolrouter.sampler import CandidateSubset, SamplerConfig
from toolrouter.synthesis import (
    Action,
    CandidateCall,
    Observation,
    PlanStep,
    SynthesisConfig,
    TaskPlan,
    Trajectory,
    check_arguments,
    load_trajectories,
    propose_task,
    save_trajectories,
    serialize_history,
    simulate_trajectory,
    synthesize_batch,
    validate_trajectory,
)


@pytest.fixture(scope="module")
def env():
    gateway = mock_gateway(0)
    graph = build_graph(make_tool_bank(10), GraphConfig(), gateway)
    specs = dict(graph.specs)
    return gateway, graph, specs


class RecordingChat(MockChatBackend):
    """The mock chat backend, keeping every prompt it answers."""

    def __init__(self):
        super().__init__(seed=0)
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.messages[-1].content)
        return super().complete(request)


def subset_of(names):
    return CandidateSubset(members=tuple(names), seed_nodes=(names[0],), walk_trace=())


def test_check_arguments():
    schema = {
        "type": "object",
        "properties": {"target": {"type": "string"}, "limit": {"type": "integer"}},
        "required": ["target"],
    }
    assert check_arguments({"target": "x", "limit": 3}, schema) == []
    assert check_arguments({}, schema) == ["missing required argument 'target'"]
    assert check_arguments({"target": 5}, schema)
    # booleans are not integers
    assert check_arguments({"target": "x", "limit": True}, schema)
    # unknown keys pass the basic check
    assert check_arguments({"target": "x", "extra": object()}, schema) == []


def test_check_arguments_takes_a_value_of_any_type_a_union_lists():
    schema = {
        "type": "object",
        "properties": {"target": {"type": ["string", "null"]}, "size": {"type": ["integer", "mystery"]}},
    }
    assert check_arguments({"target": "x"}, schema) == []
    assert check_arguments({"target": None}, schema) == []
    assert check_arguments({"target": 5}, schema) == ["argument 'target' is not of type ['string', 'null']"]
    assert check_arguments({"target": False}, {"properties": {"target": {"type": "null"}}})
    # a type the check does not know takes any value, alone or in a union
    assert check_arguments({"size": "big"}, schema) == []


def test_propose_task_covers_subset(env):
    gateway, graph, specs = env
    subset = subset_of(graph.names()[:3])
    plan = propose_task(subset, specs, gateway)
    assert plan.task_text
    assert [step.candidate for step in plan.steps] == list(subset.members)
    assert all(step.candidate in subset for step in plan.steps)


def test_propose_task_retries_exhausted(env):
    _, graph, specs = env

    class OutOfSubsetChat:
        model_id = "bad"

        def complete(self, request):
            return json.dumps({"task": "t", "steps": [{"goal": "g", "candidate": "not_in_subset"}]})

    gateway = Gateway(chat_backend=OutOfSubsetChat(), backoff_s=0.0)
    with pytest.raises(RetriesExhaustedSynthesis):
        propose_task(subset_of(graph.names()[:2]), specs, gateway)


def test_simulated_trajectory_shape(env):
    gateway, graph, specs = env
    subset = subset_of(graph.names()[:2])
    plan = propose_task(subset, specs, gateway)
    trajectory = simulate_trajectory(plan, subset, specs, gateway, SynthesisConfig(rng_seed=1))
    # S plan steps -> 2S + 2 turns, strict alternation, final action has no calls
    assert len(trajectory.turns) == 2 * len(plan.steps) + 2
    assert isinstance(trajectory.turns[0], Observation)
    assert trajectory.turns[0].text == plan.task_text
    for index, turn in enumerate(trajectory.turns):
        assert isinstance(turn, Observation if index % 2 == 0 else Action)
    assert isinstance(trajectory.turns[-1], Action)
    assert trajectory.turns[-1].calls == ()
    # every call carries a simulated result and stays in the subset
    for action in trajectory.turns[1::2]:
        for call in action.calls:
            assert call.name in subset
            assert call.simulated_result
    assert validate_trajectory(trajectory) == []


def test_simulation_prompts_render_the_turns_so_far(env):
    _, graph, specs = env
    subset = subset_of(graph.names()[:3])
    backend = RecordingChat()
    gateway = Gateway(chat_backend=backend, backoff_s=0.0)
    plan = propose_task(subset, specs, gateway)
    trajectory = simulate_trajectory(plan, subset, specs, gateway, SynthesisConfig(rng_seed=1))
    markers = (prompts.ASSISTANT_TURN_MARKER, prompts.USER_TURN_MARKER)
    role_prompts = [prompt for prompt in backend.prompts if prompt.startswith(markers)]
    # the prompt for turn i shows turns[:i], calls tagged with the subset's kind
    assert len(role_prompts) == len(trajectory.turns) - 1
    for index, prompt in enumerate(role_prompts, start=1):
        assert f"Transcript so far:\n{serialize_history(trajectory.turns[:index], 'tool')}\n\n" in prompt
    assert "<tool_call>" in role_prompts[-1]


def test_simulation_discards_over_length(env):
    gateway, graph, specs = env
    subset = subset_of(graph.names()[:6])
    plan = propose_task(subset, specs, gateway)
    with pytest.raises(Discarded):
        simulate_trajectory(plan, subset, specs, gateway, SynthesisConfig(max_turns=12))


def test_over_length_plan_is_discarded_before_any_chat_call(env):
    _, graph, specs = env
    subset = subset_of(graph.names()[:2])
    plan = propose_task(subset, specs, mock_gateway(0))
    fits = 2 * len(plan.steps) + 2
    gateway = mock_gateway(0)
    with pytest.raises(Discarded, match="over length"):
        simulate_trajectory(plan, subset, specs, gateway, SynthesisConfig(rng_seed=1, max_turns=fits - 1))
    assert gateway.usage.chat_calls == 0
    trajectory = simulate_trajectory(plan, subset, specs, gateway, SynthesisConfig(rng_seed=1, max_turns=fits))
    assert len(trajectory.turns) == fits and gateway.usage.chat_calls > 0

def test_validate_trajectory_violations(env):
    _, graph, _ = env
    names = graph.names()
    subset = subset_of(names[:2])
    good = Trajectory(
        trajectory_id="t",
        turns=(
            Observation(text="task"),
            Action(text="go", calls=(CandidateCall(names[0], {"target": "x"}, "ok"),)),
        ),
        subset=subset,
        plan=TaskPlan(task_text="task", steps=(PlanStep("g", names[0]),)),
    )
    assert validate_trajectory(good) == []

    too_short = Trajectory("t", (Observation(text="task"),), subset, good.plan)
    violations = validate_trajectory(too_short)
    assert any("fewer than 2" in v for v in violations)
    assert any("end with an action" in v for v in violations)

    bad_alternation = Trajectory(
        "t", (Observation(text="a"), Observation(text="b")), subset, good.plan
    )
    assert any("alternation" in v for v in validate_trajectory(bad_alternation))

    out_of_subset = Trajectory(
        "t",
        (Observation(text="task"), Action(text="go", calls=(CandidateCall(names[5], {}, "r"),))),
        subset,
        good.plan,
    )
    assert any("out-of-subset" in v for v in validate_trajectory(out_of_subset))


class SchemaBreakingChat(MockChatBackend):
    """The mock chat backend, with the arguments of every assistant call left out."""

    def _assistant_turn(self, prompt):
        document = json.loads(super()._assistant_turn(prompt))
        for call in document["calls"]:
            call["arguments"] = {}
        return json.dumps(document)


def test_assistant_call_that_breaks_its_schema_is_discarded(env):
    _, graph, specs = env
    subset = subset_of(graph.names()[:2])
    gateway = Gateway(chat_backend=SchemaBreakingChat(seed=0), backoff_s=0.0)
    plan = propose_task(subset, specs, gateway)
    with pytest.raises(Discarded, match="missing required argument 'target'") as info:
        simulate_trajectory(plan, subset, specs, gateway, SynthesisConfig(rng_seed=1))
    assert info.value.reason.startswith(f"schema-violating arguments for {plan.steps[0].candidate}")


class EditedCallsChat(MockChatBackend):
    """The mock chat backend, with the calls of every assistant reply replaced by ``edit(calls)``."""

    def __init__(self, edit):
        super().__init__(seed=0)
        self.edit = edit

    def _assistant_turn(self, prompt):
        document = json.loads(super()._assistant_turn(prompt))
        document["calls"] = self.edit(document["calls"])
        return json.dumps(document)


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda calls: calls[:1] * 3, "assistant action carries more than 2 calls"),
        (lambda calls: [{**calls[0], "name": "outside"}], "out-of-subset call: 'outside'"),
    ],
    ids=["three-calls", "out-of-subset"],
)
def test_an_assistant_reply_an_action_turn_cannot_hold_is_discarded(env, edit, reason):
    _, graph, specs = env
    subset = subset_of(graph.names()[:2])
    gateway = Gateway(chat_backend=EditedCallsChat(edit), backoff_s=0.0)
    plan = propose_task(subset, specs, gateway)
    with pytest.raises(Discarded) as info:
        simulate_trajectory(plan, subset, specs, gateway, SynthesisConfig(rng_seed=1))
    assert info.value.reason == reason


def test_synthesize_batch_deterministic(env):
    gateway, graph, _ = env
    sampler = SamplerConfig(target_range=(2, 4))
    cfg = SynthesisConfig(rng_seed=9)
    batch = synthesize_batch(graph, 10, sampler, cfg, mock_gateway(0))
    again = synthesize_batch(graph, 10, sampler, cfg, mock_gateway(0))
    assert len(batch) == 10
    assert batch == again
    for trajectory in batch:
        assert validate_trajectory(trajectory) == []
        assert 2 * len(trajectory.plan.steps) + 2 <= cfg.max_turns + 2


def test_synthesize_batch_on_an_evolved_graph_builds_no_embedding_vector(monkeypatch):
    gateway = mock_gateway(0)
    graph = evolve(build_graph(make_tool_bank(10), GraphConfig(), gateway), 4, EvolveConfig(rng_seed=3), gateway).graph
    assert len(graph) > 10
    counts = count_calls(monkeypatch, vectors=(EmbeddingVector, "__post_init__"))
    batch = synthesize_batch(graph, 3, SamplerConfig(target_range=(2, 4)), SynthesisConfig(rng_seed=9), gateway)
    assert batch and counts == {"vectors": 0}


def test_trajectory_file_roundtrip(env, tmp_path):
    gateway, graph, _ = env
    batch = synthesize_batch(
        graph, 5, SamplerConfig(target_range=(2, 4)), SynthesisConfig(rng_seed=2), gateway
    )
    path = tmp_path / "trajectories.jsonl"
    save_trajectories(batch, path)
    assert load_trajectories(path) == batch


@pytest.mark.parametrize("char", RAW_LINE_BREAKS)
def test_a_trajectory_file_whose_turn_holds_a_raw_line_break_reads_back(env, tmp_path, char):
    gateway, graph, _ = env
    (trajectory,) = synthesize_batch(
        graph, 1, SamplerConfig(target_range=(2, 4)), SynthesisConfig(rng_seed=2), gateway
    )
    turns = (Observation(text=f"{trajectory.turns[0].text}{char}now"), *trajectory.turns[1:])
    batch = [replace(trajectory, turns=turns)]
    save_trajectories(batch, tmp_path / "trajectories.jsonl")
    assert load_trajectories(tmp_path / "trajectories.jsonl") == batch
