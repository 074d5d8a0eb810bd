"""Model replies of the wrong shape: each is re-asked, discarded or taken as
the final answer, never a traceback, and never a trajectory that the
trajectory file refuses."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import make_tool_bank, mock_gateway
from toolrouter import prompts
from toolrouter.backends import MockChatBackend, MockEmbeddingBackend
from toolrouter.errors import ToolRouterError
from toolrouter.gateway import Gateway
from toolrouter.graph import GraphConfig, build_graph
from toolrouter.lra import ExecutorBinding, GatewayReasoner, run_episode
from toolrouter.mutation import EvolveConfig, evolve
from toolrouter.registry import CandidatePool
from toolrouter.router import RouterConfig
from toolrouter.sampler import SamplerConfig
from toolrouter.synthesis import SynthesisConfig, load_trajectories, save_trajectories, synthesize_batch

BANK = make_tool_bank(10)
POOL = CandidatePool.whole_bank(BANK)

# reply slot -> the marker of the prompts whose replies fill it
SLOTS = {
    "plan": prompts.TASK_PROPOSAL_MARKER,
    "assistant": prompts.ASSISTANT_TURN_MARKER,
    "mutant": prompts.TOOL_MUTATION_MARKER,
    "reasoner": prompts.LRA_REASONER_MARKER,
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
WRONG_VALUES = st.one_of(st.sampled_from([5, 1.5, True, None, "abc", "", [], [1], [None], {}, {"a": 1}]), _JSON)
MISSING = object()  # a WrongShapeChat value: leave the key at the path out


def json_paths(value, path=()):
    """The path of ``value`` and of every value nested in it, as tuples of keys and list indices."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from json_paths(item, (*path, key))


class WrongShapeChat(MockChatBackend):
    """The mock chat backend, except that in one slot it replaces one value of
    the mock's reply: in the ``nth`` reply of the slot, or in each one when
    ``nth`` is None. ``path`` is the value's path, or an int that picks one
    of the reply's paths; the value MISSING leaves the key out."""

    def __init__(self, slot, path, value, nth=None):
        super().__init__(seed=0)
        self.marker, self.path, self.value, self.nth, self.seen = SLOTS[slot], path, value, nth, 0

    def complete(self, request):
        reply = super().complete(request)
        if self.marker not in request.messages[-1].content:
            return reply
        self.seen += 1
        if self.nth is not None and self.seen != self.nth + 1:
            return reply
        document = json.loads(reply)
        paths = list(json_paths(document))
        path = self.path if isinstance(self.path, tuple) else paths[self.path % len(paths)]
        if not path:
            return json.dumps(self.value)
        document = copy.deepcopy(document)
        target = document
        for key in path[:-1]:
            target = target[key]
        if self.value is MISSING:
            del target[path[-1]]
        else:
            target[path[-1]] = self.value
        return json.dumps(document)


@pytest.fixture(scope="module")
def graph():
    return build_graph(BANK, GraphConfig(), mock_gateway(0))


def kept_trajectories_round_trip(graph, gateway, path):
    """Synthesize a batch and check that the trajectory file takes back every trajectory kept."""
    batch = synthesize_batch(graph, 3, SamplerConfig(target_range=(2, 3)), SynthesisConfig(rng_seed=1), gateway)
    save_trajectories(batch, path)
    assert load_trajectories(path) == batch
    return batch


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    slot=st.sampled_from(sorted(SLOTS)),
    pick=st.integers(0, 10**6),
    value=WRONG_VALUES,
    nth=st.none() | st.integers(0, 3),
)
def test_wrong_shaped_reply_ends_in_a_typed_outcome(graph, tmp_path, slot, pick, value, nth):
    gateway = Gateway(
        chat_backend=WrongShapeChat(slot, pick, value, nth), embedding_backend=MockEmbeddingBackend(0), backoff_s=0.0
    )
    runs = (
        lambda: kept_trajectories_round_trip(graph, gateway, tmp_path / "trajectories.jsonl"),
        lambda: evolve(graph, 3, EvolveConfig(rng_seed=1), gateway),
        lambda: run_episode(
            "summarise the report", POOL, RouterConfig(variant="embedding_q"), ExecutorBinding.mock_for(POOL),
            GatewayReasoner(gateway), gateway=gateway,
        ),
    )  # fmt: skip
    for run in runs:
        try:
            run()
        except ToolRouterError:
            pass


# (slot, path, value): a plan or assistant reply that is valid JSON of the wrong shape
REPLY_CASES = [
    ("plan", ("steps",), "abc"),
    ("plan", ("steps",), [1]),
    ("plan", ("task",), 5),
    ("plan", ("steps", 0, "goal"), 5),
    ("plan", ("steps", 0, "goal"), MISSING),
    ("assistant", ("calls",), 5),
    ("assistant", ("calls",), [7]),
    ("assistant", ("calls", 0, "arguments"), 3),
    ("assistant", ("assistant",), 5),
]


@pytest.mark.parametrize(
    "slot, path, value",
    REPLY_CASES,
    ids=[f"{slot}:{'/'.join(map(str, path))}={'missing' if value is MISSING else value}" for slot, path, value in REPLY_CASES],
)
def test_plan_reply_is_re_asked_and_assistant_reply_discarded(graph, tmp_path, slot, path, value):
    """A wrong plan reply is asked again, and the plan that follows is kept;
    a wrong assistant reply discards its sample, and the next sample is kept."""
    backend = WrongShapeChat(slot, path, value, nth=0)
    gateway = Gateway(chat_backend=backend, embedding_backend=MockEmbeddingBackend(0), backoff_s=0.0)
    plain = mock_gateway(0)
    batch = kept_trajectories_round_trip(graph, gateway, tmp_path / "trajectories.jsonl")
    expected = kept_trajectories_round_trip(graph, plain, tmp_path / "plain.jsonl")
    assert backend.seen > 1 and len(batch) == len(expected)
    if slot == "plan":  # one more chat call: the plan asked again
        assert batch == expected and gateway.usage.chat_calls == plain.usage.chat_calls + 1
    else:
        assert [t.plan for t in batch[:-1]] == [t.plan for t in expected[1:]] and batch[-1].plan != expected[0].plan
