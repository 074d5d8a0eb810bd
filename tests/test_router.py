"""Decision parsing, embedding/LLM/oracle/random routing, abstention behavior."""

import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import StaticEmbeddingBackend, count_calls, make_agent_bank, make_tool_bank, make_tool_doc, mock_gateway
from toolrouter import registry, router
from toolrouter.errors import BadConfig
from toolrouter.gateway import ORDERED_LOOP_ROWS, EmbeddingVector, Gateway, TransientBackendError, _unit_rows
from toolrouter.backends import MockEmbeddingBackend
from toolrouter.graph import cosine_similarity
from toolrouter.registry import CandidateBank, CandidatePool, public_spec, serialize_phi, validate_spec
from toolrouter.prompts import ROUTER_SYSTEM_AGENT
from toolrouter.router import VARIANTS, RouterConfig, embedding_route, llm_route, parse_decision, route
from toolrouter.supervision import InstanceOrigin, RoutingInstance, render_sample
from toolrouter.synthesis import Action, CandidateCall, Observation

BANK = make_tool_bank(6)
POOL = CandidatePool.whole_bank(BANK)
NAMES = BANK.names()
TOO_DEEP = sys.getrecursionlimit() + 10  # levels of JSON nesting that json.loads refuses


def test_router_config_rejects_unknown_variant():
    with pytest.raises(BadConfig):
        RouterConfig(variant="nope")


def test_parse_decision_appendix_format():
    reply = f'<think>\nReasoning here...\n</think>\n\n["{NAMES[0]}"]'
    assert parse_decision(reply, POOL) == NAMES[0]


@pytest.mark.parametrize(
    "reply",
    [
        "",
        "no array at all",
        '["a", "b"]',  # two elements
        "[]",
        "[1]",
        '["not_in_pool"]',
        '<think>["%s"]</think>' % "NAME",  # array only inside think block
        pytest.param("[" + "1" * 5000 + "]", id="int-past-the-digit-limit"),  # json.loads raises a plain ValueError
        # objects nested past the recursion limit, as a flat array holds no inner array
        pytest.param("[" + '{"a": ' * TOO_DEEP + "1" + "}" * TOO_DEEP + "]", id="nested-too-deeply"),
    ],
)
def test_parse_decision_abstains(reply):
    reply = reply.replace("NAME", NAMES[0])
    assert parse_decision(reply, POOL) is None


def test_parse_decision_takes_last_array():
    reply = f'["{NAMES[1]}"] and later corrected to ["{NAMES[2]}"]'
    assert parse_decision(reply, POOL) == NAMES[2]


def test_parse_decision_strips_one_think_block():
    reply = f'<think>["{NAMES[0]}"] considered</think> final: ["{NAMES[1]}"]'
    assert parse_decision(reply, POOL) == NAMES[1]


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_parse_decision_total_and_pool_closed(text):
    result = parse_decision(text, POOL)
    assert result is None or result in POOL.membership


def scalar_reference(gateway, query, pool):
    """The smallest name among the maximal scalar cosines."""
    query_vec = gateway.embed_texts([query])[0]
    scores = {
        spec.name: cosine_similarity(query_vec, gateway.embed_texts([serialize_phi(spec)])[0]) for spec in pool.specs()
    }
    best = max(scores.values())
    return min(name for name, score in scores.items() if score == best)


def test_embedding_route_matches_scalar_reference():
    bank = make_tool_bank(40)
    pools = [CandidatePool.whole_bank(bank), CandidatePool(bank=bank, membership=tuple(reversed(bank.names())))]
    for query in ["summarize the support tickets", "archive the email threads", "diff code"]:
        for pool in pools:
            decision = embedding_route(mock_gateway(0), query, (), pool)
            assert decision.chosen == scalar_reference(mock_gateway(0), query, pool)


def test_embedding_route_exact_tie_goes_to_smallest_name():
    names = ["b_tie", "a_tie", "c_far"]
    specs = {name: validate_spec({**make_tool_doc(i), "name": name}, "tool") for i, name in enumerate(names)}
    vectors = {"b_tie": (0.6, 0.8), "a_tie": (0.6, 0.8), "c_far": (0.8, 0.6)}
    mapping = {serialize_phi(spec): vectors[name] for name, spec in specs.items()}
    mapping["query"] = (0.0, 1.0)
    bank = CandidateBank(kind="tool", entries=tuple(specs.values()))
    pool = CandidatePool(bank=bank, membership=("c_far", "b_tie", "a_tie"))  # the smaller name comes last
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim=2), backoff_s=0.0)
    assert embedding_route(gateway, "query", (), pool).chosen == "a_tie"


NEAR_TIE_BANK = make_tool_bank(12)
_SMALL_ROWS = st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any)


@settings(max_examples=200, deadline=None)
@given(
    query=_SMALL_ROWS,
    rows=st.lists(_SMALL_ROWS, min_size=1, max_size=6),
    planted=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), max_size=6),
    order=st.randoms(use_true_random=False),
)
def test_embedding_route_matches_scalar_reference_on_near_ties(query, rows, planted, order):
    # duplicates (scale 1) tie exactly; scaled copies tie up to the last bit of their norms
    rows = rows + [[scale * x for x in rows[index % len(rows)]] for index, scale in planted]
    membership = list(NEAR_TIE_BANK.names()[: len(rows)])
    mapping = {NEAR_TIE_BANK.get(name).phi: row for name, row in zip(membership, rows)}
    mapping["query"] = query
    order.shuffle(membership)
    pool = CandidatePool(bank=NEAR_TIE_BANK, membership=tuple(membership))
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim=3), backoff_s=0.0)
    assert embedding_route(gateway, "query", (), pool).chosen == scalar_reference(gateway, "query", pool)


LOOP_BANK = make_tool_bank(ORDERED_LOOP_ROWS + 40)


@pytest.mark.parametrize("seed", range(12))
def test_embedding_route_matches_scalar_reference_on_the_column_loop(seed):
    # a pool long enough that scoring adds the columns in a loop, with rows whose
    # sums depend on the order of the additions; the query's own row is planted
    # as exact duplicates and as scaled copies, which tie up to the last bit
    rng = random.Random(seed)
    rows = [[rng.uniform(-1, 1) for _ in range(16)] for _ in range(len(LOOP_BANK) - 6)]
    query = rows[0]
    rows += [[scale * x for x in query] for scale in (1, 1, 3, 5, 7, 0.1)]
    membership = list(LOOP_BANK.names())
    mapping = {LOOP_BANK.get(name).phi: row for name, row in zip(membership, rows)}
    mapping["query"] = query
    rng.shuffle(membership)
    pool = CandidatePool(bank=LOOP_BANK, membership=tuple(membership))
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim=16), backoff_s=0.0)
    assert len(pool) >= ORDERED_LOOP_ROWS
    assert embedding_route(gateway, "query", (), pool).chosen == scalar_reference(gateway, "query", pool)


SCREENED_BANKS = {n: make_tool_bank(n) for n in (ORDERED_LOOP_ROWS, 4000)}


def vector(row) -> EmbeddingVector:
    return EmbeddingVector(values=row, model_id="static-embed")


def last_bit_twins(row: np.ndarray, query: np.ndarray) -> list[np.ndarray]:
    """Copies of ``row`` with one value moved by one ulp whose float32 unit
    row is ``row``'s but whose scalar cosine with ``query`` is not."""
    unit, cosine = _unit_rows(row, np.linalg.norm(row)), cosine_similarity(vector(row), vector(query))
    twins = []
    for at, direction in itertools.product(range(len(row)), (-np.inf, np.inf)):
        twin = row.copy()
        twin[at] = np.nextafter(twin[at], direction)
        if (_unit_rows(twin, np.linalg.norm(twin)) == unit).all():
            if cosine_similarity(vector(twin), vector(query)) != cosine:
                twins.append(twin)
    return twins


@pytest.mark.parametrize(
    "shape, form", [((64,), np.float64), ((64,), np.asarray), ((5, 64), np.asarray)], ids=["0-d scalar", "0-d", "1-d"]
)
def test_unit_rows_equal_the_expand_dims_form_bit_for_bit(shape, form):
    rng = np.random.default_rng(5)
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
    norms = form(np.linalg.norm(rows, axis=-1))
    expected = (rows / np.expand_dims(norms, -1)).astype(np.float32)
    unit = _unit_rows(rows, norms)
    assert unit.dtype == expected.dtype and unit.shape == expected.shape
    assert unit.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", list(SCREENED_BANKS))
def test_embedding_route_over_a_kept_pool_matches_scalar_reference(n, reverse, seed):
    # the float32 screen cannot rank the planted rows: exact duplicates of the
    # best, twins equal to it in float32 but one bit off in float64, and copies
    # moved by about float32's resolution; the exact scores must decide
    rng = np.random.default_rng(seed)
    query = rng.standard_normal(16)
    near = query + 1e-3 * rng.standard_normal(16)
    twins = last_bit_twins(near, query)
    assert twins
    planted = [near, *twins, *(near + 1e-7 * rng.standard_normal((40, 16)))]
    best = max(planted, key=lambda row: cosine_similarity(vector(row), vector(query)))
    rows = [*rng.standard_normal((n - len(planted) - 2, 16)), *planted, best.copy(), best.copy()]
    rng.shuffle(rows)
    bank = SCREENED_BANKS[n]
    mapping = {spec.phi: row.tolist() for spec, row in zip(bank, rows)}
    mapping["query"] = query.tolist()
    scores = {spec.name: cosine_similarity(vector(row), vector(query)) for spec, row in zip(bank, rows)}
    top = max(scores.values())
    expected = min(name for name, score in scores.items() if score == top)
    assert sum(score == top for score in scores.values()) >= 3
    membership = bank.names()[::-1] if reverse else bank.names()
    pool = CandidatePool(bank=bank, membership=membership)
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim=16), backoff_s=0.0)
    for _ in range(2):  # the cold route gathers and keeps the pool, the warm one reads it
        assert embedding_route(gateway, "query", (), pool).chosen == expected


def test_warm_embedding_route_builds_no_vector_and_calls_no_backend(monkeypatch):
    pool = CandidatePool.whole_bank(make_tool_bank(2005))
    gateway = mock_gateway(0)
    cfg = RouterConfig(variant="embedding_q")
    first = route(cfg, "archive the email threads", (), pool, gateway)
    counts = count_calls(
        monkeypatch,
        vectors=(EmbeddingVector, "__post_init__"),
        backend=(MockEmbeddingBackend, "embed"),
        specs=(CandidatePool, "specs"),
    )
    assert route(cfg, "archive the email threads", (), pool, gateway) == first
    assert counts == {"vectors": 0, "backend": 0, "specs": 0}


def test_cold_embedding_route_builds_no_vector_and_calls_the_backend_once(monkeypatch):
    pool = CandidatePool.whole_bank(make_tool_bank(2005))
    cfg = RouterConfig(variant="embedding_q")
    warm_gateway = mock_gateway(0)
    warm_gateway.embed_texts(["archive the email threads", *pool.phi_texts])
    counts = count_calls(monkeypatch, vectors=(EmbeddingVector, "__post_init__"), backend=(MockEmbeddingBackend, "embed"))
    cold = route(cfg, "archive the email threads", (), pool, mock_gateway(0))
    assert counts == {"vectors": 0, "backend": 1}
    assert cold == route(cfg, "archive the email threads", (), pool, warm_gateway)


def test_embedding_route_renders_each_phi_text_once(monkeypatch):
    calls = []

    def counting_serialize_phi(spec):
        calls.append(spec.name)
        return serialize_phi(spec)

    monkeypatch.setattr(registry, "serialize_phi", counting_serialize_phi)
    pool = CandidatePool.whole_bank(make_tool_bank(6))  # fresh specs, nothing rendered yet
    gateway = mock_gateway(0)
    for query in ["archive the email threads", "summarize the support tickets", "archive the email threads"]:
        embedding_route(gateway, query, (), pool)
    assert sorted(calls) == sorted(pool.membership)


def test_pool_block_renders_each_public_document_once(monkeypatch):
    calls = []

    def counting_public_spec(spec):
        calls.append(spec.name)
        return public_spec(spec)

    monkeypatch.setattr(registry, "public_spec", counting_public_spec)
    pool = CandidatePool.whole_bank(make_tool_bank(6))  # fresh specs, nothing rendered yet
    gateway, cfg = mock_gateway(0), RouterConfig(variant="llm", kind="tool")
    for step, query in enumerate(["archive the email threads", "summarize the support tickets"] * 2):
        llm_route(gateway, query, (), pool, cfg)
        instance = RoutingInstance(query, (), pool, pool.membership[step], InstanceOrigin("t", step))
        render_sample(instance)
    assert sorted(calls) == sorted(pool.membership)


def test_embedding_route_scale_invariance():
    # identical pool resolved through a doubled-score embedder is irrelevant here;
    # instead check the argmax is stable across repeated calls (pure function)
    gateway = mock_gateway(0)
    first = embedding_route(gateway, "archive the email threads", (), POOL)
    second = embedding_route(mock_gateway(0), "archive the email threads", (), POOL)
    assert first == second


def test_embedding_route_embeds_each_pool_text_once():
    class CountingMock(MockEmbeddingBackend):
        def __init__(self) -> None:
            super().__init__(seed=0)
            self.sent: list[str] = []

        def embed(self, texts):
            self.sent.extend(texts)
            return super().embed(texts)

    backend = CountingMock()
    gateway = Gateway(embedding_backend=backend, backoff_s=0.0)
    first = embedding_route(gateway, "archive the email threads", (), POOL)
    second = embedding_route(gateway, "summarize the support tickets", (), POOL)
    phi_texts = [serialize_phi(spec) for spec in POOL.specs()]
    assert sorted(backend.sent) == sorted(phi_texts + ["archive the email threads", "summarize the support tickets"])
    assert first == embedding_route(mock_gateway(0), "archive the email threads", (), POOL)
    assert second == embedding_route(mock_gateway(0), "summarize the support tickets", (), POOL)


def divergence_fixture():
    a = validate_spec(
        {
            "name": "report_builder",
            "description": "Build a concise report summary document from notes.",
            "inputSchema": {
                "type": "object",
                "properties": {"notes": {"type": "string", "description": "Notes."}},
            },
            "tags": ["docs"],
        },
        "tool",
    )
    b = validate_spec(
        {
            "name": "flux_analyzer",
            "description": "Analyze zebra quantum flux readings and calibrate the flux sensor.",
            "inputSchema": {
                "type": "object",
                "properties": {"readings": {"type": "string", "description": "Readings."}},
            },
            "tags": ["sensors"],
        },
        "tool",
    )
    pool = CandidatePool.whole_bank(CandidateBank(kind="tool", entries=(a, b)))
    query = "please build a concise report summary document"
    history = (
        Observation(text="We measured zebra quantum flux readings on the flux sensor."),
        Action(text="Calibrating the zebra quantum flux sensor with the flux readings.", calls=()),
    )
    return pool, query, history


def test_q_vs_q_plus_h_divergence():
    pool, query, history = divergence_fixture()
    gateway = mock_gateway(0)
    q_decision = embedding_route(gateway, query, (), pool)
    qh_decision = embedding_route(gateway, query, history, pool)
    assert q_decision.chosen == "report_builder"
    assert qh_decision.chosen == "flux_analyzer"


def test_q_plus_h_truncates_oldest_history(monkeypatch):
    pool, query, history = divergence_fixture()
    gateway = mock_gateway(0)
    # limit so small only the query survives: behaves like the q variant
    monkeypatch.setattr(router, "MAX_HISTORY_CHARS", len(query) + 1)
    tiny = embedding_route(gateway, query, history, pool)
    plain = embedding_route(gateway, query, (), pool)
    assert tiny.chosen == plain.chosen


def test_llm_route_parses_mock_reply():
    gateway = mock_gateway(0)
    cfg = RouterConfig(variant="llm", kind="tool")
    label = NAMES[2]
    decision = llm_route(gateway, f"use {label} for this job", (), POOL, cfg)
    assert decision.chosen == label
    assert not decision.abstained
    assert "<think>" in decision.rationale


def test_routes_over_agents_are_worded_for_agents(monkeypatch):
    pool = CandidatePool.whole_bank(make_agent_bank(4))
    call = CandidateCall(name=pool.membership[1], arguments={}, simulated_result="done")
    history = (Observation(text="Plan the rollout."), Action(text="Delegating.", calls=(call,)))
    gateway = mock_gateway(0)
    requests, request_texts = [], []
    chat, most_similar = gateway.chat, gateway.most_similar
    monkeypatch.setattr(gateway, "chat", lambda request: requests.append(request) or chat(request))
    monkeypatch.setattr(
        gateway, "most_similar", lambda text, texts: request_texts.append(text) or most_similar(text, texts)
    )
    for variant in ("llm", "embedding_qh"):
        route(RouterConfig(variant=variant, kind="agent"), "roll it out", history, pool, gateway)
    ((system, user),) = [[message.content for message in request.messages] for request in requests]
    assert system == ROUTER_SYSTEM_AGENT
    (request_text,) = request_texts
    for text in (user, request_text):
        assert f"<agent_call>{call.name}" in text and "<tool_call>" not in text


@pytest.mark.parametrize("variant", VARIANTS)
def test_route_refuses_a_config_of_the_other_kind(variant):
    agents = CandidatePool.whole_bank(make_agent_bank(3))
    for cfg, pool in ((RouterConfig(variant=variant), agents), (RouterConfig(variant=variant, kind="agent"), POOL)):
        with pytest.raises(BadConfig, match="cannot route"):
            route(cfg, "q", (), pool, mock_gateway(0), oracle_label=pool.membership[0])


def test_llm_route_abstains_on_unparseable_reply():
    class GarbageChat:
        model_id = "garbage"

        def complete(self, request):
            return "utter nonsense without any array"

    gateway = Gateway(chat_backend=GarbageChat(), backoff_s=0.0)
    decision = llm_route(gateway, "query", (), POOL, RouterConfig(variant="llm", kind="tool"))
    assert decision.abstained and decision.chosen is None
    assert decision.rationale == "utter nonsense without any array"


def test_route_oracle():
    cfg = RouterConfig(variant="oracle")
    decision = route(cfg, "q", (), POOL, oracle_label=NAMES[3])
    assert decision.chosen == NAMES[3]
    assert route(cfg, "q", (), POOL, oracle_label=None).abstained
    assert route(cfg, "q", (), POOL, oracle_label="missing").abstained


def test_route_random_seeded():
    cfg = RouterConfig(variant="random", rng_seed=4)
    first = route(cfg, "q", (), POOL)
    second = route(cfg, "q", (), POOL)
    assert first.chosen in POOL.membership
    assert first == second  # fresh Random(seed) per call
    shared = random.Random(4)
    picks = {route(cfg, "q", (), POOL, rng=shared).chosen for _ in range(50)}
    assert picks == set(POOL.membership)  # a shared rng covers the pool


def test_route_gateway_failure_becomes_abstention():
    class DeadEmbed:
        model_id = "dead"
        dim = 4

        def embed(self, texts):
            raise TransientBackendError("offline")

    gateway = Gateway(embedding_backend=DeadEmbed(), max_retries=0, backoff_s=0.0)
    decision = route(RouterConfig(variant="embedding_q"), "q", (), POOL, gateway)
    assert decision.abstained and decision.chosen is None


@pytest.mark.parametrize("row", [["x", 1.0], [None, 1.0], [float("nan"), 1.0]])
def test_route_abstains_on_malformed_embedding_row(row):
    mapping = {spec.phi: (1.0, 0.0) for spec in POOL.specs()}
    mapping[POOL.specs()[0].phi] = row
    mapping["q"] = (0.0, 1.0)
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim=2), backoff_s=0.0)
    decision = route(RouterConfig(variant="embedding_q"), "q", (), POOL, gateway)
    assert decision.abstained and decision.chosen is None
    if isinstance(row[0], float):  # a NaN value gives the row a NaN norm, whose message names the text
        assert decision.rationale == (
            f"gateway error: embedding of {POOL.specs()[0].phi!r} has norm nan; a cosine needs a finite, nonzero norm"
        )
    else:
        assert decision.rationale == "gateway error: backend embedding rows must be flat lists of finite numbers"


@pytest.mark.parametrize("bad", ["query", "candidate", "overflow"])
def test_route_abstains_on_zero_embedding_row(bad):
    mapping = {spec.phi: (1.0, 0.0) for spec in POOL.specs()}
    mapping["q"] = (0.0, 1.0)
    text, norm = ("q" if bad == "query" else POOL.specs()[0].phi), 0.0
    mapping[text] = (0.0, 0.0)
    if bad == "overflow":  # every row's norm overflows, so no score is a number
        mapping, text, norm = dict.fromkeys(mapping, (1e200, 1e200)), "q", math.inf
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim=2), backoff_s=0.0)
    decision = route(RouterConfig(variant="embedding_q"), "q", (), POOL, gateway)
    assert decision.abstained and decision.chosen is None
    assert decision.rationale == (
        f"gateway error: embedding of {text!r} has norm {norm}; a cosine needs a finite, nonzero norm"
    )


def test_route_no_gateway_abstains():
    decision = route(RouterConfig(variant="llm"), "q", (), POOL, gateway=None)
    assert decision.abstained
