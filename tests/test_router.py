"""Decision parsing, embedding/LLM/oracle/random routing, abstention behavior."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_tool_bank, make_tool_doc, mock_gateway
from toolrouter import registry
from toolrouter.gateway import Gateway, TransientBackendError
from toolrouter.backends import MockEmbeddingBackend, StaticEmbeddingBackend
from toolrouter.graph import cosine_similarity
from toolrouter.registry import CandidateBank, CandidatePool, public_spec, serialize_phi, validate_spec
from toolrouter.router import RouterConfig, embedding_route, llm_route, parse_decision, route
from toolrouter.supervision import InstanceOrigin, RoutingInstance, render_sample
from toolrouter.synthesis import Action, Observation

BANK = make_tool_bank(6)
POOL = CandidatePool.whole_bank(BANK)
NAMES = BANK.names()


def test_router_config_rejects_unknown_variant():
    with pytest.raises(ValueError):
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
    query_vec = gateway.embed_text(query)
    scores = {
        spec.name: cosine_similarity(query_vec, gateway.embed_text(serialize_phi(spec))) for spec in pool.specs()
    }
    best = max(scores.values())
    return min(name for name, score in scores.items() if score == best)


def test_embedding_route_matches_scalar_reference():
    bank = make_tool_bank(40)
    pools = [CandidatePool.whole_bank(bank), CandidatePool(bank=bank, membership=tuple(reversed(bank.names())))]
    for query in ["summarize the support tickets", "archive the email threads", "diff code"]:
        for pool in pools:
            decision = embedding_route(mock_gateway(0), query, (), pool, "q")
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
    assert embedding_route(gateway, "query", (), pool, "q").chosen == "a_tie"


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
    assert embedding_route(gateway, "query", (), pool, "q").chosen == scalar_reference(gateway, "query", pool)


def test_embedding_route_renders_each_phi_text_once(monkeypatch):
    calls = []

    def counting_serialize_phi(spec):
        calls.append(spec.name)
        return serialize_phi(spec)

    monkeypatch.setattr(registry, "serialize_phi", counting_serialize_phi)
    pool = CandidatePool.whole_bank(make_tool_bank(6))  # fresh specs, nothing rendered yet
    gateway = mock_gateway(0)
    for query in ["archive the email threads", "summarize the support tickets", "archive the email threads"]:
        embedding_route(gateway, query, (), pool, "q")
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
        render_sample(instance, "tool")
    assert sorted(calls) == sorted(pool.membership)


def test_embedding_route_scale_invariance():
    # identical pool resolved through a doubled-score embedder is irrelevant here;
    # instead check the argmax is stable across repeated calls (pure function)
    gateway = mock_gateway(0)
    first = embedding_route(gateway, "archive the email threads", (), POOL, "q")
    second = embedding_route(mock_gateway(0), "archive the email threads", (), POOL, "q")
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
    first = embedding_route(gateway, "archive the email threads", (), POOL, "q")
    second = embedding_route(gateway, "summarize the support tickets", (), POOL, "q")
    phi_texts = [serialize_phi(spec) for spec in POOL.specs()]
    assert sorted(backend.sent) == sorted(phi_texts + ["archive the email threads", "summarize the support tickets"])
    assert first == embedding_route(mock_gateway(0), "archive the email threads", (), POOL, "q")
    assert second == embedding_route(mock_gateway(0), "summarize the support tickets", (), POOL, "q")


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
    q_decision = embedding_route(gateway, query, history, pool, "q")
    qh_decision = embedding_route(gateway, query, history, pool, "q_plus_h")
    assert q_decision.chosen == "report_builder"
    assert qh_decision.chosen == "flux_analyzer"


def test_q_plus_h_truncates_oldest_history():
    pool, query, history = divergence_fixture()
    gateway = mock_gateway(0)
    # limit so small only the query survives: behaves like the q variant
    tiny = embedding_route(gateway, query, history, pool, "q_plus_h", max_history_chars=len(query) + 1)
    plain = embedding_route(gateway, query, history, pool, "q")
    assert tiny.chosen == plain.chosen


def test_llm_route_parses_mock_reply():
    gateway = mock_gateway(0)
    cfg = RouterConfig(variant="llm", kind="tool")
    label = NAMES[2]
    decision = llm_route(gateway, f"use {label} for this job", (), POOL, cfg)
    assert decision.chosen == label
    assert not decision.abstained
    assert "<think>" in decision.rationale


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
    assert decision.rationale == "gateway error: backend embedding rows must be flat lists of finite numbers"


@pytest.mark.parametrize("zero", ["query", "candidate"])
def test_route_abstains_on_zero_embedding_row(zero):
    mapping = {spec.phi: (1.0, 0.0) for spec in POOL.specs()}
    mapping["q"] = (0.0, 1.0)
    mapping["q" if zero == "query" else POOL.specs()[0].phi] = (0.0, 0.0)
    gateway = Gateway(embedding_backend=StaticEmbeddingBackend(mapping, dim=2), backoff_s=0.0)
    decision = route(RouterConfig(variant="embedding_q"), "q", (), POOL, gateway)
    assert decision.abstained and decision.chosen is None
    assert decision.rationale == "zero embedding row: cosine similarity of a zero vector is undefined"


def test_route_no_gateway_abstains():
    decision = route(RouterConfig(variant="llm"), "q", (), POOL, gateway=None)
    assert decision.abstained
