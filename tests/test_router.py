"""Decision parsing, embedding/LLM/oracle/random routing, abstention behavior."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_tool_bank, mock_gateway
from toolrouter.gateway import Gateway, TransientBackendError
from toolrouter.backends import MockEmbeddingBackend
from toolrouter.registry import CandidateBank, CandidatePool, serialize_phi, validate_spec
from toolrouter.router import RouterConfig, embedding_route, llm_route, parse_decision, route
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


def test_embedding_route_ranking_and_tie_break():
    gateway = mock_gateway(0)
    decision = embedding_route(gateway, "summarize the support tickets", (), POOL, "q")
    assert decision.chosen == decision.ranking[0][0]
    assert len(decision.ranking) == len(POOL)
    scores = [score for _, score in decision.ranking]
    assert scores == sorted(scores, reverse=True)
    # exact ties order by name
    for (name_a, score_a), (name_b, score_b) in zip(decision.ranking, decision.ranking[1:]):
        if score_a == score_b:
            assert name_a < name_b


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
    assert decision.ranking[0] == (NAMES[3], 1.0)
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


def test_route_no_gateway_abstains():
    decision = route(RouterConfig(variant="llm"), "q", (), POOL, gateway=None)
    assert decision.abstained
