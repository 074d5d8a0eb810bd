"""Gateway retry/budget/cache behavior and the deterministic mock backends."""

import math

import pytest

from helpers import mock_gateway
from toolrouter.backends import MockChatBackend, MockEmbeddingBackend, StaticEmbeddingBackend
from toolrouter.errors import BackendUnavailable, BudgetExceeded, DimensionMismatch, RetriesExhausted
from toolrouter.gateway import ChatMessage, ChatRequest, Gateway, TransientBackendError, user_request
from toolrouter import prompts


class FlakyChat:
    model_id = "flaky"

    def __init__(self, fail_times: int) -> None:
        self.fail_times = fail_times
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise TransientBackendError("boom")
        return "ok"


class FlakyEmbed:
    model_id = "flaky-embed"
    dim = 2

    def __init__(self, fail_times: int, rows=None) -> None:
        self.fail_times = fail_times
        self.calls = 0
        self.rows = rows

    def embed(self, texts):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise TransientBackendError("boom")
        if self.rows is not None:
            return self.rows
        return [[1.0, 0.0] for _ in texts]


def test_chat_request_invariants():
    with pytest.raises(ValueError):
        ChatRequest(messages=())
    with pytest.raises(ValueError):
        ChatRequest(messages=(ChatMessage("assistant", "hi"),))
    with pytest.raises(ValueError):
        user_request("hi", temperature=-1)
    with pytest.raises(ValueError):
        user_request("hi", max_tokens=0)


def test_chat_retries_then_succeeds():
    backend = FlakyChat(fail_times=2)
    gateway = Gateway(chat_backend=backend, max_retries=3, backoff_s=0.0)
    assert gateway.chat(user_request("hello")) == "ok"
    assert backend.calls == 3
    assert gateway.usage.chat_calls == 1


def test_chat_retries_exhausted_is_backend_unavailable():
    gateway = Gateway(chat_backend=FlakyChat(fail_times=99), max_retries=2, backoff_s=0.0)
    with pytest.raises(RetriesExhausted) as excinfo:
        gateway.chat(user_request("hello"))
    assert isinstance(excinfo.value, BackendUnavailable)
    assert str(excinfo.value) == "chat failed after 3 attempts: boom"


def test_embedding_retries_exhausted_names_the_call():
    backend = FlakyEmbed(fail_times=99)
    gateway = Gateway(embedding_backend=backend, max_retries=1, backoff_s=0.0)
    with pytest.raises(RetriesExhausted, match=r"^embedding failed after 2 attempts: boom$"):
        gateway.embed_texts(["a"])
    assert backend.calls == 2


def test_chat_budget_enforced():
    gateway = Gateway(chat_backend=FlakyChat(fail_times=0), max_chat_calls=1, backoff_s=0.0)
    gateway.chat(user_request("one"))
    with pytest.raises(BudgetExceeded):
        gateway.chat(user_request("two"))


def test_chat_cache_hits_do_not_consume_budget():
    backend = FlakyChat(fail_times=0)
    gateway = Gateway(chat_backend=backend, max_chat_calls=1, cache=True, backoff_s=0.0)
    request = user_request("same text")
    first = gateway.chat(request)
    second = gateway.chat(request)
    assert first == second == "ok"
    assert backend.calls == 1
    assert gateway.usage.chat_calls == 1


def test_usage_tracks_approx_tokens():
    gateway = Gateway(chat_backend=FlakyChat(fail_times=0), backoff_s=0.0)
    gateway.chat(user_request("x" * 400))
    assert gateway.usage.approx_tokens >= 100


def test_embed_retries_and_all_or_error():
    backend = FlakyEmbed(fail_times=1)
    gateway = Gateway(embedding_backend=backend, max_retries=2, backoff_s=0.0)
    vectors = gateway.embed_texts(["a", "b"])
    assert len(vectors) == 2 and vectors[0].dim == 2

    short = FlakyEmbed(fail_times=0, rows=[[1.0, 0.0]])
    gateway = Gateway(embedding_backend=short, backoff_s=0.0)
    with pytest.raises(DimensionMismatch):
        gateway.embed_texts(["a", "b"])

    ragged = FlakyEmbed(fail_times=0, rows=[[1.0, 0.0], [1.0]])
    gateway = Gateway(embedding_backend=ragged, backoff_s=0.0)
    with pytest.raises(DimensionMismatch):
        gateway.embed_texts(["a", "b"])


def test_mock_embedder_unit_norm_and_determinism():
    backend = MockEmbeddingBackend(seed=1)
    texts = ["alpha beta gamma", "alpha beta gamma", "completely different words", ""]
    rows = backend.embed(texts)
    for row in rows:
        assert math.isclose(math.sqrt(sum(v * v for v in row)), 1.0, rel_tol=1e-9)
    assert rows[0] == rows[1]
    assert rows[0] != rows[2]
    # fresh instance, same seed: identical vectors
    assert MockEmbeddingBackend(seed=1).embed(texts) == rows
    # different seed: different vectors
    assert MockEmbeddingBackend(seed=2).embed(texts[:1]) != rows[:1]


def test_mock_embedder_token_overlap_raises_cosine():
    backend = MockEmbeddingBackend(seed=0)
    a, b, c = backend.embed(
        [
            "search the filesystem tree for files",
            "search the filesystem tree for folders",
            "calibrate the espresso machine boiler",
        ]
    )
    dot = lambda x, y: sum(p * q for p, q in zip(x, y))
    assert dot(a, b) > dot(a, c)


def test_static_embedder_requires_known_text():
    backend = StaticEmbeddingBackend({"known": [1.0, 0.0]}, dim=2)
    assert backend.embed(["known"]) == [[1.0, 0.0]]
    with pytest.raises(TransientBackendError):
        backend.embed(["unknown"])


def test_mock_chat_pure_function_of_seed_and_request():
    request = user_request(
        prompts.TASK_PROPOSAL_TEMPLATE.replace(
            "<<CANDIDATES_JSON>>", '[{"name": "tool_a"}, {"name": "tool_b"}]'
        )
    )
    reply_a = MockChatBackend(seed=5).complete(request)
    reply_b = MockChatBackend(seed=5).complete(request)
    reply_c = MockChatBackend(seed=6).complete(request)
    assert reply_a == reply_b
    assert reply_a != reply_c
    assert "tool_a" in reply_a and "tool_b" in reply_a


def test_mock_chat_rejects_unknown_prompt_kind():
    with pytest.raises(TransientBackendError):
        MockChatBackend(seed=0).complete(user_request("unrecognized prompt"))


def test_mock_gateway_helper_is_deterministic():
    text = "the same embedding text"
    assert mock_gateway(3).embed_text(text) == mock_gateway(3).embed_text(text)
