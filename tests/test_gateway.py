"""Gateway retries, budget and embedding memo, and the deterministic mock backends."""

import json
import math

import numpy as np
import pytest
import requests

from helpers import StaticEmbeddingBackend, count_calls, make_tool_bank, mock_gateway
from toolrouter.backends import (
    HTTPChatBackend,
    HTTPEmbeddingBackend,
    MockChatBackend,
    MockEmbeddingBackend,
)
from toolrouter.errors import (
    BackendUnavailable,
    BudgetExceeded,
    DimensionMismatch,
    MalformedEmbedding,
    RetriesExhausted,
)
from toolrouter.gateway import (
    ORDERED_LOOP_ROWS,
    ChatMessage,
    ChatRequest,
    EmbeddingVector,
    Gateway,
    TransientBackendError,
    user_request,
)
from toolrouter import prompts
from toolrouter.registry import CandidatePool
from toolrouter.router import RouterConfig, embedding_route, route


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


class FakeSession:
    """Stands in for requests.Session: records each POST and answers one status."""

    status = 200
    body: dict = {}
    instances: list = []

    def __init__(self) -> None:
        self.headers: dict[str, str] = {}
        self.posts: list[tuple] = []
        FakeSession.instances.append(self)

    def post(self, url, **kwargs):
        self.posts.append((url, kwargs["json"], kwargs["timeout"]))
        response = requests.Response()
        response.status_code = self.status
        response._content = json.dumps(self.body).encode()
        return response


HTTP_CALLS = {
    "chat": (
        lambda: HTTPChatBackend("http://127.0.0.1:9/v1/", "chat-model", timeout_s=5.0),
        lambda gateway, text="hello": gateway.chat(user_request(text)),
        {"choices": [{"message": {"content": "hi there"}}]},
        "hi there",
    ),
    "embedding": (
        lambda: HTTPEmbeddingBackend("http://127.0.0.1:9/v1/", "embed-model", dim=2, timeout_s=5.0),
        lambda gateway, text="hello": [tuple(vector.values.tolist()) for vector in gateway.embed_texts([text])],
        {"data": [{"embedding": [0.6, 0.8]}]},
        [(0.6, 0.8)],
    ),
}


@pytest.fixture()
def fake_session(monkeypatch):
    monkeypatch.setattr(requests, "Session", FakeSession)
    monkeypatch.setattr(requests, "post", None)  # every POST goes through the session
    monkeypatch.setattr(FakeSession, "instances", [])
    monkeypatch.setenv("TOOLROUTER_API_KEY", "sekrit")
    return FakeSession


def _http_gateway(what, max_retries=2):
    make_backend = HTTP_CALLS[what][0]
    backend = make_backend()
    if what == "chat":
        return Gateway(chat_backend=backend, max_retries=max_retries, backoff_s=0.0)
    return Gateway(embedding_backend=backend, max_retries=max_retries, backoff_s=0.0)


@pytest.mark.parametrize("what", sorted(HTTP_CALLS))
def test_http_backend_posts_through_one_session(fake_session, monkeypatch, what):
    _, call, body, expected = HTTP_CALLS[what]
    monkeypatch.setattr(fake_session, "body", body)
    gateway = _http_gateway(what)
    assert call(gateway) == expected
    assert call(gateway, "hello again") == expected  # a new text, so the memo does not answer it
    (session,) = fake_session.instances
    assert session.headers["Authorization"] == "Bearer sekrit"
    assert len(session.posts) == 2
    url, _, timeout = session.posts[0]
    assert url.startswith("http://127.0.0.1:9/v1/") and "//" not in url[len("http://"):]
    assert timeout == 5.0
    # the backend names its own model in every payload
    model = {"chat": "chat-model", "embedding": "embed-model"}[what]
    assert [payload["model"] for _, payload, _ in session.posts] == [model, model]


@pytest.mark.parametrize("what", sorted(HTTP_CALLS))
@pytest.mark.parametrize("status, attempts", [(400, 1), (404, 1), (408, 3), (429, 3), (503, 3)])
def test_http_4xx_is_not_retried(fake_session, monkeypatch, what, status, attempts):
    monkeypatch.setattr(fake_session, "status", status)
    gateway = _http_gateway(what, max_retries=2)
    with pytest.raises(BackendUnavailable) as excinfo:
        HTTP_CALLS[what][1](gateway)
    assert isinstance(excinfo.value, RetriesExhausted) == (attempts > 1)
    assert str(status) in str(excinfo.value)
    (session,) = fake_session.instances
    assert len(session.posts) == attempts


@pytest.mark.parametrize("content", [None, 5, ["hi"]])
def test_http_chat_reply_without_string_content_is_retried(fake_session, monkeypatch, content):
    monkeypatch.setattr(fake_session, "body", {"choices": [{"message": {"content": content}}]})
    gateway = _http_gateway("chat", max_retries=2)
    with pytest.raises(RetriesExhausted, match="chat reply content must be str"):
        HTTP_CALLS["chat"][1](gateway)
    (session,) = fake_session.instances
    assert len(session.posts) == 3


def test_chat_budget_enforced():
    gateway = Gateway(chat_backend=FlakyChat(fail_times=0), max_chat_calls=1, backoff_s=0.0)
    gateway.chat(user_request("one"))
    with pytest.raises(BudgetExceeded):
        gateway.chat(user_request("two"))


def test_chat_is_never_cached():
    backend = FlakyChat(fail_times=0)
    gateway = Gateway(chat_backend=backend, backoff_s=0.0)
    request = user_request("same text", temperature=0.8)
    gateway.chat(request)
    gateway.chat(request)
    assert backend.calls == 2
    assert gateway.usage.chat_calls == 2


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


class CountingEmbed:
    """Embeds a text as (len(text), 1.0) and records every batch it is sent."""

    model_id = "counting-embed"
    dim = 2

    def __init__(self) -> None:
        self.batches: list[list[str]] = []

    def embed(self, texts):
        self.batches.append(list(texts))
        return [[float(len(text)), 1.0] for text in texts]


def test_embed_memo_sends_each_distinct_text_once():
    backend = CountingEmbed()
    gateway = Gateway(embedding_backend=backend, backoff_s=0.0)
    gateway.embed_texts(["bb", "a", "bb", "ccc", "a"])
    gateway.embed_texts(["ccc", "dddd", "a", "dddd"])
    gateway.embed_texts(["bb"])
    assert backend.batches == [["bb", "a", "ccc"], ["dddd"]]
    assert gateway.usage.embed_calls == 2


def test_embed_memo_returns_vectors_in_input_order():
    gateway = Gateway(embedding_backend=CountingEmbed(), backoff_s=0.0)
    gateway.embed_texts(["ccc", "a"])
    texts = ["a", "dddd", "ccc", "a", "bb"]
    vectors = gateway.embed_texts(texts)
    assert [tuple(vector.values.tolist()) for vector in vectors] == [(float(len(text)), 1.0) for text in texts]
    assert {vector.model_id for vector in vectors} == {"counting-embed"}


@pytest.mark.parametrize(
    "backend, error",
    [
        (FlakyEmbed(fail_times=99), RetriesExhausted),
        (FlakyEmbed(fail_times=0, rows=[[0.0, 1.0]]), DimensionMismatch),
        (FlakyEmbed(fail_times=0, rows=[[1.0, 0.0], [1.0]]), DimensionMismatch),
        (FlakyEmbed(fail_times=0, rows=[[1.0, 0.0], ["x", 1.0]]), MalformedEmbedding),
        (FlakyEmbed(fail_times=0, rows=[[1.0, 0.0], [None, 1.0]]), MalformedEmbedding),
        (FlakyEmbed(fail_times=0, rows=[[1.0, 0.0], ["0.5", "1.0"]]), MalformedEmbedding),
        (FlakyEmbed(fail_times=0, rows=[[1.0, 0.0], [True, 0.0]]), MalformedEmbedding),
        (FlakyEmbed(fail_times=0, rows=[[1.0, 0.0], [float("nan"), 1.0]]), MalformedEmbedding),
        (FlakyEmbed(fail_times=0, rows=[[1.0, 0.0], [float("inf"), 1.0]]), MalformedEmbedding),
        (FlakyEmbed(fail_times=0, rows=[[1.0, 0.0], 1.0]), MalformedEmbedding),
        (FlakyEmbed(fail_times=0, rows=1.0), MalformedEmbedding),
        (FlakyEmbed(fail_times=0, rows=[[1.0, 0.0], [0.0, 0.0]]), MalformedEmbedding),
        (FlakyEmbed(fail_times=0, rows=[[1.0, 0.0], [1e200, 1.0]]), MalformedEmbedding),
    ],
    ids=[
        "retries-exhausted", "short-reply", "ragged-reply",
        "string", "none", "numeric-strings", "bool", "nan", "inf", "non-list-row", "bare-number",
        "zero-norm", "overflowing-norm",
    ],
)
def test_failed_embed_call_memoises_nothing(backend, error):
    gateway = Gateway(embedding_backend=backend, max_retries=1, backoff_s=0.0)
    with pytest.raises(error):
        gateway.embed_texts(["a", "b"])
    backend.fail_times, backend.rows = 0, None
    calls = backend.calls
    assert [tuple(vector.values.tolist()) for vector in gateway.embed_texts(["a", "b"])] == [(1.0, 0.0), (1.0, 0.0)]
    assert backend.calls == calls + 1  # both texts went to the backend again
    gateway.embed_texts(["b", "a"])
    assert backend.calls == calls + 1  # the successful call memoised them


def scalar_norm(row) -> float:
    total = 0.0
    for x in row:
        total += x * x
    return math.sqrt(total)


def test_row_store_grows_and_keeps_each_row_and_norm_bit_for_bit():
    backend = MockEmbeddingBackend(seed=3)
    gateway = Gateway(embedding_backend=backend, backoff_s=0.0)
    texts: list[str] = []
    capacities = []
    for size in (1, 63, 64, 130):
        batch = [f"text {len(texts) + i} of a batch of {size}" for i in range(size)]
        texts += batch
        gateway.embed_texts(batch)
        capacities.append(len(gateway._matrix))
    assert len(set(capacities)) == 4  # the matrix grew at each batch, keeping the earlier rows
    rows, norms = gateway.embedding_rows(texts[::-1] + texts[:5])
    expected = backend.embed(texts[::-1] + texts[:5])
    assert rows.tobytes() == np.array(expected).tobytes()
    assert norms.tobytes() == np.array([scalar_norm(row) for row in expected]).tobytes()
    assert gateway.usage.embed_calls == 4


class SwitchableEmbed(CountingEmbed):
    """A CountingEmbed whose replies are malformed while ``broken`` is set."""

    broken = False

    def embed(self, texts):
        rows = super().embed(texts)
        return [[float("nan"), 1.0] for _ in rows] if self.broken else rows


def test_failed_fill_leaves_the_row_store_unchanged():
    backend = SwitchableEmbed()
    gateway = Gateway(embedding_backend=backend, backoff_s=0.0)
    before = gateway.embedding_rows(["a", "bb"])
    backend.broken = True
    with pytest.raises(MalformedEmbedding):
        gateway.embedding_rows(["a", "ccc", "bb", "dddd"])
    assert len(gateway._rows) == 2
    after = gateway.embedding_rows(["a", "bb"])
    assert [array.tobytes() for array in after] == [array.tobytes() for array in before]
    backend.broken = False
    rows, _ = gateway.embedding_rows(["a", "ccc", "bb", "dddd"])
    assert rows.tolist() == [[1.0, 1.0], [3.0, 1.0], [2.0, 1.0], [4.0, 1.0]]
    assert backend.batches == [["a", "bb"], ["ccc", "dddd"], ["ccc", "dddd"]]  # the retry sent the same texts


def test_texts_first_seen_through_embed_texts_reach_the_backend_once():
    backend = CountingEmbed()
    gateway = Gateway(embedding_backend=backend, backoff_s=0.0)
    pool = CandidatePool.whole_bank(make_tool_bank(6))
    gateway.embed_texts(["a query", *pool.phi_texts])
    first = embedding_route(gateway, "a query", (), pool, "q")
    assert route(RouterConfig(variant="embedding_q"), "a query", (), pool, gateway) == first
    embedding_route(gateway, "a query", (), pool, "q")
    assert backend.batches == [["a query", *pool.phi_texts]]


def test_an_equal_texts_tuple_of_another_object_gathers_again_with_bit_identical_cosines(monkeypatch):
    texts = CandidatePool.whole_bank(make_tool_bank(ORDERED_LOOP_ROWS)).phi_texts
    twin = tuple(list(texts))
    assert twin == texts and twin is not texts
    gateway = mock_gateway(0)
    kept = gateway.cosines("archive the email threads", texts)
    counts = count_calls(monkeypatch, rows=(Gateway, "embedding_rows"))
    assert gateway.cosines("archive the email threads", texts).tobytes() == kept.tobytes()
    assert counts == {"rows": 0}
    assert gateway.cosines("archive the email threads", twin).tobytes() == kept.tobytes()
    assert counts == {"rows": 1}
    assert gateway.cosines("archive the email threads", twin).tobytes() == kept.tobytes()
    assert counts == {"rows": 1}


def test_embedding_of_the_wrong_dim_raises():
    class ShortRows:
        model_id = "short-rows"
        dim = 3

        def embed(self, texts):
            return [[1.0, 0.0] for _ in texts]

    gateway = Gateway(embedding_backend=ShortRows(), backoff_s=0.0)
    with pytest.raises(DimensionMismatch, match="2-d embedding, expected 3"):
        gateway.embed_texts(["a"])


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
    first, second = mock_gateway(3).embed_text(text), mock_gateway(3).embed_text(text)
    assert first.values.tolist() == second.values.tolist() and first.model_id == second.model_id


def test_embedding_vector_is_a_read_only_float64_row():
    vector = EmbeddingVector((1, 2.5, -3), "m")
    assert vector.values.dtype == np.float64 and vector.values.shape == (3,) and vector.dim == 3
    assert vector.values.tolist() == [1.0, 2.5, -3.0]
    with pytest.raises(ValueError):
        vector.values[0] = 9.0
    assert vector.values.tolist() == [1.0, 2.5, -3.0]


@pytest.mark.parametrize(
    "values",
    [[[0.6, 0.8]], [[0.6], [0.8]], 0.6, [0.6, None], [0.6, float("nan")]],
    ids=["nested-row", "column", "scalar", "null", "nan"],
)
def test_embedding_vector_rejects_non_flat_or_non_finite_values(values):
    with pytest.raises(ValueError):
        EmbeddingVector(values, "m")
