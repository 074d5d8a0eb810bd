"""Single choke point for chat-completion and text-embedding backends.

All LLM traffic in the pipeline flows through :class:`Gateway`, which adds
retries with exponential backoff, a chat call budget, usage accounting, and a
per-text embedding memo. Chat replies are never cached: every pipeline chat
call is sampled, and a retry must get a fresh draw. An embedding is a fixed
function of the model and the text, so memoising it cannot change an answer.
Concrete backends live in :mod:`toolrouter.backends`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, TypeVar

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, GatewayError, MalformedEmbedding, RetriesExhausted

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant
    content: str


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0
    max_tokens: int = 2048

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("chat request needs at least one message")
        if self.messages[0].role not in ("system", "user"):
            raise ValueError("first message must be system or user")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")


def user_request(content: str, *, system: str | None = None, **kwargs) -> ChatRequest:
    messages: list[ChatMessage] = []
    if system is not None:
        messages.append(ChatMessage("system", system))
    messages.append(ChatMessage("user", content))
    return ChatRequest(messages=tuple(messages), **kwargs)


def json_numbers(values: Sequence) -> Sequence:
    """``values`` when each is a JSON number (an int or a float, not a bool):
    ``np.array`` would turn numeric strings and booleans into floats."""
    if not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, values))):
        raise TypeError("an embedding must be a flat sequence of JSON numbers")
    return values


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """One embedding: a read-only 1-D float64 row built from any flat float sequence."""

    values: np.ndarray
    model_id: str

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or not np.isfinite(values).all():
            raise ValueError(f"an embedding must be a flat sequence of finite floats, got shape {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return len(self.values)


class TransientBackendError(GatewayError):
    """Raised by backends for failures worth retrying."""


class ChatBackend(Protocol):
    model_id: str

    def complete(self, request: ChatRequest) -> str: ...


class EmbeddingBackend(Protocol):
    model_id: str
    dim: int

    def embed(self, texts: Sequence[str]) -> list[list[float]]: ...


@dataclass
class Usage:
    chat_calls: int = 0
    embed_calls: int = 0
    approx_tokens: int = 0


class Gateway:
    """Front door for chat and embedding calls. It takes no lock: the budget,
    the usage counters and the embedding memo assume one calling thread."""

    def __init__(
        self,
        chat_backend: ChatBackend | None = None,
        embedding_backend: EmbeddingBackend | None = None,
        *,
        max_retries: int = 3,
        backoff_s: float = 0.1,
        max_chat_calls: int | None = None,
    ) -> None:
        self._chat = chat_backend
        self._embed = embedding_backend
        self._max_retries = max_retries
        self._backoff_s = backoff_s
        self._max_chat_calls = max_chat_calls
        self._embeddings: dict[str, EmbeddingVector] = {}  # one backend, so the text is the key
        self.usage = Usage()

    def _call_with_retries(self, what: str, call: Callable[[T], R], argument: T) -> R:
        """Retry transient backend failures with exponential backoff."""
        last_error: Exception | None = None
        for attempt in range(self._max_retries + 1):
            try:
                return call(argument)
            except TransientBackendError as exc:
                last_error = exc
                if attempt < self._max_retries:
                    time.sleep(self._backoff_s * (2**attempt))
        raise RetriesExhausted(f"{what} failed after {self._max_retries + 1} attempts: {last_error}")

    def chat(self, request: ChatRequest) -> str:
        if self._chat is None:
            raise GatewayError("no chat backend configured")
        if self._max_chat_calls is not None and self.usage.chat_calls >= self._max_chat_calls:
            raise BudgetExceeded(f"chat call budget of {self._max_chat_calls} exhausted")
        self.usage.chat_calls += 1
        text = self._call_with_retries("chat", self._chat.complete, request)
        self.usage.approx_tokens += sum(len(m.content) for m in request.messages) // 4
        self.usage.approx_tokens += len(text) // 4
        return text

    def embed_texts(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        """Embed ``texts`` in order, sending only texts not embedded before.

        The distinct new texts go to the backend in one call; they are
        memoised only once every returned row is a flat, finite vector of the
        backend's dim. A reply that is not is a MalformedEmbedding.
        """
        if self._embed is None:
            raise GatewayError("no embedding backend configured")
        if not texts:
            raise ValueError("embed_texts requires at least one text")
        missing = list(dict.fromkeys(text for text in texts if text not in self._embeddings))
        if missing:
            raw = self._call_with_retries("embedding", self._embed.embed, missing)
            dim, model_id = self._embed.dim, self._embed.model_id
            try:
                if len(raw) != len(missing):
                    raise DimensionMismatch(f"backend returned {len(raw)} vectors for {len(missing)} texts")
                for values in raw:
                    if len(json_numbers(values)) != dim:
                        raise DimensionMismatch(f"backend returned a {len(values)}-d embedding, expected {dim}")
                rows = np.array(raw, dtype=np.float64)
                vectors = [EmbeddingVector(values=row, model_id=model_id) for row in rows]
            except (TypeError, ValueError) as exc:
                raise MalformedEmbedding("backend embedding rows must be flat lists of finite numbers") from exc
            self._embeddings.update(zip(missing, vectors))
            self.usage.embed_calls += 1
        return [self._embeddings[text] for text in texts]

    def embed_text(self, text: str) -> EmbeddingVector:
        return self.embed_texts([text])[0]
