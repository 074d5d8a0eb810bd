"""Single choke point for chat-completion and text-embedding backends.

All LLM traffic in the pipeline flows through :class:`Gateway`, which adds
retries with exponential backoff, a chat call budget, usage accounting, and an
embedding row store that holds each distinct text's embedding once. Chat
replies are never cached: every pipeline chat call is sampled, and a retry
must get a fresh draw. An embedding is a fixed function of the model and the
text, so memoising it cannot change an answer. Replies are read here too:
:func:`parse_json_reply` takes the JSON object of a reply, code fence
optional, and :meth:`Gateway.ask` is the pipeline's one re-ask loop.
Concrete backends live in :mod:`toolrouter.backends`.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, TypeVar

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, GatewayError, MalformedEmbedding, NotParseable, RetriesExhausted

T = TypeVar("T")
R = TypeVar("R")

ORDERED_LOOP_ROWS = 256  # from here a loop over 64 columns beats a running sum per row
# Pools of ORDERED_LOOP_ROWS or more members whose columns a gateway keeps, least
# recently used out first: the most such pools one gateway of the benchmark scores.
KEPT_POOLS = 2


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


_FENCE_RE = re.compile(r"^```[a-zA-Z0-9]*\s*\n(.*)\n```\s*$", re.DOTALL)


def strip_code_fence(text: str) -> str:
    match = _FENCE_RE.match(text.strip())
    return match.group(1) if match else text


def parse_json_reply(reply: str, what: str = "reply") -> dict:
    """The JSON object in a model reply, code fence optional; NotParseable otherwise."""
    body = strip_code_fence(reply).strip()
    try:
        value = json.loads(body)
    except json.JSONDecodeError as exc:
        raise NotParseable(f"{what} is not valid JSON: {exc.msg}") from exc
    if not isinstance(value, dict):
        raise NotParseable(f"{what} must be a JSON object")
    return value


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


def _ordered_sums(products: np.ndarray) -> np.ndarray:
    """Row sums with the scalar cosine's arithmetic: added in column order to
    0.0 (by ``cumsum`` for few rows, a loop over the columns for many).
    ``np.dot``, ``@``, ``einsum`` and ``sum`` reorder the additions or fuse
    them with the products: not bit for bit.
    """
    if len(products) < ORDERED_LOOP_ROWS:
        return np.cumsum(np.hstack([np.zeros((len(products), 1)), products]), axis=1)[:, -1]
    sums = np.zeros(len(products))
    for column in products.T:
        sums += column
    return sums


def _ordered_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products with the scalar cosine's arithmetic: each product
    rounded once, then summed by :func:`_ordered_sums`."""
    return _ordered_sums(a * b)


def _usable_norms(rows: np.ndarray, names: Sequence[str], error: type[Exception] = ValueError) -> np.ndarray:
    """The norms of rows of finite values, with the scalar cosine's arithmetic.

    A row has a cosine only when its norm is finite and nonzero; ``error``
    names (by ``names``) the first row whose norm is 0 or overflows.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(_ordered_dots(rows, rows))
    usable = np.isfinite(norms) & (norms != 0)
    if not usable.all():
        at = int(usable.argmin())
        raise error(f"embedding of {names[at]!r} has norm {norms[at]}; a cosine needs a finite, nonzero norm")
    return norms


def _column_dots(columns: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``row``'s dot product with each column of the C-contiguous
    ``columns``, in :func:`_ordered_dots`' arithmetic for at least
    ``ORDERED_LOOP_ROWS`` columns: each row of ``columns`` is multiplied by
    its value of ``row`` into one reused buffer and added to the running sums
    in order."""
    count = columns.shape[1]
    sums, products = np.zeros(count), np.empty(count)
    for value, column in zip(row.tolist(), columns):
        sums += np.multiply(column, value, out=products)
    return sums


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
    the usage counters, the embedding row store and its kept pools assume one
    calling thread.

    The row store keeps each embedded text once (one backend, so the text is
    the key): ``_rows`` maps it to a row of ``_matrix``, which grows by
    doubling, and ``_norms`` holds that row's norm, computed once in the
    scalar cosine's arithmetic.

    ``_pools`` keeps, for the last ``KEPT_POOLS`` texts tuples of at least
    ``ORDERED_LOOP_ROWS`` texts scored by :meth:`cosines` (a pool's
    ``phi_texts``), their rows once more in column-major order with their
    norms: n × dim × 8 bytes per kept pool of n texts (1 MB for 2005 texts of
    dim 64), at most ``KEPT_POOLS`` × n × dim × 8 bytes for pools of up to n
    texts (82 MB for two of 80000 texts of dim 64). A stored row never
    changes, so a kept pool never goes stale. A pool is kept under the id of
    its texts tuple, which it holds, so that a lookup hashes no text; an
    equal tuple that is another object gathers its rows again.
    """

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
        self._rows: dict[str, int] = {}
        self._matrix = np.empty((0, embedding_backend.dim if embedding_backend is not None else 0))
        self._norms = np.empty(0)
        self._pools: dict[int, tuple[tuple[str, ...], np.ndarray, np.ndarray]] = {}
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

    def ask(
        self, request: ChatRequest, read: Callable[[str], R], retries: int, rejects: tuple[type[Exception], ...]
    ) -> tuple[R | None, str, Exception | None]:
        """Chat until ``read(reply)``, which never returns None, takes a reply
        instead of raising one of ``rejects``; at most ``retries + 1`` times.

        Returns what ``read`` returned (None after the last rejection), the
        last reply and its rejection (None if taken). Gateway errors propagate.
        """
        reply, rejection = "", None
        for _attempt in range(retries + 1):
            reply = self.chat(request)
            try:
                return read(reply), reply, None
            except rejects as exc:
                rejection = exc
        return None, reply, rejection

    def embed_texts(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        """Embed ``texts`` in order, sending only texts not embedded before (see :meth:`_fill`)."""
        self._fill(texts)
        if not texts:
            raise ValueError("embed_texts requires at least one text")
        index, model_id = self._rows, self._embed.model_id
        return [EmbeddingVector(values=self._matrix[index[text]], model_id=model_id) for text in texts]

    def _fill(self, texts: Sequence[str]) -> None:
        """Store the rows of the texts not embedded before.

        The distinct new texts go to the backend in one call; they are
        stored only once every returned row is a flat, finite vector of the
        backend's dim with a finite, nonzero norm. A reply that is not is a
        MalformedEmbedding.
        """
        if self._embed is None:
            raise GatewayError("no embedding backend configured")
        missing = list(dict.fromkeys(text for text in texts if text not in self._rows))
        if missing:
            raw = self._call_with_retries("embedding", self._embed.embed, missing)
            dim = self._embed.dim
            try:
                if len(raw) != len(missing):
                    raise DimensionMismatch(f"backend returned {len(raw)} vectors for {len(missing)} texts")
                for values in raw:
                    if len(json_numbers(values)) != dim:
                        raise DimensionMismatch(f"backend returned a {len(values)}-d embedding, expected {dim}")
                rows = np.array(raw, dtype=np.float64)
                if not np.isfinite(rows).all():
                    raise ValueError("non-finite embedding value")
            except (TypeError, ValueError) as exc:
                raise MalformedEmbedding("backend embedding rows must be flat lists of finite numbers") from exc
            self._store(missing, rows, _usable_norms(rows, missing, MalformedEmbedding))
            self.usage.embed_calls += 1

    def _store(self, texts: list[str], rows: np.ndarray, row_norms: np.ndarray) -> None:
        start, end = len(self._rows), len(self._rows) + len(rows)
        if end > len(self._matrix):
            capacity = max(end, 2 * len(self._matrix))
            matrix, norms = np.empty((capacity, self._matrix.shape[1])), np.empty(capacity)
            matrix[:start], norms[:start] = self._matrix[:start], self._norms[:start]
            self._matrix, self._norms = matrix, norms
        self._matrix[start:end] = rows
        self._norms[start:end] = row_norms
        self._rows.update(zip(texts, range(start, end)))

    def embedding_rows(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The stored rows of ``texts``, in order, as one new float64 matrix
        (the caller's to modify), and their norms. Texts not stored yet are
        embedded through :meth:`_fill`."""
        index = self._rows
        try:
            at = np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))
        except KeyError:
            self._fill(texts)
            at = np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))
        return self._matrix[at], self._norms[at]

    def cosines(self, text: str, texts: tuple[str, ...]) -> np.ndarray:
        """The scalar cosine of ``text``'s row with the row of each of
        ``texts``, bit for bit, from the stored rows and norms.

        A kept pool reads only ``text``'s row, and embeds it alone if it is
        new. Otherwise ``text`` and the missing ``texts`` go to the backend in
        one call, ``text`` first. The columns of a pool of at least
        ``ORDERED_LOOP_ROWS`` texts are then kept, evicting the least
        recently scored pool beyond ``KEPT_POOLS``; a smaller pool is
        gathered on each call.
        """
        if len(texts) < ORDERED_LOOP_ROWS:
            rows, norms = self.embedding_rows((text, *texts))
            products = rows[1:]
            products *= rows[0]  # in place: the rows are a copy, and one fewer temporary per call
            return _ordered_sums(products) / (norms[0] * norms[1:])
        pool = self._pools.pop(id(texts), None)
        if pool is None or pool[0] is not texts:
            rows, norms = self.embedding_rows((text, *texts))
            pool = texts, np.ascontiguousarray(rows[1:].T), norms[1:]
            if len(self._pools) == KEPT_POOLS:
                del self._pools[next(iter(self._pools))]
        self._pools[id(texts)] = pool
        if text not in self._rows:
            self._fill((text,))
        at = self._rows[text]
        _, columns, norms = pool
        return _column_dots(columns, self._matrix[at]) / (self._norms[at] * norms)

    @property
    def embed_model_id(self) -> str:
        """The model id the embedding backend stamps on each row it returns."""
        if self._embed is None:
            raise GatewayError("no embedding backend configured")
        return self._embed.model_id

    def embed_text(self, text: str) -> EmbeddingVector:
        return self.embed_texts([text])[0]
