"""Router contract and implementations.

Variants: embedding scoring over the query alone or query+history, an
LLM-prompted router using the benchmark sample format, a label oracle for
testing, and a seeded uniform-random baseline. Abstention is an in-band
outcome (never an exception) and counts as incorrect during evaluation.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Sequence

from .errors import BadConfig, GatewayError
from .gateway import Gateway, check_temperature, user_request
from .registry import CandidatePool
from .supervision import render_prompt
from .synthesis import Turn, serialize_history

VARIANTS = ("embedding_q", "embedding_qh", "llm", "oracle", "random")
# The variants whose decision on a record and pool is the same on every call:
# they draw no rng and sample no reply, and a stored embedding row never changes.
REPEATABLE = frozenset({"embedding_q", "embedding_qh", "oracle"})
MAX_HISTORY_CHARS = 8000  # of the request text the embedding_qh router embeds


@dataclass(frozen=True)
class RouterDecision:
    chosen: str | None
    rationale: str | None = None
    abstained: bool = False


@dataclass(frozen=True)
class RouterConfig:
    variant: str = "embedding_q"
    kind: str = "tool"  # must be the kind of the pool routed over
    temperature: float = 1.0
    rng_seed: int = 0  # random variant only

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise BadConfig(f"unknown router variant: {self.variant!r}")
        check_temperature(self.temperature, BadConfig)


def _abstain(reason: str) -> RouterDecision:
    return RouterDecision(chosen=None, rationale=reason, abstained=True)


_THINK_RE = re.compile(r"<think>.*?</think>", re.DOTALL)
_ARRAY_RE = re.compile(r"\[[^\[\]]*\]")


def parse_decision(text: str, pool: CandidatePool) -> str | None:
    """Extract the single routed name from a router reply; None = abstain.

    Strips one optional <think> block, takes the last flat JSON array of
    strings, and requires exactly one pool member. Total: never raises.
    """
    body = _THINK_RE.sub("", text, count=1)
    chosen = None
    for match in _ARRAY_RE.finditer(body):
        try:
            value = json.loads(match.group(0))
        except (RecursionError, ValueError):  # not JSON, nested too deeply, or an integer past the digit limit
            continue
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            chosen = value
    if chosen is None or len(chosen) != 1:
        return None
    return chosen[0] if chosen[0] in pool.member_set else None


def _truncate_oldest(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[len(text) - limit :]


def embedding_route(gateway: Gateway, query: str, history: Sequence[Turn], pool: CandidatePool) -> RouterDecision:
    """Cosine scoring of the request text against each candidate's phi text.

    The request text is the query alone when the history is empty;
    otherwise the history in the pool's kind prefixes it, keeping its last
    ``MAX_HISTORY_CHARS`` characters less the query and a newline; the cut
    need not fall on a turn boundary.
    The pick is the smallest name among the members whose scalar cosine,
    bit for bit, is maximal: :meth:`Gateway.most_similar` finds them, over a
    large pool by scoring exactly only the members its float32 screen cannot
    rule out. Gateway errors raise.
    """
    if history:
        history_text = _truncate_oldest(
            serialize_history(history, pool.bank.kind), max(0, MAX_HISTORY_CHARS - len(query) - 1)
        )
        request_text = f"{history_text}\n{query}"
    else:
        request_text = query
    members = gateway.most_similar(request_text, pool.phi_texts)
    return RouterDecision(chosen=min(map(pool.membership.__getitem__, members.tolist())))


def llm_route(
    gateway: Gateway,
    query: str,
    history: Sequence[Turn],
    pool: CandidatePool,
    cfg: RouterConfig,
    prompt: tuple[str, str] | None = None,
) -> RouterDecision:
    """Prompt an LLM with the benchmark sample format and parse its reply; gateway errors raise.

    ``prompt`` is the (system, user) pair :func:`render_prompt` gives for the
    query, history and pool, when the caller rendered it already."""
    system, user = render_prompt(query, history, pool) if prompt is None else prompt
    request = user_request(user, system=system, temperature=cfg.temperature)
    reply = gateway.chat(request)
    chosen = parse_decision(reply, pool)
    return RouterDecision(chosen=chosen, rationale=reply, abstained=chosen is None)


def route(
    cfg: RouterConfig,
    query: str,
    history: Sequence[Turn],
    pool: CandidatePool,
    gateway: Gateway | None = None,
    *,
    oracle_label: str | None = None,
    rng: random.Random | None = None,
    prompt: tuple[str, str] | None = None,
) -> RouterDecision:
    """Dispatch to the configured variant. A gateway error, such as an
    embedding row without a finite, nonzero norm, becomes an abstention. A
    config of another kind than the pool's is a BadConfig. ``prompt`` is the
    llm variant's rendered prompt, as :func:`llm_route` takes it."""
    if cfg.kind != pool.bank.kind:
        raise BadConfig(f"a {cfg.kind} router config cannot route over a pool of {pool.bank.kind}s")
    try:
        if cfg.variant == "oracle":
            if oracle_label is None or oracle_label not in pool.member_set:
                return _abstain("oracle has no planted label for this instance")
            return RouterDecision(chosen=oracle_label)
        if cfg.variant == "random":
            chooser = rng if rng is not None else random.Random(cfg.rng_seed)
            return RouterDecision(chosen=chooser.choice(pool.sorted_members))
        if gateway is None:
            return _abstain("no gateway configured")
        if cfg.variant == "llm":
            return llm_route(gateway, query, history, pool, cfg, prompt)
        return embedding_route(gateway, query, history if cfg.variant == "embedding_qh" else (), pool)
    except GatewayError as exc:
        return _abstain(f"gateway error: {exc}")
