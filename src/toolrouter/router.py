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

from .errors import BadConfig, GatewayError, ZeroVector
from .gateway import Gateway, user_request
from .graph import _ordered_dots, _ordered_norms, _stacked_rows
from .registry import CandidatePool
from .supervision import render_prompt
from .synthesis import Turn, serialize_history

VARIANTS = ("embedding_q", "embedding_qh", "llm", "oracle", "random")


@dataclass(frozen=True)
class RouterDecision:
    chosen: str | None
    rationale: str | None = None
    abstained: bool = False


@dataclass(frozen=True)
class RouterConfig:
    variant: str = "embedding_q"
    kind: str = "tool"  # prompt wording for the llm variant
    temperature: float = 1.0
    rng_seed: int = 0  # random variant only

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown router variant: {self.variant!r}")
        if self.temperature < 0:
            raise BadConfig("temperature must be >= 0")


def _abstain(reason: str) -> RouterDecision:
    return RouterDecision(chosen=None, rationale=reason, abstained=True)


_THINK_RE = re.compile(r"<think>.*?</think>", re.DOTALL)
_ARRAY_RE = re.compile(r"\[[^\[\]]*\]")


def parse_decision(text: str, pool: CandidatePool) -> str | None:
    """Extract the single routed name from a router reply; None = abstain.

    Strips one optional <think> block, takes the last flat JSON array of
    strings, and requires exactly one pool member. Total: never raises.
    """
    try:
        body = _THINK_RE.sub("", text, count=1)
        chosen = None
        for match in _ARRAY_RE.finditer(body):
            try:
                value = json.loads(match.group(0))
            except json.JSONDecodeError:
                continue
            if isinstance(value, list) and all(isinstance(v, str) for v in value):
                chosen = value
        if chosen is None or len(chosen) != 1:
            return None
        return chosen[0] if chosen[0] in pool.membership else None
    except Exception:
        return None


def _truncate_oldest(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[len(text) - limit :]


def embedding_route(
    gateway: Gateway,
    query: str,
    history: Sequence[Turn],
    pool: CandidatePool,
    mode: str = "q",
    *,
    kind: str = "tool",
    max_history_chars: int = 8000,
) -> RouterDecision:
    """Cosine scoring of the request text against each candidate's phi text.

    mode "q" embeds the query alone; "q_plus_h" prefixes the serialized
    history, keeping its last ``max_history_chars`` characters less the
    query and a newline; the cut need not fall on a turn boundary.
    Every member gets the scalar cosine's value bit for bit, ties go to the
    smallest name, and gateway errors and zero embedding rows raise.
    """
    if mode not in ("q", "q_plus_h"):
        raise ValueError(f"unknown embedding mode: {mode!r}")
    if mode == "q_plus_h" and history:
        history_text = _truncate_oldest(
            serialize_history(history, kind), max(0, max_history_chars - len(query) - 1)
        )
        request_text = f"{history_text}\n{query}"
    else:
        request_text = query
    rows = _stacked_rows(gateway.embed_texts([request_text] + [spec.phi for spec in pool.specs()]))
    norms = _ordered_norms(rows)
    scores = _ordered_dots(rows[1:], rows[0]) / (norms[0] * norms[1:])
    return RouterDecision(chosen=min(pool.membership[i] for i in (scores == scores.max()).nonzero()[0]))


def llm_route(
    gateway: Gateway,
    query: str,
    history: Sequence[Turn],
    pool: CandidatePool,
    cfg: RouterConfig,
) -> RouterDecision:
    """Prompt an LLM with the benchmark sample format and parse its reply; gateway errors raise."""
    system, user = render_prompt(query, history, pool, cfg.kind)
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
) -> RouterDecision:
    """Dispatch to the configured variant. Gateway failures and zero embedding rows become abstentions."""
    if len(pool) == 0:
        return _abstain("empty pool")
    try:
        if cfg.variant == "oracle":
            if oracle_label is None or oracle_label not in pool.membership:
                return _abstain("oracle has no planted label for this instance")
            return RouterDecision(chosen=oracle_label)
        if cfg.variant == "random":
            chooser = rng if rng is not None else random.Random(cfg.rng_seed)
            return RouterDecision(chosen=chooser.choice(sorted(pool.membership)))
        if gateway is None:
            return _abstain("no gateway configured")
        if cfg.variant == "llm":
            return llm_route(gateway, query, history, pool, cfg)
        mode = "q" if cfg.variant == "embedding_q" else "q_plus_h"
        return embedding_route(gateway, query, history, pool, mode, kind=cfg.kind)
    except GatewayError as exc:
        return _abstain(f"gateway error: {exc}")
    except ZeroVector as exc:
        return _abstain(f"zero embedding row: {exc}")
