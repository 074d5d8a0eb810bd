"""Clock-free cost checks of embedding routes: the work a decision does,
counted by call at growing pool sizes, so a per-decision O(n) step fails
at every size instead of only slowing the large ones. A pool below
ORDERED_LOOP_ROWS members is gathered on every decision, by design."""

import zlib
from functools import lru_cache

import pytest

from helpers import count_calls, make_tool_bank
from toolrouter.gateway import KEPT_POOLS, ORDERED_LOOP_ROWS, Gateway
from toolrouter.registry import CandidatePool
from toolrouter.router import RouterConfig, route

SIZES = (250, 1000, 4000, 20000)
CFG = RouterConfig(variant="embedding_q")


class RecordingBackend:
    """A cheap embedder (a few bytes of each text's CRC) that records each call's texts."""

    model_id = "crc-embed"
    dim = 4

    def __init__(self) -> None:
        self.sent: list[list[str]] = []

    def embed(self, texts):
        self.sent.append(list(texts))
        return [[1.0, *zlib.crc32(text.encode()).to_bytes(4, "little")[:3]] for text in texts]


@lru_cache(maxsize=None)
def whole_pool(n: int) -> CandidatePool:
    return CandidatePool.whole_bank(make_tool_bank(n))


def gateway_and_backend() -> tuple[Gateway, RecordingBackend]:
    backend = RecordingBackend()
    return Gateway(embedding_backend=backend, backoff_s=0.0), backend


@pytest.mark.parametrize("n", SIZES)
def test_a_warm_decision_reads_the_request_row_alone(monkeypatch, n):
    pool = whole_pool(n)
    gateway, backend = gateway_and_backend()
    cold = route(CFG, "archive the email threads", (), pool, gateway)
    assert backend.sent == [["archive the email threads", *pool.phi_texts]]
    backend.sent.clear()
    counts = count_calls(monkeypatch, rows=(Gateway, "embedding_rows"), backend=(RecordingBackend, "embed"))
    assert route(CFG, "archive the email threads", (), pool, gateway) == cold
    gathers = 0 if n >= ORDERED_LOOP_ROWS else 1
    assert counts == {"rows": gathers, "backend": 0}
    route(CFG, "summarize the support tickets", (), pool, gateway)
    assert counts == {"rows": 2 * gathers, "backend": 1}
    assert backend.sent == [["summarize the support tickets"]]


@pytest.mark.parametrize("n", [n for n in SIZES if n // (KEPT_POOLS + 1) >= ORDERED_LOOP_ROWS])
def test_a_pool_past_the_kept_ones_evicts_the_least_recently_scored(monkeypatch, n):
    bank = whole_pool(n).bank
    pools = [CandidatePool(bank=bank, membership=bank.names()[i :: KEPT_POOLS + 1]) for i in range(KEPT_POOLS + 1)]
    gateway, backend = gateway_and_backend()
    for pool in pools[:KEPT_POOLS] + pools[:1] + pools[KEPT_POOLS:]:  # pool 0 is scored again before the last
        route(CFG, "archive the email threads", (), pool, gateway)
    counts = count_calls(monkeypatch, rows=(Gateway, "embedding_rows"), backend=(RecordingBackend, "embed"))
    for pool in pools[:1] + pools[2:]:
        route(CFG, "archive the email threads", (), pool, gateway)
    assert counts == {"rows": 0, "backend": 0}
    route(CFG, "archive the email threads", (), pools[1], gateway)
    assert counts == {"rows": 1, "backend": 0}
