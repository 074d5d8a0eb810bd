"""Clock-free cost checks of dataset files: what build_dataset() builds and
encodes, counted at growing pool sizes, and what load_dataset() decodes,
counted at growing record counts, so a pool's documents or prompt block
built, encoded or decoded once per record, rather than once per distinct
pool, fails at every size instead of only slowing the large ones."""

from functools import lru_cache

import pytest

from helpers import count_calls, make_tool_doc
from toolrouter import supervision
from toolrouter._util import JSON_LINE
from toolrouter.registry import CandidateBank, CandidatePool, validate_spec
from toolrouter.sampler import CandidateSubset
from toolrouter.supervision import DatasetRecord, build_dataset, load_dataset, save_dataset
from toolrouter.synthesis import Action, CandidateCall, Observation, TaskPlan, Trajectory

SIZES = (250, 1000, 4000)
TRAJECTORIES, ACTIONS = 2, 2
SENTINEL = "SENTINEL-DESCRIPTION"  # the description of one pool member that no record names


@lru_cache(maxsize=None)
def bank(n: int) -> CandidateBank:
    """``n - 1`` tools and a last one whose description is the sentinel."""
    docs = [make_tool_doc(i) for i in range(n - 1)] + [{**make_tool_doc(n - 1), "description": SENTINEL}]
    return CandidateBank(kind="tool", entries=tuple(validate_spec(doc, "tool") for doc in docs))


def trajectory(index: int, names: tuple[str, ...]) -> Trajectory:
    turns = [Observation(f"task {index}")]
    for step in range(ACTIONS):
        call = CandidateCall(names[step], {"target": "x"}, "ok")
        turns += [Action(f"act {step}", (call,)), Observation(f"feedback {step}")]
    subset = CandidateSubset(members=names[:ACTIONS], seed_nodes=names[:1], walk_trace=())
    return Trajectory(f"t{index}", tuple(turns), subset, TaskPlan(turns[0].text, ()))


class RecordingEncoder:
    """JSON_LINE, counting the sentinel in each text it encodes."""

    def __init__(self) -> None:
        self.sentinels = 0

    def encode(self, value) -> str:
        text = JSON_LINE.encode(value)
        self.sentinels += text.count(SENTINEL)
        return text


def pools_of(scope: str, n: int) -> list[CandidatePool]:
    """Graph scope: one whole-bank pool object for every trajectory. Subset
    scope: a pool object per trajectory, over a different half of the bank
    that holds the sentinel."""
    whole = CandidatePool.whole_bank(bank(n))
    if scope == "graph":
        return [whole] * TRAJECTORIES
    names = whole.membership
    return [CandidatePool(bank=bank(n), membership=names[i : n - 1 : TRAJECTORIES] + names[-1:]) for i in range(TRAJECTORIES)]


@pytest.mark.parametrize("scope", ["graph", "subset"])
@pytest.mark.parametrize("n", SIZES)
def test_build_dataset_encodes_each_distinct_pool_once_per_call(tmp_path, monkeypatch, n, scope):
    pools = pools_of(scope, n)
    trajectories = [trajectory(i, pool.membership) for i, pool in enumerate(pools)]
    encoder = RecordingEncoder()
    monkeypatch.setattr(supervision, "JSON_LINE", encoder)
    calls = count_calls(monkeypatch, public_spec=(supervision, "public_spec"))
    counts = build_dataset(trajectories, pools, tmp_path / "data.jsonl", ablation=True)
    assert list(counts.values()) == [TRAJECTORIES * ACTIONS] * 2
    distinct = {id(pool): pool for pool in pools}.values()
    # each distinct pool: its documents as the "pool" field, and its prompt block, once for both files
    assert encoder.sentinels == 2 * len(distinct)
    # each distinct pool's public documents are built once, for its _PoolText, and no record builds its own
    assert calls == {"public_spec": sum(map(len, distinct))}


POOLS = 4


def records_over_pools(n: int) -> list[DatasetRecord]:
    """``n`` records over POOLS pools of two tools, each pool holding the sentinel once."""
    pools = [(make_tool_doc(2 * p), {**make_tool_doc(2 * p + 1), "description": SENTINEL}) for p in range(POOLS)]
    return [
        DatasetRecord(
            kind="tool",
            system="sys",
            user="user",
            query=f"query {i}",
            history=(),
            pool_specs=pools[i % POOLS],
            label=pools[i % POOLS][0]["name"],
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("n", SIZES)
def test_load_dataset_decodes_each_distinct_pool_text_once(tmp_path, monkeypatch, n):
    records = records_over_pools(n)
    path = tmp_path / "data.jsonl"
    save_dataset(records, path)
    decoded = {"sentinels": 0}
    part, whole = supervision._DECODE, supervision.json_object

    def decode(line: str, at: int):
        value, end = part(line, at)
        decoded["sentinels"] += SENTINEL in line[at:end]
        return value, end

    def json_object(line: str) -> dict:
        decoded["sentinels"] += SENTINEL in line
        return whole(line)

    monkeypatch.setattr(supervision, "_DECODE", decode)
    monkeypatch.setattr(supervision, "json_object", json_object)
    assert load_dataset(path) == records
    assert decoded == {"sentinels": POOLS}
