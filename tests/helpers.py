"""Shared fixtures-in-code for the test suite: synthetic banks and gateways."""

from __future__ import annotations

import copy
import json
import math
import random
import re
import shlex
from typing import Iterable, Sequence

from toolrouter.backends import MockChatBackend, MockEmbeddingBackend
from toolrouter.errors import DimensionMismatch, ParseError
from toolrouter.gateway import EmbeddingVector, Gateway, TransientBackendError
from toolrouter.graph import cosine_similarity
from toolrouter.registry import CandidateBank, validate_spec
from toolrouter.supervision import DatasetRecord
from toolrouter.synthesis import Action, Trajectory

DOMAINS = [
    ("files", "filesystem trees"),
    ("tickets", "support tickets"),
    ("charts", "chart renderings"),
    ("code", "source repositories"),
    ("mail", "email threads"),
    ("geo", "map locations"),
    ("stocks", "market quotes"),
    ("docs", "document archives"),
    ("media", "audio and video assets"),
    ("builds", "continuous integration runs"),
]

VERBS = ["search", "summarize", "validate", "convert", "monitor", "diff", "archive", "tag"]


def make_tool_doc(index: int) -> dict:
    domain, blurb = DOMAINS[index % len(DOMAINS)]
    verb = VERBS[index % len(VERBS)]
    name = f"{verb}_{domain}_{index}"
    return {
        "name": name,
        "description": f"{verb.capitalize()} {blurb} and report a concise outcome.",
        "inputSchema": {
            "type": "object",
            "properties": {
                "target": {"type": "string", "description": f"The {domain} item to {verb}."},
                "limit": {"type": "integer", "description": "Maximum results to return."},
            },
            "required": ["target"],
        },
        "tags": [domain],
    }


def make_tool_bank(size: int) -> CandidateBank:
    entries = tuple(validate_spec(make_tool_doc(i), "tool") for i in range(size))
    return CandidateBank(kind="tool", entries=entries)


# The characters ``str.splitlines`` breaks a line at that JSON_LINE writes raw.
RAW_LINE_BREAKS = ("\x85", "\u2028", "\u2029")


def tool_bank_describing(text: str, size: int = 4) -> CandidateBank:
    """A tool bank whose first tool's description holds ``text``."""
    docs = [make_tool_doc(i) for i in range(size)]
    docs[0]["description"] += f" See{text}also."
    return CandidateBank(kind="tool", entries=tuple(validate_spec(doc, "tool") for doc in docs))


SYLLABLES = ("ka", "lo", "mi", "ner", "ta", "vos", "qui", "zer", "pa", "dun", "ri", "sel")


def make_family_bank(size: int, seed: int = 0, family_size: int = 12) -> CandidateBank:
    """Tools in families that share a verb, a domain, four core words and their
    parameters; each member adds six words of its own. Under the mock embedder
    most pairs inside a family clear tau = 0.82 and pairs across families do not.
    """
    rng = random.Random(seed)

    def word(syllables: int = 3) -> str:
        return "".join(rng.choice(SYLLABLES) for _ in range(syllables))

    docs: list[dict] = []
    while len(docs) < size:
        verb, domain = word(2), word()
        core = [word() for _ in range(4)]
        params = [word(2) for _ in range(3)]
        for _ in range(min(family_size, size - len(docs))):
            own = [word() for _ in range(6)]
            docs.append(
                {
                    "name": f"{verb}_{domain}_{len(docs):04d}",
                    "description": f"{verb} {' '.join(core + own)}.",
                    "inputSchema": {
                        "type": "object",
                        "properties": {p: {"type": "string", "description": f"{p} of the {domain} item"} for p in params},
                        "required": [params[0]],
                    },
                    "tags": [domain],
                }
            )
    return CandidateBank(kind="tool", entries=tuple(validate_spec(doc, "tool") for doc in docs))


def planted_unit_vector(target_sim):
    """2-d unit-ish vector whose float cosine against (1, 0) is exactly target_sim."""
    anchor = EmbeddingVector(values=(1.0, 0.0), model_id="static-embed")
    y = math.sqrt(1 - target_sim * target_sim)
    for _ in range(1000):
        candidate = EmbeddingVector(values=(target_sim, y), model_id="static-embed")
        sim = cosine_similarity(anchor, candidate)
        if sim == target_sim:
            return (target_sim, y)
        y = math.nextafter(y, math.inf if sim > target_sim else -math.inf)
    raise AssertionError(f"could not plant an exact cosine of {target_sim}")


# Where corrupt_snapshot breaks a node or edge record: the index of the record in its block.
SNAPSHOT_POSITIONS = {"first": lambda count: 0, "middle": lambda count: count // 2, "last": lambda count: count - 1}


def corrupt_snapshot(lines: list[str], case: str, position: str = "first") -> list[str]:
    """Break one invariant of a saved snapshot (meta, nodes, then edges).

    A case that edits one node or edge record edits the record at
    ``position`` (see SNAPSHOT_POSITIONS) of its block.
    """
    records = [json.loads(line) for line in lines]
    all_nodes = [r for r in records if "node" in r]
    all_edges = [r for r in records if "edge" in r]
    # nodes[0] and edges[0] are the records at the position
    nodes = all_nodes[SNAPSHOT_POSITIONS[position](len(all_nodes)) :]
    edges = all_edges[SNAPSHOT_POSITIONS[position](len(all_edges)) :]
    if case == "node without embedding":
        del nodes[0]["node"]["embedding"]
    elif case == "edge to a missing node":
        edges[0]["edge"]["b"] = "zzz_missing"
    elif case == "edge with a >= b":
        edges[0]["edge"]["a"], edges[0]["edge"]["b"] = edges[0]["edge"]["b"], edges[0]["edge"]["a"]
    elif case == "mixed embedding dims":
        nodes[0]["node"]["embedding"] = nodes[0]["node"]["embedding"][:-1]
    elif case == "mutant with a missing parent":
        provenance = {"origin": "mutant", "parent_name": "zzz_missing", "operator": "paraphrase"}
        nodes[0]["node"]["spec"]["provenance"] = provenance
    elif case == "mutant with a parent_name that is no string":
        provenance = {"origin": "mutant", "parent_name": [all_nodes[0]["node"]["name"]], "operator": "paraphrase"}
        nodes[0]["node"]["spec"]["provenance"] = provenance
    elif case == "mixed embedding models":
        nodes[0]["node"]["embedding_model_id"] = "other-embed"
    elif case == "nested embedding":
        nodes[0]["node"]["embedding"] = [nodes[0]["node"]["embedding"]]
    elif case == "edge of an unknown kind":
        edges[0]["edge"]["kind"] = "friendship"
    elif case == "edge weight a string":
        edges[0]["edge"]["weight"] = "high, very"
    elif case == "edge weight a bool":
        edges[0]["edge"]["weight"] = True
    elif case == "edge weight not above tau":
        edges[0]["edge"]["weight"] = 0.1
    elif case == "edge without its similarity weight":
        del edges[0]["edge"]["weight"]
    elif case == "edge of mutation kind with a weight":
        edges[0]["edge"]["kind"] = "mutation"
    elif case == "node name unlike its spec's":
        nodes[0]["node"]["name"] = "zzz_other"
    elif case == "node embedding of numeric strings":
        nodes[0]["node"]["embedding"] = [str(value) for value in nodes[0]["node"]["embedding"]]
    elif case == "node embedding with a bool":
        nodes[0]["node"]["embedding"][0] = True
    elif case == "node embedding with an int too large for a float":
        nodes[0]["node"]["embedding"][0] = 10**400
    elif case == "node of the other kind":
        nodes[0]["node"]["kind"] = "agent"
    elif case == "node spec not an object":
        nodes[0]["node"]["spec"] = 5
    elif case == "node embedding model not a string":
        nodes[0]["node"]["embedding_model_id"] = [1]
    elif case == "meta embedding model not a string":
        records[0]["meta"]["embedding_model_id"] = [1]
    elif case == "meta tau outside (0, 1)":
        records[0]["meta"]["tau"] = 1.5
    elif case == "appended edge repeated with another weight":
        records.append({"edge": {**edges[0]["edge"], "weight": 0.99}})
    elif case == "appended node record after the edges":
        records.append(nodes[0])
    elif case == "meta record after the nodes":
        records.insert(len(all_nodes), records.pop(0))
    elif case == "repeated node record":
        records.insert(records.index(nodes[0]) + 1, nodes[0])
    elif case == "record of an unknown type":
        records.insert(1, {"vertex": nodes[0]["node"]})
    elif case == "no records":
        records.clear()
    elif case == "first line an edge":
        records.insert(0, records.pop(records.index(edges[0])))
    elif case == "zero node embedding":
        nodes[0]["node"]["embedding"] = [0.0] * len(nodes[0]["node"]["embedding"])
    elif case == "overflowing node embedding norm":
        nodes[0]["node"]["embedding"][0] = 1e200
    elif case == "NaN node embedding norm":  # json.dumps writes the NaN literal
        nodes[0]["node"]["embedding"][0] = math.nan
    elif case == "infinite node embedding norm":  # and the Infinity literal
        nodes[0]["node"]["embedding"][0] = -math.inf
    return [json.dumps(r) for r in records]


# corrupt_snapshot case -> (the typed error load_graph raises for it, a phrase of its message)
BROKEN_SNAPSHOTS = {
    "node without embedding": (ParseError, "missing field"),
    "edge to a missing node": (ParseError, "missing node"),
    "edge with a >= b": (ParseError, "a < b"),
    "mixed embedding dims": (DimensionMismatch, "dims"),
    "mutant with a missing parent": (ParseError, "missing parent"),
    "mutant with a parent_name that is no string": (ParseError, "parent_name must be a string"),
    "mixed embedding models": (ParseError, "more than one model"),
    "nested embedding": (ParseError, "flat sequence"),
    "edge of an unknown kind": (ParseError, "unknown edge kind"),
    "edge weight a string": (ParseError, "not a finite number"),
    "edge weight a bool": (ParseError, "not a finite number"),
    "edge weight not above tau": (ParseError, "not above tau"),
    "edge without its similarity weight": (ParseError, "has no weight"),
    "edge of mutation kind with a weight": (ParseError, "carries a weight"),
    "node name unlike its spec's": (ParseError, "holds the spec of"),
    "node embedding of numeric strings": (ParseError, "JSON numbers"),
    "node embedding with a bool": (ParseError, "JSON numbers"),
    "node embedding with an int too large for a float": (ParseError, "too large"),
    "node of the other kind": (ParseError, 'must end with "_agent"'),
    "node spec not an object": (ParseError, "must be a JSON object"),
    "node embedding model not a string": (ParseError, "must be str"),
    "meta embedding model not a string": (ParseError, "must be str"),
    "meta tau outside (0, 1)": (ParseError, "tau must be in"),
    "appended edge repeated with another weight": (ParseError, "repeated similarity edge"),
    "appended node record after the edges": (ParseError, "out of order"),
    "meta record after the nodes": (ParseError, "out of order"),
    "repeated node record": (ParseError, "duplicate node"),
    "record of an unknown type": (ParseError, "unknown record type"),
    "no records": (ParseError, "missing meta record"),
    "first line an edge": (ParseError, "edge record out of order"),
    "zero node embedding": (ParseError, "has norm 0.0"),
    "overflowing node embedding norm": (ParseError, "has norm inf"),
    "NaN node embedding norm": (ParseError, "has norm nan"),
    "infinite node embedding norm": (ParseError, "has norm inf"),
}


def make_agent_doc(index: int) -> dict:
    domain, blurb = DOMAINS[index % len(DOMAINS)]
    return {
        "name": f"{domain}_ops_{index}_agent",
        "description": f"An autonomous agent that manages {blurb} end to end.",
        "tools": [f"{verb}_{domain}" for verb in VERBS[:5]],
        "inputSchema": {
            "type": "object",
            "properties": {
                "instruction": {
                    "type": "string",
                    "description": "Natural-language instruction describing the job.",
                }
            },
        },
        "tags": [f"{domain} agent"],
    }


def make_agent_bank(size: int) -> CandidateBank:
    entries = tuple(validate_spec(make_agent_doc(i), "agent") for i in range(size))
    return CandidateBank(kind="agent", entries=entries)


def distinct_pool_records(pools: int = 3, per_pool: int = 3, kind: str = "tool") -> list[DatasetRecord]:
    """Records over ``pools`` distinct inline pools of four candidates, ``per_pool`` records each."""
    make_doc = make_agent_doc if kind == "agent" else make_tool_doc
    records = []
    for p in range(pools):
        docs = [make_doc(4 * p + i) for i in range(4)]
        for i in range(per_pool):
            records.append(
                DatasetRecord(
                    kind=kind,
                    system="sys",
                    user="user",
                    query=f"query {p} {i}",
                    history=(),
                    pool_specs=tuple(copy.deepcopy(docs)),  # equal documents, never the same objects
                    label=docs[i % 4]["name"],
                    group=f"pool{p}",
                )
            )
    return records


def mock_gateway(seed: int = 0, **kwargs) -> Gateway:
    return Gateway(
        chat_backend=MockChatBackend(seed=seed),
        embedding_backend=MockEmbeddingBackend(seed=seed),
        backoff_s=0.0,
        **kwargs,
    )


# Wrongly typed spec fields: case -> (kind, the field edit, the field the
# SpecError names). validate_spec rejects each, in banks and dataset pools.
MALFORMED_SPEC_FIELDS = {
    "tags-int": ("tool", lambda doc: {**doc, "tags": 5}, "tags"),
    "tags-not-strings": ("tool", lambda doc: {**doc, "tags": [1, 2]}, "tags"),
    "description-int": ("tool", lambda doc: {**doc, "description": 5}, "description"),
    "required-entry-list": (
        "tool",
        lambda doc: {**doc, "inputSchema": {**doc["inputSchema"], "required": [["target"]]}},
        "required",
    ),
    "agent-tools-not-strings": ("agent", lambda doc: {**doc, "tools": [1, 2]}, "tools"),
    "agent-tools-int": ("agent", lambda doc: {**doc, "tools": 5}, "tools"),
    "property-type-not-strings": (
        "tool",
        lambda doc: {**doc, "inputSchema": {**doc["inputSchema"], "properties": {"target": {"type": ["string", 1]}}}},
        "type",
    ),
    "property-type-object": (
        "tool",
        lambda doc: {**doc, "inputSchema": {**doc["inputSchema"], "properties": {"target": {"type": {}}}}},
        "type",
    ),
}


class StaticEmbeddingBackend:
    """Returns prescribed vectors per exact text; for planted-similarity tests."""

    def __init__(self, mapping: dict[str, Sequence[float]], dim: int, model_id: str = "static-embed") -> None:
        self.mapping = {text: list(vec) for text, vec in mapping.items()}
        self.dim = dim
        self.model_id = model_id

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        out = []
        for text in texts:
            if text not in self.mapping:
                raise TransientBackendError(f"no static embedding for text: {text[:60]!r}")
            out.append(list(self.mapping[text]))
        return out


class ScriptedReasoner:
    """Replays a fixed list of actions; each action is a JSON-able dict."""

    def __init__(self, actions: Iterable[dict]) -> None:
        self._actions = list(actions)
        self._index = 0

    def decide(self, prompt: str) -> str:
        if self._index >= len(self._actions):
            return json.dumps({"action": "final", "answer": "out of scripted actions"})
        action = self._actions[self._index]
        self._index += 1
        return json.dumps(action)


_HISTORY_BLOCK_RE = re.compile(r"<history>(.*?)</history>", re.DOTALL)
_TURN_LINE_RE = re.compile(r"^(?:User|Assistant): ", re.MULTILINE)


def parse_history_turn_count(user_text: str) -> int:
    """Recover the serialized turn count from a rendered sample's history block."""
    match = _HISTORY_BLOCK_RE.search(user_text)
    if match is None:
        raise ParseError("<user text>", "no <history> block found")
    return len(_TURN_LINE_RE.findall(match.group(1)))


def candidate_calls(trajectory: Trajectory) -> int:
    """The candidate calls of a trajectory's actions."""
    return sum(len(turn.calls) for turn in trajectory.turns if isinstance(turn, Action))


def count_calls(monkeypatch, **targets):
    """Patch each ``name=(owner, attribute)`` to count its calls; the counts by name."""
    counts = dict.fromkeys(targets, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, (owner, attribute) in targets.items():
        monkeypatch.setattr(owner, attribute, counted(name, getattr(owner, attribute)))
    return counts


def edges_of_kind(graph, kind: str) -> list:
    """A graph's edges of one kind, in the graph's edge order."""
    return [edge for edge in graph.edges if edge.kind == kind]


def shell_commands(block: str) -> list[list[str]]:
    """The words of each line of a shell block, ``\\`` continuations joined and comments dropped."""
    return [shlex.split(line, comments=True) for line in re.sub(r"\\\n\s*", " ", block).splitlines()]
