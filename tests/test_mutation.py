"""Operator taxonomy, picking, prompt rendering, reply parsing, evolve loop."""

import json
import math
import random

import pytest

from helpers import make_agent_bank, make_agent_doc, make_tool_bank, make_tool_doc, mock_gateway
from toolrouter.backends import MockChatBackend, MockEmbeddingBackend
from toolrouter.errors import BadAgentName, BadConfig, EmptyGraph, NameEqualsParent, NotParseable, TagMismatch
from toolrouter.gateway import Gateway, TransientBackendError, strip_code_fence
from toolrouter.graph import CandidateGraph, GraphConfig, GraphNode, build_graph
from toolrouter.mutation import (
    AGENT_OPERATORS,
    TOOL_OPERATORS,
    EvolveConfig,
    MutationOperator,
    evolve,
    parse_mutant,
    _pick,
    render_mutation_prompt,
    write_mutation_log,
)
from toolrouter.registry import validate_spec


def test_operator_taxonomy():
    assert len(TOOL_OPERATORS) == 5 and len(AGENT_OPERATORS) == 5
    assert {op.value for op in TOOL_OPERATORS} == {
        "Usage Extension",
        "Function Enhancement",
        "Workflow Chain",
        "Helper Tool",
        "Parameter Redesign",
    }
    assert {op.value for op in AGENT_OPERATORS} == {
        "Domain Transfer",
        "Capability Enhancement",
        "Workflow Specialization",
        "Tool Composition",
        "Scenario Adaptation",
    }
    assert all(op.family == "tool" for op in TOOL_OPERATORS)
    assert all(op.family == "agent" for op in AGENT_OPERATORS)


def test_pick_mutation_deterministic():
    graph = build_graph(make_tool_bank(5), GraphConfig(), mock_gateway(0))
    assert _pick(graph, random.Random(7)) == _pick(graph, random.Random(7))
    draws = {_pick(graph, random.Random(seed)) for seed in range(50)}
    assert len(draws) > 10  # seeds actually vary the draw


def test_pick_mutation_approximately_uniform():
    graph = build_graph(make_tool_bank(5), GraphConfig(), mock_gateway(0))
    counts: dict = {}
    n = 10_000
    for seed in range(n):
        key = _pick(graph, random.Random(seed))
        counts[key] = counts.get(key, 0) + 1
    cells = 5 * 5
    expected = n / cells
    # three-sigma binomial bound per cell
    sigma = math.sqrt(n * (1 / cells) * (1 - 1 / cells))
    assert len(counts) == cells
    for count in counts.values():
        assert abs(count - expected) <= 3.5 * sigma


def test_render_tool_prompt_contents():
    base = validate_spec(make_tool_doc(0), "tool")
    request = render_mutation_prompt(base, MutationOperator.FUNCTION_ENHANCEMENT)
    prompt = request.messages[-1].content
    assert "# Role: Expert Tool Designer" in prompt
    assert "## Mutation Strategy: Function Enhancement" in prompt
    assert base.name in prompt
    assert f"Keep the same domain tags: {json.dumps(list(base.tags))}" in prompt
    assert request.temperature == 0.8


def test_render_agent_prompt_contents():
    base = validate_spec(make_agent_doc(0), "agent")
    prompt = render_mutation_prompt(base, MutationOperator.DOMAIN_TRANSFER).messages[-1].content
    assert "# Role: Expert Agent Architect" in prompt
    assert 'Agent name MUST end with "_agent"' in prompt
    assert f"Agent Name: {base.name}" in prompt
    assert "## Mutation Strategy: Domain Transfer" in prompt


def test_render_prompt_rejects_wrong_family():
    base = validate_spec(make_tool_doc(0), "tool")
    with pytest.raises(ValueError):
        render_mutation_prompt(base, MutationOperator.DOMAIN_TRANSFER)


def test_strip_code_fence():
    assert strip_code_fence('```json\n{"a": 1}\n```') == '{"a": 1}'
    assert strip_code_fence('```\n{"a": 1}\n```') == '{"a": 1}'
    assert strip_code_fence('{"a": 1}') == '{"a": 1}'


def test_parse_mutant_accepts_and_stamps():
    base = validate_spec(make_tool_doc(0), "tool")
    doc = make_tool_doc(0)
    doc["name"] = "different_name"
    reply = f"```json\n{json.dumps(doc)}\n```"
    mutant = parse_mutant(reply, base, MutationOperator.USAGE_EXTENSION)
    assert mutant.name == "different_name"
    assert mutant.provenance.origin == "mutant"
    assert mutant.provenance.parent_name == base.name
    assert mutant.provenance.operator == "Usage Extension"


def test_parse_mutant_rejections():
    base = validate_spec(make_tool_doc(0), "tool")
    op = MutationOperator.USAGE_EXTENSION
    with pytest.raises(NotParseable):
        parse_mutant("not json at all", base, op)
    with pytest.raises(NotParseable):
        parse_mutant('["a list"]', base, op)
    with pytest.raises(NameEqualsParent):
        parse_mutant(json.dumps(make_tool_doc(0)), base, op)
    changed = make_tool_doc(0)
    changed["name"] = "other_name"
    changed["tags"] = ["swapped"]
    with pytest.raises(TagMismatch):
        parse_mutant(json.dumps(changed), base, op)

    agent_base = validate_spec(make_agent_doc(0), "agent")
    bad_agent = make_agent_doc(0)
    bad_agent["name"] = "missing_suffix"
    with pytest.raises(BadAgentName):
        parse_mutant(json.dumps(bad_agent), agent_base, MutationOperator.DOMAIN_TRANSFER)
    with pytest.raises(BadAgentName):  # a reply is validated in its base's kind
        parse_mutant(json.dumps(make_tool_doc(1)), agent_base, MutationOperator.DOMAIN_TRANSFER)


def test_evolve_zero_rounds_identity():
    graph = build_graph(make_tool_bank(5), GraphConfig(), mock_gateway(0))
    result = evolve(graph, 0, EvolveConfig(rng_seed=1), mock_gateway(0))
    assert result.graph is graph
    assert result.records == [] and result.accepted == 0
    with pytest.raises(ValueError):
        evolve(graph, -1, EvolveConfig(), mock_gateway(0))


def test_negative_rounds_are_bad_config():
    graph = build_graph(make_tool_bank(3), GraphConfig(), mock_gateway(0))
    with pytest.raises(BadConfig, match="rounds must be >= 0, got -1"):
        evolve(graph, -1, EvolveConfig(), mock_gateway(0))


def test_evolve_accepts_mock_mutants():
    gateway = mock_gateway(7)
    graph = build_graph(make_tool_bank(10), GraphConfig(), gateway)
    result = evolve(graph, 5, EvolveConfig(rng_seed=3), gateway)
    assert result.aborted_error is None
    assert len(result.records) == 5
    assert result.accepted >= 1
    for record in result.records:
        if record.accepted:
            spec = result.graph.specs[record.mutant_name]
            assert spec.provenance.origin == "mutant"
            assert spec.provenance.parent_name == record.parent
    assert len(result.graph) == 10 + result.accepted


def test_evolve_gateway_error_aborts_with_partial_result():
    class DeadChat:
        model_id = "dead"

        def complete(self, request):
            raise TransientBackendError("offline")

    gateway = mock_gateway(7)
    graph = build_graph(make_tool_bank(10), GraphConfig(), gateway)
    dead = Gateway(
        chat_backend=DeadChat(),
        embedding_backend=None,
        max_retries=1,
        backoff_s=0.0,
    )
    result = evolve(graph, 3, EvolveConfig(rng_seed=3), dead)
    assert result.aborted_error is not None
    assert len(result.records) == 1 and not result.records[0].accepted
    assert result.graph is graph


class BadRowOnCall(MockEmbeddingBackend):
    """The mock embedder, except that its ``bad_call``-th call returns a row of ``value`` first."""

    def __init__(self, bad_call, value):
        super().__init__(seed=7)
        self.bad_call, self.value, self.calls = bad_call, value, 0

    def embed(self, texts):
        self.calls += 1
        rows = super().embed(texts)
        if self.calls == self.bad_call:
            rows[0] = [self.value] * self.dim
        return rows


def test_evolve_embedding_error_aborts_with_partial_result():
    graph = build_graph(make_tool_bank(10), GraphConfig(), mock_gateway(7))
    for value, phrase in ((math.inf, "finite"), (0.0, "has norm 0.0")):  # a row with no cosine
        gateway = Gateway(MockChatBackend(seed=7), BadRowOnCall(bad_call=3, value=value), backoff_s=0.0)
        result = evolve(graph, 5, EvolveConfig(rng_seed=3), gateway)
        assert [record.accepted for record in result.records] == [True, True, False]
        assert result.accepted == 2 and len(result.graph) == 12
        assert phrase in result.aborted_error and result.records[-1].reject_reason.startswith("gateway: ")
        assert result.records[-1].raw_response  # the reply whose mutant could not be embedded


# bank -> (its candidates, the kind its rounds mutate, that kind's operators)
KIND_MIXES = {"agents": (make_agent_bank, "agent", AGENT_OPERATORS), "tools": (make_tool_bank, "tool", TOOL_OPERATORS)}


@pytest.mark.parametrize("mix", sorted(KIND_MIXES))
def test_evolve_mutates_the_kinds_the_graph_has(mix):
    make_bank, kind, operators = KIND_MIXES[mix]
    gateway = mock_gateway(7)
    specs = list(make_bank(6))
    vectors = gateway.embed_texts([spec.phi for spec in specs])
    graph = CandidateGraph(GraphConfig(), nodes={s.name: GraphNode(s, v) for s, v in zip(specs, vectors)})
    result = evolve(graph, 8, EvolveConfig(rng_seed=3), gateway)
    assert result.aborted_error is None and result.graph.kind == kind
    assert {result.graph.specs[record.parent].kind for record in result.records} == {kind}
    assert {record.operator for record in result.records} <= set(operators)
    accepted = [result.graph.specs[record.mutant_name] for record in result.records if record.accepted]
    assert accepted and {mutant.kind for mutant in accepted} == {kind}


def test_evolve_empty_graph_only_when_a_round_runs():
    graph = CandidateGraph(GraphConfig())
    assert graph.kind is None
    assert evolve(graph, 0, EvolveConfig(), mock_gateway(0)).graph is graph
    with pytest.raises(EmptyGraph):
        evolve(graph, 1, EvolveConfig(), mock_gateway(0))


def test_mutation_log_roundtrip(tmp_path):
    gateway = mock_gateway(7)
    graph = build_graph(make_tool_bank(10), GraphConfig(), gateway)
    result = evolve(graph, 3, EvolveConfig(rng_seed=3), gateway)
    path = tmp_path / "mutations.jsonl"
    write_mutation_log(result.records, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 3
    assert all({"parent", "operator", "accepted"} <= set(line) for line in lines)
