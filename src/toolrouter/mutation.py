"""Self-evolutionary candidate expansion: pick, prompt, parse, insert.

Operator taxonomy (tools and agents each get five typed operators) drives
prompt rendering; the LLM's reply is validated through the registry before
the mutant joins the graph.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

from . import prompts
from ._util import derive_seed, write_jsonl
from .errors import (
    BadConfig,
    DuplicateName,
    EmptyGraph,
    GatewayError,
    MutationError,
    NameEqualsParent,
    SpecError,
    TagMismatch,
    ValidationError,
)
from .gateway import ChatRequest, Gateway, check_temperature, parse_json_reply, user_request
from .graph import CandidateGraph, add_mutant
from .registry import CandidateSpec, as_mutant, public_spec, validate_spec


class MutationOperator(Enum):
    # tool operators
    USAGE_EXTENSION = "Usage Extension"
    FUNCTION_ENHANCEMENT = "Function Enhancement"
    WORKFLOW_CHAIN = "Workflow Chain"
    HELPER_TOOL = "Helper Tool"
    PARAMETER_REDESIGN = "Parameter Redesign"
    # agent operators
    DOMAIN_TRANSFER = "Domain Transfer"
    CAPABILITY_ENHANCEMENT = "Capability Enhancement"
    WORKFLOW_SPECIALIZATION = "Workflow Specialization"
    TOOL_COMPOSITION = "Tool Composition"
    SCENARIO_ADAPTATION = "Scenario Adaptation"

    @property
    def family(self) -> str:
        return "tool" if self in TOOL_OPERATORS else "agent"


TOOL_OPERATORS: tuple[MutationOperator, ...] = (
    MutationOperator.USAGE_EXTENSION,
    MutationOperator.FUNCTION_ENHANCEMENT,
    MutationOperator.WORKFLOW_CHAIN,
    MutationOperator.HELPER_TOOL,
    MutationOperator.PARAMETER_REDESIGN,
)

AGENT_OPERATORS: tuple[MutationOperator, ...] = (
    MutationOperator.DOMAIN_TRANSFER,
    MutationOperator.CAPABILITY_ENHANCEMENT,
    MutationOperator.WORKFLOW_SPECIALIZATION,
    MutationOperator.TOOL_COMPOSITION,
    MutationOperator.SCENARIO_ADAPTATION,
)

OPERATOR_DESCRIPTIONS: dict[MutationOperator, str] = {
    MutationOperator.USAGE_EXTENSION: (
        "Apply the tool's core logic to related new scenarios or domains."
    ),
    MutationOperator.FUNCTION_ENHANCEMENT: (
        "Substantially expand the tool's capabilities to enable entirely new use cases "
        "while maintaining the core purpose (add 2+ major user-visible features)."
    ),
    MutationOperator.WORKFLOW_CHAIN: (
        "Create a tool that works immediately before or after the original tool in a "
        "workflow, providing better inputs or processing outputs."
    ),
    MutationOperator.HELPER_TOOL: (
        "Create an independent supporting tool that enhances the ecosystem around the "
        "original tool."
    ),
    MutationOperator.PARAMETER_REDESIGN: (
        "Modify the tool's parameter structure to enable different input patterns or "
        "interaction approaches. Focus on meaningful parameter changes that shift how "
        "users provide data or configure behavior."
    ),
    MutationOperator.DOMAIN_TRANSFER: (
        "Apply the agent's architecture and workflow to a different but related domain."
    ),
    MutationOperator.CAPABILITY_ENHANCEMENT: (
        "Substantially expand the agent's capabilities by adding new tools and extending "
        "its scope."
    ),
    MutationOperator.WORKFLOW_SPECIALIZATION: (
        "Create a more focused agent that specializes in a subset of the original "
        "agent's workflow."
    ),
    MutationOperator.TOOL_COMPOSITION: (
        "Recombine and restructure the agent's tools to create new workflow patterns."
    ),
    MutationOperator.SCENARIO_ADAPTATION: (
        "Adapt the agent to handle different use case scenarios or user contexts."
    ),
}


@dataclass(frozen=True)
class MutationRecord:
    parent: str
    operator: MutationOperator
    raw_response: str
    accepted: bool
    mutant_name: str | None = None
    reject_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "parent": self.parent,
            "operator": self.operator.value,
            "raw_response": self.raw_response,
            "accepted": self.accepted,
            "mutant_name": self.mutant_name,
            "reject_reason": self.reject_reason,
        }


def _pick(graph: CandidateGraph, rng: random.Random) -> tuple[str, MutationOperator]:
    """Uniform (candidate, operator) draw over the graph's nodes and the operators of their kind."""
    operators = TOOL_OPERATORS if graph.kind == "tool" else AGENT_OPERATORS
    return rng.choice(graph.names()), rng.choice(operators)


def render_mutation_prompt(
    base: CandidateSpec,
    op: MutationOperator,
    *,
    temperature: float = 0.8,
) -> ChatRequest:
    if op.family != base.kind:
        raise ValueError(f"operator {op.value!r} does not apply to {base.kind} candidates")
    if base.kind == "tool":
        content = prompts.fill(
            prompts.TOOL_MUTATION_TEMPLATE,
            BASE_JSON=json.dumps(public_spec(base), ensure_ascii=False, indent=2),
            MUTATION_TYPE=op.value,
            MUTATION_DESCRIPTION=OPERATOR_DESCRIPTIONS[op],
            TAGS_JSON=json.dumps(list(base.tags), ensure_ascii=False),
        )
    else:
        content = prompts.fill(
            prompts.AGENT_MUTATION_TEMPLATE,
            AGENT_NAME=base.name,
            AGENT_DESCRIPTION=base.description,
            AGENT_TOOLS_JSON=json.dumps(list(base.tools), ensure_ascii=False, indent=2),
            AGENT_SCHEMA_JSON=json.dumps(base.input_schema, ensure_ascii=False, indent=2),
            MUTATION_TYPE=op.value,
            MUTATION_DESCRIPTION=OPERATOR_DESCRIPTIONS[op],
        )
    return user_request(content, temperature=temperature)


def parse_mutant(response: str, base: CandidateSpec, operator: MutationOperator) -> CandidateSpec:
    """Parse and validate an LLM mutation reply as a candidate of the base's kind; stamps mutation provenance."""
    document = parse_json_reply(response, "mutant reply")
    document.pop("provenance", None)
    spec = validate_spec(document, base.kind)
    if spec.name == base.name:
        raise NameEqualsParent(f"mutant name equals parent name: {spec.name!r}")
    if base.kind == "tool" and spec.tags != base.tags:
        raise TagMismatch(f"tool mutant changed tags: {spec.tags} != {base.tags}")
    return as_mutant(spec, parent=base.name, operator=operator.value)


@dataclass(frozen=True)
class EvolveConfig:
    rng_seed: int = 0
    max_retries: int = 2
    temperature: float = 0.8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise BadConfig("max_retries must be >= 0")
        check_temperature(self.temperature, BadConfig)


@dataclass
class EvolveResult:
    graph: CandidateGraph
    records: list[MutationRecord] = field(default_factory=list)
    aborted_error: str | None = None

    @property
    def accepted(self) -> int:
        return sum(1 for record in self.records if record.accepted)


def evolve(graph: CandidateGraph, rounds: int, cfg: EvolveConfig, gateway: Gateway) -> EvolveResult:
    """Run pick -> prompt -> parse -> insert for a number of rounds.

    A reply that does not parse, validate or insert is re-asked for the
    same (parent, operator) up to cfg.max_retries times, then the round is
    recorded as rejected. A gateway error, from the chat or from embedding
    the mutant, aborts, returning the partial result with the error noted.
    """
    if rounds < 0:
        raise BadConfig(f"rounds must be >= 0, got {rounds}")
    if rounds and graph.kind is None:
        raise EmptyGraph("cannot evolve an empty graph")
    result = EvolveResult(graph=graph)
    rejects = (MutationError, SpecError, ValidationError, DuplicateName)
    for round_index in range(rounds):
        rng = random.Random(derive_seed(cfg.rng_seed, "round", round_index))
        parent_name, op = _pick(result.graph, rng)
        parent_spec = result.graph.specs[parent_name]
        request = render_mutation_prompt(parent_spec, op, temperature=cfg.temperature)

        raw_response = ""  # the reply being read: the record's, should a gateway error abort the round

        def read(reply: str) -> tuple[CandidateGraph, str]:
            nonlocal raw_response
            raw_response = reply
            mutant = parse_mutant(reply, parent_spec, op)
            return add_mutant(result.graph, parent_name, mutant, gateway), mutant.name

        try:
            accepted, raw_response, rejection = gateway.ask(request, read, cfg.max_retries, rejects)
        except GatewayError as exc:
            result.aborted_error = str(exc)
            result.records.append(MutationRecord(parent_name, op, raw_response, False, reject_reason=f"gateway: {exc}"))
            return result
        if accepted is None:
            record = MutationRecord(parent_name, op, raw_response, False, reject_reason=str(rejection))
        else:
            result.graph, mutant_name = accepted
            record = MutationRecord(parent_name, op, raw_response, True, mutant_name)
        result.records.append(record)
    return result


def write_mutation_log(records: Iterable[MutationRecord], path: str | Path) -> None:
    write_jsonl(path, (record.to_dict() for record in records), "mutation log")
