"""Candidate specifications (tools and agents), banks, and pools.

Specs follow the exchange format used throughout the pipeline: JSON objects
with fields name / description / inputSchema / tools / tags, plus an optional
provenance block for candidates produced by mutation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator

from ._util import RECORD_ERRORS, json_object, parse_lines, read_text, record_error, write_jsonl
from .errors import (
    BadAgentName,
    DuplicateToolEntry,
    MissingField,
    ParseError,
    SchemaMalformed,
    SpecError,
    ValidationError,
)

AGENT_SUFFIX = "_agent"
MAX_AGENT_TOOLS = 16


@dataclass(frozen=True)
class Provenance:
    origin: str = "seed"  # "seed" | "mutant"
    parent_name: str | None = None
    operator: str | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"origin": self.origin}
        if self.parent_name is not None:
            out["parent_name"] = self.parent_name
        if self.operator is not None:
            out["operator"] = self.operator
        return out


@dataclass(frozen=True)
class CandidateSpec:
    """One tool or agent. An agent is a candidate that also lists its tools."""

    kind: str  # "tool" | "agent"
    name: str
    description: str
    input_schema: dict[str, Any]
    tools: tuple[str, ...] = ()  # agents only
    tags: tuple[str, ...] = ()
    provenance: Provenance = field(default_factory=Provenance)

    def __post_init__(self) -> None:
        if self.kind not in ("tool", "agent") or bool(self.tools) != (self.kind == "agent"):
            raise ValueError(f"{self.kind} candidate {self.name!r}: agents, and only agents, list tools")

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"name": self.name, "description": self.description}
        if self.kind == "agent":
            doc["tools"] = list(self.tools)
        doc["inputSchema"] = self.input_schema
        doc["tags"] = list(self.tags)
        doc["provenance"] = self.provenance.to_dict()
        return doc

    @cached_property
    def phi(self) -> str:
        """The canonical text, rendered once per spec object (see ``serialize_phi``)."""
        return serialize_phi(self)

    @cached_property
    def pool_entry(self) -> str:
        """The public document as one entry of an indent-2 JSON array (see ``pool_json``)."""
        return json.dumps(public_spec(self), ensure_ascii=False, indent=2).replace("\n", "\n  ")


def public_spec(spec: CandidateSpec) -> dict[str, Any]:
    """The exchange-format document shown to models: the spec without provenance."""
    doc = spec.to_dict()
    del doc["provenance"]
    return doc


def pool_json(specs: Iterable[CandidateSpec]) -> str:
    """The public documents of ``specs`` as an indent-2 JSON array.

    Joined from each spec's cached ``pool_entry``; the bytes equal
    ``json.dumps([public_spec(s) for s in specs], ensure_ascii=False, indent=2)``.
    """
    entries = [spec.pool_entry for spec in specs]
    return "[\n  " + ",\n  ".join(entries) + "\n]" if entries else "[]"


def _check_schema(schema: Any, *, require_property_descriptions: bool) -> dict[str, Any]:
    if not isinstance(schema, dict):
        raise SchemaMalformed("$", "not an object")
    if schema.get("type") != "object":
        raise SchemaMalformed("$.type", "must be 'object'")
    properties = schema.get("properties", {})
    if not isinstance(properties, dict):
        raise SchemaMalformed("$.properties", "not an object")
    for prop_name, prop in properties.items():
        if not isinstance(prop, dict):
            raise SchemaMalformed(f"$.properties.{prop_name}", "not an object")
        types = prop.get("type", [])
        if not all(isinstance(entry, str) for entry in (types if isinstance(types, list) else [types])):
            raise SchemaMalformed(f"$.properties.{prop_name}.type", "must be a string or a list of strings")
        if require_property_descriptions and not prop.get("description"):
            raise SchemaMalformed(f"$.properties.{prop_name}.description", "missing description")
    required = schema.get("required", [])
    if not isinstance(required, list):
        raise SchemaMalformed("$.required", "not a list")
    for entry in required:
        if not isinstance(entry, str):
            raise SchemaMalformed("$.required", "entries must be strings")
        if entry not in properties:
            raise SchemaMalformed(f"$.required.{entry}", "names a non-existent property")
    normalized: dict[str, Any] = {"type": "object", "properties": properties}
    if required:
        normalized["required"] = required
    return normalized


def _parse_provenance(document: dict[str, Any]) -> Provenance:
    raw = document.get("provenance")
    if raw is None:
        return Provenance()
    if not isinstance(raw, dict):
        raise ValidationError(document.get("name", "?"), "provenance must be an object")
    origin = raw.get("origin", "seed")
    if origin not in ("seed", "mutant"):
        raise ValidationError(document.get("name", "?"), f"bad provenance origin {origin!r}")
    parent = raw.get("parent_name")
    operator = raw.get("operator")
    for key, value in (("parent_name", parent), ("operator", operator)):
        if value is not None and not isinstance(value, str):
            raise ValidationError(document.get("name", "?"), f"provenance {key} must be a string")
    if origin == "mutant":
        if not parent or not operator:
            raise ValidationError(
                document.get("name", "?"), "mutant provenance requires parent_name and operator"
            )
    elif parent or operator:
        raise ValidationError(
            document.get("name", "?"), "seed provenance must not carry parent_name/operator"
        )
    return Provenance(origin=origin, parent_name=parent, operator=operator)


def _string_list(document: dict[str, Any], key: str) -> tuple[str, ...]:
    value = document.get(key) or []
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise SpecError(f"candidate {document['name']!r}: {key} must be a list of strings")
    return tuple(value)


def validate_spec(document: dict[str, Any], kind: str) -> CandidateSpec:
    """Validate a parsed exchange-format document into a spec.

    Normalizes absent tags to an empty tuple (tools only; agents must carry
    at least one tag). A tool document has no ``tools`` field.
    """
    if kind not in ("tool", "agent"):
        raise ValueError(f"unknown candidate kind: {kind!r}")
    if not isinstance(document, dict):
        raise SpecError(f"a candidate must be a JSON object, got {type(document).__name__}")
    for required_field in ("name", "description", "inputSchema"):
        if not document.get(required_field):
            raise MissingField(required_field)
    name = document["name"]
    if not isinstance(name, str) or not name.strip():
        raise MissingField("name")
    if not isinstance(document["description"], str):
        raise SpecError(f"candidate {name!r}: description must be a string")
    tags = _string_list(document, "tags")
    provenance = _parse_provenance(document)
    tools: tuple[str, ...] = ()
    if kind == "tool" and "tools" in document:
        raise SpecError(f"tool {name!r} lists tools: only agents do, and a bank holds one kind")
    if kind == "agent":
        if not name.endswith(AGENT_SUFFIX):
            raise BadAgentName(name)
        tools = _string_list(document, "tools")
        if not tools:
            raise MissingField("tools")
        if len(tools) > MAX_AGENT_TOOLS:
            raise ValidationError(name, f"agents need 1-{MAX_AGENT_TOOLS} tools, got {len(tools)}")
        for index, tool in enumerate(tools):
            if tool in tools[:index]:
                raise DuplicateToolEntry(tool)
        if not tags:
            raise MissingField("tags")
    schema = _check_schema(document["inputSchema"], require_property_descriptions=kind == "agent")
    return CandidateSpec(
        kind=kind,
        name=name,
        description=document["description"],
        input_schema=schema,
        tools=tools,
        tags=tags,
        provenance=provenance,
    )


def _flatten_schema_lines(schema: dict[str, Any]) -> list[str]:
    properties = schema.get("properties", {})
    required = set(schema.get("required", []))
    lines = []
    for prop_name in sorted(properties):
        prop = properties[prop_name]
        kind = prop.get("type", "any")
        marker = ", required" if prop_name in required else ""
        description = prop.get("description", "")
        line = f"  {prop_name} ({kind}{marker})"
        if description:
            line += f": {description}"
        lines.append(line)
    return lines


def serialize_phi(spec: CandidateSpec) -> str:
    """Canonical text rendering of a candidate used for embedding.

    Deterministic: schema properties in lexicographic order, empty sections
    elided. Agents additionally list their tools.
    """
    lines = [f"{spec.kind}: {spec.name}", f"description: {spec.description}"]
    if spec.kind == "agent":
        lines.append(f"tools: {', '.join(spec.tools)}")
    schema_lines = _flatten_schema_lines(spec.input_schema)
    if schema_lines:
        lines.append("parameters:")
        lines.extend(schema_lines)
    if spec.tags:
        lines.append(f"tags: {', '.join(spec.tags)}")
    return "\n".join(lines)


@dataclass(frozen=True)
class CandidateBank:
    """Immutable ordered collection of same-kind candidates with unique names.

    ``_index`` maps each name to its spec in entry order; every name lookup,
    merge and pool check reads it.
    """

    kind: str
    entries: tuple[CandidateSpec, ...] = ()
    _index: dict[str, CandidateSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, CandidateSpec] = {}
        for spec in self.entries:
            if spec.kind != self.kind:
                raise ValidationError(spec.name, f"kind {spec.kind!r} in a {self.kind!r} bank")
            if spec.name in index:
                raise ValidationError(spec.name, "duplicate name in bank")
            index[spec.name] = spec
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[CandidateSpec]:
        return iter(self.entries)

    def names(self) -> tuple[str, ...]:
        return tuple(self._index)

    def get(self, name: str) -> CandidateSpec | None:
        return self._index.get(name)

    @staticmethod
    def merge(kind: str, banks: Iterable["CandidateBank"]) -> "CandidateBank":
        """Union of banks; later duplicates of an existing name are skipped."""
        index: dict[str, CandidateSpec] = {}
        for bank in banks:
            for name, spec in bank._index.items():
                index.setdefault(name, spec)
        return CandidateBank(kind=kind, entries=tuple(index.values()))


@dataclass(frozen=True)
class CandidatePool:
    """A subset of a bank offered at one routing step."""

    bank: CandidateBank
    membership: tuple[str, ...]
    non_callable: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.membership:
            raise ValidationError("<pool>", "pool membership must be non-empty")
        for name in self.membership:
            if name not in self.bank._index:
                raise ValidationError(name, "pool member not in bank")

    def __len__(self) -> int:
        return len(self.membership)

    def specs(self) -> list[CandidateSpec]:
        # Every member is in the bank (checked at construction).
        index = self.bank._index
        return [index[name] for name in self.membership]

    @cached_property
    def phi_texts(self) -> tuple[str, ...]:
        """The members' phi texts in membership order, gathered once per pool object."""
        return tuple(spec.phi for spec in self.specs())

    @cached_property
    def member_set(self) -> frozenset[str]:
        """The members as a set, for membership tests."""
        return frozenset(self.membership)

    @cached_property
    def sorted_members(self) -> tuple[str, ...]:
        """The members in name order, sorted once per pool object."""
        return tuple(sorted(self.membership))

    @staticmethod
    def whole_bank(bank: CandidateBank) -> "CandidatePool":
        return CandidatePool(bank=bank, membership=bank.names())


def load_bank(path: str | Path) -> CandidateBank:
    """Load a bank from a JSON array or JSONL file, validating every entry.

    An agent bank if the first entry lists tools. An invalid entry is a
    ParseError at its ``file[i]`` (array) or ``file:line`` (JSONL).
    """
    path = Path(path)
    raw = read_text(path, "bank file")
    kind: str | None = None  # set from the first entry

    def parse(document: Any) -> CandidateSpec:
        nonlocal kind
        if kind is None:
            kind = "agent" if isinstance(document, dict) and "tools" in document else "tool"
        return validate_spec(document, kind)

    if raw.lstrip().startswith("["):
        try:
            array = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}", exc.msg) from exc
        except RecursionError as exc:
            raise record_error(str(path), exc) from exc
        entries = []
        try:
            for document in array:
                entries.append(parse(document))
        except RECORD_ERRORS as exc:
            raise record_error(f"{path}[{len(entries)}]", exc) from exc
    else:
        entries = parse_lines(path, raw.split("\n"), lambda line: parse(json_object(line)))
    if not entries:
        raise ParseError(str(path), "empty bank file")
    return CandidateBank(kind=kind, entries=tuple(entries))


def save_bank(bank: CandidateBank, path: str | Path) -> None:
    """Write a bank as JSONL, one spec object per line."""
    write_jsonl(path, (spec.to_dict() for spec in bank), "bank file")


def as_mutant(spec: CandidateSpec, parent: str, operator: str) -> CandidateSpec:
    """Stamp mutation provenance onto a validated spec."""
    return replace(spec, provenance=Provenance(origin="mutant", parent_name=parent, operator=operator))
