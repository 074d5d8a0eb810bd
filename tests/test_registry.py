"""Spec validation, canonical serialization, banks, pools, and bank files."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    MALFORMED_SPEC_FIELDS,
    RAW_LINE_BREAKS,
    make_agent_doc,
    make_tool_bank,
    make_tool_doc,
    tool_bank_describing,
)
from toolrouter.errors import (
    BadAgentName,
    DuplicateToolEntry,
    IoError,
    MissingField,
    ParseError,
    SchemaMalformed,
    SpecError,
    ValidationError,
)
from toolrouter.registry import (
    CandidateBank,
    CandidatePool,
    CandidateSpec,
    as_mutant,
    load_bank,
    save_bank,
    serialize_phi,
    validate_spec,
)


def test_validate_tool_roundtrip():
    doc = make_tool_doc(0)
    spec = validate_spec(doc, "tool")
    assert spec.kind == "tool" and spec.tools == ()
    assert spec.name == doc["name"]
    assert spec.provenance.origin == "seed"
    assert spec.to_dict()["inputSchema"]["required"] == ["target"]
    assert list(spec.to_dict()) == ["name", "description", "inputSchema", "tags", "provenance"]


def test_validate_agent_roundtrip():
    spec = validate_spec(make_agent_doc(3), "agent")
    assert spec.kind == "agent"
    assert spec.name.endswith("_agent")
    assert len(spec.tools) == 5
    assert list(spec.to_dict()) == ["name", "description", "tools", "inputSchema", "tags", "provenance"]


@pytest.mark.parametrize("kind, tools", [("tool", ("search_files",)), ("agent", ()), ("team", ())])
def test_only_agents_list_tools(kind, tools):
    with pytest.raises(ValueError, match="only agents"):
        CandidateSpec(kind=kind, name="x_agent", description="d", input_schema={"type": "object"}, tools=tools)


@pytest.mark.parametrize("missing", ["name", "description", "inputSchema"])
def test_missing_fields(missing):
    doc = make_tool_doc(0)
    del doc[missing]
    with pytest.raises(MissingField):
        validate_spec(doc, "tool")


def test_agent_name_suffix_enforced():
    doc = make_agent_doc(0)
    doc["name"] = "bad_name"
    with pytest.raises(BadAgentName):
        validate_spec(doc, "agent")


def test_agent_requires_tools_and_tags():
    doc = make_agent_doc(0)
    doc["tools"] = []
    with pytest.raises(MissingField):
        validate_spec(doc, "agent")
    doc = make_agent_doc(0)
    doc["tags"] = []
    with pytest.raises(MissingField):
        validate_spec(doc, "agent")


def test_agent_duplicate_tool_entry():
    doc = make_agent_doc(0)
    doc["tools"] = ["a", "b", "a"]
    with pytest.raises(DuplicateToolEntry):
        validate_spec(doc, "agent")


def test_agent_property_descriptions_required():
    doc = make_agent_doc(0)
    doc["inputSchema"]["properties"]["instruction"].pop("description")
    with pytest.raises(SchemaMalformed):
        validate_spec(doc, "agent")


def test_schema_required_must_exist():
    doc = make_tool_doc(0)
    doc["inputSchema"]["required"] = ["ghost"]
    with pytest.raises(SchemaMalformed):
        validate_spec(doc, "tool")


def test_schema_must_be_object():
    doc = make_tool_doc(0)
    doc["inputSchema"] = {"type": "array"}
    with pytest.raises(SchemaMalformed):
        validate_spec(doc, "tool")


@pytest.mark.parametrize("case", sorted(MALFORMED_SPEC_FIELDS))
def test_mistyped_fields_are_spec_errors(case):
    kind, edit, field_name = MALFORMED_SPEC_FIELDS[case]
    doc = edit(make_agent_doc(0) if kind == "agent" else make_tool_doc(0))
    with pytest.raises(SpecError, match=field_name):
        validate_spec(doc, kind)


@pytest.mark.parametrize("value", [False, 0, "", {}], ids=["false", "zero", "empty-string", "empty-object"])
@pytest.mark.parametrize("kind, key", [("tool", "tags"), ("agent", "tools")])
def test_a_falsy_list_field_that_is_no_list_is_a_spec_error_at_its_bank_line(tmp_path, kind, key, value):
    make_doc = make_agent_doc if kind == "agent" else make_tool_doc
    doc = {**make_doc(1), key: value}
    with pytest.raises(SpecError, match=re.escape(f"candidate {doc['name']!r}: {key} must be a list of strings")):
        validate_spec(doc, kind)
    bank = tmp_path / "bank.jsonl"
    bank.write_text(json.dumps(make_doc(0)) + "\n" + json.dumps(doc) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{bank}:2:")):
        load_bank(bank)


def test_absent_or_null_tags_are_empty():
    doc = make_tool_doc(0)
    doc.pop("tags", None)
    assert validate_spec(doc, "tool").tags == () == validate_spec({**doc, "tags": None}, "tool").tags
    with pytest.raises(MissingField, match="tools"):
        validate_spec({**make_agent_doc(0), "tools": None}, "agent")


def test_serialize_phi_shape_and_determinism():
    spec = validate_spec(make_tool_doc(1), "tool")
    text = serialize_phi(spec)
    lines = text.splitlines()
    assert lines[0] == f"tool: {spec.name}"
    assert lines[1].startswith("description: ")
    assert "parameters:" in lines
    # lexicographic property order
    param_lines = [line for line in lines if line.startswith("  ")]
    names = [line.strip().split(" ")[0] for line in param_lines]
    assert names == sorted(names)
    assert serialize_phi(spec) == text


def test_serialize_phi_elides_empty_sections():
    spec = validate_spec(
        {
            "name": "bare",
            "description": "No parameters at all.",
            "inputSchema": {"type": "object", "properties": {}},
        },
        "tool",
    )
    text = serialize_phi(spec)
    assert "parameters:" not in text
    assert "tags:" not in text


def test_serialize_phi_injective_on_bank():
    bank = make_tool_bank(50)
    texts = {serialize_phi(spec) for spec in bank}
    assert len(texts) == len(bank)


def test_serialize_phi_agent_lists_tools():
    spec = validate_spec(make_agent_doc(2), "agent")
    assert f"tools: {', '.join(spec.tools)}" in serialize_phi(spec)


def test_bank_rejects_duplicates_and_kind_mix():
    tool = validate_spec(make_tool_doc(0), "tool")
    with pytest.raises(ValidationError):
        CandidateBank(kind="tool", entries=(tool, tool))
    agent = validate_spec(make_agent_doc(0), "agent")
    with pytest.raises(ValidationError):
        CandidateBank(kind="tool", entries=(agent,))


def test_bank_merge_skips_later_duplicates():
    a = make_tool_bank(3)
    b = make_tool_bank(5)  # shares the first three names
    merged = CandidateBank.merge("tool", [a, b])
    assert merged.names() == b.names()
    # the first occurrence wins
    assert merged.get(a.names()[0]) is a.entries[0]


def _scan_get(bank, name):
    for spec in bank.entries:
        if spec.name == name:
            return spec
    return None


@st.composite
def overlapping_banks(draw):
    """Tool banks over a small shared name space; each bank's specs are its own objects."""
    names = draw(st.lists(st.sampled_from([f"tool_{i}" for i in range(10)]), unique=True, max_size=7))
    schema = {"type": "object", "properties": {}}
    entries = tuple(CandidateSpec(kind="tool", name=name, description=f"{name} variant", input_schema=schema) for name in names)
    return CandidateBank(kind="tool", entries=entries)


@settings(max_examples=150, deadline=None)
@given(st.lists(overlapping_banks(), min_size=1, max_size=4), st.data())
def test_name_index_matches_linear_scan(banks, data):
    probes = [f"tool_{i}" for i in range(12)]
    for bank in banks:
        assert bank.names() == tuple(spec.name for spec in bank.entries)
        assert all(bank.get(name) is _scan_get(bank, name) for name in probes)
    merged = CandidateBank.merge("tool", banks)
    expected = []
    for bank in banks:
        expected += [spec for spec in bank.entries if all(kept.name != spec.name for kept in expected)]
    assert len(merged.entries) == len(expected)
    assert all(a is b for a, b in zip(merged.entries, expected))
    assert all(merged.get(name) is _scan_get(merged, name) for name in probes)
    # the index is no part of equality or the repr
    assert merged == CandidateBank(kind="tool", entries=tuple(expected))
    assert "_index" not in repr(merged)
    if merged.entries:
        members = data.draw(st.lists(st.sampled_from(merged.names()), min_size=1, unique=True))
        pool = CandidatePool(bank=merged, membership=tuple(members))
        specs = pool.specs()
        assert len(specs) == len(members)
        assert all(spec is _scan_get(merged, name) for spec, name in zip(specs, members))


def test_pool_membership_and_resolution():
    bank = make_tool_bank(4)
    pool = CandidatePool(bank=bank, membership=bank.names()[:2])
    assert len(pool) == 2
    with pytest.raises(ValidationError):
        CandidatePool(bank=bank, membership=("not_in_bank",))
    with pytest.raises(ValidationError):
        CandidatePool(bank=bank, membership=())


def test_bank_file_roundtrip_jsonl(tmp_path):
    bank = make_tool_bank(5)
    path = tmp_path / "bank.jsonl"
    save_bank(bank, path)
    loaded = load_bank(path)
    assert loaded.kind == "tool"
    assert loaded.names() == bank.names()


@pytest.mark.parametrize("char", RAW_LINE_BREAKS)
def test_a_bank_file_whose_spec_holds_a_raw_line_break_reads_back(tmp_path, char):
    bank = tool_bank_describing(char)
    save_bank(bank, tmp_path / "bank.jsonl")
    assert load_bank(tmp_path / "bank.jsonl") == bank


def test_bank_file_json_array_and_kind_detection(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps([make_agent_doc(i) for i in range(3)]), encoding="utf-8")
    loaded = load_bank(path)
    assert loaded.kind == "agent"
    assert len(loaded) == 3


@pytest.mark.parametrize("suffix", [".jsonl", ".json"])
def test_a_bank_file_that_is_no_utf8_text_is_a_parse_error_at_its_byte(tmp_path, suffix):
    path = tmp_path / f"bank{suffix}"
    save_bank(make_tool_bank(3), path)
    if suffix == ".json":
        path.write_text(json.dumps([make_tool_doc(i) for i in range(3)]), encoding="utf-8")
    text = path.read_bytes()
    cut = text.index(b"Search")
    path.write_bytes(text[:cut] + b"\xc3(" + text[cut:])  # a lead byte without its continuation
    with pytest.raises(ParseError, match=f"^parse error at {re.escape(str(path))}: no UTF-8 text at byte {cut}$"):
        load_bank(path)
    with pytest.raises(IoError, match="cannot read bank file"):
        load_bank(tmp_path / "missing.jsonl")


def test_bank_file_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        load_bank(empty)
    broken = tmp_path / "broken.jsonl"
    broken.write_text('{"name": \n', encoding="utf-8")
    with pytest.raises(ParseError):
        load_bank(broken)
    dup = tmp_path / "dup.jsonl"
    doc = json.dumps(make_tool_doc(0))
    dup.write_text(doc + "\n" + doc + "\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_bank(dup)
    # a line that is no valid entry is reported at file:line, an array entry at file[i]
    nameless = json.dumps({**make_tool_doc(1), "name": ""})
    for bad_line, phrase in (("[1]", "JSON object"), ("5", "JSON object"), (nameless, "missing required field")):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(doc + "\n\n" + bad_line + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=phrase) as info:
            load_bank(bad)
        assert f"{bad}:3:" in str(info.value)
    agent = tmp_path / "agent.jsonl"
    agent.write_text(json.dumps(make_agent_doc(0)) + "\n" + doc + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match='must end with "_agent"') as info:
        load_bank(agent)
    assert f"{agent}:2:" in str(info.value)
    mixed = tmp_path / "mixed.jsonl"  # a tool first, so the agent after it is read as a tool
    mixed.write_text(doc + "\n" + json.dumps(make_agent_doc(0)) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="lists tools") as info:
        load_bank(mixed)
    assert f"{mixed}:2:" in str(info.value)
    array = tmp_path / "bank.json"
    array.write_text(json.dumps([make_tool_doc(0), 5]), encoding="utf-8")
    with pytest.raises(ParseError, match="JSON object") as info:
        load_bank(array)
    assert f"{array}[1]:" in str(info.value)


def test_as_mutant_stamps_provenance():
    spec = validate_spec(make_tool_doc(0), "tool")
    mutant = as_mutant(spec, parent="parent_tool", operator="Usage Extension")
    assert mutant.provenance.origin == "mutant"
    assert mutant.provenance.parent_name == "parent_tool"
    assert mutant.provenance.operator == "Usage Extension"
    # original untouched
    assert spec.provenance.origin == "seed"


@pytest.mark.parametrize(
    "provenance",
    [
        {"origin": "mutant", "parent_name": ["search_docs_1"], "operator": "Usage Extension"},
        {"origin": "mutant", "parent_name": "search_docs_1", "operator": {"name": "Usage Extension"}},
        {"origin": "seed", "parent_name": 0},
    ],
)
def test_a_provenance_name_that_is_no_string_fails_at_its_bank_line(tmp_path, provenance):
    bank = tmp_path / "bank.jsonl"
    lines = [json.dumps(make_tool_doc(0)), json.dumps({**make_tool_doc(1), "provenance": provenance})]
    bank.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="must be a string") as info:
        load_bank(bank)
    assert f"{bank}:2:" in str(info.value)


def test_mutant_provenance_requires_parent_and_operator():
    doc = make_tool_doc(0)
    doc["provenance"] = {"origin": "mutant"}
    with pytest.raises(ValidationError):
        validate_spec(doc, "tool")
    doc["provenance"] = {"origin": "seed", "parent_name": "x"}
    with pytest.raises(ValidationError):
        validate_spec(doc, "tool")
