"""Instance extraction (query/history convention), rendering, dataset files."""

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    RAW_LINE_BREAKS,
    candidate_calls,
    make_agent_bank,
    make_agent_doc,
    make_tool_bank,
    make_tool_doc,
    parse_history_turn_count,
)
from toolrouter import prompts
from toolrouter._util import JSON_LINE
from toolrouter.errors import IoError, ParseError, PoolMissingLabel
from toolrouter.registry import CandidateBank, CandidatePool, pool_json, public_spec, validate_spec
from toolrouter.sampler import CandidateSubset
from toolrouter.supervision import (
    DatasetRecord,
    InstanceOrigin,
    RoutingInstance,
    build_dataset,
    extract_instances,
    load_dataset,
    render_prompt,
    render_sample,
    save_dataset,
    strip_history,
)
from toolrouter.synthesis import (
    Action,
    CandidateCall,
    Observation,
    PlanStep,
    TaskPlan,
    Trajectory,
    serialize_history,
)

BANK = make_tool_bank(6)
POOL = CandidatePool.whole_bank(BANK)
NAMES = BANK.names()


def call(name, result="ok"):
    return CandidateCall(name=name, arguments={"target": "x"}, simulated_result=result)


def make_trajectory(tid, step_calls):
    """step_calls: list of per-action call-name lists (final empty action appended)."""
    turns = [Observation(text=f"task for {tid}")]
    for index, names in enumerate(step_calls):
        turns.append(Action(text=f"act {index}", calls=tuple(call(n) for n in names)))
        turns.append(Observation(text=f"feedback {index}"))
    turns.append(Action(text="done", calls=()))
    members = tuple(dict.fromkeys(n for names in step_calls for n in names)) or (NAMES[0],)
    subset = CandidateSubset(members=members, seed_nodes=members[:1], walk_trace=())
    plan = TaskPlan(
        task_text=turns[0].text,
        steps=tuple(PlanStep(goal="g", candidate=names[0]) for names in step_calls if names),
    )
    return Trajectory(trajectory_id=tid, turns=tuple(turns), subset=subset, plan=plan)


def test_first_action_convention():
    trajectory = make_trajectory("t0", [[NAMES[0]]])
    instances = extract_instances(trajectory, POOL)
    assert len(instances) == 1
    inst = instances[0]
    assert inst.query == trajectory.turns[0].text
    assert inst.history == ()
    assert inst.label == NAMES[0]
    assert inst.origin == InstanceOrigin(trajectory_id="t0", step=0, call_index=0)


def test_later_action_convention():
    trajectory = make_trajectory("t1", [[NAMES[0]], [NAMES[1]]])
    instances = extract_instances(trajectory, POOL)
    assert len(instances) == 2
    second = instances[1]
    # action at turn index 3: query is turn 2, history is turns[:2]
    assert second.query == trajectory.turns[2].text
    assert second.history == trajectory.turns[:2]
    assert second.origin.step == 1


def test_multi_call_actions_share_query_and_history():
    trajectory = make_trajectory("t2", [[NAMES[0], NAMES[1]]])
    first, second = extract_instances(trajectory, POOL)
    assert (first.query, first.history) == (second.query, second.history)
    assert (first.label, second.label) == (NAMES[0], NAMES[1])
    assert (first.origin.call_index, second.origin.call_index) == (0, 1)


def test_extraction_count_matches_call_count():
    trajectories = [
        make_trajectory(f"t{i}", [[NAMES[i % 6]], [NAMES[(i + 1) % 6], NAMES[(i + 2) % 6]]])
        for i in range(10)
    ]
    total = sum(len(extract_instances(t, POOL)) for t in trajectories)
    assert total == sum(map(candidate_calls, trajectories))


def test_extraction_requires_label_in_pool():
    trajectory = make_trajectory("t3", [[NAMES[5]]])
    small_pool = CandidatePool(bank=BANK, membership=NAMES[:2])
    with pytest.raises(PoolMissingLabel):
        extract_instances(trajectory, small_pool)


def test_strip_history_idempotent():
    trajectory = make_trajectory("t4", [[NAMES[0]], [NAMES[1]]])
    instance = extract_instances(trajectory, POOL)[1]
    stripped = strip_history(instance)
    assert stripped.history == ()
    assert stripped.query == instance.query and stripped.label == instance.label
    assert strip_history(stripped) == stripped


def test_serialize_history_transcript_style():
    turns = (
        Observation(text="first ask"),
        Action(text="routing", calls=(call(NAMES[0], result="result text"),)),
    )
    text = serialize_history(turns, kind="tool")
    lines = text.splitlines()
    assert lines[0] == "User: first ask"
    assert lines[1] == "Assistant: routing"
    assert lines[2] == f'<tool_call>{NAMES[0]}{{"target": "x"}}</tool_call>'
    assert lines[3] == "Tool results: result text"
    agent_text = serialize_history(turns, kind="agent")
    assert "<agent_call>" in agent_text and "<tool_call>" not in agent_text


def test_render_sample_format():
    trajectory = make_trajectory("t5", [[NAMES[0]], [NAMES[1]]])
    instance = extract_instances(trajectory, POOL)[1]
    rendered = render_sample(instance)
    assert rendered.kind == "tool"
    assert rendered.system.startswith("You are a Tool Router.")
    assert 'Output strictly in the required format: ["tool_name"], no extra commentary.' in rendered.system
    assert "<history>" in rendered.user and "</history>" in rendered.user
    assert f'<current query>"{instance.query}"</current query>' in rendered.user
    assert "<tools>" in rendered.user and "</tools>" in rendered.user
    assert "<task>" in rendered.user
    assert "<think>" in rendered.user  # output-requirements section
    assert rendered.label == instance.label and rendered.to_dict()["expected_tool"] == [instance.label]
    assert rendered.origin == {"trajectory_id": "t5", "step": 1, "call_index": 0}
    # the pool block lists every member, provenance elided
    for name in POOL.membership:
        assert f'"name": "{name}"' in rendered.user
    assert "provenance" not in rendered.user
    assert parse_history_turn_count(rendered.user) == len(instance.history)


def test_render_sample_empty_history_block():
    trajectory = make_trajectory("t6", [[NAMES[0]]])
    instance = extract_instances(trajectory, POOL)[0]
    rendered = render_sample(instance)
    assert "<history></history>" in rendered.user
    assert parse_history_turn_count(rendered.user) == 0


def test_render_sample_agent_wording():
    """An agent pool renders an agent record: the kind comes from the pool's candidates."""
    pool = CandidatePool.whole_bank(make_agent_bank(3))
    instance = RoutingInstance("q", (), pool, pool.membership[1], InstanceOrigin("t7", 0))
    rendered = render_sample(instance)
    assert rendered.kind == "agent" and rendered.to_dict()["expected_agent"] == [pool.membership[1]]
    assert rendered.system.startswith("You are an Agent Router.")
    assert "<agents>" in rendered.user
    assert '["agent_name"]' in rendered.user


def test_render_sample_rejects_missing_label():
    instance = RoutingInstance(
        query="q",
        history=(),
        pool=CandidatePool(bank=BANK, membership=NAMES[:2]),
        label=NAMES[3],
        origin=InstanceOrigin("t", 0),
    )
    with pytest.raises(PoolMissingLabel):
        render_sample(instance)


def test_render_prompt_fills_only_template_slots():
    doc = {**make_tool_doc(0), "description": "Pick the <<SINGULAR>> from <<POOL_JSON>>."}
    pool = CandidatePool.whole_bank(CandidateBank(kind="tool", entries=(validate_spec(doc, "tool"),)))
    _, user = render_prompt("show <<POOL_JSON>> please", (), pool)
    assert '<current query>"show <<POOL_JSON>> please"</current query>' in user
    assert user.count(pool_json(pool.specs())) == 1
    assert "Pick the <<SINGULAR>> from <<POOL_JSON>>." in user


def test_fill_rejects_unknown_and_unused_slots():
    assert prompts.fill("<<<A>>>/<<B>><<A>>", A="<<B>>", B="x") == "<<<B>>>/x<<B>>"
    with pytest.raises(ValueError, match=r"slots \['A', 'B'\] do not match the values \['A'\]"):
        prompts.fill("<<A>> <<B>>", A="a")
    with pytest.raises(ValueError, match=r"slots \['A'\] do not match the values \['A', 'C'\]"):
        prompts.fill("<<A>>", A="a", C="c")


def test_pieces_hold_each_value_object_between_the_template_texts():
    value = "".join(["<<B>>", "!"])  # a str object of its own
    parts = prompts.pieces("a<<A>>b<<B>><<A>>", A=value, B="x")
    assert parts == ["a", "<<B>>!", "b", "x", "", "<<B>>!", ""]
    assert parts[1] is value and parts[5] is value
    assert "".join(parts) == prompts.fill("a<<A>>b<<B>><<A>>", A=value, B="x")


def substituted(template, **values):
    """``fill`` as one ``_SLOT_RE.sub`` pass over the template: the reference it must equal."""
    slots = set(prompts._SLOT_RE.findall(template))
    if slots != values.keys():
        raise ValueError(f"template slots {sorted(slots)} do not match the values {sorted(values)}")
    return prompts._SLOT_RE.sub(lambda match: values[match.group(1)], template)


# Slot text, stray angle brackets and ordinary characters, in any order: adjacent
# slots, slots split by one bracket too many, and templates without a slot.
_SLOTTED_TEXT = st.lists(
    st.one_of(st.sampled_from(["<<A>>", "<<B>>", "<<C_D>>", "<<a>>", "<", ">", "<<", ">>"]), st.text("<>AB_x \n")),
    max_size=8,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(template=_SLOTTED_TEXT, data=st.data())
def test_fill_equals_the_one_pass_substitution(template, data):
    slots = set(prompts._SLOT_RE.findall(template))
    names = data.draw(st.one_of(st.just(slots), st.sets(st.sampled_from(["A", "B", "C_D", "E"]))))
    values = {name: data.draw(_SLOTTED_TEXT) for name in sorted(names)}  # values may hold slot text
    try:
        expected = substituted(template, **values)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            prompts.fill(template, **values)
        assert str(raised.value) == str(error)
    else:
        assert prompts.fill(template, **values) == expected


# Text that exercises JSON escaping: quotes, backslashes, newlines, control
# characters, non-ASCII and a line separator.
_JSON_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\n\t\x00\x1f\x7fé漢😀\u2028'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
_NESTED_SCHEMA = st.recursive(
    st.fixed_dictionaries({"type": st.sampled_from(["string", "integer"]), "description": _JSON_TEXT}),
    lambda inner: st.fixed_dictionaries(
        {"type": st.just("object"), "description": _JSON_TEXT, "properties": st.dictionaries(_JSON_TEXT, inner, max_size=2)}
    ),
    max_leaves=4,
)


@st.composite
def _pool_docs(draw, kind):
    docs = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        properties = draw(st.dictionaries(_JSON_TEXT, _NESTED_SCHEMA, max_size=3))
        if kind == "agent":
            properties = {key: {**prop, "description": prop["description"] or "d"} for key, prop in properties.items()}
        schema = {"type": "object", "properties": properties}
        required = draw(st.lists(st.sampled_from(sorted(properties)), unique=True)) if properties else []
        if required:
            schema["required"] = required
        doc = {
            "name": f"c{index}_{draw(_JSON_TEXT)}" + ("_agent" if kind == "agent" else ""),
            "description": "d" + draw(_JSON_TEXT),
            "inputSchema": schema,
            "tags": draw(st.lists(_JSON_TEXT, min_size=1 if kind == "agent" else 0, max_size=2)),
        }
        if kind == "agent":
            doc["tools"] = draw(st.lists(_JSON_TEXT, min_size=1, max_size=3, unique=True))
        docs.append(doc)
    return kind, docs


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["tool", "agent"]).flatmap(_pool_docs))
def test_pool_block_equals_indented_json_reference(kind_docs):
    kind, docs = kind_docs
    specs = tuple(validate_spec(doc, kind) for doc in docs)
    pool = CandidatePool.whole_bank(CandidateBank(kind=kind, entries=specs))
    reference = json.dumps([public_spec(spec) for spec in specs], ensure_ascii=False, indent=2)
    assert pool_json(pool.specs()) == reference
    _, user = render_prompt("q", (), pool)
    assert user.count(reference) == 1


def test_pool_json_of_no_specs():
    assert pool_json([]) == json.dumps([], ensure_ascii=False, indent=2)


def test_parse_history_turn_count_requires_block():
    with pytest.raises(ParseError):
        parse_history_turn_count("no block here")


def test_dataset_record_roundtrip():
    trajectory = make_trajectory("t8", [[NAMES[0]], [NAMES[1]]])
    instance = extract_instances(trajectory, POOL)[1]
    record = render_sample(instance)
    doc = record.to_dict()
    assert doc["expected_tool"] == [instance.label]
    assert DatasetRecord.from_dict(doc) == record


@pytest.mark.parametrize(
    "expected",
    [{"expected_tool": [NAMES[0]]}, {"expected_tool": [NAMES[1], NAMES[1]]}, {"expected_tool": []}, {"expected_agent": None}],
    ids=["another-name", "label-twice", "empty", "other-kind-key"],
)
def test_dataset_record_states_its_label_once(expected):
    """A record whose expected list is not [label] is refused, not scored against its label."""
    instance = extract_instances(make_trajectory("t9", [[NAMES[1]]]), POOL)[0]
    doc = {**render_sample(instance).to_dict(), **expected}
    if "expected_agent" in expected:
        del doc["expected_tool"]
    with pytest.raises((ValueError, KeyError)):
        DatasetRecord.from_dict(doc)


def test_build_dataset_counts_and_ablation(tmp_path):
    trajectories = [make_trajectory(f"b{i}", [[NAMES[0]], [NAMES[1], NAMES[2]]]) for i in range(4)]
    path = tmp_path / "data.jsonl"
    counts = build_dataset(trajectories, [POOL] * len(trajectories), path, ablation=True)
    expected = sum(map(candidate_calls, trajectories))
    assert counts == {str(path): expected, str(path) + ".nohistory": expected}

    records = load_dataset(path)
    twins = load_dataset(str(path) + ".nohistory")
    assert len(records) == len(twins) == expected
    for record, twin in zip(records, twins):
        assert twin.history == ()
        assert (record.query, record.label, record.group) == (twin.query, twin.label, twin.group)
        if record.history:
            assert record.user != twin.user


def test_build_dataset_pool_list_length_checked(tmp_path):
    trajectories = [make_trajectory("p0", [[NAMES[0]]])]
    with pytest.raises(ValueError):
        build_dataset(trajectories, [POOL, POOL], tmp_path / "x.jsonl")


def test_save_dataset(tmp_path):
    trajectory = make_trajectory("s0", [[NAMES[0]]])
    records = [render_sample(i) for i in extract_instances(trajectory, POOL)]
    path = tmp_path / "saved.jsonl"
    assert save_dataset(records, path) == len(records)
    assert load_dataset(path) == records


@pytest.mark.parametrize("char", RAW_LINE_BREAKS)
def test_a_dataset_whose_query_holds_a_raw_line_break_reads_back(tmp_path, char):
    trajectory = make_trajectory(f"a{char}b", [[NAMES[0]], [NAMES[1]]])
    records = [render_sample(i) for i in extract_instances(trajectory, POOL)]
    assert char in records[0].query
    save_dataset(records, tmp_path / "saved.jsonl")
    assert char in (tmp_path / "saved.jsonl").read_text(encoding="utf-8")  # written raw, not escaped
    assert load_dataset(tmp_path / "saved.jsonl") == records


def test_a_dataset_that_is_no_utf8_text_is_a_parse_error_and_one_utf8_cannot_encode_is_not_written(tmp_path):
    trajectory = make_trajectory("s0", [[NAMES[0]], [NAMES[1]]])
    records = [render_sample(i) for i in extract_instances(trajectory, POOL)]
    path = tmp_path / "saved.jsonl"
    save_dataset(records, path)
    text = path.read_bytes()
    cut = len(text.split(b"\n")[0]) + 1  # the first byte of the second line
    path.write_bytes(text[:cut] + b"\xff" + text[cut:])
    with pytest.raises(ParseError, match=f"^parse error at {re.escape(str(path))}: no UTF-8 text at byte {cut}$"):
        load_dataset(path)
    with pytest.raises(IoError, match="U\\+DC80 is no UTF-8 text"):
        save_dataset([replace(records[0], query="a\udc80b")], path)
    assert path.read_bytes() == text[:cut] + b"\xff" + text[cut:]  # the old file is kept


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(NAMES), min_size=1, max_size=6))
def test_extraction_instance_count_property(labels):
    # one single-call action per label, interleaved with observations
    trajectory = make_trajectory("h0", [[label] for label in labels])
    instances = extract_instances(trajectory, POOL)
    assert [i.label for i in instances] == labels
    for step, instance in enumerate(instances):
        assert len(instance.history) == 2 * step


def _lines(path):
    """The lines of a JSONL file split at "\\n" alone: a JSON line may hold a raw U+2028."""
    return path.read_text(encoding="utf-8").split("\n")[:-1]


# A text with nothing, the pool block or the block less its last character
# between two short texts that need escaping, and call arguments whose None
# values stand for the pool's documents.
_SHORT_TEXT = st.text(alphabet=st.sampled_from('a"\\\n\x00\x1f\x7fé😀\u2028'), max_size=4)
_TEXT_PARTS = st.tuples(_SHORT_TEXT, st.sampled_from([0, 1, -1]), _SHORT_TEXT)
_ARGUMENTS = st.dictionaries(st.sampled_from(["pool", "target"]), st.one_of(_SHORT_TEXT, st.none()), max_size=2)


@st.composite
def _dataset_inputs(draw):
    """Trajectories over one pool object (the last one maybe over an equal
    second object), with texts that hold the pool block verbatim or all but
    its end, and call arguments that hold a "pool" key."""
    kind = draw(st.sampled_from(["tool", "agent"]))
    make_doc = make_agent_doc if kind == "agent" else make_tool_doc
    docs = [{**make_doc(i), "description": "d" + draw(_JSON_TEXT)} for i in range(draw(st.integers(1, 4)))]
    bank = CandidateBank(kind=kind, entries=tuple(validate_spec(doc, kind) for doc in docs))
    pool = CandidatePool.whole_bank(bank)
    block = pool_json(pool.specs())

    def text():
        prefix, inner, suffix = draw(_TEXT_PARTS)
        return prefix + {0: "", 1: block, -1: block[:-1]}[inner] + suffix

    def call():
        arguments = {key: docs if value is None else value for key, value in draw(_ARGUMENTS).items()}
        return CandidateCall(draw(st.sampled_from(pool.membership)), arguments, text())

    trajectories = []
    for index in range(draw(st.integers(1, 3))):
        turns = [Observation(text())]
        for _ in range(draw(st.integers(1, 2))):
            turns += [Action(text(), tuple(call() for _ in range(draw(st.integers(1, 2))))), Observation(text())]
        subset = CandidateSubset(members=pool.membership, seed_nodes=pool.membership[:1], walk_trace=())
        trajectories.append(Trajectory(f"t{index}", tuple(turns), subset, TaskPlan(turns[0].text, ())))
    pools = [pool] * (len(trajectories) - 1) + [draw(st.sampled_from([pool, CandidatePool.whole_bank(bank)]))]
    return trajectories, pools


@settings(max_examples=60, deadline=None)
@given(_dataset_inputs())
def test_build_dataset_lines_equal_the_encoded_rendered_records(tmp_path_factory, inputs):
    trajectories, pools = inputs
    path = tmp_path_factory.mktemp("dataset") / "data.jsonl"
    build_dataset(trajectories, pools, path, ablation=True)
    instances = [i for trajectory, pool in zip(trajectories, pools) for i in extract_instances(trajectory, pool)]
    expected = [JSON_LINE.encode(render_sample(i).to_dict()) for i in instances]
    twins = [JSON_LINE.encode(render_sample(strip_history(i)).to_dict()) for i in instances]
    assert _lines(path) == expected
    assert _lines(path.with_name("data.jsonl.nohistory")) == twins
    saved = path.with_name("saved.jsonl")
    save_dataset(map(render_sample, instances), saved)
    assert saved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("origin", ["x", 5, ["t", 0]], ids=["string", "number", "list"])
def test_a_dataset_line_whose_origin_is_no_object_is_a_parse_error(tmp_path, origin):
    record = render_sample(extract_instances(make_trajectory("o0", [[NAMES[0]]]), POOL)[0])
    path = tmp_path / "data.jsonl"
    save_dataset([record, replace(record, origin=origin)], path)
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: origin must be dict")):
        load_dataset(path)
    save_dataset([replace(record, origin=None)], path)
    assert load_dataset(path)[0].origin is None


# Texts and call argument or origin keys that a dataset line's top level also
# holds: a pool's start and end, and the keys that follow the pool.
_FIELD_TEXT = st.one_of(
    _SHORT_TEXT, st.sampled_from(['"pool": [', '"label": ', '], "label": ', '], "system": ', '\\"', " "])
)
_FIELD_KEYS = st.sampled_from(["pool", "label", "system", "target"])
# Pools of documents no spec accepts, whose texts hold the text that follows a pool inside them.
_ODD_POOLS = [({"x": ["y"], "system": "z"},), ({"x": ["y"], "system": "z"}, {"x": [], "system": []})]


@st.composite
def _written_datasets(draw):
    """Trajectories over pools of one kind, two equal pool objects and an
    unequal one, whose call arguments hold "pool" and "label" keys, some with
    a pool's documents; and, for the same records, origins likewise and
    maybe a pool of odd documents in place of the rendered one."""
    kind = draw(st.sampled_from(["tool", "agent"]))
    make_doc = make_agent_doc if kind == "agent" else make_tool_doc
    docs = [{**make_doc(i), "description": "d" + draw(_JSON_TEXT)} for i in range(draw(st.integers(2, 4)))]
    bank = CandidateBank(kind=kind, entries=tuple(validate_spec(doc, kind) for doc in docs))
    whole = CandidatePool.whole_bank(bank)
    pools = [whole, CandidatePool.whole_bank(bank), CandidatePool(bank=bank, membership=whole.membership[1:])]
    values = st.one_of(_FIELD_TEXT, st.sampled_from([list(map(public_spec, pool.specs())) for pool in pools]))
    nested = st.dictionaries(_FIELD_KEYS, values, max_size=3)

    trajectories, chosen = [], []
    for index in range(draw(st.integers(1, 4))):
        pool = draw(st.sampled_from(pools))
        turns = [Observation(draw(_FIELD_TEXT))]
        for _ in range(draw(st.integers(1, 2))):
            call = CandidateCall(draw(st.sampled_from(pool.membership)), draw(nested), draw(_FIELD_TEXT))
            turns += [Action(draw(_FIELD_TEXT), (call,)), Observation(draw(_FIELD_TEXT))]
        subset = CandidateSubset(members=pool.membership, seed_nodes=pool.membership[:1], walk_trace=())
        trajectories.append(Trajectory(f"t{index}", tuple(turns), subset, TaskPlan(turns[0].text, ())))
        chosen.append(pool)
    edits = st.fixed_dictionaries(
        {"origin": st.one_of(st.none(), nested)}, optional={"pool_specs": st.sampled_from(_ODD_POOLS)}
    )
    return trajectories, chosen, [draw(edits) for _ in range(sum(map(candidate_calls, trajectories)))]


def _pool_after_history(line):
    """The line in the key order of files written before ``pool`` came first: after ``history``."""
    document = json.loads(line)
    items = [item for item in document.items() if item[0] != "pool"]
    at = [key for key, _ in items].index("history") + 1
    return JSON_LINE.encode(dict([*items[:at], ("pool", document["pool"]), *items[at:]]))


# How a line is rewritten: as written, with its keys in reverse order, with other
# separators, or in the key order of files written before ``pool`` came first.
_REWRITES = {
    "written": lambda line: line,
    "reordered": lambda line: JSON_LINE.encode(dict(reversed(json.loads(line).items()))),
    "respaced": lambda line: json.dumps(json.loads(line), ensure_ascii=False, separators=(",", ":")),
    "previous": _pool_after_history,
}


@settings(max_examples=60, deadline=None)
@given(_written_datasets(), st.lists(st.sampled_from(sorted(_REWRITES)), min_size=1))
def test_load_dataset_equals_decoding_each_line_whole(tmp_path_factory, inputs, rewrites):
    trajectories, pools, edits = inputs
    folder = tmp_path_factory.mktemp("dataset")
    build_dataset(trajectories, pools, folder / "built.jsonl", ablation=True)
    instances = [i for trajectory, pool in zip(trajectories, pools) for i in extract_instances(trajectory, pool)]
    save_dataset([replace(render_sample(i), **edit) for i, edit in zip(instances, edits)], folder / "saved.jsonl")
    for name in ("built.jsonl", "built.jsonl.nohistory", "saved.jsonl"):
        lines = _lines(folder / name)
        records = load_dataset(folder / name)
        assert records == [DatasetRecord.from_dict(json.loads(line)) for line in lines]
        shared: dict[tuple[str, str], tuple] = {}
        for record, line in zip(records, lines):
            text = JSON_LINE.encode(json.loads(line)["pool"])
            assert shared.setdefault((record.kind, text), record.pool_specs) is record.pool_specs
        rewritten = folder / f"rewritten-{name}"
        rewrite = (_REWRITES[rewrites[i % len(rewrites)]] for i in range(len(lines)))
        rewritten.write_text("".join(edit(line) + "\n" for edit, line in zip(rewrite, lines)), encoding="utf-8")
        assert load_dataset(rewritten) == records


# Lines that open with a known pool text, as a written line does, but whose rest
# the pool-first read cannot take: a second pool key, no rest, an empty rest, a
# rest that is no JSON; and a pool that is no list of dicts.
_ODD_LINES = {
    "second-pool": lambda pool, rest: f'{{"pool": {pool}, {rest[:-1]}, "pool": []}}',
    "no-rest": lambda pool, rest: f'{{"pool": {pool}}}',
    "empty-rest": lambda pool, rest: f'{{"pool": {pool}, }}',
    "rest-no-json": lambda pool, rest: f'{{"pool": {pool}, {rest[:-1]}, "x": }}',
    "pool-of-ints": lambda pool, rest: f'{{"pool": [1], {rest}',
}


@pytest.mark.parametrize("name", sorted(_ODD_LINES))
def test_an_odd_line_that_opens_with_its_pool_is_decoded_whole(tmp_path, name):
    record = render_sample(extract_instances(make_trajectory("o0", [[NAMES[0]]]), POOL)[0])
    line = JSON_LINE.encode(record.to_dict())
    pool = JSON_LINE.encode(list(record.pool_specs))
    assert line.startswith(f'{{"pool": {pool}, ')
    odd = _ODD_LINES[name](pool, line[len(f'{{"pool": {pool}, ') :])
    path = tmp_path / "data.jsonl"
    path.write_text(f"{line}\n{odd}\n", encoding="utf-8")
    try:
        expected = [record, DatasetRecord.from_dict(json.loads(odd))]
    except (KeyError, TypeError, ValueError) as exc:
        message = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: {message}")):
            load_dataset(path)
    else:
        assert load_dataset(path) == expected
