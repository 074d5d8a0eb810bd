"""Typed config loading, the stage sections, and the README's config and library examples."""

import re
from dataclasses import fields
from pathlib import Path

from helpers import make_family_bank
from toolrouter.config import STAGE_KEYS, BackendConfig, PipelineConfig, load_config
from toolrouter.mutation import EvolveConfig
from toolrouter.registry import save_bank
from toolrouter.router import RouterConfig
from toolrouter.sampler import SamplerConfig
from toolrouter.synthesis import SynthesisConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_config_loads(tmp_path):
    block = re.search(r"Example config:\n\n```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert block is not None, "README has no example config block"
    path = tmp_path / "config.yaml"
    path.write_text(block.group(1), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.sampler == SamplerConfig(target_range=(4, 8), restart_prob=0.15)
    assert cfg.synthesis == SynthesisConfig(max_turns=12, error_prob=0.1)
    assert cfg.eval == RouterConfig(temperature=1.0)


def test_every_section_key_reaches_its_dataclass(tmp_path):
    from test_cli import ALL_SECTION_KEYS_YAML

    path = tmp_path / "config.yaml"
    path.write_text(ALL_SECTION_KEYS_YAML, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.mutation == EvolveConfig(max_retries=1, tool_fraction=0.5, temperature=0.6)
    assert cfg.sampler == SamplerConfig(num_seeds=2, target_size=5, target_range=(3, 6), restart_prob=0.6)
    assert cfg.synthesis == SynthesisConfig(max_retries=3, max_turns=13, error_prob=0.4, temperature=0.5)
    assert cfg.eval == RouterConfig(temperature=0.7)
    assert sum(len(keys) for _cls, keys in STAGE_KEYS.values()) == 12


def test_readme_library_usage_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Library usage\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert block is not None, "README has no library usage block"
    save_bank(make_family_bank(50), tmp_path / "bank.jsonl")
    monkeypatch.chdir(tmp_path)
    exec(block.group(1), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_readme_config_table_lists_exactly_the_settable_keys():
    settable = {
        "top level": {f.name for f in fields(PipelineConfig)} - {"backend", *STAGE_KEYS},
        "backend": {f.name for f in fields(BackendConfig)},
        **{name: set(keys) for name, (_cls, keys) in STAGE_KEYS.items()},
    }
    table = re.search(r"\| section \| keys \|\n\|---\|---\|\n((?:\|.*\|\n)+)", README.read_text(encoding="utf-8"))
    assert table is not None, "README has no config key table"
    listed = {}
    for row in table.group(1).splitlines():
        section, keys = (cell.strip() for cell in row.strip("|").split("|"))
        # each key opens a comma-separated entry; its default follows in parentheses
        entries = re.sub(r"\([^)]*\)", "", keys).split(",")
        listed[section.strip("`")] = {m.group(1) for m in (re.match(r"\s*`(\w+)`", e) for e in entries) if m}
    assert listed == settable
    assert sum(map(len, settable.values())) == 23
