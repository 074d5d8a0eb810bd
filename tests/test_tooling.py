"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
from pathlib import Path

import pytest

import toolrouter

SOURCES = sorted(Path(toolrouter.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` aside) and never references."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_check_flags_only_unreferenced_names():
    source = "from __future__ import annotations\nimport os, json as j\nfrom typing import Any\nx: Any = j.dumps(1)\n"
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
