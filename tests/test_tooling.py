"""Source and test-setting hygiene checks that need no linter: stdlib ``ast`` and a pytest subprocess."""

import ast
import re
import shlex
import subprocess
import sys
from pathlib import Path

import click
import pytest

from helpers import shell_commands
import toolrouter
from toolrouter.cli import main

SOURCES = sorted(Path(toolrouter.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
PROJECT_FILES = sorted(path for folder in ("src", "bench", "tests") for path in (ROOT / folder).rglob("*.py"))


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


@pytest.mark.parametrize("path", PROJECT_FILES, ids=[path.name for path in PROJECT_FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions, classes and assigned names that no
    module references by name; an assignment is no reference."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                names = []
            defined.update((name, module) for name in names if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(f"{module}: {name}" for name, module in defined.items() if name not in referenced)


def test_private_name_check_flags_only_unreferenced_names():
    sources = {"a.py": "def _used():\n    pass\ndef _dead():\n    _used()\n", "b.py": "from a import _imported\n"}
    sources["a.py"] += "def _imported():\n    pass\n"
    sources["a.py"] += "_USED, _DEAD = 1, 2\n_ALSO_DEAD: int = _USED\nclass _Dead:\n    pass\nclass _Used:\n    pass\n"
    sources["b.py"] += "import a\nx = a._Used()\n"
    assert unreferenced_private_names(sources) == ["a.py: _ALSO_DEAD", "a.py: _DEAD", "a.py: _Dead", "a.py: _dead"]


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_private_names(sources) == []


def _is_click_command(node: ast.FunctionDef | ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")) in ("command", "group"):
            return True
    return False


def unreferenced_public_names(sources: dict[str, str], readers: dict[str, str], text: str) -> list[str]:
    """Public module-level functions and classes of ``sources``, and the public
    methods of those classes, that no module of ``sources`` or ``readers``
    references by name and no word of ``text`` names; click commands aside."""
    defined: list[tuple[str, str, str]] = []  # (module, name, where)
    referenced = set(re.findall(r"\w+", text))
    for module, source in [*sources.items(), *readers.items()]:
        tree = ast.parse(source)
        for node in tree.body if module in sources else ():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if not _is_click_command(node):
                    defined.append((module, node.name, node.name))
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    defined.append((module, item.name, f"{node.name}.{item.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(f"{module}: {where}" for module, name, where in defined if name not in referenced)


def test_public_name_check_flags_only_unreferenced_names():
    sources = {
        "a.py": "class Used:\n    def called(self):\n        pass\n    def dead_method(self):\n        pass\n"
        "def dead():\n    Used().called()\n@main.command('run')\ndef run_cmd():\n    pass\n"
        "def documented():\n    pass\n",
        "b.py": "from a import imported\ndef imported():\n    pass\n",
    }
    readers = {"reader.py": "import b\nb.read_by_a_reader()\n", "unread.py": "def not_a_source():\n    pass\n"}
    sources["b.py"] += "def read_by_a_reader():\n    pass\n"
    assert unreferenced_public_names(sources, readers, "Call `documented()`.") == [
        "a.py: Used.dead_method",
        "a.py: dead",
    ]


def test_every_public_name_is_referenced():
    """Each public name in src/ is used by src/ or bench/, or documented in the README."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    readers = {str(path): path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unreferenced_public_names(sources, readers, readme) == []


def unknown_cli_flags(block: str, group: click.Group) -> list[str]:
    """Each ``--flag`` of a ``toolrouter <command>`` line of a shell block (``\\``
    continuations joined) that is no option of that command, and each unknown command."""
    problems = []
    for words in shell_commands(block):
        if words[:1] != ["toolrouter"]:
            continue
        command = group.commands.get(words[1]) if len(words) > 1 else None
        if command is None:
            problems.append(f"no command: {shlex.join(words)}")
            continue
        options = {opt for param in command.params for opt in param.opts}
        problems.extend(f"{words[1]} {word}" for word in words[2:] if re.fullmatch(r"--[\w-]+", word) and word not in options)
    return problems


def test_cli_flag_check_flags_only_unknown_options():
    group = click.Group(commands=[click.Command("run", params=[click.Option(["--out", "-o"]), click.Option(["--ok"])])])
    block = (
        "# toolrouter run --commented\ntoolrouter run --out x \\\n    --ok --gone 1 -o y\n"
        'toolrouter walk --out x\necho --ignored\ntoolrouter run --ok "--quoted text"\n'
    )
    assert unknown_cli_flags(block, group) == ["run --gone", "no command: toolrouter walk --out x"]


def test_every_readme_cli_flag_is_an_option_of_its_command():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.DOTALL)
    assert block is not None, "README has no CLI block"
    assert "toolrouter extract" in block.group(1)
    assert unknown_cli_flags(block.group(1), main) == []


def unnamed_discard_reasons(source: str, prefixes: tuple[str, ...]) -> list[str]:
    """The ``Discarded(...)`` calls of ``source`` whose message's literal
    prefix (up to its first formatted value) starts with none of ``prefixes``."""
    unnamed = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Discarded":
            message = node.args[0]
            literal = []
            for part in message.values if isinstance(message, ast.JoinedStr) else [message]:
                if not (isinstance(part, ast.Constant) and isinstance(part.value, str)):
                    break
                literal.append(part.value)
            if not "".join(literal).startswith(prefixes):
                unnamed.append(f"line {node.lineno}: {ast.unparse(message)}")
    return unnamed


def bench_discard_prefixes() -> tuple[str, ...]:
    """The message prefixes by which the bench tracer counts ``synthesis.discarded.*``."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (reasons,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(target, "id", None) for target in node.targets] == ["_DISCARD_REASONS"]
    )
    return tuple(prefix for prefix, _ in ast.literal_eval(reasons))


def test_discard_reason_check_flags_only_unnamed_messages():
    source = (
        'Discarded("over length")\nDiscarded(f"out-of-subset call: {name!r}")\n'
        'Discarded(f"{name} over length")\nDiscarded("; ".join(violations))\nDiscarded("too long")\n'
    )
    assert unnamed_discard_reasons(source, ("over length", "out-of-subset call")) == [
        "line 3: f'{name} over length'",
        "line 4: '; '.join(violations)",
        "line 5: 'too long'",
    ]


def test_every_discard_reason_is_one_the_bench_counts():
    """A reworded ``Discarded`` message would move its count to the tracer's catch-all counter."""
    prefixes = bench_discard_prefixes()
    source = (Path(toolrouter.__file__).parent / "synthesis.py").read_text(encoding="utf-8")
    assert "over length" in prefixes and source.count("Discarded(") >= len(prefixes)
    assert unnamed_discard_reasons(source, prefixes) == []


def catch_alls(source: str) -> list[str]:
    """The handlers of ``source`` that catch everything (a bare ``except``, or
    ``Exception`` or ``BaseException`` among the types caught), each named by
    the classes and functions around it."""
    found = []

    def visit(node: ast.AST, where: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*where, child.name]
            elif isinstance(child, ast.ExceptHandler):
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(kind is None or getattr(kind, "id", None) in ("Exception", "BaseException") for kind in caught):
                    found.append(".".join(where) or "<module>")
            visit(child, inner)

    visit(ast.parse(source), [])
    return found


def test_catch_all_check_flags_only_handlers_that_catch_everything():
    source = (
        "try:\n    pass\nexcept:\n    pass\n"
        "class A:\n    def f(self):\n        try:\n            pass\n"
        "        except (KeyError, Exception):\n            pass\n        except ValueError:\n            pass\n"
        "def g():\n    try:\n        pass\n    except BaseException:\n        raise\n"
    )
    assert catch_alls(source) == ["<module>", "A.f", "g"]


def test_only_the_network_boundary_catches_everything():
    """Past the HTTP call every error is a typed one, caught by its own type."""
    found = [f"{path.name}: {where}" for path in SOURCES for where in catch_alls(path.read_text(encoding="utf-8"))]
    assert found == ["backends.py: _HTTPBackend._post"]


def python_3_10_syntax_errors(paths: list[Path]) -> list[str]:
    """The files that do not parse with the grammar of Python 3.10, the oldest version CI runs."""
    errors = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            errors.append(f"{path}:{exc.lineno}: {exc.msg}")
    return errors


def test_python_3_10_check_flags_only_newer_syntax(tmp_path):
    newer, older = tmp_path / "newer.py", tmp_path / "older.py"
    newer.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n", encoding="utf-8")
    older.write_text("match 1:\n    case 1:\n        pass\n", encoding="utf-8")
    assert [error.split(":")[0] for error in python_3_10_syntax_errors([newer, older])] == [str(newer)]


def test_every_project_file_parses_as_python_3_10():
    assert len(PROJECT_FILES) > len(SOURCES)  # src, bench and tests were all found
    assert python_3_10_syntax_errors(PROJECT_FILES) == []


FAILING_PROPERTY_FILE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    """With the project's warning filters, hypothesis's explain phase (which
    imports libcst) must not turn a failing example into an INTERNALERROR."""
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_FILE, encoding="utf-8")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml")]
    result = subprocess.run(
        [*command, "--rootdir", str(tmp_path), "test_two.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
