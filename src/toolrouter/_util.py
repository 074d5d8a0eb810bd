"""Helpers the pipeline stages share: seed derivation, JSONL files and the
field checks their readers apply."""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from .errors import IoError, ParseError, SpecError, ValidationError

T = TypeVar("T")


def derive_seed(seed: int, *parts: object) -> int:
    """A 64-bit seed from sha256 of ``seed:part:...``; stable across processes."""
    digest = hashlib.sha256(":".join([str(seed), *map(str, parts)]).encode()).hexdigest()
    return int(digest[:16], 16)


def typed(value: Any, kind: type, what: str) -> Any:
    """``value`` when it is a ``kind``; TypeError naming ``what`` otherwise."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be {kind.__name__}, got {type(value).__name__}")
    return value


def finite(value: float) -> bool:
    """Whether ``value`` is finite as a float64: an int too large for one is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def strings(value: Any, what: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; TypeError naming ``what`` otherwise."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise TypeError(f"{what} must be a list of strings")
    return tuple(value)


# The encoder of every JSONL line: json.dumps(document, ensure_ascii=False)
# without building a fresh encoder for each line.
JSON_LINE = json.JSONEncoder(ensure_ascii=False)


def write_lines(path: str | Path, lines: Iterable[str], what: str) -> int:
    """Write each line with a trailing newline; returns the line count.

    The lines go to a temporary file beside ``path`` that replaces it only
    once all of them are written, so a failure leaves any old file intact.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    count = 0
    try:
        with partial.open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
                count += 1
        os.replace(partial, path)
    except OSError as exc:
        raise IoError(f"cannot write {what} {path}: {exc}") from exc
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise IoError(f"cannot write {what} {path}: U+{ord(exc.object[exc.start]):04X} is no UTF-8 text") from exc
    finally:
        partial.unlink(missing_ok=True)
    return count


def write_jsonl(path: str | Path, documents: Iterable[dict], what: str) -> int:
    """Write one JSON object per line; returns the line count."""
    return write_lines(path, map(JSON_LINE.encode, documents), what)


# What a record parser raises for a record it rejects; see ``record_error``. An
# OverflowError is a JSON integer too large for a float; a RecursionError is JSON
# nested past the recursion limit; a ValueError includes a BadConfig, a bad tau.
RECORD_ERRORS = (KeyError, OverflowError, RecursionError, TypeError, ValueError, SpecError, ValidationError)


def record_error(location: str, exc: Exception) -> ParseError:
    """The ParseError at ``location`` for one of RECORD_ERRORS (a KeyError is a missing field)."""
    return ParseError(location, f"missing field {exc}" if isinstance(exc, KeyError) else str(exc))


def read_text(path: Path, what: str) -> str:
    """The text of a UTF-8 file: IoError naming ``what`` when it cannot be
    read, ParseError at the first byte that is no UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(str(path), f"no UTF-8 text at byte {exc.start}") from exc


def read_lines(path: Path, what: str) -> list[str]:
    """The lines of a UTF-8 text file (see ``read_text``), split at "\\n" alone:
    ``JSON_LINE`` writes U+0085, U+2028 and U+2029 raw, and ``str.splitlines``
    would split at them."""
    lines = read_text(path, what).split("\n")
    if not lines[-1]:  # what follows the last newline, or an empty file
        lines.pop()
    return lines


def json_object(line: str) -> dict:
    """The JSON object a line holds; ValueError if it is no JSON, TypeError if it is another value."""
    document = json.loads(line)
    if not isinstance(document, dict):
        raise TypeError(f"expected a JSON object, got {type(document).__name__}")
    return document


def parse_lines(path: Path, lines: list[str], parse: Callable[[str], T]) -> list[T]:
    """Parse each non-blank line of ``path`` with ``parse``.

    A line that ``parse`` rejects with one of RECORD_ERRORS (invalid JSON
    included) raises ParseError at ``file:line``.
    """
    out = []
    lineno = 1
    try:
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                out.append(parse(line))
    except RECORD_ERRORS as exc:
        raise record_error(f"{path}:{lineno}", exc) from exc
    return out


def read_jsonl(path: str | Path, what: str, parse: Callable[[dict], T]) -> list[T]:
    """Parse each non-blank line of a JSONL file, which must be a JSON object,
    with ``parse`` (see ``parse_lines``)."""
    path = Path(path)
    return parse_lines(path, read_lines(path, what), lambda line: parse(json_object(line)))
