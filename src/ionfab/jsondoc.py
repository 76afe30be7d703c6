"""Strict reading of the text and JSON documents ionfab takes as input.

Bytes become text by one rule, :func:`decode` (UTF-8, no newline
translation), JSON text goes through :func:`parse_json`, and every JSON
parser checks shapes with the helpers below, so a bad document ends in one
:class:`SchemaError` whose message starts with a JSON path such as
``$.elus[1].n_ions``. Integers must be JSON integers, and ``true`` /
``false`` are not numbers.

Path strings are built only when raising: the schedule and demand parsers
check every entry of lists that run to hundreds of entries, and building a
path per entry up front made them measurably slower.
"""

from __future__ import annotations

import json

from .errors import SchemaError


def decode(data: bytes) -> str:
    """``data`` as UTF-8 text; undecodable bytes raise SchemaError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc.reason}") from exc


def parse_json(text: str) -> object:
    """Decode JSON text; empty or malformed text raises SchemaError."""
    if not text.strip():
        raise SchemaError("empty file")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # integer too long, nesting too deep
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _at(path: str, key: str | int) -> str:
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def require_keys(obj: dict, path: str, required: set[str],
                 optional: set[str] = frozenset()) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected object, got {type(obj).__name__}", path)
    unknown = set(obj) - required - optional
    if unknown:
        raise SchemaError(f"unknown key(s): {', '.join(sorted(unknown))}", path)
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"missing required key(s): {', '.join(sorted(missing))}", path)


def number(obj: dict | list, key: str | int, path: str) -> float:
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(f"expected number, got {val!r}", _at(path, key))
    try:
        return float(val)
    except OverflowError:
        raise SchemaError(f"number out of range: {val!r}", _at(path, key)) from None


def integer(obj: dict | list, key: str | int, path: str) -> int:
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise SchemaError(f"expected integer, got {val!r}", _at(path, key))
    return val


def string(obj: dict | list, key: str | int, path: str) -> str:
    val = obj[key]
    if not isinstance(val, str):
        raise SchemaError(f"expected string, got {val!r}", _at(path, key))
    return val


def fixed_array(val: object, length: int, shape: str, path: str = "$") -> list:
    """``val`` if it is an array of exactly ``length`` items; ``shape`` names them."""
    if not isinstance(val, list) or len(val) != length:
        raise SchemaError(f"expected {shape}", path)
    return val


def each(val: object, path: str, parse) -> list:
    """``[parse(item) for item in val]`` for the array ``val`` found at ``path``.

    ``parse`` reads one item as a document of its own, rooted at ``$``; a
    SchemaError it raises is re-raised at ``path[i]``.
    """
    if not isinstance(val, list):
        raise SchemaError(f"expected array, got {type(val).__name__}", path)
    out = []
    try:
        for item in val:
            out.append(parse(item))
    except SchemaError as exc:
        raise exc.under(f"{path}[{len(out)}]") from None
    return out
