"""The one JSON codec of every document expsum reads or writes.

Keys are sorted.  ``report.json`` is compact, on one line; the model file,
the run config and the stdout and stderr summaries are indented by two
spaces.  Every number is written as the shortest text that reads back as
the same double (``1e-9``, not ``1e-09``) and non-ASCII text as UTF-8.
numpy scalars are written as their values; NaN and infinities, which JSON
cannot spell, as ``null``.  Reading accepts JSON only: a malformed document,
or one with ``NaN`` or ``Infinity`` tokens, is an :class:`InputError`
naming the file.
"""

from __future__ import annotations

import sys
from pathlib import Path

import orjson

from .errors import InputError

_COMPACT = (orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
            | orjson.OPT_APPEND_NEWLINE)
_INDENTED = _COMPACT | orjson.OPT_INDENT_2


def dumps(doc, indent: bool = True) -> bytes:
    """UTF-8 text of ``doc`` ending in a newline, indented or on one line."""
    return orjson.dumps(doc, option=_INDENTED if indent else _COMPACT)


def write(path, doc, indent: bool = True) -> None:
    Path(path).write_bytes(dumps(doc, indent))


def emit(doc, stream=None) -> None:
    """Write ``doc`` indented to a text stream, by default standard output."""
    (stream or sys.stdout).write(dumps(doc).decode("utf-8"))


def mapping(doc, what: str) -> dict:
    """``doc`` if it is a JSON object; anything else is an :class:`InputError`."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def integer(value, what: str) -> int:
    """``value`` if it is a JSON integer; a boolean or a float is not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def number(value, what: str):
    """``value`` if it is a JSON number; a boolean is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    return value


def read(path):
    try:
        return orjson.loads(Path(path).read_bytes())
    except orjson.JSONDecodeError as exc:
        raise InputError(f"{path}: not a JSON document: {exc}") from exc
