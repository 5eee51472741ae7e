"""One type check for every JSON input: provider answers, store files and
operator files, and one reader for each JSON and JSON-Lines file. A type is
named as a dataclass field annotates it, so a stored entry's dataclass is
its own file format."""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, fields
from pathlib import Path

_SCALARS = {"str": (str,), "bool": (bool,), "int": (int,), "dict": (dict,)}
_FLOAT64_MAX = sys.float_info.max


def _is_float(x) -> bool:
    """A JSON number a float64 holds: no bool, NaN, infinity or int beyond
    its range."""
    return type(x) in (int, float) and -_FLOAT64_MAX <= x <= _FLOAT64_MAX


def misfit(value, shape) -> str | None:
    """Path to the first part of ``value`` not of type ``shape`` ("" for
    ``value`` itself), None if it fits. A shape is an annotation, [s] a list
    of s, or {key: s} an object whose keys may be absent unless s starts with
    "required ", other keys ignored. A JSON list stands for a tuple. A bool
    is no number, and a float is a number a float64 holds. An ``np.ndarray``
    (an embedding stored inline, as schema-1 stores hold it) is a list of
    such floats."""
    if isinstance(shape, dict):
        if type(value) is not dict:
            return ""
        for key, sub in shape.items():
            path = misfit(value[key], sub) if key in value else \
                "" if isinstance(sub, str) and sub.startswith("required ") else None
            if path is not None:
                return f".{key}{path}"
        return None
    if isinstance(shape, list):
        item = shape[0]
    else:
        shape = shape.removeprefix("required ")
        if shape in _SCALARS:
            return None if type(value) in _SCALARS[shape] else ""
        if shape == "float":
            return None if _is_float(value) else ""
        if shape == "np.ndarray":  # walked without a call per number
            if type(value) is not list:
                return ""
            for i, x in enumerate(value):
                if not _is_float(x):
                    return f"[{i}]"
            return None
        if shape.endswith(" | None"):
            return None if value is None else misfit(value, shape[:-7])
        if shape.startswith("tuple["):
            parts = shape[6:-1].split(", ")
            item = parts[0]  # "tuple[s, ...]" is a list of s
            if parts[-1] != "...":  # a fixed-length tuple
                if type(value) is not list or len(value) != len(parts):
                    return ""
                for i, (x, part) in enumerate(zip(value, parts)):
                    path = misfit(x, part)
                    if path is not None:
                        return f"[{i}]{path}"
                return None
        else:
            item = shape[5:-1]  # list[s]
    if type(value) is not list:
        return ""
    for i, x in enumerate(value):
        path = misfit(x, item)
        if path is not None:
            return f"[{i}]{path}"
    return None


def check(value, shape):
    """``value`` if it fits ``shape``, else a ValueError saying where not."""
    path = misfit(value, shape)
    if path is not None:
        raise ValueError(f"does not fit {json.dumps(shape)} at {path or '.'}")
    return value


def entry_from_json(cls, record, **given):
    """The dataclass ``cls`` from a JSON object of its fields, typed as
    annotated, and the fields ``given``, taken as they are; a field with a
    default may be absent, other keys are ignored, and a list for a tuple
    field becomes a tuple. ValueError says why not."""
    if type(record) is not dict:
        raise ValueError("not a JSON object")
    values = given
    for f in fields(cls):
        if f.name in given:
            continue
        if f.name in record:
            value = record[f.name]
            path = misfit(value, f.type)
            if path is not None:
                raise ValueError(f"field {f.name!r}{path} is not of type {f.type}")
            values[f.name] = tuple(value) \
                if f.type.startswith("tuple") and value is not None else value
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing field {f.name!r}")
    return cls(**values)


@contextmanager
def naming(subject):
    """Prefix a ValueError raised inside with ``subject``, what it is about."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{subject}: {exc}") from None


def read_json(path: str | Path, make):
    """``make`` of the JSON value in the file at ``path`` (``-`` for stdin).
    A ValueError, from the JSON or from ``make``, names the file."""
    with naming(path):
        text = sys.stdin.read() if str(path) == "-" \
            else Path(path).read_text(encoding="utf-8")
        return make(json.loads(text))


def read_jsonl(path: str | Path, make) -> list:
    """``make`` of each record of the JSON-Lines file at ``path`` (``-`` for
    stdin), blank lines skipped. A ValueError, from the JSON or from
    ``make``, names the file and the record's line, counted from 1 with
    blank lines included."""
    source = nullcontext(sys.stdin) if str(path) == "-" \
        else open(path, encoding="utf-8")
    records = []
    number = 0
    try:
        with source as fh:
            for number, line in enumerate(fh, 1):
                if line.strip():
                    records.append(make(json.loads(line)))
    except UnicodeDecodeError as exc:  # raised by a read, not by a line
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        raise ValueError(f"{path}: line {number}: {reason}") from None
    return records
