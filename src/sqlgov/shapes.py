"""One type check for every JSON input: provider answers, store files and
operator files, and one reader for each JSON and JSON-Lines file. A type is
named as a dataclass field annotates it, so a stored entry's dataclass is
its own file format."""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, fields
from functools import cache, partial
from pathlib import Path
from typing import TextIO

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
    if type(shape) is str:
        return _fitter(shape)(value)
    if isinstance(shape, dict):
        if type(value) is not dict:
            return ""
        for key, sub in shape.items():
            path = misfit(value[key], sub) if key in value else \
                "" if isinstance(sub, str) and sub.startswith("required ") else None
            if path is not None:
                return f".{key}{path}"
        return None
    return _each(shape[0], value)  # [s]


@cache
def _fitter(annotation: str):
    """``misfit`` against ``annotation``, as a function of the value alone,
    compiled once per annotation."""
    shape = annotation.removeprefix("required ")
    if shape in _SCALARS:
        types = _SCALARS[shape]
        return lambda value: None if type(value) in types else ""
    if shape == "float":
        return lambda value: None if _is_float(value) else ""
    if shape == "np.ndarray":
        return _floats
    if shape.endswith(" | None"):
        fit = _fitter(shape[:-7])
        return lambda value: None if value is None else fit(value)
    if shape.startswith("tuple["):
        parts = shape[6:-1].split(", ")
        if parts[-1] != "...":  # a fixed-length tuple
            return partial(_fixed, parts)
        item = parts[0]  # "tuple[s, ...]" is a list of s
    else:
        item = shape[5:-1]  # list[s]
    return partial(_each, item)


def _floats(value) -> str | None:
    """``misfit`` of an ``np.ndarray``: walked without a call per number."""
    if type(value) is not list:
        return ""
    for i, x in enumerate(value):
        if not _is_float(x):
            return f"[{i}]"
    return None


def _each(item, value) -> str | None:
    """``misfit`` of a list of ``item``."""
    if type(value) is not list:
        return ""
    for i, x in enumerate(value):
        path = misfit(x, item)
        if path is not None:
            return f"[{i}]{path}"
    return None


def _fixed(parts, value) -> str | None:
    """``misfit`` of a tuple of one of each of ``parts``."""
    if type(value) is not list or len(value) != len(parts):
        return ""
    for i, (x, part) in enumerate(zip(value, parts)):
        path = misfit(x, part)
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
    field becomes a tuple. ValueError says why not. Each field is checked
    as ``misfit`` checks its annotation, through the class's plan
    (``_plan``), made on its first record."""
    if type(record) is not dict:
        raise ValueError("not a JSON object")
    values = given
    for name, annotation, required, to_tuple, fit in _plan(cls):
        if name in given:
            continue
        if name in record:
            value = record[name]
            path = fit(value)
            if path is not None:
                raise ValueError(f"field {name!r}{path} is not of type {annotation}")
            values[name] = tuple(value) if to_tuple and value is not None else value
        elif required:
            raise ValueError(f"missing field {name!r}")
    return cls(**values)


@cache
def _plan(cls) -> tuple:
    """For each field of the dataclass ``cls``: its name, its annotation,
    whether it is required, whether it is a tuple, and its ``_fitter``."""
    return tuple((f.name, f.type,
                  f.default is MISSING and f.default_factory is MISSING,
                  f.type.startswith("tuple"), _fitter(f.type))
                 for f in fields(cls))


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


def read_jsonl(path: str | Path | TextIO, make) -> list:
    """``make`` of each record of the JSON-Lines file at ``path`` (``-`` for
    stdin, or a text file already open), blank lines skipped. A ValueError,
    from the JSON or from ``make``, names the file and the record's line,
    counted from 1 with blank lines included."""
    if not isinstance(path, (str, os.PathLike)):  # open: closed by the caller
        source, path = nullcontext(path), path.name
    else:
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
