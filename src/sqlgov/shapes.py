"""One type check for every JSON input: provider answers, store files and
operator files. A type is named as a dataclass field annotates it, so a
stored entry's dataclass is its own file format."""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields

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


def check(value, shape) -> None:
    """Raise a ValueError saying where ``value`` does not fit ``shape``."""
    path = misfit(value, shape)
    if path is not None:
        raise ValueError(f"does not fit {json.dumps(shape)} at {path or '.'}")


def check_records(records: list, shape) -> None:
    """Raise a ValueError naming the first of ``records`` (counted from 1)
    that does not fit ``shape``."""
    for i, record in enumerate(records, 1):
        with naming(f"record {i}"):
            check(record, shape)


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
