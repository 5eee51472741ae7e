"""One type check for every JSON input: provider answers, store files and
operator files. A type is named as a dataclass field annotates it, so a
stored entry's dataclass is its own file format."""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import MISSING, fields

_SCALARS = {"str": (str,), "bool": (bool,), "int": (int,),
            "float": (int, float), "dict": (dict,)}


def misfit(value, shape) -> str | None:
    """Path to the first part of ``value`` not of type ``shape`` ("" for
    ``value`` itself), None if it fits. A shape is an annotation, [s] a list
    of s, or {key: s} an object whose keys may be absent unless s starts with
    "required ", other keys ignored. A bool is no number, a float is finite,
    and an embedding (``tuple[float, ...]``) is checked as a list only, not
    number by number."""
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
            fit = type(value) in _SCALARS[shape] and \
                (type(value) is not float or math.isfinite(value))
            return None if fit else ""
        if shape.endswith(" | None"):
            return None if value is None else misfit(value, shape[:-7])
        if shape.startswith("tuple["):  # "tuple[s, ...]": items not walked
            parts = shape[6:-1].split(", ")
            fit = type(value) is list and (parts[-1] == "..." or len(value) == len(
                parts) and all(misfit(x, p) is None for x, p in zip(value, parts)))
            return None if fit else ""
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


def entry_from_json(cls, record):
    """The dataclass ``cls`` from a JSON object of its fields, typed as
    annotated; a field with a default may be absent, other keys are ignored,
    and a list for a tuple field becomes a tuple. ValueError says why not."""
    if type(record) is not dict:
        raise ValueError("not a JSON object")
    values = {}
    for f in fields(cls):
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
