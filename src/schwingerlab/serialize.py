"""Canonical JSON helpers: digests, strict schemas, deterministic files."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from typing import Iterable

from .errors import DomainError, SchemaError


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_digest(obj) -> str:
    """sha256 of the canonical JSON encoding; stable across reruns."""
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def require_keys(doc, required: Iterable[str], optional: Iterable[str] = (),
                 ctx: str = "document") -> None:
    """Strict schema gate: every required key present, no unknown keys."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{ctx} must be an object, got {type(doc).__name__}")
    required = tuple(required)
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{ctx} has unknown key(s): {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{ctx} is missing required key {key!r}")


def json_number(value, ctx: str):
    """`value` if it is a finite JSON number, else a SchemaError naming `ctx`.
    An int past the largest float counts as not finite, so the callers'
    `float(json_number(...))` cannot overflow."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise SchemaError(f"{ctx} must be a finite number, got {value!r}")
    return value


def json_integer(value, ctx: str, low=-math.inf, high=math.inf) -> int:
    """`value` as an int if it is a finite JSON number with an integral
    value (`32` or `32.0`) in low..high, else a SchemaError naming `ctx`."""
    if json_number(value, ctx) != int(value):
        raise SchemaError(f"{ctx} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise SchemaError(f"{ctx} must be an integer in {low}..{high}, got {value!r}")
    return int(value)


def overrides(doc, defaults: dict[str, float], ctx: str) -> dict[str, float]:
    """`defaults` with `doc` laid over it, once `doc` is checked to be an object
    of keys among the defaults' with finite numbers as values."""
    require_keys(doc, (), defaults, ctx)
    return {**defaults, **{k: float(json_number(v, f"{ctx}.{k}")) for k, v in doc.items()}}


def write_json(path, obj) -> None:
    """Write obj as indented JSON.  A non-finite number, which JSON cannot
    hold, raises DomainError before the file is opened."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"{path}: cannot write as JSON ({exc})") from None
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or int size
        raise SchemaError(f"{path}: cannot read as JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(f"{path}: nested too deeply to read") from None


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]
