"""Exception types shared across the package, and the one reader, key rule and type check of JSON files.

ValidationError maps to CLI exit code 1, InvariantViolation to exit code 2.
"""

import json
import reprlib
from pathlib import Path
from typing import get_args, get_origin

_INT64 = range(-(2**63), 2**63)


class PillarDetError(Exception):
    """Base class for package errors."""


class ValidationError(PillarDetError):
    """Invalid input data, configuration, or file content."""


class InvariantViolation(PillarDetError):
    """An internal consistency check failed."""


def _is_json(value, kind) -> bool:
    if get_origin(kind) is list:
        return isinstance(value, list) and all(_is_json(v, get_args(kind)[0]) for v in value)
    if isinstance(value, bool):
        return kind is bool
    if isinstance(value, int) and value not in _INT64:
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def check_json(what: str, value, *kinds):
    """``value`` if it has one of the declared JSON types, else a ValidationError naming ``what``.

    ``list[t]`` is a list whose every element is a t; a bool is no number, an int is a float,
    and an int must fit in 64 bits, so no ``float()``, ``int()`` or numpy call downstream overflows.
    """
    if not any(_is_json(value, kind) for kind in kinds):
        names = " or ".join(str(kind) if get_origin(kind) else kind.__name__ for kind in kinds)
        big = any(isinstance(v, int) and v not in _INT64 for v in (value if isinstance(value, list) else [value]))
        note = ", and ints must fit in 64 bits" if big else ""
        raise ValidationError(f"{what} must be {names}, got {reprlib.repr(value)}{note}")
    return value


def check_record(where: str, record, kinds: dict, fixed: dict | None = None) -> dict:
    """A copy of ``record`` if it is a JSON object (or the arrays of an npz) holding exactly the keys of ``kinds``, each
    value of the type (or one of the tuple of types) declared there; else a ValidationError naming ``where`` and what is
    wrong. A key of ``fixed``, which older files wrote, may also appear, only at its value there; the copy drops it."""
    record = dict(check_json(where, record, dict))
    for key, value in (fixed or {}).items():
        held = record.pop(key, value)
        if not _is_json(held, type(value)) or held != value:
            raise ValidationError(f"{where} {key} is {reprlib.repr(held)}, but only {value!r} is supported")
    unknown, missing = sorted(set(record) - set(kinds)), sorted(set(kinds) - set(record))
    if unknown or missing:
        raise ValidationError(f"{where} has unknown keys {unknown} and missing keys {missing}")
    for key, kind in kinds.items():
        check_json(f"{where} {key}", record[key], *(kind if isinstance(kind, tuple) else (kind,)))
    return record


def read_json(path, what: str) -> dict:
    """The JSON object in the file at ``path``, else a ValidationError naming the file as a ``what``.
    A key that appears twice in one object of the file is rejected, not overwritten."""

    def unique_keys(pairs: list) -> dict:
        record = {}
        for key, value in pairs:
            if key in record:
                raise ValidationError(f"{path}: {what} holds key {key!r} twice in one object")
            record[key] = value
        return record

    try:
        value = json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except OSError as e:
        raise ValidationError(f"cannot read {what} {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, an int past 4,300 digits, deep nesting
        raise ValidationError(f"{path}: malformed {what}: {e}") from e
    return check_json(f"{path}: {what}", value, dict)
