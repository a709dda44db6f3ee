"""Exception types shared across the package, and the one reader and type check of JSON files.

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


def read_json(path, what: str) -> dict:
    """The JSON object in the file at ``path``, else a ValidationError naming the file as a ``what``."""
    try:
        value = json.loads(Path(path).read_text())
    except OSError as e:
        raise ValidationError(f"cannot read {what} {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, an int past 4,300 digits, deep nesting
        raise ValidationError(f"{path}: malformed {what}: {e}") from e
    return check_json(f"{path}: {what}", value, dict)
