"""Exception types shared across the package, and the one type check of JSON values.

ValidationError maps to CLI exit code 1, InvariantViolation to exit code 2.
"""

from typing import get_args, get_origin


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
    return isinstance(value, (int, float) if kind is float else kind)


def check_json(what: str, value, *kinds):
    """``value`` if it has one of the declared JSON types, else a ValidationError naming ``what``.

    ``list[t]`` is a list whose every element is a t; a bool is no number, and an int is a float.
    """
    if not any(_is_json(value, kind) for kind in kinds):
        names = " or ".join(str(kind) if get_origin(kind) else kind.__name__ for kind in kinds)
        raise ValidationError(f"{what} must be {names}, got {value!r}")
    return value
