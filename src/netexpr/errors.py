"""Shared exception types, mapped to CLI exit codes in cli.py, and the
check every artifact loader makes of its float fields."""

import numpy as np


class ConfigError(ValueError):
    """Bad or missing configuration (CLI exit code 2)."""


class DataError(Exception):
    """Bad input data or artifact files (CLI exit code 3)."""


class SchemaError(DataError):
    """An artifact file does not match its expected schema."""


class DimensionMismatch(DataError):
    """Array widths do not chain; message names the offending layer."""


class NumericError(Exception):
    """Training or evaluation produced non-finite values (CLI exit code 4)."""


def json_floats(value, field: str) -> np.ndarray:
    """The float array of a JSON list (nested for a matrix) whose every
    entry is a JSON number; ``true``, ``false``, strings and ``null`` are
    not, and raise SchemaError naming the field."""
    def entries(v):
        if isinstance(v, list):
            for x in v:
                yield from entries(x)
        else:
            yield v

    if not all(type(x) in (int, float) for x in entries(value)):
        raise SchemaError(f"{field} must hold JSON numbers only")
    try:
        return np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{field}: {exc}") from exc
