"""Shared exception types, mapped to CLI exit codes in cli.py."""


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
