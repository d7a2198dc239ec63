"""Shared exception types."""

from contextlib import contextmanager


class ShapeError(ValueError):
    """An input had the wrong dimensions or an inconsistent shape."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values or diverged."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""


class FormatError(ValueError):
    """A file did not match its declared on-disk format."""

    def __init__(self, message, line=None, offset=None):
        detail = message
        if line is not None:
            detail += f" (line {line})"
        if offset is not None:
            detail += f" (byte offset {offset})"
        super().__init__(detail)
        self.line = line
        self.offset = offset


@contextmanager
def file_fault(where: str):
    """Raise a `ValueError` of the block as a `FormatError` whose message
    starts with `where`, keeping its line and offset: a fault in what a
    file holds is the file's fault, and its message names the entry or
    the file."""
    try:
        yield
    except ValueError as exc:
        fault = FormatError(f"{where}: {exc}")
        fault.line, fault.offset = getattr(exc, "line", None), getattr(exc, "offset", None)
        raise fault from None
