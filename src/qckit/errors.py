"""Exception hierarchy shared across the toolkit."""

from contextlib import contextmanager


class QckitError(Exception):
    """Base class for all toolkit errors."""


class CapacityError(QckitError):
    """A size bound (qubit count, matrix dimension, basis size) was exceeded."""


class DimensionError(QckitError):
    """Mismatched dimensions or invalid target indices."""


class StateError(QckitError):
    """A state violated a precondition (e.g. not normalized)."""


class ParseError(QckitError):
    """A text input failed to parse; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@contextmanager
def at_line(line: int):
    """Report a DimensionError raised in the block as a ParseError at line."""
    try:
        yield
    except DimensionError as e:
        raise ParseError(line, str(e)) from None


class UnresolvedOracleError(QckitError):
    """A circuit referenced an oracle name with no binding."""


class WellFormednessError(QckitError):
    """A QTM failed the unitarity (well-formedness) check."""
