"""Exception hierarchy shared across the toolkit, and the line reader and
token parsers of its three text formats (circuits, oracles, QTMs), whose
errors are ParseErrors that name their line."""

from collections.abc import Iterator
from contextlib import contextmanager
from math import isfinite


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


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) for each line that still holds a token once
    its `#` comment is cut; numbered from 1."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split("#", 1)[0].split()
        if toks:
            yield lineno, toks


def _parse_int(tok: str, lineno: int, lo: int | None = None,
               hi: int | None = None) -> int:
    """The integer `tok`, which must lie in [lo, hi] when they are given."""
    try:
        v = int(tok)
    except ValueError:
        raise ParseError(lineno, f"bad integer {tok!r}") from None
    if lo is not None and not lo <= v <= hi:
        raise ParseError(lineno, f"{v} is not in [{lo}, {hi}]")
    return v


def _parse_float(tok: str, lineno: int) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(lineno, f"bad number {tok!r}") from None
    if not isfinite(v):
        raise ParseError(lineno, f"number {tok!r} must be finite")
    return v
