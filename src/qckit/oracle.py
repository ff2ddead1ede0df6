"""Black-box oracle model: Boolean indicator functions held as truth tables,
the XOR oracle gate |x,b> -> |x, b XOR I(x)>, query counting, and an
exhaustive classical baseline for the constant-vs-balanced promise problem.

The oracle gate is always moved, never multiplied: `_xor_permute` swaps
amplitudes in place by a gather index or a mask, block by cache-sized
block, so its bits do not depend on the BLAS build. `apply_oracle` takes
`out` as `apply_unitary` does: the state's own array to update it in
place, or a separate buffer (a new one when None) that receives a copy
of the state, which is then updated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

import qckit.state
from qckit.errors import (CapacityError, DimensionError, ParseError,
                          _parse_int, _records)
from qckit.state import StateVector, _check_targets, _out_buffer, _unchecked

MAX_ORACLE_INPUTS = 20
MAX_EXPLICIT_QUBITS = 12  # cap for materializing the gate matrix


@dataclass(frozen=True)
class Oracle:
    """Indicator function I: {0,1}^n -> {0,1} stored as a truth table.

    table[x] = I(x) with x read as a big-endian integer, held as bytes
    (one 0/1 byte per x) made from any 1-D sequence or array of bits.
    Immutable and shareable; query counts live in QueryCounter, not here.
    """

    n_inputs: int
    table: bytes
    name: str = ""

    def __post_init__(self):
        if not 1 <= self.n_inputs <= MAX_ORACLE_INPUTS:
            raise CapacityError(
                f"n_inputs must be in [1, {MAX_ORACLE_INPUTS}]"
            )
        table = self.table
        try:  # bytes by their values; a ragged sequence raises ValueError
            bits = (np.frombuffer(table, np.uint8)
                    if isinstance(table, bytes) else np.asarray(table))
        except ValueError:
            bits = None
        if bits is None or bits.ndim != 1:
            raise DimensionError("table must be a 1-D sequence of bits")
        if len(bits) != 2 ** self.n_inputs:
            raise DimensionError(
                f"table length {len(bits)} != 2**{self.n_inputs}"
            )
        if (bits.dtype.kind not in "biuf"
                or not np.all((bits == 0) | (bits == 1))):
            raise DimensionError("table entries must be bits")
        object.__setattr__(self, "table", bits.astype(np.uint8).tobytes())


@dataclass
class QueryCounter:
    """Per-run oracle query tally; single writer per simulation run."""

    quantum_queries: int = 0
    classical_queries: int = 0


def classical_query(oracle: Oracle, x: str, counter: QueryCounter) -> int:
    """Classical table lookup; increments the classical query count."""
    if len(x) != oracle.n_inputs or any(c not in "01" for c in x):
        raise DimensionError(
            f"input must be a bitstring of length {oracle.n_inputs}"
        )
    counter.classical_queries += 1
    return oracle.table[int(x, 2)]


def oracle_gate(oracle: Oracle) -> np.ndarray:
    """Explicit permutation matrix of the XOR oracle gate on n+1 qubits.

    Basis index (x, b) with b the least significant bit maps to
    (x, b XOR table[x]). Self-inverse and exactly unitary.
    """
    n = oracle.n_inputs
    if n + 1 > MAX_EXPLICIT_QUBITS:
        raise CapacityError(
            f"explicit oracle matrix capped at {MAX_EXPLICIT_QUBITS} qubits; "
            "use apply_oracle for larger oracles"
        )
    dim = 2 ** (n + 1)
    m = np.zeros((dim, dim), dtype=np.complex128)
    cols = np.arange(dim)
    m[cols ^ np.frombuffer(oracle.table, np.uint8)[cols >> 1], cols] = 1.0
    return m


def _xor_permute(table: bytes, amps: np.ndarray, x_axes: list[int],
                 b_axis: int) -> None:
    """Permute a C-contiguous array in place, amps[..x.., b] becoming
    amps[..x.., b XOR table[x]], for x's bits (most significant first) on
    x_axes and b on b_axis: the two b halves swap where I(x) = 1.

    The array is cut into rows of its trailing axes, about _BLOCK
    amplitudes each (the gate kernel's piece size), so every pass over a
    row stays in cache. The x bits on the leading axes select a part of
    the table, and the rows that share it share one gather index (b inside
    a row), taken into a row-sized scratch and copied back, or one 1-D
    mask of where a row swaps with the row of the other b value (b
    outside), through the same scratch. Rows whose part of the table is
    all 0 are left as they are.
    """
    shape = amps.shape
    split = len(shape) - 1
    while split and math.prod(shape[split - 1:]) <= qckit.state._BLOCK:
        split -= 1
    # x's value as a part per row plus a part per position in a row
    high = np.zeros(shape[:split], np.intp)
    low = np.zeros(shape[split:], np.intp)
    for i, axis in enumerate(x_axes):
        part = high if axis < split else low
        bit = [1] * part.ndim
        bit[axis if axis < split else axis - split] = 2
        part += np.arange(2).reshape(bit) << (len(x_axes) - 1 - i)
    amps = amps.reshape(high.size, -1)
    low = low.reshape(-1)
    scratch = np.empty(low.size, dtype=amps.dtype)
    # the index of the same place with the other b value, in a row or of a row
    width = math.prod(shape[b_axis + 1:split] if b_axis < split
                      else shape[b_axis + 1:])
    other = np.arange(high.size if b_axis < split else low.size)
    other += np.where(other // width % 2, -width, width)
    table = np.frombuffer(table, np.uint8)
    rows = high.reshape(-1)
    order = np.argsort(rows, kind="stable")
    values, starts = np.unique(rows[order], return_index=True)
    for value, group in zip(values.tolist(), np.split(order, starts[1:])):
        flip = table[value + low].view(bool)
        if not flip.any():
            continue
        if b_axis < split:
            for row in group.tolist():
                if other[row] > row:  # each pair once, from its b = 0 row
                    np.copyto(scratch, amps[row])
                    np.copyto(amps[row], amps[other[row]], where=flip)
                    np.copyto(amps[other[row]], scratch, where=flip)
        else:
            index = np.where(flip, other, np.arange(low.size))
            for row in group.tolist():
                np.take(amps[row], index, out=scratch, mode="wrap")
                np.copyto(amps[row], scratch)


def apply_oracle(
    state: StateVector,
    oracle: Oracle,
    x_targets: list[int],
    b_target: int,
    counter: QueryCounter | None = None,
    out: np.ndarray | None = None,
) -> StateVector:
    """Apply the oracle gate by permuting amplitudes in place of a matrix,
    and return the state held in `out`: the state itself, updated in
    place, when `out` is its own array, else a copy of it in `out` (a new
    array when None), as for `apply_unitary`.

    Works at any width the state supports; counts one quantum query.
    """
    if len(x_targets) != oracle.n_inputs:
        raise DimensionError(
            f"oracle {oracle.name!r} expects {oracle.n_inputs} input qubits, "
            f"got {len(x_targets)}"
        )
    _check_targets(state.n_qubits, x_targets + [b_target])
    out = _out_buffer(state, out)
    if out is not state.amps:
        np.copyto(out, state.amps)

    n = state.n_qubits
    _xor_permute(oracle.table, out.reshape([2] * n), x_targets, b_target)
    if counter is not None:
        counter.quantum_queries += 1
    return _unchecked(n, out)


@lru_cache(maxsize=None)
def _promise_tables(n_inputs: int) -> tuple[tuple[int, ...], ...]:
    """All constant and balanced truth tables on n_inputs bits."""
    size = 2 ** n_inputs
    balanced = (tuple(int(x in ones) for x in range(size))
                for ones in combinations(range(size), size // 2))
    return ((0,) * size, (1,) * size, *balanced)


def _is_constant(table: tuple[int, ...]) -> bool:
    return all(b == table[0] for b in table)


def min_deterministic_queries_dj(n_inputs: int) -> int:
    """Minimum worst-case deterministic query count separating constant
    from balanced oracles, by exhaustive adaptive decision-tree search.

    Only n_inputs in {1, 2, 3} is supported; the search is exponential.
    """
    if n_inputs not in (1, 2, 3):
        raise CapacityError("exhaustive search supported for n_inputs in {1,2,3}")
    tables = _promise_tables(n_inputs)
    size = 2 ** n_inputs

    memo: dict[frozenset, int] = {}

    def solve(alive: frozenset) -> int:
        """Worst-case queries to classify every oracle still consistent."""
        classes = {_is_constant(tables[i]) for i in alive}
        if len(classes) <= 1:
            return 0
        if alive in memo:
            return memo[alive]
        best = size + 1
        for pos in range(size):
            split = {0: [], 1: []}
            for i in alive:
                split[tables[i][pos]].append(i)
            if not split[0] or not split[1]:
                continue  # uninformative query
            cost = 1 + max(
                solve(frozenset(split[0])), solve(frozenset(split[1]))
            )
            best = min(best, cost)
        memo[alive] = best
        return best

    return solve(frozenset(range(len(tables))))


def parse_oracle(text: str, name: str = "") -> Oracle:
    """Parse the oracle file format: `inputs N`, N in [1,
    MAX_ORACLE_INPUTS], then a 2^N bitstring, and nothing after it."""
    records = _records(text)
    lineno, toks = next(records, (1, []))
    if toks[:1] != ["inputs"] or len(toks) != 2:
        raise ParseError(lineno,
                         f"expected 'inputs N', got {' '.join(toks)!r}")
    n = _parse_int(toks[1], lineno, 1, MAX_ORACLE_INPUTS)
    lineno, bits = next(records, (lineno, []))
    table = np.frombuffer("".join(bits).encode(), np.uint8) - ord("0")
    if len(bits) != 1 or len(table) != 2 ** n or not np.all(table <= 1):
        raise ParseError(lineno, f"expected a bitstring of length {2 ** n}")
    for lineno, _ in records:
        raise ParseError(lineno, "unexpected text after the bitstring")
    return Oracle(n, table, name=name)


def load_oracle(path: str, name: str = "") -> Oracle:
    with open(path, encoding="utf-8") as f:
        return parse_oracle(f.read(), name=name)


def serialize_oracle(oracle: Oracle) -> str:
    bits = np.frombuffer(oracle.table, np.uint8) + ord("0")
    return f"inputs {oracle.n_inputs}\n{bits.tobytes().decode()}\n"
