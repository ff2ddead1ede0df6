"""Black-box oracle model: Boolean indicator functions held as truth tables,
the XOR oracle gate |x,b> -> |x, b XOR I(x)>, query counting, and an
exhaustive classical baseline for the constant-vs-balanced promise problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from qckit.errors import CapacityError, DimensionError, ParseError
from qckit.state import StateVector, _out_buffer, _unchecked

MAX_ORACLE_INPUTS = 20
MAX_EXPLICIT_QUBITS = 12  # cap for materializing the gate matrix


@dataclass(frozen=True)
class Oracle:
    """Indicator function I: {0,1}^n -> {0,1} stored as a truth table.

    table[x] = I(x) with x read as a big-endian integer. Immutable and
    shareable; query counts live in QueryCounter, not here.
    """

    n_inputs: int
    table: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if not 1 <= self.n_inputs <= MAX_ORACLE_INPUTS:
            raise CapacityError(
                f"n_inputs must be in [1, {MAX_ORACLE_INPUTS}]"
            )
        object.__setattr__(self, "table", tuple(int(b) for b in self.table))
        if len(self.table) != 2 ** self.n_inputs:
            raise DimensionError(
                f"table length {len(self.table)} != 2**{self.n_inputs}"
            )
        if any(b not in (0, 1) for b in self.table):
            raise DimensionError("table entries must be bits")


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
    for x in range(2 ** n):
        fx = oracle.table[x]
        for b in (0, 1):
            m[2 * x + (b ^ fx), 2 * x + b] = 1.0
    return m


def apply_oracle(
    state: StateVector,
    oracle: Oracle,
    x_targets: list[int],
    b_target: int,
    counter: QueryCounter | None = None,
    out: np.ndarray | None = None,
) -> StateVector:
    """Apply the oracle gate by permuting amplitudes in place of a matrix,
    writing the result into `out` (see `apply_unitary` for its contract).

    Works at any width the state supports; counts one quantum query.
    """
    if len(x_targets) != oracle.n_inputs:
        raise DimensionError(
            f"oracle {oracle.name!r} expects {oracle.n_inputs} input qubits, "
            f"got {len(x_targets)}"
        )
    targets = x_targets + [b_target]
    if len(set(targets)) != len(targets):
        raise DimensionError("oracle targets must be distinct")
    for t in targets:
        if not 0 <= t < state.n_qubits:
            raise DimensionError(f"oracle target {t} out of range")
    out = _out_buffer(state, out)

    n = state.n_qubits
    psi, dst = state.amps.reshape([2] * n), out.reshape([2] * n)
    # The table as a mask over the x axes, in qubit order, broadcast over
    # the others; where it is 1, take the amplitude of the other b value.
    table = np.asarray(oracle.table, dtype=bool).reshape([2] * oracle.n_inputs)
    mask = np.expand_dims(table.transpose(np.argsort(x_targets)),
                          [q for q in range(n) if q not in x_targets])
    flipped = [slice(None)] * n
    flipped[b_target] = slice(None, None, -1)
    np.copyto(dst, psi)
    np.copyto(dst, psi[tuple(flipped)], where=mask)
    if counter is not None:
        counter.quantum_queries += 1
    return _unchecked(n, out)


@lru_cache(maxsize=None)
def _promise_tables(n_inputs: int) -> tuple[tuple[int, ...], ...]:
    """All constant and balanced truth tables on n_inputs bits."""
    size = 2 ** n_inputs
    tables = [tuple([0] * size), tuple([1] * size)]
    for ones in combinations(range(size), size // 2):
        t = [0] * size
        for i in ones:
            t[i] = 1
        tables.append(tuple(t))
    return tuple(tables)


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
        if best > size:
            # every remaining query is uninformative yet classes differ:
            # must still pay one query (cannot happen under the promise,
            # but keeps the recursion total)
            best = 1
        memo[alive] = best
        return best

    return solve(frozenset(range(len(tables))))


def parse_oracle(text: str, name: str = "") -> Oracle:
    """Parse the oracle file format: `inputs N` then a 2^N bitstring."""
    lines = [
        (i + 1, ln.strip())
        for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if len(lines) < 2:
        raise ParseError(len(text.splitlines()) or 1, "expected 2 lines")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "inputs":
        raise ParseError(lineno, f"expected 'inputs N', got {header!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"bad input count {parts[1]!r}") from None
    lineno, bits = lines[1]
    if len(bits) != 2 ** n or any(c not in "01" for c in bits):
        raise ParseError(
            lineno, f"expected a bitstring of length {2 ** n}"
        )
    return Oracle(n, tuple(int(c) for c in bits), name=name)


def load_oracle(path: str, name: str = "") -> Oracle:
    with open(path, encoding="utf-8") as f:
        return parse_oracle(f.read(), name=name)


def serialize_oracle(oracle: Oracle) -> str:
    return f"inputs {oracle.n_inputs}\n" + "".join(
        str(b) for b in oracle.table
    ) + "\n"
