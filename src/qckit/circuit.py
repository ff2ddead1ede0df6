"""Circuit intermediate representation, text format, and simulation driver.

Text format (UTF-8, line oriented):

    qubits N
    <gatename> [( angle )] <target...>
    oracle <name> <x-targets...> <ancilla-target>
    unitary <n_controls> <target...> : <re im ...>

Gate names: i x y z h s t phase cphase cx swap ccx mcx. The lines are
read by `errors._records` (a '#' comment may end any line, blank lines
are skipped); N must lie in [1, MAX_QUBITS]. The `unitary` line carries a
raw core matrix (row-major re/im pairs) on the non-control targets; it
exists so compiled circuits, which use multi-controlled single-qubit
primitives, serialize losslessly.

Every gate but an oracle is simulated as its core matrix on the slice of
the state where its controls, the leading targets, are all 1; `simulate`
applies each run of gates whose core is diag(1, p) as one multiply.
`state._check_targets` is the one check of a gate's qubits: `Circuit` runs
it on each op, and `parse_circuit` first on each line, to name the line;
a `unitary` line's targets are checked before they size its core. A
named gate is resolved to its core once, when its GateApp is built.
`circuit_unitary` is one simulation on a doubled register holding
sum_j |j>|j>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from qckit.errors import (
    CapacityError,
    DimensionError,
    ParseError,
    UnresolvedOracleError,
    _parse_float,
    _parse_int,
    _records,
    at_line,
)
from qckit.gates import _unitarity_deviation, gate_core
from qckit.oracle import Oracle, QueryCounter, apply_oracle
from qckit.state import (
    GATE_NORM_TOL,
    MAX_QUBITS,
    StateVector,
    _check_targets,
    _multiply_phases,
    _unchecked,
    apply_unitary,
    new_zero_state,
)

MAX_UNITARY_QUBITS = 10  # circuit_unitary cap (1M-entry matrices)
_ONE_BUFFER_QUBITS = 20  # simulate updates states this wide in place

NAMED, ORACLE, UNITARY = "named", "oracle", "unitary"


@dataclass
class GateApp:
    """One gate application: a named gate, an oracle reference, or a raw
    unitary. For every kind but an oracle the first `n_controls` targets
    act as controls of the core `matrix` on the remaining targets; a named
    gate's are set from its name."""

    kind: str
    targets: tuple[int, ...]
    name: str = ""
    param: float | None = None
    matrix: np.ndarray | None = None
    n_controls: int = 0

    def __post_init__(self):
        self.targets = tuple(int(t) for t in self.targets)
        if self.kind not in (NAMED, ORACLE, UNITARY):
            raise DimensionError(f"unknown gate kind {self.kind!r}")
        if self.param is not None:
            self.param = float(self.param)
        if self.kind == NAMED:
            self.matrix, self.n_controls = gate_core(
                self.name, self.param, len(self.targets))
        elif self.kind == ORACLE:
            if len(self.targets) < 2:
                raise DimensionError(
                    "oracle gate needs at least one input and an ancilla"
                )
        else:
            self.matrix = np.asarray(self.matrix, dtype=np.complex128)
            core_qubits = len(self.targets) - self.n_controls
            if self.n_controls < 0 or core_qubits < 1:
                raise DimensionError(f"bad control count {self.n_controls}")
            dim = 2 ** core_qubits
            if self.matrix.shape != (dim, dim):
                raise DimensionError(
                    f"raw matrix shape {self.matrix.shape} does not match "
                    f"{core_qubits} non-control targets"
                )
            if not _unitarity_deviation(self.matrix) <= GATE_NORM_TOL:
                raise DimensionError("raw matrix is not unitary")

    def __eq__(self, other):
        if not isinstance(other, GateApp):
            return NotImplemented
        if (self.kind, self.targets, self.name, self.param,
                self.n_controls) != (other.kind, other.targets, other.name,
                                     other.param, other.n_controls):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or np.array_equal(self.matrix, other.matrix)

@dataclass
class Circuit:
    """Ordered gate list over a fixed qubit count; immutable after build."""

    n_qubits: int
    ops: list[GateApp] = field(default_factory=list)

    def __post_init__(self):
        for op in self.ops:
            _check_targets(self.n_qubits, op.targets)

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.ops == other.ops


def _phase(op: GateApp) -> complex | None:
    """p for a gate whose core is diag(1, p), under any controls; None for
    any other gate."""
    m = op.matrix
    if m is None or m.shape != (2, 2):
        return None
    one, upper, lower, p = m.ravel().tolist()
    return p if one == 1 and upper == 0 and lower == 0 else None


def simulate(
    circuit: Circuit,
    initial: StateVector | None = None,
    oracle_table: dict[str, Oracle] | None = None,
    counter: QueryCounter | None = None,
) -> StateVector:
    """Apply every gate of the circuit in order; `initial` is not modified.

    Oracle gates are resolved through `oracle_table` and applied via the
    strided kernel, incrementing `counter.quantum_queries` once each.
    The state is a copy of `initial` or a new zero state. Each run of
    consecutive gates whose core is diag(1, p), under any controls, is one
    in-place multiply by the run's phase table (`state._multiply_phases`),
    and every oracle permutes the state in place (`out` is its own array).
    Every other gate goes through `apply_unitary`: in place too from
    _ONE_BUFFER_QUBITS qubits on, so a wide simulation holds one
    state-sized buffer. On a narrower state such a gate writes its result
    into a second buffer, and the two alternate: while both are small,
    that is cheaper than the in-place kernel's copy of each piece it
    computes. Only the returned state is checked for finiteness.
    """
    if initial is None:
        state = new_zero_state(circuit.n_qubits)
    elif initial.n_qubits != circuit.n_qubits:
        raise DimensionError(
            f"initial state has {initial.n_qubits} qubits, "
            f"circuit needs {circuit.n_qubits}"
        )
    else:
        state = _unchecked(initial.n_qubits, initial.amps.copy())
    spare = (None if circuit.n_qubits >= _ONE_BUFFER_QUBITS
             else np.empty_like(state.amps))
    phases = []  # the diagonal run not yet applied, as (qubits, p)
    for op in circuit.ops:
        p = _phase(op)
        if p is not None:
            phases.append((op.targets, p))
            continue
        if phases:
            _multiply_phases(state.amps, state.n_qubits, phases)
            phases = []
        if op.kind == ORACLE:
            oracle = (oracle_table or {}).get(op.name)
            if oracle is None:
                raise UnresolvedOracleError(
                    f"oracle {op.name!r} has no binding"
                )
            apply_oracle(
                state, oracle, list(op.targets[:-1]), op.targets[-1],
                counter=counter, out=state.amps,
            )
            continue
        nc = op.n_controls
        new = apply_unitary(state, op.matrix, op.targets[nc:],
                            op.targets[:nc],
                            out=state.amps if spare is None else spare)
        if spare is not None:
            spare, state = state.amps, new
    if phases:
        _multiply_phases(state.amps, state.n_qubits, phases)
    return StateVector(state.n_qubits, state.amps)


def circuit_unitary(
    circuit: Circuit, oracle_table: dict[str, Oracle] | None = None
) -> np.ndarray:
    """Full 2^n x 2^n matrix of the circuit from one simulation: run on
    the first n of 2n qubits holding the unnormalized sum_j |j>|j>, the
    register's amplitude (i, j) becomes U[i, j]."""
    n = circuit.n_qubits
    if n > MAX_UNITARY_QUBITS:
        raise CapacityError(
            f"circuit_unitary capped at {MAX_UNITARY_QUBITS} qubits"
        )
    dim = 2 ** n
    doubled = Circuit(2 * n, circuit.ops)
    identity = StateVector(2 * n, np.eye(dim).reshape(-1))
    return simulate(doubled, identity, oracle_table).amps.reshape(dim, dim)


def _parse_targets(toks: list[str], lineno: int) -> tuple:
    if not toks:
        raise ParseError(lineno, "gate line has no targets")
    return tuple(_parse_int(t, lineno) for t in toks)


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; raises ParseError with a line number on any
    malformed input (never crashes on arbitrary bytes)."""
    records = _records(text)
    lineno, toks = next(records, (1, []))
    if toks[:1] != ["qubits"] or len(toks) != 2:
        raise ParseError(lineno, "expected 'qubits N' header")
    n_qubits = _parse_int(toks[1], lineno, 1, MAX_QUBITS)
    ops: list[GateApp] = []
    for lineno, toks in records:
        head = toks[0]
        if head == "oracle":
            if len(toks) < 4:
                raise ParseError(
                    lineno, "oracle line needs a name, inputs and an ancilla"
                )
            targets = _parse_targets(toks[2:], lineno)
            op = GateApp(ORACLE, targets, name=toks[1])
        elif head == "unitary":
            if ":" not in toks:
                raise ParseError(lineno, "unitary line needs ':' separator")
            sep = toks.index(":")
            if sep < 3:
                raise ParseError(
                    lineno, "unitary line needs controls count and targets"
                )
            n_controls = _parse_int(toks[1], lineno)
            targets = _parse_targets(toks[2:sep], lineno)
            with at_line(lineno):  # before the targets size the core
                _check_targets(n_qubits, targets)
            if not 0 <= n_controls < len(targets):
                raise ParseError(lineno, f"bad control count {n_controls}")
            vals = [_parse_float(t, lineno) for t in toks[sep + 1:]]
            dim = 2 ** (len(targets) - n_controls)
            if len(vals) != 2 * dim * dim:
                raise ParseError(
                    lineno,
                    f"expected {2 * dim * dim} matrix entries, got {len(vals)}",
                )
            re = np.array(vals[0::2]).reshape(dim, dim)
            im = np.array(vals[1::2]).reshape(dim, dim)
            with at_line(lineno):
                op = GateApp(UNITARY, targets, matrix=re + 1j * im,
                             n_controls=n_controls)
        else:
            param = None
            rest = toks[1:]
            if rest and rest[0] == "(":
                if len(rest) < 3 or rest[2] != ")":
                    raise ParseError(lineno, "malformed angle '( x )'")
                param = _parse_float(rest[1], lineno)
                rest = rest[3:]
            targets = _parse_targets(rest, lineno)
            with at_line(lineno):
                op = GateApp(NAMED, targets, name=head, param=param)
        with at_line(lineno):  # after the gate's own checks
            _check_targets(n_qubits, op.targets)
        ops.append(op)
    return Circuit(n_qubits, ops)


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical one-gate-per-line text; parse(serialize(c)) == c."""
    lines = [f"qubits {circuit.n_qubits}"]
    for op in circuit.ops:
        targets = " ".join(str(t) for t in op.targets)
        if op.kind == ORACLE:
            lines.append(f"oracle {op.name} {targets}")
        elif op.kind == UNITARY:
            entries = " ".join(
                f"{float(v.real)!r} {float(v.imag)!r}"
                for v in op.matrix.flatten()
            )
            lines.append(f"unitary {op.n_controls} {targets} : {entries}")
        elif op.param is not None:
            lines.append(f"{op.name} ( {op.param!r} ) {targets}")
        else:
            lines.append(f"{op.name} {targets}")
    return "\n".join(lines) + "\n"
