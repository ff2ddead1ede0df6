"""Translate a QTM's bounded-window step operator into an equivalent
quantum circuit and verify the equivalence.

Route: factor the (power-of-two padded) step unitary into two-level
unitaries by Givens-style column elimination, then realize each factor as
Gray-code routing (multi-controlled X transpositions) around one
multi-controlled single-qubit core gate. Multi-controlled single-qubit
gates are terminal primitives; no further decomposition is attempted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from qckit.circuit import NAMED, UNITARY, Circuit, GateApp, circuit_unitary
from qckit.errors import CapacityError, DimensionError, QckitError
from qckit.gates import _unitarity_deviation
from qckit.qtm import QTMDef, QTMState, _well_formed_step, step_operator
from qckit.state import StateVector

MAX_DECOMPOSE_DIM = 256


@dataclass
class TwoLevelFactor:
    """Unitary acting on exactly two basis indices i < j of a dim-space."""

    dim: int
    i: int
    j: int
    block: np.ndarray  # 2x2, rows/cols ordered (i, j)

    def __post_init__(self):
        self.block = np.asarray(self.block, dtype=np.complex128)
        if not 0 <= self.i < self.j < self.dim:
            raise DimensionError(f"bad index pair ({self.i}, {self.j})")
        if self.block.shape != (2, 2):
            raise DimensionError("block must be 2x2")

    def embed(self) -> np.ndarray:
        m = np.eye(self.dim, dtype=np.complex128)
        m[np.ix_([self.i, self.j], [self.i, self.j])] = self.block
        return m


@dataclass
class CompilationReport:
    n_qubits: int
    gate_counts: dict[str, int]
    max_deviation: float
    padded_dim: int
    source_dim: int

    def as_dict(self) -> dict:
        return asdict(self)


def decompose_two_level(
    u: np.ndarray, tol: float = 1e-9
) -> list[TwoLevelFactor]:
    """Factor a unitary into two-level unitaries.

    The matrix product factors[0] @ factors[1] @ ... @ factors[-1]
    reconstructs u (so a circuit must apply the factors in reversed list
    order). At most dim*(dim-1)/2 factors are returned; blocks within tol
    of identity are dropped.
    """
    u = np.asarray(u, dtype=np.complex128)
    dim = u.shape[0]
    if u.shape != (dim, dim) or dim & (dim - 1):
        raise DimensionError("matrix must be square with power-of-two size")
    if dim > MAX_DECOMPOSE_DIM:
        raise CapacityError(f"decomposition capped at dim {MAX_DECOMPOSE_DIM}")
    if not _unitarity_deviation(u) <= tol:
        raise DimensionError("input matrix is not unitary within tolerance")

    a = u.copy()
    inverse_ops: list[TwoLevelFactor] = []  # G_m ... G_1 a = I

    def left_apply(g: TwoLevelFactor):
        rows = [g.i, g.j]
        a[rows, :] = g.block @ a[rows, :]
        inverse_ops.append(g)

    for c in range(dim - 2):
        eliminated = False
        for r in range(c + 1, dim):
            y = a[r, c]
            if abs(y) <= tol:
                continue
            x = a[c, c]
            norm = np.sqrt(abs(x) ** 2 + abs(y) ** 2)
            g = np.array(
                [[np.conj(x), np.conj(y)], [y, -x]], dtype=np.complex128
            ) / norm
            left_apply(TwoLevelFactor(dim, c, r, g))
            eliminated = True
        d = a[c, c]
        if not eliminated and abs(d - 1.0) > tol:
            # lone phase on the diagonal; cancel it with a two-level phase
            left_apply(
                TwoLevelFactor(
                    dim, c, c + 1, np.diag([np.conj(d), 1.0])
                )
            )

    # remaining bottom-right 2x2 block is itself two-level
    block = a[dim - 2:, dim - 2:]
    if np.max(np.abs(block - np.eye(2))) > tol:
        left_apply(
            TwoLevelFactor(dim, dim - 2, dim - 1, block.conj().T.copy())
        )

    # a = G_1^† ... G_m^† so factors (in product order) are the adjoints
    return [
        TwoLevelFactor(dim, g.i, g.j, g.block.conj().T)
        for g in inverse_ops
    ]


def reconstruct(factors: list[TwoLevelFactor], dim: int) -> np.ndarray:
    """Ordered matrix product of embedded factors."""
    m = np.eye(dim, dtype=np.complex128)
    for f in factors:
        m = m @ f.embed()
    return m


def _pattern_gate(
    name_or_core, controls: list[int], values: list[int], target: int
) -> list[GateApp]:
    """Controlled gate with an arbitrary 0/1 control pattern, realized by
    conjugating positive controls with X on the zero-valued ones."""
    pre = [
        GateApp(NAMED, (q,), name="x")
        for q, v in zip(controls, values)
        if v == 0
    ]
    targets = tuple(controls) + (target,)
    if isinstance(name_or_core, str):
        if not controls:
            core = GateApp(NAMED, (target,), name="x")
        elif len(controls) == 1:
            core = GateApp(NAMED, targets, name="cx")
        else:
            core = GateApp(NAMED, targets, name="mcx")
    else:
        core = GateApp(
            UNITARY, targets, matrix=name_or_core, n_controls=len(controls)
        )
    return pre + [core] + list(reversed(pre))


def _bits(index: int, n: int) -> list[int]:
    return [(index >> (n - 1 - q)) & 1 for q in range(n)]


def two_level_to_gates(factor: TwoLevelFactor, n_qubits: int) -> list[GateApp]:
    """Realize one two-level factor as gates on n_qubits qubits.

    Gray-code routing: transpositions (full-pattern multi-controlled X)
    walk basis state i to a neighbor of j, one multi-controlled
    single-qubit core gate acts across the final differing bit, then the
    routing is undone.
    """
    if 2 ** n_qubits != factor.dim:
        raise DimensionError(
            f"factor dim {factor.dim} is not 2**{n_qubits}"
        )
    n = n_qubits
    i_bits, j_bits = _bits(factor.i, n), _bits(factor.j, n)
    diff = [q for q in range(n) if i_bits[q] != j_bits[q]]

    # walk i toward j through all but the last differing bit
    path = [factor.i]
    cur = factor.i
    for q in diff[:-1]:
        cur ^= 1 << (n - 1 - q)
        path.append(cur)
    pivot = diff[-1]
    a = path[-1]  # occupies the role of index i, adjacent to j

    routing: list[GateApp] = []
    for prev, nxt in zip(path, path[1:]):
        flipped = next(
            q for q in range(n) if _bits(prev, n)[q] != _bits(nxt, n)[q]
        )
        controls = [q for q in range(n) if q != flipped]
        values = [_bits(prev, n)[q] for q in controls]
        routing += _pattern_gate("x", controls, values, flipped)

    a_bits = _bits(a, n)
    core = factor.block
    if a_bits[pivot] == 1:
        # role of i sits on the |1> side of the pivot qubit
        core = core[::-1, ::-1]
    controls = [q for q in range(n) if q != pivot]
    values = [a_bits[q] for q in controls]
    core_gates = _pattern_gate(np.asarray(core), controls, values, pivot)

    return routing + core_gates + list(reversed(routing))


def factor_list_to_circuit(
    factors: list[TwoLevelFactor], n_qubits: int, name: str = ""
) -> Circuit:
    """Circuit applying the ordered factor product: the state sees the
    last factor first, so the gate stream reverses the list."""
    ops: list[GateApp] = []
    for f in reversed(factors):
        ops += two_level_to_gates(f, n_qubits)
    return Circuit(n_qubits, ops, name=name)


def compile_unitary(
    u: np.ndarray, tol: float = 1e-8, name: str = ""
) -> tuple[Circuit, CompilationReport]:
    """Compile a power-of-two unitary into a circuit and verify it."""
    if not (np.isfinite(tol) and tol > 0):
        raise DimensionError(f"tolerance must be finite and > 0, got {tol}")
    dim = u.shape[0]
    n_qubits = int(np.log2(dim))
    factors = decompose_two_level(u, tol=min(tol, 1e-9))
    circuit = factor_list_to_circuit(factors, n_qubits, name=name)
    achieved = float(np.max(np.abs(circuit_unitary(circuit) - u)))
    if achieved >= tol:
        raise QckitError(
            f"compiled circuit deviates by {achieved:.3g} >= tol {tol:.3g}"
        )
    counts = dict(Counter(op.name if op.kind == NAMED else "unitary"
                          for op in circuit.ops))
    report = CompilationReport(
        n_qubits=n_qubits,
        gate_counts=counts,
        max_deviation=achieved,
        padded_dim=dim,
        source_dim=dim,
    )
    return circuit, report


def pad_to_power_of_two(m: np.ndarray) -> np.ndarray:
    """Extend a square matrix to the next power-of-two size, acting as
    identity on the padding states."""
    dim = m.shape[0]
    padded_dim = 1 << (dim - 1).bit_length()
    if padded_dim == dim:
        return m.copy()
    out = np.eye(padded_dim, dtype=np.complex128)
    out[:dim, :dim] = m
    return out


def encode_qtm_state(state: QTMState) -> StateVector:
    """Embed a QTM configuration superposition into the compiled circuit's
    qubit register (configuration index = basis index, zero padding)."""
    dim = state.space.size
    n_qubits = max((dim - 1).bit_length(), 1)
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[:dim] = state.amps
    return StateVector(n_qubits, amps)


def compile_qtm_step(
    qtm: QTMDef, tape_cells: int, tol: float = 1e-8
) -> tuple[Circuit, CompilationReport]:
    """Compile the machine's one-step evolution into a circuit whose full
    unitary matches the padded step operator within tol."""
    size = _well_formed_step(qtm, tape_cells).space.size
    if size > MAX_DECOMPOSE_DIM:
        raise CapacityError(
            f"configuration count {size} exceeds {MAX_DECOMPOSE_DIM}"
        )
    m = step_operator(qtm, tape_cells)
    padded = pad_to_power_of_two(m)
    circuit, report = compile_unitary(padded, tol=tol, name="qtm_step")
    report.source_dim = m.shape[0]
    return circuit, report
