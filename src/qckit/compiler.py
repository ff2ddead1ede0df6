"""Translate a QTM's bounded-window step operator into an equivalent
quantum circuit and verify the equivalence.

Route: factor the (power-of-two padded) step unitary into two-level
unitaries by Givens-style column elimination, then realize each factor as
Gray-code routing (multi-controlled X transpositions) around one
multi-controlled single-qubit core gate. Each of these gates fires on a
pattern of 0 and 1 controls; the gates are emitted with controls on 1
inside one running X frame over the whole circuit, so an X is emitted
only where the pattern changes. Multi-controlled single-qubit gates are
terminal primitives; no further decomposition is attempted.
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


def _pattern_ops(
    factor: TwoLevelFactor, n: int
) -> list[tuple[list[int], int, np.ndarray | None]]:
    """The factor as gates `(bits, target, core)`, each acting on `target`
    where every other qubit q holds bits[q]; core None is an X.

    Gray-code routing: X transpositions walk basis state i to a neighbour
    of j, one 2x2 core acts across the last differing bit (the pivot),
    then the walk is undone.
    """
    if 2 ** n != factor.dim:
        raise DimensionError(f"factor dim {factor.dim} is not 2**{n}")
    bits = [(factor.i >> (n - 1 - q)) & 1 for q in range(n)]
    diff = [q for q in range(n) if (factor.i ^ factor.j) >> (n - 1 - q) & 1]
    walk = []
    for q in diff[:-1]:
        walk.append((bits.copy(), q, None))
        bits[q] ^= 1
    pivot = diff[-1]
    # the walked index takes the role of i; on the |1> side of the pivot
    # the core's rows and columns swap
    core = factor.block[::-1, ::-1] if bits[pivot] else factor.block
    return walk + [(bits, pivot, core)] + walk[::-1]


def _lower(
    ops: list[tuple[list[int], int, np.ndarray | None]], n: int
) -> list[GateApp]:
    """Gates with controls on 1 for pattern ops, in one running X frame:
    an `x` is emitted only where the flips a gate needs differ from the
    frame's. A core's target is unflipped before it (an X core commutes
    with the flip), and the frame is undone at the end. An X op equal to
    the op before it undoes it, so the two are dropped first."""
    kept: list[tuple[list[int], int, np.ndarray | None]] = []
    for op in ops:
        if (kept and op[2] is None and kept[-1][2] is None
                and kept[-1][:2] == op[:2]):
            kept.pop()
        else:
            kept.append(op)
    frame = [0] * n
    gates: list[GateApp] = []

    def flip_to(want):
        for q in range(n):
            if frame[q] != want[q]:
                gates.append(GateApp(NAMED, (q,), name="x"))
                frame[q] = want[q]

    for bits, target, core in kept:
        want = [1 - b for b in bits]
        want[target] = frame[target] if core is None else 0
        flip_to(want)
        targets = tuple(q for q in range(n) if q != target) + (target,)
        if core is None:
            name = "cx" if n == 2 else "mcx"
            gates.append(GateApp(NAMED, targets, name=name))
        else:
            gates.append(GateApp(UNITARY, targets, matrix=core,
                                 n_controls=n - 1))
    flip_to([0] * n)
    return gates


def two_level_to_gates(factor: TwoLevelFactor, n_qubits: int) -> list[GateApp]:
    """Realize one two-level factor as gates on n_qubits qubits."""
    return _lower(_pattern_ops(factor, n_qubits), n_qubits)


def factor_list_to_circuit(
    factors: list[TwoLevelFactor], n_qubits: int
) -> Circuit:
    """Circuit applying the ordered factor product: the state sees the
    last factor first, so the gate stream reverses the list. One X frame
    runs across all factors."""
    ops = [op for f in reversed(factors) for op in _pattern_ops(f, n_qubits)]
    return Circuit(n_qubits, _lower(ops, n_qubits))


def compile_unitary(
    u: np.ndarray, tol: float = 1e-8
) -> tuple[Circuit, CompilationReport]:
    """Compile a power-of-two unitary into a circuit and verify it."""
    if not (np.isfinite(tol) and tol > 0):
        raise DimensionError(f"tolerance must be finite and > 0, got {tol}")
    dim = u.shape[0]
    n_qubits = int(np.log2(dim))
    factors = decompose_two_level(u, tol=min(tol, 1e-9))
    circuit = factor_list_to_circuit(factors, n_qubits)
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
    circuit, report = compile_unitary(padded, tol=tol)
    report.source_dim = m.shape[0]
    return circuit, report
