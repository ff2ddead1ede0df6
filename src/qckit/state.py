"""Dense state-vector representation, gate-application kernel, measurement,
and entanglement diagnostics.

The kernel `apply_unitary` takes a gate as its core matrix, its targets and
its controls, and writes the new amplitudes into `out`: a new array when
None, else a contiguous complex128 buffer that may not share memory with
the state. The input state is never modified.

A 1-target core is one BLAS matrix product on a reshape view of the state.
With R = 2**(n-1-t) amplitudes between the two halves of each pair, it is
u @ (2, R) blocks when R > 32; on the last qubits (R <= 32) it is rows of
width 2R times kron(u, I_R).T, and rows of 4 times kron(I_2, u).T for the
last qubit, because u @ (2, R) makes one BLAS call per 2R amplitudes. A
controlled gate computes a region that holds the slice where every control
is 1 and copies the rest from the state. Multi-target cores, and slices of
fewer than 3 free qubits, use a tensordot over the target axes. Every form
gives the same bits as that tensordot, which the tests check.

Finiteness is checked where amplitudes enter: the StateVector constructor
rejects non-finite amplitudes, kernel results skip that scan, `simulate`
checks the state it returns once, and `check_normalized` (run before
every measurement) rejects a NaN or infinite norm.

Convention: qubit 0 is the most significant bit of the basis-state index.
For a 2-qubit state the amplitude order is |00>, |01>, |10>, |11> where the
left bit is qubit 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from qckit.errors import CapacityError, DimensionError, StateError

MAX_QUBITS = 24  # ~256 MiB per complex128 state

NORM_TOL = 1e-9       # algebraic identities
GATE_NORM_TOL = 1e-6  # precondition gating (accumulated float error)

_KRON_MAX_R = 32    # widest pair stride computed as a kron(u, I_R) product
_RUN_MIN = 64       # contiguous rows/columns a restricting control leaves
_PIECE_QUBITS = 18  # tensordot piece size on wide states


@dataclass
class StateVector:
    """Pure n-qubit state: 2**n_qubits complex128 amplitudes, L2 norm 1."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (2 ** self.n_qubits,):
            raise DimensionError(
                f"expected {2 ** self.n_qubits} amplitudes for "
                f"{self.n_qubits} qubits, got {self.amps.shape}"
            )
        if not np.all(np.isfinite(self.amps)):
            raise StateError("amplitudes must be finite")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def check_normalized(self) -> None:
        """Raise StateError unless the norm is 1 within GATE_NORM_TOL."""
        norm = self.norm()
        if not abs(norm - 1.0) <= GATE_NORM_TOL:  # also catches NaN
            raise StateError(f"state norm {norm} deviates from 1 by > 1e-6")

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@dataclass
class MeasurementRecord:
    """Outcome of a full computational-basis measurement."""

    outcome: str             # bitstring, qubit 0 first
    probability: float
    collapsed: StateVector


def new_zero_state(n_qubits: int) -> StateVector:
    """All-zeros basis state |0...0> on n_qubits qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise CapacityError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}"
        )
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state with the given index."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise CapacityError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}"
        )
    if not 0 <= index < 2 ** n_qubits:
        raise DimensionError(f"basis index {index} out of range")
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def _check_targets(n_qubits: int, targets: Sequence[int]):
    if len(set(targets)) != len(targets):
        raise DimensionError(f"duplicate targets {list(targets)}")
    for t in targets:
        if not 0 <= t < n_qubits:
            raise DimensionError(
                f"target {t} out of range for {n_qubits} qubits"
            )


def _out_buffer(state: StateVector, out: np.ndarray | None) -> np.ndarray:
    """The array a kernel writes its result into: a new one for None, else
    `out` itself, which must be a separate contiguous complex128 array of
    the state's length."""
    if out is None:
        return np.empty_like(state.amps)
    if (out.shape != state.amps.shape or out.dtype != np.complex128
            or not out.flags.c_contiguous):
        raise DimensionError(
            f"out must be a contiguous complex128 array of shape "
            f"{state.amps.shape}"
        )
    if np.shares_memory(out, state.amps):
        raise DimensionError("out must not share memory with the state")
    return out


def _unchecked(n_qubits: int, amps: np.ndarray) -> StateVector:
    """A StateVector around a kernel's output, without the finiteness scan
    of the constructor: a unitary maps finite amplitudes to finite ones,
    and `simulate` checks the state it returns once."""
    state = object.__new__(StateVector)
    state.n_qubits, state.amps = n_qubits, amps
    return state


def _split(n: int, qubits: Sequence[int]) -> list[int]:
    """Shape of an n-qubit index that gives each of the sorted `qubits` an
    axis of 2, at axis 2i+1 for the i-th, and merges the runs between them
    into one axis each. Reshaping a contiguous state to it is a view."""
    shape, prev = [], 0
    for q in qubits:
        shape += [2 ** (q - prev), 2]
        prev = q + 1
    return shape + [2 ** (n - prev)]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices, entry for entry, by one broadcast
    product (np.kron's own checks cost more than the product here)."""
    m, k = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * k, m * k)


def _gemm_one_target(u, src, dst, n, t, controls) -> None:
    """Write u applied to qubit t into dst, as one matrix product on reshape
    views, on a region that holds the slice where every control is 1.

    R = 2**(n-1-t) amplitudes separate the two halves of each pair. For
    R > _KRON_MAX_R the product is u @ (2, R) blocks. For the last qubits
    it is (rows, 2R) @ kron(u, I_R).T, or (rows, 4) @ kron(I_2, u).T for
    R = 1: one BLAS call for all rows, where u @ (2, R) would make one per
    2R amplitudes. A control restricts the region when at least _RUN_MIN
    contiguous columns or rows remain; the others are computed over, and
    `_copy_outside_slice` then overwrites them.
    """
    r = 2 ** (n - 1 - t)
    if r > _KRON_MAX_R:
        fixed = [c for c in controls if c < t or 2 ** (n - 1 - c) >= _RUN_MIN]
        marks = sorted(fixed + [t])
        index = [slice(None)] * (2 * len(marks) + 1)
        for i, q in enumerate(marks):
            if q != t:
                index[2 * i + 1] = 1
        # move the target axis next to the last run, the columns
        axis = 2 * marks.index(t) + 1 - sum(c < t for c in fixed)
        shape, index = _split(n, marks), tuple(index)
        order = [ax for ax in range(len(shape) - len(fixed)) if ax != axis]
        order.insert(len(order) - 1, axis)
        np.matmul(u, src.reshape(shape)[index].transpose(order),
                  out=dst.reshape(shape)[index].transpose(order))
        return
    if r == 1:
        block, start = _kron(np.eye(2), u), t - 1
    else:
        block, start = _kron(u, np.eye(r)), t
    fixed = [c for c in controls if c < start
             and 2 ** (start - 1 - c) >= _RUN_MIN]
    shape = _split(start, fixed) + [2 ** (n - start)]
    index = tuple(1 if i % 2 else slice(None) for i in range(len(shape) - 1))
    np.matmul(src.reshape(shape)[index], block.T,
              out=dst.reshape(shape)[index])


def _contract(u, src, dst, n, targets, controls) -> None:
    """Write u applied to `targets` into dst on the slice where every
    control is 1, by a tensordot over the target axes. Wide slices are
    cut into pieces of 2**_PIECE_QUBITS amplitudes along their leading free
    qubits, which bounds tensordot's two temporaries."""
    k = len(targets)
    free = [q for q in range(n) if q not in controls and q not in targets]
    split = free[:max(0, n - len(controls) - _PIECE_QUBITS)]
    kept = [q for q in range(n) if q not in controls and q not in split]
    axes = [kept.index(t) for t in targets]
    rest = [ax for ax in range(len(kept)) if ax not in axes]
    order = np.argsort(axes + rest)
    u_tensor = u.reshape([2] * (2 * k))
    src, dst = src.reshape([2] * n), dst.reshape([2] * n)
    for bits in itertools.product((0, 1), repeat=len(split)):
        fixed = dict(zip(split, bits)) | dict.fromkeys(controls, 1)
        index = tuple(fixed.get(q, slice(None)) for q in range(n))
        new = np.tensordot(u_tensor, src[index], (list(range(k, 2 * k)), axes))
        # tensordot puts the k output axes first; restore the axis order
        dst[index] = new.transpose(order)


def _copy_outside_slice(src, dst, n, controls) -> None:
    """Copy src into dst wherever some control is 0: for the i-th control,
    the slice where it is 0 and the controls before it are 1."""
    shape = _split(n, controls)
    src, dst = src.reshape(shape), dst.reshape(shape)
    index = [slice(None)] * len(shape)
    for i in range(len(controls)):
        index[2 * i + 1] = 0
        dst[tuple(index)] = src[tuple(index)]
        index[2 * i + 1] = 1


def apply_unitary(
    state: StateVector,
    u: np.ndarray,
    targets: Sequence[int],
    controls: Sequence[int] = (),
    out: np.ndarray | None = None,
) -> StateVector:
    """Apply a 2^k x 2^k unitary to the ordered target qubits where every
    qubit in `controls` is 1, writing the result into `out`.

    The matrix acts on the subsystem spanned by `targets` (targets[0] is the
    most significant bit of the sub-index) and as identity elsewhere. The
    full 2^n embedded matrix is never materialized. `state` is never
    modified; `out` (a new array when None) must not share memory with it.
    The result is not rescanned for finiteness.
    """
    u = np.asarray(u, dtype=np.complex128)
    targets = list(targets)
    k = len(targets)
    n = state.n_qubits
    _check_targets(n, targets + list(controls))
    if u.shape != (2 ** k, 2 ** k):
        raise DimensionError(
            f"matrix shape {u.shape} does not match {k} targets"
        )
    if not np.all(np.isfinite(u)):
        raise StateError("unitary entries must be finite")
    out = _out_buffer(state, out)
    controls = sorted(controls)
    # a product over fewer than 3 free qubits rounds differently from
    # the tensordot, so those tiny slices keep the tensordot
    if k == 1 and n - len(controls) >= 3:
        _gemm_one_target(u, state.amps, out, n, targets[0], controls)
    else:
        _contract(u, state.amps, out, n, targets, controls)
    _copy_outside_slice(state.amps, out, n, controls)
    return _unchecked(n, out)


def measure_all(state: StateVector, rng_seed: int) -> MeasurementRecord:
    """Sample a full measurement from the Born distribution |amp|^2.

    Deterministic given the seed; the collapsed state is the sampled basis
    state.
    """
    state.check_normalized()
    rng = np.random.default_rng(rng_seed)
    probs = state.probabilities()
    probs = probs / probs.sum()
    index = int(rng.choice(len(probs), p=probs))
    outcome = format(index, f"0{state.n_qubits}b")
    collapsed = basis_state(state.n_qubits, index)
    return MeasurementRecord(outcome, float(probs[index]), collapsed)


def _probability_of_one(state: StateVector, qubit: int) -> float:
    """P(qubit = 1), clamped to [0, 1], of a normalized state."""
    if not 0 <= qubit < state.n_qubits:
        raise DimensionError(
            f"qubit {qubit} out of range for {state.n_qubits} qubits"
        )
    state.check_normalized()
    psi = state.amps.reshape([2] * state.n_qubits)
    p1 = float(np.sum(np.abs(np.take(psi, 1, axis=qubit)) ** 2))
    return min(max(p1, 0.0), 1.0)


def measure_qubit(
    state: StateVector, qubit: int, rng_seed: int
) -> tuple[int, StateVector]:
    """Measure a single qubit; return (bit, renormalized post-state)."""
    p1 = _probability_of_one(state, qubit)
    rng = np.random.default_rng(rng_seed)
    bit = int(rng.random() < p1)
    n = state.n_qubits
    post = state.amps.reshape([2] * n).copy()
    index = [slice(None)] * n
    index[qubit] = 1 - bit
    post[tuple(index)] = 0.0
    post = post.reshape(-1)
    post = post / np.linalg.norm(post)
    return bit, StateVector(n, post)


def schmidt_rank(
    state: StateVector, left_partition: Iterable[int], tol: float = 1e-9
) -> int:
    """Number of singular values of the bipartition coefficient matrix
    exceeding tol. Rank 1 means the state is a product across the cut."""
    left = sorted(set(left_partition))
    n = state.n_qubits
    _check_targets(n, left)
    if not left or len(left) == n:
        raise DimensionError("partition must be non-empty and proper")
    right = [q for q in range(n) if q not in left]
    psi = state.amps.reshape([2] * n)
    m = psi.transpose(left + right).reshape(2 ** len(left), 2 ** len(right))
    singular = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(singular > tol))
