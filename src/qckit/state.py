"""Dense state-vector representation, gate-application kernel, measurement,
and entanglement diagnostics.

The kernel `apply_unitary` takes a gate as its core matrix, its targets and
its controls: a controlled gate is applied as its core on the slice of the
state where every control is 1, never as a dense controlled matrix.

Convention: qubit 0 is the most significant bit of the basis-state index.
For a 2-qubit state the amplitude order is |00>, |01>, |10>, |11> where the
left bit is qubit 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from qckit.errors import CapacityError, DimensionError, StateError

MAX_QUBITS = 24  # ~256 MiB per complex128 state

NORM_TOL = 1e-9       # algebraic identities
GATE_NORM_TOL = 1e-6  # precondition gating (accumulated float error)


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
        if abs(norm - 1.0) > GATE_NORM_TOL:
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


def apply_unitary(
    state: StateVector,
    u: np.ndarray,
    targets: Sequence[int],
    controls: Sequence[int] = (),
) -> StateVector:
    """Apply a 2^k x 2^k unitary to the ordered target qubits where every
    qubit in `controls` is 1; return a new state.

    The matrix acts on the subsystem spanned by `targets` (targets[0] is the
    most significant bit of the sub-index) and as identity elsewhere. The
    full 2^n embedded matrix is never materialized; the update is a strided
    tensor contraction over the target axes of the controlled slice.
    """
    u = np.asarray(u, dtype=np.complex128)
    targets = list(targets)
    k = len(targets)
    _check_targets(state.n_qubits, targets + list(controls))
    if u.shape != (2 ** k, 2 ** k):
        raise DimensionError(
            f"matrix shape {u.shape} does not match {k} targets"
        )
    if not np.all(np.isfinite(u)):
        raise StateError("unitary entries must be finite")

    n = state.n_qubits
    psi = state.amps.reshape([2] * n)
    # The slice where every control is 1 keeps the other axes in order;
    # renumber the targets within it. Without controls it is all of psi.
    index = tuple(1 if ax in controls else slice(None) for ax in range(n))
    kept = [ax for ax in range(n) if ax not in controls]
    axes = [kept.index(t) for t in targets]
    # Contract u (reshaped to a 2k-axis tensor) against the target axes.
    u_tensor = u.reshape([2] * (2 * k))
    new = np.tensordot(u_tensor, psi[index], (list(range(k, 2 * k)), axes))
    # tensordot puts the k output axes first; restore original axis order.
    rest = [ax for ax in range(len(kept)) if ax not in axes]
    new = new.transpose(np.argsort(axes + rest))
    if controls:
        out = psi.copy()
        out[index] = new
        new = out
    return StateVector(n, new.reshape(-1))


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
