"""Dense state-vector representation, gate-application kernel, measurement,
and entanglement diagnostics.

The kernel `apply_unitary` takes a gate as its core matrix, its targets and
its controls, and writes the new amplitudes into `out`: a new array when
None, else a contiguous complex128 buffer that may not share memory with
the state. The input state is never modified.

A core with one nonzero per row and column, each 1, -1, i or -i (the cores
of x, y, z, s, swap, cx, ccx and mcx, and permutation `unitary` cores), is
moved, not multiplied, when its last target leaves runs of at least
_RUN_MIN contiguous amplitudes: each output block is one copy, or one
multiply by -1, i or -i, of a source block. A permutation whose last target
is among the last qubits (the work register of order finding, say) is
multiplied, and so is every other core.
A 1-target core is one BLAS matrix product on a reshape view of the state.
With R = 2**(n-1-t) amplitudes between the two halves of each pair, it is
u @ (2, R) blocks when R >= _RUN_MIN; on the last qubits it is rows of
width 2R times kron(u, I_R).T, and rows of 4 times kron(I_2, u).T for the
last qubit, because u @ (2, R) makes one BLAS call per 2R amplitudes.
Multi-target cores use a tensordot over the target axes, and so does every
slice of fewer than 4 columns beside the targets. A controlled gate
computes a region that holds the slice where every control is 1 and copies
the rest from the state. Every form gives the same bits as that tensordot,
which the tests check. For a moved core its products are exact and, on 4
or more columns, accumulate from +0, so a move writes every zero as +0, and
its bits do not depend on the BLAS build.

Finiteness is checked where amplitudes enter: the StateVector constructor
rejects non-finite amplitudes, kernel results and the basis states this
module writes skip that scan, `simulate` checks the state it returns once,
and the norm check run before every measurement rejects a NaN or infinite
norm.

Convention: qubit 0 is the most significant bit of the basis-state index.
For a 2-qubit state the amplitude order is |00>, |01>, |10>, |11> where the
left bit is qubit 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from qckit.errors import CapacityError, DimensionError, StateError

MAX_QUBITS = 24  # ~256 MiB per complex128 state

NORM_TOL = 1e-9       # algebraic identities
GATE_NORM_TOL = 1e-6  # precondition gating (accumulated float error)

_RUN_MIN = 64       # contiguous amplitudes a move, a column GEMM or a
                    # restricting control leaves; shorter runs lose to a
                    # GEMM over rows
_PIECE_QUBITS = 18  # tensordot piece size on wide states
_CHUNK = 2 ** 14    # amplitudes per in-cache block of a two-pass update


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
        """L2 norm, from one contiguous pass."""
        return float(np.sqrt(np.vdot(self.amps, self.amps).real))

    def check_normalized(self) -> None:
        """Raise StateError unless the norm is 1 within GATE_NORM_TOL."""
        _check_norm(self.norm())

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def _check_norm(norm: float) -> None:
    if not abs(norm - 1.0) <= GATE_NORM_TOL:  # also catches NaN
        raise StateError(f"state norm {norm} deviates from 1 by > 1e-6")


@dataclass
class MeasurementRecord:
    """Outcome of a full computational-basis measurement."""

    outcome: str             # bitstring, qubit 0 first
    probability: float
    collapsed: StateVector


def new_zero_state(n_qubits: int) -> StateVector:
    """All-zeros basis state |0...0> on n_qubits qubits."""
    return basis_state(n_qubits, 0)


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
    return _unchecked(n_qubits, amps)


def _check_targets(n_qubits: int, targets: Sequence[int]):
    """Raise DimensionError unless the qubits are in range and distinct:
    the one check of gate qubits, made where a gate enters."""
    for t in targets:
        if not 0 <= t < n_qubits:
            raise DimensionError(
                f"target {t} out of range for {n_qubits} qubits"
            )
    if len(set(targets)) != len(targets):
        raise DimensionError(f"duplicate targets {list(targets)}")


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
    """A StateVector around amplitudes known to be finite, without the
    finiteness scan of the constructor: a basis state's, or a kernel's
    output (a unitary maps finite amplitudes to finite ones, and `simulate`
    checks the state it returns once)."""
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


_UNITS = {1, -1, 1j, -1j}


def _signed_permutation(u: np.ndarray) -> list[tuple[int, complex]] | None:
    """(source index, factor) for each output index of a core with one
    nonzero per row and column, each 1, -1, i or -i; None for any other
    core. A 2x2 core costs a few comparisons, a larger one usually stops
    at its first row."""
    rows = u.tolist()
    if len(rows) == 2:
        (a, b), (c, d) = rows
        if b == c == 0 and a in _UNITS and d in _UNITS:
            return [(0, a), (1, d)]
        if a == d == 0 and b in _UNITS and c in _UNITS:
            return [(1, b), (0, c)]
        return None
    moves = []
    for row in rows:
        entries = [(j, v) for j, v in enumerate(row) if v]
        if len(entries) != 1 or entries[0][1] not in _UNITS:
            return None
        moves += entries
    return moves if len({j for j, _ in moves}) == len(moves) else None


def _signed_copy(src, dst, factor) -> None:
    """dst = factor * src for a factor of 1, -1, i or -i, with every zero
    written as +0, as a sum of products accumulated from +0 writes it."""
    if factor == 1:
        np.add(src, 0.0, out=dst)
    elif factor == -1:
        np.subtract(0.0, src, out=dst)
    else:  # a product exact but for the sign of a zero, fixed while cached
        for piece in _pieces(src.shape):
            np.multiply(src[piece], factor, out=dst[piece])
            np.add(dst[piece], 0.0, out=dst[piece])


def _pieces(shape):
    """Index tuples that cut an array of this shape into blocks of about
    _CHUNK elements: slices of one axis, under fixed indices of the axes
    before it."""
    axis = 0
    while math.prod(shape[axis + 1:]) > _CHUNK:
        axis += 1
    step = max(1, _CHUNK // math.prod(shape[axis + 1:]))
    for head in np.ndindex(*shape[:axis]):
        for lo in range(0, shape[axis], step):
            yield head + (slice(lo, lo + step),)


def _move(moves, src, dst, n, targets, controls) -> None:
    """Write the signed permutation `moves` of the target axes into dst, on
    a region that holds the slice where every control is 1: each output
    block is one `_signed_copy` of a source block. A control restricts the
    region when it leaves runs of at least _RUN_MIN amplitudes."""
    k = len(targets)
    fixed = [c for c in controls if 2 ** (n - 1 - c) >= _RUN_MIN]
    marks = sorted(targets + fixed)
    shape = _split(n, marks)
    src, dst = src.reshape(shape), dst.reshape(shape)
    into = [slice(None)] * len(shape)
    for c in fixed:
        into[2 * marks.index(c) + 1] = 1
    source = list(into)
    axes = [2 * marks.index(t) + 1 for t in targets]
    for i, (j, factor) in enumerate(moves):
        for pos, ax in enumerate(axes):
            into[ax] = i >> (k - 1 - pos) & 1
            source[ax] = j >> (k - 1 - pos) & 1
        _signed_copy(src[tuple(source)], dst[tuple(into)], factor)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices, entry for entry, by one broadcast
    product (np.kron's own checks cost more than the product here)."""
    m, k = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * k, m * k)


def _gemm_one_target(u, src, dst, n, t, controls) -> None:
    """Write u applied to qubit t into dst, as one matrix product on reshape
    views, on a region that holds the slice where every control is 1.

    R = 2**(n-1-t) amplitudes separate the two halves of each pair. For
    R >= _RUN_MIN the product is u @ (2, R) blocks. For the last qubits
    it is (rows, 2R) @ kron(u, I_R).T, or (rows, 4) @ kron(I_2, u).T for
    R = 1: one BLAS call for all rows, where u @ (2, R) would make one per
    2R amplitudes. A control restricts the region when at least _RUN_MIN
    contiguous columns or rows remain; the others are computed over, and
    `_copy_outside_slice` then overwrites them.
    """
    r = 2 ** (n - 1 - t)
    if r >= _RUN_MIN:
        fixed = [c for c in controls if 2 ** (n - 1 - c) >= _RUN_MIN]
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
    # the tensordot rounds a slice of 2 columns beside the targets
    # differently, the signs of its zeros included, so slices of fewer
    # than 4 columns keep the tensordot
    wide = n - len(controls) - k >= 2
    moves = (_signed_permutation(u)
             if wide and 2 ** (n - 1 - max(targets)) >= _RUN_MIN else None)
    if moves is not None:
        _move(moves, state.amps, out, n, targets, controls)
    elif k == 1 and wide:
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
    weights = state.probabilities()
    index = int(_born_samples(weights, rng))
    outcome = format(index, f"0{state.n_qubits}b")
    collapsed = basis_state(state.n_qubits, index)
    return MeasurementRecord(
        outcome, float(weights[index] / weights.sum()), collapsed)


def _born_probabilities(state: StateVector) -> np.ndarray:
    """|amp|^2 divided by its sum, after checking from that sum that the
    norm is 1 within GATE_NORM_TOL (a non-finite amplitude makes the sum
    non-finite). The result is written over the first half of the state's
    own buffer, which the call consumes, so it allocates no new array."""
    amps = state.amps
    weights = amps.view(np.float64)[:len(amps)]
    # floats [lo, lo + _CHUNK) held amplitudes lo/2 to (lo + _CHUNK)/2,
    # which earlier chunks have read, except in the first chunk
    for lo in range(0, len(amps), _CHUNK):
        chunk = weights[lo:lo + _CHUNK]
        if lo:
            np.abs(amps[lo:lo + _CHUNK], out=chunk)
        else:
            chunk[:] = np.abs(amps[:_CHUNK])
        np.square(chunk, out=chunk)
    total = weights.sum()
    _check_norm(float(np.sqrt(total)))
    return np.divide(weights, total, out=weights)


def _born_samples(
    weights: np.ndarray, rng: np.random.Generator, size: int | None = None
):
    """Indices drawn with probability proportional to `weights`, the same
    draws as `rng.choice(len(weights), size, p=weights / weights.sum())`:
    its own algorithm, without its pass that validates p."""
    return _cdf_draws(weights / weights.sum(), rng, size)


def _cdf_draws(p: np.ndarray, rng: np.random.Generator,
               size: int | None = None):
    """The draws of `_born_samples` from weights already divided by their
    sum, `p`, which becomes their CDF in place."""
    np.cumsum(p, out=p)
    p /= p[-1]
    return p.searchsorted(rng.random(size), side="right")


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
