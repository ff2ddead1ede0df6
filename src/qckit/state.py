"""Dense state-vector representation, gate-application kernel, measurement,
and entanglement diagnostics.

The kernel `apply_unitary` takes a gate as its core matrix, its targets and
its controls. With `out` the state's own array it updates the state in
place, as `circuit.simulate` does on wide states, so that a simulation
holds one state-sized buffer. Otherwise it writes the result into `out`,
a new array when None, else a contiguous complex128 buffer that may not
share memory with the state, and the input state is not modified.

Each gate takes one of five forms, which `_step` picks: one `_layout` call,
which touches no array, plus one `compute` closure from the form's builder.
`_step` is a pure function of (n, targets, controls, core bytes), and
`apply_unitary`, after its checks, takes the step from a cache of _STEPS
steps for cores of up to _STEP_DIM rows. The layout gives the form's
qubits an axis of 2 and holds the slice where every control is 1; a
control that leaves runs shorter than the form's run length is computed
over, and its bit lies in the region's last axis. Into a separate `out`
the region is one `compute` call and the rest is copied from the state.
In place, `_update` runs it one piece of about _BLOCK amplitudes at a time
through one scratch array, copying back only where every computed-over
control is 1.

- A core with one nonzero per row and column, each 1, -1, i or -i (x, y,
  z, s, swap, cx, ccx, mcx and permutation `unitary` cores), is moved
  when its last target leaves runs of at least _RUN_MIN amplitudes: each
  output block is one copy, or one multiply by -1, i or -i, of a source
  block.
- A permutation core, every nonzero 1, on 2 or more targets whose last
  one leaves shorter runs is gathered when the rows that start at its
  first target hold at most _BLOCK amplitudes: one np.take of each row.
- Any other core on k sorted adjacent targets, every other 1-target
  core among them, is a BLAS product over the targets' one axis of 2**k.
  With R amplitudes after the last target, in rows of 2**k * R, it is
  u @ (2**k, R) blocks when a row holds at least 2 * _RUN_MIN amplitudes
  (so R >= _RUN_MIN for k = 1), else rows of width = max(2**k * R, 4)
  times kron(I_{width/2**k R}, kron(u, I_R)).T, as u @ (2**k, R) makes
  one BLAS call per row. The rows are cut from the region's last axis.
  A state of one such row keeps the tensordot.
- Other cores (on unsorted or non-adjacent targets, or signed
  permutations neither moved nor gathered), and slices of fewer than 4
  columns beside the targets, are a tensordot over the target axes,
  restricted by every control.

Every form gives the same bits as that tensordot, which the tests check
on the default BLAS kernel; another kernel can round the BLAS forms'
sums differently from its tensordot, over K = 2**k terms. A move's products are exact and, on 4 or more columns, accumulate from
+0, so a move or a gather writes every zero as +0 and its bits do not
depend on the BLAS build.

`_multiply_phases`, which `circuit.simulate` calls for each run of gates
whose core is diag(1, p), is no such form: it multiplies the run's slice
of the state in place by one phase table, without BLAS, and rounds
differently from those gates' GEMMs.

Finiteness is checked where amplitudes enter: the StateVector constructor
rejects non-finite amplitudes, scanning _BLOCK amplitudes at a time, kernel
results and the basis states this module writes skip that scan,
`simulate` checks the state it returns once, and the norm check run before
every measurement rejects a NaN or infinite norm.

Convention: qubit 0 is the most significant bit of the basis-state index.
For a 2-qubit state the amplitude order is |00>, |01>, |10>, |11> where the
left bit is qubit 0.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from qckit.errors import CapacityError, DimensionError, StateError

MAX_QUBITS = 24  # ~256 MiB per complex128 state

GATE_NORM_TOL = 1e-6  # precondition gating (accumulated float error)

_RUN_MIN = 64       # contiguous amplitudes a move, a column GEMM or a
                    # restricting control leaves; shorter runs lose to a
                    # GEMM over rows
_BLOCK = 2 ** 15    # amplitudes per in-cache block: a piece a gate updates
                    # in place, a two-pass update's block, a scan's chunk,
                    # the longest row a gather permutes
_TABLE = 2 ** 10    # entries of a diagonal run's phase table; a longer run
                    # is split
_STEP_DIM = 32      # cores of up to this dimension (5 targets) have their
                    # step cached
_STEPS = 512        # steps the cache holds; one pass of perfbench's
                    # algo-mix builds 255


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
        _check_finite(self.amps)

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


def _check_finite(amps: np.ndarray) -> None:
    """Raise StateError unless every amplitude is finite, scanning _BLOCK
    amplitudes at a time, so no state-sized mask is made."""
    for lo in range(0, len(amps), _BLOCK):
        if not np.isfinite(amps[lo:lo + _BLOCK]).all():
            raise StateError("amplitudes must be finite")


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
        raise DimensionError(
            f"basis index {index} out of range for {n_qubits} qubits")
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
    `out` itself, which must be a contiguous complex128 array of the
    state's length, and either the state's own array (the kernel then
    updates the state in place) or one that shares no memory with it."""
    if out is None:
        return np.empty_like(state.amps)
    if (out.shape != state.amps.shape or out.dtype != np.complex128
            or not out.flags.c_contiguous):
        raise DimensionError(
            f"out must be a contiguous complex128 array of shape "
            f"{state.amps.shape}"
        )
    if out is not state.amps and np.shares_memory(out, state.amps):
        raise DimensionError(
            "out must be the state's own array or share no memory with it")
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
    core, which usually stops the scan at its first row."""
    moves = []
    for row in u.tolist():
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
        for piece in _pieces(src.shape, _BLOCK):
            np.multiply(src[piece], factor, out=dst[piece])
            np.add(dst[piece], 0.0, out=dst[piece])


def _pieces(shape, size, whole=()):
    """Index tuples, one slice per axis, that cut an array of this shape
    into pieces of at most `size` elements of the axes not in `whole`
    (exactly `size` when it and every length are powers of 2 and those
    axes hold that many), with the axes in `whole` entire: a range of one
    of the other axes, under single indices of those before it and with
    those after it entire."""
    steps, kept = list(shape), 1
    for axis in reversed(range(len(shape))):
        if axis not in whole:
            steps[axis] = min(shape[axis], max(1, size // kept))
            kept *= steps[axis]
    ranges = [range(0, length, step) for length, step in zip(shape, steps)]
    for starts in itertools.product(*ranges):
        yield tuple(slice(lo, lo + step) for lo, step in zip(starts, steps))


def _put_back(piece, new, bits) -> None:
    """piece = new where the index along piece's last axis has every bit
    in `bits` set. That axis is a range of the region's last axis, whose
    amplitudes are contiguous in the state, starting at a multiple of the
    range's length, so it counts the state's index from that multiple."""
    if not bits:
        piece[...] = new
        return
    s = bits.bit_length()
    split = _split(s, [s - 1 - b for b in reversed(range(s))
                       if bits >> b & 1])
    # splitting the last axis of a view is a view
    shape = piece.shape[:-1] + (piece.shape[-1] >> s, *split)
    index = ((slice(None),) * piece.ndim
             + tuple(1 if i % 2 else slice(None) for i in range(len(split))))
    piece.reshape(shape)[index] = new.reshape(shape)[index]


def _layout(n, qubits, controls, run, merged=False):
    """Shape and index of a region of an n-qubit state: reshaped to
    `shape`, then indexed by `index`, the state gives each of `qubits` an
    axis of 2 and holds the slice where every control that leaves runs of
    at least `run` amplitudes is 1. With `merged`, the qubits are sorted
    and adjacent and share one axis of 2**len(qubits) instead. Also
    returns the region's axes of `qubits`, in their order (the one merged
    axis), and the mask of the other controls' bits, which a gate computes
    over. Every form's qubits leave runs of at least `run` amplitudes, so
    those bits index the region's last axis."""
    fixed = [c for c in controls if 2 ** (n - 1 - c) >= run]
    marks = sorted(qubits + fixed)
    shape = _split(n, marks)
    index = [slice(None)] * len(shape)
    for c in fixed:
        index[2 * marks.index(c) + 1] = 1
    axes = [2 * marks.index(q) + 1 - sum(c < q for c in fixed)
            for q in qubits]
    if merged:  # the qubits' axes of 2 and the empty runs between them
        first, k = 2 * marks.index(qubits[0]) + 1, len(qubits)
        shape[first:first + 2 * k - 1] = [2 ** k]
        del index[first:first + 2 * k - 2]
        axes = axes[:1]
    bits = sum(1 << (n - 1 - int(c)) for c in controls if c not in fixed)
    return shape, tuple(index), axes, bits


def _update(region, whole, bits, compute) -> None:
    """Write the new amplitudes of `region`, a view of the state, into the
    region itself, one piece of about _BLOCK amplitudes at a time. A piece
    keeps the axes in `whole` entire and holds at least _RUN_MIN
    amplitudes of the others (all of them, when there are fewer), so it
    leaves a tensordot 4 or more columns and never splits a row of the
    kron form. compute(piece, new) writes the piece's new amplitudes into
    a scratch array; they are copied back where every bit in `bits` of the
    region's last axis is set, and a piece where some such bit is 0 is
    skipped."""
    kept = math.prod(region.shape[ax] for ax in whole)
    scratch = None
    for index in _pieces(region.shape, max(_BLOCK // kept, _RUN_MIN), whole):
        piece = region[index]
        width = piece.shape[-1]
        if index[-1].start & bits & -width != bits & -width:
            continue
        if scratch is None:
            scratch = np.empty(piece.size, dtype=np.complex128)
        new = scratch[:piece.size].reshape(piece.shape)
        compute(piece, new)
        _put_back(piece, new, bits & (width - 1))


def _move(moves, axes):
    """compute(piece, new) for the signed permutation `moves` of the
    target axes `axes`: each output block is one `_signed_copy` of a
    source block."""
    k = len(axes)
    blocks = []  # the index of each target block
    for i in range(2 ** k):
        index = [slice(None)] * (max(axes) + 1)
        for pos, ax in enumerate(axes):
            index[ax] = i >> (k - 1 - pos) & 1
        blocks.append(tuple(index))

    def compute(piece, new):
        for i, (j, factor) in enumerate(moves):
            _signed_copy(piece[blocks[j]], new[blocks[i]], factor)

    return compute


def _columns(u, axis):
    """compute(piece, new) for a core u on `axis`, the one axis of its
    sorted adjacent targets: u times the (2**k, R) blocks of that axis and
    the columns after it."""

    def compute(piece, new):
        np.matmul(u, piece, out=new, axes=[(0, 1), (axis, -1), (axis, -1)])

    return compute


def _kron_rows(u, r):
    """compute(piece, new) for a core u on sorted adjacent targets that
    leave runs of r amplitudes, whose rows of len(u) * r amplitudes are
    shorter than 2 * _RUN_MIN: rows of width = max(len(u) * r, 4)
    amplitudes, cut from the piece's last axis, times
    kron(I_a, kron(u, I_r)).T with a = width / (len(u) * r). That is one
    BLAS call for all rows, where u @ (len(u), r) would make one per
    len(u) * r amplitudes."""
    d = len(u)
    width = max(d * r, 4)
    a = width // (d * r)
    # kron(I_a, kron(u, I_r)) by one broadcast product, entry for entry
    # (np.kron's own checks cost more than the product here)
    block = (np.eye(a * r).reshape(a, 1, r, a, 1, r)
             * u.reshape(1, d, 1, 1, d, 1)).reshape(width, width).T

    def compute(piece, new):
        rows = piece.shape[:-1] + (-1, width)
        np.matmul(piece.reshape(rows), block, out=new.reshape(rows))

    return compute


def _contract(u, axes, ndim):
    """compute(piece, new) for u on the target axes `axes` of an
    ndim-axis region: a tensordot over those axes."""
    k = len(axes)
    u_tensor = u.reshape([2] * (2 * k))
    rest = [ax for ax in range(ndim) if ax not in axes]
    order = np.argsort(axes + rest)

    def compute(piece, new):
        # tensordot puts the k output axes first; restore the axis order
        new[...] = np.tensordot(u_tensor, piece, (list(range(k, 2 * k)),
                                                  axes)).transpose(order)

    return compute


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


def _gather(moves, targets, n):
    """compute(piece, new) for a permutation core, every factor 1, on
    `targets` of an n-qubit state: rows of width = 2**(n - min target)
    amplitudes, cut from the piece's last axis, each one np.take by one
    source index, then an add of +0, which writes every zero as +0 as a
    move does."""
    width = 2 ** (n - min(targets))
    k = len(targets)
    shifts = [n - 1 - t for t in targets]  # each target's bit in a row
    x = np.arange(width)
    sub = sum((x >> s & 1) << (k - 1 - p) for p, s in enumerate(shifts))
    src_sub = np.array([j for j, _ in moves])[sub]
    src = x & ~sum(1 << s for s in shifts)
    for p, s in enumerate(shifts):
        src |= (src_sub >> (k - 1 - p) & 1) << s

    def compute(piece, new):
        rows = piece.shape[:-1] + (-1, width)
        new = new.reshape(rows)
        np.take(piece.reshape(rows), src, axis=-1, out=new, mode="clip")
        np.add(new, 0.0, out=new)

    return compute


@functools.lru_cache(maxsize=_STEPS)
def _step(n, targets, controls, core):
    """The step of a gate, (shape, index, whole, bits, compute): its
    form's `_layout` and `compute` closure, for the core whose C-order
    complex128 bytes are `core`, on `targets` under the sorted `controls`
    of an n-qubit state. Pure, so `apply_unitary` caches it for cores of
    up to _STEP_DIM rows. The forms read _RUN_MIN and _BLOCK when the step
    is built.

    Worst-case memory: a step holds its key's core bytes (16 * _STEP_DIM**2
    = 16 KiB), which its core array views, plus at most one of a kron
    block (64 x 64 amplitudes, 64 KiB) and a gather's index (_BLOCK int64,
    256 KiB), and tuples and closures of under 8 KiB: under 280 KiB a
    step, so under 140 MiB for _STEPS steps."""
    k = len(targets)
    u = np.frombuffer(core, dtype=np.complex128).reshape(2 ** k, 2 ** k)
    targets = list(targets)
    # the tensordot rounds a slice of 2 columns beside the targets
    # differently, the signs of its zeros included, so slices of fewer
    # than 4 columns keep the tensordot
    wide = n - len(controls) - k >= 2
    # amplitudes between the halves of each pair of the last target
    r = 2 ** (n - 1 - max(targets)) if wide else 0
    # amplitudes of a row that holds every target, from the first one on
    row = 2 ** (n - min(targets))
    moves = (_signed_permutation(u)
             if r >= _RUN_MIN or k > 1 and wide and row <= _BLOCK else None)
    # any other core on sorted adjacent targets is a product over their
    # one axis of 2**k, in rows of 2**k * r amplitudes (kron rows of at
    # least 4)
    adjacent = (moves is None and wide
                and targets == list(range(targets[0], targets[0] + k)))
    width = max(2 ** k * r, 4)
    if moves is not None and r >= _RUN_MIN:
        shape, index, axes, bits = _layout(n, targets, controls, _RUN_MIN)
        whole, compute = axes, _move(moves, axes)
    elif moves is not None and all(f == 1 for _, f in moves):
        # the region's last axis, a run of a multiple of `row`, holds
        # every row and every computed-over control
        shape, index, _, bits = _layout(n, [], controls, _RUN_MIN * row)
        whole, compute = [], _gather(moves, targets, n)
    elif adjacent and width >= 2 * _RUN_MIN and r >= 4:
        # (fewer than 4 columns would round differently, as above)
        shape, index, axes, bits = _layout(n, targets, controls, _RUN_MIN,
                                           merged=True)
        whole, compute = axes, _columns(u, axes[0])
    elif adjacent and width < 2 * _RUN_MIN and width < 2 ** n:
        # as for the gather, with rows of `width`. A state of one row
        # keeps the tensordot: numpy makes that product a GEMV, whose sums
        # of more than 2 terms can round differently from a GEMM's
        shape, index, _, bits = _layout(n, [], controls, _RUN_MIN * width)
        whole, compute = [], _kron_rows(u, r)
    else:
        # every control restricts the region, and is indexed away, since
        # the slice's width can change the tensordot's rounding
        shape, index, axes, bits = _layout(n, targets, controls, 1)
        whole, compute = axes, _contract(u, axes, len(shape) - len(controls))
    return shape, index, whole, bits, compute


def apply_unitary(
    state: StateVector,
    u: np.ndarray,
    targets: Sequence[int],
    controls: Sequence[int] = (),
    out: np.ndarray | None = None,
) -> StateVector:
    """Apply a 2^k x 2^k unitary to the ordered target qubits where every
    qubit in `controls` is 1, and return the state held in `out`.

    The matrix acts on the subsystem spanned by `targets` (targets[0] is the
    most significant bit of the sub-index) and as identity elsewhere. The
    full 2^n embedded matrix is never materialized. With `out` the state's
    own array the state is updated in place. Otherwise `state` is not
    modified, and `out` (a new array when None) must share no memory with
    it. The result is not rescanned for finiteness.
    """
    u = np.asarray(u, dtype=np.complex128)
    targets = tuple(targets)
    k = len(targets)
    n = state.n_qubits
    if not k:
        raise DimensionError("a gate needs at least one target")
    _check_targets(n, targets + tuple(controls))
    if u.shape != (2 ** k, 2 ** k):
        raise DimensionError(
            f"matrix shape {u.shape} does not match {k} targets"
        )
    if not np.all(np.isfinite(u)):
        raise StateError("unitary entries must be finite")
    out = _out_buffer(state, out)
    controls = tuple(sorted(controls))
    build = _step if len(u) <= _STEP_DIM else _step.__wrapped__
    shape, index, whole, bits, compute = build(n, targets, controls,
                                               u.tobytes())
    region = state.amps.reshape(shape)[index]
    if out is state.amps:
        _update(region, whole, bits, compute)
    else:
        compute(region, out.reshape(shape)[index])
        _copy_outside_slice(state.amps, out, n, controls)
    return _unchecked(n, out)


def _multiply_phases(amps, n, factors) -> None:
    """Multiply the n-qubit amplitudes `amps` in place by the diagonal of
    a run of gates whose cores are diag(1, p), each given as (qubits, p):
    p multiplies every amplitude whose bits at `qubits`, the gate's
    controls and target, are all 1. The run is cut into groups, in order,
    each one multiply by a phase table over the qubits some of its gates
    need: a qubit on which all of a group's gates need a 1 is indexed away,
    and a group ends before its table would outgrow _TABLE entries. A
    table's entries are the products of their gates' phases in run order.
    No BLAS is called and no array of the state's size is made."""
    group, common, union = [], set(), set()
    for qubits, p in factors:
        need = set(qubits)
        if group and 2 ** len((union | need) - (common & need)) > _TABLE:
            _multiply_group(amps, n, group, common, union)
            group = []
        if not group:
            common, union = need, set()
        group.append((need, p))
        common, union = common & need, union | need
    if group:
        _multiply_group(amps, n, group, common, union)


def _multiply_group(amps, n, group, common, union) -> None:
    """One multiply of `_multiply_phases`: the slice where every qubit in
    `common` is 1, times the group's table over the others in `union`."""
    free = sorted(union - common)
    marks = sorted(union)
    shape = _split(n, marks)
    index = [slice(None)] * len(shape)
    table_shape = [1]  # a run's axis, then each mark's and the run after
    for i, q in enumerate(marks):
        if q in common:
            index[2 * i + 1] = 1
            table_shape += [1]
        else:
            table_shape += [2, 1]
    table = np.ones([2] * len(free), dtype=np.complex128)
    for need, p in group:
        table[tuple(1 if q in need else slice(None) for q in free)] *= p
    region = amps.reshape(shape)[tuple(index)]
    np.multiply(region, table.reshape(table_shape), out=region)


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
    # floats [lo, lo + _BLOCK) held amplitudes lo/2 to (lo + _BLOCK)/2,
    # which earlier chunks have read, except in the first chunk
    for lo in range(0, len(amps), _BLOCK):
        chunk = weights[lo:lo + _BLOCK]
        if lo:
            np.abs(amps[lo:lo + _BLOCK], out=chunk)
        else:
            chunk[:] = np.abs(amps[:_BLOCK])
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
