import contextlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qckit.state

from qckit.errors import CapacityError, DimensionError, StateError
from qckit.gates import GATE_ARITY, gate_core, standard_gate_matrix
from qckit.state import (
    StateVector,
    _born_samples,
    apply_unitary,
    basis_state,
    measure_all,
    measure_qubit,
    new_zero_state,
    schmidt_rank,
)

from conftest import fresh_steps, random_state, random_unitary

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestNewZeroState:
    def test_one_qubit(self):
        s = new_zero_state(1)
        assert np.array_equal(s.amps, [1, 0])

    def test_two_qubits(self):
        s = new_zero_state(2)
        assert np.array_equal(s.amps, [1, 0, 0, 0])

    def test_capacity(self):
        with pytest.raises(CapacityError):
            new_zero_state(25)
        with pytest.raises(CapacityError):
            new_zero_state(0)


class TestApplyUnitary:
    def test_hadamard_on_zero(self):
        s = apply_unitary(new_zero_state(1), standard_gate_matrix("h"), [0])
        assert np.allclose(s.amps, [INV_SQRT2, INV_SQRT2])

    def test_identity_bit_exact(self, rng):
        s = StateVector(3, random_state(3, rng))
        out = apply_unitary(s, np.eye(2), [1])
        assert np.array_equal(out.amps, s.amps)

    def test_x_on_qubit0_of_00(self):
        # oracle: hand 4x4 matvec of kron(X, I) . e0 = e2 (qubit 0 is MSB)
        s = apply_unitary(new_zero_state(2), standard_gate_matrix("x"), [0])
        assert np.allclose(s.amps, [0, 0, 1, 0])

    def test_x_on_qubit1_of_00(self):
        s = apply_unitary(new_zero_state(2), standard_gate_matrix("x"), [1])
        assert np.allclose(s.amps, [0, 1, 0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_unitary(new_zero_state(2), np.eye(4), [0])

    @pytest.mark.parametrize("n", [1, 3])
    def test_no_targets(self, n):
        # a 1x1 core once applied its scalar at 1 qubit and raised a bare
        # ValueError from max(targets) at 3
        with pytest.raises(DimensionError, match="at least one target"):
            apply_unitary(new_zero_state(n), np.eye(1), [])

    def test_duplicate_targets(self):
        with pytest.raises(DimensionError):
            apply_unitary(new_zero_state(2), np.eye(4), [0, 0])

    def test_non_finite_core(self):
        u = np.eye(2, dtype=complex)
        u[1, 0] = np.nan
        with pytest.raises(StateError, match="finite"):
            apply_unitary(new_zero_state(2), u, [0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_amplitude_rejected(self, value):
        with pytest.raises(StateError, match="finite"):
            StateVector(1, [1.0, value])

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError, match="expected 4 amplitudes"):
            StateVector(2, [1.0, 0.0])

    def test_matches_embedded_matrix(self, rng):
        # cross-check the strided kernel against the explicit kron embedding
        u = random_unitary(2, rng)
        psi = random_state(3, rng)
        got = apply_unitary(StateVector(3, psi), u, [1]).amps
        full = np.kron(np.kron(np.eye(2), u), np.eye(2))
        assert np.allclose(got, full @ psi, atol=1e-12)

    def test_two_qubit_targets_reversed(self, rng):
        # applying cx on (1, 0) must treat qubit 1 as the control
        psi = random_state(2, rng)
        got = apply_unitary(
            StateVector(2, psi), standard_gate_matrix("cx"), [1, 0]
        ).amps
        # basis order |q0 q1>: control q1 is the low bit -> swap indices 1,3
        expect = psi.copy()
        expect[[1, 3]] = expect[[3, 1]]
        assert np.allclose(got, expect, atol=1e-12)

    def test_norm_preserved_single(self, rng):
        u = random_unitary(4, rng)
        s = apply_unitary(StateVector(4, random_state(4, rng)), u, [0, 2])
        assert abs(s.norm() - 1.0) < 1e-9

    def test_norm_drift_100_applications(self, rng):
        s = StateVector(5, random_state(5, rng))
        for _ in range(100):
            k = int(rng.integers(1, 3))
            targets = list(rng.choice(5, size=k, replace=False))
            s = apply_unitary(s, random_unitary(2 ** k, rng), targets)
        assert abs(s.norm() - 1.0) < 1e-8

    def test_linearity(self, rng):
        # the black box and every gate must act linearly on superpositions
        u = random_unitary(4, rng)
        psi, phi = random_state(3, rng), random_state(3, rng)
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        alpha, beta = alpha / norm, beta / norm
        mixed = alpha * psi + beta * phi
        mixed = StateVector(3, mixed / np.linalg.norm(mixed))
        lhs = apply_unitary(mixed, u, [0, 1]).amps * np.linalg.norm(
            alpha * psi + beta * phi
        )
        rhs = (
            alpha * apply_unitary(StateVector(3, psi), u, [0, 1]).amps
            + beta * apply_unitary(StateVector(3, phi), u, [0, 1]).amps
        )
        assert np.allclose(lhs, rhs, atol=1e-9)


def _tensordot_reference(amps, u, n, targets, controls=()):
    """The tensordot kernel that the GEMM kernel replaced, kept verbatim as
    the reference its results must match bit for bit."""
    u = np.asarray(u, dtype=np.complex128)
    targets = list(targets)
    k = len(targets)
    psi = amps.reshape([2] * n)
    index = tuple(1 if ax in controls else slice(None) for ax in range(n))
    kept = [ax for ax in range(n) if ax not in controls]
    axes = [kept.index(t) for t in targets]
    u_tensor = u.reshape([2] * (2 * k))
    new = np.tensordot(u_tensor, psi[index], (list(range(k, 2 * k)), axes))
    rest = [ax for ax in range(len(kept)) if ax not in axes]
    new = new.transpose(np.argsort(axes + rest))
    if controls:
        out = psi.copy()
        out[index] = new
        new = out
    return new.reshape(-1)


def _same_bits(a, b):
    """Equal bit for bit, so also in the sign of every zero."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def _gates(draw):
    """(n, amps, core, targets, controls): 1- or 2-qubit cores with 0-3
    controls on 1-10 qubits, the first target drawn from the last four
    qubits half the time; amplitudes include +0 and -0."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    target = draw(st.one_of(st.integers(max(0, n - 4), n - 1),
                            st.integers(0, n - 1)))
    others = [int(q) for q in rng.permutation(n) if q != target]
    k = draw(st.integers(1, min(2, n)))
    n_controls = draw(st.integers(0, min(3, n - k)))
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps[rng.random(2 ** n) < 0.2] = 0.0
    amps[rng.random(2 ** n) < 0.1] *= -0.0
    amps /= np.linalg.norm(amps) or 1.0
    core = random_unitary(2 ** k, rng)
    if draw(st.booleans()):  # zeros and signs in the core too
        core = np.round(core.real) + 0j if k == 1 else core.round(1)
    targets = [target] + others[:k - 1]
    return n, amps, core, targets, others[k - 1:k - 1 + n_controls]


class TestKernelBitExact:
    """The GEMM kernel against the tensordot reference, every gate form."""

    @given(_gates(), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_tensordot(self, gate, use_out, short_runs):
        n, amps, core, targets, controls = gate
        before = amps.copy()
        out = np.full_like(amps, np.nan) if use_out else None
        # short runs put more controls on the restricted path and turn
        # more 1-target cores into the column GEMM; TestInPlace reaches the
        # in-place pieces through _BLOCK
        with fresh_steps(**({"_RUN_MIN": 4} if short_runs else {})):
            got = apply_unitary(StateVector(n, amps), core, targets,
                                controls, out=out)
        want = _tensordot_reference(before, core, n, targets, controls)
        assert _same_bits(got.amps, want)
        assert _same_bits(amps, before)
        if use_out:
            assert got.amps is out

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_target_position(self, n, rng):
        # each qubit in turn, the last four included, under 0-3 controls
        for t in range(n):
            for n_controls in range(min(3, n - 1) + 1):
                others = [q for q in range(n) if q != t]
                controls = list(rng.choice(others, n_controls, replace=False))
                psi = random_state(n, rng)
                u = random_unitary(2, rng)
                got = apply_unitary(StateVector(n, psi), u, [t], controls)
                want = _tensordot_reference(psi, u, n, [t], controls)
                assert _same_bits(got.amps, want), (t, controls)


def _signed_permutation_core(rng, k, signed):
    """A random 2^k x 2^k permutation matrix, its nonzeros drawn from
    1, -1, i and -i when `signed`."""
    dim = 2 ** k
    core = np.zeros((dim, dim), dtype=complex)
    factors = rng.choice([1, -1, 1j, -1j], dim) if signed else 1
    core[np.arange(dim), rng.permutation(dim)] = factors
    return core


@st.composite
def _moves(draw):
    """(n, amps, core, targets, controls) on 4-12 qubits with a core that
    takes the move form: a named permutation-and-sign gate, a random signed
    permutation on 1-3 targets (adjacent ones half the time) under 0-3
    controls, or a permutation of the last 5 qubits (fewer on narrow
    states); at least 2 qubits are neither target nor control. Amplitudes
    include +0 and -0."""
    n = draw(st.integers(4, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["named", "random", "last"]))
    qubits = [int(q) for q in rng.permutation(n)]
    if kind == "named":
        name = draw(st.sampled_from(
            [g for g in ("x", "y", "z", "s", "swap", "cx", "ccx", "mcx")
             if (GATE_ARITY[g] or 2) <= n - 2]))
        arity = GATE_ARITY[name] or draw(st.integers(2, min(5, n - 2)))
        core, n_controls = gate_core(name, arity=arity)
        controls, targets = qubits[:n_controls], qubits[n_controls:arity]
    elif kind == "random":
        k = draw(st.integers(1, 3 if n > 4 else 2))
        if draw(st.booleans()):  # adjacent targets, in any order
            first = draw(st.integers(0, n - k))
            targets = [int(q) for q in rng.permutation(range(first, first + k))]
        else:
            targets = qubits[:k]
        others = [q for q in qubits if q not in targets]
        controls = others[:draw(st.integers(0, min(3, n - k - 2)))]
        core = _signed_permutation_core(rng, k, draw(st.booleans()))
    else:
        k = min(5, n - 2)
        targets = [int(q) for q in rng.permutation(range(n - k, n))]
        controls = [q for q in qubits if q < n - k]
        controls = controls[:draw(st.integers(0, min(3, n - k - 2)))]
        core = _signed_permutation_core(rng, k, False)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps[rng.random(2 ** n) < 0.2] = 0.0
    amps.real[rng.random(2 ** n) < 0.2] = 0.0
    amps.imag[rng.random(2 ** n) < 0.2] = 0.0
    amps[rng.random(2 ** n) < 0.3] *= -1.0  # turns some zeros into -0
    amps /= np.linalg.norm(amps) or 1.0
    return n, amps, core, targets, controls


class TestMoveForm:
    """Permutation-and-sign cores are moved, not multiplied, and give the
    tensordot reference's bits, so their bits do not depend on the BLAS
    build. The run threshold is lowered so that the draws take the move
    form (all of them at 1, and with controls computed over at 4)."""

    @given(_moves(), st.booleans(), st.sampled_from([1, 4]),
           st.sampled_from([2, 64, 2 ** 14]))
    @settings(max_examples=300, deadline=None)
    def test_matches_tensordot(self, gate, use_out, run_min, chunk):
        n, amps, core, targets, controls = gate
        before = amps.copy()
        out = np.full_like(amps, np.nan) if use_out else None
        # small chunks cut the blocks multiplied by i or -i into pieces
        with fresh_steps(_RUN_MIN=run_min, _BLOCK=chunk):
            with mock.patch.object(qckit.state, "_move",
                                   wraps=qckit.state._move) as move:
                got = apply_unitary(StateVector(n, amps), core, targets,
                                    controls, out=out)
        assert move.called == (2 ** (n - 1 - max(targets)) >= run_min)
        want = _tensordot_reference(before, core, n, targets, controls)
        assert _same_bits(got.amps, want)
        assert _same_bits(amps, before)
        if use_out:
            assert got.amps is out

    def test_narrow_slices_keep_the_tensordot(self, rng):
        # 2 columns beside the target: the tensordot may write -0 there
        psi = random_state(8, rng)
        psi[rng.random(256) < 0.5] *= -0.0
        x = standard_gate_matrix("x")
        for controls in ([2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6]):
            with fresh_steps(), mock.patch.object(qckit.state,
                                                  "_move") as move:
                got = apply_unitary(StateVector(8, psi), x, [0], controls)
            assert not move.called
            want = _tensordot_reference(psi, x, 8, [0], controls)
            assert _same_bits(got.amps, want)

    @pytest.mark.parametrize("core", [
        np.array([[1, 0], [0, 1 + 1e-17j]]),  # not exactly 1, i, -i or -1
        np.array([[0, 1], [1, 1e-300]]),      # a second nonzero in a row
        np.array([[1, 0], [1, 0]]),           # a column used twice
        standard_gate_matrix("h"),
        standard_gate_matrix("t"),
    ])
    def test_other_cores_are_multiplied(self, core, rng):
        psi = random_state(8, rng)
        with fresh_steps(), mock.patch.object(qckit.state, "_move") as move:
            got = apply_unitary(StateVector(8, psi), core, [0])
        assert not move.called
        assert _same_bits(got.amps, _tensordot_reference(psi, core, 8, [0]))

    def test_signed_copy_takes_the_block_size(self, rng):
        # a (4, 64) block times i, cut into pieces of 2 amplitudes, gets
        # the bits of one multiply and one add of +0 over the whole block
        src = (rng.normal(size=(4, 2, 64))
               + 1j * rng.normal(size=(4, 2, 64)))[:, 1]
        src.real[rng.random((4, 64)) < 0.3] = 0.0
        src.imag[rng.random((4, 64)) < 0.3] = -0.0
        want = np.multiply(src, 1j)
        np.add(want, 0.0, out=want)
        dst = np.full((4, 64), np.nan, dtype=complex)
        cuts, pieces = [], qckit.state._pieces

        def recorded(*args):
            cuts.append(list(pieces(*args)))
            return cuts[-1]

        with mock.patch.multiple(qckit.state, _BLOCK=2, _pieces=recorded):
            qckit.state._signed_copy(src, dst, 1j)
        assert len(cuts) == 1 and len(cuts[0]) > 1
        assert _same_bits(dst, want)


class TestPieces:
    """`_pieces` cuts an array into pieces that cover every index once,
    keep the `whole` axes entire and hold at most `size` elements of the
    other axes; exactly `size` when it and every length are powers of 2,
    which the in-place update's floor of _RUN_MIN amplitudes relies on."""

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.integers(1, 80), st.data())
    @settings(max_examples=300, deadline=None)
    def test_cover_every_index_once(self, shape, size, data):
        whole = data.draw(st.sets(st.integers(0, len(shape) - 1)))
        seen = np.zeros(shape, dtype=int)
        for index in qckit.state._pieces(shape, size, whole):
            assert len(index) == len(shape)
            piece = seen[index]
            piece += 1
            assert all(piece.shape[ax] == shape[ax] for ax in whole)
            assert math.prod(length for ax, length in enumerate(piece.shape)
                             if ax not in whole) <= size
        assert (seen == 1).all()

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=4),
           st.integers(0, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_powers_of_two_fill_each_piece(self, log_shape, log_size, data):
        array = np.empty([2 ** b for b in log_shape])
        whole = data.draw(st.sets(st.integers(0, array.ndim - 1)))
        kept = math.prod(array.shape[ax] for ax in whole)
        size = min(2 ** log_size, array.size // kept)
        for index in qckit.state._pieces(array.shape, 2 ** log_size, whole):
            assert array[index].size == size * kept


def _dense_gate(n, targets, controls, seed):
    """(n, amps, core, targets, controls) for a random dense core."""
    rng = np.random.default_rng(seed)
    return (n, random_state(n, rng), random_unitary(2 ** len(targets), rng),
            targets, controls)


def _core(name, rng):
    """A named gate's core, or a random dense 2-target core ("dense2"), or
    a random 4-target permutation core ("perm4"), signed ("signed4")."""
    if name == "dense2":
        return random_unitary(4, rng)
    if name in ("perm4", "signed4"):
        core = _signed_permutation_core(rng, 4, False)
        if name == "signed4":  # one factor -i, so not every factor is 1
            core[0] *= -1j
        return core
    return standard_gate_matrix(name)


class TestFormTable:
    """Each gate runs the form that the kernel's table names for it.
    Every form gives the tensordot's bits, so a gate sent to the wrong
    form would pass every bit test and show only as time."""

    BUILDERS = ("_move", "_columns", "_kron_rows", "_gather", "_contract")

    @pytest.mark.parametrize("n, core, targets, controls, form", [
        (10, "h", [0], [], "_columns"),
        (10, "h", [0], [9], "_columns"),  # control 9 is computed over
        (10, "h", [4], [], "_kron_rows"),
        (10, "h", [9], [], "_kron_rows"),
        (10, "x", [9], [], "_kron_rows"),
        (10, "x", [0], [], "_move"),
        (10, "swap", [0, 1], [], "_move"),
        (10, "dense2", [0, 1], [], "_contract"),
        (10, "perm4", [6, 7, 8, 9], [], "_gather"),
        (8, "x", [0], [2, 3, 4, 5, 6, 7], "_contract"),  # narrow slice
        (10, "perm4", [9, 3, 7, 5], [1], "_gather"),  # control before rows
        (10, "swap", [4, 9], [6], "_gather"),  # control inside the row
        (10, "swap", [8, 9], [0, 2, 5], "_gather"),
        (10, "signed4", [6, 7, 8, 9], [], "_contract"),  # not all 1
        (8, "swap", [6, 7], [0, 1, 2, 3, 4], "_contract"),  # narrow slice
    ])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_form(self, n, core, targets, controls, form, in_place, rng):
        u = _core(core, rng)
        psi = random_state(n, rng)
        state = StateVector(n, psi.copy())
        with fresh_steps(), contextlib.ExitStack() as stack:
            builders = {
                name: stack.enter_context(mock.patch.object(
                    qckit.state, name, wraps=getattr(qckit.state, name)))
                for name in self.BUILDERS}
            got = apply_unitary(state, u, targets, controls,
                                out=state.amps if in_place else None)
        assert [name for name, b in builders.items() if b.called] == [form]
        assert _same_bits(got.amps, _tensordot_reference(psi, u, n, targets,
                                                         controls))


class TestGather:
    """A permutation core, every factor 1, on 2 or more targets whose last
    one leaves runs shorter than _RUN_MIN is one gather over rows that
    start at its first target, and gives the tensordot reference's bits,
    into `out` and in place, over every layout of 2 targets and every set
    of 3, with no control, one inside the row, one before it, or both.
    With _BLOCK at 64 amplitudes the in-place update cuts a state of 7 or
    more qubits into pieces, and longer rows keep the tensordot."""

    @pytest.mark.parametrize("n", range(6, 11))
    @pytest.mark.parametrize("block", [2 ** 6, 2 ** 15])
    def test_every_layout(self, n, block, rng):
        layouts = list(itertools.permutations(range(n), 2))
        layouts += [list(rng.permutation(t))
                    for t in itertools.combinations(range(n), 3)]
        for i, targets in enumerate(layouts):
            targets = [int(t) for t in targets]
            first = min(targets)
            inside = [q for q in range(first, n) if q not in targets]
            before = list(range(first))
            for controls in ([], inside[:1], before[-1:],
                             inside[-1:] + before[:1]):
                core = _signed_permutation_core(rng, len(targets), False)
                if i % 2:
                    psi = random_state(n, rng)
                    psi[rng.random(2 ** n) < 0.3] *= -0.0
                else:
                    psi = basis_state(n, int(rng.integers(2 ** n))).amps
                want = _tensordot_reference(psi, core, n, targets, controls)
                gathered = (2 ** (n - 1 - max(targets)) < 64
                            and 2 ** (n - first) <= block
                            and n - len(controls) - len(targets) >= 2)
                for in_place in (False, True):
                    state = StateVector(n, psi.copy())
                    with fresh_steps(_BLOCK=block), mock.patch.object(
                            qckit.state, "_gather",
                            wraps=qckit.state._gather) as gather:
                        got = apply_unitary(
                            state, core, targets, controls,
                            out=state.amps if in_place else None)
                    assert gather.called == gathered, (targets, controls)
                    assert _same_bits(got.amps, want), (targets, controls)


class TestStepCache:
    """`apply_unitary` caches each gate's step by (n, targets, controls,
    core bytes), for cores of up to _STEP_DIM rows, in at most _STEPS
    steps."""

    def test_worst_case_memory(self, rng):
        # the largest steps: gathers over rows of _BLOCK amplitudes, each
        # keyed by a 32 x 32 core, under the 280 KiB a step that _step's
        # docstring states
        n = 16
        assert 2 ** (n - 1) == qckit.state._BLOCK
        steps = qckit.state._STEPS
        state = basis_state(n, 3)
        with fresh_steps():
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                for _ in range(steps + 1):
                    core = _signed_permutation_core(rng, 5, False)
                    apply_unitary(state, core, [1, 12, 13, 14, 15],
                                  out=state.amps)
                held = tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()
            info = qckit.state._step.cache_info()
        assert info.currsize == steps and info.hits == 0
        assert held < steps * 280 * 1024
        assert held > steps * 8 * qckit.state._BLOCK  # each holds its index

    def test_same_key_hits_and_large_cores_bypass(self, rng):
        u = random_unitary(4, rng)
        psi = random_state(8, rng)
        with fresh_steps():
            first = apply_unitary(StateVector(8, psi), u, [2, 5], [0])
            again = apply_unitary(StateVector(8, psi), u.copy(order="F"),
                                  np.array([2, 5]), [0])
            assert qckit.state._step.cache_info()[:2] == (1, 1)
            apply_unitary(StateVector(8, psi), random_unitary(64, rng),
                          range(6))
            assert qckit.state._step.cache_info().currsize == 1
        assert _same_bits(first.amps, again.amps)


class TestInPlace:
    """out=state.amps updates the state in place, one scratch piece of
    _BLOCK amplitudes at a time, and gives the bits of a separate out
    and of the tensordot reference."""

    @given(st.one_of(_gates(), _moves()),
           st.sampled_from([2 ** 4, 2 ** 6, 2 ** 15]),
           st.sampled_from([4, 64]))
    # blocks of 16 amplitudes, below the _RUN_MIN floor of 64 that every
    # piece holds: kron rows of 4 on qubit n-1, and of 32 on qubit n-5
    # with one control inside the row and one just before it
    @example(_dense_gate(8, [7], [], 1), 2 ** 4, 64)
    @example(_dense_gate(10, [5], [7, 4], 2), 2 ** 4, 64)
    @settings(max_examples=300, deadline=None)
    def test_matches_out_of_place(self, gate, scratch, run_min):
        n, amps, core, targets, controls = gate
        with fresh_steps(_BLOCK=scratch, _RUN_MIN=run_min):
            want = apply_unitary(StateVector(n, amps), core, targets,
                                 controls).amps
            state = StateVector(n, amps.copy())
            got = apply_unitary(state, core, targets, controls,
                                out=state.amps)
        assert got.amps is state.amps
        assert _same_bits(got.amps, want)
        assert _same_bits(got.amps,
                          _tensordot_reference(amps, core, n, targets,
                                               controls))


class TestOutBuffer:
    def test_out_aliasing_state_rejected(self, rng):
        # out=amps updates the state in place; any other overlap raises
        amps = random_state(4, rng)
        s = StateVector(4, amps)
        u = random_unitary(2, rng)
        want = apply_unitary(s, u, [0]).amps
        got = apply_unitary(s, u, [0], out=amps)
        assert got.amps is amps and _same_bits(amps, want)
        with pytest.raises(DimensionError):
            apply_unitary(s, np.eye(2), [0], out=amps.view())
        wide = np.zeros(32, dtype=complex)
        wide[8:24] = amps
        with pytest.raises(DimensionError):
            apply_unitary(StateVector(4, wide[8:24]), np.eye(2), [0],
                          out=wide[:16])

    @pytest.mark.parametrize("out", [
        np.empty(8, dtype=complex),
        np.empty(16, dtype=np.complex64),
        np.empty(32, dtype=complex)[::2],
    ])
    def test_bad_out_rejected(self, out):
        with pytest.raises(DimensionError):
            apply_unitary(new_zero_state(4), np.eye(2), [0], out=out)


def _non_finite(value):
    s = new_zero_state(2)
    s.amps[3] = value
    return s


class TestNormCheck:
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.nan)])
    def test_check_normalized(self, value):
        with pytest.raises(StateError):
            _non_finite(value).check_normalized()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_measure_all(self, value):
        with pytest.raises(StateError):
            measure_all(_non_finite(value), 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_measure_qubit(self, value):
        with pytest.raises(StateError):
            measure_qubit(_non_finite(value), 0, 0)


class TestMeasureAll:
    def test_basis_state_deterministic(self):
        rec = measure_all(basis_state(2, 0b01), rng_seed=3)
        assert rec.outcome == "01"
        assert rec.probability == pytest.approx(1.0)
        assert np.array_equal(rec.collapsed.amps, basis_state(2, 1).amps)

    def test_seed_reproducible(self, rng):
        s = StateVector(3, random_state(3, rng))
        a = measure_all(s, rng_seed=99)
        b = measure_all(s, rng_seed=99)
        assert a.outcome == b.outcome

    def test_uniform_frequencies(self):
        s = StateVector(2, np.full(4, 0.5, dtype=complex))
        counts = {k: 0 for k in range(4)}
        for seed in range(10000):
            counts[int(measure_all(s, seed).outcome, 2)] += 1
        for k in counts:
            # binomial CI at p = 0.25, 10000 draws
            assert 0.23 <= counts[k] / 10000 <= 0.27

    def test_unnormalized_rejected(self):
        s = StateVector(1, np.array([1.1, 0.0], dtype=complex))
        with pytest.raises(StateError):
            measure_all(s, 0)

    def test_born_statistics_chi_square(self, rng):
        scipy_stats = pytest.importorskip("scipy.stats")
        for trial in range(3):
            s = StateVector(3, random_state(3, rng))
            probs = s.probabilities()
            counts = np.zeros(8)
            for seed in range(10000):
                counts[int(measure_all(s, seed * 7 + trial).outcome, 2)] += 1
            _, pvalue = scipy_stats.chisquare(counts, probs * 10000)
            assert pvalue > 0.001


class TestBornSamples:
    @given(
        st.lists(st.floats(0, 1e6, allow_subnormal=False), min_size=1,
                 max_size=64).filter(lambda w: sum(w) > 0),
        st.integers(0, 2 ** 32 - 1),
        st.integers(1, 300),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_draws_as_choice(self, weights, seed, shots):
        weights = np.array(weights)
        p = weights / weights.sum()
        for size in (None, shots):
            want = np.random.default_rng(seed).choice(len(p), size, p=p)
            got = _born_samples(weights, np.random.default_rng(seed), size)
            assert np.array_equal(got, want)


class TestMeasureQubit:
    def test_basis_state(self):
        bit, post = measure_qubit(basis_state(2, 0b10), 0, rng_seed=0)
        assert bit == 1
        assert np.allclose(post.amps, basis_state(2, 0b10).amps)

    def test_bell_state_collapse(self):
        bell = StateVector(
            2, np.array([INV_SQRT2, 0, 0, INV_SQRT2], dtype=complex)
        )
        seen = set()
        for seed in range(50):
            bit, post = measure_qubit(bell, 0, seed)
            seen.add(bit)
            expected = basis_state(2, 0b11 if bit else 0b00)
            assert np.allclose(post.amps, expected.amps, atol=1e-12)
        assert seen == {0, 1}

    def test_conditional_amplitudes_preserved(self, rng):
        psi = random_state(2, rng)
        bit, post = measure_qubit(StateVector(2, psi), 0, rng_seed=1)
        block = psi[2:] if bit else psi[:2]
        block = block / np.linalg.norm(block)
        got = post.amps[2:] if bit else post.amps[:2]
        assert np.allclose(got, block, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            measure_qubit(new_zero_state(2), 5, 0)


def _schmidt_rank_oracle(amps, n, left, tol):
    # independent route: eigenvalues of the reduced Gram matrix
    right = [q for q in range(n) if q not in left]
    m = amps.reshape([2] * n).transpose(left + right).reshape(
        2 ** len(left), -1
    )
    eigs = np.linalg.eigvalsh(m @ m.conj().T)
    return int(np.sum(eigs > tol ** 2))


class TestSchmidtRank:
    def test_product_state(self):
        assert schmidt_rank(basis_state(2, 0), [0]) == 1

    def test_bell_state(self):
        bell = StateVector(
            2, np.array([INV_SQRT2, 0, 0, INV_SQRT2], dtype=complex)
        )
        assert schmidt_rank(bell, [0]) == 2
        # oracle: eigenvalues of the coefficient Gram matrix
        assert _schmidt_rank_oracle(bell.amps, 2, [0], 1e-9) == 2

    def test_explicit_product_form(self):
        s = StateVector(
            2, np.array([INV_SQRT2, INV_SQRT2, 0, 0], dtype=complex)
        )
        assert schmidt_rank(s, [0]) == 1

    def test_bad_partitions(self):
        s = new_zero_state(2)
        with pytest.raises(DimensionError):
            schmidt_rank(s, [])
        with pytest.raises(DimensionError):
            schmidt_rank(s, [0, 1])

    def test_local_unitary_invariance(self, rng):
        for _ in range(20):
            psi = StateVector(4, random_state(4, rng))
            left = [0, 2]
            base = schmidt_rank(psi, left)
            rotated = apply_unitary(psi, random_unitary(4, rng), left)
            rotated = apply_unitary(rotated, random_unitary(4, rng), [1, 3])
            assert schmidt_rank(rotated, left) == base

    def test_matches_oracle_on_random_states(self, rng):
        for _ in range(20):
            psi = random_state(4, rng)
            left = [0, 1]
            assert schmidt_rank(
                StateVector(4, psi), left
            ) == _schmidt_rank_oracle(psi, 4, left, 1e-9)
