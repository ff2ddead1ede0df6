import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qckit.state

from qckit.errors import CapacityError, DimensionError, StateError
from qckit.gates import standard_gate_matrix
from qckit.state import (
    StateVector,
    apply_unitary,
    basis_state,
    measure_all,
    measure_qubit,
    new_zero_state,
    schmidt_rank,
)

from conftest import random_state, random_unitary

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

    def test_duplicate_targets(self):
        with pytest.raises(DimensionError):
            apply_unitary(new_zero_state(2), np.eye(4), [0, 0])

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
        # short runs put more controls on the restricted path and reach the
        # piecewise tensordot, which otherwise needs 19 free qubits
        runs = (mock.patch.multiple(qckit.state, _RUN_MIN=4, _PIECE_QUBITS=5)
                if short_runs else contextlib.nullcontext())
        with runs:
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


class TestOutBuffer:
    def test_out_aliasing_state_rejected(self, rng):
        amps = random_state(4, rng)
        s = StateVector(4, amps)
        with pytest.raises(DimensionError):
            apply_unitary(s, np.eye(2), [0], out=amps)
        with pytest.raises(DimensionError):
            apply_unitary(s, np.eye(2), [0], out=amps.view())

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
