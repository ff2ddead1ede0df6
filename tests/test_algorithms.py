import itertools
import math

import numpy as np
import pytest

from qckit.algorithms import (
    decide_bounded_error,
    deutsch_jozsa,
    inverse_qft_circuit,
    majority_error_probability,
    order_finding,
    qft_circuit,
    shor_factor,
)
from qckit.circuit import Circuit, GateApp, NAMED, UNITARY, circuit_unitary, simulate
from qckit.errors import CapacityError, DimensionError
from qckit.oracle import Oracle, min_deterministic_queries_dj
from qckit.state import StateVector, basis_state, measure_qubit

from conftest import random_state


def qft_reference(n):
    j, k = np.meshgrid(np.arange(2 ** n), np.arange(2 ** n), indexing="ij")
    return np.exp(2j * np.pi * j * k / 2 ** n) / np.sqrt(2 ** n)


def brute_force_order(a, n):
    r, value = 1, a % n
    while value != 1:
        value = (value * a) % n
        r += 1
    return r


class TestQFT:
    def test_one_qubit_is_hadamard(self):
        u = circuit_unitary(qft_circuit(1))
        assert np.allclose(
            u, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12
        )

    def test_two_qubit_on_zero_is_uniform(self):
        out = simulate(qft_circuit(2))
        assert np.allclose(out.amps, [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_two_qubit_on_basis_one(self):
        # closed form: amplitudes (1/2) * (1, i, -1, -i) ordered by k
        out = simulate(qft_circuit(2), basis_state(2, 1))
        assert np.allclose(
            out.amps, 0.5 * np.array([1, 1j, -1, -1j]), atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_closed_form(self, n):
        u = circuit_unitary(qft_circuit(n))
        assert np.max(np.abs(u - qft_reference(n))) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_unitarity(self, n):
        u = circuit_unitary(qft_circuit(n))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 ** n))) < 1e-9

    def test_qft_inverse_round_trip(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 7))
            psi = random_state(n, rng)
            out = simulate(qft_circuit(n), StateVector(n, psi))
            back = simulate(inverse_qft_circuit(n), out)
            assert np.max(np.abs(back.amps - psi)) < 1e-9

    @pytest.mark.parametrize("n", range(1, 13))
    def test_within_1e_12_of_closed_form(self, n, rng):
        # F e_j has amplitudes exp(2 pi i jk / 2^n) / sqrt(2^n) over k,
        # the angle reduced mod 2^n exactly; F psi is sqrt(2^n) ifft(psi)
        dim = 2 ** n
        k = np.arange(dim)
        for j in sorted({0, 1, dim - 1, (5 * dim) // 7,
                         int(rng.integers(dim))}):
            got = simulate(qft_circuit(n), basis_state(n, j)).amps
            want = np.exp(2j * np.pi * (j * k % dim) / dim) / np.sqrt(dim)
            assert np.max(np.abs(got - want)) < 1e-12, j
        psi = random_state(n, rng)
        got = simulate(qft_circuit(n), StateVector(n, psi)).amps
        assert np.max(np.abs(got - np.sqrt(dim) * np.fft.ifft(psi))) < 1e-12
        got = simulate(inverse_qft_circuit(n), StateVector(n, psi)).amps
        assert np.max(np.abs(got - np.fft.fft(psi) / np.sqrt(dim))) < 1e-12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_inverse_is_the_reversed_circuit(self, n):
        # the forward circuit's gates in reverse, angles negated
        ops = [GateApp(NAMED, op.targets, name=op.name,
                       param=None if op.param is None else -op.param)
               for op in reversed(qft_circuit(n).ops)]
        assert inverse_qft_circuit(n) == Circuit(n, ops)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            qft_circuit(13)
        with pytest.raises(CapacityError):
            inverse_qft_circuit(13)
        with pytest.raises(DimensionError):
            inverse_qft_circuit(0)


class TestDeutschJozsa:
    def test_constant_zero(self):
        v = deutsch_jozsa(Oracle(3, (0,) * 8, name="f"))
        assert v.verdict == "constant"
        assert v.quantum_queries == 1
        assert v.all_zeros_probability == pytest.approx(1.0, abs=1e-12)

    def test_constant_one(self):
        v = deutsch_jozsa(Oracle(3, (1,) * 8, name="f"))
        assert v.verdict == "constant"
        assert v.all_zeros_probability == pytest.approx(1.0, abs=1e-12)

    def test_all_balanced_n3(self):
        count = 0
        for ones in itertools.combinations(range(8), 4):
            table = [0] * 8
            for i in ones:
                table[i] = 1
            v = deutsch_jozsa(Oracle(3, tuple(table), name="f"))
            assert v.verdict == "balanced"
            assert v.quantum_queries == 1
            assert v.all_zeros_probability == pytest.approx(0.0, abs=1e-12)
            count += 1
        assert count == 70

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_vs_classical_baseline(self, n):
        size = 2 ** n
        quantum_queries = set()
        for bits in itertools.product((0, 1), repeat=size):
            if sum(bits) not in (0, size, size // 2):
                continue  # outside the promise
            v = deutsch_jozsa(Oracle(n, bits, name="f"))
            expected = "constant" if sum(bits) in (0, size) else "balanced"
            assert v.verdict == expected
            quantum_queries.add(v.quantum_queries)
        assert quantum_queries == {1}
        assert min_deterministic_queries_dj(n) == 2 ** (n - 1) + 1


class TestOrderFinding:
    def test_a7_n15(self):
        assert brute_force_order(7, 15) == 4  # 7, 4, 13, 1 mod 15
        results = [order_finding(7, 15, 8, seed) for seed in range(10)]
        assert all(r in (None, 4) for r in results)
        assert 4 in results

    def test_a4_n15(self):
        assert brute_force_order(4, 15) == 2
        results = [order_finding(4, 15, 8, seed) for seed in range(10)]
        assert all(r in (None, 2) for r in results)
        assert 2 in results

    def test_shared_factor_rejected(self):
        with pytest.raises(DimensionError):
            order_finding(2, 4, 4)

    def test_success_rate_a7_n15(self):
        hits = sum(
            order_finding(7, 15, 8, seed) == 4 for seed in range(200)
        )
        # empirical threshold below the theoretical phase-estimation
        # success constant, leaving room for sampling noise
        assert hits / 200 >= 0.4

    def test_returned_order_always_true_order(self):
        for a in (2, 4, 7, 8, 11, 13):
            true_r = brute_force_order(a, 15)
            for seed in range(5):
                r = order_finding(a, 15, 8, seed)
                assert r is None or r == true_r


class TestShorFactor:
    def test_n15(self):
        result = shor_factor(15, rng_seed=0)
        assert result is not None
        assert result.factor in (3, 5)
        assert 15 % result.factor == 0

    def test_n21(self):
        result = shor_factor(21, rng_seed=0)
        assert result is not None
        assert result.factor in (3, 7)
        assert 21 % result.factor == 0

    def test_even_rejected(self):
        with pytest.raises(DimensionError, match="even"):
            shor_factor(16)

    def test_prime_rejected(self):
        with pytest.raises(DimensionError, match="prime"):
            shor_factor(13)

    def test_prime_power_rejected(self):
        with pytest.raises(DimensionError, match="prime power"):
            shor_factor(27)


def _accept_prob_circuit(p: float) -> Circuit:
    # single-qubit state sqrt(1-p)|0> + sqrt(p)|1>
    u = np.array(
        [
            [np.sqrt(1 - p), -np.sqrt(p)],
            [np.sqrt(p), np.sqrt(1 - p)],
        ],
        dtype=complex,
    )
    return Circuit(1, [GateApp(UNITARY, (0,), matrix=u)])


class TestBoundedError:
    def test_forced_accept(self):
        c = Circuit(1, [GateApp(NAMED, (0,), name="x")])
        v = decide_bounded_error(c, 0, runs=1, rng_seed=0)
        assert v.accept and v.frequency == 1.0

    def test_even_runs_rejected(self):
        with pytest.raises(DimensionError):
            decide_bounded_error(Circuit(1), 0, runs=2)

    def test_majority_error_exact_binomial(self):
        # oracle: direct tail sum for p = 2/3, runs = 45
        expected = sum(
            math.comb(45, k) * (2 / 3) ** k * (1 / 3) ** (45 - k)
            for k in range(23)
        )
        assert majority_error_probability(2 / 3, 45) == pytest.approx(
            expected, rel=1e-12
        )

    def test_votes_match_per_vote_measurement(self):
        # one P(1) for all votes gives the verdicts of measuring a fresh
        # copy of the prepared state with each vote's split seed
        c = _accept_prob_circuit(2 / 3)
        final = simulate(c)
        for seed in range(20):
            v = decide_bounded_error(c, 0, runs=15, rng_seed=seed)
            bits = [
                measure_qubit(final, 0, s)[0]
                for s in np.random.SeedSequence(seed).spawn(15)
            ]
            assert v.frequency == sum(bits) / 15
            assert v.accept == (sum(bits) * 2 > 15)

    def test_amplification_monotonic(self):
        errors = [
            majority_error_probability(2 / 3, runs)
            for runs in range(1, 46, 2)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_two_thirds_majority_rarely_errs(self):
        c = _accept_prob_circuit(2 / 3)
        wrong = sum(
            not decide_bounded_error(c, 0, runs=45, rng_seed=s).accept
            for s in range(500)
        )
        # analytic error is ~0.0063; 500 trials should stay well below 0.03
        assert wrong / 500 < 0.03

    def test_determinism(self):
        c = _accept_prob_circuit(0.5)
        a = decide_bounded_error(c, 0, runs=11, rng_seed=7)
        b = decide_bounded_error(c, 0, runs=11, rng_seed=7)
        assert (a.accept, a.frequency) == (b.accept, b.frequency)
