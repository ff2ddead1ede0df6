import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qckit.circuit import Circuit, circuit_unitary, simulate
from qckit.compiler import (
    CompilationReport,
    TwoLevelFactor,
    compile_qtm_step,
    compile_unitary,
    decompose_two_level,
    encode_qtm_state,
    factor_list_to_circuit,
    pad_to_power_of_two,
    reconstruct,
    two_level_to_gates,
)
from qckit.errors import DimensionError, WellFormednessError
from qckit.gates import standard_gate_matrix
from qckit.qtm import initial_qtm_state, run_qtm, step_operator
from qckit.state import StateVector

from conftest import (
    coin_machine,
    doubled_branch_machine,
    move_right_machine,
    random_state,
    random_unitary,
)


class TestDecomposeTwoLevel:
    def test_identity_gives_empty_list(self):
        assert decompose_two_level(np.eye(8)) == []

    def test_2x2_single_factor(self, rng):
        u = random_unitary(2, rng)
        factors = decompose_two_level(u, 1e-10)
        assert len(factors) == 1
        assert np.allclose(factors[0].block, u, atol=1e-12)

    def test_random_4x4(self, rng):
        u = random_unitary(4, rng)
        factors = decompose_two_level(u, 1e-10)
        assert len(factors) <= 6
        # oracle: reconstruct by explicit matrix multiplication
        assert np.max(np.abs(reconstruct(factors, 4) - u)) < 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(DimensionError):
            decompose_two_level(np.ones((4, 4)))

    def test_factor_count_bound_and_soundness(self, rng):
        for dim in (2, 4, 8, 16):
            for _ in range(25):
                u = random_unitary(dim, rng)
                factors = decompose_two_level(u, 1e-10)
                assert len(factors) <= dim * (dim - 1) // 2
                for f in factors:
                    e = f.embed()
                    assert np.max(
                        np.abs(e.conj().T @ e - np.eye(dim))
                    ) < 1e-12
                assert np.max(np.abs(reconstruct(factors, dim) - u)) < 1e-9

    def test_diagonal_phases(self):
        u = np.diag(np.exp(1j * np.array([0.3, 1.1, -0.7, 2.4])))
        factors = decompose_two_level(u, 1e-12)
        assert np.max(np.abs(reconstruct(factors, 4) - u)) < 1e-10


class TestTwoLevelToGates:
    def test_dim2_bare_gate(self, rng):
        u = random_unitary(2, rng)
        factor = TwoLevelFactor(2, 0, 1, u)
        gates = two_level_to_gates(factor, 1)
        assert len(gates) == 1
        c = factor_list_to_circuit([factor], 1)
        assert np.max(np.abs(circuit_unitary(c) - u)) < 1e-10

    def test_adjacent_indices_no_routing(self, rng):
        # (0, 1) of dim 4 differ in one bit: one controlled core, no
        # multi-controlled X transpositions
        factor = TwoLevelFactor(4, 0, 1, random_unitary(2, rng))
        gates = two_level_to_gates(factor, 2)
        assert not any(g.name in ("cx", "mcx") for g in gates)
        c = factor_list_to_circuit([factor], 2)
        assert np.max(np.abs(circuit_unitary(c) - factor.embed())) < 1e-10

    def test_distant_indices_routed(self, rng):
        factor = TwoLevelFactor(4, 0, 3, random_unitary(2, rng))
        c = factor_list_to_circuit([factor], 2)
        assert np.max(np.abs(circuit_unitary(c) - factor.embed())) < 1e-10

    def test_all_pairs_dim8(self, rng):
        for i in range(8):
            for j in range(i + 1, 8):
                factor = TwoLevelFactor(8, i, j, random_unitary(2, rng))
                c = factor_list_to_circuit([factor], 3)
                assert np.max(
                    np.abs(circuit_unitary(c) - factor.embed())
                ) < 1e-10

    def test_dimension_mismatch(self):
        factor = TwoLevelFactor(4, 0, 1, np.eye(2))
        with pytest.raises(DimensionError):
            two_level_to_gates(factor, 3)


@st.composite
def factor_lists(draw):
    """(factors, n): up to 6 random two-level factors on n = 1-5 qubits."""
    n = draw(st.integers(1, 5))
    angles = st.floats(-np.pi, np.pi, allow_nan=False)
    factors = []
    for _ in range(draw(st.integers(0, 6))):
        i, j = sorted(draw(st.lists(st.integers(0, 2 ** n - 1), min_size=2,
                                    max_size=2, unique=True)))
        theta, a, b, c = (draw(angles) for _ in range(4))
        block = np.exp(1j * a) * np.array(
            [[np.exp(1j * b) * np.cos(theta), np.exp(1j * c) * np.sin(theta)],
             [-np.exp(-1j * c) * np.sin(theta), np.exp(-1j * b) * np.cos(theta)]])
        factors.append(TwoLevelFactor(2 ** n, i, j, block))
    return factors, n


def assert_no_adjacent_x_pair(ops):
    """No two neighbouring `x`, `cx` or `mcx` gates are equal: they cancel."""
    for a, b in zip(ops, ops[1:]):
        assert not (a.name == b.name and a.name in ("x", "cx", "mcx")
                    and a.targets == b.targets), a


class TestLowering:
    @given(factor_lists())
    @settings(max_examples=150, deadline=None)
    def test_factor_list_matches_reconstruct(self, case):
        factors, n = case
        circuit = factor_list_to_circuit(factors, n)
        assert np.max(np.abs(circuit_unitary(circuit)
                             - reconstruct(factors, 2 ** n))) < 1e-10
        assert_no_adjacent_x_pair(circuit.ops)

    def test_all_pairs_dim16(self, rng):
        for i in range(16):
            for j in range(i + 1, 16):
                factor = TwoLevelFactor(16, i, j, random_unitary(2, rng))
                gates = two_level_to_gates(factor, 4)
                assert_no_adjacent_x_pair(gates)
                assert np.max(np.abs(circuit_unitary(Circuit(4, gates))
                                     - factor.embed())) < 1e-10

    # the compiler's quality figure: a rise in any count is a regression
    @pytest.mark.parametrize("machine,cells,counts", [
        (coin_machine(), 2, {"x": 12, "mcx": 4, "unitary": 8}),
        (coin_machine(), 3, {"x": 62, "mcx": 32, "unitary": 28}),
        (coin_machine(), 4, {"x": 170, "mcx": 80, "unitary": 80}),
        (move_right_machine(), 2, {"x": 6, "unitary": 4}),
        (move_right_machine(), 3, {"x": 30, "mcx": 16, "unitary": 16}),
    ])
    def test_gate_counts(self, machine, cells, counts):
        circuit, report = compile_qtm_step(machine, cells)
        assert report.gate_counts == counts
        assert_no_adjacent_x_pair(circuit.ops)


class TestCompileUnitary:
    def test_random_unitaries(self, rng):
        for dim in (2, 4, 8):
            u = random_unitary(dim, rng)
            circuit, report = compile_unitary(u, tol=1e-8)
            assert report.max_deviation < 1e-8
            assert np.max(np.abs(circuit_unitary(circuit) - u)) < 1e-8

    def test_pad_to_power_of_two(self):
        m = np.eye(3)
        padded = pad_to_power_of_two(m)
        assert padded.shape == (4, 4)
        assert np.array_equal(padded, np.eye(4))


class TestCompileQTMStep:
    def test_move_right(self):
        circuit, report = compile_qtm_step(move_right_machine(), 2)
        assert report.n_qubits == 3
        m = pad_to_power_of_two(step_operator(move_right_machine(), 2))
        assert np.max(np.abs(circuit_unitary(circuit) - m)) < 1e-8
        assert report.max_deviation < 1e-8

    def test_coin_machine(self):
        circuit, report = compile_qtm_step(coin_machine(), 2)
        m = pad_to_power_of_two(step_operator(coin_machine(), 2))
        assert np.max(np.abs(circuit_unitary(circuit) - m)) < 1e-8

    def test_not_well_formed_rejected(self):
        with pytest.raises(WellFormednessError):
            compile_qtm_step(doubled_branch_machine(), 2)

    def test_non_power_of_two_padding(self):
        # T=3 gives 1 * 3 * 8 = 24 configurations, padded to 32
        circuit, report = compile_qtm_step(move_right_machine(), 3)
        assert report.source_dim == 24
        assert report.padded_dim == 32
        m = pad_to_power_of_two(step_operator(move_right_machine(), 3))
        assert np.max(np.abs(circuit_unitary(circuit) - m)) < 1e-8

    @pytest.mark.parametrize(
        "machine,word", [(move_right_machine(), "01"), (coin_machine(), "10")]
    )
    def test_one_step_simulation_agreement(self, machine, word):
        circuit, _ = compile_qtm_step(machine, 2)
        after = run_qtm(machine, word, 1, 2)
        encoded = encode_qtm_state(initial_qtm_state(machine, word, 2))
        evolved = simulate(circuit, encoded)
        size = after.space.size
        assert np.max(np.abs(evolved.amps[:size] - after.amps)) < 1e-8
        if size < len(evolved.amps):
            assert np.max(np.abs(evolved.amps[size:])) < 1e-8

    def test_superposed_initial_agreement(self, rng):
        machine = coin_machine()
        m = step_operator(machine, 2)
        amps = random_state(3, rng)  # 8 configurations
        from qckit.qtm import ConfigSpace, QTMState

        st = QTMState(ConfigSpace(machine, 2), amps)
        circuit, _ = compile_qtm_step(machine, 2)
        evolved = simulate(circuit, encode_qtm_state(st))
        assert np.max(np.abs(evolved.amps - m @ amps)) < 1e-8
