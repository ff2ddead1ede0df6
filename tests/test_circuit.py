from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qckit.circuit
from qckit.circuit import (
    Circuit,
    GateApp,
    NAMED,
    ORACLE,
    UNITARY,
    circuit_unitary,
    parse_circuit,
    serialize_circuit,
    simulate,
)
from qckit.errors import (
    CapacityError,
    DimensionError,
    ParseError,
    UnresolvedOracleError,
)
from qckit.gates import GATE_ARITY, controlled, standard_gate_matrix
from qckit.oracle import Oracle, QueryCounter, oracle_gate
from qckit.state import StateVector, basis_state, new_zero_state

from conftest import random_state, random_unitary

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestStandardGateMatrix:
    def test_hadamard(self):
        assert np.allclose(
            standard_gate_matrix("h"),
            INV_SQRT2 * np.array([[1, 1], [1, -1]]),
        )

    def test_phase_zero_is_identity(self):
        assert np.allclose(standard_gate_matrix("phase", 0.0), np.eye(2))

    def test_cphase_pi(self):
        # e^{i pi} = -1 in the controlled-phase closed form
        assert np.allclose(
            standard_gate_matrix("cphase", np.pi),
            np.diag([1, 1, 1, -1]),
            atol=1e-12,
        )

    def test_unknown_gate(self):
        with pytest.raises(DimensionError):
            standard_gate_matrix("foo")

    def test_param_mismatch(self):
        with pytest.raises(DimensionError):
            standard_gate_matrix("h", 1.0)
        with pytest.raises(DimensionError):
            standard_gate_matrix("phase")

    @pytest.mark.parametrize(
        "name", ["i", "x", "y", "z", "h", "s", "t", "cx", "swap", "ccx"]
    )
    def test_all_named_gates_unitary(self, name):
        u = standard_gate_matrix(name)
        assert np.max(
            np.abs(u.conj().T @ u - np.eye(u.shape[0]))
        ) < 1e-12

    @pytest.mark.parametrize("theta", [0.3, np.pi / 7, 2.5])
    def test_parametric_gates_unitary(self, theta):
        for name in ("phase", "cphase"):
            u = standard_gate_matrix(name, theta)
            assert np.max(
                np.abs(u.conj().T @ u - np.eye(u.shape[0]))
            ) < 1e-12

    def test_mcx_needs_arity(self):
        with pytest.raises(DimensionError):
            standard_gate_matrix("mcx")
        u = standard_gate_matrix("mcx", arity=4)
        assert np.allclose(u @ u, np.eye(16))


class TestSimulate:
    def test_empty_circuit(self, rng):
        psi = random_state(3, rng)
        from qckit.state import StateVector

        out = simulate(Circuit(3), StateVector(3, psi))
        assert np.array_equal(out.amps, psi)

    def test_bell_pair(self):
        # oracle: two 4-dim matrix-vector products by hand
        c = Circuit(2, [
            GateApp(NAMED, (0,), name="h"),
            GateApp(NAMED, (0, 1), name="cx"),
        ])
        out = simulate(c)
        assert np.allclose(
            out.amps, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12
        )

    def test_unresolved_oracle(self):
        c = Circuit(2, [GateApp(ORACLE, (0, 1), name="f")])
        with pytest.raises(UnresolvedOracleError):
            simulate(c)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            simulate(Circuit(2), new_zero_state(3))

    def test_oracle_query_counting(self):
        oracle = Oracle(1, (0, 1), name="f")
        ops = [GateApp(ORACLE, (0, 1), name="f")] * 3
        counter = QueryCounter()
        simulate(Circuit(2, ops), oracle_table={"f": oracle}, counter=counter)
        assert counter.quantum_queries == 3

    def test_random_circuits_preserve_norm(self, rng):
        from qckit.state import StateVector

        state = StateVector(6, random_state(6, rng))
        c = _random_circuit(6, 50, rng)
        out = simulate(c, state)
        assert abs(out.norm() - 1.0) < 1e-8


class TestCircuitUnitary:
    def test_empty_is_identity(self):
        assert np.array_equal(circuit_unitary(Circuit(1)), np.eye(2))

    def test_single_h(self):
        c = Circuit(1, [GateApp(NAMED, (0,), name="h")])
        assert np.allclose(
            circuit_unitary(c), standard_gate_matrix("h"), atol=1e-12
        )

    def test_hh_is_identity(self):
        c = Circuit(1, [GateApp(NAMED, (0,), name="h")] * 2)
        assert np.allclose(circuit_unitary(c), np.eye(2), atol=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            circuit_unitary(Circuit(11))

    def test_composition(self, rng):
        for _ in range(5):
            a = _random_circuit(3, 4, rng)
            b = _random_circuit(3, 4, rng)
            ab = Circuit(3, a.ops + b.ops)
            assert np.max(np.abs(
                circuit_unitary(ab)
                - circuit_unitary(b) @ circuit_unitary(a)
            )) < 1e-9

    def test_columns_match_simulation(self, rng):
        for n in (2, 3, 4):
            c = _random_circuit(n, 10, rng)
            u = circuit_unitary(c)
            for j in range(2 ** n):
                col = simulate(c, basis_state(n, j))
                assert np.max(np.abs(col.amps - u[:, j])) < 1e-9


def _embed(m: np.ndarray, targets, n_qubits) -> np.ndarray:
    """Dense 2^n matrix of m acting on the ordered targets: m (x) I on
    the basis reordered to (targets..., other qubits...)."""
    order = list(targets) + [q for q in range(n_qubits) if q not in targets]
    bits = (np.arange(2 ** n_qubits)[:, None]
            >> (n_qubits - 1 - np.arange(n_qubits))) & 1
    perm = bits[:, order] @ (1 << np.arange(n_qubits - 1, -1, -1))
    full = np.kron(m, np.eye(2 ** (n_qubits - len(targets))))
    return full[np.ix_(perm, perm)]


@st.composite
def _mixed_circuits(draw):
    """A circuit of up to 6 qubits using every gate kind that fits, with
    its dense reference unitary built without the simulation kernel."""
    n = draw(st.integers(1, 6))
    kinds = ["h", "phase", "unitary"]
    kinds += ["cx", "cphase", "mcx", "oracle"] if n >= 2 else []
    kinds += ["ccx"] if n >= 3 else []
    kinds = draw(st.permutations(kinds + draw(
        st.lists(st.sampled_from(kinds), max_size=6))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops, oracles, ref = [], {}, np.eye(2 ** n)
    for kind in kinds:
        qubits = [int(q) for q in rng.permutation(n)]
        if kind == "unitary":
            nc = int(rng.integers(n))
            k = int(rng.integers(1, n - nc + 1))
            core = random_unitary(2 ** k, rng)
            op = GateApp(UNITARY, qubits[:nc + k], matrix=core, n_controls=nc)
            m = controlled(core, nc)
        elif kind == "oracle":
            k = int(rng.integers(1, n))
            name = f"f{len(oracles)}"
            oracles[name] = Oracle(k, rng.integers(0, 2, 2 ** k))
            op = GateApp(ORACLE, qubits[:k + 1], name=name)
            m = oracle_gate(oracles[name])
        else:
            arity = GATE_ARITY[kind] or int(rng.integers(2, n + 1))
            param = float(rng.uniform(-np.pi, np.pi)) if kind in (
                "phase", "cphase") else None
            op = GateApp(NAMED, qubits[:arity], name=kind, param=param)
            m = standard_gate_matrix(kind, param, arity)
        ops.append(op)
        ref = _embed(m, op.targets, n) @ ref
    return Circuit(n, ops), oracles, ref


class TestDifferential:
    def test_embed_reference(self):
        # cx with the control on qubit 1 and the target on qubit 0
        swapped = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
        )
        assert np.array_equal(
            _embed(standard_gate_matrix("cx"), (1, 0), 2), swapped
        )

    @given(_mixed_circuits())
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_dense_reference(self, drawn):
        circuit, oracles, ref = drawn
        n = circuit.n_qubits
        u = circuit_unitary(circuit, oracles)
        assert np.max(np.abs(u - ref)) < 1e-10
        psi = random_state(n, np.random.default_rng(n))
        before = psi.copy()
        out = simulate(circuit, StateVector(n, psi), oracles)
        assert np.max(np.abs(out.amps - ref @ psi)) < 1e-10
        assert np.array_equal(psi, before)
        for j in range(2 ** n):
            col = simulate(circuit, basis_state(n, j), oracles).amps
            assert np.max(np.abs(col - u[:, j])) < 1e-12


def _random_circuit(n_qubits, n_gates, rng) -> Circuit:
    fixed = ["i", "x", "y", "z", "h", "s", "t"]
    if n_qubits >= 2:
        fixed += ["cx", "swap"]
    if n_qubits >= 3:
        fixed.append("ccx")
    ops = []
    for _ in range(n_gates):
        name = fixed[int(rng.integers(len(fixed)))]
        arity = GATE_ARITY[name]
        targets = tuple(
            int(q) for q in rng.choice(n_qubits, size=arity, replace=False)
        )
        ops.append(GateApp(NAMED, targets, name=name))
        if rng.random() < 0.3:
            angle = float(rng.uniform(0, 2 * np.pi))
            q = int(rng.integers(n_qubits))
            ops.append(GateApp(NAMED, (q,), name="phase", param=angle))
    return Circuit(n_qubits, ops)


class TestParser:
    def test_basic(self):
        c = parse_circuit("qubits 2\nh 0\ncx 0 1\n")
        assert c.n_qubits == 2
        assert c.ops == [
            GateApp(NAMED, (0,), name="h"),
            GateApp(NAMED, (0, 1), name="cx"),
        ]

    def test_unknown_gate_names_line(self):
        with pytest.raises(ParseError) as exc:
            parse_circuit("qubits 1\nfoo 0\n")
        assert exc.value.line == 2

    def test_target_out_of_range(self):
        with pytest.raises(ParseError):
            parse_circuit("qubits 1\nh 3\n")

    def test_angle_syntax(self):
        c = parse_circuit("qubits 2\ncphase ( 3.14 ) 0 1\n")
        assert c.ops[0].param == pytest.approx(3.14)

    def test_oracle_line(self):
        c = parse_circuit("qubits 3\noracle f 0 1 2\n")
        assert c.ops[0] == GateApp(ORACLE, (0, 1, 2), name="f")

    def test_comments_and_blanks(self):
        c = parse_circuit("# hi\n\nqubits 1\nh 0  # trailing\n\n")
        assert len(c.ops) == 1

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_circuit("h 0\n")

    def test_serialize_examples(self):
        assert serialize_circuit(Circuit(1)) == "qubits 1\n"
        assert (
            serialize_circuit(Circuit(1, [GateApp(NAMED, (0,), name="h")]))
            == "qubits 1\nh 0\n"
        )

    def test_round_trip_corpus(self, rng):
        for _ in range(20):
            c = _random_circuit(4, 8, rng)
            text = serialize_circuit(c)
            again = parse_circuit(text)
            assert again == c
            assert parse_circuit(serialize_circuit(again)) == again

    def test_unitary_line_round_trip(self, rng):
        u = random_unitary(2, rng)
        c = Circuit(
            3,
            [GateApp(UNITARY, (0, 1, 2), matrix=u, n_controls=2)],
        )
        assert parse_circuit(serialize_circuit(c)) == c

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_totality(self, text):
        # parser must either return a Circuit or raise a positioned error
        try:
            parse_circuit(text)
        except ParseError as e:
            assert e.line >= 1

    @given(st.binary(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_bytes(self, blob):
        try:
            parse_circuit(blob.decode("utf-8", errors="replace"))
        except ParseError as e:
            assert e.line >= 1


class TestCheckedOnce:
    """Each gate's qubits are checked by `state._check_targets` where the
    gate enters, and a named gate is resolved when its GateApp is built."""

    def test_simulate_resolves_no_gate(self):
        c = parse_circuit("qubits 3\nh 0\ncx 0 1\nccx 0 1 2\n"
                          "cphase ( 0.5 ) 2 0\nmcx 2 1 0\n")
        expected = simulate(c)
        with mock.patch("qckit.circuit.gate_core",
                        wraps=qckit.circuit.gate_core) as resolve:
            assert np.array_equal(simulate(c).amps, expected.amps)
            circuit_unitary(c)
        assert resolve.call_count == 0

    def test_second_header_is_an_unknown_gate(self):
        with pytest.raises(ParseError) as exc:
            parse_circuit("qubits 2\nh 0\nqubits 3\n")
        assert exc.value.line == 3
        assert "unknown gate 'qubits'" in str(exc.value)

    @pytest.mark.parametrize("targets", [(0, 2), (1, 1)])
    def test_circuit_uses_the_shared_check(self, targets):
        op = GateApp(NAMED, targets, name="cx")
        with mock.patch("qckit.circuit._check_targets",
                        wraps=qckit.circuit._check_targets) as check:
            with pytest.raises(DimensionError):
                Circuit(2, [op])
        check.assert_called_once_with(2, targets)

    @pytest.mark.parametrize("text, line, message", [
        ("qubits 2\nh 0\ncx 0 2\n", 3, "target 2 out of range for 2 qubits"),
        ("qubits 2\noracle f 1 1\n", 2, "duplicate targets [1, 1]"),
        ("qubits 1\nunitary 0 4 : 1 0 0 0 0 0 1 0\n", 2,
         "target 4 out of range for 1 qubits"),
    ])
    def test_parse_errors_keep_their_text(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_circuit(text)
        assert (exc.value.line, exc.value.message) == (line, message)
