import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qckit.circuit
import qckit.state
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
from qckit.gates import (
    GATE_ARITY,
    PARAMETRIC,
    controlled,
    standard_gate_matrix,
)
from qckit.oracle import Oracle, QueryCounter, oracle_gate
from qckit.state import MAX_QUBITS, StateVector, basis_state, new_zero_state

from conftest import fresh_steps, random_state, random_unitary
from test_oracle import _permuted
from test_state import _signed_permutation_core, _tensordot_reference

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
            [GateApp(UNITARY, (0, 1, 2), matrix=u, n_controls=2),
             GateApp(ORACLE, (0, 1, 2), name="f")],
        )
        assert serialize_circuit(c).endswith("\noracle f 0 1 2\n")
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


class TestCircuitText:
    """`qubits N` is checked against [1, MAX_QUBITS], and a `unitary`
    line's targets before they size its core."""

    @pytest.mark.parametrize("count", ["0", "25", "20000"])
    def test_qubit_count_out_of_range_names_header(self, count):
        with pytest.raises(ParseError) as exc:
            parse_circuit(f"# wide\nqubits {count}\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("targets, message", [
        (range(8000), "target 24 out of range for 24 qubits"),
        ([t % 24 for t in range(8000)], "duplicate targets"),
    ], ids=["out-of-range", "duplicate"])
    def test_unitary_targets_checked_before_they_size_the_core(
        self, targets, message
    ):
        text = ("qubits 24\nh 0\nunitary 0 "
                + " ".join(map(str, targets)) + " : 1 0\n")
        with pytest.raises(ParseError) as exc:
            parse_circuit(text)
        assert exc.value.line == 3
        assert exc.value.message.startswith(message)


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


@st.composite
def _in_place_circuits(draw):
    """(n, ops, oracles, amps) on 2-12 qubits: named gates, `unitary` cores
    (dense, or signed permutations that take the move form) on 1-3 targets
    under 0-3 controls, and oracles; amplitudes include +0 and -0."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops, oracles = [], {}
    for _ in range(draw(st.integers(1, 6))):
        qubits = [int(q) for q in rng.permutation(n)]
        kind = draw(st.sampled_from([NAMED, UNITARY, ORACLE]))
        if kind == NAMED:
            name = draw(st.sampled_from(
                [g for g, arity in GATE_ARITY.items() if (arity or 2) <= n]))
            arity = GATE_ARITY[name] or draw(st.integers(2, min(5, n)))
            param = float(rng.uniform(-4, 4)) if name in PARAMETRIC else None
            ops.append(GateApp(NAMED, qubits[:arity], name=name, param=param))
        elif kind == UNITARY:
            k = draw(st.integers(1, min(3, n)))
            n_controls = draw(st.integers(0, min(3, n - k)))
            core = (_signed_permutation_core(rng, k, True)
                    if draw(st.booleans()) else random_unitary(2 ** k, rng))
            ops.append(GateApp(UNITARY, qubits[:n_controls + k], matrix=core,
                               n_controls=n_controls))
        else:
            n_inputs = draw(st.integers(1, n - 1))
            name = f"f{len(oracles)}"
            oracles[name] = Oracle(n_inputs,
                                   rng.integers(0, 2, 2 ** n_inputs))
            ops.append(GateApp(ORACLE, qubits[:n_inputs + 1], name=name))
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps[rng.random(2 ** n) < 0.2] = 0.0
    amps.imag[rng.random(2 ** n) < 0.2] = 0.0
    amps[rng.random(2 ** n) < 0.3] *= -1.0  # turns some zeros into -0
    return n, ops, oracles, amps / (np.linalg.norm(amps) or 1.0)


def _phase_of(m):
    """p for a core diag(1, p), else None."""
    if (m.shape != (2, 2) or m[0, 0] != 1 or m[0, 1] != 0
            or m[1, 0] != 0):
        return None
    return m[1, 1]


def _gate_by_gate(n, ops, oracles, amps, fused=True):
    """The circuit applied one kernel call at a time by the kernels'
    references: the tensordot for every core, the explicit permutation
    for oracles. With `fused` the calls are `simulate`'s, from
    `circuit._calls`: each run of gates whose core is diag(1, p) goes
    through `_multiply_phases`, and each layer of one-qubit gates is cut
    into blocks whose cores are Kronecker products; TestFusedPhases and
    TestFusedLayers check those calls against the gates one by one.
    Without it each gate is one call."""
    amps = amps.copy()
    calls = qckit.circuit._calls(ops) if fused else [
        op if op.kind == ORACLE else
        (op.matrix, op.targets[op.n_controls:], op.targets[:op.n_controls])
        for op in ops]
    for call in calls:
        if isinstance(call, list):
            qckit.state._multiply_phases(amps, n, call)
        elif isinstance(call, GateApp):
            amps = _permuted(amps, n, oracles[call.name].table,
                             list(call.targets[:-1]), call.targets[-1])
        else:
            core, targets, controls = call
            amps = _tensordot_reference(amps, core, n, targets, controls)
    return amps


class TestOneBuffer:
    """`simulate` updates one buffer in place from _ONE_BUFFER_QUBITS on,
    through scratch pieces of _BLOCK amplitudes, and gives the bits of
    the two-buffer path and of the gate-by-gate references."""

    @given(_in_place_circuits(), st.sampled_from([2 ** 4, 2 ** 5, 2 ** 6]),
           st.sampled_from([4, 64]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_gate_by_gate_reference(self, case, scratch, run_min,
                                            in_place):
        # scratch pieces this small make every form cross piece boundaries;
        # a run threshold of 4 restricts more controls and moves more cores
        n, ops, oracles, amps = case
        before = amps.copy()
        with fresh_steps(_BLOCK=scratch, _RUN_MIN=run_min), \
                mock.patch.object(qckit.circuit, "_ONE_BUFFER_QUBITS",
                                  1 if in_place else 64):
            got = simulate(Circuit(n, ops), StateVector(n, amps), oracles)
        want = _gate_by_gate(n, ops, oracles, before)
        assert got.amps.tobytes() == want.tobytes()
        assert amps.tobytes() == before.tobytes()

    def test_peak_memory_at_max_qubits(self, rng):
        # one op of each form on a MAX_QUBITS state: the only state-sized
        # allocation beyond the input is simulate's one buffer
        n = MAX_QUBITS
        ops = [
            GateApp(NAMED, (3,), name="h"),             # column GEMM
            GateApp(NAMED, (n - 1,), name="t"),         # kron GEMM
            GateApp(NAMED, (15,), name="x"),            # move
            GateApp(UNITARY, (4, 9), matrix=random_unitary(4, rng)),
            GateApp(NAMED, (1, 6, 10, 20, 12), name="mcx"),
            GateApp(ORACLE, tuple(range(0, 22, 2)), name="f"),
        ]
        # one layer, fused into a column GEMM and a kron-row GEMM
        ops += [GateApp(NAMED, (q,), name="h")
                for q in [10, 11, 12, 13, 14, 19, 20, 21, 22, 23]]
        oracles = {"f": Oracle(10, rng.integers(0, 2, 2 ** 10))}
        initial = basis_state(n, 5)
        state_bytes = initial.amps.nbytes
        tracemalloc.start()
        try:
            final = simulate(Circuit(n, ops), initial, oracles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * state_bytes
        assert final.amps.nbytes == state_bytes
        assert abs(final.norm() - 1.0) < 1e-9


@st.composite
def _layer_circuits(draw):
    """(n, ops, amps) on 2-12 qubits: up to 4 groups of gates, each on a
    run of adjacent qubits in any order or on random qubits with repeats.
    A gate is `h` or a dense one-qubit `unitary`, which form layers, or
    `x`, `phase`, `cx` or a controlled `unitary` core, which end them.
    Amplitudes include +0 and -0."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            first = int(rng.integers(n))
            last = min(n, first + draw(st.integers(1, 7)))
            qubits = rng.permutation(range(first, last))
        else:
            qubits = rng.integers(0, n, draw(st.integers(1, 8)))
        for q in map(int, qubits):
            kind = rng.choice(["h", "dense", "x", "phase", "cx", "cu"],
                              p=[0.35, 0.35, 0.075, 0.075, 0.075, 0.075])
            other = (q + 1) % n
            if kind in ("h", "x"):
                ops.append(GateApp(NAMED, (q,), name=str(kind)))
            elif kind == "phase":
                ops.append(GateApp(NAMED, (q,), name="phase",
                                   param=float(rng.uniform(-4, 4))))
            elif kind == "cx":
                ops.append(GateApp(NAMED, (other, q), name="cx"))
            else:
                ops.append(GateApp(UNITARY, (other, q) if kind == "cu"
                                   else (q,), matrix=random_unitary(2, rng),
                                   n_controls=int(kind == "cu")))
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps[rng.random(2 ** n) < 0.2] = 0.0
    amps[rng.random(2 ** n) < 0.3] *= -1.0
    return n, ops, amps / (np.linalg.norm(amps) or 1.0)


def _layer_targets(ops):
    """The targets of each kernel call `simulate` makes for `ops`."""
    return [call[1] for call in qckit.circuit._calls(ops)
            if isinstance(call, tuple)]


class TestFusedLayers:
    """`simulate` applies each layer of `h` and dense one-qubit `unitary`
    gates on distinct qubits as blocks of up to 5 adjacent qubits, one
    kernel call per block whose core is the Kronecker product of the
    block's cores: within 1e-12 of the gates one by one, in both buffer
    modes, and bit for bit the tensordot of each block. A layer with no
    two adjacent qubits is applied gate by gate."""

    @given(_layer_circuits(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_gate_by_gate(self, case, in_place):
        n, ops, amps = case
        before = amps.copy()
        with mock.patch.object(qckit.circuit, "_ONE_BUFFER_QUBITS",
                               1 if in_place else 64):
            got = simulate(Circuit(n, ops), StateVector(n, amps))
        want = _gate_by_gate(n, ops, {}, before, fused=False)
        assert np.max(np.abs(got.amps - want)) < 1e-12
        assert got.amps.tobytes() == _gate_by_gate(n, ops, {},
                                                   before).tobytes()
        assert np.array_equal(amps, before)

    @pytest.mark.parametrize("in_place", [False, True])
    def test_no_adjacent_pair_keeps_the_gate_bytes(self, in_place, rng):
        n = 12
        ops = [GateApp(NAMED, (7,), name="h"),
               GateApp(UNITARY, (0,), matrix=random_unitary(2, rng)),
               GateApp(NAMED, (11,), name="h"),
               GateApp(NAMED, (2,), name="h"),
               GateApp(UNITARY, (9,), matrix=random_unitary(2, rng))]
        amps = random_state(n, rng)
        assert _layer_targets(ops) == [(7,), (0,), (11,), (2,), (9,)]
        with mock.patch.object(qckit.circuit, "_ONE_BUFFER_QUBITS",
                               1 if in_place else 64):
            got = simulate(Circuit(n, ops), StateVector(n, amps))
        want = _gate_by_gate(n, ops, {}, amps, fused=False)
        assert got.amps.tobytes() == want.tobytes()

    def test_blocks(self, rng):
        # sorted qubits cut greedily from the lowest into blocks of at
        # most 5; a repeated qubit or any other gate ends the layer
        h = GateApp(NAMED, (0,), name="h").matrix
        cores = {q: random_unitary(2, rng) for q in (9, 3, 12, 0, 6, 1)}
        ops = [GateApp(UNITARY, (q,), matrix=core)
               for q, core in cores.items()]
        ops += [GateApp(NAMED, (q,), name="h") for q in (2, 4, 5, 11)]
        cores.update({q: h for q in (2, 4, 5, 11)})
        calls = list(qckit.circuit._calls(ops))
        assert [call[1] for call in calls] == [
            (0, 1, 2, 3, 4), (5, 6), (9,), (11, 12)]
        for core, targets, controls in calls:
            want = functools.reduce(np.kron, [cores[q] for q in targets])
            assert core.tobytes() == want.tobytes() and controls == ()
        ops = [GateApp(NAMED, (q,), name="h") for q in (0, 1, 0)]
        ops += [GateApp(NAMED, (2,), name="h"), GateApp(NAMED, (3,), name="x"),
                GateApp(NAMED, (4,), name="h"),
                GateApp(NAMED, (5,), name="t"), GateApp(NAMED, (6,), name="h"),
                GateApp(NAMED, (7, 8), name="cx"),
                GateApp(NAMED, (9,), name="h")]
        assert _layer_targets(ops) == [(0, 1), (0,), (2,), (3,), (4,), (6,),
                                       (8,), (9,)]


@st.composite
def _phase_circuits(draw):
    """(n, ops, amps) on 1-12 qubits: runs of phase, t, s, z, cphase and
    `unitary` lines with core diag(1, p) under 0-3 controls, broken by h,
    x and a `unitary` diag(p, q) that is not fused; amplitudes include +0
    and -0."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = ["phase", "t", "s", "z", "diag", "h", "x", "unfused"]
    kinds += ["cphase"] if n >= 2 else []
    ops = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=24)):
        qubits = [int(q) for q in rng.permutation(n)]
        angle = float(rng.uniform(-np.pi, np.pi))
        if kind in ("diag", "unfused"):
            nc = int(rng.integers(min(3, n - 1) + 1))
            core = np.diag([np.exp(1j * rng.uniform(-np.pi, np.pi))
                            if kind == "unfused" else 1.0,
                            np.exp(1j * angle)])
            ops.append(GateApp(UNITARY, qubits[:nc + 1], matrix=core,
                               n_controls=nc))
        else:
            param = angle if kind in PARAMETRIC else None
            ops.append(GateApp(NAMED, qubits[:GATE_ARITY[kind]], name=kind,
                               param=param))
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps[rng.random(2 ** n) < 0.2] = 0.0
    amps[rng.random(2 ** n) < 0.3] *= -1.0
    return n, ops, amps / (np.linalg.norm(amps) or 1.0)


class TestFusedPhases:
    """`simulate` applies each run of gates whose core is diag(1, p) as
    one multiply by the run's phase table, within 1e-12 of the gates one
    by one, in both buffer modes and with tables split at 2 entries."""

    @given(_phase_circuits(), st.booleans(), st.sampled_from([2, 2 ** 10]))
    @settings(max_examples=200, deadline=None)
    def test_matches_gate_by_gate(self, case, in_place, table):
        n, ops, amps = case
        before = amps.copy()
        kernel = mock.patch.object(qckit.circuit, "apply_unitary",
                                   wraps=qckit.circuit.apply_unitary)
        buffers = mock.patch.object(qckit.circuit, "_ONE_BUFFER_QUBITS",
                                    1 if in_place else 64)
        with kernel as apply, buffers, \
                mock.patch.object(qckit.state, "_TABLE", table):
            got = simulate(Circuit(n, ops), StateVector(n, amps))
        want = _gate_by_gate(n, ops, {}, before, fused=False)
        assert np.max(np.abs(got.amps - want)) < 1e-12
        # no diagonal run reaches the kernel, and a layer's blocks do
        cores = [call.args[1] for call in apply.call_args_list]
        assert all(_phase_of(core) is None for core in cores)
        assert apply.call_count == sum(
            not isinstance(call, list)
            for call in qckit.circuit._calls(ops))
        assert np.array_equal(amps, before)

    def test_table_size_splits_a_run(self):
        # one qft cascade on qubit 0 of 12 needs a table over qubits 1-11
        ops = [GateApp(NAMED, (k, 0), name="cphase", param=0.1 * k)
               for k in range(1, 12)]
        amps = random_state(12, np.random.default_rng(7))
        tables = []
        group = qckit.state._multiply_group

        def recorded(amps, n, group_ops, common, union):
            tables.append(len(union - common))
            group(amps, n, group_ops, common, union)

        with mock.patch.object(qckit.state, "_multiply_group", recorded):
            got = simulate(Circuit(12, ops), StateVector(12, amps))
        # 2**10 = _TABLE entries, then the last cphase alone, whose qubits
        # are all indexed away
        assert tables == [10, 0]
        want = _gate_by_gate(12, ops, {}, amps, fused=False)
        assert np.max(np.abs(got.amps - want)) < 1e-12


class TestStepCache:
    def test_same_bytes_cold_and_warm(self, rng):
        # every kernel form, an oracle and a diagonal run, with the step
        # cache empty and then holding every step
        n = 12
        ops = [GateApp(NAMED, (q,), name="h") for q in range(n)]
        ops += [
            GateApp(NAMED, (3, 1), name="cphase", param=0.3),
            GateApp(NAMED, (1,), name="t"),
            GateApp(NAMED, (0,), name="x"),                     # move
            GateApp(NAMED, (11,), name="y"),                    # kron rows
            GateApp(UNITARY, (2, 5), matrix=random_unitary(2, rng),
                    n_controls=1),                              # columns
            GateApp(UNITARY, (0, 7, 9, 10, 11),
                    matrix=_signed_permutation_core(rng, 4, False),
                    n_controls=1),                              # gather
            GateApp(UNITARY, (4, 8), matrix=random_unitary(4, rng)),
            GateApp(ORACLE, (2, 6, 10), name="f"),
        ]
        oracles = {"f": Oracle(2, (0, 1, 1, 0))}
        circuit = Circuit(n, ops * 2)
        with fresh_steps():
            cold = simulate(circuit, oracle_table=oracles).amps
            info = qckit.state._step.cache_info()
            warm = simulate(circuit, oracle_table=oracles).amps
            assert qckit.state._step.cache_info().hits == (
                info.hits + info.misses + info.hits)
        assert cold.tobytes() == warm.tobytes()

