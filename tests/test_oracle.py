import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qckit.oracle

from qckit.circuit import Circuit, GateApp, ORACLE, simulate
from qckit.errors import CapacityError, DimensionError, ParseError
from qckit.gates import standard_gate_matrix
from qckit.oracle import (
    Oracle,
    QueryCounter,
    apply_oracle,
    classical_query,
    min_deterministic_queries_dj,
    oracle_gate,
    parse_oracle,
    serialize_oracle,
)
from qckit.state import StateVector, new_zero_state

from conftest import random_state


def all_oracles(n):
    for bits in itertools.product((0, 1), repeat=2 ** n):
        yield Oracle(n, bits)


class TestOracleGate:
    def test_constant_zero_is_identity(self):
        assert np.array_equal(oracle_gate(Oracle(2, (0, 0, 0, 0))), np.eye(8))

    def test_constant_one_flips_ancilla(self):
        got = oracle_gate(Oracle(2, (1, 1, 1, 1)))
        expected = np.kron(np.eye(4), standard_gate_matrix("x"))
        assert np.array_equal(got, expected)

    def test_identity_indicator_is_cnot(self):
        # oracle: enumerate all 4 basis states through (x, b) -> (x, b^x)
        assert np.array_equal(
            oracle_gate(Oracle(1, (0, 1))), standard_gate_matrix("cx")
        )

    def test_capacity(self):
        with pytest.raises(CapacityError):
            oracle_gate(Oracle(12, (0,) * 4096))

    def test_involution_all_small_oracles(self, rng):
        for n in (1, 2, 3):
            psi = random_state(n + 1, rng)
            for oracle in all_oracles(n):
                u = oracle_gate(oracle)
                assert np.max(np.abs(u @ (u @ psi) - psi)) < 1e-12

    def test_basis_consistency_with_classical_query(self):
        # the gate driven on basis states equals classical_query semantics
        for oracle in all_oracles(2):
            u = oracle_gate(oracle)
            for x in range(4):
                for b in (0, 1):
                    counter = QueryCounter()
                    fx = classical_query(oracle, format(x, "02b"), counter)
                    col = u[:, 2 * x + b]
                    assert col[2 * x + (b ^ fx)] == 1.0
                    assert np.sum(np.abs(col)) == 1.0

    def test_linearity_on_superpositions(self, rng):
        oracle = Oracle(2, (0, 1, 1, 0))
        u = oracle_gate(oracle)
        for _ in range(20):
            psi = random_state(3, rng)
            expected = np.zeros_like(psi)
            for idx in range(8):
                x, b = divmod(idx, 2)
                expected[2 * x + (b ^ oracle.table[x])] += psi[idx]
            assert np.max(np.abs(u @ psi - expected)) < 1e-12


class TestApplyOracle:
    def test_matches_explicit_matrix(self, rng):
        for oracle in (Oracle(2, (0, 1, 1, 0)), Oracle(2, (1, 0, 0, 0))):
            psi = random_state(3, rng)
            via_kernel = apply_oracle(
                StateVector(3, psi), oracle, [0, 1], 2
            ).amps
            via_matrix = oracle_gate(oracle) @ psi
            assert np.max(np.abs(via_kernel - via_matrix)) < 1e-12

    def test_scattered_targets(self, rng):
        # oracle inputs need not be contiguous or in register order
        oracle = Oracle(2, (0, 1, 1, 0))
        psi = random_state(4, rng)
        out = apply_oracle(StateVector(4, psi), oracle, [3, 1], 0).amps
        expected = np.zeros_like(psi)
        for idx in range(16):
            bits = [(idx >> (3 - q)) & 1 for q in range(4)]
            x = bits[3] * 2 + bits[1]
            bits[0] ^= oracle.table[x]
            j = sum(b << (3 - q) for q, b in enumerate(bits))
            expected[j] += psi[idx]
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_counter_incremented(self):
        counter = QueryCounter()
        apply_oracle(new_zero_state(2), Oracle(1, (0, 0)), [0], 1, counter)
        assert counter.quantum_queries == 1

    def test_query_counting_through_simulate(self):
        oracle = Oracle(1, (1, 0), name="f")
        ops = [GateApp(ORACLE, (0, 1), name="f") for _ in range(4)]
        counter = QueryCounter()
        simulate(
            Circuit(2, ops), oracle_table={"f": oracle}, counter=counter
        )
        assert counter.quantum_queries == 4

    def test_bad_targets(self):
        with pytest.raises(DimensionError):
            apply_oracle(new_zero_state(2), Oracle(1, (0, 1)), [0], 0)
        with pytest.raises(DimensionError):
            apply_oracle(new_zero_state(2), Oracle(2, (0, 1, 0, 1)), [0], 1)


def _permuted(psi, n, table, x_targets, b_target):
    """The oracle as an explicit permutation of basis indices."""
    expected = np.empty_like(psi)
    for idx in range(2 ** n):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        x = int("".join(str(bits[q]) for q in x_targets), 2)
        bits[b_target] ^= table[x]
        expected[int("".join(map(str, bits)), 2)] = psi[idx]
    return expected


class TestApplyOracleExact:
    @given(st.integers(2, 10), st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_permutation(self, n, seed, use_out):
        rng = np.random.default_rng(seed)
        qubits = [int(q) for q in rng.permutation(n)]
        n_inputs = int(rng.integers(1, n))
        x_targets, b_target = qubits[:n_inputs], qubits[n_inputs]
        table = tuple(int(b) for b in rng.integers(0, 2, 2 ** n_inputs))
        psi = random_state(n, rng)
        psi[rng.random(2 ** n) < 0.2] *= -0.0
        before = psi.copy()
        out = np.full_like(psi, np.nan) if use_out else None
        got = apply_oracle(StateVector(n, psi), Oracle(n_inputs, table),
                           x_targets, b_target, out=out).amps
        want = _permuted(before, n, table, x_targets, b_target)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(psi.view(np.uint64), before.view(np.uint64))
        if use_out:
            assert got is out

    def test_out_aliasing_state_rejected(self, rng):
        psi = random_state(3, rng)
        with pytest.raises(DimensionError):
            apply_oracle(StateVector(3, psi), Oracle(2, (0, 1, 1, 0)),
                         [0, 1], 2, out=psi)

    @given(st.integers(2, 10), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["first", "middle", "last"]), st.booleans(),
           st.sampled_from([1, 2, 8, 64]))
    @settings(max_examples=120, deadline=None)
    def test_blocked_matches_permutation(self, n, seed, b_place, leading,
                                         chunk):
        # chunks far smaller than the state put b and the x bits on both
        # sides of the cut between a row and the leading axes
        rng = np.random.default_rng(seed)
        b_target = {"first": 0, "middle": n // 2, "last": n - 1}[b_place]
        others = [q for q in range(n) if q != b_target]
        n_inputs = int(rng.integers(1, n))
        x_targets = (others[:n_inputs] if leading
                     else sorted(rng.choice(others, n_inputs, replace=False)))
        x_targets = [int(q) for q in rng.permutation(x_targets)]
        table = tuple(int(b) for b in rng.integers(0, 2, 2 ** n_inputs))
        psi = random_state(n, rng)
        psi[rng.random(2 ** n) < 0.2] *= -0.0
        before = psi.copy()
        with mock.patch.object(qckit.oracle, "_CHUNK", chunk):
            got = apply_oracle(StateVector(n, psi), Oracle(n_inputs, table),
                               x_targets, b_target).amps
        want = _permuted(before, n, table, x_targets, b_target)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(psi.view(np.uint64), before.view(np.uint64))


class TestClassicalQuery:
    def test_lookup_and_count(self):
        counter = QueryCounter()
        assert classical_query(Oracle(1, (0, 1)), "1", counter) == 1
        assert counter.classical_queries == 1

    def test_constant(self):
        counter = QueryCounter()
        for x in ("00", "01", "10", "11"):
            assert classical_query(Oracle(2, (1, 1, 1, 1)), x, counter) == 1

    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            classical_query(Oracle(2, (0, 0, 0, 0)), "0", QueryCounter())


class TestMinDeterministicQueries:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 3), (3, 5)])
    def test_classical_bound(self, n, expected):
        # exhaustive decision-tree search; equals 2^(n-1) + 1
        assert min_deterministic_queries_dj(n) == expected

    def test_out_of_range(self):
        with pytest.raises(CapacityError):
            min_deterministic_queries_dj(4)


class TestOracleFormat:
    def test_parse(self):
        o = parse_oracle("inputs 2\n0110\n", name="f")
        assert o == Oracle(2, (0, 1, 1, 0), name="f")

    def test_round_trip(self):
        o = Oracle(3, (1, 0, 1, 0, 0, 1, 0, 1), name="g")
        assert parse_oracle(serialize_oracle(o), name="g") == o

    def test_wrong_length(self):
        with pytest.raises(ParseError):
            parse_oracle("inputs 2\n01\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_oracle("qubits 2\n0110\n")


class TestTableBoundary:
    BITS = (0, 1, 1, 0, 1, 0, 0, 1)

    @pytest.mark.parametrize("table", [
        BITS, list(BITS), np.array(BITS), np.array(BITS, dtype=bool),
        np.array(BITS, dtype=np.uint8), np.array(BITS, dtype=float),
        bytes(BITS),
    ], ids=["tuple", "list", "int-array", "bool-array", "uint8-array",
            "float-array", "bytes"])
    def test_every_form_gives_one_oracle(self, table):
        o = Oracle(3, table, name="f")
        ref = Oracle(3, self.BITS, name="f")
        assert o == ref and hash(o) == hash(ref)
        assert o.table == bytes(self.BITS)
        assert [o.table[x] for x in range(8)] == list(self.BITS)

    @pytest.mark.parametrize("table", [
        (0, 1, 2, 0), (0, -1, 1, 0), (0, 0.5, 1, 0), ("0", "1", "1", "0"),
        b"\x00\x01\x02\x00", np.array([0, 1, 1, 0], dtype=complex),
    ], ids=["two", "minus-one", "half", "strings", "byte-two", "complex"])
    def test_non_bits_rejected(self, table):
        with pytest.raises(DimensionError, match="bits"):
            Oracle(2, table)

    @pytest.mark.parametrize("table", [
        [[0, 1], [1, 0]], np.zeros((2, 2)), [[0, 1], [1]], 1, "0110", None,
    ], ids=["nested", "2-d-array", "ragged", "scalar", "string", "none"])
    def test_non_1d_rejected(self, table):
        with pytest.raises(DimensionError, match="1-D"):
            Oracle(2, table)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError, match="length"):
            Oracle(2, (0, 1, 1))

    @pytest.mark.parametrize("char", ["2", " ", "é"])
    def test_bad_bitstring_character_names_line(self, char):
        with pytest.raises(ParseError, match="line 3:"):
            parse_oracle(f"# f\ninputs 2\n01{char}0\n")

    @pytest.mark.parametrize("n", [1, 20])
    def test_round_trip(self, n):
        table = np.random.default_rng(n).integers(0, 2, 2 ** n)
        text = f"inputs {n}\n" + "".join(map(str, table)) + "\n"
        o = parse_oracle(text, name="f")
        assert o.table == table.astype(np.uint8).tobytes()
        assert serialize_oracle(o) == text
        assert parse_oracle(serialize_oracle(o), name="f") == o


class TestSharedTargetCheck:
    @pytest.mark.parametrize("x_targets, b_target", [([0], 0), ([0], 2)])
    def test_apply_oracle_uses_the_shared_check(self, x_targets, b_target):
        with mock.patch("qckit.oracle._check_targets",
                        wraps=qckit.oracle._check_targets) as check:
            with pytest.raises(DimensionError):
                apply_oracle(new_zero_state(2), Oracle(1, (0, 1)),
                             x_targets, b_target)
        check.assert_called_once_with(2, x_targets + [b_target])
