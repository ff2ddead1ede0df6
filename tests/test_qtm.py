import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qckit.compiler import compile_qtm_step
from qckit.errors import (
    CapacityError,
    DimensionError,
    ParseError,
    StateError,
    WellFormednessError,
)
from qckit.oracle import Oracle, QueryCounter, oracle_gate
from qckit.qtm import (
    MAX_CONFIGS,
    MAX_TAPE_CELLS,
    ConfigSpace,
    QTMDef,
    QTMState,
    Transition,
    check_well_formed,
    initial_qtm_state,
    oracle_step,
    parse_qtm,
    run_qtm,
    step_operator,
    _gram_violations,
    _step_entries,
)

from conftest import (
    coin_machine,
    doubled_branch_machine,
    move_right_machine,
    partial_machine,
    random_unitary,
)
from test_output_contract import FILES

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestConfigSpace:
    def test_enumeration_size(self):
        space = ConfigSpace(move_right_machine(), 3)
        assert space.size == 1 * 3 * 2 ** 3

    def test_index_decode_round_trip(self):
        space = ConfigSpace(coin_machine(), 3)
        for c in range(space.size):
            state, head, word = space.decode(c)
            assert space.index(state, head, word) == c

    def test_capacity(self):
        with pytest.raises(CapacityError):
            ConfigSpace(move_right_machine(), 11)

    def test_one_symbol_window_cap(self):
        # one axis per cell: the widest window keeps the array at 32 axes
        machine = QTMDef(["q0"], ["_"], "q0", "q0",
                         {("q0", "_"): [Transition("q0", "_", "R", 1.0)]})
        assert check_well_formed(machine, MAX_TAPE_CELLS)[0]
        space = ConfigSpace(machine, MAX_TAPE_CELLS)
        assert space.decode(space.size - 1)[1] == MAX_TAPE_CELLS - 1
        with pytest.raises(CapacityError, match="cells"):
            ConfigSpace(machine, MAX_TAPE_CELLS + 1)


class TestStepOperator:
    def test_move_right_is_permutation(self):
        # oracle: enumerate all 8 configurations on T=2 and their images
        m = step_operator(move_right_machine(), 2)
        assert m.shape == (8, 8)
        assert np.array_equal(np.abs(m) ** 2, np.abs(m))  # 0/1 entries
        assert np.array_equal(m @ m.conj().T, np.eye(8))
        space = ConfigSpace(move_right_machine(), 2)
        for c in range(8):
            state, head, word = space.decode(c)
            image = space.index(state, (head + 1) % 2, word)
            assert m[image, c] == 1.0

    def test_undefined_pair_gives_zero_column(self):
        m = step_operator(partial_machine(), 2)
        space = ConfigSpace(partial_machine(), 2)
        col = space.index("q0", 0, ("1", "0"))
        assert np.all(m[:, col] == 0)

    def test_construction_linear_in_amplitudes(self):
        base = move_right_machine()
        scaled = QTMDef(
            base.states, base.alphabet, base.initial, base.final,
            {
                key: [
                    Transition(t.state, t.symbol, t.direction, 2 * t.amplitude)
                    for t in branches
                ]
                for key, branches in base.transitions.items()
            },
        )
        assert np.array_equal(
            step_operator(scaled, 2), 2 * step_operator(base, 2)
        )


class TestWellFormedness:
    def test_move_right_well_formed(self):
        ok, violations = check_well_formed(move_right_machine(), 2)
        assert ok and violations == []

    def test_coin_machine_well_formed(self):
        ok, violations = check_well_formed(coin_machine(), 2)
        assert ok and violations == []

    def test_doubled_branch_reports_column_norm(self):
        ok, violations = check_well_formed(doubled_branch_machine(), 2)
        assert not ok
        assert any("squared norm 2" in v for v in violations)

    def test_partial_machine_fails(self):
        ok, _ = check_well_formed(partial_machine(), 2)
        assert not ok

    @pytest.mark.parametrize("tape_cells", [2, 3, 4])
    def test_verdict_window_robustness(self, tape_cells):
        assert check_well_formed(move_right_machine(), tape_cells)[0]
        assert check_well_formed(coin_machine(), tape_cells)[0]
        assert not check_well_formed(doubled_branch_machine(), tape_cells)[0]
        assert not check_well_formed(partial_machine(), tape_cells)[0]


class TestRunQTM:
    def test_zero_steps(self):
        st = run_qtm(move_right_machine(), "01", 0, 3)
        expected = initial_qtm_state(move_right_machine(), "01", 3)
        assert np.array_equal(st.amps, expected.amps)

    def test_move_right_one_step(self):
        st = run_qtm(move_right_machine(), "01", 1, 3)
        space = st.space
        target = space.index("q0", 1, ("0", "1", "0"))
        assert st.amps[target] == 1.0
        assert np.sum(np.abs(st.amps)) == 1.0

    def test_coin_one_step_superposition(self):
        st = run_qtm(coin_machine(), "0", 1, 2)
        space = st.space
        a = st.amps[space.index("q0", 1, ("0", "0"))]
        b = st.amps[space.index("q0", 1, ("1", "0"))]
        assert a == pytest.approx(INV_SQRT2)
        assert b == pytest.approx(INV_SQRT2)
        assert np.sum(np.abs(st.amps) > 0) == 2

    def test_not_well_formed_rejected(self):
        with pytest.raises(WellFormednessError):
            run_qtm(doubled_branch_machine(), "0", 1, 2)

    @pytest.mark.parametrize("machine,cells", [
        (doubled_branch_machine(), 8), (parse_qtm(FILES["mixed.qtm"]), 4)])
    def test_error_shows_first_three_violations(self, machine, cells):
        want = ("machine is not well-formed on this window: "
                + "; ".join(check_well_formed(machine, cells)[1][:3]))
        for run in (lambda: run_qtm(machine, "", 1, cells),
                    lambda: compile_qtm_step(machine, cells)):
            with pytest.raises(WellFormednessError) as err:
                run()
            assert str(err.value) == want

    @pytest.mark.parametrize(
        "machine", [move_right_machine(), coin_machine()]
    )
    def test_norm_preserved_50_steps(self, machine):
        st = run_qtm(machine, "01", 50, 3)
        assert abs(st.norm() - 1.0) < 1e-8

    def test_unitarity_tight(self):
        for machine in (move_right_machine(), coin_machine()):
            for t in (2, 3, 4):
                m = step_operator(machine, t)
                dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
                assert dev < 1e-9


class TestOracleStep:
    def _state(self, machine, word, tape_cells):
        return initial_qtm_state(machine, word, tape_cells)

    def test_constant_zero_unchanged(self):
        st = self._state(coin_machine(), "10", 3)
        out = oracle_step(st, Oracle(1, (0, 0)), [0], 1)
        assert np.array_equal(out.amps, st.amps)

    def test_xor_write(self):
        st = self._state(coin_machine(), "10", 2)
        out = oracle_step(st, Oracle(1, (0, 1)), [0], 1)
        space = out.space
        assert out.amps[space.index("q0", 0, ("1", "1"))] == 1.0

    def test_counter(self):
        counter = QueryCounter()
        st = self._state(coin_machine(), "0", 2)
        oracle_step(st, Oracle(1, (0, 0)), [0], 1, counter)
        assert counter.quantum_queries == 1

    def test_involution_small_oracles(self):
        import itertools

        machine = coin_machine()
        st = run_qtm(machine, "10", 2, 3)  # a genuine superposition
        for bits in itertools.product((0, 1), repeat=4):
            oracle = Oracle(2, bits)
            once = oracle_step(st, oracle, [0, 1], 2)
            twice = oracle_step(once, oracle, [0, 1], 2)
            assert np.max(np.abs(twice.amps - st.amps)) < 1e-12

    def test_matches_circuit_oracle_on_encoded_register(self, rng):
        # one-state binary machine with head fixed: configurations are in
        # bijection with tape words, so the QTM-side oracle must act like
        # the circuit-side oracle gate on that register
        machine = coin_machine()
        st = run_qtm(machine, "00", 2, 3)
        oracle = Oracle(2, (0, 1, 1, 0))
        out = oracle_step(st, oracle, [0, 1], 2)
        space = st.space
        # project amplitudes onto (word) for the head-position/state slice
        u = oracle_gate(oracle)
        for head in range(3):
            vec = np.array([
                st.amps[space.index("q0", head, tuple(format(w, "03b")))]
                for w in range(8)
            ])
            got = np.array([
                out.amps[space.index("q0", head, tuple(format(w, "03b")))]
                for w in range(8)
            ])
            assert np.max(np.abs(got - u @ vec)) < 1e-12

    def test_non_binary_symbol_rejected(self):
        machine = QTMDef(
            ["q0"], ["_", "0", "1"], "q0", "q0",
            {
                ("q0", s): [Transition("q0", s, "R", 1.0)]
                for s in ("_", "0", "1")
            },
        )
        st = initial_qtm_state(machine, "0", 2)  # cell 1 is blank '_'
        with pytest.raises(StateError):
            oracle_step(st, Oracle(1, (0, 1)), [1], 0)


class TestQTMFormat:
    TEXT = """states q0 q1 ; initial q0 ; final q1
alphabet _ 0 1
q0 0 -> q0 0 R 0.7071067811865476 0
q0 0 -> q0 1 R 0.7071067811865476 0
"""

    def test_parse(self):
        machine = parse_qtm(self.TEXT)
        assert machine.states == ["q0", "q1"]
        assert machine.alphabet[0] == "_"
        assert machine.final == "q1"
        branches = machine.transitions[("q0", "0")]
        assert len(branches) == 2
        assert branches[0].amplitude == pytest.approx(INV_SQRT2)

    def test_bad_direction(self):
        with pytest.raises(ParseError):
            parse_qtm(
                "states q0 ; initial q0 ; final q0\nalphabet _\n"
                "q0 _ -> q0 _ X 1 0\n"
            )

    def test_undeclared_state(self):
        with pytest.raises(ParseError):
            parse_qtm(
                "states q0 ; initial q0 ; final q0\nalphabet _\n"
                "q0 _ -> q9 _ R 1 0\n"
            )

    def test_final_state_with_transitions_rejected(self):
        with pytest.raises(DimensionError):
            QTMDef(
                ["q0", "qf"], ["_"], "q0", "qf",
                {("qf", "_"): [Transition("qf", "_", "R", 1.0)]},
            )


class TestQTMText:
    """The machine text shares the circuit and oracle texts' line rules."""

    PLAIN = ("states a b ; initial a ; final a\nalphabet _ 1\n"
             "a _ -> b 1 R 1 0\na 1 -> a 1 L 1 0\n"
             "b _ -> a _ L 1 0\nb 1 -> b _ R 1 0\n")

    def test_comments_and_blank_lines(self):
        lines = self.PLAIN.splitlines()
        text = "# machine\n\n" + "".join(
            f"{line}  # {i}\n\n" for i, line in enumerate(lines))
        assert parse_qtm(text) == parse_qtm(self.PLAIN)

    def test_header_without_spaces_around_semicolons(self):
        text = self.PLAIN.replace(" ; ", ";")
        assert parse_qtm(text) == parse_qtm(self.PLAIN)

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("states a ; initial a\nalphabet _\n", 1),
        (" ; initial a ; final a\nalphabet _\n", 1),
        ("states a ; initial a ; final a\n# none\n", 1),
        ("states a ; initial a ; final a\nalphabet _\n"
         "a _ -> a _ R nan 0\n", 3),
        ("states a ; initial a ; final a\nalphabet _\n\n"
         "a _ -> a _ R 1 one\n", 4),
    ], ids=["empty", "two-parts", "no-states", "no-alphabet",
            "nan-amplitude", "bad-amplitude"])
    def test_errors_name_their_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_qtm(text)
        assert exc.value.line == line


class _LoopSpace:
    """Configuration enumeration by integer arithmetic, one configuration
    at a time: the reference the array-index ConfigSpace must match."""

    def __init__(self, qtm, tape_cells):
        self.qtm, self.cells = qtm, tape_cells
        self.n_sym = len(qtm.alphabet)
        self.n_words = self.n_sym ** tape_cells
        self.size = len(qtm.states) * tape_cells * self.n_words

    def index(self, state, head, word):
        w = 0
        for sym in word:
            w = w * self.n_sym + self.qtm.alphabet.index(sym)
        return ((self.qtm.states.index(state) * self.cells + head)
                * self.n_words + w)

    def decode(self, c):
        w, rest = c % self.n_words, c // self.n_words
        word = []
        for _ in range(self.cells):
            word.append(self.qtm.alphabet[w % self.n_sym])
            w //= self.n_sym
        return (self.qtm.states[rest // self.cells], rest % self.cells,
                tuple(reversed(word)))

    def label(self, c):
        state, head, word = self.decode(c)
        return f"({state}, head={head}, tape={''.join(word)})"


def loop_step_operator(qtm, tape_cells):
    """Per-configuration construction of the step operator."""
    space = _LoopSpace(qtm, tape_cells)
    m = np.zeros((space.size, space.size), dtype=np.complex128)
    for c in range(space.size):
        state, head, word = space.decode(c)
        for tr in qtm.transitions.get((state, word[head]), []):
            new_word = list(word)
            new_word[head] = tr.symbol
            step = 1 if tr.direction == "R" else -1
            c2 = space.index(tr.state, (head + step) % tape_cells,
                             tuple(new_word))
            m[c2, c] += tr.amplitude
    return m


def loop_oracle_step(qtm, tape_cells, amps, oracle, x_cells, b_cell):
    """Per-configuration XOR oracle call on the tape."""
    space = _LoopSpace(qtm, tape_cells)
    new_amps = np.zeros_like(amps)
    for c in range(space.size):
        amp = amps[c]
        if amp == 0:
            continue
        q, head, word = space.decode(c)
        if any(word[cell] not in ("0", "1") for cell in [*x_cells, b_cell]):
            raise StateError(
                f"non-binary symbol at queried cells in {space.label(c)}"
            )
        if oracle.table[int("".join(word[cell] for cell in x_cells), 2)]:
            new_word = list(word)
            new_word[b_cell] = "1" if word[b_cell] == "0" else "0"
            c = space.index(q, head, tuple(new_word))
        new_amps[c] += amp
    return new_amps


AMPLITUDES = [1.0, -1.0, INV_SQRT2, -INV_SQRT2, 0.6j, complex(0.8, -0.0),
              complex(-0.0, -0.5)]
MAX_TEST_CONFIGS = 1500


@st.composite
def machines(draw, alphabets, amplitudes=AMPLITUDES):
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    alphabet = list(draw(alphabets))
    transitions = {}
    for key in itertools.product(states, alphabet):
        if not draw(st.booleans()):
            continue
        branches = draw(st.lists(st.builds(
            Transition, st.sampled_from(states), st.sampled_from(alphabet),
            st.sampled_from("LR"), st.sampled_from(amplitudes),
        ), min_size=1, max_size=3))
        if draw(st.booleans()):  # the same branch twice on one key
            branches.append(branches[0])
        transitions[key] = branches
    machine = QTMDef(states, alphabet, "q0", "q0", transitions)
    cells = draw(st.integers(1, 5))
    assume(len(states) * cells * len(alphabet) ** cells <= MAX_TEST_CONFIGS)
    return machine, cells


ANY_ALPHABET = st.sampled_from(["_", "01", "ab_", "_01", "10"])
BINARY_ALPHABET = st.sampled_from(["01", "10", "_01", "0_1", "10_"])


class TestDifferential:
    @given(machines(ANY_ALPHABET))
    @settings(max_examples=80, deadline=None)
    def test_step_operator_matches_loop(self, case):
        machine, cells = case
        got = step_operator(machine, cells)
        want = loop_step_operator(machine, cells)
        assert got.tobytes() == want.tobytes()
        space, ref = ConfigSpace(machine, cells), _LoopSpace(machine, cells)
        for c in range(space.size):
            assert space.decode(c) == ref.decode(c)
            assert space.index(*ref.decode(c)) == c
            assert space.label(c) == ref.label(c)

    @given(machines(BINARY_ALPHABET), st.data())
    @settings(max_examples=80, deadline=None)
    def test_oracle_step_matches_loop(self, case, data):
        machine, cells = case
        assume(cells >= 2)
        order = data.draw(st.permutations(range(cells)))
        n_inputs = data.draw(st.integers(1, cells - 1))
        x_cells, b_cell = list(order[:n_inputs]), order[n_inputs]
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        oracle = Oracle(n_inputs, rng.integers(0, 2, 2 ** n_inputs))
        space, ref = ConfigSpace(machine, cells), _LoopSpace(machine, cells)
        amps = rng.normal(size=space.size) + 1j * rng.normal(size=space.size)
        if data.draw(st.booleans()):  # clear the non-binary configurations
            for c in range(space.size):
                word = ref.decode(c)[2]
                if any(word[k] == "_" for k in [*x_cells, b_cell]):
                    amps[c] = 0.0
        amps[rng.random(space.size) < 0.2] = complex(-0.0, -0.0)
        amps[rng.random(space.size) < 0.1] = complex(0.3, -0.0)
        state = QTMState(space, amps.copy())
        try:
            want = loop_oracle_step(machine, cells, amps, oracle, x_cells,
                                    b_cell)
        except StateError as exc:
            with pytest.raises(StateError) as got:
                oracle_step(state, oracle, x_cells, b_cell)
            assert str(got.value) == str(exc)
            return
        got = oracle_step(state, oracle, x_cells, b_cell)
        assert got.amps.tobytes() == want.tobytes()
        assert state.amps.tobytes() == amps.tobytes()


def dense_violations(m, tol):
    """The dense Gram scan check_well_formed ran before the sparse one:
    entries (i, j, G[i, j]) of G = M†M with i <= j at least tol away from
    the identity, row-major."""
    gram = m.conj().T @ m
    rows, cols = np.nonzero(np.abs(gram - np.eye(len(m))) >= tol)
    upper = rows <= cols
    return rows[upper], cols[upper], gram[rows[upper], cols[upper]]


def violation_messages(qtm, tape_cells, rows, cols, gram):
    """The dense scan's message for each Gram entry, one label at a time."""
    space = _LoopSpace(qtm, tape_cells)
    violations = []
    for i, j, g in zip(rows, cols, gram):
        if i == j:
            violations.append(
                f"column {space.label(j)} has squared norm {g.real:.6g}"
            )
        else:
            violations.append(
                f"columns {space.label(i)} and {space.label(j)} are not "
                f"orthogonal (inner product magnitude {abs(g):.3g})"
            )
    return violations


def _machine(states, alphabet, branches):
    transitions = {}
    for q, sym, q2, sym2, direction, amp in branches:
        transitions.setdefault((q, sym), []).append(
            Transition(q2, sym2, direction, amp))
    return QTMDef(states, alphabet, states[0], states[0], transitions)


# two branches of one pair that cancel, and an explicit zero amplitude
CANCELLING = _machine(["q0", "q1"], ["0", "1"], [
    ("q0", "0", "q1", "1", "R", 1.0), ("q0", "0", "q1", "1", "R", -1.0),
    ("q0", "1", "q0", "0", "L", 0.0), ("q0", "1", "q1", "1", "R", 1.0),
    ("q1", "0", "q0", "1", "L", INV_SQRT2),
])
NO_TRANSITIONS = _machine(["q0", "q1"], ["0", "1"], [])
GRAM_AMPLITUDES = AMPLITUDES + [0.0, complex(-0.0, 0.0), -0.6j]


@st.composite
def unidirectional_machines(draw):
    """Machines that define every (state, symbol) pair and enter each
    state from one direction only, with their local map D over
    (state, symbol) -> (state, symbol), on windows of at least 3 cells."""
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    alphabet = list(draw(st.sampled_from(["01", "ab_", "_", "10"])))
    enters = {q: draw(st.sampled_from("LR")) for q in states}
    pairs = list(itertools.product(states, alphabet))
    n = len(pairs)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["unitary", "permutation", "perturbed",
                                 "drawn"]))
    if kind == "drawn":
        d = rng.choice(np.array(GRAM_AMPLITUDES), size=(n, n))
        d[rng.random((n, n)) < 0.5] = 0.0
    elif kind == "permutation":
        d = np.eye(n)[rng.permutation(n)] * np.exp(2j * np.pi * rng.random(n))
    else:
        d = random_unitary(n, rng)
        if kind == "perturbed":
            d[rng.integers(n), rng.integers(n)] += draw(
                st.sampled_from([1e-6, 0.5, -1.0]))
    branches = []
    for a, (q, sym) in enumerate(pairs):
        targets = [b for b in range(n) if d[b, a] != 0] or [0]
        for b in targets:  # an all-zero column keeps one zero branch
            q2, sym2 = pairs[b]
            branches.append((q, sym, q2, sym2, enters[q2], complex(d[b, a])))
    cells = draw(st.integers(3, 6))
    assume(len(states) * cells * len(alphabet) ** cells <= MAX_TEST_CONFIGS)
    return _machine(states, alphabet, branches), cells, d


class TestSparseStep:
    @given(machines(ANY_ALPHABET, GRAM_AMPLITUDES))
    @example((CANCELLING, 1))
    @example((CANCELLING, 3))
    @example((NO_TRANSITIONS, 2))
    @example((doubled_branch_machine(), 4))
    @settings(max_examples=80, deadline=None)
    def test_gram_matches_dense(self, case):
        machine, cells = case
        want = dense_violations(loop_step_operator(machine, cells), 1e-9)
        got = _gram_violations(_step_entries(machine, cells), 1e-9)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-12)
        ok, violations = check_well_formed(machine, cells)
        assert ok == (want[0].size == 0)
        assert violations == violation_messages(machine, cells, *got)
        space, ref = ConfigSpace(machine, cells), _LoopSpace(machine, cells)
        assert space.labels(np.arange(space.size)) == [
            ref.label(c) for c in range(space.size)]

    def test_messages_match_dense_scan(self):
        for machine in (doubled_branch_machine(), partial_machine(),
                        CANCELLING, NO_TRANSITIONS):
            for cells in (1, 2, 3):
                m = loop_step_operator(machine, cells)
                want = violation_messages(machine, cells,
                                          *dense_violations(m, 1e-9))
                assert check_well_formed(machine, cells)[1] == want

    @given(st.one_of(machines(ANY_ALPHABET, GRAM_AMPLITUDES),
                     unidirectional_machines().map(lambda c: c[:2])),
           st.integers(0, 2 ** 32 - 1))
    @example((CANCELLING, 3), 0)
    @example((NO_TRANSITIONS, 2), 0)
    @settings(max_examples=80, deadline=None)
    def test_step_matches_dense_product(self, case, seed):
        machine, cells = case
        m = loop_step_operator(machine, cells)
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=len(m)) + 1j * rng.normal(size=len(m))
        got = _step_entries(machine, cells).apply(amps)
        np.testing.assert_allclose(got, m @ amps, rtol=0, atol=1e-12)
        word = "".join(rng.choice(machine.alphabet, size=cells))
        if not check_well_formed(machine, cells)[0]:
            with pytest.raises(WellFormednessError):
                run_qtm(machine, word, 1, cells)
            return
        want = initial_qtm_state(machine, word, cells).amps
        for _ in range(4):
            want = m @ want
        got = run_qtm(machine, word, 4, cells).amps
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @given(unidirectional_machines())
    @settings(max_examples=120, deadline=None)
    def test_unidirectional_local_condition(self, case):
        # Bernstein & Vazirani (SIAM J. Comput. 26(5), 1997): a
        # unidirectional machine is well-formed iff its map D over
        # (state, symbol) -> (state, symbol) has orthonormal columns
        machine, cells, d = case
        local = np.max(np.abs(d.conj().T @ d - np.eye(len(d)))) < 1e-9
        assert check_well_formed(machine, cells)[0] == local

    def test_max_configs_memory(self):
        # a dense step operator at MAX_CONFIGS would be 256 MiB
        good = _machine(["a", "b"], ["0", "1"], [
            ("a", "0", "b", "1", "R", 1.0), ("a", "1", "a", "0", "L", 1.0),
            ("b", "0", "a", "1", "L", 1.0), ("b", "1", "b", "0", "R", 1.0),
        ])
        bad = _machine(["a", "b"], ["0", "1"], [
            ("a", "0", "b", "1", "R", 1.0), ("a", "0", "a", "0", "L", 1.0),
            ("b", "1", "b", "0", "R", 0.6),
        ])
        assert ConfigSpace(good, 8).size == MAX_CONFIGS
        calls = [lambda: check_well_formed(good, 8),
                 lambda: check_well_formed(bad, 8),
                 lambda: run_qtm(good, "0110", 20, 8)]
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2 ** 20
        assert not check_well_formed(bad, 8)[0]
