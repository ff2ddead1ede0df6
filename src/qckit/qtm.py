"""Quantum Turing Machines on a bounded cyclic tape window.

A machine is a finite description (states, alphabet, amplitude-weighted
transitions). Its one-step evolution is materialized as a matrix over the
finite configuration space (state, head position, tape word); unitarity of
that matrix is the well-formedness criterion. The head wraps cyclically at
the window edges so the step operator stays square.

Configuration enumeration is lexicographic by (state index, head position,
tape word with cell 0 most significant), fixed so matrices reproduce
byte-for-byte across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qckit.errors import (
    CapacityError,
    DimensionError,
    ParseError,
    StateError,
    WellFormednessError,
    at_line,
)
from qckit.oracle import Oracle, QueryCounter

MAX_CONFIGS = 4096


@dataclass(frozen=True)
class Transition:
    state: str
    symbol: str
    direction: str  # "L" or "R"
    amplitude: complex


@dataclass
class QTMDef:
    """Machine description. `alphabet[0]` is the blank symbol.

    The final state may coincide with the initial state (single-state
    machines); a distinct final state must have no outgoing transitions.
    """

    states: list[str]
    alphabet: list[str]
    initial: str
    final: str
    transitions: dict[tuple[str, str], list[Transition]]

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise DimensionError("duplicate state names")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise DimensionError("duplicate alphabet symbols")
        for name in (self.initial, self.final):
            if name not in self.states:
                raise DimensionError(f"undeclared state {name!r}")
        for (q, sym), branches in self.transitions.items():
            for tr in branches:
                self.check_transition(q, sym, tr)

    def check_transition(self, q: str, sym: str, tr: Transition) -> None:
        """Raise DimensionError unless (q, sym) -> tr fits this machine."""
        for name in (q, tr.state):
            if name not in self.states:
                raise DimensionError(f"undeclared state {name!r}")
        for s in (sym, tr.symbol):
            if s not in self.alphabet:
                raise DimensionError(f"undeclared symbol {s!r}")
        if q == self.final and q != self.initial:
            raise DimensionError(
                "final state must have no outgoing transitions"
            )
        if tr.direction not in ("L", "R"):
            raise DimensionError(f"bad direction {tr.direction!r}")
        if not np.isfinite(tr.amplitude):
            raise DimensionError("transition amplitude must be finite")


@dataclass
class ConfigSpace:
    """Deterministic enumeration of (state, head, tape word) configurations."""

    qtm: QTMDef
    tape_cells: int

    def __post_init__(self):
        if self.tape_cells < 1:
            raise DimensionError(
                f"tape window needs at least 1 cell, got {self.tape_cells}"
            )
        self.n_states = len(self.qtm.states)
        self.n_symbols = len(self.qtm.alphabet)
        self.n_words = self.n_symbols ** self.tape_cells
        self.size = self.n_states * self.tape_cells * self.n_words
        if self.size > MAX_CONFIGS:
            raise CapacityError(
                f"configuration space size {self.size} exceeds {MAX_CONFIGS}"
            )
        self._state_index = {q: i for i, q in enumerate(self.qtm.states)}
        self._symbol_index = {s: i for i, s in enumerate(self.qtm.alphabet)}

    def index(self, state: str, head: int, word: tuple[str, ...]) -> int:
        w = 0
        for sym in word:
            w = w * self.n_symbols + self._symbol_index[sym]
        return (
            self._state_index[state] * self.tape_cells + head
        ) * self.n_words + w

    def decode(self, index: int) -> tuple[str, int, tuple[str, ...]]:
        w = index % self.n_words
        rest = index // self.n_words
        head = rest % self.tape_cells
        state = self.qtm.states[rest // self.tape_cells]
        word = []
        for _ in range(self.tape_cells):
            word.append(self.qtm.alphabet[w % self.n_symbols])
            w //= self.n_symbols
        return state, head, tuple(reversed(word))

    def label(self, index: int) -> str:
        state, head, word = self.decode(index)
        return f"({state}, head={head}, tape={''.join(word)})"


@dataclass
class QTMState:
    """Superposition over a ConfigSpace; amplitudes normalized."""

    space: ConfigSpace
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (self.space.size,):
            raise DimensionError("amplitude count does not match space size")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def step_operator(qtm: QTMDef, tape_cells: int) -> np.ndarray:
    """One-step evolution matrix M with M[c', c] the amplitude of c -> c'.

    Columns of undefined (state, symbol) pairs are all zero; unitarity is
    not asserted here (that is check_well_formed's job).
    """
    space = ConfigSpace(qtm, tape_cells)
    m = np.zeros((space.size, space.size), dtype=np.complex128)
    for c in range(space.size):
        state, head, word = space.decode(c)
        for tr in qtm.transitions.get((state, word[head]), []):
            new_word = list(word)
            new_word[head] = tr.symbol
            step = 1 if tr.direction == "R" else -1
            new_head = (head + step) % tape_cells
            c2 = space.index(tr.state, new_head, tuple(new_word))
            m[c2, c] += tr.amplitude
    return m


def check_well_formed(
    qtm: QTMDef, tape_cells: int, tol: float = 1e-9
) -> tuple[bool, list[str]]:
    """True iff the step operator is unitary on the window within tol.

    Violations report offending configuration pairs of the Gram matrix
    M†M (diagonal entries are squared column norms).
    """
    space = ConfigSpace(qtm, tape_cells)
    m = step_operator(qtm, tape_cells)
    gram = m.conj().T @ m
    dev = gram - np.eye(space.size)
    violations = []
    rows, cols = np.nonzero(np.abs(dev) >= tol)
    for i, j in zip(rows, cols):
        if i == j:
            violations.append(
                f"column {space.label(j)} has squared norm "
                f"{gram[j, j].real:.6g}"
            )
        elif i < j:
            violations.append(
                f"columns {space.label(i)} and {space.label(j)} are not "
                f"orthogonal (inner product magnitude "
                f"{abs(gram[i, j]):.3g})"
            )
    return len(violations) == 0, violations


def initial_qtm_state(
    qtm: QTMDef, input_word: str | list[str], tape_cells: int
) -> QTMState:
    """Basis configuration: initial state, head at cell 0, input padded
    with blanks."""
    symbols = list(input_word)
    if len(symbols) > tape_cells:
        raise CapacityError(
            f"input length {len(symbols)} exceeds window {tape_cells}"
        )
    blank = qtm.alphabet[0]
    word = tuple(symbols + [blank] * (tape_cells - len(symbols)))
    for sym in word:
        if sym not in qtm.alphabet:
            raise DimensionError(f"input symbol {sym!r} not in alphabet")
    space = ConfigSpace(qtm, tape_cells)
    amps = np.zeros(space.size, dtype=np.complex128)
    amps[space.index(qtm.initial, 0, word)] = 1.0
    return QTMState(space, amps)


def run_qtm(
    qtm: QTMDef, input_word: str | list[str], steps: int, tape_cells: int
) -> QTMState:
    """Evolve the padded initial configuration for `steps` delta-steps."""
    ok, violations = check_well_formed(qtm, tape_cells)
    if not ok:
        raise WellFormednessError(
            "machine is not well-formed on this window: "
            + "; ".join(violations[:3])
        )
    state = initial_qtm_state(qtm, input_word, tape_cells)
    m = step_operator(qtm, tape_cells)
    amps = state.amps
    for _ in range(steps):
        amps = m @ amps
    return QTMState(state.space, amps)


def oracle_step(
    state: QTMState,
    oracle: Oracle,
    x_cells: list[int],
    b_cell: int,
    counter: QueryCounter | None = None,
) -> QTMState:
    """QTM-side oracle call: XOR the indicator of the tape bits at x_cells
    into the bit at b_cell, componentwise over the superposition.

    A permutation on configurations, hence unitary; counts one quantum
    query. Queried cells must hold binary symbols wherever the amplitude
    is nonzero.
    """
    space = state.space
    cells = list(x_cells) + [b_cell]
    if len(cells) - 1 != oracle.n_inputs:
        raise DimensionError(
            f"oracle expects {oracle.n_inputs} input cells, got {len(cells) - 1}"
        )
    if len(set(cells)) != len(cells):
        raise DimensionError("queried cells must be distinct")
    for cell in cells:
        if not 0 <= cell < space.tape_cells:
            raise DimensionError(f"cell {cell} outside the tape window")
    for sym in ("0", "1"):
        if sym not in space.qtm.alphabet:
            raise DimensionError(
                "oracle_step needs '0' and '1' in the alphabet"
            )

    new_amps = np.zeros_like(state.amps)
    for c in range(space.size):
        amp = state.amps[c]
        if amp == 0:
            continue
        q, head, word = space.decode(c)
        picked = [word[cell] for cell in cells]
        if any(sym not in ("0", "1") for sym in picked):
            raise StateError(
                f"non-binary symbol at queried cells in {space.label(c)}"
            )
        x = int("".join(word[cell] for cell in x_cells), 2)
        if oracle.table[x]:
            new_word = list(word)
            new_word[b_cell] = "1" if word[b_cell] == "0" else "0"
            c = space.index(q, head, tuple(new_word))
        new_amps[c] += amp
    if counter is not None:
        counter.quantum_queries += 1
    return QTMState(space, new_amps)


def parse_qtm(text: str) -> QTMDef:
    """Parse the machine text format:

        states q0 q1 ; initial q0 ; final q1
        alphabet _ 0 1
        q sym -> q' sym' L|R re im
    """
    states = header = None
    transitions: dict[tuple[str, str], list[Transition]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if states is None:
            parts = [p.strip() for p in line.split(";")]
            if len(parts) != 3:
                raise ParseError(
                    lineno, "expected 'states ... ; initial q ; final q'"
                )
            s_toks = parts[0].split()
            i_toks = parts[1].split()
            f_toks = parts[2].split()
            if (
                len(s_toks) < 2 or s_toks[0] != "states"
                or len(i_toks) != 2 or i_toks[0] != "initial"
                or len(f_toks) != 2 or f_toks[0] != "final"
            ):
                raise ParseError(lineno, "malformed states header")
            states, initial, final = s_toks[1:], i_toks[1], f_toks[1]
            with at_line(lineno):  # the header alone, with no alphabet
                QTMDef(states, [], initial, final, {})
            continue
        if header is None:
            toks = line.split()
            if toks[0] != "alphabet" or len(toks) < 2:
                raise ParseError(lineno, "expected 'alphabet <blank> ...'")
            with at_line(lineno):
                # the machine without transitions checks each line below
                header = QTMDef(states, toks[1:], initial, final, {})
            continue
        toks = line.split()
        if len(toks) != 8 or toks[2] != "->":
            raise ParseError(
                lineno, "expected 'q sym -> q' sym' L|R re im'"
            )
        q, sym, _, q2, sym2, direction, re_s, im_s = toks
        try:
            amp = complex(float(re_s), float(im_s))
        except ValueError:
            raise ParseError(lineno, "bad amplitude") from None
        tr = Transition(q2, sym2, direction, amp)
        with at_line(lineno):
            header.check_transition(q, sym, tr)
        transitions.setdefault((q, sym), []).append(tr)
    if header is None:
        raise ParseError(1, "missing states or alphabet header")
    return QTMDef(states, header.alphabet, initial, final, transitions)


def load_qtm(path: str) -> QTMDef:
    with open(path, encoding="utf-8") as f:
        return parse_qtm(f.read())
