"""Quantum Turing Machines on a bounded cyclic tape window.

A machine is a finite description (states, alphabet, amplitude-weighted
transitions). Its one-step evolution is materialized as a matrix over the
finite configuration space (state, head position, tape word); unitarity of
that matrix is the well-formedness criterion. The head wraps cyclically at
the window edges so the step operator stays square.

Configuration enumeration is lexicographic by (state index, head position,
tape word with cell 0 most significant), fixed so matrices reproduce
byte-for-byte across runs: a configuration's index is its C-order flat
index in an array of shape (n_states, tape_cells) + (n_symbols,) *
tape_cells, whose axes are the state, the head and each cell's symbol.
The step operator and the oracle call work on views of that array.

The step operator has at most one nonzero per (configuration, branch), so
it is built as index arrays of the entries the branches reach. Well-formedness is
computed from those nonzeros: the Gram matrix M†M is summed over pairs of
entries that share a row, and run_qtm steps with the same entries. Only
the public step_operator, which the compiler uses, is a dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qckit.errors import (
    CapacityError,
    DimensionError,
    ParseError,
    StateError,
    WellFormednessError,
    _parse_float,
    _records,
    at_line,
)
from qckit.oracle import Oracle, QueryCounter, _xor_permute

MAX_CONFIGS = 4096
MAX_TAPE_CELLS = 30  # a configuration array has 2 + tape_cells axes (<= 32)


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
        if self.tape_cells > MAX_TAPE_CELLS:
            raise CapacityError(f"tape window exceeds {MAX_TAPE_CELLS} cells")
        self.shape = ((len(self.qtm.states), self.tape_cells)
                      + (len(self.qtm.alphabet),) * self.tape_cells)
        self.size = math.prod(self.shape)
        if self.size > MAX_CONFIGS:
            raise CapacityError(
                f"configuration space size {self.size} exceeds {MAX_CONFIGS}"
            )
        self._state_index = {q: i for i, q in enumerate(self.qtm.states)}
        self._symbol_index = {s: i for i, s in enumerate(self.qtm.alphabet)}

    def index(self, state: str, head: int, word: tuple[str, ...]) -> int:
        coords = [self._state_index[state], head,
                  *(self._symbol_index[sym] for sym in word)]
        return int(np.ravel_multi_index(coords, self.shape))

    def decode(self, index: int) -> tuple[str, int, tuple[str, ...]]:
        state, head, *word = np.unravel_index(index, self.shape)
        return (self.qtm.states[state], int(head),
                tuple(self.qtm.alphabet[sym] for sym in word))

    def label(self, index: int) -> str:
        return self.labels([index])[0]

    def labels(self, indices) -> list[str]:
        """The label of each index, decoded with one np.unravel_index."""
        state, head, *word = np.unravel_index(
            np.asarray(indices, dtype=np.intp), self.shape)
        symbols = np.array(self.qtm.alphabet, dtype=object)
        tapes = symbols[word[0]]
        for cell in word[1:]:
            tapes = tapes + symbols[cell]
        names = np.array(self.qtm.states, dtype=object)[state]
        return [f"({q}, head={h}, tape={t})"
                for q, h, t in zip(names, head.tolist(), tapes)]


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


class _Step(NamedTuple):
    """The step operator's entries M[rows[k], cols[k]] = vals[k] that some
    branch reaches (branches that cancel leave a 0), one per (row, col)
    and sorted row-major."""

    space: ConfigSpace
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """M @ amps."""
        return _sum_at(self.rows, self.vals * amps[self.cols], self.space.size)


def _sum_at(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[k] = the sum of values[index == k], added in input order."""
    out = np.zeros(size, dtype=np.complex128)
    np.add.at(out, index, values)
    return out


def _step_entries(qtm: QTMDef, tape_cells: int) -> _Step:
    """The step operator's entries; branches of one (state, symbol) pair
    that reach the same configuration are summed in branch order."""
    space = ConfigSpace(qtm, tape_cells)
    configs = np.arange(space.size).reshape(space.shape)
    keys, amps = [np.empty(0, dtype=np.intp)], []
    for (state, sym), branches in qtm.transitions.items():
        for head in range(tape_cells):
            # the configurations in `state` with the head on `head` reading
            # `sym`, and those each branch maps them to, by the other cells
            src = configs[space._state_index[state], head]
            src = src.take(space._symbol_index[sym], axis=head)
            for tr in branches:
                step = 1 if tr.direction == "R" else -1
                dst = configs[space._state_index[tr.state],
                              (head + step) % tape_cells]
                dst = dst.take(space._symbol_index[tr.symbol], axis=head)
                keys.append((dst * space.size + src).reshape(-1))
                amps.append(tr.amplitude)
    vals = np.repeat(np.array(amps, dtype=np.complex128),
                     [k.size for k in keys[1:]])
    entries, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    rows, cols = np.divmod(entries, space.size)
    return _Step(space, rows, cols, _sum_at(inverse, vals, entries.size))


def step_operator(qtm: QTMDef, tape_cells: int) -> np.ndarray:
    """One-step evolution matrix M with M[c', c] the amplitude of c -> c'.

    Columns of undefined (state, symbol) pairs are all zero; unitarity is
    not asserted here (that is check_well_formed's job).
    """
    step = _step_entries(qtm, tape_cells)
    m = np.zeros((step.space.size, step.space.size), dtype=np.complex128)
    m[step.rows, step.cols] = step.vals
    return m


def check_well_formed(
    qtm: QTMDef, tape_cells: int, tol: float = 1e-9
) -> tuple[bool, list[str]]:
    """True iff the step operator is unitary on the window within tol.

    Violations report offending configuration pairs of the Gram matrix
    M†M (diagonal entries are squared column norms), in row-major order.
    The Gram matrix is computed from the step operator's nonzeros, without
    a dense matrix.
    """
    step = _step_entries(qtm, tape_cells)
    violations = _messages(step.space, *_gram_violations(step, tol))
    return not violations, violations


def _well_formed_step(qtm: QTMDef, tape_cells: int) -> _Step:
    """The step operator's entries, or WellFormednessError if it is not
    unitary."""
    step = _step_entries(qtm, tape_cells)
    i, j, gram = _gram_violations(step, 1e-9)
    if i.size:
        # only the first three are shown, so only they are formatted
        raise WellFormednessError(
            "machine is not well-formed on this window: "
            + "; ".join(_messages(step.space, i[:3], j[:3], gram[:3]))
        )
    return step


def _gram_violations(
    step: _Step, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (i, j, G[i, j]) of G = M†M with i <= j that are at least tol
    away from the identity, in row-major order."""
    size, rows, cols, vals = step.space.size, step.rows, step.cols, step.vals
    # every column is on the diagonal, an empty one with squared norm 0
    norms = np.bincount(cols, vals.real ** 2 + vals.imag ** 2, size)
    # off the diagonal, G[i, j] sums conj(M[r, i]) M[r, j] over the rows r
    # that both columns reach. The entries are sorted by row, so two in one
    # row are some d apart, and once no pair d apart shares a row no pair
    # further apart does.
    keys = [np.empty(0, dtype=np.intp)]
    products = [np.empty(0, dtype=np.complex128)]
    for d in range(1, len(rows)):
        first = np.flatnonzero(rows[d:] == rows[:-d])
        if not first.size:
            break
        keys.append(cols[first] * size + cols[first + d])
        products.append(vals[first].conj() * vals[first + d])
    pairs, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    inner = _sum_at(inverse, np.concatenate(products), pairs.size)
    diagonal = np.flatnonzero(np.abs(norms - 1) >= tol)
    off = np.abs(inner) >= tol
    found = np.concatenate([diagonal * (size + 1), pairs[off]])
    order = np.argsort(found)
    i, j = np.divmod(found[order], size)
    return i, j, np.concatenate([norms[diagonal], inner[off]])[order]


def _messages(
    space: ConfigSpace, i: np.ndarray, j: np.ndarray, gram: np.ndarray
) -> list[str]:
    """Gram entries (i, j, G[i, j]) from _gram_violations, as messages."""
    labels = space.labels(np.concatenate([i, j]))
    violations = []
    for a, b, g, label_a, label_b in zip(i, j, gram, labels, labels[i.size:]):
        if a == b:
            violations.append(
                f"column {label_b} has squared norm {g.real:.6g}"
            )
        else:
            violations.append(
                f"columns {label_a} and {label_b} are not orthogonal "
                f"(inner product magnitude {abs(g):.3g})"
            )
    return violations


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
    word = tuple(symbols + [qtm.alphabet[0]] * (tape_cells - len(symbols)))
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
    step = _well_formed_step(qtm, tape_cells)
    state = initial_qtm_state(qtm, input_word, tape_cells)
    amps = state.amps
    for _ in range(steps):
        amps = step.apply(amps)
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
    if not {"0", "1"} <= set(space.qtm.alphabet):
        raise DimensionError("oracle_step needs '0' and '1' in the alphabet")

    # The block of configurations with binary symbols on every queried
    # cell holds all the amplitude; the oracle permutes it.
    axes = [range(n) for n in space.shape]
    for cell in cells:
        axes[2 + cell] = [space._symbol_index[sym] for sym in ("0", "1")]
    block = np.ix_(*axes)
    amps = state.amps.reshape(space.shape)
    outside = amps != 0
    outside[block] = False
    if outside.any():
        first = space.label(int(outside.argmax()))
        raise StateError(f"non-binary symbol at queried cells in {first}")
    sub = amps[block]  # a copy, permuted in place
    _xor_permute(oracle.table, sub, [2 + cell for cell in x_cells],
                 2 + b_cell)
    new_amps = np.zeros(space.shape, dtype=np.complex128)
    new_amps[block] += sub  # onto zeros, so -0.0 lands as +0.0
    if counter is not None:
        counter.quantum_queries += 1
    return QTMState(space, new_amps.reshape(-1))


def parse_qtm(text: str) -> QTMDef:
    """Parse the machine text format:

        states q0 q1 ; initial q0 ; final q1
        alphabet _ 0 1
        q sym -> q' sym' L|R re im
    """
    records = _records(text)
    lineno, toks = next(records, (1, []))
    parts = [p.split() for p in " ".join(toks).split(";")]
    if ([p[:1] for p in parts] != [["states"], ["initial"], ["final"]]
            or [len(p) for p in parts[1:]] != [2, 2] or len(parts[0]) < 2):
        raise ParseError(lineno, "expected 'states ... ; initial q ; final q'")
    states, initial, final = parts[0][1:], parts[1][1], parts[2][1]
    with at_line(lineno):  # the header alone, with no alphabet
        QTMDef(states, [], initial, final, {})
    lineno, toks = next(records, (lineno, []))
    if toks[:1] != ["alphabet"] or len(toks) < 2:
        raise ParseError(lineno, "expected 'alphabet <blank> ...'")
    with at_line(lineno):
        # each transition below joins it once its line is checked
        machine = QTMDef(states, toks[1:], initial, final, {})
    for lineno, toks in records:
        if len(toks) != 8 or toks[2] != "->":
            raise ParseError(
                lineno, "expected 'q sym -> q' sym' L|R re im'"
            )
        q, sym, _, q2, sym2, direction, re_s, im_s = toks
        amp = complex(_parse_float(re_s, lineno), _parse_float(im_s, lineno))
        tr = Transition(q2, sym2, direction, amp)
        with at_line(lineno):
            machine.check_transition(q, sym, tr)
        machine.transitions.setdefault((q, sym), []).append(tr)
    return machine


def load_qtm(path: str) -> QTMDef:
    with open(path, encoding="utf-8") as f:
        return parse_qtm(f.read())
