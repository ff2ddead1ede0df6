"""Reference computations the benchmark checks qckit's outputs against.

Nothing here imports qckit. Gate definitions, the circuit-text parser, the
state-vector interpreter (einsum on the slice where the controls are 1),
the Kronecker-product circuit unitary and the QTM step operator are all
written from the formats' documented conventions: qubit 0 is the most
significant bit of a basis index, and QTM configurations are enumerated
by (state index, head position, tape word with cell 0 most significant).
"""

from __future__ import annotations

import string

import numpy as np

_LETTERS = string.ascii_letters
_R2 = 1.0 / np.sqrt(2.0)

# name -> (number of controls, core matrix); cphase/phase take an angle
_FIXED_CORES = {
    "i": np.eye(2),
    "x": np.array([[0, 1], [1, 0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1, -1]),
    "h": np.array([[_R2, _R2], [_R2, -_R2]]),
    "s": np.diag([1, 1j]),
    "t": np.diag([1, np.exp(0.25j * np.pi)]),
    "swap": np.eye(4)[[0, 2, 1, 3]],
}


def gate_core(name: str, param: float | None, arity: int):
    """(n_controls, core matrix) of a named gate on `arity` targets."""
    if name == "phase":
        return 0, np.diag([1, np.exp(1j * param)])
    if name == "cphase":
        return 1, np.diag([1, np.exp(1j * param)])
    if name in ("cx", "ccx", "mcx"):
        return arity - 1, _FIXED_CORES["x"]
    return 0, _FIXED_CORES[name]


class Op:
    """One parsed gate line: controls, core targets and core matrix, or an
    oracle reference (`oracle` set, `targets` = inputs then ancilla)."""

    def __init__(self, controls, targets, matrix=None, oracle=None):
        self.controls = tuple(controls)
        self.targets = tuple(targets)
        self.matrix = None if matrix is None else np.asarray(matrix, complex)
        self.oracle = oracle


def parse_circuit_text(text: str) -> tuple[int, list[Op]]:
    """Parse the circuit text format into (n_qubits, ops)."""
    n = None
    ops: list[Op] = []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if n is None:
            if toks[0] != "qubits":
                raise ValueError(f"expected qubits header, got {raw!r}")
            n = int(toks[1])
            continue
        head = toks[0]
        if head == "oracle":
            ops.append(Op((), [int(t) for t in toks[2:]], oracle=toks[1]))
        elif head == "unitary":
            sep = toks.index(":")
            n_controls = int(toks[1])
            qubits = [int(t) for t in toks[2:sep]]
            vals = np.array([float(v) for v in toks[sep + 1:]])
            dim = 2 ** (len(qubits) - n_controls)
            core = (vals[0::2] + 1j * vals[1::2]).reshape(dim, dim)
            ops.append(Op(qubits[:n_controls], qubits[n_controls:], core))
        else:
            param = None
            rest = toks[1:]
            if rest and rest[0] == "(":
                param = float(rest[1])
                rest = rest[3:]
            qubits = [int(t) for t in rest]
            n_controls, core = gate_core(head, param, len(qubits))
            ops.append(Op(qubits[:n_controls], qubits[n_controls:], core))
    if n is None:
        raise ValueError("missing qubits header")
    return n, ops


def _apply_core(psi: np.ndarray, core: np.ndarray, axes: list[int]):
    """einsum of a 2^k x 2^k core over the given axes of a [2]*m tensor."""
    k = len(axes)
    m = psi.ndim
    state_in = list(_LETTERS[:m])
    outs = list(_LETTERS[m:m + k])
    gate_idx = "".join(outs) + "".join(state_in[a] for a in axes)
    state_out = list(state_in)
    for a, o in zip(axes, outs):
        state_out[a] = o
    spec = f"{gate_idx},{''.join(state_in)}->{''.join(state_out)}"
    return np.einsum(spec, core.reshape([2] * (2 * k)), psi)


def apply_op(psi: np.ndarray, op: Op, oracles: dict | None = None) -> None:
    """Apply one op in place to the [2]*n amplitude tensor."""
    n = psi.ndim
    if op.oracle is not None:
        table = np.asarray(oracles[op.oracle], dtype=np.uint8)
        xs, b = list(op.targets[:-1]), op.targets[-1]
        # |x, b> -> |x, b XOR f(x)>: per x, identity or X on the ancilla
        local = np.zeros((len(table), 2, 2), complex)
        local[table == 0] = np.eye(2)
        local[table == 1] = _FIXED_CORES["x"]
        local = local.reshape([2] * len(xs) + [2, 2])
        letters = _LETTERS[:n]
        out = _LETTERS[n]
        x_idx = "".join(letters[q] for q in xs)
        out_idx = letters[:b] + out + letters[b + 1:]
        spec = f"{x_idx}{out}{letters[b]},{letters}->{out_idx}"
        psi[...] = np.einsum(spec, local, psi)
        return
    index = tuple(1 if q in op.controls else slice(None) for q in range(n))
    free = [q for q in range(n) if q not in op.controls]
    axes = [free.index(t) for t in op.targets]
    sub = psi[index]
    sub[...] = _apply_core(sub, op.matrix, axes)


def simulate(n: int, ops: list[Op], oracles: dict | None = None,
             initial: np.ndarray | None = None) -> np.ndarray:
    """Final amplitudes of the circuit applied to |0...0> (or `initial`)."""
    if initial is None:
        psi = np.zeros(2 ** n, complex)
        psi[0] = 1.0
    else:
        psi = np.array(initial, complex)
    psi = psi.reshape([2] * n)
    for op in ops:
        apply_op(psi, op, oracles)
    return psi.reshape(-1)


def op_unitary(n: int, op: Op) -> np.ndarray:
    """Full 2^n matrix of one non-oracle op, by Kronecker products.

    The controlled core is built on (controls, targets) as
    (I - P) (x) I + P (x) U with P the all-ones projector on the controls,
    extended by the identity on the other qubits, and then brought into
    qubit order by permuting basis indices.
    """
    c, k = len(op.controls), len(op.targets)
    ctrl_dim = 2 ** c
    proj = np.zeros((ctrl_dim, ctrl_dim))
    proj[-1, -1] = 1.0
    block = (np.kron(np.eye(ctrl_dim) - proj, np.eye(2 ** k))
             + np.kron(proj, op.matrix))
    order = list(op.controls) + list(op.targets)
    order += [q for q in range(n) if q not in order]
    full = np.kron(block, np.eye(2 ** (n - c - k)))
    idx = np.arange(2 ** n)
    # bit of qubit order[p] moves to position p of the gate-first index
    gate_first = np.zeros(2 ** n, dtype=np.int64)
    for p, q in enumerate(order):
        gate_first |= ((idx >> (n - 1 - q)) & 1) << (n - 1 - p)
    return full[np.ix_(gate_first, gate_first)]


def circuit_unitary(n: int, ops: list[Op]) -> np.ndarray:
    """Product of op matrices, later ops on the left."""
    u = np.eye(2 ** n, dtype=complex)
    for op in ops:
        u = op_unitary(n, op) @ u
    return u


def qft_amplitudes(n: int, j: int) -> np.ndarray:
    """Column j of F[k, j] = exp(2 pi i j k / 2^n) / sqrt(2^n)."""
    dim = 2 ** n
    k = np.arange(dim)
    return np.exp(2j * np.pi * ((j * k) % dim) / dim) / np.sqrt(dim)


def multiplicative_order(a: int, n: int) -> int:
    r, x = 1, a % n
    while x != 1:
        x = (x * a) % n
        r += 1
    return r


# -- quantum Turing machines --------------------------------------------

def qtm_text(states, alphabet, transitions) -> str:
    """Machine file text; transitions are (q, s, q2, s2, dir, amplitude)
    tuples and states[0] is both initial and final."""
    lines = [f"states {' '.join(states)} ; initial {states[0]} ; "
             f"final {states[0]}",
             "alphabet " + " ".join(alphabet)]
    for q, s, q2, s2, d, amp in transitions:
        amp = complex(amp)
        lines.append(f"{q} {s} -> {q2} {s2} {d} {amp.real!r} {amp.imag!r}")
    return "\n".join(lines) + "\n"


def qtm_columns(states, alphabet, transitions, cells: int):
    """Sparse step operator: one {row: amplitude} dict per configuration."""
    n_sym = len(alphabet)
    n_words = n_sym ** cells
    size = len(states) * cells * n_words
    by_key: dict = {}
    for q, s, q2, s2, d, amp in transitions:
        by_key.setdefault((states.index(q), alphabet.index(s)), []).append(
            (states.index(q2), alphabet.index(s2), 1 if d == "R" else -1,
             complex(amp)))
    cols = []
    for c in range(size):
        w = c % n_words
        head = (c // n_words) % cells
        qi = c // (n_words * cells)
        shift = n_sym ** (cells - 1 - head)
        sym = (w // shift) % n_sym
        col: dict = {}
        for q2, s2, step, amp in by_key.get((qi, sym), []):
            w2 = w + (s2 - sym) * shift
            h2 = (head + step) % cells
            row = (q2 * cells + h2) * n_words + w2
            col[row] = col.get(row, 0) + amp
        cols.append(col)
    return cols


def qtm_step_matrix(states, alphabet, transitions, cells: int) -> np.ndarray:
    """Dense step operator padded with identity to a power-of-two size."""
    cols = qtm_columns(states, alphabet, transitions, cells)
    size = len(cols)
    dim = 1
    while dim < size:
        dim *= 2
    m = np.eye(dim, dtype=complex)
    m[:size, :size] = 0
    for c, col in enumerate(cols):
        for r, amp in col.items():
            m[r, c] = amp
    return m


def qtm_violations(states, alphabet, transitions, cells: int,
                   tol: float = 1e-9) -> int:
    """Entries of the Gram matrix M^dagger M off the identity by >= tol,
    each off-diagonal pair counted once."""
    cols = qtm_columns(states, alphabet, transitions, cells)
    rows: dict = {}
    for c, col in enumerate(cols):
        for r, amp in col.items():
            rows.setdefault(r, []).append((c, amp))
    gram: dict = {}
    for entries in rows.values():
        for i, ai in entries:
            for j, aj in entries:
                if i <= j:
                    gram[i, j] = gram.get((i, j), 0) + np.conj(ai) * aj
    bad = sum(1 for (i, j), v in gram.items()
              if abs(v - (1.0 if i == j else 0.0)) >= tol)
    # columns with no entries have squared norm 0
    bad += sum(1 for col in cols if not col)
    return bad
