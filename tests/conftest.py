import contextlib
from unittest import mock

import numpy as np
import pytest

import qckit.state
from qckit.qtm import QTMDef, Transition

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    # normalize phases so the distribution does not depend on QR details
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return amps / np.linalg.norm(amps)


@contextlib.contextmanager
def fresh_steps(**constants):
    """Patch the gate kernel's constants in qckit.state, if any are given,
    with the step cache emptied on entry and on exit: a cached step keeps
    the form that the constants of its build chose, and the builders that
    a test wrapped at the time."""
    patch = (mock.patch.multiple(qckit.state, **constants) if constants
             else contextlib.nullcontext())
    qckit.state._step.cache_clear()
    try:
        with patch:
            yield
    finally:
        qckit.state._step.cache_clear()


def move_right_machine() -> QTMDef:
    """Single-state machine that walks the head right, leaving tape alone."""
    tr = {
        ("q0", s): [Transition("q0", s, "R", 1.0)] for s in ("0", "1")
    }
    return QTMDef(["q0"], ["0", "1"], "q0", "q0", tr)


def coin_machine() -> QTMDef:
    """Hadamard-style machine: rewrites the scanned bit into an equal
    superposition (with a sign on 1->1) and moves right."""
    return QTMDef(
        ["q0"],
        ["0", "1"],
        "q0",
        "q0",
        {
            ("q0", "0"): [
                Transition("q0", "0", "R", INV_SQRT2),
                Transition("q0", "1", "R", INV_SQRT2),
            ],
            ("q0", "1"): [
                Transition("q0", "0", "R", INV_SQRT2),
                Transition("q0", "1", "R", -INV_SQRT2),
            ],
        },
    )


def doubled_branch_machine() -> QTMDef:
    """Broken: two unit-amplitude branches from one (state, symbol), so
    the corresponding step-operator column has squared norm 2."""
    return QTMDef(
        ["q0"],
        ["0", "1"],
        "q0",
        "q0",
        {
            ("q0", "0"): [
                Transition("q0", "0", "R", 1.0),
                Transition("q0", "1", "R", 1.0),
            ],
            ("q0", "1"): [Transition("q0", "1", "R", 1.0)],
        },
    )


def partial_machine() -> QTMDef:
    """Broken: no transition on symbol '1', leaving zero columns."""
    return QTMDef(
        ["q0"],
        ["0", "1"],
        "q0",
        "q0",
        {("q0", "0"): [Transition("q0", "0", "R", 1.0)]},
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
