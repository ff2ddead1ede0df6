"""Standard gate matrices, each a core matrix under leading controls.

Multi-qubit gates follow the global big-endian convention: the first target
qubit is the most significant bit of the gate's sub-index, so for `cx` the
control is the first target and the flipped qubit the second.
"""

from __future__ import annotations

import numpy as np

from qckit.errors import DimensionError

SQRT2_INV = 1.0 / np.sqrt(2.0)

_FIXED = {
    "i": np.eye(2, dtype=np.complex128),
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "h": np.array([[1, 1], [1, -1]], dtype=np.complex128) * SQRT2_INV,
    "s": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "t": np.array(
        [[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128
    ),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        dtype=np.complex128,
    ),
}

# arity None means variable (mcx: any number of controls plus one target)
GATE_ARITY: dict[str, int | None] = {
    "i": 1, "x": 1, "y": 1, "z": 1, "h": 1, "s": 1, "t": 1,
    "phase": 1, "cphase": 2, "cx": 2, "swap": 2, "ccx": 3, "mcx": None,
}

PARAMETRIC = {"phase", "cphase"}

# controlled gates: name -> (core gate, control count)
_CONTROLLED = {"cx": ("x", 1), "ccx": ("x", 2), "cphase": ("phase", 1)}


def controlled(core: np.ndarray, n_controls: int) -> np.ndarray:
    """Dense matrix of `core` controlled on n_controls leading qubits.

    The core acts on the trailing qubits when all control qubits are 1;
    identity otherwise. With big-endian ordering this is identity except
    for the bottom-right core-sized block.
    """
    dim_core = core.shape[0]
    dim = dim_core * 2 ** n_controls
    m = np.eye(dim, dtype=np.complex128)
    m[dim - dim_core:, dim - dim_core:] = core
    return m


def gate_core(
    name: str, param: float | None = None, arity: int | None = None
) -> tuple[np.ndarray, int]:
    """Validate a named gate; return (core matrix, number of controls).

    The controls are the first targets and the core acts on the rest.
    `arity`, the target count, is required only for `mcx`.
    """
    if name not in GATE_ARITY:
        raise DimensionError(f"unknown gate {name!r}")
    if name in PARAMETRIC:
        if param is None:
            raise DimensionError(f"gate {name!r} requires an angle parameter")
        if not np.isfinite(param):
            raise DimensionError("gate angle must be finite")
    elif param is not None:
        raise DimensionError(f"gate {name!r} takes no parameter")
    if name == "mcx":
        if arity is None or arity < 2:
            raise DimensionError("mcx requires at least 2 targets")
        return _FIXED["x"].copy(), arity - 1
    if arity is not None and arity != GATE_ARITY[name]:
        raise DimensionError(
            f"gate {name!r} expects {GATE_ARITY[name]} targets, got {arity}"
        )
    name, n_controls = _CONTROLLED.get(name, (name, 0))
    if name == "phase":
        phase = np.exp(1j * param)
        return np.array([[1, 0], [0, phase]], dtype=np.complex128), n_controls
    return _FIXED[name].copy(), n_controls


def standard_gate_matrix(
    name: str, param: float | None = None, arity: int | None = None
) -> np.ndarray:
    """Dense matrix for a named gate; `arity` is required only for `mcx`."""
    return controlled(*gate_core(name, param, arity))


def _unitarity_deviation(u: np.ndarray) -> float:
    """max |U†U - I| over the entries; NaN for a non-finite matrix."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
