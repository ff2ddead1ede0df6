"""Golden output contract: a fixed CLI command and seed prints the same JSON,
byte for byte, apart from the trailing `wall_time_ms` field.

The expected reports in `data/output_contract.json` were captured from the
tensordot kernel that the GEMM kernel replaced. Regenerate them only for an
intended change of output:

    PYTHONPATH=src python tests/test_output_contract.py --write
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qckit.cli import main

GOLDEN = Path(__file__).parent / "data" / "output_contract.json"
WALL_TIME = re.compile(r', "wall_time_ms": [^,}]+\}$')


def _unitary_line(controls, targets, core) -> str:
    entries = " ".join(f"{float(v.real)!r} {float(v.imag)!r}"
                       for v in core.reshape(-1))
    qubits = " ".join(str(q) for q in list(controls) + list(targets))
    return f"unitary {len(controls)} {qubits} : {entries}"


ROT = np.array([[0.6, -0.8], [0.8, 0.6]])
PHASED = np.array([[0.28, 0.96j], [0.96j, 0.28]])
CORE2 = np.kron(ROT, PHASED)

FILES = {
    "ccx3.circuit": "\n".join([
        "qubits 3", "h 0", "h 1", "ccx 0 1 2", "cphase ( 0.7 ) 2 0", "t 2",
        "h 2", "s 1", "cx 2 1", "y 0",
    ]),
    "mcx5.circuit": "\n".join([
        "qubits 5", "h 0", "h 1", "h 2", "h 4", "mcx 0 1 2 4 3",
        "phase ( 1.3 ) 4", _unitary_line([3], [4], ROT), "cphase ( 2.1 ) 4 1",
        "h 3", "swap 0 4", "z 2",
    ]),
    "oracle8.circuit": "\n".join(
        ["qubits 8", "x 7"] + [f"h {q}" for q in range(8)]
        + ["oracle f 0 1 2 3 4 5 6 7", "cphase ( 0.4 ) 6 7",
           _unitary_line([], [7], PHASED)]
        + [f"h {q}" for q in range(7)]),
    "wide12.circuit": "\n".join(
        ["qubits 12"] + [f"h {q}" for q in range(12)]
        + ["ccx 3 9 11", "mcx 0 5 7 10 2",
           _unitary_line([1, 8], [4, 11], CORE2),
           "cphase ( 0.9 ) 11 6", "swap 2 11", "t 11", "s 0",
           _unitary_line([11], [0], PHASED), "cx 6 11", "h 11", "h 5"]),
    "f.oracle": "inputs 7\n" + "".join(
        str((x * 37 + (x >> 3)) % 5 % 2) for x in range(128)),
    "balanced.oracle": "inputs 4\n0110100110010110",
    "coin.qtm": "\n".join([
        "states q0 ; initial q0 ; final q0", "alphabet 0 1",
        "q0 0 -> q0 0 R 0.7071067811865476 0",
        "q0 0 -> q0 1 R 0.7071067811865476 0",
        "q0 1 -> q0 0 R 0.7071067811865476 0",
        "q0 1 -> q0 1 R -0.7071067811865476 0",
    ]),
}

COMMANDS = (
    [["qft", str(n), str(j)] for n in range(1, 9)
     for j in sorted({0, 1, 2 ** n - 1, (5 * 2 ** n) // 7})]
    + [["run", "ccx3.circuit", "--shots", "256", "--seed", "3"],
       ["run", "mcx5.circuit", "--shots", "256", "--seed", "5"],
       ["run", "oracle8.circuit", "--shots", "256", "--seed", "8",
        "--oracle", "f=f.oracle"],
       ["run", "wide12.circuit", "--shots", "512", "--seed", "12"],
       ["compile", "coin.qtm", "--tape-cells", "2", "-o", "coin2.circuit"],
       ["compile", "coin.qtm", "--tape-cells", "3", "-o", "coin3.circuit"],
       ["dj", "balanced.oracle"],
       ["shor", "15", "--seed", "1"]]
)


def _report(argv) -> str:
    """The command's stdout without its wall_time_ms field."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv + ["--json"])
    out = buf.getvalue().rstrip("\n")
    assert WALL_TIME.search(out), out[-80:]
    return WALL_TIME.sub("}", out)


def _write_inputs(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text + "\n", encoding="utf-8")


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_matches_golden(argv, inputs):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _report(argv) == golden[" ".join(argv)]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        os.chdir(tmp)
        golden = {" ".join(argv): _report(argv) for argv in COMMANDS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} reports to {GOLDEN}")
