"""Fuzz test of the CLI boundary: every argv and input file either works or
fails as one typed error.

Input files are the golden `FILES` with a few byte-level mutations; flag
values are ones argparse accepts, a few of them out of range for the flag.
Every example stays small (at most 12 qubits, at most 6 tape cells).
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qckit.cli import MAX_SHOTS, main

from test_output_contract import FILES

KINDS = {
    "run": sorted(name for name in FILES if name.endswith(".circuit")),
    "dj": sorted(name for name in FILES if name.endswith(".oracle")),
    "qtm-check": sorted(name for name in FILES if name.endswith(".qtm")),
    "compile": sorted(name for name in FILES if name.endswith(".qtm")),
}
TOKENS = [b"0", b"1", b"2", b"7", b"12", b"-1", b"99", b"0.5", b"nan",
          b"1e400", b"h", b"cx", b"mcx", b"phase", b"oracle", b"unitary",
          b"qubits", b"inputs", b"states", b"alphabet", b":", b"(", b")",
          b"->", b"L", b"R", b"q0", b"q9", b";", b"#", b"\xe9", b"20000"]
MAX_FUZZ_QUBITS = 12


@st.composite
def _mostly(draw, valid, invalid):
    """A value from `valid`, or one time in five from `invalid`."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(invalid))
    return draw(valid)


def _flag(name, valid, invalid):
    return _mostly(valid, invalid).map(lambda v: f"{name}={v}")


SEED = _flag("--seed", st.integers(0, 2 ** 64), [-1])
TAPE_CELLS = _flag("--tape-cells", st.integers(1, 6), [0, -1, 31, 10 ** 6])
FLAGS = {
    "run": [_flag("--shots", st.integers(0, 64),
                  [-1, MAX_SHOTS + 1, 10 ** 12]), SEED],
    "dj": [],
    "shor": [SEED],
    "qtm-check": [TAPE_CELLS],
    "compile": [TAPE_CELLS,
                _flag("--tol", st.floats(1e-12, 1e-3),
                      ["nan", "inf", "0", "-1e-8"])],
    "qft": [],
}


@st.composite
def mutated(draw, name):
    """The golden file `name` with up to three byte-level mutations, none
    two times in five."""
    data = bytearray((FILES[name] + "\n").encode())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["delete", "insert", "line", "token"]))
        if kind == "delete":
            del data[at:at + draw(st.integers(1, 12))]
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif kind == "line":
            lines = data.split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            data = bytearray(b"\n".join(lines))
        else:
            spans = [m.span() for m in re.finditer(rb"\S+", bytes(data))]
            if spans:
                lo, hi = draw(st.sampled_from(spans))
                data[lo:hi] = draw(st.sampled_from(TOKENS))
    return bytes(data)


@st.composite
def cli_cases(draw):
    """(argv, {file name: bytes}) for one CLI call."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    files, argv = {}, [command]
    if command in KINDS:
        name = draw(_mostly(st.sampled_from(KINDS[command]), sorted(FILES)))
        files["input"] = draw(mutated(name))
        argv.append("input")
    elif command == "shor":
        argv.append(str(draw(_mostly(st.sampled_from([15, 21]),
                                     [-1, 2, 9, 13, 25, 33, 10 ** 6]))))
    else:
        n = draw(_mostly(st.integers(1, MAX_FUZZ_QUBITS), [0, -1, 25]))
        argv.append(str(n))
        if draw(st.booleans()):
            argv.append(str(draw(_mostly(st.integers(0, 2 ** max(n, 0) - 1),
                                         [-1, 2 ** max(n, 0)]))))
    for flag in FLAGS[command]:
        if draw(st.booleans()):
            argv.append(draw(flag))
    if command == "run":
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--oracle", draw(_mostly(
                st.sampled_from(["f=f.oracle", "f=input"]),
                ["f=balanced.oracle", "g=missing", "f"]))]
    if command == "compile":
        argv += ["-o", "out.circuit"]
    return argv + ["--json"], files


def _declared_qubits(files) -> int:
    """The largest `qubits N` count among the files, 0 for none."""
    counts = [int(m) for data in files.values()
              for m in re.findall(rb"qubits\s+([0-9]{1,6})\b", data)]
    return max(counts, default=0)


@given(cli_cases())
@settings(max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_works_or_reports_one_error(case):
    argv, files = case
    # a count over MAX_QUBITS is refused at once; 13-24 would run wide
    assume(not MAX_FUZZ_QUBITS < _declared_qubits(files) <= 24)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in FILES.items():
                with open(name, "w", encoding="utf-8") as f:
                    f.write(text + "\n")
            for name, data in files.items():
                with open(name, "wb") as f:
                    f.write(data)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
        assert out == "", argv
        return
    assert err == "", (argv, err)
    report = json.loads(out)
    assert report["command"] == argv[0]
    if code == 1:  # shor found no factor, and says so in its report
        assert argv[0] == "shor" and report["factor"] is None, argv
    else:
        assert code == 0, (argv, code)
