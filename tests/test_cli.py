import json
from unittest import mock

import numpy as np
import pytest

import qckit.cli
from qckit.circuit import parse_circuit, simulate
from qckit.cli import MAX_SHOTS, main
from qckit.gates import GATE_ARITY, PARAMETRIC
from qckit.oracle import load_oracle
from qckit.state import _born_samples

from conftest import fresh_steps

BELL = "qubits 2\nh 0\ncx 0 1\n"
MOVE_RIGHT = """states q0 ; initial q0 ; final q0
alphabet 0 1
q0 0 -> q0 0 R 1 0
q0 1 -> q0 1 R 1 0
"""
COIN = """states q0 ; initial q0 ; final q0
alphabet 0 1
q0 0 -> q0 0 R 0.7071067811865476 0
q0 0 -> q0 1 R 0.7071067811865476 0
q0 1 -> q0 0 R 0.7071067811865476 0
q0 1 -> q0 1 R -0.7071067811865476 0
"""
BROKEN = """states q0 ; initial q0 ; final q0
alphabet 0 1
q0 0 -> q0 0 R 1 0
q0 0 -> q0 1 R 1 0
q0 1 -> q0 1 R 1 0
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_out(out):
    report = json.loads(out)
    report.pop("wall_time_ms")
    return report


class TestRun:
    def test_bell_counts(self, tmp_path, capsys):
        path = tmp_path / "bell.circuit"
        path.write_text(BELL)
        code, out, _ = run_cli(
            capsys, "run", str(path), "--shots", "1000", "--seed", "7"
        )
        assert code == 0
        report = json_out(out)
        assert set(report["counts"]) <= {"00", "11"}
        assert sum(report["counts"].values()) == 1000

    def test_zero_shots(self, tmp_path, capsys):
        path = tmp_path / "bell.circuit"
        path.write_text(BELL)
        code, out, _ = run_cli(capsys, "run", str(path), "--shots", "0")
        assert code == 0
        assert json_out(out)["counts"] == {}

    def test_missing_oracle_binding(self, tmp_path, capsys):
        path = tmp_path / "c.circuit"
        path.write_text("qubits 2\noracle f 0 1\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert err.startswith("error:") or "error:" in err
        assert "f" in err

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "c.circuit"
        path.write_text("qubits 1\nfoo 0\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert "line 2" in err

    def test_oracle_binding_and_query_count(self, tmp_path, capsys):
        circuit = tmp_path / "c.circuit"
        circuit.write_text("qubits 2\noracle f 0 1\n")
        oracle = tmp_path / "f.oracle"
        oracle.write_text("inputs 1\n01\n")
        code, out, _ = run_cli(
            capsys, "run", str(circuit),
            "--oracle", f"f={oracle}", "--shots", "10",
        )
        assert code == 0
        assert json_out(out)["quantum_queries"] == 1

    def test_determinism(self, tmp_path, capsys):
        path = tmp_path / "bell.circuit"
        path.write_text(BELL)
        args = ["run", str(path), "--shots", "200", "--seed", "42"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert json_out(out1) == json_out(out2)


def _random_circuit(rng, n):
    """Text of a random circuit on n >= 3 qubits: named gates of every
    kind, a 1-qubit raw unitary and a query of oracle `f` on 2 inputs."""
    lines = [f"qubits {n}"]
    for _ in range(3 * n):
        name = str(rng.choice(list(GATE_ARITY)))
        arity = GATE_ARITY[name] or int(rng.integers(2, min(5, n) + 1))
        qubits = " ".join(map(str, rng.choice(n, arity, replace=False)))
        angle = (f" ( {float(rng.uniform(0, 2 * np.pi))!r} )"
                 if name in PARAMETRIC else "")
        lines.append(f"{name}{angle} {qubits}")
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    core = q * (np.diag(r) / np.abs(np.diag(r)))
    entries = " ".join(f"{float(v.real)!r} {float(v.imag)!r}"
                       for v in core.reshape(-1))
    lines.insert(len(lines) // 2,
                 f"unitary 0 {int(rng.integers(n))} : {entries}")
    lines.insert(int(rng.integers(1, len(lines) + 1)),
                 "oracle f " + " ".join(map(str, rng.choice(n, 3, False))))
    return "\n".join(lines) + "\n"


class TestRunReadout:
    """`qckit run` squares, checks and accumulates the probabilities in
    place in the final state's buffer; its counts must be the draws of
    `_born_samples` on the final state's probabilities."""

    @pytest.mark.parametrize("chunk", [None, 8])
    def test_counts_match_born_samples(self, tmp_path, capsys, chunk):
        rng = np.random.default_rng(2024)
        oracle = tmp_path / "f.oracle"
        oracle.write_text("inputs 2\n0110\n")
        for trial, n in enumerate([3, 4, 5, 6, 7, 8, 17] * 3):
            text = _random_circuit(rng, n)
            path = tmp_path / f"c{trial}.circuit"
            path.write_text(text)
            shots, seed = int(rng.integers(0, 3000)), int(rng.integers(2 ** 32))
            with fresh_steps(**({"_BLOCK": chunk} if chunk else {})):
                code, out, _ = run_cli(
                    capsys, "run", str(path), "--shots", str(shots), "--seed",
                    str(seed), "--oracle", f"f={oracle}")
            assert code == 0
            final = simulate(parse_circuit(text),
                             oracle_table={"f": load_oracle(str(oracle))})
            want: dict[str, int] = {}
            if shots:
                draws = _born_samples(final.probabilities(),
                                      np.random.default_rng(seed), shots)
                for index in draws:
                    key = format(int(index), f"0{n}b")
                    want[key] = want.get(key, 0) + 1
            assert json_out(out)["counts"] == dict(sorted(want.items())), text

    @pytest.mark.parametrize("n", [1, 17])
    @pytest.mark.parametrize("shots", ["0", "10"])
    def test_unnormalized_state_rejected(self, tmp_path, capsys, n, shots):
        # each core is unitary within GATE_NORM_TOL; ten of them are not
        line = "unitary 0 0 : 1.0000004 0 0 0 0 0 1.0000004 0\n"
        path = tmp_path / "c.circuit"
        path.write_text(f"qubits {n}\nh {n - 1}\n" + line * 10)
        code, out, err = run_cli(capsys, "run", str(path), "--shots", shots)
        assert_one_error(code, err)
        assert "state norm" in err and out == ""


class TestDJ:
    def test_constant(self, tmp_path, capsys):
        path = tmp_path / "f.oracle"
        path.write_text("inputs 3\n00000000\n")
        code, out, err = run_cli(capsys, "dj", str(path))
        assert code == 0
        report = json_out(out)
        assert report["verdict"] == "constant"
        assert report["quantum_queries"] == 1
        assert "constant" in err

    def test_balanced(self, tmp_path, capsys):
        path = tmp_path / "f.oracle"
        path.write_text("inputs 3\n01010101\n")
        code, out, _ = run_cli(capsys, "dj", str(path))
        assert code == 0
        assert json_out(out)["verdict"] == "balanced"

    def test_malformed_table(self, tmp_path, capsys):
        path = tmp_path / "f.oracle"
        path.write_text("inputs 3\n010\n")
        code, _, err = run_cli(capsys, "dj", str(path))
        assert code == 2
        assert "error:" in err


class TestShor:
    def test_factor_15(self, capsys):
        code, out, _ = run_cli(capsys, "shor", "15", "--seed", "1")
        assert code == 0
        report = json_out(out)
        assert report["factor"] in (3, 5)
        assert 15 % report["factor"] == 0

    def test_rejects_even(self, capsys):
        code, _, err = run_cli(capsys, "shor", "16")
        assert code == 2
        assert "error:" in err and "even" in err


    def test_no_factor_found(self, capsys):
        with mock.patch("qckit.cli.algorithms.shor_factor",
                        return_value=None):
            code, out, err = run_cli(capsys, "shor", "15", "--seed", "3")
        assert code == 1
        assert json_out(out) == {"command": "shor", "n": 15, "seed": 3,
                                 "factor": None}
        assert '"factor": null' in out
        assert err == "no factor of 15 found\n"


class TestQTMCheck:
    def test_move_right(self, tmp_path, capsys):
        path = tmp_path / "mr.qtm"
        path.write_text(MOVE_RIGHT)
        code, out, _ = run_cli(
            capsys, "qtm-check", str(path), "--tape-cells", "2"
        )
        assert code == 0
        assert json_out(out)["well_formed"] is True

    def test_broken(self, tmp_path, capsys):
        path = tmp_path / "bad.qtm"
        path.write_text(BROKEN)
        code, out, _ = run_cli(
            capsys, "qtm-check", str(path), "--tape-cells", "2"
        )
        assert code == 0
        report = json_out(out)
        assert report["well_formed"] is False
        assert report["violations"]


class TestCompile:
    def test_compile_move_right(self, tmp_path, capsys):
        path = tmp_path / "mr.qtm"
        path.write_text(MOVE_RIGHT)
        out_path = tmp_path / "mr.circuit"
        code, out, _ = run_cli(
            capsys, "compile", str(path), "--tape-cells", "2",
            "-o", str(out_path),
        )
        assert code == 0
        report = json_out(out)
        assert report["max_deviation"] < 1e-8
        # the emitted file must round-trip into an equivalent circuit
        from qckit.circuit import circuit_unitary, parse_circuit
        from qckit.compiler import pad_to_power_of_two
        from qckit.qtm import load_qtm, step_operator

        circuit = parse_circuit(out_path.read_text())
        m = pad_to_power_of_two(step_operator(load_qtm(str(path)), 2))
        assert np.max(np.abs(circuit_unitary(circuit) - m)) < 1e-8

    def test_compile_broken_machine(self, tmp_path, capsys):
        path = tmp_path / "bad.qtm"
        path.write_text(BROKEN)
        code, _, err = run_cli(capsys, "compile", str(path))
        assert code == 2
        assert "error:" in err


class TestQFT:
    def test_basis_one(self, capsys):
        code, out, _ = run_cli(capsys, "qft", "2", "1")
        assert code == 0
        amps = json_out(out)["amplitudes"]
        expected = 0.5 * np.array([1, 1j, -1, -1j])
        got = np.array([re + 1j * im for re, im in amps])
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_bad_index(self, capsys):
        code, _, err = run_cli(capsys, "qft", "2", "9")
        assert_one_error(code, err)
        assert "basis index 9" in err and "2 qubits" in err

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_no_qubits(self, capsys, n):
        code, out, err = run_cli(capsys, "qft", n)
        assert_one_error(code, err)
        assert "capped" not in err and f"got {n}" in err
        assert out == ""

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "/nonexistent.circuit")
        assert code == 2
        assert "error:" in err


def assert_one_error(code, err, line=None):
    """Exit 2 with a single `error:` line, naming the input line if given."""
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    if line is not None:
        assert f"line {line}:" in lines[0]


class TestInputBoundary:
    @pytest.mark.parametrize("entries", [
        "0 0 0 0 0 0 0 0",   # all-zero core: used to end in a numpy traceback
        "2 0 0 0 0 0 2 0",   # 2*I: used to be renormalized without a word
    ])
    def test_non_unitary_core_names_line(self, tmp_path, capsys, entries):
        path = tmp_path / "c.circuit"
        path.write_text(f"qubits 1\nh 0\nunitary 0 0 : {entries}\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert_one_error(code, err, line=3)
        assert "not unitary" in err

    def test_norm_drift_rejected_before_sampling(self, tmp_path, capsys):
        # each core is unitary within GATE_NORM_TOL; ten of them are not
        line = "unitary 0 0 : 1.0000004 0 0 0 0 0 1.0000004 0\n"
        path = tmp_path / "c.circuit"
        path.write_text("qubits 1\n" + line * 10)
        code, _, err = run_cli(capsys, "run", str(path))
        assert_one_error(code, err)
        assert "norm" in err

    @pytest.mark.parametrize("flag", ["--shots=-5", "--seed=-1"])
    def test_negative_count_flags(self, tmp_path, capsys, flag):
        path = tmp_path / "bell.circuit"
        path.write_text(BELL)
        code, _, err = run_cli(capsys, "run", str(path), flag)
        assert_one_error(code, err)
        assert flag.split("=")[0] in err

    def test_negative_seed_any_command(self, capsys):
        code, _, err = run_cli(capsys, "shor", "15", "--seed=-1")
        assert_one_error(code, err)

    def test_seed_only_where_used(self, capsys):
        # qft draws nothing, so it does not take --seed
        with pytest.raises(SystemExit) as exit_:
            main(["qft", "3", "--seed", "1"])
        assert exit_.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["qtm-check", "compile"])
    @pytest.mark.parametrize("cells", ["-1", "0"])
    def test_empty_tape_window(self, tmp_path, capsys, command, cells):
        path = tmp_path / "mr.qtm"
        path.write_text(MOVE_RIGHT)
        code, _, err = run_cli(
            capsys, command, str(path), f"--tape-cells={cells}"
        )
        assert_one_error(code, err)
        assert "cell" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
    def test_bad_compile_tolerance(self, tmp_path, capsys, tol):
        path = tmp_path / "mr.qtm"
        path.write_text(MOVE_RIGHT)
        code, _, err = run_cli(
            capsys, "compile", str(path), f"--tol={tol}",
            "-o", str(tmp_path / "out.circuit"),
        )
        assert_one_error(code, err)
        assert "tolerance" in err

    @pytest.mark.parametrize("char", ["2", " ", "é"])
    def test_bad_oracle_bitstring_names_line(self, tmp_path, capsys, char):
        path = tmp_path / "f.oracle"
        path.write_text(f"inputs 2\n01{char}0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "dj", str(path))
        assert_one_error(code, err, line=2)
        assert "bitstring" in err

    @pytest.mark.parametrize("command, text", [
        ("dj", b"inputs 2\n01\xe910\n"),
        ("run", b"qubits 1\nh 0 # \xe9\n"),
        ("qtm-check", b"states q0 ; initial q0 ; final q0 # \xe9\n"),
    ])
    def test_file_not_utf8(self, tmp_path, capsys, command, text):
        path = tmp_path / "input"
        path.write_bytes(text)
        code, _, err = run_cli(capsys, command, str(path))
        assert_one_error(code, err)
        assert "utf-8" in err

    @pytest.mark.parametrize("line, message", [
        ("unitary 0 0 1 0 0 0 0 1 0", "needs ':' separator"),
        ("unitary : 1 0", "needs controls count and targets"),
        ("unitary 1 0 : 1 0 0 0 0 0 1 0", "bad control count 1"),
        ("unitary 0 0 : 1 0 0 0", "expected 8 matrix entries, got 4"),
        ("oracle f 0", "needs a name, inputs and an ancilla"),
    ], ids=["no-separator", "nothing-before-separator", "controls",
            "entries", "oracle-too-short"])
    def test_malformed_gate_line_names_line(self, tmp_path, capsys, line,
                                            message):
        path = tmp_path / "c.circuit"
        path.write_text(f"qubits 2\n{line}\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert_one_error(code, err, line=2)
        assert message in err
        assert out == ""

    def test_compile_over_decompose_cap(self, tmp_path, capsys):
        # 6 head positions times 2**6 tapes: 384 configurations
        path = tmp_path / "coin.qtm"
        path.write_text(COIN)
        code, _, err = run_cli(capsys, "compile", str(path),
                               "--tape-cells", "6",
                               "-o", str(tmp_path / "coin.circuit"))
        assert_one_error(code, err)
        assert err == "error: configuration count 384 exceeds 256\n"

    @pytest.mark.parametrize("text, line, message", [
        (MOVE_RIGHT.replace("R 1 0\nq0 1", "R 1 0\nq0 1 -> q9 1 R 1 0\nq0 1"),
         4, "undeclared state 'q9'"),
        (MOVE_RIGHT.replace("q0 0 -> q0 0", "q0 0 -> q0 7"),
         3, "undeclared symbol '7'"),
        (MOVE_RIGHT.replace("initial q0", "initial q5"),
         1, "undeclared state 'q5'"),
        (MOVE_RIGHT.replace("alphabet 0 1", "alphabet 0 1 0"),
         2, "duplicate alphabet symbols"),
        ("# header\n\n" + MOVE_RIGHT.replace("final q0", "final qf")
         .replace("states q0", "states q0 qf")
         + "qf 0 -> q0 0 R 1 0\n",
         7, "final state must have no outgoing transitions"),
    ], ids=["target-state", "written-symbol", "initial", "alphabet",
            "final-outgoing"])
    def test_qtm_semantic_error_names_line(
        self, tmp_path, capsys, text, line, message
    ):
        path = tmp_path / "m.qtm"
        path.write_text(text)
        code, _, err = run_cli(capsys, "qtm-check", str(path))
        assert_one_error(code, err, line=line)
        assert message in err


class TestCountsCheckedFirst:
    """A count in an input file is checked before it sizes anything, so
    a huge one is one `error: line N:` line, not a traceback."""

    @pytest.mark.parametrize("command, text, line", [
        ("dj", "inputs 20000\n0\n", 1),
        ("run", "qubits 30\nh 0\n", 1),
        ("run", "qubits 24\nunitary 0 "
         + " ".join(map(str, range(8000))) + " : 1 0\n", 2),
    ], ids=["oracle-inputs", "qubits", "unitary-targets"])
    def test_one_error_line(self, tmp_path, capsys, command, text, line):
        path = tmp_path / "input"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, str(path))
        assert_one_error(code, err, line=line)
        assert out == ""


def _command_argv(tmp_path, command):
    """Arguments of a successful call of each subcommand."""
    circuit = tmp_path / "bell.circuit"
    circuit.write_text(BELL)
    oracle = tmp_path / "f.oracle"
    oracle.write_text("inputs 2\n0110\n")
    machine = tmp_path / "mr.qtm"
    machine.write_text(MOVE_RIGHT)
    return {
        "run": ["run", str(circuit), "--shots", "16"],
        "dj": ["dj", str(oracle)],
        "shor": ["shor", "15", "--seed", "1"],
        "qtm-check": ["qtm-check", str(machine), "--tape-cells", "2"],
        "compile": ["compile", str(machine), "--tape-cells", "2",
                    "-o", str(tmp_path / "mr.circuit")],
        "qft": ["qft", "2", "1"],
    }[command]


class TestOutputPath:
    """`main` writes every report: one stderr summary line unless --json,
    then one JSON line that starts with `command` and ends with
    `wall_time_ms`."""

    COMMANDS = ["run", "dj", "shor", "qtm-check", "compile", "qft"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_summary_then_report(self, tmp_path, capsys, command):
        code, out, err = run_cli(capsys, *_command_argv(tmp_path, command))
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 1 and not lines[0].startswith("error:"), err
        assert out.count("\n") == 1
        keys = list(json.loads(out))
        assert keys[0] == "command" and keys[-1] == "wall_time_ms"
        assert json.loads(out)["command"] == command

    @pytest.mark.parametrize("command", COMMANDS)
    def test_json_silences_stderr(self, tmp_path, capsys, command):
        argv = _command_argv(tmp_path, command) + ["--json"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        keys = list(json.loads(out))
        assert keys[0] == "command" and keys[-1] == "wall_time_ms"


class TestShotsCap:
    def test_at_cap(self, tmp_path, capsys):
        path = tmp_path / "bell.circuit"
        path.write_text(BELL)
        code, out, err = run_cli(
            capsys, "run", str(path), f"--shots={MAX_SHOTS}", "--json")
        assert code == 0 and err == ""
        counts = json_out(out)["counts"]
        assert set(counts) == {"00", "11"}
        assert sum(counts.values()) == MAX_SHOTS

    @pytest.mark.parametrize("shots", [MAX_SHOTS + 1, 10 ** 12])
    def test_too_many_shots(self, tmp_path, capsys, shots):
        path = tmp_path / "bell.circuit"
        path.write_text(BELL)
        code, out, err = run_cli(capsys, "run", str(path), f"--shots={shots}")
        assert_one_error(code, err)
        assert "--shots" in err and str(MAX_SHOTS) in err
        assert out == ""


class TestParserState:
    def test_oracle_lists_are_not_shared(self, tmp_path, capsys):
        circuit = tmp_path / "c.circuit"
        circuit.write_text("qubits 2\noracle f 0 1\n")
        for name, table in (("f", "01"), ("g", "10")):
            (tmp_path / f"{name}.oracle").write_text(f"inputs 1\n{table}\n")
        seen = []

        def record(pairs):
            seen.append(list(pairs))
            return parse_bindings(pairs)

        parse_bindings = qckit.cli._parse_oracle_bindings
        with mock.patch("qckit.cli._parse_oracle_bindings", record):
            for binding in ([f"f={tmp_path / 'f.oracle'}"],
                            [f"f={tmp_path / 'g.oracle'}"], []):
                argv = ["run", str(circuit), "--json"]
                for pair in binding:
                    argv += ["--oracle", pair]
                main(argv)
        capsys.readouterr()
        assert seen == [[f"f={tmp_path / 'f.oracle'}"],
                        [f"f={tmp_path / 'g.oracle'}"], []]
