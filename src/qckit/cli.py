"""Command-line front end.

Machine-readable JSON goes to stdout; human-readable summaries and
diagnostics go to stderr. Every error path exits nonzero with a single
`error:`-prefixed line on stderr. Output is byte-identical for a fixed
command and seed, except the trailing wall_time_ms field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from qckit import algorithms, compiler, qtm
from qckit.circuit import parse_circuit, serialize_circuit, simulate
from qckit.errors import QckitError
from qckit.oracle import QueryCounter, load_oracle
from qckit.state import _born_probabilities, _cdf_draws, basis_state


def _human(args, message: str) -> None:
    """Stderr summary line, suppressed under --json."""
    if not getattr(args, "json", False):
        print(message, file=sys.stderr)


def _emit(report: dict, started: float) -> None:
    report["wall_time_ms"] = round((time.monotonic() - started) * 1000.0, 3)
    print(json.dumps(report))


def _parse_oracle_bindings(pairs: list[str]) -> dict:
    table = {}
    for pair in pairs:
        if "=" not in pair:
            raise QckitError(
                f"--oracle expects name=path, got {pair!r}"
            )
        name, path = pair.split("=", 1)
        table[name] = load_oracle(path, name=name)
    return table


def cmd_run(args, started: float) -> int:
    if args.shots < 0:
        raise QckitError(f"--shots must be >= 0, got {args.shots}")
    with open(args.circuit, encoding="utf-8") as f:
        circuit = parse_circuit(f.read())
    oracle_table = _parse_oracle_bindings(args.oracle)
    counter = QueryCounter()
    final = simulate(circuit, oracle_table=oracle_table, counter=counter)
    probabilities = _born_probabilities(final)
    counts: dict[str, int] = {}
    if args.shots > 0:
        rng = np.random.default_rng(args.seed)
        samples = _cdf_draws(probabilities, rng, args.shots)
        for index in samples:
            key = format(int(index), f"0{circuit.n_qubits}b")
            counts[key] = counts.get(key, 0) + 1
    report = {
        "command": "run",
        "circuit": args.circuit,
        "seed": args.seed,
        "shots": args.shots,
        "counts": dict(sorted(counts.items())),
        "quantum_queries": counter.quantum_queries,
        "classical_queries": counter.classical_queries,
    }
    _human(args, f"{sum(counts.values())} shots over {len(counts)} outcomes")
    _emit(report, started)
    return 0


def cmd_dj(args, started: float) -> int:
    oracle = load_oracle(args.oracle_file, name="f")
    verdict = algorithms.deutsch_jozsa(oracle)
    _human(args, verdict.verdict)
    _emit(
        {
            "command": "dj",
            "oracle": args.oracle_file,
            "verdict": verdict.verdict,
            "quantum_queries": verdict.quantum_queries,
            "all_zeros_probability": verdict.all_zeros_probability,
        },
        started,
    )
    return 0


def cmd_shor(args, started: float) -> int:
    result = algorithms.shor_factor(args.n, rng_seed=args.seed)
    if result is None:
        _human(args, f"no factor of {args.n} found")
        _emit(
            {"command": "shor", "n": args.n, "seed": args.seed,
             "factor": None},
            started,
        )
        return 1
    _human(args, f"{args.n} = {result.factor} * {args.n // result.factor}")
    _emit(
        {
            "command": "shor",
            "n": args.n,
            "seed": args.seed,
            "factor": result.factor,
            "cofactor": args.n // result.factor,
            "order_r": result.order_r,
            "attempts": result.attempts,
        },
        started,
    )
    return 0


def cmd_qtm_check(args, started: float) -> int:
    machine = qtm.load_qtm(args.machine)
    ok, violations = qtm.check_well_formed(machine, args.tape_cells)
    _human(args, "well-formed" if ok else "NOT well-formed")
    _emit(
        {
            "command": "qtm-check",
            "machine": args.machine,
            "tape_cells": args.tape_cells,
            "well_formed": ok,
            "violations": violations,
        },
        started,
    )
    return 0


def cmd_compile(args, started: float) -> int:
    machine = qtm.load_qtm(args.machine)
    circuit, report = compiler.compile_qtm_step(
        machine, args.tape_cells, tol=args.tol
    )
    out_path = args.output or args.machine + ".circuit"
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(serialize_circuit(circuit))
    _human(args, f"wrote {out_path}")
    _emit(
        {
            "command": "compile",
            "machine": args.machine,
            "tape_cells": args.tape_cells,
            "circuit_file": out_path,
            **report.as_dict(),
        },
        started,
    )
    return 0


def cmd_qft(args, started: float) -> int:
    circuit = algorithms.qft_circuit(args.n)
    dim = 2 ** args.n
    if not 0 <= args.basis_index < dim:
        raise QckitError(
            f"basis index {args.basis_index} out of range for n={args.n}"
        )
    final = simulate(circuit, basis_state(args.n, args.basis_index))
    amps = [[float(a.real), float(a.imag)] for a in final.amps]
    _human(args, f"qft({args.n}) on basis {args.basis_index}")
    _emit(
        {
            "command": "qft",
            "n": args.n,
            "basis_index": args.basis_index,
            "amplitudes": amps,
        },
        started,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qckit", description="gate-level quantum computation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
        p.add_argument(
            "--json", action="store_true",
            help="suppress the human-readable stderr summary",
        )

    p = sub.add_parser("run", help="simulate a circuit file and sample shots")
    p.add_argument("circuit")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument(
        "--oracle", action="append", default=[], metavar="NAME=PATH"
    )
    add_seed(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("dj", help="Deutsch-Jozsa on an oracle file")
    p.add_argument("oracle_file")
    add_seed(p)
    p.set_defaults(func=cmd_dj)

    p = sub.add_parser("shor", help="factor a small odd composite")
    p.add_argument("n", type=int)
    add_seed(p)
    p.set_defaults(func=cmd_shor)

    p = sub.add_parser("qtm-check", help="well-formedness of a QTM file")
    p.add_argument("machine")
    p.add_argument("--tape-cells", type=int, default=3, dest="tape_cells")
    add_seed(p)
    p.set_defaults(func=cmd_qtm_check)

    p = sub.add_parser("compile", help="compile a QTM step to a circuit")
    p.add_argument("machine")
    p.add_argument("--tape-cells", type=int, default=2, dest="tape_cells")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("-o", "--output", default=None)
    add_seed(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("qft", help="QFT amplitudes of a basis state")
    p.add_argument("n", type=int)
    p.add_argument("basis_index", type=int, nargs="?", default=0)
    add_seed(p)
    p.set_defaults(func=cmd_qft)

    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise QckitError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args, started)
    except (QckitError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
