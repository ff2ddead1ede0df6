"""Command-line front end.

Machine-readable JSON goes to stdout; human-readable summaries and
diagnostics go to stderr. Every error path exits nonzero with a single
`error:`-prefixed line on stderr. Output is byte-identical for a fixed
command and seed, except the trailing wall_time_ms field.

Each `cmd_*` function returns (exit code, stderr summary, report fields)
and prints nothing; `main` writes every report.
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

MAX_SHOTS = 2 ** 24  # the draws and their indices take 256 MiB


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


def cmd_run(args):
    if not 0 <= args.shots <= MAX_SHOTS:
        raise QckitError(
            f"--shots must be in [0, {MAX_SHOTS}], got {args.shots}")
    with open(args.circuit, encoding="utf-8") as f:
        circuit = parse_circuit(f.read())
    oracle_table = _parse_oracle_bindings(args.oracle)
    counter = QueryCounter()
    final = simulate(circuit, oracle_table=oracle_table, counter=counter)
    probabilities = _born_probabilities(final)
    counts = {}
    if args.shots > 0:
        rng = np.random.default_rng(args.seed)
        samples = _cdf_draws(probabilities, rng, args.shots)
        # sorted draws: each outcome is one run, in ascending key order
        samples.sort()
        starts = np.concatenate(
            ([0], np.flatnonzero(samples[1:] != samples[:-1]) + 1))
        sizes = np.diff(starts, append=args.shots)
        counts = {format(index, f"0{circuit.n_qubits}b"): size
                  for index, size in zip(samples[starts].tolist(),
                                         sizes.tolist())}
    return 0, f"{args.shots} shots over {len(counts)} outcomes", {
        "circuit": args.circuit,
        "seed": args.seed,
        "shots": args.shots,
        "counts": counts,
        "quantum_queries": counter.quantum_queries,
        "classical_queries": counter.classical_queries,
    }


def cmd_dj(args):
    oracle = load_oracle(args.oracle_file, name="f")
    verdict = algorithms.deutsch_jozsa(oracle)
    return 0, verdict.verdict, {
        "oracle": args.oracle_file,
        "verdict": verdict.verdict,
        "quantum_queries": verdict.quantum_queries,
        "all_zeros_probability": verdict.all_zeros_probability,
    }


def cmd_shor(args):
    result = algorithms.shor_factor(args.n, rng_seed=args.seed)
    fields = {"n": args.n, "seed": args.seed}
    if result is None:
        return 1, f"no factor of {args.n} found", {**fields, "factor": None}
    cofactor = args.n // result.factor
    return 0, f"{args.n} = {result.factor} * {cofactor}", {
        **fields,
        "factor": result.factor,
        "cofactor": cofactor,
        "order_r": result.order_r,
        "attempts": result.attempts,
    }


def cmd_qtm_check(args):
    machine = qtm.load_qtm(args.machine)
    ok, violations = qtm.check_well_formed(machine, args.tape_cells)
    return 0, "well-formed" if ok else "NOT well-formed", {
        "machine": args.machine,
        "tape_cells": args.tape_cells,
        "well_formed": ok,
        "violations": violations,
    }


def cmd_compile(args):
    machine = qtm.load_qtm(args.machine)
    circuit, report = compiler.compile_qtm_step(
        machine, args.tape_cells, tol=args.tol
    )
    out_path = args.output or args.machine + ".circuit"
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(serialize_circuit(circuit))
    return 0, f"wrote {out_path}", {
        "machine": args.machine,
        "tape_cells": args.tape_cells,
        "circuit_file": out_path,
        **report.as_dict(),
    }


def cmd_qft(args):
    circuit = algorithms.qft_circuit(args.n)
    final = simulate(circuit, basis_state(args.n, args.basis_index))
    return 0, f"qft({args.n}) on basis {args.basis_index}", {
        "n": args.n,
        "basis_index": args.basis_index,
        "amplitudes": final.amps.view(np.float64).reshape(-1, 2).tolist(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qckit", description="gate-level quantum computation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true",
        help="suppress the human-readable stderr summary",
    )
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")

    def command(name, func, help, parent=common):
        p = sub.add_parser(name, parents=[parent], help=help)
        p.set_defaults(func=func)
        return p

    p = command("run", cmd_run, "simulate a circuit file and sample shots",
                seeded)
    p.add_argument("circuit")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument(
        "--oracle", action="append", default=[], metavar="NAME=PATH"
    )

    p = command("dj", cmd_dj, "Deutsch-Jozsa on an oracle file")
    p.add_argument("oracle_file")

    p = command("shor", cmd_shor, "factor a small odd composite", seeded)
    p.add_argument("n", type=int)

    p = command("qtm-check", cmd_qtm_check, "well-formedness of a QTM file")
    p.add_argument("machine")
    p.add_argument("--tape-cells", type=int, default=3, dest="tape_cells")

    p = command("compile", cmd_compile, "compile a QTM step to a circuit")
    p.add_argument("machine")
    p.add_argument("--tape-cells", type=int, default=2, dest="tape_cells")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("-o", "--output", default=None)

    p = command("qft", cmd_qft, "QFT amplitudes of a basis state")
    p.add_argument("n", type=int)
    p.add_argument("basis_index", type=int, nargs="?", default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # only run and shor take --seed
            raise QckitError(f"--seed must be >= 0, got {args.seed}")
        code, summary, fields = args.func(args)
        if not args.json:
            print(summary, file=sys.stderr)
        wall_time_ms = round((time.monotonic() - started) * 1000.0, 3)
        print(json.dumps({"command": args.command, **fields,
                          "wall_time_ms": wall_time_ms}))
        return code
    except (QckitError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
