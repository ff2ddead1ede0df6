"""The three workloads: inputs made from a seed, one pass of jobs, and the
independent check of every job's output.

A job is one call into a public qckit entry point: `qckit.cli.main(argv)`
with stdout captured, or a library function where no CLI command exists.
Entry points are looked up by name at call time, so the traced run's
wrappers see the call. Each pass has a fixed composition (widths, gate
mix, machine windows, job kinds), and the seed draws targets, angles,
tables, amplitudes and job order, so every seed costs about the same.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import reference as ref

SHOTS = 1024
SIGMAS = 6.0          # marginal check: allowed deviation of a shot share
AMP_TOL = 1e-9        # reference vs simulate amplitudes
COMPILE_TOL = 1e-8    # qckit compile's default equivalence tolerance


class Job:
    """One call: `argv` for the CLI, or (module, function, args)."""

    def __init__(self, kind, check, argv=None, func=None, args=()):
        self.kind = kind
        self.check = check
        self.argv = argv
        self.func = func
        self.args = args


class Failure:
    """A job that raised instead of returning."""

    def __init__(self, error: BaseException):
        self.error = repr(error)

    def __repr__(self):
        return f"Failure({self.error})"


def run_job(qckit, job: Job, pass_index: int):
    """Execute one job; CLI jobs return (exit code, stdout text)."""
    if job.argv is not None:
        argv = [a.format(p=pass_index) for a in job.argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = qckit.cli.main(argv)
            except SystemExit as e:  # argparse rejects the arguments
                code = e.code
        return code, out.getvalue()
    module, name = job.func
    return getattr(getattr(qckit, module), name)(*job.args)


def cli_report(output) -> dict:
    """The JSON report of a CLI job that exited 0."""
    code, text = output
    if code != 0:
        raise ValueError(f"exit code {code}")
    report = json.loads(text.strip().splitlines()[-1])
    report.pop("wall_time_ms")
    return report


def canonical(output) -> str:
    """Output with the timing field removed, for de-duplicating checks."""
    if isinstance(output, tuple):
        code, text = output
        try:
            return f"{code}:{json.dumps(cli_report(output), sort_keys=True)}"
        except (ValueError, KeyError, IndexError):
            return f"{code}:{text}"
    return repr(output)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def _random_unitary(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unitary_line(controls, targets, core) -> str:
    entries = " ".join(f"{float(v.real)!r} {float(v.imag)!r}"
                       for v in core.reshape(-1))
    qubits = " ".join(str(q) for q in list(controls) + list(targets))
    return f"unitary {len(controls)} {qubits} : {entries}"


def _spread(rng, qubits, k, offset) -> list[int]:
    """k distinct qubits evenly spaced over `qubits` from `offset`, in
    random order. With a uniformly drawn offset each is uniform over
    `qubits`, and every draw has a similar mix of axis positions, which
    is what a gate's cost depends on."""
    qubits = list(qubits)
    picked = [qubits[(offset + j * len(qubits) // k) % len(qubits)]
              for j in range(k)]
    return [int(q) for q in rng.permutation(picked)]


def _gate_lines(rng, n, one_q, two_q, mcx_controls, offset, avoid=()):
    """Named gates on targets spread from `offset`, none acting on
    `avoid` except as a control."""
    free = [q for q in range(n) if q not in avoid]
    lines = []
    for q in _spread(rng, free, one_q, offset):
        name = rng.choice(["x", "y", "z", "h", "s", "t", "phase"])
        angle = f" ( {float(rng.uniform(0, 2 * np.pi))!r} )" \
            if name == "phase" else ""
        lines.append(f"{name}{angle} {q}")
    pairs = _spread(rng, free, 2 * two_q, offset)
    for a, b in zip(pairs[0::2], pairs[1::2]):
        name = rng.choice(["cx", "cphase", "swap"])
        if name == "cx" and avoid and rng.random() < 0.5:
            a = int(rng.choice(list(avoid)))  # entangle through a control
        angle = f" ( {float(rng.uniform(0, 2 * np.pi))!r} )" \
            if name == "cphase" else ""
        lines.append(f"{name}{angle} {a} {b}")
    if mcx_controls:
        qs = _spread(rng, free, mcx_controls + 1, offset)
        name = "ccx" if mcx_controls == 2 else "mcx"
        lines.append(f"{name} " + " ".join(map(str, qs)))
    return lines


class Workload:
    """One pass of jobs plus the state their checks need.

    Latency figures are taken over the first `latency_passes` passes of a
    run, a fixed number of jobs whatever the program's speed, so that the
    same percentile rank is reported on every run.
    """

    latency_passes = 1

    def __init__(self):
        self.jobs: list[Job] = []
        self.warmup: list[Job] = []
        self.extra: dict[str, float] = {}

    def finish(self, records) -> list[str]:
        """Checks and metrics over the whole run; returns problems."""
        return []


# -- sv-wide -------------------------------------------------------------

# (width, mcx/ccx controls, (controls, core qubits) of a raw unitary line,
# copies per pass). The composition is fixed so every seed does about the
# same work. The 22-qubit circuit runs four times per pass, with other shot
# seeds, and costs about five times a 20-qubit job, so over the 3 latency
# passes (27 jobs) the median and the tail (p63) fall among its 12 runs,
# never on a boundary between widths. Its 64 MiB states outgrow the cache
# that 20-qubit states share with the rest of the host, whose load moves
# 20-qubit latencies by up to a third from one quarter-hour to the next.
SV_CIRCUITS = ((20, 2, (1, 1), 1), (20, 5, (2, 2), 1), (20, 6, (1, 2), 1),
               (20, 7, (3, 1), 1), (22, 3, None, 4), (24, 4, None, 1))
ORACLE_INPUTS = 10


class SvWide(Workload):
    """`qckit run --shots 1024` on 20- and 22-qubit circuits and one
    24-qubit circuit per pass: the dense kernel and apply_oracle at 16-256 MiB."""

    latency_passes = 3

    def __init__(self, seed, workdir, qckit):
        super().__init__()
        self.qckit = qckit
        rng = np.random.default_rng([seed, 1])
        self.circuits = {}
        wide = max(spec[0] for spec in SV_CIRCUITS)
        # circuits of one width take offsets evenly spaced from one random
        # base, so each pass covers the axis positions alike for every seed
        base = int(rng.integers(wide))
        jobs = []
        for i, (n, mcx, unitary, copies) in enumerate(SV_CIRCUITS):
            same = [j for j, spec in enumerate(SV_CIRCUITS) if spec[0] == n]
            offset = (base + same.index(i) * n // len(same)) % n
            lines = _gate_lines(rng, n, 3 if n == wide else 6,
                                1 if n == wide else 2, mcx, offset)
            if unitary:
                c, k = unitary
                qs = _spread(rng, range(n), c + k, offset)
                lines.append(_unitary_line(qs[:c], qs[c:],
                                           _random_unitary(rng, 2 ** k)))
            rng.shuffle(lines)
            qs = _spread(rng, range(n), ORACLE_INPUTS + 1, offset)
            lines.insert(int(rng.integers(len(lines) + 1)),
                         "oracle f " + " ".join(map(str, qs)))
            table = rng.integers(0, 2, 2 ** ORACLE_INPUTS)
            text = f"qubits {n}\n" + "\n".join(lines) + "\n"
            cpath = _write(os.path.join(workdir, f"c{i}.circuit"), text)
            opath = _write(os.path.join(workdir, f"c{i}.oracle"),
                           f"inputs {ORACLE_INPUTS}\n"
                           + "".join(map(str, table)) + "\n")
            self.circuits[i] = (cpath, opath, text, table)
            for _ in range(copies):
                argv = ["run", cpath, "--shots", str(SHOTS), "--oracle",
                        f"f={opath}", "--seed",
                        str(int(rng.integers(2**31))), "--json"]
                jobs.append(Job(f"run{n}", self._checker(i, n), argv=argv))
        self.warmup = jobs[:1]  # the cheapest circuit: a steady set-up time
        self.jobs = [jobs[i] for i in rng.permutation(len(jobs))]
        self._marginals = {}

    def _reference(self, i):
        """Per-qubit P(1) of circuit i, after checking the reference
        amplitudes against qckit's `circuit.simulate` within AMP_TOL."""
        if i not in self._marginals:
            cpath, opath, text, table = self.circuits[i]
            n, ops = ref.parse_circuit_text(text)
            amps = ref.simulate(n, ops, {"f": table})
            q = self.qckit
            with open(cpath, encoding="utf-8") as f:
                circuit = q.circuit.parse_circuit(f.read())
            got = q.circuit.simulate(
                circuit, oracle_table={"f": q.oracle.load_oracle(opath, "f")})
            gap = max(float(np.max(np.abs(a - b)))
                      for a, b in zip(np.array_split(amps, 16),
                                      np.array_split(got.amps, 16)))
            del got
            probs = (np.abs(amps) ** 2).reshape([2] * n)
            del amps
            marg = [float(probs.reshape(2 ** k, 2, -1)[:, 1, :].sum())
                    for k in range(n)]
            self._marginals[i] = (gap, marg)
        return self._marginals[i]

    def _checker(self, i, n):
        def check(output):
            report = cli_report(output)
            counts = report["counts"]
            if report["quantum_queries"] != 1:
                return f"quantum_queries {report['quantum_queries']} != 1"
            if sum(counts.values()) != SHOTS:
                return f"counts sum to {sum(counts.values())}, not {SHOTS}"
            if any(len(k) != n or set(k) - {"0", "1"} for k in counts):
                return "malformed outcome key"
            gap, marg = self._reference(i)
            if gap > AMP_TOL:
                return f"simulate differs from reference by {gap:.3g}"
            for q, p in enumerate(marg):
                ones = sum(c for k, c in counts.items() if k[q] == "1")
                sigma = math.sqrt(max(p * (1 - p), 0.0) / SHOTS)
                if abs(ones / SHOTS - p) > SIGMAS * sigma + 1e-9:
                    return f"qubit {q}: share of ones {ones / SHOTS} vs {p}"
            return None
        return check


# -- qtm-compile ---------------------------------------------------------

R2 = 1.0 / math.sqrt(2.0)
FIXED_MACHINES = {
    "coin": (["q0"], ["0", "1"], [
        ("q0", "0", "q0", "0", "R", R2), ("q0", "0", "q0", "1", "R", R2),
        ("q0", "1", "q0", "0", "R", R2), ("q0", "1", "q0", "1", "R", -R2)]),
    "move_right": (["q0"], ["0", "1"], [
        ("q0", s, "q0", s, "R", 1.0) for s in "01"]),
    # malformed: doubled has two unit branches from (q0, 0), partial has no
    # transition on 1
    "doubled": (["q0"], ["0", "1"], [
        ("q0", "0", "q0", "0", "R", 1.0), ("q0", "0", "q0", "1", "R", 1.0),
        ("q0", "1", "q0", "1", "R", 1.0)]),
    "partial": (["q0"], ["0", "1"], [("q0", "0", "q0", "0", "R", 1.0)]),
}
# (machine, tape cells): padded dims 8-64; coin at 5 cells (dim 256) is
# left out because it takes over a minute per job
COMPILE_SET = (("coin", 2), ("coin", 3), ("coin", 4), ("move_right", 2),
               ("move_right", 3), ("rotor", 2), ("trit", 2))
# windows of 320-2048 configurations, cheapest first. Each pass has nine
# jobs cheaper than the eight equal-cost 896-configuration checks (7 cells,
# one state, two symbols) and nine dearer, so the median job falls in the
# middle of that block rather than between two jobs of different cost.
# Over the 3 latency passes (78 jobs) the three coin-4 compiles and seven
# of the twelve 8-cell doubled checks lie beyond the tail (p87.2), which
# is the fifth-cheapest of those twelve equal-cost runs.
CHECK_SET = (("rotor", 5), ("trit", 4), ("coin", 6), ("move_right", 6),
             ("partial", 6), ("doubled", 6), ("rotor", 6)) + 2 * (
    ("coin", 7), ("move_right", 7), ("partial", 7), ("doubled", 7)) + 4 * (
    ("doubled", 8),)


def _local_unitary_machine(states, alphabet, u):
    """Right-moving machine whose (state, symbol) -> (state, symbol) map
    is the unitary u; well-formed on every window."""
    pairs = [(q, s) for q in states for s in alphabet]
    return (states, alphabet, [
        (q, s, q2, s2, "R", complex(u[b, a]))
        for a, (q, s) in enumerate(pairs) for b, (q2, s2) in enumerate(pairs)])


def machines(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    found = dict(FIXED_MACHINES)
    found["rotor"] = _local_unitary_machine(["a", "b"], ["0", "1"],
                                            _random_unitary(rng, 4))
    found["trit"] = _local_unitary_machine(["q0"], ["0", "1", "2"],
                                           _random_unitary(rng, 3))
    return found


class QtmCompile(Workload):
    """`qckit compile` at padded dims 8-64 and `qckit qtm-check` on
    320-2048 configurations, two malformed machines among them."""

    latency_passes = 3

    def __init__(self, seed, workdir, checks=True):
        super().__init__()
        self.machines = machines(seed)
        self._expected = {}
        paths = {name: _write(os.path.join(workdir, f"{name}.qtm"),
                              ref.qtm_text(*m))
                 for name, m in self.machines.items()}
        rng = np.random.default_rng([seed, 3])
        jobs = []
        for name, cells in COMPILE_SET:
            out = os.path.join(workdir, f"{name}{cells}_{{p}}.circuit")
            jobs.append(Job("compile", self._compile_check(name, cells),
                            argv=["compile", paths[name], "--tape-cells",
                                  str(cells), "-o", out, "--json"]))
        self.warmup = jobs[:1]  # the cheapest compile job
        if checks:
            for name, cells in CHECK_SET:
                jobs.append(Job("qtm-check", self._wf_check(name, cells),
                                argv=["qtm-check", paths[name],
                                      "--tape-cells", str(cells), "--json"]))
            self.warmup.append(jobs[len(COMPILE_SET)])  # the cheapest check
        self.jobs = [jobs[i] for i in rng.permutation(len(jobs))]

    def _compile_check(self, name, cells):
        m = self.machines[name]

        def check(output):
            report = cli_report(output)
            with open(report["circuit_file"], encoding="utf-8") as f:
                text = f.read()
            n, ops = ref.parse_circuit_text(text)
            if sum(report["gate_counts"].values()) != len(ops):
                return "gate_counts disagree with the circuit file"
            if report["max_deviation"] >= COMPILE_TOL:
                return f"reported deviation {report['max_deviation']}"
            key = ("step", name, cells)
            if key not in self._expected:
                self._expected[key] = ref.qtm_step_matrix(*m, cells)
            u = self._expected[key]
            if 2 ** n != u.shape[0] or report["padded_dim"] != u.shape[0]:
                return f"{n} qubits for padded dim {u.shape[0]}"
            gap = float(np.max(np.abs(ref.circuit_unitary(n, ops) - u)))
            if gap >= COMPILE_TOL:
                return f"compiled unitary differs from step by {gap:.3g}"
            return None
        return check

    def _wf_check(self, name, cells):
        m = self.machines[name]

        def check(output):
            report = cli_report(output)
            key = ("violations", name, cells)
            if key not in self._expected:
                self._expected[key] = ref.qtm_violations(*m, cells)
            v = self._expected[key]
            if report["well_formed"] != (v == 0):
                return f"verdict {report['well_formed']} with {v} violations"
            if len(report["violations"]) != v:
                return f"{len(report['violations'])} violations, expected {v}"
            return None
        return check

    def finish(self, records):
        ops = {}
        for i, p, _, out in records:
            job = self.jobs[i]
            if job.kind == "compile" and isinstance(out, tuple) and out[0] == 0:
                counts = cli_report(out)["gate_counts"]
                ops.setdefault(p, {})[i] = sum(counts.values())
        n_compile = sum(j.kind == "compile" for j in self.jobs)
        complete = [sum(v.values()) for v in ops.values()
                    if len(v) == n_compile]
        if not complete:
            return ["no complete pass over the compile jobs"]
        self.extra["compiled_ops"] = complete[0]
        if len(set(complete)) != 1:
            return [f"compiled_ops differs between passes: {complete}"]
        return []


# -- algo-mix ------------------------------------------------------------

# Precision qubits of the order-finding jobs, N being drawn from 17-32 (a
# 5-qubit work register). The six 9-precision jobs cost the same and hold
# the middle of the pass's latency order: nine jobs are cheaper and ten
# dearer, so the median job is one of them. They were chosen over dj or
# qft jobs because their dense work moves least when the host's speed does.
OF_PRECISION = (8,) + 6 * (9,) + (10, 11)
# (inputs, constant). The class is fixed per slot and the seed draws only
# the constant value or the balanced table, so a seed cannot change the
# mix. The 18-input job is the dearest; with 36 passes in the latency
# window the tail (p98.9) is the eleventh-dearest of its 36 runs.
DJ_SLOTS = ((10, True), (12, False), (14, True), (18, False))
QFT_WIDTHS = (8, 10, 12)
# (n, --seed): the seeds are fixed rather than drawn, because a factoring
# job's cost depends on its seed (a gcd shortcut or 1-5 order findings)
SHOR_JOBS = ((15, 0), (15, 1), (15, 2), (21, 0), (21, 1), (21, 2))
# (qubits, runs, accept probability); None draws 0 or 1
BDE_SPECS = ((12, 201, 2 / 3), (14, 101, None), (16, 45, 2 / 3))


class AlgoMix(Workload):
    """Order finding, `qckit shor`, `qckit dj`, decide_bounded_error and
    `qckit qft` at mid width: per-call costs on cache-resident states."""

    latency_passes = 36

    def __init__(self, seed, workdir, qckit):
        super().__init__()
        rng = np.random.default_rng([seed, 4])
        jobs = []
        for t in OF_PRECISION:
            n = int(rng.integers(17, 33))
            a = int(rng.choice([a for a in range(2, n) if math.gcd(a, n) == 1]))
            order = ref.multiplicative_order(a, n)
            jobs.append(Job("order_finding", self._order_check(order),
                            func=("algorithms", "order_finding"),
                            args=(a, n, t, int(rng.integers(2**31)))))
        for n, seed in SHOR_JOBS:
            jobs.append(Job("shor", self._shor_check(n),
                            argv=["shor", str(n), "--seed", str(seed),
                                  "--json"]))
        for n, constant in DJ_SLOTS:
            if constant:
                table = np.full(2 ** n, int(rng.integers(2)))
            else:
                table = rng.permutation(np.repeat([0, 1], 2 ** (n - 1)))
            path = _write(os.path.join(workdir, f"dj{len(jobs)}.oracle"),
                          f"inputs {n}\n" + "".join(map(str, table)) + "\n")
            jobs.append(Job("dj", self._dj_check(constant),
                            argv=["dj", path, "--json"]))
        self.wrong = []  # (verdict was wrong) for p = 2/3 jobs
        for n, runs, p in BDE_SPECS:
            if p is None:
                p = float(rng.integers(2))
            accept = int(rng.integers(n))
            lines = _gate_lines(rng, n, 12, 5, 3, int(rng.integers(n - 1)),
                                avoid=(accept,))
            if p == 1.0:
                lines.append(f"x {accept}")
            elif p > 0:
                c, s = math.sqrt(1 - p), math.sqrt(p)
                lines.append(_unitary_line([], [accept],
                                           np.array([[c, -s], [s, c]])))
            rng.shuffle(lines)
            circuit = qckit.circuit.parse_circuit(
                f"qubits {n}\n" + "\n".join(lines) + "\n")
            jobs.append(Job("bounded_error", self._bde_check(p, runs),
                            func=("algorithms", "decide_bounded_error"),
                            args=(circuit, accept, runs,
                                  int(rng.integers(2**31)))))
        for n in QFT_WIDTHS:
            j = int(rng.integers(2 ** n))
            jobs.append(Job("qft", self._qft_check(n, j),
                            argv=["qft", str(n), str(j), "--json"]))
        kinds = {}
        for job in jobs:  # the first, smallest job of each kind
            kinds.setdefault(job.kind, job)
        self.warmup = list(kinds.values())
        self.jobs = [jobs[i] for i in rng.permutation(len(jobs))]

    @staticmethod
    def _order_check(order):
        def check(r):
            if r is not None and r != order:
                return f"order {r}, minimal order is {order}"
            return None
        return check

    @staticmethod
    def _shor_check(n):
        def check(output):
            report = cli_report(output)
            f, cof = report["factor"], report["cofactor"]
            if not 1 < f < n or f * cof != n:
                return f"bad factors {f} x {cof} of {n}"
            return None
        return check

    @staticmethod
    def _dj_check(constant):
        def check(output):
            report = cli_report(output)
            want = "constant" if constant else "balanced"
            if report["verdict"] != want or report["quantum_queries"] != 1:
                return f"verdict {report['verdict']}, expected {want}"
            return None
        return check

    def _bde_check(self, p, runs):
        def check(v):
            ones = round(v.frequency * runs)
            if v.runs != runs or abs(ones - v.frequency * runs) > 1e-6:
                return f"frequency {v.frequency} over {v.runs} runs"
            if v.accept != (ones * 2 > runs):
                return f"verdict {v.accept} disagrees with {v.frequency}"
            if p in (0.0, 1.0):
                if v.frequency != p:
                    return f"deterministic circuit gave {v.frequency}"
            else:
                self.wrong.append(not v.accept)
            return None
        return check

    @staticmethod
    def _qft_check(n, j):
        want = ref.qft_amplitudes(n, j)

        def check(output):
            report = cli_report(output)
            got = np.array(report["amplitudes"])
            got = got[:, 0] + 1j * got[:, 1]
            gap = float(np.max(np.abs(got - want)))
            if gap > AMP_TOL:
                return f"qft amplitudes differ by {gap:.3g}"
            return None
        return check

    def finish(self, records):
        self.extra["algorithms.decide_bounded_error.wrong_ratio"] = (
            sum(self.wrong) / len(self.wrong) if self.wrong else 0.0)
        return []


def build(name: str, seed: int, workdir: str, qckit) -> Workload:
    if name == "sv-wide":
        return SvWide(seed, workdir, qckit)
    if name == "qtm-compile":
        return QtmCompile(seed, workdir)
    return AlgoMix(seed, workdir, qckit)
