"""qckit benchmark: one closed-loop client driving qckit in-process.

    python3 perfbench/run.py --workload sv-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare base.txt new.txt

A run sets up its inputs from the seed, then sends jobs one at a time
(the next only when the previous returned) in whole passes over the
workload's job list until --seconds have passed and at least the
workload's latency passes are done, then checks every job's output
against the benchmark's own reference. Latency figures come from the
first latency passes only, so a faster program is measured at the same
percentile ranks. It prints each metric with
its unit, one JSON record line, and last the JSON result line. With
--trace 1 it runs the same loop untraced and then traced, and reports
the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
SAFETY_FACTOR = 4  # stop mid-pass once a run takes this many --seconds
MEMCPY_REPEATS = 5


IMPORT_SNIPPET = f"""
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qckit.{', qckit.'.join(tracing.MODULES)}
print(time.perf_counter() - t)
"""


def import_qckit():
    """Import qckit from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    qckit = importlib.import_module("qckit")
    for short in tracing.MODULES:
        importlib.import_module(f"qckit.{short}")
    if not os.path.abspath(qckit.__file__).startswith(src + os.sep):
        raise ImportError(f"qckit imported from {qckit.__file__}, not {src}")
    return qckit


def import_seconds(first: float) -> tuple[float, list[float]]:
    """Median time to import numpy and qckit: this process's own import
    plus IMPORT_REPEATS fresh interpreters, each timing its own import."""
    times = [first]
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET,
             os.path.join(ROOT, "src")],
            capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times), times


def machine_info(seed: int) -> dict:
    import numpy as np

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": _git_commit(),
    }
    try:
        with open("/proc/meminfo", encoding="ascii") as f:
            info["ram_mib"] = int(f.readline().split()[1]) // 1024
    except OSError:
        info["ram_mib"] = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = _blas_threads()
    llc = _llc_bytes()
    info["llc_bytes"] = llc
    info["state_bytes"] = {f"n{n}": 16 * 2 ** n for n in (20, 22, 24)}
    info["notes"] = [
        "gbps figures are computed bytes (2 x 16 x 2^n per kernel call), "
        "not measured memory traffic",
        f"the 4x-LLC bandwidth rule cannot be met: the largest state "
        f"(n=24, {16 * 2 ** 24 >> 20} MiB) is less than 4 x the "
        f"{(llc or 0) >> 20} MiB last-level cache",
    ]
    return info


def _git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            # look for a repository in this checkout only, not above it
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked.

    Read from the library itself (numpy must be imported), since a
    build-time cap or an environment variable may set it.
    """
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
        libs = {line.split()[-1] for line in f
                if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _llc_bytes() -> int | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as f:
                level = int(f.read())
            with open(os.path.join(base, entry, "size")) as f:
                size = f.read().strip()
            mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            value = int(size.rstrip("KM")) * mult
            if best is None or level >= best[0]:
                best = (level, value)
    except (OSError, ValueError):
        return None
    return best[1] if best else None


def memcpy_gbps(widths=(20, 22, 24)) -> dict[str, float]:
    """np.copyto of a 2^n complex128 array: 2 x 16 x 2^n computed bytes."""
    import numpy as np

    out = {}
    for n in widths:
        src = np.ones(2 ** n, dtype=np.complex128)
        dst = np.empty_like(src)
        np.copyto(dst, src)
        times = []
        for _ in range(MEMCPY_REPEATS):
            t = time.perf_counter()
            np.copyto(dst, src)
            times.append(time.perf_counter() - t)
        out[f"bench.memcpy_gbps.n{n}"] = (2 * 16 * 2 ** n / 1e9
                                          / statistics.median(times))
        del src, dst
    return out


def attempt(call, job, p):
    """call(job, p), with an exception returned as a Failure output."""
    from workloads import Failure

    try:
        return call(job, p)
    except Exception as e:  # a failed job is counted, not fatal
        return Failure(e)


def timed_loop(workload, seconds, call):
    """Whole passes over the job list until `seconds` have elapsed and
    the workload's latency passes are done.

    Returns (records, wall seconds); a record is (job index, pass,
    latency seconds, output).
    """
    records = []
    start = time.perf_counter()
    limit = SAFETY_FACTOR * seconds
    p = 0
    while True:
        for i, job in enumerate(workload.jobs):
            t = time.perf_counter()
            out = attempt(call, job, p)
            records.append((i, p, time.perf_counter() - t, out))
            if time.perf_counter() - start >= limit:
                return records, time.perf_counter() - start
        p += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and p >= workload.latency_passes:
            return records, elapsed


def check_records(workload, records) -> tuple[int, list[str]]:
    """Check every record's output; identical outputs are checked once.

    Returns (failed job count, distinct problems).
    """
    from workloads import Failure, canonical

    verdicts: dict = {}
    failed = 0
    problems = []
    for i, _, _, out in records:
        key = (i, canonical(out))
        if key not in verdicts:
            try:
                verdicts[key] = (f"raised {out.error}"
                                 if isinstance(out, Failure)
                                 else workload.jobs[i].check(out))
            except Exception as e:  # malformed output fails its check
                verdicts[key] = f"check raised {e!r}"
            if verdicts[key]:
                problems.append(f"{workload.jobs[i].kind}: {verdicts[key]}")
        failed += verdicts[key] is not None
    return failed, problems


def setup(qckit, name, seed, workdir, call):
    """Generate inputs, write files and warm up, SETUP_REPEATS times."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        workload = workloads.build(name, seed, workdir, qckit)
        for job in workload.warmup:
            attempt(call, job, "warmup")
        times.append(time.perf_counter() - t)
    return workload, times


def compile_pass_ops(qckit, seed, workdir, call) -> tuple[int, list[str]]:
    """compiled_ops from one untimed, checked pass of the qtm-compile
    workload's compile jobs (for the workloads that never compile)."""
    import workloads

    os.makedirs(workdir)
    wl = workloads.QtmCompile(seed, workdir, checks=False)
    records = [(i, 0, 0.0, attempt(call, job, 0))
               for i, job in enumerate(wl.jobs)]
    _, problems = check_records(wl, records)
    problems += wl.finish(records)
    return wl.extra.get("compiled_ops", 0), problems


def end_to_end(records, wall, setup_s, rss_kib, extra, latency_passes):
    """End-to-end metrics; latencies from the first latency_passes."""
    from stats import tail_percentile

    lat = [r[2] for r in records if r[1] < latency_passes]
    tail, pct, count = tail_percentile(lat)
    return {
        "jobs_per_s": (len(records) / wall, "1/s"),
        "job_p50_ms": (1000 * statistics.median(lat), "ms"),
        "job_tail_ms": (1000 * tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "compiled_ops": (extra.get("compiled_ops", 0), "ops"),
    }, {"job_tail_percentile": pct, "job_tail_samples": count}


def run(args) -> int:
    t0 = time.perf_counter()
    try:
        qckit = import_qckit()
    except ImportError as e:
        print(f"error: cannot import qckit from this checkout: {e}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    workdir = os.path.join(HERE, f"work-{args.workload}-{os.getpid()}")
    try:
        return _run(args, qckit, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, qckit, import_s, workdir):
    # imported after qckit, so that numpy's import counts in import_s
    import workloads

    bench = _load_benchmark()

    def call(job, p):
        return workloads.run_job(qckit, job, p)

    workload, setup_times = setup(qckit, args.workload, args.seed,
                                  os.path.join(workdir, "jobs"), call)
    import_s, import_times = import_seconds(import_s)
    setup_s = import_s + statistics.median(setup_times)

    records, wall = timed_loop(workload, args.seconds, call)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    all_records = list(records)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_info(args.seed),
        "setup_s_samples": setup_times,
        "import_s_samples": import_times,
        "passes": records[-1][1] + 1,
        "latency_passes": workload.latency_passes,
        "pass_s": _pass_seconds(records),
        "jobs_by_kind": _by_kind(workload, records),
    }

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(qckit)
        try:
            traced, traced_wall = timed_loop(
                workload, args.seconds,
                lambda job, p: tracer.call("bench.job", call, job, p))
        finally:
            tracer.uninstall()
        all_records += traced
        layers = tracing.layer_metrics(tracer)
        layers.update(memcpy_gbps())
        untraced_rate = len(records) / wall
        traced_rate = len(traced) / traced_wall
        job_s = sum(r[2] for r in traced)
        layers["trace.jobs_per_s"] = traced_rate
        layers["trace.overhead_jobs_per_s"] = untraced_rate - traced_rate
        # the share of traced job time spent in qckit's own functions, the
        # rest being the harness, the checks' hooks and the job's glue
        layers["trace.qckit_share"] = sum(
            layers[f"layer.{m}.self_s"] for m in tracing.MODULES) / job_s

    failed, problems = check_records(workload, all_records)
    problems += workload.finish(all_records)
    extra = dict(workload.extra)
    if args.workload != "qtm-compile" and not args.trace:
        ops, compile_problems = compile_pass_ops(
            qckit, args.seed, os.path.join(workdir, "compile"), call)
        extra["compiled_ops"] = ops
        problems += compile_problems
    attempted = len(all_records)
    extra.setdefault("algorithms.decide_bounded_error.wrong_ratio", 0.0)

    record["attempted"] = attempted
    record["failed"] = failed
    record["problems"] = problems[:20]
    if args.trace:
        layers["algorithms.decide_bounded_error.wrong_ratio"] = extra[
            "algorithms.decide_bounded_error.wrong_ratio"]
        layers["oracle.quantum_queries"] = _quantum_queries(
            workload, traced)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
        record["per_layer"] = layers
    else:
        e2e, tail_info = end_to_end(records, wall, setup_s, rss_kib, extra,
                                    workload.latency_passes)
        e2e["failed_ratio"] = (failed / attempted, "ratio")
        record.update(tail_info)
        record["end_to_end"] = {k: v[0] for k, v in e2e.items()}
        record["algorithms.decide_bounded_error.wrong_ratio"] = extra[
            "algorithms.decide_bounded_error.wrong_ratio"]
        for name, (value, unit) in e2e.items():
            print(f"{args.workload:12s} {name:16s} {value:14.6f} {unit}")
        print(f"{args.workload:12s} job_tail_ms is p{tail_info['job_tail_percentile']:.1f}"
              f" of {tail_info['job_tail_samples']} jobs; failed "
              f"{failed} of {attempted}")
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _pass_seconds(records) -> list[float]:
    out: dict = {}
    for _, p, lat, _ in records:
        out[p] = out.get(p, 0.0) + lat
    return [out[p] for p in sorted(out)]


def _by_kind(workload, records) -> dict:
    out: dict = {}
    for i, _, lat, _ in records:
        out.setdefault(workload.jobs[i].kind, []).append(lat)
    return {k: {"jobs": len(v), "median_ms": 1000 * statistics.median(v)}
            for k, v in sorted(out.items())}


def _quantum_queries(workload, records) -> int:
    """Quantum queries the program reported in its job outputs."""
    from workloads import cli_report

    total = 0
    for i, _, _, out in records:
        if isinstance(out, tuple) and out[0] == 0:
            total += cli_report(out).get("quantum_queries", 0)
    return total


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def compare(base_path: str, new_path: str) -> int:
    """Print each side's quartiles and a verdict per workload and metric."""
    bench = _load_benchmark()
    for line in compare_lines(bench, _read_records(base_path),
                              _read_records(new_path)):
        print(line)
    return 0


def compare_lines(bench: dict, base_runs: dict, new_runs: dict) -> list[str]:
    """One line per workload and end-to-end metric.

    `base_runs` and `new_runs` map a workload to its run records.
    job_tail_ms is unresolved when the two sides report it at different
    percentiles, since a higher percentile is a different quantity.
    """
    from stats import quartiles, verdict

    lines = []
    for workload in sorted(set(base_runs) | set(new_runs)):
        sides = (base_runs.get(workload, []), new_runs.get(workload, []))
        pcts = [{r["job_tail_percentile"] for r in runs} for runs in sides]
        for m in bench["end_to_end"]:
            name = m["name"]
            base, new = ([r["end_to_end"][name] for r in runs]
                         for runs in sides)
            if not base or not new:
                lines.append(f"{workload:12s} {name:14s} missing on one side")
                continue
            b1, bm, b3 = quartiles(base)
            n1, nm, n3 = quartiles(new)
            ratio = f"{nm / bm:.4f} x base {bm:.6g}" if bm else "base is 0"
            if name == "job_tail_ms" and pcts[0] != pcts[1]:
                judged = (f"unresolved (percentiles {sorted(pcts[0])} vs "
                          f"{sorted(pcts[1])})")
            else:
                judged = verdict(base, new, m["better"], m["bound"])
            lines.append(
                f"{workload:12s} {name:14s} {m['unit']:6s} "
                f"base {bm:.6g} [{b1:.6g}, {b3:.6g}] n={len(base)}  "
                f"new {nm:.6g} [{n1:.6g}, {n3:.6g}] n={len(new)}  "
                f"{ratio}  {judged}")
    return lines


def _read_records(path: str) -> dict:
    """Untraced run records in a file of saved benchmark output."""
    out: dict = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith('{"record"'):
                rec = json.loads(line)["record"]
                if not rec["trace"]:
                    out.setdefault(rec["workload"], []).append(rec)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sv-wide", "qtm-compile",
                                               "algo-mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two files of saved run output")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
