"""Tests of the benchmark's own code: the reference interpreter, the tail
percentile rule and its latency window, self-time subtraction, the
completeness of the traced spans and the compare verdicts.

    python3 -m pytest perfbench
"""

import numpy as np
import pytest

import reference as ref
import run
import workloads
from stats import tail_percentile, verdict
from tracing import Tracer, self_times


def _amps(text, oracles=None):
    n, ops = ref.parse_circuit_text(text)
    return ref.simulate(n, ops, oracles)


def test_bell_state():
    amps = _amps("qubits 2\nh 0\ncx 0 1\n")
    np.testing.assert_allclose(amps, [2 ** -0.5, 0, 0, 2 ** -0.5], atol=1e-15)


def test_ghz_state_with_unitary_line():
    # GHZ: h, cx, then a raw controlled-X unitary line from qubit 1 to 2
    text = "qubits 3\nh 0\ncx 0 1\nunitary 1 1 2 : 0 0 1 0 1 0 0 0\n"
    amps = _amps(text)
    want = np.zeros(8)
    want[0] = want[7] = 2 ** -0.5
    np.testing.assert_allclose(amps, want, atol=1e-15)


def test_two_qubit_qft_matches_formula():
    text = ("qubits 2\nh 0\ncphase ( 1.5707963267948966 ) 1 0\nh 1\n"
            "swap 0 1\n")
    n, ops = ref.parse_circuit_text(text)
    u = ref.circuit_unitary(n, ops)
    for j in range(4):
        basis = np.zeros(4)
        basis[j] = 1
        np.testing.assert_allclose(ref.simulate(n, ops, initial=basis),
                                   ref.qft_amplitudes(2, j), atol=1e-12)
        np.testing.assert_allclose(u[:, j], ref.qft_amplitudes(2, j),
                                   atol=1e-12)


def test_qubit_zero_is_most_significant():
    np.testing.assert_allclose(_amps("qubits 2\nx 0\n"), [0, 0, 1, 0])


def test_oracle_flips_ancilla_where_table_is_one():
    # f(x) = x on one input; x=1 so the ancilla (qubit 1) flips
    amps = _amps("qubits 2\nx 0\noracle f 0 1\n", {"f": [0, 1]})
    np.testing.assert_allclose(amps, [0, 0, 0, 1])


def test_kronecker_unitary_of_reversed_cx():
    n, ops = ref.parse_circuit_text("qubits 2\ncx 1 0\n")
    want = np.eye(4)[[0, 3, 2, 1]]
    np.testing.assert_allclose(ref.circuit_unitary(n, ops), want)


def test_qtm_violations_of_malformed_machines():
    binary = ["0", "1"]
    partial = [("q0", "0", "q0", "0", "R", 1.0)]
    doubled = partial + [("q0", "0", "q0", "1", "R", 1.0),
                         ("q0", "1", "q0", "1", "R", 1.0)]
    move = [("q0", s, "q0", s, "R", 1.0) for s in binary]
    size = 3 * 2 ** 3
    assert ref.qtm_violations(["q0"], binary, move, 3) == 0
    assert ref.qtm_violations(["q0"], binary, partial, 3) == size // 2
    assert ref.qtm_violations(["q0"], binary, doubled, 3) == size


def test_tail_percentile_leaves_ten_beyond():
    value, pct, count = tail_percentile([float(i) for i in range(100)])
    assert (value, count) == (89.0, 100)
    assert pct == pytest.approx(90.0)
    value, pct, _ = tail_percentile([float(i) for i in range(11)])
    assert value == 0.0 and pct == pytest.approx(100 / 11)
    assert tail_percentile([3.0, 1.0])[:2] == (1.0, 0.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, "job", 0.0, 10.0, None),
        (1, "a", 1.0, 6.0, 0),
        (2, "b", 2.0, 5.0, 1),
        (3, "c", 3.0, 4.0, 2),
        (4, "d", 7.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 2.0}
    assert sum(own.values()) == 10.0


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [80.0] * 5, "lower", 0.1) == "better"
    assert verdict(base, [120.0] * 5, "lower", 0.1) == "worse"
    assert verdict(base, [100.2] * 5, "lower", 0.1) == "unchanged"
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert verdict(noisy, [90.0] * 5, "lower", 0.1) == "unresolved"


def _records(passes, per_pass=10):
    # job i costs i + 1 ms in every pass
    return [(i, p, (i + 1) / 1000, None)
            for p in range(passes) for i in range(per_pass)]


def test_tail_percentile_ignores_passes_past_the_latency_window():
    metrics = {}
    for passes in (3, 4, 7):
        e2e, tail = run.end_to_end(_records(passes), 1.0, 0.1, 1024, {}, 3)
        metrics[passes] = (e2e["job_p50_ms"][0], e2e["job_tail_ms"][0],
                           tail["job_tail_percentile"],
                           tail["job_tail_samples"])
    assert metrics[3] == metrics[4] == metrics[7]
    assert metrics[3][3] == 30


def _run_record(workload, tail_ms, percentile):
    return {"workload": workload, "job_tail_percentile": percentile,
            "end_to_end": {"jobs_per_s": 1.0, "job_tail_ms": tail_ms}}


def test_compare_leaves_tails_at_different_percentiles_unresolved():
    bench = {"end_to_end": [
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
        {"name": "job_tail_ms", "unit": "ms", "better": "lower",
         "bound": 0.1}]}
    base = {"w": [_run_record("w", 100.0, 66.7) for _ in range(3)]}
    same = {"w": [_run_record("w", 100.0, 66.7) for _ in range(3)]}
    moved = {"w": [_run_record("w", 50.0, 83.3) for _ in range(3)]}
    tail = [line for line in run.compare_lines(bench, base, same)
            if "job_tail_ms" in line]
    assert tail[0].endswith("unchanged")
    tail = [line for line in run.compare_lines(bench, base, moved)
            if "job_tail_ms" in line]
    assert "unresolved" in tail[0]
    rate = [line for line in run.compare_lines(bench, base, moved)
            if "jobs_per_s" in line]
    assert rate[0].endswith("unchanged")


def test_traced_spans_account_for_the_whole_job(tmp_path):
    qckit = run.import_qckit()
    path = tmp_path / "bell.circuit"
    path.write_text("qubits 2\nh 0\ncx 0 1\n", encoding="utf-8")
    job = workloads.Job("run", None,
                        argv=["run", str(path), "--shots", "8", "--json"])
    original = qckit.circuit.apply_unitary
    tracer = Tracer()
    tracer.install(qckit)
    try:
        code, _ = tracer.call("bench.job", workloads.run_job, qckit, job, 0)
    finally:
        tracer.uninstall()
    assert code == 0
    assert qckit.circuit.apply_unitary is original
    ids = {s[0] for s in tracer.spans}
    roots = [s for s in tracer.spans if s[4] is None]
    assert [s[1] for s in roots] == ["bench.job"]
    assert all(s[4] is None or s[4] in ids for s in tracer.spans)
    names = {s[1] for s in tracer.spans}
    # the kernel is reached through its re-imported name in qckit.circuit
    assert {"cli.main", "circuit.simulate", "state.apply_unitary"} <= names
    own = self_times(tracer.spans)
    assert all(v >= 0 for v in own.values())
    root = roots[0]
    assert sum(own.values()) == pytest.approx(root[3] - root[2], rel=1e-9)
