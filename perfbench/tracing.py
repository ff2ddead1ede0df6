"""Spans and counts around qckit's public functions, for the traced run.

`Tracer.install` replaces every public function of the traced modules,
in its defining module and at every name other qckit modules imported it
under, by a wrapper that records a span (name, start, end, parent). Hooks
attached to a few functions record counts from their arguments and
results; a hook's own time is recorded as a `bench.trace` span so it is
not charged to the function it observes. Nothing under qckit changes on
disk, and `uninstall` restores the original objects.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("cli", "state", "gates", "circuit", "oracle", "qtm", "compiler",
           "algorithms")

STATE_BYTES = 16  # complex128 amplitude


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus its children's.

    `spans` are (id, name, start, end, parent id or None) tuples.
    """
    own = {sid: end - start for sid, _, start, end, _ in spans}
    for sid, _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.tags: dict[int, object] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def call(self, span_name, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named span_name."""
        return self._run(span_name, fn, None, args, kwargs)

    def _run(self, span_name, fn, hook, args, kwargs):
        """Span around fn; then hook(tracer, span id, args, kwargs, result)
        inside a `bench.trace` span."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, span_name, start, end, parent))
        if hook is not None:
            hid = self._next_id
            self._next_id += 1
            h0 = time.perf_counter()
            hook(self, sid, args, kwargs, result)
            self.spans.append((hid, "bench.trace", h0, time.perf_counter(),
                               parent))
        return result

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of each traced qckit module."""
        loaded = [m for k, m in sys.modules.items()
                  if k == package.__name__ or k.startswith(package.__name__
                                                          + ".")]
        for short in MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn, HOOKS.get(
                    f"{short}.{attr}"))
                for holder in loaded:
                    if vars(holder).get(attr) is fn:
                        self._saved.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._run(name, fn, hook, args, kwargs)
        return wrapper


# -- hooks: counts taken where the work happens ---------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _apply_unitary(tr, sid, args, kwargs, result):
    u = _arg(args, kwargs, 1, "u")
    tr.counts["circuit.effective_matrix.entries"] += u.size
    tr.tags[sid] = result.n_qubits


def _apply_oracle(tr, sid, args, kwargs, result):
    tr.tags[sid] = result.n_qubits


def _step_operator(tr, sid, args, kwargs, result):
    tr.counts["qtm.configs"] += result.shape[0]
    tr.counts["qtm.step_operator.nonzeros"] += int((result != 0).sum())
    tr.counts["qtm.step_operator.entries"] += result.size


def _decompose(tr, sid, args, kwargs, result):
    tr.counts["compiler.factors"] += len(result)


def _factor_list(tr, sid, args, kwargs, result):
    tr.counts["compiler.routed_factors"] += len(_arg(args, kwargs, 0,
                                                      "factors"))
    tr.counts["compiler.routed_ops"] += len(result.ops)


def _order_finding(tr, sid, args, kwargs, result):
    tr.counts["algorithms.order_finding.found"] += result is not None


def _shor(tr, sid, args, kwargs, result):
    if result is not None:
        tr.counts["algorithms.shor_factor.attempts"] += result.attempts


HOOKS = {
    "state.apply_unitary": _apply_unitary,
    "oracle.apply_oracle": _apply_oracle,
    "qtm.step_operator": _step_operator,
    "compiler.decompose_two_level": _decompose,
    "compiler.factor_list_to_circuit": _factor_list,
    "algorithms.order_finding": _order_finding,
    "algorithms.shor_factor": _shor,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, widths=(20, 22, 24)) -> dict[str, float]:
    """Per-layer metrics derived from the recorded spans and counts."""
    spans = tracer.spans
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_s: dict[str, float] = defaultdict(float)
    for sid, name, _, _, _ in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        layer_s[name.split(".", 1)[0]] += own[sid]

    def under(span, ancestor):
        parent = span[4]
        while parent is not None:
            if by_id[parent][1] == ancestor:
                return True
            parent = by_id[parent][4]
        return False

    sim_under_cu = 0
    verify_s = 0.0
    kernel_bytes: dict[int, float] = defaultdict(float)
    kernel_s: dict[int, float] = defaultdict(float)
    oracle_bytes = 0.0
    for span in spans:
        sid, name, start, end, parent = span
        if name == "circuit.simulate" and under(span, "circuit.circuit_unitary"):
            sim_under_cu += 1
        elif (name == "circuit.circuit_unitary" and parent is not None
              and by_id[parent][1] == "compiler.compile_unitary"):
            verify_s += end - start
        elif sid not in tracer.tags:  # the call raised; no width known
            continue
        elif name == "state.apply_unitary":
            n = tracer.tags[sid]
            kernel_bytes[n] += 2 * STATE_BYTES * 2 ** n
            kernel_s[n] += own[sid]
        elif name == "oracle.apply_oracle":
            oracle_bytes += 2 * STATE_BYTES * 2 ** tracer.tags[sid]
    c = tracer.counts
    m = {
        "state.apply_unitary.calls": calls["state.apply_unitary"],
        "state.apply_unitary.self_s": self_s["state.apply_unitary"],
        "circuit.effective_matrix.entries": c["circuit.effective_matrix.entries"],
        "circuit.simulate.calls": calls["circuit.simulate"],
        "circuit.simulate.self_s": self_s["circuit.simulate"],
        "circuit.circuit_unitary.calls": calls["circuit.circuit_unitary"],
        "circuit.circuit_unitary.self_s": self_s["circuit.circuit_unitary"],
        "circuit.circuit_unitary.simulate_calls": sim_under_cu,
        "circuit.parse_circuit.self_s": self_s["circuit.parse_circuit"],
        "circuit.serialize_circuit.self_s": self_s["circuit.serialize_circuit"],
        "cli.main.self_s": self_s["cli.main"],
        "oracle.apply_oracle.calls": calls["oracle.apply_oracle"],
        "oracle.apply_oracle.self_s": self_s["oracle.apply_oracle"],
        "oracle.apply_oracle.gbps": _ratio(
            oracle_bytes / 1e9, self_s["oracle.apply_oracle"]),
        "qtm.step_operator.calls": calls["qtm.step_operator"],
        "qtm.step_operator.self_s": self_s["qtm.step_operator"],
        "qtm.step_operator.fill_ratio": _ratio(
            c["qtm.step_operator.nonzeros"], c["qtm.step_operator.entries"]),
        "qtm.check_well_formed.self_s": self_s["qtm.check_well_formed"],
        "qtm.configs": c["qtm.configs"],
        "compiler.decompose_two_level.self_s":
            self_s["compiler.decompose_two_level"],
        "compiler.factor_list_to_circuit.self_s":
            self_s["compiler.factor_list_to_circuit"],
        "compiler.verify_s": verify_s,
        "compiler.factors": c["compiler.factors"],
        "compiler.ops_per_factor": _ratio(
            c["compiler.routed_ops"], c["compiler.routed_factors"]),
        "algorithms.order_finding.calls": calls["algorithms.order_finding"],
        "algorithms.order_finding.self_s": self_s["algorithms.order_finding"],
        "algorithms.order_finding.success_ratio": _ratio(
            c["algorithms.order_finding.found"],
            calls["algorithms.order_finding"]),
        "algorithms.shor_factor.attempts": c["algorithms.shor_factor.attempts"],
        "algorithms.deutsch_jozsa.self_s": self_s["algorithms.deutsch_jozsa"],
        "algorithms.decide_bounded_error.self_s":
            self_s["algorithms.decide_bounded_error"],
        "state.measure_qubit.calls": calls["state.measure_qubit"],
        "state.measure_qubit.self_s": self_s["state.measure_qubit"],
    }
    for n in widths:
        m[f"state.apply_unitary.gbps.n{n}"] = _ratio(
            kernel_bytes[n] / 1e9, kernel_s[n])
    for layer in MODULES + ("bench",):
        m[f"layer.{layer}.self_s"] = layer_s[layer]
    return m
