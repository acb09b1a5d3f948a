"""The tracer: self time, binding restore, and outputs unchanged by tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import importlib
import json
import sys
from pathlib import Path

import record
import tracer as tracing
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] encloses a [1, 4] (which encloses b [2, 3]) and a [5, 9]
    clock = FakeClock()
    t = tracing.Tracer(clock)
    events = [
        (0, "enter", "root"), (1, "enter", "a"), (2, "enter", "b"),
        (3, "exit", None), (4, "exit", None), (5, "enter", "a"),
        (9, "exit", None), (10, "exit", None),
    ]
    for at, kind, name in events:
        clock.now = at
        if kind == "enter":
            t.enter(name)
        else:
            t.exit()
    assert t.self_time == {"b": 1.0, "a": 6.0, "root": 3.0}
    assert t.calls == {"b": 1, "a": 2, "root": 1}
    assert not t.stack
    metrics = tracing.layer_metrics(
        t, 2, ["fields.mul.calls", "quotring.m_max", "pencil.json_bytes"])
    assert metrics == {"fields.mul.calls": 0, "quotring.m_max": 0,
                       "pencil.json_bytes": 0}


def test_observe_hook_time_is_not_self_time():
    clock = FakeClock()
    t = tracing.Tracer(clock)

    def observe(tracer, args, result):
        clock.now += 5  # the hook's own work
        tracer.observe_max("size", result)

    def child():
        clock.now += 2
        return 3

    wrapped = t._wrap(child, tracing.Probe("m", "child", "child",
                                           observe=observe))
    t.enter("root")
    clock.now += 1
    wrapped()
    t.exit()
    assert t.self_time == {"child": 2.0, "root": 1.0}
    assert t.maxima == {"size": 3}


def test_every_per_layer_metric_is_read_and_mapped():
    bench = json.loads((Path(__file__).parents[2] / "BENCHMARK.json")
                       .read_text())
    names = [m["name"] for m in bench["per_layer"]]
    t = tracing.Tracer()
    t.sums["pencil.json_bytes"] = 10
    t.maxima["quotring.m_max"] = 8
    t.self_time["combinators.op_add"] = 0.002
    t.self_time["combinators.op_scale"] = 0.001
    metrics = tracing.layer_metrics(
        t, 2, [n for n in names if n != "trace.overhead_ratio"])
    assert metrics["pencil.json_bytes"] == 5
    assert metrics["quotring.m_max"] == 8
    assert abs(metrics["combinators.self_ms"] - 1.5) < 1e-9
    # record.py's map from layers to end-to-end metrics covers them all
    mapped = [n for group in record.LAYER_MAP for n in group["layers"]]
    assert sorted(mapped) == sorted(names)


def _all_bindings(original):
    found = []
    for holder in list(sys.modules.values()):
        namespace = getattr(holder, "__dict__", None)
        if isinstance(namespace, dict):
            found.extend((holder, key)
                         for key, value in list(namespace.items())
                         if value is original)
    return found


def _originals():
    out = []
    for probe in tracing.PROBES:
        module = importlib.import_module(probe.module)
        owner_name, _, attr = probe.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            out.append((probe, [(owner, attr)], owner.__dict__[attr]))
        else:
            original = getattr(module, attr)
            out.append((probe, _all_bindings(original), original))
    return out


def _current(holder, key):
    if isinstance(holder, type):
        return holder.__dict__[key]
    return getattr(holder, key)


def test_every_binding_is_wrapped_then_restored():
    before = _originals()
    t = tracing.Tracer()
    t.install(tracing.PROBES)
    try:
        for probe, bindings, original in before:
            assert bindings, probe
            for holder, key in bindings:
                assert _current(holder, key) is not original, (probe, holder)
        # the benchmark's own import of the library is a wrapped binding too
        check = next(o for p, _, o in before
                     if p.name == "verify.check_realization")
        assert workloads.check_realization is not check
        assert any(h is workloads and k == "check_realization"
                   for h, k, _ in t.bindings())
    finally:
        t.restore()
    assert not t.bindings()
    for probe, bindings, original in before:
        for holder, key in bindings:
            assert _current(holder, key) is original, (probe, holder, key)


def _outputs(workload, indices):
    out = []
    for i in indices:
        result = workload.ops[i]()
        workload.check(i, result)
        if isinstance(workload, workloads.CliPolynomial):
            out.append(workload.paths[i].read_bytes())
        elif isinstance(workload, workloads.VerifyRational):
            out.append(result.to_json().encode())
        else:
            out.append(str(result).encode())
    return out


def test_outputs_identical_with_tracing_on_and_off(tmp_path):
    cases = [
        workloads.VerifyRational(7),
        workloads.CliPolynomial(7, tmp_path),
        workloads.ReduceRing(7),
    ]
    for workload in cases:
        # leaving out the slowest ops keeps the test short
        if isinstance(workload, workloads.CliPolynomial):
            indices = range(len(workload.ops) - 6, len(workload.ops))
        else:
            limit = 6 if isinstance(workload, workloads.ReduceRing) else 150
            indices = [i for i, (m, _) in enumerate(workload.sizes)
                       if m <= limit]
        plain = _outputs(workload, indices)
        t = tracing.Tracer()
        t.install(tracing.PROBES)
        try:
            traced = _outputs(workload, indices)
        finally:
            t.restore()
        assert traced == plain, workload.name
        assert t.self_time, workload.name
