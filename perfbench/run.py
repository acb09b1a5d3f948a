"""Benchmark runner: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify-rational --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory.  The runner sets the workload up several
times (import of the library and input building), then runs passes over the
workload's op list, one op at a time, until the next pass would end after
``--seconds``.  Every output is checked.  A wrong output exits with code 3,
and an op that raises or hits its time limit (SIGALRM) ends the run with its
traceback (exit code 1); neither prints a result line.

Times are reported in reference units.  A shared host can run the same
code twice as fast in one second as in the next, so each op's (and each
set-up's) wall time is divided by the mean time of a fixed pure-Python
kernel run right before and after it, and inside it (see
:class:`Reference`), then multiplied by ``REFERENCE_MS``: a time reads as
it would on a host where that kernel takes 1 ms (it takes 0.7 to 1.4 ms on
a 2 GHz Xeon vCPU shared with other tenants).  The kernel is benchmark
code, so a change to the library moves only the numerator.  The cyclic
garbage collector is off while ops run and collects between ops, untimed,
so its pauses do not land on whichever op happens to trigger them.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate (``tracer.py`` is
installed for the traced ones only), and the last line holds the per-layer
metrics, per traced pass, plus ``trace.overhead_ratio``.  Human-readable
lines with sample counts come before the result line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
MIN_PASSES = 5
# modules that each set-up imports afresh: the library, and the benchmark
# module that binds its names (gen, oracle and tracer import no library code)
FRESH = ("ratpencil", "workloads")
REFERENCE_MS = 1.0
# operands of the reference kernel: a sparse product of two polynomials in
# three variables with coefficients mod a prime, the library's typical work
_REF_A = {(i, j, i * j % 3): (7 * i + j) % 11 + 1
          for i in range(8) for j in range(8)}
_REF_B = {(j, i, (i + j) % 2): (5 * i + j) % 13 + 1
          for i in range(6) for j in range(8)}


def _reference_kernel() -> dict:
    out = {}
    for (a0, a1, a2), ca in _REF_A.items():
        for (b0, b1, b2), cb in _REF_B.items():
            e = (a0 + b0, a1 + b1, a2 + b2)
            out[e] = (out.get(e, 0) + ca * cb) % 1000003
    return out


class Reference:
    """Host speed, read from the reference kernel.

    The kernel runs before and after every timed region and, when sampling
    is on, also inside it: a SIGVTALRM handler runs it every
    ``SAMPLE_CPU_S`` of CPU time, and its time is taken out of the region's.
    A long op is then scaled by the host speed over its whole span, not
    only at its ends.
    """

    SAMPLE_CPU_S = 0.05

    def __init__(self):
        self.last = self._time_kernel()
        self.samples: list[float] = []
        signal.signal(signal.SIGVTALRM, self._on_tick)

    @staticmethod
    def _time_kernel() -> float:
        start = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - start

    def _on_tick(self, signum, frame):
        self.samples.append(self._time_kernel())

    def start(self, sample: bool) -> None:
        self.samples = []
        if sample:
            signal.setitimer(signal.ITIMER_VIRTUAL, self.SAMPLE_CPU_S,
                             self.SAMPLE_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured since :meth:`start`, in reference
        units: less the kernel samples inside it, divided by the mean
        kernel time before, inside and after it, times ``REFERENCE_MS``."""
        now = self._time_kernel()
        kernels = [self.last, now, *self.samples]
        own = seconds - sum(self.samples)
        self.last = now
        return own * 1e-3 * REFERENCE_MS * len(kernels) / sum(kernels)


class OpTimeout(Exception):
    """Raised by SIGALRM inside an op that ran past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout("the op ran past its time limit")


def run_op(op, limit_s: float, reference: Reference, sample: bool):
    """``(output, latency in reference units)``; raises
    :class:`OpTimeout` after ``limit_s``."""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    reference.start(sample)
    start = time.perf_counter()
    try:
        out = op()
        seconds = time.perf_counter() - start
    finally:
        reference.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, reference.scale(seconds)


def run_pass(workload, reference: Reference, sample: bool = True
             ) -> list[float]:
    """Latencies of one pass over the op list, in reference units; outputs
    checked and garbage collected untimed.

    An op that raises or times out ends the run (it is neither counted as
    failed nor retried), so a broken op can never read as a fast one.
    """
    latencies = []
    for index, op in enumerate(workload.ops):
        try:
            out, latency = run_op(op, workload.op_limit_s, reference,
                                  sample)
        except Exception as exc:
            exc.add_note(f"op {workload.labels[index]} "
                         f"(time limit {workload.op_limit_s} s)")
            raise
        workload.check(index, out)
        gc.collect()
        latencies.append(latency)
    return latencies


def run_passes(workload, seconds: float, reference: Reference, tracer=None,
               probes=()):
    """``(untraced, traced)`` lists of passes, each a list of latencies.

    Passes run until the next one would end after ``seconds`` (and at
    least ``MIN_PASSES`` of each kind ran).  With a tracer, untraced passes
    alternate with passes traced by ``probes``, so both kinds see the same
    host conditions.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, reference))
        if tracer is not None:
            tracer.install(probes)
            try:
                traced.append(run_pass(workload, reference, sample=False))
            finally:
                tracer.restore()
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if len(untraced) >= MIN_PASSES and elapsed + per_round > seconds:
            return untraced, traced


def per_op_ms(passes) -> list[float]:
    """Each op's median latency over the passes, in ms.

    A slow second on a shared host hits a few ops of one pass; the median
    over passes leaves it out, where a mean or a pooled quantile would not.
    """
    return [1000.0 * statistics.median(column) for column in zip(*passes)]


def end_to_end(passes, setup_s: float, sizes) -> dict:
    per_op = per_op_ms(passes)
    deciles = statistics.quantiles(per_op, n=10, method="inclusive")
    return {
        "ops_per_s": (1000.0 * len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op), "ms"),
        "op_tail_ms": (deciles[-1], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "pencil_m_sum": (float(sum(m for m, _ in sizes)), "count"),
        "pencil_nnz_sum": (float(sum(n for _, n in sizes)), "count"),
    }


def set_up(name: str, seed: int):
    """Import the library and build the inputs; ``(seconds, workload)``.

    Every call drops the modules in ``FRESH`` first, so each set-up pays
    for the library's import as well as for the input building.
    """
    for key in list(sys.modules):
        if key.split(".")[0] in FRESH:
            del sys.modules[key]
    gc.collect()
    start = time.perf_counter()
    workload = importlib.import_module("workloads").make(name, seed, WORKDIR)
    return time.perf_counter() - start, workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ratpencil" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import oracle
    import tracer as tracing

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        reference = Reference()
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, workload = set_up(args.workload, args.seed)
            setups.append(reference.scale(seconds))
        library = Path(sys.modules["ratpencil"].__file__).resolve().parent
        if library != ROOT / "src" / "ratpencil":
            print("error: imported ratpencil from outside this checkout",
                  file=sys.stderr)
            return 2
        gc.collect()
        gc.freeze()
        gc.disable()
        if args.trace:
            tracer = tracing.Tracer()
            untraced, passes = run_passes(workload, args.seconds, reference,
                                          tracer, tracing.PROBES)
            layer_names = [m["name"] for m in bench["per_layer"]
                           if m["name"] != "trace.overhead_ratio"]
            metrics = {
                name: (value, units[name])
                for name, value in tracing.layer_metrics(
                    tracer, len(passes), layer_names).items()
            }
            metrics["trace.overhead_ratio"] = (
                sum(per_op_ms(untraced)) / sum(per_op_ms(passes)), "ratio")
        else:
            passes, _ = run_passes(workload, args.seconds, reference)
            metrics = end_to_end(passes, statistics.median(setups),
                                 workload.sizes)
    except oracle.WrongOutput as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = len(passes) * len(workload.ops)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(workload.ops)} ops, "
          f"{attempted} attempted, 0 failed; {SETUP_REPEATS} set-ups")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.4f} {unit:6s} (n={attempted})")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
