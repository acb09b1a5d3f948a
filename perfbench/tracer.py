"""Per-layer tracing from outside the library.

Each :class:`Probe` names one public callable of a ``ratpencil`` module.
:meth:`Tracer.install` replaces it by a wrapper at every binding: the class
attribute for methods, and for functions every module in ``sys.modules``
that holds the function under some name (``from .matrices import mat_det``
makes such a binding).  :meth:`Tracer.restore` puts the originals back.

Span probes record wall time on a stack: a span's self time is its
duration minus the time covered by the spans it encloses.  Count probes
only count calls; they sit on the field kernels, which run millions of
times.  ``observe`` hooks turn arguments or results into size counters;
their time counts as covered time of the enclosing span, not as its self
time.  Everything is aggregated in memory.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    module: str  # e.g. "ratpencil.matrices"
    attr: str  # "mat_det" or "Polynomial.__mul__"
    name: str  # metric prefix, e.g. "matrices.mat_det"
    span: bool = True
    observe: Callable | None = None  # (tracer, args, result) -> None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.sums: dict[str, int] = {}
        self._cells: dict[str, list[int]] = {}
        self._restore: list[tuple] = []

    # -- spans and counters --------------------------------------------------

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self.stack.pop()
        duration = self.clock() - start
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - covered
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.stack:
            self.stack[-1][2] += duration

    def observe_max(self, name: str, value) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def add(self, name: str, value: int) -> None:
        self.sums[name] = self.sums.get(name, 0) + value

    def count(self, name: str) -> int:
        """Calls recorded for ``name`` by span or count probes."""
        cell = self._cells.get(name)
        return self.calls.get(name, 0) + (cell[0] if cell else 0)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, probe: Probe):
        if not probe.span:
            cell = self._cells.setdefault(probe.name, [0])

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        tracer, name, observe = self, probe.name, probe.observe

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                # the hook's own time is covered time of the enclosing span,
                # so no layer's self time includes the tracer's work
                start = tracer.clock()
                observe(tracer, args, result)
                if tracer.stack:
                    tracer.stack[-1][2] += tracer.clock() - start
            return result

        return spanned

    def install(self, probes) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for probe in probes:
            module = importlib.import_module(probe.module)
            owner_name, _, attr = probe.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, probe))
                else:
                    wrapped = self._wrap(raw, probe)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, probe)
            for holder in list(sys.modules.values()):
                namespace = getattr(holder, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def restore(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def bindings(self) -> list[tuple]:
        """``(holder, key, original)`` for every binding currently wrapped."""
        return list(self._restore)


# -- the probes -------------------------------------------------------------


def _mat_det_sizes(tracer, args, result):
    tracer.observe_max("matrices.mat_det.m_max", args[0].rows)
    degree = result.den.total_degree()
    if degree != float("-inf"):
        tracer.observe_max("matrices.mat_det.den_degree_max", degree)


def _mul_terms(tracer, args, result):
    tracer.observe_max("poly.mul.terms_max", len(result.terms))


def _schur_sizes(tracer, args, result):
    schur = result[0]
    for row in schur.entries:
        for entry in row:
            for part in (entry.num, entry.den):
                tracer.observe_max("poly.schur.terms_max", len(part.terms))
                if part.terms:
                    tracer.observe_max("poly.schur.degree_max",
                                       part.total_degree())


def _json_out(tracer, args, result):
    tracer.add("pencil.json_bytes", len(result))


def _json_in(tracer, args, result):
    tracer.add("pencil.json_bytes", len(args[-1]))


def _ring_size(tracer, args, result):
    tracer.observe_max("quotring.m_max", args[0].m)


COMBINATORS = ("op_product", "op_add", "op_inverse", "op_sandwich",
               "op_kron_identity", "op_symmetrize", "op_scale",
               "op_homogenize")


def _p(module, attr, name=None, **kw):
    return Probe(f"ratpencil.{module}", attr,
                 name or f"{module}.{attr.replace('__', '')}", **kw)


PROBES = [
    _p("cli", "main"),
    _p("expr", "parse_expression"),
    _p("realize", "realize_br"),
    _p("realize", "realize_sbr"),
    _p("realize", "realize_hbr"),
    _p("realize", "decide_and_realize_hsbr"),
    _p("realize", "decide_sbr_scalar_char2"),
    *[_p("combinators", op) for op in COMBINATORS],
    _p("verify", "check_realization"),
    _p("pencil", "LinearPencil.classify", "pencil.classify"),
    _p("pencil", "LinearPencil.schur_with_dets", "pencil.schur_with_dets",
       observe=_schur_sizes),
    _p("pencil", "LinearPencil.to_json", "pencil.to_json", observe=_json_out),
    _p("pencil", "LinearPencil.from_json", "pencil.from_json",
       observe=_json_in),
    _p("elimination", "schur_eliminate"),
    _p("elimination", "sparse_determinant"),
    _p("matrices", "mat_det", observe=_mat_det_sizes),
    _p("matrices", "bareiss_det"),
    _p("poly", "RationalFunction.__eq__", "poly.RationalFunction.eq"),
    _p("poly", "Polynomial.__mul__", "poly.Polynomial.mul",
       observe=_mul_terms),
    _p("poly", "Polynomial.__pow__", "poly.Polynomial.pow"),
    _p("poly", "Polynomial.divide_exact", "poly.Polynomial.divide_exact"),
    _p("quotring", "QuotMatrix.det", "quotring.det"),
    _p("quotring", "QuotMatrix.det22", "quotring.det"),
    _p("quotring", "det_involution_sum"),
    _p("quotring", "QuotContext.mult_normal_form", "quotring.mult_normal_form"),
    _p("quotring", "isolate"),
    _p("quotring", "add_transform"),
    _p("quotring", "is_ring_realizer", observe=_ring_size),
    _p("quotring", "reduce_realizer", observe=_ring_size),
    _p("fields", "FieldDescriptor.mul", "fields.mul", span=False),
    _p("fields", "FieldDescriptor.add", "fields.add", span=False),
    _p("fields", "FieldDescriptor.inv", "fields.inv", span=False),
]


def layer_metrics(tracer: Tracer, passes: int, names) -> dict[str, float]:
    """The per-layer metrics ``names``, per pass over the op list.

    A name is read from its suffix: ``<probe>.self_ms`` is the probe's self
    time and ``<probe>.calls`` its call count, both divided by ``passes``
    (``combinators`` sums every combinator probe).  Any other name is a
    size counter: a byte count per pass, or a maximum over the run.
    """
    probes = {probe.name for probe in PROBES}
    out = {}
    for name in names:
        stem, _, suffix = name.rpartition(".")
        if suffix in ("self_ms", "calls"):
            if stem == "combinators":
                sources = [f"combinators.{op}" for op in COMBINATORS]
            elif stem in probes:
                sources = [stem]
            else:
                raise KeyError(f"no probe for per-layer metric {name!r}")
            if suffix == "self_ms":
                total = sum(tracer.self_time.get(p, 0.0) for p in sources)
                out[name] = 1000.0 * total / passes
            else:
                out[name] = sum(tracer.count(p) for p in sources) / passes
        elif name in tracer.sums:
            out[name] = tracer.sums[name] / passes
        else:
            out[name] = tracer.maxima.get(name, 0)
    return out
