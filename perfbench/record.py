"""Write ``perfbench/workloads.json``, the record of every workload.

    python3 perfbench/record.py

For each workload the record holds why it was chosen, its op and loop,
its generator slots and seed derivation, its per-op time limit, which
end-to-end metric each per-layer metric should move, the size of every
distinct target (pencil ``m`` and ``nnz``, Schur entry term count and
degree) and the results of ``run.py`` for the gating seed and a second
seed, untraced and traced.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import workloads  # noqa: E402
from ratpencil.expr import parse_expression  # noqa: E402
from ratpencil.fields import parse_field  # noqa: E402
from ratpencil.realize import realize_br  # noqa: E402

GATING_SEED, SECOND_SEED = 1, 2

LOOP = (
    "closed loop, one client, one process, one thread: the op list runs in "
    "passes, one op at a time, until the next pass would end after "
    "--seconds (at least 5 passes); output checks run between ops, outside "
    "the timed region, as does a full garbage collection (the cyclic "
    "collector is off while an op runs); with --trace 1 untraced and "
    "traced passes alternate"
)

TIME_UNITS = (
    "op latencies and setup_s are in reference units: each timed region's "
    "wall time (less the reference-kernel runs sampled inside it every "
    "0.05 s of CPU time, untraced passes only) is divided by the mean time "
    "of a fixed pure-Python kernel (a sparse polynomial product mod a "
    "prime, benchmark code) run before, inside and after it, times 1 ms.  "
    "The host's speed drifts by up to 2x within seconds; the scaling keeps "
    "that drift out of the figures.  Per-layer self_ms figures are wall "
    "time, unscaled"
)

METRICS = {
    "ops_per_s": "ops per pass over the sum of each op's median latency "
                 "across passes (the typical pass time)",
    "op_p50_ms": "median over the workload's ops of each op's median "
                 "latency across passes",
    "op_tail_ms": (
        "p90 (inclusive interpolation) over the workload's ops of each op's "
        "median latency across passes; at least 2 ops (15 ops per pass in "
        "cli-polynomial) lie beyond it, each timed in at least 5 passes, so "
        "at least 10 samples lie beyond it"
    ),
    "setup_s": (
        "median of 9 set-ups in the run, each a fresh import of the library "
        "(and workloads.py) plus the input build: generation, parse checks, "
        "and pencil building for verify-rational"
    ),
    "peak_rss_mb": "ru_maxrss of the benchmark process",
    "pencil_m_sum": "sum of pencil (or ring realizer) sizes m over the "
                    "workload's distinct targets",
    "pencil_nnz_sum": "sum of cells nonzero in some coefficient matrix",
    "fail_ratio": (
        "not reported: an op that raises or hits its time limit ends the "
        "run with exit code 3 and no result line, like a wrong output, so a "
        "reported run always has 0 failed ops"
    ),
}

WHY = {
    "verify-rational": (
        "verification is the measured cost centre: mat_det, sparse "
        "elimination and cross-multiplied fraction equality do the work; "
        "JSON and the builders do none of the timed work"
    ),
    "cli-polynomial": (
        "dense pencil JSON write and read, the builders and the combinators "
        "dominate; Schur denominators are constants, so mat_det does almost "
        "nothing: the no-change workload for a verification optimisation"
    ),
    "reduce-ring": (
        "Leibniz determinants (8! permutations at 8x8) and multilinear "
        "normal forms do all the work; no elimination, mat_det, builder or "
        "JSON code runs; Polynomial mul sees tiny GF(2) operands"
    ),
}

OPS = {
    "verify-rational": "check_realization(pencil, target, kind) on a pencil "
                       "built during setup; about 1 claim in 10 is false by "
                       "construction (target +1 at (0,0), or a symmetric "
                       "claim on a nonsymmetric target)",
    "cli-polynomial": "in-process ratpencil.cli.main(['realize', ..., "
                      "'--out', f]) then main(['verify', '--pencil', f, ...])",
    "reduce-ring": "is_ring_realizer then reduce_realizer (the `ratpencil "
                   "reduce` path without --trace)",
}

ORACLES = {
    "verify-rational": "every verdict equals the verdict known by "
                       "construction",
    "cli-polynomial": "both exit codes are 0; on the first pass the written "
                      "pencil's Schur complement, evaluated at 3 seeded "
                      "points (mod 2^61-1 over Q, in GF(101), in GF(2^64) "
                      "over GF(2)) by oracle.py's own sparse elimination, "
                      "equals the target there; later passes must write the "
                      "same bytes",
    "reduce-ring": "the result equals the r fixed when the realizer was "
                   "generated",
}

# per-layer metrics -> the end-to-end metrics and workloads they should move
LAYER_MAP = [
    {"layers": ["matrices.mat_det.self_ms", "matrices.mat_det.calls",
                "matrices.bareiss_det.self_ms",
                "matrices.mat_det.den_degree_max", "matrices.mat_det.m_max"],
     "moves": {"verify-rational": ["op_tail_ms", "ops_per_s", "peak_rss_mb"]},
     "no_change": ["cli-polynomial", "reduce-ring"]},
    {"layers": ["poly.RationalFunction.eq.self_ms",
                "poly.RationalFunction.eq.calls",
                "poly.Polynomial.divide_exact.self_ms",
                "poly.Polynomial.divide_exact.calls",
                "poly.Polynomial.pow.self_ms"],
     "moves": {"verify-rational": ["op_tail_ms", "ops_per_s"]}},
    {"layers": ["poly.Polynomial.mul.self_ms", "poly.Polynomial.mul.calls",
                "poly.mul.terms_max", "poly.schur.terms_max",
                "poly.schur.degree_max"],
     "moves": {"verify-rational": ["ops_per_s", "op_tail_ms"],
               "reduce-ring": ["ops_per_s", "op_tail_ms"]},
     "note": "large Q operands in verify-rational, tiny GF(2) operands in "
             "reduce-ring: a kernel tuned for one size shows its cost on "
             "the other"},
    {"layers": ["elimination.schur_eliminate.self_ms",
                "elimination.schur_eliminate.calls",
                "elimination.sparse_determinant.self_ms",
                "elimination.sparse_determinant.calls"],
     "moves": {"verify-rational": ["op_p50_ms"],
               "cli-polynomial": ["op_p50_ms"]}},
    {"layers": ["verify.check_realization.self_ms",
                "verify.check_realization.calls", "pencil.classify.self_ms",
                "pencil.schur_with_dets.calls"],
     "moves": {"verify-rational": ["ops_per_s", "op_p50_ms"],
               "cli-polynomial": ["ops_per_s"]}},
    {"layers": ["pencil.to_json.self_ms", "pencil.from_json.self_ms",
                "pencil.json_bytes", "cli.main.self_ms"],
     "moves": {"cli-polynomial": ["ops_per_s", "op_p50_ms"]},
     "no_change": ["verify-rational", "reduce-ring"]},
    {"layers": ["realize.realize_br.self_ms", "realize.realize_sbr.self_ms",
                "realize.realize_hbr.self_ms",
                "realize.decide_and_realize_hsbr.self_ms",
                "realize.decide_sbr_scalar_char2.calls",
                "combinators.self_ms"],
     "moves": {"cli-polynomial": ["ops_per_s"],
               "verify-rational": ["setup_s"]},
     "note": "through pencil_m_sum they also move every verify time"},
    {"layers": [f"combinators.{op}.calls" for op in (
        "op_product", "op_add", "op_inverse", "op_sandwich",
        "op_kron_identity", "op_symmetrize", "op_scale", "op_homogenize")],
     "moves": {"verify-rational": ["pencil_m_sum", "pencil_nnz_sum"],
               "cli-polynomial": ["pencil_m_sum", "pencil_nnz_sum",
                                  "ops_per_s"]}},
    {"layers": ["expr.parse_expression.self_ms",
                "expr.parse_expression.calls"],
     "moves": {"cli-polynomial": ["op_p50_ms"]}},
    {"layers": ["quotring.det.self_ms", "quotring.det.calls",
                "quotring.det_involution_sum.self_ms",
                "quotring.mult_normal_form.self_ms",
                "quotring.mult_normal_form.calls", "quotring.isolate.calls",
                "quotring.add_transform.calls",
                "quotring.is_ring_realizer.self_ms",
                "quotring.reduce_realizer.self_ms", "quotring.m_max"],
     "moves": {"reduce-ring": ["ops_per_s", "op_tail_ms"]},
     "no_change": ["verify-rational", "cli-polynomial"]},
    {"layers": ["fields.mul.calls", "fields.add.calls", "fields.inv.calls"],
     "moves": {"verify-rational": ["ops_per_s"],
               "cli-polynomial": ["ops_per_s"],
               "reduce-ring": ["ops_per_s"]},
     "note": "Q-heavy in verify-rational, GF(2) in reduce-ring"},
    {"layers": ["trace.overhead_ratio"],
     "moves": {}, "note": "typical untraced pass time over typical traced "
                          "pass time, the passes alternating in one run"},
]


def schur_sizes(pencil) -> dict:
    schur = pencil.schur_complement()
    parts = [p for row in schur.entries for e in row for p in (e.num, e.den)]
    return {
        "schur_terms_max": max(len(p.terms) for p in parts),
        "schur_degree_max": max(
            (p.total_degree() for p in parts if p.terms), default=0),
    }


def target_sizes(workload) -> list[dict]:
    out = []
    if isinstance(workload, workloads.ReduceRing):
        for label, (m, nnz) in zip(workload.labels, workload.sizes):
            out.append({"label": label, "m": m, "nnz": nnz})
        return out
    if isinstance(workload, workloads.VerifyRational):
        pencils = workload.pencils
    else:
        pencils = [
            workloads.BUILDERS[t.kind](workloads.to_matrix(t)).pencil
            for t in workload.targets
        ]
    for label, pencil in zip(workload.labels, pencils):
        out.append({"label": label, "m": pencil.m,
                    "nnz": workloads.pencil_nnz(pencil),
                    **schur_sizes(pencil)})
    return out


def excluded_targets() -> list[dict]:
    target = parse_expression(gen.ROADMAP_BR_3X3, parse_field("q"), 3)
    pencil = realize_br(target).pencil
    return [{
        "label": "roadmap-br-q-3x3", "text": gen.ROADMAP_BR_3X3,
        "m": pencil.m, "nnz": workloads.pencil_nnz(pencil),
        **schur_sizes(pencil),
        "why_excluded": (
            "check_realization does not finish within 100 s (mat_det "
            "clears all entry denominators to degree 81), so every op on it "
            "would hit the time limit, and a failed op ends the run.  It "
            "stays recorded here and belongs in "
            "verify-rational once verification of it finishes within the "
            "per-op limit"
        ),
    }]


def run_results(name: str, seconds: int) -> dict:
    results = {}
    for seed in (GATING_SEED, SECOND_SEED):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            results[f"seed {seed} trace {trace}"] = {
                "attempted": doc["attempted"], "failed": doc["failed"],
                "metrics": {k: v["value"] for k, v in doc["metrics"].items()},
            }
    return results


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_work"  # cli-polynomial setup writes nothing
    doc = {
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "loop": LOOP,
        "time_units": TIME_UNITS,
        "gating_seed": GATING_SEED,
        "second_seed": SECOND_SEED,
        "metrics": METRICS,
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    for name in workloads.NAMES:
        workload = workloads.make(name, GATING_SEED, workdir)
        entry = {
            "why": WHY[name],
            "op": OPS[name],
            "oracle": ORACLES[name],
            "op_limit_s": workload.op_limit_s,
            "ops_per_pass": len(workload.ops),
            "generator": {
                "seed": f"random.Random('{name}:<seed>') draws variable "
                        "permutations and coefficients (GF(2) realizers: "
                        "variable permutations, and (2,2)-block "
                        "permutations below "
                        f"{gen.RING_FIXED_ORDER}x{gen.RING_FIXED_ORDER}, "
                        "whose order sets the Leibniz cost); the slot "
                        f"shapes come from random.Random('{name}:shape')",
                "slots": {
                    "verify-rational": [list(s) for s in gen.VERIFY_SLOTS],
                    "cli-polynomial": [list(s) for s in gen.CLI_SLOTS],
                    "reduce-ring": {"sizes": list(gen.RING_SIZES),
                                    "n_vars": gen.RING_VARS,
                                    "add_steps": gen.RING_ADDS},
                }[name],
            },
            "targets": target_sizes(workload),
        }
        if name == "verify-rational":
            entry["generator"]["fixed"] = [gen.ROADMAP_SBR_2X2]
            entry["excluded_targets"] = excluded_targets()
        entry["results"] = run_results(name, bench["run_seconds"])
        doc["workloads"][name] = entry
    (HERE / "workloads.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
