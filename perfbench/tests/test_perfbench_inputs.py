"""Input generators, oracles and the per-op time limit.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import json
import random
import signal
import time

import pytest

import gen
import oracle
import run
import workloads


def _inputs(seed: int) -> bytes:
    """Every generated input of every workload, serialized."""
    doc = {
        "verify-rational": [
            [c.text, c.built.text() if c.built.entries else "",
             c.claim_kind, c.expected]
            for c in gen.verify_claims(seed)
        ],
        "cli-polynomial": [[t.field, t.kind, t.n_vars, t.text()]
                           for t in gen.cli_targets(seed)],
        "reduce-ring": [
            [item.ell, sorted(item.r),
             [[sorted(cell) for cell in row] for row in item.grid]]
            for item in gen.ring_inputs(seed)
        ],
    }
    return json.dumps(doc, sort_keys=True).encode()


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert _inputs(1) == _inputs(1)
    one, two = json.loads(_inputs(1)), json.loads(_inputs(2))
    for name in one:
        assert one[name] != two[name], name


def test_seed_keeps_shapes():
    # sizes, and so pencil sizes, do not depend on the seed
    a, b = workloads.VerifyRational(1), workloads.VerifyRational(2)
    assert [m for m, _ in a.sizes] == [m for m, _ in b.sizes]
    assert [i.size for i in gen.ring_inputs(1)] == list(gen.RING_SIZES)


def test_target_text_parses_back():
    # workloads.parsed_matrix raises WrongOutput on a mismatch
    for target in gen.cli_targets(3):
        workloads.parsed_matrix(target)
    for claim in gen.verify_claims(3)[1:]:
        workloads.parsed_matrix(claim.claimed)


def test_gf2_64_modulus_is_irreducible():
    # Rabin: x^(2^64) = x mod f, and gcd(x^(2^32) - x, f) = 1
    f = oracle.GF2_64()
    x = 2
    power = x
    for step in range(1, 65):
        power = f.mul(power, power)
        if step == 32:
            a, b = oracle.GF2_64_POLY, power ^ x
            while b:  # polynomial gcd over GF(2)
                while a and a.bit_length() >= b.bit_length():
                    a ^= b << (a.bit_length() - b.bit_length())
                a, b = b, a
            assert a == 1
    assert power == x
    rng = random.Random(5)
    for _ in range(20):
        a = f.random(rng)
        assert f.mul(a, f.inv(a)) == 1


def test_oracle_rejects_a_corrupted_pencil(tmp_path):
    w = workloads.CliPolynomial(4, tmp_path)
    index = 0
    codes = w.ops[index]()
    w.check(index, codes)
    doc = json.loads(w.paths[index].read_text())
    grid = doc["coeffs"][0]
    grid[0][0] = str(int(grid[0][0]) + 1)
    with pytest.raises(oracle.WrongOutput):
        oracle.check_pencil_text(json.dumps(doc), w.targets[index], 4)


def test_verdict_and_reduce_oracles_reject_wrong_outputs():
    w = workloads.VerifyRational(4)
    index = w.expected.index(False)
    report = w.ops[index]()
    w.check(index, report)
    report.schur_ok = report.structure_ok = report.det_ok = True
    with pytest.raises(oracle.WrongOutput):
        w.check(index, report)
    ring = workloads.ReduceRing(4)
    index = len(ring.ops) - 1
    result = ring.ops[index]()
    ring.check(index, result)
    with pytest.raises(oracle.WrongOutput):
        ring.check(index, result + result.context.one())


class _Ops:
    op_limit_s = 0.05

    def __init__(self, **ops):
        self.labels, self.ops = list(ops), list(ops.values())

    def check(self, index, out):
        assert out == 7


def test_an_op_that_fails_or_hits_the_time_limit_ends_the_run():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        assert run.run_pass(_Ops(fine=lambda: 7), run.Reference())[0] < 0.05
        with pytest.raises(ZeroDivisionError) as info:
            run.run_pass(_Ops(fine=lambda: 7, broken=lambda: 1 / 0),
                         run.Reference())
        assert "op broken" in info.value.__notes__[0]
        with pytest.raises(run.OpTimeout) as info:
            run.run_pass(_Ops(slow=lambda: time.sleep(5)), run.Reference())
        assert "op slow" in info.value.__notes__[0]
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_reference_scaling_divides_by_the_mean_kernel_time(monkeypatch):
    reference = run.Reference()
    monkeypatch.setattr(run.Reference, "_time_kernel",
                        staticmethod(lambda: 2e-3))
    reference.last = 2e-3
    # 0.5 s while the kernel takes 2 ms reads as 0.25 s of 1 ms kernels
    assert reference.scale(0.5) == pytest.approx(0.25)
    # kernel samples inside the region are taken out of it and averaged in
    reference.samples = [4e-3]
    assert reference.scale(0.104) == pytest.approx(0.1 * 3 / 8)
