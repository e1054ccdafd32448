"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values marked as derived were frozen from independent
brute-force oracles (plain-math loops over the closed forms, kept inline
here); nothing below trusts the code path it checks.
"""

import cmath
import math
import random
import time

import numpy as np
import pytest

from mufield import (
    ExperimentSpec,
    FieldContext,
    MembershipFunction,
    MuRule,
    Ordering,
    PointMatcher,
    SequenceSpec,
    check_axioms,
    check_monotone,
    classical_converges,
    crisp,
    mu_abs,
    mu_arg,
    mu_compare,
    mu_conj,
    mu_converges,
    mu_exp,
    mu_log,
    mu_pow,
    mu_sup,
    run_demo,
    run_identity_sweep,
    two_level,
)
from mufield.real_field import PASS
from mufield.registry import DEFAULT_SWEEP_IDS
from mufield.sequences import SUPPORTED, SUPPORTED_TRIVIALLY

EQ_TOL = 1e-9


def _report(num, label, elapsed=None):
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num} {label}: PASS{timing}")


def _oracle_min_index(dev, eps, horizon, n_min=1):
    """Independent scan with the documented eps-relative comparison slack."""
    last_bad = None
    for n in range(n_min, horizon + 1):
        if not (dev(n) < eps * (1.0 + EQ_TOL)):
            last_bad = n
    if last_bad is None:
        return n_min
    if last_bad == horizon:
        return None
    return last_bad + 1


def test_criterion_1_crisp_reduction():
    """With the identity weighting every operation matches its classical value."""
    rng = random.Random(20240601)
    ctx_r = FieldContext(mu=crisp())
    ctx_c = FieldContext(mu=crisp())
    reals = [
        math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        * (1 if rng.random() < 0.5 else -1)
        for _ in range(10_000)
    ]
    cplx = []
    for _ in range(10_000):
        r = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        th = rng.uniform(-math.pi, math.pi)
        cplx.append(complex(r * math.cos(th), r * math.sin(th)))

    t0 = time.perf_counter()
    for i in range(0, 10_000, 2):
        a, b = reals[i], reals[i + 1]
        got = mu_compare(ctx_r, a, b)
        want = Ordering.EQUAL if abs(a - b) <= 1e-9 else (Ordering.LESS if a < b else Ordering.GREATER)
        assert got is want
        assert mu_abs(ctx_r, a) == abs(a)
    for i in range(0, 10_000, 10):
        chunk = reals[i : i + 10]
        assert mu_sup(ctx_r, chunk).scaled == max(chunk)
    for i, z in enumerate(cplx):
        assert mu_conj(ctx_c, z) == z.conjugate()
        assert abs(mu_arg(ctx_c, z) - cmath.phase(z)) <= 1e-12 * max(1.0, abs(cmath.phase(z)))
        if i % 5 == 0:
            w = z / abs(z) * min(abs(z), 3.0)
            assert cmath.isclose(mu_exp(ctx_c, w), cmath.exp(w), rel_tol=1e-12)
            assert cmath.isclose(mu_log(ctx_c, z), cmath.log(z), rel_tol=1e-12, abs_tol=1e-12)
        if i % 10 == 0:
            a = z / abs(z) * min(max(abs(z), 0.1), 10.0)
            e = cplx[(i + 1) % len(cplx)]
            e = e / abs(e) * min(abs(e), 2.0)
            assert cmath.isclose(mu_pow(ctx_c, a, e), cmath.exp(e * cmath.log(a)), rel_tol=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"crisp reduction took {elapsed:.2f}s"
    _report(1, "crisp reduction over 10^4 seeded samples", elapsed)


def test_criterion_2_identity_sweep():
    """Every registry entry passes 1000 randomized trials with residual < 1e-9."""
    expected_ids = {
        *(f"O{i}" for i in range(1, 9)),
        "R1", "R2", "R3", "R4", "R5a", "R5b", "S1",
        *(f"C{i}" for i in range(1, 8)),
        *(f"M{i}" for i in range(1, 8)),
        "A1", "E1", "E2", "EN1", "EN2", "L1", "L2", "P1", "P2",
    }
    assert set(DEFAULT_SWEEP_IDS) == expected_ids
    t0 = time.perf_counter()
    outcomes = run_identity_sweep(trials=1000, seed=0)
    elapsed = time.perf_counter() - t0
    guarded_unmet = 0
    for o in outcomes:
        assert o.failed == 0, f"{o.ident} had false failures: {o.first_failure}"
        assert o.passed > 0, f"{o.ident} never produced a pass"
        assert o.max_residual < 1e-9, f"{o.ident} residual {o.max_residual:.3e}"
        guarded_unmet += o.unmet
    assert guarded_unmet > 0, "zero-membership draws never exercised the guards"
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"
    _report(2, f"identity sweep, {len(outcomes)} entries x 1000 trials", elapsed)


def test_criterion_3_nonunique_limit():
    """The log-drift demo is supported at both 0 and 1 - sqrt(2)."""
    t0 = time.perf_counter()
    demo = run_demo("nonunique_limit")
    shift = 1.0 - math.sqrt(2.0)
    v0 = demo.report.verdict_for("self", 0.0)
    v1 = demo.report.verdict_for("self", shift)
    assert v0.verdict == SUPPORTED and v1.verdict == SUPPORTED

    def dev(n):
        return (math.log(n) + 1.0) * (n / (n + 1.0) ** 3)

    oracle = _oracle_min_index(dev, 1e-3, 5000)
    assert oracle == 72  # frozen from the independent scan
    assert dict(v0.eps_table)[1e-3] == oracle
    assert v0.tail_certificate == "monotone-decreasing-envelope"
    assert v1.tail_certificate == "monotone-decreasing-envelope"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"demo took {elapsed:.2f}s"
    _report(3, "non-unique weighted limit, N(1e-3) = 72", elapsed)


def test_criterion_4_unbounded_convergent():
    """Exponential growth: supported at 1, scaled stream past 1e6 by n = 14."""
    demo = run_demo("unbounded_convergent")
    v = demo.report.verdict_for("self", 1.0)
    assert v.verdict == SUPPORTED

    def dev(n):
        return (math.exp(n) + 1.0) * (math.exp(-2.0 * n) / (1.0 + math.exp(-n)) ** 2)

    assert _oracle_min_index(dev, 1e-3, 600) == 7
    assert dict(v.eps_table)[1e-3] == 7
    assert math.exp(13) + 2.0 < 1e6 < math.exp(14) + 2.0
    assert demo.bounds.within_probe is False
    assert demo.bounds.first_exceed_n == 14
    _report(4, "weighted-convergent yet unbounded, N(1e-3) = 7, probe crossed at n = 14")


def test_criterion_5_sum_failure():
    """Sum of two 1-limits is supported at 0 with N(eps) = ceil(1/eps) - 1."""
    demo = run_demo("sum_failure")
    assert demo.report.verdict_for("self", 1.0).verdict == SUPPORTED
    assert demo.report.verdict_for("partner", 1.0).verdict == SUPPORTED
    v_sum = demo.report.verdict_for("sum", 0.0)
    assert v_sum.verdict == SUPPORTED
    for eps, n in v_sum.eps_table:
        k = math.ceil(1.0 / eps) - 1
        assert n == k, f"N({eps}) = {n}, closed form gives {k}"
        # closed form: the deviation is exactly 1/(n+1); the boundary index is
        # the last one at or above eps
        assert 1.0 / (k + 1.0) < eps * (1.0 + EQ_TOL)
        assert not (1.0 / k < eps * (1.0 + EQ_TOL))
    v2 = demo.report.verdict_for("sum", 2.0)
    assert v2.verdict == SUPPORTED_TRIVIALLY
    assert v2.trivial_tail_fraction == 1.0
    _report(5, "sum failure, N(eps) = ceil(1/eps) - 1, arithmetic limit only trivial")


def test_criterion_6_product_failure():
    """Product of 1- and 1/3-limits is supported at 0, not at 1/3 nontrivially."""
    demo = run_demo("product_failure")
    third = 1.0 / 3.0
    assert demo.report.verdict_for("self", 1.0).verdict == SUPPORTED
    v_y = demo.report.verdict_for("partner", third)
    assert v_y.verdict == SUPPORTED

    # partner deviation collapses to exactly 1/n^2
    exp = demo.experiment
    from mufield import scaled_deviation

    for n in (5, 10, 100, 999):
        got = scaled_deviation(exp, "partner", third, n)
        assert got == pytest.approx(1.0 / n**2, rel=1e-12)
    oracle = {
        eps: _oracle_min_index(lambda n: 1.0 / n**2, eps, 5000, n_min=5) for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    }
    for eps, n in v_y.eps_table:
        assert n == oracle[eps]

    assert demo.report.verdict_for("product", 0.0).verdict == SUPPORTED
    v_third = demo.report.verdict_for("product", third)
    assert v_third.verdict == SUPPORTED_TRIVIALLY  # not supported nontrivially
    _report(6, "product failure, factor oracles match, classical limit only trivial")


def test_criterion_7_theorem_suite():
    """Classical convergence implies weighted support, N_mu <= N_classical,
    and the floor-a bound a(la - 1) < x_n w(x_n) < (l + 1)/a on the tail."""
    rng = random.Random(714)
    horizon = 100_000  # slowest draw decays like 50/n, so 1e-3 needs n ~ 5e4
    eps_schedule = (1.0, 1e-1, 1e-2, 1e-3)
    t0 = time.perf_counter()
    for _ in range(100):
        pa = rng.uniform(0.5, 5.0)
        pc = rng.uniform(0.5, 2.0)
        pb = rng.uniform(0.0, 5.0)
        pd = rng.uniform(0.1, 2.0)
        level = rng.uniform(0.1, 1.0)
        seq = SequenceSpec("moebius", {"a": pa, "b": pb, "c": pc, "d": pd}, 1, horizon)
        limit = pa / pc
        ctx = FieldContext(mu=two_level({0.0, 1.0}, level))
        exp = ExperimentSpec(sequence=seq, horizon=horizon, ctx=ctx, eps_schedule=eps_schedule)
        weighted = mu_converges(exp, "self", limit)
        classical = classical_converges(seq, limit, eps_schedule, horizon)
        assert classical.verdict == SUPPORTED
        assert weighted.verdict == SUPPORTED
        for (eps, n_mu), (_, n_cl) in zip(weighted.eps_table, classical.eps_table):
            assert n_mu is not None and n_cl is not None and n_mu <= n_cl

        k = dict(weighted.eps_table)[1.0]
        ns = np.arange(k, horizon + 1)
        terms = seq.terms(ns)
        weights = ctx.mu.weight_many(terms)
        scaled = terms * weights
        lo = level * (limit * level - 1.0)
        hi = (limit + 1.0) / level
        assert np.all(scaled > lo) and np.all(scaled < hi)
    elapsed = time.perf_counter() - t0
    _report(7, "100 classical sequences under random weightings dominate and stay in the proof bounds", elapsed)


def test_criterion_8_monotone_theorem():
    """Nondecreasing bounded scaled streams close on their horizon supremum."""
    rng = random.Random(88)
    horizon = 10_000
    t0 = time.perf_counter()
    for _ in range(100):
        limit = rng.uniform(0.25, 0.9)
        pc = rng.uniform(0.5, 2.0)
        pd = rng.uniform(0.5, 2.0)
        pa = limit * pc
        pb = rng.uniform(0.0, 0.95 * pa * pd / pc)
        level = rng.uniform(0.2, 1.0)
        seq = SequenceSpec("moebius", {"a": pa, "b": pb, "c": pc, "d": pd}, 1, horizon)
        ctx = FieldContext(mu=two_level({0.0, 1.0}, level))
        exp = ExperimentSpec(sequence=seq, horizon=horizon, ctx=ctx)
        rep = check_monotone(exp)
        assert rep.verdict == PASS, rep
        assert rep.details["gap_final"] < 1e-6
        assert rep.residual <= exp.ctx.eq_tol
    elapsed = time.perf_counter() - t0
    _report(8, "100 nondecreasing bounded streams converge to their suprema", elapsed)


def test_criterion_9_axiom_checker():
    """Identity weighting passes any grid; seeded mutations name their axiom."""
    grids = [
        [x / 2.0 for x in range(-10, 11)],
        [0.1, 0.2, 0.7, 1.5, 9.0],
        [-4.0, 4.0],
    ]
    for grid in grids:
        assert check_axioms(FieldContext(), grid).passed

    mutations = [
        ("i", 3.0, (1.0, 2.0)),
        ("ii", -2.0, (2.0,)),
        ("iii", 6.0, (-2.0, -3.0)),
        ("iv", 0.25, (4.0,)),
        ("v", 0.0, (2.0,)),
    ]
    for axiom, point, samples in mutations:
        rng = random.Random(f"acceptance:{axiom}")
        mu = MembershipFunction([MuRule(PointMatcher(point), rng.uniform(0.1, 0.95))], 1.0)
        report = check_axioms(FieldContext(mu=mu), list(samples))
        failing = {a for a, ok in report.verdicts.items() if not ok}
        assert failing == {axiom}, f"mutation {axiom} detected as {failing}"

    # quadratic pair scan is part of the contract and documented
    assert "O(" in check_axioms.__doc__
    _report(9, "axiom audit: identity weighting clean, all five mutations pinpointed")
