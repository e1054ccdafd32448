"""The exact model of a rational stream gives the blocked kernel's verdicts.

A rational stream's scan reads in floats only the indices its exact model
leaves undecided (mufield.exact). Here random rational experiments are
scanned both ways, the blocked kernel reading every index, and every field
of every verdict is compared, eps bounds set exactly on a float deviation
included. The integer root brackets the pieces rest on are held to sympy's
real roots, and the weight check to a check of every index.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import mufield
from mufield import (
    ExperimentSpec,
    FieldContext,
    MembershipFunction,
    SequenceSpec,
    ValidationError,
    WeightForm,
    constant_weight,
    scaled_deviation,
)
from mufield.exact import RationalScan, breakpoints, weight_windows
from mufield.sequences import EPS_BLOCK, REFUTED, SCAN_BLOCK, SUPPORTED_TRIVIALLY, _BlockPass, _Stream

HORIZON = 5_000
SMALL = [0.0, 1.0, -1.0, 2.0, 3.0, -2.5, 0.5, 1.0 / 3.0, 7.25, 1e-3, -0.1]


class BlockStream(_Stream):
    """The same streams, every scan by the blocked kernel."""

    def _probe(self, *args):
        return _BlockPass(self, *args)


@st.composite
def sequences(draw, n_min):
    kind = draw(st.sampled_from(["sq_ratio", "moebius", "constant"]))
    if kind == "sq_ratio":
        return SequenceSpec("sq_ratio", {}, n_min, HORIZON), 1.0
    if kind == "constant":
        value = draw(st.sampled_from(SMALL + [1e6, -3e-7]))
        return SequenceSpec("constant", {"value": value}, n_min, HORIZON), value
    a, b = draw(st.sampled_from(SMALL)), draw(st.sampled_from(SMALL + [1e4]))
    c, d = draw(st.sampled_from(SMALL)), draw(st.sampled_from(SMALL + [-40.5, 1e4]))
    assume(c != 0.0 or d != 0.0)
    if c != 0.0:  # no pole within a unit of the range
        assume(not n_min - 1 <= -d / c <= HORIZON + 1)
    params = {"a": a, "b": b, "c": c, "d": d}
    return SequenceSpec("moebius", params, n_min, HORIZON), (a / c if c else math.inf)


@st.composite
def weights(draw):
    kind = draw(st.sampled_from(["const", "rational_poly", "ratio_to_bigger"]))
    if kind == "const":
        return constant_weight(draw(st.sampled_from([0.0, 1e-13, 0.25, 1.0, 0.1])))
    coeffs = st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, 1e-3, 12.0, -1.0]), min_size=1, max_size=4)
    p = draw(coeffs)
    if kind == "rational_poly":
        return WeightForm("rational_poly", {"p": p, "q": draw(coeffs)})
    extra = draw(coeffs)  # p / (p + extra), in [0, 1] when both are >= 0
    q = [x + y for x, y in zip(p + [0.0] * len(extra), extra + [0.0] * len(p))]
    return WeightForm("rational_poly", {"p": p, "q": q})


@st.composite
def experiments(draw):
    n_min = draw(st.sampled_from([1, 2, 5, 37]))
    seq, limit = draw(sequences(n_min))
    partner, plimit = draw(sequences(draw(st.sampled_from([1, n_min, 9]))))
    n_start = max(seq.n_min, partner.n_min)
    horizon = draw(st.sampled_from([n_start, n_start + 1, 150, 4_097, HORIZON]))
    expr = draw(st.sampled_from(["self", "partner", "sum", "product"]))
    target = {"self": limit, "partner": plimit, "sum": limit + plimit, "product": limit * plimit}[expr]
    near = [0.0, 1.0, -2.0, 0.3]
    if math.isfinite(target):
        near += [target, target + 1e-9, math.nextafter(target, 0.0), target - 0.5]
    candidate = draw(st.sampled_from(near))
    assignment = ()
    if draw(st.booleans()):
        assignment = ((expr, candidate, draw(weights())),)
    default = draw(st.sampled_from([0.0, 0.5, 1.0, 1e-12]))
    eq_tol = draw(st.sampled_from([1e-9, 1e-15, 0.25]))
    min_mu = draw(st.sampled_from([1e-12, 0.0, 0.1]))
    eps = tuple(draw(st.lists(st.sampled_from([0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-12]), min_size=1, max_size=4)))
    ctx = FieldContext(mu=MembershipFunction((), default), eq_tol=eq_tol, min_mu=min_mu)
    try:
        exp = ExperimentSpec(sequence=seq, partner=partner, assignment=assignment, candidates=((expr, candidate),),
                             eps_schedule=eps, horizon=horizon, ctx=ctx)
    except ValidationError:  # a drawn weight form outside [0, 1]
        assume(False)
    # an eps whose bound eps (1 + eq_tol) sits on the float deviation at a drawn index, or an ulp off
    at = draw(st.integers(exp.n_start, horizon))
    dev = float(_Stream(exp).deviation(expr, candidate, at, at)[1][0])
    if dev > 0.0 and math.isfinite(dev):
        eps += (dev / (1.0 + eq_tol), math.nextafter(dev / (1.0 + eq_tol), 0.0))
    return ExperimentSpec(sequence=seq, partner=partner, assignment=assignment, candidates=exp.candidates,
                          eps_schedule=eps, horizon=horizon, ctx=ctx), expr, candidate


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(experiments())
def test_exact_scans_equal_the_blocked_kernel(drawn):
    exp, expr, candidate = drawn
    exact, block = _Stream(exp, lo=1), BlockStream(exp, lo=1)
    assert isinstance(exact._probe(expr, candidate, exact.n0, None, exp.ctx), RationalScan)
    assert exact._scan(expr, candidate, exact.n0) == block._scan(expr, candidate, block.n0)
    for seq in (exp.sequence, exp.partner):  # the classical scans, weight 1 from each n_min
        assert exact.classical(seq, candidate) == block.classical(seq, candidate)


def test_a_stream_with_a_pole_between_indices_equals_the_blocked_kernel():
    # 1 / (n - 40.5) jumps from -2 to 2 between 40 and 41; the pieces on either side are exact
    seq = SequenceSpec("moebius", {"a": 0.0, "b": 1.0, "c": 1.0, "d": -40.5}, 1, 3_000)
    exp = ExperimentSpec(sequence=seq, candidates=(("self", 0.0),), eps_schedule=(1.0, 0.5, 1e-2, 1e-3),
                         horizon=3_000, assignment=(("self", 0.0, WeightForm("rational_poly", {"p": [1], "q": [1, 1]})),))
    for cand in (0.0, 2.0):
        exact, block = _Stream(exp), BlockStream(exp)
        assert exact._scan("self", cand, 1) == block._scan("self", cand, 1)
        assert exact.classical(seq, cand) == block.classical(seq, cand)


def test_a_bound_surely_reached_at_the_end_of_a_piece_equals_the_blocked_kernel():
    # |(3 - n / 10) / (2 n + 10^4) - 1| / 2 rises over [37, 38]: a bound set on the float
    # deviation at 37 is surely reached at 38, the last index of the piece
    seq = SequenceSpec("moebius", {"a": -0.1, "b": 3.0, "c": 2.0, "d": 10_000.0}, 37, 38)
    assignment = (("self", 1.0, WeightForm("rational_poly", {"p": [0.001], "q": [0.002]})),)
    exp = ExperimentSpec(sequence=seq, assignment=assignment, horizon=38)
    eps = float(_Stream(exp).deviation("self", 1.0, 37, 37)[1][0]) / (1.0 + exp.ctx.eq_tol)
    exp = ExperimentSpec(sequence=seq, assignment=assignment, horizon=38, eps_schedule=(eps,))
    exact, block = _Stream(exp), BlockStream(exp)
    assert exact._scan("self", 1.0, 37) == block._scan("self", 1.0, 37)
    assert exact._scan("self", 1.0, 37).eps_table == ((eps, None),)


def test_an_overflowing_stream_is_read_whole_and_equals_the_blocked_kernel():
    seq = SequenceSpec("moebius", {"a": 1e307, "b": 1e308, "c": 1.0, "d": 1.0}, 1, 200)
    exp = ExperimentSpec(sequence=seq, candidates=(("self", 1e307),), horizon=200)
    exact, block = _Stream(exp), BlockStream(exp)
    assert exact._scan("self", 1e307, 1) == block._scan("self", 1e307, 1)


@pytest.mark.parametrize("seq, weight, candidate", [
    # c n + d past the float range: every float term is 0, and the bound of each piece
    # meets an integer quotient past the float range and a denominator floor lost to it
    (SequenceSpec("moebius", {"a": 1.0, "b": 0.0, "c": 1e308, "d": 1e308}, 1, 100), None, 0.0),
    # c n + d cancels to -64 at n = 50, less than its own rounding error: no floor
    (SequenceSpec("moebius", {"a": 1.0, "b": 0.0, "c": 1e16, "d": -5.00000000000000064e17}, 1, 100), None, 0.0),
    # a weight of 1 / 2 read as -1 / -2: the exact deviation's denominator is negative
    (SequenceSpec("sq_ratio", {}, 1, 100), WeightForm("rational_poly", {"p": [-1.0], "q": [-2.0]}), 1.0),
], ids=["overflowing_denominator", "cancelling_denominator", "negative_weight_denominator"])
def test_an_edge_of_the_model_equals_the_blocked_kernel(seq, weight, candidate):
    assignment = () if weight is None else (("self", candidate, weight),)
    exp = ExperimentSpec(sequence=seq, assignment=assignment, horizon=100, eps_schedule=(1e-1, 1e-3, 1e-12))
    exact, block = _Stream(exp), BlockStream(exp)
    assert isinstance(exact._probe("self", candidate, 1, None, exp.ctx), RationalScan)
    assert exact._scan("self", candidate, 1) == block._scan("self", candidate, 1)
    assert exact.classical(seq, candidate) == block.classical(seq, candidate)


def test_windows_wider_than_a_scan_block_equal_the_blocked_kernel(monkeypatch):
    # a constant stream's deviation is constant, so with eps on its float value, or an
    # ulp off, the model decides no index: each piece between powers of 2 is a window,
    # the widest [131072, 262144]. The weight 1 / 2 sits on min_mu, so the weight count
    # reads such windows too, and eq_tol is too small for the rise test to skip one
    seq = SequenceSpec("constant", {"value": 0.1}, 1_000, 300_000)
    half = WeightForm("rational_poly", {"p": [1.0], "q": [2.0]})
    ctx = FieldContext(eq_tol=1e-300, min_mu=0.5)  # eps (1 + eq_tol) is eps
    exp = ExperimentSpec(sequence=seq, assignment=(("self", 0.3, half),), candidates=(("self", 0.3),),
                         horizon=300_000, ctx=ctx)
    dev = scaled_deviation(exp, "self", 0.3, 5_000)
    asked = {}
    for name in ("last_reaching", "low_count", "rises_after"):
        def recorded(self, *args, method=getattr(_BlockPass, name), name=name):
            asked.setdefault(name, []).append(self.hi - self.n0 + 1)
            return method(self, *args)
        monkeypatch.setattr(_BlockPass, name, recorded)
    schedules = [(math.nextafter(dev, 0.0),), (dev,), (math.nextafter(dev, 1.0),)]
    exact, block = _Stream(exp, lo=1), BlockStream(exp, lo=1)
    assert isinstance(exact._probe("self", 0.3, 1_000, None, ctx), RationalScan)
    got = [(exact._scan("self", 0.3, 1_000, schedule=e), exact._scan("self", 0.3, 1_000, seq, e)) for e in schedules]
    assert sorted(asked) == ["last_reaching", "low_count", "rises_after"]
    assert all(max(spans) > SCAN_BLOCK > EPS_BLOCK for spans in asked.values())
    assert got == [(block._scan("self", 0.3, 1_000, schedule=e), block._scan("self", 0.3, 1_000, seq, e))
                   for e in schedules]
    assert [v.verdict for v, _ in got] == [REFUTED, REFUTED, SUPPORTED_TRIVIALLY]


def test_a_weight_count_from_past_an_undecided_window_equals_the_blocked_kernel():
    # n / (n + 70,000) crosses min_mu at n = 66,000, in the piece [65536, 131072]: a count
    # from 131,000 starts 65,000 indices past the window the model leaves undecided
    seq = SequenceSpec("constant", {"value": 1.0}, 1, 140_000)
    weight = WeightForm("rational_poly", {"p": [0, 1], "q": [70_000, 1]})
    ctx = FieldContext(min_mu=66_000 / 136_000)
    stream = _Stream(ExperimentSpec(sequence=seq, assignment=(("self", 0.0, weight),), horizon=140_000, ctx=ctx))
    probe, whole = stream._probe("self", 0.0, 1, None, ctx), _BlockPass(stream, "self", 0.0, 1, None, ctx)
    assert isinstance(probe, RationalScan)
    for first in (1, 65_999, 66_000, 66_001, 100_000, 131_000, 140_000):
        assert probe.low_count(first) == whole.low_count(first)


def test_a_rise_before_the_tail_in_its_piece_is_not_counted():
    # (0.3 n + 0.1) / (3 n + 1) rounds one ulp up somewhere in the piece the tail of
    # eps 2**-56 starts in, before N = 4964, and never after it: a rise count from the
    # piece's start instead of the tail's would refuse the decreasing envelope
    seq = SequenceSpec("moebius", {"a": 0.3, "b": 0.1, "c": 3.0, "d": 1.0}, 1, 5_000)
    ctx = FieldContext(mu=MembershipFunction((), 1.0), eq_tol=2.0**-57)
    exp = ExperimentSpec(sequence=seq, eps_schedule=(2.0**-56,), horizon=5_000, ctx=ctx)
    exact, block = _Stream(exp), BlockStream(exp)
    assert isinstance(exact._probe("self", 0.3 / 3.0, 1, None, ctx), RationalScan)
    got = exact._scan("self", 0.3 / 3.0, 1)
    assert got == block._scan("self", 0.3 / 3.0, 1)
    assert got.eps_table == ((2.0**-56, 4964),)
    assert got.tail_certificate == "monotone-decreasing-envelope"


def real_root_brackets(coeffs, lo, hi):
    """{floor(x), ceil(x)} of every real root x of the polynomial in [lo, hi], by sympy."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x)
    out = set()
    for r in sympy.real_roots(poly):
        if lo <= r <= hi:
            out.update((int(sympy.floor(r)), int(sympy.ceiling(r))))
    return out


@st.composite
def polynomials(draw):
    """Integer coefficients, ascending: random ones, or products of (q x - p) with
    rational roots p / q drawn close together, repeated ones included."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-40, 40), min_size=2, max_size=8).filter(any))
    poly = [draw(st.sampled_from([1, -3, 7]))]
    base = draw(st.integers(-2_000, 400_000))
    for _ in range(draw(st.integers(1, 5))):
        root = base + Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 3, 7, 10])))
        poly = [a - b for a, b in zip([0] + [c * root.denominator for c in poly],
                                      [c * root.numerator for c in poly] + [0])]
    return poly


@settings(max_examples=120, deadline=None)
@given(polynomials(), st.integers(-50, 4_000), st.integers(0, 10**6))
def test_breakpoints_hold_both_integers_next_to_every_real_root(coeffs, lo, span):
    hi = lo + span
    got = breakpoints(coeffs, lo, hi)
    assert got == sorted(set(got)) and got[0] == lo and got[-1] == hi
    assert real_root_brackets(coeffs, lo, hi) <= set(got)


def first_bad_weight(wf, n_min, n_max):
    """(n, weight) of the first weight outside [0, 1] over the whole range, or None."""
    w = wf.weights(np.arange(n_min, n_max + 1, dtype=float))
    bad = np.flatnonzero(~((w >= 0.0) & (w <= 1.0)))
    return None if not bad.size else (n_min + int(bad[0]), float(w[bad[0]]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, -30.0, 1e-3, 900.0, -0.25]), min_size=1, max_size=4),
       st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, -30.0, 1e-3, 900.0, 4.0]), min_size=1, max_size=4),
       st.sampled_from([1, 2, 29]), st.sampled_from([1, 30, 4_097, 70_000]))
def test_weight_check_names_the_first_bad_weight_of_the_whole_range(p, q, n_min, span):
    wf = WeightForm("rational_poly", {"p": p, "q": q})
    n_max = n_min + span
    want = first_bad_weight(wf, n_min, n_max)
    if want is None:
        wf.validate_range(n_min, n_max, where="mu[self]")
        return
    with pytest.raises(ValidationError) as raised:
        wf.validate_range(n_min, n_max, where="mu[self]")
    assert str(raised.value) == f"mu[self]: weight {want[1]!r} out of [0, 1] at n={want[0]}"
    # every bad index lies in a window the check weighs
    windows = weight_windows(wf, n_min, n_max)
    assert any(a <= want[0] <= b for a, b in windows)


def test_an_empty_range_weighs_no_index():
    wf = WeightForm("rational_poly", {"p": [2.0], "q": [1.0]})  # 2 at every index
    assert weight_windows(wf, 5, 4) == [] and first_bad_weight(wf, 5, 4) is None
    wf.validate_range(5, 4)
    with pytest.raises(ValidationError, match="weight 2.0 out of \\[0, 1\\] at n=5"):
        wf.validate_range(5, 5)


def test_a_weight_far_from_0_and_1_weighs_no_index(monkeypatch):
    calls = []
    monkeypatch.setattr(WeightForm, "weights", lambda self, n: calls.append(n) or np.full(n.shape, 0.5))
    WeightForm("rational_poly", {"p": [0, 0, 1], "q": [1, 6, 12, 8]}).validate_range(1, 1_200_000)
    constant_weight(0.25).validate_range(1, 1_200_000)
    assert calls == []


@pytest.mark.parametrize("modules", [
    # exact arithmetic is loaded by the first rational scan or weight check
    ("fractions", "decimal", "mufield.exact"),
    # the trace helper is a bare os.fork and os.pipe, with no process pool or event loop behind it
    ("multiprocessing", "concurrent", "subprocess", "selectors"),
], ids=["exact_arithmetic", "process_pools"])
def test_import_leaves_out(modules):
    code = ("import sys, mufield, mufield.cli; "
            f"print(sorted(m for m in {modules!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(mufield.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"
