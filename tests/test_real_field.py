import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from mufield import (
    DomainError,
    FieldContext,
    MembershipFunction,
    MuRule,
    Ordering,
    PointMatcher,
    UsageError,
    ValidationError,
    check_real_identity,
    check_sup_characterization,
    mu_abs,
    mu_bounded_report,
    mu_compare,
    mu_inf,
    mu_sup,
    two_level,
)
from mufield.real_field import FAIL, PASS, UNMET, ScaledValue, _le_report

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


def point_mu(table, default=1.0):
    return MembershipFunction([MuRule(PointMatcher(float(k), 1e-12), w) for k, w in table.items()], default)


class TestCompare:
    def test_crisp_order(self):
        ctx = FieldContext()
        assert mu_compare(ctx, 1.0, 2.0) is Ordering.LESS

    def test_weight_reverses_order(self):
        ctx = FieldContext(mu=point_mu({5.0: 0.1, 1.0: 1.0}))
        # 5 * 0.1 = 0.5 sits below 1 * 1
        assert mu_compare(ctx, 5.0, 1.0) is Ordering.LESS

    def test_zero_weight_collapses_to_equal(self):
        ctx = FieldContext(mu=point_mu({-3.0: 0.0}))
        assert mu_compare(ctx, -3.0, 0.0) is Ordering.EQUAL

    @given(finite, finite)
    def test_crisp_reduction_matches_classical(self, a, b):
        ctx = FieldContext()
        got = mu_compare(ctx, a, b)
        if abs(a - b) <= ctx.eq_tol:
            assert got is Ordering.EQUAL
        else:
            assert got is (Ordering.LESS if a < b else Ordering.GREATER)

    @given(finite)
    def test_reflexive(self, a):
        assert mu_compare(FieldContext(), a, a) is Ordering.EQUAL

    @settings(max_examples=60)
    @given(st.lists(finite, min_size=3, max_size=3), st.floats(0.05, 1), st.floats(0.05, 1))
    def test_transitive_on_scaled_values(self, triple, w1, w2):
        a, b, c = triple
        ctx = FieldContext(mu=point_mu({a: w1, b: w2}))
        if mu_compare(ctx, a, b) is not Ordering.GREATER and mu_compare(ctx, b, c) is not Ordering.GREATER:
            # slack composes: two eq_tol-equal steps allow 2 * eq_tol drift
            sa = a * ctx.mu.weight(a)
            sc = c * ctx.mu.weight(c)
            assert sa <= sc + 2 * ctx.eq_tol


class TestAbs:
    def test_weighted(self):
        ctx = FieldContext(mu=point_mu({2.0: 0.5}))
        assert mu_abs(ctx, 2.0) == 1.0

    def test_zero(self):
        assert mu_abs(FieldContext(mu=point_mu({0.0: 0.3}, default=0.7)), 0.0) == 0.0

    def test_negative_branch(self):
        ctx = FieldContext(mu=point_mu({-2.0: 0.5}))
        assert mu_abs(ctx, -2.0) == 1.0

    @given(finite)
    def test_crisp_reduction(self, a):
        assert mu_abs(FieldContext(), a) == abs(a)


class TestExtrema:
    def test_weighted_sup_with_witness(self):
        ctx = FieldContext(mu=point_mu({1.0: 0.5, 3.0: 0.1, 2.0: 1.0}))
        s = mu_sup(ctx, [1.0, 3.0, 2.0])
        assert s.scaled == 2.0 and s.raw == 2.0

    def test_crisp_sup_inf(self):
        ctx = FieldContext()
        assert mu_sup(ctx, [-1.0, 4.0]).scaled == 4.0
        assert mu_inf(ctx, [-1.0, 4.0]).scaled == -1.0

    def test_log_family_points_sup(self):
        from tests.test_membership import log_family_mu

        ctx = FieldContext(mu=log_family_mu(200))
        pts = [math.log(n) + 1.0 for n in range(1, 51)]
        s = mu_sup(ctx, pts)
        assert s.scaled == pytest.approx(0.12541830967110706, rel=1e-12)
        assert s.raw == pytest.approx(math.log(2) + 1.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            mu_sup(FieldContext(), [])
        with pytest.raises(UsageError):
            mu_inf(FieldContext(), [])


class TestBounds:
    def test_crisp_within_probe(self):
        rep = mu_bounded_report(FieldContext(), range(-5, 6), bound_probe=10.0)
        assert rep.within_probe and rep.sup.scaled == 5.0 and rep.inf.scaled == -5.0

    def test_exponential_points_exceed_probe(self):
        pts = [math.exp(n) + 2.0 for n in range(1, 15)]
        rep = mu_bounded_report(FieldContext(), pts, bound_probe=1e6)
        assert rep.within_probe is False
        assert rep.scaled_abs_max == pytest.approx(math.exp(14) + 2.0, rel=1e-12)

    @settings(max_examples=60)
    @given(st.lists(finite, min_size=1, max_size=10), st.floats(0, 1))
    def test_scaled_never_exceeds_raw(self, values, level):
        ctx = FieldContext(mu=two_level({0.0, 1.0}, level))
        rep = mu_bounded_report(ctx, values)
        assert rep.scaled_within_raw


# values whose scaled values tie under two_level weightings: 1 and 2 at level
# 0.5 with 1 in the set, any two outside the set at level 0, 0.0 and -0.0
TIE_POOL = [0.0, -0.0, 1.0, 2.0, -1.0, -2.0, 0.5, -0.5]


def reference_bounds(ctx, values, probe):
    """The per-value computation: ScaledValue.of, then max/min by scaled."""
    svals = [ScaledValue.of(ctx, v) for v in values]
    sup = max(svals, key=lambda s: s.scaled)
    inf = min(svals, key=lambda s: s.scaled)
    scaled_abs = max(abs(s.scaled) for s in svals)
    raw_abs = max(abs(v) for v in values)
    first_exceed = next((i for i, s in enumerate(svals) if abs(s.scaled) > probe), None)
    return {
        "sup": repr(sup), "sup_n": next(i for i, s in enumerate(svals) if s is sup),
        "inf": repr(inf), "inf_n": next(i for i, s in enumerate(svals) if s is inf),
        "scaled_abs_max": repr(scaled_abs), "raw_abs_max": repr(raw_abs),
        "scaled_within_raw": scaled_abs <= raw_abs + ctx.eq_tol,
        "within_probe": scaled_abs <= probe, "first_exceed_n": first_exceed,
    }


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(TIE_POOL) | finite, min_size=1, max_size=12),
    st.sets(st.sampled_from(TIE_POOL)),
    st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
    st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1e6),
)
def test_bounds_report_matches_per_value_reference(values, ones, level, probe):
    # ties go to the first extreme, and -0.0 stays apart from 0.0 (repr)
    ctx = FieldContext(mu=two_level(ones, level))
    rep = mu_bounded_report(ctx, values, bound_probe=probe)
    got = {
        "sup": repr(rep.sup), "sup_n": rep.sup_n, "inf": repr(rep.inf), "inf_n": rep.inf_n,
        "scaled_abs_max": repr(rep.scaled_abs_max), "raw_abs_max": repr(rep.raw_abs_max),
        "scaled_within_raw": rep.scaled_within_raw,
        "within_probe": rep.within_probe, "first_exceed_n": rep.first_exceed_n,
    }
    assert got == reference_bounds(ctx, values, probe)
    assert rep.expr is None and rep.probe == probe


class TestSupCharacterization:
    def test_passes_with_argmax_witness(self):
        ctx = FieldContext()
        rep = check_sup_characterization(ctx, [1.0, 2.0], [0.5])
        assert rep.verdict == PASS
        assert rep.details["witnesses"][0][1] == 2.0

    def test_non_supremum_probe_fails_small_eps(self):
        ctx = FieldContext()
        m = mu_sup(ctx, [1.0, 2.0]).scaled
        rep = check_sup_characterization(ctx, [1.0, 2.0], [0.5], probe=m + 1.0)
        assert rep.verdict == FAIL
        rep = check_sup_characterization(ctx, [1.0, 2.0], [1.5], probe=m + 1.0)
        assert rep.verdict == PASS

    def test_weighs_each_member_once(self, monkeypatch):
        values = [0.1, 0.5, 0.9, 0.3]
        rows = [(v, 1e-12, 0.4 + 0.1 * i) for i, v in enumerate(values)]
        ctx = FieldContext(mu=MembershipFunction.from_points(rows, 1.0))
        weighed = []
        weight = MembershipFunction.weight
        monkeypatch.setattr(MembershipFunction, "weight", lambda self, v: weighed.append(v) or weight(self, v))
        rep = check_sup_characterization(ctx, values, (0.5, 1e-1, 1e-3))
        assert rep.verdict == PASS
        assert sorted(weighed) == sorted(values)

    @settings(max_examples=60)
    @given(st.lists(finite, min_size=1, max_size=9), st.floats(1e-6, 10.0))
    def test_every_finite_set_passes(self, values, eps):
        rep = check_sup_characterization(FieldContext(), values, [eps])
        assert rep.verdict == PASS

    def test_eps_must_be_positive(self):
        with pytest.raises(UsageError):
            check_sup_characterization(FieldContext(), [1.0], [0.0])

    @pytest.mark.parametrize("eps", [math.inf, math.nan, -math.inf])
    def test_eps_that_is_not_finite_is_refused(self, eps):
        # an infinite eps passed every probe and a NaN one failed with no note
        with pytest.raises(ValidationError, match=re.escape(f"eps must be a finite number > 0, got {eps!r}")):
            check_sup_characterization(FieldContext(), [1.0, 2.0], [0.5, eps])


class TestRegistry:
    def test_r3_ratios_cancel(self):
        ctx = FieldContext(mu=point_mu({2.0: 0.5, 3.0: 0.4, 6.0: 0.9}))
        rep = check_real_identity(ctx, "R3", [2.0, 3.0])
        assert rep.verdict == PASS
        assert rep.lhs == pytest.approx(6.0)
        assert rep.rhs == pytest.approx(6.0)

    def test_r3_zero_membership_is_unmet(self):
        ctx = FieldContext(mu=point_mu({2.0: 0.5, 3.0: 0.4, 6.0: 0.0}))
        rep = check_real_identity(ctx, "R3", [2.0, 3.0])
        assert rep.verdict == UNMET

    def test_r4_triangle(self):
        ctx = FieldContext(mu=point_mu({1.0: 0.8, -2.0: 0.6, -1.0: 0.9}))
        rep = check_real_identity(ctx, "R4", [1.0, -2.0])
        assert rep.verdict == PASS
        assert rep.residual <= 1e-12

    def test_a_nan_excess_is_the_worst_of_several(self):
        pairs = ((0.0, 1.0), (math.nan, 1.0), (2.0, 1.0))
        rep = _le_report(FieldContext(), "X", (), 0.0, 1.0, pairs=pairs)
        assert rep.verdict == FAIL and math.isnan(rep.residual)

    def test_o8_square(self):
        ctx = FieldContext(mu=point_mu({9.0: 0.7}))
        rep = check_real_identity(ctx, "O8", [-3.0])
        assert rep.verdict == PASS
        rep = check_real_identity(ctx, "O8", [0.0])
        assert rep.verdict == UNMET

    def test_o1_any_weight(self):
        ctx = FieldContext(mu=point_mu({4.0: 0.0, -4.0: 0.2}))
        assert check_real_identity(ctx, "O1", [4.0]).verdict == PASS
        assert check_real_identity(ctx, "O1", [-4.0]).verdict == PASS

    def test_o2_zero_membership_unmet(self):
        ctx = FieldContext(mu=point_mu({-5.0: 0.0}))
        rep = check_real_identity(ctx, "O2", [-5.0])
        assert rep.verdict == UNMET

    # the operand signs each sign law assumes; under crisp weights a sign
    # hypothesis holds up to eq_tol = 1e-9 on the far side of 0
    @pytest.mark.parametrize("ident, signs", [
        ("O2", (1,)), ("O3", (1, 1)), ("O4", (-1, -1)), ("O5", (1, 1)), ("O6", (-1, -1)), ("O7", (1, -1)),
    ])
    def test_sign_law_hypotheses(self, ident, signs):
        ctx = FieldContext()
        assert check_real_identity(ctx, ident, [2.0 * s for s in signs]).verdict == PASS
        for i in range(len(signs)):
            for off, verdict in ((5e-10, PASS), (2e-9, UNMET)):
                ops = [2.0 * s for s in signs]
                ops[i] = -signs[i] * off
                rep = check_real_identity(ctx, ident, ops)
                assert rep.verdict == verdict, (ops, rep)
                if verdict == UNMET:
                    assert rep.notes == ("hypothesis not satisfied",)

    def test_r1_piecewise(self):
        ctx = FieldContext(mu=point_mu({-2.0: 0.5, 2.0: 0.25}))
        for a in (-2.0, 0.0, 2.0):
            assert check_real_identity(ctx, "R1", [a]).verdict == PASS

    def test_r2_needs_symmetric_weights(self):
        sym = FieldContext(mu=point_mu({2.0: 0.5, -2.0: 0.5}))
        asym = FieldContext(mu=point_mu({2.0: 0.5, -2.0: 0.7}))
        assert check_real_identity(sym, "R2", [2.0]).verdict == PASS
        assert check_real_identity(asym, "R2", [2.0]).verdict == UNMET

    def test_r5a_bounds(self):
        ctx = FieldContext(mu=point_mu({3.0: 0.5}))
        rep = check_real_identity(ctx, "R5a", [3.0, 4.0])  # |3| * 0.5 = 1.5 < 4
        assert rep.verdict == PASS
        rep = check_real_identity(ctx, "R5a", [3.0, 1.0])  # 1.5 >= 1, hypothesis unmet
        assert rep.verdict == UNMET

    def test_r5b_bounds(self):
        ctx = FieldContext(mu=point_mu({3.0: 0.5, -3.0: 0.5, 4.0: 0.9}))
        rep = check_real_identity(ctx, "R5b", [3.0, 4.0])  # 1.5 < 3.6
        assert rep.verdict == PASS

    def test_s1_on_a_set(self):
        rep = check_real_identity(FieldContext(), "S1", [1.0, -2.0, 5.0])
        assert rep.verdict == PASS

    def test_unknown_and_arity_errors(self):
        with pytest.raises(UsageError):
            check_real_identity(FieldContext(), "Q1", [1.0])
        with pytest.raises(UsageError):
            check_real_identity(FieldContext(), "R3", [1.0])
        with pytest.raises(DomainError):
            check_real_identity(FieldContext(), "O1", [float("nan")])


@settings(max_examples=80)
@given(
    st.sampled_from(["O2", "O3", "O4", "O5", "O6", "O7"]),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(0.05, 1.0),
    st.floats(0.05, 1.0),
    st.floats(0.05, 1.0),
)
def test_order_implications_hold_under_positive_weights(ident, ma, mb, w1, w2, w3):
    sign_a, sign_b = {
        "O2": (1, 1), "O3": (1, 1), "O4": (-1, -1),
        "O5": (1, 1), "O6": (-1, -1), "O7": (1, -1),
    }[ident]
    a, b = sign_a * ma, sign_b * mb
    derived = a + b if ident in ("O3", "O4") else a * b
    ctx = FieldContext(mu=point_mu({a: w1, b: w2, derived: w3, -a: w2}))
    ops = [a] if ident == "O2" else [a, b]
    rep = check_real_identity(ctx, ident, ops)
    assert rep.verdict == PASS


@settings(max_examples=60)
@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
def test_r3_exact_for_tiny_weights(a, b, wa, wb, wab):
    ctx = FieldContext(mu=point_mu({a: wa, b: wb, a * b: wab}))
    rep = check_real_identity(ctx, "R3", [a, b])
    if rep.verdict == PASS:
        assert rep.residual < 1e-9


def test_sup_equals_bruteforce_over_random_sets():
    rng = random.Random(42)
    for _ in range(200):
        values = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 12))]
        weights = {v: rng.random() for v in values}
        ctx = FieldContext(mu=point_mu(weights))
        expected = max(v * weights[v] for v in values)
        assert mu_sup(ctx, values).scaled == expected
