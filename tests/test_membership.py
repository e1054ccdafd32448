import cmath
import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mufield import (
    DomainError,
    FamilyMatcher,
    FieldContext,
    MembershipFunction,
    MuRule,
    PointMatcher,
    SetMatcher,
    UsageError,
    ValidationError,
    ValueForm,
    WeightForm,
    check_axioms,
    crisp,
    load_mu_spec,
    mu_eval,
    mu_summary,
    parse_mu_spec,
    serialize_mu_spec,
    two_level,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


def weight_bad_at(kind, k):
    """A rational weight form in [0, 1] at every index but k, where it is NaN
    (0/0 at a root of q), +inf, -0.5 or 1.5."""
    k = float(k)
    sq_plus_1 = [k * k + 1.0, -2.0 * k, 1.0]  # (n - k)^2 + 1
    p, q = {
        "nan": ([-k, 1.0], [-k, 1.0]),
        "inf": ([1.0], [k * k, -2.0 * k, 1.0]),
        "negative": ([k * k - 0.5, -2.0 * k, 1.0], sq_plus_1),
        "above_one": ([1.5], sq_plus_1),
    }[kind]
    return WeightForm("rational_poly", {"p": p, "q": q})


BAD_WEIGHTS = [("nan", "nan"), ("inf", "inf"), ("negative", "-0.5"), ("above_one", "1.5")]


def log_family_mu(n_max=100_000):
    """Zero default with weight n/(n+1)^3 on the log-drift family log(n) + 1."""
    return MembershipFunction(
        [
            MuRule(
                FamilyMatcher(ValueForm("log_n_plus_c", {"c": 1.0}), 1, n_max),
                WeightForm("rational_poly", {"p": [0, 1], "q": [1, 3, 3, 1]}),
            )
        ],
        0.0,
    )


class TestEvaluation:
    def test_crisp_identity(self):
        ctx = FieldContext(mu=crisp())
        assert mu_eval(ctx, 7.3) == 1.0

    def test_point_rule_and_default_split(self):
        mu = MembershipFunction([MuRule(PointMatcher(0.0, 1e-9), 1.0)], 0.0)
        ctx = FieldContext(mu=mu)
        assert mu_eval(ctx, 0.0) == 1.0
        assert mu_eval(ctx, 0.5) == 0.0

    def test_log_family_weight(self):
        ctx = FieldContext(mu=log_family_mu())
        assert mu_eval(ctx, math.log(3) + 1.0) == pytest.approx(3 / 64, abs=0)
        assert mu_eval(ctx, 0.123) == 0.0

    def test_first_rule_wins(self):
        mu = MembershipFunction(
            [MuRule(PointMatcher(1.0), 0.2), MuRule(PointMatcher(1.0), 0.9)], 0.5
        )
        assert mu.weight(1.0) == 0.2

    def test_complex_point_rule(self):
        mu = MembershipFunction([MuRule(PointMatcher(3 + 4j), 0.5)], 0.0)
        ctx = FieldContext(mu=mu)
        assert mu_eval(ctx, 3 + 4j) == 0.5
        assert mu_eval(ctx, 3 - 4j) == 0.0

    def test_nonfinite_input_rejected(self):
        ctx = FieldContext()
        with pytest.raises(DomainError):
            mu_eval(ctx, float("inf"))
        with pytest.raises(DomainError):
            mu_eval(ctx, complex(0, float("nan")))

    def test_weight_many_matches_scalar_path(self):
        mu = log_family_mu(500)
        ns = np.arange(1, 301)
        values = np.log(ns.astype(float)) + 1.0
        vector = mu.weight_many(values)
        scalars = np.array([mu.weight(float(v)) for v in values])
        assert np.array_equal(vector, scalars)


MOEBIUS = {"a": 1.0, "b": 1.0, "c": 3.0, "d": 1.0}


class TestFamilyMatching:
    # from n = 44,723 (sq_ratio) and n = 14,908 (moebius) on, adjacent members
    # lie closer together than the default tol, so the first index within
    # tol is often a neighbour; the nearest one is the member itself
    @pytest.mark.parametrize("form, params, probes", [
        ("sq_ratio", {}, (44_722, 44_723, 70_000)),
        ("moebius", MOEBIUS, (14_907, 14_908, 50_000)),
        ("log_n_plus_c", {"c": 1.0}, (1, 50_000)),
    ])
    def test_own_terms_match_their_own_index(self, form, params, probes):
        f = ValueForm(form, params)
        m = FamilyMatcher(f, 1, 100_000)
        ns = np.arange(1, 100_001)
        got = m.match_indices(f.terms(ns.astype(float)))
        assert np.count_nonzero(got != ns) == 0
        for n in (*probes, *range(1, 100_001, 4_999), 100_000):
            assert m.match_index(f.term_at(n)) == n

    def test_nearest_index_wins_over_first_within_tol(self):
        m = FamilyMatcher(ValueForm("log_n_plus_c", {"c": 0.0}), 1, 100, tol=1.0)
        v = 0.3 * math.log(10) + 0.7 * math.log(11)
        assert m.match_index(v) == 11
        assert m.match_indices(np.array([v])).tolist() == [11]

    def test_tie_takes_the_lower_index(self):
        identity = ValueForm("moebius", {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0})  # n itself
        m = FamilyMatcher(identity, 1, 100, tol=1.0)
        assert m.match_index(10.5) == 10
        assert m.match_indices(np.array([10.5])).tolist() == [10]

    @pytest.mark.parametrize("form, params, v", [
        ("sq_ratio", {}, 1.0000000000000002),  # sqrt(v) - 1 == 0
        ("exp_n_plus_c", {"c": 1.0}, math.inf),
        ("moebius", MOEBIUS, math.inf),
        ("log_n_plus_c", {"c": 1.0}, -math.inf),
    ])
    def test_undefined_or_infinite_estimate_is_no_match(self, form, params, v):
        # each value is off the form's finite range or at its limit, so no member lies within tol
        m = FamilyMatcher(ValueForm(form, params), 1, 600)
        assert m.match_index(v) is None
        assert m.match_indices(np.array([v])).tolist() == [-1]


class TestBuilders:
    def test_crisp(self):
        mu = crisp()
        assert mu.default == 1.0 and mu.rules == ()

    def test_two_level(self):
        mu = two_level({0.0, 1.0, -1.0}, 0.3)
        assert mu.weight(0.0) == 1.0
        assert mu.weight(2.0) == 0.3

    def test_weight_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            MembershipFunction([MuRule(PointMatcher(1.0), 1.5)], 1.0)
        with pytest.raises(ValidationError):
            MembershipFunction((), 2.0)

    def test_infinite_eq_tol_rejected(self):
        # an infinite slack would make every comparison equal and every identity pass
        with pytest.raises(ValidationError, match="finite, got eq_tol=inf"):
            FieldContext(eq_tol=math.inf)

    def test_family_range_scan(self):
        # weight 3(3n+1)/(2n^2) stays in [0, 1] from n = 5 on, but hits 6 at n = 1
        form = ValueForm("moebius", {"a": 0.0, "b": 2.0, "c": 9.0, "d": 3.0})
        weight = WeightForm("rational_poly", {"p": [3, 9], "q": [0, 0, 2]})
        MembershipFunction([MuRule(FamilyMatcher(form, 5, 100), weight)], 0.0)
        with pytest.raises(ValidationError, match="n=1"):
            MembershipFunction([MuRule(FamilyMatcher(form, 1, 100), weight)], 0.0)

    @pytest.mark.parametrize("kind, shown", BAD_WEIGHTS)
    @pytest.mark.parametrize("k", [3, 500, 1000])  # the first, a middle and the last index
    def test_family_rule_names_the_first_bad_weight(self, kind, shown, k):
        form = ValueForm("sq_ratio", {})
        rules = [MuRule(FamilyMatcher(form, 1, 2), 0.5), MuRule(FamilyMatcher(form, 3, 1000), weight_bad_at(kind, k))]
        with pytest.raises(ValidationError) as raised:
            MembershipFunction(rules, 0.0)
        assert str(raised.value) == f"rules[1]: weight {shown} out of [0, 1] at n={k}"

    def test_index_weight_requires_family(self):
        with pytest.raises(ValidationError):
            MuRule(PointMatcher(1.0), WeightForm("const", {"value": 0.5}))


class TestSpecDocuments:
    def test_crisp_doc(self):
        mu = load_mu_spec('{"default": 1.0, "rules": []}')
        assert mu.weight(12.0) == 1.0

    def test_family_doc(self):
        doc = {
            "default": 0.0,
            "rules": [
                {
                    "match": {
                        "kind": "family",
                        "form": "log_n_plus_c",
                        "params": {"c": 1.0},
                        "n_min": 1,
                        "n_max": 1000,
                        "tol": 1e-9,
                    },
                    "mu": {"form": "rational_poly", "params": {"p": [0, 1], "q": [1, 3, 3, 1]}},
                }
            ],
        }
        mu = parse_mu_spec(doc)
        assert mu.weight(math.log(3) + 1.0) == 3 / 64

    def test_out_of_range_default_rejected(self):
        with pytest.raises(ValidationError):
            load_mu_spec('{"default": 2.0, "rules": []}')

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ("[1,2]", "top level"),
            ('{"rules": []}', "default"),
            ('{"default": 1, "rules": [{"match": {"kind": "nope"}, "mu": 1}]}', "kind"),
            ('{"default": 1, "rules": [{"mu": 1}]}', "match"),
            ("{not json", "JSON"),
        ],
    )
    def test_parse_errors_carry_paths(self, doc, needle):
        from mufield import SpecError

        with pytest.raises(SpecError, match=needle):
            load_mu_spec(doc)

    def test_non_array_rules_rejected(self):
        from mufield import SpecError

        with pytest.raises(SpecError, match="rules: expected an array, got dict"):
            load_mu_spec('{"default": 1, "rules": {}}')

    def test_round_trip_is_evaluation_equivalent(self):
        mu = MembershipFunction(
            [
                MuRule(PointMatcher(0.0), 1.0),
                MuRule(SetMatcher((2.0, -2.0), 1e-9), 0.25),
                MuRule(
                    FamilyMatcher(ValueForm("sq_ratio", {}), 1, 50),
                    WeightForm("rational_poly", {"p": [0, 1], "q": [1, 3, 3, 1]}),
                ),
            ],
            0.1,
        )
        back = parse_mu_spec(serialize_mu_spec(mu))
        probes = [0.0, 2.0, -2.0, 0.7, (1 + 1 / 3) ** 2, 100.0]
        for v in probes:
            assert back.weight(v) == mu.weight(v)


class TestAxioms:
    def test_crisp_passes(self):
        report = check_axioms(FieldContext(), [-2, -1, 0, 0.5, 1, 2])
        assert report.passed
        assert report.violations == ()
        assert report.negation_symmetry

    def test_zero_weight_mutation_fails_exactly_v(self):
        mu = MembershipFunction([MuRule(PointMatcher(0.0), 0.9)], 1.0)
        report = check_axioms(FieldContext(mu=mu), [2.0])
        failing = {a for a, ok in report.verdicts.items() if not ok}
        assert failing == {"v"}

    def test_two_level_closed_set_passes(self):
        # every sum, product, negation, and inverse of the samples stays in S
        mu = two_level({0.0, 1.0, -1.0, 2.0, -2.0}, 0.3)
        report = check_axioms(FieldContext(mu=mu), [1.0, -1.0])
        assert report.passed

    def test_empty_samples_rejected(self):
        with pytest.raises(UsageError):
            check_axioms(FieldContext(), [])

    @pytest.mark.parametrize(
        "axiom,rule_point,samples",
        [
            ("i", 3.0, (1.0, 2.0)),
            ("ii", -2.0, (2.0,)),
            ("iii", 6.0, (-2.0, -3.0)),
            ("iv", 0.25, (4.0,)),
            ("v", 0.0, (2.0,)),
        ],
    )
    def test_seeded_single_axiom_mutations(self, axiom, rule_point, samples):
        rng = random.Random(f"mutation:{axiom}")
        w = rng.uniform(0.1, 0.95)
        mu = MembershipFunction([MuRule(PointMatcher(rule_point), w)], 1.0)
        report = check_axioms(FieldContext(mu=mu), list(samples))
        failing = {a for a, ok in report.verdicts.items() if not ok}
        assert failing == {axiom}
        assert any(v.axiom == axiom for v in report.violations)


class TestSummary:
    def test_crisp_summary(self):
        s = mu_summary(FieldContext(), [1.0, -3.0, 7.0])
        assert s.inf_mu == 1.0 and s.count_zero == 0

    def test_zero_default_summary(self):
        mu = MembershipFunction([MuRule(PointMatcher(0.0), 1.0)], 0.0)
        s = mu_summary(FieldContext(mu=mu), [0.0, 5.0])
        assert s.inf_mu == 0.0 and s.count_zero == 1 and s.witness == 5.0

    def test_log_family_inf_over_100_points(self):
        ctx = FieldContext(mu=log_family_mu(200))
        pts = [math.log(n) + 1.0 for n in range(1, 101)]
        s = mu_summary(ctx, pts)
        assert s.inf_mu == pytest.approx(100 / 101**3, rel=1e-12)
        assert s.count_zero == 0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            mu_summary(FieldContext(), [])


@given(st.lists(finite_floats, min_size=1, max_size=8), st.floats(0, 1), finite_floats)
def test_weights_stay_in_unit_interval(points, level, probe):
    mu = two_level(points, level)
    assert 0.0 <= mu.weight(probe) <= 1.0


@given(finite_floats)
def test_evaluation_is_deterministic(v):
    mu = log_family_mu(100)
    assert mu.weight(v) == mu.weight(v)


@settings(max_examples=40)
@given(st.lists(finite_floats.filter(lambda x: x != 0), min_size=1, max_size=6))
def test_crisp_axioms_pass_on_any_samples(samples):
    assert check_axioms(FieldContext(), samples).passed


# The scalar weight walks flat (point, tol, weight) rows; weight_many walks the
# rules. Points are drawn from a small pool as well, so that rules overlap.
_points = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.25, 1j, 1 + 1j]),
    st.floats(-4, 4),
    st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)),
)
_tols = st.sampled_from([0.0, 1e-12, 0.25, 1.0])
_FAMILY = FamilyMatcher(ValueForm("sq_ratio", {}), 1, 50)  # members ((n + 1) / n)^2 lie in (1, 4]


@st.composite
def _rules(draw):
    """Point, set and family rules in any order, so a point rule may follow a family rule."""
    rules = []
    for kind in draw(st.lists(st.sampled_from(["point", "set", "family"]), max_size=6)):
        if kind == "point":
            rules.append(MuRule(PointMatcher(draw(_points), draw(_tols)), draw(st.floats(0, 1))))
        elif kind == "set":
            members = tuple(draw(st.lists(_points, min_size=1, max_size=4)))
            rules.append(MuRule(SetMatcher(members, draw(_tols)), draw(st.floats(0, 1))))
        else:
            cubic = WeightForm("rational_poly", {"p": [0, 1], "q": [1, 3, 3, 1]})
            weight = draw(st.one_of(st.floats(0, 1), st.just(cubic)))
            rules.append(MuRule(_FAMILY, weight))
    return rules


@settings(max_examples=200)
@given(_rules(), st.floats(0, 1), st.lists(_points, max_size=4), st.lists(st.integers(1, 52), max_size=3))
def test_scalar_weight_agrees_with_weight_many(rules, default, extra, indices):
    mu = MembershipFunction(rules, default)
    probes = list(extra) + [float(_FAMILY.form.terms(np.array([float(n)]))[0]) for n in indices]
    for rule in rules:
        m = rule.matcher
        if not isinstance(m, FamilyMatcher):
            for p in (m.value,) if isinstance(m, PointMatcher) else m.values:
                probes += [p, p + m.tol, p - 2 * m.tol]
    if probes:
        assert [mu.weight(v) for v in probes] == list(mu.weight_many(np.array(probes)))


_rows = st.lists(st.tuples(_points, _tols, st.floats(0, 1)), max_size=8)


@given(_rows, st.floats(0, 1), st.lists(_points, max_size=4))
def test_point_table_weighs_like_its_point_rules(rows, default, extra):
    table = MembershipFunction.from_points(rows, default)
    ruled = MembershipFunction([MuRule(PointMatcher(p, tol), w) for p, tol, w in rows], default)
    back = load_mu_spec(json.dumps(serialize_mu_spec(table)))
    assert table.rules == ruled.rules and table == ruled
    probes = list(extra) + [p for p, _, _ in rows] + [p + tol for p, tol, _ in rows]
    for v in probes:
        assert table.weight(v) == ruled.weight(v) == back.weight(v)
    if probes:
        assert list(table.weight_many(np.array(probes))) == [table.weight(v) for v in probes]


def test_a_distance_past_the_float_range_is_no_match():
    # |v - p| of a finite complex v may be past the float range; weight_many reads it as inf
    big = complex(1.5e308, 1.5e308)
    table = MembershipFunction.from_points([(0.0, 1e-12, 1.0), (big, 0.0, 0.25)], 0.5)
    probes = [big, 1e-13]
    assert [table.weight(v) for v in probes] == list(table.weight_many(np.array(probes))) == [0.25, 1.0]


# distances past the float range: a point rule, a set's real members, a set's off-axis members
@pytest.mark.parametrize("matcher, value", [
    (PointMatcher(complex(1.5e308, 1.5e308)), complex(-1.5e308, -1.5e308)),
    (SetMatcher((-1.5e308,), 1.0), 1.5e308),
    (SetMatcher((complex(-1.5e308, 1.5e308),), 1.0), complex(1.5e308, 1.5e308)),
], ids=["point", "set_real", "set_off_axis"])
def test_a_distance_past_the_float_range_matches_nothing_without_a_warning(matcher, value):
    assert not matcher.hits(np.array([value, value]))[0]
    assert not matcher.hit(value)


def test_point_table_refuses_a_weight_out_of_range():
    with pytest.raises(ValidationError, match="1.5"):
        MembershipFunction.from_points([(0.0, 1e-12, 1.0), (2.0, 1e-12, 1.5)], 0.5)
    with pytest.raises(ValidationError, match="-1"):
        MembershipFunction.from_points([(0.0, -1.0, 1.0)], 0.5)
    with pytest.raises(ValidationError):
        MembershipFunction.from_points([], float("nan"))


members = st.one_of(
    finite_floats,
    st.builds(complex, finite_floats, finite_floats),  # off the real axis, tested one by one
    st.builds(complex, finite_floats, st.sampled_from([0.0, -0.0])),  # a real member spelled complex
    st.sampled_from([math.inf, -math.inf, math.nan]),  # matches nothing
)


@settings(max_examples=200, deadline=None)
@given(st.lists(members, min_size=1, max_size=30), st.sampled_from([0.0, 1e-9, 0.25, 3.0]), st.data())
def test_set_lookup_agrees_with_every_member(values, tol, data):
    m = SetMatcher(tuple(values), tol)
    near = [complex(v) + complex(d) for v in values if cmath.isfinite(v)
            for d in (tol, -tol, float(np.nextafter(tol, 1.0)), complex(0.0, tol), complex(tol, tol))]
    probes = near + data.draw(st.lists(st.builds(complex, finite_floats, st.sampled_from([0.0, 0.5, -tol]))))
    probes += [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, math.nan)]
    as_complex = np.array(probes, dtype=complex)
    assert m.hits(as_complex).tolist() == [any(abs(v - s) <= tol for s in values) for v in probes]
    real = as_complex.real[as_complex.imag == 0.0]
    assert m.hits(real).tolist() == [any(abs(float(v) - s) <= tol for s in values) for v in real]
    assert m.hits(real.reshape(1, -1, 1)).ravel().tolist() == m.hits(real).tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(members, min_size=1, max_size=8), st.sampled_from([0.0, 1e-9, 0.25, 3.0]), st.data())
def test_scalar_hit_is_the_array_hit_of_one_value(values, tol, data):
    # hit(v) is hits on a one-element array, for a point and for a set, and each is
    # the test of every member; an infinite member meets an infinite value without a warning
    near = [v + d for v in values if cmath.isfinite(v) for d in (tol, -tol, complex(0.0, tol), complex(tol, tol))]
    probes = near + data.draw(st.lists(st.one_of(finite_floats, st.builds(complex, finite_floats, finite_floats))))
    probes += [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 1.0)]
    matchers = [(SetMatcher(tuple(values), tol), values)] + [(PointMatcher(v, tol), [v]) for v in values]
    for m, points in matchers:
        for v in probes:
            got = m.hit(v)
            assert isinstance(got, bool) and got == m.hits(np.array([v]))[0], (m, v)
            assert got == any(abs(v - s) <= tol for s in points), (m, v)


def test_set_rule_audit_is_fast_and_matches_member_by_member(monkeypatch):
    # 500 samples under a set rule of those 500 points weigh 250,000 sums and
    # as many products; tested one member at a time that is 2.5e8 distances
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1.0, 1.0, 500).tolist()
    ctx = FieldContext(mu=two_level(pts, 0.5, tol=0.01))
    t0 = time.perf_counter()
    report = check_axioms(ctx, pts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0

    def every_member(self, values):
        hit = np.zeros(values.shape, dtype=bool)
        for p in self.values:
            hit |= np.abs(values - p) <= self.tol
        return hit

    monkeypatch.setattr(SetMatcher, "hits", every_member)
    assert check_axioms(ctx, pts) == report
    assert 0 < len(report.violations) < 250_000
