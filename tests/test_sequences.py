import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mufield import (
    DomainError,
    ExperimentSpec,
    FamilyMatcher,
    FieldContext,
    MembershipFunction,
    MuRule,
    PointMatcher,
    SequenceSpec,
    SetMatcher,
    SpecError,
    UsageError,
    ValidationError,
    ValueForm,
    WeightForm,
    check_monotone,
    check_sup_characterization,
    classical_converges,
    constant_weight,
    crisp,
    demo_catalog,
    load_experiment,
    min_index_for_epsilon,
    mu_bounded_report,
    mu_converges,
    run_experiment,
    scaled_deviation,
    seq_bounded_report,
    serialize_experiment,
    two_level,
)
from mufield.real_field import FAIL, PASS, UNMET
from mufield.sequences import (
    DEFAULT_EPS,
    EXPERIMENT_KEYS,
    REFUTED,
    SUPPORTED,
    SUPPORTED_TRIVIALLY,
    parse_experiment,
    trace_rows,
)
from test_membership import BAD_WEIGHTS, weight_bad_at

POLY_N_CUBE = WeightForm("rational_poly", {"p": [0, 1], "q": [1, 3, 3, 1]})


def log_drift_experiment(horizon=100_000):
    seq = SequenceSpec("log_plus", {"c": 1.0}, 1, horizon)
    return ExperimentSpec(
        sequence=seq,
        assignment=(("self", None, POLY_N_CUBE),),
        candidates=(("self", 0.0),),
        horizon=horizon,
    )


def exp_drift_experiment():
    seq = SequenceSpec("exp_plus", {"c": 2.0}, 1, 600)
    return ExperimentSpec(
        sequence=seq,
        assignment=(
            ("self", None, constant_weight(1.0)),
            ("self", 1.0, WeightForm("inv_exp_p1_sq", {})),
        ),
        candidates=(("self", 1.0),),
        horizon=600,
    )


class TestTerms:
    def test_log_plus(self):
        assert SequenceSpec("log_plus", {"c": 1.0}).term_at(1) == 1.0

    def test_sq_ratio(self):
        assert SequenceSpec("sq_ratio", {}).term_at(2) == 2.25

    def test_moebius(self):
        seq = SequenceSpec("moebius", {"a": 1, "b": 1, "c": 3, "d": 1})
        assert seq.term_at(5) == 0.375

    def test_constant_and_table(self):
        assert SequenceSpec("constant", {"value": 5.0}).term_at(17) == 5.0
        seq = SequenceSpec("table", {"points": {1: 0.5, 2: 0.75}}, 1, 2)
        assert seq.term_at(2) == 0.75

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            SequenceSpec("log_plus", {"c": 0.0}, 1, 10).term_at(11)

    def test_exp_cap_enforced(self):
        with pytest.raises(ValidationError):
            SequenceSpec("exp_plus", {"c": 0.0}, 1, 800)

    def test_unknown_form(self):
        with pytest.raises(SpecError):
            SequenceSpec("powers", {})


class TestScaledDeviation:
    def test_log_drift_at_3(self):
        exp = log_drift_experiment(100)
        assert scaled_deviation(exp, "self", 0.0, 3) == pytest.approx(
            0.09837245103131766, rel=1e-12
        )

    def test_exp_drift_at_7(self):
        exp = exp_drift_experiment()
        assert scaled_deviation(exp, "self", 1.0, 7) == pytest.approx(
            0.0009110511944006452, rel=1e-12
        )

    def test_zero_at_exact_candidate(self):
        seq = SequenceSpec("constant", {"value": 5.0}, 1, 10)
        exp = ExperimentSpec(sequence=seq, horizon=10)
        assert scaled_deviation(exp, "self", 5.0, 3) == 0.0


class TestMinIndex:
    def test_log_drift_table(self):
        # brute-force oracle: scan (log n + 1) n/(n+1)^3 with the documented
        # eps-relative slack; frozen from an independent loop
        exp = log_drift_experiment()
        expected = {1e-1: 3, 1e-2: 19, 1e-3: 72, 1e-4: 255, 1e-5: 881, 1e-6: 3000}
        for eps, n in expected.items():
            assert min_index_for_epsilon(exp, "self", 0.0, eps) == n

    def test_exp_drift_table(self):
        exp = exp_drift_experiment()
        expected = {1e-1: 3, 1e-2: 5, 1e-3: 7, 1e-4: 10, 1e-5: 12, 1e-6: 14}
        for eps, n in expected.items():
            assert min_index_for_epsilon(exp, "self", 1.0, eps) == n

    def test_sum_with_closed_form_one_over_n_plus_1(self):
        exp = demo_catalog("sum_failure")
        for eps in DEFAULT_EPS:
            assert min_index_for_epsilon(exp, "sum", 0.0, eps) == math.ceil(1.0 / eps) - 1

    def test_not_found_within_horizon(self):
        exp = log_drift_experiment(50)
        assert min_index_for_epsilon(exp, "self", 0.0, 1e-9) is None

    def test_eps_positive_required(self):
        with pytest.raises(UsageError):
            min_index_for_epsilon(log_drift_experiment(100), "self", 0.0, 0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1e-3, "0.1"])
def test_eps_that_is_not_finite_and_positive_is_refused(eps):
    # a NaN eps is met at once: the divergent log drift was "supported" at 0
    seq = SequenceSpec("log_plus", {"c": 1.0}, 1, 1000)
    named = f"must be a finite number > 0, got {eps!r}"
    with pytest.raises(ValidationError, match=re.escape(f"eps schedule entry {named}")):
        ExperimentSpec(sequence=seq, eps_schedule=(0.1, eps), horizon=1000)
    with pytest.raises(ValidationError, match=re.escape(named)):
        classical_converges(seq, 0.0, eps_schedule=(eps,))
    with pytest.raises(ValidationError, match=re.escape(f"eps {named}")):
        min_index_for_epsilon(ExperimentSpec(sequence=seq, horizon=1000), "self", 0.0, eps)


@pytest.mark.parametrize("candidate", [math.nan, math.inf, -math.inf])
def test_candidate_that_is_not_a_finite_number_is_refused(candidate):
    # a NaN deviation never reaches a bound: the divergent log drift was "supported" at NaN
    seq = SequenceSpec("log_plus", {"c": 1.0}, 1, 1000)
    exp = ExperimentSpec(sequence=seq, horizon=1000)
    calls = [
        lambda: ExperimentSpec(sequence=seq, candidates=(("self", candidate),), horizon=1000),
        lambda: mu_converges(exp, "self", candidate),
        lambda: classical_converges(seq, candidate),
        lambda: min_index_for_epsilon(exp, "self", candidate, 0.1),
        lambda: trace_rows(exp, "self", candidate),  # refused at the call, before any row is drawn
        lambda: scaled_deviation(exp, "self", candidate, 5),  # was a NaN or infinite deviation
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=re.escape(f"candidate: expected a finite number, got {candidate!r}")):
            call()


@pytest.mark.parametrize("probe", [math.nan, math.inf, -math.inf])
def test_probe_that_is_not_a_finite_number_is_refused(probe):
    # a NaN probe was never exceeded: the stream was "within" it and monotone "pass"
    # held, while the supremum check failed at every eps against a NaN bound
    exp = log_drift_experiment(100)
    rising = ExperimentSpec(sequence=SequenceSpec("moebius", {"a": 1, "b": 0, "c": 1, "d": 1}, 1, 100), horizon=100)
    ctx, values = FieldContext(), [1.0, 2.0, 3.0]
    calls = [
        lambda p: seq_bounded_report(exp, "self", p),
        lambda p: mu_bounded_report(ctx, values, p),
        lambda p: check_monotone(rising, p),
        lambda p: check_sup_characterization(ctx, values, [0.5], p),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=re.escape(f"probe: expected a finite number, got {probe!r}")):
            call(probe)
    # None is no probe
    assert seq_bounded_report(exp, "self", None).within_probe is None
    assert mu_bounded_report(ctx, values, None).within_probe is None
    assert check_monotone(rising, None).verdict == PASS
    assert check_sup_characterization(ctx, values, [0.5], None).verdict == PASS


@pytest.mark.parametrize("expr, needle", [("bogus", "unknown expression 'bogus'"), ("sum", "needs a partner")])
def test_trace_rows_refuses_an_expression_at_the_call(expr, needle):
    with pytest.raises(UsageError, match=needle):
        trace_rows(log_drift_experiment(100), expr, 0.0)  # no row is drawn


class TestClassical:
    def test_sq_ratio_to_one(self):
        seq = SequenceSpec("sq_ratio", {}, 1, 100_000)
        v = classical_converges(seq, 1.0, (1e-2,))
        assert dict(v.eps_table)[1e-2] == 201
        assert v.verdict == SUPPORTED

    def test_log_drift_diverges(self):
        seq = SequenceSpec("log_plus", {"c": 1.0}, 1, 100_000)
        assert classical_converges(seq, 0.0).verdict == REFUTED
        assert classical_converges(seq, 100.0).verdict == REFUTED

    def test_constant_immediately(self):
        seq = SequenceSpec("constant", {"value": 5.0}, 1, 100)
        v = classical_converges(seq, 5.0, (1e-3,), horizon=100)
        assert dict(v.eps_table)[1e-3] == 1


class TestVerdicts:
    def test_log_drift_supported_nontrivially(self):
        v = mu_converges(log_drift_experiment(), "self", 0.0)
        assert v.verdict == SUPPORTED
        assert v.trivial_tail_fraction == 0.0
        assert v.tail_certificate == "monotone-decreasing-envelope"

    def test_second_limit_supported(self):
        horizon = 100_000
        seq = SequenceSpec("log_plus", {"c": 1.0}, 1, horizon)
        shift = 1.0 - math.sqrt(2.0)
        exp = ExperimentSpec(
            sequence=seq,
            assignment=(("self", shift, POLY_N_CUBE),),
            candidates=(("self", shift),),
            horizon=horizon,
        )
        assert mu_converges(exp, "self", shift).verdict == SUPPORTED

    def test_trivial_support_from_zero_default(self):
        exp = demo_catalog("sum_failure")
        v = mu_converges(exp, "sum", 2.0)
        assert v.verdict == SUPPORTED_TRIVIALLY
        assert v.trivial_tail_fraction == 1.0

    def test_antitone_eps_table(self):
        v = mu_converges(log_drift_experiment(), "self", 0.0)
        ns = [n for _, n in v.eps_table]
        assert ns == sorted(ns)


class TestBounded:
    def test_exp_drift_exceeds_probe_at_14(self):
        rep = seq_bounded_report(exp_drift_experiment(), "self", probe=1e6)
        assert rep.within_probe is False
        assert rep.first_exceed_n == 14

    def test_crisp_sq_ratio_bounded_by_four(self):
        seq = SequenceSpec("sq_ratio", {}, 1, 1000)
        exp = ExperimentSpec(sequence=seq, horizon=1000)
        rep = seq_bounded_report(exp, "self", probe=4.0)
        assert rep.within_probe and rep.sup.scaled == 4.0 and rep.sup_n == 1

    def test_log_drift_scaled_bounded(self):
        rep = seq_bounded_report(log_drift_experiment(10_000), "self", probe=1.0)
        assert rep.within_probe
        assert rep.scaled_within_raw


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, -2.0]) | st.floats(-1e6, 1e6), min_size=1, max_size=10),
    st.integers(1, 50),
    st.sets(st.sampled_from([0.0, 1.0, -2.0])),
    st.sampled_from([0.0, 0.5]) | st.floats(0, 1),
)
def test_table_sequence_bounds_equal_finite_set_bounds(values, n_min, ones, level):
    # one bounds report: a table stream and the set of its values agree, the
    # stream's indices offset by n_min from the set's positions
    ctx = FieldContext(mu=two_level(ones, level))
    n_max = n_min + len(values) - 1
    seq = SequenceSpec("table", {"points": {n_min + i: v for i, v in enumerate(values)}}, n_min, n_max)
    stream = seq_bounded_report(ExperimentSpec(sequence=seq, horizon=n_max, ctx=ctx), "self", probe=1.0)
    finite_set = mu_bounded_report(ctx, values, bound_probe=1.0)
    for name in ("sup", "inf", "scaled_abs_max", "within_probe"):
        assert repr(getattr(stream, name)) == repr(getattr(finite_set, name))
    assert stream.sup_n == finite_set.sup_n + n_min and stream.inf_n == finite_set.inf_n + n_min
    if finite_set.first_exceed_n is None:
        assert stream.first_exceed_n is None
    else:
        assert stream.first_exceed_n == finite_set.first_exceed_n + n_min


class TestMonotone:
    def _exp(self, seq, mu=None, horizon=1000, assignment=()):
        return ExperimentSpec(
            sequence=seq,
            assignment=assignment,
            horizon=horizon,
            ctx=FieldContext(mu=mu or crisp()),
        )

    def test_increasing_to_limit_passes(self):
        seq = SequenceSpec("moebius", {"a": 1, "b": 0, "c": 1, "d": 1}, 1, 1000)  # 1 - 1/(n+1)
        exp = self._exp(seq)
        rep = check_monotone(exp)
        assert rep.verdict == PASS
        assert rep.residual <= exp.ctx.eq_tol

    def test_decreasing_fails_at_first_index(self):
        seq = SequenceSpec("moebius", {"a": 0, "b": 1, "c": 1, "d": 0}, 1, 1000)  # 1/n
        rep = check_monotone(self._exp(seq))
        assert rep.verdict == FAIL
        assert rep.details["first_violation_n"] == 1

    def test_unbounded_increasing_is_unmet_with_probe(self):
        # terms n with weight n/(n+1): scaled n^2/(n+1) grows without bound
        seq = SequenceSpec("moebius", {"a": 1, "b": 0, "c": 0, "d": 1}, 1, 2000)
        assignment = (("self", None, WeightForm("rational_poly", {"p": [0, 1], "q": [1, 1]})),)
        rep = check_monotone(self._exp(seq, horizon=2000, assignment=assignment), probe=1000.0)
        assert rep.verdict == UNMET
        no_probe = check_monotone(self._exp(seq, horizon=2000, assignment=assignment))
        assert no_probe.verdict == PASS  # finite-horizon sup is the last term

    def test_an_infinite_step_warns_nothing(self):
        # every term is inf in floating point: numpy printed an invalid value warning on inf - inf;
        # the check then failed with residual NaN, as the final gap sup - last was inf - inf
        seq = SequenceSpec("moebius", {"a": 1e308, "b": 1e308, "c": 1.0, "d": 0.0}, 1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(
                    "monotone: the scaled value at n=1 is inf in floating point, so it has no verdict")):
                check_monotone(self._exp(seq, horizon=5))

    def test_a_negative_infinite_scaled_value_is_refused(self):
        # every term is -inf in floating point: the check failed with residual NaN
        seq = SequenceSpec("moebius", {"a": -1e308, "b": -1e308, "c": 1.0, "d": 0.0}, 1, 5)
        with pytest.raises(DomainError, match=re.escape("the scaled value at n=1 is -inf in floating point")):
            check_monotone(self._exp(seq, horizon=5))

    def test_a_nan_scaled_value_is_refused(self):
        # every term is exactly 1 but inf / inf in floating point: the check failed with residual NaN
        seq = SequenceSpec("moebius", {"a": 1e308, "b": 1e308, "c": 1e308, "d": 1e308}, 1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape("monotone: the scaled value at n=1 is NaN")):
                check_monotone(self._exp(seq, horizon=5))

    def test_a_nan_after_the_first_drop_does_not_refuse_it(self):
        # terms 0, -inf, -inf, -inf at weights (n - 3)^2 / 1000: scaled 0, -inf, NaN, -inf. The
        # drop at n=1 is between two numbers, so it fails the check whatever follows
        seq = SequenceSpec("moebius", {"a": -1e308, "b": 1e308, "c": 1.0, "d": 0.0}, 1, 4)
        assignment = (("self", None, WeightForm("rational_poly", {"p": [9, -6, 1], "q": [1000]})),)
        rep = check_monotone(self._exp(seq, horizon=4, assignment=assignment))
        assert rep.verdict == FAIL and rep.details["first_violation_n"] == 1


class TestRunExperiment:
    def test_crisp_limit_arithmetic(self):
        x = SequenceSpec("sq_ratio", {}, 1, 100_000)  # -> 1
        y = SequenceSpec("moebius", {"a": 1, "b": 1, "c": 3, "d": 1}, 1, 100_000)  # -> 1/3
        exp = ExperimentSpec(
            sequence=x,
            partner=y,
            candidates=(
                ("self", 1.0),
                ("partner", 1.0 / 3.0),
                ("sum", 4.0 / 3.0),
                ("product", 1.0 / 3.0),
            ),
            eps_schedule=(1e-1, 1e-2, 1e-3),
            horizon=100_000,
        )
        report = run_experiment(exp)
        assert report.verdict_for("sum", 4.0 / 3.0).verdict == SUPPORTED
        assert report.verdict_for("product", 1.0 / 3.0).verdict == SUPPORTED
        assert all(c.verdict == PASS for c in report.theorem_checks)

    def test_sum_failure_report(self):
        report = run_experiment(demo_catalog("sum_failure"))
        assert report.verdict_for("self", 1.0).verdict == SUPPORTED
        assert report.verdict_for("sum", 0.0).verdict == SUPPORTED
        assert report.verdict_for("sum", 2.0).verdict == SUPPORTED_TRIVIALLY

    def test_product_failure_report(self):
        report = run_experiment(demo_catalog("product_failure"))
        third = 1.0 / 3.0
        assert report.verdict_for("partner", third).verdict == SUPPORTED
        assert report.verdict_for("product", 0.0).verdict == SUPPORTED
        assert report.verdict_for("product", third).verdict == SUPPORTED_TRIVIALLY

    def test_partner_required_for_sum(self):
        with pytest.raises(UsageError):
            ExperimentSpec(
                sequence=SequenceSpec("sq_ratio", {}, 1, 100),
                candidates=(("sum", 2.0),),
                horizon=100,
            )


# every term is inf / inf in floating point, NaN, though exactly 1
NAN_TERMS = {"form": "moebius", "params": {"a": 1e308, "b": 1e308, "c": 1e308, "d": 1e308}, "n_min": 1, "n_max": 5}


class TestNaNDeviation:
    """A NaN deviation reaches no bound, so it would support any candidate: the
    weighted and the classical scan refuse it, naming its first index, with no
    numpy warning."""

    @pytest.mark.parametrize("candidate", [0.5, 1.0])
    def test_the_weighted_verdict_is_refused(self, candidate):
        exp = load_experiment({"sequence": NAN_TERMS, "horizon": 5, "candidates": [candidate]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"self -> {candidate}: the deviation at n=1 is NaN"):
                run_experiment(exp)
            with pytest.raises(DomainError, match="at n=1 is NaN"):
                mu_converges(exp, "self", candidate)

    def test_the_classical_verdict_is_refused(self):
        seq = SequenceSpec(NAN_TERMS["form"], NAN_TERMS["params"], 1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="classical moebius -> 0.5: the deviation at n=1 is NaN"):
                classical_converges(seq, 0.5)

    def test_an_infinite_deviation_still_reaches_every_bound(self):
        seq = SequenceSpec("moebius", {"a": 1e308, "b": 1e308, "c": 1.0, "d": 0.0}, 1, 5)  # inf from n = 1
        v = classical_converges(seq, 0.5)
        assert v.verdict == REFUTED and all(n is None for _, n in v.eps_table)


class TestSchema:
    def test_round_trip(self):
        exp = demo_catalog("product_failure")
        doc = serialize_experiment(exp)
        back = load_experiment(json.dumps(doc))
        assert back.horizon == exp.horizon
        assert back.candidates == exp.candidates
        assert back.assignment[0][0] == "self"
        v1 = mu_converges(exp, "product", 0.0)
        v2 = mu_converges(back, "product", 0.0)
        assert v1.eps_table == v2.eps_table

    def test_written_keys_are_the_read_keys(self):
        # the parser refuses keys outside EXPERIMENT_KEYS, so the writer may emit no other
        exp = demo_catalog("sum_failure")
        assert exp.partner is not None
        assert set(serialize_experiment(exp)) == EXPERIMENT_KEYS

    def test_bare_number_candidates_mean_self(self):
        doc = {
            "sequence": {"form": "sq_ratio", "params": {}, "n_min": 1, "n_max": 1000},
            "candidates": [1.0],
            "eps": [0.1],
            "horizon": 1000,
        }
        exp = load_experiment(json.dumps(doc))
        assert exp.candidates == (("self", 1.0),)
        # no assignment, crisp fallback: classical behavior
        assert mu_converges(exp, "self", 1.0).verdict == SUPPORTED

    def test_bad_tag_rejected(self):
        doc = {
            "sequence": {"form": "sq_ratio", "params": {}},
            "mu": {"sideways": 1.0},
        }
        with pytest.raises(SpecError):
            load_experiment(json.dumps(doc))

    def test_horizon_exceeding_cap_rejected(self):
        doc = {
            "sequence": {"form": "exp_plus", "params": {"c": 0.0}, "n_min": 1, "n_max": 700},
            "horizon": 10_000,
        }
        with pytest.raises(ValidationError):
            load_experiment(json.dumps(doc))

    def test_assignment_weight_scan(self):
        # 3(3n+1)/(2n^2) exceeds 1 below n = 5
        doc = {
            "sequence": {"form": "sq_ratio", "params": {}, "n_min": 1, "n_max": 100},
            "mu": {"self": {"form": "rational_poly", "params": {"p": [3, 9], "q": [0, 0, 2]}}},
            "horizon": 100,
        }
        with pytest.raises(ValidationError, match="n=1"):
            load_experiment(json.dumps(doc))
        doc["sequence"]["n_min"] = 5
        load_experiment(json.dumps(doc))


@pytest.mark.parametrize("kind, shown", BAD_WEIGHTS)
@pytest.mark.parametrize("k", [3, 500, 1000])  # the first, a middle and the last index
def test_assignment_names_the_first_bad_weight(kind, shown, k):
    seq = SequenceSpec("sq_ratio", {}, 1, 1000)
    partner = SequenceSpec("sq_ratio", {}, 3, 1000)
    assignment = (("self", None, constant_weight(0.5)), ("partner", None, weight_bad_at(kind, k)),
                  ("sum", None, weight_bad_at(kind, k)))
    with pytest.raises(ValidationError) as raised:
        ExperimentSpec(sequence=seq, partner=partner, assignment=assignment, horizon=1000)
    assert str(raised.value) == f"mu[partner]: weight {shown} out of [0, 1] at n={k}"


# eq_tol 0.25 and the offsets below are exact in binary, so the boundary is exact
_ENTRIES = (("self", None, constant_weight(0.5)), ("self", 1.0, constant_weight(0.25)),
            ("partner", 0.0, constant_weight(0.75)))


@pytest.mark.parametrize("expr, offset, index", [
    ("self", None, 0),
    ("self", 0.0, 0),  # no offset is the offset 0
    ("partner", None, 2),
    ("self", -0.25, 0),  # within eq_tol
    ("self", 1.25, 1),
    ("self", float(np.nextafter(1.25, 2.0)), None),  # just beyond it
    ("self", 0.5, None),
    ("sum", 0.0, None),  # an expression with no entry
])
def test_assigned_entry(expr, offset, index):
    seq = SequenceSpec("sq_ratio", {}, 1, 10)
    exp = ExperimentSpec(sequence=seq, partner=seq, assignment=_ENTRIES, horizon=10,
                         ctx=FieldContext(eq_tol=0.25))
    assert exp.assigned(expr, offset) == (None if index is None else _ENTRIES[index])


def test_experiment_keeps_the_numbers_it_reads():
    # a candidate "1" was kept as a string: l + m gave "11", and l * m a raw TypeError
    seq = SequenceSpec("sq_ratio", {}, 1, 100)
    exp = ExperimentSpec(sequence=seq, partner=seq, candidates=(("self", "1"), ("partner", 1)), eps_schedule=(0.1,),
                         horizon=100, assignment=(("sum", "2", constant_weight(1.0)),))
    assert [type(v) for _, v in exp.candidates] == [float, float]
    assert exp.assignment[0][1] == 2.0 and type(exp.assignment[0][1]) is float
    checks = {c.identity_id: c for c in run_experiment(exp).theorem_checks}
    assert checks["limit-sum"].operands == (1.0, 1.0) and checks["limit-sum"].verdict == PASS
    assert checks["limit-product"].verdict == PASS


def test_a_limit_past_the_float_range_is_unmet():
    seq = SequenceSpec("constant", {"value": 1e308}, 1, 100)
    exp = ExperimentSpec(sequence=seq, partner=seq, candidates=(("self", 1e308), ("partner", 1e308)), horizon=100)
    checks = run_experiment(exp).theorem_checks
    assert [(c.verdict, c.notes) for c in checks] == [
        (UNMET, ("the sum of the limits is past the float range",)),
        (UNMET, ("the product of the limits is past the float range",)),
    ]


@pytest.mark.parametrize("expr", ["sum", "product"])
def test_a_stream_past_the_float_range_warns_nothing(expr):
    # the two terms were added or multiplied outside np.errstate: numpy printed an overflow RuntimeWarning
    seq = SequenceSpec("constant", {"value": 1e308}, 1, 10)
    exp = ExperimentSpec(sequence=seq, partner=seq, horizon=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mu_converges(exp, expr, 0.0).verdict == REFUTED


@pytest.mark.parametrize("offset", [math.nan, math.inf])
def test_non_finite_offset_is_refused(offset):
    # such an entry would weigh no stream, not even its own
    with pytest.raises(ValidationError, match="mu: tag .self. offset: expected a finite number"):
        ExperimentSpec(sequence=SequenceSpec("sq_ratio", {}, 1, 10), horizon=10,
                       assignment=(("self", offset, constant_weight(0.5)),))


def test_trace_rows_shape():
    exp = log_drift_experiment(100)
    rows = list(trace_rows(exp, "self", 0.0))
    assert rows[0][0] == 1 and len(rows) == 100
    n, term, membership, dev = rows[2]
    assert n == 3 and dev == pytest.approx(0.09837245103131766, rel=1e-12)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(0.5, 3.0), st.floats(-3.0, 3.0))
def test_domination_by_classical(level, slope, offset):
    """scaled deviation <= classical deviation pointwise, so N_mu <= N_classical."""
    seq = SequenceSpec("moebius", {"a": offset, "b": slope, "c": 1.0, "d": 1.0}, 1, 20_000)
    limit = offset
    ctx = FieldContext(mu=two_level({0.0, 1.0}, level))
    exp = ExperimentSpec(sequence=seq, horizon=20_000, ctx=ctx, eps_schedule=(1e-1, 1e-2))
    classical = classical_converges(seq, limit, (1e-1, 1e-2), horizon=20_000)
    weighted = mu_converges(exp, "self", limit)
    for (eps, n_mu), (_, n_cl) in zip(weighted.eps_table, classical.eps_table):
        if n_cl is not None:
            assert n_mu is not None and n_mu <= n_cl


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 1.0), st.floats(0.5, 3.0))
def test_positive_floor_equivalence(level, slope):
    """With weights >= a, mu-support at eps gives classical support at eps/a."""
    seq = SequenceSpec("moebius", {"a": 1.0, "b": slope, "c": 1.0, "d": 1.0}, 1, 20_000)
    ctx = FieldContext(mu=two_level({0.0, 1.0}, level))
    exp = ExperimentSpec(sequence=seq, horizon=20_000, ctx=ctx, eps_schedule=(1e-2,))
    n_mu = min_index_for_epsilon(exp, "self", 1.0, 1e-2)
    if n_mu is None:
        return
    classical = classical_converges(seq, 1.0, (1e-2 / level,), horizon=20_000)
    n_cl = classical.eps_table[0][1]
    assert n_cl is not None and n_cl <= n_mu


@settings(max_examples=20, deadline=None)
@given(st.floats(1e-4, 1e-1), st.floats(1.5, 4.0))
def test_antitone_n(eps, factor):
    exp = log_drift_experiment(50_000)
    n_small = min_index_for_epsilon(exp, "self", 0.0, eps)
    n_large = min_index_for_epsilon(exp, "self", 0.0, eps * factor)
    if n_small is not None and n_large is not None:
        assert n_large <= n_small


def test_bounded_proof_inequality_under_floor():
    """a (l a - 1) < x_n w(x_n) < (l + 1)/a over the tail, for floors a > 0."""
    import random

    rng = random.Random(99)
    for _ in range(25):
        a_param = rng.uniform(0.5, 5.0)
        c_param = rng.uniform(0.5, 2.0)
        b_param = rng.uniform(0.0, 5.0)
        d_param = rng.uniform(0.1, 2.0)
        level = rng.uniform(0.1, 1.0)
        seq = SequenceSpec(
            "moebius", {"a": a_param, "b": b_param, "c": c_param, "d": d_param}, 1, 20_000
        )
        limit = a_param / c_param
        ctx = FieldContext(mu=two_level({0.0, 1.0}, level))
        exp = ExperimentSpec(sequence=seq, horizon=20_000, ctx=ctx, eps_schedule=(1.0,))
        k = min_index_for_epsilon(exp, "self", limit, 1.0)
        assert k is not None
        ns = np.arange(k, 20_001)
        terms = seq.terms(ns)
        weights = ctx.mu.weight_many(terms)
        scaled = terms * weights
        lo = level * (limit * level - 1.0)
        hi = (limit + 1.0) / level
        assert np.all(scaled > lo) and np.all(scaled < hi)


# -- spec round trip -------------------------------------------------------------

_finite = st.floats(-1e6, 1e6, allow_nan=False)
_unit = st.floats(0.0, 1.0)
_positive = st.floats(1e-12, 1.0)


@st.composite
def _sequences(draw, n_max):
    n_min = draw(st.integers(1, 5))
    form = draw(st.sampled_from(("log_plus", "exp_plus", "sq_ratio", "moebius", "constant", "table")))
    params = {
        "log_plus": lambda: {"c": draw(_finite)},
        "exp_plus": lambda: {"c": draw(_finite)},
        "sq_ratio": dict,
        # the spec refuses a moebius range that holds a pole, an n with c n + d = 0
        "moebius": lambda: draw(st.fixed_dictionaries({k: _finite for k in "abcd"}).filter(
            lambda p: all(p["c"] * n + p["d"] != 0.0 for n in range(n_min, n_max + 1)))),
        "constant": lambda: {"value": draw(_finite)},
        "table": lambda: {"points": {k: draw(_finite) for k in range(n_min, n_max + 1)}},
    }[form]()
    return SequenceSpec(form, params, n_min, n_max)


_weight_forms = st.one_of(
    _unit.map(constant_weight),
    st.just(WeightForm("rational_poly", {"p": [1], "q": [0, 1]})),
    st.just(WeightForm("inv_exp_p1_sq", {})),
)


@st.composite
def _fallbacks(draw):
    rules = []
    for kind in draw(st.lists(st.sampled_from(("point", "set", "family")), max_size=3)):
        tol = draw(st.floats(0.0, 1e-3))
        scalar = st.one_of(_finite, st.builds(complex, _finite, _finite))
        if kind == "point":
            rules.append(MuRule(PointMatcher(draw(scalar), tol), draw(_unit)))
        elif kind == "set":
            rules.append(MuRule(SetMatcher(tuple(draw(st.lists(scalar, min_size=1, max_size=3))), tol), draw(_unit)))
        else:
            form = ValueForm("log_n_plus_c", {"c": draw(_finite)})
            # a constant rule weight is a number; parse_mu_spec reads a const form back as one
            weight = draw(st.one_of(_unit, _weight_forms.filter(lambda wf: wf.form != "const")))
            rules.append(MuRule(FamilyMatcher(form, 1, 50, tol), weight))
    return MembershipFunction(tuple(rules), draw(_unit))


@st.composite
def _experiments(draw):
    n_max = draw(st.integers(10, 40))
    seq = draw(_sequences(n_max))
    partner = draw(st.none() | _sequences(n_max))
    eq_tol = draw(_positive)
    # an expression other than self needs a partner, which the spec refuses otherwise
    exprs = st.sampled_from(("self", "partner", "sum", "product") if partner else ("self",))
    tags = []  # two tags whose offsets lie within eq_tol weigh the same stream, which the spec refuses
    for e, off in draw(st.lists(st.tuples(exprs, st.none() | _finite), max_size=4)):
        if all(e != e2 or abs((off or 0.0) - (off2 or 0.0)) > eq_tol for e2, off2 in tags):
            tags.append((e, off))
    return ExperimentSpec(
        sequence=seq,
        partner=partner,
        assignment=tuple((e, off, draw(_weight_forms)) for e, off in tags),
        candidates=tuple(draw(st.lists(st.tuples(exprs, _finite), max_size=3))),
        eps_schedule=tuple(draw(st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=4))),
        horizon=draw(st.integers(5, n_max)),
        ctx=FieldContext(mu=draw(_fallbacks()), eq_tol=eq_tol, min_mu=draw(st.floats(0.0, 0.5))),
        label=draw(st.text(max_size=8)),
    )


def _round_trip(exp):
    return parse_experiment(json.loads(json.dumps(serialize_experiment(exp))))


@settings(max_examples=60, deadline=None)
@given(_experiments())
def test_spec_round_trip_is_lossless(exp):
    assert _round_trip(exp) == exp


@pytest.mark.parametrize("name", ["nonunique_limit", "unbounded_convergent", "sum_failure", "product_failure"])
def test_catalog_round_trip_is_lossless(name):
    exp = demo_catalog(name)
    assert _round_trip(exp) == exp
