"""Catalog of desk-scale counterexample experiments.

Each entry binds a sequence family, explicit weight assignments, candidate
limits, and a horizon, reproducing a known separation between classical and
weighted convergence:

  nonunique_limit      a log-drift sequence, classically divergent, is
                       supported at two distinct weighted limits.
  unbounded_convergent an exponentially growing sequence is supported at 1
                       while its weighted values blow past any probe.
  sum_failure          two sequences each supported at 1 whose sum is
                       supported at 0; the arithmetic limit 2 is supported
                       only trivially (all tail weights are zero).
  product_failure      factors supported at 1 and 1/3 whose product is
                       supported at 0, not at 1/3 nontrivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError
from .forms import ValueForm, WeightForm, constant_weight
from .membership import FamilyMatcher, FieldContext, MembershipFunction, MuRule
from .real_field import BoundsReport
from .sequences import (
    SUPPORTED,
    SUPPORTED_TRIVIALLY,
    REFUTED,
    ExperimentSpec,
    ExperimentReport,
    SequenceSpec,
    mu_converges,
    run_experiment,
    seq_bounded_report,
)

# Each builder makes its weight forms anew: a form keeps the exact model of its
# weight (mufield.exact), so a form kept between calls would carry work between runs.


def _nonunique_limit() -> ExperimentSpec:
    horizon = 100_000
    seq = SequenceSpec("log_plus", {"c": 1.0}, n_min=1, n_max=horizon)
    shift = 1.0 - math.sqrt(2.0)
    weight = WeightForm("rational_poly", {"p": [0, 1], "q": [1, 3, 3, 1]})  # n / (n+1)^3
    mu = MembershipFunction((
        MuRule(FamilyMatcher(ValueForm("log_n_plus_c", {"c": 1.0}), 1, horizon), weight),
        MuRule(FamilyMatcher(ValueForm("log_n_plus_c", {"c": math.sqrt(2.0)}), 1, horizon), weight),
    ), 0.0)
    return ExperimentSpec(
        sequence=seq,
        assignment=(
            ("self", None, weight),
            ("self", shift, weight),
        ),
        candidates=(("self", 0.0), ("self", shift)),
        horizon=horizon,
        ctx=FieldContext(mu=mu),
        label="nonunique_limit",
    )


def _unbounded_convergent() -> ExperimentSpec:
    horizon = 600
    seq = SequenceSpec("exp_plus", {"c": 2.0}, n_min=1, n_max=horizon)
    mu = MembershipFunction((MuRule(FamilyMatcher(ValueForm("exp_n_plus_c", {"c": 2.0}), 1, horizon), 1.0),), 0.0)
    return ExperimentSpec(
        sequence=seq,
        assignment=(
            ("self", None, constant_weight(1.0)),
            ("self", 1.0, WeightForm("inv_exp_p1_sq", {})),
        ),
        candidates=(("self", 1.0),),
        horizon=horizon,
        ctx=FieldContext(mu=mu),
        label="unbounded_convergent",
    )


def _sum_failure() -> ExperimentSpec:
    horizon = 1_200_000
    seq = SequenceSpec("sq_ratio", {}, n_min=1, n_max=horizon)
    weight = WeightForm("rational_poly", {"p": [0, 0, 1], "q": [1, 6, 12, 8]})  # n^2 / (2n+1)^3
    return ExperimentSpec(
        sequence=seq,
        partner=seq,
        assignment=(
            ("self", 1.0, weight),
            ("partner", 1.0, weight),
            ("sum", None, WeightForm("rational_poly", {"p": [0, 0, 1], "q": [2, 6, 6, 2]})),  # n^2 / (2 (n+1)^3)
        ),
        candidates=(("self", 1.0), ("partner", 1.0), ("sum", 0.0), ("sum", 2.0)),
        horizon=horizon,
        ctx=FieldContext(mu=MembershipFunction((), 0.0)),
        label="sum_failure",
    )


def _product_failure() -> ExperimentSpec:
    horizon = 400_000
    third = 1.0 / 3.0
    seq = SequenceSpec("sq_ratio", {}, n_min=5, n_max=horizon)
    partner = SequenceSpec("moebius", {"a": 1.0, "b": 1.0, "c": 3.0, "d": 1.0}, n_min=5, n_max=horizon)
    return ExperimentSpec(
        sequence=seq,
        partner=partner,
        assignment=(
            ("self", 1.0, WeightForm("rational_poly", {"p": [0, 0, 1], "q": [1, 6, 12, 8]})),
            # 3 (3n+1) / (2 n^2) exceeds 1 below n = 5, so the sequences start there
            ("partner", third, WeightForm("rational_poly", {"p": [3, 9], "q": [0, 0, 2]})),
            ("product", None, WeightForm("rational_poly", {"p": [1], "q": [0, 1]})),  # 1 / n
        ),
        candidates=(("self", 1.0), ("partner", third), ("product", 0.0), ("product", third)),
        horizon=horizon,
        ctx=FieldContext(mu=MembershipFunction((), 0.0)),
        label="product_failure",
    )


def _verdict_claims(report, *rows):
    """(label, holds) for each (label, expr, candidate, verdict the scan must give)."""
    return [(label, report.verdict_for(expr, cand).verdict == want) for label, expr, cand, want in rows]


def _nonunique_limit_claims(exp, report):
    shift = 1.0 - math.sqrt(2.0)
    classical = next(v for e, c, v in report.classical if e == "self" and c == 0.0)
    claims = _verdict_claims(
        report,
        ("supported at 0", "self", 0.0, SUPPORTED),
        (f"supported at {shift:.6f}", "self", shift, SUPPORTED),
    )
    return claims + [("classically divergent (refuted at horizon)", classical.verdict == REFUTED)], None, None


def _unbounded_convergent_claims(exp, report):
    bounds = seq_bounded_report(exp, "self", probe=1e6)
    # literal reading: the inverse-exponential weight is bound to the
    # stream shifted by -1, leaving the deviation stream at weight zero.
    # The zero is bound explicitly: past n ~ 36 the shifted and unshifted
    # terms are indistinguishable in doubles, so a value-based fallback
    # could not keep them apart.
    literal_exp = ExperimentSpec(
        sequence=exp.sequence,
        assignment=(
            ("self", None, constant_weight(1.0)),
            ("self", -1.0, WeightForm("inv_exp_p1_sq", {})),
            ("self", 1.0, constant_weight(0.0)),
        ),
        candidates=(("self", 1.0),),
        eps_schedule=exp.eps_schedule,
        horizon=exp.horizon,
        ctx=exp.ctx,
        label="unbounded_convergent_literal",
    )
    literal = mu_converges(literal_exp, "self", 1.0)
    claims = _verdict_claims(report, ("supported at 1", "self", 1.0, SUPPORTED)) + [
        ("scaled stream exceeds probe 1e6", bounds.within_probe is False),
        ("literal reading supported only trivially", literal.verdict == SUPPORTED_TRIVIALLY),
    ]
    return claims, bounds, literal


def _sum_failure_claims(exp, report):
    return _verdict_claims(
        report,
        ("x supported at 1", "self", 1.0, SUPPORTED),
        ("y supported at 1", "partner", 1.0, SUPPORTED),
        ("sum supported at 0 nontrivially", "sum", 0.0, SUPPORTED),
        ("sum at 2 supported only trivially", "sum", 2.0, SUPPORTED_TRIVIALLY),
    ), None, None


def _product_failure_claims(exp, report):
    third = 1.0 / 3.0
    return _verdict_claims(
        report,
        ("x supported at 1", "self", 1.0, SUPPORTED),
        ("y supported at 1/3", "partner", third, SUPPORTED),
        ("product supported at 0", "product", 0.0, SUPPORTED),
        ("product at 1/3 supported only trivially", "product", third, SUPPORTED_TRIVIALLY),
    ), None, None


# name -> (builder, headline, claims: (experiment, report) -> (claims, bounds, literal variant))
_CATALOG = {
    "nonunique_limit": (
        _nonunique_limit,
        "two distinct weighted limits for one classically divergent sequence",
        _nonunique_limit_claims,
    ),
    "unbounded_convergent": (
        _unbounded_convergent,
        "weighted-convergent yet weighted-unbounded",
        _unbounded_convergent_claims,
    ),
    "sum_failure": (
        _sum_failure,
        "weighted limits do not add: sum converges to 0, not to 1 + 1",
        _sum_failure_claims,
    ),
    "product_failure": (
        _product_failure,
        "weighted limits do not multiply: product converges to 0, not to 1/3",
        _product_failure_claims,
    ),
}
DEMO_NAMES = tuple(_CATALOG)


def demo_catalog(name: str) -> ExperimentSpec:
    """The fully bound experiment for a registered demo name."""
    if name not in _CATALOG:
        raise UsageError(f"unknown demo {name!r}; catalog: {', '.join(DEMO_NAMES)}")
    return _CATALOG[name][0]()


@dataclass(frozen=True)
class DemoReport:
    name: str
    headline: str
    experiment: ExperimentSpec
    report: ExperimentReport
    claims: tuple  # ((label, bool), ...)
    bounds: BoundsReport | None = None
    literal_variant: object = None

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.claims)


def run_demo(name: str) -> DemoReport:
    """Run a catalog demo and check the claims it is meant to reproduce. Its weight check
    and its scans share the exact models its new experiment's forms and sequences keep."""
    exp = demo_catalog(name)
    report = run_experiment(exp)
    _, headline, check = _CATALOG[name]
    claims, bounds, literal = check(exp, report)
    return DemoReport(name, headline, exp, report, tuple(claims), bounds, literal)
