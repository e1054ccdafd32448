"""Weighted order, modulus, and extrema over the reals, plus identity checks.

Everything routes through the scaled value x * w(x). The order induced by
scaled values is a total preorder, not a partial order: distinct reals can
be weighted onto the same scaled value, so "equal" here means mu-equivalent.
Order comparisons use an absolute slack (ctx.eq_tol) because scaled values
cluster near zero by design.

One bounds report serves finite sets and sequence streams: bounds_report
builds every BoundsReport from blocks of values, weights and scaled values,
and is the only code that picks a scaled extreme and its witness; mu_sup and
mu_inf are a finite set's bounds report's sup and inf.

The identity registry covers the ordered-field implications O1..O8, the
modulus laws R1..R5b, and the supremum characterization S1. Each law shape
has one factory: _sign_law builds O2..O7, and _ratio_law builds R3/R4 here
and the complex ratio laws. Ratio-form identities are guarded: when a
referenced membership is at or below ctx.min_mu the verdict is
"precondition-unmet" rather than a failure.

Every verdict, here, in complex_field and in sequences, comes from one of
two constructors: _judged, the one rule (pass exactly when the residual
reported is within ctx.eq_tol), and _unmet. A verdict decided by a search or
a scan is judged on residual 0 or inf. Every modulus a check takes goes
through _modulus, which refuses one past the float range as a DomainError.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from operator import add, mul, neg

import numpy as np

from .errors import DomainError, UsageError, ValidationError, check_eps, number
from .membership import FieldContext, mu_eval

PASS = "pass"
FAIL = "fail"
UNMET = "precondition-unmet"


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


@dataclass(frozen=True)
class ScaledValue:
    """A raw value with its weight and their product (computed exactly once)."""

    raw: float
    weight: float
    scaled: float

    @classmethod
    def of(cls, ctx: FieldContext, a: float) -> "ScaledValue":
        w = mu_eval(ctx, a)
        return cls(raw=float(a), weight=w, scaled=float(a) * w)


def scaled(ctx: FieldContext, a: float) -> float:
    return ScaledValue.of(ctx, a).scaled


def mu_compare(ctx: FieldContext, a: float, b: float) -> Ordering:
    """Order a and b by their scaled values, eq_tol apart counts as equal."""
    sa, sb = scaled(ctx, a), scaled(ctx, b)
    if abs(sa - sb) <= ctx.eq_tol:
        return Ordering.EQUAL
    return Ordering.LESS if sa < sb else Ordering.GREATER


def mu_abs(ctx: FieldContext, a: float) -> float:
    """Weighted modulus |a| * w(a); zero at a = 0 regardless of the weight."""
    a = float(a)
    if a == 0.0:
        return 0.0
    return abs(a) * mu_eval(ctx, a)


@dataclass(frozen=True)
class BoundsReport:
    """Scaled extremes of a finite set or of one sequence stream, with an
    optional probe comparison.

    The *_n fields are indices: a sequence's n, a set's position. Ties go to
    the first. scaled_within_raw records the finite-scale fact
    max |x w(x)| <= max |x|, which holds because w <= 1. first_exceed_n is
    the first index whose |x w(x)| exceeds the probe.
    """

    expr: str | None
    sup: ScaledValue
    sup_n: int
    inf: ScaledValue
    inf_n: int
    scaled_abs_max: float
    raw_abs_max: float
    scaled_within_raw: bool
    probe: float | None = None
    within_probe: bool | None = None
    first_exceed_n: int | None = None


def bounds_report(blocks, eq_tol, probe=None, n0=0, expr=None) -> BoundsReport:
    """The bounds of a stream given as consecutive blocks of arrays (values,
    weights, scaled = values * weights); element i of the stream is index n0 + i.
    As np.argmax and np.max over the whole stream, the first NaN is an
    extreme and a NaN makes the maxima NaN.
    """
    probe = None if probe is None else number(probe, "probe", error=ValidationError)
    sup = inf = first_exceed = None
    scaled_abs = raw_abs = -math.inf
    i = 0
    for values, weights, scaled in blocks:
        def at(k):
            return ScaledValue(float(values[k]), float(weights[k]), float(scaled[k])), n0 + i + k

        hi, lo = at(int(np.argmax(scaled))), at(int(np.argmin(scaled)))
        if sup is None or not (math.isnan(sup[0].scaled) or hi[0].scaled <= sup[0].scaled):
            sup = hi
        if inf is None or not (math.isnan(inf[0].scaled) or lo[0].scaled >= inf[0].scaled):
            inf = lo
        mags = np.abs(scaled)
        scaled_abs = float(np.maximum(scaled_abs, np.max(mags)))
        raw_abs = float(np.maximum(raw_abs, np.max(np.abs(values))))
        if probe is not None and first_exceed is None:
            over = np.flatnonzero(mags > probe)
            first_exceed = n0 + i + int(over[0]) if over.size else None
        i += scaled.size
    return BoundsReport(
        expr, sup[0], sup[1], inf[0], inf[1], scaled_abs, raw_abs,
        scaled_abs <= raw_abs + eq_tol, probe,
        within_probe=None if probe is None else first_exceed is None,
        first_exceed_n=first_exceed,
    )


def mu_bounded_report(ctx: FieldContext, values, bound_probe: float | None = None) -> BoundsReport:
    """The bounds of a finite non-empty set, each value weighed by mu_eval."""
    vals = [float(v) for v in values]
    if not vals:
        raise UsageError("an empty set has no scaled bounds")
    raw, w = np.array(vals), np.array([mu_eval(ctx, v) for v in vals])
    return bounds_report([(raw, w, raw * w)], ctx.eq_tol, bound_probe)


def mu_sup(ctx: FieldContext, values) -> ScaledValue:
    """Maximum scaled value over a finite non-empty set, with its (first) witness."""
    return mu_bounded_report(ctx, values).sup


def mu_inf(ctx: FieldContext, values) -> ScaledValue:
    """Minimum scaled value over a finite non-empty set, with its (first) witness."""
    return mu_bounded_report(ctx, values).inf


@dataclass(frozen=True)
class IdentityCheckReport:
    """Outcome of one identity evaluation.

    residual is relative with an absolute floor: |lhs - rhs| scaled by
    max(1, |lhs|, |rhs|). Inequality checks use the one-sided excess instead.
    verdict is "pass", "fail", or "precondition-unmet"; the last mirrors the
    guarded "provided w(...) != 0" clauses and is not a failure. Pass is
    exactly residual <= eq_tol, so a NaN residual fails.
    """

    identity_id: str
    operands: tuple
    lhs: float | complex
    rhs: float | complex
    residual: float
    verdict: str
    notes: tuple = ()
    details: dict = field(default_factory=dict)


def _modulus(z, squared: bool = False) -> float:
    """|z|, or |z| ** 2; a DomainError naming z when that is past the float range."""
    try:
        return abs(z) ** 2 if squared else abs(z)
    except OverflowError:
        raise DomainError(f"the {'squared ' if squared else ''}modulus of {z!r} is past the float range") from None


def _scale(lhs, rhs) -> float:
    return max(1.0, _modulus(lhs), _modulus(rhs))


def rel_residual(lhs, rhs) -> float:
    return _modulus(lhs - rhs) / _scale(lhs, rhs)


def one_sided_excess(lhs, rhs) -> float:
    """How far lhs sits above rhs, scaled; zero when lhs <= rhs, NaN when lhs - rhs is."""
    d = lhs - rhs
    return 0.0 if d <= 0.0 else d / _scale(lhs, rhs)


def _judged(ctx, ident, operands, lhs, rhs, residual, notes=(), **details):
    """The one verdict rule: pass exactly when the residual reported is <= eq_tol (NaN fails)."""
    verdict = PASS if residual <= ctx.eq_tol else FAIL
    return IdentityCheckReport(ident, tuple(operands), lhs, rhs, residual, verdict, tuple(notes), details)


def _eq_report(ctx, ident, operands, lhs, rhs, notes=(), **details):
    return _judged(ctx, ident, operands, lhs, rhs, rel_residual(lhs, rhs), notes, **details)


def _le_report(ctx, ident, operands, lhs, rhs, notes=(), pairs=None, **details):
    """lhs <= rhs, or every x <= bound of pairs; scored by the worst excess, a NaN the worst of all."""
    excess = max((one_sided_excess(x, bound) for x, bound in pairs or ((lhs, rhs),)),
                 key=lambda e: (math.isnan(e), e))
    return _judged(ctx, ident, operands, lhs, rhs, excess, notes, **details)


def _unmet(ident, operands, why, **details):
    return IdentityCheckReport(
        ident, tuple(operands), math.nan, math.nan, math.nan, UNMET, (why,), details
    )


def _weights_ok(ctx, points) -> tuple[bool, str]:
    for p in points:
        if mu_eval(ctx, p) <= ctx.min_mu:
            return False, f"membership at {p!r} is at or below min_mu"
    return True, ""


def check_sup_characterization(
    ctx: FieldContext, values, eps_schedule, probe: float | None = None
) -> IdentityCheckReport:
    """For each eps > 0 find a witness x1 with M - eps < x1 w(x1) <= M.

    Each member is weighed once, before the eps loop. M defaults to the
    largest of those scaled values; pass probe to test a non-supremum
    candidate, which must fail for small enough eps. The verdict is judged on
    residual 0 when every eps has a witness, inf otherwise.
    """
    probe = None if probe is None else number(probe, "probe", error=ValidationError)
    vals = [float(v) for v in values]
    if not vals:
        raise UsageError("check_sup_characterization needs a non-empty set")
    eps_list = list(eps_schedule)
    for e in eps_list:
        check_eps(e, "eps")
    eps_list = [float(e) for e in eps_list]
    table = [(v, scaled(ctx, v)) for v in vals]
    m = max(s for _, s in table) if probe is None else probe
    witnesses = []
    failed_eps = []
    for eps in eps_list:
        found = next(((eps, v, s) for v, s in table if m - eps - ctx.eq_tol < s <= m + ctx.eq_tol), None)
        if found is None:
            failed_eps.append(eps)
        else:
            witnesses.append(found)
    return _judged(ctx, "S1", vals, m, m, math.inf if failed_eps else 0.0,
                   witnesses=witnesses, failed_eps=failed_eps, bound=m)


# ---------------------------------------------------------------------------
# Registry: ordered-field implications and modulus laws
# ---------------------------------------------------------------------------

def _check_o1(ctx, ops):
    (a,) = ops
    sa = scaled(ctx, a)
    if a >= 0.0:
        return _le_report(ctx, "O1", ops, 0.0, sa, notes=("a >= 0 branch",))
    return _le_report(ctx, "O1", ops, sa, 0.0, notes=("a <= 0 branch",))


def _sign_law(ident, signs, derive, sign):
    """Operands with the given scaled signs (+1: 0 <=_w x, -1: x <=_w 0) give
    derive(*operands) the scaled sign `sign`; guarded on every touched weight."""
    def oriented(s, x):  # (lhs, rhs) of the one-sided comparison with 0
        return (0.0, x) if s > 0 else (x, 0.0)

    def check(ctx, ops):
        d = derive(*ops)
        ok, why = _weights_ok(ctx, (*ops, d))
        if not ok:
            return _unmet(ident, ops, why)
        for s, v in zip(signs, ops):
            lhs, rhs = oriented(s, scaled(ctx, v))
            if lhs > rhs + ctx.eq_tol:
                return _unmet(ident, ops, "hypothesis not satisfied")
        return _le_report(ctx, ident, ops, *oriented(sign, scaled(ctx, d)))

    return check


def _check_o8(ctx, ops):
    (a,) = ops
    if a == 0.0:
        return _unmet("O8", ops, "a must be nonzero")
    return _le_report(ctx, "O8", ops, 0.0, scaled(ctx, a * a))


def _check_r1(ctx, ops):
    (a,) = ops
    w = mu_eval(ctx, a)
    if a > 0.0:
        piecewise = a * w
    elif a == 0.0:
        piecewise = 0.0
    else:
        piecewise = -a * w
    return _eq_report(ctx, "R1", ops, mu_abs(ctx, a), piecewise)


def _check_r2(ctx, ops):
    (a,) = ops
    wa, wn = mu_eval(ctx, a), mu_eval(ctx, -a)
    if abs(wa - wn) > ctx.eq_tol:
        return _unmet("R2", ops, "requires w(-a) = w(a)", w_a=wa, w_neg_a=wn)
    return _eq_report(ctx, "R2", ops, mu_abs(ctx, -a), mu_abs(ctx, a))


def _ratio_law(ident, ratio, derive, combine, report=_eq_report):
    """ratio(derive(z1, z2)) against combine(ratio(z1), ratio(z2)) by report
    (an equality, or _le_report for an inequality), guarded on the weights of
    z1, z2 and the derived point."""
    def check(ctx, ops):
        z1, z2 = ops
        d = derive(z1, z2)
        ok, why = _weights_ok(ctx, (z1, z2, d))
        if not ok:
            return _unmet(ident, ops, why)
        return report(ctx, ident, ops, ratio(ctx, d), combine(ratio(ctx, z1), ratio(ctx, z2)))

    return check


def _abs_ratio(ctx, a):
    return mu_abs(ctx, a) / mu_eval(ctx, a)


def _check_r5a(ctx, ops):
    a, c = ops
    if c <= 0.0:
        return _unmet("R5a", ops, "bound c must be > 0")
    ok, why = _weights_ok(ctx, (a,))
    if not ok:
        return _unmet("R5a", ops, why)
    if not (mu_abs(ctx, a) < c + ctx.eq_tol):
        return _unmet("R5a", ops, "hypothesis |a|_w < c not satisfied")
    bound = c / mu_eval(ctx, a)  # -bound <= a <= bound
    return _le_report(ctx, "R5a", ops, a, bound, pairs=((-bound, a), (a, bound)), bound=bound)


def _check_r5b(ctx, ops):
    a, c = ops
    if c <= 0.0:
        return _unmet("R5b", ops, "bound c must be > 0")
    ok, why = _weights_ok(ctx, (a, c))
    if not ok:
        return _unmet("R5b", ops, why)
    wa, wabs = mu_eval(ctx, a), mu_eval(ctx, abs(a))
    if abs(wa - wabs) > ctx.eq_tol:
        return _unmet("R5b", ops, "requires w(|a|) = w(a)", w_a=wa, w_abs_a=wabs)
    if mu_compare(ctx, abs(a), c) is Ordering.GREATER:
        return _unmet("R5b", ops, "hypothesis |a| <_w c not satisfied")
    bound = c * mu_eval(ctx, c) / wa  # -bound <= a <= bound
    return _le_report(ctx, "R5b", ops, a, bound, pairs=((-bound, a), (a, bound)), bound=bound)


def _check_s1(ctx, ops):
    return check_sup_characterization(ctx, ops, (0.5, 1e-1, 1e-3))


REAL_IDENTITIES = {
    "O1": ("sign of a is preserved by the weighted order", 1, _check_o1),
    "O2": ("0 <=_w a implies -a <=_w 0", 1, _sign_law("O2", (1,), neg, -1)),
    "O3": ("nonnegatives are closed under addition", 2, _sign_law("O3", (1, 1), add, 1)),
    "O4": ("nonpositives are closed under addition", 2, _sign_law("O4", (-1, -1), add, -1)),
    "O5": ("nonnegatives are closed under multiplication", 2, _sign_law("O5", (1, 1), mul, 1)),
    "O6": ("product of nonpositives is nonnegative", 2, _sign_law("O6", (-1, -1), mul, 1)),
    "O7": ("mixed signs multiply to nonpositive", 2, _sign_law("O7", (1, -1), mul, -1)),
    "O8": ("squares are nonnegative", 1, _check_o8),
    "R1": ("piecewise form of the weighted modulus", 1, _check_r1),
    "R2": ("modulus is even, given a symmetric weighting", 1, _check_r2),
    "R3": ("modulus ratios multiply", 2, _ratio_law("R3", _abs_ratio, mul, mul)),
    "R4": ("triangle inequality in ratio form", 2, _ratio_law("R4", _abs_ratio, add, add, _le_report)),
    "R5a": ("|a|_w < c sandwiches a by c / w(a)", 2, _check_r5a),
    "R5b": ("|a| <_w c sandwiches a by c w(c) / w(a)", 2, _check_r5b),
    "S1": ("supremum characterization by eps-witnesses", None, _check_s1),
}


def _dispatch(ctx, ident, operands, domain, table, convert) -> IdentityCheckReport:
    """Look ident up in the domain's table, convert and vet the operands, run the check."""
    if ident not in table:
        raise UsageError(f"unknown {domain} identity {ident!r}; known: {sorted(table)}")
    _, arity, fn = table[ident]
    ops = []
    for i, v in enumerate(operands, 1):
        try:
            ops.append(convert(v))
        except (TypeError, ValueError):
            raise UsageError(f"identity {ident}: operand {i} is not a {domain} number, got {v!r}") from None
        except OverflowError:  # an int past the float range
            raise DomainError(f"identity {ident}: operand {i} is past the float range") from None
        if not cmath.isfinite(ops[-1]):
            raise DomainError(f"operand {ops[-1]!r} is not finite")
    if arity is not None and len(ops) != arity:
        raise UsageError(f"identity {ident} takes {arity} operand(s), got {len(ops)}")
    if arity is None and not ops:
        raise UsageError(f"identity {ident} needs at least one operand")
    return fn(ctx, tuple(ops))


def check_real_identity(ctx: FieldContext, ident: str, operands) -> IdentityCheckReport:
    """Evaluate one registry identity on the given operands."""
    return _dispatch(ctx, ident, operands, "real", REAL_IDENTITIES, float)
