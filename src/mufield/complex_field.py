"""Weighted complex operations on principal branches, and their identity checks.

Branch conventions are fixed once: the principal argument lies in (-pi, pi]
with the negative real axis mapped to +pi (a signed-zero imaginary part is
normalized away first), Log is principal, and powers default to branch 0.
Every branch-sensitive check carries the integer branch correction it used.

Two checks exist in literal and corrected variants because the literal
statements fail on generic inputs: the conjugate difference identity needs
the imaginary unit on its right side (C7 vs C7_literal), and the power law
holds multiplicatively, not additively (P1 vs P1_additive). The corrected
forms are the registry entries; the literal residuals stay reported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import add, mul, sub, truediv

from .errors import DomainError, RangeGuardError, UsageError
from .membership import FieldContext, mu_eval
from .real_field import (
    FAIL,
    PASS,
    IdentityCheckReport,
    _eq_report,
    _le_report,
    _unmet,
    _weights_ok,
    one_sided_excess,
    rel_residual,
)

EXP_RE_CAP = 700.0  # exp overflows a double past Re z ~ 709.78

TWO_PI = 2.0 * math.pi


def _norm(z: complex) -> complex:
    """Collapse signed zeros so the branch cut is approached from above."""
    re, im = z.real, z.imag
    if re == 0.0:
        re = 0.0
    if im == 0.0:
        im = 0.0
    return complex(re, im)


def principal_arg(z: complex) -> float:
    """Argument in (-pi, pi]; exactly pi on the negative real axis."""
    z = _norm(complex(z))
    if z == 0:
        raise DomainError("argument undefined at 0")
    return math.atan2(z.imag, z.real)


def mu_conj(ctx: FieldContext, z: complex) -> complex:
    """Conjugate scaled by the weight of z."""
    z = complex(z)
    return z.conjugate() * mu_eval(ctx, z)


def mu_abs_c(ctx: FieldContext, z: complex) -> float:
    """Modulus scaled by the weight of z."""
    z = complex(z)
    return abs(z) * mu_eval(ctx, z)


def mu_arg(ctx: FieldContext, z: complex) -> float:
    """Principal argument scaled by the weight of z; undefined at 0."""
    z = complex(z)
    return principal_arg(z) * mu_eval(ctx, z)


@dataclass(frozen=True)
class ArgAdjustment:
    """Integer k in {-1, 0, 1} with Arg(z1 z2) = Arg z1 + Arg z2 + 2 k pi."""

    k: int


def arg_k(z1: complex, z2: complex) -> ArgAdjustment:
    s = principal_arg(z1) + principal_arg(z2)
    if s > math.pi:
        return ArgAdjustment(-1)
    if s <= -math.pi:
        return ArgAdjustment(1)
    return ArgAdjustment(0)


def mu_exp(ctx: FieldContext, z: complex) -> complex:
    """Exponential scaled by the weight of z, guarded against overflow."""
    z = complex(z)
    if abs(z.real) > EXP_RE_CAP:
        raise RangeGuardError(f"|Re z| = {abs(z.real)} exceeds the overflow guard {EXP_RE_CAP}")
    return cmath.exp(z) * mu_eval(ctx, z)


def principal_log(z: complex) -> complex:
    z = _norm(complex(z))
    if z == 0:
        raise DomainError("logarithm undefined at 0")
    return complex(math.log(abs(z)), principal_arg(z))


def mu_log(ctx: FieldContext, z: complex) -> complex:
    """Principal logarithm scaled by the weight of z; undefined at 0."""
    z = complex(z)
    return principal_log(z) * mu_eval(ctx, z)


def _pow_value(a: complex, z: complex, branch: int) -> complex:
    w = z * (principal_log(a) + complex(0.0, TWO_PI * branch))
    if abs(w.real) > EXP_RE_CAP:
        raise RangeGuardError(f"|Re(z log a)| = {abs(w.real)} exceeds the overflow guard {EXP_RE_CAP}")
    return cmath.exp(w)


def mu_pow(ctx: FieldContext, a: complex, z: complex, branch: int = 0) -> complex:
    """Power a^z on the given branch, scaled by the weight of the exponent.

    Branch 0 is the principal value exp(z Log a); branch b shifts the
    logarithm by 2 pi i b.
    """
    a, z = complex(a), complex(z)
    if a == 0:
        raise DomainError("power base must be nonzero")
    return _pow_value(a, z, branch) * mu_eval(ctx, z)


@dataclass(frozen=True)
class PowerForms:
    """The two readings of the weighted power and their disagreement."""

    primary: complex      # p.v.(a^z) * w(z)
    exp_form: complex     # exp(z Log a) * w(z Log a)
    residual: float


def mu_pow_forms(ctx: FieldContext, a: complex, z: complex, branch: int = 0) -> PowerForms:
    """Evaluate both stated forms of the weighted power side by side.

    The forms agree only when w(z Log a) = w(z); the primary form weights by
    the exponent, the alternative weights by the whole product z Log a.
    """
    a, z = complex(a), complex(z)
    if a == 0:
        raise DomainError("power base must be nonzero")
    pv = _pow_value(a, z, branch)
    primary = pv * mu_eval(ctx, z)
    alt = pv * mu_eval(ctx, z * (principal_log(a) + complex(0.0, TWO_PI * branch)))
    return PowerForms(primary, alt, rel_residual(primary, alt))


# ---------------------------------------------------------------------------
# Identity registry
# ---------------------------------------------------------------------------

def _ratio(ctx, z):
    """conj ratio helper: mu_conj(z) / w(z) = plain conjugate."""
    return mu_conj(ctx, z) / mu_eval(ctx, z)


def _check_c1(ctx, ops):
    (z,) = ops
    w1 = mu_eval(ctx, z)
    inner = z.conjugate() * w1
    w2 = mu_eval(ctx, inner)
    lhs = inner.conjugate() * w2
    rhs = (z * w1) * w2
    return _eq_report(ctx, "C1", ops, lhs, rhs)


def _ratio_law(ident, ratio, derive, combine):
    """ratio(derive(z1, z2)) = combine(ratio(z1), ratio(z2)), guarded on the
    weights of z1, z2 and the derived point."""
    def check(ctx, ops):
        z1, z2 = ops
        d = derive(z1, z2)
        ok, why = _weights_ok(ctx, (z1, z2, d))
        if not ok:
            return _unmet(ident, ops, why)
        return _eq_report(ctx, ident, ops, ratio(ctx, d), combine(ratio(ctx, z1), ratio(ctx, z2)))

    return check


_check_c2 = _ratio_law("C2", _ratio, add, add)
_check_c3 = _ratio_law("C3", _ratio, sub, sub)
_check_c4 = _ratio_law("C4", _ratio, mul, mul)


def _check_c5(ctx, ops):
    z1, z2 = ops
    if z2 == 0:
        raise DomainError("C5 needs z2 != 0")
    q = z1 / z2
    ok, why = _weights_ok(ctx, (z1, z2, q))
    if not ok:
        return _unmet("C5", ops, why)
    if abs(mu_conj(ctx, z2)) == 0.0:
        return _unmet("C5", ops, "conjugate of z2 scaled to zero")
    lhs = mu_conj(ctx, q) / mu_eval(ctx, q)
    rhs = (mu_conj(ctx, z1) / mu_conj(ctx, z2)) * (mu_eval(ctx, z2) / mu_eval(ctx, z1))
    return _eq_report(ctx, "C5", ops, lhs, rhs)


def _check_c6(ctx, ops):
    (z,) = ops
    w = mu_eval(ctx, z)
    lhs = z * w + mu_conj(ctx, z)
    rhs = 2.0 * z.real * w
    return _eq_report(ctx, "C6", ops, lhs, rhs)


def _conj_difference(ident):
    """C7: z w(z) - conj_w(z) = 2i Im(z) w(z), which also reports the residual
    of the literal right side 2 Im(z) w(z); C7_literal checks that side."""
    def check(ctx, ops):
        (z,) = ops
        w = mu_eval(ctx, z)
        lhs = z * w - mu_conj(ctx, z)
        literal_rhs = 2.0 * z.imag * w
        if ident == "C7_literal":
            return _eq_report(ctx, ident, ops, lhs, literal_rhs, notes=("literal form, no imaginary unit",))
        return _eq_report(
            ctx, ident, ops, lhs, 2j * z.imag * w,
            notes=("right side carries the imaginary unit; the literal form is also evaluated",),
            literal_residual=rel_residual(lhs, literal_rhs),
        )

    return check


_check_c7 = _conj_difference("C7")
_check_c7_literal = _conj_difference("C7_literal")


def _mod_ratio(ctx, z):
    return mu_abs_c(ctx, z) / mu_eval(ctx, z)


_check_m1 = _ratio_law("M1", _mod_ratio, mul, mul)


def _check_m2(ctx, ops):
    z1, z2 = ops
    s = z1 + z2
    ok, why = _weights_ok(ctx, (z1, z2, s))
    if not ok:
        return _unmet("M2", ops, why)
    return _le_report(ctx, "M2", ops, _mod_ratio(ctx, s), _mod_ratio(ctx, z1) + _mod_ratio(ctx, z2))


def _check_m3(ctx, ops):
    z1, z2 = ops
    if z2 == 0:
        raise DomainError("M3 needs z2 != 0")
    q = z1 / z2
    ok, why = _weights_ok(ctx, (z1, z2, q))
    if not ok:
        return _unmet("M3", ops, why)
    if mu_abs_c(ctx, z2) == 0.0:
        return _unmet("M3", ops, "weighted modulus of z2 is zero")
    lhs = _mod_ratio(ctx, q)
    rhs = (mu_abs_c(ctx, z1) / mu_abs_c(ctx, z2)) * (mu_eval(ctx, z2) / mu_eval(ctx, z1))
    return _eq_report(ctx, "M3", ops, lhs, rhs)


def _check_m4(ctx, ops):
    (z,) = ops
    return _eq_report(ctx, "M4", ops, abs(mu_conj(ctx, z)), abs(z) * mu_eval(ctx, z))


def _check_m5(ctx, ops):
    z1, z2 = ops
    d = z1 - z2
    ok, why = _weights_ok(ctx, (z1, z2, d))
    if not ok:
        return _unmet("M5", ops, why)
    return _le_report(ctx, "M5", ops, _mod_ratio(ctx, z1) - _mod_ratio(ctx, z2), _mod_ratio(ctx, d))


def _check_m6(ctx, ops):
    (z,) = ops
    w = mu_eval(ctx, z)
    m = mu_abs_c(ctx, z)
    worst = max(one_sided_excess(z.real * w, m), one_sided_excess(z.imag * w, m))
    ok = (z.real * w - m) <= ctx.eq_tol and (z.imag * w - m) <= ctx.eq_tol
    return IdentityCheckReport(
        "M6", tuple(ops), m, max(z.real * w, z.imag * w), worst,
        PASS if ok else FAIL, (), {},
    )


def _check_m7(ctx, ops):
    (z,) = ops
    lhs = z * mu_conj(ctx, z)
    rhs = (abs(z) ** 2) * mu_eval(ctx, z)
    return _eq_report(ctx, "M7", ops, lhs, rhs)


def _check_a1(ctx, ops):
    z1, z2 = ops
    if z1 == 0 or z2 == 0:
        raise DomainError("A1 needs nonzero operands")
    p = z1 * z2
    ok, why = _weights_ok(ctx, (z1, z2, p))
    if not ok:
        return _unmet("A1", ops, why)
    k = arg_k(z1, z2).k
    lhs = mu_arg(ctx, p) / mu_eval(ctx, p)
    rhs = mu_arg(ctx, z1) / mu_eval(ctx, z1) + mu_arg(ctx, z2) / mu_eval(ctx, z2) + TWO_PI * k
    return _eq_report(ctx, "A1", ops, lhs, rhs, k=k)


def _exp_ratio(ctx, z):
    return mu_exp(ctx, z) / mu_eval(ctx, z)


_check_e1 = _ratio_law("E1", _exp_ratio, add, mul)


def _check_e2(ctx, ops):
    z1, z2 = ops
    d = z1 - z2
    ok, why = _weights_ok(ctx, (z1, z2, d))
    if not ok:
        return _unmet("E2", ops, why)
    if abs(mu_exp(ctx, z2)) == 0.0:
        return _unmet("E2", ops, "weighted exponential of z2 is zero")
    lhs = mu_exp(ctx, d) / mu_eval(ctx, d)
    rhs = (mu_exp(ctx, z1) / mu_exp(ctx, z2)) * (mu_eval(ctx, z2) / mu_eval(ctx, z1))
    return _eq_report(ctx, "E2", ops, lhs, rhs)


def _check_en1(ctx, ops):
    return _eq_report(ctx, "EN1", ops, mu_exp(ctx, 0.0), 1.0)


def _check_en2(ctx, ops):
    z, n = ops[0], int(ops[1].real)
    nz = n * z
    ok, why = _weights_ok(ctx, (z, nz))
    if not ok:
        return _unmet("EN2", ops, why)
    return _eq_report(ctx, "EN2", ops, _exp_ratio(ctx, z) ** n, _exp_ratio(ctx, nz), n=n)


def _log_correction(lhs, rhs_sum):
    """Nearest integer k with lhs = rhs_sum + 2 pi i k."""
    return int(round((lhs.imag - rhs_sum.imag) / TWO_PI))


def _log_law(ident, derive, combine):
    """Log ratio of derive(z1, z2) = combine of the operands' log ratios,
    up to a reported branch correction k_log in {-1, 0, 1}."""
    def check(ctx, ops):
        z1, z2 = ops
        if z1 == 0 or z2 == 0:
            raise DomainError(f"{ident} needs nonzero operands")
        d = derive(z1, z2)
        ok, why = _weights_ok(ctx, (z1, z2, d))
        if not ok:
            return _unmet(ident, ops, why)
        lhs = mu_log(ctx, d) / mu_eval(ctx, d)
        base = combine(mu_log(ctx, z1) / mu_eval(ctx, z1), mu_log(ctx, z2) / mu_eval(ctx, z2))
        k_log = _log_correction(lhs, base)
        rep = _eq_report(ctx, ident, ops, lhs, base + complex(0.0, TWO_PI * k_log), k_log=k_log)
        if abs(k_log) > 1:
            return IdentityCheckReport(
                rep.identity_id, rep.operands, rep.lhs, rep.rhs, math.inf, FAIL,
                ("branch correction outside {-1, 0, 1}",), rep.details,
            )
        return rep

    return check


_check_l1 = _log_law("L1", mul, add)
_check_l2 = _log_law("L2", truediv, sub)


def _pv_ratio(ctx, a, z):
    return mu_pow(ctx, a, z) / mu_eval(ctx, z)


def _power_law(ident):
    """P1: power ratios multiply, a^(z1 + z2) = a^z1 a^z2, which also reports
    the residual of the additive rendering; P1_additive checks that one."""
    def check(ctx, ops):
        a, z1, z2 = ops
        if a == 0:
            raise DomainError(f"{ident} needs a != 0")
        s = z1 + z2
        ok, why = _weights_ok(ctx, (z1, z2, s))
        if not ok:
            return _unmet(ident, ops, why)
        lhs = _pv_ratio(ctx, a, s)
        r1, r2 = _pv_ratio(ctx, a, z1), _pv_ratio(ctx, a, z2)
        if ident == "P1_additive":
            return _eq_report(ctx, ident, ops, lhs, r1 + r2, notes=("literal additive form",))
        return _eq_report(
            ctx, ident, ops, lhs, r1 * r2,
            notes=("multiplicative form; the additive rendering is also evaluated",),
            additive_residual=rel_residual(lhs, r1 + r2),
        )

    return check


_check_p1 = _power_law("P1")
_check_p1_additive = _power_law("P1_additive")


def _check_p2(ctx, ops):
    a, b, z = ops
    if a == 0 or b == 0:
        raise DomainError("P2 needs nonzero bases")
    k = arg_k(a, b).k
    if k != 0:
        return _unmet("P2", ops, "argument sum leaves the principal branch", k=k)
    w = mu_eval(ctx, z)
    lhs = mu_pow(ctx, a * b, z) * w
    rhs = mu_pow(ctx, a, z) * mu_pow(ctx, b, z)
    return _eq_report(ctx, "P2", ops, lhs, rhs, k=k)


COMPLEX_IDENTITIES = {
    "C1": ("double conjugation lands on z w(z) w(conj_w z)", 1, _check_c1),
    "C2": ("conjugate ratios add", 2, _check_c2),
    "C3": ("conjugate ratios subtract", 2, _check_c3),
    "C4": ("conjugate ratios multiply", 2, _check_c4),
    "C5": ("conjugate ratios divide", 2, _check_c5),
    "C6": ("z w(z) + conj_w(z) = 2 Re(z) w(z)", 1, _check_c6),
    "C7": ("z w(z) - conj_w(z) = 2i Im(z) w(z), corrected", 1, _check_c7),
    "C7_literal": ("literal difference form without the imaginary unit", 1, _check_c7_literal),
    "M1": ("modulus ratios multiply", 2, _check_m1),
    "M2": ("triangle inequality in ratio form", 2, _check_m2),
    "M3": ("modulus ratios divide", 2, _check_m3),
    "M4": ("modulus of the weighted conjugate", 1, _check_m4),
    "M5": ("reverse triangle inequality in ratio form", 2, _check_m5),
    "M6": ("weighted modulus dominates weighted Re and Im", 1, _check_m6),
    "M7": ("z times its weighted conjugate is |z|^2 w(z)", 1, _check_m7),
    "A1": ("argument ratios add up to the branch correction", 2, _check_a1),
    "E1": ("exponential ratios multiply", 2, _check_e1),
    "E2": ("exponential ratios divide", 2, _check_e2),
    "EN1": ("weighted exponential of 0 is 1", 0, _check_en1),
    "EN2": ("integer powers of the exponential ratio", 2, _check_en2),
    "L1": ("log ratios add up to a reported branch correction", 2, _check_l1),
    "L2": ("log ratios subtract up to a reported branch correction", 2, _check_l2),
    "P1": ("power ratios multiply (corrected); additive residual reported", 3, _check_p1),
    "P1_additive": ("literal additive power law", 3, _check_p1_additive),
    "P2": ("common-exponent product law on the principal branch", 3, _check_p2),
}


def check_complex_identity(ctx: FieldContext, ident: str, operands) -> IdentityCheckReport:
    """Evaluate one registry identity on the given complex operands."""
    if ident not in COMPLEX_IDENTITIES:
        raise UsageError(f"unknown complex identity {ident!r}; known: {sorted(COMPLEX_IDENTITIES)}")
    _, arity, fn = COMPLEX_IDENTITIES[ident]
    ops = tuple(complex(v) for v in operands)
    for v in ops:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError(f"operand {v!r} is not finite")
    if len(ops) != arity:
        raise UsageError(f"identity {ident} takes {arity} operand(s), got {len(ops)}")
    return fn(ctx, ops)
