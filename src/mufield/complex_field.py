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

Each law shape has one factory: real_field._ratio_law builds C2..C4, M1, M2
and E1, _quotient_law builds C5, M3 and E2, and _log_law builds L1/L2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import add, mul, sub, truediv

from .errors import DomainError, RangeGuardError, UsageError, number, operand
from .membership import FieldContext, mu_eval
from .real_field import (
    IdentityCheckReport,
    _dispatch,
    _eq_report,
    _le_report,
    _modulus,
    _ratio_law,
    _unmet,
    _weights_ok,
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
    """Argument in (-pi, pi]; exactly pi on the negative real axis. Just below the
    axis atan2 rounds the argument to -pi, which is read as pi."""
    z = _norm(operand(z, "z", complex))
    if z == 0:
        raise DomainError("argument undefined at 0")
    arg = math.atan2(z.imag, z.real)
    return math.pi if arg == -math.pi else arg


def mu_conj(ctx: FieldContext, z: complex) -> complex:
    """Conjugate scaled by the weight of z."""
    z = operand(z, "z", complex)
    return z.conjugate() * mu_eval(ctx, z)


def mu_abs_c(ctx: FieldContext, z: complex) -> float:
    """Modulus scaled by the weight of z."""
    z = operand(z, "z", complex)
    return _modulus(z) * mu_eval(ctx, z)


def mu_arg(ctx: FieldContext, z: complex) -> float:
    """Principal argument scaled by the weight of z; undefined at 0."""
    z = operand(z, "z", complex)
    return principal_arg(z) * mu_eval(ctx, z)


def arg_k(z1: complex, z2: complex) -> int:
    """The integer k in {-1, 0, 1} with Arg(z1 z2) = Arg z1 + Arg z2 + 2 k pi."""
    s = principal_arg(z1) + principal_arg(z2)
    if s > math.pi:
        return -1
    if s <= -math.pi:
        return 1
    return 0


def mu_exp(ctx: FieldContext, z: complex) -> complex:
    """Exponential scaled by the weight of z, guarded against overflow."""
    z = operand(z, "z", complex)
    if abs(z.real) > EXP_RE_CAP:
        raise RangeGuardError(f"|Re z| = {abs(z.real)} exceeds the overflow guard {EXP_RE_CAP}")
    w = mu_eval(ctx, z)  # refuses a non-finite z, which cmath.exp would raise a ValueError on
    return cmath.exp(z) * w


def principal_log(z: complex) -> complex:
    z = _norm(operand(z, "z", complex))
    if z == 0:
        raise DomainError("logarithm undefined at 0")
    return complex(math.log(_modulus(z)), principal_arg(z))


def mu_log(ctx: FieldContext, z: complex) -> complex:
    """Principal logarithm scaled by the weight of z; undefined at 0."""
    z = operand(z, "z", complex)
    return principal_log(z) * mu_eval(ctx, z)


def _exponent(a: complex, z: complex, branch: int) -> complex:
    """w = z (Log a + 2 pi i branch), whose exp is a^z on that branch; refused unless
    it is finite, which cmath.exp needs, and its real part is within the overflow guard."""
    branch = number(branch, "branch", int, UsageError)
    if a == 0:
        raise DomainError("power base must be nonzero")
    try:
        shift = TWO_PI * branch
    except OverflowError:  # an int past the float range
        raise DomainError("the branch is past the float range") from None
    w = z * (principal_log(a) + complex(0.0, shift))
    if abs(w.real) > EXP_RE_CAP:
        raise RangeGuardError(f"|Re(z log a)| = {abs(w.real)} exceeds the overflow guard {EXP_RE_CAP}")
    if not cmath.isfinite(w):
        raise RangeGuardError(f"z log a = {w!r} is not finite")
    return w


def mu_pow(ctx: FieldContext, a: complex, z: complex, branch: int = 0) -> complex:
    """Power a^z on the given branch, scaled by the weight of the exponent.

    Branch 0 is the principal value exp(z Log a); branch b shifts the
    logarithm by 2 pi i b.
    """
    a, z = operand(a, "base", complex), operand(z, "exponent", complex)
    return cmath.exp(_exponent(a, z, branch)) * mu_eval(ctx, z)


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
    a, z = operand(a, "base", complex), operand(z, "exponent", complex)
    w = _exponent(a, z, branch)
    pv = cmath.exp(w)
    primary = pv * mu_eval(ctx, z)
    alt = pv * mu_eval(ctx, w)
    return PowerForms(primary, alt, rel_residual(primary, alt))


# ---------------------------------------------------------------------------
# Identity registry
# ---------------------------------------------------------------------------

def _conj_ratio(ctx, z):
    """mu_conj(z) / w(z), the plain conjugate."""
    return mu_conj(ctx, z) / mu_eval(ctx, z)


def _check_c1(ctx, ops):
    (z,) = ops
    w1 = mu_eval(ctx, z)
    inner = z.conjugate() * w1
    w2 = mu_eval(ctx, inner)
    lhs = inner.conjugate() * w2
    rhs = (z * w1) * w2
    return _eq_report(ctx, "C1", ops, lhs, rhs)


def _quotient_law(ident, f, derive, zero_note):
    """f(d) / w(d) = (f(z1) / f(z2)) (w(z2) / w(z1)) for d = derive(z1, z2),
    guarded on the weights of z1, z2 and d, and on f(z2) != 0 (zero_note).
    A division law at z2 = 0 is a DomainError."""
    def check(ctx, ops):
        z1, z2 = ops
        try:
            d = derive(z1, z2)
        except ZeroDivisionError:
            raise DomainError(f"{ident} needs z2 != 0") from None
        ok, why = _weights_ok(ctx, (z1, z2, d))
        if not ok:
            return _unmet(ident, ops, why)
        if _modulus(f(ctx, z2)) == 0.0:
            return _unmet(ident, ops, zero_note)
        lhs = f(ctx, d) / mu_eval(ctx, d)
        rhs = (f(ctx, z1) / f(ctx, z2)) * (mu_eval(ctx, z2) / mu_eval(ctx, z1))
        return _eq_report(ctx, ident, ops, lhs, rhs)

    return check


def _in_range(ident, z, *sides):
    """The sides of ident at z; a DomainError naming z when one is past the float range,
    as z w(z) +- conj_w(z) may be for a finite z."""
    if not all(map(cmath.isfinite, sides)):
        raise DomainError(f"{ident} at {z!r}: a side is past the float range")
    return sides


def _check_c6(ctx, ops):
    (z,) = ops
    w = mu_eval(ctx, z)
    lhs, rhs = _in_range("C6", z, z * w + mu_conj(ctx, z), 2.0 * z.real * w)
    return _eq_report(ctx, "C6", ops, lhs, rhs)


def _conj_difference(ident):
    """C7: z w(z) - conj_w(z) = 2i Im(z) w(z), which also reports the residual
    of the literal right side 2 Im(z) w(z); C7_literal checks that side."""
    def check(ctx, ops):
        (z,) = ops
        w = mu_eval(ctx, z)
        lhs, literal_rhs = _in_range(ident, z, z * w - mu_conj(ctx, z), 2.0 * z.imag * w)
        if ident == "C7_literal":
            return _eq_report(ctx, ident, ops, lhs, literal_rhs, notes=("literal form, no imaginary unit",))
        return _eq_report(
            ctx, ident, ops, lhs, 2j * z.imag * w,
            notes=("right side carries the imaginary unit; the literal form is also evaluated",),
            literal_residual=rel_residual(lhs, literal_rhs),
        )

    return check


def _mod_ratio(ctx, z):
    return mu_abs_c(ctx, z) / mu_eval(ctx, z)


def _check_m4(ctx, ops):
    (z,) = ops
    return _eq_report(ctx, "M4", ops, _modulus(mu_conj(ctx, z)), _modulus(z) * mu_eval(ctx, z))


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
    x, y = z.real * w, z.imag * w
    return _le_report(ctx, "M6", ops, m, max(x, y), pairs=((x, m), (y, m)))


def _check_m7(ctx, ops):
    (z,) = ops
    lhs = z * mu_conj(ctx, z)
    rhs = _modulus(z, squared=True) * mu_eval(ctx, z)
    return _eq_report(ctx, "M7", ops, lhs, rhs)


def _check_a1(ctx, ops):
    z1, z2 = ops
    if z1 == 0 or z2 == 0:
        raise DomainError("A1 needs nonzero operands")
    p = z1 * z2
    ok, why = _weights_ok(ctx, (z1, z2, p))
    if not ok:
        return _unmet("A1", ops, why)
    k = arg_k(z1, z2)
    lhs = mu_arg(ctx, p) / mu_eval(ctx, p)
    rhs = mu_arg(ctx, z1) / mu_eval(ctx, z1) + mu_arg(ctx, z2) / mu_eval(ctx, z2) + TWO_PI * k
    return _eq_report(ctx, "A1", ops, lhs, rhs, k=k)


def _exp_ratio(ctx, z):
    return mu_exp(ctx, z) / mu_eval(ctx, z)


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
    up to a reported branch correction k_log. Each log ratio w(z) Log z / w(z)
    is Log z to within an ulp, and arg(z1 z2) - (arg z1 + arg z2), like
    arg(z1 / z2) - (arg z1 - arg z2), is a multiple of 2 pi in (-3 pi, 3 pi),
    so k_log is -1, 0 or 1."""
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
        return _eq_report(ctx, ident, ops, lhs, base + complex(0.0, TWO_PI * k_log), k_log=k_log)

    return check


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


def _check_p2(ctx, ops):
    a, b, z = ops
    if a == 0 or b == 0:
        raise DomainError("P2 needs nonzero bases")
    k = arg_k(a, b)
    if k != 0:
        return _unmet("P2", ops, "argument sum leaves the principal branch", k=k)
    w = mu_eval(ctx, z)
    lhs = mu_pow(ctx, a * b, z) * w
    rhs = mu_pow(ctx, a, z) * mu_pow(ctx, b, z)
    return _eq_report(ctx, "P2", ops, lhs, rhs, k=k)


COMPLEX_IDENTITIES = {
    "C1": ("double conjugation lands on z w(z) w(conj_w z)", 1, _check_c1),
    "C2": ("conjugate ratios add", 2, _ratio_law("C2", _conj_ratio, add, add)),
    "C3": ("conjugate ratios subtract", 2, _ratio_law("C3", _conj_ratio, sub, sub)),
    "C4": ("conjugate ratios multiply", 2, _ratio_law("C4", _conj_ratio, mul, mul)),
    "C5": ("conjugate ratios divide", 2, _quotient_law("C5", mu_conj, truediv, "conjugate of z2 scaled to zero")),
    "C6": ("z w(z) + conj_w(z) = 2 Re(z) w(z)", 1, _check_c6),
    "C7": ("z w(z) - conj_w(z) = 2i Im(z) w(z), corrected", 1, _conj_difference("C7")),
    "C7_literal": ("literal difference form without the imaginary unit", 1, _conj_difference("C7_literal")),
    "M1": ("modulus ratios multiply", 2, _ratio_law("M1", _mod_ratio, mul, mul)),
    "M2": ("triangle inequality in ratio form", 2, _ratio_law("M2", _mod_ratio, add, add, _le_report)),
    "M3": ("modulus ratios divide", 2, _quotient_law("M3", mu_abs_c, truediv, "weighted modulus of z2 is zero")),
    "M4": ("modulus of the weighted conjugate", 1, _check_m4),
    "M5": ("reverse triangle inequality in ratio form", 2, _check_m5),
    "M6": ("weighted modulus dominates weighted Re and Im", 1, _check_m6),
    "M7": ("z times its weighted conjugate is |z|^2 w(z)", 1, _check_m7),
    "A1": ("argument ratios add up to the branch correction", 2, _check_a1),
    "E1": ("exponential ratios multiply", 2, _ratio_law("E1", _exp_ratio, add, mul)),
    "E2": ("exponential ratios divide", 2, _quotient_law("E2", mu_exp, sub, "weighted exponential of z2 is zero")),
    "EN1": ("weighted exponential of 0 is 1", 0, _check_en1),
    "EN2": ("integer powers of the exponential ratio", 2, _check_en2),
    "L1": ("log ratios add up to a reported branch correction", 2, _log_law("L1", mul, add)),
    "L2": ("log ratios subtract up to a reported branch correction", 2, _log_law("L2", truediv, sub)),
    "P1": ("power ratios multiply (corrected); additive residual reported", 3, _power_law("P1")),
    "P1_additive": ("literal additive power law", 3, _power_law("P1_additive")),
    "P2": ("common-exponent product law on the principal branch", 3, _check_p2),
}


def check_complex_identity(ctx: FieldContext, ident: str, operands) -> IdentityCheckReport:
    """Evaluate one registry identity on the given complex operands."""
    return _dispatch(ctx, ident, operands, "complex", COMPLEX_IDENTITIES, complex)
