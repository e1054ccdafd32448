import cmath
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
    PointMatcher,
    RangeGuardError,
    UsageError,
    arg_k,
    check_complex_identity,
    crisp,
    mu_abs_c,
    mu_arg,
    mu_conj,
    mu_exp,
    mu_log,
    mu_pow,
    mu_pow_forms,
    principal_arg,
)
from mufield.real_field import FAIL, PASS, UNMET

BIG = complex(1.5e308, 1.5e308)


def point_mu(table, default=1.0):
    return MembershipFunction([MuRule(PointMatcher(k, 1e-12), w) for k, w in table.items()], default)


def cx(rng, lo=1e-3, hi=1e3):
    r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    th = rng.uniform(-math.pi, math.pi)
    return complex(r * math.cos(th), r * math.sin(th))


class TestOperations:
    def test_conj_scaled(self):
        ctx = FieldContext(mu=point_mu({3 + 4j: 0.5}))
        assert mu_conj(ctx, 3 + 4j) == 1.5 - 2j

    def test_conj_crisp(self):
        ctx = FieldContext()
        assert mu_conj(ctx, 2 - 5j) == 2 + 5j

    def test_abs_scaled(self):
        ctx = FieldContext(mu=point_mu({3 + 4j: 0.2}))
        assert mu_abs_c(ctx, 3 + 4j) == pytest.approx(1.0, rel=1e-15)
        assert mu_abs_c(ctx, 0j) == 0.0

    def test_arg_scaled_and_branch(self):
        ctx = FieldContext(mu=point_mu({-1 + 0j: 0.5}))
        assert mu_arg(ctx, -1 + 0j) == pytest.approx(math.pi / 2, rel=1e-15)
        assert mu_arg(FieldContext(), 1 + 0j) == 0.0

    def test_negative_real_axis_uses_plus_pi(self):
        # a signed-zero imaginary part still lands on the +pi branch
        assert principal_arg(complex(-1.0, -0.0)) == math.pi
        assert principal_arg(complex(-1.0, 0.0)) == math.pi

    def test_just_below_the_negative_real_axis_is_plus_pi(self):
        # atan2 rounds -pi + 1e-17 to -pi, outside (-pi, pi]
        assert principal_arg(-1 - 1e-17j) == math.pi
        ctx = FieldContext()
        assert check_complex_identity(ctx, "A1", [-1 - 1e-17j, 1 + 0j]).verdict == PASS  # was k = 1, residual 2
        assert check_complex_identity(ctx, "P2", [-1 - 1e-17j, 1 + 0j, 0.5 + 0j]).verdict == PASS  # was unmet

    def test_arg_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            mu_arg(FieldContext(), 0j)

    def test_exp(self):
        ctx = FieldContext()
        assert mu_exp(ctx, 0j) == 1.0
        assert mu_exp(ctx, 1j * math.pi) == pytest.approx(-1.0, abs=1e-15)
        half = FieldContext(mu=point_mu({1 + 0j: 0.5}))
        assert mu_exp(half, 1 + 0j) == pytest.approx(math.e / 2, rel=1e-15)

    def test_exp_overflow_guard(self):
        with pytest.raises(RangeGuardError):
            mu_exp(FieldContext(), 800 + 0j)

    @pytest.mark.parametrize("z", [complex(0, math.inf), complex(0, -math.inf), complex(0, math.nan),
                                   complex(math.nan, 0)])
    def test_exp_refuses_a_non_finite_z_as_log_does(self, z):
        for op in (mu_exp, mu_log):
            with pytest.raises(DomainError, match="value must be finite"):
                op(FieldContext(), z)

    def test_log(self):
        ctx = FieldContext()
        assert mu_log(ctx, complex(math.e)) == pytest.approx(1.0, rel=1e-15)
        assert mu_log(ctx, 1 + 0j) == 0.0
        half = FieldContext(mu=point_mu({-1 + 0j: 0.5}))
        assert mu_log(half, -1 + 0j) == pytest.approx(1j * math.pi / 2, rel=1e-15)
        with pytest.raises(DomainError):
            mu_log(ctx, 0j)

    def test_pow(self):
        ctx = FieldContext()
        assert mu_pow(ctx, complex(math.e), 2 + 0j) == pytest.approx(math.e**2, rel=1e-14)
        half = FieldContext(mu=point_mu({0.5 + 0j: 0.5}))
        assert mu_pow(half, 4 + 0j, 0.5 + 0j) == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(DomainError):
            mu_pow(ctx, 0j, 1 + 0j)

    def test_pow_nonprincipal_branch(self):
        ctx = FieldContext()
        got = mu_pow(ctx, 1 + 0j, 1j, branch=1)
        assert got == pytest.approx(math.exp(-2 * math.pi), rel=1e-12)

    def test_pow_forms_residual(self):
        # base e^2 puts the exponent at 2 but the product z log a at 4, so the
        # two readings pick up different weights
        mu = point_mu({2 + 0j: 0.5}, default=1.0)
        ctx = FieldContext(mu=mu)
        forms = mu_pow_forms(ctx, complex(math.e**2), 2 + 0j)
        assert forms.primary == pytest.approx(0.5 * math.e**4, rel=1e-13)
        assert forms.exp_form == pytest.approx(math.e**4, rel=1e-13)
        assert forms.residual > 0.1
        crisp_forms = mu_pow_forms(FieldContext(), complex(math.e**2), 2 + 0j)
        assert crisp_forms.residual == 0.0

    # a finite operand whose modulus is past the float range, as the CLI reads --z 1.5e308,1.5e308
    @pytest.mark.parametrize("evaluate", [
        lambda ctx: mu_abs_c(ctx, BIG),
        lambda ctx: mu_log(ctx, BIG),
        lambda ctx: mu_pow(ctx, BIG, 1 + 0j),
        lambda ctx: mu_pow_forms(ctx, BIG, 1 + 0j),
    ], ids=["mu_abs_c", "mu_log", "mu_pow", "mu_pow_forms"])
    def test_a_modulus_past_the_float_range_is_a_domain_error(self, evaluate):
        with pytest.raises(DomainError, match=re.escape(repr(BIG))):
            evaluate(FieldContext())

    # a check whose modulus or squared modulus of a finite value is past the float range
    @pytest.mark.parametrize("ident, z", [("M7", 1e200), ("M4", BIG), ("C1", BIG)])
    def test_a_check_past_the_float_range_is_a_domain_error(self, ident, z):
        with pytest.raises(DomainError, match="past the float range"):
            check_complex_identity(FieldContext(), ident, [z])

    # z w(z) +- conj_w(z) overflows in complex arithmetic before any modulus is taken
    @pytest.mark.parametrize("ident", ["C6", "C7", "C7_literal"])
    @pytest.mark.parametrize("mu", [None, {BIG: 1.0, BIG.conjugate(): 1.0}], ids=["crisp", "point_table"])
    def test_a_conjugate_sum_past_the_float_range_is_a_domain_error(self, ident, mu):
        ctx = FieldContext() if mu is None else FieldContext(mu=point_mu(mu, default=0.5))
        with pytest.raises(DomainError, match=re.escape(f"{ident} at {BIG!r}") + ".*past the float range"):
            check_complex_identity(ctx, ident, [BIG])

    @pytest.mark.parametrize("evaluate", [mu_pow, mu_pow_forms], ids=["mu_pow", "mu_pow_forms"])
    def test_a_branch_past_the_float_range_is_a_domain_error(self, evaluate):
        with pytest.raises(DomainError, match="branch"):
            evaluate(FieldContext(), 2 + 0j, 1 + 0j, branch=10**400)

    # z Log a = 1e308 pi i is 0 + inf i: its real part is within the guard, and cmath.exp raised a ValueError
    @pytest.mark.parametrize("evaluate", [
        lambda ctx: mu_pow(ctx, -1 + 0j, 1e308 + 0j),
        lambda ctx: mu_pow_forms(ctx, -1 + 0j, 1e308 + 0j),
        lambda ctx: check_complex_identity(ctx, "P1", [-1 + 0j, 1e308 + 0j, 0j]),
        lambda ctx: check_complex_identity(ctx, "P1_additive", [-1 + 0j, 1e308 + 0j, 0j]),
    ], ids=["mu_pow", "mu_pow_forms", "P1", "P1_additive"])
    def test_an_exponent_past_the_float_range_is_a_range_guard_error(self, evaluate):
        with pytest.raises(RangeGuardError, match=re.escape("z log a = infj is not finite")):
            evaluate(FieldContext())


class TestArgK:
    def test_negative_reals(self):
        assert arg_k(-1 + 0j, -1 + 0j) == -1

    def test_positive_reals(self):
        assert arg_k(1 + 0j, 1 + 0j) == 0

    def test_negative_imaginaries(self):
        assert arg_k(-1j, -1j) == 1
        # product is -1 whose argument is +pi = -pi/2 - pi/2 + 2 pi
        s = principal_arg(-1j) + principal_arg(-1j) + 2 * math.pi * arg_k(-1j, -1j)
        assert s == pytest.approx(principal_arg((-1j) * (-1j)), abs=1e-12)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_branch_identity(self, seed):
        rng = random.Random(seed)
        z1, z2 = cx(rng), cx(rng)
        k = arg_k(z1, z2)
        lhs = principal_arg(z1 * z2)
        rhs = principal_arg(z1) + principal_arg(z2) + 2 * math.pi * k
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            arg_k(0j, 1 + 0j)


class TestIdentityExamples:
    def test_c6(self):
        ctx = FieldContext(mu=point_mu({3 + 4j: 0.5}))
        rep = check_complex_identity(ctx, "C6", [3 + 4j])
        assert rep.verdict == PASS
        assert rep.lhs == pytest.approx(3.0)

    def test_c7_corrected_vs_literal(self):
        ctx = FieldContext()
        assert check_complex_identity(ctx, "C7", [1j]).verdict == PASS
        rep = check_complex_identity(ctx, "C7_literal", [1j])
        assert rep.verdict == FAIL
        corrected = check_complex_identity(ctx, "C7", [1j])
        assert corrected.details["literal_residual"] > 1.0

    def test_m1_ratios_cancel(self):
        ctx = FieldContext(
            mu=point_mu({1 + 1j: 0.3, 2 + 0j: 0.7, 2 + 2j: 0.9})
        )
        rep = check_complex_identity(ctx, "M1", [1 + 1j, 2 + 0j])
        assert rep.verdict == PASS
        assert rep.lhs == pytest.approx(2 * math.sqrt(2), rel=1e-12)

    def test_a1_negative_reals(self):
        ctx = FieldContext()
        rep = check_complex_identity(ctx, "A1", [-1 + 0j, -1 + 0j])
        assert rep.verdict == PASS
        assert rep.details["k"] == -1
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)

    def test_l1_branch_correction_reported(self):
        ctx = FieldContext()
        rep = check_complex_identity(ctx, "L1", [-1 + 0j, -1 + 0j])
        assert rep.verdict == PASS
        assert rep.details["k_log"] == -1
        assert rep.residual < 1e-12

    def test_en1(self):
        assert check_complex_identity(FieldContext(), "EN1", []).verdict == PASS
        broken = FieldContext(mu=point_mu({0j: 0.9}))
        assert check_complex_identity(broken, "EN1", []).verdict == FAIL

    def test_en2_all_n(self):
        ctx = FieldContext()
        for n in range(-5, 6):
            rep = check_complex_identity(ctx, "EN2", [0.7 + 0.4j, complex(n)])
            assert rep.verdict == PASS
            assert rep.residual < 1e-9

    def test_p1_multiplicative_with_additive_residual(self):
        ctx = FieldContext()
        rep = check_complex_identity(ctx, "P1", [complex(math.e), 1 + 0j, 1 + 0j])
        assert rep.verdict == PASS
        assert rep.details["additive_residual"] > 0.1
        literal = check_complex_identity(ctx, "P1_additive", [complex(math.e), 1 + 0j, 1 + 0j])
        assert literal.verdict == FAIL

    def test_p2_requires_principal_branch(self):
        ctx = FieldContext()
        ok = check_complex_identity(ctx, "P2", [1 + 1j, 1 - 1j, 0.5 + 0j])
        assert ok.verdict == PASS
        off = check_complex_identity(ctx, "P2", [-1 + 0.1j, -1 + 0.1j, 0.5 + 0j])
        assert off.verdict == UNMET

    def test_m6_bounds(self):
        ctx = FieldContext(mu=point_mu({-2 - 3j: 0.4}))
        assert check_complex_identity(ctx, "M6", [-2 - 3j]).verdict == PASS

    def test_guards(self):
        ctx = FieldContext(mu=point_mu({2 + 2j: 0.0}))
        rep = check_complex_identity(ctx, "M1", [1 + 1j, 2 + 0j])
        assert rep.verdict == UNMET
        with pytest.raises(UsageError):
            check_complex_identity(ctx, "Z9", [1j])
        with pytest.raises(UsageError):
            check_complex_identity(ctx, "M1", [1j])
        with pytest.raises(DomainError):
            check_complex_identity(ctx, "A1", [0j, 1 + 0j])
        # the division laws refuse z2 = 0; the exponential quotient law evaluates there
        for ident in ("C5", "M3"):
            with pytest.raises(DomainError, match=f"{ident} needs z2 != 0"):
                check_complex_identity(ctx, ident, [1 + 1j, 0j])
        assert check_complex_identity(FieldContext(), "E2", [0.5 + 1j, 0j]).verdict == PASS


@settings(max_examples=80)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_double_conjugation_exact_for_any_weights(seed, w1, w2):
    rng = random.Random(seed)
    z = cx(rng)
    inner = z.conjugate() * w1
    mu = point_mu({z: w1, inner: w2}, default=0.33)
    ctx = FieldContext(mu=mu)
    rep = check_complex_identity(ctx, "C1", [z])
    assert rep.verdict == PASS
    assert rep.residual < 1e-12


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_crisp_reduction_of_all_operations(seed):
    rng = random.Random(seed)
    ctx = FieldContext(mu=crisp())
    z = cx(rng)
    assert mu_conj(ctx, z) == z.conjugate()
    assert mu_abs_c(ctx, z) == abs(z)
    assert mu_arg(ctx, z) == pytest.approx(cmath.phase(z), abs=1e-15)
    w = cx(rng, 1e-2, 3.0)
    assert cmath.isclose(mu_exp(ctx, w), cmath.exp(w), rel_tol=1e-12)
    assert cmath.isclose(mu_log(ctx, z), cmath.log(z), rel_tol=1e-12, abs_tol=1e-12)
    a = cx(rng, 0.1, 10.0)
    assert cmath.isclose(mu_pow(ctx, a, w), cmath.exp(w * cmath.log(a)), rel_tol=1e-12)
