import math
import random

import pytest

from mufield import FieldContext, UsageError, crisp, registry, run_identity_sweep
from mufield.errors import ValidationError
from mufield.real_field import PASS, UNMET
from mufield.registry import DEFAULT_SWEEP_IDS, LITERAL_VARIANTS, REGISTRY, check_identity, table_membership


def test_registry_covers_both_domains():
    reals = {i for i, e in REGISTRY.items() if e.domain == "real"}
    complexes = {i for i, e in REGISTRY.items() if e.domain == "complex"}
    assert {"O1", "O8", "R1", "R5b", "S1"} <= reals
    assert {"C1", "C7", "M7", "A1", "EN2", "L2", "P2"} <= complexes
    assert set(LITERAL_VARIANTS.values()) == {"C7_literal", "P1_additive"}
    assert not set(LITERAL_VARIANTS.values()) & set(DEFAULT_SWEEP_IDS)


def test_sweep_is_clean_and_exercised():
    outcomes = run_identity_sweep(trials=150, seed=11)
    assert len(outcomes) == len(DEFAULT_SWEEP_IDS)
    for o in outcomes:
        assert o.failed == 0, f"{o.ident}: {o.first_failure}"
        assert o.passed > 0, f"{o.ident} never actually ran"
        assert o.max_residual < 1e-9, f"{o.ident} residual {o.max_residual}"


def test_zero_weights_land_in_unmet_not_failure():
    outcomes = run_identity_sweep(["R3", "M1", "E1"], trials=200, seed=4, zero_rate=1.0)
    for o in outcomes:
        assert o.failed == 0
        assert o.passed == 0
        assert o.unmet == o.trials


def test_some_unmet_at_default_zero_rate():
    (out,) = run_identity_sweep(["R3"], trials=300, seed=5)
    assert out.unmet > 0 and out.passed > 0


def test_literal_variants_fail():
    for ident in ("C7_literal", "P1_additive"):
        (out,) = run_identity_sweep([ident], trials=40, seed=2)
        assert out.failed > 0
        assert out.first_failure is not None


def test_sweep_is_deterministic():
    a = run_identity_sweep(["C4", "L1"], trials=60, seed=9)
    b = run_identity_sweep(["C4", "L1"], trials=60, seed=9)
    assert [(o.passed, o.failed, o.unmet, o.max_residual) for o in a] == [
        (o.passed, o.failed, o.unmet, o.max_residual) for o in b
    ]


def test_fixed_mu_mode_uses_the_given_weighting():
    # identity weighting: every ratio check degenerates to its classical form
    outcomes = run_identity_sweep(["R3", "M1", "E1", "L1"], trials=50, seed=3, mu=crisp())
    for o in outcomes:
        assert o.failed == 0
        assert o.unmet == 0
        assert o.passed == o.trials


def test_unknown_identity_rejected():
    with pytest.raises(UsageError):
        run_identity_sweep(["NOPE"], trials=1)


def test_an_unknown_identity_is_refused_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(registry, "check_identity", lambda *args: calls.append(args))
    with pytest.raises(UsageError, match="unknown identity 'NOPE'"):
        run_identity_sweep(["O1", "NOPE"], trials=10**6)
    assert calls == []


def test_an_inequality_off_by_an_ulp_passes_a_tight_tol():
    # R4's sums land one ulp apart at magnitudes near 465: an absolute gap of 5.7e-14,
    # a relative excess of 1.2e-16, which is what the report shows and what decides
    (out,) = run_identity_sweep(["R4"], trials=400, seed=7, eq_tol=1e-14)
    assert out.failed == 0, out.first_failure
    assert out.passed == 309 and out.unmet == 91


@pytest.mark.parametrize("eq_tol", [1e-9, 1e-12, 1e-14, 1e-16])
def test_a_verdict_is_its_residual_within_eq_tol(eq_tol):
    """Drawn as the sweep draws at seed 7: every registry id, a point table for each trial."""
    for ident, entry in REGISTRY.items():
        rng = random.Random(f"7:{ident}")
        for _ in range(400):
            operands = entry.sample(rng)
            ctx = FieldContext(table_membership(entry.point_groups(operands), rng, 0.08), eq_tol)
            rep = check_identity(ctx, ident, operands)
            if rep.verdict != UNMET:
                assert (rep.verdict == PASS) == (rep.residual <= eq_tol), rep


@pytest.mark.parametrize("trials", [0, -3, 2.5, True, "x", None])
def test_a_trial_count_that_checks_nothing_is_refused(trials):
    # 0 and -3 returned clean outcomes of no trial, 2.5 a raw TypeError, True one trial
    with pytest.raises(ValidationError, match="trials"):
        run_identity_sweep(["O1"], trials=trials)


@pytest.mark.parametrize("zero_rate", [math.nan, math.inf, -0.1, 1.5, "x"])
def test_a_zero_rate_outside_zero_to_one_is_refused(zero_rate):
    # a NaN rate turned the zero-weight injection off: rng.random() < nan is never true
    with pytest.raises(ValidationError, match="zero_rate"):
        run_identity_sweep(["O1"], trials=5, zero_rate=zero_rate)


def test_a_trial_count_given_as_an_integral_number_is_read_as_an_integer():
    assert run_identity_sweep(["R3"], trials=40.0, seed=5) == run_identity_sweep(["R3"], trials=40, seed=5)
