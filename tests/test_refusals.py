"""Every refusal the library states is reached, with its exception type and message.

One row per refusal: the call, the exception it raises (or UNMET, for an
identity whose precondition does not hold) and the message or note it must
carry. Each of these was reached by no other test.
"""

import re

import pytest

from mufield import (
    DomainError,
    ExperimentSpec,
    FamilyMatcher,
    FieldContext,
    MembershipFunction,
    MuRule,
    MuSummary,
    PointMatcher,
    RangeGuardError,
    SequenceSpec,
    SetMatcher,
    SpecError,
    UsageError,
    ValidationError,
    ValueForm,
    WeightForm,
    check_complex_identity,
    check_identity,
    check_monotone,
    check_real_identity,
    check_sup_characterization,
    load_mu_spec,
    mu_pow,
    mu_pow_forms,
    run_experiment,
    scaled_deviation,
)
from mufield.forms import parse_weight_form
from mufield.real_field import UNMET

CTX = FieldContext()
SEQ = SequenceSpec("sq_ratio", {}, 1, 10)
EXP = ExperimentSpec(sequence=SEQ, candidates=(("self", 1.0),), horizon=10)


def point_mu(table, default=1.0):
    return MembershipFunction(tuple(MuRule(PointMatcher(k, 1e-12), w) for k, w in table.items()), default)


REFUSALS = [
    # forms
    (lambda: ValueForm("spiral", {}), SpecError, "unknown value form 'spiral'"),
    (lambda: WeightForm("spiral", {}), SpecError, "unknown weight form 'spiral'"),
    (lambda: parse_weight_form([0.5], "mu[self]"), SpecError,
     "mu[self]: expected a number or a weight-form object, got list"),
    # sequences
    (lambda: SequenceSpec("sq_ratio", {}, 5, 4), ValidationError, "index range [5, 4] is invalid"),
    (lambda: ExperimentSpec(sequence=SEQ, eps_schedule=(), horizon=10), ValidationError,
     "eps schedule must be non-empty"),
    (lambda: ExperimentSpec(sequence=SEQ, horizon=0), ValidationError, "horizon below the first valid index"),
    (lambda: ExperimentSpec(sequence=SEQ, horizon=10, assignment=(("self", None, 0.5),)), SpecError,
     "assignment for 'self' must carry a WeightForm"),
    (lambda: scaled_deviation(EXP, "self", 1.0, 11), UsageError, "index 11 outside [1, 10]"),
    (lambda: check_monotone(ExperimentSpec(sequence=SEQ, horizon=1)), UsageError,
     "check_monotone needs at least two indices"),
    (lambda: run_experiment(EXP).verdict_for("self", 2.0), UsageError, "no verdict for (self, 2.0)"),
    # membership
    (lambda: MuRule(PointMatcher(0.0, -1.0), 0.5), ValidationError, "matcher tol -1.0 must be finite and >= 0"),
    (lambda: MuRule(FamilyMatcher(ValueForm("sq_ratio"), 5, 4), 0.5), ValidationError,
     "family index range [5, 4] is invalid"),
    (lambda: FamilyMatcher(ValueForm("sq_ratio"), 1.5, 10), ValidationError,
     "family matcher n_min: expected an integer, got 1.5"),
    (lambda: PointMatcher("half", 0.1), ValidationError, "point matcher value: expected a number, got 'half'"),
    (lambda: SetMatcher((0.0, "one")), ValidationError, "set matcher values[1]: expected a number, got 'one'"),
    (lambda: SetMatcher((0.0,), None), ValidationError, "set matcher tol: expected a number, got None"),
    (lambda: MembershipFunction((0.5,)), ValidationError, "rules[0] is not a MuRule"),
    (lambda: FieldContext(min_mu=1.0), ValidationError, "min_mu must lie in [0, 1)"),
    (lambda: load_mu_spec({"default": 1.0, "rules": [{"match": {"kind": "point", "value": [1, 2, 3]}, "mu": 0.5}]}),
     SpecError, "rules[0].match.value: scalar must be a number or an [re, im] pair"),
    (lambda: MuSummary(inf_mu=1.5, count_zero=0, witness=0.0), ValidationError, "inf_mu must lie in [0, 1]"),
    # real field
    (lambda: check_sup_characterization(CTX, [], [0.5]), UsageError,
     "check_sup_characterization needs a non-empty set"),
    (lambda: check_real_identity(CTX, "R5a", [1.0, 0.0]), UNMET, "bound c must be > 0"),
    (lambda: check_real_identity(CTX, "R5b", [1.0, -1.0]), UNMET, "bound c must be > 0"),
    (lambda: check_real_identity(FieldContext(mu=point_mu({-1.0: 0.5})), "R5b", [-1.0, 2.0]), UNMET,
     "requires w(|a|) = w(a)"),
    (lambda: check_real_identity(CTX, "S1", []), UsageError, "identity S1 needs at least one operand"),
    # complex field
    (lambda: mu_pow(CTX, 2.0, 2_000.0), RangeGuardError, "|Re(z log a)| = 1386.29"),
    (lambda: mu_pow_forms(CTX, 0j, 1.0), DomainError, "power base must be nonzero"),
    # exp(-700) w(-700) underflows to 0 although w(-700) is above min_mu = 0
    (lambda: check_complex_identity(FieldContext(mu=point_mu({-700 + 0j: 1e-30}), min_mu=0.0), "E2", [0j, -700 + 0j]),
     UNMET, "weighted exponential of z2 is zero"),
    (lambda: check_complex_identity(CTX, "L1", [0j, 1 + 0j]), DomainError, "L1 needs nonzero operands"),
    (lambda: check_complex_identity(CTX, "P1", [0j, 1 + 0j, 1 + 0j]), DomainError, "P1 needs a != 0"),
    (lambda: check_complex_identity(CTX, "P2", [1 + 0j, 0j, 1 + 0j]), DomainError, "P2 needs nonzero bases"),
    # registry; an operand that does not convert was a raw TypeError or ValueError
    (lambda: check_identity(CTX, "Z9", [1.0]), UsageError, "unknown identity 'Z9'"),
    (lambda: check_identity(CTX, "O1", [1 + 1j]), UsageError, "identity O1: operand 1 is not a real number, got (1+1j)"),
    (lambda: check_real_identity(CTX, "O3", [1.0, "x"]), UsageError, "identity O3: operand 2 is not a real number, got 'x'"),
    (lambda: check_complex_identity(CTX, "C1", ["x"]), UsageError,
     "identity C1: operand 1 is not a complex number, got 'x'"),
    (lambda: check_real_identity(CTX, "O1", [float("nan")]), DomainError, "operand nan is not finite"),
    (lambda: check_real_identity(CTX, "O1", [10**400]), DomainError, "identity O1: operand 1 is past the float range"),
    (lambda: check_complex_identity(CTX, "C1", [1j, -10**400]), DomainError,
     "identity C1: operand 2 is past the float range"),
]


@pytest.mark.parametrize("call, refusal, message", REFUSALS, ids=[m for _, _, m in REFUSALS])
def test_refusal(call, refusal, message):
    if refusal == UNMET:
        report = call()
        assert report.verdict == UNMET and report.notes == (message,)
        return
    with pytest.raises(refusal, match=re.escape(message)) as raised:
        call()
    assert type(raised.value) is refusal
