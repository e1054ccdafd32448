"""Membership-weighted real and complex field calculus.

Values carry weights in [0, 1]; order, modulus, extrema, convergence, and
the complex-analytic operations are all defined through the scaled value
x * w(x). The package verifies the algebraic identities this calculus
satisfies, certifies convergence numerically at desk scale, and reproduces
the counterexamples that separate weighted from classical behavior.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    MuFieldError,
    RangeGuardError,
    SpecError,
    UsageError,
    ValidationError,
)
from .forms import ValueForm, WeightForm, constant_weight
from .membership import (
    AxiomReport,
    FamilyMatcher,
    FieldContext,
    MembershipFunction,
    MuRule,
    MuSummary,
    PointMatcher,
    SetMatcher,
    check_axioms,
    crisp,
    load_mu_spec,
    mu_eval,
    mu_summary,
    parse_mu_spec,
    serialize_mu_spec,
    two_level,
)
from .real_field import (
    BoundsReport,
    IdentityCheckReport,
    Ordering,
    ScaledValue,
    check_real_identity,
    check_sup_characterization,
    mu_abs,
    mu_bounded_report,
    mu_compare,
    mu_inf,
    mu_sup,
)
from .sequences import (
    ConvergenceVerdict,
    ExperimentSpec,
    SequenceSpec,
    classical_converges,
    check_monotone,
    load_experiment,
    min_index_for_epsilon,
    mu_converges,
    run_experiment,
    scaled_deviation,
    seq_bounded_report,
    serialize_experiment,
)
from .complex_field import (
    PowerForms,
    arg_k,
    check_complex_identity,
    mu_abs_c,
    mu_arg,
    mu_conj,
    mu_exp,
    mu_log,
    mu_pow,
    mu_pow_forms,
    principal_arg,
)
from .demos import DEMO_NAMES, demo_catalog, run_demo
from .registry import (
    DEFAULT_SWEEP_IDS,
    REGISTRY,
    check_identity,
    run_identity_sweep,
)
