"""The library contract, checked on generated calls to every public function of mufield.

A call either returns or raises a MuFieldError; no other exception escapes,
and no warning is printed. Numbers come from the edge pool, the finite edges
of the CLI's pool plus the infinities and NaN, which only the library can be
handed; one in four is a value of another type (a string, None, an int past
the float range, and a complex value where a real one is read). Membership
specs and experiment documents are drawn from README's grammar by the
generators of the CLI contract; a context, a sequence or an experiment is
built inside the call, so a refusal to build one is held to the same rule.
The faults these calls found are pinned as examples.
"""

import functools
import inspect
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

import mufield
from mufield import MuFieldError
from mufield.real_field import REAL_IDENTITIES
from mufield.complex_field import COMPLEX_IDENTITIES
from mufield.sequences import _parse_sequence
from test_cli_contract import SPECS, experiments, rarely, sequences

EDGES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e200, -1e200, 1e308, -1e308, 1.5e308, -1.5e308,
                         709.0, 710.0, 1.0, -1.0, 0.5, 2.0, math.inf, -math.inf, math.nan])


def sometimes(valid, wrong):
    """valid 3 times in 4, else wrong: a value of another type than the argument takes."""
    return st.sampled_from(range(4)).flatmap(lambda i: wrong if i == 3 else valid)


# a real-only argument is also drawn as a string, a complex value, None or an int past the float range
REALS = sometimes(EDGES, st.sampled_from(["x", "1.5", 1 + 1j, None, 10**400]))
SCALARS = sometimes(st.one_of(EDGES, st.builds(complex, EDGES, EDGES)), st.sampled_from(["x", "1+2j", None, 10**400]))
OPERANDS = st.lists(rarely(SCALARS, st.sampled_from(["x", None, "1+2j", 10**400])), max_size=4)
SETS = st.lists(REALS, max_size=5)
PROBES = st.one_of(st.none(), REALS)
EPS = st.sampled_from([0.5, 1e-3, 1e-6, 0.0, -1.0, math.nan, math.inf])
IDS = st.sampled_from(sorted(mufield.REGISTRY) + ["Z9"])
EXPRS = st.sampled_from(["self", "partner", "sum", "product", "ratio"])
NAMES = st.sampled_from(list(mufield.DEMO_NAMES) + ["nope"])

CRISP = {"default": 1.0, "rules": []}
# valid specs of every rule kind, drawn three times as often as the grammar's, which are often refused
MU_DOCS = st.sampled_from(range(4)).flatmap(lambda i: SPECS if i == 0 else st.sampled_from([
    CRISP,
    {"default": 0.5, "rules": [{"match": {"kind": "point", "value": 0.0, "tol": 1e-9}, "mu": 0.0}]},
    {"default": 0.0, "rules": [{"match": {"kind": "set", "values": [1.0, [0.0, 1.0]], "tol": 1e-9}, "mu": 0.3}]},
    {"default": 1.0, "rules": [{"match": {"kind": "family", "form": "log_n_plus_c", "params": {"c": 1.0},
                                          "n_min": 1, "n_max": 50, "tol": 1e-9},
                                "mu": {"form": "rational_poly", "params": {"p": [0, 1], "q": [1, 3, 3, 1]}}}]},
]))


def context(doc, eq_tol, min_mu):
    return mufield.FieldContext(mu=mufield.load_mu_spec(doc), eq_tol=eq_tol, min_mu=min_mu)


def built(build, strategy):
    """A functools.partial that calls build on a drawn value when the call is made."""
    return strategy.map(lambda value: functools.partial(build, value))


CTX = st.tuples(MU_DOCS, st.sampled_from([1e-9, 1e-3]), st.sampled_from([1e-12, 0.25])).map(
    lambda args: functools.partial(context, *args))
MU = built(mufield.load_mu_spec, MU_DOCS)
EXP = built(mufield.load_experiment, experiments())
SEQ = built(_parse_sequence, st.sampled_from([1, 5, 40]).flatmap(sequences))

CALLS = {
    "arg_k": st.tuples(SCALARS, SCALARS),
    "check_axioms": st.tuples(CTX, SETS),
    "check_complex_identity": st.tuples(CTX, st.sampled_from(sorted(COMPLEX_IDENTITIES)), OPERANDS),
    "check_identity": st.tuples(CTX, IDS, OPERANDS),
    "check_monotone": st.tuples(EXP, PROBES),
    "check_real_identity": st.tuples(CTX, st.sampled_from(sorted(REAL_IDENTITIES)), OPERANDS),
    "check_sup_characterization": st.tuples(CTX, SETS, st.lists(EPS, max_size=3), PROBES),
    "classical_converges": st.tuples(SEQ, REALS, st.lists(EPS, min_size=1, max_size=3),
                                     st.sampled_from([None, 1, 5, 40])),
    "constant_weight": st.tuples(REALS),
    "crisp": st.just(()),
    "demo_catalog": st.tuples(NAMES),
    "load_experiment": st.tuples(experiments()),
    "load_mu_spec": st.tuples(SPECS),
    "min_index_for_epsilon": st.tuples(EXP, EXPRS, REALS, EPS),
    "mu_abs": st.tuples(CTX, REALS),
    "mu_abs_c": st.tuples(CTX, SCALARS),
    "mu_arg": st.tuples(CTX, SCALARS),
    "mu_bounded_report": st.tuples(CTX, SETS, PROBES),
    "mu_compare": st.tuples(CTX, REALS, REALS),
    "mu_conj": st.tuples(CTX, SCALARS),
    "mu_converges": st.tuples(EXP, EXPRS, REALS),
    "mu_eval": st.tuples(CTX, SCALARS),
    "mu_exp": st.tuples(CTX, SCALARS),
    "mu_inf": st.tuples(CTX, SETS),
    "mu_log": st.tuples(CTX, SCALARS),
    "mu_pow": st.tuples(CTX, SCALARS, SCALARS, st.sampled_from([0, 1, -1, 10**400, 0.5, "x"])),
    "mu_pow_forms": st.tuples(CTX, SCALARS, SCALARS, st.sampled_from([0, 1, -1, 10**400, 0.5, "x"])),
    "mu_summary": st.tuples(CTX, SETS),
    "mu_sup": st.tuples(CTX, SETS),
    "parse_mu_spec": st.tuples(SPECS),
    "principal_arg": st.tuples(SCALARS),
    "run_demo": st.tuples(NAMES),
    "run_experiment": st.tuples(EXP),
    "run_identity_sweep": st.tuples(st.lists(IDS, max_size=3), st.integers(0, 4), st.integers(-5, 5),
                                    st.sampled_from([0.08, 0.0, 1.0, 1.5, math.nan]), st.one_of(st.none(), MU),
                                    st.sampled_from([1e-9, 0.0, math.inf])),
    "scaled_deviation": st.tuples(EXP, EXPRS, REALS, st.sampled_from([0, 1, 2, 40, 3000, 3001, 1.5, "x"])),
    "seq_bounded_report": st.tuples(EXP, EXPRS, PROBES),
    "serialize_experiment": st.tuples(EXP),
    "serialize_mu_spec": st.tuples(MU),
    "two_level": st.tuples(SETS, REALS, st.sampled_from([1e-9, 0.0, -1.0, math.nan])),
}


def test_every_public_function_is_called():
    public = {name for name, value in vars(mufield).items()
              if not name.startswith("_") and inspect.isfunction(value)}
    assert set(CALLS) == public


def ctx(doc=CRISP):
    return functools.partial(context, doc, 1e-9, 1e-12)


def exp(doc):
    return functools.partial(mufield.load_experiment, doc)


# the faults these calls found, by function: each argument tuple raised or warned
PINNED = {
    # z Log a = 0 + inf i, which cmath.exp raised a ValueError on
    "mu_pow": [(ctx(), -1 + 0j, 1e308 + 0j, 0)],
    "mu_pow_forms": [(ctx(), -1 + 0j, 1e308 + 0j, 0)],
    # operands that do not convert raised a TypeError or a ValueError; P1's exponent is 0 + inf i
    "check_identity": [(ctx(), "O1", [1 + 1j])],
    "check_real_identity": [(ctx(), "O1", ["x"]), (ctx(), "O1", 5)],
    "check_complex_identity": [(ctx(), "C1", ["x"]), (ctx(), "P1", [-1 + 0j, 1e308 + 0j, 0j])],
    # an inf - inf step printed a warning; terms NaN in floats but exactly 1 failed with residual NaN
    "check_monotone": [(exp({"sequence": {"form": "moebius", "params": {"a": 1e308, "b": 1e308, "c": 1, "d": 0},
                                          "n_min": 1, "n_max": 5}, "horizon": 5}), None),
                       (exp({"sequence": {"form": "moebius", "params": dict.fromkeys("abcd", 1e308),
                                          "n_min": 1, "n_max": 5}, "horizon": 5}), None)],
    # a number of the wrong type raised a ValueError or a TypeError
    "mu_eval": [(ctx(), "x")],
    "mu_exp": [(ctx(), "x")],
    "mu_abs": [(ctx(), 1 + 1j)],
    "mu_sup": [(ctx(), [1 + 1j])],
    # 1e308 - -1e308 overflowed with a warning
    "mu_converges": [(exp({"sequence": {"form": "table", "params": {"points": dict.fromkeys("123", 1e308)},
                                        "n_min": 1, "n_max": 3}, "horizon": 3}), "self", -1e308)],
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_public_call_returns_or_raises_a_mufield_error(name):
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(CALLS[name])
    def call(args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                getattr(mufield, name)(*(a() if isinstance(a, functools.partial) else a for a in args))
            except MuFieldError:
                pass
        assert [str(w.message) for w in caught] == []

    for args in PINNED.get(name, ()):
        call = example(args)(call)
    call()
