"""Outputs pinned before the rule walk, the axiom audit, the field checkers
and `cmd_eval` were each reduced to one implementation.

`tests/data/golden_outputs.json` holds, compared exactly (every float by its
repr): the identity sweep's JSON body and human lines, the axiom audit and
weight summary over a point rule and two log families (and over complex
samples), and every `eval` op in human and JSON form.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from mufield import FieldContext, check_axioms, mu_summary, parse_mu_spec
from mufield.cli import _to_jsonable, main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_outputs.json").read_text())


def cli(argv):
    """Exit code and stdout of one in-process run; the JSON timestamp is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    text = out.getvalue()
    if "--json" in argv:
        env = json.loads(text)
        env.pop("timestamp")
        env["inputs"] = sorted(env["inputs"].values())  # digests, not temporary paths
        return code, env
    return code, text.splitlines()


# -- identity sweep ------------------------------------------------------------

SWEEPS = {
    "default": ["identities", "--trials", "200", "--seed", "7"],
    "literal": ["identities", "--literal", "C7", "P1", "--trials", "200", "--seed", "7"],
}


def sweep_outputs(name):
    return [cli(["--json", *SWEEPS[name]]), cli(SWEEPS[name])]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_identity_sweep_matches_golden(name):
    assert json.loads(json.dumps(sweep_outputs(name))) == GOLDEN["sweep"][name]


# -- axiom audit -----------------------------------------------------------------

N_OVER_CUBE = {"form": "rational_poly", "params": {"p": [0, 1], "q": [1, 3, 3, 1]}}
C_A = 0.8
C_B = C_A - (1.0 - math.sqrt(2.0))
A_INDEX = (1, 2, 3, 7, 20, 55, 150, 400, 1100, 3000, 8100, 22000)
B_INDEX = (1, 4, 9, 30, 80, 200, 600, 1600, 4500, 12000, 33000, 90000)


def _family(c):
    return {"match": {"kind": "family", "form": "log_n_plus_c", "params": {"c": c},
                      "n_min": 1, "n_max": 100_000, "tol": 1e-9}, "mu": N_OVER_CUBE}


# a point rule on family A's member n = 7, ahead of both families
AUDIT_SPEC = {"default": 0.0, "rules": [
    {"match": {"kind": "point", "value": math.log(7) + C_A, "tol": 1e-9}, "mu": 0.6},
    _family(C_A),
    _family(C_B),
]}


def audit_samples():
    """60 samples: 12 members of each family, 8 sums and 8 products of
    members, and 20 values no rule matches."""
    a = [math.log(k) + C_A for k in A_INDEX]
    b = [math.log(k) + C_B for k in B_INDEX]
    sums = [a[j] + b[(j + 5) % 12] for j in range(8)]
    products = [a[j + 4] * b[(j + 3) % 12] for j in range(8)]
    off = [-19.5 + 2.0 * j + 0.123 * (j % 3) for j in range(20)]
    return a + b + sums + products + off


# complex points, a set holding a real and a complex point, and a family;
# the family matches only samples whose imaginary part is zero
COMPLEX_SPEC = {"default": 0.5, "rules": [
    {"match": {"kind": "point", "value": [1.0, 1.0], "tol": 1e-9}, "mu": 0.25},
    {"match": {"kind": "set", "values": [-2.0, [0.0, 2.0]], "tol": 1e-9}, "mu": 0.75},
    _family(C_A),
]}
COMPLEX_SAMPLES = [1 + 1j, 1 - 1j, 2j, -1j, complex(math.log(3) + C_A, 0.0), math.log(20) + C_A,
                   -2.0, 0.5 + 0.25j, 3.0, -1.5 - 2j]


def audit_outputs(spec, samples):
    ctx = FieldContext(mu=parse_mu_spec(spec))
    return _to_jsonable({"axioms": check_axioms(ctx, samples), "summary": mu_summary(ctx, samples)})


def test_axiom_audit_matches_golden():
    got = audit_outputs(AUDIT_SPEC, audit_samples())
    assert {"i", "iii"} <= {v["axiom"] for v in got["axioms"]["violations"]}
    assert got == GOLDEN["audit"]["families"]


def test_complex_axiom_audit_matches_golden():
    assert audit_outputs(COMPLEX_SPEC, COMPLEX_SAMPLES) == GOLDEN["audit"]["complex"]


# -- eval ops --------------------------------------------------------------------

EVAL_SPEC = {"default": 0.5, "rules": [
    {"match": {"kind": "point", "value": 2.0, "tol": 1e-9}, "mu": 0.25},
    {"match": {"kind": "set", "values": [[1.0, 1.0], -3.0], "tol": 1e-9}, "mu": 0.75},
    _family(1.0),
]}
EVAL_CASES = [
    ["mu", "--a", "2"],
    ["mu", "--a", repr(math.log(3) + 1.0)],  # family member n = 3
    ["mu", "--a", "7"],
    ["mu_abs", "--a=-3"],
    ["mu_compare", "--a", "2", "--b", "3"],
    ["mu_sup", "--set", "1,2,-3,7"],
    ["mu_inf", "--set", "1,2,-3,7"],
    ["mu_conj", "--z", "1,1"],
    ["mu_abs_c", "--z", "3,4"],
    ["mu_arg", "--z=-1,0"],
    ["mu_exp", "--z", "0.5,1"],
    ["mu_exp", "--z", "800,0"],  # past the overflow guard: exit 1
    ["mu_log", "--z", "2"],
    ["mu_log", "--z", "0,0"],  # undefined: exit 1
    ["mu_pow", "--base", "2,1", "--z", "0.5,0.5", "--branch", "1"],
]


def eval_outputs(spec_path):
    return [[cli([*json_flag, "eval", *case, "--mu", spec_path]) for json_flag in ([], ["--json"])]
            for case in EVAL_CASES]


def test_eval_ops_match_golden(tmp_path):
    spec = tmp_path / "eval_mu.json"
    spec.write_text(json.dumps(EVAL_SPEC))
    assert json.loads(json.dumps(eval_outputs(str(spec)))) == GOLDEN["eval"]
