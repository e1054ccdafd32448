"""The CLI contract, checked on generated argv: for `identities`, `axioms`, `eval` and `converge`.

Every call of `main` exits 0, 1 or 2 and lets no exception out. A refusal
prints exactly one stderr line, starting with `error:`, and nothing on
stdout; an exit 1 with no such line is a sweep with a failing trial, or an
audit with a failing axiom. A `--json` envelope parses, its `status` is the
exit code, and it is its own re-dump: parsed and dumped again with a 2-space
indent and sorted keys, it reads the same. No warning is printed. For
`identities`, stdout is the same whether the sweep may fork its helper or
not: the helper is forced on for every sweep of two ids or more by a fork
threshold of 0 trials. For `axioms`, the membership specs and sample lists
are drawn from README's grammar, numbers from the edge pool; for `eval`, the
operands from the edge pool, and for `converge`, the experiment specs from
README's grammar with horizons up to 3,000. The faults these generators
found are pinned as examples.
"""

import contextlib
import io
import json
import os
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from mufield import cli
from mufield.registry import REGISTRY

# numbers at the edges: zero and its sign, the subnormal floor, the float limit, the
# non-finite values, an integer past the float range and a spelling float() refuses
EDGE_NUMBERS = ["0", "-0.0", "5e-324", "1e-14", "1e-9", "0.5", "1e200", "1.5e308",
                "inf", "-inf", "nan", "1" + "0" * 400, "0x10"]

ARGV = st.tuples(
    st.lists(st.sampled_from(sorted(REGISTRY)), max_size=5),  # duplicates included
    st.booleans(),
    st.integers(1, 30),
    st.one_of(st.none(), st.integers(-2**70, 2**70)),
    st.one_of(st.none(), st.sampled_from(EDGE_NUMBERS)),
    st.booleans(),
)


def call(argv, fork: bool) -> tuple:
    """(exit code, stdout, stderr, forks) of main(argv), its helper allowed or not."""
    forks, fork_ = [], os.fork

    def counted():
        pid = fork_()
        forks.append(pid)
        return pid
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        m.setattr(cli, "SWEEP_FORK_TRIALS", 0 if fork else 10**18)
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        m.setattr(os, "fork", counted)
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), len(forks)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ARGV)
def test_identities_keeps_the_cli_contract(draw):
    ids, literal, trials, seed, tol, as_json = draw
    argv = (["--json"] if as_json else []) + ["identities", *ids, "--trials", str(trials)]
    argv += (["--literal"] if literal else []) + ([] if seed is None else ["--seed", str(seed)])
    argv += [] if tol is None else [f"--tol={tol}"]
    code, out, err, forks = call(argv, fork=True)
    assert code in (0, 1, 2)
    if err or code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    if as_json and out:
        env = json.loads(out)
        assert env["status"] == code
        assert code == 1 or not any(o["failed"] for o in env["body"]["outcomes"])
    if code == 1 and not err:  # a failing trial, which the human table shows too
        assert as_json or any(line.split()[2] != "0" for line in out.splitlines()[2:] if not line.startswith("    "))
    assert forks == (code != 2 and len(ids) != 1)
    off = call(argv, fork=False)
    drop = lambda text: [line for line in text.splitlines() if '"timestamp"' not in line]
    assert (off[0], drop(off[1]), off[2], off[3]) == (code, drop(out), err, 0)


# the membership grammar of README: a default weight and point, set and family rules,
# whose weight is a number or a weight form. Each field is drawn valid five times in
# six, so that most specs load, and off the grammar or from the edge pool otherwise.
def mostly(valid, invalid):
    return st.sampled_from(range(6)).flatmap(lambda i: invalid if i == 5 else valid)


def rarely(valid, invalid):
    """valid 23 times in 24, for a field of which a document holds many."""
    return st.sampled_from(range(24)).flatmap(lambda i: invalid if i == 23 else valid)


NUMBERS = mostly(st.one_of(st.floats(-30, 30), st.sampled_from([0.0, -0.0, 1.0, 0.25, 1e-9, 5e-324, 1e200])),
                 st.sampled_from(EDGE_NUMBERS))
WEIGHTS = mostly(st.one_of(st.sampled_from([1, 0.5, 0]), st.floats(0, 1)), st.sampled_from(["nan", 1.5, -0.5, "x"]))
SCALARS = mostly(st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2)), st.sampled_from([[1], "abc", None]))
PARAMS = {
    "log_n_plus_c": st.fixed_dictionaries({"c": NUMBERS}),
    "exp_n_plus_c": st.fixed_dictionaries({"c": NUMBERS}),
    "sq_ratio": st.just({}),
    "moebius": st.fixed_dictionaries({k: NUMBERS for k in "abcd"}),
}
WEIGHT_FORMS = st.one_of(
    st.fixed_dictionaries({"form": st.just("const"), "params": st.fixed_dictionaries({"value": WEIGHTS})}),
    st.fixed_dictionaries({"form": st.just("rational_poly"), "params": st.fixed_dictionaries(
        {"p": st.lists(st.sampled_from([0, 1, 2, -1]), min_size=1, max_size=3),
         "q": st.lists(st.sampled_from([0, 1, 3, -1]), min_size=1, max_size=4)})}),
    st.fixed_dictionaries({"form": st.just("inv_exp_p1_sq"), "params": st.just({})}),
)
TOLS = mostly(st.sampled_from([1e-9, 1e-3, 0.5]), st.sampled_from([0, -1, "inf", "1e-6", None]))


@st.composite
def rules(draw):
    """A rule: a point, set or family match, and a weight; only a family rule's may be a
    weight form of n."""
    kind = draw(mostly(st.sampled_from(["point", "set", "family"]), st.just("nope")))
    tol = draw(TOLS)
    if kind == "point":
        match = {"kind": kind, "value": draw(SCALARS), "tol": tol}
    elif kind == "set":
        match = {"kind": kind, "values": draw(st.lists(SCALARS, max_size=4)), "tol": tol}
    else:
        form = draw(st.sampled_from(sorted(PARAMS)))
        n_min = draw(mostly(st.sampled_from([1, 2]), st.just(0)))
        match = {"kind": kind, "form": form, "params": draw(PARAMS[form]), "n_min": n_min,
                 "n_max": n_min + draw(st.sampled_from([0, 5, 40, 600])), "tol": tol}
    mu = draw(st.one_of(WEIGHTS, WEIGHT_FORMS) if kind == "family" else mostly(WEIGHTS, WEIGHT_FORMS))
    return {"match": match, "mu": mu}


SPECS = st.fixed_dictionaries({"default": WEIGHTS, "rules": st.lists(rules(), max_size=3)})
SAMPLES = mostly(st.one_of(st.lists(NUMBERS, min_size=1, max_size=60),
                           st.lists(st.floats(-5, 5), min_size=30, max_size=60)),
                 st.sampled_from([{}, [[1, 2]], "3", []]))


def keeps_the_contract(argv) -> tuple:
    """(exit code, stdout, refused, envelope or None) of main(argv), held to the contract:
    exit 0, 1 or 2, no warning, a refusal one `error:` line on stderr and nothing on
    stdout, and a --json envelope that parses, has the exit code as its status and is its
    own re-dump; the envelope is None for a refusal and in human mode."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    if err or code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
        return code, out, True, None
    if "--json" not in argv:
        return code, out, False, None
    env = json.loads(out)
    assert env["status"] == code
    assert json.dumps(env, indent=2, sort_keys=True) + "\n" == out
    return code, out, False, env


@settings(max_examples=120, deadline=None, derandomize=True)
@given(SPECS, SAMPLES, st.booleans())
def test_axioms_keeps_the_cli_contract(tmp_path_factory, spec, samples, as_json):
    where = tmp_path_factory.mktemp("axioms")
    (where / "mu.json").write_text(json.dumps(spec))
    (where / "samples.json").write_text(json.dumps(samples))
    argv = (["--json"] if as_json else []) + ["axioms", str(where / "mu.json"), "--samples", str(where / "samples.json")]
    code, out, refused, env = keeps_the_contract(argv)
    if env is not None:
        assert (code == 1) == (not all(env["body"]["verdicts"].values()))
    elif not refused:
        assert (code == 1) == ("FAIL" in out)


# the operands of eval: the edge pool, as the flags spell numbers, and now and then one
# that no flag reads
EDGE_POOL = ["0", "-0.0", "5e-324", "1e-300", "1e200", "-1e200", "1e308", "-1e308", "1.5e308", "-1.5e308",
             "709", "710", "1", "-1", "0.5"]
POOL = mostly(st.sampled_from(EDGE_POOL), st.sampled_from(EDGE_NUMBERS))
PAIRS = st.one_of(POOL, st.tuples(POOL, POOL).map(",".join))
EVAL_FLAGS = {
    "a": POOL, "b": POOL, "z": PAIRS, "base": PAIRS,
    "set": st.lists(POOL, min_size=1, max_size=4).map(",".join),
    "branch": st.sampled_from(["1", "-1", "3", str(10**400), "x"]),
}


@st.composite
def eval_argv(draw):
    """eval OP with, five times in six, exactly the flags OP reads, else any of them."""
    op = draw(st.sampled_from(sorted(cli._EVAL_OPS)))
    needs = cli._EVAL_OPS[op][0]
    argv = ["eval", op]
    for flag, values in EVAL_FLAGS.items():
        if draw(mostly(st.just(flag in needs), st.booleans())):
            argv.append(f"--{flag}={draw(values)}")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(eval_argv(), st.sampled_from(range(3)).flatmap(lambda i: SPECS if i == 0 else st.none()), st.sampled_from([None, "1e-9", "1e-3"]), st.booleans())
@example(["eval", "mu_pow", "--base=-1", "--z=1e308"], None, None, False)  # 0 + inf i was a ValueError
@example(["eval", "mu_pow", "--base=-1", "--z=1e308"], None, None, True)
def test_eval_keeps_the_cli_contract(tmp_path_factory, argv, spec, tol, as_json):
    if spec is not None:
        path = tmp_path_factory.mktemp("eval") / "mu.json"
        path.write_text(json.dumps(spec))
        argv = argv + ["--mu", str(path)]
    argv = (["--json"] if as_json else []) + ([] if tol is None else [f"--tol={tol}"]) + argv
    code, out, _, env = keeps_the_contract(argv)
    if code == 1 and env is None:  # a domain error, named with its op
        assert out.startswith(f"eval {argv[argv.index('eval') + 1]}: ") and out.count("\n") == 1
    if env is not None:
        assert ("error" in env["body"]) == (code == 1)


# the experiment grammar of README: a sequence of every form, a partner, tags of every
# expression, candidates bare or by expression, an eps schedule, a fallback membership
# spec and tolerances; numbers from the edge pool
SPEC_NUMBERS = rarely(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e200, -1e200, 1e308, -1e308, 1.5e308, -1.5e308,
                                       709.0, 710.0, 1.0, -1.0, 0.5, 2.0, 3.0]),
                      st.sampled_from(["x", None, [1.0], True]))
SEQUENCE_PARAMS = {
    "log_plus": st.fixed_dictionaries({"c": SPEC_NUMBERS}),
    "exp_plus": st.fixed_dictionaries({"c": SPEC_NUMBERS}),
    "sq_ratio": st.just({}),
    "moebius": st.fixed_dictionaries({k: SPEC_NUMBERS for k in "abcd"}),
    "constant": st.fixed_dictionaries({"value": SPEC_NUMBERS}),
}


@st.composite
def sequences(draw, horizon):
    """A sequence whose range holds the horizon almost always, of a form whose cap it
    stays under; a table repeats a few drawn points over its whole range."""
    forms = sorted(SEQUENCE_PARAMS) + ["table"]
    form = draw(st.sampled_from([f for f in forms if f != "exp_plus" or horizon <= 700]))
    n_min = draw(rarely(st.sampled_from([1, 2]), st.just(0)))
    n_max = max(n_min, horizon) + draw(rarely(st.sampled_from([0, 3]), st.just(-1)))
    if form == "table":
        points = draw(st.lists(SPEC_NUMBERS, min_size=1, max_size=4))
        params = {"points": {str(n): points[n % len(points)] for n in range(n_min, n_max + 1)}}
    else:
        params = draw(SEQUENCE_PARAMS[form])
    return {"form": form, "params": params, "n_min": n_min, "n_max": n_max}


@st.composite
def experiments(draw):
    horizon = draw(st.sampled_from([1, 2, 5, 40, 700, 3000]))
    doc = {"sequence": draw(sequences(horizon)), "horizon": horizon}
    if draw(st.booleans()):
        doc["partner"] = draw(sequences(horizon))
    exprs = ["self", "partner", "sum", "product"] if "partner" in doc else ["self"]
    EXPRS = rarely(st.sampled_from(exprs), st.sampled_from(["ratio", "partner"]))
    tags = st.tuples(EXPRS, st.sampled_from(["", "_minus:1.0", "_minus:0.5"])).map("".join)
    doc["mu"] = draw(st.dictionaries(tags, st.one_of(WEIGHTS, WEIGHT_FORMS), max_size=2))
    doc["candidates"] = draw(st.lists(st.one_of(SPEC_NUMBERS, st.fixed_dictionaries(
        {"expr": EXPRS, "value": SPEC_NUMBERS})), min_size=draw(rarely(st.just(1), st.just(0))), max_size=3))
    if draw(st.booleans()):
        doc["eps"] = draw(mostly(st.lists(st.sampled_from([0.5, 0.1, 1e-3, 1e-6]), min_size=1, max_size=3),
                                 st.sampled_from([[], [0.0], [-1.0]])))
    if draw(st.sampled_from(range(3))) == 0:
        doc["fallback_mu"] = draw(SPECS)
    if draw(st.booleans()):
        doc["tolerances"] = {"eq_tol": draw(TOLS), "min_mu": draw(mostly(st.sampled_from([1e-12, 0.25]), TOLS))}
    return doc


# every term is 1e308, 2e308 away from the candidate: 1e308 - -1e308 overflowed with a warning
OVERFLOWING_DEVIATION = {"sequence": {"form": "table", "params": {"points": {"1": 1e308, "2": 1e308, "3": 1e308}},
                                      "n_min": 1, "n_max": 3}, "horizon": 3, "candidates": [-1e308]}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(experiments(), st.sampled_from([None, None, "", "", "self:0", "sum:1", "self:x"]), st.booleans())
@example(OVERFLOWING_DEVIATION, None, False)
@example(OVERFLOWING_DEVIATION, "", True)
def test_converge_keeps_the_cli_contract(tmp_path_factory, doc, target, as_json):
    where = tmp_path_factory.mktemp("converge")
    (where / "exp.json").write_text(json.dumps(doc))
    argv = (["--json"] if as_json else []) + ["converge", str(where / "exp.json")]
    if target is not None:  # "" traces the first candidate
        argv += ["--trace", str(where / "trace.csv")] + ([f"--trace-target={target}"] if target else [])
    code, out, _, env = keeps_the_contract(argv)
    assert code != 1 or env is not None or out == ""  # converge fails only by refusing
    if code == 0 and target is not None:
        assert (where / "trace.csv").read_text().startswith("n,term,membership,scaled_deviation\n")
