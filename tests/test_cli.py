import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mufield import FieldContext, UsageError, cli, load_mu_spec, mu_eval
from mufield.cli import MAX_AXIOM_SAMPLES, _parse_grid, main
from mufield.sequences import run_experiment

SRC = Path(__file__).resolve().parent.parent / "src"

# finite operands whose modulus, or a branch whose 2 pi shift, is past the float range
OVERFLOWING_EVALS = [
    ("mu_abs_c", "--z", "1.5e308,1.5e308"),
    ("mu_log", "--z", "1.5e308,1.5e308"),
    ("mu_pow", "--base", "1.5e308,1.5e308", "--z", "1,0"),
    ("mu_pow", "--base", "2,0", "--z", "1,0", "--branch", str(10**400)),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def crisp_path(tmp_path):
    p = tmp_path / "crisp.json"
    p.write_text('{"default": 1.0, "rules": []}')
    return str(p)


@pytest.fixture()
def mutant_path(tmp_path):
    p = tmp_path / "mutant.json"
    p.write_text(json.dumps({
        "default": 1.0,
        "rules": [{"match": {"kind": "point", "value": 0.0, "tol": 1e-9}, "mu": 0.9}],
    }))
    return str(p)


class TestAxioms:
    def test_crisp_grid_passes(self, capsys, crisp_path):
        code, out, _ = run(capsys, "axioms", crisp_path)
        assert code == 0
        assert "pass" in out

    def test_mutation_fails_with_axiom_id(self, capsys, mutant_path):
        code, out, _ = run(capsys, "axioms", mutant_path, "--grid", "2:3:0.5")
        assert code == 1
        assert "(v)" in out

    def test_samples_file(self, capsys, crisp_path, tmp_path):
        samples = tmp_path / "samples.json"
        samples.write_text("[1.0, 2.0, -3.0]")
        code, out, _ = run(capsys, "axioms", crisp_path, "--samples", str(samples))
        assert code == 0

    # every pair of samples is audited, so a larger request is refused before any sample is built
    @pytest.mark.parametrize("grid, count", [(f"0:{MAX_AXIOM_SAMPLES}:1", MAX_AXIOM_SAMPLES + 1),
                                             ("0:1e-3:1e-9", 1_000_001)])
    def test_grid_over_the_sample_cap_is_refused(self, grid, count):
        with pytest.raises(UsageError, match=f"gives {count} samples, more than the cap of {MAX_AXIOM_SAMPLES}"):
            _parse_grid(grid)
        assert len(_parse_grid(f"0:{MAX_AXIOM_SAMPLES - 1}:1")) == MAX_AXIOM_SAMPLES

    def test_samples_over_the_cap_are_exit_2(self, capsys, tmp_path):
        grid, samples = f"--grid=0:{MAX_AXIOM_SAMPLES}:1", tmp_path / "samples.json"
        samples.write_text(json.dumps([0.5] * (MAX_AXIOM_SAMPLES + 1)))
        for argv in (["axioms", grid], ["axioms", "--samples", str(samples)]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert f"{MAX_AXIOM_SAMPLES + 1} samples, more than the cap of {MAX_AXIOM_SAMPLES}" in err

    def test_bad_spec_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"default": 2.0, "rules": []}')
        code, _, err = run(capsys, "axioms", str(p))
        assert code == 2


    @pytest.mark.parametrize("form, params", [
        ("exp_n_plus_c", {"c": 1.0}),
        ("moebius", {"a": 1.0, "b": 1.0, "c": 3.0, "d": 1.0}),
    ])
    def test_overflowing_samples_are_a_domain_error(self, capsys, tmp_path, form, params):
        p = tmp_path / "family.json"
        p.write_text(json.dumps({"default": 0.0, "rules": [{
            "match": {"kind": "family", "form": form, "params": params, "n_min": 1, "n_max": 600},
            "mu": 0.5,
        }]}))
        samples = tmp_path / "samples.json"
        samples.write_text("[1e200, -1e200]")
        code, _, err = run(capsys, "axioms", str(p), "--samples", str(samples))
        assert code == 1
        assert err.startswith("error:") and "1e+200 * 1e+200" in err


class TestEval:
    def test_sq_ratio_rule_just_above_one_is_no_match(self, capsys, tmp_path):
        p = tmp_path / "sq.json"
        p.write_text(json.dumps({"default": 0.25, "rules": [{
            "match": {"kind": "family", "form": "sq_ratio", "params": {}, "n_min": 1, "n_max": 1000},
            "mu": 0.5,
        }]}))
        code, out, _ = run(capsys, "--json", "eval", "mu", "--mu", str(p), "--a", "1.0000000000000002")
        assert code == 0
        assert json.loads(out)["body"]["value"] == 0.25

    # an infinite slack made every comparison equal and every identity pass
    @pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf", "1e309"])
    def test_non_positive_tol_is_exit_2(self, capsys, tol):
        code, _, err = run(capsys, f"--tol={tol}", "eval", "mu_abs", "--a", "2")
        assert code == 2
        assert "tolerances must be strictly positive" in err
        code, _, _ = run(capsys, "identities", "O1", "--trials", "3", f"--tol={tol}")
        assert code == 2


    # a distance past the float range from a point or a set member weighs as no match, with no warning
    @pytest.mark.parametrize("rules, z, tol", [
        ([{"match": {"kind": "point", "value": [1.5e308, 1.5e308], "tol": 1e-9}, "mu": 0.5},
          {"match": {"kind": "family", "form": "sq_ratio", "params": {}, "n_min": 1, "n_max": 10}, "mu": 0.5}],
         "-1.5e308,-1.5e308", None),
        ([{"match": {"kind": "point", "value": -1e200, "tol": 1e-9}, "mu": 0.5},
          {"match": {"kind": "set", "values": [[-1.5e308, 1.5e308]], "tol": 1e-9}, "mu": 0.5}],
         "1.5e308,1.5e308", "1"),
    ], ids=["point_ahead_of_family", "off_axis_set_member"])
    def test_a_distance_past_the_float_range_is_no_match(self, capsys, tmp_path, rules, z, tol):
        p = tmp_path / "far.json"
        p.write_text(json.dumps({"default": 0.0, "rules": rules}))
        argv = ["--json", "eval", "mu_conj", "--mu", str(p), f"--z={z}"] + (["--tol", tol] if tol else [])
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert list(json.loads(out)["body"]["memberships"].values()) == [0.0]

    def test_mu_abs(self, capsys, tmp_path):
        p = tmp_path / "half.json"
        p.write_text(json.dumps({
            "default": 1.0,
            "rules": [{"match": {"kind": "point", "value": 2.0, "tol": 1e-9}, "mu": 0.5}],
        }))
        code, out, _ = run(capsys, "eval", "mu_abs", "--mu", str(p), "--a", "2")
        assert code == 0
        assert "1.0" in out

    def test_mu_arg_negative_real(self, capsys):
        code, out, _ = run(capsys, "eval", "mu_arg", "--z=-1,0")
        assert code == 0
        assert "3.14159" in out

    def test_log_zero_is_exit_1(self, capsys):
        code, out, _ = run(capsys, "eval", "mu_log", "--z", "0,0")
        assert code == 1
        assert "undefined" in out

    @pytest.mark.parametrize("argv", OVERFLOWING_EVALS, ids=["mu_abs_c", "mu_log", "mu_pow-base", "mu_pow-branch"])
    def test_an_operand_past_the_float_range_is_exit_1(self, capsys, argv):
        code, out, _ = run(capsys, "eval", *argv)
        assert code == 1
        assert out.startswith(f"eval {argv[0]}: ")

    def test_the_entry_point_exits_1_without_a_traceback(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for argv in OVERFLOWING_EVALS:
            done = subprocess.run([sys.executable, "-m", "mufield", "eval", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 1, (argv, done.stderr)
            assert "Traceback" not in done.stdout + done.stderr

    def test_unknown_op_is_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "definitely_not_an_op", "--a", "1")
        assert code == 2
        assert "unknown op" in err

    def test_missing_operand_is_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "mu_abs")
        assert code == 2

    def test_mu_sup(self, capsys):
        code, out, _ = run(capsys, "eval", "mu_sup", "--set", "1,3,2")
        assert code == 0
        assert "3" in out


class TestConverge:
    @pytest.fixture()
    def experiment_path(self, tmp_path):
        doc = {
            "label": "drift",
            "sequence": {"form": "log_plus", "params": {"c": 1.0}, "n_min": 1, "n_max": 2000},
            "mu": {"self": {"form": "rational_poly", "params": {"p": [0, 1], "q": [1, 3, 3, 1]}}},
            "candidates": [0.0],
            "eps": [1e-1, 1e-2, 1e-3],
            "horizon": 2000,
            "fallback_mu": {"default": 0.0, "rules": []},
        }
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_runs_and_reports_n_table(self, capsys, experiment_path):
        code, out, _ = run(capsys, "converge", experiment_path)
        assert code == 0
        assert "N=72" in out

    def test_trace_csv(self, capsys, experiment_path, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "converge", experiment_path, "--trace", str(trace))
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "n,term,membership,scaled_deviation"
        assert len(lines) == 2001

    @pytest.mark.parametrize("reason, message", [
        ("Unable to allocate 7.28 TiB for an array", "Unable to allocate 7.28 TiB for an array"),
        ("", "not enough memory for this request"),
    ])
    def test_request_too_big_for_memory_is_exit_1(self, capsys, monkeypatch, experiment_path, reason, message):
        # a valid request this machine cannot hold; raised, not allocated, since
        # whether a huge allocation fails at once depends on memory overcommit
        def too_big(exp):
            raise MemoryError(reason)

        monkeypatch.setattr("mufield.cli.run_experiment", too_big)
        code, out, err = run(capsys, "converge", experiment_path)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    # the experiment file is read once: the run and its digest are of the bytes parsed
    def test_a_file_removed_after_it_was_read_does_not_fail_the_run(self, capsys, monkeypatch, experiment_path):
        def remove_then_run(exp):
            os.remove(experiment_path)
            return run_experiment(exp)

        monkeypatch.setattr("mufield.cli.run_experiment", remove_then_run)
        code, out, err = run(capsys, "converge", experiment_path)
        assert (code, err) == (0, "")
        assert "N=72" in out

    def test_the_digest_is_of_the_bytes_parsed(self, capsys, monkeypatch, experiment_path):
        parsed = Path(experiment_path).read_bytes()

        def rewrite_then_run(exp):
            Path(experiment_path).write_text("{}")
            return run_experiment(exp)

        monkeypatch.setattr("mufield.cli.run_experiment", rewrite_then_run)
        code, out, _ = run(capsys, "--json", "converge", experiment_path)
        assert code == 0
        assert json.loads(out)["inputs"] == {experiment_path: hashlib.sha256(parsed).hexdigest()}

    def test_horizon_over_family_cap_is_exit_2(self, capsys, tmp_path):
        doc = {
            "sequence": {"form": "exp_plus", "params": {"c": 0.0}, "n_min": 1, "n_max": 700},
            "horizon": 5000,
        }
        p = tmp_path / "over.json"
        p.write_text(json.dumps(doc))
        code, _, err = run(capsys, "converge", str(p))
        assert code == 2

    def test_missing_file_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "converge", "/nonexistent/exp.json")
        assert code == 2


class TestTraceTarget:
    # a refused --trace-target is a usage error that writes no file and
    # leaves one already at the --trace path as it was
    @staticmethod
    def experiment(tmp_path, partner=False, candidates=(0.0,)):
        doc = {"sequence": {"form": "log_plus", "params": {"c": 1.0}, "n_max": 50},
               "candidates": list(candidates), "horizon": 50}
        if partner:
            doc["partner"] = {"form": "sq_ratio", "params": {}, "n_max": 50}
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("partner, target, message", [
        (False, "self:abc", "--trace-target candidate: expected a number, got 'abc'"),
        (False, "self:nan", "--trace-target candidate: expected a finite number, got 'nan'"),
        (False, "bogus:0", "unknown expression 'bogus'"),
        (True, "bogus:0", "unknown expression 'bogus'"),
        (False, "sum:0", "expression 'sum' needs a partner sequence"),
    ])
    @pytest.mark.parametrize("existing", [None, b"kept\r\n"])
    def test_refused_target_writes_no_file(self, capsys, tmp_path, partner, target, message, existing):
        trace = tmp_path / "trace.csv"
        if existing is not None:
            trace.write_bytes(existing)
        code, out, err = run(capsys, "converge", self.experiment(tmp_path, partner),
                             "--trace", str(trace), "--trace-target", target)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err
        assert (trace.read_bytes() if trace.exists() else None) == existing

    def test_target_without_trace_is_refused(self, capsys, tmp_path):
        # nothing reads a target when nothing is traced
        code, out, err = run(capsys, "converge", self.experiment(tmp_path), "--trace-target", "partner:5")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--trace-target" in err

    def test_no_candidate_needs_a_target(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, err = run(capsys, "converge", self.experiment(tmp_path, candidates=()),
                           "--trace", str(trace))
        assert code == 2 and "--trace-target" in err
        assert not trace.exists()


class TestMalformedInput:
    # a number that does not parse, or a spec object of the wrong shape, is a
    # usage error (exit 2) that names the field, not a raw traceback
    @staticmethod
    def write(tmp_path, name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("argv, field", [
        (["eval", "mu_conj", "--z", "abc"], "--z"),
        (["eval", "mu_pow", "--base", "1,x", "--z", "1"], "--base"),
        (["eval", "mu_sup", "--set", "1,x"], "--set"),
        (["axioms", "--grid", "1:x:1"], "--grid"),
        (["axioms", "--grid", "1:2"], "--grid"),
        # NaN and the infinities are refused where they are read, not passed on
        (["eval", "mu", "--a", "nan"], "--a: expected a finite number, got 'nan'"),
        (["eval", "mu_compare", "--a", "1", "--b=-inf"], "--b: expected a finite number"),
        (["eval", "mu_conj", "--z", "1,nan"], "--z: expected a finite number"),
        (["eval", "mu_pow", "--base", "inf", "--z", "1"], "--base: expected a finite number"),
        (["eval", "mu_sup", "--set", "1,nan"], "--set: expected a finite number"),
        (["axioms", "--grid", "0:inf:1"], "--grid: expected a finite number"),
        # a step that cannot move the grid's values would loop forever
        (["axioms", "--grid=1e16:2e16:1"], "--grid"),
        (["axioms", "--grid=1e16:10000000000000002:1"], "--grid"),  # 1e16 + 1 ties back to 1e16
    ])
    def test_malformed_flag_number(self, capsys, argv, field):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and field in err

    def test_malformed_sample(self, capsys, tmp_path):
        samples = self.write(tmp_path, "samples.json", [1, "x"])
        code, _, err = run(capsys, "axioms", "--samples", samples)
        assert code == 2 and err.startswith("error:") and "--samples" in err and "'x'" in err

    def test_non_finite_sample(self, capsys, tmp_path):
        # a usage error (exit 2) when read, not a domain error (exit 1) in the audit
        samples = self.write(tmp_path, "samples.json", [1, float("nan")])
        code, _, err = run(capsys, "axioms", "--samples", samples)
        assert code == 2 and err.startswith("error:") and "--samples: expected a finite number" in err

    @pytest.mark.parametrize("cmd", ["axioms", "eval"])
    @pytest.mark.parametrize("match, field", [
        ({"kind": "point", "value": 0.0, "tol": "x"}, "rules[0].match.tol"),
        ({"kind": "point", "value": [0.0, "x"]}, "rules[0].match.value"),
        ({"kind": "family", "form": "sq_ratio", "n_max": "abc"}, "rules[0].match.n_max"),
        (5, "rules[0].match: expected an object"),
        # a key the match of its kind does not read is refused, not dropped
        ({"kind": "point", "value": 0.0, "values": [1.0]}, "rules[0].match: unknown key(s) 'values'"),
        ({"kind": "family", "form": "log_n_plus_c", "params": {"c": 0.0, "d": 1.0}, "n_max": 50},
         "params: unknown key(s) 'd'"),
        # a NaN tolerance or point would never match, leaving the default weight
        ({"kind": "point", "value": 0.0, "tol": "nan"}, "rules[0].match.tol: expected a finite number"),
        ({"kind": "point", "value": float("nan")}, "rules[0].match.value: expected a finite number"),
        ({"kind": "set", "values": [0.0, float("inf")]}, "rules[0].match.values: expected a finite number"),
    ])
    def test_malformed_mu_spec(self, capsys, tmp_path, cmd, match, field):
        spec = self.write(tmp_path, "mu.json", {"default": 1.0, "rules": [{"match": match, "mu": 0.5}]})
        argv = ["axioms", spec] if cmd == "axioms" else ["eval", "mu", "--mu", spec, "--a", "1"]
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and field in err

    # a misspelt rule list would leave only the default weight
    @pytest.mark.parametrize("cmd", ["axioms", "eval"])
    @pytest.mark.parametrize("doc, field", [
        ({"default": 1.0, "rulez": [{"match": {"kind": "point", "value": 0.0}, "mu": 0.5}]},
         "mu spec top level: unknown key(s) 'rulez'"),
        ({"default": 1.0, "rules": [{"match": {"kind": "point", "value": 0.0}, "mu": 0.5, "weight": 1.0}]},
         "rules[0]: unknown key(s) 'weight'"),
    ])
    def test_unread_mu_spec_key(self, capsys, tmp_path, cmd, doc, field):
        spec = self.write(tmp_path, "mu.json", doc)
        argv = ["axioms", spec] if cmd == "axioms" else ["eval", "mu", "--mu", spec, "--a", "0"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("change, field", [
        ({"horizon": "abc"}, "horizon: expected an integer, got 'abc'"),
        ({"mu": [1]}, "mu: expected an object, got list"),
        ({"mu": {"self_minus:abc": 0.5}}, "'self_minus:abc'"),
        ({"candidates": ["x"]}, "candidates"),
        ({"tolerances": {"eq_tol": "x"}}, "tolerances.eq_tol"),
        ({"sequence": {"form": "sq_ratio", "params": [], "n_max": 50}}, "sequence.params"),
        # a top-level key the parser does not read is refused, not dropped
        ({"envelopes": [{"expr": "self", "candidate": 1.0, "label": "harmonic"}]}, "'envelopes'"),
        ({"epsilon": [0.5]}, "'epsilon'"),
        # tags are <expr> or <expr>_minus:<offset>, the two spellings the writer emits
        ({"mu": {"sum_with": 0.5}}, "'sum_with'"),
        ({"mu": {"product_with": 0.5}}, "'product_with'"),
        ({"mu": {"self:1.0": 0.5}}, "'self:1.0'"),
        # two tags that weigh the same stream: the first would win silently
        ({"mu": {"self_minus:1.0": 0.5, "self_minus:1.0000000000001": 0.25}},
         "'self_minus:1.0' and 'self_minus:1.0000000000001'"),
        ({"mu": {"self": 0.5, "self_minus:0": 0.25}}, "'self' and 'self_minus:0.0'"),
        # a nested key the parser does not read is refused, not dropped
        ({"tolerances": {"eq_tl": 0.5}}, "tolerances: unknown key(s) 'eq_tl'"),
        ({"tolerances": {"identity_tol": 1e-9}}, "tolerances: unknown key(s) 'identity_tol'"),
        ({"sequence": {"form": "sq_ratio", "params": {}, "n_max": 50, "nmax": 50}},
         "sequence: unknown key(s) 'nmax'"),
        ({"candidates": [{"expr": "self", "value": 1.0, "note": "limit"}]},
         "candidates: unknown key(s) 'note'"),
        ({"mu": {"self": {"form": "inv_exp_p1_sq", "params": {}, "scale": 2.0}}},
         "mu[self]: unknown key(s) 'scale'"),
        # form params are exactly the form's parameter names
        ({"sequence": {"form": "log_plus", "params": {"c": 1.0, "d": 7.0}, "n_max": 50}},
         "params: unknown key(s) 'd'"),
        ({"mu": {"self": {"form": "rational_poly", "params": {"p": [1], "q": [1], "r": 1.0}}}},
         "params: unknown key(s) 'r'"),
        # a tag or candidate on a stream the experiment does not have
        ({"mu": {"sum": 0.5}}, "'sum' needs a partner sequence"),
        ({"candidates": [{"expr": "partner", "value": 1.0}]}, "'partner' needs a partner sequence"),
        # the refusal names the earlier tag that weighs the same stream, not the first tag
        ({"mu": {"self_minus:2.0": 0.5, "self_minus:1.0": 0.5, "self_minus:1.0000000000001": 0.25}},
         "tags 'self_minus:1.0' and 'self_minus:1.0000000000001'"),
        ({"tolerances": {"eq_tol": 0.25}, "mu": {"self": 0.5, "self_minus:-0.25": 0.25}},
         "tags 'self' and 'self_minus:-0.25'"),
        # NaN and the infinities are refused where they are read
        ({"candidates": ["nan"], "eps": ["nan", 0.1]}, "candidates: expected a finite number, got 'nan'"),
        ({"candidates": [float("nan")]}, "candidates: expected a finite number, got nan"),
        ({"eps": ["nan", 0.1]}, "eps: expected a finite number, got 'nan'"),
        ({"eps": ["inf"]}, "eps: expected a finite number, got 'inf'"),
        ({"mu": {"self_minus:nan": 0.5}}, "tag 'self_minus:nan': expected a finite number"),
        ({"sequence": {"form": "log_plus", "params": {"c": "-inf"}, "n_max": 50}}, "sequence.params.c"),
    ])
    def test_malformed_experiment(self, capsys, tmp_path, change, field):
        doc = {"sequence": {"form": "sq_ratio", "params": {}, "n_max": 50}, "candidates": [1.0], "horizon": 50}
        code, _, err = run(capsys, "converge", self.write(tmp_path, "exp.json", {**doc, **change}))
        assert code == 2 and err.startswith("error:") and field in err

    # candidates and eps are arrays and label a string: neither iterated nor rewritten
    @pytest.mark.parametrize("change, field", [
        ({"candidates": 5}, "candidates: expected an array, got int"),
        ({"candidates": {"a": 1}}, "candidates: expected an array, got dict"),
        ({"candidates": None}, "candidates: expected an array, got NoneType"),
        ({"eps": 5}, "eps: expected an array, got int"),
        ({"eps": "0.1"}, "eps: expected an array, got str"),
        ({"label": [1]}, "label: expected a string, got list"),
        ({"label": None}, "label: expected a string, got NoneType"),
        ({"label": 3}, "label: expected a string, got int"),
    ])
    def test_wrongly_typed_experiment_field(self, capsys, tmp_path, change, field):
        doc = {"sequence": {"form": "sq_ratio", "params": {}, "n_max": 50}, "candidates": [1.0], "horizon": 50}
        code, _, err = run(capsys, "converge", self.write(tmp_path, "exp.json", {**doc, **change}))
        assert code == 2 and err.startswith("error:") and field in err

    # sequence, family and weight-form params are converted when the spec is read
    @pytest.mark.parametrize("change, field", [
        ({"sequence": {"form": "log_plus", "params": {"c": "x"}, "n_max": 50}}, "sequence.params.c"),
        ({"sequence": {"form": "constant", "params": {"value": "x"}, "n_max": 50}}, "sequence.params.value"),
        ({"mu": {"self": {"form": "rational_poly", "params": {"p": 5, "q": [1]}}}}, "mu[self].params.p"),
        ({"mu": {"self": {"form": "rational_poly", "params": {"p": [1], "q": []}}}}, "mu[self].params.q"),
    ])
    def test_malformed_form_params_in_experiment(self, capsys, tmp_path, change, field):
        doc = {"sequence": {"form": "sq_ratio", "params": {}, "n_max": 50}, "candidates": [1.0], "horizon": 50}
        code, _, err = run(capsys, "converge", self.write(tmp_path, "exp.json", {**doc, **change}))
        assert code == 2 and err.startswith("error:") and field in err

    def test_malformed_family_weight_params(self, capsys, tmp_path):
        rule = {"match": {"kind": "family", "form": "log_n_plus_c", "params": {"c": 0.0}, "n_max": 50},
                "mu": {"form": "rational_poly", "params": {"p": ["x"], "q": [1]}}}
        spec = self.write(tmp_path, "mu.json", {"default": 1.0, "rules": [rule]})
        code, _, err = run(capsys, "axioms", spec)
        assert code == 2 and err.startswith("error:") and "rules[0].mu.params.p[0]" in err

    # an input file that is not UTF-8 (here UTF-16 with its ff fe mark) names the file
    @pytest.mark.parametrize("cmd", ["converge", "axioms", "eval --mu", "axioms --samples"])
    def test_non_utf8_input_file(self, capsys, tmp_path, cmd):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + '{"default": 1.0, "rules": []}'.encode("utf-16-le"))
        argv = {"converge": ["converge", str(bad)],
                "axioms": ["axioms", str(bad)],
                "eval --mu": ["eval", "mu", "--a", "1", "--mu", str(bad)],
                "axioms --samples": ["axioms", "--samples", str(bad)]}[cmd]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(bad) in err and "UTF-8" in err


class TestRuleWalk:
    # a rule point holding a tiny imaginary part is within tol of a real
    # value, and every walk must weigh that value by the rule
    @pytest.mark.parametrize("match, value", [
        ({"kind": "point", "value": [1.0, 1e-12]}, 1.0),
        ({"kind": "set", "values": [[2.0, 5e-10]]}, 2.0),
    ])
    def test_complex_rule_points_match_real_values(self, capsys, tmp_path, match, value):
        spec = {"default": 1.0, "rules": [{"match": {**match, "tol": 1e-9}, "mu": 0.25}]}
        mu = load_mu_spec(spec)
        assert mu_eval(FieldContext(mu=mu), value) == 0.25
        assert mu.weight_many(np.array([value])).tolist() == [0.25]
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps({
            "sequence": {"form": "constant", "params": {"value": value}, "n_min": 1, "n_max": 3},
            "candidates": [0.0], "horizon": 3, "fallback_mu": spec,
        }))
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "converge", str(exp), "--trace", str(trace))
        assert code == 0
        rows = list(csv.DictReader(trace.read_text().splitlines()))
        assert [float(r["membership"]) for r in rows] == [0.25] * 3


class TestTolerances:
    # demo tolerances come from the catalog, converge tolerances from the
    # spec's "tolerances" block; a --tol there is refused, not ignored
    @pytest.fixture()
    def experiment_path(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({"sequence": {"form": "sq_ratio", "params": {}, "n_max": 50},
                                 "candidates": [1.0], "horizon": 50}))
        return str(p)

    @pytest.mark.parametrize("tol", ["0", "1e-6"])
    @pytest.mark.parametrize("before", [True, False])
    def test_demo_and_converge_reject_tol(self, capsys, experiment_path, tol, before):
        for argv, source in ((["demo", "unbounded_convergent"], "catalog"),
                             (["converge", experiment_path], "'tolerances'")):
            flag = [f"--tol={tol}"]
            code, out, err = run(capsys, *(flag + argv if before else argv + flag))
            assert code == 2 and out == ""
            assert err.startswith("error:") and "--tol" in err and source in err

    # only identities draws random operands; elsewhere a --seed is refused, not ignored
    @pytest.mark.parametrize("argv", [["axioms"], ["eval", "mu_abs", "--a", "2"], ["converge"],
                                      ["demo", "unbounded_convergent"]])
    @pytest.mark.parametrize("before", [True, False])
    def test_seed_outside_identities_is_refused(self, capsys, experiment_path, argv, before):
        argv = argv + [experiment_path] if argv == ["converge"] else argv
        flag = ["--seed", "5"]
        code, out, err = run(capsys, *(flag + argv if before else argv + flag))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--seed" in err


class TestDemo:
    def test_demo_runs_clean(self, capsys):
        code, out, _ = run(capsys, "demo", "unbounded_convergent")
        assert code == 0
        assert "probe" in out

    def test_unknown_demo_lists_catalog(self, capsys):
        code, _, err = run(capsys, "demo", "nope")
        assert code == 2
        for name in ("nonunique_limit", "unbounded_convergent", "sum_failure", "product_failure"):
            assert name in err


class TestIdentities:
    def test_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "identities", "R3", "C6", "--trials", "40", "--seed", "1")
        assert code == 0
        assert "R3" in out and "C6" in out

    def test_literal_fails_with_exit_1(self, capsys):
        code, out, _ = run(capsys, "identities", "C7", "--literal", "--trials", "10", "--seed", "1")
        assert code == 1
        assert "C7_literal" in out

    def test_max_residual_covers_failing_trials(self, capsys):
        code, out, _ = run(capsys, "identities", "C7", "--literal", "--trials", "50")
        row = next(line.split() for line in out.splitlines() if line.split()[:1] == ["C7_literal"])
        failed, max_residual = int(row[2]), float(row[4])
        assert code == 1 and failed == 45
        assert max_residual > FieldContext.eq_tol

    def test_random_flag_is_gone(self, capsys):
        code, _, err = run(capsys, "identities", "O1", "--random", "--trials", "5")
        assert code == 2 and "--random" in err

    def test_unknown_identity_is_exit_2(self, capsys):
        code, _, err = run(capsys, "identities", "QQ", "--trials", "5")
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_non_positive_trials_is_refused(self, capsys, trials):
        # a sweep of no trials checks nothing, and must not read as a pass
        code, out, err = run(capsys, "--json", "identities", "O1", "--trials", trials)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--trials" in err

    def test_fixed_mu_guard_counts_unmet(self, capsys, tmp_path):
        p = tmp_path / "zero.json"
        p.write_text('{"default": 0.0, "rules": []}')
        code, out, _ = run(capsys, "identities", "R3", "--mu", str(p), "--trials", "20")
        assert code == 0
        assert " 20" in out  # all trials unmet, none failed


# every usage error is printed once, by main, with the error: prefix
@pytest.mark.parametrize("argv, message", [
    (["eval", "definitely_not_an_op", "--a", "1"], "unknown op 'definitely_not_an_op'"),
    (["eval", "mu_abs"], "op mu_abs needs --a"),
    (["demo", "nope"], "unknown demo 'nope'"),
    (["identities", "O1", "QQ", "--trials", "5"], "unknown identities: QQ"),
])
def test_unknown_name_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


# a refusal of the parser is one error: line too, not a usage block
@pytest.mark.parametrize("argv, message", [
    (["eval", "mu", "--a"], "argument --a: expected one argument"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["identities", "O1", "--trials", "ten"], "argument --trials: invalid int value: 'ten'"),
    (["eval", "mu_pow", "--base", "2", "--z", "1", "--branch", "1.5"], "argument --branch: invalid int value: '1.5'"),
], ids=["missing_value", "unknown_command", "bad_trials", "bad_branch"])
def test_a_parser_refusal_is_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")


# no option starts with - and a digit, so a negative operand after a space is a value
@pytest.mark.parametrize("argv", [
    ["eval", "mu", "--a", "-1e-3"],
    ["eval", "mu_conj", "--z", "-1,2"],
    ["eval", "mu_sup", "--set", "-1,2"],
    ["axioms", "--grid", "-1:1:0.5"],
    ["eval", "mu", "--a", "1", "--tol", "-1e+200"],
    ["--json", "--tol", "-1e-3", "eval", "mu", "--a", "1"],
], ids=["real", "complex", "set", "grid", "tolerance", "top_level_tolerance"])
def test_a_negative_operand_after_a_space_reads_as_its_equals_spelling(capsys, argv):
    spaced = run(capsys, *argv)
    i = next(i for i, word in enumerate(argv) if word[0] == "-" and word[1].isdigit())
    joined = run(capsys, *argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:])
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


def test_help_is_usage_on_stdout(capsys):
    code, out, err = run(capsys, "eval", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: mufield eval")


class TestReusedParser:
    """main builds its parser on the first call and reuses it: no value read by one call reaches the next."""

    def test_the_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda real=cli.build_parser: built.append(1) or real())
        cli._parser.cache_clear()
        for argv in (["eval", "mu", "--a", "1"], ["nope"], ["--json", "eval", "mu", "--a", "2"]):
            run(capsys, *argv)
        assert len(built) == 1

    def test_no_argument_value_carries_to_the_next_call(self, capsys, crisp_path, tmp_path):
        samples = tmp_path / "samples.json"
        samples.write_text("[1.0, 2.0, -3.0]")
        code, out, _ = run(capsys, "--json", "axioms", crisp_path, "--samples", str(samples), "--tol", "0.5")
        assert code == 0 and json.loads(out)["body"]["sample_count"] == 3
        code, out, _ = run(capsys, "axioms", crisp_path)  # human lines, over the default --grid
        assert code == 0 and out.startswith("axiom audit over 21 samples (sample-relative)\n")
        # demo refuses --tol and --seed, so either one left over from a call before would refuse it
        assert run(capsys, "identities", "R4", "--trials", "5", "--seed", "3")[0] == 0
        assert run(capsys, "demo", "unbounded_convergent")[0] == 0
        code, out, _ = run(capsys, "--json", "identities", "R4", "--trials", "5")
        assert code == 0 and json.loads(out)["seed"] == 0

    def test_a_refusal_stays_one_line_between_calls(self, capsys):
        for _ in range(2):
            code, out, err = run(capsys, "identities", "O1", "--trials", "ten")
            assert (code, out) == (2, "")
            assert err == "error: argument --trials: invalid int value: 'ten'\n"
            assert run(capsys, "eval", "mu", "--a", "1")[0] == 0


class TestEnvelope:
    def test_json_envelope_deterministic_modulo_timestamp(self, capsys):
        argv = ["identities", "R4", "--trials", "25", "--seed", "6", "--json"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b
        assert a["tool"] == "mufield" and a["seed"] == 6
        assert a["command"] == "identities"

    def test_envelope_carries_input_digest(self, capsys, crisp_path):
        code, out, _ = run(capsys, "axioms", crisp_path, "--json")
        env = json.loads(out)
        assert crisp_path in env["inputs"]
        assert len(env["inputs"][crisp_path]) == 64
