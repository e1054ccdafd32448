"""Every field of a spec document is read by one reader of mufield.errors.

A field of the wrong kind exits 2 with an error that names it, whichever
document and parser it comes through: JSON true and false are not numbers,
a present optional object must be an object (0, [], "" and null are not
read as absent), and every missing key reads `{where}: missing 'k'`.
"""

import json

import numpy as np
import pytest

from mufield import SequenceSpec, SpecError, ValidationError, ValueForm
from mufield.cli import main
from mufield.errors import number

SEQ = {"form": "sq_ratio", "params": {}, "n_max": 50}
EXPERIMENT = {"sequence": SEQ, "candidates": [1.0], "horizon": 50}
FAMILY = {"kind": "family", "form": "log_n_plus_c", "params": {"c": 0.0}, "n_max": 50}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def converge(capsys, tmp_path, change):
    return run(capsys, "converge", write(tmp_path, "exp.json", {**EXPERIMENT, **change}))


def axioms(capsys, tmp_path, match, mu=0.5):
    spec = {"default": 1.0, "rules": [{"match": match, "mu": mu}]}
    return run(capsys, "axioms", write(tmp_path, "mu.json", spec), "--grid=0:2:0.5")


def refused(result, field):
    code, out, err = result
    assert code == 2 and out == "" and err.startswith("error:") and field in err, err


class TestBooleansAreNotNumbers:
    @pytest.mark.parametrize("value", [True, False])
    def test_number_reader(self, value):
        with pytest.raises(SpecError, match=f"x: expected a number, got {value}"):
            number(value, "x")
        with pytest.raises(SpecError, match=f"x: expected an integer, got {value}"):
            number(value, "x", int)

    def test_numeric_strings_still_read(self):
        assert number("0.5", "x") == 0.5 and number("7", "x", int) == 7

    @pytest.mark.parametrize("change, field", [
        ({"sequence": {**SEQ, "n_min": True}}, "sequence.n_min: expected an integer, got True"),
        ({"sequence": {**SEQ, "n_max": True}}, "sequence.n_max: expected an integer, got True"),
        ({"eps": [True]}, "eps: expected a number, got True"),
        ({"candidates": [True]}, "candidates: expected a number, got True"),
        ({"candidates": [{"expr": "self", "value": True}]}, "candidates: expected a number, got True"),
        ({"horizon": True}, "horizon: expected an integer, got True"),
        ({"tolerances": {"eq_tol": True}}, "tolerances.eq_tol: expected a number, got True"),
        ({"tolerances": {"min_mu": False}}, "tolerances.min_mu: expected a number, got False"),
        ({"sequence": {"form": "log_plus", "params": {"c": True}, "n_max": 50}},
         "sequence.params.c: expected a number, got True"),
        ({"sequence": {"form": "table", "params": {"points": {"1": True, "2": 0.5}}, "n_max": 2}, "horizon": 2},
         "sequence.params.points[1]: expected a number, got True"),
        ({"mu": {"self": {"form": "rational_poly", "params": {"p": [True], "q": [1]}}}},
         "mu[self].params.p[0]: expected a number, got True"),
    ])
    def test_experiment_field(self, capsys, tmp_path, change, field):
        refused(converge(capsys, tmp_path, change), field)

    @pytest.mark.parametrize("match, field", [
        ({**FAMILY, "n_min": True}, "rules[0].match.n_min: expected an integer, got True"),
        ({**FAMILY, "n_max": True}, "rules[0].match.n_max: expected an integer, got True"),
        ({"kind": "point", "value": 0.0, "tol": True}, "rules[0].match.tol: expected a number, got True"),
        ({**FAMILY, "params": {"c": True}}, "rules[0].match.params.c: expected a number, got True"),
    ])
    def test_mu_spec_field(self, capsys, tmp_path, match, field):
        refused(axioms(capsys, tmp_path, match), field)

    def test_samples(self, capsys, tmp_path):
        samples = write(tmp_path, "samples.json", [True, 2.0])
        refused(run(capsys, "axioms", "--samples", samples), "--samples: expected a number, got True")


class TestPresentOptionalObjects:
    @pytest.mark.parametrize("key", ["partner", "fallback_mu"])
    @pytest.mark.parametrize("value", [0, [], None, ""])
    def test_experiment_object(self, capsys, tmp_path, key, value):
        refused(converge(capsys, tmp_path, {key: value}), "expected an object")

    def test_empty_fallback_mu_misses_its_default(self, capsys, tmp_path):
        refused(converge(capsys, tmp_path, {"fallback_mu": {}}), "fallback_mu top level: missing 'default'")

    @pytest.mark.parametrize("value", [0, [], None, ""])
    def test_family_params(self, capsys, tmp_path, value):
        match = {"kind": "family", "form": "sq_ratio", "params": value, "n_max": 50}
        refused(axioms(capsys, tmp_path, match), "rules[0].match.params: expected an object")

    def test_absent_objects_take_their_defaults(self, capsys, tmp_path):
        code, _, _ = converge(capsys, tmp_path, {})
        assert code == 0
        code, _, _ = axioms(capsys, tmp_path, {"kind": "family", "form": "sq_ratio", "n_max": 50}, mu=1.0)
        assert code == 0


class TestMissingKeys:
    @pytest.mark.parametrize("change, field", [
        ({"sequence": {"params": {}, "n_max": 50}}, "sequence: missing 'form'"),
        ({"partner": {"n_max": 50}}, "partner: missing 'form'"),
        ({"candidates": [{"value": 1.0}]}, "candidates: missing 'expr'"),
        ({"candidates": [{"expr": "self"}]}, "candidates: missing 'value'"),
        ({"mu": {"self": {"params": {}}}}, "mu[self]: missing 'form'"),
        ({"mu": {"self": {"form": "rational_poly", "params": {"p": [1]}}}},
         "form 'rational_poly' params: missing 'q'"),
        ({"sequence": {"form": "moebius", "params": {"a": 1, "b": 1, "c": 1}, "n_max": 50}},
         "form 'moebius' params: missing 'd'"),
        ({"sequence": {"form": "table", "params": {"points": {"1": 0.5, "3": 0.5}}, "n_max": 3}, "horizon": 3},
         "table sequence params.points: missing 2"),
    ])
    def test_experiment(self, capsys, tmp_path, change, field):
        refused(converge(capsys, tmp_path, change), field)

    def test_experiment_sequence(self, capsys, tmp_path):
        doc = {k: v for k, v in EXPERIMENT.items() if k != "sequence"}
        refused(run(capsys, "converge", write(tmp_path, "exp.json", doc)), "experiment: missing 'sequence'")

    @pytest.mark.parametrize("spec, field", [
        ({"rules": []}, "mu spec top level: missing 'default'"),
        ({"default": 1.0, "rules": [{"mu": 0.5}]}, "rules[0]: missing 'match'"),
        ({"default": 1.0, "rules": [{"match": {"kind": "point", "value": 0.0}}]}, "rules[0]: missing 'mu'"),
        ({"default": 1.0, "rules": [{"match": {"value": 0.0}, "mu": 0.5}]}, "rules[0].match: missing 'kind'"),
        ({"default": 1.0, "rules": [{"match": {"kind": "point"}, "mu": 0.5}]}, "rules[0].match: missing 'value'"),
        ({"default": 1.0, "rules": [{"match": {"kind": "set"}, "mu": 0.5}]}, "rules[0].match: missing 'values'"),
        ({"default": 1.0, "rules": [{"match": {"kind": "family", "n_max": 5}, "mu": 0.5}]},
         "rules[0].match: missing 'form'"),
    ])
    def test_mu_spec(self, capsys, tmp_path, spec, field):
        refused(run(capsys, "axioms", write(tmp_path, "mu.json", spec)), field)


class TestStrings:
    @pytest.mark.parametrize("change, field", [
        ({"sequence": {"form": 3, "n_max": 50}}, "sequence.form: expected a string, got int"),
        ({"candidates": [{"expr": ["self"], "value": 1.0}]}, "candidates.expr: expected a string, got list"),
        ({"mu": {"self": {"form": None}}}, "mu[self].form: expected a string, got NoneType"),
    ])
    def test_experiment(self, capsys, tmp_path, change, field):
        refused(converge(capsys, tmp_path, change), field)

    @pytest.mark.parametrize("match, field", [
        ({"kind": ["point"], "value": 0.0}, "rules[0].match.kind: expected a string, got list"),
        ({**FAMILY, "form": 1}, "rules[0].match.form: expected a string, got int"),
    ])
    def test_mu_spec(self, capsys, tmp_path, match, field):
        refused(axioms(capsys, tmp_path, match), field)


class TestSamplesDocument:
    def test_not_an_array(self, capsys, tmp_path):
        samples = write(tmp_path, "samples.json", {"a": 1.0})
        refused(run(capsys, "axioms", "--samples", samples), "--samples: expected an array, got dict")

    def test_invalid_json(self, capsys, tmp_path):
        samples = tmp_path / "samples.json"
        samples.write_text("[1.0,")
        refused(run(capsys, "axioms", "--samples", str(samples)), "--samples: invalid JSON")


class TestMoebiusPole:
    def test_refused_from_the_cli_with_one_line(self, capsys, tmp_path):
        seq = {"form": "moebius", "params": {"a": 1, "b": 0, "c": 1, "d": -3}, "n_max": 50}
        code, out, err = converge(capsys, tmp_path, {"sequence": seq})
        assert code == 2 and out == ""
        assert err == "error: moebius sequence: pole at n=3 in [1, 50]\n"

    @pytest.mark.parametrize("params, n_min, n_max, pole", [
        ({"a": 1, "b": 0, "c": 1, "d": -3}, 1, 50, 3),
        ({"a": 1, "b": 0, "c": 2, "d": -14}, 7, 7, 7),
        ({"a": 1, "b": 0, "c": -0.5, "d": 10.0}, 1, 50, 20),
        ({"a": 1, "b": 1, "c": 0, "d": 0}, 4, 9, 4),  # a zero denominator at every n
    ])
    def test_refused_without_evaluating_a_term(self, monkeypatch, params, n_min, n_max, pole):
        def boom(*_):
            raise AssertionError("a term was evaluated")

        monkeypatch.setattr(ValueForm, "terms", boom)
        with pytest.raises(ValidationError, match=f"pole at n={pole} in \\[{n_min}, {n_max}\\]"):
            SequenceSpec("moebius", params, n_min, n_max)

    @pytest.mark.parametrize("params, n_min, n_max", [
        ({"a": 1, "b": 0, "c": 1, "d": -3}, 4, 50),  # the pole lies below the range
        ({"a": 1, "b": 0, "c": 1, "d": -60}, 1, 59),  # and above it
        ({"a": 1, "b": 0, "c": 1, "d": -3.5}, 1, 50),  # between two indices
        ({"a": 1, "b": 0, "c": 0, "d": 2}, 1, 50),  # a constant denominator
    ])
    def test_no_pole_in_range(self, params, n_min, n_max):
        seq = SequenceSpec("moebius", params, n_min, n_max)
        assert np.isfinite(seq.terms(np.arange(n_min, n_max + 1))).all()

    def test_family_rule_still_drops_its_pole_member(self, capsys, tmp_path):
        match = {"kind": "family", "form": "moebius", "params": {"a": 1, "b": 0, "c": 1, "d": -3}, "n_max": 50}
        code, _, err = axioms(capsys, tmp_path, match, mu=1.0)
        assert code == 0 and err == ""


def test_weight_form_pole_writes_one_error_line(capsys, tmp_path, recwarn):
    weight = {"form": "rational_poly", "params": {"p": [-3, 1], "q": [-3, 1]}}
    code, out, err = converge(capsys, tmp_path, {"sequence": {**SEQ, "n_max": 100}, "horizon": 100,
                                                "mu": {"self": weight}})
    assert code == 2 and out == ""
    assert err == "error: mu[self]: weight nan out of [0, 1] at n=3\n"
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []
