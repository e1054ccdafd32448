"""Each piece of fixed work is done once, whoever calls it.

Each exact model is kept by the object it models (mufield.exact): a weight
form is cut into pieces once per range, for the spec's weight check and every
scan's weight count alike, and a scan's stream keeps its deviation pieces.
A demo, a converge command and a library call of run_experiment therefore cut
alike. A stream of kept terms weighs each assigned form once. A new spec
builds its models again.
"""

import json

import pytest

from mufield import WeightForm, demo_catalog, exact, run_experiment, serialize_experiment
from mufield.cli import main
from mufield.demos import DEMO_NAMES, run_demo
from test_kernel import GOLDEN, demo_body


def count_cuts(monkeypatch):
    """The weight cuts, as (p, q, lo, hi) -> count, and the deviation cuts, as a count
    in a one-element list, of the _Pieces built from here on."""
    weights, deviations = {}, [0]
    cut = exact._Pieces.__init__

    def counted(self, f, bound, crit, poles, lo, hi):
        w = getattr(f, "__self__", None)
        if isinstance(w, exact._Weight):
            key = (tuple(w.p), tuple(w.q), lo, hi)
            weights[key] = weights.get(key, 0) + 1
        else:
            deviations[0] += 1
        cut(self, f, bound, crit, poles, lo, hi)

    monkeypatch.setattr(exact._Pieces, "__init__", counted)
    return weights, deviations


def test_each_weight_is_cut_once_per_range(monkeypatch):
    weights, deviations = count_cuts(monkeypatch)
    assert demo_body("sum_failure") == GOLDEN["sum_failure"]
    # n^2 / (2n+1)^3 weighs self and partner at 1, n^2 / (2 (n+1)^3) the sum at 0; the
    # spec's weight check and the weight counts of three scans read them
    assert weights == {((0.0, 0.0, 1.0), (1.0, 6.0, 12.0, 8.0), 1, 1_200_000): 1,
                       ((0.0, 0.0, 1.0), (2.0, 6.0, 6.0, 2.0), 1, 1_200_000): 1}
    # self and partner at 1 are one stream (partner is self), then the sum at 0 and
    # at 2 and the classical scan at 1
    assert deviations == [4]


def test_a_converge_command_is_one_run(monkeypatch, tmp_path, capsys):
    path = tmp_path / "sum_failure.json"
    path.write_text(json.dumps(serialize_experiment(demo_catalog("sum_failure"))))
    weights, deviations = count_cuts(monkeypatch)
    assert main(["converge", str(path)]) == 0
    assert list(weights.values()) == [1, 1] and deviations == [4]


def test_a_second_run_builds_its_models_again(monkeypatch):
    built = []
    model = exact._Weight.__init__
    monkeypatch.setattr(exact._Weight, "__init__", lambda self, w: built.append(w) or model(self, w))
    runs = []
    for _ in range(2):
        built.clear()
        assert demo_body("product_failure") == GOLDEN["product_failure"]
        runs.append(list(built))
    # three forms, the fallback's constant 0.0 for the product at 1/3 and weight 1 for the classical scans
    assert runs[0][3:] == [0.0, 1.0] and runs[0] == runs[1]


def test_a_stream_of_kept_terms_weighs_each_form_once(monkeypatch):
    weighed = []
    weights = WeightForm.weights
    monkeypatch.setattr(WeightForm, "weights", lambda self, n: weighed.append(n.size) or weights(self, n))
    report = run_demo("nonunique_limit")
    assert report.ok
    # n / (n+1)^3 weighs both candidates of the log_plus stream over [1, 100,000], once;
    # the spec's weight check and the family rules' check weigh no index
    assert sum(weighed) == 100_000


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_a_library_call_cuts_as_a_demo_and_a_converge_do(monkeypatch, tmp_path, capsys, name):
    # the spec's weight check, outside run_experiment, reads the models its scans read
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(serialize_experiment(demo_catalog(name))))
    weights, deviations = count_cuts(monkeypatch)
    counts = []
    for call in (lambda: run_experiment(demo_catalog(name)), lambda: main(["--json", "converge", str(path)]),
                 lambda: run_demo(name)):
        weights.clear()
        deviations[0] = 0
        call()
        counts.append((dict(weights), deviations[0]))
    capsys.readouterr()
    assert counts[0] == counts[1] == counts[2]
