"""The shared scan kernel reproduces the per-scan results it replaced.

The golden file holds the four catalog demos' reports as computed by the
scans before they shared one stream per experiment; every float is compared
exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mufield import (
    ExperimentSpec,
    FieldContext,
    SequenceSpec,
    WeightForm,
    classical_converges,
    constant_weight,
    run_experiment,
)
from mufield.cli import _to_jsonable
from mufield.demos import DEMO_NAMES, run_demo
from mufield.forms import _horner

GOLDEN = json.loads((Path(__file__).parent / "data" / "demo_golden.json").read_text())


def demo_body(name):
    d = run_demo(name)
    return {
        "claims": [[label, flag] for label, flag in d.claims],
        "verdicts": _to_jsonable(d.report.verdicts),
        "classical": [[e, c, _to_jsonable(v)] for e, c, v in d.report.classical],
        "theorem_checks": _to_jsonable(d.report.theorem_checks),
        "bounds": _to_jsonable(d.bounds),
        "literal_variant": _to_jsonable(d.literal_variant),
    }


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_reports_match_golden(name):
    assert demo_body(name) == GOLDEN[name]


def test_classical_verdicts_equal_standalone_scan():
    # the partner starts later than the sequence, so the experiment range is
    # shorter than the sequence's own, and eq_tol is not the default: the
    # classical scans must keep the sequence's range and default tolerances
    seq = SequenceSpec("moebius", {"a": 1.0, "b": 1.0, "c": 1.0, "d": 0.0}, n_min=1, n_max=2_000)
    partner = SequenceSpec("sq_ratio", {}, n_min=30, n_max=2_000)
    eps = (1e-1, 1e-2)
    exp = ExperimentSpec(
        sequence=seq,
        partner=partner,
        assignment=(("sum", None, constant_weight(0.5)),),
        candidates=(("self", 1.0), ("partner", 1.0), ("self", 1.05), ("sum", 2.0)),
        eps_schedule=eps,
        horizon=1_500,
        ctx=FieldContext(eq_tol=0.2),
    )
    report = run_experiment(exp)
    assert [(e, c) for e, c, _ in report.classical] == [("self", 1.0), ("self", 1.05), ("partner", 1.0)]
    for expr, cand, verdict in report.classical:
        alone = classical_converges(seq if expr == "self" else partner, cand, eps, exp.horizon)
        assert verdict == alone
    # 1 + 1/n lands on 0.1 at n = 10 and on 0.01 at n = 100, which the eps
    # slack counts as within; eq_tol = 0.2 would give 9, the range from 30 on 30
    assert report.classical[0][2].eps_table == ((0.1, 10), (0.01, 100))
    assert [c.verdict for c in report.theorem_checks] == ["pass", "pass"]


COEFFS = [
    [0, 1],
    [1, 3, 3, 1],
    [0, 0, 1],
    [3, 9],
    [2.5, -1.25, 0.5, -0.1, 1e-3],
]


def horner_by_rebinding(coeffs, n):
    acc = np.zeros_like(n, dtype=float) if isinstance(n, np.ndarray) else 0.0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


@pytest.mark.parametrize("coeffs", COEFFS)
def test_in_place_horner_is_bit_identical(coeffs):
    n = np.concatenate([np.arange(1.0, 5_001.0), np.array([0.5, -3.25, 1e6, 1e60, 1234.5, -0.75])])
    got = _horner(coeffs, n)
    want = horner_by_rebinding(coeffs, n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_rational_poly_weights_match_scalar_division():
    wf = WeightForm("rational_poly", {"p": [0, 0, 1], "q": [1, 6, 12, 8]})
    n = np.arange(1.0, 2_001.0)
    want = np.array([horner_by_rebinding([0, 0, 1], x) / horner_by_rebinding([1, 6, 12, 8], x) for x in n])
    assert wf.weights(n).tobytes() == want.tobytes()
