"""The shared scan kernel reproduces the per-scan results it replaced.

The golden file holds the four catalog demos' reports as computed by the
scans before they shared one stream per experiment; every float is compared
exactly. The eps table, computed from block maxima, is held to the per-eps
scan it replaced, and each assigned weight form is evaluated once.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mufield import (
    ExperimentSpec,
    FieldContext,
    SequenceSpec,
    WeightForm,
    classical_converges,
    constant_weight,
    mu_converges,
    run_experiment,
    scaled_deviation,
    seq_bounded_report,
)
from mufield.cli import _to_jsonable
from mufield.demos import DEMO_NAMES, run_demo
from mufield.forms import _horner
from mufield.sequences import DEFAULT_EPS, EPS_BLOCK, _eps_table, trace_rows

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
    # a zero top coefficient: from acc = 0, the first step 0 * n + -0.0 is
    # -0.0 only where n is negative, so it cannot be skipped
    [1, 2, 0.0],
    [1, 2, -0.0],
    [-0.0],
    [0.0],
    [3, -0.0, -0.0],
    [-0.0, 0.0, -0.0],
    [-0.0, -0.0],
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


def eps_n_reference(dev, n0, eps, eq_tol):
    """N(eps) by one full pass per eps: the scan the eps table replaced."""
    bad = dev >= eps * (1.0 + eq_tol)
    if not bad.any():
        return n0
    last = int(np.nonzero(bad)[0][-1])
    return None if last == dev.size - 1 else n0 + last + 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 4095, 4096, 4097, 3 * 4096 + 17, 1_200_000]), st.integers(0, 2**32 - 1),
       st.permutations(DEFAULT_EPS + (0.5, 3e-3)), st.sampled_from([1e-9, 0.25]), st.data())
def test_eps_table_matches_per_eps_scan(size, seed, schedule, eq_tol, data):
    rng = np.random.default_rng(seed)
    n0 = data.draw(st.integers(1, 50))
    # a decaying envelope with noise, so N(eps) falls anywhere in the range
    dev = 10.0 ** (-8.0 * np.arange(size) / size) * rng.uniform(0.0, 2.0, size)
    for _ in range(data.draw(st.integers(0, 3))):  # NaN runs, some longer than a block
        lo = int(rng.integers(0, size))
        dev[lo:lo + int(rng.integers(1, 3 * EPS_BLOCK))] = np.nan
    if data.draw(st.booleans()) and size >= EPS_BLOCK:  # an aligned all-NaN block
        b = int(rng.integers(0, size // EPS_BLOCK))
        dev[b * EPS_BLOCK:(b + 1) * EPS_BLOCK] = np.nan
    for eps in data.draw(st.lists(st.sampled_from(schedule), max_size=4)):
        bound = float(eps) * (1.0 + eq_tol)  # exactly on the bound counts as outside
        dev[int(rng.integers(0, size))] = bound
        dev[int(rng.integers(0, size))] = np.nextafter(bound, 0.0)
    if data.draw(st.booleans()):
        dev[-1] = data.draw(st.sampled_from([np.nan, 1.0, 0.0]))
    want = tuple((eps, eps_n_reference(dev, n0, float(eps), eq_tol)) for eps in schedule)
    assert _eps_table(dev, n0, schedule, eq_tol) == want


@pytest.mark.parametrize("name", ["sum_failure", "product_failure"])
def test_each_assigned_form_is_weighed_once(monkeypatch, name):
    calls = []
    weights = WeightForm.weights

    def counted(self, n):
        calls.append((self, float(n[0]), float(n[-1])))
        return weights(self, n)

    monkeypatch.setattr(WeightForm, "weights", counted)
    exp = run_demo(name).experiment
    forms = []
    for _, _, wf in exp.assignment:
        if wf not in forms:
            forms.append(wf)
    assert calls == [(wf, exp.n_start, exp.horizon) for wf in forms]
    assert all(not w.flags.writeable for _, w in exp._weights)

    calls.clear()
    expr = exp.assignment[-1][0]  # the combined stream, weighed by its own form at offset 0
    scaled_deviation(exp, expr, 0.0, exp.n_start + 7)
    mu_converges(exp, expr, 0.0)
    next(trace_rows(exp, "self", 1.0))
    seq_bounded_report(exp, "partner")
    assert calls == []
