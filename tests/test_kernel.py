"""The shared scan kernel reproduces the per-scan results it replaced.

The golden file holds the four catalog demos' reports as computed by the
scans before they shared one stream per experiment; every float is compared
exactly. The scan reads its range SCAN_BLOCK indices at a time; its eps
table, triviality fraction, certificate and tail start are held to a
whole-array scan kept here, and the eps table to the per-eps scan it
replaced. The demos' rational streams read only a few EPS_BLOCKs per scan,
and no array spans their range.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mufield import (
    DomainError,
    ExperimentSpec,
    FieldContext,
    MembershipFunction,
    MuRule,
    PointMatcher,
    SequenceSpec,
    ValidationError,
    ValueForm,
    WeightForm,
    check_monotone,
    classical_converges,
    constant_weight,
    demo_catalog,
    mu_converges,
    run_experiment,
    seq_bounded_report,
)
from mufield.cli import _json_text
from mufield.demos import DEMO_NAMES, run_demo
from mufield.forms import _horner
from mufield.real_field import FAIL, PASS, bounds_report
from mufield.sequences import CERT_MONOTONE, DEFAULT_EPS, EPS_BLOCK, SCAN_BLOCK, _BlockPass, _Stream, trace_rows
from test_membership import BAD_WEIGHTS, weight_bad_at

GOLDEN = json.loads((Path(__file__).parent / "data" / "demo_golden.json").read_text())


def as_json(obj):
    """obj as the CLI envelope shows it, parsed back."""
    return json.loads(_json_text(obj))


def demo_body(name):
    d = run_demo(name)
    return {
        "claims": [[label, flag] for label, flag in d.claims],
        "verdicts": as_json(d.report.verdicts),
        "classical": [[e, c, as_json(v)] for e, c, v in d.report.classical],
        "theorem_checks": as_json(d.report.theorem_checks),
        "bounds": as_json(d.bounds),
        "literal_variant": as_json(d.literal_variant),
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


def scan_reference(dev, weights, n0, schedule, eq_tol, min_mu):
    """(eps table, triviality fraction, certificate, n_start) of whole arrays,
    as the scan computed them before it read its range in blocks."""
    table = tuple((eps, eps_n_reference(dev, n0, float(eps), eq_tol)) for eps in schedule)
    found = [n for _, n in table if n is not None]
    tail_from = min(found) if found else n0
    i0 = tail_from - n0
    frac = 0.0 if weights is None else float(np.mean(weights[i0:] <= min_mu))
    certificate = None
    if len(found) == len(table):
        tdev = dev[i0:]
        if tdev.size < 2 or bool(np.all(np.diff(tdev) <= eq_tol)):
            certificate = CERT_MONOTONE
    return table, frac, certificate, tail_from


def refused_where_nan(dev, weights, n0, schedule, eq_tol=1e-9):
    """Check that the scan of dev refuses its first NaN, if it has one, by name; then
    set every NaN deviation to 0.0, which reaches no bound, as a NaN did before the
    scans refused it."""
    nan = np.flatnonzero(np.isnan(dev))
    if nan.size:
        with pytest.raises(DomainError, match=rf"the deviation at n={n0 + int(nan[0])} is NaN"):
            ArrayStream(dev, weights, n0, schedule, eq_tol).scan()
        dev[nan] = 0.0


class ArrayStream(_Stream):
    """A stream whose deviations and weights over [n0, n0 + size - 1] are given
    arrays; it records every range the scan reads."""

    def __init__(self, dev, weights, n0, schedule, eq_tol=1e-9, min_mu=1e-12):
        last = n0 + dev.size - 1
        super().__init__(ExperimentSpec(
            sequence=SequenceSpec("constant", {"value": 0.0}, n_min=n0, n_max=last),
            eps_schedule=tuple(schedule), horizon=last, ctx=FieldContext(eq_tol=eq_tol, min_mu=min_mu)))
        self.arrays = dev, weights
        self.reads = []

    def _probe(self, *args):  # the given arrays are read by the blocked kernel
        return _BlockPass(self, *args)

    def deviation(self, expr, candidate, first, last, seq=None, signed=False):
        assert 0 < last - first + 1 <= SCAN_BLOCK
        self.reads.append((first, last))
        dev, weights = self.arrays
        i, j = first - self.n0, last - self.n0 + 1
        return None, dev[i:j].copy(), None if seq is not None else weights[i:j]

    def scan(self):
        """The verdict fields the scan computes, and the reads past its one pass."""
        seq = self.exp.sequence if self.arrays[1] is None else None  # no weights: the classical scan
        v = self._scan("self", 0.0, self.n0, seq)
        size = self.hi - self.n0 + 1
        passes = [(lo, min(lo + SCAN_BLOCK, self.hi + 1) - 1) for lo in range(self.n0, self.hi + 1, SCAN_BLOCK)]
        assert self.reads[:len(passes)] == passes  # every index once, in order
        extra = self.reads[len(passes):]
        assert len(extra) <= len(self.exp.eps_schedule) + 1 and all(
            b - a < EPS_BLOCK and (a - self.n0) // EPS_BLOCK == (b - self.n0) // EPS_BLOCK for a, b in extra)
        assert 0 <= v.n_start - self.n0 < size
        return v.eps_table, v.trivial_tail_fraction, v.tail_certificate, v.n_start


def test_scan_block_is_whole_eps_blocks():
    assert SCAN_BLOCK % EPS_BLOCK == 0 and SCAN_BLOCK == 65_536


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
    refused_where_nan(dev, np.ones(size), n0, schedule, eq_tol)
    want = tuple((eps, eps_n_reference(dev, n0, float(eps), eq_tol)) for eps in schedule)
    assert ArrayStream(dev, np.ones(size), n0, schedule, eq_tol).scan()[0] == want


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 2 * SCAN_BLOCK + 4097]),
       st.integers(0, 2**32 - 1), st.sampled_from([1e-9, 0.25]),
       st.sampled_from(["inside", "eps_edge", "scan_edge", "last", "first", "none"]), st.data())
def test_blocked_scan_matches_whole_array_scan(size, seed, eq_tol, tail, data):
    rng = np.random.default_rng(seed)
    n0 = data.draw(st.integers(1, 50))
    schedule = (0.5, 1e-1, 1e-3)
    # the tail starts at position t: the deviation before it reaches every eps, none after it does
    edges = [k for k in range(EPS_BLOCK, size, EPS_BLOCK if tail == "eps_edge" else SCAN_BLOCK)] or [0]
    t = {"inside": int(rng.integers(0, size)), "eps_edge": int(rng.choice(edges)), "scan_edge": int(rng.choice(edges)),
         "last": size - 1, "first": 0, "none": 0}[tail]
    dev = rng.uniform(0.0, 1e-4, size)
    if data.draw(st.booleans()):  # a monotone tail, sometimes with one rise beyond eq_tol
        dev[t:] = np.linspace(1e-4, 0.0, size - t)
        if data.draw(st.booleans()) and size - t > 1:
            at = data.draw(st.sampled_from(["after_tail", "block_edge", "last"]))
            j = {"after_tail": t + 1, "block_edge": max(t + 1, min(size - 1, SCAN_BLOCK)), "last": size - 1}[at]
            dev[j] = dev[j - 1] + data.draw(st.sampled_from([eq_tol, 2.0 * eq_tol, np.nan]))
    if t:
        dev[:t] = rng.uniform(0.0, 2.0, t)
        dev[t - 1] = 1.0
    if tail == "none":  # the last deviation reaches the smallest eps: refuted
        dev[-1] = 1e-2
    for _ in range(data.draw(st.integers(0, 2))):  # NaN runs across a scan block edge
        edge = SCAN_BLOCK * int(rng.integers(1, 3))
        dev[max(0, edge - int(rng.integers(1, EPS_BLOCK))):edge + int(rng.integers(1, EPS_BLOCK))] = np.nan
    weights = None
    if data.draw(st.booleans()):
        level = data.draw(st.sampled_from([0.0, 1e-12, 0.5]))
        weights = np.where(rng.uniform(size=size) < data.draw(st.sampled_from([0.0, 0.3, 1.0])), level, 0.75)
    if weights is None:
        eq_tol = 1e-9  # the classical scan keeps the default tolerances
    refused_where_nan(dev, weights, n0, schedule, eq_tol)
    want = scan_reference(dev, weights, n0, schedule, eq_tol, 1e-12)
    assert ArrayStream(dev, weights, n0, schedule, eq_tol).scan() == want


@pytest.mark.parametrize("j", [SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 2 * SCAN_BLOCK, 2 * SCAN_BLOCK + 4096])
@pytest.mark.parametrize("step", [2e-9, np.nan])
def test_a_rise_on_either_side_of_a_block_edge_breaks_the_certificate(j, step):
    # a decreasing tail from n0 + 1 with one step up, between deviations j - 1 and j
    size = 2 * SCAN_BLOCK + 4097
    dev = np.linspace(1e-4, 0.0, size)
    dev[0] = 1.0
    dev[j] = dev[j - 1] + step
    if step != step:  # a NaN step is a NaN deviation, which the scan refuses
        with pytest.raises(DomainError, match=rf"the deviation at n={1 + j} is NaN"):
            ArrayStream(dev, np.ones(size), 1, (0.5, 1e-1, 1e-3)).scan()
        return
    want = scan_reference(dev, np.ones(size), 1, (0.5, 1e-1, 1e-3), 1e-9, 1e-12)
    assert want[2] is None and want[3] == 2
    assert ArrayStream(dev, np.ones(size), 1, (0.5, 1e-1, 1e-3)).scan() == want


def test_scans_read_a_range_longer_than_a_block_as_whole_arrays():
    # the sum of a partner experiment over 2 blocks and a bit, weighed by the
    # fallback membership: trace rows, bounds and the monotone check
    n_max = 2 * SCAN_BLOCK + 4097
    seq = SequenceSpec("sq_ratio", {}, n_min=3, n_max=n_max)
    partner = SequenceSpec("moebius", {"a": 1.0, "b": 1.0, "c": 3.0, "d": 1.0}, n_min=3, n_max=n_max)
    ctx = FieldContext(mu=MembershipFunction((MuRule(PointMatcher(0.0, 1e-9), 1.0),), 0.5))
    exp = ExperimentSpec(sequence=seq, partner=partner, horizon=n_max, ctx=ctx,
                         assignment=(("partner", 1.0, WeightForm("rational_poly", {"p": [1], "q": [0, 1]})),))
    ns = np.arange(3, n_max + 1, dtype=float)
    terms = {"self": seq.terms(ns), "partner": partner.terms(ns)}
    terms["sum"] = terms["self"] + terms["partner"]
    w = ctx.mu.weight_many(terms["sum"] - 2.0)
    dev = np.abs(terms["sum"] - 2.0) * w
    rows = list(trace_rows(exp, "sum", 2.0))
    assert rows == list(zip(range(3, n_max + 1), terms["sum"].tolist(), w.tolist(), dev.tolist()))
    for expr, probe in (("sum", 1.0), ("partner", None)):
        v = terms[expr]
        w = ctx.mu.weight_many(v)
        assert seq_bounded_report(exp, expr, probe) == bounds_report([(v, w, v * w)], ctx.eq_tol, probe, 3, expr)
    v = mu_converges(exp, "partner", 1.0)
    wp = 1.0 / ns
    assert (v.eps_table, v.trivial_tail_fraction, v.tail_certificate, v.n_start) == scan_reference(
        np.abs(terms["partner"] - 1.0) * wp, wp, 3, exp.eps_schedule, ctx.eq_tol, ctx.min_mu)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e6, np.nan]), min_size=1, max_size=30),
       st.sampled_from([None, 0.5, 3.0]), st.data())
def test_bounds_of_blocks_equal_bounds_of_one_block(values, probe, data):
    # ties and NaN across block edges: the first extreme wins, a NaN is one
    v = np.array(values)
    w = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=v.size, max_size=v.size)))
    cuts = sorted(data.draw(st.sets(st.integers(1, v.size - 1)))) if v.size > 1 else []
    blocks = [(v[a:b], w[a:b], v[a:b] * w[a:b]) for a, b in zip([0] + cuts, cuts + [v.size])]
    whole = bounds_report([(v, w, v * w)], 1e-9, probe, 7, "self")
    assert repr(bounds_report(blocks, 1e-9, probe, 7, "self")) == repr(whole)


@pytest.mark.parametrize("at", [5, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 2 * SCAN_BLOCK + 4097])
def test_check_monotone_finds_a_drop_on_either_side_of_a_block_edge(at):
    # 1 - 1/n rises to 1, except for one drop at `at`, on a block edge or inside a block
    n_max = 2 * SCAN_BLOCK + 4097
    seq = SequenceSpec("table", {"points": {n: 1.0 - 1.0 / n - (n == at) for n in range(1, n_max + 1)}}, 1, n_max)
    rep = check_monotone(ExperimentSpec(sequence=seq, horizon=n_max))
    assert rep.verdict == FAIL and rep.details["first_violation_n"] == at - 1
    assert (rep.lhs, rep.rhs) == (1.0 - 1.0 / at - 1.0, 1.0 - 1.0 / (at - 1))
    whole = check_monotone(ExperimentSpec(sequence=SequenceSpec("moebius", {"a": 1.0, "b": -1.0, "c": 1.0, "d": 0.0},
                                                                1, n_max), horizon=n_max))
    assert whole.verdict == PASS and whole.details["sup"] == whole.rhs == 1.0 - 1.0 / n_max


@pytest.mark.parametrize("kind, shown", BAD_WEIGHTS)
@pytest.mark.parametrize("k", [3, SCAN_BLOCK, SCAN_BLOCK + 1, SCAN_BLOCK + 2, 2 * SCAN_BLOCK + 4097])
def test_blocked_validate_range_names_the_first_bad_weight(monkeypatch, kind, shown, k):
    # the first block, either side of the first block edge, and the last index of the last block
    wf = weight_bad_at(kind, k)
    want = wf.weights(np.arange(2, 2 * SCAN_BLOCK + 4098, dtype=float))
    assert np.flatnonzero(~((want >= 0.0) & (want <= 1.0)))[0] == k - 2  # the whole-array first bad n
    seen = []
    weights = WeightForm.weights
    monkeypatch.setattr(WeightForm, "weights", lambda self, n: seen.append(float(n[-1])) or weights(self, n))
    with pytest.raises(ValidationError) as raised:
        wf.validate_range(2, 2 * SCAN_BLOCK + 4097, where="mu[self]")
    assert str(raised.value) == f"mu[self]: weight {shown} out of [0, 1] at n={k}"
    assert seen[-1] >= k and (len(seen) == 1 or seen[-2] < k)  # no block past the bad one was weighed


def test_weights_read_in_blocks_are_the_whole_range_bit_for_bit():
    # a log_plus stream is read whole, its assigned form weighed one block at a time
    wf = WeightForm("rational_poly", {"p": [0, 0, 1], "q": [1, 6, 12, 8]})
    n_max = 2 * SCAN_BLOCK + 4097
    exp = ExperimentSpec(sequence=SequenceSpec("log_plus", {"c": 1.0}, 1, n_max), horizon=n_max,
                         assignment=(("self", None, wf),))
    got = np.concatenate([w for _, _, _, w in _Stream(exp).blocks("self", None)])
    assert got.tobytes() == wf.weights(np.arange(1, n_max + 1, dtype=float)).tobytes()


@pytest.mark.parametrize("name", ["sum_failure", "product_failure"])
def test_each_scan_reads_a_few_eps_blocks(monkeypatch, name):
    # the streams are rational: building weighs no index, and each scan reads
    # in floats only the windows its exact model leaves undecided
    read = {"weights": 0, "terms": 0, "scans": 0}

    def counted(method, key):
        def wrapped(self, *args):
            read[key] += 1 if key == "scans" else args[0].size
            return method(self, *args)
        return wrapped

    monkeypatch.setattr(WeightForm, "weights", counted(WeightForm.weights, "weights"))
    monkeypatch.setattr(ValueForm, "terms", counted(ValueForm.terms, "terms"))
    exp = demo_catalog(name)
    assert read == {"weights": 0, "terms": 0, "scans": 0}
    monkeypatch.setattr(_Stream, "_probe", counted(_Stream._probe, "scans"))
    assert run_demo(name).ok
    assert read["scans"] >= len(exp.candidates)
    assert read["weights"] + read["terms"] <= 2 * EPS_BLOCK * read["scans"]


def test_sum_failure_build_and_run_stay_under_2_mb():
    # no array spans the range: 1.2 M indices would be 9.6 MB each. One build
    # first, so that the lazy import of mufield.exact is not counted
    demo_catalog("sum_failure")
    tracemalloc.start()
    try:
        exp = demo_catalog("sum_failure")
        run_experiment(exp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
