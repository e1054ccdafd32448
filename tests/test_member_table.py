"""Family lookups on the sorted member table, and the axiom audit in row blocks.

Each lookup is checked against a brute-force nearest member within tol (the
lowest n on a tie), and each row-block audit against a per-pair audit that
computes every sum and product with Python's own `x + y` and `x * y`.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mufield.membership as membership
from mufield import (
    DomainError,
    FamilyMatcher,
    FieldContext,
    MembershipFunction,
    MuRule,
    PointMatcher,
    SetMatcher,
    ValidationError,
    ValueForm,
    WeightForm,
    check_axioms,
)
from mufield.cli import main
from mufield.membership import MAX_FAMILY_MEMBERS, AxiomViolation

INV_N = WeightForm("rational_poly", {"p": [1], "q": [0, 1]})  # 1/n: each n has its own weight


def brute_match(form: ValueForm, n_min: int, n_max: int, tol: float, v: float):
    """The n in [n_min, n_max] whose finite member is nearest v within tol, the lowest on a tie."""
    with np.errstate(all="ignore"):
        members = form.terms(np.arange(n_min, n_max + 1, dtype=float))
    best = None
    for n, m in zip(range(n_min, n_max + 1), members.tolist()):
        d = abs(v - m)
        if math.isfinite(m) and d <= tol and (best is None or d < best[0]):
            best = (d, n)
    return None if best is None else best[1]


_params = st.floats(-4, 4, allow_subnormal=False).map(lambda x: round(x, 2))
_forms = st.one_of(
    st.builds(lambda c: ValueForm("log_n_plus_c", {"c": c}), _params),
    st.builds(lambda c: ValueForm("exp_n_plus_c", {"c": c}), _params),
    st.just(ValueForm("sq_ratio", {})),
    st.builds(lambda a, b, c, d: ValueForm("moebius", {"a": a, "b": b, "c": c, "d": d}),
              _params, _params, _params, _params),
)


@st.composite
def _families(draw):
    form = draw(_forms)
    # exp_n_plus_c ranges may run past its overflow at n ~ 709.78
    n_min = draw(st.integers(1, 800 if form.form == "exp_n_plus_c" else 50))
    n_max = n_min + draw(st.integers(0, 300))
    return FamilyMatcher(form, n_min, n_max, draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.5])))


def _probes(m: FamilyMatcher, draw) -> list:
    """Values at members, at midpoints, just past either range end, NaN and +-inf."""
    with np.errstate(all="ignore"):
        members = m.form.terms(np.arange(m.n_min, m.n_max + 1, dtype=float))
    finite = np.sort(members[np.isfinite(members)])
    probes = [math.nan, math.inf, -math.inf]
    if finite.size:
        probes += draw(st.lists(st.sampled_from(finite.tolist()), max_size=8))
        if finite.size > 1:
            mids = ((finite[1:] + finite[:-1]) / 2).tolist()
            probes += draw(st.lists(st.sampled_from(mids), max_size=8))
        for end in (finite[0], finite[-1]):
            for step in (m.tol, 1.5 * m.tol, 1e-12, 0.1):
                probes += [end - step, end + step]
    return probes


@settings(max_examples=300, deadline=None)
@given(_families(), st.data())
def test_lookup_is_the_brute_force_nearest_member(m, data):
    probes = _probes(m, data.draw)
    with np.errstate(all="ignore"):
        members = m.form.terms(np.arange(m.n_min, m.n_max + 1, dtype=float))
    finite = np.sort(members[np.isfinite(members)])
    if np.any(finite[1:] == finite[:-1]):  # float-equal members are refused on first lookup
        with pytest.raises(ValidationError, match="nearest member is ambiguous"):
            m.match_indices(np.array(probes))
        return
    want = [brute_match(m.form, m.n_min, m.n_max, m.tol, v) for v in probes]
    assert [None if k < 0 else k for k in m.match_indices(np.array(probes)).tolist()] == want
    assert [m.match_index(v) for v in probes] == want
    # through weight_many: a complex value matches only when its imaginary part is zero
    mu = MembershipFunction([MuRule(m, INV_N)], 0.0)
    real = [0.0 if k is None else 1.0 / k for k in want]
    values = np.array(probes, dtype=complex)
    assert mu.weight_many(values).tolist() == real
    assert mu.weight_many(values + 1e-3j).tolist() == [0.0] * len(probes)
    assert [mu.weight(complex(v, 0.5)) for v in probes] == [0.0] * len(probes)


def test_range_end_member_is_found():
    # the nearest member within tol is the range's last one, n = 245, 2.2e-4 away
    m = FamilyMatcher(ValueForm("sq_ratio", {}), 20, 245, 1e-3)
    v = 1.0079647602369044
    assert brute_match(m.form, 20, 245, 1e-3, v) == 245
    assert m.match_index(v) == 245


def test_tie_takes_the_lower_index_on_either_side():
    # members -n fall as n rises, so of two tied neighbours the lower n is the right one
    m = FamilyMatcher(ValueForm("moebius", {"a": -1.0, "b": 0.0, "c": 0.0, "d": 1.0}), 1, 100, 1.0)
    assert m.match_indices(np.array([-10.5, -10.25, -10.75])).tolist() == [10, 10, 11]


def test_float_equal_members_are_refused(capsys, tmp_path):
    # a constant family: every member is 1.0, so the nearest member is ambiguous
    spec = tmp_path / "constant.json"
    spec.write_text(json.dumps({"default": 0.0, "rules": [{"match": {
        "kind": "family", "form": "moebius", "params": {"a": 0.0, "b": 1.0, "c": 0.0, "d": 1.0},
        "n_min": 1, "n_max": 50}, "mu": 1.0}]}))
    code = main(["eval", "mu", "--mu", str(spec), "--a", "1.0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "n=1 and n=2" in err


def test_family_range_cap(capsys, tmp_path):
    form = ValueForm("log_n_plus_c", {"c": 0.0})
    MuRule(FamilyMatcher(form, 5, 4 + MAX_FAMILY_MEMBERS), 1.0)
    with pytest.raises(ValidationError, match=f"log_n_plus_c on \\[5, {5 + MAX_FAMILY_MEMBERS}\\]"):
        MuRule(FamilyMatcher(form, 5, 5 + MAX_FAMILY_MEMBERS), 1.0)
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"default": 0.0, "rules": [{"match": {
        "kind": "family", "form": "log_n_plus_c", "params": {"c": 0.0},
        "n_min": 1, "n_max": MAX_FAMILY_MEMBERS + 1}, "mu": 1.0}]}))
    code = main(["eval", "mu", "--mu", str(spec), "--a", "1.0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "log_n_plus_c on [1, 2000001]" in err and f"cap of {MAX_FAMILY_MEMBERS}" in err


def test_member_table_is_built_on_first_lookup():
    m = FamilyMatcher(ValueForm("moebius", {"a": 0.0, "b": 1.0, "c": 0.0, "d": 1.0}), 1, 50)
    MembershipFunction([MuRule(m, 1.0)], 0.0)  # building the function does not build the table
    with pytest.raises(ValidationError):
        m.match_index(1.0)


# ---------------------------------------------------------------------------
# the axiom audit in row blocks
# ---------------------------------------------------------------------------

def pairwise_violations(mu: MembershipFunction, tol: float, pts: list) -> list:
    """Axioms (i) and (iii), one pair at a time with Python's + and *, in pair order."""
    w = [mu.weight(x) for x in pts]
    found = []
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            bound = min(w[i], w[j])
            for axiom, v in (("i", x + y), ("iii", x * y)):
                if mu.weight(v) < bound - tol:
                    found.append(AxiomViolation(axiom, (x, y), mu.weight(v), bound))
    return found


_pool = [0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1j, -1j, 1 + 1j, 0.5 - 2j, 2.25, 1.5]
_samples = st.lists(st.one_of(
    st.sampled_from(_pool),
    st.floats(-5, 5),
    st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
), min_size=1, max_size=14)
_MU = MembershipFunction([
    MuRule(SetMatcher((0.0, 1.0, -1.0, 1j, -1j), 1e-9), 1.0),
    MuRule(PointMatcher(2.0, 1e-6), 0.6),
    MuRule(FamilyMatcher(ValueForm("sq_ratio", {}), 1, 40, 1e-9), INV_N),
    MuRule(PointMatcher(1 + 1j, 1e-9), 0.8),
], 0.3)


@settings(max_examples=150, deadline=None)
@given(_samples, st.sampled_from([1, 5, 16, 64, 65_536]))
def test_row_block_audit_matches_the_pairwise_audit(pts, block):
    with pytest.MonkeyPatch.context() as mp:  # a small block makes one audit span several
        mp.setattr(membership, "AXIOM_BLOCK", block)
        report = check_axioms(FieldContext(mu=_MU, eq_tol=1e-9), pts)
    assert [v for v in report.violations if v.axiom in ("i", "iii")] == pairwise_violations(_MU, 1e-9, pts)


def test_complex_products_are_pythons_own():
    rng = np.random.default_rng(3)
    pts = [complex(a, b) for a, b in rng.normal(scale=1e3, size=(40, 2))]
    out = np.empty((len(pts), len(pts)), dtype=complex)
    membership._outer_product(np.array(pts), np.array(pts), out)
    assert out.tolist() == [[x * y for y in pts] for x in pts]


@pytest.mark.parametrize("block", [6, 12, 65_536])
def test_first_non_finite_result_is_named_in_pair_order(monkeypatch, block):
    monkeypatch.setattr(membership, "AXIOM_BLOCK", block)  # 1, 2 or all 3 rows a block
    # (1e308, 1e308) is the first pair with a non-finite result; its sum comes before its product
    with pytest.raises(DomainError, match=r"1e\+308 \+ 1e\+308 = inf is not finite"):
        check_axioms(FieldContext(), [1.0, 1e308, 3.0])
