"""Membership functions over the reals and complexes, and their audits.

A membership function is an ordered rule list with a default weight: the
first rule whose matcher accepts a value (within its tolerance) supplies the
weight, otherwise the default applies. All weights live in [0, 1] and are
validated eagerly at construction, scanning declared family index ranges.

One match rule holds on every path: a point or set rule accepts a value,
real or complex, within tol of one of its points, complex points included;
a family rule accepts only values whose imaginary part is zero.

The module also audits the five closure axioms a weighting must satisfy to
make the weighted reals/complexes behave like a field:

    (i)   w(x + y)  >= min(w(x), w(y))
    (ii)  w(-x)     >= w(x)
    (iii) w(x y)    >= min(w(x), w(y))
    (iv)  w(1/x)    >= w(x)          for x != 0
    (v)   w(0) = 1 = w(1)

Audits are sample-relative: they brute-force all pairs drawn from the given
samples (O(len(samples)^2) pair work) and make no claim about other points.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    DomainError, SpecError, UsageError, ValidationError, number, spec_array, spec_document, spec_object, spec_string,
)
from .forms import (
    ValueForm,
    WeightForm,
    form_params,
    parse_weight_form,
    weight_form_to_obj,
)

AXIOM_IDS = ("i", "ii", "iii", "iv", "v")
AXIOM_BLOCK = 65_536  # derived values check_axioms weighs per weight_many call

Scalar = Union[float, complex]


def _require_finite(v: Scalar, what: str = "value") -> Scalar:
    v = v if isinstance(v, complex) else float(v)
    if not cmath.isfinite(v):
        raise DomainError(f"{what} must be finite, got {v!r}")
    return v


def _unit_default(default) -> float:
    w = float(default)
    if not (0.0 <= w <= 1.0):
        raise ValidationError(f"default weight {default!r} out of [0, 1]")
    return w


@dataclass(frozen=True)
class PointMatcher:
    """Accepts values within tol of a single point."""

    value: Scalar
    tol: float = 1e-9

    def hit(self, v: Scalar) -> bool:
        return bool(self.hits(np.array([v]))[0])

    def hits(self, values: np.ndarray) -> np.ndarray:
        """Per-element hit of an array of real or complex values."""
        with np.errstate(over="ignore", invalid="ignore"):  # a distance past the float range, or NaN, matches nothing
            return np.abs(values - self.value) <= self.tol


@dataclass(frozen=True)
class SetMatcher:
    """Accepts values within tol of any member of a finite set.

    An array lookup tests each value against the two real members that
    neighbour its real part in one sorted table (the nearest, as |v - s|
    grows with the gap in real parts), found by one binary search; members
    off the real axis are tested one by one. A non-finite member matches nothing.
    """

    values: tuple
    tol: float = 1e-9

    def hit(self, v: Scalar) -> bool:
        return bool(self.hits(np.array([v]))[0])

    def _members(self) -> tuple:
        """The finite real members ascending, and those off the real axis; built on first use and kept."""
        table = getattr(self, "_table", None)
        if table is None:
            off = [isinstance(s, complex) and s.imag != 0.0 for s in self.values]
            real = np.array([s.real for s, o in zip(self.values, off) if not o], dtype=float)
            table = (np.sort(real[np.isfinite(real)]), [s for s, o in zip(self.values, off) if o])
            object.__setattr__(self, "_table", table)
        return table

    def hits(self, values: np.ndarray) -> np.ndarray:
        """Per-element hit of an array of real or complex values."""
        members, off_axis = self._members()
        hit = np.zeros(values.shape, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):  # a distance past the float range, or NaN, matches nothing
            if members.size:
                k = np.searchsorted(members, values.real)
                for j in (np.maximum(k - 1, 0), np.minimum(k, members.size - 1)):
                    hit |= np.abs(values - members.take(j)) <= self.tol
            for p in off_axis:
                hit |= np.abs(values - p) <= self.tol
        return hit


MAX_FAMILY_MEMBERS = 2_000_000  # a family's member table takes O(n_max - n_min) memory


@dataclass(frozen=True)
class FamilyMatcher:
    """Accepts values within tol of form(n) for some n in [n_min, n_max].

    Membership of a hit is looked up at the matched index, so the rule weight
    may be a WeightForm of n. A value within tol of several members matches
    the nearest one, and the lower index on a tie, so members closer together
    than tol still match their own index.

    The first lookup evaluates every member once and keeps the finite ones in
    one sorted table (non-finite members, past an exp overflow or at a
    moebius pole, match nothing). A lookup is then one binary search and a
    comparison of the two neighbours. Two float-equal members would make
    the nearest one ambiguous, so building the table refuses them.
    """

    form: ValueForm
    n_min: int
    n_max: int
    tol: float = 1e-9

    def _members(self) -> tuple:
        """The member table, built on first use and kept: the finite members
        ascending after one -inf and before two +inf sentinels, and each
        one's n - n_min as int32 (-1 at the sentinels)."""
        table = getattr(self, "_table", None)
        if table is None:
            with np.errstate(all="ignore"):
                terms = self.form.terms(np.arange(self.n_min, self.n_max + 1, dtype=float))
            order = np.argsort(terms, kind="stable")  # -inf first, then the finite, +inf and NaN last
            start = np.count_nonzero(terms == -np.inf)
            order = order[start:start + np.count_nonzero(np.isfinite(terms))]
            members = np.full(order.size + 3, np.inf)
            members[0] = -np.inf
            np.take(terms, order, out=members[1:-2])
            positions = np.full(order.size + 3, -1, dtype=np.int32)
            positions[1:-2] = order
            same = np.flatnonzero(members[1:] == members[:-1])
            if same.size and members[same[0]] < np.inf:
                k = int(same[0])
                raise ValidationError(
                    f"family {self.form.form} on [{self.n_min}, {self.n_max}]: the members at"
                    f" n={self.n_min + int(positions[k])} and n={self.n_min + int(positions[k + 1])}"
                    f" are both {float(members[k])!r}, so the nearest member is ambiguous"
                )
            table = (members, positions)
            object.__setattr__(self, "_table", table)
        return table

    def match_index(self, v: float) -> int | None:
        """The index whose member is nearest v within tol (the lower on a tie), or None."""
        k = int(self.match_indices(np.array([v], dtype=float))[0])
        return None if k < 0 else k

    def match_indices(self, values: np.ndarray) -> np.ndarray:
        """Per-element match_index of real values (NaN and +-inf match nothing), or -1."""
        members, positions = self._members()
        # members[k] < v <= members[k + 1]: the two neighbours, with k in range for any v, NaN too
        k = np.searchsorted(members[1:-1], values)
        left, right = members.take(k), members[1:].take(k)
        with np.errstate(invalid="ignore"):  # inf - inf where v is infinite
            np.subtract(values, left, out=left)
            np.subtract(right, values, out=right)
        step = right < left
        tie = right == left
        if tie.any():
            step[tie] = positions[k[tie] + 1] < positions[k[tie]]
        k += step
        np.minimum(left, right, out=left)  # the nearest distance; NaN where v is NaN or infinite
        np.add(positions.take(k), self.n_min, out=k)
        k[~(left <= self.tol)] = -1
        return k


Matcher = Union[PointMatcher, SetMatcher, FamilyMatcher]


@dataclass(frozen=True)
class MuRule:
    """One matcher with its weight (a constant or a weight form of n)."""

    matcher: Matcher
    weight: Union[float, WeightForm]

    def __post_init__(self):
        if isinstance(self.weight, WeightForm):
            if not isinstance(self.matcher, FamilyMatcher):
                raise ValidationError("index-dependent weights require a family matcher")
        else:
            w = float(self.weight)
            if not (0.0 <= w <= 1.0):
                raise ValidationError(f"rule weight {w!r} out of [0, 1]")
        tol = self.matcher.tol
        if not 0.0 <= tol < cmath.inf:  # an infinite tol would let a family match its sentinels
            raise ValidationError(f"matcher tol {tol!r} must be finite and >= 0")
        if isinstance(self.matcher, FamilyMatcher):
            m = self.matcher
            if m.n_min < 1 or m.n_min > m.n_max:
                raise ValidationError(f"family index range [{m.n_min}, {m.n_max}] is invalid")
            if m.n_max - m.n_min + 1 > MAX_FAMILY_MEMBERS:
                raise ValidationError(
                    f"family rule {m.form.form} on [{m.n_min}, {m.n_max}] has {m.n_max - m.n_min + 1}"
                    f" members, more than the cap of {MAX_FAMILY_MEMBERS}"
                )


@dataclass(frozen=True)
class MembershipFunction:
    """Ordered rules with a default weight; first matching rule wins.

    Rule order is significant and user-controlled; overlapping matchers are
    allowed. Construction scans every family rule's index range and rejects
    any weight outside [0, 1], so evaluation never has to re-check.

    Construction also compiles the point and set rules ahead of the first
    family rule into one flat tuple of (point, tol, weight) rows, one row per
    point: the scalar weight reads them from there and nowhere else.
    from_points builds a function from such rows alone, and its rules are
    then built on first read.
    """

    rules: tuple
    default: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "default", _unit_default(self.default))
        rows, family = [], False
        validated = []  # (form, n_min, n_max) already scanned
        for i, rule in enumerate(self.rules):
            if not isinstance(rule, MuRule):
                raise ValidationError(f"rules[{i}] is not a MuRule")
            m = rule.matcher
            if isinstance(m, FamilyMatcher):
                family = True
                key = (rule.weight, m.n_min, m.n_max)
                if isinstance(rule.weight, WeightForm) and key not in validated:
                    rule.weight.validate_range(key[1], key[2], where=f"rules[{i}]")
                    validated.append(key)
            elif not family:
                points = (m.value,) if isinstance(m, PointMatcher) else m.values
                rows += [(p, m.tol, float(rule.weight)) for p in points]
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_family", family)

    @classmethod
    def from_points(cls, rows, default: float) -> MembershipFunction:
        """Point rules given as (point, tol, weight) rows, the first match winning,
        with a float weight in [0, 1] and a tol >= 0 on each row."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "default", _unit_default(default))
        object.__setattr__(mu, "_rows", tuple(rows))
        object.__setattr__(mu, "_family", False)
        for _, tol, w in mu._rows:
            if not (0.0 <= w <= 1.0 and 0.0 <= tol < cmath.inf):
                raise ValidationError(f"point row weight {w!r} out of [0, 1] or tol {tol!r} not finite and >= 0")
        return mu

    def __getattr__(self, name):
        """The rules of a function from from_points, one point rule per row, built on first read."""
        if name != "rules":
            raise AttributeError(name)
        rules = tuple(MuRule(PointMatcher(p, tol), w) for p, tol, w in self._rows)
        object.__setattr__(self, "rules", rules)
        return rules

    def weight(self, v: Scalar) -> float:
        """Weight of the first rule accepting v, else the default.

        The point and set rules ahead of the first family rule are tested as
        flat rows; from the first family rule on, weight_many walks the rules.
        """
        try:
            for p, tol, w in self._rows:
                if abs(v - p) <= tol:
                    return w
        except OverflowError:  # a finite |v - p| past the float range, which weight_many reads as inf
            return float(self.weight_many(np.array([v]))[0])
        if self._family:
            return float(self.weight_many(np.array([v]))[0])
        return self.default

    def weight_many(self, values: np.ndarray) -> np.ndarray:
        """Weight of each real or complex value; first matching rule wins."""
        out = np.full(values.shape, self.default)
        decided = np.zeros(values.shape, dtype=bool)
        real = values
        if np.iscomplexobj(values):
            real = np.where(values.imag == 0.0, values.real, np.nan)
        for rule in self.rules:
            m, w = rule.matcher, rule.weight
            if isinstance(m, FamilyMatcher):
                ks = m.match_indices(real)
                hit = ks >= 0
                take = hit & ~decided
                if take.any():
                    out[take] = w.weights(ks[take].astype(float)) if isinstance(w, WeightForm) else float(w)
            else:
                hit = m.hits(values)
                out[hit & ~decided] = float(w)
            decided |= hit
            if decided.all():
                break
        return out


def crisp() -> MembershipFunction:
    """The identity weighting: every value gets weight 1."""
    return MembershipFunction((), 1.0)


def two_level(values, level: float, tol: float = 1e-9) -> MembershipFunction:
    """Weight 1 on the given finite set, the constant level elsewhere."""
    return MembershipFunction(
        (MuRule(SetMatcher(tuple(values), tol), 1.0),), float(level)
    )


@dataclass(frozen=True)
class FieldContext:
    """Membership function and tolerance policy, for real and complex values alike.

    Every operation in the library takes one of these. eq_tol is the one
    comparison slack: the absolute slack of order comparisons and weight
    checks, and the bound on the relative residual of identity checks. min_mu
    is the threshold below which a membership counts as zero for division
    guards.
    """

    mu: MembershipFunction = field(default_factory=crisp)
    eq_tol: float = 1e-9
    min_mu: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.eq_tol < cmath.inf:
            raise ValidationError(f"tolerances must be strictly positive and finite, got eq_tol={self.eq_tol!r}")
        if not (0.0 <= self.min_mu < 1.0):
            raise ValidationError("min_mu must lie in [0, 1)")


def mu_eval(ctx: FieldContext, v: Scalar) -> float:
    """Membership weight of v under ctx.mu; v must be finite."""
    if not (type(v) in (float, complex) and cmath.isfinite(v)):  # subclasses, e.g. np.float64, are converted
        v = _require_finite(v)
    return ctx.mu.weight(v)


# ---------------------------------------------------------------------------
# Structured document (JSON-shaped) load / dump
# ---------------------------------------------------------------------------

# each kind's keys besides kind and tol, the one it requires first
_MATCH_KEYS = {"point": ("value",), "set": ("values",), "family": ("form", "params", "n_min", "n_max")}


def parse_mu_spec(doc: dict, where: str = "mu spec") -> MembershipFunction:
    """Build a membership function from its schema'd document form; where names it in errors."""
    spec_object(doc, f"{where} top level", ("default", "rules"), required=("default",))
    default = number(doc["default"], f"{where} default")
    rules = []
    for i, item in enumerate(spec_array(doc.get("rules", []), f"{where} rules")):
        at = f"rules[{i}]"
        spec_object(item, at, ("match", "mu"), required=("match", "mu"))
        match = spec_object(item["match"], f"{at}.match", required=("kind",))
        kind = spec_string(match["kind"], f"{at}.match.kind")
        if kind not in _MATCH_KEYS:
            raise SpecError(f"{at}.match.kind: unknown kind {kind!r}")
        spec_object(match, f"{at}.match", ("kind", "tol") + _MATCH_KEYS[kind], required=_MATCH_KEYS[kind][:1])
        tol = number(match.get("tol", 1e-9), f"{at}.match.tol")
        if kind == "point":
            matcher: Matcher = PointMatcher(_scalar_from_obj(match["value"], f"{at}.match.value"), tol)
        elif kind == "set":
            vals = spec_array(match["values"], f"{at}.match.values", nonempty=True)
            matcher = SetMatcher(tuple(_scalar_from_obj(v, f"{at}.match.values") for v in vals), tol)
        else:
            form = ValueForm(spec_string(match["form"], f"{at}.match.form"),
                             form_params(match.get("params", {}), f"{at}.match"))
            n_min = number(match.get("n_min", 1), f"{at}.match.n_min", int)
            n_max = number(match.get("n_max", 100_000), f"{at}.match.n_max", int)
            matcher = FamilyMatcher(form, n_min, n_max, tol)
        weight = parse_weight_form(item["mu"], where=f"{at}.mu")
        if weight.form == "const":
            rules.append(MuRule(matcher, float(weight.params["value"])))
        else:
            rules.append(MuRule(matcher, weight))
    return MembershipFunction(tuple(rules), default)


def serialize_mu_spec(mu: MembershipFunction) -> dict:
    """Inverse of parse_mu_spec up to evaluation equivalence."""
    rules = []
    for rule in mu.rules:
        m = rule.matcher
        if isinstance(m, PointMatcher):
            match = {"kind": "point", "value": _scalar_to_obj(m.value), "tol": m.tol}
        elif isinstance(m, SetMatcher):
            match = {"kind": "set", "values": [_scalar_to_obj(v) for v in m.values], "tol": m.tol}
        else:
            match = {
                "kind": "family",
                "form": m.form.form,
                "params": dict(m.form.params),
                "n_min": m.n_min,
                "n_max": m.n_max,
                "tol": m.tol,
            }
        w = rule.weight
        mu_obj = weight_form_to_obj(w) if isinstance(w, WeightForm) else float(w)
        rules.append({"match": match, "mu": mu_obj})
    return {"default": float(mu.default), "rules": rules}


def load_mu_spec(text_or_doc) -> MembershipFunction:
    """Parse a membership function from JSON text or an already-decoded dict."""
    return parse_mu_spec(spec_document(text_or_doc, "mu spec"))


def _scalar_from_obj(obj, where: str) -> Scalar:
    if isinstance(obj, (int, float, str)):
        return number(obj, where)
    if isinstance(obj, list) and len(obj) == 2:
        return complex(number(obj[0], where), number(obj[1], where))
    raise SpecError(f"{where}: scalar must be a number or an [re, im] pair")


def _scalar_to_obj(v: Scalar):
    if isinstance(v, complex):
        return [v.real, v.imag]
    return float(v)


# ---------------------------------------------------------------------------
# Axiom audit and summary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    operands: tuple
    lhs: float  # the weight that should dominate
    rhs: float  # the bound it had to meet


@dataclass(frozen=True)
class AxiomReport:
    """Sample-relative verdicts for the five closure axioms.

    The report speaks only about the supplied samples; nothing is claimed
    about unsampled points. negation_symmetry cannot be false: it is tested
    only where |w(-a) - w(a)| <= eq_tol, against 2 eq_tol. It stays because
    the axioms envelope reports it; axiom (ii) is the check that can fail.
    """

    verdicts: dict
    violations: tuple
    negation_symmetry: bool
    negation_pairs_checked: int
    sample_count: int

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def _derived(v: Scalar, op: str, *operands) -> Scalar:
    """v, the result of op on samples; a DomainError naming them when it is not finite."""
    if not cmath.isfinite(v):
        raise DomainError(f"axiom audit: {op.format(*map(repr, operands))} = {v!r} is not finite")
    return v


def _outer_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = a[i] * b[j], as Python's float or complex * computes it.

    numpy's own complex multiply may round differently, so a complex product
    is built from its parts: (ar br - ai bi) + (ar bi + ai br) i.
    """
    if not np.iscomplexobj(out):
        np.multiply.outer(a, b, out=out)
        return
    t = np.multiply.outer(a.imag, b.imag)
    np.multiply.outer(a.real, b.real, out=out.real)
    np.subtract(out.real, t, out=out.real)
    np.multiply.outer(a.imag, b.real, out=t)
    np.multiply.outer(a.real, b.imag, out=out.imag)
    np.add(out.imag, t, out=out.imag)


def check_axioms(ctx: FieldContext, samples) -> AxiomReport:
    """Audit the five axioms over all pairs of samples (O(n^2) pair work).

    The sums x + y and products x y of as many sample rows as fit in
    AXIOM_BLOCK derived values are weighed in one weight_many call, so memory
    stays O(AXIOM_BLOCK + n). Violations come in pair order, the sum of a
    pair before its product.
    """
    pts = [_require_finite(s, "sample") for s in samples]
    if not pts:
        raise UsageError("check_axioms needs a non-empty sample list")
    tol, weigh, n = ctx.eq_tol, ctx.mu.weight_many, len(pts)
    arr = np.array(pts)
    w = weigh(arr)
    violations = []

    def violate(axiom, operands, lhs, rhs):
        violations.append(AxiomViolation(axiom, operands, float(lhs), float(rhs)))

    rows = max(1, AXIOM_BLOCK // (2 * n))
    for r0 in range(0, n, rows):
        x = arr[r0:r0 + rows]
        derived = np.empty((2, x.size, n), dtype=arr.dtype)  # the sums, then the products
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.outer(x, arr, out=derived[0])
            _outer_product(x, arr, derived[1])
        bad = ~np.isfinite(derived)
        if bad.any():  # name the first non-finite result in pair order
            i, j = np.argwhere(bad.any(axis=0))[0]
            a, b = pts[r0 + i], pts[j]
            _derived(a + b, "{} + {}", a, b)
            _derived(a * b, "{} * {}", a, b)
        wd = weigh(derived)
        bound = np.minimum.outer(w[r0:r0 + rows], w)
        low = wd < bound - tol
        for i, j in zip(*np.nonzero(low[0] | low[1])):
            a, b = pts[r0 + i], pts[j]
            if low[0, i, j]:
                violate("i", (a, b), wd[0, i, j], bound[i, j])
            if low[1, i, j]:
                violate("iii", (a, b), wd[1, i, j], bound[i, j])
    wn = weigh(-arr)
    inverses = {i: _derived(1.0 / x, "1 / {}", x) for i, x in enumerate(pts) if abs(x) > tol}
    wi = dict(zip(inverses, weigh(np.array(list(inverses.values())))))
    for i, x in enumerate(pts):
        if wn[i] < w[i] - tol:
            violate("ii", (x,), wn[i], w[i])
        if i in wi and wi[i] < w[i] - tol:
            violate("iv", (x,), wi[i], w[i])
    for p, wp in zip((0.0, 1.0), weigh(np.array([0.0, 1.0]))):
        if abs(wp - 1.0) > tol:
            violate("v", (p,), wp, 1.0)

    # where axiom (ii) holds at both x and -x, the two weights must agree
    symmetric = (wn >= w - tol) & (w >= wn - tol)
    seen = {v.axiom for v in violations}
    return AxiomReport(
        verdicts={a: a not in seen for a in AXIOM_IDS},
        violations=tuple(violations),
        negation_symmetry=not np.any(symmetric & (np.abs(wn - w) > 2.0 * tol)),
        negation_pairs_checked=int(np.count_nonzero(symmetric)),
        sample_count=n,
    )


@dataclass(frozen=True)
class MuSummary:
    """Finite-sample surrogate for the global infimum of the weighting."""

    inf_mu: float
    count_zero: int
    witness: Scalar

    def __post_init__(self):
        if not (0.0 <= self.inf_mu <= 1.0):
            raise ValidationError("inf_mu must lie in [0, 1]")


def mu_summary(ctx: FieldContext, samples) -> MuSummary:
    """Minimum weight over the samples plus the count of near-zero weights."""
    pts = [_require_finite(s, "sample") for s in samples]
    if not pts:
        raise UsageError("mu_summary needs a non-empty sample list")
    weights = ctx.mu.weight_many(np.array(pts))
    i = int(np.argmin(weights))  # the first minimum
    return MuSummary(
        inf_mu=float(weights[i]),
        count_zero=int(np.count_nonzero(weights <= ctx.min_mu)),
        witness=pts[i],
    )
