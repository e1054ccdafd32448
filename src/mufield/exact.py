"""Exact models of rational streams, and the indices a float scan of one must read.

A stream is rational when its terms are sq_ratio, moebius or constant, or a
sum or a product of two of these, and its weight is weight 1 (the classical
scans), a constant (a const form, or a fallback with no rules) or a
rational_poly form. Its deviation D(n) = |t(n) - c| w(n) is then a quotient
of integer polynomials in n: each float parameter, the candidate c and each
bound are read as the exact rationals they are.

Exact arithmetic decides no verdict here; it decides which indices the float
kernel need not read. Breakpoints cut [n0, hi] into pieces on which D is
monotone: both integers next to every real root, in range, of the numerator
of D', of the numerator of t - c, of every denominator and of the derivative
of w's denominator, and every power of 2. Over a piece, a running-error
bound E of the numpy operations the kernel performs, with
|fl(x op y) - (x op y)| <= u |x op y| + eta (u = 2^-53; eta, the smallest
subnormal, for a product or a quotient only; N. J. Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 2-3), computed
with every float operation rounded upward, bounds |fl_dev(n) - D(n)| at each
of its indices. Where D + E < bound, the float deviation cannot reach the
bound; where D - E >= bound, it surely does. Two integer bisections per
piece find both stretches. A piece whose bound cannot be had (a possible
overflow, a pole at an index) is left undecided whole. The pieces of w
itself decide a weight check against [0, 1] and the count of weights at or
below min_mu the same way.

This module reads no float deviation or weight. The window between the two
stretches, and each window the weight count and the rise test leave
undecided, is read by the blocked kernel (sequences._BlockPass): one pass
over the window answers the question the model asks of the whole range.
The weight check's windows are weighed by WeightForm.validate_range.

Each exact model is built on first use and kept by the object it models: a
rational sequence keeps its terms, a rational_poly weight form its weight,
with the weight's pieces over each range and each bound over a piece. So a
weight is cut once per range, for the spec's weight check and every scan's
weight count alike. A scan's stream keeps its deviation pieces and its
float weights' models, so two scans of one stream share its pieces.

Imported on the first rational scan or weight check, never by `import mufield`.
"""

from __future__ import annotations

import itertools
import math

U = 2.0 ** -53  # unit roundoff of a double
ETA = math.ulp(0.0)  # bounds the underflow of one product or quotient
_BIG = 2.0 ** 1000  # a bound at or past this may overflow: its piece is read whole
_INF = (math.inf, math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _dn(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _quotient(a: int, b: int) -> float:
    """a / b for b > 0, rounded to nearest; +-inf past the float range."""
    try:
        return a / b
    except OverflowError:
        return math.inf if a > 0 else -math.inf


# ---------------------------------------------------------------------------
# Integer polynomials: lists of Python ints, ascending coefficients
# ---------------------------------------------------------------------------

def _ev(p, n: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * n + c
    return acc


def _add(p, q):
    return [a + b for a, b in itertools.zip_longest(p, q, fillvalue=0)]


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _scale(p, k: int):
    return [c * k for c in p]


def _deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _fraction(num: int, den: int):
    """num / den as (num, den > 0), or None where den is 0."""
    if den < 0:
        return -num, -den
    return (num, den) if den else None


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _int_poly(coeffs):
    """(P, L): integer coefficients P and a power of 2 L with the float coefficients = P / L."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    scale = max(b for _, b in ratios)
    return [a * (scale // b) for a, b in ratios], scale


def _reduce(top, bottom):
    """top / bottom with the common power of n and the common integer factor taken out."""
    if not _trim(top):
        return [], bottom
    k = min(next(i for i, c in enumerate(p) if c) for p in (top, bottom))
    top, bottom = top[k:], bottom[k:]
    g = math.gcd(*top, *bottom)
    return [c // g for c in top], [c // g for c in bottom]


def breakpoints(p, lo: int, hi: int) -> list:
    """Sorted integers of [lo, hi], lo and hi among them, holding floor(x) and ceil(x)
    of every real root x in [lo, hi] of the integer polynomial p; the zero polynomial
    counts as having none. Between two of them more than 1 apart p' has no root (by
    recursion on p'), so p is strictly monotone there and integer bisection finds its
    one sign change."""
    p = _trim(p)
    if len(p) < 2:
        return sorted({lo, hi})
    inner = breakpoints(_deriv(p), lo, hi)
    out = set(inner)
    for a, b in zip(inner, inner[1:]):
        sa = _sign(_ev(p, a))
        if b - a < 2 or sa * _sign(_ev(p, b)) >= 0:
            continue
        while b - a > 1:
            m = (a + b) // 2
            sm = _sign(_ev(p, m))
            if sm == sa:
                a = m
            elif sm:
                b = m
            else:
                a = b = m
        out.update((a, b))
    return sorted(out)


# ---------------------------------------------------------------------------
# Running-error bounds: (magnitude, error) of a float quantity over a piece,
# every float operation rounded upward
# ---------------------------------------------------------------------------

def _plus(x, y):
    """fl(x + y) or fl(x - y): a sum is exact where it underflows."""
    m, e = _up(x[0] + y[0]), _up(x[1] + y[1])
    return m, _up(e + _up(U * _up(m + e)))


def _times(x, y):
    m = _up(x[0] * y[0])
    e = _up(_up(_up(x[0] * y[1]) + _up(y[0] * x[1])) + _up(x[1] * y[1]))
    return m, _up(_up(e + _up(U * _up(m + e))) + ETA)


def _over(x, y, low: float):
    """fl(x / y), with low <= |y| exactly at every index of the piece."""
    yl = _dn(low - y[1])
    floor = _dn(yl * low) if yl > 0.0 else 0.0
    if not floor > 0.0:
        return _INF
    m = _up(x[0] / low)
    e = _up(_up(x[1] / yl) + _up(_up(x[0] * y[1]) / floor))
    return m, _up(_up(e + _up(U * _up(m + e))) + ETA)


def _horner_bound(coeffs, n: float):
    """forms._horner at every index in [1, n]: the magnitude is the Horner sum of
    |c| at n, and the error at most gamma_2L of it (L = len(coeffs); Higham, eq.
    (5.3)), plus the underflow of 2L operations, ETA / 2 each, which the later
    steps scale by at most 2 n^L."""
    steps = 2 * len(coeffs)
    m = 0.0
    for c in reversed(coeffs):
        m = _up(_up(m * n) + abs(c))
    scale = n ** (steps // 2) if steps * math.log2(n) < 2000 else math.inf
    gamma = _up(_up(steps * U) / _dn(1.0 - steps * U))
    return m, _up(_up(gamma * m) + _up(steps * ETA * scale))


# ---------------------------------------------------------------------------
# Models, each built once
# ---------------------------------------------------------------------------

def _model(source, models: dict | None = None):
    """The exact model of a rational sequence, a rational_poly weight form or a float
    weight, built on first use: a float's kept in models (its stream's), any other
    kept on the sequence or form it models."""
    if isinstance(source, float):  # floats compare by value: -0.0 and 0.0 have the same model
        if source not in models:
            models[source] = _Weight(source)
        return models[source]
    model = getattr(source, "_exact", None)
    if model is None:
        model = _Weight(source) if source.form == "rational_poly" else _Terms(source)
        object.__setattr__(source, "_exact", model)
    return model


def _memo(bounds: dict, bound, l: int, r: int):
    """bound(l, r), computed once per (l, r) into bounds."""
    if (l, r) not in bounds:
        bounds[l, r] = bound(l, r)
    return bounds[l, r]


# ---------------------------------------------------------------------------
# Terms and weights
# ---------------------------------------------------------------------------

class _Terms:
    """One sequence's exact terms num(n) / den(n), and the bound of its float terms."""

    def __init__(self, seq):
        self.bounds = {}  # (l, r) -> bound(l, r)
        self.form, p = seq.form, seq.params
        if self.form == "constant":
            self.value = p["value"]
            a, b = self.value.as_integer_ratio()
            self.num, self.den = [a], [b]
        elif self.form == "sq_ratio":  # (1 + 1/n)^2 = (n + 1)^2 / n^2
            self.num, self.den = [1, 2, 1], [0, 0, 1]
        else:  # moebius: (a n + b) / (c n + d)
            self.abcd = [abs(p[k]) for k in "abcd"]
            top, lt = _int_poly([p["b"], p["a"]])
            self.bottom, self.lb = _int_poly([p["d"], p["c"]])
            self.num, self.den = _scale(top, self.lb), _scale(self.bottom, lt)

    def bound(self, l: int, r: int):
        """(magnitude, error) of the float terms at the indices of [l, r]."""
        return _memo(self.bounds, self._bound, l, r)

    def _bound(self, l: int, r: int):
        if self.form == "constant":
            return abs(self.value), 0.0
        if self.form == "sq_ratio":  # (1.0 + 1.0 / n) ** 2, which numpy squares as x * x
            s = _plus((1.0, 0.0), _over((1.0, 0.0), (float(r), 0.0), float(l)))
            return _times(s, s)
        a, b, c, d = self.abcd
        n = (float(r), 0.0)
        low = _dn(_quotient(min(abs(_ev(self.bottom, l)), abs(_ev(self.bottom, r))), self.lb))
        return _over(_plus(_times((a, 0.0), n), (b, 0.0)), _plus(_times((c, 0.0), n), (d, 0.0)), low)


class _Weight:
    """A weight's exact num(n) / den(n) and the bound of its float weights: a float
    (a constant weight) or a rational_poly form."""

    def __init__(self, weight):
        self.bounds, self.cuts = {}, {}  # (l, r) -> bound(l, r); (lo, hi) -> pieces(lo, hi)
        self.value = weight if isinstance(weight, float) else None
        self.poles, self.den_crit = [], []
        if self.value is not None:
            a, b = self.value.as_integer_ratio()
            self.num, self.den = [a], [b]
            return
        self.p, self.q = weight.params["p"], weight.params["q"]
        top, lp = _int_poly(self.p)
        self.bottom, self.lq = _int_poly(self.q)
        self.num, self.den = _scale(top, self.lq), _scale(self.bottom, lp)
        self.poles, self.den_crit = [self.bottom], [_deriv(self.bottom)]

    def at(self, n: int):
        return _fraction(_ev(self.num, n), _ev(self.den, n))

    def bound(self, l: int, r: int):
        if self.value is not None:
            return abs(self.value), 0.0
        return _memo(self.bounds, self._bound, l, r)

    def _bound(self, l: int, r: int):
        n = float(r)
        low = _dn(_quotient(min(abs(_ev(self.bottom, l)), abs(_ev(self.bottom, r))), self.lq))
        return _over(_horner_bound(self.p, n), _horner_bound(self.q, n), low)

    def pieces(self, lo: int, hi: int) -> _Pieces:
        """The pieces of a rational_poly weight over [lo, hi], cut once per range."""
        if (lo, hi) not in self.cuts:
            slope = _add(_mul(_deriv(self.num), self.den), _scale(_mul(self.num, _deriv(self.den)), -1))
            self.cuts[lo, hi] = _Pieces(self.at, lambda l, r: self.bound(l, r)[1], [self.num, slope] + self.den_crit,
                                        self.poles, lo, hi)
        return self.cuts[lo, hi]


# ---------------------------------------------------------------------------
# Monotone pieces
# ---------------------------------------------------------------------------

class _Pieces:
    """An exact f over [lo, hi] cut into pieces on which it is monotone.

    f(n) is (num, den > 0), or None where the denominator is 0. rows holds one
    (l, r, rising, bottom, top, err) per piece [l, r]: neighbours share an
    end, err bounds |float f - f| at every index of the piece (inf where no
    bound holds), and bottom <= float f <= top there.
    """

    def __init__(self, f, bound, crit, poles, lo: int, hi: int):
        points = {lo, hi}
        for p in crit:
            points.update(breakpoints(p, lo, hi))
        for p in poles:  # an integer pole gets pieces of its own on either side
            for b in breakpoints(p, lo, hi):
                points.update((b - 1, b, b + 1) if _ev(p, b) == 0 else (b,))
        k = 2
        while k < hi:
            points.add(k)
            k *= 2
        points = sorted(n for n in points if lo <= n <= hi)
        self.f = f
        at = {n: f(n) for n in points}
        self.rows = []
        for l, r in zip(points, points[1:]) if len(points) > 1 else ((lo, hi),):
            a, b = at[l], at[r]
            err = bound(l, r) if a and b else math.inf
            if not err < _BIG:  # so every threshold the bisections meet is finite
                self.rows.append((l, r, False, -math.inf, math.inf, math.inf))
                continue
            rising = b[0] * a[1] > a[0] * b[1]
            low, high = (a, b) if rising else (b, a)
            self.rows.append((l, r, rising, _dn(_dn(_quotient(*low)) - err), _up(_up(_quotient(*high)) + err), err))

    def at_least(self, row, t: float):
        """(a, b): the indices of row's piece where f >= t exactly, a stretch at one
        end of the piece (a > b when there is none)."""
        l, r, rising = row[:3]
        tn, td = t.as_integer_ratio()
        f = self.f
        lo, hi = l, r + 1  # the first index where f >= t turns (rising) or stops (falling)
        while lo < hi:
            m = (lo + hi) // 2
            num, den = f(m)
            if (num * td >= tn * den) == rising:
                hi = m
            else:
                lo = m + 1
        return (lo, r) if rising else (l, lo - 1)


def _merge(ranges) -> list:
    out = []
    for a, b in sorted(x for x in ranges if x[0] <= x[1]):
        if out and a <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def weight_windows(form, n_min: int, n_max: int) -> list:
    """Sorted, disjoint (a, b) ranges of [n_min, n_max] outside which every float weight
    of a const or rational_poly form is surely in [0, 1]."""
    if n_min > n_max:
        return []
    if form.form == "const":
        return [] if 0.0 <= form.params["value"] <= 1.0 else [(n_min, n_min)]
    pieces = _model(form).pieces(n_min, n_max)
    out = []
    for row in pieces.rows:
        l, r, rising, bottom, top, err = row
        if bottom >= 0.0 and top <= 1.0:
            continue
        if not err < math.inf:
            out.append((l, r))
            continue
        ok = pieces.at_least(row, _up(err))  # w - err >= 0 there
        high = pieces.at_least(row, _dn(1.0 - err))  # w + err > 1 nowhere else
        out += [(l, ok[0] - 1) if rising else (ok[1] + 1, r), high]
    return _merge(out)


# ---------------------------------------------------------------------------
# The scan of one rational stream
# ---------------------------------------------------------------------------

def _deviation(terms, combine, weight, candidate: float, n0: int, hi: int, models: dict) -> _Pieces:
    """The pieces of D(n) = |t(n) - c| w(n) over [n0, hi]: t the one sequence of terms,
    or their combine ("sum" or "product"), c the candidate and w the weight model,
    None for weight 1, whose model is kept in models."""
    num, den = terms[0].num, terms[0].den
    if len(terms) == 2:
        num2, den2 = terms[1].num, terms[1].den
        if combine == "product":
            num, den = _mul(num, num2), _mul(den, den2)
        elif den == den2:
            num = _add(num, num2)
        else:
            num, den = _add(_mul(num, den2), _mul(num2, den)), _mul(den, den2)
    cn, cd = candidate.as_integer_ratio()
    tn, td = _add(_scale(num, cd), _scale(den, -cn)), _scale(den, cd)  # t - c
    w = weight or _model(1.0, models)
    top, bottom = _reduce(_mul(tn, w.num), _mul(td, w.den))  # +-D
    slope = _add(_mul(_deriv(top), bottom), _scale(_mul(top, _deriv(bottom)), -1))
    c = abs(candidate)

    def dev(n: int):
        """D(n) exactly, as (num, den > 0); None at a pole."""
        return _fraction(abs(_ev(tn, n)) * _ev(w.num, n), abs(_ev(td, n)) * _ev(w.den, n))

    def err(l: int, r: int) -> float:
        """The bound of |float deviation - D| over [l, r]: inf where it may overflow."""
        x = terms[0].bound(l, r)
        if len(terms) == 2:
            y = terms[1].bound(l, r)
            x = _times(x, y) if combine == "product" else _plus(x, y)
        d = _plus(x, (c, 0.0))
        if weight is not None:
            d = _times(d, weight.bound(l, r))
        return d[1] if _up(d[0] + d[1]) < _BIG else math.inf

    return _Pieces(dev, err, [slope, tn] + w.den_crit, [t.den for t in terms] + w.poles, n0, hi)


class RationalScan:
    """The three questions a convergence scan asks of one rational stream over
    [n0, hi], answered from its exact model. window(first, last) gives the
    blocked kernel's pass over [first, last], which answers the same three
    questions in floats; it is asked only of the windows the model leaves
    undecided. models is the stream's: its deviation pieces and its float
    weights' models, shared by its scans."""

    def __init__(self, seqs, combine, weight, candidate, n0, hi, eq_tol, min_mu, window, models):
        terms = [_model(s) for s in seqs]
        self.weight = None if weight is None else _model(weight, models)
        self.n0, self.hi, self.eq_tol, self.min_mu, self.window = n0, hi, eq_tol, min_mu, window
        key = (*terms, combine, self.weight, candidate, n0, hi)  # a model is one object per source
        if key not in models:
            models[key] = _deviation(terms, combine, self.weight, candidate, n0, hi, models)
        self.pieces = models[key]

    def last_reaching(self, bound: float):
        """The last index whose float deviation is >= bound, or None."""
        pieces = self.pieces
        for row in reversed(pieces.rows):
            l, r, rising, bottom, top, err = row
            if top < bound:
                continue
            if bottom >= bound:
                return r
            sure = None
            if err < math.inf:
                surely = pieces.at_least(row, _up(bound + err))
                if surely[0] <= surely[1]:
                    if surely[1] == r:
                        return r
                    sure = surely[1]
                maybe = pieces.at_least(row, _dn(bound - err))
                l, r = (maybe[0], surely[0] - 1) if rising else (surely[1] + 1, maybe[1])
            hit = self.window(l, r).last_reaching(bound) if l <= r else None
            if hit is not None:
                return hit
            if sure is not None:
                return sure
        return None

    def low_count(self, first: int) -> int:
        """The count of float weights <= min_mu over [first, hi]."""
        w, mu = self.weight, self.min_mu
        if w.value is not None:
            return self.hi - first + 1 if w.value <= mu else 0
        pieces = w.pieces(self.n0, self.hi)
        count = 0
        for i, row in enumerate(pieces.rows):
            l, r, rising, bottom, top, err = row
            a, b = max(l, first), r if i == len(pieces.rows) - 1 else r - 1  # neighbours share an end
            if a > b or bottom > mu:
                continue
            if top <= mu:
                count += b - a + 1
                continue
            window = (a, b)
            if err < math.inf:
                high = pieces.at_least(row, _up(_up(mu + err)))  # w - err > mu there
                maybe = pieces.at_least(row, _dn(mu - err))  # w + err <= mu everywhere else
                low, window = ((l, maybe[0] - 1), (maybe[0], high[0] - 1)) if rising else \
                    ((maybe[1] + 1, r), (high[1] + 1, maybe[1]))
                count += max(0, min(b, low[1]) - max(a, low[0]) + 1)
                window = (max(a, window[0]), min(b, window[1]))
            if window[0] <= window[1]:  # first may lie past the window
                count += self.window(*window).low_count(window[0])
        return count

    def rises_after(self, first: int) -> bool:
        """Whether some step dev(n) - dev(n - 1), first < n <= hi, is not <= eq_tol."""
        f = self.pieces.f
        for l, r, rising, bottom, top, err in self.pieces.rows:
            if r <= first:
                continue
            if err < math.inf:  # a step within a monotone piece is at most its climb + 2 err
                (na, da), (nb, db) = f(l), f(r)
                climb = max(0.0, _up(_quotient(nb * da - na * db, da * db)))
                if _up(climb + _up(2.0 * err)) <= self.eq_tol:
                    continue
            a = max(l, first)
            if self.window(a, r).rises_after(a):
                return True
        return False
