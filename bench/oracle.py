"""Reference computations for the benchmark's output checks.

Everything here is plain Python and `math`, written from the definitions in
the project README rather than from the package: weights by Horner's rule,
first-rule-wins matching that takes the nearest family index, and eps tables
by a scalar scan. None of it imports mufield or numpy.
"""

from __future__ import annotations

import math

EQ_TOL = 1e-9
MIN_MU = 1e-12
SUPPORTED = "supported"
SUPPORTED_TRIVIALLY = "supported-trivially"
REFUTED = "refuted-at-horizon"
CERT_MONOTONE = "monotone-decreasing-envelope"
DEFAULT_EPS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def horner(coeffs, n: float) -> float:
    """Polynomial with ascending coefficients at n, in the package's op order."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def rational(p, q):
    return lambda n: horner(p, n) / horner(q, n)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# membership: first matching rule wins, families match their nearest index
# ---------------------------------------------------------------------------

class LogFamily:
    """log(n) + c over [n_min, n_max], weight a rational function of n."""

    def __init__(self, c, n_min, n_max, weight, tol=EQ_TOL):
        self.c, self.n_min, self.n_max, self.weight, self.tol = c, n_min, n_max, weight, tol

    def index(self, v: float):
        t = v - self.c
        if t > 50.0:
            return None
        k = round(math.exp(t))
        if self.n_min <= k <= self.n_max and abs(v - (math.log(k) + self.c)) <= self.tol:
            return k
        return None


class RuleSpec:
    """A point rule followed by family rules, then the default weight."""

    def __init__(self, point, point_mu, families, default=0.0, tol=EQ_TOL):
        self.point, self.point_mu, self.families = point, point_mu, families
        self.default, self.tol = default, tol

    def weight(self, v: float) -> float:
        if abs(v - self.point) <= self.tol:
            return self.point_mu
        for fam in self.families:
            k = fam.index(v)
            if k is not None:
                return fam.weight(float(k))
        return self.default


# ---------------------------------------------------------------------------
# convergence scans
# ---------------------------------------------------------------------------

def eps_scan(value, weight, candidate, n_start, horizon, eps_schedule):
    """The verdict dict of one candidate, from a scalar scan of n.

    value(n) is the stream term, weight(n, v) the weight of the deviation v.
    Returns the same fields the package reports for a verdict, plus the
    list of weights and deviations for callers that check traces.
    """
    thrs = [e * (1.0 + EQ_TOL) for e in eps_schedule]
    last_bad = [None] * len(thrs)
    devs, weights = [], []
    for n in range(n_start, horizon + 1):
        v = value(n)
        w = weight(n, v - candidate)
        d = abs(v - candidate) * w
        devs.append(d)
        weights.append(w)
        for j, t in enumerate(thrs):
            if d >= t:
                last_bad[j] = n
    table = []
    for e, bad in zip(eps_schedule, last_bad):
        if bad is None:
            table.append([e, n_start])
        elif bad == horizon:
            table.append([e, None])
        else:
            table.append([e, bad + 1])
    found = [n for _, n in table if n is not None]
    tail_from = min(found) if found else n_start
    tail_w = weights[tail_from - n_start:]
    frac = sum(1 for w in tail_w if w <= MIN_MU) / len(tail_w)
    cert = None
    if len(found) == len(table):
        tail_d = devs[tail_from - n_start:]
        if all(b - a <= EQ_TOL for a, b in zip(tail_d, tail_d[1:])):
            cert = CERT_MONOTONE
    if len(found) < len(table):
        verdict = REFUTED
    elif frac == 1.0:
        verdict = SUPPORTED_TRIVIALLY
    else:
        verdict = SUPPORTED
    return {
        "candidate": float(candidate),
        "eps_table": table,
        "horizon": horizon,
        "n_start": tail_from,
        "trivial_tail_fraction": frac,
        "tail_certificate": cert,
        "verdict": verdict,
    }, weights, devs


def suffix_max_at(dev, lo: int, hi: int, marks) -> dict:
    """max(dev(n) for n in [m, hi]) for every m in marks, by one backward pass."""
    marks = set(marks)
    best = -math.inf
    out = {}
    for n in range(hi, lo - 1, -1):
        d = dev(n)
        if d > best:
            best = d
        if n in marks:
            out[n] = best
    return out


def boundary_faults(dev, eps_table, n_start: int, horizon: int) -> list:
    """Check each eps row: dev >= eps(1+tol) at N-1, and below it from N on.

    For a row whose N is past the horizon, the deviation at the horizon must
    still reach eps. Returns human-readable faults (empty when all hold).
    """
    faults = []
    marks = [n for _, n in eps_table if n is not None]
    tail_max = suffix_max_at(dev, min(marks), horizon, marks) if marks else {}
    for eps, n in eps_table:
        thr = eps * (1.0 + EQ_TOL)
        if n is None:
            if not dev(horizon) >= thr:
                faults.append(f"eps={eps}: N past horizon but dev({horizon}) < eps")
            continue
        if n > n_start and not dev(n - 1) >= thr:
            faults.append(f"eps={eps}: dev({n - 1}) below eps, N={n} is not minimal")
        if not tail_max[n] < thr:
            faults.append(f"eps={eps}: dev reaches eps after N={n}")
    return faults


# ---------------------------------------------------------------------------
# the demo catalog, restated from its closed forms
# ---------------------------------------------------------------------------

_N_OVER_CUBE = rational([0, 1], [1, 3, 3, 1])
_SQ_OVER_ODD_CUBE = rational([0, 0, 1], [1, 6, 12, 8])
_SQ_OVER_2CUBE = rational([0, 0, 1], [2, 6, 6, 2])
_PARTNER = rational([3, 9], [0, 0, 2])
_INV_N = rational([1], [0, 1])


def _sq_ratio(n: float) -> float:
    t = 1.0 + 1.0 / n
    return t * t


def _moebius_third(n: float) -> float:
    return (1.0 * n + 1.0) / (3.0 * n + 1.0)


def _inv_exp_sq(n: float) -> float:
    e = math.exp(-n)
    return math.exp(-2.0 * n) / (1.0 + e) ** 2


def _zero(n):
    return 0.0


def demo_deviation(name: str, expr: str, cand: float):
    """(formula, dev(n)) for one verdict row of a catalog demo, or None if unknown.

    Rows that share a formula (the two identical addends of sum_failure,
    candidates without an assignment) share the formula name.
    """
    third = 1.0 / 3.0
    if name == "nonunique_limit" and expr == "self":
        return f"log+1 at {cand!r}", lambda n: abs(math.log(n) + 1.0 - cand) * _N_OVER_CUBE(float(n))
    if name == "unbounded_convergent" and expr == "self" and cand == 1.0:
        return "exp+2 at 1", lambda n: abs(math.exp(n) + 2.0 - cand) * _inv_exp_sq(float(n))
    if name in ("sum_failure", "product_failure") and expr in ("self", "partner") and cand == 1.0:
        if name == "sum_failure" or expr == "self":  # sum_failure's partner is its sequence
            return "sq_ratio at 1", lambda n: abs(_sq_ratio(n) - 1.0) * _SQ_OVER_ODD_CUBE(float(n))
    if name == "sum_failure" and expr == "sum":
        if cand == 0.0:
            return "sum at 0", lambda n: abs(_sq_ratio(n) + _sq_ratio(n)) * _SQ_OVER_2CUBE(float(n))
        return "zero", _zero  # no assignment at 2; the fallback weighting is zero
    if name == "product_failure" and expr == "partner" and cand == third:
        return "moebius at 1/3", lambda n: abs(_moebius_third(n) - third) * _PARTNER(float(n))
    if name == "product_failure" and expr == "product":
        if cand == 0.0:
            return "product at 0", lambda n: abs(_sq_ratio(n) * _moebius_third(n)) * _INV_N(float(n))
        return "zero", _zero
    return None


DEMO_RANGES = {  # (first index, horizon)
    "nonunique_limit": (1, 100_000),
    "unbounded_convergent": (1, 600),
    "sum_failure": (1, 1_200_000),
    "product_failure": (5, 400_000),
}


def demo_closed_forms(name: str, verdicts: list) -> list:
    """Faults against the N(eps) values known in closed form."""
    faults = []

    def table(expr, cand):
        for v in verdicts:
            if v["expr"] == expr and close(v["candidate"], cand):
                return {e: n for e, n in v["eps_table"]}
        faults.append(f"no verdict for {expr} -> {cand}")
        return {}

    if name == "sum_failure":
        for eps, n in table("sum", 0.0).items():
            want = math.ceil(round(1.0 / eps, 9)) - 1
            if n != want:
                faults.append(f"sum at 0, eps={eps}: N={n}, closed form ceil(1/eps)-1={want}")
    elif name == "product_failure":
        for eps, n in table("partner", 1.0 / 3.0).items():
            want = max(5, math.ceil(round(1.0 / math.sqrt(eps), 9)))
            if n != want:
                faults.append(f"partner at 1/3, eps={eps}: N={n}, 1/n^2 gives {want}")
    elif name == "nonunique_limit":
        if table("self", 0.0).get(1e-3) != 72:
            faults.append("nonunique_limit: N(1e-3) at 0 is not 72")
    elif name == "unbounded_convergent":
        if table("self", 1.0).get(1e-3) != 7:
            faults.append("unbounded_convergent: N(1e-3) is not 7")
    return faults


def verdict_faults(got: dict, want: dict) -> list:
    """Field-by-field comparison of a reported verdict with the reference."""
    faults = []
    for key in ("horizon", "n_start", "tail_certificate", "verdict"):
        if got.get(key) != want[key]:
            faults.append(f"{key}: got {got.get(key)!r}, want {want[key]!r}")
    if not close(got.get("candidate", math.nan), want["candidate"]):
        faults.append(f"candidate: got {got.get('candidate')!r}, want {want['candidate']!r}")
    if [list(r) for r in got.get("eps_table", [])] != want["eps_table"]:
        faults.append(f"eps_table: got {got.get('eps_table')}, want {want['eps_table']}")
    if not close(got.get("trivial_tail_fraction", math.nan), want["trivial_tail_fraction"]):
        faults.append("trivial_tail_fraction differs")
    return faults


# ---------------------------------------------------------------------------
# axiom audit over samples, as the README defines it
# ---------------------------------------------------------------------------

def axiom_audit(weight, samples, tol=EQ_TOL, min_mu=MIN_MU) -> dict:
    """Verdicts, violations, negation symmetry and the sample summary."""
    w = {p: weight(p) for p in samples}
    violations = []
    for x in samples:
        for y in samples:
            bound = min(w[x], w[y])
            ws = weight(x + y)
            if ws < bound - tol:
                violations.append(("i", [x, y], ws, bound))
            wp = weight(x * y)
            if wp < bound - tol:
                violations.append(("iii", [x, y], wp, bound))
    for x in samples:
        wn = weight(-x)
        if wn < w[x] - tol:
            violations.append(("ii", [x], wn, w[x]))
        if abs(x) > tol:
            wi = weight(1.0 / x)
            if wi < w[x] - tol:
                violations.append(("iv", [x], wi, w[x]))
    for p in (0.0, 1.0):
        wp = weight(p)
        if abs(wp - 1.0) > tol:
            violations.append(("v", [p], wp, 1.0))
    symmetric = True
    for x in samples:
        wn, wb = weight(-x), weight(x)
        if wn >= w[x] - tol and wb >= wn - tol and abs(wn - w[x]) > 2.0 * tol:
            symmetric = False
    seen = {v[0] for v in violations}
    weights = [w[p] for p in samples]
    return {
        "verdicts": {a: a not in seen for a in ("i", "ii", "iii", "iv", "v")},
        "violations": violations,
        "negation_symmetry": symmetric,
        "sample_count": len(samples),
        "inf_mu": min(weights),
        "count_zero": sum(1 for x in weights if x <= min_mu),
    }
