"""Closed-form sequences, per-expression weight assignments, convergence scans.

A convergence verdict here is horizon-relative: the scan certifies that the
weighted deviation |v_n - candidate| * w(v_n - candidate) stays below eps
from some minimal index N(eps) through the horizon. Deviations are compared
against eps with a slack relative to eps itself (dev < eps * (1 + eq_tol)),
so closed forms whose deviation lands exactly on eps at the formula index
count as within; the weighted order keeps its absolute slack. A verdict
carries the tail certificate monotone-decreasing-envelope when the deviation
is monotone nonincreasing over the scanned tail, and none otherwise.

A verdict is "supported-trivially" when every resolved membership from the
first supported index onward sits at or below ctx.min_mu: the convergence
then rests entirely on zero weights, so any candidate would be supported.
The flag keeps statements like "converges to 0, not to 2 nontrivially"
machine-checkable.

Each stream is computed once per experiment. The ExperimentSpec keeps the
weights of each distinct assigned weight form from the pass that checks
them against [0, 1]: one read-only array over [n_start, horizon], 8 bytes
per index per form, which every scan slices. run_experiment evaluates the
terms of each distinct sequence once for every scan (candidates, classical
cross-checks, limit checks). The classical scans read weight 1 over the
sequence's own [n_min, horizon] with the default FieldContext tolerances,
exactly as classical_converges. N(eps) comes from block maxima (_eps_table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError, UsageError, ValidationError, number, spec_array, spec_document, spec_object, spec_string
from .forms import (
    EXP_INDEX_CAP,
    ValueForm,
    WeightForm,
    check_params,
    form_params,
    parse_weight_form,
    weight_form_to_obj,
)
from .membership import FieldContext, crisp, parse_mu_spec, serialize_mu_spec
from .real_field import FAIL, PASS, UNMET, BoundsReport, IdentityCheckReport, _decided, _unmet, bounds_report

DEFAULT_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
DEFAULT_HORIZON = 100_000
TRACE_CHUNK = 4096  # trace rows converted to Python numbers at a time
EPS_BLOCK = 4096  # deviations per block maximum in the eps table

SEQUENCE_FORMS = ("log_plus", "exp_plus", "sq_ratio", "moebius", "constant", "table")
EXPRESSIONS = ("self", "partner", "sum", "product")

_FORM_TO_VALUE_FORM = {
    "log_plus": "log_n_plus_c",
    "exp_plus": "exp_n_plus_c",
    "sq_ratio": "sq_ratio",
    "moebius": "moebius",
}

CERT_MONOTONE = "monotone-decreasing-envelope"

SUPPORTED = "supported"
SUPPORTED_TRIVIALLY = "supported-trivially"
REFUTED = "refuted-at-horizon"


@dataclass(frozen=True)
class SequenceSpec:
    """A closed-form family (or explicit table) with its valid index range."""

    form: str
    params: dict = field(default_factory=dict)
    n_min: int = 1
    n_max: int = DEFAULT_HORIZON

    def __post_init__(self):
        if self.form not in SEQUENCE_FORMS:
            raise SpecError(f"unknown sequence form {self.form!r}; known: {SEQUENCE_FORMS}")
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValidationError(f"index range [{self.n_min}, {self.n_max}] is invalid")
        if self.form == "exp_plus" and self.n_max > EXP_INDEX_CAP:
            raise ValidationError(
                f"form 'exp_plus' caps at n <= {EXP_INDEX_CAP} to avoid overflow, got n_max={self.n_max}"
            )
        if self.form in _FORM_TO_VALUE_FORM:
            self._value_form()  # a closed form checks its params when it is built
        else:
            check_params(self.form, self.params, ("value",) if self.form == "constant" else ("points",))
        if self.form == "table":  # a point at every index of the range
            spec_object(self.params["points"], "table sequence params.points",
                        required=range(self.n_min, self.n_max + 1))
        if self.form == "moebius":  # c n + d is 0 only at an integer next to -d/c, or everywhere if c = d = 0
            c, d = float(self.params["c"]), float(self.params["d"])
            at = -d / c if c else (self.n_min if d == 0.0 else math.inf)
            for n in (math.floor(at), math.ceil(at)) if math.isfinite(at) else ():
                if self.n_min <= n <= self.n_max and c * n + d == 0.0:
                    raise ValidationError(f"moebius sequence: pole at n={n} in [{self.n_min}, {self.n_max}]")

    def _value_form(self) -> ValueForm:
        return ValueForm(_FORM_TO_VALUE_FORM[self.form], self.params)

    def terms(self, ns: np.ndarray) -> np.ndarray:
        if self.form == "constant":
            return np.full(ns.shape, float(self.params["value"]))
        if self.form == "table":
            pts = self.params["points"]
            return np.array([float(pts[int(k)]) for k in ns])
        return self._value_form().terms(ns.astype(float, copy=False))

    def term_at(self, n: int) -> float:
        if not (self.n_min <= n <= self.n_max):
            raise UsageError(f"index {n} outside [{self.n_min}, {self.n_max}]")
        return float(self.terms(np.array([n]))[0])


@dataclass(frozen=True)
class ConvergenceVerdict:
    expr: str
    candidate: float
    eps_table: tuple  # ((eps, N-or-None), ...) with N antitone in eps
    horizon: int
    n_start: int
    trivial_tail_fraction: float
    tail_certificate: str | None
    verdict: str


@dataclass(frozen=True)
class ExperimentSpec:
    """A sequence (optionally a partner), weights, candidates, and a horizon.

    An assignment entry (expr, offset, form) weighs the stream expr shifted by
    offset (None counts as 0) by a weight form of n; a stream with no entry
    falls back to ctx.mu at its numeric value.
    """

    sequence: SequenceSpec
    partner: SequenceSpec | None = None
    assignment: tuple = ()  # ((expr, offset or None, WeightForm), ...)
    candidates: tuple = ()  # ((expr, value), ...)
    eps_schedule: tuple = DEFAULT_EPS
    horizon: int = DEFAULT_HORIZON
    ctx: FieldContext = field(default_factory=FieldContext)
    label: str = ""

    def __post_init__(self):
        if not self.eps_schedule or any(e <= 0.0 for e in self.eps_schedule):
            raise ValidationError("eps schedule must be non-empty and positive")
        for s in [self.sequence] + ([self.partner] if self.partner else []):
            if self.horizon > s.n_max:
                raise ValidationError(
                    f"horizon {self.horizon} exceeds sequence n_max {s.n_max}"
                )
        if self.horizon < self.n_start:
            raise ValidationError("horizon below the first valid index")
        for expr, value in self.candidates:
            self.check_expression(expr)
            float(value)
        for i, (expr, offset, wf) in enumerate(self.assignment):
            self.check_expression(expr)
            if not isinstance(wf, WeightForm):
                raise SpecError(f"assignment for {expr!r} must carry a WeightForm")
            first = self.assigned(expr, offset)
            if first is None:  # only a non-finite offset misses its own entry
                raise ValidationError(f"mu: tag {_tag_to_key(expr, offset)!r}: offset is not finite")
            if self.assignment.index(first) < i:  # the lookup would silently pick the first of two
                raise SpecError(f"mu: tags {_tag_to_key(*first[:2])!r} and {_tag_to_key(expr, offset)!r}"
                                " weigh the same stream")
        weights = []  # (form, its weights over [n_start, horizon]): every entry shares the range
        for e_expr, _, wf in self.assignment:
            if all(f != wf for f, _ in weights):
                ws = wf.validate_range(self.n_start, self.horizon, where=f"mu[{e_expr}]")
                ws.flags.writeable = False
                weights.append((wf, ws))
        object.__setattr__(self, "_weights", tuple(weights))

    @property
    def n_start(self) -> int:
        n0 = self.sequence.n_min
        if self.partner is not None:
            n0 = max(n0, self.partner.n_min)
        return n0

    def check_expression(self, expr: str) -> None:
        """Refuse an expression this experiment has no stream for."""
        if expr not in EXPRESSIONS:
            raise UsageError(f"unknown expression {expr!r}; known: {', '.join(EXPRESSIONS)}")
        if expr != "self" and self.partner is None:
            raise UsageError(f"expression {expr!r} needs a partner sequence")

    def assigned(self, expr: str, offset: float | None):
        """The first assignment entry that weighs expr shifted by offset, or None;
        no offset counts as 0, and offsets within eq_tol are equal."""
        want = 0.0 if offset is None else float(offset)
        for e_expr, e_off, wf in self.assignment:
            if e_expr == expr and abs(want - (0.0 if e_off is None else float(e_off))) <= self.ctx.eq_tol:
                return e_expr, e_off, wf
        return None


# the classical scans weigh every term 1 and keep the default tolerances
_CLASSICAL_CTX = FieldContext()


def _eps_table(dev: np.ndarray, n0: int, schedule, eq_tol: float) -> tuple:
    """((eps, N(eps)), ...) for a deviation stream whose element i is index n0 + i.

    N(eps) is the index after the last deviation >= eps (1 + eq_tol), n0 when
    there is none, and None when it is the last; a NaN deviation counts as
    within. One pass takes the maximum of each EPS_BLOCK deviations (fmax
    skips NaN), and each eps searches only the last block that reaches it.
    """
    peaks = np.fmax.reduceat(dev, np.arange(0, dev.size, EPS_BLOCK))
    table = []
    for eps in schedule:
        bound = float(eps) * (1.0 + eq_tol)
        blocks = np.flatnonzero(peaks >= bound)
        n = n0
        if blocks.size:
            lo = int(blocks[-1]) * EPS_BLOCK
            last = lo + int(np.flatnonzero(dev[lo:lo + EPS_BLOCK] >= bound)[-1])
            n = None if last == dev.size - 1 else n0 + last + 1
        table.append((eps, n))
    return tuple(table)


class _Stream:
    """The arrays of one experiment, each evaluated once and read by every scan.

    Scans read indices [lo, hi]. lo defaults to the experiment's n_start; a
    lower lo lets the classical scans read each sequence from its own n_min.
    The terms of each distinct sequence are evaluated once; the weights of an
    assigned form are a slice of the array the spec keeps. Expressions,
    weights and deviations cover the experiment range [n0, hi], n0 =
    max(n_start, lo). No index array is kept: element i of a range that
    starts at n is index n + i. Deviations are built in one reused buffer,
    so a scan finishes with one deviation before it asks for the next.
    Verdicts are kept per candidate, so a limit check that repeats a
    declared candidate is free.
    """

    def __init__(self, exp: ExperimentSpec, lo: int | None = None, hi: int | None = None):
        self.exp = exp
        self.lo = exp.n_start if lo is None else lo
        self.hi = exp.horizon if hi is None else hi
        self.n0 = max(exp.n_start, self.lo)
        self._terms = []  # (SequenceSpec, first index, terms from there to hi)
        self._verdicts = {}  # (expr, candidate) -> ConvergenceVerdict
        self._classical = []  # (SequenceSpec, candidate, ConvergenceVerdict)
        self._buf = np.empty(0)

    def _buffer(self, size: int) -> np.ndarray:
        if self._buf.size < size:
            self._buf = np.empty(size)
        return self._buf[:size]

    def terms(self, seq: SequenceSpec, first: int | None = None) -> np.ndarray:
        """Terms of seq over [first, hi], first defaulting to n0; a view."""
        first = self.n0 if first is None else first
        for s, start, t in self._terms:
            if s == seq:
                return t[first - start:]
        start = max(seq.n_min, self.lo)
        t = seq.terms(np.arange(start, self.hi + 1, dtype=float))
        self._terms.append((seq, start, t))
        return t[first - start:]

    def weights(self, wf: WeightForm) -> np.ndarray:
        """The weights of an assigned form over [n0, hi]; a read-only view."""
        exp = self.exp
        w = next(w for f, w in exp._weights if f == wf)
        return w[self.n0 - exp.n_start:self.hi - exp.n_start + 1]

    def values(self, expr: str, out: np.ndarray | None = None) -> np.ndarray:
        """The stream of expr over [n0, hi]; a sum or product is built into out."""
        exp = self.exp
        exp.check_expression(expr)
        if expr == "self":
            return self.terms(exp.sequence)
        if expr == "partner":
            return self.terms(exp.partner)
        combine = np.add if expr == "sum" else np.multiply
        return combine(self.terms(exp.sequence), self.terms(exp.partner), out=out)

    def deviation(self, expr: str, candidate: float | None, signed: bool = False):
        """The deviation |v_n - candidate| w_n over [n0, hi], and the weights w_n.

        Signed, it is (v_n - candidate) w_n. w_n is the weight form assigned
        to (expr, candidate), else the fallback membership at v_n - candidate.
        The deviation lives in the shared buffer.
        """
        exp = self.exp
        buf = self._buffer(self.hi - self.n0 + 1)
        shift = 0.0 if candidate is None else float(candidate)
        dev = np.subtract(self.values(expr, out=buf), shift, out=buf)
        entry = exp.assigned(expr, candidate)
        w = exp.ctx.mu.weight_many(dev) if entry is None else self.weights(entry[2])
        if not signed:
            np.abs(dev, out=dev)
        dev *= w
        return dev, w

    def verdict(self, expr: str, candidate: float) -> ConvergenceVerdict:
        """The weighted scan of one candidate over the experiment range."""
        key = (expr, float(candidate))
        if key not in self._verdicts:
            dev, w = self.deviation(expr, candidate)
            self._verdicts[key] = self._scan(expr, candidate, dev, w, self.n0, self.exp.ctx)
        return self._verdicts[key]

    def classical(self, seq: SequenceSpec, candidate: float) -> ConvergenceVerdict:
        """The unweighted scan of seq over its own [n_min, hi], default tolerances."""
        for s, c, v in self._classical:
            if c == candidate and s == seq:
                return v
        t = self.terms(seq, seq.n_min)
        dev = np.subtract(t, float(candidate), out=self._buffer(t.size))
        np.abs(dev, out=dev)
        v = self._scan("self", candidate, dev, None, seq.n_min, _CLASSICAL_CTX)
        self._classical.append((seq, candidate, v))
        return v

    def _scan(self, expr, candidate, dev, weights, n0, ctx) -> ConvergenceVerdict:
        """Eps table, triviality fraction and tail certificate of dev over [n0, hi].

        weights None stands for weight 1 everywhere.
        """
        eq_tol = ctx.eq_tol
        table = _eps_table(dev, n0, self.exp.eps_schedule, eq_tol)
        found = [n for _, n in table if n is not None]
        all_found = len(found) == len(table)
        tail_from = min(found) if found else n0
        i0 = tail_from - n0
        frac = 0.0 if weights is None else float(np.mean(weights[i0:] <= ctx.min_mu))

        certificate = None
        if all_found:
            tdev = dev[i0:]
            if tdev.size < 2 or bool(np.all(np.diff(tdev) <= eq_tol)):
                certificate = CERT_MONOTONE

        if not all_found:
            verdict = REFUTED
        elif frac == 1.0:
            verdict = SUPPORTED_TRIVIALLY
        else:
            verdict = SUPPORTED
        return ConvergenceVerdict(
            expr=expr,
            candidate=float(candidate),
            eps_table=table,
            horizon=self.exp.horizon,
            n_start=tail_from,
            trivial_tail_fraction=frac,
            tail_certificate=certificate,
            verdict=verdict,
        )


def scaled_deviation(exp: ExperimentSpec, expr: str, candidate: float, n: int) -> float:
    """|v_n - candidate| times the resolved weight at (v_n - candidate)."""
    if not (exp.n_start <= n <= exp.horizon):
        raise UsageError(f"index {n} outside [{exp.n_start}, {exp.horizon}]")
    dev, _ = _Stream(exp, n, n).deviation(expr, candidate)
    return float(dev[0])


def min_index_for_epsilon(exp: ExperimentSpec, expr: str, candidate: float, eps: float):
    """Smallest k with deviation < eps (1 + slack) for every n in [k, horizon]."""
    if eps <= 0.0:
        raise UsageError("eps must be > 0")
    stream = _Stream(exp)
    dev, _ = stream.deviation(expr, candidate)
    return _eps_table(dev, stream.n0, (eps,), exp.ctx.eq_tol)[0][1]


def mu_converges(exp: ExperimentSpec, expr: str, candidate: float) -> ConvergenceVerdict:
    """Full eps table, triviality fraction, and tail certificate for one candidate."""
    return _Stream(exp).verdict(expr, candidate)


def classical_converges(
    seq: SequenceSpec, candidate: float, eps_schedule=DEFAULT_EPS, horizon: int | None = None
) -> ConvergenceVerdict:
    """The same scan with the identity weighting (weight 1 everywhere)."""
    h = min(seq.n_max, DEFAULT_HORIZON) if horizon is None else horizon
    exp = ExperimentSpec(sequence=seq, eps_schedule=tuple(eps_schedule), horizon=h)
    return _Stream(exp).classical(seq, candidate)


def seq_bounded_report(exp: ExperimentSpec, expr: str = "self", probe: float | None = None) -> BoundsReport:
    """The bounds of one expression stream over the experiment range."""
    stream = _Stream(exp)
    s, weights = stream.deviation(expr, None, signed=True)
    return bounds_report(stream.values(expr), weights, s, exp.ctx.eq_tol, probe, stream.n0, expr)


def check_monotone(exp: ExperimentSpec, probe: float | None = None) -> IdentityCheckReport:
    """Certify that the scaled stream is nondecreasing and closes on its supremum.

    Monotonicity is checked termwise with eq_tol slack. When a probe is given
    and the scaled stream exceeds it, the supremum-convergence conclusion is
    reported as precondition-unmet (the stream is not bounded within the
    probe, so the monotone-convergence statement has no content at horizon).
    """
    if exp.horizon < exp.n_start + 1:
        raise UsageError("check_monotone needs at least two indices")
    stream = _Stream(exp)
    s, _ = stream.deviation("self", None, signed=True)
    eq_tol = exp.ctx.eq_tol
    drops = np.nonzero(np.diff(s) < -eq_tol)[0]
    if drops.size:
        k = stream.n0 + int(drops[0])
        return _decided("monotone", (), float(s[drops[0] + 1]), float(s[drops[0]]), False,
                        (f"scaled stream decreases at n={k}",), first_violation_n=k)
    sup = float(np.max(s))
    if probe is not None and float(np.max(np.abs(s))) > probe:
        return IdentityCheckReport(
            "monotone", (), float(s[-1]), sup, math.nan, UNMET,
            ("scaled stream exceeds the probe; not bounded at this scale",),
            {"probe": probe},
        )
    gap_final = sup - float(s[-1])
    gaps = sup - s
    gap_monotone = bool(np.all(np.diff(gaps) <= eq_tol))
    tol = eq_tol * (1.0 + abs(sup))
    verdict = PASS if gap_final <= tol and gap_monotone else FAIL
    return IdentityCheckReport(
        "monotone", (), float(s[-1]), sup, gap_final / (1.0 + abs(sup)), verdict,
        (), {"gap_final": gap_final, "gap_nonincreasing": gap_monotone, "sup": sup},
    )


@dataclass(frozen=True)
class ExperimentReport:
    label: str
    verdicts: tuple  # ConvergenceVerdict per declared candidate
    classical: tuple  # ((expr, candidate, ConvergenceVerdict), ...)
    theorem_checks: tuple  # IdentityCheckReport per cross-check

    def verdict_for(self, expr: str, candidate: float, tol: float = 1e-9) -> ConvergenceVerdict:
        for v in self.verdicts:
            if v.expr == expr and abs(v.candidate - candidate) <= tol:
                return v
        raise UsageError(f"no verdict for ({expr}, {candidate})")


def run_experiment(exp: ExperimentSpec) -> ExperimentReport:
    """Verdicts for every declared candidate plus limit-arithmetic cross-checks.

    When both input sequences converge classically (at this horizon and eps
    schedule), the sum and product are asserted to be mu-supported at l + m
    and l * m. When only mu-convergence holds, observed verdicts are reported
    without asserting any arithmetic.
    """
    stream = _Stream(exp, lo=1)  # each sequence from its own n_min, for the classical scans
    verdicts = tuple(stream.verdict(expr, value) for expr, value in exp.candidates)

    self_candidates = [v for e, v in exp.candidates if e == "self"]
    partner_candidates = [v for e, v in exp.candidates if e == "partner"]
    classical = [("self", c, stream.classical(exp.sequence, c)) for c in self_candidates]
    classical += [("partner", c, stream.classical(exp.partner, c)) for c in partner_candidates]

    checks = []
    if exp.partner is not None and self_candidates and partner_candidates:
        l, m = self_candidates[0], partner_candidates[0]
        cl, cm = stream.classical(exp.sequence, l), stream.classical(exp.partner, m)
        both = cl.verdict != REFUTED and cm.verdict != REFUTED
        for expr, target in (("sum", l + m), ("product", l * m)):
            if not both:
                checks.append(_unmet(f"limit-{expr}", (l, m),
                                     "classical support not established at this horizon"))
                continue
            v = stream.verdict(expr, target)
            ok = v.verdict in (SUPPORTED, SUPPORTED_TRIVIALLY)
            checks.append(_decided(f"limit-{expr}", (l, m), target, target, ok,
                                   (f"{expr} verdict: {v.verdict}",), verdict=v.verdict))
    return ExperimentReport(exp.label, verdicts, tuple(classical), tuple(checks))


def trace_rows(exp: ExperimentSpec, expr: str, candidate: float):
    """(n, term, membership, scaled_deviation) rows for plotting.

    Every field is a built-in int or float. The columns become Python
    numbers TRACE_CHUNK rows at a time, so the objects alive at once do not
    grow with the horizon.
    """
    stream = _Stream(exp)
    values = stream.values(expr)
    dev, weights = stream.deviation(expr, candidate)
    n0 = stream.n0
    for lo in range(0, dev.size, TRACE_CHUNK):
        hi = min(lo + TRACE_CHUNK, dev.size)
        yield from zip(range(n0 + lo, n0 + hi), values[lo:hi].tolist(),
                       weights[lo:hi].tolist(), dev[lo:hi].tolist())


# ---------------------------------------------------------------------------
# Structured document (JSON-shaped) load / dump
# ---------------------------------------------------------------------------

def _parse_sequence(doc, where="sequence") -> SequenceSpec:
    spec_object(doc, where, ("form", "params", "n_min", "n_max"), required=("form",))
    return SequenceSpec(
        form=spec_string(doc["form"], f"{where}.form"),
        params=form_params(doc.get("params", {}), where),
        n_min=number(doc.get("n_min", 1), f"{where}.n_min", int),
        n_max=number(doc.get("n_max", DEFAULT_HORIZON), f"{where}.n_max", int),
    )


def _parse_tag(key: str, where="mu"):
    """(expr, offset) of a tag in one of the two spellings _tag_to_key writes."""
    expr, minus, off = key.partition("_minus:")
    if expr not in EXPRESSIONS:
        raise SpecError(f"{where}: unknown tag {key!r}; tags are <expr> or <expr>_minus:<offset>,"
                        f" expr one of {', '.join(EXPRESSIONS)}")
    return expr, number(off, f"{where}: tag {key!r}") if minus else None


def _tag_to_key(expr: str, offset) -> str:
    if offset is None:
        return expr
    return f"{expr}_minus:{float(offset)!r}"


# the top-level keys parse_experiment reads and serialize_experiment writes
EXPERIMENT_KEYS = frozenset(
    ("sequence", "partner", "mu", "candidates", "eps", "horizon", "fallback_mu", "tolerances", "label")
)
TOLERANCE_KEYS = ("eq_tol", "min_mu")


def parse_experiment(doc: dict) -> ExperimentSpec:
    """Build an experiment from its schema'd document form; unknown keys are refused at every level."""
    spec_object(doc, "experiment", EXPERIMENT_KEYS, required=("sequence",))
    seq = _parse_sequence(doc["sequence"])
    partner = _parse_sequence(doc["partner"], "partner") if "partner" in doc else None
    assignment = tuple((*_parse_tag(key), parse_weight_form(obj, where=f"mu[{key}]"))
                       for key, obj in spec_object(doc.get("mu", {}), "mu").items())
    candidates = []
    for item in spec_array(doc.get("candidates", []), "candidates"):
        if isinstance(item, dict):
            spec_object(item, "candidates", ("expr", "value"), required=("expr", "value"))
            candidates.append((spec_string(item["expr"], "candidates.expr"), number(item["value"], "candidates")))
        else:
            candidates.append(("self", number(item, "candidates")))
    eps = tuple(number(e, "eps") for e in spec_array(doc.get("eps", list(DEFAULT_EPS)), "eps"))
    horizon = number(doc.get("horizon", DEFAULT_HORIZON), "horizon", int)
    fallback = parse_mu_spec(doc["fallback_mu"], "fallback_mu") if "fallback_mu" in doc else crisp()
    tols = spec_object(doc.get("tolerances", {}), "tolerances", TOLERANCE_KEYS)
    # an omitted tolerance keeps FieldContext's default
    ctx = FieldContext(mu=fallback, **{k: number(v, f"tolerances.{k}") for k, v in tols.items()})
    label = spec_string(doc.get("label", ""), "label")
    return ExperimentSpec(sequence=seq, partner=partner, assignment=assignment, candidates=tuple(candidates),
                          eps_schedule=eps, horizon=horizon, ctx=ctx, label=label)


def serialize_experiment(exp: ExperimentSpec) -> dict:
    def seq_obj(s: SequenceSpec):
        params = dict(s.params)
        if s.form == "table":
            params["points"] = {str(k): v for k, v in params["points"].items()}
        return {"form": s.form, "params": params, "n_min": s.n_min, "n_max": s.n_max}

    doc = {
        "sequence": seq_obj(exp.sequence),
        "mu": {_tag_to_key(expr, off): weight_form_to_obj(wf) for expr, off, wf in exp.assignment},
        "candidates": [{"expr": e, "value": v} for e, v in exp.candidates],
        "eps": list(exp.eps_schedule),
        "horizon": exp.horizon,
        "fallback_mu": serialize_mu_spec(exp.ctx.mu),
        "tolerances": {k: getattr(exp.ctx, k) for k in TOLERANCE_KEYS},
        "label": exp.label,
    }
    if exp.partner is not None:
        doc["partner"] = seq_obj(exp.partner)
    return doc


def load_experiment(text_or_doc) -> ExperimentSpec:
    """Parse an experiment from JSON text or an already-decoded dict."""
    return parse_experiment(spec_document(text_or_doc, "experiment"))
