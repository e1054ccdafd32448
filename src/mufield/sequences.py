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

Every scan reads a stream through one range function, _Stream.deviation,
at most SCAN_BLOCK = 65,536 indices at a time (512 KB per float array, 16
EPS_BLOCKs); the arrays of each read belong to its caller. A value past the
float range is +-inf, and a NaN deviation is refused by name. What a scan
reads depends on the stream:

- A rational stream is decided by its exact model (mufield.exact): its
  terms are sq_ratio, moebius or constant, or a sum or a product of two of
  these, and its weight is weight 1, a const or rational_poly form, or a
  fallback with no rules. Its deviation is then a quotient of integer
  polynomials in n, monotone between breakpoints, and a bound on the
  rounding of the float kernel proves, for each eps, which indices cannot
  reach eps (1 + eq_tol) and which surely do. Only the windows in between
  are read in floats, as are those that the count of weights <= min_mu and
  the rise test leave undecided, each by one pass of the blocked kernel
  below over the window, so N(eps) is still the index after the last float
  deviation that reaches the bound. No array spans the range.
- Any other stream is read whole, in one pass that folds each block into
  per-EPS_BLOCK maxima, counts of weights <= min_mu and the last rise of
  the deviation; N(eps) then reads again only the last EPS_BLOCK that
  reaches eps, and the triviality fraction the one the tail starts inside.
  The terms of a log_plus, exp_plus or table sequence are kept from their
  first read, 8 bytes per index, and so are the weights of a form assigned
  to a stream of them, once per form; fallback weights are weighed block by
  block.

The classical scans read weight 1 over the sequence's own [n_min, horizon]
with the default FieldContext tolerances, exactly as classical_converges.
Each distinct assigned weight form is checked against [0, 1] once, when the
experiment is built; a const or rational_poly form weighs only the indices
its exact model leaves undecided.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    SpecError,
    UsageError,
    ValidationError,
    check_eps,
    number,
    spec_array,
    spec_document,
    spec_object,
    spec_string,
)
from .forms import (
    EXP_INDEX_CAP,
    SCAN_BLOCK,
    ValueForm,
    WeightForm,
    form_params,
    parse_weight_form,
    read_params,
    weight_form_to_obj,
)
from .membership import FieldContext, crisp, parse_mu_spec, serialize_mu_spec
from .real_field import BoundsReport, IdentityCheckReport, _judged, _unmet, bounds_report

DEFAULT_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
DEFAULT_HORIZON = 100_000
TRACE_CHUNK = 4096  # trace rows converted to Python numbers at a time
EPS_BLOCK = 4096  # deviations per block maximum in the eps table

SEQUENCE_FORMS = ("log_plus", "exp_plus", "sq_ratio", "moebius", "constant", "table")
RATIONAL_FORMS = ("sq_ratio", "moebius", "constant")  # terms a quotient of polynomials in n
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
    """A closed-form family (or explicit table) with its valid index range, read when
    it is built: params finite floats (a closed form's read by its ValueForm)."""

    form: str
    params: dict = field(default_factory=dict)
    n_min: int = 1
    n_max: int = DEFAULT_HORIZON

    def __post_init__(self):
        if self.form not in SEQUENCE_FORMS:
            raise SpecError(f"unknown sequence form {self.form!r}; known: {SEQUENCE_FORMS}")
        if self.form in _FORM_TO_VALUE_FORM:  # evaluated through its value form, built once
            object.__setattr__(self, "_value", ValueForm(_FORM_TO_VALUE_FORM[self.form], self.params))
            object.__setattr__(self, "params", self._value.params)
        else:
            object.__setattr__(self, "params", read_params(self.form, self.params,
                                                           ("value",) if self.form == "constant" else ("points",)))
        for k in ("n_min", "n_max"):
            object.__setattr__(self, k, number(getattr(self, k), k, int, ValidationError))
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValidationError(f"index range [{self.n_min}, {self.n_max}] is invalid")
        if self.form == "exp_plus" and self.n_max > EXP_INDEX_CAP:
            raise ValidationError(
                f"form 'exp_plus' caps at n <= {EXP_INDEX_CAP} to avoid overflow, got n_max={self.n_max}"
            )
        if self.form == "table":  # a point at every index of the range
            spec_object(self.params["points"], "table sequence params.points",
                        required=range(self.n_min, self.n_max + 1))
        if self.form == "moebius":  # c n + d is 0 only at an integer next to -d/c, or everywhere if c = d = 0
            c, d = self.params["c"], self.params["d"]
            at = -d / c if c else (self.n_min if d == 0.0 else math.inf)
            for n in (math.floor(at), math.ceil(at)) if math.isfinite(at) else ():
                if self.n_min <= n <= self.n_max and c * n + d == 0.0:
                    raise ValidationError(f"moebius sequence: pole at n={n} in [{self.n_min}, {self.n_max}]")

    def terms(self, ns: np.ndarray) -> np.ndarray:
        if self.form == "constant":
            return np.full(ns.shape, self.params["value"])
        if self.form == "table":
            pts = self.params["points"]
            return np.array([pts[int(k)] for k in ns])
        # a term past the float range is +-inf, as in a member table, and one of inf / inf is
        # NaN, which the scans refuse
        with np.errstate(over="ignore", invalid="ignore"):
            return self._value.terms(ns.astype(float, copy=False))

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
    falls back to ctx.mu at its numeric value. Candidates and offsets are read
    when it is built and kept as finite floats, the horizon as an integer.
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
        if not self.eps_schedule:
            raise ValidationError("eps schedule must be non-empty")
        for e in self.eps_schedule:
            check_eps(e, "eps schedule entry")
        object.__setattr__(self, "horizon", number(self.horizon, "horizon", int, ValidationError))
        for s in [self.sequence] + ([self.partner] if self.partner else []):
            if self.horizon > s.n_max:
                raise ValidationError(
                    f"horizon {self.horizon} exceeds sequence n_max {s.n_max}"
                )
        if self.horizon < self.n_start:
            raise ValidationError("horizon below the first valid index")
        object.__setattr__(self, "candidates", tuple(
            (self.check_expression(expr), number(value, "candidate", error=ValidationError))
            for expr, value in self.candidates))
        for expr, offset, wf in self.assignment:
            self.check_expression(expr)
            if not isinstance(wf, WeightForm):
                raise SpecError(f"assignment for {expr!r} must carry a WeightForm")
        # one object per equal sequence and per equal weight form, so that each has one exact model
        if self.partner is not None and _same(self.partner, self.sequence):
            object.__setattr__(self, "partner", self.sequence)
        forms = [rule.weight for rule in self.ctx.mu.rules if isinstance(rule.weight, WeightForm)]
        entries = []
        for expr, offset, wf in self.assignment:
            wf = next((f for f in forms if _same(f, wf)), wf)
            forms.append(wf)
            entries.append((expr, None if offset is None else
                            number(offset, f"mu: tag {expr!r} offset", error=ValidationError), wf))
        object.__setattr__(self, "assignment", tuple(entries))
        for i, (expr, offset, _) in enumerate(self.assignment):
            first = self.assigned(expr, offset)
            if self.assignment.index(first) < i:  # the lookup would silently pick the first of two
                raise SpecError(f"mu: tags {_tag_to_key(*first[:2])!r} and {_tag_to_key(expr, offset)!r}"
                                " weigh the same stream")
        checked = []  # every entry shares the range [n_start, horizon]
        for e_expr, _, wf in self.assignment:
            if wf not in checked:
                wf.validate_range(self.n_start, self.horizon, where=f"mu[{e_expr}]")
                checked.append(wf)

    @property
    def n_start(self) -> int:
        n0 = self.sequence.n_min
        if self.partner is not None:
            n0 = max(n0, self.partner.n_min)
        return n0

    def check_expression(self, expr: str) -> str:
        """expr, refused when this experiment has no stream for it."""
        if expr not in EXPRESSIONS:
            raise UsageError(f"unknown expression {expr!r}; known: {', '.join(EXPRESSIONS)}")
        if expr != "self" and self.partner is None:
            raise UsageError(f"expression {expr!r} needs a partner sequence")
        return expr

    def assigned(self, expr: str, offset: float | None):
        """The first assignment entry that weighs expr shifted by offset, or None;
        no offset counts as 0, and offsets within eq_tol are equal."""
        want = 0.0 if offset is None else offset
        for e_expr, e_off, wf in self.assignment:
            if e_expr == expr and abs(want - (0.0 if e_off is None else e_off)) <= self.ctx.eq_tol:
                return e_expr, e_off, wf
        return None


def _same(a, b) -> bool:
    """Whether two specs are equal down to the sign of each zero, so that either one
    gives the same floats and the same document."""
    return repr(a) == repr(b)


# the classical scans weigh every term 1 and keep the default tolerances
_CLASSICAL_CTX = FieldContext()
_EPS_STARTS = np.arange(0, SCAN_BLOCK, EPS_BLOCK)  # each EPS_BLOCK's offset in a scan block


class _Stream:
    """The streams of one experiment, read by every scan.

    Scans read indices [lo, hi]. lo defaults to the experiment's n_start; a
    lower lo lets the classical scans read each sequence from its own n_min.
    The terms of a log_plus, exp_plus or table sequence are evaluated once,
    SCAN_BLOCK indices at a time, into one array kept from first use, and so
    are the weights of each form assigned to a stream of such terms, over
    [n0, hi]. The rational forms are evaluated on each read, as are the
    weights of a stream of them, which its exact model reads only in the
    windows it leaves undecided. Every scan reads through deviation(), at
    most SCAN_BLOCK indices at a time. Verdicts are kept per candidate, so a
    limit check that repeats a declared candidate is free.
    """

    def __init__(self, exp: ExperimentSpec, lo: int | None = None, hi: int | None = None):
        self.exp = exp
        self.lo = exp.n_start if lo is None else lo
        self.hi = exp.horizon if hi is None else hi
        self.n0 = max(exp.n_start, self.lo)
        self._terms = []  # (SequenceSpec, first index, terms from there to hi)
        self._weights = []  # (WeightForm, n0, weights from there to hi)
        self._verdicts = {}  # (expr, candidate) -> ConvergenceVerdict
        self._classical = []  # (SequenceSpec, candidate, ConvergenceVerdict)
        self._models = {}  # the exact deviation pieces and float weights' models of its scans

    def _keep(self, kept: list, source, evaluate, start: int, first: int, last: int) -> np.ndarray:
        """evaluate(n) over [first, last]: a view of the array over [start, hi] that kept
        holds for source, evaluated SCAN_BLOCK indices at a time on first use."""
        for s, begin, t in kept:
            if s == source:
                return t[first - begin:last - begin + 1]
        t = np.empty(self.hi - start + 1)
        for i in range(0, t.size, SCAN_BLOCK):
            j = min(i + SCAN_BLOCK, t.size)
            t[i:j] = evaluate(np.arange(start + i, start + j, dtype=float))
        kept.append((source, start, t))
        return t[first - start:last - start + 1]

    def terms(self, seq: SequenceSpec, first: int, last: int) -> np.ndarray:
        """Terms of seq over [first, last]: evaluated now for a rational form, else a
        view of the array kept from first use."""
        if seq.form in RATIONAL_FORMS:
            return seq.terms(np.arange(first, last + 1, dtype=float))
        return self._keep(self._terms, seq, seq.terms, max(seq.n_min, self.lo), first, last)

    def weights(self, expr: str, form: WeightForm, first: int, last: int) -> np.ndarray:
        """The weights of form, assigned to expr, over [first, last]: a view of the array
        kept from first use where expr reads a kept sequence, else evaluated now."""
        if all(s.form in RATIONAL_FORMS for s in self._sequences(expr)):
            return form.weights(np.arange(first, last + 1, dtype=float))
        return self._keep(self._weights, form, form.weights, self.n0, first, last)

    def _sequences(self, expr: str) -> tuple:
        """The sequences whose terms make the stream of expr."""
        exp = self.exp
        exp.check_expression(expr)
        return {"self": (exp.sequence,), "partner": (exp.partner,)}.get(expr, (exp.sequence, exp.partner))

    def values(self, expr: str, first: int, last: int) -> np.ndarray:
        """The stream of expr over [first, last]."""
        seqs = self._sequences(expr)
        if len(seqs) == 1:
            return self.terms(seqs[0], first, last)
        combine = np.add if expr == "sum" else np.multiply
        return combine(*(self.terms(s, first, last) for s in seqs))

    def deviation(self, expr, candidate, first, last, seq=None, signed=False):
        """(v_n, |v_n - candidate| w_n, w_n) over [first, last], at most SCAN_BLOCK indices.

        Signed, the deviation is (v_n - candidate) w_n. w_n is the weight form
        assigned to (expr, candidate) at n, else the fallback membership at
        v_n - candidate. Given seq, v_n are its terms and w_n is None, weight
        1: the classical deviation.
        """
        exp = self.exp
        entry = None if seq is not None else exp.assigned(expr, candidate)
        w = None if entry is None else self.weights(expr, entry[2], first, last)
        shift = 0.0 if candidate is None else float(candidate)
        # a value past the float range is +-inf, and inf - inf and inf * 0 are NaN, which the scans refuse
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.values(expr, first, last) if seq is None else self.terms(seq, first, last)
            dev = values - shift
            if seq is None and entry is None:
                w = exp.ctx.mu.weight_many(dev)
            if not signed:
                np.abs(dev, out=dev)
            if w is not None:
                dev *= w
        return values, dev, w

    def blocks(self, expr, candidate, first=None, seq=None, signed=False, last=None):
        """(n, values, deviations, weights) of deviation() over [first, last], first
        defaulting to n0 and last to hi, one SCAN_BLOCK after another; n is the
        block's first index."""
        first = self.n0 if first is None else first
        last = self.hi if last is None else last
        for n in range(first, last + 1, SCAN_BLOCK):
            yield n, *self.deviation(expr, candidate, n, min(n + SCAN_BLOCK, last + 1) - 1, seq, signed)

    def verdict(self, expr: str, candidate: float) -> ConvergenceVerdict:
        """The weighted scan of one candidate over the experiment range."""
        key = (expr, float(candidate))
        if key not in self._verdicts:
            self._verdicts[key] = self._scan(expr, candidate, self.n0)
        return self._verdicts[key]

    def classical(self, seq: SequenceSpec, candidate: float) -> ConvergenceVerdict:
        """The unweighted scan of seq over its own [n_min, hi], default tolerances."""
        for s, c, v in self._classical:
            if c == candidate and s == seq:
                return v
        v = self._scan("self", candidate, seq.n_min, seq)
        self._classical.append((seq, candidate, v))
        return v

    def _rational(self, expr, candidate, seq):
        """(sequences, combine, weight) of a stream the exact model decides, None for
        any other: its terms and weight are rational in n, and every index up to hi
        is exact in a double. weight is None for weight 1, a float for a constant,
        else a rational_poly form; combine is "sum" or "product" for two sequences."""
        exp = self.exp
        if seq is not None:
            seqs, weight = (seq,), None
        else:
            seqs = self._sequences(expr)
            entry = exp.assigned(expr, candidate)
            if entry is not None:
                form = entry[2]
                if form.form not in ("const", "rational_poly"):
                    return None
                weight = form.params["value"] if form.form == "const" else form
            elif exp.ctx.mu.rules:
                return None
            else:
                weight = exp.ctx.mu.default
        if self.hi > 2 ** 53 or any(s.form not in RATIONAL_FORMS for s in seqs):
            return None
        return seqs, expr if len(seqs) == 2 else None, weight

    def _probe(self, expr, candidate, n0, seq, ctx):
        """What a scan asks of one stream over [n0, hi], answered from the exact model of
        a rational stream (mufield.exact), else from one blocked pass over the range."""
        parts = self._rational(expr, candidate, seq)
        if parts is None:
            return _BlockPass(self, expr, candidate, n0, seq, ctx)
        from .exact import RationalScan  # on the first rational scan, so that `import mufield` stays without it

        def window(first, last):
            return _BlockPass(self, expr, candidate, first, seq, ctx, last)

        return RationalScan(*parts, float(candidate), n0, self.hi, ctx.eq_tol, ctx.min_mu, window, self._models)

    def _scan(self, expr, candidate, n0, seq=None, schedule=None) -> ConvergenceVerdict:
        """Eps table, triviality fraction and tail certificate of one deviation over [n0, hi].

        N(eps) is the index after the last deviation >= eps (1 + eq_tol), n0
        when there is none and None when it is the last. The tail from the
        least N is trivial when every weight there is <= min_mu, and carries
        the certificate when no step of its deviation rises by more than
        eq_tol (a NaN step counts). seq scans its terms at weight 1 with the
        default tolerances; schedule defaults to the experiment's.
        """
        ctx = self.exp.ctx if seq is None else _CLASSICAL_CTX
        probe = self._probe(expr, candidate, n0, seq, ctx)
        table = []
        for eps in self.exp.eps_schedule if schedule is None else schedule:
            last = probe.last_reaching(float(eps) * (1.0 + ctx.eq_tol))
            table.append((eps, n0 if last is None else None if last == self.hi else last + 1))
        found = [n for _, n in table if n is not None]
        all_found = len(found) == len(table)
        tail_from = min(found) if found else n0
        frac = 0.0 if seq is not None else probe.low_count(tail_from) / (self.hi - tail_from + 1)
        certificate = CERT_MONOTONE if all_found and not probe.rises_after(tail_from) else None

        if not all_found:
            verdict = REFUTED
        elif frac == 1.0:
            verdict = SUPPORTED_TRIVIALLY
        else:
            verdict = SUPPORTED
        return ConvergenceVerdict(
            expr=expr,
            candidate=float(candidate),
            eps_table=tuple(table),
            horizon=self.exp.horizon,
            n_start=tail_from,
            trivial_tail_fraction=frac,
            tail_certificate=certificate,
            verdict=verdict,
        )


class _BlockPass:
    """The blocked kernel: one pass over [n0, hi] of any stream, hi defaulting
    to the stream's; an exact model asks one over each window it leaves undecided.

    The pass keeps, per EPS_BLOCK deviations, the maximum and the count of
    weights <= min_mu, and the last index whose deviation is not within
    eq_tol of the one before (a NaN step counts). Of the blocks, only the
    last EPS_BLOCK that reaches a bound is read again, and the one a tail
    starts inside, for its weights. A NaN deviation reaches no bound, so it
    would support any candidate: the pass raises a DomainError naming its
    first index instead, found from the maxima, which keep a NaN.
    """

    def __init__(self, stream: _Stream, expr, candidate, n0, seq, ctx, hi=None):
        self.stream, self.args, self.seq, self.n0, self.min_mu = stream, (expr, candidate), seq, n0, ctx.min_mu
        self.hi = stream.hi if hi is None else hi
        eq_tol = ctx.eq_tol
        size = self.hi - n0 + 1
        self.peaks = np.empty(-(-size // EPS_BLOCK))
        self.low = np.zeros(self.peaks.size, dtype=np.intp)  # weights <= min_mu per EPS_BLOCK
        self.rise = n0  # the last n > n0 with not dev[n] - dev[n - 1] <= eq_tol; n0 for none
        self.held = None  # (first index, deviations) of the EPS_BLOCK read last
        for n, _, dev, w in stream.blocks(expr, candidate, n0, seq, last=self.hi):
            starts = _EPS_STARTS[:-(-dev.size // EPS_BLOCK)]
            b = (n - n0) // EPS_BLOCK
            peaks = np.maximum.reduceat(dev, starts)
            if np.isnan(peaks).any():
                self._refuse_nan(n + dev.size - 1)
            self.peaks[b:b + starts.size] = peaks
            if w is not None:  # an EPS_BLOCK count fits in 16 bits
                zero = (w <= ctx.min_mu).view(np.uint8)
                self.low[b:b + starts.size] = np.add.reduceat(zero, starts, dtype=np.uint16)
            with np.errstate(invalid="ignore"):  # inf - inf is a NaN step, which counts
                if n > n0 and not dev[0] - prev <= eq_tol:
                    self.rise = n
                within = dev[1:] - dev[:-1] <= eq_tol
            if not within.all():
                self.rise = n + within.size - int(np.argmin(within[::-1]))
            prev = dev[-1]
            del _, dev, w  # a block's arrays are its own: free them before the next is read

    def _refuse_nan(self, last: int):
        """Raise the DomainError that names the scan's first NaN deviation, at or before last;
        it may lie before n0, in a window an exact model decided."""
        (expr, candidate), seq, stream = self.args, self.seq, self.stream
        start = stream.n0 if seq is None else seq.n_min
        k = next(n + int(np.argmax(np.isnan(dev)))
                 for n, _, dev, _ in stream.blocks(expr, candidate, start, seq, last=last) if np.isnan(dev).any())
        scan = f"{expr} -> {candidate!r}" if seq is None else f"classical {seq.form} -> {candidate!r}"
        raise DomainError(f"{scan}: the deviation at n={k} is NaN in floating point, so it has no verdict")

    def last_reaching(self, bound: float):
        """The last index whose deviation is >= bound, or None."""
        reach = np.flatnonzero(self.peaks >= bound)
        if not reach.size:
            return None
        first = self.n0 + int(reach[-1]) * EPS_BLOCK
        if self.held is None or self.held[0] != first:
            last = min(first + EPS_BLOCK, self.hi + 1) - 1
            self.held = first, self.stream.deviation(*self.args, first, last, self.seq)[1]
        return first + int(np.flatnonzero(self.held[1] >= bound)[-1])

    def low_count(self, first: int) -> int:
        """The count of weights <= min_mu over [first, hi]."""
        k, r = divmod(first - self.n0, EPS_BLOCK)
        count = int(self.low[k + (r > 0):].sum())
        if r:
            w = self.stream.deviation(*self.args, first, min(self.n0 + (k + 1) * EPS_BLOCK, self.hi + 1) - 1)[2]
            count += int(np.count_nonzero(w <= self.min_mu))
        return count

    def rises_after(self, first: int) -> bool:
        """Whether some step dev(n) - dev(n - 1), first < n <= hi, is not <= eq_tol."""
        return self.rise > first


def scaled_deviation(exp: ExperimentSpec, expr: str, candidate: float, n: int) -> float:
    """|v_n - candidate| times the resolved weight at (v_n - candidate)."""
    candidate = number(candidate, "candidate", error=ValidationError)
    if not (exp.n_start <= n <= exp.horizon):
        raise UsageError(f"index {n} outside [{exp.n_start}, {exp.horizon}]")
    _, dev, _ = _Stream(exp, n, n).deviation(expr, candidate, n, n)
    return float(dev[0])


def min_index_for_epsilon(exp: ExperimentSpec, expr: str, candidate: float, eps: float):
    """Smallest k with deviation < eps (1 + slack) for every n in [k, horizon]."""
    candidate = number(candidate, "candidate", error=ValidationError)
    check_eps(eps, "eps")
    stream = _Stream(exp)
    return stream._scan(expr, candidate, stream.n0, schedule=(eps,)).eps_table[0][1]


def mu_converges(exp: ExperimentSpec, expr: str, candidate: float) -> ConvergenceVerdict:
    """Full eps table, triviality fraction, and tail certificate for one candidate."""
    return _Stream(exp).verdict(expr, number(candidate, "candidate", error=ValidationError))


def classical_converges(
    seq: SequenceSpec, candidate: float, eps_schedule=DEFAULT_EPS, horizon: int | None = None
) -> ConvergenceVerdict:
    """The same scan with the identity weighting (weight 1 everywhere)."""
    candidate = number(candidate, "candidate", error=ValidationError)
    h = min(seq.n_max, DEFAULT_HORIZON) if horizon is None else horizon
    exp = ExperimentSpec(sequence=seq, eps_schedule=tuple(eps_schedule), horizon=h)
    return _Stream(exp).classical(seq, candidate)


def seq_bounded_report(exp: ExperimentSpec, expr: str = "self", probe: float | None = None) -> BoundsReport:
    """The bounds of one expression stream over the experiment range."""
    stream = _Stream(exp)
    return bounds_report(((v, w, s) for _, v, s, w in stream.blocks(expr, None, signed=True)),
                         exp.ctx.eq_tol, probe, stream.n0, expr)


def check_monotone(exp: ExperimentSpec, probe: float | None = None) -> IdentityCheckReport:
    """Certify that the scaled stream is nondecreasing and closes on its supremum.

    Monotonicity is checked termwise with eq_tol slack, in one pass that
    stops at the first drop; a NaN scaled value before it has no order, so
    it is refused with a DomainError naming its first index. When a probe is
    given and the scaled stream exceeds it, the supremum-convergence
    conclusion is reported as precondition-unmet (the stream is not bounded
    within the probe, so the monotone-convergence statement has no content at
    horizon). Otherwise the residual is the final gap (sup - last) / (1 + |sup|).
    """
    probe = None if probe is None else number(probe, "probe", error=ValidationError)
    if exp.horizon < exp.n_start + 1:
        raise UsageError("check_monotone needs at least two indices")
    sup = top = -math.inf
    prev = None  # the scaled value before the block
    for n, _, s, _ in _Stream(exp).blocks("self", None, signed=True):
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN step, which is no drop
            steps = np.diff(s) if prev is None else np.diff(s, prepend=prev)
        drops = np.flatnonzero(steps < -exp.ctx.eq_tol)
        j = int(drops[0]) - (prev is not None) if drops.size else s.size  # the index of s before the drop
        nan = np.flatnonzero(np.isnan(s[:j + 1]))
        if nan.size:
            raise DomainError(f"monotone: the scaled value at n={n + int(nan[0])} is NaN in floating point,"
                              " so it has no verdict")
        if drops.size:  # j is -1 for a drop from prev
            k = n + j
            return _judged(exp.ctx, "monotone", (), float(s[j + 1]), float(prev if j < 0 else s[j]), math.inf,
                           (f"scaled stream decreases at n={k}",), first_violation_n=k)
        sup = float(np.maximum(sup, np.max(s)))
        top = float(np.maximum(top, np.max(np.abs(s))))
        prev = s[-1]
    last = float(prev)
    if probe is not None and top > probe:
        return _unmet("monotone", (), "scaled stream exceeds the probe; not bounded at this scale",
                      probe=probe, last=last, sup=sup)
    gap_final = sup - last
    return _judged(exp.ctx, "monotone", (), last, sup, gap_final / (1.0 + abs(sup)),
                   gap_final=gap_final, sup=sup)


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
    without asserting any arithmetic, as when l + m or l * m is past the float range.
    Its scans read one stream, so they share its exact deviation pieces (mufield.exact).
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
                checks.append(_unmet(f"limit-{expr}", (l, m), "classical support not established at this horizon"))
                continue
            if not math.isfinite(target):
                checks.append(_unmet(f"limit-{expr}", (l, m), f"the {expr} of the limits is past the float range"))
                continue
            v = stream.verdict(expr, target)
            ok = v.verdict in (SUPPORTED, SUPPORTED_TRIVIALLY)
            checks.append(_judged(exp.ctx, f"limit-{expr}", (l, m), target, target, 0.0 if ok else math.inf,
                                  (f"{expr} verdict: {v.verdict}",), verdict=v.verdict))
    return ExperimentReport(exp.label, verdicts, tuple(classical), tuple(checks))


class TraceChunks:
    """The rows of one trace, chunk k holding those from n0 + k TRACE_CHUNK on.

    A row is (n, term, membership, scaled_deviation), every field a built-in
    int or float. A chunk's columns become Python numbers when it is asked
    for, so the objects alive at once do not grow with the horizon. Each scan
    block is read through the stream when a chunk in it is first asked for,
    and kept until a chunk of another block is; as SCAN_BLOCK is a multiple
    of TRACE_CHUNK, no chunk spans two blocks. A candidate that is not a
    finite number is refused here, before any row is read, as is an
    expression the experiment has no stream for.
    """

    def __init__(self, exp: ExperimentSpec, expr: str, candidate: float):
        exp.check_expression(expr)
        self.expr = expr
        self.candidate = number(candidate, "candidate", error=ValidationError)
        self._stream = _Stream(exp)
        self.count = -(-(self._stream.hi - self._stream.n0 + 1) // TRACE_CHUNK)  # chunks in the trace
        self._block = None  # (first index, values, deviations, weights) of the block read last

    def rows(self, k: int):
        """The rows of chunk k, from an iterator."""
        stream = self._stream
        first = stream.n0 + k * TRACE_CHUNK
        start = first - (first - stream.n0) % SCAN_BLOCK
        if self._block is None or self._block[0] != start:
            last = min(start + SCAN_BLOCK, stream.hi + 1) - 1
            self._block = start, *stream.deviation(self.expr, self.candidate, start, last)
        _, values, dev, weights = self._block
        lo = first - start
        hi = min(lo + TRACE_CHUNK, dev.size)
        return zip(range(first, start + hi), values[lo:hi].tolist(), weights[lo:hi].tolist(), dev[lo:hi].tolist())


def trace_rows(exp: ExperimentSpec, expr: str, candidate: float):
    """(n, term, membership, scaled_deviation) rows for plotting, from an
    iterator over the chunks of TraceChunks, which refuses a bad expression
    or candidate at the call."""
    chunks = TraceChunks(exp, expr, candidate)
    return itertools.chain.from_iterable(map(chunks.rows, range(chunks.count)))


# ---------------------------------------------------------------------------
# Structured document (JSON-shaped) load / dump
# ---------------------------------------------------------------------------

def _parse_sequence(doc, where="sequence") -> SequenceSpec:
    spec_object(doc, where, ("form", "params", "n_min", "n_max"), required=("form",))
    return SequenceSpec(
        form=spec_string(doc["form"], f"{where}.form"),
        params=form_params(doc.get("params", {}), f"{where}.params"),
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
    return f"{expr}_minus:{offset!r}"


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
