"""Per-layer tracing of mufield, applied from outside the package.

`Tracer.installed()` replaces the public functions and methods listed in
`LAYERS` with wrappers, in every mufield module that binds them, and puts
the originals back on exit. Each wrapped call is a span: name, start, end
and the span that caused it, with inclusive and self time. Counts (calls,
elements, rows, bytes) come from the same wrappers and are kept per round.
The spans of the first rounds stay in memory as compact arrays and are
written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import mufield.cli
import mufield.complex_field
import mufield.demos
import mufield.membership
import mufield.real_field
import mufield.registry
import mufield.sequences
from mufield.forms import ValueForm, WeightForm
from mufield.membership import FamilyMatcher, MembershipFunction, PointMatcher, SetMatcher
from mufield.sequences import SequenceSpec

perf = time.perf_counter


def _calls(key):
    return lambda counts, args, result: counts.__setitem__(key, counts[key] + 1)


def _size(key, i):
    return lambda counts, args, result: counts.__setitem__(key, counts[key] + int(np.size(args[i])))


def _range(counts, args, result):
    counts["forms.validate_range.elements"] += args[2] - args[1] + 1


def _horizon(counts, args, result):
    exp = args[0]
    counts["sequences.indices"] += exp.horizon - exp.n_start + 1


# (owner, attribute, span name or None for a bare counter, count hook)
LAYERS = [
    (mufield.cli, "main", "cli.main", None),
    (mufield.demos, "run_demo", "demos.run_demo", None),
    (mufield.sequences, "load_experiment", "sequences.load_experiment", None),
    (mufield.sequences, "run_experiment", "sequences.run_experiment", _horizon),
    (mufield.sequences, "mu_converges", "sequences.mu_converges", _calls("sequences.mu_converges.calls")),
    (mufield.sequences, "classical_converges", "sequences.classical_converges", None),
    (mufield.sequences, "trace_rows", "sequences.trace_rows", None),
    (SequenceSpec, "terms", None, _size("sequences.terms.elements", 1)),
    (ValueForm, "terms", "forms.ValueForm.terms", _size("forms.ValueForm.terms.elements", 1)),
    (ValueForm, "term_at", None, _calls("forms.ValueForm.term_at.calls")),
    (WeightForm, "weights", "forms.WeightForm.weights", _size("forms.WeightForm.weights.elements", 1)),
    (WeightForm, "validate_range", "forms.validate_range", _range),
    (mufield.membership, "parse_mu_spec", "membership.parse_mu_spec", None),
    (mufield.membership, "mu_eval", "membership.mu_eval", _calls("membership.mu_eval.calls")),
    (mufield.membership, "check_axioms", "membership.check_axioms", None),
    (MembershipFunction, "weight", "membership.weight", _calls("membership.weight.calls")),
    (MembershipFunction, "weight_many", "membership.weight_many", _size("membership.weight_many.elements", 1)),
    (FamilyMatcher, "match_index", "membership.match_index", _calls("membership.match_index.calls")),
    (FamilyMatcher, "match_indices", "membership.match_indices", None),
    (PointMatcher, "hit", None, _calls("membership.hit.calls")),
    (SetMatcher, "hit", None, _calls("membership.hit.calls")),
    (mufield.registry, "run_identity_sweep", "registry.run_identity_sweep", None),
    (mufield.registry, "table_membership", "registry.table_membership", _calls("registry.table_membership.calls")),
    (mufield.registry, "check_identity", "registry.check_identity", _calls("registry.trials")),
    (mufield.real_field, "check_real_identity", "real_field.check_real_identity",
     _calls("real_field.check_real_identity.calls")),
    (mufield.complex_field, "check_complex_identity", "complex_field.check_complex_identity",
     _calls("complex_field.check_complex_identity.calls")),
]

SPAN_NAMES = [name for _, _, name, _ in LAYERS if name]
NAME_IDS = {name: i for i, name in enumerate(SPAN_NAMES)}
SPAN_ROUNDS = 2  # rounds whose spans are kept; later rounds add to the totals only


def _bindings(owner, attr):
    """Every (namespace, name) in mufield bound to owner.attr."""
    if isinstance(owner, type):
        return [(owner, attr)], owner.__dict__[attr]
    fn = getattr(owner, attr)
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname == "mufield" or modname.startswith("mufield."):
            found += [(mod, k) for k, v in vars(mod).items() if v is fn]
    return found, fn


class Tracer:
    """Spans and counts of the traced rounds; `installed()` turns tracing on."""

    def __init__(self):
        self.cols = {k: array(t) for k, t in
                     (("round", "i"), ("span", "q"), ("parent", "q"), ("name", "H"),
                      ("start", "d"), ("end", "d"), ("self", "d"))}
        self.stack = []  # frames: [name, span id, child time, start]
        self.depth = defaultdict(int)
        self.next_span = 1
        self.round = 0
        self.patches = []
        for owner, attr, name, count in LAYERS:
            places, fn = _bindings(owner, attr)
            if name is None:
                wrapper = self._counter(fn, count)
            elif attr == "trace_rows":
                wrapper = self._generator(name, fn)
            elif attr == "main":
                wrapper = self._cli_main(self._span(name, fn, count))
            else:
                wrapper = self._span(name, fn, count)
            self.patches += [(ns, k, fn, wrapper) for ns, k in places]

    # -- rounds ----------------------------------------------------------

    def begin_round(self):
        """Start the totals of a traced round; call before each one."""
        self.round += 1
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def snapshot(self) -> tuple:
        return dict(self.inclusive), dict(self.self_time), dict(self.counts)

    @contextlib.contextmanager
    def installed(self):
        for ns, k, _, wrapper in self.patches:
            setattr(ns, k, wrapper)
        try:
            yield self
        finally:
            for ns, k, fn, _ in self.patches:
                setattr(ns, k, fn)

    # -- spans -----------------------------------------------------------

    def _push(self, name, sid=None):
        if sid is None:
            sid = self.next_span
            self.next_span += 1
        self.depth[name] += 1
        self.stack.append([name, sid, 0.0, perf()])

    def _pop(self, record=True):
        end = perf()
        name, sid, child, start = self.stack.pop()
        dur = end - start
        self.depth[name] -= 1
        if not self.depth[name]:  # nested calls of one name count once
            self.inclusive[name] += dur
        self.self_time[name] += dur - child
        parent = 0
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][1]
        if record:
            self._record(sid, parent, name, start, end, dur - child)
        return start, end, parent, dur - child

    def _record(self, sid, parent, name, start, end, self_t):
        if self.round > SPAN_ROUNDS:
            return
        c = self.cols
        c["round"].append(self.round)
        c["span"].append(sid)
        c["parent"].append(parent)
        c["name"].append(NAME_IDS[name])
        c["start"].append(start)
        c["end"].append(end)
        c["self"].append(self_t)

    def _span(self, name, fn, count):
        push, pop = self._push, self._pop

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop()
            if count is not None:
                count(self.counts, args, result)
            return result
        return wrapper

    def _counter(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(self.counts, args, None)
            return fn(*args, **kwargs)
        return wrapper

    def _cli_main(self, traced):
        @functools.wraps(traced)
        def wrapper(argv=None):
            before = sys.stdout.tell()
            try:
                return traced(argv)
            finally:  # the JSON envelope is ASCII, so characters are bytes
                self.counts["cli.stdout_bytes"] += sys.stdout.tell() - before
        return wrapper

    def _generator(self, name, fn):
        """A generator's span is the sum of its `next` calls, recorded once."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_span
            self.next_span += 1
            return self._drain(name, sid, fn(*args, **kwargs))
        return wrapper

    def _drain(self, name, sid, gen):
        first, rows, self_total = None, 0, 0.0
        while True:
            self._push(name, sid)
            try:
                row = next(gen)
                done = False
            except StopIteration:
                done = True
            finally:
                start, end, parent, self_t = self._pop(record=False)
            first = start if first is None else first
            self_total += self_t
            if done:
                break
            rows += 1
            yield row
        self._record(sid, parent, name, first, end, self_total)
        self.counts["cli.trace_rows"] += rows

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        c = self.cols
        t0 = min(c["start"]) if c["start"] else 0.0  # children are recorded before parents
        with open(path, "w", encoding="utf-8") as f:
            f.write("round,span,parent,name,start_ms,end_ms,self_ms\n")
            for i in range(len(c["span"])):
                f.write(f"{c['round'][i]},{c['span'][i]},{c['parent'][i]},{SPAN_NAMES[c['name'][i]]},"
                        f"{(c['start'][i] - t0) * 1e3:.4f},{(c['end'][i] - t0) * 1e3:.4f},"
                        f"{c['self'][i] * 1e3:.4f}\n")


def layer_metrics(snap) -> dict:
    """The per-layer metrics of one traced round, from its snapshot."""
    inclusive, self_time, counts = snap

    def ms(name):
        return inclusive.get(name, 0.0) * 1e3

    def self_ms(*names):
        return sum(self_time.get(n, 0.0) for n in names) * 1e3

    def n(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    indices = n("sequences.indices")
    return {
        "cli.main.ms": ms("cli.main"),
        "cli.self_ms": self_ms("cli.main"),
        "cli.stdout_bytes": n("cli.stdout_bytes"),
        "cli.trace_rows": n("cli.trace_rows"),
        "demos.run_demo.ms": ms("demos.run_demo"),
        "demos.self_ms": self_ms("demos.run_demo"),
        "sequences.load_experiment.ms": ms("sequences.load_experiment"),
        "sequences.run_experiment.ms": ms("sequences.run_experiment"),
        "sequences.mu_converges.calls": n("sequences.mu_converges.calls"),
        "sequences.mu_converges.ms": ms("sequences.mu_converges"),
        "sequences.classical_converges.ms": ms("sequences.classical_converges"),
        "sequences.trace_rows.ms": ms("sequences.trace_rows"),
        "sequences.terms_per_index": ratio(n("sequences.terms.elements"), indices),
        "forms.ValueForm.terms.elements": n("forms.ValueForm.terms.elements"),
        "forms.ValueForm.terms.ms": ms("forms.ValueForm.terms"),
        "forms.WeightForm.weights.elements": n("forms.WeightForm.weights.elements"),
        "forms.WeightForm.weights.ms": ms("forms.WeightForm.weights"),
        "forms.weights_per_index": ratio(n("forms.WeightForm.weights.elements"), indices),
        "forms.validate_range.elements": n("forms.validate_range.elements"),
        "forms.validate_range.ms": ms("forms.validate_range"),
        "forms.ValueForm.term_at.calls": n("forms.ValueForm.term_at.calls"),
        "membership.weight_many.elements": n("membership.weight_many.elements"),
        "membership.weight_many.ms": ms("membership.weight_many"),
        "membership.match_indices.ms": ms("membership.match_indices"),
        "membership.parse_mu_spec.ms": ms("membership.parse_mu_spec"),
        "membership.weight.calls": n("membership.weight.calls"),
        "membership.weight.ms": ms("membership.weight"),
        "membership.mu_eval.calls": n("membership.mu_eval.calls"),
        "membership.matcher_tests_per_weight": ratio(
            n("membership.hit.calls") + n("membership.match_index.calls"), n("membership.weight.calls")),
        "membership.match_index.calls": n("membership.match_index.calls"),
        "membership.match_index.ms": ms("membership.match_index"),
        "membership.check_axioms.ms": ms("membership.check_axioms"),
        "registry.run_identity_sweep.ms": ms("registry.run_identity_sweep"),
        "registry.self_ms": self_ms("registry.run_identity_sweep", "registry.check_identity",
                                    "registry.table_membership"),
        "registry.trials": n("registry.trials"),
        "registry.table_membership.calls": n("registry.table_membership.calls"),
        "registry.table_membership.ms": ms("registry.table_membership"),
        "real_field.check_real_identity.calls": n("real_field.check_real_identity.calls"),
        "real_field.check_real_identity.ms": ms("real_field.check_real_identity"),
        "complex_field.check_complex_identity.calls": n("complex_field.check_complex_identity.calls"),
        "complex_field.check_complex_identity.ms": ms("complex_field.check_complex_identity"),
    }
