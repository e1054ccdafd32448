"""The four benchmark workloads: their inputs, their rounds and their checks.

A workload is built from a seed. It writes its input files into a work
directory and returns a fixed list of operations; one round runs every
operation once, in order, through `mufield.cli.main`. Each operation carries
a check that compares the program's output with `oracle`, which computes the
expected values apart from the program.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

DEMOS = ("nonunique_limit", "unbounded_convergent", "sum_failure", "product_failure")
DEFAULT_IDS = (
    "O1 O2 O3 O4 O5 O6 O7 O8 R1 R2 R3 R4 R5a R5b S1 "
    "C1 C2 C3 C4 C5 C6 C7 M1 M2 M3 M4 M5 M6 M7 A1 E1 E2 EN1 EN2 L1 L2 P1 P2"
).split()
SWEEP_TRIALS = 200
HORIZON = 100_000
SHIFT = 1.0 - math.sqrt(2.0)
N_OVER_CUBE = {"form": "rational_poly", "params": {"p": [0, 1], "q": [1, 3, 3, 1]}}
INV_N = {"form": "rational_poly", "params": {"p": [1], "q": [0, 1]}}
SQ_RATIO_EPS = [0.1, 0.01, 0.001, 0.0001]
# matching takes the first index within tol, not the nearest one, so
# adjacent sq_ratio members closer than 1e-9 (from n = 44,723) get the
# weight of a neighbour; the trace of this experiment fails until mended
SQ_RATIO_FAULT = "sq_ratio family matching misattributes indices (first-within-tol, not nearest)"


@dataclass
class Op:
    """One CLI invocation of a round, with the check of its output."""

    name: str
    argv: list
    check: Callable  # (status, stdout, artifact path or None) -> list of faults
    artifact: Path | None = None  # a file the operation writes
    known_fault: str | None = None  # a program fault this operation shows
    work: dict = field(default_factory=dict)  # units of work it does


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

def _check_demo(name):
    def check(status, stdout, _artifact):
        env = json.loads(stdout)
        faults = [] if status == 0 and env["status"] == 0 else [f"status {status}"]
        body = env["body"]
        faults += [f"claim fails: {c['claim']}" for c in body["claims"] if not c["holds"]]
        n_start, horizon = oracle.DEMO_RANGES[name]
        seen = {}  # rows with one formula and one eps table are scanned once
        for v in body["verdicts"]:
            found = oracle.demo_deviation(name, v["expr"], v["candidate"])
            if found is None:
                faults.append(f"unexpected verdict row {v['expr']} -> {v['candidate']}")
                continue
            key = (found[0], json.dumps(v["eps_table"]))
            if key not in seen:
                seen[key] = oracle.boundary_faults(found[1], v["eps_table"], n_start, horizon)
            faults += [f"{v['expr']} -> {v['candidate']:.6g}: {f}" for f in seen[key]]
        faults += oracle.demo_closed_forms(name, body["verdicts"])
        if name == "unbounded_convergent" and body["bounds"]["first_exceed_n"] != 14:
            faults.append("probe 1e6 not first crossed at n = 14")
        return faults
    return check


def demos(rng: random.Random, workdir: Path) -> list:
    # the catalog is fixed, so the seed changes nothing here; catalog order
    # keeps the memory high-water mark the same in every run
    return [
        Op(f"demo {name}", ["--json", "demo", name], _check_demo(name),
           work={"indices": oracle.DEMO_RANGES[name][1] - oracle.DEMO_RANGES[name][0] + 1})
        for name in DEMOS
    ]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _check_sweep(seed, trials):
    def check(status, stdout, _artifact):
        env = json.loads(stdout)
        faults = [] if status == 0 and env["status"] == 0 else [f"status {status}"]
        if env["seed"] != seed or env["body"]["trials"] != trials:
            faults.append("seed or trial count not echoed")
        outcomes = env["body"]["outcomes"]
        if [o["id"] for o in outcomes] != DEFAULT_IDS:
            faults.append("swept ids differ from the 38 default ids")
        for o in outcomes:
            if o["failed"]:
                faults.append(f"{o['id']} fails {o['failed']} trials")
            if o["passed"] < 1:
                faults.append(f"{o['id']} never passes")
            if not o["max_residual"] < 1e-9:
                faults.append(f"{o['id']} max residual {o['max_residual']}")
            if o["passed"] + o["failed"] + o["precondition_unmet"] != trials:
                faults.append(f"{o['id']} counts do not add up to {trials}")
        if sum(o["precondition_unmet"] for o in outcomes) == 0:
            faults.append("no trial met an unmet precondition")
        return faults
    return check


def _check_literal(seed, trials):
    def check(status, stdout, _artifact):
        env = json.loads(stdout)
        faults = [] if status == 1 and env["status"] == 1 else [f"status {status}, want 1"]
        outcomes = env["body"]["outcomes"]
        if [o["id"] for o in outcomes] != ["C7_literal", "P1_additive"]:
            faults.append("literal ids not substituted")
        for o in outcomes:
            if o["failed"] < 1:
                faults.append(f"{o['id']} reports no failure")
            if o["passed"] + o["failed"] + o["precondition_unmet"] != trials:
                faults.append(f"{o['id']} counts do not add up to {trials}")
        return faults
    return check


def sweep(rng: random.Random, workdir: Path) -> list:
    seed = rng.randrange(1, 2**31)
    common = ["--trials", str(SWEEP_TRIALS), "--seed", str(seed)]
    return [
        Op("identities", ["--json", "identities", *common], _check_sweep(seed, SWEEP_TRIALS),
           work={"trials": SWEEP_TRIALS * len(DEFAULT_IDS)}),
        Op("identities --literal", ["--json", "identities", "--literal", "C7", "P1", *common],
           _check_literal(seed, SWEEP_TRIALS), work={"trials": 2 * SWEEP_TRIALS}),
    ]


# ---------------------------------------------------------------------------
# rules: a fallback spec of one point rule and two log families
# ---------------------------------------------------------------------------

@dataclass
class RulesCase:
    c: float
    point_n: int
    point_mu: float
    samples: list

    @property
    def c_b(self) -> float:  # family B carries log(n) + c shifted by the second candidate
        return self.c - SHIFT

    @property
    def point(self) -> float:  # the point rule sits on family A's member point_n
        return math.log(self.point_n) + self.c

    def spec_doc(self) -> dict:
        def family(c):
            return {"match": {"kind": "family", "form": "log_n_plus_c", "params": {"c": c},
                              "n_min": 1, "n_max": HORIZON, "tol": 1e-9}, "mu": N_OVER_CUBE}
        return {"default": 0.0, "rules": [
            {"match": {"kind": "point", "value": self.point, "tol": 1e-9}, "mu": self.point_mu},
            family(self.c),
            family(self.c_b),
        ]}

    def experiment_doc(self) -> dict:
        return {"label": "rules",
                "sequence": {"form": "log_plus", "params": {"c": self.c}, "n_min": 1, "n_max": HORIZON},
                "candidates": [0.0, SHIFT], "horizon": HORIZON, "fallback_mu": self.spec_doc()}

    def reference(self) -> oracle.RuleSpec:
        w = oracle.rational([0, 1], [1, 3, 3, 1])
        return oracle.RuleSpec(self.point, self.point_mu, [
            oracle.LogFamily(self.c, 1, HORIZON, w), oracle.LogFamily(self.c_b, 1, HORIZON, w)])


def rules_case(rng: random.Random) -> RulesCase:
    """Draw the rules inputs. Every draw is stratified, so the samples of
    each seed cover the same ranges and the O(n^2) audit does about the
    same work on every seed."""
    c = round(rng.uniform(0.5, 1.5), 6)
    case = RulesCase(c, rng.randint(5, 60), round(rng.uniform(0.5, 1.0), 6), [])
    ref = case.reference()
    span = math.log(HORIZON) / 12

    def member_indices():  # one index from each of 12 log-spaced strata of [1, HORIZON]
        return [max(1, int(math.exp(rng.uniform(j * span, (j + 1) * span)))) for j in range(12)]

    fam_a = [math.log(k) + c for k in member_indices()]
    fam_b = [math.log(k) + case.c_b for k in member_indices()]
    # the point rule's own value, in its stratum: the point rule and family A
    # both match it, so the scalar walk must let the first rule win
    fam_a[int(math.log(case.point_n) / span)] = case.point
    shift_s, shift_p = rng.randrange(12), rng.randrange(12)
    sums = [fam_a[j] + fam_b[(j + shift_s) % 12] for j in range(8)]
    products = [fam_a[j + 4] * fam_b[(j + shift_p) % 12] for j in range(8)]
    off = []
    for j in range(20):  # one point from each 2-wide stratum of [-20, 20] that no rule matches
        v = 0.0
        while v in (0.0, 1.0) or ref.weight(v) != 0.0:
            v = round(rng.uniform(-20.0 + 2 * j, -18.0 + 2 * j), 6)
        off.append(v)
    case.samples = fam_a + fam_b + sums + products + off
    return case


def _rules_scan(case: RulesCase, cand: float):
    ref = case.reference()
    return oracle.eps_scan(lambda n: math.log(n) + case.c, lambda n, v: ref.weight(v),
                           cand, 1, HORIZON, oracle.DEFAULT_EPS)


def _check_rules_converge(case: RulesCase):
    def check(status, stdout, _artifact):
        env = json.loads(stdout)
        faults = [] if status == 0 and env["status"] == 0 else [f"status {status}"]
        body = env["body"]
        got = {(v["expr"], v["candidate"]): v for v in body["verdicts"]}
        for cand in (0.0, SHIFT):
            want, _, _ = _rules_scan(case, cand)
            faults += [f"candidate {cand:.6g}: {f}" for f in
                       oracle.verdict_faults(got.get(("self", cand), {}), want)]
            classical, _, _ = oracle.eps_scan(lambda n: math.log(n) + case.c, lambda n, v: 1.0,
                                              cand, 1, HORIZON, oracle.DEFAULT_EPS)
            seen = [c["verdict"] for c in body["classical"] if c["candidate"] == cand]
            if seen != [classical["verdict"]]:
                faults.append(f"classical verdict at {cand:.6g}: {seen}")
        if body["theorem_checks"]:
            faults.append("unexpected limit-arithmetic checks")
        return faults
    return check


def _check_rules_axioms(case: RulesCase):
    def check(status, stdout, _artifact):
        env = json.loads(stdout)
        body = env["body"]
        want = oracle.axiom_audit(case.reference().weight, case.samples)
        want_status = 0 if all(want["verdicts"].values()) else 1
        faults = [] if status == want_status == env["status"] else [f"status {status}, want {want_status}"]
        for key in ("verdicts", "negation_symmetry", "sample_count", "count_zero"):
            if body[key] != want[key]:
                faults.append(f"{key}: got {body[key]!r}, want {want[key]!r}")
        if not oracle.close(body["inf_mu"], want["inf_mu"]):
            faults.append("inf_mu differs")
        got_v = [(v["axiom"], v["operands"], v["weight"], v["bound"]) for v in body["violations"]]
        if len(got_v) != len(want["violations"]):
            faults.append(f"{len(got_v)} violations, want {len(want['violations'])}")
        else:
            for g, w in zip(got_v, want["violations"]):
                if g[0] != w[0] or g[1] != w[1] or not (oracle.close(g[2], w[2]) and oracle.close(g[3], w[3])):
                    faults.append(f"violation {g} differs from {tuple(w)}")
                    break
        return faults
    return check


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def rules(rng: random.Random, workdir: Path) -> list:
    case = rules_case(rng)
    exp = _write(workdir / "rules_experiment.json", case.experiment_doc())
    spec = _write(workdir / "rules_spec.json", case.spec_doc())
    samples = _write(workdir / "rules_samples.json", case.samples)
    n = len(case.samples)
    return [
        Op("converge rules", ["--json", "converge", str(exp)], _check_rules_converge(case),
           work={"weighed": 4 * HORIZON}),
        Op("axioms rules", ["--json", "axioms", str(spec), "--samples", str(samples)],
           _check_rules_axioms(case), work={"weighed": 2 * n * n + 6 * n + 2}),
    ]


# ---------------------------------------------------------------------------
# trace: the rules experiment and a sq_ratio experiment, written as CSV
# ---------------------------------------------------------------------------

def _trace_faults(path: Path, rows_want) -> list:
    """Compare every CSV row with (n, term, membership, deviation) from math."""
    faults = []
    bad = first = 0
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        if next(reader) != ["n", "term", "membership", "scaled_deviation"]:
            return ["trace header differs"]
        count = 0
        for row, want in zip(reader, rows_want):
            count += 1
            n, term, w, d = int(row[0]), float(row[1]), float(row[2]), float(row[3])
            if n != want[0] or not all(oracle.close(a, b) for a, b in zip((term, w, d), want[1:])):
                bad += 1
                first = first or want[0]
        count += sum(1 for _ in reader)  # rows past the expected ones
    if count != HORIZON:
        faults.append(f"trace has {count} rows, want {HORIZON}")
    if bad:
        faults.append(f"{bad} trace rows differ, the first at n = {first}")
    return faults


def _check_trace(case_check, rows):
    def check(status, stdout, artifact):
        return case_check(status, stdout, artifact) + _trace_faults(artifact, rows())
    return check


def _rules_trace_rows(case: RulesCase):
    def rows():
        _, weights, devs = _rules_scan(case, 0.0)
        return [(n, math.log(n) + case.c, weights[n - 1], devs[n - 1]) for n in range(1, HORIZON + 1)]
    return rows


def sq_ratio_doc() -> dict:
    rule = {"match": {"kind": "family", "form": "sq_ratio", "params": {},
                      "n_min": 1, "n_max": HORIZON, "tol": 1e-9}, "mu": INV_N}
    return {"label": "sq_ratio",
            "sequence": {"form": "sq_ratio", "params": {}, "n_min": 1, "n_max": HORIZON},
            "candidates": [0.0], "eps": SQ_RATIO_EPS, "horizon": HORIZON,
            "fallback_mu": {"default": 0.0, "rules": [rule]}}


def _sq_ratio_scan():
    # every term is the family's own member at n, so its weight is 1/n
    inv_n = oracle.rational([1], [0, 1])
    value = lambda n: (1.0 + 1.0 / n) * (1.0 + 1.0 / n)  # noqa: E731
    return oracle.eps_scan(value, lambda n, v: inv_n(float(n)), 0.0, 1, HORIZON, SQ_RATIO_EPS)


def _check_sq_ratio_converge(status, stdout, _artifact):
    env = json.loads(stdout)
    faults = [] if status == 0 and env["status"] == 0 else [f"status {status}"]
    want, _, _ = _sq_ratio_scan()
    verdicts = env["body"]["verdicts"]
    got = verdicts[0] if len(verdicts) == 1 else {}
    return faults + oracle.verdict_faults(got, want)


def _sq_ratio_trace_rows():
    _, weights, devs = _sq_ratio_scan()
    return [(n, (1.0 + 1.0 / n) * (1.0 + 1.0 / n), weights[n - 1], devs[n - 1])
            for n in range(1, HORIZON + 1)]


def trace(rng: random.Random, workdir: Path) -> list:
    case = rules_case(rng)
    exp = _write(workdir / "rules_experiment.json", case.experiment_doc())
    sq = _write(workdir / "sq_ratio_experiment.json", sq_ratio_doc())
    csv_a, csv_b = workdir / "rules_trace.csv", workdir / "sq_ratio_trace.csv"
    return [
        Op("converge rules --trace", ["--json", "converge", str(exp), "--trace", str(csv_a)],
           _check_trace(_check_rules_converge(case), _rules_trace_rows(case)), csv_a,
           work={"rows": HORIZON}),
        Op("converge sq_ratio --trace", ["--json", "converge", str(sq), "--trace", str(csv_b)],
           _check_trace(_check_sq_ratio_converge, _sq_ratio_trace_rows), csv_b,
           known_fault=SQ_RATIO_FAULT, work={"rows": HORIZON}),
    ]


WORKLOADS = {"demos": demos, "sweep": sweep, "rules": rules, "trace": trace}
