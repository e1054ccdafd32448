#!/usr/bin/env python3
"""Time-to-verdict benchmark for mufield.

    python3 bench/run.py --workload {demos,sweep,rules,trace} --seed N --seconds S --trace {0,1}

Run from the repository root. One process, one thread, one closed-loop
client: a round runs its operations through `mufield.cli.main` in-process,
with stdout captured, and the next round starts when the last one ends.
Rounds repeat until --seconds have passed, then every operation's output is
checked against `oracle`. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. See
bench/README.md for the workloads, the metrics and how their bounds were set.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one thread for BLAS too

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_SAMPLES = 9  # fresh interpreters per run, spread over it; setup_s is their median
MIN_ROUNDS = 3
# typical times of the two reference loops on the machine the benchmark was
# defined on (2-vCPU KVM guest, Intel Xeon, Python 3.11.7, numpy 2.4.6);
# they fix the scale of round_p50_norm_ms and must not change
PY_NOMINAL_MS = 2.0
NP_NOMINAL_MS = 25.0
_TIMESTAMP = re.compile(r'^\s*"timestamp": "[^"]*",?$', re.M)
_SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import mufield; "
               "print(time.perf_counter())")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_sample() -> float:
    """One fresh interpreter, timed from spawn until `import mufield` returns."""
    t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout) - t0


def import_times() -> dict:
    """Cumulative import time of numpy and mufield, fastest of three, from -X importtime."""
    best = {"numpy": math.inf, "mufield": math.inf}
    for _ in range(3):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", _SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in best:
                name = parts[2].strip()
                best[name] = min(best[name], int(parts[1]) / 1e3)
    return {"import.numpy_ms": best["numpy"], "import.mufield_ms": best["mufield"]}


def reference_loops_ms() -> tuple:
    """Times of two fixed loops owned by the benchmark, in ms: machine speed, not program speed.

    The first is interpreted Python, the second streams numpy arrays of the
    size the demos scan, allocating them fresh as the program does. Slow
    periods of this machine slow one kind of work or the other.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 20_001):
        acc += math.sqrt(i) * 1e-3
    t1 = time.perf_counter()
    x = np.arange(1, 1_200_001, dtype=float)
    y = (1.0 + 1.0 / x) ** 2
    float((np.abs(y - 1.0) * (x * x) / (((2.0 * x + 6.0) * x + 6.0) * x + 2.0)).sum())
    t2 = time.perf_counter()
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3


def slowdown(ref: tuple) -> float:
    """How much slower than nominal the machine ran the reference loops (1.0 = nominal)."""
    return (ref[0] / PY_NOMINAL_MS + ref[1] / NP_NOMINAL_MS) / 2.0


class Runner:
    """Runs rounds of one workload and keeps what the checks need."""

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.first = None  # (status, stdout, stderr) per operation, from the first round
        self.prints = None  # per-operation fingerprints of the first round
        self.drifted = [0] * len(ops)  # rounds whose output differs from the first
        self.rounds = 0
        self.peak_mb = None

    def round(self) -> float:
        """Run every operation once; return the round's wall time in seconds."""
        results = []
        t0 = time.perf_counter()
        for op in self.ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli.main(list(op.argv))
            results.append((status, out, err))
        elapsed = time.perf_counter() - t0
        if self.rounds == 0:
            # the program's high-water mark: read after the first round, before
            # the benchmark's reference loops, hashing or oracles have run
            self.peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        prints = [self._fingerprint(op, r) for op, r in zip(self.ops, results)]
        if self.first is None:
            self.first = [(s, o.getvalue(), e.getvalue()) for s, o, e in results]
            self.prints = prints
        else:
            for i, p in enumerate(prints):
                self.drifted[i] += p != self.prints[i]
        self.rounds += 1
        return elapsed

    @staticmethod
    def _fingerprint(op, result) -> tuple:
        status, out, err = result
        text = _TIMESTAMP.sub("", out.getvalue())
        digest = None
        if op.artifact:
            h = hashlib.sha256()
            with open(op.artifact, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
            digest = h.hexdigest()
        return status, hashlib.sha256(text.encode()).hexdigest(), err.getvalue(), digest

    def check(self) -> tuple:
        """(attempted, failed, correct, faults by operation name)."""
        failed, correct, faults = 0, True, {}
        for i, op in enumerate(self.ops):
            status, stdout, stderr = self.first[i]
            try:
                found = op.check(status, stdout, op.artifact)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as e:
                found = [f"output unreadable: {e!r}; stderr: {stderr.strip()[:200]}"]
            bad_rounds = self.rounds if found else self.drifted[i]
            if self.drifted[i]:
                found = found + [f"output differs from the first round in {self.drifted[i]} rounds"]
            if found:
                faults[op.name] = found
            failed += bad_rounds
            if bad_rounds and (op.known_fault is None or self.drifted[i]):
                correct = False
        return self.rounds * len(self.ops), failed, correct, faults


def measure(runner, seconds: float, tracer=None) -> dict:
    """Closed loop of whole rounds for `seconds`.

    Untraced, set-up samples are spread over the run. Traced, every untraced
    round is followed by a traced one, so both see the same machine.
    """
    runner.round()  # warm-up: lazy imports and caches; checked, not timed
    plain, traced, snaps, setups = [], [], [], []
    refs = [reference_loops_ms()]  # refs[i] and refs[i + 1] bracket plain[i]
    start = time.perf_counter()
    end = start + seconds
    while len(plain) < MIN_ROUNDS or time.perf_counter() < end:
        if tracer is None and time.perf_counter() >= start + len(setups) * seconds / SETUP_SAMPLES:
            setups.append(setup_sample())
        gc.collect()
        plain.append(runner.round())
        refs.append(reference_loops_ms())
        if tracer is not None:
            gc.collect()
            tracer.begin_round()
            with tracer.installed():
                traced.append(runner.round())
            snaps.append(tracer.snapshot())
    return {"plain": plain, "traced": traced, "snaps": snaps, "setups": setups,
            "refs": refs, "peak": runner.peak_mb}


def normalized_rounds(result) -> list:
    """Each round's time divided by the machine's slowdown around it, in ms."""
    refs = result["refs"]
    return [t * 1e3 / ((slowdown(refs[i]) + slowdown(refs[i + 1])) / 2.0)
            for i, t in enumerate(result["plain"])]


def end_to_end(result) -> dict:
    return {"setup_s": statistics.median(result["setups"]),
            "round_p50_norm_ms": statistics.median(normalized_rounds(result)),
            "peak_rss_mb": result["peak"]}


def per_layer(result, tracer_mod) -> dict:
    rows = [tracer_mod.layer_metrics(s) for s in result["snaps"]]
    metrics = {}
    for key in rows[0]:
        values = [r[key] for r in rows]
        if key.endswith("ms"):
            metrics[key] = statistics.median(values)
        elif any(v != values[0] for v in values):
            raise RuntimeError(f"count {key} differs between traced rounds: {values}")
        else:
            metrics[key] = values[0]
    plain, traced = min(result["plain"]) * 1e3, min(result["traced"]) * 1e3
    metrics.update({"trace.untraced_round_min_ms": plain, "trace.traced_round_min_ms": traced,
                    "trace.overhead_ms": traced - plain})
    return metrics


UNITS = {"setup_s": "s", "round_p50_norm_ms": "ms", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_per_index") or name.endswith("_per_weight"):
        return "ratio"
    return "bytes" if name.endswith(".bytes") or name.endswith("_bytes") else "count"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("demos", "sweep", "rules", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mufield" / "__init__.py").is_file():
        fail(f"no mufield sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mufield
    import mufield.cli
    if SRC not in Path(mufield.__file__).resolve().parents:
        fail(f"imported mufield from {mufield.__file__}, not from {SRC}")
    import workloads

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"mufield-bench:{args.workload}:{args.seed}")
    runner = Runner(mufield.cli, workloads.WORKLOADS[args.workload](rng, workdir))
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        result = measure(runner, args.seconds, tracer)
        metrics = {**per_layer(result, tracer_mod), **import_times()}
        tracer.write_spans(OUT / f"spans-{args.workload}.csv")
    else:
        result = measure(runner, args.seconds)
        metrics = end_to_end(result)
    attempted, failed, correct, faults = runner.check()

    work = {}
    for op in runner.ops:
        for unit, amount in op.work.items():
            work[unit] = work.get(unit, 0) + amount
    plain, refs = result["plain"], result["refs"]
    print(f"# workload {args.workload} seed {args.seed}: {len(plain)} timed rounds,"
          f" work per round {work}")
    print(f"# raw rounds: median {statistics.median(plain) * 1e3:.1f} ms,"
          f" fastest {min(plain) * 1e3:.1f} ms; reference loops: median"
          f" {statistics.median(r[0] for r in refs):.3f} ms (Python),"
          f" {statistics.median(r[1] for r in refs):.3f} ms (numpy);"
          f" median slowdown {statistics.median(slowdown(r) for r in refs):.3f}")
    if result["setups"]:
        print(f"# setup samples (s): " + " ".join(f"{v:.4f}" for v in result["setups"]))
    for name, found in faults.items():
        known = next((op.known_fault for op in runner.ops if op.name == name), None)
        print(f"# FAIL {name}{' (known: ' + known + ')' if known else ''}: " + "; ".join(found))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
