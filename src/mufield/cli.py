"""Command-line front end.

Commands: axioms, eval, converge, demo, identities. Output is human-readable
by default; --json emits a schema'd envelope carrying the tool version, the
command, sha256 digests of file inputs, the seed of any randomized sweep,
and the command body. Identical inputs and seed produce an identical envelope
apart from the timestamp field.

Exit codes: 0 all checks passed, 1 a check failed or a valid request met a
domain error or did not fit in memory, 2 invalid input or usage.

`converge --trace` writes its CSV on two cores when it can: where os.fork
exists, the process may run on two CPUs or more, it runs no other thread and
the trace is longer than one chunk of TRACE_CHUNK rows, a helper is forked
before the scans run. The two processes claim chunks from one queue, each
taking the next unclaimed chunk when it is free; the helper formats the
chunks it claims and sends each back through a pipe as one frame. The parent
draws every row through trace_rows, writes a frame only after checking it
against the rows it stands for, and formats every chunk left itself once the
helper ends, stalls or sends a wrong frame, so the bytes never depend on the
helper. The helper is always reaped before the command returns.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import re
import select
import signal
import struct
import sys
import threading
import time

from . import __version__
from .demos import DEMO_NAMES, run_demo
from .errors import DomainError, MuFieldError, SpecError, UsageError, number, spec_array, spec_document
from .membership import (
    FieldContext,
    check_axioms,
    crisp,
    load_mu_spec,
    mu_eval,
    mu_summary,
)
from .real_field import ScaledValue, mu_abs, mu_compare, mu_inf, mu_sup
from .complex_field import mu_abs_c, mu_arg, mu_conj, mu_exp, mu_log, mu_pow
from .registry import DEFAULT_SWEEP_IDS, LITERAL_VARIANTS, REGISTRY, run_identity_sweep
from .sequences import TRACE_CHUNK, TraceChunks, load_experiment, run_experiment, trace_rows

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
# axioms audits every pair of samples, O(n^2) weighings, so a larger request
# would run for minutes and is refused before any sample is built
MAX_AXIOM_SAMPLES = 2_000
_CLAIM = struct.Struct("<Q")  # a chunk index in the trace helper's claim queue
_FRAME = struct.Struct("<QQ")  # the chunk index and byte length that head each of the helper's frames
_QUEUED = 16  # chunks queued past the next chunk to write, at most
_STALL = 2.0  # seconds the parent waits for a helper's frame before it takes the helper as stalled
_FRAME_MAX = TRACE_CHUNK * 256  # bytes of a frame at most: its lines are far shorter


def _to_jsonable(obj):
    """obj as JSON data; the dataclass test comes last, as nearly every leaf is a built-in type."""
    if isinstance(obj, float):  # np.float64 included
        return obj if math.isfinite(obj) else "nan" if obj != obj else "inf" if obj > 0 else "-inf"
    t = type(obj)
    if t is int or t is str or t is bool or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, (str, int)):
        return obj
    return repr(obj)


def _envelope(command: str, body, inputs=(), seed=None, status: int = 0) -> dict:
    """inputs maps each file read to the sha256 of the bytes _read_text parsed."""
    return {
        "tool": "mufield",
        "version": __version__,
        "command": command,
        "inputs": dict(inputs),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "body": _to_jsonable(body),
        "status": status,
    }


def _emit(env: dict, args, human_lines) -> int:
    if args.json:
        print(json.dumps(env, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
    return env["status"]


def _read_text(path: str, inputs: dict) -> str:
    """The text of a UTF-8 input file, read once; inputs[path] becomes the
    sha256 of the bytes read. A SpecError naming the file if they are not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    inputs[path] = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SpecError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines, as a text-mode read


def _load_mu(path: str | None, inputs: dict):
    return crisp() if path is None else load_mu_spec(_read_text(path, inputs))


def _flag_number(text: str, flag: str) -> float:
    return number(text, flag, error=UsageError)


def _parse_grid(text: str):
    parts = [_flag_number(p, "--grid") for p in text.split(":")]
    if len(parts) != 3 or parts[2] <= 0 or parts[1] < parts[0]:
        raise UsageError(f"--grid: expected lo:hi:step with step > 0, got {text!r}")
    lo, hi, step = parts
    top = hi + 1e-12
    # v += step moves v only while step exceeds half an ulp of v (a tie may round back)
    if step <= math.ulp(max(abs(lo), abs(top))) / 2:
        raise UsageError(f"--grid: step {step!r} is too small to move a value of the grid, got {text!r}")
    # the loop below makes floor(span) + 1 samples, up to rounding; as step
    # moves the grid, neither quotient exceeds 2**54, where top - lo may overflow
    span = top / step - lo / step
    if span >= MAX_AXIOM_SAMPLES:
        raise UsageError(f"--grid: {text!r} gives {math.floor(span) + 1} samples,"
                         f" more than the cap of {MAX_AXIOM_SAMPLES}")
    out = []
    v = lo
    while v <= top:
        out.append(round(v, 12))
        v += step
    return out


def _parse_complex(text: str, flag: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise UsageError(f"bad complex literal {text!r}; expected re or re,im")
    re_im = [_flag_number(p, flag) for p in parts]
    return complex(re_im[0], re_im[1] if len(re_im) == 2 else 0.0)


def _ctx(args, mu) -> FieldContext:
    return FieldContext(mu=mu) if args.tol is None else FieldContext(mu=mu, eq_tol=args.tol)


def _refuse_unread(args, tol_source: str | None = None) -> None:
    """Refuse, not ignore, --seed (read by identities only) and --tol when tolerances come from tol_source."""
    if args.seed is not None:
        raise UsageError(f"{args.command} takes no --seed: only identities draws random operands")
    if tol_source is not None and args.tol is not None:
        raise UsageError(f"{args.command} takes no --tol: its tolerances come from {tol_source}")


def cmd_axioms(args) -> int:
    _refuse_unread(args)
    inputs = {}
    mu = _load_mu(args.mu, inputs)
    if args.samples:
        doc = spec_array(spec_document(_read_text(args.samples, inputs), "--samples"), "--samples")
        if len(doc) > MAX_AXIOM_SAMPLES:
            raise UsageError(f"--samples: {len(doc)} samples, more than the cap of {MAX_AXIOM_SAMPLES}")
        samples = [number(v, "--samples") for v in doc]
    else:
        samples = _parse_grid(args.grid)
    ctx = _ctx(args, mu)
    report = check_axioms(ctx, samples)
    summary = mu_summary(ctx, samples)
    status = EXIT_OK if report.passed else EXIT_CHECK_FAILED
    body = {
        "verdicts": report.verdicts,
        "violations": [
            {"axiom": v.axiom, "operands": list(v.operands), "weight": v.lhs, "bound": v.rhs}
            for v in report.violations
        ],
        "negation_symmetry": report.negation_symmetry,
        "sample_count": report.sample_count,
        "inf_mu": summary.inf_mu,
        "count_zero": summary.count_zero,
        "scope": "sample-relative",
    }
    lines = [f"axiom audit over {report.sample_count} samples (sample-relative)"]
    for a, ok in report.verdicts.items():
        lines.append(f"  axiom ({a}): {'pass' if ok else 'FAIL'}")
    for v in report.violations[:10]:
        lines.append(f"    violation ({v.axiom}) at {v.operands}: weight {v.lhs:.6g} < bound {v.rhs:.6g}")
    lines.append(f"  inf weight over samples: {summary.inf_mu:.6g} (zeros: {summary.count_zero})")
    return _emit(_envelope("axioms", body, inputs, status=status), args, lines)


# op -> (operand flags, evaluation taking ctx and the operands)
_EVAL_OPS = {
    "mu": (("a",), mu_eval),
    "mu_abs": (("a",), mu_abs),
    "mu_compare": (("a", "b"), lambda ctx, a, b: mu_compare(ctx, a, b).value),
    "mu_sup": (("set",), mu_sup),
    "mu_inf": (("set",), mu_inf),
    "mu_conj": (("z",), mu_conj),
    "mu_abs_c": (("z",), mu_abs_c),
    "mu_arg": (("z",), mu_arg),
    "mu_exp": (("z",), mu_exp),
    "mu_log": (("z",), mu_log),
    "mu_pow": (("base", "z", "branch"), mu_pow),
}
_OPERAND_PARSERS = {"a": _flag_number, "b": _flag_number,
                    "set": lambda text, flag: [_flag_number(v, flag) for v in text.split(",")],
                    "z": _parse_complex, "base": _parse_complex}
_WEIGHED_OPERANDS = ("a", "b", "z")  # their weights are reported with the value


def cmd_eval(args) -> int:
    _refuse_unread(args)
    if args.op not in _EVAL_OPS:
        raise UsageError(f"unknown op {args.op!r}; known: {', '.join(sorted(_EVAL_OPS))}")
    inputs = {}
    mu = _load_mu(args.mu, inputs)
    needs, fn = _EVAL_OPS[args.op]
    raw = [getattr(args, "set_values" if flag == "set" else flag) for flag in needs]
    for flag, text in zip(needs, raw):
        if text is None:
            raise UsageError(f"op {args.op} needs --{flag}")
    ctx = _ctx(args, mu)
    operands = [_OPERAND_PARSERS.get(flag, lambda v, _: v)(text, f"--{flag}") for flag, text in zip(needs, raw)]
    try:
        memberships = {str(v): mu_eval(ctx, v) for flag, v in zip(needs, operands) if flag in _WEIGHED_OPERANDS}
        value = fn(ctx, *operands)
        if isinstance(value, ScaledValue):  # an extreme of a set, reported with its witness
            memberships = {str(value.raw): value.weight}
            value = {"value": value.scaled, "witness": value.raw, "weight": value.weight}
    except DomainError as e:
        env = _envelope("eval", {"op": args.op, "error": str(e)}, inputs, status=EXIT_CHECK_FAILED)
        return _emit(env, args, [f"eval {args.op}: {e}"])
    body = {"op": args.op, "value": _to_jsonable(value), "memberships": memberships}
    lines = [f"{args.op} = {value}"]
    for k, w in memberships.items():
        lines.append(f"  weight({k}) = {w:.9g}")
    return _emit(_envelope("eval", body, inputs), args, lines)


def _verdict_lines(v) -> list:
    rows = [f"  {v.expr} -> {v.candidate:.9g}: {v.verdict}"
            f" (trivial tail fraction {v.trivial_tail_fraction:.3f},"
            f" certificate {v.tail_certificate or 'none'})"]
    for eps, n in v.eps_table:
        rows.append(f"    eps={eps:<8g} N={'not within horizon' if n is None else n}")
    return rows


def _trace_target(exp, text: str | None):
    """The (expr, candidate) of --trace-target, the first candidate by default."""
    if not text:
        if not exp.candidates:
            raise UsageError("--trace needs --trace-target: the experiment declares no candidate")
        return exp.candidates[0]
    expr, _, cand = text.partition(":")
    exp.check_expression(expr)
    return expr, _flag_number(cand, "--trace-target candidate")


def _lines(rows):
    """The CSV lines of rows, as csv.writer writes them: CRLF, and floats as their shortest round-trip repr."""
    return (f"{n},{t!r},{w!r},{d!r}\r\n" for n, t, w, d in rows)


def _two_workers(count: int) -> bool:
    """Whether a trace of count rows is split with a forked helper: it spans more than
    one chunk, two CPUs are allowed, and no other thread runs, as one could hold a
    lock forever in the child."""
    if count <= TRACE_CHUNK or not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2


class _Helper:
    """A forked process that formats the trace chunks it claims, seen from the parent.

    Both processes claim chunks from one queue: a pipe of chunk indices in
    ascending order that only the parent writes, at most _QUEUED past the next
    chunk to write, and that either process reads without blocking, one index
    a claim. The helper sends each chunk it claims through a second pipe as
    one frame, the chunk index and byte length and then the lines, so its
    frames come in the order the parent writes the chunks. Once closed, the
    helper claims and sends nothing, and chunks, the parent's own reader of
    the trace, formats what it held.
    """

    def __init__(self, pid: int, chunks, queue: int, queue_end: int, frames: int):
        self.pid, self.chunks, self.queue, self.queue_end, self.frames = pid, chunks, queue, queue_end, frames
        self.queued = 0  # chunks below it are queued
        self._poll = select.poll()
        self._poll.register(frames, select.POLLIN)

    def enqueue(self, k: int) -> None:
        """Queue the chunks up to k + _QUEUED; once all are, close the queue, so that
        the helper reads its end when it is empty."""
        stop = min(self.chunks.count, k + _QUEUED)
        if stop > self.queued:  # at most _QUEUED indices, so the write is whole and never waits
            os.write(self.queue_end, b"".join(map(_CLAIM.pack, range(self.queued, stop))))
            self.queued = stop
        if stop == self.chunks.count:
            os.close(self.queue_end)
            self.queue_end = None

    def claim(self, k: int):
        """The next unclaimed chunk, now the parent's, k being the next chunk to write
        (k itself once the helper is closed); None when the helper has claimed every
        chunk queued."""
        if self.queue is None:
            return k
        if self.queue_end is not None:
            self.enqueue(k)
        try:
            claim = os.read(self.queue, _CLAIM.size)
        except BlockingIOError:
            return None
        return _CLAIM.unpack(claim)[0] if claim else None

    def frame(self, k: int):
        """The lines of the helper's next frame, which must be chunk k's; None when the
        helper is closed, has ended, sends another chunk, or stalls: no whole frame
        within _STALL seconds."""
        if self.frames is None:
            return None
        deadline = time.monotonic() + _STALL
        head = self._read(_FRAME.size, deadline)
        if head is None:
            return None
        index, size = _FRAME.unpack(head)
        return self._read(size, deadline) if index == k and size <= _FRAME_MAX else None

    def _read(self, size: int, deadline: float):
        data = bytearray(size)
        view, got = memoryview(data), 0
        while got < size:
            wait = deadline - time.monotonic()
            if wait <= 0 or not self._poll.poll(math.ceil(wait * 1e3)):
                return None
            read = os.readv(self.frames, [view[got:]])
            if not read:
                return None
            got += read
        return data

    def write(self, f, k: int, mark) -> None:
        """Write chunk k, whose rows were drawn into mark, to f: the helper's frame if it
        matches mark, else, closing the helper, the chunk as the parent's reader formats it."""
        if not _copy_frame(f, mark, self.frame(k)):
            self.close()
            f.write("".join(_lines(self.chunks.rows(k))))

    def close(self) -> None:
        """Close the pipes, kill the helper if it still runs and reap it; a second call does nothing."""
        for fd in (self.queue, self.queue_end, self.frames):
            if fd is not None:
                os.close(fd)
        self.queue = self.queue_end = self.frames = None
        if self.pid is not None:
            if os.waitpid(self.pid, os.WNOHANG)[0] == 0:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            self.pid = None


def _serve(chunks, queue: int, frames: int) -> None:
    """The helper's work: until the queue ends, claim its next chunk and send that chunk to frames."""
    poll = select.poll()
    poll.register(queue, select.POLLIN)
    with open(frames, "wb") as pipe:
        while True:
            poll.poll()
            try:
                claim = os.read(queue, _CLAIM.size)
            except BlockingIOError:  # the parent claimed it first
                continue
            if not claim:
                return
            _send(pipe, chunks, _CLAIM.unpack(claim)[0])


def _send(pipe, chunks, k: int) -> None:
    """Send the lines of chunk k of chunks to pipe as one frame."""
    data = "".join(_lines(chunks.rows(k))).encode()
    pipe.write(_FRAME.pack(k, len(data)))
    pipe.write(data)
    pipe.flush()


def _grow(fd: int) -> None:
    """Let the pipe of fd hold up to the system's largest pipe size, so the helper can
    bank frames; the pipe keeps its size where that fails."""
    import fcntl  # POSIX only, as is os.fork
    try:
        with open("/proc/sys/fs/pipe-max-size", "rb") as f:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, int(f.read()))
    except (OSError, ValueError):
        pass


def _fork_helper(chunks):
    """A _Helper formatting the chunks of chunks it claims, the first _QUEUED queued;
    None when no pipe or process is to be had, and the parent formats every chunk."""
    fds = []
    try:
        for _ in range(2):
            fds += os.pipe()
        queue, queue_end, frames, frames_end = fds
        os.set_blocking(queue, False)
        _grow(frames_end)
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:  # the helper: it never returns, so it neither flushes the parent's files nor runs its exit code
        code = 1
        try:
            os.close(queue_end)
            os.close(frames)
            _serve(chunks, queue, frames_end)
            code = 0
        finally:
            os._exit(code)
    os.close(frames_end)
    helper = _Helper(pid, chunks, queue, queue_end, frames)
    helper.enqueue(0)
    return helper


def _mark(rows) -> tuple:
    """(count, first n, last n) of the next chunk of rows, drawn and let go."""
    first = next(rows)
    tail = collections.deque(enumerate(itertools.islice(rows, TRACE_CHUNK - 1), 2), maxlen=1)
    count, last = tail.pop() if tail else (1, first)
    return count, first[0], last[0]


def _copy_frame(f, mark, frame) -> bool:
    """Write frame, the helper's lines of a chunk, to f if it matches the chunk's mark:
    one line a row, the first and the last starting with the n of its first and last
    rows. False, writing nothing, if not or if frame is None."""
    if frame is None:
        return False
    count, first, last = mark
    start = frame.rfind(b"\n", 0, len(frame) - 1) + 1  # where the last line starts
    if not (frame.endswith(b"\r\n") and frame.count(b"\r\n") == count
            and frame.startswith(b"%d," % first) and frame.startswith(b"%d," % last, start)):
        return False
    f.flush()  # the lines before go first: the frame is written below the text layer
    f.buffer.write(frame)
    return True


def _write_trace(f, rows, count: int, helper=None) -> None:
    """Write the CSV lines of the count rows of rows to f, chunk by chunk.

    Each chunk is claimed by whichever process is free first, and the parent
    draws the rows of every chunk, in order. Once it has claimed one, it draws
    the rows of the helper's chunks before it, keeping only their marks, and
    formats its own while the helper finishes those; it then writes their
    frames, each once it matches its mark, and its own lines after them. A
    helper that has ended, stalls or sends a wrong frame is closed, and the
    parent formats every chunk not yet written. Without a helper, the parent
    claims every chunk.
    """
    k, end = 0, -(-count // TRACE_CHUNK)
    while k < end:
        own = k if helper is None else helper.claim(k)
        stop = helper.queued if own is None else own  # the helper holds the chunks from k to stop
        marks = [_mark(rows) for _ in range(k, stop)]
        text = "" if own is None else "".join(_lines(itertools.islice(rows, TRACE_CHUNK)))
        for mark in marks:
            helper.write(f, k, mark)
            k += 1
        if own is not None:
            f.write(text)
            k += 1


def cmd_converge(args) -> int:
    _refuse_unread(args, "the experiment spec's 'tolerances' block")
    if args.trace_target is not None and not args.trace:
        raise UsageError("--trace-target needs --trace: nothing is traced without it")
    inputs = {}
    # the spec's weight check and the scans share the exact models its forms and sequences keep
    exp = load_experiment(_read_text(args.experiment, inputs))
    # checked before any work, so a refused target writes no file
    target = _trace_target(exp, args.trace_target) if args.trace else None
    count = exp.horizon - exp.n_start + 1
    # forked before the scans, so that the helper formats while they run
    helper = _fork_helper(TraceChunks(exp, *target)) if target is not None and _two_workers(count) else None
    try:
        report = run_experiment(exp)
        if target is not None:
            with open(args.trace, "w", newline="", encoding="utf-8") as f:
                f.write("n,term,membership,scaled_deviation\r\n")
                _write_trace(f, trace_rows(exp, *target), count, helper)
    finally:
        if helper is not None:
            helper.close()
    body = {
        "label": exp.label,
        "horizon": exp.horizon,
        "verdicts": [_to_jsonable(v) for v in report.verdicts],
        "classical": [
            {"expr": e, "candidate": c, "verdict": v.verdict} for e, c, v in report.classical
        ],
        "theorem_checks": [_to_jsonable(c) for c in report.theorem_checks],
    }
    lines = [f"experiment {exp.label or args.experiment}: horizon {exp.horizon}"]
    for v in report.verdicts:
        lines.extend(_verdict_lines(v))
    for c in report.theorem_checks:
        lines.append(f"  {c.identity_id}: {c.verdict} {'; '.join(c.notes)}")
    return _emit(_envelope("converge", body, inputs), args, lines)


def cmd_demo(args) -> int:
    _refuse_unread(args, "the demo catalog")
    demo = run_demo(args.name)
    status = EXIT_OK if demo.ok else EXIT_CHECK_FAILED
    body = {
        "name": demo.name,
        "headline": demo.headline,
        "claims": [{"claim": label, "holds": flag} for label, flag in demo.claims],
        "verdicts": [_to_jsonable(v) for v in demo.report.verdicts],
        "bounds": _to_jsonable(demo.bounds) if demo.bounds else None,
        "literal_variant": _to_jsonable(demo.literal_variant) if demo.literal_variant else None,
    }
    lines = [f"demo {demo.name}: {demo.headline}"]
    for label, flag in demo.claims:
        lines.append(f"  [{'ok' if flag else 'FAIL'}] {label}")
    for v in demo.report.verdicts:
        lines.extend(_verdict_lines(v))
    if demo.bounds is not None:
        b = demo.bounds
        lines.append(
            f"  scaled bounds: max |x w(x)| = {b.scaled_abs_max:.6g}"
            + (f", first exceeds probe {b.probe:g} at n={b.first_exceed_n}" if b.first_exceed_n else "")
        )
    return _emit(_envelope("demo", body, status=status), args, lines)


def cmd_identities(args) -> int:
    ids = list(args.ids) if args.ids else list(DEFAULT_SWEEP_IDS)
    if args.literal:
        ids = [LITERAL_VARIANTS.get(i, i) for i in ids]
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:  # refused before any id runs
        raise UsageError(f"unknown identities: {', '.join(unknown)}")
    if args.trials < 1:
        raise UsageError(f"--trials must be positive, got {args.trials}: a sweep of no trials checks nothing")
    inputs = {}
    mu = _load_mu(args.mu, inputs) if args.mu else None
    seed = 0 if args.seed is None else args.seed
    tol = FieldContext.eq_tol if args.tol is None else args.tol
    outcomes = run_identity_sweep(ids, trials=args.trials, seed=seed, mu=mu, eq_tol=tol)
    any_failed = any(o.failed for o in outcomes)
    body = {
        "trials": args.trials,
        "mode": "fixed-mu" if mu is not None else "random-tables",
        "outcomes": [
            {
                "id": o.ident,
                "passed": o.passed,
                "failed": o.failed,
                "precondition_unmet": o.unmet,
                "max_residual": o.max_residual,
            }
            for o in outcomes
        ],
    }
    lines = [f"identity sweep: {args.trials} trials each, seed {seed}"]
    lines.append(f"  {'id':<12} {'pass':>6} {'fail':>6} {'unmet':>6}  max residual")
    for o in outcomes:
        lines.append(
            f"  {o.ident:<12} {o.passed:>6} {o.failed:>6} {o.unmet:>6}  {o.max_residual:.3e}"
        )
        if o.first_failure is not None:
            lines.append(f"    first failure: operands {o.first_failure.operands}")
    status = EXIT_CHECK_FAILED if any_failed else EXIT_OK
    return _emit(
        _envelope("identities", body, inputs, seed=seed, status=status),
        args,
        lines,
    )


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals are UsageErrors, printed by main as one error: line.

    No option of it starts with - and a digit, so a word that does is a value:
    argparse alone takes only -1 and -1.5 for numbers, and -1e-3, -1,2 or
    -1:1:0.5 after a space for an option with its value missing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mufield",
        description="Verification tooling for membership-weighted real and complex arithmetic.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON envelope")
    parser.add_argument("--tol", type=float, default=None,
                        help="override eq_tol, the comparison slack and identity residual bound")
    parser.add_argument("--seed", type=int, default=None, help="seed of the identities sweep (default 0)")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="audit the five closure axioms over samples", parents=[common])
    p.add_argument("mu", nargs="?", default=None, help="membership spec (JSON)")
    p.add_argument("--samples", default=None, help="JSON array of sample points")
    p.add_argument("--grid", default="-5:5:0.5", help="lo:hi:step sample grid")
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("eval", parents=[common], help="evaluate one weighted operation")
    p.add_argument("op", help=f"one of: {', '.join(sorted(_EVAL_OPS))}")
    p.add_argument("--mu", default=None, help="membership spec (JSON); identity weighting if omitted")
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--set", dest="set_values", default=None, help="comma-separated reals")
    p.add_argument("--z", default=None, help="complex as re,im")
    p.add_argument("--base", default=None, help="complex base as re,im")
    p.add_argument("--branch", type=int, default=0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("converge", parents=[common], help="run a convergence experiment file")
    p.add_argument("experiment", help="experiment spec (JSON)")
    p.add_argument("--trace", default=None, help="write a CSV deviation trace here")
    p.add_argument("--trace-target", default=None, help="expr:candidate to trace")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("demo", parents=[common], help="reproduce a cataloged counterexample")
    p.add_argument("name", help=f"one of: {', '.join(DEMO_NAMES)}")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("identities", parents=[common], help="sweep the identity registry")
    p.add_argument("ids", nargs="*", help="registry ids (all when omitted)")
    p.add_argument("--mu", default=None, help="fixed membership spec instead of random tables")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--literal", action="store_true", help="check literal variants where they exist")
    p.set_defaults(fn=cmd_identities)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first main call: it holds no input,
    as parse_args returns a new namespace each time."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as e:  # --help, after printing the usage
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    except (DomainError, MemoryError) as e:  # a valid request, undefined or too big for this machine
        print(f"error: {str(e) or 'not enough memory for this request'}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (MuFieldError, FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
