"""Command-line front end.

Commands: axioms, eval, converge, demo, identities. Output is human-readable
by default; --json emits a schema'd envelope carrying the tool version, the
command, sha256 digests of file inputs, the seed of any randomized sweep,
and the command body. Identical inputs and seed produce an identical envelope
apart from the timestamp field.

Exit codes: 0 all checks passed, 1 a check failed or a valid request met a
domain error or did not fit in memory, 2 invalid input or usage.

Two commands split their work with one forked helper when it can pay: where
os.fork exists, the process may run on two CPUs or more and it runs no other
thread (_two_workers), and the work is big enough. Each helper sends its
results back through a pipe as frames, each headed by an index and a byte
length; the parent uses a frame only after checking it, and does itself
every piece of work the helper has not sent whole and right once the helper
ends, stalls or sends a wrong frame, so the output never depends on the
helper. The helper is always killed if still running, and reaped, before
the command returns.

`converge --trace` forks its helper when the trace is longer than one chunk
of TRACE_CHUNK rows, before the scans run. The two processes claim chunks
from one queue, each taking the next unclaimed chunk when it is free; the
helper formats the chunks it claims. The parent draws every row through
trace_rows and checks each frame against the rows it stands for.

`identities` forks its helper when it sweeps two ids or more and
SWEEP_FORK_TRIALS trials or more in all. The helper sweeps a fixed half of
the ids, those at odd positions, and the parent the rest; each id's trials
draw from their own seeded generator, so an outcome does not depend on the
process that sweeps it. The parent takes a helper outcome only when it is
that of the id due next, over the requested trials, with counts that add up.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import hashlib
import itertools
import math
import os
import pickle
import re
import select
import signal
import struct
import sys
import threading
import time
from json.encoder import encode_basestring_ascii

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
from .registry import (
    DEFAULT_SWEEP_IDS,
    LITERAL_VARIANTS,
    REGISTRY,
    ZERO_RATE,
    SweepOutcome,
    run_identity_sweep,
    sweep_context,
)
from .sequences import TRACE_CHUNK, TraceChunks, load_experiment, run_experiment, trace_rows

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
# axioms audits every pair of samples, O(n^2) weighings, so a larger request
# would run for minutes and is refused before any sample is built
MAX_AXIOM_SAMPLES = 2_000
_CLAIM = struct.Struct("<Q")  # a chunk index in the trace helper's claim queue
_FRAME = struct.Struct("<QQ")  # the index and byte length that head each frame a helper sends
_QUEUED = 16  # chunks queued past the next chunk to write, at most
_STALL = 2.0  # seconds the parent waits for a helper's frame, at least, before it takes the helper as stalled
_FRAME_MAX = TRACE_CHUNK * 256  # bytes of a frame at most: a trace chunk's lines, or an outcome, are far shorter
# trials of a sweep, over all its ids, from which a helper sweeps half of its ids: a
# fork costs about 4 ms, and the split broke even at about 500 trials over 38 ids and
# 1,200 over two unequal ones (O1 C4), on a 2-vCPU machine
SWEEP_FORK_TRIALS = 1_000


# float.__repr__ of a non-finite float, and what the envelope shows for it: a string,
# or, for a part of a complex value, the bare word json.dumps writes
_NONFINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}
_BARE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj) -> str:
    """obj as JSON text: a 2-space indent, one item a line, keys sorted, ASCII escapes.

    obj holds built-in leaves, lists, tuples, dicts (keys str()'d, the last of
    two equal ones winning), complex values (as [re, im]) and the library's
    dataclasses, read field by field; anything else raises a TypeError. A
    non-finite float is "nan", "inf" or "-inf", but a non-finite part of a
    complex value is the bare NaN, Infinity or -Infinity.
    """
    floats = {}  # the text of each nonzero float met, by value: 0.0 and -0.0 are one key

    def number(v):
        text = floats.get(v)
        if text is None:
            text = float.__repr__(v)
            text = _NONFINITE.get(text, text)
            if v:
                floats[v] = text
        return text

    # the text of a value of exactly these classes; walk takes the rest
    leaf = {float: number, str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda v: "null"}.get

    def walk(obj, nl):
        if isinstance(obj, float):  # np.float64 included
            return number(obj)
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if isinstance(obj, int):
            return int.__repr__(obj)
        inner = nl + "  "
        if isinstance(obj, dict):
            items = {str(k): v for k, v in obj.items()}
        elif isinstance(obj, (list, tuple)):
            return "[" + inner + ("," + inner).join(
                [f(v) if (f := leaf(v.__class__)) else walk(v, inner) for v in obj]) + nl + "]" if obj else "[]"
        elif isinstance(obj, complex):
            re, im = float.__repr__(obj.real), float.__repr__(obj.imag)
            return "[" + inner + _BARE.get(re, re) + "," + inner + _BARE.get(im, im) + nl + "]"
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            items = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + (f(v) if (f := leaf((v := items[k]).__class__)) else walk(v, inner))
             for k in sorted(items)]) + nl + "}" if items else "{}"

    f = leaf(obj.__class__)
    return f(obj) if f else walk(obj, "\n")


def _envelope(command: str, body, inputs=(), seed=None, status: int = 0) -> dict:
    """inputs maps each file read to the sha256 of the bytes _read_text parsed; body is
    kept as given, and _json_text reads it."""
    return {
        "tool": "mufield",
        "version": __version__,
        "command": command,
        "inputs": dict(inputs),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "body": body,
        "status": status,
    }


def _emit(env: dict, args, human_lines) -> int:
    if args.json:
        print(_json_text(env))
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
    body = {"op": args.op, "value": value, "memberships": memberships}
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


def _two_workers() -> bool:
    """Whether a command may split its work with a forked helper: os.fork exists, two
    CPUs are allowed, and no other thread runs, as one could hold a lock forever in the
    child. Each command also asks that its work be big enough to repay the fork."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2


class _Helper:
    """A forked helper process seen from the parent, which reads its frames from a pipe.

    A frame is its index and byte length (_FRAME), then that many bytes. Once
    closed, the helper sends nothing more, and the parent does the helper's work
    not yet received itself.
    """

    def __init__(self, pid, frames: int):
        self.pid, self.frames = pid, frames
        self._poll = select.poll()
        self._poll.register(frames, select.POLLIN)

    def frame(self, k: int, stall: float = _STALL):
        """The bytes of the helper's next frame, which must be headed by index k; None when
        the helper is closed, has ended, sends another index or a frame past _FRAME_MAX
        bytes, or stalls: no whole frame within stall seconds."""
        if self.frames is None:
            return None
        deadline = time.monotonic() + stall
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

    def close(self) -> None:
        """Close the pipe, kill the helper if it still runs and reap it; a second call does nothing."""
        if self.frames is not None:
            os.close(self.frames)
            self.frames = None
        if self.pid is not None:
            if os.waitpid(self.pid, os.WNOHANG)[0] == 0:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            self.pid = None


def _serve(fd: int, jobs, send) -> None:
    """A helper's work: send(pipe, k) for each k of jobs, pipe the file of fd, which it closes."""
    with open(fd, "wb") as pipe:
        for k in jobs:
            send(pipe, k)


def _write_frame(pipe, k: int, data: bytes) -> None:
    """Send data to pipe as one frame of index k."""
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


def _fork(serve, shut=()):
    """(pid, frames): a forked helper that closes the fds of shut, runs serve(fd), fd the
    write end of a pipe whose read end is frames, and leaves with os._exit; None, with
    that pipe closed, when no pipe or process is to be had."""
    fds = []
    try:
        fds += os.pipe()
        _grow(fds[1])
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    frames, frames_end = fds
    if pid == 0:  # the helper: it never returns, so it neither flushes the parent's files nor runs its exit code
        code = 1
        try:
            for fd in (frames, *shut):
                os.close(fd)
            serve(frames_end)
            code = 0
        finally:
            os._exit(code)
    os.close(frames_end)
    return pid, frames


class _TraceHelper(_Helper):
    """A forked helper that formats the trace chunks it claims.

    Both processes claim chunks from one queue: a pipe of chunk indices in
    ascending order that only the parent writes, at most _QUEUED past the next
    chunk to write, and that either process reads without blocking, one index
    a claim. The helper sends each chunk it claims as one frame of its lines,
    headed by the chunk index, so its frames come in the order the parent
    writes the chunks. Once closed, the helper claims and sends nothing, and
    chunks, the parent's own reader of the trace, formats what it held.
    """

    def __init__(self, pid: int, frames: int, chunks, queue: int, queue_end: int):
        super().__init__(pid, frames)
        self.chunks, self.queue, self.queue_end = chunks, queue, queue_end
        self.queued = 0  # chunks below it are queued

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

    def write(self, f, k: int, mark) -> None:
        """Write chunk k, whose rows were drawn into mark, to f: the helper's frame if it
        matches mark, else, closing the helper, the chunk as the parent's reader formats it."""
        if not _copy_frame(f, mark, self.frame(k)):
            self.close()
            f.write("".join(_lines(self.chunks.rows(k))))

    def close(self) -> None:
        """Close the queue and the frame pipe, kill the helper if it still runs and reap it."""
        for fd in (self.queue, self.queue_end):
            if fd is not None:
                os.close(fd)
        self.queue = self.queue_end = None
        super().close()


def _claims(queue: int):
    """The chunks the trace helper claims from queue, until the queue ends."""
    poll = select.poll()
    poll.register(queue, select.POLLIN)
    while True:
        poll.poll()
        try:
            claim = os.read(queue, _CLAIM.size)
        except BlockingIOError:  # the parent claimed it first
            continue
        if not claim:
            return
        yield _CLAIM.unpack(claim)[0]


def _serve_chunks(chunks, queue: int, fd: int) -> None:
    """The trace helper's work: send each chunk it claims from queue to fd."""
    _serve(fd, _claims(queue), lambda pipe, k: _send(pipe, chunks, k))


def _send(pipe, chunks, k: int) -> None:
    """Send the lines of chunk k of chunks to pipe as one frame."""
    _write_frame(pipe, k, "".join(_lines(chunks.rows(k))).encode())


def _fork_helper(chunks):
    """A _TraceHelper formatting the chunks of chunks it claims, the first _QUEUED queued;
    None when no pipe or process is to be had, and the parent formats every chunk."""
    try:
        queue, queue_end = os.pipe()
    except OSError:
        return None
    os.set_blocking(queue, False)
    forked = _fork(functools.partial(_serve_chunks, chunks, queue), shut=(queue_end,))
    if forked is None:
        os.close(queue)
        os.close(queue_end)
        return None
    helper = _TraceHelper(*forked, chunks, queue, queue_end)
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
    helper = (_fork_helper(TraceChunks(exp, *target))
              if target is not None and count > TRACE_CHUNK and _two_workers() else None)
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
        "verdicts": report.verdicts,
        "classical": [
            {"expr": e, "candidate": c, "verdict": v.verdict} for e, c, v in report.classical
        ],
        "theorem_checks": report.theorem_checks,
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
        "verdicts": demo.report.verdicts,
        "bounds": demo.bounds,
        "literal_variant": demo.literal_variant,
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


def _send_outcome(pipe, i: int, outcome) -> None:
    """Send outcome, that of the id at position i of the sweep, to pipe as one frame."""
    _write_frame(pipe, i, pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))


def _serve_outcomes(ids, sweep, fd: int) -> None:
    """The sweep helper's work: sweep each id at an odd position of ids alone, in order,
    and send its outcome to fd."""
    _serve(fd, range(1, len(ids), 2), lambda pipe, i: _send_outcome(pipe, i, *sweep([ids[i]])))


def _outcome(helper, i: int, ident: str, trials: int, stall: float):
    """The helper's outcome of ident, at position i of the sweep; None, closing the helper,
    when its next frame is not i's, does not come whole within stall seconds, or does not
    decode to an outcome of ident over trials trials whose counts add up to trials."""
    frame = helper.frame(i, stall)
    try:  # the frame comes from the forked helper only, through a pipe no other process holds
        outcome = None if frame is None else pickle.loads(frame)
    except Exception:  # bytes that do not decode raise whatever the unpickler meets first
        outcome = None
    if (isinstance(outcome, SweepOutcome) and outcome.ident == ident and outcome.trials == trials
            and outcome.passed + outcome.failed + outcome.unmet == trials):
        return outcome
    helper.close()
    return None


def _sweep(ids, sweep, trials: int) -> list:
    """sweep(ids), the outcomes in the order of ids.

    A sweep of two ids or more and SWEEP_FORK_TRIALS trials or more, where
    _two_workers allows, forks a helper that sweeps the ids at odd positions
    while the parent sweeps the rest. The parent then takes each of the
    helper's outcomes in order, and sweeps, itself, every one that the helper
    does not send whole and right; so the outcomes never depend on the helper.
    """
    if len(ids) < 2 or len(ids) * trials < SWEEP_FORK_TRIALS or not _two_workers():
        return sweep(ids)
    forked = _fork(functools.partial(_serve_outcomes, ids, sweep))
    if forked is None:
        return sweep(ids)
    helper = _Helper(*forked)
    try:
        start = time.monotonic()
        outcomes = [None] * len(ids)
        outcomes[0::2] = sweep(ids[0::2])
        # the helper started with the parent's half and has as many trials, so a
        # healthy one is at most about that half's time behind
        stall = max(_STALL, time.monotonic() - start)
        for i in range(1, len(ids), 2):
            outcomes[i] = _outcome(helper, i, ids[i], trials, stall) or sweep([ids[i]])[0]
    finally:
        helper.close()
    return outcomes


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
    sweep_context(args.trials, ZERO_RATE, mu, tol)  # refused here, before a helper is forked
    sweep = functools.partial(run_identity_sweep, trials=args.trials, seed=seed, mu=mu, eq_tol=tol)
    outcomes = _sweep(ids, sweep, args.trials)
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
