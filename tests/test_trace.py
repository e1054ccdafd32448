"""The `converge --trace` CSV, pinned byte for byte.

`tests/data/trace_golden.json` holds, for each traced experiment, its spec
document, the `--trace-target` (null for the first declared candidate), and
the sha256, the data row count, the first data row and the last row of the
CSV as written before the writer stopped using `csv`. The cases cover every
expression of a partner experiment (with an assigned weight on `sum`), a
table holding -0.0, 1e-300 and -5e+20, an assigned weight of 0, a family
fallback, and a trace longer than one chunk of `trace_rows`.

A trace longer than one chunk is written by two processes where two CPUs
are allowed: a forked helper formats the chunks it claims from a queue
shared with main. Each trace below is written both ways and held to
`csv.writer`. So is a trace whose helper fails in each way the fault
classes below name, one whose scans fail after the fork, and one whose
queue holds fewer chunks than the trace; no child process or file
descriptor may outlive `main`.
"""

import csv
import fcntl
import hashlib
import io
import itertools
import json
import os
import struct
import termios
import time
from pathlib import Path

import pytest

from mufield import DomainError, cli
from mufield.cli import main
from mufield.sequences import SCAN_BLOCK, TRACE_CHUNK, _Stream, load_experiment, trace_rows

GOLDEN = json.loads((Path(__file__).parent / "data" / "trace_golden.json").read_text())


def log_plus_case(rows):
    """A trace of rows rows: a log_plus drift over [1, rows] at its first candidate."""
    sequence = {"form": "log_plus", "params": {"c": 0.5}, "n_min": 1, "n_max": rows}
    return {"experiment": {"sequence": sequence, "candidates": [0.0], "horizon": rows},
            "target": None, "rows": rows}


# traces at the chunk edges, and one past a whole scan block
CASES = {**GOLDEN, **{f"rows_{r}": log_plus_case(r) for r in
                      (TRACE_CHUNK - 1, TRACE_CHUNK, TRACE_CHUNK + 1, 2 * TRACE_CHUNK, SCAN_BLOCK + 1)}}


def write_trace(tmp_path, case) -> bytes:
    spec, trace = tmp_path / "exp.json", tmp_path / "trace.csv"
    spec.write_text(json.dumps(case["experiment"]))
    argv = ["--json", "converge", str(spec), "--trace", str(trace)]
    if case["target"]:
        argv += ["--trace-target", case["target"]]
    assert main(argv) == 0
    return trace.read_bytes()


def target_of(case):
    exp = load_experiment(case["experiment"])
    if case["target"] is None:
        expr, cand = exp.candidates[0]
    else:
        expr, _, text = case["target"].partition(":")
        cand = float(text)
    return exp, expr, cand


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_matches_golden(tmp_path, capsys, name):
    case = GOLDEN[name]
    data = write_trace(tmp_path, case)
    lines = data.decode().split("\r\n")
    assert lines[0] == "n,term,membership,scaled_deviation" and lines[-1] == ""
    assert (len(lines) - 2, lines[1], lines[-2]) == (case["rows"], case["first"], case["last"])
    assert hashlib.sha256(data).hexdigest() == case["sha256"]


def csv_writer_bytes(case) -> bytes:
    exp, expr, cand = target_of(case)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["n", "term", "membership", "scaled_deviation"])
    writer.writerows(list(trace_rows(exp, expr, cand)))
    return want.getvalue().encode()


def count_forks(monkeypatch) -> list:
    """The pids os.fork returns in this process from now on."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return forks


def allow_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_equals_csv_writer_over_rows(tmp_path, capsys, monkeypatch, name):
    # written twice: on two CPUs, split with a helper when longer than a chunk; on one, by main alone
    case = CASES[name]
    want = csv_writer_bytes(case)
    forks = count_forks(monkeypatch)
    allow_cpus(monkeypatch, 2)
    assert write_trace(tmp_path, case) == want
    assert len(forks) == (case["rows"] > TRACE_CHUNK)
    allow_cpus(monkeypatch, 1)
    assert write_trace(tmp_path, case) == want
    assert len(forks) == (case["rows"] > TRACE_CHUNK)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_rows_are_builtin_numbers_of_the_per_index_loop(name):
    # repr of a numpy scalar is "np.float64(...)" under numpy 2
    exp, expr, cand = target_of(GOLDEN[name])
    rows = list(trace_rows(exp, expr, cand))
    assert all(type(n) is int and type(t) is float and type(w) is float and type(d) is float
               for n, t, w, d in rows)
    want = []
    for n, values, dev, weights in _Stream(exp).blocks(expr, cand):
        want += [(n + i, float(values[i]), float(weights[i]), float(dev[i])) for i in range(dev.size)]
    assert rows == want


def open_fds():
    """The number of this process's open file descriptors, None where /proc is missing."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_left_nothing(fds):
    with pytest.raises(ChildProcessError):  # no child, running or exited, is left to reap
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


def in_helper(monkeypatch, name, fault):
    """Replace cli.name by fault in a forked helper only; main's process keeps the original."""
    parent, original = os.getpid(), getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: (original if os.getpid() == parent else fault)(*args))


def queued_bytes(fd) -> int:
    return struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0" * 4))[0]


def helper_claims_first(monkeypatch):
    """Hold main's first claim until the helper has claimed a chunk, so that main always
    meets a chunk of the helper's, however the two processes are scheduled."""
    claim = cli._TraceHelper.claim

    def after_the_helper(helper, k):
        if k == 0:
            deadline = time.monotonic() + 30
            while queued_bytes(helper.queue) == helper.queued * cli._CLAIM.size and time.monotonic() < deadline:
                time.sleep(0.001)
        return claim(helper, k)
    monkeypatch.setattr(cli._TraceHelper, "claim", after_the_helper)


def count_copies(monkeypatch) -> list:
    """The helper frames main writes from now on."""
    copies, copy = [], cli._copy_frame

    def counted(f, mark, frame):
        copied = copy(f, mark, frame)
        if copied:
            copies.append(frame)
        return copied
    monkeypatch.setattr(cli, "_copy_frame", counted)
    return copies


def send_frame(pipe, k, rows):
    data = "".join(cli._lines(rows)).encode()
    pipe.write(cli._FRAME.pack(k, len(data)) + data)
    pipe.flush()


def healthy(monkeypatch):
    pass


def formatting_raises(monkeypatch):
    def fault(rows):
        raise RuntimeError("the helper cannot format")
    in_helper(monkeypatch, "_lines", fault)


def dies_mid_frame(monkeypatch):
    # the first frame stops part way into a line, then the helper exits
    def fault(pipe, chunks, k):
        data = "".join(cli._lines(chunks.rows(k))).encode()
        pipe.write(cli._FRAME.pack(k, len(data)) + data[:len(data) // 2 + 3])
        pipe.flush()
        os._exit(0)
    in_helper(monkeypatch, "_send", fault)


def starts_with_the_row_before(monkeypatch):
    # the chunk's first line is the row before it; every other line is right
    def fault(pipe, chunks, k):
        rows = list(chunks.rows(k))
        before = (rows[0][0] - 1, 0.0, 0.0, 0.0) if k == 0 else list(chunks.rows(k - 1))[-1]
        send_frame(pipe, k, [before] + rows[1:])
    in_helper(monkeypatch, "_send", fault)


def drops_a_line(monkeypatch):
    def fault(pipe, chunks, k):
        rows = list(chunks.rows(k))
        send_frame(pipe, k, rows[:10] + rows[11:])
    in_helper(monkeypatch, "_send", fault)


def runs_past_the_last_row(monkeypatch):
    # every chunk right, then a frame of a row the trace does not have
    send = cli._send

    def fault(pipe, chunks, k):
        send(pipe, chunks, k)
        if k == chunks.count - 1:
            last = list(chunks.rows(k))[-1]
            send_frame(pipe, k + 1, [(last[0] + 1, 0.0, 0.0, 0.0)])
    in_helper(monkeypatch, "_send", fault)


def sends_a_wrong_frame_and_hangs(monkeypatch):
    # two lines of the chunk, which fit in the pipe, then a helper that would run on for minutes
    def fault(pipe, chunks, k):
        send_frame(pipe, k, itertools.islice(chunks.rows(k), 2))
        time.sleep(120)
    in_helper(monkeypatch, "_send", fault)


def exits_holding_a_chunk(monkeypatch):
    # the helper claims a chunk and leaves, sending nothing
    def fault(pipe, chunks, k):
        os._exit(0)
    in_helper(monkeypatch, "_send", fault)


def sends_the_wrong_chunk_index(monkeypatch):
    # the right lines, headed by the index of the chunk after
    def fault(pipe, chunks, k):
        send_frame(pipe, k + 1, chunks.rows(k))
    in_helper(monkeypatch, "_send", fault)


def sleeps_before_its_first_frame(monkeypatch):
    # a helper that claims a chunk, then would send nothing for minutes
    send = cli._send

    def fault(pipe, chunks, k):
        time.sleep(120)
        send(pipe, chunks, k)
    in_helper(monkeypatch, "_send", fault)


@pytest.mark.parametrize("name", ["log_plus_family_fallback", f"rows_{SCAN_BLOCK + 1}"])
@pytest.mark.parametrize("helper", [healthy, formatting_raises, dies_mid_frame, starts_with_the_row_before,
                                    drops_a_line, runs_past_the_last_row, sends_a_wrong_frame_and_hangs,
                                    exits_holding_a_chunk, sends_the_wrong_chunk_index,
                                    sleeps_before_its_first_frame],
                         ids=lambda f: f.__name__)
def test_a_failed_helper_costs_only_time(tmp_path, capsys, monkeypatch, helper, name):
    case = CASES[name]
    want = csv_writer_bytes(case)
    forks = count_forks(monkeypatch)
    allow_cpus(monkeypatch, 2)
    helper_claims_first(monkeypatch)
    copies = count_copies(monkeypatch)
    helper(monkeypatch)
    fds, start = open_fds(), time.monotonic()
    assert write_trace(tmp_path, case) == want  # and main returned 0
    assert time.monotonic() - start < 60  # a hung helper is killed, not waited for
    assert len(forks) == 1 and (copies or helper is not healthy)
    assert_left_nothing(fds)
    if name in GOLDEN:
        assert hashlib.sha256(want).hexdigest() == GOLDEN[name]["sha256"]


def test_a_short_claim_queue_still_writes_every_chunk(tmp_path, capsys, monkeypatch):
    # a trace of 17 chunks through a queue of 2: main queues the rest as it writes
    case = CASES[f"rows_{SCAN_BLOCK + 1}"]
    want = csv_writer_bytes(case)
    forks = count_forks(monkeypatch)
    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_QUEUED", 2)
    helper_claims_first(monkeypatch)
    copies = count_copies(monkeypatch)
    fds = open_fds()
    assert write_trace(tmp_path, case) == want
    assert len(forks) == 1 and copies
    assert_left_nothing(fds)


def test_a_failed_write_exits_2_and_reaps_the_helper(tmp_path, capsys, monkeypatch):
    def full(f, rows, pipe):
        raise OSError(28, "No space left on device")
    spec = tmp_path / "exp.json"
    spec.write_text(json.dumps(GOLDEN["log_plus_family_fallback"]["experiment"]))
    forks = count_forks(monkeypatch)
    allow_cpus(monkeypatch, 2)
    helper_claims_first(monkeypatch)
    monkeypatch.setattr(cli, "_copy_frame", full)  # main's process copies the helper's frames
    fds = open_fds()
    assert main(["converge", str(spec), "--trace", str(tmp_path / "trace.csv")]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert len(forks) == 1
    assert_left_nothing(fds)


def test_a_failed_scan_after_the_fork_writes_nothing_and_reaps_the_helper(tmp_path, capsys, monkeypatch):
    def fails(exp):
        raise DomainError("the scan cannot run")
    spec, trace = tmp_path / "exp.json", tmp_path / "trace.csv"
    spec.write_text(json.dumps(GOLDEN["log_plus_family_fallback"]["experiment"]))
    forks = count_forks(monkeypatch)
    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "run_experiment", fails)
    fds = open_fds()
    assert main(["converge", str(spec), "--trace", str(trace)]) == 1
    assert capsys.readouterr().err == "error: the scan cannot run\n"
    assert len(forks) == 1 and not trace.exists()
    assert_left_nothing(fds)


def test_a_failed_fork_leaves_every_chunk_to_main(tmp_path, capsys, monkeypatch):
    def no_process():
        raise OSError(11, "Resource temporarily unavailable")
    case = GOLDEN["log_plus_family_fallback"]
    monkeypatch.setattr(os, "fork", no_process)
    allow_cpus(monkeypatch, 2)
    fds = open_fds()
    assert hashlib.sha256(write_trace(tmp_path, case)).hexdigest() == case["sha256"]
    assert_left_nothing(fds)
