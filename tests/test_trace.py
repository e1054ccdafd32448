"""The `converge --trace` CSV, pinned byte for byte.

`tests/data/trace_golden.json` holds, for each traced experiment, its spec
document, the `--trace-target` (null for the first declared candidate), and
the sha256, the data row count, the first data row and the last row of the
CSV as written before the writer stopped using `csv`. The cases cover every
expression of a partner experiment (with an assigned weight on `sum`), a
table holding -0.0, 1e-300 and -5e+20, an assigned weight of 0, a family
fallback, and a trace longer than one chunk of `trace_rows`.

A trace longer than one chunk is written by two processes where two CPUs
are allowed: a forked helper formats every odd chunk. Each trace below is
written both ways and held to `csv.writer`. So is a trace whose helper
fails, and no child process or file descriptor may outlive `main`.
"""

import csv
import hashlib
import io
import itertools
import json
import os
import time
from pathlib import Path

import pytest

from mufield import cli
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


def healthy(monkeypatch):
    pass


def formatting_raises(monkeypatch):
    def fault(rows):
        raise RuntimeError("the helper cannot format")
    in_helper(monkeypatch, "_lines", fault)


def send_frame(fd, rows):
    data = "".join(cli._lines(rows)).encode()
    with open(fd, "wb", closefd=False) as pipe:
        pipe.write(cli._FRAME.pack(len(data)) + data)


def odd_chunk(rows) -> list:
    for _ in itertools.islice(rows, TRACE_CHUNK):  # the parent's chunk
        pass
    return list(itertools.islice(rows, TRACE_CHUNK))


def dies_mid_frame(monkeypatch):
    # the first frame stops part way into a line, then the helper exits
    def fault(rows, fd):
        data = "".join(cli._lines(odd_chunk(rows))).encode()
        with open(fd, "wb") as pipe:
            pipe.write(cli._FRAME.pack(len(data)) + data[:len(data) // 2 + 3])
    in_helper(monkeypatch, "_send_odd_chunks", fault)


def starts_with_the_row_before(monkeypatch):
    # the chunk's first line is the last of the parent's chunk; every other line is right
    def fault(rows, fd):
        *_, before = itertools.islice(rows, TRACE_CHUNK)
        send_frame(fd, [before] + list(itertools.islice(rows, TRACE_CHUNK))[1:])
    in_helper(monkeypatch, "_send_odd_chunks", fault)


def drops_a_line(monkeypatch):
    def fault(rows, fd):
        chunk = odd_chunk(rows)
        send_frame(fd, chunk[:10] + chunk[11:])
    in_helper(monkeypatch, "_send_odd_chunks", fault)


def runs_past_the_last_row(monkeypatch):
    # every chunk right, then a frame of a row the trace does not have
    send = cli._send_odd_chunks

    def fault(rows, fd):
        send(rows, os.dup(fd))
        with open(fd, "wb") as pipe:
            pipe.write(cli._FRAME.pack(9) + b"9,0,0,0\r\n")
    in_helper(monkeypatch, "_send_odd_chunks", fault)


def sends_a_wrong_frame_and_hangs(monkeypatch):
    # two lines of the parent's own chunk, which fit in the pipe, then a helper that would run on for minutes
    def fault(rows, fd):
        send_frame(fd, itertools.islice(rows, 2))
        time.sleep(120)
    in_helper(monkeypatch, "_send_odd_chunks", fault)


@pytest.mark.parametrize("name", ["log_plus_family_fallback", f"rows_{SCAN_BLOCK + 1}"])
@pytest.mark.parametrize("helper", [healthy, formatting_raises, dies_mid_frame, starts_with_the_row_before,
                                    drops_a_line, runs_past_the_last_row, sends_a_wrong_frame_and_hangs],
                         ids=lambda f: f.__name__)
def test_a_failed_helper_costs_only_time(tmp_path, capsys, monkeypatch, helper, name):
    case = CASES[name]
    want = csv_writer_bytes(case)
    forks = count_forks(monkeypatch)
    allow_cpus(monkeypatch, 2)
    helper(monkeypatch)
    fds, start = open_fds(), time.monotonic()
    assert write_trace(tmp_path, case) == want  # and main returned 0
    assert time.monotonic() - start < 60  # a hung helper is killed, not waited for
    assert len(forks) == 1
    assert_left_nothing(fds)
    if name in GOLDEN:
        assert hashlib.sha256(want).hexdigest() == GOLDEN[name]["sha256"]


def test_a_failed_write_exits_2_and_reaps_the_helper(tmp_path, capsys, monkeypatch):
    def full(f, rows, pipe):
        raise OSError(28, "No space left on device")
    spec = tmp_path / "exp.json"
    spec.write_text(json.dumps(GOLDEN["log_plus_family_fallback"]["experiment"]))
    forks = count_forks(monkeypatch)
    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_copy_frame", full)  # main's process copies the helper's frames
    fds = open_fds()
    assert main(["converge", str(spec), "--trace", str(tmp_path / "trace.csv")]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert len(forks) == 1
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
