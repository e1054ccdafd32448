"""`identities` on two cores, and the helper machinery it shares with `converge --trace`.

A sweep of SWEEP_FORK_TRIALS trials or more, over two ids or more, forks a
helper that sweeps the ids at odd positions and sends each outcome back as
one frame. Its stdout and exit status must equal a one-process sweep's
whether the helper is healthy or fails in each way the fault classes below
name, and no child process or file descriptor may outlive `main`.

The serve loops and the frame reader also run here in-process, on a pipe or a
file, with no fork, so that the lines a forked helper runs are reached by a
test the line-reach report can see.
"""

import dataclasses
import json
import math
import os
import pickle
import select
import time
import types

import pytest

from mufield import cli
from mufield.cli import main
from mufield.registry import SweepOutcome, run_identity_sweep
from mufield.sequences import TRACE_CHUNK, TraceChunks, load_experiment
from test_trace import allow_cpus, assert_left_nothing, count_forks, csv_writer_bytes, in_helper, log_plus_case, open_fds

# 1,250 trials over five ids: the helper sweeps O2 and R3, main O1, C4 and S1
ARGV = ["identities", "O1", "O2", "C4", "R3", "S1", "--trials", "250", "--seed", "3"]
HELPER_IDS = ["O2", "R3"]


def sweep_out(capsys, argv) -> tuple:
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def one_process(capsys, monkeypatch, argv) -> tuple:
    allow_cpus(monkeypatch, 1)
    want = sweep_out(capsys, argv)
    allow_cpus(monkeypatch, 2)
    return want


def without_timestamp(result) -> tuple:
    code, out, err = result
    return code, [line for line in out.splitlines() if '"timestamp"' not in line], err


def count_own_sweeps(monkeypatch) -> list:
    """The ids of each sweep main's process runs from now on."""
    parent, sweeps, sweep = os.getpid(), [], cli.run_identity_sweep

    def counted(ids, **kwargs):
        if os.getpid() == parent:
            sweeps.append(list(ids))
        return sweep(ids, **kwargs)
    monkeypatch.setattr(cli, "run_identity_sweep", counted)
    return sweeps


def healthy(monkeypatch):
    pass


def sweeping_raises(monkeypatch):
    parent, sweep = os.getpid(), cli.run_identity_sweep

    def fault(ids, **kwargs):  # in the helper only
        if os.getpid() != parent:
            raise RuntimeError("the helper cannot sweep")
        return sweep(ids, **kwargs)
    monkeypatch.setattr(cli, "run_identity_sweep", fault)


def dies_mid_frame(monkeypatch):
    def fault(pipe, i, outcome):
        data = pickle.dumps(outcome)
        pipe.write(cli._FRAME.pack(i, len(data)) + data[:len(data) // 2])
        pipe.flush()
        os._exit(0)
    in_helper(monkeypatch, "_send_outcome", fault)


def exits_holding_an_id(monkeypatch):
    def fault(pipe, i, outcome):
        os._exit(0)
    in_helper(monkeypatch, "_send_outcome", fault)


def sends_the_wrong_index(monkeypatch):
    def fault(pipe, i, outcome):
        cli._write_frame(pipe, i + 2, pickle.dumps(outcome))
    in_helper(monkeypatch, "_send_outcome", fault)


def sends_the_wrong_id(monkeypatch):
    def fault(pipe, i, outcome):
        cli._write_frame(pipe, i, pickle.dumps(dataclasses.replace(outcome, ident="O1")))
    in_helper(monkeypatch, "_send_outcome", fault)


def sends_the_wrong_trial_count(monkeypatch):
    def fault(pipe, i, outcome):
        cli._write_frame(pipe, i, pickle.dumps(dataclasses.replace(outcome, trials=outcome.trials + 1)))
    in_helper(monkeypatch, "_send_outcome", fault)


def sends_counts_that_do_not_add_up(monkeypatch):
    def fault(pipe, i, outcome):
        cli._write_frame(pipe, i, pickle.dumps(dataclasses.replace(outcome, passed=outcome.passed + 1)))
    in_helper(monkeypatch, "_send_outcome", fault)


def sends_bytes_that_do_not_decode_and_hangs(monkeypatch):
    def fault(pipe, i, outcome):
        cli._write_frame(pipe, i, b"\x80\x05not a pickle")
        time.sleep(120)
    in_helper(monkeypatch, "_send_outcome", fault)


def sends_something_else(monkeypatch):
    def fault(pipe, i, outcome):
        cli._write_frame(pipe, i, pickle.dumps(dataclasses.asdict(outcome)))
    in_helper(monkeypatch, "_send_outcome", fault)


def sleeps_past_the_stall_bound(monkeypatch):
    send = cli._send_outcome

    def fault(pipe, i, outcome):
        time.sleep(120)
        send(pipe, i, outcome)
    in_helper(monkeypatch, "_send_outcome", fault)


@pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
@pytest.mark.parametrize("helper", [healthy, sweeping_raises, dies_mid_frame, exits_holding_an_id,
                                    sends_the_wrong_index, sends_the_wrong_id, sends_the_wrong_trial_count,
                                    sends_counts_that_do_not_add_up, sends_bytes_that_do_not_decode_and_hangs,
                                    sends_something_else, sleeps_past_the_stall_bound],
                         ids=lambda f: f.__name__)
def test_a_failed_helper_costs_only_time(capsys, monkeypatch, helper, as_json):
    argv = ["--json", *ARGV] if as_json else ARGV
    want = one_process(capsys, monkeypatch, argv)
    forks = count_forks(monkeypatch)
    sweeps = count_own_sweeps(monkeypatch)
    helper(monkeypatch)
    fds, start = open_fds(), time.monotonic()
    got = sweep_out(capsys, argv)
    assert time.monotonic() - start < 60  # a hung helper is killed, not waited for
    assert without_timestamp(got) == without_timestamp(want)
    assert len(forks) == 1
    # main sweeps its own half, then each of the helper's ids it did not get whole and right
    assert sweeps == [["O1", "C4", "S1"]] + ([] if helper is healthy else [[i] for i in HELPER_IDS])
    assert_left_nothing(fds)


def test_a_healthy_helper_slower_than_the_stall_floor_is_waited_for(capsys, monkeypatch):
    # each of the helper's ids takes 0.4 s, five times the floor of the bound: the bound
    # scales with main's own half (two ids of 0.3 s), so the helper is not taken as stalled
    argv = ["identities", "O1", "O2", "C4", "R3", "--trials", "250"]
    want = one_process(capsys, monkeypatch, argv)
    parent, sweep = os.getpid(), cli.run_identity_sweep

    def slow(ids, **kwargs):
        time.sleep((0.3 if os.getpid() == parent else 0.4) * len(ids))
        return sweep(ids, **kwargs)
    monkeypatch.setattr(cli, "run_identity_sweep", slow)
    monkeypatch.setattr(cli, "_STALL", 0.08)
    forks = count_forks(monkeypatch)
    sweeps = count_own_sweeps(monkeypatch)
    fds = open_fds()
    assert sweep_out(capsys, argv) == want
    assert len(forks) == 1 and sweeps == [["O1", "C4"]]
    assert_left_nothing(fds)


@pytest.mark.parametrize("argv", [
    ["identities", "--trials", "5"],
    ["identities", "O1", "O2", "--trials", "20"],
    ["identities", "S1", "--trials", "5000"],  # one id: nothing to share
    ["identities", "--literal", "C7", "P1", "--trials", "400"],
], ids=["all_ids_5_trials", "two_ids_20_trials", "one_id", "two_ids_below_the_threshold"])
def test_a_sweep_too_small_to_repay_a_fork_stays_in_one_process(capsys, monkeypatch, argv):
    allow_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    sweep_out(capsys, argv)
    assert forks == []


def test_a_second_thread_keeps_the_sweep_in_one_process(capsys, monkeypatch):
    # a thread could hold a lock forever in a forked child
    want = one_process(capsys, monkeypatch, ARGV)
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(cli.threading, "active_count", lambda: 2)
    assert sweep_out(capsys, ARGV) == want and forks == []


def test_a_refused_sweep_forks_nothing(capsys, monkeypatch):
    allow_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert sweep_out(capsys, [*ARGV, "--tol", "nan"])[::2] == (2, "error: tolerances must be strictly positive"
                                                                  " and finite, got eq_tol=nan\n")
    assert forks == []


def test_a_failed_pipe_or_fork_leaves_every_id_and_chunk_to_main(tmp_path, capsys, monkeypatch):
    def no_more(*args):
        raise OSError(24, "Too many open files")
    want = one_process(capsys, monkeypatch, ARGV)
    case = log_plus_case(TRACE_CHUNK + 3)
    spec, trace = tmp_path / "exp.json", tmp_path / "trace.csv"
    spec.write_text(json.dumps(case["experiment"]))
    fds = open_fds()
    for failing in ("pipe", "fork"):
        with monkeypatch.context() as m:
            m.setattr(os, failing, no_more)
            assert sweep_out(capsys, ARGV) == want
            assert sweep_out(capsys, ["converge", str(spec), "--trace", str(trace)])[0] == 0
        assert trace.read_bytes() == csv_writer_bytes(case)
        assert_left_nothing(fds)


# ---------------------------------------------------------------------------
# the serve loops and the frame reader, in-process
# ---------------------------------------------------------------------------

def frames_of(serve) -> cli._Helper:
    """A helper, seen from main, reading the frames serve writes to a pipe it closes."""
    frames, frames_end = os.pipe()
    serve(frames_end)
    return cli._Helper(None, frames)


def test_the_sweep_serve_loop_sends_each_odd_position_in_order():
    ids = ["O1", "C7_literal", "O1", "P1_additive", "S1"]
    sweep = lambda ids: run_identity_sweep(ids, trials=30, seed=4)
    helper = frames_of(lambda fd: cli._serve_outcomes(ids, sweep, fd))
    for i in (1, 3):
        got = cli._outcome(helper, i, ids[i], 30, 1.0)
        assert got.failed and pickle.dumps(got) == pickle.dumps(sweep([ids[i]])[0])  # first failure included
    assert helper.frame(5) is None  # the pipe has ended
    helper.close()


@pytest.mark.parametrize("residual", [-0.0, 0.0, 5e-324, 1.5e308, math.nan, math.inf])
def test_a_float_crosses_a_frame_unchanged(residual):
    outcome = SweepOutcome("O2", 3, 1, 1, 1, residual, None)
    helper = frames_of(lambda fd: cli._serve(fd, [1], lambda pipe, i: cli._send_outcome(pipe, i, outcome)))
    got = cli._outcome(helper, 1, "O2", 3, 1.0)
    assert got.max_residual.hex() == residual.hex() and math.copysign(1.0, got.max_residual) == math.copysign(1.0, residual)
    helper.close()


@pytest.mark.parametrize("frame", [
    (3, pickle.dumps(SweepOutcome("O2", 3, 1, 1, 1, 0.0, None))),  # the index after
    (1, pickle.dumps(SweepOutcome("O1", 3, 1, 1, 1, 0.0, None))),  # another id
    (1, pickle.dumps(SweepOutcome("O2", 4, 2, 1, 1, 0.0, None))),  # another trial count
    (1, pickle.dumps(SweepOutcome("O2", 3, 1, 1, 2, 0.0, None))),  # counts past the trials
    (1, b"\x80\x05\x95garbage"),
    (1, pickle.dumps(("O2", 3))),
], ids=["index", "id", "trials", "counts", "bytes", "tuple"])
def test_a_wrong_frame_closes_the_helper(frame):
    helper = frames_of(lambda fd: cli._serve(fd, [frame[0]], lambda pipe, i: cli._write_frame(pipe, i, frame[1])))
    assert cli._outcome(helper, 1, "O2", 3, 1.0) is None
    assert helper.frames is None and cli._outcome(helper, 3, "O2", 3, 1.0) is None


def test_the_trace_serve_loop_sends_each_chunk_it_claims(tmp_path, monkeypatch):
    # main queues every chunk, the helper's loop claims them all and writes its frames to
    # a file, and main then writes every chunk from those frames
    case = log_plus_case(2 * TRACE_CHUNK + 5)
    exp = load_experiment(case["experiment"])
    expr, cand = exp.candidates[0]
    chunks = TraceChunks(exp, expr, cand)
    queue, queue_end = os.pipe()
    os.set_blocking(queue, False)
    path = tmp_path / "frames"
    frames_end = os.open(path, os.O_WRONLY | os.O_CREAT)
    helper = cli._TraceHelper(None, os.open(path, os.O_RDONLY), chunks, queue, queue_end)
    helper.enqueue(0)
    assert helper.queue_end is None  # three chunks, all queued
    cli._serve_chunks(chunks, queue, frames_end)  # and closes frames_end
    copies = []
    copy = cli._copy_frame
    monkeypatch.setattr(cli, "_copy_frame", lambda f, mark, frame: copies.append(frame) or copy(f, mark, frame))
    with open(tmp_path / "trace.csv", "w", newline="", encoding="utf-8") as f:
        f.write("n,term,membership,scaled_deviation\r\n")
        cli._write_trace(f, cli.trace_rows(exp, expr, cand), case["rows"], helper)
    helper.close()
    assert len(copies) == 3 and (tmp_path / "trace.csv").read_bytes() == csv_writer_bytes(case)


def test_a_claim_the_parent_took_first_is_skipped(monkeypatch):
    queue, queue_end = os.pipe()
    os.set_blocking(queue, False)

    class Poll:
        """Reports the queue ready while it is empty once, as when main claims first."""
        polls = 0

        def register(self, fd, mask):
            pass

        def poll(self):
            Poll.polls += 1
            if Poll.polls == 2:
                os.write(queue_end, cli._CLAIM.pack(5))
                os.close(queue_end)
            return [(queue, select.POLLIN)]
    monkeypatch.setattr(cli.select, "poll", Poll)
    assert list(cli._claims(queue)) == [5]
    os.close(queue)


def test_main_claims_nothing_when_the_helper_holds_every_queued_chunk():
    queue, queue_end = os.pipe()
    os.set_blocking(queue, False)
    frames, frames_end = os.pipe()
    helper = cli._TraceHelper(None, frames, types.SimpleNamespace(count=100), queue, queue_end)
    helper.enqueue(0)
    assert [cli._CLAIM.unpack(os.read(queue, cli._CLAIM.size))[0] for _ in range(cli._QUEUED)] == list(range(16))
    assert helper.claim(0) is None and helper.queued == cli._QUEUED
    helper.close()
    os.close(frames_end)
    assert helper.claim(7) == 7  # closed: every chunk is main's


def test_a_pipe_that_cannot_grow_keeps_its_size(tmp_path):
    with open(tmp_path / "file", "wb") as f:  # F_SETPIPE_SZ fails on a file that is not a pipe
        assert cli._grow(f.fileno()) is None

