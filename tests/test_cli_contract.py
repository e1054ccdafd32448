"""The CLI contract, checked on generated argv: for now, for `identities`.

Every call of `main` exits 0, 1 or 2 and lets no exception out. A refusal
prints exactly one stderr line, starting with `error:`, and nothing on
stdout; an exit 1 with no such line is a sweep with a failing trial. A
`--json` envelope parses and its `status` is the exit code. And stdout is
the same whether the sweep may fork its helper or not: the helper is forced
on for every sweep of two ids or more by a fork threshold of 0 trials.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from mufield import cli
from mufield.registry import REGISTRY

# numbers at the edges: zero and its sign, the subnormal floor, the float limit, the
# non-finite values, an integer past the float range and a spelling float() refuses
EDGE_NUMBERS = ["0", "-0.0", "5e-324", "1e-14", "1e-9", "0.5", "1e200", "1.5e308",
                "inf", "-inf", "nan", "1" + "0" * 400, "0x10"]

ARGV = st.tuples(
    st.lists(st.sampled_from(sorted(REGISTRY)), max_size=5),  # duplicates included
    st.booleans(),
    st.integers(1, 30),
    st.one_of(st.none(), st.integers(-2**70, 2**70)),
    st.one_of(st.none(), st.sampled_from(EDGE_NUMBERS)),
    st.booleans(),
)


def call(argv, fork: bool) -> tuple:
    """(exit code, stdout, stderr, forks) of main(argv), its helper allowed or not."""
    forks, fork_ = [], os.fork

    def counted():
        pid = fork_()
        forks.append(pid)
        return pid
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        m.setattr(cli, "SWEEP_FORK_TRIALS", 0 if fork else 10**18)
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        m.setattr(os, "fork", counted)
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), len(forks)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ARGV)
def test_identities_keeps_the_cli_contract(draw):
    ids, literal, trials, seed, tol, as_json = draw
    argv = (["--json"] if as_json else []) + ["identities", *ids, "--trials", str(trials)]
    argv += (["--literal"] if literal else []) + ([] if seed is None else ["--seed", str(seed)])
    argv += [] if tol is None else [f"--tol={tol}"]
    code, out, err, forks = call(argv, fork=True)
    assert code in (0, 1, 2)
    if err or code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    if as_json and out:
        env = json.loads(out)
        assert env["status"] == code
        assert code == 1 or not any(o["failed"] for o in env["body"]["outcomes"])
    if code == 1 and not err:  # a failing trial, which the human table shows too
        assert as_json or any(line.split()[2] != "0" for line in out.splitlines()[2:] if not line.startswith("    "))
    assert forks == (code != 2 and len(ids) != 1)
    off = call(argv, fork=False)
    drop = lambda text: [line for line in text.splitlines() if '"timestamp"' not in line]
    assert (off[0], drop(off[1]), off[2], off[3]) == (code, drop(out), err, 0)
