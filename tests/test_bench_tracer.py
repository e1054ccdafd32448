"""The benchmark's tracer still finds every name it wraps.

`bench/tracer.py` looks each wrapped method up in its class's own
`__dict__` and each function in its module, so renaming, removing or moving
one of them to a base class breaks a traced benchmark run; this test makes
that a test failure instead. So does a traced sweep whose counts differ
between two rounds, which makes a traced benchmark run exit 1.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest
from test_trace import allow_cpus, count_forks

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_layer(tracer):
    t = tracer.Tracer()
    originals = [(ns, k, getattr(ns, k)) for ns, k, _, _ in t.patches]
    assert {attr for _, attr, _, _ in tracer.LAYERS} <= {k for _, k, _ in originals}
    with t.installed():
        assert all(getattr(ns, k) is not fn for ns, k, fn in originals)
    assert all(getattr(ns, k) is fn for ns, k, fn in originals)


def test_tracer_counts_every_trace_row(tracer, tmp_path, capsys):
    # cli.trace_rows counts the rows the tracer's wrapper draws one at a time
    # from trace_rows, so it equals the data rows of the CSV
    from mufield.cli import main

    spec, trace = tmp_path / "exp.json", tmp_path / "trace.csv"
    spec.write_text(json.dumps({
        "sequence": {"form": "log_plus", "params": {"c": 0.5}, "n_min": 1, "n_max": 5000},
        "candidates": [0.0], "horizon": 5000,
    }))
    t = tracer.Tracer()
    t.begin_round()
    with t.installed():
        assert main(["converge", str(spec), "--trace", str(trace)]) == 0
    rows = trace.read_bytes().count(b"\r\n") - 1
    assert rows == 5000
    assert t.counts["cli.trace_rows"] == rows


def test_a_traced_sweep_counts_the_same_in_every_round(tracer, tmp_path, capsys, monkeypatch):
    # the benchmark refuses a traced run whose counts differ between rounds; a sweep's
    # forked helper sweeps the ids at odd positions, which the parent's tracer does not count
    from mufield import cli
    from mufield.registry import DEFAULT_SWEEP_IDS

    monkeypatch.syspath_prepend(str(TRACER.parent))
    import workloads

    (op, _) = workloads.sweep(random.Random("mufield-bench:sweep:2"), tmp_path)
    assert op.argv[op.argv.index("--trials") + 1] == "200" and len(DEFAULT_SWEEP_IDS) == 38
    forks = count_forks(monkeypatch)
    allow_cpus(monkeypatch, 2)
    t, counts = tracer.Tracer(), []
    for _ in range(2):
        t.begin_round()
        with t.installed():
            status = cli.main(op.argv)
        assert op.check(status, capsys.readouterr().out, None) == []
        counts.append(dict(t.counts))
    assert len(forks) == 2
    assert counts[0] == counts[1] and counts[0]["registry.trials"] == 19 * 200
