"""The `converge --trace` CSV, pinned byte for byte.

`tests/data/trace_golden.json` holds, for each traced experiment, its spec
document, the `--trace-target` (null for the first declared candidate), and
the sha256, the data row count, the first data row and the last row of the
CSV as written before the writer stopped using `csv`. The cases cover every
expression of a partner experiment (with an assigned weight on `sum`), a
table holding -0.0, 1e-300 and -5e+20, an assigned weight of 0, a family
fallback, and a trace longer than one chunk of `trace_rows`.
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from mufield.cli import main
from mufield.sequences import _Stream, load_experiment, trace_rows

GOLDEN = json.loads((Path(__file__).parent / "data" / "trace_golden.json").read_text())


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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_equals_csv_writer_over_rows(tmp_path, capsys, name):
    case = GOLDEN[name]
    exp, expr, cand = target_of(case)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["n", "term", "membership", "scaled_deviation"])
    writer.writerows(list(trace_rows(exp, expr, cand)))
    assert write_trace(tmp_path, case) == want.getvalue().encode()


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
