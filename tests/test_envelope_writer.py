"""The `--json` envelope is written in one pass by `cli._json_text`.

The writer must print the bytes that `json.dumps(to_jsonable(obj), indent=2,
sort_keys=True)` printed before it, where `to_jsonable` below is a copy of
the converter it replaced, kept here as the oracle. A hypothesis test holds
the two to each other over drawn nested values, and every real envelope the
CLI prints is checked to be its own re-dump: parsed and dumped again the
standard library's way, it reads the same.
"""

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mufield.cli import _json_text, main
from mufield.demos import DEMO_NAMES
from mufield.membership import AxiomViolation
from mufield.real_field import IdentityCheckReport, ScaledValue
from mufield.registry import SweepOutcome
from mufield.sequences import ConvergenceVerdict


def to_jsonable(obj):
    """The envelope converter the writer replaced: obj as JSON data."""
    if isinstance(obj, float):  # np.float64 included
        return obj if math.isfinite(obj) else "nan" if obj != obj else "inf" if obj > 0 else "-inf"
    if isinstance(obj, (str, int)) or obj is None:  # bool is an int
        return obj
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}


def oracle(obj) -> str:
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1e308, -1.5e308, 2.0 ** 53 + 2, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
TEXT = st.one_of(st.sampled_from(["", "a\"b", "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f", "é", "µ-field",
                                  " ", "😀", "\U0001f600", "nan", "null"]), st.text(max_size=8))


class Label(str):
    """A str subclass, as an enum of strings is."""


class Count(int):
    """An int subclass, as an IntEnum is."""

    def __repr__(self):
        return f"Count({int(self)})"


LEAVES = st.one_of(
    st.none(), st.booleans(), TEXT, TEXT.map(Label), FLOATS, FLOATS.map(np.float64),
    st.integers(-2**80, 2**80), st.integers(-9, 9).map(Count), st.sampled_from([0, -1, 2**64, -(2**100)]),
    st.builds(complex, FLOATS, FLOATS),
)
KEYS = st.one_of(TEXT, st.integers(-5, 5), st.sampled_from(["0", "1", "-1", "True", "None"]), st.booleans(), st.none())


def library_dataclasses(children):
    """Library reports with drawn fields: the writer reads any value a field holds."""
    return st.one_of(
        st.builds(ConvergenceVerdict, TEXT, FLOATS, children, children, children, FLOATS, TEXT | st.none(), TEXT),
        st.builds(SweepOutcome, TEXT, children, st.integers(0, 9), st.integers(0, 9), children, FLOATS,
                  st.none() | st.builds(IdentityCheckReport, TEXT, children, children, children, FLOATS, TEXT)),
        st.builds(AxiomViolation, TEXT, children, FLOATS, FLOATS),
        st.builds(ScaledValue, FLOATS | st.builds(complex, FLOATS, FLOATS), FLOATS, FLOATS),
    )


VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        library_dataclasses(children),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(VALUES)
@example([0.0, -0.0, 0.0, -0.0, {"z": -0.0, "a": 0.0}])  # the writer keeps float texts by value
@example({1: "int", "1": "str"})  # two keys that str() alike: the last wins
@example({"1": "str", 1: "int"})
@example([complex(math.nan, math.inf), complex(-math.inf, -0.0), np.float64(math.nan), [], {}, ()])
@example([Label("a\u00e9"), Count(3), {Count(1): Label("x")}])  # subclasses of the leaf classes
def test_the_writer_prints_what_json_dumps_printed(obj):
    assert _json_text(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [object(), {1, 2}, [b"bytes"], {"k": np.int64(3)}, np.bool_(True),
                                 np.zeros(2), {"f": range(2)}, ConvergenceVerdict])
def test_anything_else_is_a_type_error_as_before(obj):
    with pytest.raises(TypeError):
        oracle(obj)
    with pytest.raises(TypeError):
        _json_text(obj)


def run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


# a point rule on a member of the first of two log families, the fallback of the
# converge experiment and the weighting of the axiom audit, whose samples break
# axioms (i) and (iii)
C = 0.8
FAMILIES = {"default": 0.0, "rules": [
    {"match": {"kind": "point", "value": math.log(7) + C, "tol": 1e-9}, "mu": 0.6},
    *({"match": {"kind": "family", "form": "log_n_plus_c", "params": {"c": c}, "n_min": 1, "n_max": 5000,
                 "tol": 1e-9}, "mu": {"form": "rational_poly", "params": {"p": [0, 1], "q": [1, 3, 3, 1]}}}
      for c in (C, C - (1.0 - math.sqrt(2.0)))),
]}
RULES = {"label": "rules", "sequence": {"form": "log_plus", "params": {"c": C}, "n_min": 1, "n_max": 5000},
         "candidates": [0.0, 1.0 - math.sqrt(2.0)], "horizon": 5000, "fallback_mu": FAMILIES}
SQ_RATIO = {"label": "sq_ratio", "sequence": {"form": "sq_ratio", "params": {}, "n_min": 1, "n_max": 5000},
            "candidates": [0.0], "eps": [0.1, 0.01, 0.001, 0.0001], "horizon": 5000,
            "fallback_mu": {"default": 0.0, "rules": [
                {"match": {"kind": "family", "form": "sq_ratio", "params": {}, "n_min": 1, "n_max": 5000,
                           "tol": 1e-9}, "mu": {"form": "rational_poly", "params": {"p": [1], "q": [0, 1]}}}]}}
SAMPLES = [math.log(k) + C for k in (1, 2, 3, 7, 20, 55, 150)] + [-3.5, -0.25, 0.0, 2.5, 11.0]


def envelopes(tmp_path: Path):
    files = {}
    for name, doc in (("rules", RULES), ("sq_ratio", SQ_RATIO), ("families", FAMILIES), ("samples", SAMPLES)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    yield from (["demo", name] for name in DEMO_NAMES)
    yield ["converge", str(files["rules"])]
    yield ["converge", str(files["sq_ratio"]), "--trace", str(tmp_path / "trace.csv")]
    yield ["axioms", str(files["families"]), "--samples", str(files["samples"])]
    yield ["identities", "--trials", "20", "--seed", "3"]
    yield ["identities", "C7", "P1", "--literal", "--trials", "20"]
    yield ["eval", "mu_pow", "--base", "2,1", "--z", "0.5,0.5", "--branch", "1"]
    yield ["eval", "mu_sup", "--set", "1,2,-3,7", "--mu", str(files["families"])]
    yield ["eval", "mu_log", "--z", "0,0"]


def test_every_envelope_is_its_own_re_dump(tmp_path):
    seen = set()
    for argv in envelopes(tmp_path):
        code, out = run(["--json", *argv])
        env = json.loads(out)
        assert env["status"] == code
        assert json.dumps(env, indent=2, sort_keys=True) + "\n" == out, argv
        seen.add((argv[0], code))
    # a failed audit and a failed sweep among them, so that their evidence is written too
    assert {("axioms", 1), ("identities", 1), ("converge", 0), ("demo", 0), ("eval", 1)} <= seen
