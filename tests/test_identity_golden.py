"""Every registry identity's full report, pinned before the field checkers were
reduced to one factory per law shape.

`tests/data/identity_golden.json` holds, per registry id, the sha256 of the
JSON form of its reports over TRIALS seeded trials: once under the sweep's
per-trial point tables, and once under one fixed membership spec with point,
set and `log_n_plus_c` family rules. Unlike the sweep counts of
`golden_outputs.json`, this pins lhs, rhs, residual, notes and details.

Regenerate (only when a report is meant to change) with
`PYTHONPATH=src python tests/test_identity_golden.py > tests/data/identity_golden.json`.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from mufield import DomainError, FieldContext, parse_mu_spec
from mufield.cli import _json_text
from mufield.registry import REGISTRY, check_identity, table_membership

GOLDEN_PATH = Path(__file__).parent / "data" / "identity_golden.json"
TRIALS = 400
ZERO_RATE = 0.08

# points the samplers can reach (0 and 1 among them), a set mixing a real and
# a complex point, and a family whose members are real: log(n) + 0.5
FIXED_SPEC = {"default": 0.7, "rules": [
    {"match": {"kind": "point", "value": 1.0, "tol": 1e-9}, "mu": 1.0},
    {"match": {"kind": "point", "value": 0.0, "tol": 1e-9}, "mu": 1.0},
    {"match": {"kind": "point", "value": [0.5, -0.5], "tol": 1e-9}, "mu": 0.3},
    {"match": {"kind": "set", "values": [-2.0, 2.0, [0.0, 1.0]], "tol": 1e-9}, "mu": 0.45},
    {"match": {"kind": "family", "form": "log_n_plus_c", "params": {"c": 0.5},
               "n_min": 1, "n_max": 1000, "tol": 1e-9},
     "mu": {"form": "rational_poly", "params": {"p": [1], "q": [1, 1]}}},
]}


def report_digest(ident, fixed_mu=None):
    """sha256 of the JSON form of ident's reports (or domain errors) over TRIALS trials."""
    entry = REGISTRY[ident]
    rng = random.Random(f"golden:{ident}")
    reports = []
    for _ in range(TRIALS):
        operands = entry.sample(rng)
        mu = fixed_mu or table_membership(entry.point_groups(operands), rng, ZERO_RATE)
        ctx = FieldContext(mu=mu)
        try:
            reports.append(json.loads(_json_text(check_identity(ctx, ident, operands))))
        except DomainError as e:
            reports.append({"error": str(e)})
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


def all_digests():
    fixed = parse_mu_spec(FIXED_SPEC)
    return {ident: {"tables": report_digest(ident), "fixed": report_digest(ident, fixed)}
            for ident in sorted(REGISTRY)}


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_covers_the_registry():
    assert sorted(GOLDEN) == sorted(REGISTRY)


@pytest.mark.parametrize("ident", sorted(REGISTRY))
def test_identity_reports_match_golden(ident):
    fixed = parse_mu_spec(FIXED_SPEC)
    got = {"tables": report_digest(ident), "fixed": report_digest(ident, fixed)}
    assert got == GOLDEN[ident]


if __name__ == "__main__":
    json.dump(all_digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
