"""Unified identity registry and the randomized sweep driver.

Every identity from the real and complex checkers is registered here with a
seeded operand sampler and a description of which points its evaluation
touches. A sweep trial draws operands, builds a point-table membership
function assigning an independent random weight to each touched point
(coupled points, like a and -a for the symmetric-modulus law, share one
weight), and evaluates the check. Weights of exactly zero are injected at a
configurable rate so the guarded "provided w(...) != 0" clauses get
exercised: those trials must land in precondition-unmet, never in failure.

The weighting pins w(0) = w(1) = 1, which every admissible weighting
satisfies, so checks that reference those points stay meaningful.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import add, mul, sub, truediv

from .complex_field import COMPLEX_IDENTITIES, check_complex_identity
from .errors import UsageError
from .membership import FieldContext, MembershipFunction, crisp
from .real_field import PASS, UNMET, REAL_IDENTITIES, IdentityCheckReport, check_real_identity

_PIN_TOL = 1e-12


def _mag(rng, lo=1e-3, hi=1e3) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _signed(rng, lo=1e-3, hi=1e3) -> float:
    return _mag(rng, lo, hi) * (1.0 if rng.random() < 0.5 else -1.0)


def _cplx(rng, lo=1e-3, hi=1e3) -> complex:
    r = _mag(rng, lo, hi)
    th = rng.uniform(-math.pi, math.pi)
    return complex(r * math.cos(th), r * math.sin(th))


def _one(draw):
    return lambda rng: (draw(rng),)


def _pair(draw):
    return lambda rng: (draw(rng), draw(rng))


def _signs(*signs):
    """Operands of the given signs; their magnitudes are drawn in order."""
    return lambda rng: tuple(s * _mag(rng) for s in signs)


def _sample_r5(rng):
    a = _signed(rng)
    c = abs(a) * (1.0 + rng.uniform(0.1, 2.0))
    return (a, c)


def _sample_set(rng):
    return tuple(_signed(rng) for _ in range(rng.randint(3, 8)))


def _sample_en2(rng):
    return (_cplx(rng, 0.3, 3.0), complex(rng.randint(-5, 5), 0.0))


def _sample_pow2(rng):
    return (_cplx(rng, 0.1, 10.0), _cplx(rng, 1e-3, 2.0), _cplx(rng, 1e-3, 2.0))


def _sample_pow_bases(rng):
    return (_cplx(rng, 0.1, 10.0), _cplx(rng, 0.1, 10.0), _cplx(rng, 1e-3, 2.0))


def _groups_single(ops):
    return [[ops[0]]]


def _groups_neg_pair(ops):
    return [[ops[0], -ops[0]]]


def _groups_with(derive):
    return lambda ops: [[ops[0]], [ops[1]], [derive(ops[0], ops[1])]]


def _groups_r5b(ops):
    return [[ops[0], -ops[0]], [ops[1]]]


def _groups_square(ops):
    return [[ops[0] * ops[0]]]


def _groups_set(ops):
    return [[v] for v in ops]


def _groups_en2(ops):
    z, n = ops[0], int(ops[1].real)
    return [[z], [n * z]]


def _groups_p1(ops):
    _, z1, z2 = ops
    return [[z1], [z2], [z1 + z2]]


def _groups_p2(ops):
    return [[ops[2]]]


@dataclass(frozen=True)
class RegistryEntry:
    ident: str
    domain: str  # "real" | "complex"
    summary: str
    sample: object  # rng -> operands
    point_groups: object  # operands -> [[coupled points], ...]

    @property
    def hidden(self) -> bool:
        """Literal variants stay out of the default sweep."""
        return self.ident in LITERAL_VARIANTS.values()


def _real(ident, sample, groups):
    return RegistryEntry(ident, "real", REAL_IDENTITIES[ident][0], sample, groups)


def _cx(ident, sample, groups):
    return RegistryEntry(ident, "complex", COMPLEX_IDENTITIES[ident][0], sample, groups)


LITERAL_VARIANTS = {"C7": "C7_literal", "P1": "P1_additive"}

REGISTRY = {
    e.ident: e
    for e in [
        _real("O1", _one(_signed), _groups_single),
        _real("O2", _signs(1.0), _groups_neg_pair),
        _real("O3", _signs(1.0, 1.0), _groups_with(add)),
        _real("O4", _signs(-1.0, -1.0), _groups_with(add)),
        _real("O5", _signs(1.0, 1.0), _groups_with(mul)),
        _real("O6", _signs(-1.0, -1.0), _groups_with(mul)),
        _real("O7", _signs(1.0, -1.0), _groups_with(mul)),
        _real("O8", _one(_signed), _groups_square),
        _real("R1", _one(_signed), _groups_single),
        _real("R2", _one(_signed), _groups_neg_pair),
        _real("R3", _pair(_signed), _groups_with(mul)),
        _real("R4", _pair(_signed), _groups_with(add)),
        _real("R5a", _sample_r5, _groups_single),
        _real("R5b", _sample_r5, _groups_r5b),
        _real("S1", _sample_set, _groups_set),
        _cx("C1", _one(_cplx), _groups_single),
        _cx("C2", _pair(_cplx), _groups_with(add)),
        _cx("C3", _pair(_cplx), _groups_with(sub)),
        _cx("C4", _pair(_cplx), _groups_with(mul)),
        _cx("C5", _pair(_cplx), _groups_with(truediv)),
        _cx("C6", _one(_cplx), _groups_single),
        _cx("C7", _one(_cplx), _groups_single),
        _cx("C7_literal", _one(_cplx), _groups_single),
        _cx("M1", _pair(_cplx), _groups_with(mul)),
        _cx("M2", _pair(_cplx), _groups_with(add)),
        _cx("M3", _pair(_cplx), _groups_with(truediv)),
        _cx("M4", _one(_cplx), _groups_single),
        _cx("M5", _pair(_cplx), _groups_with(sub)),
        _cx("M6", _one(_cplx), _groups_single),
        _cx("M7", _one(_cplx), _groups_single),
        _cx("A1", _pair(_cplx), _groups_with(mul)),
        _cx("E1", _pair(lambda rng: _cplx(rng, 1e-3, 3.0)), _groups_with(add)),
        _cx("E2", _pair(lambda rng: _cplx(rng, 1e-3, 3.0)), _groups_with(sub)),
        _cx("EN1", lambda rng: (), lambda ops: []),
        _cx("EN2", _sample_en2, _groups_en2),
        _cx("L1", _pair(_cplx), _groups_with(mul)),
        _cx("L2", _pair(_cplx), _groups_with(truediv)),
        _cx("P1", _sample_pow2, _groups_p1),
        _cx("P1_additive", _sample_pow2, _groups_p1),
        _cx("P2", _sample_pow_bases, _groups_p2),
    ]
}

DEFAULT_SWEEP_IDS = tuple(i for i, e in REGISTRY.items() if not e.hidden)


def table_membership(groups, rng, zero_rate: float) -> MembershipFunction:
    """Point-table weighting for one trial: one drawn weight per coupled group."""
    rows = [(0.0, _PIN_TOL, 1.0), (1.0, _PIN_TOL, 1.0)]
    for group in groups:
        w = 0.0 if rng.random() < zero_rate else rng.uniform(0.05, 1.0)
        rows += [(p, _PIN_TOL, w) for p in group]
    return MembershipFunction.from_points(rows, rng.uniform(0.05, 1.0))


def check_identity(ctx: FieldContext, ident: str, operands) -> IdentityCheckReport:
    """Dispatch to the real or complex checker by registry domain."""
    if ident not in REGISTRY:
        raise UsageError(f"unknown identity {ident!r}; known: {sorted(REGISTRY)}")
    if REGISTRY[ident].domain == "real":
        return check_real_identity(ctx, ident, operands)
    return check_complex_identity(ctx, ident, operands)


@dataclass(frozen=True)
class SweepOutcome:
    """One id's sweep counts; max_residual is the largest finite residual of a passed or failed trial."""

    ident: str
    trials: int
    passed: int
    failed: int
    unmet: int
    max_residual: float
    first_failure: IdentityCheckReport | None


def run_identity_sweep(
    idents=None,
    trials: int = 1000,
    seed: int = 0,
    zero_rate: float = 0.08,
    mu: MembershipFunction | None = None,
    eq_tol: float = 1e-9,
):
    """Per-identity pass/fail/unmet counts over seeded randomized draws.

    With mu=None each trial gets its own point-table weighting; with a fixed
    mu the same weighting serves every trial (derived points then usually
    fall to its default weight).
    """
    ids = tuple(idents) if idents else DEFAULT_SWEEP_IDS
    ctx = FieldContext(mu=crisp() if mu is None else mu, eq_tol=eq_tol)  # checks eq_tol before any trial
    outcomes = []
    for ident in ids:
        if ident not in REGISTRY:
            raise UsageError(f"unknown identity {ident!r}; known: {sorted(REGISTRY)}")
        entry = REGISTRY[ident]
        rng = random.Random(f"{seed}:{ident}")
        passed = failed = unmet = 0
        max_res = 0.0
        first_failure = None
        for _ in range(trials):
            operands = entry.sample(rng)
            trial_ctx = ctx if mu is not None else FieldContext(
                table_membership(entry.point_groups(operands), rng, zero_rate), eq_tol
            )
            rep = check_identity(trial_ctx, ident, operands)
            if rep.verdict == UNMET:  # its residual is NaN
                unmet += 1
                continue
            if rep.verdict == PASS:
                passed += 1
            else:
                failed += 1
                if first_failure is None:
                    first_failure = rep
            if math.isfinite(rep.residual):
                max_res = max(max_res, rep.residual)
        outcomes.append(
            SweepOutcome(ident, trials, passed, failed, unmet, max_res, first_failure)
        )
    return outcomes
