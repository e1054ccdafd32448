"""Command-line front end.

Commands: axioms, eval, converge, demo, identities. Output is human-readable
by default; --json emits a schema'd envelope carrying the tool version, the
command, sha256 digests of file inputs, the seed of any randomized sweep,
and the command body. Identical inputs and seed produce an identical envelope
apart from the timestamp field.

Exit codes: 0 all checks passed, 1 a check failed or a valid request met a
domain error or did not fit in memory, 2 invalid input or usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time

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
from .registry import DEFAULT_SWEEP_IDS, LITERAL_VARIANTS, REGISTRY, run_identity_sweep
from .sequences import load_experiment, run_experiment, trace_rows

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
# axioms audits every pair of samples, O(n^2) weighings, so a larger request
# would run for minutes and is refused before any sample is built
MAX_AXIOM_SAMPLES = 2_000


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _to_jsonable(obj):
    """obj as JSON data; the dataclass test comes last, as nearly every leaf is a built-in type."""
    if isinstance(obj, float):  # np.float64 included
        return obj if math.isfinite(obj) else "nan" if obj != obj else "inf" if obj > 0 else "-inf"
    t = type(obj)
    if t is int or t is str or t is bool or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, (str, int)):
        return obj
    return repr(obj)


def _envelope(command: str, body, inputs=(), seed=None, status: int = 0) -> dict:
    return {
        "tool": "mufield",
        "version": __version__,
        "command": command,
        "inputs": {p: _sha256(p) for p in inputs},
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "body": _to_jsonable(body),
        "status": status,
    }


def _emit(env: dict, args, human_lines) -> int:
    if args.json:
        print(json.dumps(env, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
    return env["status"]


def _read_text(path: str) -> str:
    """The text of a UTF-8 input file; a SpecError naming the file otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise SpecError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _load_mu(path: str | None):
    return crisp() if path is None else load_mu_spec(_read_text(path))


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
    mu = _load_mu(args.mu)
    inputs = [args.mu] if args.mu else []
    if args.samples:
        doc = spec_array(spec_document(_read_text(args.samples), "--samples"), "--samples")
        if len(doc) > MAX_AXIOM_SAMPLES:
            raise UsageError(f"--samples: {len(doc)} samples, more than the cap of {MAX_AXIOM_SAMPLES}")
        samples = [number(v, "--samples") for v in doc]
        inputs.append(args.samples)
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
    mu = _load_mu(args.mu)
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
        env = _envelope("eval", {"op": args.op, "error": str(e)},
                        [args.mu] if args.mu else [], status=EXIT_CHECK_FAILED)
        return _emit(env, args, [f"eval {args.op}: {e}"])
    body = {"op": args.op, "value": _to_jsonable(value), "memberships": memberships}
    lines = [f"{args.op} = {value}"]
    for k, w in memberships.items():
        lines.append(f"  weight({k}) = {w:.9g}")
    return _emit(_envelope("eval", body, [args.mu] if args.mu else []), args, lines)


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


def cmd_converge(args) -> int:
    _refuse_unread(args, "the experiment spec's 'tolerances' block")
    if args.trace_target is not None and not args.trace:
        raise UsageError("--trace-target needs --trace: nothing is traced without it")
    exp = load_experiment(_read_text(args.experiment))
    # checked before any work, so a refused target writes no file
    target = _trace_target(exp, args.trace_target) if args.trace else None
    report = run_experiment(exp)
    if target is not None:
        with open(args.trace, "w", newline="", encoding="utf-8") as f:
            # the bytes csv.writer writes: CRLF, and floats as their shortest round-trip repr
            f.write("n,term,membership,scaled_deviation\r\n")
            f.writelines(f"{n},{t!r},{w!r},{d!r}\r\n" for n, t, w, d in trace_rows(exp, *target))
    body = {
        "label": exp.label,
        "horizon": exp.horizon,
        "verdicts": [_to_jsonable(v) for v in report.verdicts],
        "classical": [
            {"expr": e, "candidate": c, "verdict": v.verdict} for e, c, v in report.classical
        ],
        "theorem_checks": [_to_jsonable(c) for c in report.theorem_checks],
    }
    lines = [f"experiment {exp.label or args.experiment}: horizon {exp.horizon}"]
    for v in report.verdicts:
        lines.extend(_verdict_lines(v))
    for c in report.theorem_checks:
        lines.append(f"  {c.identity_id}: {c.verdict} {'; '.join(c.notes)}")
    return _emit(_envelope("converge", body, [args.experiment]), args, lines)


def cmd_demo(args) -> int:
    _refuse_unread(args, "the demo catalog")
    demo = run_demo(args.name)
    status = EXIT_OK if demo.ok else EXIT_CHECK_FAILED
    body = {
        "name": demo.name,
        "headline": demo.headline,
        "claims": [{"claim": label, "holds": flag} for label, flag in demo.claims],
        "verdicts": [_to_jsonable(v) for v in demo.report.verdicts],
        "bounds": _to_jsonable(demo.bounds) if demo.bounds else None,
        "literal_variant": _to_jsonable(demo.literal_variant) if demo.literal_variant else None,
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


def cmd_identities(args) -> int:
    ids = list(args.ids) if args.ids else list(DEFAULT_SWEEP_IDS)
    if args.literal:
        ids = [LITERAL_VARIANTS.get(i, i) for i in ids]
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:  # refused before any id runs
        raise UsageError(f"unknown identities: {', '.join(unknown)}")
    if args.trials < 1:
        raise UsageError(f"--trials must be positive, got {args.trials}: a sweep of no trials checks nothing")
    mu = _load_mu(args.mu) if args.mu else None
    seed = 0 if args.seed is None else args.seed
    tol = FieldContext.eq_tol if args.tol is None else args.tol
    outcomes = run_identity_sweep(ids, trials=args.trials, seed=seed, mu=mu, eq_tol=tol)
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
        _envelope("identities", body, [args.mu] if args.mu else [], seed=seed, status=status),
        args,
        lines,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (DomainError, MemoryError) as e:  # a valid request, undefined or too big for this machine
        print(f"error: {str(e) or 'not enough memory for this request'}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (MuFieldError, FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
