"""Closed-form families of an integer index, and weight forms into [0, 1].

Value forms describe how a family member depends on its index n (sequence
terms, family matchers). Weight forms map an index n to a membership weight.
Both are registered under short string IDs so structured documents can name
them. Evaluation runs through a single numpy code path for scalars and
arrays alike, which keeps repeated evaluations bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError, ValidationError, number, spec_array, spec_object, spec_string

# each form's parameter names: a form takes exactly these params
_VALUE_FORM_PARAMS = {
    "log_n_plus_c": ("c",),
    "exp_n_plus_c": ("c",),
    "sq_ratio": (),
    "moebius": ("a", "b", "c", "d"),
}
_WEIGHT_FORM_PARAMS = {"const": ("value",), "rational_poly": ("p", "q"), "inv_exp_p1_sq": ()}
VALUE_FORM_IDS = tuple(_VALUE_FORM_PARAMS)
WEIGHT_FORM_IDS = tuple(_WEIGHT_FORM_PARAMS)

# exp(n) overflows a double past n ~ 709.78; stay clear of the edge.
EXP_INDEX_CAP = 700
# indices evaluated at a time over a long range: 512 KB per float array, so a
# block and its temporaries stay in a core's cache
SCAN_BLOCK = 65_536


def form_params(params, where: str, names=None, error=SpecError) -> dict:
    """The params object at where with every field read: p and q non-empty lists of
    finite floats, points a map of integer index to finite float, anything else a
    finite float; with names, its keys are exactly those. error, naming the field,
    is raised for anything else: a SpecError for a document, a ValidationError for
    a form built in code."""
    out = {}
    for k, v in spec_object(params, where, names, names or (), error).items():
        at = f"{where}.{k}"
        if k in ("p", "q"):
            out[k] = [number(c, f"{at}[{i}]", error=error)
                      for i, c in enumerate(spec_array(v, at, nonempty=True, error=error))]
        elif k == "points":
            out[k] = {number(n, at, int, error): number(t, f"{at}[{n}]", error=error)
                      for n, t in spec_object(v, at, error=error).items()}
        else:
            out[k] = number(v, at, error=error)
    return out


def read_params(form: str, params, names) -> dict:
    """The params of a form built in code, read by form_params: keys exactly names."""
    return form_params(params, f"form {form!r} params", names, ValidationError)


def _horner(coeffs, n):
    """Evaluate a polynomial given by ascending coefficients at an index array n,
    in place in one accumulator: acc = acc * n + c for each c from the top,
    from acc = 0. The first step gives the top coefficient itself, so acc
    starts there, unless it is a zero: 0 * n + -0.0 takes the sign of n."""
    top = coeffs[-1]
    first = top != 0.0
    acc = np.full(n.shape, float(top) if first else 0.0)
    for c in reversed(coeffs[:-1] if first else coeffs):
        np.multiply(acc, n, out=acc)
        np.add(acc, c, out=acc)
    return acc


@dataclass(frozen=True)
class ValueForm:
    """A registered closed form of the index n, e.g. log(n) + c; its params are read as finite floats."""

    form: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.form not in VALUE_FORM_IDS:
            raise SpecError(f"unknown value form {self.form!r}; known: {VALUE_FORM_IDS}")
        object.__setattr__(self, "params", read_params(self.form, self.params, _VALUE_FORM_PARAMS[self.form]))

    def terms(self, n: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate the form at an array of indices, into out when it is given
        (a float array of n's shape, not overlapping n)."""
        p, out = self.params, np.empty(n.shape) if out is None else out
        if self.form == "log_n_plus_c":
            return np.add(np.log(n, out=out), p["c"], out=out)
        if self.form == "exp_n_plus_c":
            return np.add(np.exp(n, out=out), p["c"], out=out)
        if self.form == "sq_ratio":  # (1 + 1/n)^2
            np.add(1.0, np.divide(1.0, n, out=out), out=out)
            return np.square(out, out=out)
        # moebius: (a n + b) / (c n + d)
        np.add(np.multiply(p["a"], n, out=out), p["b"], out=out)
        return np.divide(out, p["c"] * n + p["d"], out=out)

    def term_at(self, n: int) -> float:
        return float(self.terms(np.array([n], dtype=float))[0])


@dataclass(frozen=True)
class WeightForm:
    """A registered weight form of the index n with range [0, 1]; its params are read
    as finite floats (p and q non-empty lists of them)."""

    form: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.form not in WEIGHT_FORM_IDS:
            raise SpecError(f"unknown weight form {self.form!r}; known: {WEIGHT_FORM_IDS}")
        object.__setattr__(self, "params", read_params(self.form, self.params, _WEIGHT_FORM_PARAMS[self.form]))

    def weights(self, n: np.ndarray) -> np.ndarray:
        """Evaluate the weight at an array of indices."""
        if self.form == "const":
            return np.full_like(n, self.params["value"], dtype=float)
        if self.form == "rational_poly":  # a pole or 0/0 gives inf or NaN, which validate_range refuses
            with np.errstate(all="ignore"):
                p, q = _horner(self.params["p"], n), _horner(self.params["q"], n)
                return np.divide(p, q, out=p)
        # inv_exp_p1_sq: 1 / (e^n + 1)^2, computed stably for large n
        e = np.exp(-n)
        return np.exp(-2.0 * n) / (1.0 + e) ** 2

    def validate_range(self, n_min: int, n_max: int, where: str = "weight form") -> None:
        """Refuse a weight outside [0, 1] over the index range [n_min, n_max]: a
        ValidationError names the first such n and its weight. A const or
        rational_poly form weighs only the windows its exact model leaves
        undecided (mufield.exact), inv_exp_p1_sq the whole range. Windows are
        weighed in order, SCAN_BLOCK indices at a time, each block checked
        before the next is weighed."""
        windows = [(n_min, n_max)]
        if self.form != "inv_exp_p1_sq":
            from .exact import weight_windows  # on first use, so that `import mufield` stays without it

            windows = weight_windows(self, n_min, n_max)
        for first, last in windows:
            for lo in range(first, last + 1, SCAN_BLOCK):
                hi = min(lo + SCAN_BLOCK, last + 1)
                block = self.weights(np.arange(lo, hi, dtype=float))
                if not (block.min() >= 0.0 and block.max() <= 1.0):  # NaN fails both
                    i = int(np.flatnonzero((block < 0.0) | (block > 1.0) | ~np.isfinite(block))[0])
                    raise ValidationError(f"{where}: weight {float(block[i])!r} out of [0, 1] at n={lo + i}")


def constant_weight(value: float) -> WeightForm:
    return WeightForm("const", {"value": value})


def parse_weight_form(obj, where: str = "mu") -> WeightForm:
    """Accept a number or numeric string (constant weight) or {"form": ..., "params": ...}."""
    if isinstance(obj, (int, float, str)):
        return constant_weight(number(obj, where))
    if isinstance(obj, dict):
        spec_object(obj, where, ("form", "params"), required=("form",))
        form = spec_string(obj["form"], f"{where}.form")
        return WeightForm(form, form_params(obj.get("params", {}), f"{where}.params"))
    raise SpecError(f"{where}: expected a number or a weight-form object, got {type(obj).__name__}")


def weight_form_to_obj(w: WeightForm):
    if w.form == "const":
        return w.params["value"]
    return {"form": w.form, "params": dict(w.params)}

