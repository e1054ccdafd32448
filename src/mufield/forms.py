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

def check_params(form: str, params, names) -> None:
    """Refuse params whose keys are not exactly names, the parameters of form."""
    spec_object(params, f"form {form!r} params", names, required=names)


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
    """A registered closed form of the index n, e.g. log(n) + c."""

    form: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.form not in VALUE_FORM_IDS:
            raise SpecError(f"unknown value form {self.form!r}; known: {VALUE_FORM_IDS}")
        check_params(self.form, self.params, _VALUE_FORM_PARAMS[self.form])

    def terms(self, n):
        """Evaluate the form at n (scalar or array of indices)."""
        p = self.params
        if self.form == "log_n_plus_c":
            return np.log(n) + p["c"]
        if self.form == "exp_n_plus_c":
            return np.exp(n) + p["c"]
        if self.form == "sq_ratio":
            return (1.0 + 1.0 / n) ** 2
        # moebius: (a n + b) / (c n + d)
        return (p["a"] * n + p["b"]) / (p["c"] * n + p["d"])

    def term_at(self, n: int) -> float:
        return float(self.terms(np.array([n], dtype=float))[0])


@dataclass(frozen=True)
class WeightForm:
    """A registered weight form of the index n with range [0, 1]."""

    form: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.form not in WEIGHT_FORM_IDS:
            raise SpecError(f"unknown weight form {self.form!r}; known: {WEIGHT_FORM_IDS}")
        check_params(self.form, self.params, _WEIGHT_FORM_PARAMS[self.form])

    def weights(self, n: np.ndarray) -> np.ndarray:
        """Evaluate the weight at an array of indices."""
        if self.form == "const":
            return np.full_like(n, float(self.params["value"]), dtype=float)
        if self.form == "rational_poly":  # a pole or 0/0 gives inf or NaN, which validate_range refuses
            with np.errstate(all="ignore"):
                p, q = _horner(self.params["p"], n), _horner(self.params["q"], n)
                return np.divide(p, q, out=p)
        # inv_exp_p1_sq: 1 / (e^n + 1)^2, computed stably for large n
        e = np.exp(-n)
        return np.exp(-2.0 * n) / (1.0 + e) ** 2

    def validate_range(self, n_min: int, n_max: int, where: str = "weight form") -> np.ndarray:
        """The weights over the index range [n_min, n_max], in one array; a
        ValidationError names the first n whose weight is outside [0, 1]."""
        ws = self.weights(np.arange(n_min, n_max + 1, dtype=float))
        if not (ws.min() >= 0.0 and ws.max() <= 1.0):  # NaN fails both
            i = int(np.flatnonzero((ws < 0.0) | (ws > 1.0) | ~np.isfinite(ws))[0])
            raise ValidationError(f"{where}: weight {float(ws[i])!r} out of [0, 1] at n={n_min + i}")
        return ws


def constant_weight(value: float) -> WeightForm:
    return WeightForm("const", {"value": float(value)})


def form_params(params, where: str) -> dict:
    """The params of a value, weight or sequence form with every field converted:
    p and q non-empty lists of numbers, points a map of integer index to number,
    anything else a number. A SpecError names the field that does not convert."""
    out = {}
    for k, v in spec_object(params, f"{where}.params").items():
        at = f"{where}.params.{k}"
        if k in ("p", "q"):
            out[k] = [number(c, f"{at}[{i}]") for i, c in enumerate(spec_array(v, at, nonempty=True))]
        elif k == "points":
            out[k] = {number(n, at, int): number(t, f"{at}[{n}]") for n, t in spec_object(v, at).items()}
        else:
            out[k] = number(v, at)
    return out


def parse_weight_form(obj, where: str = "mu") -> WeightForm:
    """Accept a bare number (constant weight) or {"form": ..., "params": ...}."""
    if isinstance(obj, (int, float)):
        return constant_weight(number(obj, where))
    if isinstance(obj, dict):
        spec_object(obj, where, ("form", "params"), required=("form",))
        return WeightForm(spec_string(obj["form"], f"{where}.form"), form_params(obj.get("params", {}), where))
    raise SpecError(f"{where}: expected a number or a weight-form object, got {type(obj).__name__}")


def weight_form_to_obj(w: WeightForm):
    if w.form == "const":
        return float(w.params["value"])
    return {"form": w.form, "params": dict(w.params)}

