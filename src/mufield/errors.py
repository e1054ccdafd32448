"""Error hierarchy shared by all modules, and the readers of outside input.

Two families matter to callers: requests that were malformed to begin with
(UsageError and subclasses, CLI exit 2) and evaluations that are undefined
at the supplied point (DomainError and subclasses, CLI exit 1).

Every parser of flags and documents decodes its JSON through spec_document()
and reads each field through a reader here; none checks a field's presence or
type itself. So a malformed field or an unread key is a usage error naming it,
never a raw TypeError and never silently dropped. The four reading rules:

1. spec_object: an object, with no key its reader does not read and no
   required key missing ("where: missing 'k'").
2. number: a finite number or a numeric string; true, false, NaN and the
   infinities are refused, and so is a fractional number where an integer
   is read.
3. spec_string and spec_array: a string, an array.
4. An optional field is absent, and takes its default, or present and read:
   0, [], "" or null there is refused, and {} for the keys it lacks.

check_eps is the one reader of an eps, from a document or from the API: a
finite number > 0.

Value rules stay with the objects built: a moebius sequence, for one, refuses
a pole in its index range, found from -d/c without evaluating a term.
"""

import math


class MuFieldError(Exception):
    """Base class for all library errors."""


class UsageError(MuFieldError):
    """Malformed request: wrong arity, empty input, unknown name."""


class SpecError(UsageError):
    """A structured document failed to parse against its schema."""


class ValidationError(UsageError):
    """A constructed object violates one of its invariants."""


class DomainError(MuFieldError):
    """Evaluation is undefined at the supplied point (e.g. Log 0)."""


class RangeGuardError(DomainError):
    """An overflow guard declined to evaluate."""


def number(value, where: str, convert=float, error=SpecError):
    """convert(value), or an error naming where when that fails, is not finite, or
    (convert int) would drop a fractional part: 1e5 reads as 100000, 1.5 is refused."""
    try:
        if isinstance(value, bool):  # JSON true or false, which convert reads as 1 or 0
            raise TypeError
        out = convert(value)
        if convert is int and out != value and not isinstance(value, str):  # int(1.5) is 1
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if convert is int else "a number"
        raise error(f"{where}: expected {what}, got {value!r}") from None
    if convert is float and not math.isfinite(out):
        raise error(f"{where}: expected a finite number, got {value!r}")
    return out


def check_eps(eps, what: str) -> None:
    """Refuse an eps that is not a finite number > 0: a NaN eps would be met at once,
    an infinite one by everything."""
    try:
        ok = math.isfinite(eps) and eps > 0.0
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"{what} must be a finite number > 0, got {eps!r}")


def spec_object(value, where: str, keys=None, required=(), error=SpecError) -> dict:
    """value when it is an object (a dict) with no key outside keys and each in required;
    an error naming where otherwise. keys None is a map whose keys are data, not names."""
    if not isinstance(value, dict):
        raise error(f"{where}: expected an object, got {type(value).__name__}")
    unknown = [] if keys is None else sorted(str(k) for k in value.keys() - set(keys))
    if unknown:
        raise error(f"{where}: unknown key(s) {', '.join(map(repr, unknown))};"
                    f" known: {', '.join(sorted(keys)) or 'none'}")
    for k in required:
        if k not in value:
            raise error(f"{where}: missing {k!r}")
    return value


def spec_string(value, where: str) -> str:
    """value when it is a string; a SpecError naming where otherwise."""
    if not isinstance(value, str):
        raise SpecError(f"{where}: expected a string, got {type(value).__name__}")
    return value


def spec_array(value, where: str, nonempty=False, error=SpecError) -> list:
    """value when it is an array (a list), a non-empty one if nonempty; an error naming where otherwise."""
    if not isinstance(value, list):
        raise error(f"{where}: expected an array, got {type(value).__name__}")
    if nonempty and not value:
        raise error(f"{where}: expected a non-empty array")
    return value


def spec_document(text_or_doc, where: str):
    """The decoded JSON of text, or text_or_doc itself when it is already decoded."""
    if not isinstance(text_or_doc, (bytes, str)):
        return text_or_doc
    import json  # on first use, so that `import mufield` stays without it

    try:
        return json.loads(text_or_doc)
    except json.JSONDecodeError as e:
        raise SpecError(f"{where}: invalid JSON ({e})") from e
