"""Error hierarchy shared by all modules.

Two families matter to callers: requests that were malformed to begin with
(UsageError and subclasses, CLI exit 2) and evaluations that are undefined
at the supplied point (DomainError and subclasses, CLI exit 1).

The parsers of flags and documents decode their JSON through spec_document(),
convert their fields through number() and check their objects through
spec_object(), which also refuses any key the reader does not read, so a
malformed field or an unread key is a usage error that names it, never a raw
TypeError or ValueError, and never silently dropped. number() refuses NaN and
the infinities too, which would make a verdict or a rule silently wrong.
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
    """convert(value), or an error naming where when that fails or is not finite."""
    try:
        out = convert(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if convert is int else "a number"
        raise error(f"{where}: expected {what}, got {value!r}") from None
    if convert is float and not math.isfinite(out):
        raise error(f"{where}: expected a finite number, got {value!r}")
    return out


def spec_object(value, where: str, keys=None) -> dict:
    """value when it is an object (a dict) with no key outside keys; a SpecError
    naming where otherwise. keys None is a map whose keys are data, not names."""
    if not isinstance(value, dict):
        raise SpecError(f"{where}: expected an object, got {type(value).__name__}")
    unknown = [] if keys is None else sorted(str(k) for k in value.keys() - set(keys))
    if unknown:
        raise SpecError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))};"
                        f" known: {', '.join(sorted(keys)) or 'none'}")
    return value


def spec_array(value, where: str) -> list:
    """value when it is an array (a list); a SpecError naming where otherwise."""
    if not isinstance(value, list):
        raise SpecError(f"{where}: expected an array, got {type(value).__name__}")
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
