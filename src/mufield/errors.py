"""Error hierarchy shared by all modules.

Two families matter to callers: requests that were malformed to begin with
(UsageError and subclasses, CLI exit 2) and evaluations that are undefined
at the supplied point (DomainError and subclasses, CLI exit 1).

The parsers of flags and documents decode their JSON through spec_document(),
convert their fields through number() and check their nested objects through
spec_object(), so a malformed field is a usage error that names it, never a
raw TypeError or ValueError.
"""


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


def number(value, where: str, kind=float, error=SpecError):
    """kind(value), or an error naming where when that fails."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise error(f"{where}: expected {what}, got {value!r}") from None


def spec_object(value, where: str) -> dict:
    """value when it is an object (a dict); a SpecError naming where otherwise."""
    if not isinstance(value, dict):
        raise SpecError(f"{where}: expected an object, got {type(value).__name__}")
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
