"""Exception hierarchy shared across the package, the config checks that
raise ValidationError, and the one refusal of work that cannot be held."""

import dataclasses
import numbers
import sys
from contextlib import contextmanager

try:
    import resource
except ImportError:  # not on every platform
    resource = None


class CoevoBnError(Exception):
    """Base class for all package errors."""


class ValidationError(CoevoBnError):
    """A domain invariant was violated; the message names the invariant."""


class SchemaError(CoevoBnError):
    """Two artifacts (network, dataset, assignment) have incompatible shapes."""


class ParseError(CoevoBnError):
    """A file could not be parsed; the message carries line/field context."""


class EmptyDataError(CoevoBnError):
    """A score comparison was requested on a dataset with no rows."""


class EncodingError(CoevoBnError):
    """An (ordering, bits) pair is not a permutation plus n(n-1)/2 bits."""


class EngineError(CoevoBnError):
    """The evolution engine was driven outside its contract."""


@contextmanager
def refuse_out_of_memory(what: str, need: int):
    """Refuse with ValidationError "out of memory <what> <need> bytes" a block
    that runs out of memory, or whose `need` bytes pass sys.maxsize or the
    process's soft RLIMIT_AS, where one is set."""
    too_big = ValidationError(f"out of memory {what} {need} bytes")
    limit = sys.maxsize
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limit = min(limit, soft)
    if need > limit:
        raise too_big
    try:
        yield
    except MemoryError:
        raise too_big from None


def is_number(value, integer: bool = False) -> bool:
    """A real number (an integer if `integer`); a bool never counts."""
    return not isinstance(value, bool) and \
        isinstance(value, numbers.Integral if integer else numbers.Real)


def check_number(name: str, value, integer: bool = False, low=None,
                 high=None) -> None:
    """Reject anything but is_number(value, integer) inside [low, high],
    where those bounds are given."""
    if not is_number(value, integer):
        raise ValidationError(
            f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}"
        )
    if not (low is None or value >= low) or not (high is None or value <= high):
        bounds = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise ValidationError(f"{name} must {bounds}, got {value!r}")


def check_keys(doc, known, what: str) -> dict:
    """Return `doc` if it is a JSON object whose keys all lie in `known`;
    otherwise raise ValidationError naming the offending keys."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(known)
    if unknown:
        raise ValidationError(f"unknown {what} fields: {sorted(unknown)}")
    return doc


def config_from_dict(cls, doc, what: str):
    """Build the config dataclass `cls` from a JSON object of its fields."""
    known = [f.name for f in dataclasses.fields(cls)]
    return cls(**check_keys(doc, known, what))
