"""The numpy-free bottom of the package: the error bases, the one integer
and the one real-number rule of every reader, the one integer floor, the
one seed range and the one range of every count and scale.  ``measures``
re-exports the error bases and the two rules; the CLI reads a config and
reports its errors without numpy."""

from __future__ import annotations

import functools
import math
import sys


class InvalidInput(Exception):
    """Base class of the input a check rejects: the CLI exits 2."""


class NumericFailure(Exception):
    """Base class of the numeric preconditions that fail mid-run: the CLI exits 4."""


class NotANumber(ValueError):
    """A number read from input that is not one: a bool, a string, a list."""


class NotAnInteger(NotANumber):
    """A count, size or mask read from input that is not an integral number."""


class OutOfRange(ValueError):
    """A count below its floor or a scale outside its range."""


def numpy_types(*paths: str) -> tuple:
    """numpy's classes at the dotted paths, or () while numpy is not imported:
    no value or error can be an instance of them then."""
    np = sys.modules.get("numpy")
    return tuple(functools.reduce(getattr, path.split("."), np) for path in paths if np)


def as_integer(value, name: str) -> int:
    """value as an int, or NotAnInteger unless it is an integral number (a
    bool or a string is not; 4.0 is): the one integer rule of every reader."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            and not isinstance(value, numpy_types("integer")) \
            or isinstance(value, float) and not value.is_integer():
        raise NotAnInteger(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """value as a float, or NotANumber unless it is an int or a float (a bool
    or a string is not; NaN is, and is left to the caller's range check):
    the one real-number rule of every reader."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            and not isinstance(value, numpy_types("integer", "floating")):
        raise NotANumber(f"{name} must be a real number, got {value!r}")
    return float(value)


def at_least(value, name: str, low: int) -> int:
    """value read by as_integer, or OutOfRange below low: the one integer floor."""
    if (count := as_integer(value, name)) < low:
        raise OutOfRange(f"{name} must be at least {low}, got {count}")
    return count


def as_seed(value, name: str) -> int:
    """value read by as_integer, or OutOfRange outside [0, 2^64): the one seed rule."""
    if not 0 <= (seed := as_integer(value, name)) < 1 << 64:
        raise OutOfRange(f"{name} must lie in [0, 2^64), got {seed}")
    return seed


def in_range(value, name: str, upper: float = math.inf, zero_ok: bool = False) -> float:
    """value read by as_real, or OutOfRange unless it lies in (0, upper), or in
    [0, upper) when zero_ok (NaN lies in neither): the one range of a scale."""
    x = as_real(value, name)
    if not (0.0 <= x if zero_ok else 0.0 < x) or not x < upper:
        raise OutOfRange(f"{name} must lie in {'[' if zero_ok else '('}0, {upper}), got {x!r}")
    return x
