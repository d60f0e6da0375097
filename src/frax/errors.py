"""Exception types, and the type rules of argument checks, shared across the package."""

from __future__ import annotations

import math
import numbers


class FraxError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FraxError, ValueError):
    """A parameter or argument lies outside the supported domain."""


class NonConvergence(FraxError, ArithmeticError):
    """A series or iteration failed to reach the requested accuracy.

    The message records the evaluator, the argument, and the diagnostic
    (term count exhausted, cancellation estimate too large, overflow).
    """


class Unstable(FraxError, ArithmeticError):
    """A numerical Laplace transform could not certify its value: the two
    levels of its fixed rule (Talbot contour sizes for the inversion,
    exp-sinh steps for the forward transform) disagree or are not finite."""


class Unsupported(FraxError, ValueError):
    """The requested (operation, model) combination has no implementation."""


def _finite(v: object) -> float:
    """``v`` as a float if it is a ``numbers.Real`` but ``bool`` (numpy
    scalars included) of finite float value, else NaN.

    A real past the float range (a Python int of 10**400, say) is NaN, not
    an ``OverflowError``; NaN fails every comparison, so a check such as
    ``_finite(t) > 0.0`` refuses all of these at once.
    """
    if type(v) is not float:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            return math.nan
        try:
            v = float(v)
        except OverflowError:
            return math.nan
    return v if math.isfinite(v) else math.nan


def _integer(v: object, least: int) -> bool:
    """Any ``numbers.Integral`` but ``bool`` that is >= ``least``."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _positive(obj: object, *names: str) -> None:
    """Check that each named dataclass field is a finite real > 0; store it as a float."""
    for name in names:
        v = getattr(obj, name)
        x = _finite(v)
        _require(x > 0.0, f"{type(obj).__name__}.{name} must be positive and finite, got {v!r}")
        object.__setattr__(obj, name, x)


def _count(obj: object, name: str) -> None:
    """Check that a dataclass field is an integer >= 1; store it as an int."""
    v = getattr(obj, name)
    _require(_integer(v, 1), f"{type(obj).__name__}.{name} must be an integer >= 1, got {v!r}")
    object.__setattr__(obj, name, int(v))


def _time(t: object, what: str, zero: bool = False) -> float:
    """``t`` as a float if it is a finite real (see ``_finite``) > 0, or >= 0
    with ``zero``; anything else raises :class:`DomainError` naming ``what``."""
    x = _finite(t)
    if x > 0.0 or (zero and x == 0.0):
        return x
    raise DomainError(f"{what} requires finite t {'>=' if zero else '>'} 0, got {t!r}")


def _reals(obj: object, *names: str) -> None:
    """Check that each named dataclass field is a finite real (see ``_finite``); store it as a float."""
    for name in names:
        v = getattr(obj, name)
        x = _finite(v)
        _require(not math.isnan(x), f"{type(obj).__name__}.{name} must be a finite real, got {v!r}")
        object.__setattr__(obj, name, x)
