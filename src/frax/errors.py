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
