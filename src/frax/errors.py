"""Exception types, and the type rules of argument checks, shared across the package."""

from __future__ import annotations

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


def _real(v: object) -> bool:
    """Any ``numbers.Real`` but ``bool`` (numpy scalars included)."""
    return type(v) is float or (isinstance(v, numbers.Real) and not isinstance(v, bool))


def _integer(v: object, least: int) -> bool:
    """Any ``numbers.Integral`` but ``bool`` that is >= ``least``."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least
