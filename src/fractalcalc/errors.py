"""Exception types shared across the library, and its argument checks."""

import numbers


class FractalCalcError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(FractalCalcError, ValueError):
    """An argument or specification is invalid (wrong range, wrong shape, ...)."""


class DomainError(FractalCalcError):
    """An evaluation was requested outside the span a table covers."""


class ResolutionError(FractalCalcError):
    """The requested quantity cannot be resolved at the available depth."""


class EstimationError(FractalCalcError):
    """Dimension estimation failed to bracket a crossing.

    Carries the diagnostic sweep so callers can inspect what was tried.
    """

    def __init__(self, message, alphas=None, ratios=None):
        super().__init__(message)
        self.alphas = alphas
        self.ratios = ratios


class NumericalBlowupError(FractalCalcError):
    """An integrated state exceeded the blow-up limit.

    ``trajectory`` holds the samples recorded up to the failing step, or None
    when the caller could not assemble one.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class PreconditionError(FractalCalcError):
    """A verifier refused to run because required assumptions failed.

    ``failing`` lists the names of the conditions that did not hold.
    """

    def __init__(self, message, failing=()):
        super().__init__(message)
        self.failing = tuple(failing)


class ExpressionError(ParameterError):
    """A user-supplied expression was rejected by the safe evaluator."""


def _real(name, value, interval):
    """Return ``value`` as a float if it is a real number in ``interval``.

    ``interval`` reads like "(0, 1]": a bracket includes its end and a
    parenthesis excludes it, so inf passes only behind a bracket.  Numpy
    scalars are real numbers; a bool, a string, None, NaN and an int too
    large for a float are not.
    """
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            raise ParameterError(f"{name} is beyond the float range") from None
        if ((lo < x if interval[0] == "(" else lo <= x)
                and (x < hi if interval[-1] == ")" else x <= hi)):
            return x
    raise ParameterError(f"{name} must be a real number in {interval}, got {value!r}")


def _count(name, value, minimum, maximum=None):
    """Return ``value`` as an int if it is an integer in [minimum, maximum].

    Numpy integers count; a bool or a float (even 10.0) does not, nor does
    an int of 2**63 or more, which no numpy size or index can hold.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if value >= 2 ** 63:
            raise ParameterError(f"{name} is beyond the 64-bit integer range")
        if value >= minimum and (maximum is None or value <= maximum):
            return int(value)
    bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    raise ParameterError(f"{name} must be an integer {bound}, got {value!r}")
