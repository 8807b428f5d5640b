"""Exception types shared across the library, and its argument checks."""

import numbers

import numpy as np


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


def _inside(x, interval):
    """Whether x, a float or an array, lies in ``interval``; NaN does not."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return ((lo < x if interval[0] == "(" else lo <= x)
            & (x < hi if interval[-1] == ")" else x <= hi))


def _real(name, value, interval=None):
    """Return ``value`` as a float if it is a real number in ``interval``.

    ``interval`` reads like "(0, 1]": a bracket includes its end and a
    parenthesis excludes it, so inf passes only behind a bracket; with no
    interval NaN passes too.  Numpy scalars are real numbers; a bool, a
    string, None and an int too large for a float are not.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            raise ParameterError(f"{name} is beyond the float range") from None
        if interval is None or _inside(x, interval):
            return x
    where = "" if interval is None else f" in {interval}"
    raise ParameterError(f"{name} must be a real number{where}, got {value!r}")


def _reals(name, x, interval=None):
    """Return ``x`` as a float64 array if it holds only real numbers in ``interval``.

    A scalar is judged as by ``_real``, and comes back 0-d; an array-like by
    the dtype numpy gives it: integer or floating, never bool, complex,
    string, ragged or object (an int too large for a float gives that).  A
    float64 array comes back as it is, with no copy.
    """
    if isinstance(x, numbers.Real):
        return np.asarray(_real(name, x, interval))
    try:
        arr = np.asarray(x)
    except ValueError:
        raise ParameterError(f"{name} must be a regular array of real numbers") from None
    if arr.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must hold real numbers only, got {arr.dtype} values")
    if interval is not None and not np.all(_inside(arr, interval)):
        raise ParameterError(f"{name} must lie in {interval}")
    return arr.astype(float, copy=False)


def _grid(name, x, interval):
    """Return ``x`` through ``_reals`` if it is a non-empty 1-d array."""
    arr = _reals(name, x, interval)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{name} must be a non-empty 1-d array")
    return arr


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


def _function(name, fn, optional=False):
    """Raise a ParameterError unless ``fn`` is callable, or None when ``optional``."""
    if not (callable(fn) or optional and fn is None):
        what = "a callable or None" if optional else "a callable"
        raise ParameterError(f"{name} must be {what}, got {type(fn).__name__}")
