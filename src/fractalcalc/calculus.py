"""Derivatives and integrals taken with respect to a staircase.

A GridFunction stores samples of a scalar function at points of the set
underlying a StaircaseTable.  Differentiation is the difference quotient in
staircase value rather than in time, and integration is the left sum of
values against staircase increments; both collapse to the classical
operations when the staircase is the identity.
"""

from dataclasses import dataclass

import numpy as np

from .cantor import _built, _locked, _max_samples, _query, _same, _search
from .errors import ParameterError, ResolutionError, _count, _real, _reals
from .fde import _apply
from .staircase import StaircaseTable, eval_staircase


def in_set(table: StaircaseTable, t: float) -> bool:
    """Whether the real number t lies in the depth-m set the table was built from."""
    if _reals("t", t).ndim:
        raise ParameterError("t must be one real number")
    return _query("t", t, lambda x: _search(table.t, x)[1], *table.span)


def set_samples(table: StaircaseTable, per_segment: int = 0) -> np.ndarray:
    """Set points of the table: breakpoints plus interior samples.

    With per_segment = 0 this is just the breakpoint grid.  Positive values
    insert that many uniformly spaced points inside every covering segment,
    which matters for convergence studies: on the bare breakpoint grid the
    difference quotients of any function of the staircase value telescope
    and integrate it exactly, so refinement effects only show up once
    segments carry interior samples.
    """
    t = table.t
    # each of the t.size / 2 segments gets its two ends and per_segment points
    per_segment = _count("per_segment", per_segment, 0, _max_samples() // (t.size // 2) - 2)
    if per_segment == 0:
        return t.copy()
    lefts = t[0::2]
    rights = t[1::2]
    w = np.linspace(0.0, 1.0, per_segment + 2)
    return (lefts[:, None] + w[None, :] * (rights - lefts)[:, None]).ravel()


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Function samples pinned to set points of a staircase table.

    ``t`` must be strictly increasing set points of the table and ``s`` the
    staircase there, equal to what ``_at_set_points`` computes.  The
    constructor checks both; ``from_function``, ``from_values`` and
    ``derivative_grid`` make them so and hand them over through
    ``cantor._built``.  Either way ``_keep`` checks ``values`` against
    ``t`` and locks a copy of it.  The function holds read-only copies of
    every array a caller hands it, so a caller's later write misses them;
    only the table's own ``t``, the default grid of ``from_function``, is
    held as it is.
    """

    table: StaircaseTable
    t: np.ndarray
    s: np.ndarray
    values: np.ndarray

    __eq__ = _same

    def __post_init__(self):
        t, s = self._at_set_points(self.table, self.t)
        given = _reals("s", self.s)
        if given.shape != s.shape or not np.array_equal(given, s):
            raise ParameterError("s must be the table's staircase at t")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", s)
        self._keep()

    def _keep(self):
        """Check ``values`` against ``t`` and lock a copy of it."""
        values = _reals("values", self.values)
        if values.shape != self.t.shape:
            raise ParameterError("t and values must have matching shapes")
        object.__setattr__(self, "values", _locked(values.copy()))

    def __len__(self):
        return int(self.t.size)

    @classmethod
    def from_function(cls, table: StaircaseTable, fn, t=None) -> "GridFunction":
        """Sample ``fn`` at set points; defaults to every breakpoint.

        ``fn`` receives the time array (vectorized call, with a scalar
        fallback).  Supplied grids must consist of set points, and are
        copied like the values ``fn`` returns, so an array the caller holds
        stays theirs; the default grid is the table's own ``t``, uncopied.
        """
        t, s = cls._at_set_points(table, table.t if t is None else t)
        return _built(cls, table=table, t=t, s=s, values=_apply(fn, t))

    @classmethod
    def from_values(cls, table: StaircaseTable, t, values) -> "GridFunction":
        t, s = cls._at_set_points(table, t)
        return _built(cls, table=table, t=t, s=s, values=values)

    @staticmethod
    def _at_set_points(table, t):
        """A read-only copy of ``t``, or the table's own ``t``, and S there.

        ``t`` must be a non-empty, strictly increasing array of set points.
        """
        t = np.atleast_1d(_reals("t", t))
        if t is not table.t:
            t = _locked(t.copy())

        def s_on_set(x):
            # S is never NaN, so NaN marks the points off the set
            return np.where(_search(table.t, x)[1], np.interp(x, table._t, table._s), np.nan)

        s = _query("t", t, s_on_set, *table.span)
        bad = t[np.isnan(s)]
        if bad.size:
            raise ParameterError(
                f"{bad.size} sample point(s) fall outside the set, first: {bad[0]!r}")
        if t.ndim != 1 or t.size == 0:
            raise ParameterError("sample grid must be a non-empty 1-d array")
        if np.any(t[1:] <= t[:-1]):
            raise ParameterError("sample grid must be strictly increasing")
        return t, _locked(s)


def fractal_derivative(f: GridFunction, t: float) -> float:
    """Difference quotient of f in staircase value at the sample point t.

    Points off the set return 0.0 by convention.  Interior samples use the
    symmetric quotient (values[i+1] - values[i-1]) / (s[i+1] - s[i-1]); the
    first and last samples fall back to one-sided quotients.
    """
    if not in_set(f.table, t):  # raises DomainError outside the span
        return 0.0
    t = float(t)
    i = int(np.searchsorted(f.t, t))
    if i >= len(f) or f.t[i] != t:
        raise ParameterError(
            f"t={t!r} is in the set but is not one of the stored samples")
    if len(f) < 2:
        raise ResolutionError("cannot form a quotient from a single sample")
    lo = max(i - 1, 0)
    hi = min(i + 1, len(f) - 1)
    ds = f.s[hi] - f.s[lo]
    if ds <= 0.0:
        raise ResolutionError(
            f"staircase does not advance around t={t!r}; refine the grid")
    return float((f.values[hi] - f.values[lo]) / ds)


def derivative_grid(f: GridFunction) -> GridFunction:
    """Fractal derivative at every stored sample, as a new GridFunction."""
    if len(f) < 2:
        raise ResolutionError("cannot form quotients from fewer than two samples")
    s, v = f.s, f.values
    ds = s[2:] - s[:-2]
    if np.any(ds <= 0.0) or s[1] <= s[0] or s[-1] <= s[-2]:
        raise ResolutionError("staircase stalls inside the sample grid; refine it")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / ds
    out[0] = (v[1] - v[0]) / (s[1] - s[0])
    out[-1] = (v[-1] - v[-2]) / (s[-1] - s[-2])
    return _built(GridFunction, table=f.table, t=f.t, s=f.s, values=out)


def fractal_integral(f: GridFunction, a: float, b: float) -> float:
    """Left sum of f against staircase increments over [a, b].

    Needs at least two samples inside [a, b] unless the staircase is flat
    there, in which case the integral is exactly zero (gaps carry no mass).
    Each bound is one real number in the table's span; a NaN bound, like one
    outside the span, is a DomainError.
    """
    a = _query("a", _real("a", a), lambda x: x, *f.table.span)
    b = _query("b", _real("b", b), lambda x: x, *f.table.span)
    if not a < b:
        raise ParameterError("integration bounds need a < b")
    i0 = int(np.searchsorted(f.t, a, side="left"))
    i1 = int(np.searchsorted(f.t, b, side="right")) - 1
    if i1 - i0 + 1 < 2:
        if eval_staircase(f.table, a) == eval_staircase(f.table, b):
            return 0.0
        raise ResolutionError(
            f"fewer than two samples cover [{a}, {b}] but mass accrues there")
    ds = np.diff(f.s[i0:i1 + 1])
    return float(np.sum(f.values[i0:i1] * ds))
