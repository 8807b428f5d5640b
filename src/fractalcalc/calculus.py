"""Derivatives and integrals taken with respect to a staircase.

A GridFunction stores samples of a scalar function at points of the set
underlying a StaircaseTable.  Differentiation is the difference quotient in
staircase value rather than in time, and integration is the left sum of
values against staircase increments; both collapse to the classical
operations when the staircase is the identity.
"""

from dataclasses import dataclass

import numpy as np

from .cantor import _built, _max_samples, _query, _search, _Value
from .errors import ParameterError, ResolutionError, _count, _kind, _real, _reals
from .fde import _apply
from .staircase import StaircaseTable, eval_staircase


def in_set(table: StaircaseTable, t: float) -> bool:
    """Whether the real number t lies in the depth-m set the table was built from."""
    if _reals("t", t).ndim:
        raise ParameterError("t must be one real number")
    return _query("t", t, lambda x: _search(table.t, x)[1],
                  *_kind("table", table, StaircaseTable).span)


def set_samples(table: StaircaseTable, per_segment: int = 0) -> np.ndarray:
    """Set points of the table: breakpoints plus interior samples.

    With per_segment = 0 this is just the breakpoint grid.  Positive values
    insert that many uniformly spaced points inside every covering segment,
    which matters for convergence studies: on the bare breakpoint grid the
    difference quotients of any function of the staircase value telescope
    and integrate it exactly, so refinement effects only show up once
    segments carry interior samples.  The breakpoints are read as pairs of
    segment ends (l0, r0, l1, r1, ...): an odd count is a ParameterError.
    """
    t = _kind("table", table, StaircaseTable).t
    if t.size % 2:
        raise ParameterError(f"set_samples reads breakpoints in pairs; this table has {t.size}")
    # each of the t.size / 2 segments gets its two ends and per_segment points
    per_segment = _count("per_segment", per_segment, 0, _max_samples() // (t.size // 2) - 2)
    if per_segment == 0:
        return t.copy()
    lefts = t[0::2]
    rights = t[1::2]
    w = np.linspace(0.0, 1.0, per_segment + 2)
    return (lefts[:, None] + w[None, :] * (rights - lefts)[:, None]).ravel()


@dataclass(frozen=True, eq=False)
class GridFunction(_Value):
    """Function samples pinned to set points of a staircase table.

    ``t`` must be strictly increasing set points of the table, ``s`` the
    staircase there and ``values`` one real number per point; a caller's
    arrays are held as read-only copies.  A grid equal to the table's
    ``t``, such as ``from_function``'s default, is held as the table's own
    ``t``, also by a copy, rebuilt on the copied table.
    """

    table: StaircaseTable
    t: np.ndarray
    s: np.ndarray
    values: np.ndarray

    def _check(self):
        made = self.from_values(self.table, self.t, self.values)
        if not np.array_equal(_reals("s", self.s), made.s):
            raise ParameterError("s must be the table's staircase at t")
        return {"t": made.t, "s": made.s, "values": made.values}

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
        grid, s, theirs = cls._at_set_points(
            table, _kind("table", table, StaircaseTable).t if t is None else t)
        values = _apply(fn, grid)
        return _built(cls, theirs + (values,), table=table, t=grid, s=s, values=values)

    @classmethod
    def from_values(cls, table: StaircaseTable, t, values) -> "GridFunction":
        grid, s, theirs = cls._at_set_points(table, t)
        checked = _reals("values", values)
        if checked.shape != grid.shape:
            raise ParameterError("t and values must have matching shapes")
        return _built(cls, theirs + (values,), table=table, t=grid, s=s, values=checked)

    @staticmethod
    def _at_set_points(table, t):
        """``t``, or the table's own ``t`` if they are equal, S there, and what to copy.

        ``t`` must be a non-empty, strictly increasing array of set points;
        S comes from ``eval_staircase`` and membership from ``_search``.
        """
        grid = np.atleast_1d(_reals("t", t))
        if grid is not _kind("table", table, StaircaseTable).t and np.array_equal(grid, table.t):
            grid = table.t
        s = eval_staircase(table, grid)
        bad = grid[~_search(table.t, grid)[1]]
        if bad.size:
            raise ParameterError(
                f"{bad.size} sample point(s) fall outside the set, first: {bad[0]!r}")
        if grid.ndim != 1 or grid.size == 0:
            raise ParameterError("sample grid must be a non-empty 1-d array")
        if np.any(grid[1:] <= grid[:-1]):
            raise ParameterError("sample grid must be strictly increasing")
        return grid, s, () if grid is table.t else (t,)


def _quotients(f: GridFunction, lo, hi):
    """(values[hi] - values[lo]) / (s[hi] - s[lo]) for sample indices or slices.

    Both derivatives form their quotients here.  Fewer than two samples, or
    a pair of samples between which S does not advance, is a ResolutionError.
    """
    if len(f) < 2:
        raise ResolutionError("a difference quotient needs two samples")
    ds = f.s[hi] - f.s[lo]
    if np.any(ds <= 0.0):
        raise ResolutionError("staircase does not advance between two samples; refine the grid")
    return (f.values[hi] - f.values[lo]) / ds


def fractal_derivative(f: GridFunction, t: float) -> float:
    """Difference quotient of f in staircase value at the sample point t.

    Points off the set return 0.0 by convention; at a stored sample this is
    the value ``derivative_grid`` gives there.
    """
    if not in_set(_kind("f", f, GridFunction).table, t):  # raises DomainError outside the span
        return 0.0
    t = float(t)
    i = int(np.searchsorted(f.t, t))
    if i >= len(f) or f.t[i] != t:
        raise ParameterError(
            f"t={t!r} is in the set but is not one of the stored samples")
    return float(_quotients(f, max(i - 1, 0), min(i + 1, len(f) - 1)))


def derivative_grid(f: GridFunction) -> GridFunction:
    """Fractal derivative at every stored sample, as a new GridFunction.

    Interior samples take the symmetric quotient, the first and last the
    one-sided quotient to their one neighbour.
    """
    n = len(_kind("f", f, GridFunction))
    interior = _quotients(f, slice(0, n - 2), slice(2, n))
    out = np.concatenate(([_quotients(f, 0, 1)], interior, [_quotients(f, n - 2, n - 1)]))
    return _built(GridFunction, table=f.table, t=f.t, s=f.s, values=out)


def fractal_integral(f: GridFunction, a: float, b: float) -> float:
    """Left sum of f against staircase increments over [a, b].

    The samples in [a, b] must carry its mass: S may not rise between a
    bound and its nearest sample, nor across [a, b] where no sample lies in
    it; otherwise it is a ResolutionError.  With one sample or none the sum
    is empty, 0.0.  Each bound is one real number in the table's span; a
    NaN bound, like one outside the span, is a DomainError.
    """
    a = _query("a", _real("a", a), lambda x: x, *_kind("f", f, GridFunction).table.span)
    b = _query("b", _real("b", b), lambda x: x, *f.table.span)
    if not a < b:
        raise ParameterError("integration bounds need a < b")
    inside = slice(int(np.searchsorted(f.t, a, side="left")),
                   int(np.searchsorted(f.t, b, side="right")))
    s, v = f.s[inside], f.values[inside]
    sa, sb = eval_staircase(f.table, [a, b])
    if (s[0] != sa or s[-1] != sb) if s.size else sa != sb:
        raise ResolutionError(
            f"the samples in [{a}, {b}] miss mass that accrues next to a bound")
    return float(np.sum(v[:-1] * np.diff(s)))
