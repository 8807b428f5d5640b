"""Order-alpha mass sums and the integral staircase of a middle-mu set.

Every quantity here reduces to one building block, the lower sum

    L_alpha(Q) = Gamma(alpha + 1) * sum_i (t_i - t_{i-1})^alpha * flag_i

over a subdivision Q of [c1, c2], where flag_i is 1 exactly when the open
subinterval (t_{i-1}, t_i) overlaps the set in more than a point.  For
alpha <= 1 splitting a flagged subinterval never decreases the sum while
exposing a gap strictly decreases it, so the infimum over subdivisions is
approached by placing subdivision points at the endpoints of a generated
level and refining by generating deeper.  ``estimate_mass`` exploits this:
it picks the coarsest depth whose interval length is at or below the
requested resolution and sums the clipped covering intervals directly.

The staircase S(t) is the running mass from an anchor t0: piecewise linear
across covering intervals, flat across gaps, and represented as a breakpoint
table that downstream modules (fractal derivatives, ODE time warps) share.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cantor import CantorSpec, IntervalSet, _in_key_order, contains, generate, max_depth
from .errors import DomainError, EstimationError, ParameterError, ResolutionError, _real


@dataclass(frozen=True)
class MassEstimate:
    """Result of a mass computation at one resolution."""

    alpha: float
    delta: float
    value: float
    depth: int


@dataclass(frozen=True)
class StaircaseTable:
    """Breakpoint table for the staircase S(t), anchored so S(t0) = 0.

    ``t`` holds the 2*2^m interval endpoints in increasing order and ``s``
    the staircase values there; linear interpolation between breakpoints
    reproduces S exactly because mass accrues linearly in length^alpha
    within a covering interval and not at all across a gap.

    The arrays passed in as ``t`` and ``s`` are made read-only and kept.
    Queries read them through writable views kept privately, because
    np.interp copies a read-only breakpoint array on every call; an array
    that is read-only already, such as another table's ``t``, is copied once
    here instead.
    """

    alpha: float
    spec: CantorSpec
    t: np.ndarray
    s: np.ndarray
    t0: float
    gamma_factor: float

    def __post_init__(self):
        for name in ("t", "s"):
            arr = np.require(getattr(self, name), dtype=float, requirements=["C", "W"])
            # a view taken before the lock stays writable
            object.__setattr__(self, "_" + name, arr.view())
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def span(self):
        return float(self.t[0]), float(self.t[-1])

    @property
    def s_range(self):
        return float(self.s[0]), float(self.s[-1])

    @property
    def breakpoints(self):
        """The (t, S(t)) pairs as a list of tuples."""
        return list(zip(self.t.tolist(), self.s.tolist()))


def l_alpha_sum(iset: IntervalSet, alpha: float, subdivision) -> float:
    """Lower sum of order alpha for one explicit subdivision.

    Subintervals whose interiors miss the set carry no mass; meeting the set
    only in a boundary point does not count, since such a subinterval can be
    shrunk away when taking the infimum.
    """
    alpha = _real("alpha", alpha, "(0, 1]")
    q = np.asarray(subdivision, dtype=float)
    if q.ndim != 1 or q.size < 2 or not np.all(np.isfinite(q)) \
            or not np.all(np.diff(q) > 0):
        raise ParameterError("subdivision needs two or more finite, increasing points")
    starts, ends = q[:-1], q[1:]
    # first covering interval that ends past the subinterval start
    idx = np.searchsorted(iset.right, starts, side="right")
    safe = np.clip(idx, 0, len(iset) - 1)
    flag = (idx < len(iset)) & (iset.left[safe] < ends)
    return float(math.gamma(alpha + 1.0) * np.sum((ends - starts) ** alpha * flag))


def depth_for_resolution(spec: CantorSpec, delta: float) -> int:
    """Coarsest depth d with base_length * keep_ratio**d <= delta."""
    delta = _real("delta", delta, "(0, inf]")
    cap = max_depth()
    depth = 0
    while spec.base_length * spec.keep_ratio ** depth > delta:
        depth += 1
        if depth > cap:
            raise ResolutionError(
                f"resolving delta={delta!r} needs depth > {cap}; "
                "set FRACTAL_CALC_MAX_DEPTH to raise the cap")
    return depth


def _clip_positive(iset: IntervalSet, c1: float, c2: float):
    # keep only overlaps of positive length; boundary touches carry no mass
    lo = np.maximum(iset.left, c1)
    hi = np.minimum(iset.right, c2)
    keep = hi > lo
    return lo[keep], hi[keep]


def estimate_mass(spec: CantorSpec, alpha: float, c1: float, c2: float,
                  delta: float) -> MassEstimate:
    """Mass of order alpha carried by the set between c1 and c2.

    The estimate is the lower sum over the finest subdivision the resolution
    delta requires, namely the endpoints of the depth-m realization with
    interval length <= delta.  At alpha equal to the similarity dimension the
    result is independent of depth, since each generation multiplies the
    interval count by 2 and length^alpha by 1/2.
    """
    alpha = _real("alpha", alpha, "(0, 1]")
    c1, c2 = _real("c1", c1, "[-inf, inf]"), _real("c2", c2, "[-inf, inf]")
    if not c1 < c2:
        raise ParameterError("mass window needs c1 < c2")
    depth = depth_for_resolution(spec, delta)
    iset = generate(spec.with_depth(depth))
    lo, hi = _clip_positive(iset, c1, c2)
    if lo.size == 0:
        value = 0.0
    else:
        value = float(math.gamma(alpha + 1.0) * np.sum((hi - lo) ** alpha))
    return MassEstimate(alpha=alpha, delta=float(delta), value=value, depth=depth)


def build_staircase(spec: CantorSpec, alpha: float, t0=None) -> StaircaseTable:
    """Tabulate the staircase S(t) over the base interval, anchored at t0.

    S rises by Gamma(alpha+1) * length^alpha across each covering interval of
    the depth-m realization and is flat across gaps; S(t0) = 0 and points
    before the anchor get negative values.
    """
    alpha = _real("alpha", alpha, "(0, 1]")
    t0 = spec.origin if t0 is None else _real("t0", t0, f"[{spec.origin}, {spec.extent}]")
    iset = generate(spec)
    g = math.gamma(alpha + 1.0)
    n = len(iset)
    t = np.empty(2 * n)
    t[0::2] = iset.left
    t[1::2] = iset.right
    del iset
    # each covering interval's rise is worked out in place in the slot of
    # its right end, so the peak is exactly t plus s
    s = np.empty(2 * n)
    rises = s[1::2]
    np.subtract(t[1::2], t[0::2], out=rises)
    rises **= alpha
    rises *= g
    np.cumsum(rises, out=rises)
    s[0] = 0.0
    s[2::2] = s[1:-1:2]
    s -= np.interp(t0, t, s)
    return StaircaseTable(alpha=alpha, spec=spec, t=t, s=s, t0=t0,
                          gamma_factor=g)


def _interp_staircase(table: StaircaseTable, t_arr: np.ndarray) -> np.ndarray:
    """S at the points of t_arr, which must lie in the span; no checks."""
    return _in_key_order(lambda x: np.interp(x, table._t, table._s), t_arr)


def eval_staircase(table: StaircaseTable, t):
    """Evaluate S(t); vectorized, exact at breakpoints and constant on gaps."""
    t_arr = np.asarray(t, dtype=float)
    lo, hi = table.span
    # written so that NaN fails it too
    if not (np.all(t_arr >= lo) and np.all(t_arr <= hi)):
        raise DomainError(f"t outside the tabulated span [{lo}, {hi}] or NaN")
    out = _interp_staircase(table, t_arr)
    if t_arr.ndim == 0:
        return float(out)
    return out


def characteristic(spec: CantorSpec, alpha: float, t):
    """Indicator scaled by 1/Gamma(alpha+1) on the depth-m set, zero off it."""
    alpha = _real("alpha", alpha, "(0, 1]")
    iset = generate(spec)
    t_arr = np.asarray(t, dtype=float)
    inside = contains(iset, t_arr)
    value = 1.0 / math.gamma(alpha + 1.0)
    out = np.where(inside, value, 0.0)
    if t_arr.ndim == 0:
        return float(out)
    return out


def _total_mass(iset: IntervalSet):
    """Total mass of the intervals of ``iset`` as a function of alpha."""
    # one depth has a single interval length; collapse duplicates once, so
    # each alpha raises only the distinct lengths to its power
    vals, counts = np.unique(iset.lengths(), return_counts=True)

    def mass(alpha):
        return float(math.gamma(alpha + 1.0) * np.sum(counts * vals ** alpha))

    return mass


def dimension_sweep(spec: CantorSpec, delta1: float, delta2: float, alphas=None):
    """Mass ratios fine/coarse over a grid of candidate orders.

    Returns (alphas, ratios, ratio_fn) where ratio_fn evaluates the same
    ratio at arbitrary alpha.  Ratios above 1 mean mass still grows under
    refinement (alpha below the dimension); below 1 it decays.
    """
    m1 = depth_for_resolution(spec, delta1)
    m2 = depth_for_resolution(spec, delta2)
    if m2 <= m1:
        raise ParameterError(
            f"delta2={delta2!r} resolves no deeper than delta1={delta1!r}")
    mass1 = _total_mass(generate(spec.with_depth(m1)))
    mass2 = _total_mass(generate(spec.with_depth(m2)))

    def ratio_fn(alpha):
        return mass2(alpha) / mass1(alpha)

    if alphas is None:
        alphas = np.linspace(0.05, 1.0, 96)
    else:
        alphas = np.asarray(alphas, dtype=float)
        if alphas.ndim != 1 or alphas.size < 2 or not np.all(np.diff(alphas) > 0):
            raise ParameterError("alphas must be an increasing grid of >= 2 points")
        if alphas[0] <= 0.0 or alphas[-1] > 1.0:
            raise ParameterError("alphas must lie in (0, 1]")
    ratios = np.array([ratio_fn(a) for a in alphas])
    return alphas, ratios, ratio_fn


def gamma_dimension(spec: CantorSpec, delta1: float, delta2: float,
                    alphas=None, tol: float = 1e-10) -> float:
    """Order at which mass transitions from growing to decaying under refinement.

    Sweeps the ratio of mass estimates at two resolutions over an alpha grid,
    then bisects inside the first bracket where the ratio crosses 1.  Raises
    EstimationError (with the sweep attached) when no crossing exists.
    """
    tol = _real("tol", tol, "(0, inf)")
    return _crossing(*dimension_sweep(spec, delta1, delta2, alphas), tol=tol)


def _crossing(grid, ratios, ratio_fn, tol: float = 1e-10) -> float:
    """First alpha where a dimension sweep's ratio crosses 1, by bisection."""
    diff = ratios - 1.0
    exact = np.flatnonzero(diff == 0.0)
    if exact.size:
        return float(grid[exact[0]])
    brackets = np.flatnonzero(diff[:-1] * diff[1:] < 0.0)
    if brackets.size == 0:
        raise EstimationError(
            "mass ratio does not cross 1 on the alpha grid",
            alphas=grid, ratios=ratios)
    i = int(brackets[0])
    lo, hi = float(grid[i]), float(grid[i + 1])
    flo = diff[i]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the bracket is down to two adjacent floats
        fmid = ratio_fn(mid) - 1.0
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
