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
requested resolution and sums its intervals without building the set,
whole ones at the closed-form mass c and clipped ones at their overlap.

The staircase S(t) is the running mass from an anchor t0: piecewise linear
across covering intervals, flat across gaps, and represented as a breakpoint
table that downstream modules (fractal derivatives, ODE time warps) share.
The integrators' clock maps, ``_tau_horizon`` and ``warp_time``, live here too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cantor import (CantorSpec, IntervalSet, _breakpoints, _built, _check_resolution,
                     _in_key_order, _live_spec, _query, _search, _Value, contains, generate,
                     max_depth)
from .errors import EstimationError, ParameterError, ResolutionError, _kind, _real, _reals

_RAMP = 2 ** 14  # values per row of the s fill; 2^16 shows in a depth-18 build's peak


@dataclass(frozen=True)
class MassEstimate:
    """Result of a mass computation at one resolution."""

    alpha: float
    delta: float
    value: float
    depth: int


@dataclass(frozen=True, eq=False)
class StaircaseTable(_Value):
    """Breakpoint table for the staircase S(t), anchored so S(t0) = 0.

    ``t`` holds the 2*2^m interval endpoints in increasing order and ``s``
    the staircase values there; linear interpolation between breakpoints
    reproduces S exactly because mass accrues linearly in length^alpha
    within a covering interval and not at all across a gap.

    ``alpha`` must lie in (0, 1] and ``t0`` be finite, and ``t`` and ``s``
    must be non-empty 1-d arrays of one size, finite and nondecreasing.
    The table holds copies of them as the handles ``_t`` and ``_s``, which
    queries read.  ``build_staircase`` hands its own over, unchecked and
    uncopied: ``_t`` is the one the sets and tables of an equal spec share,
    also a copy of the table, which ``build_staircase`` rebuilds.
    """

    alpha: float
    spec: CantorSpec
    t: np.ndarray
    s: np.ndarray
    t0: float

    def _check(self):
        alpha, t0 = _real("alpha", self.alpha, "(0, 1]"), _real("t0", self.t0, "(-inf, inf)")
        t, s = (_reals(name, getattr(self, name), "(-inf, inf)") for name in ("t", "s"))
        if t.ndim != 1 or t.shape != s.shape or t.size == 0:
            raise ParameterError("t and s must be matching non-empty 1-d arrays")
        if np.any(t[1:] < t[:-1]) or np.any(s[1:] < s[:-1]):
            raise ParameterError("t and s must be nondecreasing")
        return {"alpha": alpha, "t0": t0, "_t": t, "_s": s}

    def __reduce__(self):
        if _live_spec(self._t) is None:
            return super().__reduce__()
        return build_staircase, (self.spec, self.alpha, self.t0)

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
    q = _reals("subdivision", subdivision, "(-inf, inf)")
    if q.ndim != 1 or q.size < 2 or not np.all(np.diff(q) > 0):
        raise ParameterError("subdivision needs two or more finite, increasing points")
    starts, ends = q[:-1], q[1:]
    # a start inside a covering interval flags its subinterval; one in a gap
    # flags it when the next interval, starting at t[j], begins before its end
    t = _kind("iset", iset, IntervalSet)._t
    j = _search(t, starts)[0]
    flag = ((j & 1) == 1) | ((j < t.size) & (t[np.minimum(j, t.size - 1)] < ends))
    return float(math.gamma(alpha + 1.0) * np.sum((ends - starts) ** alpha * flag))


def depth_for_resolution(spec: CantorSpec, delta: float) -> int:
    """Coarsest depth d with base_length * keep_ratio**d <= delta."""
    delta = _real("delta", delta, "(0, inf]")
    length, r = _kind("spec", spec, CantorSpec).base_length, spec.keep_ratio
    cap, depth = max_depth(), 0
    while length * r ** depth > delta:
        depth += 1
        if depth > cap:
            raise ResolutionError(
                f"resolving delta={delta!r} needs depth > {cap}; "
                "set FRACTAL_CALC_MAX_DEPTH to raise the cap")
    return depth


def _interval_mass(spec: CantorSpec, alpha: float) -> float:
    """Mass c = Gamma(alpha+1) * (L r^m)^alpha of one depth-m covering interval."""
    return math.gamma(alpha + 1.0) * (spec.base_length * spec.keep_ratio ** spec.depth) ** alpha


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
    spec = _kind("spec", spec, CantorSpec).with_depth(depth_for_resolution(spec, delta))
    _check_resolution(spec)
    # a piece with k levels to go lying wholly in [c1, c2] holds 2^k intervals;
    # only pieces an end cuts are split, by the float operations of _descend
    whole, clipped, stack = 0, 0.0, [(spec.origin, spec.extent, spec.depth)]
    while stack:
        a, b, k = stack.pop()
        if c1 <= a and b <= c2:
            whole += 1 << k
        elif k == 0:  # misses and boundary touches add 0
            clipped += max(min(b, c2) - max(a, c1), 0.0) ** alpha
        elif a < c2 and c1 < b:
            cut = (b - a) * spec.keep_ratio
            stack += [(a, a + cut, k - 1), (b - cut, b, k - 1)]
    value = whole * _interval_mass(spec, alpha) + math.gamma(alpha + 1.0) * clipped
    return MassEstimate(alpha=alpha, delta=float(delta), value=value, depth=spec.depth)


def build_staircase(spec: CantorSpec, alpha: float, t0=None) -> StaircaseTable:
    """Tabulate the staircase S(t) over the base interval, anchored at t0.

    Every covering interval of the depth-m realization has the same length
    L r^m (L the base length, r the keep ratio) and so the same mass
    c = Gamma(alpha+1) * (L r^m)^alpha.  S is k*c at the left end of
    interval k and (k+1)*c at its right end, linear in between and flat
    across the gap that follows.  Each value is k*c rounded once, with no
    endpoint differences and no running sum, so the total mass is 2^m c.
    ``t`` holds the endpoints of ``generate(spec)``, interleaved: the same
    array, while a set or table of an equal spec lives, so such a build
    makes only ``s``.  S(t0) = 0 and points before the anchor get negative
    values.
    """
    alpha = _real("alpha", alpha, "(0, 1]")
    origin = _kind("spec", spec, CantorSpec).origin
    t0 = origin if t0 is None else _real("t0", t0, f"[{origin}, {spec.extent}]")
    t = _breakpoints(spec)
    c = _interval_mass(spec, alpha)
    # s[j] = (j + j%2) * (c/2), so s[2k] = k*c and s[2k+1] = (k+1)*c, each
    # rounded once, since halving c and doubling k are exact.  It is filled
    # in cache-sized rows from one ramp, so the peak is s, plus t if no set
    # or table of the spec held it
    s = np.empty(t.size)
    ramp = np.arange(min(_RAMP, t.size), dtype=float)
    ramp[1::2] += 1.0
    for i, row in enumerate(s.reshape(-1, ramp.size)):
        np.add(ramp, i * ramp.size, out=row)
        row *= 0.5 * c
    anchor = np.interp(t0, t, s)
    if anchor != 0.0:
        s -= anchor
    return _built(StaircaseTable, alpha=alpha, spec=spec, _t=t, _s=s, t0=t0)


def eval_staircase(table: StaircaseTable, t):
    """Evaluate S(t); vectorized, exact at breakpoints and constant on gaps."""
    return _query("t", t, _in_key_order(lambda x: np.interp(x, table._t, table._s)),
                  *_kind("table", table, StaircaseTable).span)


def _tau_horizon(table, t_end):
    """Return t_end and S(t_end) as floats, refusing a t_end before the anchor."""
    t_end = _real("t_end", t_end, "[-inf, inf]")
    tau_end = eval_staircase(table, t_end)
    if tau_end < 0.0:
        raise ParameterError(f"t_end={t_end!r} precedes the staircase anchor t0={table.t0!r}")
    return t_end, tau_end


def warp_time(table: StaircaseTable, tau):
    """Smallest set point t with S(t) >= tau (the inverse staircase).

    Values inside a plateau's range return the plateau's left breakpoint, so
    warp_time(S(t)) is the gap's left end for t in a gap, and on the rising
    segments t up to rounding (a few ulps, on either side of t).

    The index j = searchsorted(s, tau, "left") is guessed by one
    interpolation step on the fill rule of ``build_staircase``: with n =
    s.size and h = ceil((tau - s[0]) n / (s[-1] - s[0])), j = h - 1 for
    even h and h for odd.  Only the taus whose guess fails the check
    s[j-1] < tau <= s[j], which pins j on any nondecreasing s and which
    j = 0 always fails, are searched for; so on every nondecreasing s,
    hand-built ones too, the answers are a binary search's, bit for bit.
    """
    s, t = _kind("table", table, StaircaseTable).s, table.t
    lo, hi = table.s_range
    n = s.size
    step = n / (hi - lo) if hi > lo else 0.0

    def search(keys):
        x = keys.reshape(-1)
        if 0.0 < step < math.inf:
            guess = x - lo
            guess *= step
            # h = ceil(guess), and (h - 1) | 1 is h - 1 for even h, h for odd
            j = np.ceil(guess, out=guess).astype(np.intp)
            del guess
            j -= 1
            j |= 1
            np.clip(j, 0, n - 1, out=j)
        else:
            j = np.zeros(x.size, np.intp)
        s_hi, t_hi = s[j], t[j]
        j -= 1
        np.maximum(j, 0, out=j)
        s_lo, t_lo = s[j], t[j]
        del j
        hit = s_hi >= x
        hit &= s_lo < x
        miss = np.flatnonzero(~hit)
        if miss.size:
            j = np.searchsorted(s, x[miss], side="left")
            s_hi[miss], t_hi[miss] = s[j], t[j]
            j = np.maximum(j - 1, 0)
            s_lo[miss], t_lo[miss] = s[j], t[j]
        # t_lo + frac * (t_hi - t_lo) with frac = (x - s_lo) / (s_hi - s_lo)
        # on a rising step and 0 on a flat one, t_hi where tau hits s_hi
        exact = s_hi == x
        ds = np.subtract(s_hi, s_lo, out=s_hi)
        frac = np.subtract(x, s_lo, out=s_lo)
        rising = ds > 0.0
        np.divide(frac, ds, out=frac, where=rising)
        np.logical_not(rising, out=rising)
        frac[rising] = 0.0
        frac *= np.subtract(t_hi, t_lo, out=ds)
        frac += t_lo
        np.copyto(frac, t_hi, where=exact)
        return frac.reshape(keys.shape)

    return _query("tau", tau, search, lo, hi)


def characteristic(spec: CantorSpec, alpha: float, t):
    """Indicator scaled by 1/Gamma(alpha+1) on the depth-m set, zero off it."""
    alpha = _real("alpha", alpha, "(0, 1]")
    return contains(generate(spec), t) * (1.0 / math.gamma(alpha + 1.0))


def dimension_sweep(spec: CantorSpec, delta1: float, delta2: float, alphas=None):
    """Mass ratios fine/coarse over a grid of candidate orders.

    Returns (alphas, ratios, ratio_fn) where ratio_fn evaluates the same
    ratio at arbitrary alpha.  Ratios above 1 mean mass still grows under
    refinement (alpha below the dimension); below 1 it decays.
    """
    alphas = np.linspace(0.05, 1.0, 96) if alphas is None else _reals("alphas", alphas, "(0, 1]")
    if alphas.ndim != 1 or alphas.size < 2 or not np.all(np.diff(alphas) > 0):
        raise ParameterError("alphas must be an increasing grid of >= 2 points")
    m1 = depth_for_resolution(spec, delta1)
    m2 = depth_for_resolution(spec, delta2)
    if m2 <= m1:
        raise ParameterError(
            f"delta2={delta2!r} resolves no deeper than delta1={delta1!r}")

    def ratio_fn(alpha):
        return (estimate_mass(spec, alpha, -math.inf, math.inf, delta2).value
                / estimate_mass(spec, alpha, -math.inf, math.inf, delta1).value)

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
