"""Middle-mu Cantor sets: construction, membership, measure, dimension.

A middle-mu set is built by repeatedly deleting the open middle fraction
``mu`` of every surviving closed interval.  The depth-m realization is the
union of 2^m closed intervals, each of length ``keep_ratio**m`` times the
base length, where ``keep_ratio = (1 - mu) / 2``.  Everything downstream
(mass sums, staircases, fractal derivatives) operates on these depth-m
realizations, so the construction here is the single source of truth for
what "the set" means at a given resolution.

All functions are pure and the data types are immutable, so values can be
shared freely across threads.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResolutionError

DEFAULT_MAX_DEPTH = 24


def max_depth():
    """Return the depth cap, honoring the FRACTAL_CALC_MAX_DEPTH override.

    The cap exists because a depth-m realization stores 2^m intervals; the
    default of 24 keeps a single realization comfortably under a gigabyte.
    """
    raw = os.environ.get("FRACTAL_CALC_MAX_DEPTH")
    if raw is None:
        return DEFAULT_MAX_DEPTH
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(
            f"FRACTAL_CALC_MAX_DEPTH must be an integer, got {raw!r}") from None
    if value < 0:
        raise ParameterError("FRACTAL_CALC_MAX_DEPTH must be non-negative")
    return value


@dataclass(frozen=True)
class CantorSpec:
    """Parameters of one construction: removed fraction, depth, base interval."""

    mu: float
    depth: int
    origin: float = 0.0
    extent: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.mu, (int, float)) and 0.0 < self.mu < 1.0):
            raise ParameterError(f"mu must lie strictly in (0, 1), got {self.mu!r}")
        if int(self.depth) != self.depth or self.depth < 0:
            raise ParameterError(f"depth must be a non-negative integer, got {self.depth!r}")
        cap = max_depth()
        if self.depth > cap:
            raise ParameterError(
                f"depth {self.depth} exceeds the cap of {cap}; "
                "set FRACTAL_CALC_MAX_DEPTH to raise it")
        if not self.origin < self.extent:
            raise ParameterError("origin must be strictly less than extent")

    @property
    def keep_ratio(self) -> float:
        """Length fraction each child keeps of its parent: (1 - mu) / 2."""
        return (1.0 - self.mu) / 2.0

    @property
    def base_length(self) -> float:
        return self.extent - self.origin

    def with_depth(self, depth: int) -> "CantorSpec":
        return CantorSpec(self.mu, depth, self.origin, self.extent)


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, pairwise-disjoint closed intervals [left[i], right[i]]."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = np.atleast_1d(np.asarray(self.left, dtype=float))
        right = np.atleast_1d(np.asarray(self.right, dtype=float))
        left.setflags(write=False)
        right.setflags(write=False)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if left.ndim != 1 or left.shape != right.shape or left.size == 0:
            raise ParameterError("left and right must be matching non-empty 1-d arrays")
        if np.any(left > right):
            raise ParameterError("every interval needs left <= right")
        if np.any(right[:-1] >= left[1:]):
            raise ParameterError("intervals must be sorted and pairwise disjoint")

    def __len__(self):
        return int(self.left.size)

    def __iter__(self):
        return iter(zip(self.left.tolist(), self.right.tolist()))

    @property
    def intervals(self):
        """The intervals as a list of (left, right) float pairs."""
        return list(self)

    def lengths(self) -> np.ndarray:
        return self.right - self.left

    @property
    def span(self):
        return float(self.left[0]), float(self.right[-1])


def generate(spec: CantorSpec) -> IntervalSet:
    """Build the depth-m realization of the middle-mu set.

    Each pass replaces [a, b] by its two outer closed pieces
    [a, a + r(b-a)] and [b - r(b-a), b] with r = spec.keep_ratio.
    """
    r = spec.keep_ratio
    # interval lengths below the float spacing of the endpoints degenerate
    spacing = np.finfo(float).eps * max(abs(spec.origin), abs(spec.extent), 1.0)
    if r ** spec.depth * spec.base_length <= 4.0 * spacing:
        raise ResolutionError(
            f"depth {spec.depth} intervals of the mu={spec.mu:g} set fall "
            "below float resolution; reduce the depth or the cut fraction")
    left = np.array([spec.origin], dtype=float)
    right = np.array([spec.extent], dtype=float)
    for _ in range(spec.depth):
        width = right - left
        new_left = np.empty(2 * left.size)
        new_right = np.empty(2 * right.size)
        new_left[0::2] = left
        new_right[0::2] = left + r * width
        new_left[1::2] = right - r * width
        new_right[1::2] = right
        left, right = new_left, new_right
    return IntervalSet(left, right)


def _in_key_order(search, keys):
    """Apply the pointwise ``search`` to ``keys`` in ascending key order.

    ``search`` maps an array of keys to one result per key, such as a binary
    search over a breakpoint table followed by gathers from it.  Keys that
    are not already ascending are sorted first and the results scattered
    back, so successive searches touch neighbouring table entries and a
    2^22-entry table stays in cache.  Each result depends on its key alone,
    so the output is the same as ``search(keys)``, bit for bit.
    """
    flat = keys.reshape(-1)
    if flat.size < 2 or not (flat[1:] < flat[:-1]).any():
        return search(keys)
    order = np.argsort(flat)
    found = search(flat[order])
    out = np.empty_like(found)
    out[order] = found
    return out.reshape(keys.shape)


def contains(iset: IntervalSet, t):
    """Closed-interval membership test, vectorized over ``t``.

    Returns a bool for scalar input, a boolean array otherwise.  Points
    outside the base span are simply reported as absent.
    """
    t_arr = np.asarray(t, dtype=float)

    def search(x):
        idx = np.searchsorted(iset.left, x, side="right") - 1
        safe = np.clip(idx, 0, len(iset) - 1)
        return (idx >= 0) & (x <= iset.right[safe])

    inside = _in_key_order(search, t_arr)
    if t_arr.ndim == 0:
        return bool(inside)
    return inside


def covering_measure(obj) -> float:
    """Total length of the covering intervals.

    For a CantorSpec the closed form (1 - mu)^depth times the base length is
    returned, which is why the limiting set has Lebesgue measure zero.  For a
    stored IntervalSet the lengths are summed instead; that route loses
    digits to cancellation once intervals are much shorter than their
    distance from zero, so prefer the CantorSpec form for deep realizations.
    """
    if isinstance(obj, CantorSpec):
        return (1.0 - obj.mu) ** obj.depth * obj.base_length
    return float(np.sum(obj.right - obj.left))


def hausdorff_dimension(mu: float) -> float:
    """Similarity dimension log 2 / (log 2 - log(1 - mu)).

    Strictly decreasing in mu and maps (0, 1) onto (0, 1); mu -> 0 recovers
    dimension 1 and mu -> 1 collapses to dimension 0.
    """
    if not 0.0 < mu < 1.0:
        raise ParameterError(f"mu must lie strictly in (0, 1), got {mu!r}")
    return math.log(2.0) / (math.log(2.0) - math.log(1.0 - mu))


def iter_levels(spec: CantorSpec):
    """Yield (level, IntervalSet) construction stages for plotting or export.

    A depth-0 spec yields the bare base interval; otherwise the generations
    1 through spec.depth are produced in order.
    """
    if spec.depth == 0:
        yield 0, generate(spec)
        return
    for level in range(1, spec.depth + 1):
        yield level, generate(spec.with_depth(level))
