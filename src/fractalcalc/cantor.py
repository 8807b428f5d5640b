"""Middle-mu Cantor sets: construction, membership, measure, dimension.

A middle-mu set is built by repeatedly deleting the open middle fraction
``mu`` of every surviving closed interval.  The depth-m realization is the
union of 2^m closed intervals, each of length ``keep_ratio**m`` times the
base length, where ``keep_ratio = (1 - mu) / 2``.  Everything downstream
(mass sums, staircases, fractal derivatives) operates on these depth-m
realizations, so the construction here is the single source of truth for
what "the set" means at a given resolution.

All functions are pure and the data types are immutable, so values can be
shared freely across threads.  A spec's endpoints are built once and shared
by every set and staircase table of an equal spec while any of them lives;
two threads that build one spec at once may both build them, and both
results are correct.
"""

import math
import os
import weakref
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ParameterError, ResolutionError, _count, _kind, _real, _reals

DEFAULT_MAX_DEPTH = 24


def max_depth():
    """Return the depth cap, honoring the FRACTAL_CALC_MAX_DEPTH override.

    The cap exists because a depth-m realization stores 2^m intervals in
    16 * 2^m bytes and a staircase table over it takes 32 * 2^m bytes; at the
    default of 24 that is 256 MiB and 512 MiB, and generating the intervals
    peaks at 272 MiB.  A set and the tables of an equal spec share their
    16 * 2^m bytes of endpoints, so the pair takes 512 MiB, not 768.
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


def _max_samples():
    """The most points a count may ask for: the 2 * 2^cap entries of a table."""
    return 2 << max_depth()


@dataclass(frozen=True)
class CantorSpec:
    """Parameters of one construction: removed fraction, depth, base interval.

    The numbers are stored as floats and the depth as an int, also when it
    is given as an integral float or a numpy number; the base interval must
    be finite.
    """

    mu: float
    depth: int
    origin: float = 0.0
    extent: float = 1.0

    def __post_init__(self):
        for name, interval in (("mu", "(0, 1)"), ("origin", "(-inf, inf)"),
                               ("extent", "(-inf, inf)")):
            object.__setattr__(self, name, _real(name, getattr(self, name), interval))
        depth = self.depth
        # README documents integral float depths such as 2.0 as valid
        if isinstance(depth, (float, np.floating)) and depth.is_integer():
            depth = int(depth)
        object.__setattr__(self, "depth", _count("depth", depth, 0))
        cap = max_depth()
        if self.depth > cap:
            raise ParameterError(
                f"depth {self.depth} exceeds the cap of {cap}; "
                "set FRACTAL_CALC_MAX_DEPTH to raise it")
        _real("extent - origin", self.extent - self.origin, "(0, inf)")

    @property
    def keep_ratio(self) -> float:
        """Length fraction each child keeps of its parent: (1 - mu) / 2."""
        return (1.0 - self.mu) / 2.0

    @property
    def base_length(self) -> float:
        return self.extent - self.origin

    def with_depth(self, depth: int) -> "CantorSpec":
        return CantorSpec(self.mu, depth, self.origin, self.extent)


class _Value:
    """The one ownership rule of the package's value classes that hold arrays.

    A class's ``_check`` vets a caller's fields and returns those to hold,
    by name; ``_built`` hands over what the package made, unchecked.
    ``_hold`` copies an array that may share memory with what the caller
    passed, and locks each with the array it views.  A field ``_x`` is a
    private writable handle for queries, as np.interp copies a read-only
    array on every call; its public view ``x`` is read-only.  Values
    compare field by field, arrays by ``np.array_equal``, are not hashable,
    and a copy is rebuilt through the constructor or the call that built it.
    """

    def __post_init__(self):
        self._hold(self._check(), list(vars(self).values()))

    def _hold(self, held, given=()):
        given = [arg for arg in given if not isinstance(arg, (list, tuple))]  # share no memory
        for name, value in held.items():
            if isinstance(value, np.ndarray):
                if any(np.may_share_memory(value, arg) for arg in given):
                    value = value.copy()
                value = _private(value) if name[0] == "_" else _locked(value)
            object.__setattr__(self, name, value)
        for name, view in self._views().items():
            object.__setattr__(self, name, view if view is None else _locked(view))

    def _views(self):
        return {name[1:]: handle if handle is None else handle[:]
                for name, handle in vars(self).items() if name[0] == "_"}

    def __eq__(self, other):
        if self.__class__ is not other.__class__:
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray)
                   else x == y for x, y in pairs)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _built(cls, given=(), **fields):
    """A ``cls`` holding ``fields``, which a package function made or checked.

    Only what may share memory with ``given``, the arrays a caller handed
    that function, is copied; an array the package made is locked as it is.
    """
    obj = object.__new__(cls)
    obj._hold(fields, given)
    return obj


def _locked(arr):
    """``arr`` and the array it views, made read-only."""
    arr.setflags(write=False)
    if isinstance(arr.base, np.ndarray):
        arr.base.setflags(write=False)
    return arr


def _private(arr):
    """A writable view of ``arr``, which is then locked, or ``arr`` if it is one already."""
    if arr.flags.writeable and isinstance(arr.base, np.ndarray) and not arr.base.flags.writeable:
        return arr
    handle = arr.view()
    _locked(arr)
    return handle


@dataclass(frozen=True, eq=False)
class IntervalSet(_Value):
    """Sorted, pairwise-disjoint closed intervals [left[i], right[i]].

    ``left`` and ``right`` are read-only stride-2 views of the private
    handle ``_t`` to one array of interleaved endpoints l0, r0, l1, r1, ...:
    the ends a caller passes in, or the breakpoints ``generate`` shares with
    every set and table of an equal spec, also with a copy of the set.
    """

    left: np.ndarray
    right: np.ndarray

    def _check(self):
        left = np.atleast_1d(_reals("left", self.left, "(-inf, inf)"))
        right = np.atleast_1d(_reals("right", self.right, "(-inf, inf)"))
        if left.ndim != 1 or left.shape != right.shape or left.size == 0:
            raise ParameterError("left and right must be matching non-empty 1-d arrays")
        t = np.empty(2 * left.size)
        t[0::2], t[1::2] = left, right
        # written so that NaN fails it too
        if not np.all(t[0::2] <= t[1::2]):
            raise ParameterError("every interval needs left <= right")
        if not np.all(t[1:-1:2] < t[2::2]):
            raise ParameterError("intervals must be sorted and pairwise disjoint")
        return {"_t": t}

    def _views(self):
        return {"left": self._t[0::2], "right": self._t[1::2]}

    def __reduce__(self):
        spec = _live_spec(self._t)
        return super().__reduce__() if spec is None else (generate, (spec,))

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


# construction levels expanded per chunk: 2^16 intervals hold 1 MiB of
# endpoints, which fits a 2 MiB L2 cache; 16 was the fastest of 14-17 at
# depth 22
_CHUNK_LEVELS = 16


def _descend(left, right, r, levels):
    """Replace each [a, b], ``levels`` times, by [a, a + r(b-a)] and [b - r(b-a), b]."""
    for _ in range(levels):
        # the children's ends are written straight into the strided halves,
        # so a level holds the parents, one cut array and the children
        cut = right - left
        cut *= r
        new_left = np.empty(2 * left.size)
        new_right = np.empty(2 * right.size)
        new_left[0::2] = left
        np.add(left, cut, out=new_right[0::2])
        np.subtract(right, cut, out=new_left[1::2])
        new_right[1::2] = right
        left, right = new_left, new_right
    return left, right


def _check_resolution(spec: CantorSpec):
    """Refuse a depth below float resolution; as r < 1/2, a resolved depth is below 51."""
    r, m = spec.keep_ratio, spec.depth
    # intervals or gaps (the smallest span mu L r^(m-1)) within 4 float spacings degenerate
    spacing = np.finfo(float).eps * max(abs(spec.origin), abs(spec.extent), 1.0)
    if min(r ** m, spec.mu * r ** (m - 1) if m else 1.0) * spec.base_length <= 4.0 * spacing:
        raise ResolutionError(
            f"depth {m} intervals or gaps of the mu={spec.mu:g} set fall "
            "below float resolution; reduce the depth or the cut fraction")


def _build_breakpoints(spec: CantorSpec) -> np.ndarray:
    """Interleaved endpoints l0, r0, l1, r1, ... of the depth-m realization.

    The set is built whole down to ``_CHUNK_LEVELS`` levels above the last;
    each interval there is then expanded on its own, in cache-sized arrays,
    into its slice of the result.  Every endpoint comes from its ancestors
    by the same float operations either way.
    """
    _check_resolution(spec)
    r, m = spec.keep_ratio, spec.depth
    chunk = min(m, _CHUNK_LEVELS)
    left, right = _descend(np.array([spec.origin]), np.array([spec.extent]), r, m - chunk)
    t = np.empty(2 << m)
    for i, seg in enumerate(t.reshape(left.size, -1)):
        seg[0::2], seg[1::2] = _descend(left[i:i + 1], right[i:i + 1], r, chunk)
    return t


# the endpoint handle of every spec a live set or table holds; an entry dies
# with the last of them.  An equal spec with a -0.0 end builds a -0.0
# endpoint, so the signs of the ends are part of the key
_LIVE = weakref.WeakValueDictionary()


def _breakpoints(spec: CantorSpec) -> np.ndarray:
    """The private handle to the endpoints of ``spec``, built if none lives.

    Every set and table of an equal spec holds the same handle while any of
    them lives; the endpoints are the same, bit for bit, either way.
    """
    key = (spec, math.copysign(1.0, spec.origin), math.copysign(1.0, spec.extent))
    t = _LIVE.get(key)
    if t is None:
        t = _LIVE[key] = _private(_build_breakpoints(spec))
    return t


def _live_spec(t):
    """The spec whose live endpoint handle is ``t``, or None for any other array."""
    # valuerefs() is a list, taken whole, so another thread's new spec cannot upset it
    return next((ref.key[0] for ref in _LIVE.valuerefs() if ref() is t), None)


def generate(spec: CantorSpec) -> IntervalSet:
    """Build the depth-m realization of the middle-mu set.

    ``left`` and ``right`` are read-only views into one array of
    interleaved endpoints, the one every set and table of an equal spec
    shares while any of them lives.
    """
    return _built(IntervalSet, _t=_breakpoints(_kind("spec", spec, CantorSpec)))


def _in_key_order(search):
    """Wrap the pointwise ``search`` so that it runs in ascending key order.

    ``search`` maps an array of keys to one result per key, such as a binary
    search over a breakpoint table followed by gathers from it.  Keys that
    are not already ascending are sorted first and the results scattered
    back, so successive searches touch neighbouring table entries and a
    2^22-entry table stays in cache.  Each result depends on its key alone,
    so the output is the same as ``search(keys)``, bit for bit.
    """
    def ordered(keys):
        flat = keys.reshape(-1)
        if flat.size < 2 or not (flat[1:] < flat[:-1]).any():
            return search(keys)
        order = np.argsort(flat)
        found = search(flat[order])
        out = np.empty_like(found)
        out[order] = found
        return out.reshape(keys.shape)
    return ordered


def _query(name, points, search, lo=-math.inf, hi=math.inf):
    """``search`` answered at ``points``, real numbers in [lo, hi].

    A point outside [lo, hi], NaN too, is a DomainError; a scalar or 0-d
    query gets a Python scalar back.  Every point query goes through here;
    a search that gains from ascending keys wraps itself in ``_in_key_order``.
    """
    x = _reals(name, points)
    # written so that NaN fails it too
    if not (np.all(x >= lo) and np.all(x <= hi)):
        raise DomainError(f"{name} outside [{lo!r}, {hi!r}] or NaN")
    out = search(x)
    return out.item() if x.ndim == 0 else out


def _search(t, x):
    """Search the interleaved breakpoints ``t`` of a set for the points ``x``.

    Returns ``i = searchsorted(t, x, side="right")`` and the membership of
    each point.  An odd i puts x inside the covering interval [t[i-1], t[i]);
    an even i puts it in a gap, or outside the span, where it belongs to the
    set only as the gap's left end t[i-1].
    """
    i = np.searchsorted(t, x, side="right")
    return i, ((i & 1) == 1) | (t[i - 1] == x)


def contains(iset: IntervalSet, t):
    """Closed-interval membership test, vectorized over ``t``.

    Returns a bool for scalar input, a boolean array otherwise.  Points
    outside the base span are simply reported as absent; a NaN raises
    DomainError.
    """
    ends = _kind("iset", iset, IntervalSet)._t
    return _query("t", t, _in_key_order(lambda x: _search(ends, x)[1]))


def covering_measure(obj) -> float:
    """Total length of the covering intervals.

    For a CantorSpec the closed form (1 - mu)^depth times the base length is
    returned, which is why the limiting set has Lebesgue measure zero.  For a
    stored IntervalSet the lengths are summed instead; that route loses
    digits to cancellation once intervals are much shorter than their
    distance from zero, so prefer the CantorSpec form for deep realizations.
    """
    if isinstance(_kind("obj", obj, CantorSpec, IntervalSet), CantorSpec):
        return (1.0 - obj.mu) ** obj.depth * obj.base_length
    return float(np.sum(obj.right - obj.left))


def hausdorff_dimension(mu: float) -> float:
    """Similarity dimension log 2 / (log 2 - log(1 - mu)).

    Strictly decreasing in mu and maps (0, 1) onto (0, 1); mu -> 0 recovers
    dimension 1 and mu -> 1 collapses to dimension 0.
    """
    mu = _real("mu", mu, "(0, 1)")
    return math.log(2.0) / (math.log(2.0) - math.log(1.0 - mu))


def iter_levels(spec: CantorSpec):
    """Yield (level, IntervalSet) construction stages for plotting or export.

    A depth-0 spec yields the bare base interval; otherwise the generations
    1 through spec.depth are produced in order.
    """
    for level in range(min(_kind("spec", spec, CantorSpec).depth, 1), spec.depth + 1):
        yield level, generate(spec.with_depth(level))
