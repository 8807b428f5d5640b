import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcalc import (
    AssumptionGrids,
    CantorSpec,
    GridFunction,
    IntervalSet,
    ParameterError,
    ResolutionError,
    StaircaseTable,
    build_staircase,
    check_assumptions,
    contains,
    covering_measure,
    derivative_grid,
    dimension_sweep,
    estimate_mass,
    eval_staircase,
    fractal_integral,
    generate,
    hausdorff_dimension,
    in_set,
    iter_levels,
    solve_first_order,
    theorem1_toy,
    warp_time,
)
from fractalcalc import cantor, staircase
from fractalcalc.cantor import max_depth

# depth-2 middle-0.2 construction, worked by hand from the keep ratio 0.4
DEPTH2_INTERVALS = [
    (0.0, 0.16000000000000003),
    (0.24, 0.4),
    (0.6, 0.76),
    (0.84, 1.0),
]


def test_keep_ratio_complements_cut():
    spec = CantorSpec(mu=0.2, depth=1)
    assert spec.keep_ratio == pytest.approx(0.4)
    gap = 1.0 - 2.0 * spec.keep_ratio
    assert gap == pytest.approx(spec.mu)


def test_generate_depth0_is_base_interval():
    iset = generate(CantorSpec(mu=0.5, depth=0))
    assert len(iset) == 1
    assert iset.left[0] == 0.0
    assert iset.right[0] == 1.0


def test_generate_depth2_middle_fifth():
    iset = generate(CantorSpec(mu=0.2, depth=2))
    assert iset.intervals == pytest.approx(DEPTH2_INTERVALS, abs=0.0)


def test_generate_classic_middle_third():
    iset = generate(CantorSpec(mu=1.0 / 3.0, depth=2))
    expected = [(0.0, 1.0 / 9.0), (2.0 / 9.0, 1.0 / 3.0),
                (2.0 / 3.0, 7.0 / 9.0), (8.0 / 9.0, 1.0)]
    assert np.allclose(np.array(iset.intervals), np.array(expected),
                       rtol=0.0, atol=1e-15)


def test_interval_count_and_lengths():
    spec = CantorSpec(mu=0.2, depth=6)
    iset = generate(spec)
    assert len(iset) == 2 ** 6
    assert np.allclose(iset.lengths(), spec.keep_ratio ** 6)


def test_shifted_base_interval():
    spec = CantorSpec(mu=0.2, depth=3, origin=-1.0, extent=3.0)
    iset = generate(spec)
    assert iset.span == (-1.0, 3.0)
    assert np.allclose(iset.lengths(), 4.0 * spec.keep_ratio ** 3)


def test_covering_measure_closed_form():
    for m in (0, 1, 5, 20):
        assert covering_measure(CantorSpec(mu=0.2, depth=m)) == 0.8 ** m


def test_covering_measure_from_intervals():
    # summing stored lengths loses digits to cancellation at depth, so the
    # interval route only has to agree loosely with the closed form
    for m in (0, 1, 5, 20):
        iset = generate(CantorSpec(mu=0.2, depth=m))
        assert covering_measure(iset) == pytest.approx(0.8 ** m, rel=1e-8)


def test_contains_endpoints_and_gap():
    iset = generate(CantorSpec(mu=0.2, depth=2))
    assert contains(iset, 0.0)
    assert contains(iset, 0.16000000000000003)
    assert contains(iset, 1.0)
    assert not contains(iset, 0.5)
    assert not contains(iset, 0.2)
    assert not contains(iset, -0.1)
    assert not contains(iset, 1.1)


def test_contains_vectorized():
    iset = generate(CantorSpec(mu=0.2, depth=2))
    t = np.array([0.0, 0.1, 0.2, 0.3, 0.7, 1.0])
    got = contains(iset, t)
    assert got.dtype == bool
    assert list(got) == [True, True, False, True, True, True]


def test_hausdorff_dimension_closed_form():
    assert hausdorff_dimension(0.2) == pytest.approx(0.7564707973660301, abs=1e-15)
    assert hausdorff_dimension(1.0 / 3.0) == pytest.approx(
        math.log(2.0) / math.log(3.0), abs=1e-15)
    assert hausdorff_dimension(0.5) == pytest.approx(0.5, abs=1e-15)


def test_iter_levels_covers_all_depths():
    spec = CantorSpec(mu=0.2, depth=3)
    levels = list(iter_levels(spec))
    assert [lv for lv, _ in levels] == [1, 2, 3]
    assert [len(s) for _, s in levels] == [2, 4, 8]


def test_iter_levels_depth0():
    levels = list(iter_levels(CantorSpec(mu=0.2, depth=0)))
    assert len(levels) == 1
    level, iset = levels[0]
    assert level == 0
    assert len(iset) == 1


@pytest.mark.parametrize("mu", [-0.1, 0.0, 1.0, 1.5])
def test_rejects_bad_mu(mu):
    with pytest.raises(ParameterError):
        CantorSpec(mu=mu, depth=1)


def test_rejects_bad_depth():
    # a bool is not a depth, and nan, inf and None raised raw errors once
    for depth in (-1, max_depth() + 1, True, np.True_, 2.5, math.nan, math.inf,
                  "3", None):
        with pytest.raises(ParameterError):
            CantorSpec(mu=0.2, depth=depth)


@pytest.mark.parametrize("depth", [2.0, np.int64(2), np.float64(2.0)],
                         ids=["float", "numpy-int", "numpy-float"])
def test_integral_depth_is_stored_as_int(depth):
    spec = CantorSpec(mu=0.2, depth=depth)
    assert spec.depth == 2 and type(spec.depth) is int
    assert generate(spec).intervals == DEPTH2_INTERVALS
    assert [level for level, _ in iter_levels(spec)] == [1, 2]


def test_rejects_degenerate_interval():
    # an infinite end passed here once, and generate then blamed the depth
    for origin, extent in ((1.0, 1.0), (0.0, math.inf), (-math.inf, 1.0),
                           (math.nan, 1.0), (0.0, math.nan), (-1e308, 1e308),
                           (0.0, "1")):
        with pytest.raises(ParameterError):
            CantorSpec(mu=0.2, depth=1, origin=origin, extent=extent)


def test_depth_cap_from_environment(monkeypatch):
    monkeypatch.setenv("FRACTAL_CALC_MAX_DEPTH", "4")
    assert max_depth() == 4
    with pytest.raises(ParameterError):
        CantorSpec(mu=0.2, depth=5)
    monkeypatch.setenv("FRACTAL_CALC_MAX_DEPTH", "banana")
    with pytest.raises(ParameterError):
        max_depth()


def test_generate_rejects_sub_resolution_depth():
    # at mu=0.99 the keep ratio is 0.005, so depth-10 pieces measure 1e-23
    # and cannot be told apart near t=1 in float arithmetic
    spec = CantorSpec(mu=0.99, depth=10)
    with pytest.raises(ResolutionError):
        generate(spec)
    with pytest.raises(ResolutionError):
        estimate_mass(spec, 0.5, 0.0, 1.0, spec.keep_ratio ** 10)
    with pytest.raises(ResolutionError):
        dimension_sweep(spec, spec.keep_ratio ** 6, spec.keep_ratio ** 10)


@pytest.mark.parametrize("mu", [1e-17, 1e-16, 2e-16])
def test_gaps_below_float_resolution_are_refused(mu):
    # the last gaps of a depth-3 set span mu/4, within 4 float spacings of
    # 1; at 1e-17 they used to vanish, leaving a table with no gap at all
    spec = CantorSpec(mu=mu, depth=3)
    with pytest.raises(ResolutionError):
        generate(spec)
    with pytest.raises(ResolutionError):
        build_staircase(spec, 0.5)
    with pytest.raises(ResolutionError):
        estimate_mass(spec, 0.5, 0.0, 1.0, spec.keep_ratio ** 3)
    with pytest.raises(ResolutionError):
        dimension_sweep(spec, spec.keep_ratio, spec.keep_ratio ** 3)
    # a gap of 2.5e-11 is still resolved
    assert np.all(np.diff(generate(CantorSpec(mu=1e-10, depth=3))._t) > 0.0)


def _reference_generate(spec):
    # the level-by-level doubling loop over the whole set, with a fresh width
    # and r * width products per level
    r = spec.keep_ratio
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
    return left, right


def _reference_s(spec, alpha, size):
    # the staircase values (j + j%2) * (c/2) in one pass over the whole array
    c = math.gamma(alpha + 1.0) * (spec.base_length * spec.keep_ratio ** spec.depth) ** alpha
    s = np.arange(size, dtype=float)
    s[1::2] += 1.0
    s *= 0.5 * c
    return s


def _assert_matches_reference(spec, alpha=0.5):
    """Compare generate and build_staircase with the whole-array loops."""
    try:
        iset = generate(spec)
    except ResolutionError:
        return False
    left, right = _reference_generate(spec)
    table = build_staircase(spec, alpha)
    assert np.array_equal(iset.left, left) and np.array_equal(iset.right, right)
    assert np.array_equal(table.t[0::2], left) and np.array_equal(table.t[1::2], right)
    assert np.array_equal(table.s, _reference_s(spec, alpha, table.t.size))
    return True


@pytest.mark.parametrize("origin,extent", [(0.0, 1.0), (-3.5, 60.0), (1e3, 1e3 + 7.25)])
@pytest.mark.parametrize("mu", [0.2, 1.0 / 3.0, 0.5, 0.9])
def test_generate_matches_the_reference_loop(mu, origin, extent):
    built = [_assert_matches_reference(CantorSpec(mu, d, origin, extent))
             for d in range(17)]
    # every depth up to float resolution was compared, not skipped
    assert built[:8] == [True] * 8


@pytest.mark.parametrize("origin,extent", [(0.0, 1.0), (0.0, 60.0), (-3.7, 11.1)])
@pytest.mark.parametrize("mu", [0.05, 0.2, 1.0 / 3.0, 0.5, 0.9])
def test_chunked_build_matches_the_level_loop(mu, origin, extent):
    # depths past cantor._CHUNK_LEVELS are built in several chunks, and s
    # in several ramps; both stay bit-identical to the whole-array loops
    alpha = hausdorff_dimension(mu)
    built = [_assert_matches_reference(CantorSpec(mu, d, origin, extent), alpha)
             for d in range(20)]
    assert built[:12] == [True] * 12
    assert all(built) or mu == 0.9


@pytest.mark.parametrize("chunk_levels,ramp", [(1, 2), (3, 8)])
def test_chunk_sizes_do_not_change_the_build(monkeypatch, chunk_levels, ramp):
    monkeypatch.setattr(cantor, "_CHUNK_LEVELS", chunk_levels)
    monkeypatch.setattr(staircase, "_RAMP", ramp)
    for depth in range(10):
        assert _assert_matches_reference(CantorSpec(0.3, depth, -3.7, 11.1), 0.6)


def test_generate_returns_views_of_one_array():
    iset = generate(CantorSpec(mu=0.2, depth=5))
    assert iset.left.base is iset.right.base
    assert not iset.left.base.flags.writeable


def test_sets_compare_by_their_endpoints():
    spec = CantorSpec(mu=0.2, depth=5)
    iset = generate(spec)
    assert iset == generate(spec)
    assert iset == IntervalSet(iset.left.copy(), iset.right.copy())
    assert not iset != generate(spec)
    # unequal endpoints, a different length, another type
    assert iset != generate(CantorSpec(mu=0.3, depth=5))
    assert iset != generate(CantorSpec(mu=0.2, depth=5, extent=2.0))
    assert iset != generate(spec.with_depth(4))
    assert iset != IntervalSet([0.0], [1.0])
    assert iset != iset.intervals
    with pytest.raises(TypeError):
        hash(iset)


_SPEC5 = CantorSpec(mu=0.2, depth=5)
# each builds a value from one number; two builds from one number are equal
VALUE_BUILDS = {
    "IntervalSet": lambda x: generate(CantorSpec(mu=x, depth=5)),
    "StaircaseTable": lambda x: build_staircase(_SPEC5, x),
    "GridFunction": lambda x: GridFunction.from_function(
        build_staircase(_SPEC5, 0.5), lambda t: x * t),
    "Trajectory": lambda x: solve_first_order(
        lambda y: -y, build_staircase(_SPEC5, 0.5), x, 0.5, dtau=0.05),
    "AssumptionGrids": lambda x: AssumptionGrids(alpha=x),
}


@pytest.mark.parametrize("name", sorted(VALUE_BUILDS))
def test_values_with_array_fields_compare_field_by_field(name):
    build = VALUE_BUILDS[name]
    value = build(0.3)
    assert value == build(0.3)
    assert not value != build(0.3)
    assert value != build(0.4)
    assert value != object()
    with pytest.raises(TypeError):
        hash(value)


_ISET5 = generate(_SPEC5)
_TABLE5 = build_staircase(_SPEC5, 0.5)
_POINTS = np.linspace(0.0, 1.0, 41)


def _samples(with_s=False):
    # strictly increasing set points of _TABLE5, and values there
    t = _TABLE5.t[::3].copy()
    arrays = {"t": t, "values": np.cos(t)}
    if with_s:
        arrays["s"] = eval_staircase(_TABLE5, t)
    return arrays


def _sample_answers(f):
    return (f.t, f.s, f.values, [in_set(f.table, x) for x in f.t],
            fractal_integral(f, 0.0, 1.0), derivative_grid(f).values)


# each: the arrays a caller hands a value class, by name, a build from them,
# and what the value answers: its arrays, queries and check results
OWNED = {
    "IntervalSet": (
        lambda: {"left": _ISET5.left.copy(), "right": _ISET5.right.copy()},
        lambda a: IntervalSet(**a),
        lambda o: (o.left, o.right, contains(o, _POINTS), covering_measure(o))),
    "StaircaseTable": (
        lambda: {"t": _TABLE5.t.copy(), "s": _TABLE5.s.copy()},
        lambda a: StaircaseTable(0.5, _SPEC5, t0=0.0, **a),
        lambda o: (o.t, o.s, eval_staircase(o, _POINTS), warp_time(o, _POINTS * o.s[-1]))),
    "GridFunction": (
        lambda: _samples(with_s=True), lambda a: GridFunction(_TABLE5, **a),
        _sample_answers),
    "GridFunction.from_values": (
        _samples, lambda a: GridFunction.from_values(_TABLE5, a["t"], a["values"]),
        _sample_answers),
    "GridFunction.from_function": (
        _samples,
        lambda a: GridFunction.from_function(_TABLE5, lambda t: a["values"], t=a["t"]),
        _sample_answers),
    "AssumptionGrids": (
        lambda: {"tau": np.linspace(0.0, 20.0, 41), "y": np.linspace(-5.0, 5.0, 21),
                 "z": np.linspace(-5.0, 5.0, 21), "y_growth": np.geomspace(1.0, 1e3, 13),
                 "tail_windows": np.array([5.0, 10.0, 20.0, 40.0])},
        lambda a: AssumptionGrids(alpha=0.5, **a),
        lambda o: (o.tau, o.y, o.z, o.y_growth, o.tail_windows,
                   json.dumps(check_assumptions(theorem1_toy(), o).to_json()))),
}


def _read_only(arr):
    arr.setflags(write=False)
    return arr


# each: how a caller hands over its array, as (the array handed, the array
# the caller writes into afterwards)
HANDED = {
    "writable": lambda a: (a, a),
    "read-only": lambda a: (_read_only(a), a),
    "view": lambda a: (a[:], a),
    "read-only-view": lambda a: (_read_only(a[:]), a),
}


@pytest.mark.parametrize("kind", sorted(HANDED))
@pytest.mark.parametrize("name", sorted(OWNED))
def test_values_hold_copies_of_the_callers_arrays(name, kind):
    arrays, build, answers = OWNED[name]
    handed, written = {}, []
    for key, arr in arrays().items():
        handed[key], base = HANDED[kind](arr)
        written.append(base)
    value = build(handed)
    before = [np.array(x) for x in answers(value)]
    # the caller unlocks its array, if need be, and writes into it
    for base in written:
        base.setflags(write=True)
        base[...] = 0.5
    after = answers(value)
    assert len(after) == len(before)
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


@settings(max_examples=50)
@given(mu=st.floats(0.01, 0.99), depth=st.integers(0, 12),
       origin=st.floats(-1e3, 1e3), length=st.floats(1e-3, 1e3))
def test_generate_matches_the_reference_loop_property(mu, depth, origin, length):
    spec = CantorSpec(mu, depth, origin, origin + length)
    if _assert_matches_reference(spec):
        # generate hands its array to the set unchecked: l <= r < next l
        iset = generate(spec)
        assert np.all(iset.left <= iset.right)
        assert np.all(iset.right[:-1] < iset.left[1:])


@settings(max_examples=50)
@given(mu=st.floats(0.01, 0.9), depth=st.integers(0, 10))
def test_intervals_stay_sorted_and_disjoint(mu, depth):
    iset = generate(CantorSpec(mu=mu, depth=depth))
    assert len(iset) == 2 ** depth
    assert np.all(iset.right > iset.left)
    assert np.all(iset.left[1:] > iset.right[:-1])


@settings(max_examples=50)
@given(mu=st.floats(0.01, 0.9), depth=st.integers(1, 10))
def test_refinement_nests(mu, depth):
    coarse = generate(CantorSpec(mu=mu, depth=depth - 1))
    fine = generate(CantorSpec(mu=mu, depth=depth))
    # every fine interval sits inside some coarse one
    idx = np.searchsorted(coarse.left, fine.left, side="right") - 1
    assert np.all(idx >= 0)
    assert np.all(fine.right <= coarse.right[idx] + 1e-15)


@settings(max_examples=30)
@given(mu=st.floats(0.05, 0.95))
def test_dimension_between_zero_and_one(mu):
    d = hausdorff_dimension(mu)
    assert 0.0 < d < 1.0
