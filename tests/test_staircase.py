import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcalc import (
    CantorSpec,
    DomainError,
    EstimationError,
    ParameterError,
    ResolutionError,
    build_staircase,
    characteristic,
    depth_for_resolution,
    dimension_sweep,
    estimate_mass,
    eval_staircase,
    gamma_dimension,
    generate,
    hausdorff_dimension,
    l_alpha_sum,
    max_depth,
    warp_time,
)
from fractalcalc.staircase import _crossing, _interval_mass

ALPHA_02 = 0.7564707973660301          # order matching the mu=0.2 set
GAMMA_02 = math.gamma(ALPHA_02 + 1.0)  # 0.9205501437736353
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def table02():
    return build_staircase(CantorSpec(mu=0.2, depth=12), ALPHA_02)


def test_l_alpha_sum_unit_order():
    # depth-1 set {[0,0.4], [0.6,1]} against the subdivision {0, 0.4, 0.6, 1}:
    # only the two end cells overlap the set, so the sum is their total length
    iset = generate(CantorSpec(mu=0.2, depth=1))
    value = l_alpha_sum(iset, 1.0, [0.0, 0.4, 0.6, 1.0])
    assert value == pytest.approx(0.8, abs=1e-15)


def test_l_alpha_sum_fractional_order():
    iset = generate(CantorSpec(mu=0.2, depth=1))
    value = l_alpha_sum(iset, 0.5, [0.0, 0.4, 0.6, 1.0])
    expected = math.gamma(1.5) * (0.4 ** 0.5 + 0.4 ** 0.5)
    assert value == pytest.approx(expected, abs=1e-15)
    assert value == pytest.approx(1.1209982432795857, abs=1e-12)


def test_l_alpha_sum_boundary_touch_carries_no_mass():
    # a cell that merely touches the set at one point contributes nothing
    iset = generate(CantorSpec(mu=0.2, depth=1))
    assert l_alpha_sum(iset, 1.0, [0.4, 0.6]) == 0.0


def test_gap_anchoring_lowers_the_unit_order_sum():
    # at order one the sum is additive, so carving out the gap removes its length
    iset = generate(CantorSpec(mu=0.2, depth=1))
    crude = l_alpha_sum(iset, 1.0, [0.0, 1.0])
    anchored = l_alpha_sum(iset, 1.0, [0.0, 0.4, 0.6, 1.0])
    assert anchored < crude
    assert anchored == pytest.approx(0.8, abs=1e-15)


def test_fractional_power_sums_are_subadditive():
    # below order one, splitting a flagged cell raises the sum, which is why
    # the infimum is approached through gap anchoring rather than blind
    # refinement
    iset = generate(CantorSpec(mu=0.2, depth=1))
    whole = l_alpha_sum(iset, 0.5, [0.0, 0.4])
    split = l_alpha_sum(iset, 0.5, [0.0, 0.2, 0.4])
    assert split > whole


def test_depth_for_resolution():
    spec = CantorSpec(mu=0.2, depth=12)
    assert depth_for_resolution(spec, 1.0) == 0
    assert depth_for_resolution(spec, 0.4) == 1
    assert depth_for_resolution(spec, 0.05) == 4
    with pytest.raises(ResolutionError):
        depth_for_resolution(spec, 1e-30)
    with pytest.raises(ParameterError):
        depth_for_resolution(spec, 0.0)
    # the length of depth d, written as callers write it, resolves to d
    for mu in np.linspace(0.01, 0.99, 99):
        for extent in (1.0, 60.0):
            spec = CantorSpec(mu=float(mu), depth=1, extent=extent)
            for d in range(max_depth() + 1):
                delta = spec.base_length * spec.keep_ratio ** d
                assert depth_for_resolution(spec, delta) == d, (mu, extent, d)


@pytest.mark.parametrize("mu", [0.2, 1.0 / 3.0, 0.5])
def test_mass_fixed_point_at_matching_order(mu):
    # at the matching order the two kept copies exactly balance the alpha
    # scaling, so the estimate is depth independent and equals Gamma(alpha+1)
    alpha = hausdorff_dimension(mu)
    expected = math.gamma(alpha + 1.0)
    values = []
    for depth in (8, 12, 16):
        spec = CantorSpec(mu=mu, depth=depth)
        est = estimate_mass(spec, alpha, 0.0, 1.0, spec.keep_ratio ** depth)
        assert est.value == pytest.approx(expected, rel=1e-6)
        values.append(est.value)
    assert max(values) - min(values) <= 1e-9 * expected


def test_mass_monotone_in_alpha():
    spec = CantorSpec(mu=0.2, depth=10)
    delta = spec.keep_ratio ** 10
    low = estimate_mass(spec, ALPHA_02 - 0.1, 0.0, 1.0, delta).value
    mid = estimate_mass(spec, ALPHA_02, 0.0, 1.0, delta).value
    high = estimate_mass(spec, ALPHA_02 + 0.1, 0.0, 1.0, delta).value
    assert low > mid > high


MASS_MUS = [0.05, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9]


def _reference_mass(spec, alpha, c1, c2):
    # over generate's intervals: whole ones at c, clipped ends at overlap^alpha
    iset = generate(spec)
    whole = (iset.left >= c1) & (iset.right <= c2)
    overlap = np.minimum(iset.right, c2) - np.maximum(iset.left, c1)
    clipped = overlap[~whole & (overlap > 0.0)]
    gamma = math.gamma(alpha + 1.0)
    c = gamma * (spec.base_length * spec.keep_ratio ** spec.depth) ** alpha
    return np.count_nonzero(whole) * c + gamma * float(np.sum(clipped ** alpha))


def _windows(spec, seed):
    """Window ends on breakpoints, inside gaps and intervals, beyond the span, at +-inf."""
    t = generate(spec)._t
    rng = np.random.default_rng(seed)
    pool = np.concatenate([t, 0.5 * (t[1:-1:2] + t[2::2]), 0.5 * (t[0::2] + t[1::2])])
    ends = np.concatenate([rng.choice(pool, size=min(pool.size, 6), replace=False),
                           t[[0, -1]], [spec.origin - 1.0, spec.extent + 1.0,
                                        -math.inf, math.inf]])
    ends = np.unique(ends).tolist()
    return [(c1, c2) for i, c1 in enumerate(ends) for c2 in ends[i + 1:]]


@pytest.mark.parametrize("mu", MASS_MUS)
def test_estimate_mass_matches_the_brute_force_sum(mu):
    for origin, extent in ((0.0, 1.0), (0.0, 60.0), (-3.0, 2.5)):
        for depth in range(13):
            spec = CantorSpec(mu=mu, depth=depth, origin=origin, extent=extent)
            delta = spec.base_length * spec.keep_ratio ** depth
            try:
                windows = _windows(spec, depth)
            except ResolutionError:
                with pytest.raises(ResolutionError):
                    estimate_mass(spec, 0.5, origin, extent, delta)
                continue
            for alpha in (hausdorff_dimension(mu), 0.5):
                for c1, c2 in windows:
                    est = estimate_mass(spec, alpha, c1, c2, delta)
                    assert est.depth == depth
                    ref = _reference_mass(spec, alpha, c1, c2)
                    assert abs(est.value - ref) <= 4 * EPS * ref, (origin, extent, depth, c1, c2)


@pytest.mark.parametrize("mu", MASS_MUS)
def test_whole_set_mass_and_dimension_at_every_depth(mu):
    # the set carries Gamma(alpha+1) L^alpha at the matching order, however
    # few float spacings its intervals span, and the dimension command's
    # depth pair recovers that order; at mu=0.7, extent 60 and depth 18 the
    # float lengths of the built set had put them 7.0e-3 and 9.2e-4 off
    alpha = hausdorff_dimension(mu)
    for extent in (1.0, 60.0):
        expected = math.gamma(alpha + 1.0) * extent ** alpha
        spec = CantorSpec(mu=mu, depth=0, extent=extent)
        for depth in range(max_depth() + 1):
            delta = extent * spec.keep_ratio ** depth
            try:
                est = estimate_mass(spec, alpha, 0.0, extent, delta)
            except ResolutionError:
                break
            assert abs(est.value - expected) <= 1e-12 * expected, (extent, depth)
            if depth >= 2:
                coarse = extent * spec.keep_ratio ** max(depth - 4, 1)
                assert abs(gamma_dimension(spec, coarse, delta) - alpha) <= 1e-10, \
                    (extent, depth)
        # even mu=0.9 resolves depth 11
        assert depth >= 11


def test_partial_interval_mass(table02):
    # mass of [0, 0.4] is half the total: the two depth-1 copies carry equal mass
    half = eval_staircase(table02, 0.4)
    total = eval_staircase(table02, 1.0)
    assert half == pytest.approx(0.5 * total, rel=1e-12)


def test_staircase_total_equals_gamma(table02):
    assert eval_staircase(table02, 1.0) == pytest.approx(GAMMA_02, rel=1e-9)


def test_staircase_monotone_and_flat_on_gaps(table02):
    t = np.linspace(0.0, 1.0, 2001)
    s = eval_staircase(table02, t)
    assert np.all(np.diff(s) >= 0.0)
    # the central gap (0.4, 0.6) carries no mass
    assert eval_staircase(table02, 0.6) == eval_staircase(table02, 0.4)
    assert eval_staircase(table02, 0.45) == eval_staircase(table02, 0.55)


def test_staircase_anchor_shifts_sign():
    table = build_staircase(CantorSpec(mu=0.2, depth=8), ALPHA_02, t0=0.5)
    assert eval_staircase(table, 0.5) == 0.0
    assert eval_staircase(table, 0.0) < 0.0
    assert eval_staircase(table, 1.0) > 0.0
    # differences are anchor independent
    base = build_staircase(CantorSpec(mu=0.2, depth=8), ALPHA_02)
    d1 = eval_staircase(table, 0.9) - eval_staircase(table, 0.1)
    d2 = eval_staircase(base, 0.9) - eval_staircase(base, 0.1)
    assert d1 == pytest.approx(d2, rel=1e-12)


def test_breakpoints_pair_t_with_s():
    table = build_staircase(CantorSpec(mu=0.2, depth=2), 0.5, t0=0.2)
    pairs = table.breakpoints
    assert pairs == list(zip(table.t.tolist(), table.s.tolist()))
    assert len(pairs) == 8 and all(type(x) is float for pair in pairs for x in pair)
    assert pairs[0] == (0.0, table.s[0]) and pairs[-1][0] == 1.0


@pytest.mark.parametrize("set_first", [True, False], ids=["set-first", "table-first"])
def test_a_set_and_a_table_of_one_spec_share_their_endpoints(set_first):
    spec = CantorSpec(mu=0.35, depth=9, origin=-1.5, extent=2.0)
    alone = build_staircase(spec, 0.5, t0=0.25)
    t, s = alone.t.tobytes(), alone.s.tobytes()
    del alone
    alone = generate(spec)
    left, right = alone.left.tobytes(), alone.right.tobytes()
    del alone
    if set_first:
        iset = generate(spec)
        table = build_staircase(spec, 0.5, t0=0.25)
    else:
        table = build_staircase(spec, 0.5, t0=0.25)
        iset = generate(spec)
    assert table.t.base is iset.left.base is iset.right.base
    assert (table.t.tobytes(), table.s.tobytes()) == (t, s)
    assert (iset.left.tobytes(), iset.right.tobytes()) == (left, right)
    # s moves with the anchor, so two tables share t alone
    other = build_staircase(spec, 0.5, t0=1.0)
    assert other.t.base is table.t.base and not np.shares_memory(other.s, table.s)


def test_threads_building_one_spec_get_equal_tables():
    spec = CantorSpec(mu=0.25, depth=12, origin=-2.0, extent=5.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            tables = list(pool.map(lambda _: build_staircase(spec, 0.5), range(8)))
    finally:
        sys.setswitchinterval(interval)
    for table in tables:
        assert table == tables[0]
        for arr in (table.t, table.s, table.t.base, table.s.base):
            assert not arr.flags.writeable


def test_eval_outside_span_raises(table02):
    with pytest.raises(DomainError):
        eval_staircase(table02, -0.01)
    with pytest.raises(DomainError):
        eval_staircase(table02, 1.01)
    # NaN is no point of the span, alone or inside an array
    with pytest.raises(DomainError):
        eval_staircase(table02, math.nan)
    with pytest.raises(DomainError):
        eval_staircase(table02, np.array([0.2, math.nan, 0.9]))


def test_characteristic_values():
    spec = CantorSpec(mu=0.2, depth=10)
    chi = characteristic(spec, ALPHA_02, np.array([0.0, 0.5, 1.0]))
    inv_gamma = 1.0 / GAMMA_02
    assert chi[0] == pytest.approx(inv_gamma, rel=1e-12)
    assert chi[1] == 0.0
    assert chi[2] == pytest.approx(inv_gamma, rel=1e-12)


def test_gamma_dimension_recovers_closed_form():
    for mu in (0.2, 1.0 / 3.0, 0.5):
        spec = CantorSpec(mu=mu, depth=14)
        fine = spec.keep_ratio ** 14
        coarse = spec.keep_ratio ** 10
        est = gamma_dimension(spec, coarse, fine)
        assert est == pytest.approx(hausdorff_dimension(mu), abs=1e-4)


def test_dimension_sweep_brackets_the_crossing():
    spec = CantorSpec(mu=0.2, depth=12)
    alphas, ratios, ratio_fn = dimension_sweep(
        spec, spec.keep_ratio ** 8, spec.keep_ratio ** 12)
    assert ratios[0] > 1.0       # below the dimension mass grows
    assert ratios[-1] < 1.0      # at order one it decays
    assert ratio_fn(ALPHA_02) == pytest.approx(1.0, abs=1e-9)


def test_gamma_dimension_requires_a_crossing():
    spec = CantorSpec(mu=0.2, depth=12)
    with pytest.raises(EstimationError) as exc:
        gamma_dimension(spec, spec.keep_ratio ** 8, spec.keep_ratio ** 12,
                        alphas=np.linspace(0.9, 1.0, 5))
    assert exc.value.ratios is not None


def test_gamma_dimension_stops_at_adjacent_floats():
    # no bracket is 1e-300 wide; this sweep's ratio reads exactly 1 at
    # a midpoint a few floats from the answer, where the bisection returns
    # before its bracket is down to two adjacent floats (the case below)
    est = gamma_dimension(CantorSpec(0.2, 12), 1e-3, 1e-5, tol=1e-300)
    assert abs(est - ALPHA_02) <= 4 * EPS
    assert abs(est - gamma_dimension(CantorSpec(0.2, 12), 1e-3, 1e-5)) <= 1e-10


def test_crossing_stops_at_two_adjacent_floats():
    # a ratio that is never exactly 1 leaves no early return: below the
    # smallest tolerance the bisection must stop when the bracket holds two
    # adjacent floats, and the count turns a missing stop into a failure
    calls = []

    def ratio(alpha):
        calls.append(alpha)
        if len(calls) > 200:
            raise AssertionError("the bisection does not stop")
        return 2.0 if alpha > 0.3 else 0.5

    est = _crossing(np.array([0.25, 0.35]), np.array([0.5, 2.0]), ratio, tol=5e-324)
    assert abs(est - 0.3) <= math.ulp(0.3)


def test_rejects_equal_resolution_depths():
    spec = CantorSpec(mu=0.2, depth=12)
    with pytest.raises(ParameterError):
        dimension_sweep(spec, 0.39, 0.38)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5])
def test_rejects_bad_alpha(alpha):
    spec = CantorSpec(mu=0.2, depth=4)
    with pytest.raises(ParameterError):
        build_staircase(spec, alpha)


@settings(max_examples=25)
@given(mu=st.floats(0.1, 0.9), t0=st.floats(0.0, 1.0))
def test_staircase_zero_at_anchor(mu, t0):
    table = build_staircase(CantorSpec(mu=mu, depth=8),
                            hausdorff_dimension(mu), t0=t0)
    assert abs(eval_staircase(table, t0)) <= 1e-12


@settings(max_examples=25)
@given(depth=st.integers(2, 12))
def test_total_mass_depth_stationary(depth):
    spec = CantorSpec(mu=0.2, depth=depth)
    table = build_staircase(spec, ALPHA_02)
    assert eval_staircase(table, 1.0) == pytest.approx(GAMMA_02, rel=1e-9)


def _reference_staircase(spec, alpha, t0):
    # S as a running sum of Gamma(alpha+1) (right - left)**alpha over the
    # computed endpoints
    iset = generate(spec)
    masses = math.gamma(alpha + 1.0) * iset.lengths() ** alpha
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    t = np.empty(2 * len(iset))
    s = np.empty(2 * len(iset))
    t[0::2] = iset.left
    t[1::2] = iset.right
    s[0::2] = cum[:-1]
    s[1::2] = cum[1:]
    return t, s - np.interp(t0, t, s)


def _exact_mass(spec, alpha):
    """The mass c = Gamma(alpha+1) (L r^m)^alpha of one covering interval.

    Computed in 113-bit arithmetic from the float alpha, base length and
    keep ratio, so it carries none of the rounding of the double formula.
    """
    with mpmath.workprec(113):
        return mpmath.gamma(mpmath.mpf(alpha) + 1) * (
            mpmath.mpf(spec.base_length) * mpmath.mpf(spec.keep_ratio) ** spec.depth
        ) ** mpmath.mpf(alpha)


def _exact_staircase(c, t, t0, idx):
    """Exact ((j+1)//2) * c - S(t0) at the breakpoint indices ``idx``.

    S(t0) interpolates the exact values linearly across the breakpoints t.
    """
    with mpmath.workprec(113):
        i = min(int(np.searchsorted(t, t0, side="right")) - 1, t.size - 2)
        anchor = ((i + 1) // 2) * c
        if i % 2 == 0:  # inside covering interval i // 2, which rises by c
            anchor += c * (mpmath.mpf(t0) - mpmath.mpf(t[i])) / (
                mpmath.mpf(t[i + 1]) - mpmath.mpf(t[i]))
        return [((int(j) + 1) // 2) * c - anchor for j in idx]


def _errors(s, exact, idx):
    """|s[j] - exact| at each index of ``idx``, as floats."""
    with mpmath.workprec(113):
        return [float(abs(mpmath.mpf(float(s[j])) - e)) for j, e in zip(idx, exact)]


def _sample(size, count):
    """About ``count`` evenly spread indices of an array, the last included."""
    return np.unique(np.r_[np.arange(0, size, max(size // count, 1)), size - 1])


@pytest.mark.parametrize("depth", [12, 16, 18])
@pytest.mark.parametrize("alpha,t0", [(ALPHA_02, 0.0), (0.5, 0.3), (1.0, 1.0)])
def test_build_staircase_matches_the_reference_formula(depth, alpha, t0):
    # the summed rises of the computed endpoints, the formula the table was
    # once built from, stay as the oracle: the closed form keeps its
    # breakpoints and moves S by no more than the sum's own drift, towards
    # the exact values
    spec = CantorSpec(mu=0.2, depth=depth)
    table = build_staircase(spec, alpha, t0=t0)
    t, s = _reference_staircase(spec, alpha, t0)
    assert np.array_equal(table.t, t)
    c = _exact_mass(spec, alpha)
    # the exact values rounded to doubles at every breakpoint, to within a
    # few ulp of the total, measure the sum's drift
    start = float(_exact_staircase(c, t, t0, [0])[0])
    near_exact = (np.arange(t.size) + 1) // 2 * float(c) + start
    drift = np.max(np.abs(s - near_exact))
    assert np.max(np.abs(table.s - s)) <= drift + 8 * np.spacing(2.0 ** depth * float(c))
    idx = _sample(t.size, 1024)
    exact = _exact_staircase(c, t, t0, idx)
    assert max(_errors(table.s, exact, idx)) < max(_errors(s, exact, idx))


@settings(max_examples=50)
@given(mu=st.floats(0.05, 0.75), alpha=st.floats(0.01, 1.0), depth=st.integers(0, 16))
def test_staircase_is_the_closed_form(mu, alpha, depth):
    # S = k*c at the left end of covering interval k: within 4 eps relative
    # of the exact value (the rounding of Gamma, the two powers and the
    # products), flat across every gap and never decreasing
    spec = CantorSpec(mu=mu, depth=depth)
    table = build_staircase(spec, alpha)
    s = table.s
    assert np.all(s[1:-1:2] == s[2::2])
    assert np.all(np.diff(s) >= 0.0)
    idx = _sample(s.size, 256)
    exact = _exact_staircase(_exact_mass(spec, alpha), table.t, spec.origin, idx)
    for j, err, e in zip(idx, _errors(s, exact, idx), exact):
        assert err <= 4 * EPS * float(e), j


@pytest.mark.parametrize("mu", [0.2, 1.0 / 3.0, 0.5])
@pytest.mark.parametrize("extent", [1.0, 60.0])
def test_total_mass_is_gamma_at_every_depth(mu, extent):
    # S(extent) = 2^m c is Gamma(alpha+1) L^alpha at the matching order; what
    # error is left comes from rounding alpha itself, amplified by m ln 2
    alpha = hausdorff_dimension(mu)
    expected = math.gamma(alpha + 1.0) * extent ** alpha
    for depth in range(21):
        table = build_staircase(CantorSpec(mu=mu, depth=depth, extent=extent), alpha)
        err = abs(eval_staircase(table, extent) - expected)
        assert err <= 4 * EPS * expected, depth


@pytest.mark.parametrize("origin,extent", [(0.0, 1.0), (-2.0, 3.0), (0.0, 60.0)])
@pytest.mark.parametrize("mu", [0.2, 0.5, 0.7])
def test_depth_is_an_error_bar_of_half_mu_c_m(mu, origin, extent):
    # at the matching order a deeper table's breakpoints carry the limit
    # staircase's values, so sup |S_m - S_(m+4)| over them is the distance
    # (mu/2) c_m from S_m to the limit, attained where each middle gap
    # begins; depths below float resolution are left out
    alpha = hausdorff_dimension(mu)
    checked = []
    for depth in (4, 8, 12, 16):
        spec = CantorSpec(mu=mu, depth=depth, origin=origin, extent=extent)
        try:
            deep = build_staircase(spec.with_depth(depth + 4), alpha)
        except ResolutionError:
            continue
        sup = np.max(np.abs(eval_staircase(build_staircase(spec, alpha), deep.t) - deep.s))
        assert sup == pytest.approx(mu / 2 * _interval_mass(spec, alpha), rel=1e-6), depth
        checked.append(depth)
    assert checked == ([4, 8, 12] if mu == 0.7 else [4, 8, 12, 16])


@settings(max_examples=40)
@given(mu=st.floats(0.05, 0.9), depth=st.integers(0, 10), origin=st.floats(-10.0, 10.0),
       length=st.floats(0.1, 100.0), anchor=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_staircase_is_flat_on_gaps_and_warp_time_inverts_it(mu, depth, origin, length,
                                                             anchor, seed):
    spec = CantorSpec(mu=mu, depth=depth, origin=origin, extent=origin + length)
    table = build_staircase(spec, hausdorff_dimension(mu), t0=origin + anchor * length)
    t, s = table.t, table.s
    assert np.all(s[1:] >= s[:-1])
    assert np.array_equal(s[1:-1:2], s[2::2])
    # breakpoints, segment midpoints, points inside covering intervals and
    # points anywhere in the span
    rng = np.random.default_rng(seed)
    k = 2 * rng.integers(0, t.size // 2, 200)
    x = np.concatenate([t, 0.5 * (t[:-1] + t[1:]),
                        t[k] + rng.uniform(0.0, 1.0, k.size) * (t[k + 1] - t[k]),
                        rng.uniform(t[0], t[-1], 200)])
    assert np.all(np.diff(eval_staircase(table, np.sort(x))) >= 0.0)
    # a gap is closed, [t[2i+1], t[2i+2]]: its right end is also the left end
    # of the next covering interval, where S has not yet risen
    j = np.searchsorted(t, x, side="right")
    odd = j % 2 == 1
    in_gap = (~odd & (j < t.size)) | (odd & (j >= 3) & (x == t[j - 1]))
    gap_start = t[np.where(odd, j - 2, j - 1)]
    back = warp_time(table, eval_staircase(table, x))
    assert np.array_equal(back[in_gap], gap_start[in_gap])
    # elsewhere S rises, and warp_time returns t to within rounding; it is
    # not always <= t, since S(t) is rounded before it is inverted
    assert np.all(np.abs(back[~in_gap] - x[~in_gap]) <= 4.0 * np.spacing(np.max(np.abs(t))))
