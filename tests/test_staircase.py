import math

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
)

ALPHA_02 = 0.7564707973660301          # order matching the mu=0.2 set
GAMMA_02 = math.gamma(ALPHA_02 + 1.0)  # 0.9205501437736353


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
    # the breakpoint table as a plain cumulative sum, without in-place work
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


@pytest.mark.parametrize("depth", [12, 16, 18])
@pytest.mark.parametrize("alpha,t0", [(ALPHA_02, 0.0), (0.5, 0.3), (1.0, 1.0)])
def test_build_staircase_matches_the_reference_formula(depth, alpha, t0):
    spec = CantorSpec(mu=0.2, depth=depth)
    table = build_staircase(spec, alpha, t0=t0)
    t, s = _reference_staircase(spec, alpha, t0)
    assert np.array_equal(table.t, t)
    assert np.array_equal(table.s, s)
