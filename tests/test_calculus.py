import math

import numpy as np
import pytest

from fractalcalc import (
    CantorSpec,
    DomainError,
    GridFunction,
    ParameterError,
    ResolutionError,
    build_staircase,
    derivative_grid,
    eval_staircase,
    fractal_derivative,
    fractal_integral,
    hausdorff_dimension,
    in_set,
    set_samples,
)
from fractalcalc.cantor import _search

ALPHA = 0.7564707973660301
GAMMA = math.gamma(ALPHA + 1.0)


@pytest.fixture(scope="module")
def table():
    return build_staircase(CantorSpec(mu=0.2, depth=12), ALPHA)


@pytest.fixture(scope="module")
def staircase_fn(table):
    # f(t) = S(t); its derivative with respect to the staircase is one
    return GridFunction.from_function(table, lambda t: eval_staircase(table, t))


def test_in_set_distinguishes_points(table):
    assert in_set(table, 0.0)
    assert in_set(table, 1.0)
    assert in_set(table, 0.4)
    assert in_set(table, 0.6)       # gap endpoints belong to the set
    assert not in_set(table, 0.5)
    assert not in_set(table, 0.41)
    with pytest.raises(DomainError):
        in_set(table, -0.1)


def test_a_hand_built_grid_function_is_accepted(staircase_fn):
    f = staircase_fn
    g = GridFunction(f.table, f.t, f.s, f.values)
    assert all(np.array_equal(getattr(g, x), getattr(f, x)) for x in ("t", "s", "values"))
    assert fractal_integral(g, 0.0, 1.0) == fractal_integral(f, 0.0, 1.0)


# two samples across the first gap, and one sample at the origin
UNRESOLVED = {
    "derivative-across-a-gap": lambda gap, one: fractal_derivative(gap, gap.t[0]),
    "derivative-grid-across-a-gap": lambda gap, one: derivative_grid(gap),
    "derivative-grid-one-sample": lambda gap, one: derivative_grid(one),
    "integral-one-sample": lambda gap, one: fractal_integral(one, 0.0, 0.5),
}


@pytest.mark.parametrize("name", sorted(UNRESOLVED))
def test_too_few_samples_are_resolution_errors(table, name):
    gap = GridFunction.from_values(table, table.t[1:3], [1.0, 2.0])
    one = GridFunction.from_values(table, [0.0], [1.0])
    with pytest.raises(ResolutionError):
        UNRESOLVED[name](gap, one)


def test_from_function_defaults_to_breakpoints(table):
    f = GridFunction.from_function(table, lambda t: t)
    assert len(f) == len(table.t)
    assert np.array_equal(f.t, table.t)


def test_from_function_falls_back_per_element(table):
    # math.exp refuses an array, so _apply calls it once per sample; the
    # result is math.exp of each sample exactly, and within two ulps of
    # np.exp, whose own algorithm may round differently
    f = GridFunction.from_function(table, math.exp)
    exact = np.array([math.exp(t) for t in table.t.tolist()])
    assert f.values.tobytes() == exact.tobytes()
    assert np.allclose(f.values, np.exp(table.t), rtol=4e-16, atol=0.0)


def test_from_values_requires_set_points(table):
    with pytest.raises(ParameterError):
        GridFunction.from_values(table, [0.0, 0.5], [1.0, 1.0])
    # the message counts the off-set points and names the first
    with pytest.raises(ParameterError, match=r"2 sample point\(s\).*0\.5"):
        GridFunction.from_values(table, [0.0, 0.5, 0.52, 1.0], np.zeros(4))
    for t in ([0.0, 1.5], [0.0, math.nan], [-0.1, 0.5]):
        with pytest.raises(DomainError):
            GridFunction.from_values(table, t, np.zeros(len(t)))


def test_grid_functions_leave_the_callers_arrays_writable(table):
    t = table.t[::4].copy()
    values = np.arange(t.size, dtype=float)
    f = GridFunction.from_values(table, t, values)
    g = GridFunction.from_function(table, np.sin, t=t)
    # fn hands back an array the caller holds
    h = GridFunction.from_function(table, lambda x: values, t=t)
    assert t.flags.writeable and values.flags.writeable
    # the functions hold read-only copies, so the caller's writes miss them
    t[0] = values[0] = -1.0
    assert f.t[0] == g.t[0] == table.t[0] and f.values[0] == h.values[0] == 0.0
    assert not any(a.flags.writeable
                   for a in (f.t, f.s, f.values, g.t, g.s, g.values, h.values))
    # an array that is read-only already is kept as it is
    assert GridFunction.from_function(table, np.sin).t is table.t


def test_derivative_of_staircase_is_one(staircase_fn):
    d = derivative_grid(staircase_fn)
    assert np.allclose(d.values, 1.0, atol=1e-9)


def test_derivative_off_set_is_zero(staircase_fn):
    assert fractal_derivative(staircase_fn, 0.5) == 0.0
    assert fractal_derivative(staircase_fn, 0.45) == 0.0


def test_derivative_at_unsampled_set_point_raises(table):
    f = GridFunction.from_values(table, [0.0, 0.4, 0.6, 1.0],
                                 [0.0, 1.0, 2.0, 3.0])
    # 0.16 belongs to the set but carries no stored sample
    with pytest.raises(ParameterError):
        fractal_derivative(f, 0.16)


def test_derivative_matches_chain_rule(table):
    # for f = S^2 the staircase quotient gives 2 S exactly up to grid error
    f = GridFunction.from_function(
        table, lambda t: eval_staircase(table, t) ** 2)
    d = derivative_grid(f)
    expected = 2.0 * f.s
    assert np.allclose(d.values, expected, atol=5e-4)


def test_interior_quotient_matches_the_grid_derivative(table):
    # interior samples of set_samples sit inside covering segments, where
    # the scalar quotient and the grid one use the same neighbours
    t = set_samples(table, 2)
    f = GridFunction.from_function(table, lambda x: np.exp(eval_staircase(table, x)), t=t)
    grid = derivative_grid(f)
    for i in (1, 5, 6, 401, t.size - 2):
        assert fractal_derivative(f, t[i]) == grid.values[i]
    # the two ends use one-sided quotients
    assert fractal_derivative(f, t[0]) == grid.values[0]
    assert fractal_derivative(f, t[-1]) == grid.values[-1]


def test_single_sample_derivative_raises(table):
    f = GridFunction.from_values(table, [0.0], [1.0])
    with pytest.raises(ResolutionError):
        fractal_derivative(f, 0.0)


def test_integral_of_one_is_total_mass(table):
    f = GridFunction.from_function(table, lambda t: np.ones_like(t))
    assert fractal_integral(f, 0.0, 1.0) == pytest.approx(GAMMA, rel=1e-9)


def test_integral_splits_additively(table):
    f = GridFunction.from_function(table, lambda t: eval_staircase(table, t))
    whole = fractal_integral(f, 0.0, 1.0)
    parts = fractal_integral(f, 0.0, 0.4) + fractal_integral(f, 0.4, 1.0)
    assert whole == pytest.approx(parts, rel=1e-12)


def test_integral_over_gap_is_zero(table):
    f = GridFunction.from_function(table, lambda t: np.ones_like(t))
    assert fractal_integral(f, 0.41, 0.59) == 0.0


def test_integral_fundamental_pairing(table):
    # integrating D(S^2) recovers S(1)^2 to first order in the grid spacing
    f = GridFunction.from_function(
        table, lambda t: eval_staircase(table, t) ** 2)
    d = derivative_grid(f)
    total = fractal_integral(d, 0.0, 1.0)
    assert total == pytest.approx(GAMMA ** 2, rel=1e-3)


def test_breakpoint_grid_integrates_staircase_functions_exactly(table):
    # on the bare breakpoint grid the quotient collapses to a per-segment
    # secant and the left sum telescopes, so the pairing is exact to rounding
    f = GridFunction.from_function(
        table, lambda t: np.exp(eval_staircase(table, t)))
    total = fractal_integral(derivative_grid(f), 0.0, 1.0)
    expected = math.exp(eval_staircase(table, 1.0)) - 1.0
    assert total == pytest.approx(expected, rel=1e-12)


def test_ftc_error_shrinks_with_depth():
    errors = []
    for depth in (6, 8, 10):
        tab = build_staircase(CantorSpec(mu=0.2, depth=depth), ALPHA)
        grid = set_samples(tab, 3)
        f = GridFunction.from_function(
            tab, lambda t: eval_staircase(tab, t) ** 2, t=grid)
        total = fractal_integral(derivative_grid(f), 0.0, 1.0)
        errors.append(abs(total - eval_staircase(tab, 1.0) ** 2))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] <= 1e-2 * GAMMA ** 2


def _observed_orders(errors, spacings):
    errors, spacings = np.asarray(errors), np.asarray(spacings)
    return np.log(errors[:-1] / errors[1:]) / np.log(spacings[:-1] / spacings[1:])


def test_operators_converge_at_their_stated_orders():
    # exp(S) on a depth-8 table with p interior samples per covering
    # segment, whose spacing within a segment is 1/(p+1) of its length: the
    # symmetric quotient is second order inside the segments and first
    # order at the samples next to a gap, where S is flat; the left sum is
    # first order
    tab = build_staircase(CantorSpec(mu=0.2, depth=8), hausdorff_dimension(0.2))
    median, largest, integral, spacings = [], [], [], []
    for p in (8, 16, 32):
        f = GridFunction.from_function(
            tab, lambda t: np.exp(eval_staircase(tab, t)), t=set_samples(tab, p))
        err = np.abs(derivative_grid(f).values - np.exp(f.s))
        median.append(np.median(err))
        largest.append(err.max())
        exact = math.exp(f.s[-1]) - math.exp(f.s[0])
        integral.append(abs(fractal_integral(f, *tab.span) - exact))
        spacings.append(1.0 / (p + 1))
    # measured: 2.09 and 2.04, then 1.00 for the largest error and the sum
    for errors, lo, hi in ((median, 1.9, 2.2), (largest, 0.95, 1.05), (integral, 0.95, 1.05)):
        orders = _observed_orders(errors, spacings)
        assert np.all((lo <= orders) & (orders <= hi)), orders


def test_set_samples_layout(table):
    grid = set_samples(table, 2)
    assert grid.size == 2 * len(table.t)
    assert np.all(np.diff(grid) > 0.0)
    base = set_samples(table, 0)
    assert np.array_equal(base, table.t)


def test_segment_index_alternates(table):
    # segment k runs from breakpoint k to k + 1: even segments cover set
    # intervals, odd segments cover gaps
    assert (_search(table.t, 0.1)[0] - 1) % 2 == 0
    assert (_search(table.t, 0.5)[0] - 1) % 2 == 1
