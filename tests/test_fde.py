import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import fractalcalc.fde
from fractalcalc import (
    CantorSpec,
    DomainError,
    FdeConstants,
    FdeSystem,
    NumericalBlowupError,
    ParameterError,
    ResolutionError,
    StaircaseTable,
    Trajectory,
    build_staircase,
    classify_stability,
    eval_staircase,
    example1_exact,
    example1_field,
    example2_system,
    example3_system,
    hausdorff_dimension,
    linear_damped_system,
    solve_first_order,
    solve_second_order,
    theorem1_toy,
    theorem2_toy,
    verify_theorem1,
    verify_theorem2,
    warp_time,
)
from fractalcalc.expressions import compile_expression
from fractalcalc.fde import (
    BLOWUP_LIMIT,
    _BlowupSignal,
    _integrate,
)
from fractalcalc.staircase import _interval_mass

ALPHA = 0.7564707973660301


@pytest.fixture(scope="module")
def table():
    return build_staircase(CantorSpec(mu=0.2, depth=12), ALPHA)


@pytest.fixture(scope="module")
def long_table():
    return build_staircase(
        CantorSpec(mu=0.2, depth=12, origin=0.0, extent=60.0), ALPHA)


def test_linear_decay_matches_exact_solution(table):
    for c in (1.0, 0.5):
        traj = solve_first_order(lambda y: -y, table, c, 1.0, dtau=1e-3)
        exact = example1_exact(c, traj.tau)
        assert np.max(np.abs(traj.y - exact)) <= 1e-9
        rel = abs(traj.y[-1] - exact[-1]) / abs(exact[-1])
        assert rel <= 1e-6


@pytest.mark.parametrize("extent", [1.0, 60.0])
@pytest.mark.parametrize("mu", [0.2, 0.5])
def test_example1_is_within_half_mu_c_m_of_the_limit(mu, extent):
    # exp(-S_m(t)) lies within (mu/2) c_m of the limit's exp(-S(t)), since
    # |e^-a - e^-b| <= |a - b|, and S_(m+4) within (mu/2) c_(m+4) of S; the
    # solver adds about 3e-11, and the ratio to (mu/2) c_m reads 0.64-0.97
    # (every depth here, and its depth + 4, is within float resolution)
    alpha = hausdorff_dimension(mu)
    for depth in (4, 8, 12, 16):
        spec = CantorSpec(mu=mu, depth=depth, extent=extent)
        deep = build_staircase(spec.with_depth(depth + 4), alpha)
        traj = solve_first_order(example1_field, build_staircase(spec, alpha), 1.0, extent,
                                 dtau=1e-2)
        sup = np.max(np.abs(traj.y - np.exp(-eval_staircase(deep, traj.t))))
        bar = mu / 2 * _interval_mass(spec, alpha)
        assert bar / 2 <= sup <= bar + mu / 2 * _interval_mass(deep.spec, alpha) + 1e-10, depth


def test_trajectory_time_axes_are_consistent(table):
    traj = solve_first_order(lambda y: -y, table, 1.0, 1.0, dtau=1e-3)
    assert traj.tau[0] == 0.0
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(1.0)
    assert traj.tau[-1] == pytest.approx(eval_staircase(table, 1.0), rel=1e-12)
    assert np.all(np.diff(traj.tau) > 0.0)
    assert np.all(np.diff(traj.t) >= 0.0)
    # time spent inside gaps is skipped by the clock
    s_at_t = eval_staircase(table, traj.t)
    assert np.allclose(s_at_t, traj.tau, atol=1e-12)


def test_euler_converges_linearly(table):
    errs = []
    for dtau in (1e-2, 1e-3):
        traj = solve_first_order(lambda y: -y, table, 1.0, 1.0,
                                 dtau=dtau, method="euler")
        errs.append(abs(traj.y[-1] - example1_exact(1.0, traj.tau[-1])))
    assert errs[0] > errs[1]
    assert errs[1] / errs[0] == pytest.approx(0.1, rel=0.2)


def test_rk4_converges_at_fourth_order(long_table):
    # example 1 against its closed form exp(-S) at t = 60, halving dtau
    # from 0.2 to 0.025; the observed orders are about 4.12, 4.06 and 4.03
    errs = []
    for dtau in (0.2, 0.1, 0.05, 0.025):
        traj = solve_first_order(example1_field, long_table, 1.0, 60.0, dtau=dtau)
        errs.append(abs(traj.y[-1] - example1_exact(1.0, traj.tau[-1])))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all((3.8 <= orders) & (orders <= 4.2)), orders


def _damped_closed_form(p):
    """y'' + y' + y = p exp(-tau) from (y0, z0), as (y, z) at tau."""
    w = math.sqrt(3.0) / 2.0

    def exact(tau, y0, z0):
        A = y0 - p
        B = (z0 + p + A / 2.0) / w
        decay, forced = np.exp(-tau / 2.0), p * np.exp(-tau)
        c, s = np.cos(w * tau), np.sin(w * tau)
        return (decay * (A * c + B * s) + forced,
                decay * ((w * B - A / 2.0) * c - (w * A + B / 2.0) * s) - forced)
    return exact


def _spring_closed_form(k):
    """y'' + k y = 0 from (y0, z0), as (y, z) at tau."""
    r = math.sqrt(k)
    return lambda tau, y0, z0: (y0 * np.cos(r * tau) + z0 / r * np.sin(r * tau),
                                z0 * np.cos(r * tau) - r * y0 * np.sin(r * tau))


# (builder, closed form, bound on the largest error in y and z at dtau
# 1e-3); the damped errors there are about 1e-14, the spring-4 ones 2e-11
_LINEAR = {
    "theorem1_toy": (theorem1_toy, _damped_closed_form(0.0), 1e-13),
    "linear_damped_system": (linear_damped_system, _damped_closed_form(0.0), 1e-13),
    "theorem2_toy": (theorem2_toy, _damped_closed_form(1.0), 1e-13),
    "example3_system-0.25": (lambda: example3_system(0.25), _spring_closed_form(0.25), 1e-13),
    "example3_system-4": (lambda: example3_system(4.0), _spring_closed_form(4.0), 1e-10),
}


@pytest.mark.parametrize("name", list(_LINEAR))
@pytest.mark.parametrize("depth,extent,mu,start", [
    (12, 60.0, 0.2, (1.5, -0.5)), (6, 60.0, 0.2, (-2.0, 1.0)),
    (16, 10.0, 0.3, (0.0, 1.0)), (4, 100.0, 1.0 / 3.0, (-1.0, -1.5)),
], ids=["depth12-extent60-mu0.2", "depth6-extent60-mu0.2", "depth16-extent10-mu0.3",
        "depth4-extent100-mu1/3"])
def test_linear_systems_match_their_closed_forms(name, depth, extent, mu, start):
    # the march is in tau, so every recorded state sits on the closed form
    # whatever the table; halving dtau from 1e-2 cuts the error 16-fold
    make, exact, bound = _LINEAR[name]
    spec = CantorSpec(mu=mu, depth=depth, origin=0.0, extent=extent)
    table = build_staircase(spec, hausdorff_dimension(mu))
    errs = []
    for dtau in (1e-2, 5e-3, 1e-3):
        traj = solve_second_order(make(), table, *start, extent, dtau=dtau)
        y, z = exact(traj.tau, *start)
        errs.append(max(np.max(np.abs(traj.y - y)), np.max(np.abs(traj.z - z))))
    assert 3.8 <= math.log2(errs[0] / errs[1]) <= 4.2, errs
    assert errs[2] <= bound, errs


@pytest.mark.parametrize("name,conditions", [
    ("theorem1_toy", ("C1", "C2", "C3", "C4")),
    ("theorem2_toy", ("C1", "C2", "C3", "C4", "C5", "C6", "C7")),
], ids=["verify_theorem1", "verify_theorem2"])
def test_verifier_fans_match_the_closed_form(long_table, name, conditions):
    # each verifier's default fan, at its default dtau and record_every, at
    # every recorded state; the largest error is about 2e-14
    from fractalcalc.lyapunov import _march_fan

    make, exact, _ = _LINEAR[name]
    *_, taus, (Y, Z), escaped = _march_fan(make(), long_table, conditions, None, None,
                                           None, 1e-3, 10)
    y, z = exact(taus[:, None], Y[0], Z[0])
    assert Y.shape == (taus.size, 16) and not escaped.any()
    assert max(np.max(np.abs(Y - y)), np.max(np.abs(Z - z))) <= 1e-13


def test_record_every_thins_output(table):
    dense = solve_first_order(lambda y: -y, table, 1.0, 1.0, dtau=1e-3)
    thin = solve_first_order(lambda y: -y, table, 1.0, 1.0, dtau=1e-3,
                             record_every=10)
    assert len(thin) < len(dense)
    assert thin.tau[-1] == dense.tau[-1]
    assert thin.y[-1] == dense.y[-1]


@pytest.mark.parametrize("every", [1.5, 10.0, True, 0, -2, "10", None],
                         ids=["fractional", "integral-float", "bool", "zero",
                              "negative", "string", "none"])
def test_record_every_must_be_a_positive_integer(table, every):
    with pytest.raises(ParameterError, match="record_every"):
        solve_first_order(lambda y: -y, table, 1.0, 1.0, record_every=every)
    with pytest.raises(ParameterError, match="record_every"):
        solve_second_order(example2_system(), table, 1.0, 0.0, 1.0,
                           record_every=every)


def test_record_every_takes_numpy_integers(table):
    plain = solve_first_order(lambda y: -y, table, 1.0, 1.0, record_every=10)
    numpy = solve_first_order(lambda y: -y, table, 1.0, 1.0,
                              record_every=np.int64(10))
    assert np.array_equal(plain.tau, numpy.tau)
    assert np.array_equal(plain.y, numpy.y)


def test_second_order_oscillator_conserves_energy(table):
    sys = example3_system(1.0)
    traj = solve_second_order(sys, table, 1.0, 0.0, 1.0, dtau=1e-3)
    energy = 0.5 * (traj.y ** 2 + traj.z ** 2)
    assert np.max(np.abs(energy - energy[0])) <= 1e-12


def test_second_order_damped_decays(long_table):
    sys = example2_system()
    traj = solve_second_order(sys, long_table, 1.0, 0.0, 60.0, dtau=1e-3,
                              record_every=100)
    assert abs(traj.y[-1]) < 1e-3
    assert abs(traj.z[-1]) < 1e-3


def test_forced_system_stays_bounded(long_table):
    traj = solve_second_order(theorem2_toy(), long_table, 2.0, 0.0, 60.0,
                              dtau=1e-3, record_every=100)
    assert np.max(np.hypot(traj.y, traj.z)) < 10.0


def test_at_time_interpolates(table):
    traj = solve_first_order(lambda y: -y, table, 1.0, 1.0, dtau=1e-3)
    (y_mid,) = traj.at_time(0.7)
    tau_mid = eval_staircase(table, 0.7)
    assert y_mid == pytest.approx(math.exp(-tau_mid), rel=1e-6)


def test_second_order_trajectory_queries(table):
    traj = solve_second_order(example3_system(1.0), table, 1.0, 0.0, 1.0,
                              dtau=1e-3)
    assert traj.terminal == (float(traj.y[-1]), float(traj.z[-1]))
    assert solve_first_order(lambda y: -y, table, 1.0, 1.0).terminal == (
        pytest.approx(math.exp(-traj.tau[-1]), rel=1e-9),)
    # the undamped oscillator from (1, 0) is (cos tau, -sin tau), up to the
    # linear interpolation between records 1e-3 apart
    y, z = traj.at_time(0.7)
    assert type(y) is float and type(z) is float
    tau = eval_staircase(table, 0.7)
    assert (y, z) == (pytest.approx(math.cos(tau), abs=1e-6),
                      pytest.approx(-math.sin(tau), abs=1e-6))
    # an array query matches the scalar ones; the central gap holds the
    # state of its left edge
    ts = np.array([0.0, 0.4, 0.5, 0.7, 1.0])
    ys, zs = traj.at_time(ts)
    assert ys.tolist() == [traj.at_time(t)[0] for t in ts]
    assert zs.tolist() == [traj.at_time(t)[1] for t in ts]
    assert (ys[2], zs[2]) == (ys[1], zs[1])


def test_numeric_hooks_match_the_analytic_ones():
    # without its analytic hooks the system falls back to quad for H and to
    # central differences for h' and v'
    exact = linear_damped_system()
    bare = dataclasses.replace(exact, h_integral=None, h_derivative=None,
                               v_derivative=None)
    ys = np.linspace(-3.0, 3.0, 13)
    for y in (ys, 1.5):
        assert bare.restoring_integral(y) == pytest.approx(
            exact.restoring_integral(y), rel=1e-12, abs=1e-15)
        assert bare.restoring_slope(y) == pytest.approx(
            exact.restoring_slope(y), rel=1e-8)
        assert bare.coefficient_slope(y) == pytest.approx(
            exact.coefficient_slope(y), abs=1e-8)
    assert type(bare.restoring_integral(1.5)) is float
    assert bare.restoring_integral(ys).shape == ys.shape
    assert type(bare.restoring_slope(1.5)) is float
    assert bare.coefficient_slope(ys).shape == ys.shape


def test_numeric_potential_hands_quad_scalar_bounds_only(monkeypatch):
    # quad takes no array bound, so H(y) goes per element from the start;
    # each element is the value quad gives on that bound alone
    bare = dataclasses.replace(linear_damped_system(), h_integral=None)
    ys = np.linspace(-3.0, 3.0, 13)
    expected = [quad(bare.h, 0.0, y, limit=200)[0] for y in ys]
    bounds = []

    def scalar_quad(fn, a, b, **kw):
        bounds.append(b)
        return quad(fn, a, b, **kw)

    monkeypatch.setattr(fractalcalc.fde, "quad", scalar_quad)
    assert bare.restoring_integral(ys).tolist() == expected
    assert bare.restoring_integral(ys[4]) == expected[4]
    assert len(bounds) == ys.size + 1
    assert all(np.ndim(b) == 0 for b in bounds)


def test_blowup_raises_with_partial_trajectory(long_table):
    with pytest.raises(NumericalBlowupError) as exc:
        solve_first_order(lambda y: y * y, long_table, 3.0, 60.0, dtau=1e-3)
    traj = exc.value.trajectory
    assert traj is not None
    assert len(traj) > 1
    assert np.all(np.isfinite(traj.y))


@pytest.mark.parametrize("order", [1, 2])
def test_a_trajectorys_arrays_are_read_only(long_table, order):
    if order == 1:
        traj = solve_first_order(lambda y: -y, long_table, 1.0, 1.0)
    else:
        traj = solve_second_order(example3_system(), long_table, 1.0, 0.0, 1.0)
    terminal = traj.terminal
    arrays = [traj.t, traj.tau, traj.y] + ([traj.z] if order == 2 else [])
    for arr in arrays:
        assert not arr.flags.writeable
        assert arr.base is None or not arr.base.flags.writeable
        with pytest.raises(ValueError):
            arr[:] = 5.0
    assert traj.terminal == terminal
    # at_time reads writable handles, which view the same records
    assert np.shares_memory(traj._y, traj.y) and traj._y.flags.writeable


def test_a_partial_trajectory_is_read_only(long_table):
    with pytest.raises(NumericalBlowupError) as exc:
        solve_first_order(lambda y: y * y, long_table, 3.0, 60.0, dtau=1e-3)
    traj = exc.value.trajectory
    with pytest.raises(ValueError):
        traj.y[-1] = 0.0
    assert not traj.tau.base.flags.writeable


@pytest.mark.parametrize("flow,gave", [
    (lambda y: "x", "(str)"), (lambda y: None, "(NoneType)"),
    (lambda y: (1.0, 2.0), "(tuple)"), (lambda y: "1.5", "(str)"),
], ids=["string", "none", "pair", "numeric-string"])
def test_a_single_state_march_names_a_flow_that_gives_no_number(table, flow, gave):
    # the float step fails, and the np.float64 retry checks the first stage
    with pytest.raises(ParameterError, match=re.escape(f"1 component(s) of type(s) {gave}")):
        solve_first_order(flow, table, 1.0, 1.0)


def test_a_damped_system_whose_h_gives_no_number_is_a_parameter_error(table):
    # the bound flow multiplies h(y) itself, so the float step and the
    # retry's first stage both raise TypeError, which the adapter names
    sys = dataclasses.replace(example3_system(), h=lambda y: None)
    with pytest.raises(ParameterError, match="a call raised TypeError"):
        solve_second_order(sys, table, 1.0, 0.0, 1.0)


def test_a_flow_that_raises_value_error_is_a_parameter_error(table):
    with pytest.raises(ParameterError, match="ValueError: math domain error") as exc:
        solve_first_order(lambda y: math.sqrt(y), table, -1.0, 1.0)
    assert isinstance(exc.value, ValueError)


def test_a_flows_own_package_error_propagates_unchanged(table):
    def g(y):
        raise ParameterError("the flow's own error")

    with pytest.raises(ParameterError, match="^the flow's own error$"):
        solve_first_order(g, table, 1.0, 1.0)


@pytest.fixture(scope="module")
def depth10_table():
    return build_staircase(CantorSpec(mu=0.2, depth=10, origin=0.0, extent=60.0), ALPHA)


def _u_until(fail):
    # theorem1_toy's u = 1 up to tau = 20.2; the (C1)-(C7) grid stops at 20,
    # so only the verifier's fan march calls fail()
    return lambda tau: 1.0 if np.all(np.asarray(tau) <= 20.2) else fail()


def _planar_until(fail):
    # a damped planar field, marched on the block's rows, that calls fail() past tau = 1
    return lambda tau, y, z: (z, -y - z) if tau <= 1.0 else (z, fail())


# marches whose flow calls fail() well after the march has begun, each on
# np.float64 components, by (fail, depth-10 table, depth-12 table)
_MID_MARCH = {
    # a later RK4 stage goes negative; the hand-over checks only the first
    "sqrt-rk4": lambda fail, t10, t12: solve_first_order(
        lambda y: -math.sqrt(y) if y >= 0.0 else fail(), t10, 1.0, 60.0, dtau=1e-2),
    # np.float64 results hand the march over at step 0, long before y = 0.5
    **{f"float64-{method}": lambda fail, t10, t12, method=method: solve_first_order(
        lambda y: np.float64(-y) if y > 0.5 else fail(), t10, 1.0, 60.0, dtau=1e-2,
        method=method) for method in ("rk4", "euler")},
    "classify_stability": lambda fail, t10, t12: classify_stability(
        _planar_until(fail), t10, (0.0, 0.0), dtau=1e-2),
    "verify_theorem1": lambda fail, t10, t12: verify_theorem1(
        dataclasses.replace(theorem1_toy(), u=_u_until(fail)), t12, dtau=1e-2),
    "verify_theorem2": lambda fail, t10, t12: verify_theorem2(
        dataclasses.replace(theorem2_toy(), u=_u_until(fail)), t12, dtau=1e-2),
}


@pytest.mark.parametrize("march", list(_MID_MARCH))
def test_every_march_names_what_its_flow_raises(march, depth10_table, long_table):
    own = ParameterError("the flow's own error")

    def run(fail):
        _MID_MARCH[march](fail, depth10_table, long_table)

    def own_error():
        raise own

    with pytest.raises(ParameterError, match="a call raised ValueError: math domain") as exc:
        run(lambda: math.log(-1.0))
    assert isinstance(exc.value, ValueError) and type(exc.value.__cause__) is ValueError
    assert str(exc.value.__cause__) == "math domain error"
    # a package error is the flow's own, and no other error is the rule's
    with pytest.raises(ParameterError) as exc:
        run(own_error)
    assert exc.value is own
    with pytest.raises(ZeroDivisionError):
        run(lambda: 1 // 0)


# marches whose flow turns complex once the march is under way, each on
# np.float64 components, by the depth-10 table
_TURNS_COMPLEX = {
    **{f"float64-{method}": lambda t10, method=method: solve_first_order(
        lambda y: np.float64(-y) if y > 0.5 else 1j, t10, 1.0, 60.0, dtau=1e-2,
        method=method) for method in ("rk4", "euler")},
    "classify_stability": lambda t10: classify_stability(
        lambda tau, y, z: (z, -y) if tau < 1.0 else (z + 0j, -y + 0j), t10, dtau=1e-2),
}


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")  # the flow's own cast
@pytest.mark.parametrize("march", list(_TURNS_COMPLEX))
def test_a_marchs_state_stays_float64_of_its_shape(march, depth10_table):
    # the real parts were stored with only a ComplexWarning: the solves
    # ended near y = 0.499, and the undamped field read lyapunov-stable
    with pytest.raises(ParameterError, match=r"^the step from tau=\S+ gave complex128 "):
        _TURNS_COMPLEX[march](depth10_table)


def test_a_trajectorys_arrays_must_match(table):
    with pytest.raises(ParameterError, match="must be matching 1-d arrays"):
        Trajectory(t=[0.0, 0.5], tau=[0.0, 0.5, 1.0], y=[1.0, 0.5, 0.25], z=None,
                   table=table)


def test_rejects_bad_dtau(table):
    with pytest.raises(ParameterError):
        solve_first_order(lambda y: -y, table, 1.0, 1.0, dtau=0.0)
    for method in ("leapfrog", []):
        with pytest.raises(ParameterError):
            solve_first_order(lambda y: -y, table, 1.0, 1.0, dtau=1e-3, method=method)


@pytest.mark.parametrize("t_end,dtau", [
    (math.nan, 1e-3), (1.0, math.inf), (1.0, math.nan), (1.0, -1e-3),
    # 1e15 steps: refused by the step budget before any allocation
    (1.0, 1e-15),
], ids=["t_end-nan", "dtau-inf", "dtau-nan", "dtau-negative", "dtau-tiny"])
def test_rejects_bad_horizons_and_steps(table, t_end, dtau):
    with pytest.raises(ParameterError):
        solve_first_order(lambda y: -y, table, 1.0, t_end, dtau=dtau)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("g", [lambda y: 1.0 / y, lambda y: (-1.0 - y) ** 0.5],
                         ids=["reciprocal", "root-of-negative"])
def test_scalar_state_gives_ieee_blowup(table, g):
    # the one-state march keeps np.float64 components: 1/0 is inf and a
    # negative base to a fractional power is nan, never a Python exception
    with pytest.raises(NumericalBlowupError):
        solve_first_order(g, table, 0.0, 1.0, dtau=1e-3)


def _owner(arr):
    # the array that owns the memory arr views
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


@pytest.mark.parametrize("dim", [1, 2])
def test_a_partial_trajectory_holds_only_its_records(long_table, dim):
    # the flows leave the ball |x| <= 10 near tau = 2.3 and 4.2, in the
    # first quarter of the march, so its buffers are far longer
    with pytest.raises(NumericalBlowupError) as info:
        if dim == 1:
            solve_first_order(lambda y: y, long_table, 1.0, 60.0, blowup_limit=10.0)
        else:
            unstable = dataclasses.replace(linear_damped_system(), h=lambda y: -y)
            solve_second_order(unstable, long_table, 1.0, 0.0, 60.0, blowup_limit=10.0)
    traj = info.value.trajectory
    assert 0 < traj.tau[-1] < traj.meta["tau_end"] / 4
    for name, per_record in (("t", 1), ("tau", 1), ("y", dim), ("z", dim))[:2 + dim]:
        assert _owner(getattr(traj, name)).size <= per_record * len(traj), name


def test_one_column_batch_matches_the_solve_bit_for_bit(long_table):
    from fractalcalc.lyapunov import _batch_integrate, as_tau_field

    sys = example2_system()
    traj = solve_second_order(sys, long_table, 0.7, -0.3, 5.0, dtau=1e-2)
    rhs, dim = as_tau_field(sys)
    taus, blocks, escaped = _batch_integrate(
        rhs, dim, [[0.7], [-0.3]], traj.meta["tau_end"], 1e-2, 1)
    assert not escaped.any()
    assert np.array_equal(taus, traj.tau)
    assert np.array_equal(blocks[0, :, 0], traj.y)
    assert np.array_equal(blocks[1, :, 0], traj.z)


def test_an_escaped_column_holds_its_clipped_value():
    from fractalcalc.lyapunov import _batch_integrate

    # column 0 spirals out through the ball's edge near tau = 28 and keeps
    # leaving it; column 1 rests at the origin
    taus, blocks, escaped = _batch_integrate(lambda tau, y, z: (y + z, -y + z), 2,
                                             [[1.0, 0.0], [0.0, 0.0]], 40.0, 1e-2, 1)
    assert escaped.tolist() == [True, False]
    edge = int(np.argmax(np.abs(blocks[:, :, 0]).max(axis=0) == BLOWUP_LIMIT))
    assert 0 < edge < len(taus) - 1
    assert np.all(blocks[:, edge:, 0] == blocks[:, edge, 0, None])
    assert not blocks[:, :, 1].any()


def _method_rhs(sys):
    # the system's formula, reading every field from the instance at each
    # call: the reference for the flow a march binds once
    def rhs(tau, y, z):
        zdot = -sys.u(tau) * sys.f(y, z) * z - sys.v(tau) * sys.h(y)
        if sys.q is not None:
            zdot = zdot + sys.q(tau, y, z)
        return z, zdot

    return rhs


@pytest.mark.parametrize("build", [example2_system, example3_system, theorem1_toy,
                                   theorem2_toy])
def test_bound_flow_matches_the_method_formula_bit_for_bit(long_table, build):
    from fractalcalc.lyapunov import _batch_integrate, as_tau_field

    sys = build()
    ref = _method_rhs(sys)
    traj = solve_second_order(sys, long_table, 0.7, -0.3, 5.0, dtau=1e-2)
    want = _reference_march(ref, traj.meta["tau_end"], [0.7, -0.3], 1e-2, "rk4", 1,
                            BLOWUP_LIMIT)
    _assert_same_outcome((traj.tau, traj.y, traj.z), (want[0], *want[1]))
    Y0 = [[0.7, 1.0, -2.0], [-0.3, 0.0, 0.5]]
    rhs, dim = as_tau_field(sys)
    _assert_same_outcome(_batch_integrate(rhs, dim, Y0, 5.0, 1e-2, 3),
                         _reference_march(ref, 5.0, Y0, 1e-2, "rk4", 3, BLOWUP_LIMIT))
    assert sys.rhs(0.5, 0.7, -0.3) == ref(0.5, 0.7, -0.3)


def test_a_reassigned_field_takes_effect_at_the_next_march(table):
    sys = linear_damped_system()
    first = solve_second_order(sys, table, 1.0, 0.0, 1.0, dtau=1e-2)
    sys.u = lambda tau: 2.0
    second = solve_second_order(sys, table, 1.0, 0.0, 1.0, dtau=1e-2)
    fresh = solve_second_order(dataclasses.replace(linear_damped_system(), u=sys.u),
                               table, 1.0, 0.0, 1.0, dtau=1e-2)
    assert not np.array_equal(first.z, second.z)
    assert np.array_equal(second.z, fresh.z)


@pytest.mark.parametrize("run", ["solve", "verify"])
def test_a_reassigned_field_is_refused_at_the_assignment(table, run):
    sys = linear_damped_system()
    u = sys.u
    with pytest.raises(ParameterError, match="^u must be a callable, got float$"):
        sys.u = 1.0
    assert sys.u is u
    runs = {"solve": lambda s: solve_second_order(s, table, 1.0, 0.0, 0.5).z.tolist(),
            "verify": lambda s: verify_theorem1(s, table).to_json()}
    assert runs[run](sys) == runs[run](linear_damped_system())


def _rk4_step(rhs, tau, x, h):
    # classical RK4 for any number of components, with the groupings of the
    # package's steppers
    half = 0.5 * h
    k1 = rhs(tau, *x)
    k2 = rhs(tau + half, *[xi + half * ki for xi, ki in zip(x, k1)])
    k3 = rhs(tau + half, *[xi + half * ki for xi, ki in zip(x, k2)])
    k4 = rhs(tau + h, *[xi + h * ki for xi, ki in zip(x, k3)])
    sixth = h / 6.0
    return [xi + sixth * (a + 2.0 * (b + c) + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _euler_step(rhs, tau, x, h):
    # explicit Euler for any number of components, with the package's grouping
    return [xi + h * ki for xi, ki in zip(x, rhs(tau, *x))]


def _reference_march(rhs, tau_end, state0, dtau, method, record_every, limit):
    # the march on np.float64 components (rows for a block) through the
    # generic steppers: one state raises at its first escape, and a block
    # clips each column that escapes to the ball and holds it there; the
    # records are stacked on axis 1, after the components
    step = {"rk4": _rk4_step, "euler": _euler_step}[method]
    state = list(np.array(state0, dtype=float))
    n_steps = max(math.ceil(tau_end / dtau - 1e-12), 0)
    taus, states = [0.0], [np.array(state)]
    held = np.zeros(np.shape(state0)[1:], bool)
    tau = 0.0
    for k in range(n_steps):
        last = k == n_steps - 1
        h = tau_end - tau if last else dtau
        new = step(rhs, tau, state, h)
        tau = tau_end if last else (k + 1) * dtau
        if held.ndim == 0:
            if not np.abs(np.array(new)).max() <= limit:
                raise _BlowupSignal(np.array(taus), np.stack(states, axis=1), tau)
        else:
            new = np.array(new)
            for col in range(new.shape[1]):
                if held[col]:
                    new[:, col] = np.array(state)[:, col]
                elif not np.all(np.abs(new[:, col]) <= limit):
                    new[:, col] = np.clip(np.nan_to_num(new[:, col], nan=limit),
                                          -limit, limit)
                    held[col] = True
            new = list(new)
        state = new
        if last or (k + 1) % record_every == 0:
            taus.append(tau)
            states.append(np.array(state))
    return np.array(taus), np.stack(states, axis=1), held


def _outcome(march, *args):
    try:
        return march(*args)
    except _BlowupSignal as sig:
        return "escape", sig.taus, sig.states, sig.offender


def _assert_same_outcome(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _random_flow(coef, dim, numpy_calls):
    # linear coupling, a tau drive, a bounded rational term and a power: the
    # operations of the package's flows, on floats and on rows alike
    def rhs(tau, *x):
        out = []
        for i, c in enumerate(coef):
            d = sum(c[j] * x[j] for j in range(dim)) + c[dim] * tau
            d = d + c[dim + 1] * x[i] * x[i] / (1.0 + x[i] * x[i])
            d = d + c[dim + 2] * abs(x[i]) ** 1.5
            if numpy_calls:
                d = d + np.sin(x[i])
            out.append(d)
        return out

    return rhs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200)
@given(data=st.data())
def test_march_matches_the_float64_reference(data):
    dim = data.draw(st.integers(1, 2), label="dim")
    # one state (cols 0) as often as a block
    cols = data.draw(st.sampled_from([0, 0, 1, 5]), label="cols (0: one state)")
    unit = st.floats(-2.0, 2.0)
    coef = data.draw(st.lists(st.lists(unit, min_size=dim + 3, max_size=dim + 3),
                              min_size=dim, max_size=dim), label="coef")
    rhs = _random_flow(coef, dim, data.draw(st.booleans(), label="numpy"))
    shape = (dim, cols) if cols else (dim,)
    state0 = np.array(data.draw(
        st.lists(st.floats(-1.5, 1.5), min_size=math.prod(shape),
                 max_size=math.prod(shape)), label="state0")).reshape(shape)
    args = (rhs, data.draw(st.floats(0.0, 2.0), label="tau_end"), state0,
            data.draw(st.floats(0.01, 0.5), label="dtau"),
            data.draw(st.sampled_from(["rk4", "euler"]), label="method"),
            data.draw(st.integers(1, 4), label="record_every"),
            data.draw(st.sampled_from([1.0, 2.0, BLOWUP_LIMIT]), label="limit"))
    _assert_same_outcome(_outcome(_integrate, *args),
                         _outcome(_reference_march, *args))


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("shape", [(), (0,), (3,), (3, 4), (2, 2, 2)],
                         ids=["scalar", "dim0", "dim3", "dim3-block", "3d-block"])
def test_integrate_rejects_other_component_counts(shape, method):
    def rhs(tau, *comps):
        raise AssertionError("the flow must not run")

    with pytest.raises(ParameterError, match="1 or 2 components"):
        _integrate(rhs, 1.0, np.zeros(shape), 1e-2, method, 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("g,y0,tau_end", [
    # a narrower numpy scalar: Python float arithmetic would keep np.float32
    (lambda y: np.float32(-y), 1.0, 1.0),
    # y**400 raises OverflowError past y = 23.5; numpy's inf gives a finite
    # slope of 2, so the march goes on, on np.float64
    (lambda y: 2.0 - 1.0 / (1.0 + (y / 4.0) ** 400), 0.0, 15.0),
    # real while y > 0, complex (Python) or nan (numpy) after a stage y < 0
    (lambda y: -1.0 + 0.5 * y ** 0.5, 1.0, 3.0),
    (lambda y: 1.0 / y, 0.0, 1.0),
    (lambda y: (-1.0 - y) ** 0.5, 0.0, 1.0),
    # an expression reports a Python OverflowError as an ExpressionError;
    # 1e11**3 is finite, the cube at the last stage is not
    (compile_expression("y**3", ("y",)), 1e11, 1.0),
    # min() of a complex root raises TypeError; min(nan, 1.0) is nan
    (lambda y: -2.0 + min(y ** 0.5, 1.0), 1.0, 3.0),
], ids=["float32", "pow-overflow", "complex-after-sign-change", "reciprocal",
        "root-of-negative", "expression-overflow", "min-of-complex"])
def test_fallback_matches_the_float64_march(g, y0, tau_end):
    def rhs(tau, y):
        return (g(y),)

    args = (rhs, tau_end, [y0], 1e-2, "rk4", 1, BLOWUP_LIMIT)
    _assert_same_outcome(_outcome(_integrate, *args),
                         _outcome(_reference_march, *args))


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("dim", [1, 2])
def test_one_state_tests_see_every_component(dim, method):
    # the escape test: only the last component leaves the ball, or is nan
    for bad in (2.0, -math.inf, math.nan):
        def rhs(tau, *x):
            return [0.0] * (dim - 1) + [bad]

        with pytest.raises(_BlowupSignal):
            _integrate(rhs, 1.0, [0.0] * dim, 0.5, method, 1, limit=0.5)

    # the type test: only the last component turns np.float32
    def rhs(tau, *x):
        return [-c for c in x[:-1]] + [np.float32(-x[-1])]

    args = (rhs, 1.0, [1.0] * dim, 1e-2, method, 1, BLOWUP_LIMIT)
    _assert_same_outcome(_outcome(_integrate, *args),
                         _outcome(_reference_march, *args))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_complex_root_turned_real_keeps_the_float_march():
    # README "Numerical notes": abs() turns the complex root of a negative y
    # back into a float, so the per-step type test cannot see it and the
    # one-state march stays on Python floats, where np.float64 gives nan
    def g(y):
        return -1.0 - abs(y ** 0.5)

    traj = solve_first_order(g, build_staircase(CantorSpec(mu=0.2, depth=8), ALPHA),
                             0.5, 1.0)
    assert traj.y.min() < 0.0
    assert np.all(np.isfinite(traj.y))
    assert traj.y[-1] == pytest.approx(-0.925, abs=5e-4)

    def rhs(tau, y):
        return (g(y),)

    # the same march on np.float64 meets nan once a stage sees y < 0
    outcome = _outcome(_reference_march, rhs, traj.meta["tau_end"], [0.5], 1e-3,
                       "rk4", 1, BLOWUP_LIMIT)
    assert outcome[0] == "escape" and outcome[3] < traj.tau[-1]


def _edge_flow(dim):
    # a damped linear flow with a tau drive, the same on floats and np.float64
    if dim == 1:
        return lambda tau, y: (-0.5 * y + 0.25 * tau,)
    return lambda tau, y, z: (z, -y - 0.1 * z + 0.25 * tau)


# dtau = 0.125 is exact, so tau_end = (n - 1 + last) dtau takes n steps, the
# last of them a full step (last = 1) or a half step
@pytest.mark.parametrize("last", [1.0, 0.5], ids=["full-last", "half-last"])
@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_steps,every", [
    (0, 1), (1, 1), (1, 3), (4, 1), (5, 7), (6, 3), (7, 3),
], ids=["0-steps", "1-step", "1-step-every-3", "4-steps", "every-above-steps",
        "multiple-of-every", "multiple-plus-one"])
def test_one_state_march_edges_match_the_reference(n_steps, every, dim, method, last):
    args = (_edge_flow(dim), max(n_steps - 1 + last, 0.0) * 0.125, [0.8, -0.4][:dim], 0.125,
            method, every, BLOWUP_LIMIT)
    got = _integrate(*args)
    assert len(got[0]) == 1 + -(-n_steps // every)
    _assert_same_outcome(got, _reference_march(*args))


@pytest.mark.parametrize("at", [0, 3, 6], ids=["first", "middle", "last"])
@pytest.mark.parametrize("kind", ["raise", "float32"])
@pytest.mark.parametrize("method,per_step", [("rk4", 4), ("euler", 1)])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_retry_hands_over_from_the_start_of_its_step(dim, method, per_step, kind, at):
    # the first stage of step `at` of 7 (the last a half step) raises or
    # turns np.float32 on Python floats; on np.float64 the flow is plain
    flow, floats, wide = _edge_flow(dim), [], []

    def rhs(tau, *x):
        out = list(flow(tau, *x))
        if all(type(c) is float for c in x):
            floats.append(tau)
            if len(floats) == at * per_step + 1:
                if kind == "raise":
                    raise ZeroDivisionError("tripped")
                out[-1] = np.float32(out[-1])
        elif all(type(c) is np.float64 for c in x):
            wide.append(tau)
        return out

    args = (rhs, 6.5 * 0.125, [0.8, -0.4][:dim], 0.125, method, 3, BLOWUP_LIMIT)
    got = _integrate(*args)
    # the adapter's call at the step's start, then the redone step and the rest
    assert wide[0] == at * 0.125 and len(wide) == 1 + per_step * (7 - at)
    _assert_same_outcome(got, _reference_march(*args))


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("dim", [1, 2])
def test_an_escape_on_the_last_step_matches_the_reference(dim, method):
    # the last component rises at rate 1: 0.75 after the 6 full steps, 0.8125
    # after the half step that ends the march, past the ball's edge 0.78
    def rhs(tau, *x):
        return [0.0] * (dim - 1) + [1.0]

    args = (rhs, 6.5 * 0.125, [0.0] * dim, 0.125, method, 3, 0.78)
    got = _outcome(_integrate, *args)
    assert got[0] == "escape" and got[3] == 6.5 * 0.125 and len(got[1]) == 3
    _assert_same_outcome(got, _outcome(_reference_march, *args))


def _fates_flow(fates):
    # from tau = 0.25 the last component's slope is each column's fate, 0.0
    # (held), nan, inf or -inf, and 0.0 before; the slope is a numpy value,
    # so one state marches on np.float64 from its first step
    def rhs(tau, *x):
        return [0.0] * (len(x) - 1) + [np.where(tau >= 0.25, fates, 0.0)]

    return rhs


FATES = [0.0, math.nan, math.inf, -math.inf]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("limit", [2.0, 1e200, 1e-170],
                         ids=["sum-above-limit-squared", "square-overflows", "square-underflows"])
@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("dim", [1, 2])
def test_the_escape_pre_test_defers_to_the_exact_test(dim, method, limit):
    # every component starts at 0.9 limit, so the sum of squares of a block
    # (or two components) is above limit**2, or overflows, or limit**2
    # underflows to 0, while no component leaves the ball: the exact test
    # decides, the held column stays and the ones turning nan, inf or -inf escape
    args = (6.5 * 0.125, np.full((dim, len(FATES)), 0.9 * limit), 0.125, method, 3, limit)
    got = _integrate(_fates_flow(FATES), *args)
    assert got[2].tolist() == [False, True, True, True]
    assert np.all(got[1][:, :, 0] == 0.9 * limit)
    _assert_same_outcome(got, _reference_march(_fates_flow(FATES), *args))
    # one state, on np.float64 after the retry
    for fate in FATES:
        args = (6.5 * 0.125, [0.9 * limit] * dim, 0.125, method, 3, limit)
        got = _outcome(_integrate, _fates_flow(fate), *args)
        assert isinstance(got[0], str) is (fate != 0.0)
        _assert_same_outcome(got, _outcome(_reference_march, _fates_flow(fate), *args))


@pytest.mark.parametrize("method,per_step", [("rk4", 4), ("euler", 1)])
@pytest.mark.parametrize("shape", [(1,), (2,), (1, 3), (2, 3)],
                         ids=["one-state-1", "one-state-2", "block-1", "block-2"])
def test_the_flow_gets_a_float_clock_at_every_stage(shape, method, per_step):
    # a block's step factors are 0-d arrays, but the clock adds Python
    # floats; one state also hands the flow Python float components
    seen = []

    def rhs(tau, *x):
        seen.append((type(tau), *map(type, x)))
        return [-c for c in x]

    _integrate(rhs, 6.5 * 0.125, np.full(shape, 0.5), 0.125, method, 3)
    comp = float if len(shape) == 1 else np.ndarray
    assert seen == [(float,) + (comp,) * shape[0]] * (per_step * 7)


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy 1 keeps float32 rows at a 0-d float64 factor")
def test_float32_rows_in_a_block_are_widened_by_the_step_factors():
    # README "Numerical notes": a block's step factors are 0-d float64
    # arrays, which widen a flow's float32 rows under numpy 2 promotion,
    # where the reference's Python float factors keep each product float32;
    # float64 rows give the reference's bits
    def flow(dtype):
        return lambda tau, y, z: (z.astype(dtype), (-y - 0.1 * z).astype(dtype))

    Y0 = np.array([[0.7, 1.0, -2.0], [-0.3, 0.1, 0.5]])
    for method in ("rk4", "euler"):
        args = (1.0, Y0, 0.1, method, 1, BLOWUP_LIMIT)
        _assert_same_outcome(_integrate(flow(np.float64), *args),
                             _reference_march(flow(np.float64), *args))
        assert not np.array_equal(_integrate(flow(np.float32), *args)[1],
                                  _reference_march(flow(np.float32), *args)[1])
    # one Euler step is y + h a with a widened before the product
    a = np.array(flow(np.float32)(0.0, *Y0))
    got = _integrate(flow(np.float32), 0.1, Y0, 0.1, "euler", 1)[1][:, -1]
    assert np.array_equal(got, Y0 + 0.1 * a.astype(np.float64))
    assert not np.array_equal(got, Y0 + 0.1 * a)


def test_a_long_energy_run_matches_the_reference(long_table):
    # the benchmark's energy run in small: 20,379 steps of example3,
    # recording every 10th
    sys = example3_system(1.0)
    traj = solve_second_order(sys, long_table, 0.3, -0.2, 60.0, dtau=1e-3, record_every=10)
    want = _reference_march(_method_rhs(sys), traj.meta["tau_end"], [0.3, -0.2], 1e-3, "rk4",
                            10, BLOWUP_LIMIT)
    assert len(traj) == 2039
    _assert_same_outcome((traj.tau, traj.y, traj.z), (want[0], *want[1]))


@pytest.mark.parametrize("method,per_step", [("rk4", 4), ("euler", 1)])
@pytest.mark.parametrize("dim", [1, 2])
def test_one_state_flow_calls_per_step(dim, method, per_step):
    # what the benchmark's fde.rhs_calls_per_step reads: per_step calls a
    # step on floats; a flow of np.float64 scalars repeats its first step
    # and meets the adapter once, 4n + 5 calls over n RK4 steps
    for wide, extra in ((False, 0), (True, per_step + 1)):
        calls = []

        def rhs(tau, *x):
            calls.append(tau)
            return [np.float64(-c) if wide else -c for c in x]

        _integrate(rhs, 6.5 * 0.125, [1.0] * dim, 0.125, method, 1)
        assert len(calls) == per_step * 7 + extra


def _counting_system(calls):
    # the system's flow calls u exactly once per right-hand-side evaluation
    def u(tau):
        calls.append(tau)
        return 1.0

    return FdeSystem(u=u, v=lambda tau: 1.0, f=lambda y, z: 1.0,
                     h=lambda y: y)


@pytest.mark.parametrize("method,per_step", [("rk4", 4), ("euler", 1)])
def test_solve_calls_the_rhs_per_stage(table, method, per_step):
    calls = []
    traj = solve_second_order(_counting_system(calls), table, 1.0, 0.0, 1.0,
                              dtau=1e-2, method=method)
    n_steps = len(traj) - 1
    assert n_steps == math.ceil(traj.meta["tau_end"] / 1e-2 - 1e-12)
    assert len(calls) == per_step * n_steps


def test_batch_calls_the_rhs_per_stage_plus_one_probe(table):
    from fractalcalc.lyapunov import _batch_integrate, as_tau_field

    calls = []
    rhs, dim = as_tau_field(_counting_system(calls))
    taus, _, _ = _batch_integrate(rhs, dim, [[1.0, 0.5, -0.5], [0.0] * 3],
                                  0.75, 1e-2, 1)
    assert len(calls) == 4 * (len(taus) - 1) + 1

    # math.sin refuses the rows: one failed array call, then one call per
    # column and stage, on np.float64 scalars: 901 calls here
    seen = []

    def scalar_only(tau, y, z):
        seen.append(type(y))
        return z, -math.sin(y) - z

    rhs, dim = as_tau_field(scalar_only)
    taus, _, _ = _batch_integrate(rhs, dim, [[1.0, 0.5, -0.5], [0.0] * 3],
                                  0.75, 1e-2, 1)
    assert len(seen) == 4 * 3 * (len(taus) - 1) + 1 == 901
    assert seen[0] is np.ndarray and set(seen[1:]) == {np.float64}


def test_t_end_outside_span_raises(table):
    with pytest.raises(DomainError):
        solve_first_order(lambda y: -y, table, 1.0, 2.0)


def test_warp_time_inverts_the_staircase(table):
    for t in (0.0, 0.1, 0.35, 0.99, 1.0):
        tau = eval_staircase(table, t)
        t_back = warp_time(table, tau)
        # the inverse lands on a set point with the same staircase value
        assert eval_staircase(table, t_back) == pytest.approx(tau, abs=1e-12)


def test_warp_time_plateau_maps_to_left_edge(table):
    # the whole central gap shares one staircase value; its preimage is the
    # left edge, the last set point before the clock stalls
    tau_gap = eval_staircase(table, 0.5)
    assert warp_time(table, tau_gap) == pytest.approx(0.4, abs=1e-12)


def test_warp_time_vectorized_monotone(table):
    taus = np.linspace(0.0, float(eval_staircase(table, 1.0)), 200)
    ts = warp_time(table, taus)
    assert np.all(np.diff(ts) >= 0.0)


def test_warp_time_outside_range_raises(table):
    with pytest.raises(DomainError):
        warp_time(table, -0.5)
    with pytest.raises(DomainError):
        warp_time(table, 100.0)
    with pytest.raises(DomainError):
        warp_time(table, math.nan)
    with pytest.raises(DomainError):
        warp_time(table, np.array([0.1, math.nan]))


def _warp_tables():
    """Built tables over mu x depth x base interval x t0, then two hand-built ones."""
    for mu in (0.05, 0.2, 0.5, 0.9):
        for depth in (0, 1, 2, 3, 5, 8, 11, 14):
            for origin, extent in ((0.0, 1.0), (-2.0, 3.0), (0.0, 60.0)):
                for where in (0.0, 0.3, 1.0):
                    spec = CantorSpec(mu, depth, origin, extent)
                    try:
                        yield build_staircase(spec, hausdorff_dimension(mu),
                                              t0=origin + where * (extent - origin))
                    except ResolutionError:
                        continue
    rng = np.random.default_rng(1717)
    # a random nondecreasing s with a plateau of 40 equal values
    t = np.sort(rng.uniform(-1.0, 4.0, 400))
    steps = rng.exponential(size=399)
    steps[150:190] = 0.0
    s = -0.7 + np.concatenate([[0.0], np.cumsum(steps)])
    yield StaircaseTable(alpha=0.5, spec=CantorSpec(0.2, 0), t=t, s=s, t0=float(t[0]))
    yield StaircaseTable(alpha=0.5, spec=CantorSpec(0.2, 0), t=np.linspace(0.0, 1.0, 64),
                         s=np.full(64, 2.5), t0=0.0)


def _warp_digest():
    """sha256 of warp_time at every breakpoint value, its float neighbours,
    random taus and both range ends, shuffled, and of one scalar query."""
    h = hashlib.sha256()
    rng = np.random.default_rng(17)
    for table in _warp_tables():
        s = table.s
        lo, hi = table.s_range
        taus = np.concatenate([s, np.nextafter(s, -math.inf), np.nextafter(s, math.inf),
                               rng.uniform(lo, hi, 256), [lo, hi]])
        taus = rng.permutation(taus[(taus >= lo) & (taus <= hi)])
        h.update(warp_time(table, taus).tobytes())
        scalar = warp_time(table, taus[taus.size // 2].item())
        assert type(scalar) is float
        h.update(np.float64(scalar).tobytes())
    return h.hexdigest()


def test_warp_time_output_is_pinned():
    # captured from a plain binary search over s; a change that alters the
    # inverse staircase's numbers on purpose re-captures this digest
    assert _warp_digest() == (
        "5128f7ada8712fce50e62052195a588712dcb981c664e8596d8d98cec67c15e0")


def _warp_reference(table, taus):
    """The inverse staircase through a plain binary search over s."""
    s, t = table.s, table.t
    j = np.clip(np.searchsorted(s, taus, side="left"), 0, s.size - 1)
    j0 = np.maximum(j - 1, 0)
    ds = s[j] - s[j0]
    frac = np.where(ds > 0.0, (taus - s[j0]) / np.where(ds > 0.0, ds, 1.0), 0.0)
    return np.where(s[j] == taus, t[j], t[j0] + frac * (t[j] - t[j0]))


def test_warp_time_search_path_matches_a_binary_search():
    # s = j**4 is far from linear in j, so the one-step index guess
    # h = ceil((tau - s[0]) n / (s[-1] - s[0])), j = h - 1 for even h and h
    # otherwise, misses every tau in (s[12], s[40]] and each is searched
    n = 64
    s = np.arange(n, dtype=float) ** 4
    table = StaircaseTable(alpha=0.5, spec=CantorSpec(0.2, 0),
                           t=np.linspace(-1.0, 2.0, n), s=s, t0=-1.0)
    rng = np.random.default_rng(4)
    inner = s[13:41]
    taus = rng.permutation(np.concatenate([
        inner, np.nextafter(inner, -math.inf), rng.uniform(s[12], s[40], 5000)]))
    taus = taus[taus > s[12]]
    h = np.ceil((taus - s[0]) * n / (s[-1] - s[0])).astype(int)
    guess = np.clip(np.where(h % 2 == 0, h - 1, h), 0, n - 1)
    assert np.all(guess != np.searchsorted(s, taus, side="left"))
    assert warp_time(table, taus).tobytes() == _warp_reference(table, taus).tobytes()


def test_constants_defaults_and_delta():
    c = FdeConstants()
    assert c.u0 == 1.0 and c.Q == 1.0
    assert c.delta_value() == pytest.approx(1.0 * (0.5 + 0.25) / 2.0)
    c2 = FdeConstants(delta=0.3)
    assert c2.delta_value() == 0.3


def test_classical_identity_clock_recovers_ode():
    spec = CantorSpec(mu=0.5, depth=0, origin=0.0, extent=5.0)
    table = build_staircase(spec, 1.0)
    traj = solve_first_order(lambda y: -y, table, 1.0, 5.0, dtau=1e-3)
    assert np.allclose(traj.t, traj.tau, atol=1e-12)
    assert traj.y[-1] == pytest.approx(math.exp(-5.0), rel=1e-9)


@settings(max_examples=20)
@given(c=st.floats(0.1, 3.0))
def test_linear_decay_scales_with_initial_value(c, table):
    traj = solve_first_order(lambda y: -y, table, c, 1.0, dtau=1e-2)
    assert traj.y[-1] == pytest.approx(c * math.exp(-traj.tau[-1]), rel=1e-6)
