import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcalc import (
    CantorSpec,
    DomainError,
    FdeConstants,
    FdeSystem,
    NumericalBlowupError,
    ParameterError,
    build_staircase,
    eval_staircase,
    example1_exact,
    example2_system,
    example3_system,
    solve_first_order,
    solve_second_order,
    theorem2_toy,
    warp_time,
)

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


def test_record_every_thins_output(table):
    dense = solve_first_order(lambda y: -y, table, 1.0, 1.0, dtau=1e-3)
    thin = solve_first_order(lambda y: -y, table, 1.0, 1.0, dtau=1e-3,
                             record_every=10)
    assert len(thin) < len(dense)
    assert thin.tau[-1] == dense.tau[-1]
    assert thin.y[-1] == dense.y[-1]


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


def test_blowup_raises_with_partial_trajectory(long_table):
    with pytest.raises(NumericalBlowupError) as exc:
        solve_first_order(lambda y: y * y, long_table, 3.0, 60.0, dtau=1e-3)
    traj = exc.value.trajectory
    assert traj is not None
    assert len(traj) > 1
    assert np.all(np.isfinite(traj.y))


def test_rejects_bad_dtau(table):
    with pytest.raises(ParameterError):
        solve_first_order(lambda y: -y, table, 1.0, 1.0, dtau=0.0)
    with pytest.raises(ParameterError):
        solve_first_order(lambda y: -y, table, 1.0, 1.0, dtau=1e-3,
                          method="leapfrog")


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


def test_one_column_batch_matches_the_solve_bit_for_bit(long_table):
    from fractalcalc.lyapunov import _batch_integrate, as_tau_field

    sys = example2_system()
    traj = solve_second_order(sys, long_table, 0.7, -0.3, 5.0, dtau=1e-2)
    rhs, dim = as_tau_field(sys)
    taus, blocks, escaped = _batch_integrate(
        rhs, dim, [[0.7], [-0.3]], traj.meta["tau_end"], 1e-2, 1)
    assert not escaped.any()
    assert np.array_equal(taus, traj.tau)
    assert np.array_equal(blocks[:, 0, 0], traj.y)
    assert np.array_equal(blocks[:, 1, 0], traj.z)


def _counting_system(calls):
    # sys.rhs calls u exactly once per right-hand-side evaluation
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
