"""The argument policy: every checked input ends in a result or a FractalCalcError.

Every scalar parameter that goes through ``errors._real`` or
``errors._count`` is called with special values (NaN, the infinities, zero,
a negative number, a fraction, a bool, numpy scalars, an int beyond the
float range, a string and None) on a small table and short horizons.  The
call must return normally or raise a FractalCalcError, never another
exception.  Every array argument and query point, which go through
``errors._reals``, is called with values that hold no real numbers and must
raise a ParameterError.  A guard keeps every public name in these tables
or in an explicit list of names that take no numbers.  Every required
parameter of every public function, the two ready-made flows aside, is
also given values of the wrong kind (None, a string, a tuple, an object,
a table, a system, a field), which must end the same way.
"""

import contextlib
import dataclasses
import inspect
import io
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fractalcalc
from fractalcalc import (
    AssumptionGrids,
    CantorSpec,
    DomainError,
    FdeConstants,
    FdeSystem,
    FractalCalcError,
    GridFunction,
    IntervalSet,
    LyapunovFunction,
    ParameterError,
    boundedness_certificate,
    build_staircase,
    characteristic,
    check_assumptions,
    classify_stability,
    compile_expression,
    contains,
    covering_measure,
    depth_for_resolution,
    dimension_sweep,
    estimate_mass,
    eval_staircase,
    example1_exact,
    example1_field,
    example1_lyapunov,
    example3_field,
    example3_lyapunov,
    example3_system,
    fractal_derivative,
    fractal_integral,
    gamma_dimension,
    generate,
    hausdorff_dimension,
    in_set,
    l_alpha_sum,
    linear_damped_system,
    lyapunov_derivative,
    max_depth,
    set_samples,
    solve_first_order,
    solve_second_order,
    theorem1_toy,
    theorem2_toy,
    verify_theorem1,
    verify_theorem2,
    warp_time,
)
from fractalcalc.cli import main

MU = 0.2
ALPHA = hausdorff_dimension(MU)
SPEC = CantorSpec(mu=MU, depth=6, extent=2.0)
TABLE = build_staircase(SPEC, ALPHA)
ISET = generate(SPEC)
SAMPLES = GridFunction.from_function(TABLE, lambda t: t)
TRAJECTORY = solve_first_order(lambda y: -y, TABLE, 1.0, 1.0, dtau=0.05)
SMALL_GRIDS = {"tau": np.linspace(0.0, 20.0, 41), "y": np.linspace(-5.0, 5.0, 21),
               "z": np.linspace(-5.0, 5.0, 21)}

VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 1.5, True,
                          np.float32(0.25), np.int64(3), 10**400, "1", None])


def _decay(y):
    return -y


def _grids(**kw):
    return AssumptionGrids(**{"alpha": ALPHA, **SMALL_GRIDS, **kw})


def _assumptions(**kw):
    return check_assumptions(theorem2_toy(), _grids(**kw))


def _solve1(**kw):
    args = {"t_end": 1.0, "dtau": 0.05, **kw}
    return solve_first_order(_decay, TABLE, 1.0, **args)


def _solve2(**kw):
    args = {"t_end": 1.0, "dtau": 0.05, **kw}
    return solve_second_order(example3_system(), TABLE, 1.0, 0.0, **args)


def _table(t, s):
    return dataclasses.replace(TABLE, t=t, s=s)


def _max_depth_from_env(raw):
    with mock.patch.dict(os.environ, {"FRACTAL_CALC_MAX_DEPTH": raw}):
        return max_depth()


def _planar_derivative(flow, state):
    # L = (y^2 + z^2) / 2 with its exact gradients
    return lyapunov_derivative(example3_lyapunov(), flow, state)


def _classify(**kw):
    return classify_stability(example1_field, TABLE, **{"horizon": 1.0, "dtau": 0.05,
                                                       **kw})


def _verify1(**kw):
    return verify_theorem1(theorem1_toy(), TABLE, **{"dtau": 0.05, "grids": _grids(),
                                                     **kw})


def _verify2(**kw):
    return verify_theorem2(theorem2_toy(), TABLE, **{"dtau": 0.05, "grids": _grids(),
                                                     "n_random": 4, **kw})


CALLS = {
    "CantorSpec.mu": lambda v: CantorSpec(mu=v, depth=3),
    "CantorSpec.depth": lambda v: CantorSpec(mu=MU, depth=v),
    "CantorSpec.origin": lambda v: CantorSpec(mu=MU, depth=3, origin=v),
    "CantorSpec.extent": lambda v: CantorSpec(mu=MU, depth=3, extent=v),
    "hausdorff_dimension.mu": hausdorff_dimension,
    "depth_for_resolution.delta": lambda v: depth_for_resolution(SPEC, v),
    "l_alpha_sum.alpha": lambda v: l_alpha_sum(ISET, v, [0.0, 0.5, 2.0]),
    "estimate_mass.alpha": lambda v: estimate_mass(SPEC, v, 0.0, 1.0, 0.01),
    "estimate_mass.c1": lambda v: estimate_mass(SPEC, ALPHA, v, 1.0, 0.01),
    "estimate_mass.c2": lambda v: estimate_mass(SPEC, ALPHA, 0.0, v, 0.01),
    "estimate_mass.delta": lambda v: estimate_mass(SPEC, ALPHA, 0.0, 1.0, v),
    "build_staircase.alpha": lambda v: build_staircase(SPEC, v),
    "build_staircase.t0": lambda v: build_staircase(SPEC, ALPHA, t0=v),
    "characteristic.alpha": lambda v: characteristic(SPEC, v, 0.5),
    "dimension_sweep.delta1": lambda v: dimension_sweep(SPEC, v, 1e-3),
    "dimension_sweep.delta2": lambda v: dimension_sweep(SPEC, 0.5, v),
    "gamma_dimension.tol": lambda v: gamma_dimension(SPEC, 0.1, 1e-3, tol=v),
    "set_samples.per_segment": lambda v: set_samples(TABLE, v),
    "fractal_integral.a": lambda v: fractal_integral(SAMPLES, v, 2.0),
    "fractal_integral.b": lambda v: fractal_integral(SAMPLES, 0.0, v),
    "in_set.t": lambda v: in_set(TABLE, v),
    "fractal_derivative.t": lambda v: fractal_derivative(SAMPLES, v),
    "solve_first_order.h0": lambda v: solve_first_order(_decay, TABLE, v, 1.0,
                                                        dtau=0.05),
    "solve_first_order.t_end": lambda v: _solve1(t_end=v),
    "solve_first_order.dtau": lambda v: _solve1(dtau=v),
    "solve_first_order.record_every": lambda v: _solve1(record_every=v),
    "solve_first_order.blowup_limit": lambda v: _solve1(blowup_limit=v),
    "solve_second_order.y0": lambda v: solve_second_order(
        example3_system(), TABLE, v, 0.0, 1.0, dtau=0.05),
    "solve_second_order.z0": lambda v: solve_second_order(
        example3_system(), TABLE, 1.0, v, 1.0, dtau=0.05),
    "solve_second_order.t_end": lambda v: _solve2(t_end=v),
    "solve_second_order.dtau": lambda v: _solve2(dtau=v),
    "solve_second_order.record_every": lambda v: _solve2(record_every=v),
    "solve_second_order.blowup_limit": lambda v: _solve2(blowup_limit=v),
    "classify_stability.eps_grid": lambda v: _classify(eps_grid=(0.5, v)),
    "classify_stability.delta_grid": lambda v: _classify(delta_grid=(0.5, v)),
    "classify_stability.horizon": lambda v: _classify(horizon=v),
    "classify_stability.dtau": lambda v: _classify(dtau=v),
    "classify_stability.settle_rtol": lambda v: _classify(settle_rtol=v),
    "classify_stability.fit_min_r2": lambda v: _classify(fit_min_r2=v),
    "classify_stability.bound_slack": lambda v: _classify(bound_slack=v),
    "classify_stability.record_every": lambda v: _classify(record_every=v),
    "AssumptionGrids.alpha": lambda v: _assumptions(alpha=v),
    "AssumptionGrids.tail_tol": lambda v: _assumptions(tail_tol=v),
    "AssumptionGrids.zero_tol": lambda v: _assumptions(zero_tol=v),
    "AssumptionGrids.slack": lambda v: _assumptions(slack=v),
    "AssumptionGrids.growth_factor": lambda v: _assumptions(growth_factor=v),
    "AssumptionGrids.forcing_stride": lambda v: _assumptions(forcing_stride=v),
    "boundedness_certificate.k": lambda v: boundedness_certificate(theorem2_toy(), k=v),
    "verify_theorem1.t_end": lambda v: _verify1(t_end=v),
    "verify_theorem1.dtau": lambda v: _verify1(dtau=v),
    "verify_theorem1.drift_tol": lambda v: _verify1(drift_tol=v),
    "verify_theorem1.grid_halfwidth": lambda v: _verify1(grid_halfwidth=v),
    "verify_theorem1.grid_points": lambda v: _verify1(grid_points=v),
    "verify_theorem1.record_every": lambda v: _verify1(record_every=v),
    "verify_theorem2.k": lambda v: _verify2(k=v),
    "verify_theorem2.t_end": lambda v: _verify2(t_end=v),
    "verify_theorem2.dtau": lambda v: _verify2(dtau=v),
    "verify_theorem2.conv_tau": lambda v: _verify2(conv_tau=v),
    "verify_theorem2.conv_threshold": lambda v: _verify2(conv_threshold=v),
    "verify_theorem2.n_random": lambda v: _verify2(n_random=v),
    "verify_theorem2.seed": lambda v: _verify2(seed=v),
    "verify_theorem2.record_every": lambda v: _verify2(record_every=v),
    "example3_field.spring": example3_field,
    "example3_lyapunov.spring": example3_lyapunov,
    "example3_system.spring": example3_system,
}
CALLS.update({f"FdeConstants.{f.name}": lambda v, name=f.name: FdeConstants(**{name: v})
              for f in dataclasses.fields(FdeConstants)})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(CALLS))
@given(value=VALUES)
def test_scalar_arguments_end_in_a_result_or_a_package_error(name, value):
    try:
        CALLS[name](value)
    except FractalCalcError:
        pass


def test_numpy_scalars_are_real_numbers():
    spec = CantorSpec(mu=np.float32(0.2), depth=2, extent=np.int64(3))
    assert spec.mu == float(np.float32(0.2)) and spec.extent == 3.0
    assert type(spec.mu) is float and type(spec.extent) is float


def test_grids_store_numpy_numbers_as_python_numbers():
    # a float32 alpha would make every (C1)-(C7) exponent float32, and a
    # float16 tail_tol the C4 margins float16
    given = _grids(alpha=np.float32(ALPHA), tail_tol=np.float16(1e-3),
                   zero_tol=np.float32(1e-12), slack=np.float32(1e-9),
                   growth_factor=np.int64(10), forcing_stride=np.int64(8))
    for name in ("alpha", "tail_tol", "zero_tol", "slack", "growth_factor"):
        assert type(getattr(given, name)) is float
    assert type(given.forcing_stride) is int
    plain = _grids(alpha=float(np.float32(ALPHA)), tail_tol=float(np.float16(1e-3)),
                   zero_tol=float(np.float32(1e-12)), slack=float(np.float32(1e-9)))
    assert given == plain
    got, want = (check_assumptions(theorem1_toy(), g) for g in (given, plain))
    assert got["C6"].worst_margin == want["C6"].worst_margin
    assert got.to_json() == want.to_json()


# inputs that once ended in a raw TypeError, a silent NaN or a changed verdict
HOLES = {
    "theorem2-n-random-fraction": lambda: _verify2(n_random=1.5),
    "theorem2-n-random-bool": lambda: _verify2(n_random=True),
    "theorem2-seed-fraction": lambda: _verify2(seed=1.5),
    "theorem1-grid-points-fraction": lambda: _verify1(grid_points=2.5),
    "set-samples-fraction": lambda: set_samples(TABLE, 1.5),
    "set-samples-nan": lambda: set_samples(TABLE, math.nan),
    "staircase-alpha-bool": lambda: build_staircase(SPEC, True),
    "staircase-t0-string": lambda: build_staircase(SPEC, ALPHA, t0="0.3"),
    "certificate-k-inf": lambda: boundedness_certificate(theorem2_toy(), k=math.inf),
    "solve-dtau-string": lambda: _solve1(dtau="0.1"),
    "solve-t-end-none": lambda: _solve1(t_end=None),
    "solve-blowup-limit-string": lambda: _solve1(blowup_limit="1e12"),
    "dimension-string": lambda: hausdorff_dimension("0.2"),
    "classify-horizon-string": lambda: _classify(horizon="5"),
    "classify-horizon-zero": lambda: _classify(horizon=0.0),
    "classify-settle-rtol-nan": lambda: _classify(settle_rtol=math.nan),
    "classify-fit-min-r2-nan": lambda: _classify(fit_min_r2=math.nan),
    "classify-bound-slack-nan": lambda: _classify(bound_slack=math.nan),
    "gamma-dimension-tol-nan": lambda: gamma_dimension(SPEC, 0.1, 1e-3, tol=math.nan),
    "gamma-dimension-alphas-nan": lambda: gamma_dimension(
        SPEC, 0.1, 1e-3, alphas=[0.1, math.nan]),
    "l-alpha-sum-nan-point": lambda: l_alpha_sum(ISET, ALPHA, [0.0, math.nan, 2.0]),
    "l-alpha-sum-inf-point": lambda: l_alpha_sum(ISET, ALPHA, [0.0, 1.0, math.inf]),
    "estimate-mass-c1-none": lambda: estimate_mass(SPEC, ALPHA, None, 1.0, 0.01),
    "integral-bound-none": lambda: fractal_integral(SAMPLES, None, 1.0),
    "grids-empty": lambda: AssumptionGrids(alpha=0.5, tau=np.array([])),
    "grids-no-tail-windows": lambda: AssumptionGrids(alpha=0.5, tail_windows=()),
    "grids-nan-state": lambda: AssumptionGrids(alpha=0.5, y=np.array([0.0, math.nan])),
    "grids-slack-nan": lambda: AssumptionGrids(alpha=0.5, slack=math.nan),
    "grids-forcing-stride-zero": lambda: AssumptionGrids(alpha=0.5, forcing_stride=0),
    "grids-no-nonzero-state": lambda: AssumptionGrids(alpha=0.5, y=np.array([0.0])),
    "grids-one-growth-point": lambda: _assumptions(y_growth=np.array([2.0])),
    "grids-tail-window-zero": lambda: AssumptionGrids(alpha=0.5, tail_windows=(0.0,)),
    "grids-tail-window-negative": lambda: AssumptionGrids(alpha=0.5, tail_windows=(-40.0,)),
    "grids-tail-windows-repeated": lambda: AssumptionGrids(alpha=0.5,
                                                           tail_windows=(40.0, 40.0)),
    "grids-tail-windows-scalar": lambda: AssumptionGrids(alpha=0.5, tail_windows=40.0),
    # a 149 GiB tail grid, a 7.28 TiB y x z mesh and a 477 GiB forcing cube,
    # each a raw MemoryError of check_assumptions before the sweep's caps
    "grids-tail-grid-oversized": lambda: AssumptionGrids(alpha=0.5, tail_windows=(5.0, 1e9)),
    "grids-mesh-oversized": lambda: AssumptionGrids(
        alpha=0.5, y=np.linspace(-5.0, 5.0, 1_000_001), z=np.linspace(-5.0, 5.0, 1_000_001)),
    "grids-cube-oversized": lambda: AssumptionGrids(
        alpha=0.5, tau=np.linspace(0.0, 20.0, 4001), y=np.linspace(-5.0, 5.0, 4001),
        z=np.linspace(-5.0, 5.0, 4001), forcing_stride=1),
    "set-samples-oversized": lambda: set_samples(TABLE, 2**40),
    "theorem1-grid-points-oversized": lambda: _verify1(grid_points=2**40),
    "theorem2-n-random-oversized": lambda: _verify2(n_random=2**40),
    "constants-nan": lambda: FdeConstants(E=math.nan),
    "constants-string": lambda: FdeConstants(Q="1"),
    "constants-none": lambda: FdeConstants(sigma=None),
    "solve-h0-string": lambda: solve_first_order(_decay, TABLE, "1", 1.0),
    "solve-h0-none": lambda: solve_first_order(_decay, TABLE, None, 1.0),
    "solve-h0-nan": lambda: solve_first_order(_decay, TABLE, math.nan, 1.0),
    "solve-z0-nan": lambda: solve_second_order(example3_system(), TABLE, 1.0,
                                               math.nan, 1.0),
    "int-beyond-float-delta": lambda: depth_for_resolution(SPEC, 10**400),
    "int-beyond-float-extent": lambda: CantorSpec(mu=MU, depth=3, extent=10**400),
    "in-set-list": lambda: in_set(TABLE, [0.1, 0.2]),
    "in-set-string": lambda: in_set(TABLE, "x"),
    "fractal-derivative-list": lambda: fractal_derivative(SAMPLES, [0.1, 0.2]),
    "lyapunov-derivative-nan-state": lambda: lyapunov_derivative(
        example1_lyapunov(), example1_field, math.nan),
    "lyapunov-derivative-nan-in-state": lambda: lyapunov_derivative(
        example1_lyapunov(), example1_field, np.array([1.0, math.nan])),
    "covering-measure-string": lambda: covering_measure("x"),
    "lyapunov-derivative-flow-one-component": lambda: _planar_derivative(
        lambda tau, y, z: (z,), (1.0, 2.0)),
    "lyapunov-derivative-flow-three-components": lambda: _planar_derivative(
        lambda tau, y, z: (z, -y, 5.0), (1.0, 2.0)),
    "lyapunov-derivative-flow-one-component-arrays": lambda: _planar_derivative(
        lambda tau, y, z: (z,), (np.array([1.0, 0.5]), np.array([2.0, -1.0]))),
    "lyapunov-derivative-flow-three-components-arrays": lambda: _planar_derivative(
        lambda tau, y, z: (z, -y, 5.0), (np.array([1.0, 0.5]), np.array([2.0, -1.0]))),
    "equilibrium-inf": lambda: _classify(equilibrium=math.inf),
    "theorem1-grids-other-alpha": lambda: _verify1(grids=_grids(alpha=0.3)),
    "theorem2-grids-other-alpha": lambda: _verify2(grids=_grids(alpha=0.3)),
    "staircase-table-alpha-none": lambda: dataclasses.replace(TABLE, alpha=None),
    "staircase-table-alpha-above-one": lambda: dataclasses.replace(TABLE, alpha=1.5),
    "staircase-table-t0-string": lambda: dataclasses.replace(TABLE, t0="x"),
    "staircase-table-t0-nan": lambda: dataclasses.replace(TABLE, t0=math.nan),
    "staircase-table-nan-t-inf-s": lambda: _table([0.0, math.nan, 1.0], [0.0, 0.5, math.inf]),
    "staircase-table-t-nan": lambda: _table([0.0, math.nan, 1.0], [0.0, 0.5, 1.0]),
    "staircase-table-s-inf": lambda: _table([0.0, 0.5, 1.0], [0.0, 0.5, math.inf]),
    "staircase-table-t-decreasing": lambda: _table([0.0, 1.0, 0.5], [0.0, 0.5, 1.0]),
    "staircase-table-s-decreasing": lambda: _table([0.0, 0.5, 1.0], [0.0, 1.0, 0.5]),
    "staircase-table-sizes-differ": lambda: _table([0.0, 0.5, 1.0], [0.0, 1.0]),
    "staircase-table-empty": lambda: _table([], []),
    "staircase-table-scalar": lambda: _table(0.5, 0.5),
    "staircase-table-2d": lambda: _table(TABLE.t.reshape(2, -1), TABLE.s.reshape(2, -1)),
    "lyapunov-derivative-one-gradient-for-two-components": lambda: lyapunov_derivative(
        dataclasses.replace(example3_lyapunov(), grad_state=(lambda tau, y, z: y,)),
        example3_field(), (1.0, 2.0)),
    "lyapunov-derivative-state-shapes-differ": lambda: _planar_derivative(
        example3_field(), (np.ones(2), np.ones(3))),
    "interval-set-left-inf": lambda: IntervalSet([-math.inf, 1.0], [0.0, 2.0]),
    "interval-set-right-inf": lambda: IntervalSet([0.0, 1.0], [0.5, math.inf]),
    # 1.0 lies in the middle gap (0.8, 1.2) of the set on [0, 2]
    "grid-function-off-set-point": lambda: GridFunction(
        TABLE, [0.0, 1.0, 2.0], [0.0, 0.5, 1.0], [1.0, 1.0, 1.0]),
    "grid-function-wrong-s": lambda: GridFunction(
        TABLE, SAMPLES.t, SAMPLES.s * 2.0, SAMPLES.values),
    # a system's and a Lyapunov function's fields are checked when it is made,
    # not in its first call
    "fde-system-u-float": lambda: FdeSystem(u=1.0, v=abs, f=max, h=abs),
    "fde-system-h-none": lambda: dataclasses.replace(linear_damped_system(), h=None),
    "fde-system-q-string": lambda: dataclasses.replace(linear_damped_system(), q="0"),
    "fde-system-h-integral-float": lambda: dataclasses.replace(
        linear_damped_system(), h_integral=0.5),
    "fde-system-constants-dict": lambda: dataclasses.replace(
        linear_damped_system(), constants={"E": 1.0}),
    "lyapunov-value-string": lambda: LyapunovFunction(value="x"),
    "lyapunov-grad-state-function": lambda: LyapunovFunction(
        value=lambda tau, z: z * z, grad_state=lambda tau, z: 2 * z),
    "lyapunov-grad-state-holds-float": lambda: LyapunovFunction(
        value=lambda tau, z: z * z, grad_state=(0.0,)),
    "lyapunov-grad-tau-float": lambda: LyapunovFunction(
        value=lambda tau, z: z * z, grad_tau=0.0),
    # refusals no other test reaches
    "interval-set-shapes-differ": lambda: IntervalSet([0.0, 1.0], [0.5]),
    "interval-set-left-above-right": lambda: IntervalSet([1.0], [0.0]),
    "interval-set-overlapping": lambda: IntervalSet([0.0, 0.5], [1.0, 2.0]),
    "from-values-shapes-differ": lambda: GridFunction.from_values(
        TABLE, TABLE.t[:2], [1.0]),
    "from-values-decreasing": lambda: GridFunction.from_values(
        TABLE, TABLE.t[1::-1], [1.0, 1.0]),
    "from-values-2d": lambda: GridFunction.from_values(
        TABLE, TABLE.t[:4].reshape(2, 2), np.ones((2, 2))),
    "l-alpha-sum-one-point": lambda: l_alpha_sum(ISET, ALPHA, [0.5]),
    "dimension-sweep-alphas-decreasing": lambda: dimension_sweep(
        SPEC, 0.5, 1e-3, [0.8, 0.5]),
    "classify-equilibrium-other-dimension": lambda: classify_stability(
        example1_field, TABLE, equilibrium=(0.0, 0.0)),
    "lyapunov-derivative-flow-float": lambda: lyapunov_derivative(
        example1_lyapunov(), 1.0, 1.0),
    "lyapunov-derivative-flow-uninspectable": lambda: lyapunov_derivative(
        example1_lyapunov(), max, 1.0),
    "lyapunov-derivative-state-three-for-two": lambda: _planar_derivative(
        example3_field(), np.ones(3)),
    "from-function-string-values": lambda: GridFunction.from_function(
        TABLE, lambda t: "a"),
    "expression-unknown-operator": lambda: compile_expression("~t", ("t",)),
    "max-depth-negative": lambda: _max_depth_from_env("-1"),
}


@pytest.mark.parametrize("name", sorted(HOLES))
def test_holes_are_parameter_errors(name):
    with pytest.raises(ParameterError):
        HOLES[name]()


# a NaN time or clock query is a domain error, like a point outside the span
DOMAIN_HOLES = {
    "lyapunov-derivative-nan-tau": lambda: lyapunov_derivative(
        example1_lyapunov(), example1_field, 1.0, tau=math.nan),
    "in-set-nan": lambda: in_set(TABLE, math.nan),
    "fractal-derivative-nan": lambda: fractal_derivative(SAMPLES, math.nan),
    "eval-staircase-nan": lambda: eval_staircase(TABLE, math.nan),
    "eval-staircase-nan-in-array": lambda: eval_staircase(TABLE, [0.5, math.nan]),
    "warp-time-nan": lambda: warp_time(TABLE, np.array([0.1, math.nan])),
    "contains-nan": lambda: contains(ISET, math.nan),
    "characteristic-nan": lambda: characteristic(SPEC, ALPHA, [math.nan]),
    "at-time-nan": lambda: TRAJECTORY.at_time(math.nan),
    "from-values-nan": lambda: GridFunction.from_values(TABLE, [0.0, math.nan], [1.0, 1.0]),
    "from-function-nan": lambda: GridFunction.from_function(TABLE, np.sin, t=[math.nan]),
    "lyapunov-derivative-nan-in-tau": lambda: lyapunov_derivative(
        example1_lyapunov(), example1_field, 1.0, tau=[0.0, math.nan]),
    "integral-lower-nan": lambda: fractal_integral(SAMPLES, math.nan, 1.0),
    "integral-upper-nan": lambda: fractal_integral(SAMPLES, 0.0, math.nan),
}


@pytest.mark.parametrize("name", sorted(DOMAIN_HOLES))
def test_nan_queries_are_domain_errors(name):
    with pytest.raises(DomainError):
        DOMAIN_HOLES[name]()


# every array argument and query point; each takes its input through
# errors._reals, so none of NOT_REALS may end in anything but a ParameterError
ARRAYS = {
    "eval_staircase.t": lambda v: eval_staircase(TABLE, v),
    "warp_time.tau": lambda v: warp_time(TABLE, v),
    "contains.t": lambda v: contains(ISET, v),
    "characteristic.t": lambda v: characteristic(SPEC, ALPHA, v),
    "in_set.t": lambda v: in_set(TABLE, v),
    "fractal_derivative.t": lambda v: fractal_derivative(SAMPLES, v),
    "Trajectory.at_time": lambda v: TRAJECTORY.at_time(v),
    "IntervalSet.left": lambda v: IntervalSet(v, [1.0]),
    "IntervalSet.right": lambda v: IntervalSet([0.0], v),
    "StaircaseTable.t": lambda v: dataclasses.replace(TABLE, t=v),
    "GridFunction.from_values.t": lambda v: GridFunction.from_values(TABLE, v, [1.0]),
    "GridFunction.from_values.values": lambda v: GridFunction.from_values(
        TABLE, TABLE.t[:1], v),
    "GridFunction.from_function.t": lambda v: GridFunction.from_function(TABLE, np.sin, t=v),
    "l_alpha_sum.subdivision": lambda v: l_alpha_sum(ISET, ALPHA, v),
    "dimension_sweep.alphas": lambda v: dimension_sweep(SPEC, 0.5, 1e-3, v),
    "AssumptionGrids.tau": lambda v: _grids(tau=v),
    "AssumptionGrids.y": lambda v: _grids(y=v),
    "AssumptionGrids.y_growth": lambda v: _grids(y_growth=v),
    "AssumptionGrids.tail_windows": lambda v: _grids(tail_windows=v),
    "classify_stability.equilibrium": lambda v: _classify(equilibrium=v),
    "lyapunov_derivative.state": lambda v: lyapunov_derivative(
        example1_lyapunov(), example1_field, v),
    "lyapunov_derivative.state-tuple": lambda v: lyapunov_derivative(
        example1_lyapunov(), example1_field, (v,)),
    "lyapunov_derivative.tau": lambda v: lyapunov_derivative(
        example1_lyapunov(), example1_field, 1.0, tau=v),
    "verify_theorem1.initial_states": lambda v: _verify1(initial_states=v),
    "verify_theorem2.initial_states": lambda v: _verify2(initial_states=v),
    "example1_exact.c": lambda v: example1_exact(v, 1.0),
    "example1_exact.tau": lambda v: example1_exact(1.0, v),
}
NOT_REALS = {"string": "x", "none": None, "complex": 1j, "bool": True, "object": object(),
             "list-with-string": [0.1, "a"], "int-beyond-float": [0, 10**400],
             "ragged": [[0.1, 0.2], [0.3]]}
# None asks for the default of these arguments
DEFAULTS_TO_NONE = {"GridFunction.from_function.t", "dimension_sweep.alphas",
                    "classify_stability.equilibrium", "verify_theorem1.initial_states",
                    "verify_theorem2.initial_states"}
ARRAY_CASES = [pytest.param(name, kind, id=f"{name}-{kind}")
               for name in sorted(ARRAYS) for kind in NOT_REALS
               if not (kind == "none" and name in DEFAULTS_TO_NONE)]


@pytest.mark.parametrize(("name", "kind"), ARRAY_CASES)
def test_arrays_without_real_numbers_are_parameter_errors(name, kind):
    with pytest.raises(ParameterError):
        ARRAYS[name](NOT_REALS[kind])


def test_scalar_queries_answer_python_scalars():
    assert type(eval_staircase(TABLE, np.float32(0.5))) is float
    assert type(warp_time(TABLE, 0.1)) is float
    assert type(contains(ISET, np.array(0.5))) is bool
    assert type(in_set(TABLE, 1)) is bool
    assert type(characteristic(SPEC, ALPHA, 0.5)) is float


# public names that take no numbers of their own: exception types, result
# records the package fills in, and names that take specs, tables, grid
# functions, systems, callables or expression text.  The flows and the
# compiled expression are the package's user functions: the integrators
# call them, on floats or arrays the package has checked already
NUMBERLESS = {
    "DomainError", "EstimationError", "ExpressionError", "FractalCalcError",
    "NumericalBlowupError", "ParameterError", "PreconditionError", "ResolutionError",
    "AssumptionReport", "ConditionCheck", "DecayFit", "MassEstimate", "StabilityReport",
    "Theorem1Report", "Theorem2Report",
    "generate", "iter_levels", "max_depth", "derivative_grid", "stability_certificate",
    "FdeSystem", "LyapunovFunction", "Expression", "compile_expression",
    "example1_field", "example1_lyapunov", "example2_lienard_field",
    "example2_lienard_lyapunov", "example2_system", "linear_damped_system",
    "theorem1_toy", "theorem2_toy", "__version__",
}


def _reached(fn):
    """The global and attribute names a table entry uses, through this module's helpers."""
    names, codes = set(), [fn.__code__]
    while codes:
        code = codes.pop()
        for name in set(code.co_names) - names:
            helper = globals().get(name)
            if inspect.isfunction(helper) and helper.__module__ == __name__:
                codes.append(helper.__code__)
            names.add(name)
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    return names


def test_every_public_name_is_under_the_policy():
    tables = (CALLS, HOLES, DOMAIN_HOLES, ARRAYS)
    covered = {key.split(".")[0] for table in (CALLS, ARRAYS) for key in table}
    for table in tables:
        for fn in table.values():
            covered |= _reached(fn)
    assert set(fractalcalc.__all__) - covered - NUMBERLESS == set()
    assert NUMBERLESS <= set(fractalcalc.__all__)


def test_stability_horizon_zero_is_a_usage_error():
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["stability", "--horizon=0", "--depth", "8"]) == 2


def test_sample_counts_stop_at_a_table_at_the_depth_cap(monkeypatch):
    # a cap of 8 allows 512 points: 64 segments of 2 ends and 6 inner points
    monkeypatch.setenv("FRACTAL_CALC_MAX_DEPTH", "8")
    assert set_samples(TABLE, 6).size == 512
    with pytest.raises(ParameterError):
        set_samples(TABLE, 7)
    with pytest.raises(ParameterError):
        _verify1(grid_points=23)    # 529 states
    with pytest.raises(ParameterError):
        _verify2(n_random=513)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["staircase", "--samples", "513", "--depth", "4"]) == 2
        assert main(["staircase", "--samples", "512", "--depth", "4"]) == 0


def test_sweep_grids_stop_at_a_table_at_the_depth_cap(monkeypatch):
    # a cap of 8 allows 512 points in the tail grid, the y x z mesh and the
    # forcing cube; each grid below sits at the cap, one point more is refused
    monkeypatch.setenv("FRACTAL_CALC_MAX_DEPTH", "8")
    def line(n):
        return np.linspace(-1.0, 1.0, n)
    base = {"alpha": 0.5, "tail_windows": (5.0, 10.0), "y": line(16), "z": line(32)}
    cube = {**base, "tau": line(8) + 1.0, "y": line(8), "z": line(8), "forcing_stride": 1}
    for fits, over in ((base, {**base, "z": line(33)}),
                       ({**base, "tail_windows": (5.0, 25.55)},
                        {**base, "tail_windows": (5.0, 25.6)}),
                       (cube, {**cube, "tau": line(9) + 1.0})):
        AssumptionGrids(**fits)
        with pytest.raises(ParameterError, match="more than the cap of 512"):
            AssumptionGrids(**over)


@pytest.mark.parametrize("name,value", [
    ("tau", 5.0), ("z", 0.5), ("y", np.linspace(-5.0, 5.0, 200).reshape(20, 10)),
    ("y_growth", np.geomspace(1.0, 1e3, 12).reshape(2, 6)), ("tail_windows", 40.0)])
def test_sweep_grids_must_be_1d(name, value):
    # a 0-d tau or z ended in a raw IndexError at C5, a 2-d y in the
    # adapter's message that the arguments do not broadcast
    with pytest.raises(ParameterError, match=f"^{name} must be a non-empty 1-d array$"):
        AssumptionGrids(alpha=0.75, **{name: value})


def test_bisection_stops_at_float_resolution():
    # a tolerance below the spacing of floats near the answer used to hang
    coarse = gamma_dimension(SPEC, 0.1, 1e-3)
    fine = gamma_dimension(SPEC, 0.1, 1e-3, tol=1e-300)
    assert abs(fine - coarse) <= 1e-10


# one good value per parameter name of a public function: a function added
# later with a name this table lacks fails the test below until it learns it
GOOD = {
    "spec": SPEC, "obj": SPEC, "iset": ISET, "table": TABLE, "f": SAMPLES,
    "sys": theorem1_toy(), "grids": _grids(), "L": example3_lyapunov(),
    "flow": example3_field(), "g": _decay, "mu": MU, "alpha": ALPHA,
    "t": 0.0, "tau": 0.5, "a": 0.0, "b": 2.0, "c": 1.0, "c1": 0.0, "c2": 1.0,
    "delta": 0.01, "delta1": 0.1, "delta2": 1e-3, "subdivision": [0.0, 0.5, 2.0],
    "h0": 1.0, "y0": 1.0, "z0": 0.0, "t_end": 1.0, "state": (1.0, 0.0),
    "source": "y", "variables": ("y",),
}
# the two ready-made flows take numbers and return numbers, as any caller's
# flow does: a march's adapter judges what they raise, and a check inside
# them would run at every stage of every step
KIND_EXEMPT = {"example1_field", "example2_lienard_field"}
HOSTILE = (None, "x", (0.2, 3), object(), build_staircase(CantorSpec(MU, 4), ALPHA),
           theorem1_toy(), example3_field())
PUBLIC_FUNCTIONS = sorted(name for name in fractalcalc.__all__
                          if inspect.isfunction(getattr(fractalcalc, name)))


def _run(fn, args):
    out = fn(**args)
    if inspect.isgenerator(out):
        out = list(out)
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(set(PUBLIC_FUNCTIONS) - KIND_EXEMPT))
def test_every_required_argument_of_the_wrong_kind_is_a_package_error(name):
    # each hostile value in each required parameter, the others good, ends
    # in a result or a FractalCalcError, never another exception
    fn = getattr(fractalcalc, name)
    required = [p.name for p in inspect.signature(fn).parameters.values()
                if p.default is p.empty]
    assert [p for p in required if p not in GOOD] == []
    good = {p: GOOD[p] for p in required}
    _run(fn, good)
    raw = []
    for param in required:
        for value in HOSTILE:
            try:
                _run(fn, {**good, param: value})
            except FractalCalcError:
                pass
            except Exception as exc:  # any other exception is the failure
                raw.append(f"{param}={value!r}: {type(exc).__name__}: {exc}")
    assert raw == []


# what the rule says, for each kind of argument it guards
KIND_MESSAGES = {
    "table": (lambda: eval_staircase(None, 0.5), "table must be a StaircaseTable, got NoneType"),
    "spec": (lambda: generate((0.2, 3)), "spec must be a CantorSpec, got tuple"),
    "set-or-spec": (lambda: covering_measure(TABLE),
                    "obj must be a CantorSpec or an IntervalSet, got StaircaseTable"),
    "grids": (lambda: check_assumptions(theorem1_toy(), None),
              "grids must be an AssumptionGrids, got NoneType"),
    "system": (lambda: verify_theorem1(example3_field(), TABLE),
               "sys must be a FdeSystem, got function"),
    "optional-grids": (lambda: verify_theorem2(theorem2_toy(), TABLE, grids=TABLE),
                       "grids must be an AssumptionGrids or None, got StaircaseTable"),
    "flow": (lambda: classify_stability(TABLE, TABLE),
             "flow must be a FdeSystem or a callable, got StaircaseTable"),
    "constants": (lambda: dataclasses.replace(theorem1_toy(), constants=None),
                  "constants must be a FdeConstants, got NoneType"),
    "grad-state": (lambda: LyapunovFunction(abs, grad_state=abs),
                   "grad_state must be a tuple or a list or None, "
                   "got builtin_function_or_method"),
}


@pytest.mark.parametrize("name", sorted(KIND_MESSAGES))
def test_the_kind_rule_names_the_argument_and_what_it_got(name):
    call, message = KIND_MESSAGES[name]
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()
