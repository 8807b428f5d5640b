import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fractalcalc
from fractalcalc import (
    AssumptionGrids,
    CantorSpec,
    FdeConstants,
    FdeSystem,
    LyapunovFunction,
    ParameterError,
    PreconditionError,
    boundedness_certificate,
    build_staircase,
    check_assumptions,
    classify_stability,
    example1_field,
    example1_lyapunov,
    example2_lienard_field,
    example2_lienard_lyapunov,
    example2_system,
    example3_field,
    example3_lyapunov,
    example3_system,
    linear_damped_system,
    lyapunov_derivative,
    stability_certificate,
    theorem1_toy,
    theorem2_toy,
    verify_theorem1,
    verify_theorem2,
)

ALPHA = 0.7564707973660301


@pytest.fixture(scope="module")
def long_table():
    return build_staircase(
        CantorSpec(mu=0.2, depth=12, origin=0.0, extent=60.0), ALPHA)


@pytest.fixture(scope="module")
def grids():
    return AssumptionGrids(alpha=ALPHA)


# ---------------------------------------------------------------------------
# Lyapunov functions and derivatives
# ---------------------------------------------------------------------------

def test_linear_decay_certificate_derivative_is_exact():
    # V = z^2 along Dz = -z gives exactly -2 z^2 in floating point
    L = example1_lyapunov()
    rng = np.random.default_rng(7)
    for z in rng.uniform(-5.0, 5.0, 100):
        got = lyapunov_derivative(L, example1_field, z)
        assert got == -2.0 * z * z


def test_derivative_vectorizes():
    L = example1_lyapunov()
    z = np.array([-1.0, 0.0, 2.0])
    got = lyapunov_derivative(L, example1_field, z)
    assert np.array_equal(got, -2.0 * z * z)


def test_finite_difference_gradient_fallback():
    L = LyapunovFunction(value=lambda tau, z: z ** 2)
    got = lyapunov_derivative(L, example1_field, 1.5)
    assert got == pytest.approx(-2.0 * 1.5 ** 2, rel=1e-8)


def test_vectorized_gradient_fallback_stays_on_the_clock():
    # V is linear in tau, so the difference that is one-sided at tau = 0 is
    # exact up to rounding there too; V is never evaluated below tau = 0
    sys = dataclasses.replace(linear_damped_system(), v=lambda tau: 1.0 + 0.5 * tau,
                              v_derivative=lambda tau: 0.5 + 0.0 * tau)
    exact = boundedness_certificate(sys)
    seen = []

    def value(tau, y, z):
        seen.append(float(np.min(tau)))
        return exact.value(tau, y, z)

    state = (np.linspace(-3.0, 3.0, 7), np.linspace(2.0, -2.0, 7))
    # the second value takes scalars only and is called once per element
    for bare in (LyapunovFunction(value=value),
                 LyapunovFunction(value=lambda tau, y, z: float(value(tau, y, z)))):
        for tau in (0.0, 2.5, np.array([0.0, 1e-7, 0.5, 1.0, 2.0, 4.0, 8.0])):
            np.testing.assert_allclose(bare.time_gradient(tau, state),
                                       exact.time_gradient(tau, state),
                                       rtol=1e-8, atol=1e-8)
            for got, want in zip(bare.state_gradient(tau, state),
                                 exact.state_gradient(tau, state)):
                np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)
    assert min(seen) == 0.0


def test_planar_derivative_with_system():
    sys = theorem1_toy()
    L = stability_certificate(sys)
    # dL = -(u f / v) z^2 for constant v, here u = v = f = 1
    got = lyapunov_derivative(L, sys, (0.3, -1.2))
    assert got == pytest.approx(-1.2 ** 2, rel=1e-12)


@pytest.mark.parametrize("tau", [0.7, np.array([0.0, 0.5, 1.0, 2.0, 4.0])],
                         ids=["scalar-tau", "array-tau"])
def test_scalar_only_flows_answer_arrays_element_by_element(tau):
    # math.sin takes no arrays, so each flow is called once per element; the
    # gradients are polynomials, so the array answer must equal the scalar
    # answers exactly
    planar = LyapunovFunction(value=lambda tau, y, z: tau * y + 0.5 * (y * y + z * z),
                              grad_state=(lambda tau, y, z: tau + y, lambda tau, y, z: z),
                              grad_tau=lambda tau, y, z: y)
    y, z = np.linspace(-2.0, 2.0, 5), np.linspace(1.0, -1.0, 5)
    taus = np.broadcast_to(tau, y.shape)
    # gradients written for scalars run once per element too, whatever the flow
    scalar_grads = LyapunovFunction(
        value=lambda tau, y: y * y,
        grad_state=(lambda tau, y: 2.0 * math.copysign(abs(y), y),),
        grad_tau=lambda tau, y: 0.0 * math.cos(tau))
    planar_scalar_grads = dataclasses.replace(
        planar, grad_state=(lambda tau, y, z: math.fsum((tau, y)), lambda tau, y, z: float(z)),
        grad_tau=lambda tau, y, z: float(y))
    cases = [(example1_lyapunov(), lambda y: -math.sin(y), (y,)),
             (planar, lambda tau, y, z: (z, -math.sin(y)), (y, z)),
             (scalar_grads, lambda y: -y, (y,)),
             (scalar_grads, lambda y: -math.sin(y), (y,)),
             (planar_scalar_grads, lambda tau, y, z: (z, -y), (y, z)),
             (planar_scalar_grads, lambda tau, y, z: (z, -math.sin(y)), (y, z))]
    for L, flow, state in cases:
        got = lyapunov_derivative(L, flow, state if len(state) > 1 else y, tau=tau)
        want = [lyapunov_derivative(L, flow, tuple(c[i] for c in state), tau=taus[i])
                for i in range(y.size)]
        assert got.tolist() == want


@pytest.mark.parametrize("make", [theorem1_toy, example2_system, theorem2_toy],
                         ids=["theorem1_toy", "example2", "theorem2_toy"])
def test_published_certificates_agree_with_the_verifiers_closed_forms(long_table, make):
    # the verifiers evaluate closed forms; the certificates the package
    # publishes must give the same values and derivatives on the verifiers'
    # default fan
    from fractalcalc.fde import _apply
    from fractalcalc.lyapunov import _lemmas, _march_fan, _theorem2_constants

    sys = make()
    *_, taus, blocks, escaped = _march_fan(sys, long_table, ("C1", "C2", "C3", "C4"), None,
                                           None, None, 1e-2, 10)
    assert not escaped.any() and blocks.shape[2] == 16
    tau, (Y, Z) = taus[:, None], blocks
    state = (Y, Z)

    def agree(got, want):
        assert got.shape == Y.shape and np.max(np.abs(got - want)) <= 1e-12

    if sys.q is None:
        # verify_theorem1's drift dL2 = -v'/(2 v^2) z^2 - (u/v) f z^2
        u, v = _apply(sys.u, tau), _apply(sys.v, tau)
        drift = (-_apply(sys.coefficient_slope, tau) / (2.0 * v ** 2) * Z ** 2
                 - (u / v) * _apply(sys.f, Y, Z) * Z ** 2)
        report = verify_theorem1(sys, long_table, dtau=1e-2)
        assert report.max_drift == np.max(drift)
        L2 = stability_certificate(sys)
        agree(L2(tau, *state), _apply(sys.restoring_integral, Y) + Z ** 2 / (2.0 * v))
        agree(lyapunov_derivative(L2, sys, state, tau=tau), drift)
    k = 1.0 / 32.0
    *_, L0, dL0 = _lemmas(sys, _theorem2_constants(sys.constants, long_table.alpha, k),
                          tau, Y, Z)
    L = boundedness_certificate(sys, k)
    agree(L(tau, *state), L0)
    agree(lyapunov_derivative(L, sys, state, tau=tau), dL0)


def test_lienard_derivative_is_minus_y_times_the_damping_primitive():
    # D L = -y G(y) = -(y^4/3 + y^2), whatever w is
    L = example2_lienard_lyapunov()
    assert lyapunov_derivative(L, example2_lienard_field, (1.0, 0.5)) == \
        pytest.approx(-4.0 / 3.0, rel=1e-15)
    assert lyapunov_derivative(L, example2_lienard_field, (2.0, -1.0)) == \
        pytest.approx(-28.0 / 3.0, rel=1e-15)
    y, w = np.linspace(-3.0, 3.0, 13), np.linspace(2.0, -2.0, 13)
    np.testing.assert_allclose(lyapunov_derivative(L, example2_lienard_field, (y, w)),
                               -(y ** 4 / 3.0 + y ** 2), rtol=1e-14, atol=1e-14)


def test_a_planar_state_array_is_the_tuple_of_its_components():
    # a 1-d array of two numbers is read as (y, w), as the tuple form is
    L = example2_lienard_lyapunov()
    got = lyapunov_derivative(L, example2_lienard_field, np.array([0.7, -0.2]))
    assert got == lyapunov_derivative(L, example2_lienard_field, (0.7, -0.2))
    assert got == pytest.approx(-(0.7 ** 4 / 3.0 + 0.7 ** 2), rel=1e-15)


@pytest.mark.parametrize("spring", [1.0, 2.5])
def test_oscillator_energy_is_conserved(spring):
    y, z = np.meshgrid(np.linspace(-3.0, 3.0, 7), np.linspace(-2.0, 2.0, 5))
    got = lyapunov_derivative(example3_lyapunov(spring), example3_field(spring), (y, z),
                              tau=1.5)
    assert np.array_equal(got, np.zeros_like(y))


@pytest.mark.parametrize("name,value", [("value", 1.0), ("grad_tau", 0.0),
                                        ("grad_state", (0.0,))],
                         ids=["value", "grad_tau", "grad_state"])
@pytest.mark.parametrize("method", ["call", "state_gradient", "time_gradient"])
def test_a_reassigned_field_is_refused_at_the_assignment(name, value, method):
    L = example1_lyapunov()
    old = getattr(L, name)
    with pytest.raises(ParameterError, match=f"^{name}(\\[0\\])? must be"):
        setattr(L, name, value)
    assert getattr(L, name) is old
    calls = {"call": lambda L: L(0.0, 1.0),
             "state_gradient": lambda L: L.state_gradient(0.0, (1.0,)),
             "time_gradient": lambda L: L.time_gradient(0.0, (1.0,))}
    assert calls[method](L) == calls[method](example1_lyapunov())


def test_a_grad_state_list_is_kept_as_a_tuple():
    grads = [lambda tau, y: 2.0 * y]
    L = LyapunovFunction(value=lambda tau, y: y * y, grad_state=grads)
    grads.append(1.0)
    assert L.grad_state == (grads[0],)
    assert L.state_gradient(0.0, (1.5,)) == (3.0,)


def test_state_dimension_mismatch_rejected():
    L = example1_lyapunov()
    with pytest.raises(ParameterError):
        lyapunov_derivative(L, example1_field, (1.0, 2.0))


def test_flow_signature_rejected():
    with pytest.raises(ParameterError):
        lyapunov_derivative(example1_lyapunov(), lambda a, b: a, 1.0)


# ---------------------------------------------------------------------------
# empirical classification
# ---------------------------------------------------------------------------

def test_classify_linear_decay(long_table):
    rep = classify_stability(example1_field, long_table)
    assert rep.classification == "asymptotically-stable"
    assert rep.decay is not None
    assert not any("decay fit" in note for note in rep.notes)
    assert abs(rep.decay.rate_tau - 1.0) <= 1e-2
    assert rep.decay.r2_tau >= 0.99
    # decay is exponential in the clock but not in plain time: the fitted
    # plain-time bound fails at t = 0 because the clock runs fast early on
    assert not rep.decay.bound_holds


def test_classify_identity_clock_is_exponential():
    spec = CantorSpec(mu=0.5, depth=0, origin=0.0, extent=60.0)
    table = build_staircase(spec, 1.0)
    rep = classify_stability(example1_field, table)
    assert rep.classification == "exponentially-stable"
    assert rep.decay.bound_holds
    assert abs(rep.decay.rate_t - 1.0) <= 1e-2


def test_classify_needs_three_points_for_a_decay_fit(long_table):
    # the fit window holds one recorded point, and a line through it would
    # have R^2 = 1, so no fit is reported; the default record_every gives
    # the same label
    rep = classify_stability(example1_field, long_table, record_every=10**6)
    assert rep.decay is None
    assert any("fewer than 3 recorded points" in note for note in rep.notes)
    assert rep.classification == "asymptotically-stable"
    assert rep.to_json()["decay"] is None
    # records at 0, 0.4, 0.8 and 1 of the horizon leave two in the latter half
    tau_end = long_table.s_range[1]
    rep = classify_stability(example1_field, long_table, horizon=tau_end,
                             record_every=round(0.4 * tau_end / 1e-3))
    assert rep.decay is None and rep.classification == "asymptotically-stable"


def test_classify_conservative_oscillator(long_table):
    rep = classify_stability(example3_field(1.0), long_table,
                             equilibrium=(0.0, 0.0))
    assert rep.classification == "lyapunov-stable"


def test_the_default_equilibrium_is_the_flows_origin(long_table):
    explicit = classify_stability(example3_field(1.0), long_table,
                                  equilibrium=(0.0, 0.0), horizon=5.0)
    default = classify_stability(example3_field(1.0), long_table, horizon=5.0)
    assert json.dumps(default.to_json()) == json.dumps(explicit.to_json())
    assert default.equilibrium == (0.0, 0.0)


def test_classify_damped_system(long_table):
    rep = classify_stability(theorem1_toy(), long_table,
                             equilibrium=(0.0, 0.0))
    assert rep.classification == "asymptotically-stable"


def test_classify_unstable(long_table):
    rep = classify_stability(lambda y: y, long_table)
    assert rep.classification == "unstable-evidence"


def test_classify_freezes_escaped_columns(long_table, monkeypatch):
    import fractalcalc.lyapunov as lyap
    from fractalcalc.fde import BLOWUP_LIMIT

    runs = []
    batch = lyap._batch_integrate

    def spy(rhs, dim, Y0, tau_end, dtau, record_every, *rest):
        out = batch(rhs, dim, Y0, tau_end, dtau, record_every, *rest)
        runs.append((rhs, dim, np.array(Y0), tau_end, dtau, record_every, out))
        return out

    monkeypatch.setattr(lyap, "_batch_integrate", spy)
    rep = classify_stability(lambda y: y * y, long_table)
    assert rep.classification == "unstable-evidence"
    assert "some trajectories left the blow-up ball" in rep.notes

    (rhs, dim, Y0, tau_end, dtau, record_every, (taus, blocks, escaped)), = runs
    # +delta columns reach the limit before tau = 1 / delta**alpha < 20,
    # -delta columns decay like y0 / (1 - y0 tau)
    assert np.array_equal(escaped, Y0[0] > 0.0)
    for b in np.flatnonzero(escaped):
        col = blocks[0, :, b]
        first = int(np.argmax(col == BLOWUP_LIMIT))
        assert col[first] == BLOWUP_LIMIT
        assert np.all(col[first:] == BLOWUP_LIMIT)
        assert np.all(np.abs(col[:first]) < BLOWUP_LIMIT)
    for b in np.flatnonzero(~escaped):
        alone_taus, alone, alone_escaped = batch(
            rhs, dim, Y0[:, [b]], tau_end, dtau, record_every)
        assert not alone_escaped.any()
        assert np.array_equal(alone_taus, taus)
        assert np.array_equal(alone[:, :, 0], blocks[:, :, b])


def test_classify_surfaces_errors_from_array_input(long_table):
    # only TypeError and ValueError mean "no array support"; anything else
    # is a bug in the flow and must not be hidden by the column-by-column path
    def flow(y):
        if isinstance(y, np.ndarray):
            raise RuntimeError("flow rejects arrays")
        return -y

    with pytest.raises(RuntimeError, match="flow rejects arrays"):
        classify_stability(flow, long_table, horizon=1.0, dtau=1e-2)


def test_classify_column_fallback_is_exact(long_table):
    # math.exp rejects arrays with TypeError, so this flow runs one column
    # at a time; the report must equal the one from the row-array path
    def scalar_flow(tau, y, z):
        return z, -y - (1.0 + math.exp(-y * y)) * z

    def array_flow(tau, y, z):
        return z, -y - (1.0 + np.exp(-y * y)) * z

    reports = [classify_stability(flow, long_table, equilibrium=(0.0, 0.0),
                                  horizon=5.0, dtau=1e-2).to_json()
               for flow in (scalar_flow, array_flow)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("exp", [math.exp, np.exp], ids=["math", "numpy"])
def test_classify_rejects_a_missing_component(long_table, exp):
    # a planar field that returns one derivative fails the array probe, and
    # the column-by-column path refuses it instead of marching a short state
    def flow(tau, y, z):
        return (-y * exp(-z * z),)

    with pytest.raises(ParameterError, match="1 component"):
        classify_stability(flow, long_table, equilibrium=(0.0, 0.0),
                           horizon=1.0, dtau=1e-2)


@pytest.mark.parametrize("flow,gave", [
    (lambda tau, y, z: (z, "a"), "2 component(s) of type(s) (float64, str)"),
    (lambda tau, y, z: (z, None), "2 component(s) of type(s) (float64, NoneType)"),
    # the factory where the field it makes is meant: one argument, one function back
    (example3_field, "1 component(s) of type(s) (function)"),
], ids=["string", "none", "factory"])
def test_classify_names_the_types_a_field_gave(long_table, flow, gave):
    with pytest.raises(ParameterError, match=re.escape(f"a call gave {gave}, not")):
        classify_stability(flow, long_table, horizon=1.0, dtau=1e-2)


@pytest.mark.parametrize("horizon", [math.nan, -1.0])
def test_classify_rejects_bad_horizons(long_table, horizon):
    with pytest.raises(ParameterError):
        classify_stability(example1_field, long_table, horizon=horizon)


@pytest.mark.parametrize("grid", [
    {"eps_grid": (math.nan,)}, {"delta_grid": (math.inf,)},
    {"eps_grid": (0.5, -0.1)}, {"delta_grid": (0.5, 0.0)},
    {"delta_grid": (0.1, math.nan)}, {"eps_grid": ()},
    {"eps_grid": 0.5}, {"delta_grid": 0.5}, {"eps_grid": np.array(0.5)},
    {"delta_grid": [[0.5, 0.25]]},
], ids=["eps-nan", "delta-inf", "eps-negative", "delta-zero", "delta-nan",
        "eps-empty", "eps-scalar", "delta-scalar", "eps-0d", "delta-2d"])
def test_classify_rejects_bad_grids(long_table, grid):
    with pytest.raises(ParameterError):
        classify_stability(example1_field, long_table, horizon=1.0, dtau=1e-2,
                           **grid)


@pytest.mark.parametrize("every", [2.5, 20.0, True],
                         ids=["fractional", "integral-float", "bool"])
def test_classify_rejects_bad_record_every(long_table, every):
    with pytest.raises(ParameterError, match="record_every"):
        classify_stability(example1_field, long_table, horizon=1.0, dtau=1e-2,
                           record_every=every)


def test_classify_rejects_non_equilibrium(long_table):
    with pytest.raises(ParameterError):
        classify_stability(example1_field, long_table, equilibrium=1.0)


def test_classify_report_serializes(long_table):
    import json

    rep = classify_stability(example1_field, long_table, horizon=2.0,
                             dtau=1e-2)
    text = json.dumps(rep.to_json())
    assert "classification" in text


def _plain(value):
    """True when value holds only JSON's own Python types, exactly, and str keys."""
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_plain, value))
    return value is None or type(value) in (str, int, bool, float)


def test_reports_hand_over_plain_python(long_table, grids):
    # to_json returns its dict as built, so every report must build it from
    # Python values, also from numpy-typed arguments
    identity = build_staircase(CantorSpec(mu=0.5, depth=0, origin=0.0, extent=60.0), 1.0)
    fitted = classify_stability(example1_field, identity, equilibrium=np.zeros(1, np.float32),
                                eps_grid=np.array([0.5, 0.25, 0.1]),
                                delta_grid=np.array([0.5, 0.25, 0.1, 0.05, 0.02]),
                                horizon=np.float64(10.0), dtau=np.float64(1e-2))
    unfitted = classify_stability(example1_field, long_table, record_every=10**6)
    assert fitted.decay is not None and unfitted.decay is None
    unenveloped = check_assumptions(dataclasses.replace(theorem2_toy(), r1=None), grids)
    assert "envelopes r1/r2 missing" in unenveloped["C5"].witness["note"]
    reports = [fitted, unfitted, unenveloped,
               verify_theorem1(theorem1_toy(), long_table, dtau=np.float64(1e-2)),
               verify_theorem2(theorem2_toy(), long_table, dtau=np.float64(1e-2))]
    for rep in reports:
        assert _plain(rep.to_json()), type(rep).__name__


def _scribble(value):
    """Write into every dict and list of a payload, innermost first."""
    keys = list(value) if isinstance(value, dict) else range(len(value))
    for key in keys:
        if isinstance(value[key], (dict, list)):
            _scribble(value[key])
        value[key] = "scribbled"
    if isinstance(value, dict):
        value["scribbled"] = 1
    else:
        value.append("scribbled")


def test_a_write_to_a_payload_misses_its_report(long_table, grids):
    identity = build_staircase(CantorSpec(mu=0.5, depth=0, origin=0.0, extent=60.0), 1.0)
    reports = [classify_stability(example1_field, identity, horizon=10.0, dtau=1e-2),
               check_assumptions(theorem2_toy(), grids),
               verify_theorem1(theorem1_toy(), long_table, dtau=1e-2),
               verify_theorem2(theorem2_toy(), long_table, dtau=1e-2)]
    assert reports[0].decay is not None
    for rep in reports:
        before = json.dumps(rep.to_json())
        _scribble(rep.to_json())
        assert json.dumps(rep.to_json()) == before, type(rep).__name__


def test_cumulative_trapezoid_is_scipys_bit_for_bit(long_table, monkeypatch):
    # the in-package running trapezoid keeps scipy's float order, on the
    # weight W of theorem2_toy, on the tail grids of C4 and C5 and on one point
    from scipy.integrate import cumulative_trapezoid

    own, seen = fractalcalc.lyapunov._cumulative_trapezoid, []
    monkeypatch.setattr(fractalcalc.lyapunov, "_cumulative_trapezoid",
                        lambda y, x: seen.append((y, x)) or own(y, x))
    verify_theorem2(theorem2_toy(), long_table, dtau=1e-2)
    assert len(seen) == 4    # C4's and C5's two tail grids, then W
    for y, x in seen + [(np.array([-0.0]), np.array([3.0]))]:
        got, want = own(y, x), cumulative_trapezoid(y, x, initial=0.0)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("flow,equilibrium", [
    (example3_field(), [[0.0, 0.0]]), (example1_field, [[0.0]]),
    (example2_system(), np.zeros((2, 1))),
], ids=["row", "one-by-one", "column"])
def test_classify_needs_a_one_d_equilibrium(long_table, flow, equilibrium):
    with pytest.raises(ParameterError, match="equilibrium must be 1-d"):
        classify_stability(flow, long_table, equilibrium=equilibrium)


def test_a_system_function_that_gives_no_number_is_a_parameter_error(long_table, grids):
    # the block march's per-column path raises the bound flow's TypeError
    # inside the adapter, which names it
    sys = dataclasses.replace(example3_system(), h=lambda y: None)
    with pytest.raises(ParameterError, match="TypeError"):
        classify_stability(sys, long_table, horizon=1.0, dtau=1e-2)
    # the sweep reads h(0) through the adapter before any march
    toy = dataclasses.replace(theorem1_toy(), h=lambda y: None)
    with pytest.raises(ParameterError, match="NoneType"):
        verify_theorem1(toy, long_table, dtau=1e-2)
    toy = dataclasses.replace(theorem1_toy(),
                              h=lambda y: np.atleast_1d(np.asarray(y, dtype=float)))
    with pytest.raises(ParameterError, match="ndarray"):
        check_assumptions(toy, grids)


def test_a_flows_rows_that_do_not_stack_are_a_parameter_error():
    # numpy cannot stack the rows, so the error names the first one's parts
    with pytest.raises(ParameterError, match=re.escape("component(s) of type(s) (float, list)")):
        lyapunov_derivative(example3_lyapunov(), lambda tau, y, z: (1.0, [2.0, 3.0]), (1.0, 2.0))


# ---------------------------------------------------------------------------
# structural conditions
# ---------------------------------------------------------------------------

def test_toy_systems_satisfy_all_conditions(grids):
    for sys in (theorem1_toy(), theorem2_toy()):
        rep = check_assumptions(sys, grids)
        assert rep.all_pass()
        for check in rep:
            assert check.worst_margin >= -grids.slack


def test_cubic_damping_breaks_the_window(grids):
    # f = y^2 + 1 leaves the (C6) window once y^2 exceeds eps1^alpha
    rep = check_assumptions(example2_system(), grids)
    assert rep.failing() == ["C6"]
    assert rep["C6"].worst_margin < -1.0
    assert rep["C1"].passed and rep["C2"].passed


def test_weak_restoring_fails_sign_and_slope(grids):
    sys = linear_damped_system()
    weak = FdeSystem(u=sys.u, v=sys.v, f=sys.f, h=lambda y: 0.5 * y,
                     constants=sys.constants,
                     h_integral=lambda y: 0.25 * y * y,
                     h_derivative=lambda y: 0.5,
                     v_derivative=lambda tau: 0.0)
    rep = check_assumptions(weak, grids)
    assert "C3" in rep.failing()        # slope 0.5 sits below lambda2 = 1
    assert "C7" in rep.failing()        # and the gap 0.5 exceeds eps2^alpha


def test_drifting_coefficient_fails_integrability(grids):
    sys = linear_damped_system()
    drifting = FdeSystem(u=sys.u, v=lambda tau: 1.0 + 0.5 * tau, f=sys.f,
                         h=sys.h, constants=sys.constants,
                         h_integral=sys.h_integral,
                         h_derivative=sys.h_derivative,
                         v_derivative=lambda tau: 0.5 + 0.0 * tau)
    rep = check_assumptions(drifting, grids)
    failing = rep.failing()
    assert "C4" in failing
    assert "C1" in failing              # v also leaves [v0^alpha, Q^alpha]


def test_coefficient_slope_never_evaluates_v_before_the_clock(grids, long_table):
    # without v_derivative, v' is a difference that is one-sided at tau = 0,
    # so a v defined for tau >= 0 only passes C4 and the verifier runs
    seen = []

    def v(tau):
        seen.append(float(np.min(tau)))
        return 1.0 + 0.0 * np.sqrt(tau)

    sys = dataclasses.replace(linear_damped_system(), v=v, v_derivative=None)
    assert check_assumptions(sys, grids)["C4"].passed
    assert verify_theorem1(sys, long_table, t_end=2.0).passed
    assert min(seen) == 0.0


def _f_hole(y, z):
    return np.where(np.asarray(y) > 1.0, np.nan, 1.0 + 0.0 * z)


def _q_hole(tau, y, z):
    return np.where(np.asarray(z) > 2.0, np.nan, np.exp(-tau) + 0.0 * y)


# (condition, system, hole, witness at the first NaN of the evidence); the
# y x z mesh runs y-major, the C5 cube tau-major, over every 8th point
@pytest.mark.parametrize("name,make,hole,witness", [
    ("C1", linear_damped_system,
     {"u": lambda tau: np.where(np.asarray(tau) > 10.0, np.nan, 1.0)}, {}),
    ("C2", linear_damped_system, {"f": _f_hole}, {"worst_at_yz": [1.05, -5.0]}),
    ("C3", linear_damped_system,
     {"h": lambda y: np.where(np.asarray(y) < 0.0, np.nan, y)}, {}),
    # inside the tail grid only, past none of C4's probes of v' near the end
    ("C4", linear_damped_system, {"v_derivative": lambda tau: np.where(
        (np.asarray(tau) > 20.0) & (np.asarray(tau) < 25.0), np.nan, 0.0)}, {}),
    ("C5", theorem2_toy, {"q": _q_hole}, {"worst_at_tau_y_z": [0.0, -5.0, 2.2]}),
    ("C6", linear_damped_system, {"f": _f_hole},
     {"lower_at_yz": [1.05, -5.0], "upper_at_yz": [1.05, -5.0]}),
    ("C7", linear_damped_system,
     {"h_derivative": lambda y: np.where(np.asarray(y) < -1.0, np.nan, 1.0)}, {}),
], ids=["u-nan-after-10", "f-nan-above-1", "h-nan-below-0", "v-slope-nan-in-the-tail",
        "q-nan-above-2", "f-nan-above-1-window", "h-slope-nan-below-minus-1"])
def test_nan_evidence_fails_its_condition(grids, name, make, hole, witness):
    # Python's min() skipped such NaNs and passed C1 and C3 with margin 0.0;
    # a witness sits at the first NaN, as np.argmin picks it
    rep = check_assumptions(dataclasses.replace(make(), **hole), grids)
    assert not rep[name].passed
    assert math.isnan(rep[name].worst_margin)
    for key, where in witness.items():
        assert rep[name].witness[key] == pytest.approx(where, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("names", [["C8"], ("C1", "C9"), "C1", 5, [["C1"]]],
                         ids=["unknown", "one-unknown", "bare-string", "int", "nested"])
def test_failing_and_all_pass_name_the_known_conditions(grids, names):
    # a bare string was read one character at a time, an unknown name ended
    # in a raw KeyError, and an int or a nested list in a raw TypeError
    rep = check_assumptions(theorem1_toy(), grids)
    for query in (rep.failing, rep.all_pass):
        with pytest.raises(ParameterError, match="C1, C2, C3, C4, C5, C6, C7"):
            query(names)


def test_forced_system_without_envelopes_fails(grids):
    sys = theorem2_toy()
    stripped = FdeSystem(u=sys.u, v=sys.v, f=sys.f, h=sys.h, q=sys.q,
                         constants=sys.constants,
                         h_integral=sys.h_integral,
                         h_derivative=sys.h_derivative,
                         v_derivative=sys.v_derivative)
    rep = check_assumptions(stripped, grids)
    assert "C5" in rep.failing()
    assert rep["C5"].worst_margin == -math.inf


def test_report_serializes(grids):
    import json

    rep = check_assumptions(theorem1_toy(), grids)
    payload = rep.to_json()
    names = [c["condition"] for c in payload["conditions"]]
    assert names == ["C1", "C2", "C3", "C4", "C5", "C6", "C7"]
    json.dumps(payload)


def test_grids_reject_bad_alpha():
    with pytest.raises(ParameterError):
        AssumptionGrids(alpha=0.0)
    with pytest.raises(ParameterError):
        AssumptionGrids(alpha=1.5)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_stability_certificate_values():
    L = stability_certificate(theorem1_toy())
    # H(y) = y^2/2 and v = 1: L = y^2/2 + z^2/2
    assert L(0.0, 1.0, 1.0) == pytest.approx(1.0)
    assert L(3.0, 0.0, 0.0) == 0.0


def test_boundedness_certificate_offset():
    L = boundedness_certificate(theorem2_toy(), k=1.0 / 32.0)
    assert L(0.0, 0.0, 0.0) == pytest.approx(1.0 / 32.0)
    with pytest.raises(ParameterError):
        boundedness_certificate(theorem2_toy(), k=0.0)


# ---------------------------------------------------------------------------
# theorem verifiers
# ---------------------------------------------------------------------------

def test_theorem1_toy_passes(long_table):
    rep = verify_theorem1(theorem1_toy(), long_table)
    assert rep.passed
    assert rep.max_drift <= 1e-10
    assert rep.bound_margin >= 0.0
    assert rep.lambda_bar == pytest.approx(0.5)
    assert rep.zero_ok
    assert rep.assumptions.all_pass(("C1", "C2", "C3", "C4"))


def test_theorem1_allows_wide_damping(long_table):
    # the decrease argument only needs (C1)-(C4), so the cubic damping
    # system that breaks the (C6) window still verifies
    rep = verify_theorem1(example2_system(), long_table)
    assert rep.passed


def test_theorem1_rejects_forced_systems(long_table):
    with pytest.raises(ParameterError):
        verify_theorem1(theorem2_toy(), long_table)


def test_theorem1_precondition_failure(long_table):
    sys = linear_damped_system()
    weak = FdeSystem(u=sys.u, v=sys.v, f=sys.f, h=lambda y: 0.5 * y,
                     constants=sys.constants,
                     h_integral=lambda y: 0.25 * y * y,
                     h_derivative=lambda y: 0.5,
                     v_derivative=lambda tau: 0.0)
    with pytest.raises(PreconditionError) as exc:
        verify_theorem1(weak, long_table)
    assert "C3" in exc.value.failing


# fans and horizons that both verifiers reject in their shared set-up,
# before any march: a raw numpy error, or a verdict on one recorded state,
# is not a documented result
_BAD_FANS = [
    {"initial_states": []},
    {"initial_states": [(1.0, 0.0, 0.0)]},
    {"initial_states": [(1.0, 0.0), (1.0,)]},
    {"initial_states": [(math.nan, 0.0)]},
    {"initial_states": [1.0, 0.0]},
    {"t_end": 0.0},
]
_BAD_FAN_IDS = ["empty", "three-components", "ragged", "nan-state",
                "flat-pair", "t-end-zero"]


@pytest.mark.parametrize("kwargs", _BAD_FANS + [
    {"grid_points": 0}, {"grid_points": 1}, {"grid_halfwidth": math.nan},
    {"grid_halfwidth": 0.0}, {"drift_tol": math.nan},
    {"record_every": 2.5}, {"record_every": True},
], ids=_BAD_FAN_IDS + ["grid-points-0", "grid-points-1", "halfwidth-nan",
                       "halfwidth-zero", "drift-tol-nan",
                       "record-every-fractional", "record-every-bool"])
def test_theorem1_rejects_bad_inputs(long_table, kwargs):
    with pytest.raises(ParameterError):
        verify_theorem1(theorem1_toy(), long_table, **kwargs)


def test_theorem1_report_serializes(long_table):
    import json

    rep = verify_theorem1(theorem1_toy(), long_table, dtau=1e-2)
    payload = rep.to_json()
    assert payload["passed"] is True
    json.dumps(payload)


def test_theorem2_toy_passes(long_table):
    rep = verify_theorem2(theorem2_toy(), long_table)
    assert rep.passed
    assert rep.lemma1_margin >= 0.0
    assert rep.lemma1_random_margin >= 0.0
    assert rep.lemma2_margin >= 0.0
    assert rep.lemma2_random_margin >= 0.0
    assert rep.weighted_margin >= 0.0
    assert rep.bounded
    assert rep.converged
    assert rep.terminal_y <= 1e-2 and rep.terminal_z <= 1e-2


def test_theorem2_unforced_runs_with_zero_envelopes(long_table):
    rep = verify_theorem2(theorem1_toy(), long_table)
    assert rep.passed
    assert not rep.meta["forced"]


def test_theorem2_rejects_small_offset(long_table):
    with pytest.raises(ParameterError):
        verify_theorem2(theorem2_toy(), long_table, k=0.01)


def test_theorem2_precondition_failure(long_table):
    with pytest.raises(PreconditionError) as exc:
        verify_theorem2(example2_system(), long_table)
    assert "C6" in exc.value.failing


@pytest.mark.parametrize("kwargs", _BAD_FANS + [
    {"n_random": 0}, {"n_random": -1}, {"conv_tau": math.nan},
    {"conv_tau": -1.0}, {"conv_threshold": math.nan}, {"k": math.inf},
    {"seed": -1},
], ids=_BAD_FAN_IDS + ["n-random-0", "n-random-negative", "conv-tau-nan",
                       "conv-tau-negative", "conv-threshold-nan", "k-inf",
                       "seed-negative"])
def test_theorem2_rejects_bad_inputs(long_table, kwargs):
    with pytest.raises(ParameterError):
        verify_theorem2(theorem2_toy(), long_table, **kwargs)


def test_theorem2_constants(long_table):
    rep = verify_theorem2(theorem2_toy(), long_table, dtau=1e-2)
    c = rep.constants
    assert c["E1"] == 0.5
    assert c["E2"] == 1.0
    assert c["E3"] == pytest.approx(0.375)
    assert c["E4"] == 2.0
    assert c["E5_alpha"] <= c["E3_alpha"]
    assert c["weight_integral_end"] > 0.0


def test_theorem2_report_serializes(long_table):
    import json

    rep = verify_theorem2(theorem2_toy(), long_table, dtau=1e-2)
    json.dumps(rep.to_json())


def test_theorem2_samples_each_coefficient_once_per_clock(long_table):
    # r1, r2 and v' are called by C5 (or C4), the tail integral, the fan and
    # the random probes, each on its clocks alone: the fan's 2,039 record
    # clocks, not the 2,039 x 16 points of its states
    sizes = {"r1": [], "r2": [], "v_derivative": []}

    def counted(name, fn):
        def wrapped(tau):
            sizes[name].append(np.size(tau))
            return fn(tau)
        return wrapped

    toy = theorem2_toy()
    sys = dataclasses.replace(toy, **{name: counted(name, getattr(toy, name)) for name in sizes})
    rep = verify_theorem2(sys, long_table)
    assert rep.passed and rep.meta["recorded_steps"] == 2039
    assert {name: len(calls) for name, calls in sizes.items()} == dict.fromkeys(sizes, 4)
    assert max(max(calls) for calls in sizes.values()) == 2039


@pytest.mark.parametrize("verify,make", [(verify_theorem1, theorem1_toy),
                                         (verify_theorem2, theorem2_toy)])
def test_verifier_reports_do_not_depend_on_depth(verify, make):
    # at the matching order the span's end maps to one clock value at every
    # depth, and the fan marches in that clock, so the reports agree bytewise
    texts = set()
    for depth in (6, 9, 12, 16):
        table = build_staircase(CantorSpec(mu=0.2, depth=depth, origin=0.0, extent=60.0), ALPHA)
        texts.add(json.dumps(verify(make(), table, dtau=1e-2).to_json()))
    assert len(texts) == 1
    assert json.loads(texts.pop())["meta"]["tau_end"] == 20.378252746370187


# ---------------------------------------------------------------------------
# re-import
# ---------------------------------------------------------------------------

_REIMPORT = """
import gc, sys, weakref
import fractalcalc
first = [weakref.ref(fractalcalc.lyapunov.DecayFit),
         weakref.ref(fractalcalc.lyapunov.AssumptionGrids),
         weakref.ref(fractalcalc.CantorSpec)]
for name in [n for n in sys.modules if n.split(".")[0] == "fractalcalc"]:
    del sys.modules[name]
del fractalcalc
import fractalcalc
gc.collect()
print(sum(ref() is not None for ref in first))
"""


def test_reimport_frees_the_previous_classes():
    # a fresh import must leave nothing (a typing cache, say) pinning the
    # previous generation's classes and module dicts; a child process keeps
    # this suite's own modules untouched
    src = os.path.dirname(os.path.dirname(fractalcalc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _REIMPORT], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
