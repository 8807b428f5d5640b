"""Stability analysis in the staircase clock.

Three layers live here.  LyapunovFunction and lyapunov_derivative evaluate
candidate functions and their derivative along a flow.  classify_stability
probes an equilibrium empirically with balls whose radii scale as
radius**alpha, matching how the staircase clock rescales neighborhoods, and
sorts the outcome into a small label set.  check_assumptions and the two
verify_* routines test the structural conditions (C1)-(C7) of the damped
second order family on grids and then certify, along computed trajectories,
the decrease and sandwich inequalities the stability and boundedness
statements rest on.

Everything returns plain report dataclasses with a ``to_json`` method; no
routine prints or plots.
"""

from __future__ import annotations

import copy
import inspect
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .cantor import _max_samples, _query, _Value
from .errors import ParameterError, PreconditionError, _count, _grid, _kind, _real, _reals
from .fde import (FdeConstants, FdeSystem, _apply, _call, _central_diff, _first_order,
                  _flow, _integrate, _second_order)
from .staircase import StaircaseTable, _tau_horizon, warp_time


# ---------------------------------------------------------------------------
# Lyapunov functions and their derivative along a flow
# ---------------------------------------------------------------------------

@dataclass
class LyapunovFunction:
    """Candidate function V(tau, *state) with optional analytic gradients.

    ``grad_state`` is a tuple of callables, one per state component, and
    ``grad_tau`` the clock derivative.  All are called through fde._apply,
    so one written for scalars runs once per element.  Missing gradients
    fall back to fde._central_diff, one-sided at tau = 0.  The differences
    inject noise around 1e-10, so prefer analytic forms where a drift check
    is tight.  A field of the wrong kind (a value that is not callable, a
    grad_state that is not a tuple or list of callables) is a
    ParameterError at the assignment, by the constructor,
    ``dataclasses.replace`` or a later ``L.value = ...``, and the field
    keeps its old value.  A grad_state list is stored as a tuple.
    """

    value: Callable
    grad_state: Optional[tuple] = None
    grad_tau: Optional[Callable] = None

    def __setattr__(self, name, value):
        if name != "grad_state":
            _kind(name, value, callable, optional=name == "grad_tau")
        elif _kind(name, value, tuple, list, optional=True) is not None:
            # a tuple, so no change in place gets past this check
            value = tuple(_kind(f"grad_state[{i}]", g, callable) for i, g in enumerate(value))
        object.__setattr__(self, name, value)

    def __call__(self, tau, *state):
        return _apply(self.value, tau, *state)

    def state_gradient(self, tau, state):
        if self.grad_state is not None:
            if len(self.grad_state) != len(state):
                raise ParameterError(f"{len(self.grad_state)} state gradient(s) for "
                                     f"{len(state)} state component(s)")
            return tuple(_apply(g, tau, *state) for g in self.grad_state)
        tau, *state = np.broadcast_arrays(tau, *state)

        def along(i):
            return lambda x: _apply(self.value, tau, *state[:i], x, *state[i + 1:])
        return tuple(_central_diff(along(i), x) for i, x in enumerate(state))

    def time_gradient(self, tau, state):
        if self.grad_tau is not None:
            return _apply(self.grad_tau, tau, *state)
        tau, *state = np.broadcast_arrays(tau, *state)
        return _central_diff(lambda t: _apply(self.value, t, *state), tau,
                             clock=True)


def as_tau_field(flow):
    """Normalize a flow description to (rhs, dim).

    Accepts an FdeSystem, a scalar map g(y) for first order problems, or a
    planar field field(tau, y, z) returning (Dy, Dz).  The rhs takes the
    components positionally, the contract of fde._integrate: an FdeSystem's
    functions bound by fde._second_order, the field itself, or g wrapped as
    (tau, y) -> (g(y),).
    """
    if isinstance(_kind("flow", flow, FdeSystem, callable), FdeSystem):
        return _second_order(flow), 2
    try:
        n_params = len(inspect.signature(flow).parameters)
    except (TypeError, ValueError):
        raise ParameterError(
            "cannot inspect the flow's signature; wrap it in a function of "
            "1 argument (y) or 3 (tau, y, z)") from None
    if n_params == 1:
        return _first_order(flow), 1
    if n_params == 3:
        return flow, 2
    raise ParameterError(
        f"flow must take 1 argument (y) or 3 (tau, y, z), got {n_params}")


def lyapunov_derivative(L: LyapunovFunction, flow, state, tau=0.0):
    """Derivative of L along the flow at one state, in the staircase clock.

    Computes grad_tau + sum_i dV/dx_i * field_i and vectorizes over
    array-valued state components and tau.  The flow goes through fde's
    adapter, so a flow written for scalars runs once per element, and one
    that returns the wrong number of components is a ParameterError, as is
    a NaN in the state; a NaN tau is a DomainError.
    """
    _kind("L", L, LyapunovFunction)
    rhs, dim = as_tau_field(flow)
    tau = _query("tau", tau, lambda x: x)
    if isinstance(state, tuple):
        comps = tuple(_reals("state", x, "[-inf, inf]") for x in state)
    else:
        arr = _reals("state", state, "[-inf, inf]")
        if dim == 1:
            # any scalar or array is the one component, vectorized
            comps = (arr,)
        elif arr.ndim == 1 and arr.size == dim:
            comps = tuple(arr)
        else:
            raise ParameterError(
                f"pass a tuple of {dim} components (arrays allowed)")
    if len(comps) != dim:
        raise ParameterError(f"state has {len(comps)} component(s), flow expects {dim}")
    derivs = _call(rhs, dim, (tau, *comps))
    grads = L.state_gradient(tau, comps)
    total = L.time_gradient(tau, comps)
    for g, d in zip(grads, derivs):
        total = total + g * d
    return float(total) if np.ndim(total) == 0 else total


# ---------------------------------------------------------------------------
# batch integration shared by the empirical probes
# ---------------------------------------------------------------------------

def _batch_integrate(rhs, dim, Y0, tau_end, dtau, record_every):
    """March the columns of the (dim, B) block Y0 with RK4.

    _integrate freezes a block's escapes instead of raising: a column that
    leaves the blow-up ball is clipped to it and held at that value from
    then on, while the others go on.  fde._flow decides once, from one
    call on the rows of Y0, whether the flow is marched on the block's
    rows, one array of shape (B,) per component, or once per column on
    np.float64 scalars.

    Returns (taus, blocks, escaped): blocks of shape (dim, n_records, B), and
    escaped marks the columns that left the blow-up ball or went non-finite.
    """
    Y = np.array(Y0, dtype=float)
    return _integrate(_flow(rhs, dim, 0.0, *Y), tau_end, Y, dtau, "rk4", record_every)


# ---------------------------------------------------------------------------
# empirical stability classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """Least squares decay fits of the leading deviation curve."""

    rate_tau: float
    r2_tau: float
    rate_t: float
    r2_t: float
    kappa_alpha: float
    bound_holds: bool


@dataclass
class StabilityReport:
    """Outcome of the ball-containment probe around an equilibrium."""

    classification: str
    alpha: float
    equilibrium: tuple
    eps_results: list
    delta_results: list
    decay: Optional[DecayFit]
    notes: tuple
    meta: dict

    def to_json(self):
        return copy.deepcopy({
            "classification": self.classification,
            "alpha": self.alpha,
            "equilibrium": list(self.equilibrium),
            "eps": self.eps_results,
            "delta": self.delta_results,
            "decay": None if self.decay is None else asdict(self.decay),
            "notes": list(self.notes),
            "meta": self.meta,
        })


def _fit_line(x, y):
    """Least squares line y ~ slope*x + intercept with its R^2."""
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def classify_stability(flow, table: StaircaseTable, equilibrium=None,
                       eps_grid=(0.5, 0.25, 0.1),
                       delta_grid=(0.5, 0.25, 0.1, 0.05, 0.02),
                       horizon: float = 20.0, dtau: float = 1e-3,
                       settle_rtol: float = 1e-3, fit_min_r2: float = 0.99,
                       bound_slack: float = 1e-3,
                       record_every: int = 20) -> StabilityReport:
    """Probe an equilibrium, by default the origin, with alpha-scaled balls.

    For every tolerance eps the probe asks whether some delta from the grid
    keeps all trajectories launched on the sphere of radius delta**alpha
    inside the ball of radius eps**alpha over the horizon; the radii scale
    as radius**alpha because that is how the staircase clock rescales
    neighborhoods of the set.  Labels:

    - every eps satisfied and terminal deviations below settle_rtol of the
      initial ones: "asymptotically-stable", upgraded to
      "exponentially-stable" when the deviation admits a decay fit against
      plain time t, dev <= kappa_alpha * dev0 * exp(-rate * alpha * t), with
      R^2 >= fit_min_r2 over the latter half of the horizon that also holds
      pointwise from t = 0 up to the slack bound_slack.  The pointwise
      requirement matters: a slowly flattening decay can fit the tail well
      yet exceed any such bound near t = 0.  A NaN fit fails.  A line
      through fewer than 3 points has R^2 = 1 by construction, so when the
      latter half, in tau or in t, holds fewer than 3 recorded points no fit
      is made: ``decay`` is None and a note says why.
    - every eps satisfied without settling: "lyapunov-stable".
    - no eps satisfied, or an escape to the blow-up ball: "unstable-evidence".
    - anything else: "inconclusive".
    """
    rhs, dim = as_tau_field(flow)
    eq = np.zeros(dim) if equilibrium is None else np.atleast_1d(
        _reals("equilibrium", equilibrium, "(-inf, inf)"))
    if eq.shape != (dim,):
        raise ParameterError(f"equilibrium must be 1-d with {dim} component(s), "
                             f"got shape {np.shape(equilibrium)}")
    resid = float(np.max(np.abs(_call(rhs, dim, (0.0, *eq)))))
    if not resid < 1e-9:
        raise ParameterError(
            f"not an equilibrium: field magnitude {resid:.3g} at the given state")
    eps_list = sorted(_grid("eps_grid", eps_grid, "(0, inf)").tolist())
    delta_list = sorted(_grid("delta_grid", delta_grid, "(0, inf)").tolist())[::-1]
    horizon = _real("horizon", horizon, "(0, inf]")
    settle_rtol = _real("settle_rtol", settle_rtol, "[0, inf)")
    fit_min_r2 = _real("fit_min_r2", fit_min_r2, "[0, 1]")
    bound_slack = _real("bound_slack", bound_slack, "[0, inf)")

    alpha = _kind("table", table, StaircaseTable).alpha
    tau_end = min(horizon, table.s_range[1])
    notes = ["deviation balls scale as radius**alpha with alpha from the table"]
    if tau_end < horizon:
        notes.append(
            f"horizon truncated to tau={tau_end:.6g}, the staircase range end")

    # +e1, -e1, +e2, -e2
    dirs = np.repeat(np.eye(dim), 2, axis=0)
    dirs[1::2] *= -1.0
    n_dirs = dirs.shape[0]
    Y0 = np.array([eq + (d ** alpha) * u for d in delta_list for u in dirs]).T
    taus, blocks, escaped = _batch_integrate(rhs, dim, Y0, tau_end, dtau, record_every)
    devs = np.linalg.norm(blocks - eq.reshape(dim, 1, 1), axis=0)

    # the probe columns grouped by delta, (n_records, n_delta, n_dirs)
    grouped = devs.reshape(devs.shape[0], len(delta_list), n_dirs)
    sup_by_delta = np.max(grouped, axis=(0, 2)).tolist()
    terminal = np.max(grouped[-1], axis=1).tolist()
    gone = np.any(escaped.reshape(grouped.shape[1:]), axis=1).tolist()
    delta_results = [{"delta": d, "delta_alpha": d ** alpha, "sup_dev": sup,
                      "terminal_dev": term, "escaped": esc,
                      "settled": term <= settle_rtol * d ** alpha}
                     for d, sup, term, esc in zip(delta_list, sup_by_delta, terminal, gone)]

    eps_results = []
    for e in eps_list:
        e_alpha = e ** alpha
        good = [d for d, sup in zip(delta_list, sup_by_delta) if sup < e_alpha]
        eps_results.append({"eps": e, "eps_alpha": e_alpha,
                            "satisfied": bool(good),
                            "delta": max(good) if good else None})
    n_good = sum(r["satisfied"] for r in eps_results)
    stable = n_good == len(eps_results)
    asymptotic = stable and all(r["settled"] for r in delta_results)

    decay = None
    if asymptotic:
        t = warp_time(table, taus)
        half_tau = taus >= 0.5 * taus[-1]
        half_t = t >= 0.5 * t[-1]
        if min(np.count_nonzero(half_tau), np.count_nonzero(half_t)) < 3:
            notes.append("no decay fit: fewer than 3 recorded points in the "
                         "latter half of the horizon")
        else:
            logs = np.log(np.maximum(devs, 1e-300))
            slope_tau, _, r2_tau = _fit_line(taus[half_tau], logs[half_tau, 0])
            # one fit per probe column; column 0 is the reported one
            fits = [_fit_line(t[half_t], logs[half_t, b]) for b in range(devs.shape[1])]
            slope_t, intercept_t, r2_t = fits[0]
            bound_holds = all(
                m < 0.0 and r2 >= fit_min_r2
                and not np.any(dev > np.exp(c + m * t) * (1.0 + bound_slack))
                for dev, (m, c, r2) in zip(devs.T, fits))
            dev0 = float(devs[0, 0])
            decay = DecayFit(
                rate_tau=-slope_tau, r2_tau=r2_tau,
                rate_t=-slope_t / alpha, r2_t=r2_t,
                kappa_alpha=float(np.exp(intercept_t)) / dev0 if dev0 > 0 else math.inf,
                bound_holds=bound_holds)

    if not stable:
        if n_good == 0 or bool(np.any(escaped)):
            classification = "unstable-evidence"
        else:
            classification = "inconclusive"
        if bool(np.any(escaped)):
            notes.append("some trajectories left the blow-up ball")
    elif not asymptotic:
        classification = "lyapunov-stable"
    elif decay is not None and decay.bound_holds:
        classification = "exponentially-stable"
    else:
        classification = "asymptotically-stable"

    meta = {"horizon": horizon, "tau_end": tau_end, "dtau": float(dtau),
            "record_every": int(record_every), "settle_rtol": settle_rtol,
            "fit_min_r2": fit_min_r2, "bound_slack": bound_slack,
            "directions": int(n_dirs), "equilibrium_residual": resid}
    return StabilityReport(
        classification=classification, alpha=alpha,
        equilibrium=tuple(eq.tolist()), eps_results=eps_results,
        delta_results=delta_results, decay=decay, notes=tuple(notes), meta=meta)


# ---------------------------------------------------------------------------
# structural assumption checks (C1)-(C7)
# ---------------------------------------------------------------------------

def _default_state():
    return np.linspace(-5.0, 5.0, 201)


@dataclass(frozen=True, eq=False)
class AssumptionGrids(_Value):
    """Grids and tolerances the condition checks sweep over.

    ``alpha`` is the staircase order the exponents refer to.  ``slack``
    absorbs finite difference noise in pass/fail decisions; worst margins
    are always reported raw.  The improper integrals are judged by their
    increment over the last of the expanding ``tail_windows``, which must
    fall below ``tail_tol``; unboundedness of the potential is judged by a
    growth factor across ``y_growth``.  A pass is therefore grid-supported
    evidence, not a proof.  Every grid must be a non-empty, finite 1-d
    array, and is stored as a read-only float copy, so a caller's later
    write misses it; ``y`` must hold a nonzero point, since C3 tests the
    sign of h off zero, ``y_growth`` two points, since C3 compares H across
    it, and ``tail_windows`` must be positive and strictly increasing.  The
    tolerances are stored as floats and ``forcing_stride`` as an int, also
    when they are given as numpy numbers.  The tail grid (0.05 apart over
    the last window), the y x z mesh and the C5 cube (tau, y and z every
    ``forcing_stride``) may each hold at most _max_samples() points.
    """

    alpha: float
    tau: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 20.0, 401))
    y: np.ndarray = field(default_factory=_default_state)
    z: np.ndarray = field(default_factory=_default_state)
    y_growth: np.ndarray = field(default_factory=lambda: np.geomspace(1.0, 1e3, 13))
    tail_windows: np.ndarray = (5.0, 10.0, 20.0, 40.0)
    tail_tol: float = 1e-3
    zero_tol: float = 1e-12
    slack: float = 1e-9
    growth_factor: float = 10.0
    forcing_stride: int = 8

    def _check(self):
        held = {name: _real(name, getattr(self, name), interval) for name, interval in (
            ("alpha", "(0, 1]"), ("tail_tol", "[0, inf)"), ("zero_tol", "[0, inf)"),
            ("slack", "[0, inf)"), ("growth_factor", "(0, inf)"))}
        held["forcing_stride"] = _count("forcing_stride", self.forcing_stride, 1)
        for name in ("tau", "y", "z", "y_growth", "tail_windows"):
            held[name] = _grid(name, getattr(self, name), "(-inf, inf)")
        w = held["tail_windows"]
        if w[0] <= 0.0 or np.any(np.diff(w) <= 0.0):
            raise ParameterError("tail_windows must be positive and strictly increasing")
        if not np.any(held["y"] != 0.0):
            raise ParameterError("y must hold a nonzero point")
        if held["y_growth"].size < 2:
            raise ParameterError("y_growth must hold at least two points")
        stride, cap = held["forcing_stride"], _max_samples()
        cube = math.prod(-(-held[n].size // stride) for n in ("tau", "y", "z"))
        for grid, size in (("tail_windows grid", _tail_points(w[-1])),
                           ("y x z mesh", held["y"].size * held["z"].size),
                           ("tau x y x z forcing cube", cube)):
            if size > cap:
                raise ParameterError(f"the {grid} takes {size} points, more than the cap of {cap}")
        return held


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    worst_margin: float
    witness: dict


@dataclass
class AssumptionReport:
    """Results of the structural condition sweep, keyed C1 through C7."""

    conditions: "dict[str, ConditionCheck]"
    alpha: float

    def __getitem__(self, name) -> ConditionCheck:
        return self.conditions[name]

    def __iter__(self):
        return iter(self.conditions.values())

    def all_pass(self, names=None) -> bool:
        return not self.failing(names)

    def failing(self, names=None):
        known = list(self.conditions)
        listed = names is None or np.iterable(names) and not isinstance(names, str)
        names = list(() if names is None else names) if listed else []
        if not listed or not all(isinstance(n, str) and n in known for n in names):
            raise ParameterError(f"names must list conditions out of {', '.join(known)}")
        return [n for n in names or known if not self.conditions[n].passed]

    def to_json(self):
        return copy.deepcopy({
            "alpha": self.alpha,
            "conditions": [
                {"condition": c.name, "pass": c.passed,
                 "worst_margin": c.worst_margin, "witness": c.witness}
                for c in self.conditions.values()],
        })


def _worst(values, *coords):
    """The one margin reduction: (worst, where) over an array of margins.

    worst is the smallest entry, NaN if any entry is (Python's min() can
    skip a NaN), and where the coords, each broadcast against values, at
    the first smallest entry or the first NaN.
    """
    values = np.asarray(values, dtype=float)
    idx = int(np.argmin(values))
    return (float(values.flat[idx]),
            [float(np.broadcast_to(c, values.shape).flat[idx]) for c in coords])


def _cumulative_trapezoid(y, x):
    """scipy's cumulative_trapezoid(y, x, initial=0.0), in its float order."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _tail_points(end):
    """Points of the tail grid over [0, end]: steps of 0.05, at least 200."""
    return max(int(end / 0.05), 200) + 1


def _tail_integral(fn, windows):
    """Integrals over expanding windows and the increment of the last one."""
    grid = np.linspace(0.0, windows[-1], _tail_points(windows[-1]))
    cum = _cumulative_trapezoid(_apply(fn, grid), grid)
    totals = [float(np.interp(x, grid, cum)) for x in windows]
    increments = np.diff([0.0] + totals)
    return totals, float(increments[-1])


def check_assumptions(sys: FdeSystem, grids: AssumptionGrids) -> AssumptionReport:
    """Sweep the structural conditions (C1)-(C7) over the supplied grids.

    Margins are the worst slack of each inequality over its grid and a
    condition passes when its margin stays above -grids.slack; a NaN
    anywhere in a condition's evidence makes its margin NaN and fails it.
    Witnesses carry the individual inequality slacks and, for C2, C5 and
    C6, the first grid point that attains the worst value, or the first NaN.
    """
    a = _kind("grids", grids, AssumptionGrids).alpha
    c = _kind("sys", sys, FdeSystem).constants
    checks = {}

    def add(name, parts, ok=True, **witness):
        parts = {part: _worst(margins)[0] for part, margins in parts.items()}
        worst = _worst(list(parts.values()))[0]
        checks[name] = ConditionCheck(name, ok and worst >= -grids.slack, worst,
                                      {"parts": parts, **witness})

    tau, y, z = grids.tau, grids.y, grids.z

    # C1: coefficient bounds 1 <= u0^a <= u <= E^a and 1 <= v0^a <= v <= Q^a
    u_vals = _apply(sys.u, tau)
    v_vals = _apply(sys.v, tau)
    u0a, Ea, v0a, Qa = c.u0 ** a, c.E ** a, c.v0 ** a, c.Q ** a
    add("C1", {
        "u0_alpha_ge_1": u0a - 1.0,
        "u_ge_u0_alpha": u_vals - u0a,
        "u_le_E_alpha": Ea - u_vals,
        "v0_alpha_ge_1": v0a - 1.0,
        "v_ge_v0_alpha": v_vals - v0a,
        "v_le_Q_alpha": Qa - v_vals,
    }, u_range=[float(np.min(u_vals)), float(np.max(u_vals))],
        v_range=[float(np.min(v_vals)), float(np.max(v_vals))])

    # C2: positive constants and damping shape bounded below by eps0^a
    Ymesh, Zmesh = np.meshgrid(y, z, indexing="ij")
    f_vals = _apply(sys.f, Ymesh, Zmesh)
    const_floor, _ = _worst([c.lambda1, c.lambda2, c.eps0, c.eps1, c.eps2])
    f_margin, f_at = _worst(f_vals - c.eps0 ** a, Ymesh, Zmesh)
    add("C2", {"f_ge_eps0_alpha": f_margin, "constants_floor": const_floor},
        ok=const_floor > 0.0, worst_at_yz=f_at)

    # C3: restoring force centered and sign definite, slope >= lambda2,
    # potential unbounded in both directions
    h0 = abs(_apply(sys.h, 0.0))
    y_off = y[np.abs(y) > 0.0]
    sign_vals = _apply(sys.h, y_off) * np.sign(y_off)
    dh_vals = _apply(sys.restoring_slope, y)
    # H along both growth directions, one row each
    Hg = _apply(sys.restoring_integral, np.stack([grids.y_growth, -grids.y_growth]))
    grows = [float(H[-1] / np.maximum(H[0], 1e-300)) for H in Hg]
    add("C3", {
        "h_zero": grids.zero_tol - h0,
        "h_sign": sign_vals,
        "slope_ge_lambda2": dh_vals - c.lambda2,
        "H_increasing": np.diff(Hg),
        "H_growth": [g - grids.growth_factor for g in grows],
    }, h_at_zero=h0, H_at_growth_ends=Hg[:, -1].tolist(), growth_ratios=grows)

    # C4: positive part of v' integrable and v' settling to zero
    def zeta0_of(s):
        return np.maximum(_apply(sys.coefficient_slope, s), 0.0)

    totals, last_inc = _tail_integral(zeta0_of, grids.tail_windows)
    probe_end = np.linspace(0.8, 1.0, 9) * max(grids.tail_windows)
    dv_end = float(np.max(np.abs(_apply(sys.coefficient_slope, probe_end))))
    add("C4", {"integral_tail": grids.tail_tol - last_inc,
               "slope_settles": grids.tail_tol - dv_end},
        window_integrals=totals, dv_near_end=dv_end)

    # C5: forcing under positive integrable envelopes
    #     |q| <= r1 + r2 [H + z^2]^(sigma^a / 2) + Delta^a |z|
    sigma, Delta = c.sigma, c.delta_value()
    const_parts = {"sigma_in_unit": [sigma, 1.0 - sigma], "Delta_in_unit": [Delta, 1.0 - Delta]}
    if sys.q is None:
        add("C5", const_parts, note="no forcing term; the envelope holds trivially")
    elif sys.r1 is None or sys.r2 is None:
        add("C5", const_parts, ok=False, note="forcing present but envelopes r1/r2 missing")
        checks["C5"] = replace(checks["C5"], worst_margin=-math.inf)
    else:
        r1_vals = _apply(sys.r1, tau)
        r2_vals = _apply(sys.r2, tau)
        _, inc1 = _tail_integral(sys.r1, grids.tail_windows)
        _, inc2 = _tail_integral(sys.r2, grids.tail_windows)
        stride = grids.forcing_stride
        y_sub = y[::stride]
        z_sub = z[::stride]
        H_sub = _apply(sys.restoring_integral, y_sub)
        T3 = tau[::stride, None, None]
        Y3 = y_sub[None, :, None]
        Z3 = z_sub[None, None, :]
        q_abs = np.abs(_apply(sys.q, T3, Y3, Z3))
        base = np.maximum(H_sub[None, :, None] + Z3 ** 2, 0.0)
        envelope = (r1_vals[::stride, None, None] + r2_vals[::stride, None, None]
                    * base ** (sigma ** a / 2.0) + Delta ** a * np.abs(Z3))
        env_margin, env_at = _worst(envelope - q_abs, T3, Y3, Z3)
        add("C5", {**const_parts,
                   "envelopes_positive": [r1_vals, r2_vals],
                   "envelope_bound": env_margin,
                   "integral_tails": [grids.tail_tol - inc1, grids.tail_tol - inc2]},
            worst_at_tau_y_z=env_at)

    # C6: damping shape window eps0^a <= f - lambda1 <= eps1^a
    shifted = f_vals - c.lambda1
    lower, lower_at = _worst(shifted - c.eps0 ** a, Ymesh, Zmesh)
    upper, upper_at = _worst(c.eps1 ** a - shifted, Ymesh, Zmesh)
    add("C6", {"lower": lower, "upper": upper}, lower_at_yz=lower_at, upper_at_yz=upper_at)

    # C7: restoring slope window 0 <= lambda2 - h' <= eps2^a
    gap = c.lambda2 - dh_vals
    add("C7", {"gap_nonnegative": gap, "gap_le_eps2_alpha": c.eps2 ** a - gap},
        slope_range=[float(np.min(dh_vals)), float(np.max(dh_vals))])

    return AssumptionReport(conditions=checks, alpha=a)


# ---------------------------------------------------------------------------
# certificate functions and the theorem verifiers
# ---------------------------------------------------------------------------

def stability_certificate(sys: FdeSystem) -> LyapunovFunction:
    """Energy certificate H(y) + z^2 / (2 v(tau)) for the unforced family."""
    _kind("sys", sys, FdeSystem)
    return LyapunovFunction(
        value=lambda tau, y, z: sys.restoring_integral(y) + z * z / (2.0 * sys.v(tau)),
        grad_state=(lambda tau, y, z: sys.h(y), lambda tau, y, z: z / sys.v(tau)),
        grad_tau=lambda tau, y, z: -sys.coefficient_slope(tau) * z * z
        / (2.0 * sys.v(tau) ** 2))


def boundedness_certificate(sys: FdeSystem, k: float = 1.0 / 32.0) -> LyapunovFunction:
    """Shifted certificate v(tau) H(y) + z^2 / 2 + k for the forced family."""
    sys, k = _kind("sys", sys, FdeSystem), _real("k", k, "(0, inf)")
    return LyapunovFunction(
        value=lambda tau, y, z: sys.v(tau) * sys.restoring_integral(y) + 0.5 * z * z + k,
        grad_state=(lambda tau, y, z: sys.v(tau) * sys.h(y), lambda tau, y, z: z),
        grad_tau=lambda tau, y, z: sys.coefficient_slope(tau) * sys.restoring_integral(y))


def _march_fan(sys, table, conditions, grids, initial_states, t_end, dtau,
               record_every):
    """Check the inputs and the named conditions, then march the fan.

    The fan defaults to eight compass states at radii 1 and 2, t_end to the
    end of the span, and the grids to the table's alpha; grids at another
    alpha are a ParameterError.  Returns (report, t_end, tau_end, taus,
    blocks, escaped) with blocks of shape (2, n_records, n_states).
    """
    end = _kind("table", table, StaircaseTable).span[1] if t_end is None else t_end
    t_end, tau_end = _tau_horizon(table, end)
    if tau_end <= 0.0:
        raise ParameterError("t_end must advance the staircase past the anchor")
    if initial_states is None:
        initial_states = [(r * math.cos(th), r * math.sin(th)) for r in (1.0, 2.0)
                          for th in 2.0 * math.pi * np.arange(8) / 8]
    Y0 = _reals("initial_states", initial_states, "(-inf, inf)")
    if not (Y0.ndim == 2 and Y0.shape[1] == 2 and Y0.size > 0):
        raise ParameterError(
            "initial_states must be a non-empty list of finite (y, z) pairs")
    if _kind("grids", grids, AssumptionGrids, optional=True) is None:
        grids = AssumptionGrids(alpha=table.alpha)
    if grids.alpha != table.alpha:
        raise ParameterError(
            f"grids.alpha={grids.alpha!r} differs from the table's alpha={table.alpha!r}")
    report = check_assumptions(sys, grids)
    failing = report.failing(conditions)
    if failing:
        raise PreconditionError(
            "structural conditions fail: "
            + ", ".join(f"{n} (margin {report[n].worst_margin:.3g})"
                        for n in failing),
            failing=failing)
    return (report, t_end, tau_end,
            *_batch_integrate(_second_order(sys), 2, Y0.T, tau_end, dtau,
                              record_every))


@dataclass
class Theorem1Report:
    """Decrease and positive definiteness certificate for the unforced family."""

    assumptions: AssumptionReport
    max_drift: float
    drift_tol: float
    drift_ok: bool
    lambda_bar: float
    bound_margin: float
    bound_ok: bool
    zero_value: float
    zero_ok: bool
    passed: bool
    meta: dict

    def to_json(self):
        return copy.deepcopy({
            "passed": self.passed,
            "max_drift": self.max_drift, "drift_tol": self.drift_tol,
            "drift_ok": self.drift_ok,
            "lambda_bar": self.lambda_bar, "bound_margin": self.bound_margin,
            "bound_ok": self.bound_ok,
            "zero_value": self.zero_value, "zero_ok": self.zero_ok,
            "meta": self.meta,
            "assumptions": self.assumptions.to_json()})


def verify_theorem1(sys: FdeSystem, table: StaircaseTable,
                    initial_states=None, t_end=None, dtau: float = 1e-3,
                    drift_tol: float = 1e-10, grid_halfwidth: float = 2.0,
                    grid_points: int = 50,
                    grids: Optional[AssumptionGrids] = None,
                    record_every: int = 10) -> Theorem1Report:
    """Certify decrease of the energy certificate for an unforced system.

    Checks (C1)-(C4) on grids first and raises PreconditionError naming the
    failures otherwise.  Then integrates a fan of initial states, evaluates
    the certificate derivative

        dL2 = -v'/(2 v^2) z^2 - (u/v) f z^2

    at every recorded step against drift_tol, and bounds the certificate
    below by lambda_bar (y^2 + z^2), lambda_bar = min(lambda2, 1/(2 Q^alpha)),
    on a state grid crossed with probe times.
    """
    if _kind("sys", sys, FdeSystem).q is not None:
        raise ParameterError(
            "the decrease certificate applies to unforced systems; "
            "use the boundedness verifier for forced ones")
    # the bound check runs on a grid_points x grid_points state grid
    grid_points = _count("grid_points", grid_points, 2, math.isqrt(_max_samples()))
    grid_halfwidth = _real("grid_halfwidth", grid_halfwidth, "(0, inf)")
    drift_tol = _real("drift_tol", drift_tol, "[-inf, inf]")
    report, t_end, tau_end, taus, (Yb, Zb), escaped = _march_fan(
        sys, table, ("C1", "C2", "C3", "C4"), grids, initial_states, t_end,
        dtau, record_every)
    alpha = table.alpha
    u_v, v_v, dv_v = (_apply(fn, taus[:, None]) for fn in (sys.u, sys.v, sys.coefficient_slope))
    f_v = _apply(sys.f, Yb, Zb)
    drift = -dv_v / (2.0 * v_v ** 2) * Zb ** 2 - (u_v / v_v) * f_v * Zb ** 2
    max_drift = float(np.max(drift))
    drift_ok = max_drift <= drift_tol and not bool(np.any(escaped))

    c = sys.constants
    lambda_bar = min(c.lambda2, 1.0 / (2.0 * c.Q ** alpha))
    gp = np.linspace(-grid_halfwidth, grid_halfwidth, grid_points)
    Yg, Zg = np.meshgrid(gp, gp, indexing="ij")
    L2 = stability_certificate(sys)
    probes = (0.0, 0.5 * tau_end, tau_end)
    bound_margin, _ = _worst([L2(tp, Yg, Zg) - lambda_bar * (Yg ** 2 + Zg ** 2) for tp in probes])
    bound_ok = bound_margin >= 0.0
    zero_value = float(np.max([abs(L2(tp, 0.0, 0.0)) for tp in probes]))
    zero_ok = zero_value <= 1e-12

    passed = drift_ok and bound_ok and zero_ok
    meta = {"tau_end": tau_end, "t_end": t_end, "dtau": float(dtau),
            "n_states": Yb.shape[1], "record_every": int(record_every),
            "escaped": bool(np.any(escaped)), "alpha": alpha,
            "recorded_steps": int(taus.size),
            "grid": [float(gp[0]), float(gp[-1]), grid_points]}
    return Theorem1Report(
        assumptions=report, max_drift=max_drift, drift_tol=drift_tol,
        drift_ok=drift_ok, lambda_bar=float(lambda_bar),
        bound_margin=bound_margin, bound_ok=bound_ok, zero_value=zero_value,
        zero_ok=zero_ok, passed=passed, meta=meta)


def _theorem2_constants(c: FdeConstants, alpha: float, k: float) -> dict:
    E1 = min(c.v0, 0.5)
    E2 = max(c.Q, 1.0)
    E3 = c.E * (c.lambda1 + c.eps0) / 2.0
    E4 = 1.0 / E1
    return {
        "E1": E1, "E2": E2, "E3": E3, "E4": E4, "k": k,
        "E1_inv_alpha": E1 ** (1.0 / alpha),
        "E2_inv_alpha": E2 ** (1.0 / alpha),
        "E1_alpha": E1 ** alpha,
        "E3_alpha": E3 ** alpha,
        "E4_alpha": E4 ** alpha,
    }


def _lemmas(sys: FdeSystem, consts: dict, tau, Y, Z):
    """Lemma margins of L0 = v H + z^2 / 2 + k, and the weight's integrand.

    Returns (lemma1_lo, lemma1_hi, lemma2, zeta, L0, dL0): the two sides of
    the sandwich, the decrease bound minus dL0, the integrand E4^alpha zeta0
    + (4 / E1^alpha)(r1 + r2) of the weight W, the certificate and its flow
    derivative.  tau must broadcast against Y and Z, and each function of tau
    is evaluated once per clock value, at tau's own shape, so zeta has it
    too.  The derivative uses the closed form dL0 = v' H - u f z^2 + q z, in
    which the v h z cross terms cancel; a system without forcing has
    q = r1 = r2 = 0.
    """
    tau, Y, Z = (np.asarray(a, dtype=float) for a in (tau, Y, Z))
    dv = _apply(sys.coefficient_slope, tau)
    H = _apply(sys.restoring_integral, Y)
    if sys.q is None:
        q = r1 = r2 = 0.0
    else:
        q, r1, r2 = _apply(sys.q, tau, Y, Z), _apply(sys.r1, tau), _apply(sys.r2, tau)
    k = consts["k"]
    L0 = _apply(sys.v, tau) * H + 0.5 * Z ** 2 + k
    dL0 = dv * H - _apply(sys.u, tau) * _apply(sys.f, Y, Z) * Z ** 2 + q * Z
    base = H + Z ** 2 + k
    bound = (-consts["E3_alpha"] * Z ** 2 + (r1 + r2) * np.abs(Z) + r2 * (H + Z ** 2)
             + consts["E4_alpha"] * np.maximum(dv, 0.0) * L0)
    zeta = consts["E4_alpha"] * np.maximum(dv, 0.0) + (4.0 / consts["E1_alpha"]) * (r1 + r2)
    return (L0 - consts["E1_inv_alpha"] * base, consts["E2_inv_alpha"] * base - L0,
            bound - dL0, zeta, L0, dL0)


@dataclass
class Theorem2Report:
    """Boundedness and convergence certificate for the forced family.

    The trajectory figures are taken at every ``record_every``-th step only,
    so ``sup_norm`` may lie below the fan's sup (9.2e-6 on theorem2_toy's).
    """

    assumptions: AssumptionReport
    constants: dict
    lemma1_margin: float
    lemma1_random_margin: float
    lemma1_ok: bool
    lemma2_margin: float
    lemma2_random_margin: float
    lemma2_ok: bool
    weighted_margin: float
    weighted_ok: bool
    bounded: bool
    sup_norm: float
    terminal_y: float
    terminal_z: float
    converged: bool
    conv_threshold: float
    passed: bool
    meta: dict

    def to_json(self):
        return copy.deepcopy({
            "passed": self.passed,
            "constants": self.constants,
            "lemma1": {"trajectory_margin": self.lemma1_margin,
                       "random_margin": self.lemma1_random_margin,
                       "ok": self.lemma1_ok},
            "lemma2": {"trajectory_margin": self.lemma2_margin,
                       "random_margin": self.lemma2_random_margin,
                       "ok": self.lemma2_ok},
            "weighted_decrease": {"margin": self.weighted_margin,
                                  "ok": self.weighted_ok},
            "bounded": self.bounded, "sup_norm": self.sup_norm,
            "terminal_y": self.terminal_y, "terminal_z": self.terminal_z,
            "converged": self.converged, "conv_threshold": self.conv_threshold,
            "meta": self.meta,
            "assumptions": self.assumptions.to_json()})


def verify_theorem2(sys: FdeSystem, table: StaircaseTable, k: float = 1.0 / 32.0,
                    initial_states=None, t_end=None, dtau: float = 1e-3,
                    conv_tau: float = 20.0, conv_threshold: float = 1e-2,
                    n_random: int = 64, seed: int = 0,
                    grids: Optional[AssumptionGrids] = None,
                    record_every: int = 10) -> Theorem2Report:
    """Certify boundedness and convergence for the forced family.

    Requires all seven structural conditions on grids (PreconditionError
    otherwise) and k >= 1/32, the smallest offset for which the weighted
    decrease argument closes.  Along a fan of trajectories and at seeded
    random states it checks the sandwich

        E1^(1/alpha) [H + z^2 + k] <= L0 <= E2^(1/alpha) [H + z^2 + k],

    the decrease bound dL0 <= -E3^alpha z^2 + (r1 + r2)|z| + r2 [H + z^2] +
    E4^alpha zeta0 L0, and the weighted decrease d(e^-W L0) <= -E5^alpha z^2
    where W integrates E4^alpha zeta0 + (4 / E1^alpha)(r1 + r2) and
    E5^alpha = E3^alpha exp(-W at the horizon).  Boundedness of the fan and
    terminal smallness of |y| and |z| at conv_tau close the verdict.  A
    system without forcing runs the same checks with r1 = r2 = 0.
    """
    k = _real("k", k, "[0.03125, inf)")  # 1/32
    n_random = _count("n_random", n_random, 1, _max_samples())
    seed = _count("seed", seed, 0)
    conv_tau = _real("conv_tau", conv_tau, "[0, inf]")
    conv_threshold = _real("conv_threshold", conv_threshold, "[0, inf]")
    report, t_end, tau_end, taus, (Yb, Zb), escaped = _march_fan(
        sys, table, ("C1", "C2", "C3", "C4", "C5", "C6", "C7"), grids,
        initial_states, t_end, dtau, record_every)
    alpha = table.alpha
    bounded = not bool(np.any(escaped))
    sup_norm = float(np.max(np.hypot(Yb, Zb)))

    consts = _theorem2_constants(sys.constants, alpha, k)
    l1_lo, l1_hi, l2, zeta, L0, dL0 = _lemmas(sys, consts, taus[:, None], Yb, Zb)
    lemma1_margin, _ = _worst([l1_lo, l1_hi])
    lemma2_margin, _ = _worst(l2)

    # weight W(tau) integrates the decay factor of the damped certificate
    W = _cumulative_trapezoid(zeta[:, 0], taus)
    e5a = consts["E3_alpha"] * math.exp(-float(W[-1]))
    dLw = np.exp(-W)[:, None] * (dL0 - zeta * L0)
    weighted_margin, _ = _worst(-e5a * Zb ** 2 - dLw)

    rng = np.random.default_rng(seed)
    r_tau = rng.uniform(0.0, tau_end, n_random)
    r_y = rng.uniform(-3.0, 3.0, n_random)
    r_z = rng.uniform(-3.0, 3.0, n_random)
    r1_lo, r1_hi, r2m, *_ = _lemmas(sys, consts, r_tau, r_y, r_z)
    lemma1_random, _ = _worst([r1_lo, r1_hi])
    lemma2_random, _ = _worst(r2m)

    conv_at = min(conv_tau, tau_end)
    idx = min(int(np.searchsorted(taus, conv_at)), taus.size - 1)
    terminal_y = float(np.max(np.abs(Yb[idx:, :])))
    terminal_z = float(np.max(np.abs(Zb[idx:, :])))
    converged = terminal_y <= conv_threshold and terminal_z <= conv_threshold

    lemma1_ok = lemma1_margin >= 0.0 and lemma1_random >= 0.0
    lemma2_ok = lemma2_margin >= 0.0 and lemma2_random >= 0.0
    weighted_ok = weighted_margin >= 0.0
    passed = lemma1_ok and lemma2_ok and weighted_ok and bounded and converged

    constants = {**consts, "E5_alpha": e5a, "weight_integral_end": float(W[-1])}
    meta = {"tau_end": tau_end, "t_end": t_end, "dtau": float(dtau),
            "conv_tau": conv_at, "n_states": Yb.shape[1],
            "max_initial_norm": max(map(math.hypot, Yb[0].tolist(), Zb[0].tolist())),
            "n_random": n_random, "seed": seed,
            "record_every": int(record_every),
            "alpha": alpha, "recorded_steps": int(taus.size),
            "forced": sys.q is not None}
    return Theorem2Report(
        assumptions=report, constants=constants,
        lemma1_margin=lemma1_margin, lemma1_random_margin=lemma1_random,
        lemma1_ok=lemma1_ok, lemma2_margin=lemma2_margin,
        lemma2_random_margin=lemma2_random, lemma2_ok=lemma2_ok,
        weighted_margin=weighted_margin, weighted_ok=weighted_ok,
        bounded=bounded, sup_norm=sup_norm, terminal_y=terminal_y,
        terminal_z=terminal_z, converged=converged,
        conv_threshold=conv_threshold, passed=passed, meta=meta)
