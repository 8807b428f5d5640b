"""Initial value problems driven by a staircase clock.

Equations of the form D y = g(y) or the damped second order family

    D y = z,    D z = -u(tau) f(y, z) z - v(tau) h(y) + q(tau, y, z)

are integrated in the staircase variable tau = S(t), where D denotes the
derivative with respect to S.  In tau the systems are ordinary ODEs, so a
fixed-step classical Runge-Kutta scheme (or explicit Euler) applies; the
results are mapped back to t through ``warp_time``, the inverse staircase,
which lives with the other clock map ``_tau_horizon`` in staircase.py.
Because S is flat across gaps, a solution in t is constant there, which the
piecewise-linear interpolation of Trajectory.at_time reproduces.

``_integrate`` is the one fixed-step loop of the package.  It marches a
state of shape (dim,) or a block of shape (dim, B), one column per initial
state, as a sequence of dim components, 1 or 2: Python floats for one
state, rows of shape (B,) for a block.  Its records keep that layout, a
row per component.  The right-hand side and the steppers, one per method
and component count, take and return the components positionally, so no
step packs them into a container: rhs(tau, y) or rhs(tau, y, z) returns
dim derivatives, each a scalar or an array that broadcasts to the rows.
``_first_order`` and ``_second_order`` make the flows of the two
families; an FdeSystem checks each field when it is set, and the latter
binds its functions once per march, so no stage looks them up.  One state
marches with its components as locals and its per-step tests inline; a
step on Python floats that raises (1/0, an overflowing power) or yields
anything but floats (a complex root, a narrower numpy scalar) hands it
over, from that step's start, to the blocks' loop on np.float64, so 1/0
and a negative base to a fractional power give inf/nan (and a blow-up)
instead of raising.  The state's shape decides what leaving the blow-up
ball does: one state stops the march (the solve_* functions turn this
into a NumericalBlowupError carrying the partial trajectory), and a block
clips each escaped column to the ball and holds it there while the other
columns keep integrating (the batched probes of the lyapunov module).
``_call`` is the one adapter between a caller's function and arrays:
``_fit`` rules on what comes back, and ``_judge`` on what the function
raises, there and in every march of ``_integrate``.
"""

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .cantor import _built, _Value
from .errors import (FractalCalcError, NumericalBlowupError, ParameterError, _count, _function,
                     _real, _reals)
from .staircase import StaircaseTable, _tau_horizon, eval_staircase, warp_time

BLOWUP_LIMIT = 1e12
# work budget of one march: the largest run in the package takes about 1e5
# steps, and 1e7 recorded steps of a planar system already fill 240 MB
_MAX_STEPS = 10**7


def quad(fn, a, b, **kw):
    """scipy.integrate.quad, imported on the first call: no other path needs scipy."""
    from scipy.integrate import quad
    return quad(fn, a, b, **kw)


@dataclass(frozen=True)
class FdeConstants:
    """Structural constants used by the assumption and theorem checkers.

    u0/E bound the damping coefficient u, v0/Q bound the stiffness
    coefficient v, lambda1/eps0/eps1 locate the damping shape f, lambda2 and
    eps2 pin the restoring slope, sigma and delta weight the forcing bounds.
    ``delta`` defaults to E (lambda1 + eps0) / 2 when left unset.  Every
    field must be a finite real number; the fields are stored as floats.
    """

    u0: float = 1.0
    E: float = 1.0
    v0: float = 1.0
    Q: float = 1.0
    lambda1: float = 0.5
    lambda2: float = 1.0
    eps0: float = 0.25
    eps1: float = 0.5
    eps2: float = 0.1
    sigma: float = 1.0
    delta: Optional[float] = None

    def __post_init__(self):
        # signs and ranges are the conditions' to judge, not the constructor's
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "delta" or value is not None:
                object.__setattr__(self, f.name, _real(f.name, value, "(-inf, inf)"))

    def delta_value(self) -> float:
        if self.delta is not None:
            return self.delta
        return self.E * (self.lambda1 + self.eps0) / 2.0


@dataclass
class FdeSystem:
    """Damped second order system with optional forcing.

    ``u`` and ``v`` map tau to positive coefficients, ``f`` maps (y, z) to a
    damping shape, ``h`` is the restoring force and ``q`` an optional forcing
    term q(tau, y, z).  ``r1``/``r2`` are optional envelopes bounding the
    forcing as |q| <= r1 + r2 [H(y) + z^2]^(sigma^alpha / 2) + delta^alpha |z|
    with H the restoring potential.  The analytic hooks ``h_integral``,
    ``h_derivative`` and ``v_derivative`` replace numeric quadrature and
    finite differences when provided.  Each function field must be callable,
    and each optional one None or callable, and ``constants`` an
    FdeConstants; anything else is a ParameterError at the assignment, by
    the constructor, ``dataclasses.replace`` or a later ``s.u = ...``, and
    the field keeps its old value.
    """

    u: Callable[[float], float]
    v: Callable[[float], float]
    f: Callable[[float, float], float]
    h: Callable[[float], float]
    q: Optional[Callable[[float, float, float], float]] = None
    constants: FdeConstants = field(default_factory=FdeConstants)
    r1: Optional[Callable[[float], float]] = None
    r2: Optional[Callable[[float], float]] = None
    h_integral: Optional[Callable[[float], float]] = None
    h_derivative: Optional[Callable[[float], float]] = None
    v_derivative: Optional[Callable[[float], float]] = None

    def __setattr__(self, name, value):
        # u, v, f and h are required, the hooks and q may be None
        if name != "constants":
            _function(name, value, optional=name not in ("u", "v", "f", "h"))
        elif not isinstance(value, FdeConstants):
            raise ParameterError(f"constants must be an FdeConstants, "
                                 f"got {type(value).__name__}")
        object.__setattr__(self, name, value)

    def rhs(self, tau, y, z):
        """Right-hand side (Dy, Dz) of the first order form in tau."""
        return _second_order(self)(tau, y, z)

    def restoring_integral(self, y):
        """Potential H(y), the integral of h from 0 to y.

        Without ``h_integral`` it is scipy's ``quad`` per element; the first
        such call imports scipy.integrate, which nothing else loads.
        """
        if self.h_integral is not None:
            return self.h_integral(y)
        # quad takes scalar bounds only, so it goes straight to the per-element path
        out, = _call(lambda v: quad(self.h, 0.0, v, limit=200)[0], None, (y,), arrays=False)
        return float(out) if out.ndim == 0 else out

    def restoring_slope(self, y):
        """h'(y), analytic when available, else a central difference."""
        if self.h_derivative is not None:
            return self.h_derivative(y)
        return _central_diff(self.h, y)

    def coefficient_slope(self, tau):
        """v'(tau), analytic when available, else a difference on the clock."""
        if self.v_derivative is not None:
            return self.v_derivative(tau)
        return _central_diff(self.v, tau, clock=True)


def _central_diff(fn, x, clock=False):
    """The package's one finite difference, elementwise over x.

    (fn(x + s) - fn(x - s)) / (2 s) with s = 1e-6 max(1, |x|).  With
    clock=True x is a clock value and the lower point is clipped to tau = 0,
    so fn is never called below the clock's origin and the difference is
    one-sided at tau = 0.
    """
    x = np.asarray(x, dtype=float)
    up = 1e-6 * np.maximum(1.0, np.abs(x))
    down = np.clip(x, 0.0, up) if clock else up
    out = (_apply(fn, x + up) - _apply(fn, x - down)) / (up + down)
    return float(out) if x.ndim == 0 else out


def _apply(fn, *args):
    """fn over its broadcast arguments, through ``_call``; a float for scalars."""
    out, = _call(fn, None, args)
    return float(out) if out.ndim == 0 else out


def _call(fn, dim, args, arrays=True):
    """The one adapter between a caller's function and arrays.

    dim is a flow's number of components, None for a function of one value.
    fn is called once on the arguments broadcast to one shape, and its
    results are kept when ``_fit`` accepts them.  Otherwise (a TypeError or
    ValueError, all-scalar arguments, ``arrays`` False) fn runs once per
    element on np.float64 scalars, and each result must pass ``_fit`` as
    scalars.  Returns dim float arrays (one for None) of the broadcast shape.
    Arguments that do not broadcast, or a result that fails per element,
    are a ParameterError; what fn raises per element meets ``_judge``.
    """
    try:
        arrs = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    except ValueError:
        raise ParameterError("the arguments do not broadcast to one shape") from None
    out = _on_arrays(fn, dim, arrs, arrs[0].shape) if arrays and arrs[0].ndim else None
    if out is not None:
        return out
    try:
        rows = [fn(*vals) for vals in zip(*(a.flat for a in arrs))]
    except (TypeError, ValueError) as err:
        _judge(err)
        raise
    try:
        cols = np.array(rows)
    except (TypeError, ValueError):
        cols = None
    # the rows stack to this shape and kind exactly when each passes _fit as scalars
    if rows and (cols is None or cols.dtype.kind not in "biuf"
                 or cols.shape != (len(rows),) + ((dim,) if dim else ())):
        out = next((row for row in rows if _fit(row, dim, ()) is None), rows[0])
        out = out if isinstance(out, (tuple, list)) else [out]
        types = ", ".join(type(o).__name__ for o in out)
        raise ParameterError(f"a call gave {len(out)} component(s) of type(s) ({types}), "
                             f"not {dim or 1} real number(s)")
    cols = np.reshape(cols.astype(float, copy=False), (-1, dim or 1))
    return [col.reshape(arrs[0].shape) for col in cols.T]


def _judge(err):
    """Raise a caller's TypeError or ValueError, no package error, as a ParameterError."""
    if isinstance(err, (TypeError, ValueError)) and not isinstance(err, FractalCalcError):
        raise ParameterError(f"a call raised {type(err).__name__}: {err}") from err


def _flow(rhs, dim, *args):
    """rhs, or rhs per element: one call on ``args``, as a march passes them, decides."""
    if _on_arrays(rhs, dim, args, np.broadcast_shapes(*map(np.shape, args))) is not None:
        return rhs
    return lambda *a: _call(rhs, dim, a, arrays=False)


def _on_arrays(fn, dim, args, shape):
    try:
        out = fn(*args)
    except (TypeError, ValueError):  # fn takes no arrays; other errors propagate
        return None
    return _fit(out, dim, shape)


def _fit(out, dim, shape):
    """The adapter's one rule: dim real results (one for None), each of ``shape`` or 0-d.

    Returns them as float arrays of ``shape``, a 0-d one broadcast, or None.
    """
    try:
        outs = [np.asarray(o) for o in ([out] if dim is None else out)]
    except (TypeError, ValueError):
        return None
    if len(outs) != (dim or 1) or any(o.dtype.kind not in "biuf" or o.shape != shape
                                      and o.ndim for o in outs):
        return None
    return [o.astype(float, copy=False) if o.shape == shape else np.full(shape, float(o))
            for o in outs]


@dataclass(frozen=True, eq=False)
class Trajectory(_Value):
    """Recorded solution samples in both clocks.

    ``tau`` is the integration grid, ``t`` the corresponding set points from
    the inverse staircase.  ``z`` is None for first order problems.  ``meta``
    records solver settings for reproducibility.  The arrays are read-only
    and 1-d, of one size, and ``at_time`` reads the handles ``_tau``, ``_y``
    and ``_z``; a solver's records are held uncopied, a caller's copied.
    """

    t: np.ndarray
    tau: np.ndarray
    y: np.ndarray
    z: Optional[np.ndarray]
    table: StaircaseTable = field(repr=False)
    meta: dict = field(default_factory=dict)

    def _check(self):
        held = {k: v if k == "_z" and v is None else _reals(k.strip("_"), v) for k, v in
                (("t", self.t), ("_tau", self.tau), ("_y", self.y), ("_z", self.z))}
        if held["t"].ndim != 1 or len({v.shape for v in held.values() if v is not None}) > 1:
            raise ParameterError("t, tau, y and z must be matching 1-d arrays")
        return held

    def __len__(self):
        return int(self.tau.size)

    @property
    def terminal(self):
        """Final state, (y,) or (y, z)."""
        return tuple(float(x[-1]) for x in (self.y, self.z) if x is not None)

    def at_time(self, t):
        """State at time t by interpolation in tau; constant across gaps.

        A time before the anchor or after ``t_end`` reads the first or last record.
        """
        tau = np.clip(eval_staircase(self.table, t), self._tau[0], self._tau[-1])
        state = [np.interp(tau, self._tau, x) for x in (self._y, self._z) if x is not None]
        return tuple(state if np.ndim(t) else map(float, state))


class _BlowupSignal(Exception):
    def __init__(self, taus, states, offender):
        self.taus = taus
        self.states = states
        self.offender = offender


def _rk4_1(rhs, h):
    # classical RK4 on one component, in and out positionally, its constants
    # made once per step size; the groupings (0.5*h)*k and (h/6)*(k1 +
    # 2*(k2 + k3) + k4) are fixed, since default outputs are pinned bit for bit
    half, sixth = 0.5 * h, h / 6.0
    def step(tau, y):
        a, = rhs(tau, y)
        b, = rhs(tau + half, y + half * a)
        c, = rhs(tau + half, y + half * b)
        d, = rhs(tau + h, y + h * c)
        return (y + sixth * (a + 2.0 * (b + c) + d),)
    return step


def _rk4_2(rhs, h):
    # classical RK4 on two components, as _rk4_1
    half, sixth = 0.5 * h, h / 6.0
    def step(tau, y, z):
        a, p = rhs(tau, y, z)
        b, q = rhs(tau + half, y + half * a, z + half * p)
        c, r = rhs(tau + half, y + half * b, z + half * q)
        d, s = rhs(tau + h, y + h * c, z + h * r)
        return (y + sixth * (a + 2.0 * (b + c) + d),
                z + sixth * (p + 2.0 * (q + r) + s))
    return step


def _euler_1(rhs, h):
    def step(tau, y):
        a, = rhs(tau, y)
        return (y + h * a,)
    return step


def _euler_2(rhs, h):
    def step(tau, y, z):
        a, p = rhs(tau, y, z)
        return (y + h * a, z + h * p)
    return step


# by method, then by component count: every flow of the package has one or
# two components, and each entry makes the stepper of one step size
_STEPPERS = {"rk4": {1: _rk4_1, 2: _rk4_2}, "euler": {1: _euler_1, 2: _euler_2}}


def _floats_1(step, ks, dtau, limit, every, states, blowup, y):
    # steps ks of a one-component march on Python floats, recording after
    # each every-th step count and raising blowup(k) at an escape (NaN fails
    # the comparison); returns the first step that raises or gives a
    # non-float, else ks.stop, and the state before it
    ys, at = states[0], ks.start - ks.start % every + every - 1
    for k in ks:
        try:
            y1, = step(k * dtau, y)
        except Exception:
            return k, (y,)
        if type(y1) is not float:
            return k, (y,)
        if not abs(y1) <= limit:
            raise blowup(k)
        y = y1
        if k == at:
            ys[at // every + 1] = y
            at += every
    return ks.stop, (y,)


def _floats_2(step, ks, dtau, limit, every, states, blowup, y, z):
    # _floats_1 on two components
    (ys, zs), at = states, ks.start - ks.start % every + every - 1
    for k in ks:
        try:
            y1, z1 = step(k * dtau, y, z)
        except Exception:
            return k, (y, z)
        if type(y1) is not float or type(z1) is not float:
            return k, (y, z)
        if not (abs(y1) <= limit and abs(z1) <= limit):
            raise blowup(k)
        y, z = y1, z1
        if k == at:
            ys[at // every + 1], zs[at // every + 1] = y, z
            at += every
    return ks.stop, (y, z)


def _integrate(rhs, tau_end, state0, dtau, method, record_every, limit=BLOWUP_LIMIT):
    """Fixed-step march from tau=0 to tau_end, recording every k-th step.

    state0 has shape (dim,) or (dim, B) with dim 1 or 2; rhs(tau, *comps)
    receives its dim components positionally (floats, or rows of shape
    (B,)) and returns dim component derivatives.  The last step is
    shortened so the grid lands exactly on tau_end.  The initial state and
    the final state are always recorded.  Returns (taus, states, escaped):
    states is in the state's layout with the records on axis 1, (dim,
    n_records) or (dim, n_records, B), and escaped marks the columns (axis 1
    of a (dim, B) block) that left the ball |x| <= limit or went non-finite.

    A (dim,) march carries Python floats, which round + - * / ** exactly as
    np.float64 does.  They differ where Python raises (1/0, an overflowing
    power) or returns a complex, and where a narrower numpy scalar takes
    over the arithmetic.  A loop per component count runs the full steps,
    then the shortened last one, testing each inline.  The first step that
    raises any exception or yields anything but Python floats is redone
    from its start, after one ``_call`` of its first stage, in the blocks'
    loop on np.float64 components, where the march stays: one repeated
    step and one more call for a flow of np.float64 scalars.  Results match
    a march on np.float64 components bit for bit whenever the difference
    shows in the flow's results, as an exception or a type; a flow that
    turns a complex back into a float (abs() or .real of a complex root)
    hides it and may not match.

    A (dim,) march raises _BlowupSignal with copies of the records so far
    at the first escape.  A (dim, B) march clips each escaped column to the
    ball and holds it at that value from then on, whatever its later steps
    give; the other columns integrate undisturbed.  Each step of a block
    tests it once, with one reduction over the stacked rows; the
    per-column bookkeeping runs only once some column has escaped.  What
    the flow raises in that loop meets ``_judge``'s rule, as in ``_call``.

    dtau and limit must be finite and positive, tau_end finite and >= 0,
    record_every an integer >= 1, the state 1 or 2 components and the march
    at most _MAX_STEPS steps, or a ParameterError is raised before any work.
    """
    by_dim = _STEPPERS.get(method) if isinstance(method, str) else None
    if by_dim is None:
        raise ParameterError(f"unknown method {method!r}, expected one of {sorted(_STEPPERS)}")
    dtau = _real("dtau", dtau, "(0, inf)")
    tau_end = _real("tau_end", tau_end, "[0, inf)")
    record_every = _count("record_every", record_every, 1)
    limit = _real("blowup_limit", limit, "(0, inf)")
    steps = tau_end / dtau - 1e-12
    if steps > _MAX_STEPS:
        raise ParameterError(
            f"tau_end={tau_end!r} with dtau={dtau!r} needs about {steps:.3g} "
            f"steps, more than the {_MAX_STEPS:.0e} allowed; increase dtau")
    n_steps = max(int(math.ceil(steps)), 0)
    block = np.array(state0, dtype=float)
    make = by_dim.get(len(block)) if block.ndim in (1, 2) else None
    if make is None:
        raise ParameterError(
            f"state must have 1 or 2 components, got shape {block.shape}")
    # records at each record_every-th step count k (exact as a float), at
    # k*dtau, and at tau_end; in place, as temporaries fragment the heap
    taus = np.arange(1 + -(-n_steps // record_every), dtype=float)
    taus *= record_every
    taus *= dtau
    taus[-1] = tau_end if n_steps else 0.0
    states = np.empty(block.shape[:1] + taus.shape + block.shape[1:])
    states[:, 0] = block
    escaped = np.zeros(block.shape[1:], dtype=bool)
    n_full = max(n_steps - 1, 0)
    full, last = make(rhs, dtau), make(rhs, tau_end - n_full * dtau)
    def blowup(k):
        r = 1 + k // record_every
        return _BlowupSignal(taus[:r].copy(), states[:, :r].copy(),
                             tau_end if k == n_steps - 1 else (k + 1) * dtau)
    k, state = 0, block.tolist() if block.ndim == 1 else list(block)
    if block.ndim == 1:
        floats = _floats_1 if len(block) == 1 else _floats_2
        for step, ks in ((full, range(n_full)), (last, range(n_full, n_steps))):
            k, state = floats(step, ks, dtau, limit, record_every, states, blowup, *state)
            if k < ks.stop:
                # np.float64 may differ here: redo the step on it, and stay
                state = [np.float64(c) for c in state]
                _call(rhs, len(state), (k * dtau, *state))  # the adapter judges the first stage
                break
    frozen = False
    try:  # around the whole loop: it costs no step anything while nothing raises
        for k in range(k, n_steps):
            new = (last if k == n_steps - 1 else full)(k * dtau, *state)
            # one reduction over the stacked rows is cheaper than one per row
            if frozen or not np.abs(new).max() <= limit:
                if block.ndim == 1:
                    raise blowup(k)
                # the escaped columns hold their clipped value; test the others
                new = np.array(new)
                new[:, escaped] = np.array(state)[:, escaped]
                bad = ~np.all(np.abs(new) <= limit, axis=0)
                new[:, bad] = np.clip(
                    np.nan_to_num(new[:, bad], nan=limit, posinf=limit,
                                  neginf=-limit), -limit, limit)
                escaped |= bad
                frozen = True
                new = list(new)
            state = new
            if (k + 1) % record_every == 0:
                states[:, (k + 1) // record_every] = state
    except (TypeError, ValueError) as err:
        _judge(err)
        raise
    states[:, -1] = state
    return taus, states, escaped


def _solve(rhs, table, state0, t_end, dtau, method, record_every, blowup_limit):
    """Integrate rhs in tau up to t_end and map the records back to time.

    On blow-up a NumericalBlowupError is raised with the partial trajectory
    attached.
    """
    t_end, tau_end = _tau_horizon(table, t_end)

    def trajectory(taus, states):
        # built after _integrate has checked dtau
        meta = {"method": method, "dtau": float(dtau), "tau_end": tau_end,
                "t_end": t_end, "alpha": table.alpha}
        y, *z = states  # contiguous rows, which np.interp reads uncopied
        return _built(Trajectory, t=warp_time(table, taus), _tau=taus, _y=y,
                      _z=z[0] if z else None, table=table, meta=meta)

    try:
        taus, states, _ = _integrate(rhs, tau_end, state0, dtau, method,
                                     record_every, blowup_limit)
    except _BlowupSignal as sig:
        raise NumericalBlowupError(
            f"state exceeded {blowup_limit:g} near tau={sig.offender:.6g}",
            trajectory=trajectory(sig.taus, sig.states)) from None
    return trajectory(taus, states)


def _first_order(g):
    """The flow of D y = g(y) under the right-hand-side contract of _integrate."""
    return lambda tau, y: (g(y),)


def _second_order(sys):
    """The flow of the damped system ``sys`` under the contract of _integrate.

    The functions are read once, here, so a march binds the ones the
    system holds when it starts; a later reassignment, checked when it is
    made, takes effect at the next march.
    """
    u, f, v, h, q = sys.u, sys.f, sys.v, sys.h, sys.q
    if q is None:
        def rhs(tau, y, z):
            return z, -u(tau) * f(y, z) * z - v(tau) * h(y)
    else:
        def rhs(tau, y, z):
            return z, -u(tau) * f(y, z) * z - v(tau) * h(y) + q(tau, y, z)
    return rhs


def solve_first_order(g, table: StaircaseTable, h0: float, t_end: float,
                      dtau: float = 1e-3, method: str = "rk4",
                      record_every: int = 1,
                      blowup_limit: float = BLOWUP_LIMIT) -> Trajectory:
    """Integrate D y = g(y) from the anchor up to time t_end.

    h0 must be a real number other than NaN; an infinite h0, like any state
    that leaves the blow-up ball, ends in a NumericalBlowupError carrying
    the partial trajectory.
    """
    return _solve(_first_order(g), table, [_real("h0", h0, "[-inf, inf]")],
                  t_end, dtau, method, record_every, blowup_limit)


def solve_second_order(sys: FdeSystem, table: StaircaseTable, y0: float,
                       z0: float, t_end: float, dtau: float = 1e-3,
                       method: str = "rk4", record_every: int = 1,
                       blowup_limit: float = BLOWUP_LIMIT) -> Trajectory:
    """Integrate the damped second order system from the anchor to t_end.

    y0 and z0 follow the rule for h0 of solve_first_order.
    """
    state0 = [_real("y0", y0, "[-inf, inf]"), _real("z0", z0, "[-inf, inf]")]
    return _solve(_second_order(sys), table, state0, t_end, dtau, method,
                  record_every, blowup_limit)
