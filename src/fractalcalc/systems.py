"""Ready-made systems: the worked examples and the verifier test articles.

Each builder returns plain library objects (callables, FdeSystem,
LyapunovFunction) with analytic hooks filled in, so downstream checks are
free of finite-difference noise where an exact form exists.  The command
line names these systems through the one registry at the end of the module.
"""

import numpy as np

from .errors import ParameterError, _real, _reals
from .expressions import compile_expression
from .fde import FdeConstants, FdeSystem
from .lyapunov import LyapunovFunction


def example1_field(z):
    """Decaying scalar flow D z = -z."""
    return -z


def example1_exact(c, tau):
    """Closed form c * exp(-tau) of the decaying scalar flow."""
    return _reals("c", c) * np.exp(-_reals("tau", tau))


def example1_lyapunov():
    """L(z) = z^2, with D L = -2 z^2 along the flow."""
    return LyapunovFunction(
        value=lambda tau, z: z * z,
        grad_state=(lambda tau, z: 2.0 * z,),
        grad_tau=lambda tau, z: 0.0 * z,
    )


def _oscillator(u, v, f, constants=None, q=None, r1=None, r2=None) -> FdeSystem:
    """Oscillator with restoring force h(y) = y and constant v, with exact hooks.

    u, v and f stay the caller's plain lambdas, since the integrator calls
    them on every stage; constants default to FdeConstants().
    """
    return FdeSystem(
        u=u, v=v, f=f, h=lambda y: y, q=q,
        constants=constants or FdeConstants(), r1=r1, r2=r2,
        h_integral=lambda y: 0.5 * y * y,
        h_derivative=lambda y: np.ones_like(np.asarray(y, dtype=float)),
        v_derivative=lambda tau: 0.0 * tau,
    )


def example2_system(constants=None) -> FdeSystem:
    """Nonlinearly damped oscillator D y = z, D z = -(y^2 + 1) z - y.

    Damping shape f(y, z) = y^2 + 1 and restoring force h(y) = y with unit
    coefficients and no forcing.
    """
    return _oscillator(
        lambda tau: 1.0, lambda tau: 1.0, lambda y, z: y * y + 1.0,
        constants or FdeConstants(lambda1=0.5, lambda2=1.0,
                                  eps0=0.25, eps1=0.5, eps2=0.1))


def example2_lienard_field(tau, y, z):
    """The same oscillator in Lienard coordinates.

    With the damping primitive G(y) = y^3/3 + y the substitution
    w = z + G(y) turns the equation into D y = w - G(y), D w = -y.
    """
    w_dot = -y
    y_dot = z - (y ** 3 / 3.0 + y)
    return y_dot, w_dot


def example2_lienard_lyapunov():
    """L(y, w) = (y^2 + w^2) / 2 for the Lienard form.

    Along the flow D L = -y G(y) = -(y^4/3 + y^2), negative off the origin.
    """
    return LyapunovFunction(
        value=lambda tau, y, w: 0.5 * (y * y + w * w),
        grad_state=(lambda tau, y, w: y, lambda tau, y, w: w),
        grad_tau=lambda tau, y, w: 0.0 * y,
    )


def example3_field(spring=1.0):
    """Undamped oscillator D y = z, D z = -spring * y, as a planar field."""
    c = _real("spring", spring, "(-inf, inf)")

    def field(tau, y, z):
        return z, -c * y

    return field


def example3_lyapunov(spring=1.0):
    """Oscillator energy L = (spring * y^2 + z^2) / 2, conserved by the flow."""
    c = _real("spring", spring, "(-inf, inf)")
    return LyapunovFunction(
        value=lambda tau, y, z: 0.5 * (c * y * y + z * z),
        grad_state=(lambda tau, y, z: c * y, lambda tau, y, z: z),
        grad_tau=lambda tau, y, z: 0.0 * y,
    )


def example3_system(spring=1.0, constants=None) -> FdeSystem:
    """The undamped oscillator packaged as an FdeSystem (u = 0 damping)."""
    c = _real("spring", spring, "(-inf, inf)")
    return _oscillator(lambda tau: 0.0, lambda tau: c, lambda y, z: 1.0, constants)


def linear_damped_system(forcing=None, r1=None, r2=None,
                         constants=None) -> FdeSystem:
    """Linear test article D y = z, D z = -z - y (+ forcing).

    Constant coefficients u = v = 1, damping shape f = 1 and restoring force
    h(y) = y.  The default constants (lambda1 = 1/2, lambda2 = 1, eps0 = 1/4,
    eps1 = 1/2, eps2 = 1/10, sigma = 1, E = Q = u0 = v0 = 1) satisfy every
    structural assumption with round margins.
    """
    return _oscillator(lambda tau: 1.0, lambda tau: 1.0, lambda y, z: 1.0, constants,
                       forcing, r1, r2)


def theorem1_toy() -> FdeSystem:
    """Unforced linear test article for the decrease-of-energy verifier."""
    return linear_damped_system()


def theorem2_toy() -> FdeSystem:
    """Forced linear test article with q = exp(-tau).

    The positive integrable envelopes r1 = r2 = exp(-tau) absorb the forcing
    through the r1 term alone, so the envelope inequality holds with slack
    everywhere and the boundedness verifier's assumptions all pass.
    """
    return linear_damped_system(
        forcing=lambda tau, y, z: np.exp(-tau),
        r1=lambda tau: np.exp(-tau),
        r2=lambda tau: np.exp(-tau),
    )


def _custom_first(field):
    if field is None:
        raise ParameterError("custom-first needs --field with an expression in y")
    return compile_expression(field, ("y",))


# command line system names; each flow is a scalar field g(y) or an
# FdeSystem, and every builder gets the spring constant and the custom-first
# field expression
_NAMED_SYSTEMS = {
    "example1": lambda spring, field: example1_field,
    "example2": lambda spring, field: example2_system(),
    "example3": lambda spring, field: example3_system(spring),
    "theorem1": lambda spring, field: theorem1_toy(),
    "theorem2": lambda spring, field: theorem2_toy(),
    "custom-first": lambda spring, field: _custom_first(field),
}


def _named_system(name, spring=1.0, field=None):
    """The flow a command line system name stands for."""
    try:
        build = _NAMED_SYSTEMS[name]
    except KeyError:
        raise ParameterError(f"unknown system {name!r}") from None
    return build(spring, field)
