"""The benchmark's tracer still finds the functions it wraps.

perfbench/tracing.py counts right-hand-side calls by wrapping
``fde._integrate`` and ``lyapunov._batch_integrate`` at every module
binding, relying on their names and leading positional parameters.  A
refactor that renames, reorders or bypasses them fails here.
"""

import importlib.util
from pathlib import Path

import fractalcalc
import fractalcalc.cli  # noqa: F401  (the tracer wraps cli.main too)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_both_integrators():
    originals = (fractalcalc.fde._integrate, fractalcalc.lyapunov._batch_integrate)
    tracer = _load_tracing().Tracer()
    tracer.install(fractalcalc)
    try:
        fc = fractalcalc
        table = fc.build_staircase(
            fc.CantorSpec(mu=0.2, depth=8, origin=0.0, extent=60.0),
            fc.hausdorff_dimension(0.2))
        fc.verify_theorem1(fc.theorem1_toy(), table, t_end=1.0, dtau=1e-2)
        fc.solve_first_order(lambda y: -y, table, 1.0, 1.0, dtau=1e-2)
    finally:
        tracer.restore()
    c = tracer.counts
    assert c["lyapunov.steps"] > 0 and c["fde.state_steps"] > 0
    # four RK4 stages a step, plus the batch's one array probe
    assert c["lyapunov.rhs_calls"] == 4 * c["lyapunov.steps"] + 1
    assert c["fde.rhs_calls"] == 4 * c["fde.state_steps"]
    assert (fractalcalc.fde._integrate,
            fractalcalc.lyapunov._batch_integrate) == originals
