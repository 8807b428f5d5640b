"""The benchmark's three workloads: seeded inputs, jobs and correctness gates.

A workload is a ``setup(fc, rng)`` that builds the seeded inputs and makes
one warm-up call, plus a ``make_pass(fc, state, rng)`` that returns the jobs
of one pass.  Every job pairs a call into the library with a gate that checks
the result against a closed form or an expected verdict and returns the
observed errors.  Tolerances are those of tests/test_acceptance.py:

- 1e-6 relative for the total mass Gamma(alpha+1) L^alpha and for exp(-S),
- 1e-6 per tau for the energy drift of the undamped oscillator,
- 1e-2 relative for the calculus pairing (integral of the derivative),
- 0.02 for the mass-scaling dimension estimate,
- ``passed`` and the expected label for the stability and verifier reports.

The library receives only the generated inputs; ``fc`` is the freshly
imported ``fractalcalc`` package, so nothing here imports it at module level.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MU = 0.2
MASS_TOL = 1e-6
EXP_TOL = 1e-6
DRIFT_TOL = 1e-6
PAIRING_TOL = 1e-2
DIMENSION_TOL = 0.02
WARP_TOL = 1e-6

# observed errors are aggregated by maximum, every other observation by sum
ERROR_METRICS = ("staircase.mass_rel_err", "staircase.dimension_err",
                 "fde.exp_rel_err", "fde.energy_drift_per_tau",
                 "calculus.pairing_rel_err")


class GateFailure(Exception):
    """A job's result missed its closed form or expected verdict."""


@dataclass
class Job:
    kind: str       # jobs of one kind share a latency line, e.g. "verify"
    name: str       # unique within a pass
    run: Callable
    check: Callable


def within(name, observed, tol):
    """Return ``observed`` if it is at most ``tol``; NaN fails too."""
    if not observed <= tol:
        raise GateFailure(f"{name} = {observed:.3g} exceeds {tol:g}")
    return float(observed)


def expect(condition, message):
    if not condition:
        raise GateFailure(message)


def run_cli(fc, argv):
    """Run ``fractalcalc.cli.main`` in-process, capturing what it writes."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fc.cli.main(list(argv))
    return code, buf.getvalue()


def csv_columns(text):
    """Header and float columns of the CLI's CSV output."""
    lines = text.splitlines()
    header = lines[0].split(",")
    values = np.array(",".join(lines[1:]).split(","), dtype=float)
    return header, values.reshape(len(lines) - 1, len(header)).T


def check_cli_text(code, text):
    expect(code == 0, f"cli exit code {code}")
    expect(text, "cli wrote nothing")
    return {"cli.bytes_out": len(text.encode())}


# ---------------------------------------------------------------------------
# gates shared across workloads
# ---------------------------------------------------------------------------

def check_mass(fc, table):
    """Total staircase rise equals Gamma(alpha+1) * base_length**alpha."""
    spec = table.spec
    expected = math.gamma(table.alpha + 1.0) * spec.base_length ** table.alpha
    rise = float(table.s[-1] - table.s[0])
    err = abs(rise - expected) / expected
    return {"staircase.mass_rel_err": within("staircase mass error", err, MASS_TOL)}


def check_theorem1(rep):
    expect(rep.passed, "theorem 1 verifier did not pass")
    expect(rep.assumptions.all_pass(("C1", "C2", "C3", "C4")), "C1-C4 failed")
    within("theorem 1 max drift", rep.max_drift, 1e-10)
    expect(rep.bound_margin >= 0.0, f"grid margin {rep.bound_margin:.3g} < 0")
    return {}


def check_theorem2(rep):
    expect(rep.passed, "theorem 2 verifier did not pass")
    expect(rep.bounded, "theorem 2 fan escaped")
    expect(rep.lemma1_margin >= 0.0 and rep.lemma2_margin >= 0.0,
           f"lemma margins {rep.lemma1_margin:.3g}/{rep.lemma2_margin:.3g}")
    within("theorem 2 terminal |y|", rep.terminal_y, 1e-2)
    within("theorem 2 terminal |z|", rep.terminal_z, 1e-2)
    return {}


def check_label(rep, label):
    expect(rep.classification == label,
           f"label {rep.classification!r}, expected {label!r}")
    if label == "asymptotically-stable":
        expect(rep.decay is not None, "no decay fit")
        within("decay rate error", abs(rep.decay.rate_tau - 1.0), 1e-2)
    return {}


def check_exp_decay(y0, tau, y):
    """Terminal value of D y = -y against y0 * exp(-tau)."""
    exact = y0 * math.exp(-float(tau))
    err = abs(float(y) - exact) / abs(exact)
    return {"fde.exp_rel_err": within("exp(-S) error", err, EXP_TOL)}


def check_energy(traj):
    """Energy drift of the undamped oscillator, per unit of tau."""
    energy = 0.5 * (traj.y ** 2 + traj.z ** 2)
    late = traj.tau >= 1.0
    expect(traj.tau[-1] >= 100.0, f"tau range {traj.tau[-1]:.1f} < 100")
    drift = float(np.max(np.abs(energy[late] - energy[0]) / (energy[0] * traj.tau[late])))
    return {"fde.energy_drift_per_tau": within("energy drift", drift, DRIFT_TOL)}


# ---------------------------------------------------------------------------
# certify: verifier and stability reports on the extent-60 table
# ---------------------------------------------------------------------------

def _fan(rng):
    """16-24 initial states at radii 0.5-2 and uniform angles."""
    n = int(rng.integers(16, 25))
    radius = rng.uniform(0.5, 2.0, n)
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    return [(float(r * math.cos(a)), float(r * math.sin(a))) for r, a in zip(radius, angle)]


def certify_setup(fc, rng):
    alpha = fc.hausdorff_dimension(MU)
    table = fc.build_staircase(fc.CantorSpec(mu=MU, depth=12, origin=0.0, extent=60.0), alpha)
    observed = check_mass(fc, table)
    warm = fc.verify_theorem1(fc.theorem1_toy(), table, initial_states=_fan(rng), t_end=1.0)
    check_theorem1(warm)
    return {"table": table, "observed": observed}


def certify_pass(fc, state, rng):
    table = state["table"]
    fan1, fan2 = _fan(rng), _fan(rng)
    argv = ["verify", "--theorem", "2", "--extent", "60", "--format", "json"]

    def check_cli_verify(out):
        obs = check_cli_text(*out)
        expect(json.loads(out[1])["passed"] is True, "cli verify did not pass")
        return obs

    return [
        Job("verify", "verify_theorem1",
            lambda: fc.verify_theorem1(fc.theorem1_toy(), table, initial_states=fan1),
            check_theorem1),
        Job("verify", "verify_theorem2",
            lambda: fc.verify_theorem2(fc.theorem2_toy(), table, initial_states=fan2),
            check_theorem2),
        Job("stability", "classify_example1",
            lambda: fc.classify_stability(fc.example1_field, table),
            lambda rep: check_label(rep, "asymptotically-stable")),
        Job("stability", "classify_example3",
            lambda: fc.classify_stability(fc.example3_field(1.0), table,
                                          equilibrium=(0.0, 0.0)),
            lambda rep: check_label(rep, "lyapunov-stable")),
        Job("cli", "cli_verify_theorem2", lambda: run_cli(fc, argv), check_cli_verify),
    ]


# ---------------------------------------------------------------------------
# trajectory: long single-state solves through fde
# ---------------------------------------------------------------------------

def trajectory_setup(fc, rng):
    alpha = fc.hausdorff_dimension(MU)
    long_table = fc.build_staircase(
        fc.CantorSpec(mu=MU, depth=12, origin=0.0, extent=500.0), alpha)
    unit_table = fc.build_staircase(fc.CantorSpec(mu=MU, depth=12), alpha)
    mass_err = max(check_mass(fc, t)["staircase.mass_rel_err"] for t in (long_table, unit_table))
    y0 = float(rng.uniform(0.1, 2.0))
    warm = fc.solve_first_order(lambda y: -y, unit_table, y0, 0.1, dtau=1e-3)
    check_exp_decay(y0, warm.tau[-1], warm.y[-1])
    return {"long": long_table, "unit": unit_table,
            "observed": {"staircase.mass_rel_err": mass_err}}


def trajectory_pass(fc, state, rng):
    long_table, unit_table = state["long"], state["unit"]
    radius, angle = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
    y0, z0 = float(radius * math.cos(angle)), float(radius * math.sin(angle))
    firsts = [float(c) for c in rng.uniform(0.1, 2.0, 4)]

    def first_job(i, c):
        return Job("first", f"solve_first_order_{i}",
                   lambda: fc.solve_first_order(lambda y: -y, unit_table, c, 1.0, dtau=1e-3),
                   lambda traj: check_exp_decay(c, traj.tau[-1], traj.y[-1]))

    def check_solve_example2(out):
        obs = check_cli_text(*out)
        header, cols = csv_columns(out[1])
        expect(header == ["t", "tau", "y", "z"], f"columns {header}")
        energy = 0.5 * (cols[2] ** 2 + cols[3] ** 2)
        # damped: the energy certificate never rises along the solution
        expect(energy[-1] < energy[0], "example2 energy did not decrease")
        expect(abs(cols[0][-1] - 1.0) <= 1e-9, "example2 did not reach t_end = 1")
        return obs

    def check_solve_example1(out):
        obs = check_cli_text(*out)
        header, cols = csv_columns(out[1])
        expect(header == ["t", "tau", "y"], f"columns {header}")
        obs.update(check_exp_decay(1.0, cols[1][-1], cols[2][-1]))
        return obs

    def check_demo_example1(out):
        obs = check_cli_text(*out)
        header, cols = csv_columns(out[1])
        expect(header == ["y0", "t", "tau", "y", "y_exact"], f"columns {header}")
        err = float(np.max(np.abs(cols[3] - cols[4]) / np.abs(cols[4])))
        obs["fde.exp_rel_err"] = within("demo exp(-S) error", err, EXP_TOL)
        return obs

    return [
        Job("solve", "energy_extent500",
            lambda: fc.solve_second_order(fc.example3_system(1.0), long_table, y0, z0,
                                          500.0, dtau=1e-3, record_every=10),
            check_energy),
        *[first_job(i, c) for i, c in enumerate(firsts)],
        Job("cli", "cli_solve_example2",
            lambda: run_cli(fc, ["solve", "--system", "example2"]), check_solve_example2),
        Job("cli", "cli_solve_example1", lambda: run_cli(fc, ["solve"]), check_solve_example1),
        Job("cli", "cli_demo_example1",
            lambda: run_cli(fc, ["demo", "example1"]), check_demo_example1),
    ]


# ---------------------------------------------------------------------------
# deep_staircase: 2^m tables, point queries, calculus and CSV output
# ---------------------------------------------------------------------------

DEEP_DEPTHS = (20, 22)
QUERY_POINTS = 500_000     # per depth and query kind: 1e6 per kind per pass
DEEP_BUILDS = 3            # depth-22 builds per pass, for more core_s samples
CALCULUS_DEPTH = 16


def left_endpoints(index, depth, keep):
    """Left end of interval ``index`` of the depth-m set on [0, 1], in closed form.

    Reading the index's bits from the most significant one, bit k set means
    the right child was taken at level k, which shifts the start by
    (1 - keep) * keep**k.
    """
    left = np.zeros(index.shape)
    for k in range(depth):
        bit = (index >> (depth - 1 - k)) & 1
        left += bit * ((1.0 - keep) * keep ** k)
    return left


def deep_queries(depth, alpha, rng):
    """Seeded query points with their exact answers at one depth.

    Half of the membership and staircase points lie inside covering
    intervals and half inside gaps, each a quarter to three quarters of the
    way across, so the answers are known exactly: S rises linearly by
    Gamma(alpha+1) * length**alpha across every covering interval.
    """
    keep = (1.0 - MU) / 2.0
    n_int = 2 ** depth
    length = keep ** depth
    mass = math.gamma(alpha + 1.0) * length ** alpha
    half = QUERY_POINTS // 2
    i_in = rng.integers(0, n_int, half)
    f_in = rng.uniform(0.25, 0.75, half)
    i_gap = rng.integers(0, n_int - 1, QUERY_POINTS - half)
    g_gap = rng.uniform(0.25, 0.75, QUERY_POINTS - half)
    left_in = left_endpoints(i_in, depth, keep)
    gap_lo = left_endpoints(i_gap, depth, keep) + length
    gap_hi = left_endpoints(i_gap + 1, depth, keep)
    t = np.concatenate([left_in + f_in * length, gap_lo + g_gap * (gap_hi - gap_lo)])
    inside = np.concatenate([np.ones(half, bool), np.zeros(QUERY_POINTS - half, bool)])
    s = np.concatenate([mass * (i_in + f_in), mass * (i_gap + 1.0)])
    order = rng.permutation(QUERY_POINTS)
    i_tau = rng.integers(0, n_int, QUERY_POINTS)
    f_tau = rng.uniform(0.25, 0.75, QUERY_POINTS)
    return {"depth": depth, "t": t[order], "inside": inside[order], "s": s[order],
            "tau": mass * (i_tau + f_tau),
            "t_of_tau": left_endpoints(i_tau, depth, keep) + f_tau * length}


def check_generate(q, iset):
    depth = q["depth"]
    expect(len(iset) == 2 ** depth, f"{len(iset)} intervals at depth {depth}")
    index = np.arange(0, 2 ** depth, 4099)
    exact = left_endpoints(index, depth, (1.0 - MU) / 2.0)
    within(f"depth-{depth} left endpoints", float(np.max(np.abs(iset.left[index] - exact))), 1e-12)
    return {}


def check_eval(fc, q, s):
    scale = math.gamma(fc.hausdorff_dimension(MU) + 1.0)
    err = float(np.max(np.abs(s - q["s"]))) / scale
    return {"staircase.mass_rel_err": within("staircase query error", err, MASS_TOL)}


def check_warp(q, t):
    within("warp_time error", float(np.max(np.abs(t - q["t_of_tau"]))), WARP_TOL)
    return {}


def check_contains(q, inside):
    wrong = int(np.count_nonzero(inside != q["inside"]))
    expect(wrong == 0, f"contains wrong on {wrong} points")
    return {}


def deep_setup(fc, rng):
    alpha = fc.hausdorff_dimension(MU)
    queries = {d: deep_queries(d, alpha, rng) for d in DEEP_DEPTHS}
    table = fc.build_staircase(fc.CantorSpec(mu=MU, depth=CALCULUS_DEPTH), alpha)
    observed = check_mass(fc, table)
    q = queries[DEEP_DEPTHS[0]]
    warm = fc.build_staircase(fc.CantorSpec(mu=MU, depth=DEEP_DEPTHS[0]), alpha)
    check_eval(fc, q, fc.eval_staircase(warm, q["t"]))
    return {"alpha": alpha, "queries": queries, "calculus_table": table, "observed": observed}


def deep_pass(fc, state, rng):
    alpha, queries = state["alpha"], state["queries"]
    table16 = state["calculus_table"]
    rate = float(rng.uniform(0.5, 1.5))
    built = {}      # results of this pass's generate and build jobs, for the queries

    def generate_job(depth):
        def run():
            built[("iset", depth)] = fc.generate(fc.CantorSpec(mu=MU, depth=depth))
            return built[("iset", depth)]
        return Job("generate", f"generate_{depth}", run,
                   lambda iset: check_generate(queries[depth], iset))

    def build_job(depth, repeat=0):
        # only the last build of a depth is kept for its queries
        def run():
            built.pop(("table", depth), None)
            built[("table", depth)] = fc.build_staircase(fc.CantorSpec(mu=MU, depth=depth), alpha)
            return built[("table", depth)]
        kind = "build_deep" if depth == max(DEEP_DEPTHS) else "build"
        return Job(kind, f"build_{depth}_{repeat}", run, lambda table: check_mass(fc, table))

    def query_jobs(depth):
        # the last job on each table or set releases it, which keeps one
        # depth's arrays alive at a time
        q = queries[depth]
        return [
            Job("query", f"eval_{depth}",
                lambda: fc.eval_staircase(built[("table", depth)], q["t"]),
                lambda s: check_eval(fc, q, s)),
            Job("query", f"warp_{depth}",
                lambda: fc.warp_time(built.pop(("table", depth)), q["tau"]),
                lambda t: check_warp(q, t)),
            Job("query", f"contains_{depth}",
                lambda: fc.contains(built.pop(("iset", depth)), q["t"]),
                lambda inside: check_contains(q, inside)),
        ]

    def pairing():
        grid = fc.set_samples(table16, 3)
        f = fc.GridFunction.from_function(
            table16, lambda t: np.exp(rate * fc.eval_staircase(table16, t)), t=grid)
        return fc.fractal_integral(fc.derivative_grid(f), 0.0, 1.0)

    def check_pairing(total):
        exact = math.exp(rate * fc.eval_staircase(table16, 1.0)) - 1.0
        err = abs(total - exact) / abs(exact)
        return {"calculus.pairing_rel_err": within("calculus pairing error", err, PAIRING_TOL)}

    def check_dimension(out):
        obs = check_cli_text(*out)
        header, cols = csv_columns(out[1])
        expect(header == ["alpha", "ratio"], f"columns {header}")
        err = abs(float(cols[0][-1]) - fc.hausdorff_dimension(MU))
        obs["staircase.dimension_err"] = within("dimension error", err, DIMENSION_TOL)
        return obs

    def check_deriv(out):
        obs = check_cli_text(*out)
        header, cols = csv_columns(out[1])
        expect(header == ["t", "f", "deriv"], f"columns {header}")
        expect(cols.shape[1] == 2 * 2 ** CALCULUS_DEPTH, f"{cols.shape[1]} rows")
        within("deriv f = t**2 error", float(np.max(np.abs(cols[1] - cols[0] ** 2))), 1e-11)
        expect(bool(np.all(cols[2] >= 0.0)), "derivative of t**2 negative on [0, 1]")
        return obs

    jobs = []
    for depth in DEEP_DEPTHS:
        builds = DEEP_BUILDS if depth == max(DEEP_DEPTHS) else 1
        jobs += [generate_job(depth), *[build_job(depth, r) for r in range(builds)],
                 *query_jobs(depth)]
    jobs += [
        Job("cli", "cli_dimension_20",
            lambda: run_cli(fc, ["dimension", "--depth", "20"]), check_dimension),
        Job("calculus", "pairing_16", pairing, check_pairing),
        Job("cli", "cli_deriv_16",
            lambda: run_cli(fc, ["deriv", "--function", "t**2", "--depth", "16"]), check_deriv),
    ]
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    make_pass: Callable
    core_kind: str
    reference: tuple    # reference.py kernels that resemble the workload's work


WORKLOADS = {
    "certify": Workload("certify", certify_setup, certify_pass, "verify",
                        ("interpreter",)),
    "trajectory": Workload("trajectory", trajectory_setup, trajectory_pass, "solve",
                           ("interpreter",)),
    "deep_staircase": Workload("deep_staircase", deep_setup, deep_pass, "build_deep",
                               ("interpreter", "memory")),
}
