"""Command line front end.

Every subcommand computes one artifact (interval list, staircase samples,
dimension estimate, solved trajectory, stability report) and writes it as
CSV or JSON to --out, or to stdout with --out -.  Numeric CSV cells use
twelve significant digits so repeated runs are byte-identical.
"""

import argparse
import json
import os
import sys

import numpy as np

from .cantor import CantorSpec, _max_samples, hausdorff_dimension, iter_levels
from .errors import (
    ExpressionError,
    FractalCalcError,
    NumericalBlowupError,
    ParameterError,
    _count,
)
from .expressions import compile_expression
from .fde import FdeSystem, _apply, solve_first_order, solve_second_order
from .lyapunov import classify_stability, verify_theorem1, verify_theorem2
from .staircase import (
    _crossing,
    build_staircase,
    characteristic,
    dimension_sweep,
    eval_staircase,
)
from .systems import _named_system, example1_exact

USAGE_ERROR = 2
RUNTIME_ERROR = 3


def _write_rows(path, names, columns, fmt):
    """Write equal-length columns as a table, formatting one column at a time.

    Integer columns are written as integers, every other column as floats.
    """
    arrays = [np.asarray(col) for col in columns]
    ints = [arr.dtype.kind in "iu" for arr in arrays]
    values = [arr.tolist() if is_int else arr.astype(float).tolist()
              for arr, is_int in zip(arrays, ints)]
    if fmt == "json":
        payload = {"columns": list(names),
                   "rows": [list(row) for row in zip(*values)]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        cells = [map(str if is_int else "{:.12g}".format, col)
                 for col, is_int in zip(values, ints)]
        lines = [",".join(names), *map(",".join, zip(*cells))]
        text = "\n".join(lines) + "\n"
    _write_text(path, text)


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(path, payload):
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _spec_from(args):
    return CantorSpec(mu=args.mu, depth=args.depth, origin=args.origin, extent=args.extent)


def _resolve_alpha(args, spec):
    if args.alpha == "auto":
        return hausdorff_dimension(spec.mu)
    try:
        return float(args.alpha)
    except ValueError:
        raise ParameterError(
            f"--alpha must be a number or 'auto', got {args.alpha!r}") from None


def _table_for(args):
    if getattr(args, "classical", False):
        spec = CantorSpec(mu=0.5, depth=0, origin=args.origin, extent=args.extent)
        return build_staircase(spec, 1.0, t0=spec.origin), spec
    spec = _spec_from(args)
    alpha = _resolve_alpha(args, spec)
    return build_staircase(spec, alpha, t0=args.t0), spec


def _time_grid(args, spec):
    return np.linspace(spec.origin, spec.extent,
                       _count("--samples", args.samples, 0, _max_samples()))


def cmd_cantor(args):
    spec = _spec_from(args)
    levels = list(iter_levels(spec))
    columns = (np.concatenate([np.full(len(iset), level) for level, iset in levels]),
               np.concatenate([np.arange(len(iset)) for _, iset in levels]),
               np.concatenate([iset.left for _, iset in levels]),
               np.concatenate([iset.right for _, iset in levels]))
    _write_rows(args.out, ("level", "index", "left", "right"), columns, args.format)
    return 0


def cmd_staircase(args):
    table, spec = _table_for(args)
    t = _time_grid(args, spec)
    _write_rows(args.out, ("t", "s"), (t, eval_staircase(table, t)), args.format)
    return 0


def cmd_chi(args):
    spec = _spec_from(args)
    alpha = _resolve_alpha(args, spec)
    t = _time_grid(args, spec)
    _write_rows(args.out, ("t", "chi"), (t, characteristic(spec, alpha, t)),
                args.format)
    return 0


def cmd_dimension(args):
    spec = _spec_from(args)
    if spec.depth < 2:
        raise ParameterError(f"--depth must be at least 2 to estimate, got {spec.depth}")
    fine = spec.base_length * spec.keep_ratio ** spec.depth
    coarse_depth = max(spec.depth - 4, 1)
    coarse = spec.base_length * spec.keep_ratio ** coarse_depth
    alphas, ratios, ratio_fn = dimension_sweep(spec, coarse, fine)
    estimate = _crossing(alphas, ratios, ratio_fn)
    closed_form = hausdorff_dimension(spec.mu)
    if args.format == "json":
        payload = {
            "estimate": estimate,
            "closed_form": closed_form,
            "difference": estimate - closed_form,
            "delta_fine": fine,
            "delta_coarse": coarse,
            "sweep": {"alpha": [float(a) for a in alphas],
                      "ratio": [float(r) for r in ratios]},
        }
        _write_json(args.out, payload)
    else:
        columns = (np.append(alphas, estimate), np.append(ratios, ratio_fn(estimate)))
        _write_rows(args.out, ("alpha", "ratio"), columns, args.format)
    return 0


def _grid_function(args):
    from .calculus import GridFunction

    table, spec = _table_for(args)
    fn = compile_expression(args.function, ("t",))
    return GridFunction.from_function(table, fn), table, spec


def cmd_deriv(args):
    from .calculus import derivative_grid

    f, table, _ = _grid_function(args)
    d = derivative_grid(f)
    _write_rows(args.out, ("t", "f", "deriv"), (f.t, f.values, d.values), args.format)
    return 0


def cmd_integrate(args):
    from .calculus import fractal_integral

    f, table, spec = _grid_function(args)
    a = spec.origin if args.lower is None else args.lower
    b = spec.extent if args.upper is None else args.upper
    value = fractal_integral(f, a, b)
    if args.format == "json":
        _write_json(args.out, {"lower": a, "upper": b, "value": value})
    else:
        _write_rows(args.out, ("lower", "upper", "value"), ([a], [b], [value]),
                    args.format)
    return 0


def _system(args, name):
    return _named_system(name, getattr(args, "spring", 1.0),
                         getattr(args, "field", None))


def _trajectory_columns(traj):
    """Names and columns of a trajectory: t, tau, y, and z if second order."""
    if traj.z is None:
        return ("t", "tau", "y"), (traj.t, traj.tau, traj.y)
    return ("t", "tau", "y", "z"), (traj.t, traj.tau, traj.y, traj.z)


def cmd_solve(args):
    table, spec = _table_for(args)
    flow = _system(args, args.system)
    t_end = spec.extent if args.t_end is None else args.t_end
    opts = {"dtau": args.dtau, "method": args.method,
            "record_every": args.record_every}
    if isinstance(flow, FdeSystem):
        traj = solve_second_order(flow, table, args.y0, args.z0, t_end, **opts)
    else:
        traj = solve_first_order(flow, table, args.y0, t_end, **opts)
    _write_rows(args.out, *_trajectory_columns(traj), args.format)
    return 0


def cmd_stability(args):
    table, spec = _table_for(args)
    flow = _system(args, args.system)
    report = classify_stability(flow, table, horizon=args.horizon, dtau=args.dtau)
    _write_json(args.out, report.to_json())
    return 0


def cmd_verify(args):
    table, spec = _table_for(args)
    verifier = verify_theorem1 if args.theorem == 1 else verify_theorem2
    flow = _system(args, args.system or f"theorem{args.theorem}")
    report = verifier(flow, table, t_end=args.t_end, dtau=args.dtau)
    _write_json(args.out, report.to_json())
    return 0


def cmd_demo(args):
    table, spec = _table_for(args)
    t_end = spec.extent if args.t_end is None else args.t_end
    flow = _system(args, args.which)
    if isinstance(flow, FdeSystem):
        # oscillator energy v(tau) H(y) + z^2 / 2
        traj = solve_second_order(flow, table, args.y0, args.z0, t_end,
                                  dtau=args.dtau)
        energy = (_apply(flow.v, traj.tau) * _apply(flow.restoring_integral, traj.y)
                  + 0.5 * traj.z * traj.z)
        names = ("t", "tau", "y", "z", "energy")
        columns = (traj.t, traj.tau, traj.y, traj.z, energy)
    else:
        # example1, the one first order demo, has the closed form exp(-tau)
        runs = []
        for z0 in args.y0_list or [1.0, 0.5]:
            traj = solve_first_order(flow, table, z0, t_end, dtau=args.dtau)
            runs.append((np.full(len(traj), z0), traj.t, traj.tau, traj.y,
                         example1_exact(z0, traj.tau)))
        names = ("y0", "t", "tau", "y", "y_exact")
        columns = [np.concatenate(col) for col in zip(*runs)]
    _write_rows(args.out, names, columns, args.format)
    return 0


def _add_common(p, depth, *, alpha=True, t0=True):
    p.add_argument("--mu", type=float, default=0.2,
                   help="cut fraction of the middle interval, in (0, 1)")
    p.add_argument("--depth", type=int, default=depth,
                   help=f"construction depth (default {depth})")
    p.add_argument("--origin", type=float, default=0.0,
                   help="left end of the base interval")
    p.add_argument("--extent", type=float, default=1.0,
                   help="right end of the base interval")
    if alpha:
        p.add_argument("--alpha", default="auto",
                       help="fractional order in (0, 1], or 'auto' to estimate")
    if t0:
        p.add_argument("--t0", type=float, default=None,
                       help="staircase anchor (defaults to the origin)")
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fractalcalc",
        description="Construction, calculus and stability tools for "
                    "Cantor-like sets in the staircase clock.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cantor", help="list construction intervals per level")
    _add_common(p, 6, alpha=False, t0=False)
    p.set_defaults(func=cmd_cantor)

    p = sub.add_parser("staircase", help="sample the integral staircase")
    _add_common(p, 10)
    p.add_argument("--samples", type=int, default=1001)
    p.add_argument("--classical", action="store_true",
                   help="identity clock on the plain interval")
    p.set_defaults(func=cmd_staircase)

    p = sub.add_parser("chi", help="sample the characteristic of the set")
    _add_common(p, 10, t0=False)
    p.add_argument("--samples", type=int, default=1001)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("dimension", help="estimate the mass scaling dimension")
    _add_common(p, 16, alpha=False, t0=False)
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("deriv", help="differentiate an expression on the set")
    _add_common(p, 12)
    p.add_argument("--function", required=True,
                   help="expression in t, e.g. 't**2'")
    p.set_defaults(func=cmd_deriv)

    p = sub.add_parser("integrate", help="integrate an expression over the set")
    _add_common(p, 12)
    p.add_argument("--function", required=True,
                   help="expression in t, e.g. 't**2'")
    p.add_argument("--lower", type=float, default=None)
    p.add_argument("--upper", type=float, default=None)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("solve", help="integrate a system in the staircase clock")
    _add_common(p, 12)
    p.add_argument("--system", default="example1",
                   choices=("example1", "example2", "example3", "theorem1",
                            "theorem2", "custom-first"))
    p.add_argument("--field", default=None,
                   help="expression in y for custom-first; write one that "
                        "starts with '-' as --field=-y")
    p.add_argument("--y0", type=float, default=1.0)
    p.add_argument("--z0", type=float, default=0.0)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--dtau", type=float, default=1e-3)
    p.add_argument("--method", choices=("rk4", "euler"), default="rk4")
    p.add_argument("--record-every", dest="record_every", type=int, default=1)
    p.add_argument("--spring", type=float, default=1.0)
    p.add_argument("--classical", action="store_true",
                   help="identity clock on the plain interval")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("stability", help="classify an equilibrium empirically")
    _add_common(p, 12)
    p.add_argument("--system", default="example1",
                   choices=("example1", "example2", "example3", "theorem1"))
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--dtau", type=float, default=1e-3)
    p.add_argument("--spring", type=float, default=1.0)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("verify", help="run a certificate verifier")
    _add_common(p, 12)
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--system", default=None,
                   choices=("theorem1", "theorem2", "example2"),
                   help="system to verify (defaults per theorem)")
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--dtau", type=float, default=1e-3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="reproduce a worked example as data")
    _add_common(p, 12)
    p.add_argument("which", choices=("example1", "example2", "example3"))
    p.add_argument("--y0", type=float, default=1.0)
    p.add_argument("--z0", type=float, default=0.0)
    p.add_argument("--y0-list", dest="y0_list", type=float, nargs="*",
                   default=None, help="initial values for example1")
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--dtau", type=float, default=1e-3)
    p.add_argument("--spring", type=float, default=1.0)
    p.add_argument("--classical", action="store_true",
                   help="identity clock on the plain interval")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericalBlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        traj = exc.trajectory
        if traj is not None and args.out != "-":
            _write_rows(args.out, *_trajectory_columns(traj), args.format)
            print(f"partial trajectory written to {args.out}", file=sys.stderr)
        return RUNTIME_ERROR
    except FractalCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except BrokenPipeError:
        # downstream reader closed the pipe (e.g. `| head`); not our failure
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
