"""Command line front end.

Every subcommand computes one artifact (interval list, staircase samples,
dimension estimate, solved trajectory, stability report) and returns it,
as a table of named columns or as a JSON payload.  ``main`` writes it as
CSV or JSON to --out, or to stdout with --out -.  Numeric CSV cells use
twelve significant digits so repeated runs are byte-identical.
"""

import argparse
import json
import os
import sys
from itertools import chain

import numpy as np

from .calculus import GridFunction, derivative_grid, fractal_integral
from .cantor import CantorSpec, _max_samples, hausdorff_dimension, iter_levels
from .errors import FractalCalcError, ParameterError, _count
from .expressions import compile_expression
from .fde import FdeSystem, _apply, solve_first_order, solve_second_order
from .lyapunov import classify_stability, verify_theorem1, verify_theorem2
from .staircase import (_crossing, build_staircase, characteristic, dimension_sweep,
                        eval_staircase)
from .systems import _NAMED_SYSTEMS, example1_exact

USAGE_ERROR = 2
RUNTIME_ERROR = 3
# rows of CSV formatted and written at a time
_CHUNK_ROWS = 4096


def _write(path, result, fmt):
    """Write a command's result to ``path``, or to stdout for "-".

    A (names, columns) pair is a table of equal-length columns, written in
    ``fmt``: integer columns as integers, every other column as floats.  As
    CSV it goes out in chunks of _CHUNK_ROWS rows, so the text in flight
    stays small however long the table.  A dict is a JSON payload, written
    as JSON.
    """
    if isinstance(result, tuple):
        names, columns = result
        arrays = [arr if arr.dtype.kind in "iu" else arr.astype(float, copy=False)
                  for arr in map(np.asarray, columns)]
        if fmt == "json":
            result = {"columns": list(names),
                      "rows": [list(row) for row in zip(*(a.tolist() for a in arrays))]}
        else:
            chunks = _csv_chunks(names, arrays)
    if isinstance(result, dict):
        chunks = [json.dumps(result, indent=2) + "\n"]
    if path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _csv_chunks(names, arrays):
    """The header line, then the rows, _CHUNK_ROWS at a time.

    Each chunk is one %-format of the row template repeated: "%d" for an
    integer cell, "%.12g" for a float, the same text as str and
    "{:.12g}".format.
    """
    yield ",".join(names) + "\n"
    row = ",".join("%d" if a.dtype.kind in "iu" else "%.12g" for a in arrays) + "\n"
    for start in range(0, len(arrays[0]), _CHUNK_ROWS):
        cols = [a[start:start + _CHUNK_ROWS].tolist() for a in arrays]
        yield (row * len(cols[0])) % tuple(chain.from_iterable(zip(*cols)))


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
    levels = list(iter_levels(_spec_from(args)))
    columns = (np.concatenate([np.full(len(iset), level) for level, iset in levels]),
               np.concatenate([np.arange(len(iset)) for _, iset in levels]),
               np.concatenate([iset.left for _, iset in levels]),
               np.concatenate([iset.right for _, iset in levels]))
    return ("level", "index", "left", "right"), columns


def cmd_staircase(args):
    table, spec = _table_for(args)
    t = _time_grid(args, spec)
    return ("t", "s"), (t, eval_staircase(table, t))


def cmd_chi(args):
    spec = _spec_from(args)
    alpha = _resolve_alpha(args, spec)
    t = _time_grid(args, spec)
    return ("t", "chi"), (t, characteristic(spec, alpha, t))


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
        return {
            "estimate": estimate,
            "closed_form": closed_form,
            "difference": estimate - closed_form,
            "delta_fine": fine,
            "delta_coarse": coarse,
            "sweep": {"alpha": [float(a) for a in alphas],
                      "ratio": [float(r) for r in ratios]},
        }
    return ("alpha", "ratio"), (np.append(alphas, estimate),
                                np.append(ratios, ratio_fn(estimate)))


def _grid_function(args):
    table, spec = _table_for(args)
    fn = compile_expression(args.function, ("t",))
    return GridFunction.from_function(table, fn), spec


def cmd_deriv(args):
    f, _ = _grid_function(args)
    return ("t", "f", "deriv"), (f.t, f.values, derivative_grid(f).values)


def cmd_integrate(args):
    f, spec = _grid_function(args)
    a = spec.origin if args.lower is None else args.lower
    b = spec.extent if args.upper is None else args.upper
    value = fractal_integral(f, a, b)
    if args.format == "json":
        return {"lower": a, "upper": b, "value": value}
    return ("lower", "upper", "value"), ([a], [b], [value])


def _system(args, name):
    """The flow a command line system name stands for."""
    return _NAMED_SYSTEMS[name](getattr(args, "spring", 1.0), getattr(args, "field", None))


def _trajectory_columns(traj):
    """Names and columns of a trajectory: t, tau, y, and z if second order."""
    if traj.z is None:
        return ("t", "tau", "y"), (traj.t, traj.tau, traj.y)
    return ("t", "tau", "y", "z"), (traj.t, traj.tau, traj.y, traj.z)


def _solver(args, name, **opts):
    """The named flow, and a function of y0 that solves it on the command's table.

    The table is built once; each solve runs to --t-end (the extent unless
    given) with --dtau and ``opts``, from --z0 too for a second order flow.
    """
    table, spec = _table_for(args)
    flow = _system(args, name)
    t_end = spec.extent if args.t_end is None else args.t_end
    if isinstance(flow, FdeSystem):
        return flow, lambda y0: solve_second_order(flow, table, y0, args.z0, t_end,
                                                   dtau=args.dtau, **opts)
    return flow, lambda y0: solve_first_order(flow, table, y0, t_end,
                                              dtau=args.dtau, **opts)


def cmd_solve(args):
    _, solve = _solver(args, args.system, method=args.method,
                       record_every=args.record_every)
    return _trajectory_columns(solve(args.y0))


def cmd_stability(args):
    table, _ = _table_for(args)
    flow = _system(args, args.system)
    return classify_stability(flow, table, horizon=args.horizon, dtau=args.dtau).to_json()


def cmd_verify(args):
    table, _ = _table_for(args)
    verifier = verify_theorem1 if args.theorem == 1 else verify_theorem2
    flow = _system(args, args.system or f"theorem{args.theorem}")
    return verifier(flow, table, t_end=args.t_end, dtau=args.dtau).to_json()


def cmd_demo(args):
    flow, solve = _solver(args, args.which)
    if isinstance(flow, FdeSystem):
        # oscillator energy v(tau) H(y) + z^2 / 2
        traj = solve(args.y0)
        energy = (_apply(flow.v, traj.tau) * _apply(flow.restoring_integral, traj.y)
                  + 0.5 * traj.z * traj.z)
        return ("t", "tau", "y", "z", "energy"), (traj.t, traj.tau, traj.y, traj.z, energy)
    # example1, the one first order demo, has the closed form exp(-tau)
    runs = []
    for y0 in args.y0_list or [1.0, 0.5]:
        traj = solve(y0)
        runs.append((np.full(len(traj), y0), traj.t, traj.tau, traj.y,
                     example1_exact(y0, traj.tau)))
    return ("y0", "t", "tau", "y", "y_exact"), [np.concatenate(col) for col in zip(*runs)]


# flags that more than one subcommand takes, each declared here once
_FLAGS = {
    "--mu": {"type": float, "default": 0.2,
             "help": "cut fraction of the middle interval, in (0, 1)"},
    "--origin": {"type": float, "default": 0.0, "help": "left end of the base interval"},
    "--extent": {"type": float, "default": 1.0, "help": "right end of the base interval"},
    "--alpha": {"default": "auto",
                "help": "fractional order in (0, 1], or 'auto' to estimate"},
    "--t0": {"type": float, "default": None,
             "help": "staircase anchor (defaults to the origin)"},
    "--out": {"default": "-", "help": "output path, or - for stdout"},
    "--format": {"choices": ("csv", "json"), "default": "csv", "help": "output format"},
    "--samples": {"type": int, "default": 1001},
    "--function": {"required": True, "help": "expression in t, e.g. 't**2'"},
    "--y0": {"type": float, "default": 1.0},
    "--z0": {"type": float, "default": 0.0},
    "--t-end": {"dest": "t_end", "type": float, "default": None},
    "--dtau": {"type": float, "default": 1e-3},
    "--spring": {"type": float, "default": 1.0},
    "--classical": {"action": "store_true", "help": "identity clock on the plain interval"},
}


def _command(sub, name, help, func, depth, *flags):
    """Add the subcommand ``name``, run by ``func``, and return its parser.

    It takes --depth with its own default, the base interval flags, the
    shared ``flags``, --out and --format.
    """
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--depth", type=int, default=depth,
                   help=f"construction depth (default {depth})")
    for flag in ("--mu", "--origin", "--extent", *flags, "--out", "--format"):
        p.add_argument(flag, **_FLAGS[flag])
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fractalcalc",
        description="Construction, calculus and stability tools for "
                    "Cantor-like sets in the staircase clock.")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "cantor", "list construction intervals per level", cmd_cantor, 6)
    _command(sub, "staircase", "sample the integral staircase", cmd_staircase, 10,
             "--alpha", "--t0", "--samples", "--classical")
    _command(sub, "chi", "sample the characteristic of the set", cmd_chi, 10,
             "--alpha", "--samples")
    _command(sub, "dimension", "estimate the mass scaling dimension", cmd_dimension, 16)
    _command(sub, "deriv", "differentiate an expression on the set", cmd_deriv, 12,
             "--alpha", "--t0", "--function")

    p = _command(sub, "integrate", "integrate an expression over the set", cmd_integrate,
                 12, "--alpha", "--t0", "--function")
    p.add_argument("--lower", type=float, default=None)
    p.add_argument("--upper", type=float, default=None)

    p = _command(sub, "solve", "integrate a system in the staircase clock", cmd_solve, 12,
                 "--alpha", "--t0", "--y0", "--z0", "--t-end", "--dtau", "--spring",
                 "--classical")
    p.add_argument("--system", default="example1", choices=tuple(_NAMED_SYSTEMS))
    p.add_argument("--field", default=None,
                   help="expression in y for custom-first; write one that "
                        "starts with '-' as --field=-y")
    p.add_argument("--method", choices=("rk4", "euler"), default="rk4")
    p.add_argument("--record-every", dest="record_every", type=int, default=1)

    p = _command(sub, "stability", "classify an equilibrium empirically", cmd_stability,
                 12, "--alpha", "--t0", "--dtau", "--spring")
    p.add_argument("--system", default="example1",
                   choices=("example1", "example2", "example3", "theorem1"))
    p.add_argument("--horizon", type=float, default=20.0)

    p = _command(sub, "verify", "run a certificate verifier", cmd_verify, 12,
                 "--alpha", "--t0", "--t-end", "--dtau")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--system", default=None,
                   choices=("theorem1", "theorem2", "example2"),
                   help="system to verify (defaults per theorem)")

    p = _command(sub, "demo", "reproduce a worked example as data", cmd_demo, 12,
                 "--alpha", "--t0", "--y0", "--z0", "--t-end", "--dtau", "--spring",
                 "--classical")
    p.add_argument("which", choices=("example1", "example2", "example3"))
    p.add_argument("--y0-list", dest="y0_list", type=float, nargs="*",
                   default=None, help="initial values for example1")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # downstream reader closed the pipe (e.g. `| head`); not our failure
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except OSError as exc:  # after BrokenPipeError, one of its subclasses
        print(f"error: cannot write --out {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return RUNTIME_ERROR


def _run(args):
    """Run the parsed command, write its result and return the exit code.

    An OSError from writing --out propagates, for ``main`` to report.
    """
    try:
        _write(args.out, args.func(args), args.format)
        return 0
    except FractalCalcError as exc:  # exit code 2 for a ParameterError, an ExpressionError too
        print(f"error: {exc}", file=sys.stderr)
        traj = getattr(exc, "trajectory", None)  # a blow-up's partial trajectory
        if traj is not None and args.out != "-":
            _write(args.out, _trajectory_columns(traj), args.format)
            print(f"partial trajectory written to {args.out}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, ParameterError) else RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
