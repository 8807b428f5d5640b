"""fractalcalc benchmark: one workload, one fresh process, one job at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

The run imports ``fractalcalc`` from ``src/`` with numpy/BLAS pinned to one
thread, sets the workload up (package import, seeded inputs, one warm-up
call) and then runs passes over the workload's job mix, in a closed loop, for
``--seconds``.  Every job's result goes through a correctness gate.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones in BENCHMARK.json, with times scaled to a nominal
machine speed by the reference kernels timed next to each job (see
reference.py; raw times are logged too); with ``--trace 1`` the first half
of the time runs untraced and the second half traced, and the metrics are
the per-layer ones.  Lines before the last start with ``#`` and give the
environment, per-job-kind timings with sample counts, and (traced runs)
the check of each prediction in perfbench/predictions.json.
"""

import os

# pin BLAS and OpenMP pools before numpy is first imported
BLAS_PIN = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def log(line):
    print("# " + line, flush=True)


def import_package():
    """Import fractalcalc afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "fractalcalc" or n.startswith("fractalcalc.")]:
        del sys.modules[name]
    fc = importlib.import_module("fractalcalc")
    importlib.import_module("fractalcalc.cli")
    origin = Path(fc.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"fractalcalc imported from {origin}, not from {SRC}")
    return fc


def set_up(workload, seed):
    """One timed set-up: fresh package import, seeded inputs, warm-up call."""
    gc.collect()
    start = time.perf_counter()
    fc = import_package()
    state = workload.setup(fc, np.random.default_rng(seed))
    return fc, state, (start, time.perf_counter())


class Runner:
    """Runs passes and keeps per-job timings, gate outcomes and observations."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.fc = self.state = None
        self.setups = []        # (start, end)
        self.rng = np.random.default_rng([seed, 1])
        self.reference = reference.Reference(workload.reference)
        self.jobs = []          # (kind, name, start, end, ok)
        self.errors = {}
        self.counts = {}
        self.pass_times = []

    def set_up(self):
        """Set the workload up afresh; the inputs are the same every time."""
        self.fc = self.state = None
        self.reference.sample()
        self.fc, self.state, span = set_up(self.workload, self.seed)
        self.setups.append(span)
        self.observe(self.state.get("observed", {}))

    def observe(self, observed):
        for key, value in observed.items():
            if key in workloads.ERROR_METRICS:
                self.errors[key] = max(self.errors.get(key, 0.0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value

    def expected(self, name):
        """Median time of the earlier runs of job ``name``, or None."""
        times = [end - start for _kind, n, start, end, _ok in self.jobs if n == name]
        return statistics.median(times) if times else None

    def run_pass(self, deadline=None):
        """Run one pass; with a deadline, stop before a job that would miss it.

        Returns False if the pass stopped early.  Only jobs that already ran
        once can be skipped, so the first pass always completes.
        """
        total = 0.0
        for job in self.workload.make_pass(self.fc, self.state, self.rng):
            self.reference.sample()
            known = self.expected(job.name)
            if deadline is not None and known is not None \
                    and time.perf_counter() + 1.05 * known > deadline:
                return False
            start = time.perf_counter()
            try:
                result, failure = job.run(), None
            except Exception:       # a failing job is counted, the run goes on
                result, failure = None, traceback.format_exc()
            end = time.perf_counter()
            total += end - start
            if failure is None:
                try:
                    self.observe(job.check(result))
                except workloads.GateFailure as exc:
                    failure = f"gate failed: {job.name}: {exc}"
                except Exception:   # output too malformed for the gate to read
                    failure = traceback.format_exc()
            result = None           # free a large result before the next job
            if failure is not None:
                print(failure, file=sys.stderr)
            self.jobs.append((job.kind, job.name, start, end, failure is None))
        self.pass_times.append(total)
        return True

    def run_for(self, seconds, untraced=False):
        """Closed loop of passes for ``seconds``.

        Untraced runs stop between jobs, so a long pass does not leave the
        end of the run unmeasured, and set the workload up afresh after
        every pass, so the set-up samples spread over the run instead of one
        moment of it.  Traced runs stop between whole passes, because their
        metrics are averages per pass.
        """
        deadline = time.perf_counter() + seconds
        first = len(self.pass_times)
        while True:
            if not self.run_pass(deadline if untraced else None):
                return
            if untraced:
                setup_s = statistics.median(end - start for start, end in self.setups)
                if time.perf_counter() + 1.05 * setup_s > deadline:
                    return
                self.set_up()
            elif time.perf_counter() + 1.05 * statistics.median(self.pass_times[first:]) > deadline:
                return

    def seconds(self, start, end, scaled):
        if not scaled:
            return end - start
        return (end - start) * self.reference.scale(start, end)

    def times(self, kind, scaled=False):
        return [self.seconds(start, end, scaled)
                for k, _name, start, end, _ok in self.jobs if k == kind]

    def pass_median(self, scaled=False):
        """One pass with every job at its median time over the run."""
        by_name = {}
        for _kind, name, start, end, _ok in self.jobs:
            by_name.setdefault(name, []).append(self.seconds(start, end, scaled))
        return sum(statistics.median(v) for v in by_name.values())

    def setup_median(self, scaled=False):
        return statistics.median(self.seconds(start, end, scaled) for start, end in self.setups)

    @property
    def failed(self):
        return sum(1 for *_, ok in self.jobs if not ok)


def environment(seed):
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "blas_pin": BLAS_PIN}


def summarize_jobs(runner):
    kinds = sorted({k for k, *_ in runner.jobs})
    for kind in kinds:
        times, scaled = runner.times(kind), runner.times(kind, scaled=True)
        log(f"job {kind}: n={len(times)} median_s={statistics.median(times):.6f} "
            f"min_s={min(times):.6f} max_s={max(times):.6f} "
            f"scaled_median_s={statistics.median(scaled):.6f} "
            f"samples_s={json.dumps([round(t, 6) for t in times])} "
            f"scaled_samples_s={json.dumps([round(t, 6) for t in scaled])}")
    attempted = len(runner.jobs)
    log(f"error_rate {runner.failed}/{attempted} = {runner.failed / attempted:.6g}")
    for key in sorted(runner.errors):
        log(f"observed {key} = {runner.errors[key]:.6g}")


def query_rate(runner):
    points = workloads.QUERY_POINTS * len(runner.times("query"))
    return points / sum(runner.times("query"))


def end_to_end(runner):
    """End-to-end values from untraced passes, times at the nominal speed."""
    kind = runner.workload.core_kind

    def values(scaled):
        return {"setup_s": runner.setup_median(scaled), "wall_s": runner.pass_median(scaled),
                "core_s": statistics.median(runner.times(kind, scaled))}

    raw, scaled = values(False), values(True)
    ref = runner.reference
    log(f"passes={len(runner.pass_times)} core_kind={kind} "
        f"core samples={len(runner.times(kind))} setup samples={len(runner.setups)}")
    log(f"reference kernel medians_s={json.dumps(ref.medians())} samples={len(ref.values)} "
        f"nominal_s={json.dumps({k: reference.NOMINAL[k] for k in ref.kernels})}")
    log("raw (unscaled) " + " ".join(f"{k}={v:.6f}" for k, v in raw.items()))
    if runner.workload.name == "deep_staircase":
        log(f"query_pts_per_s={query_rate(runner):.6g} (raw)")
    scaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return scaled


def check_predictions(name, layer, wall):
    """Confirm or correct each prediction for this workload from the trace."""
    with open(HERE / "predictions.json", encoding="utf-8") as fh:
        predictions = json.load(fh)
    share = {mod: layer[f"{mod}.self_s"] / wall for mod in tracing.MODULES}
    dominant = max(share, key=share.get)
    expected = predictions["dominant_layer"][name]
    verdict = "confirmed" if dominant == expected else f"corrected: {dominant} dominates"
    log(f"prediction dominant_layer={expected}: {verdict} (self-time shares "
        + ", ".join(f"{m}={s:.3f}" for m, s in sorted(share.items(), key=lambda x: -x[1])) + ")")
    for item in predictions["layer_metrics"]:
        if item["workload"] != name:
            continue
        value = layer[item["metric"]]
        if item["expect"] == "active":
            ok = value > 0 and (item.get("min_share") is None
                                or value / wall >= item["min_share"])
        else:
            ok = value / wall < item["max_share"] if item["metric"].endswith("_s") \
                else value == 0
        share = f", share of traced wall {value / wall:.4f}" if item["metric"].endswith("_s") else ""
        log(f"prediction {item['metric']} {item['expect']} -> {item['moves']}: "
            f"{'confirmed' if ok else 'corrected'} (value {value:.6g}{share})")


def per_layer(runner, tracer, untraced_passes, traced_passes):
    """Per-layer metrics from the traced passes, plus the tracing overhead."""
    layer = tracer.layer_metrics(len(traced_passes))
    traced_wall = statistics.fmean(traced_passes)
    untraced_wall = statistics.fmean(untraced_passes)
    layer["trace.wall_s"] = traced_wall
    layer["trace.untraced_wall_s"] = untraced_wall
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    layer["trace.accounted_share"] = layer["trace.self_total_s"] / traced_wall
    layer["cli.bytes_out"] = runner.counts.get("cli.bytes_out", 0) / len(runner.pass_times)
    for key in workloads.ERROR_METRICS:
        layer[key] = runner.errors.get(key, 0.0)
    log(f"traced passes={len(traced_passes)} untraced passes={len(untraced_passes)} "
        f"computed (not measured) counters: {', '.join(tracing.COMPUTED)}")
    check_predictions(runner.workload.name, layer, traced_wall)
    return layer


def declared_metrics(section):
    """Metric names and units of one BENCHMARK.json section, in order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fractalcalc" / "__init__.py").is_file():
        print(f"error: no fractalcalc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    log("env " + json.dumps(env, sort_keys=True))

    runner = Runner(workload, args.seed)
    for _ in range(SETUP_REPEATS):
        runner.set_up()
    if args.trace == 0:
        runner.run_for(args.seconds, untraced=True)
        runner.reference.sample(force=True)
        values = end_to_end(runner)
    else:
        half = args.seconds / 2.0
        runner.run_for(half)
        untraced = list(runner.pass_times)
        tracer = tracing.Tracer()
        tracer.install(runner.fc)
        try:
            runner.run_for(half)
        finally:
            tracer.restore()
        traced = runner.pass_times[len(untraced):]
        values = per_layer(runner, tracer, untraced, traced)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans_{args.workload}_{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"env": env, "passes": len(traced), "spans": tracer.dump()}, fh)
    declared = declared_metrics("end_to_end" if args.trace == 0 else "per_layer")
    if set(values) != set(declared):
        print(f"error: computed metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(declared))}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    summarize_jobs(runner)
    result = {"correct": runner.failed == 0, "attempted": len(runner.jobs),
              "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
