"""Self-test of the benchmark: its gates reject wrong results, and the metrics
a run prints are exactly the ones BENCHMARK.json declares.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import fractalcalc as fc  # noqa: E402

import reference  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def table():
    return fc.build_staircase(fc.CantorSpec(mu=wl.MU, depth=8), fc.hausdorff_dimension(wl.MU))


def test_mass_gate_rejects_a_perturbed_table(table):
    assert wl.check_mass(fc, table)["staircase.mass_rel_err"] <= wl.MASS_TOL
    bent = dataclasses.replace(table, s=table.s * (1.0 + 1e-5))
    with pytest.raises(wl.GateFailure):
        wl.check_mass(fc, bent)


def test_query_gates_reject_perturbed_answers():
    alpha = fc.hausdorff_dimension(wl.MU)
    q = wl.deep_queries(10, alpha, np.random.default_rng(0))
    t = fc.build_staircase(fc.CantorSpec(mu=wl.MU, depth=10), alpha)
    iset = fc.generate(fc.CantorSpec(mu=wl.MU, depth=10))
    wl.check_eval(fc, q, fc.eval_staircase(t, q["t"]))
    wl.check_warp(q, fc.warp_time(t, q["tau"]))
    inside = fc.contains(iset, q["t"])
    wl.check_contains(q, inside)
    wl.check_generate(q, iset)
    with pytest.raises(wl.GateFailure):
        wl.check_eval(fc, q, fc.eval_staircase(t, q["t"]) + 1e-5)
    with pytest.raises(wl.GateFailure):
        wl.check_warp(q, fc.warp_time(t, q["tau"]) + 1e-5)
    flipped = inside.copy()
    flipped[0] = not flipped[0]
    with pytest.raises(wl.GateFailure):
        wl.check_contains(q, flipped)


def test_solution_gates_reject_perturbed_values():
    wl.check_exp_decay(1.0, 0.5, math.exp(-0.5))
    with pytest.raises(wl.GateFailure):
        wl.check_exp_decay(1.0, 0.5, math.exp(-0.5) * (1.0 + 1e-5))
    with pytest.raises(wl.GateFailure):
        wl.within("nan", float("nan"), 1.0)


def test_report_gates_reject_wrong_verdicts(table):
    rep = fc.classify_stability(fc.example1_field, table, horizon=2.0, dtau=1e-2)
    with pytest.raises(wl.GateFailure):
        wl.check_label(rep, "unstable-evidence")
    failed = type("Report", (), {"passed": False})()
    with pytest.raises(wl.GateFailure):
        wl.check_theorem1(failed)
    with pytest.raises(wl.GateFailure):
        wl.check_theorem2(failed)
    with pytest.raises(wl.GateFailure):
        wl.check_cli_text(3, "")


def test_reference_scale_uses_the_samples_next_to_a_job():
    nominal = reference.NOMINAL
    ref = reference.Reference(("interpreter", "memory"))
    ref.starts, ref.ends = [0.0, 10.0, 20.0], [1.0, 11.0, 21.0]
    slow = {"interpreter": 2 * nominal["interpreter"], "memory": nominal["memory"]}
    ref.values = [slow, slow, {"interpreter": 1e3, "memory": 1e3}]
    # a job from t=2 to t=9 lies between samples 0 and 1: the interpreter
    # kernel ran at half speed there and the memory kernel at nominal speed
    assert ref.scale(2.0, 9.0) == pytest.approx((0.5 + 1.0) / 2)
    fresh = reference.Reference(("interpreter",))
    fresh.sample()
    fresh.sample()      # within SAMPLE_EVERY_S of the first: skipped
    assert len(fresh.values) == 1


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = _run(ROOT, "--workload", "trajectory", "--seed", "0", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "certify", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
