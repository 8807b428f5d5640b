import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcalc.cli import main


def run_cli(argv):
    return main(list(argv))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fractalcalc", "cantor", "--depth", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "level,index,left,right"
    assert lines[1] == "1,0,0,0.4"


def test_cantor_row_count(tmp_path):
    out = tmp_path / "levels.csv"
    assert run_cli(["cantor", "--depth", "6", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 1 + sum(2 ** m for m in range(1, 7))


def test_cantor_json_format(tmp_path):
    out = tmp_path / "levels.json"
    assert run_cli(["cantor", "--depth", "1", "--format", "json",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["level", "index", "left", "right"]
    assert payload["rows"][0] == [1, 0, 0.0, 0.4]


def test_staircase_values(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(["staircase", "--depth", "10", "--samples", "5",
                    "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,s"
    last = rows[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == pytest.approx(0.9205501437736353, rel=1e-9)


def test_classical_staircase_is_identity(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(["staircase", "--classical", "--samples", "3",
                    "--out", str(out)]) == 0
    for line in out.read_text().strip().splitlines()[1:]:
        t, s = (float(x) for x in line.split(","))
        assert s == t


def test_dimension_estimate(tmp_path):
    out = tmp_path / "dim.json"
    assert run_cli(["dimension", "--mu", "0.2", "--depth", "14",
                    "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["estimate"] - 0.75) <= 0.02
    assert abs(payload["estimate"] - payload["closed_form"]) <= 1e-6


def test_solve_linear_decay(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli(["solve", "--system", "example1", "--t-end", "1",
                    "--record-every", "100", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,tau,y"
    t, tau, y = (float(x) for x in rows[-1].split(","))
    assert y == pytest.approx(2.718281828 ** -tau, rel=1e-6)


def test_verify_theorem1(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--theorem", "1", "--extent", "60",
                    "--dtau", "0.01", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["max_drift"] <= 1e-10


def test_stability_classification(tmp_path):
    out = tmp_path / "stab.json"
    assert run_cli(["stability", "--system", "example1", "--extent", "60",
                    "--horizon", "20", "--dtau", "0.01",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["classification"] == "asymptotically-stable"


def test_demo_emits_exact_column(tmp_path):
    out = tmp_path / "demo.csv"
    assert run_cli(["demo", "example1", "--t-end", "1", "--dtau", "0.01",
                    "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "y0,t,tau,y,y_exact"


def test_bad_mu_is_usage_error():
    assert run_cli(["staircase", "--mu", "1.5"]) == 2


def test_bad_expression_is_usage_error():
    assert run_cli(["deriv", "--function", "__import__('os')",
                    "--depth", "6"]) == 2


def test_unknown_alpha_keyword_is_usage_error():
    assert run_cli(["staircase", "--alpha", "brisk"]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_is_runtime_error_with_partial_output(tmp_path):
    out = tmp_path / "partial.csv"
    code = run_cli(["solve", "--system", "custom-first", "--field", "y*y",
                    "--y0", "3", "--t-end", "60", "--extent", "60",
                    "--depth", "10", "--out", str(out)])
    assert code == 3
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,tau,y"
    assert len(rows) > 2
    # a power that overflows a Python float is inf on np.float64: a blow-up
    # too, not a usage error
    for field, y0 in [("y**400", "10"), ("y**3", "1e11")]:
        code = run_cli(["solve", "--system", "custom-first", f"--field={field}",
                        f"--y0={y0}", "--depth", "8", "--out", str(out)])
        assert code == 3, field
        assert out.read_text().startswith("t,tau,y\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--t-end", "nan"],
    ["stability", "--horizon", "nan"],
    ["solve", "--dtau", "inf"],
    ["solve", "--dtau", "1e-15"],
    ["staircase", "--samples", "-1"],
    ["chi", "--samples", "-1"],
    ["deriv", "--function", "t*10**400"],
], ids=["solve-t-end-nan", "stability-horizon-nan", "solve-dtau-inf",
        "solve-dtau-tiny", "staircase-samples-negative", "chi-samples-negative",
        "deriv-function-overflow"])
def test_bad_horizons_and_steps_are_usage_errors(argv, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


_SPECIAL = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])
# bounded so that no draw runs more than a few hundred steps
_FLAGS = {
    "--t-end": st.one_of(_SPECIAL, st.floats(-0.5, 1.5)),
    "--dtau": st.one_of(_SPECIAL, st.floats(1e-2, 2.0)),
    "--horizon": st.one_of(_SPECIAL, st.floats(-1.0, 5.0)),
    "--y0": st.one_of(_SPECIAL, st.floats(-1e3, 1e3)),
    "--z0": st.one_of(_SPECIAL, st.floats(-1e3, 1e3)),
    "--record-every": st.integers(-2, 5),
}
_COMMANDS = {
    "solve": (["solve", "--system", "example1"], ["solve", "--system", "example2"],
              ("--t-end", "--dtau", "--y0", "--z0", "--record-every")),
    "stability": (["stability", "--system", "example1"],
                  ["stability", "--system", "example3"], ("--horizon", "--dtau")),
    "demo": (["demo", "example1"], ["demo", "example3"],
             ("--t-end", "--dtau", "--y0", "--z0")),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120)
@given(data=st.data())
def test_numeric_flags_end_in_a_documented_exit_code(data):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)), label="command")
    *prefixes, flags = _COMMANDS[command]
    argv = list(data.draw(st.sampled_from(prefixes), label="prefix"))
    argv += ["--depth", "8", "--out", "-"]
    for flag in flags:
        if data.draw(st.booleans(), label=f"set {flag}"):
            # the = form, since argparse reads a bare "-inf" as an option
            argv.append(f"{flag}={data.draw(_FLAGS[flag], label=flag)!r}")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    assert code in (0, 2, 3), argv


def test_repeated_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["solve", "--system", "example2", "--t-end", "1",
            "--dtau", "0.01", "--depth", "10"]
    assert run_cli(argv + ["--out", str(first)]) == 0
    assert run_cli(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_theorem2_runs_the_named_unforced_toy(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--theorem", "2", "--system", "theorem1",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["forced"] is False


@pytest.mark.parametrize("theorem,system", [("1", "bogus"), ("2", "bogus"),
                                            ("1", "example1")])
def test_verify_rejects_unknown_systems(theorem, system):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--theorem", theorem, "--system", system])
    assert exc.value.code == 2


def test_verify_theorem1_rejects_the_forced_toy(capsys):
    assert run_cli(["verify", "--theorem", "1", "--system", "theorem2"]) == 2
    assert "unforced systems" in capsys.readouterr().err


# sha256 of stdout at every default configuration of the solver commands,
# with the expected exit code; example2 fails C6, so its theorem 2 run exits
# 3 with empty output.  A change that alters the numbers on purpose
# re-captures these digests.
GOLDEN = [
    (["solve", "--system", "example1"], 0,
     "44430a61918a787b832ec5c1b735fbbc672ca7c6c3cda3f68bd7d44acdcffccd"),
    (["solve", "--system", "example2"], 0,
     "c23fab42e4e31ae26e5562b93e87ba026d0eb5d5ead8fc4b57429a25643f93d3"),
    (["solve", "--system", "example3"], 0,
     "c7e7ce06341360b2bd3c7752525e2638849372281adeb952f9754d16c57e9168"),
    (["solve", "--system", "theorem1"], 0,
     "0f0f002bfa2f640b3e3880a16f6d870ffc08cfcf44bbb5affaeb5f9411df9194"),
    (["solve", "--system", "theorem2"], 0,
     "c8585bde8b0f28997e323353a1ce5a6b7292d3e84b1bca729c09b0456930f362"),
    (["solve", "--system", "custom-first", "--field=-y"], 0,
     "44430a61918a787b832ec5c1b735fbbc672ca7c6c3cda3f68bd7d44acdcffccd"),
    (["stability", "--system", "example1"], 0,
     "9990dd1cdad20c9e6a13fc78df99bf064587e163ba84ee465c354257e43c8534"),
    (["stability", "--system", "example2"], 0,
     "466a64794c0f93187b5f1622f37269124b379de1ec035b85fa9f78c6df6cdcfc"),
    (["stability", "--system", "example3"], 0,
     "4ab2fcb6a14e02a6e0c33eaf2c385239e2542cf2bb7c790a7f9f7c584701a7c7"),
    (["stability", "--system", "theorem1"], 0,
     "8f5554de4eca3ebb3e78da91f369ac49faa93b2a685d834b709fdae212f3a3ea"),
    (["verify", "--theorem", "1"], 0,
     "8837fe7645a7af6ca82b45f0002ffb3bf427ddeea060f9882d35ab597c3ad360"),
    (["verify", "--theorem", "1", "--system", "example2"], 0,
     "6beaadf0f227fbef3f18e785367ad08fff0a072f2f5cf7ac8f8ac833ec81979d"),
    (["verify", "--theorem", "2"], 0,
     "2e3f3feb8e82b9ad18b70734af1b6f3ac16deea0254c5b64fb5cbb57766124e8"),
    (["verify", "--theorem", "2", "--system", "example2"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["demo", "example1"], 0,
     "7e72361003dd38e82d96e1ad2c1e5d264724110f09e73774f663ae9a2cd4111f"),
    (["demo", "example2"], 0,
     "d5976d18bddacbc21a1eba35e28b2f9f611f731bee1cad6a497e1a076e8aa097"),
    (["demo", "example3"], 0,
     "c368a1d6b8857be00770cfa49ca5324518657708fee15300a1e19e2ea19517e1"),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN,
    ids=["-".join(a for a in argv if not a.startswith("--"))
         for argv, _, _ in GOLDEN])
def test_default_output_is_pinned(argv, code, digest, capsys):
    assert run_cli(argv + ["--out", "-"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
