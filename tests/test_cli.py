import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractalcalc
from fractalcalc.cli import main


def run_cli(argv):
    return main(list(argv))


def test_module_entry_point():
    # the child imports the package this suite imported, installed or not
    src = os.path.dirname(os.path.dirname(fractalcalc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fractalcalc", "cantor", "--depth", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
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


@pytest.mark.parametrize("depth", ["0", "1"])
def test_shallow_dimension_names_the_depth(depth, capsys):
    # the estimate compares depths max(d - 4, 1) and d, so d must exceed 1
    assert run_cli(["dimension", "--depth", depth]) == 2
    err = capsys.readouterr().err
    assert "--depth must be at least 2" in err and "delta" not in err


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
    # and so is an infinite initial value
    for field, y0 in [("y**400", "10"), ("y**3", "1e11"), ("-y", "-inf")]:
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
    ["verify", "--theorem", "1", "--t-end", "0"],
    ["solve", "--y0", "nan"],
], ids=["solve-t-end-nan", "stability-horizon-nan", "solve-dtau-inf",
        "solve-dtau-tiny", "staircase-samples-negative", "chi-samples-negative",
        "deriv-function-overflow", "verify-t-end-zero", "solve-y0-nan"])
def test_bad_horizons_and_steps_are_usage_errors(argv, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


_SPECIAL = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])
# bounded so that no draw runs more than a few hundred steps
_FLAGS = {
    "--mu": st.one_of(_SPECIAL, st.floats(-0.5, 1.5)),
    "--origin": st.one_of(_SPECIAL, st.floats(-2.0, 2.0)),
    "--extent": st.one_of(_SPECIAL, st.floats(-1.0, 3.0)),
    "--alpha": st.one_of(_SPECIAL, st.floats(-0.5, 1.5)),
    "--t0": st.one_of(_SPECIAL, st.floats(-0.5, 1.5)),
    "--samples": st.integers(-2, 50),
    "--lower": st.one_of(_SPECIAL, st.floats(-0.5, 1.5)),
    "--upper": st.one_of(_SPECIAL, st.floats(-0.5, 1.5)),
    "--t-end": st.one_of(_SPECIAL, st.floats(-0.5, 1.5)),
    "--dtau": st.one_of(_SPECIAL, st.floats(1e-2, 2.0)),
    "--horizon": st.one_of(_SPECIAL, st.floats(-1.0, 5.0)),
    "--y0": st.one_of(_SPECIAL, st.floats(-1e3, 1e3)),
    "--z0": st.one_of(_SPECIAL, st.floats(-1e3, 1e3)),
    "--record-every": st.integers(-2, 5),
}
_SET = ("--mu", "--origin", "--extent")
_COMMANDS = {
    "cantor": (["cantor"], _SET),
    "staircase": (["staircase"], _SET + ("--alpha", "--t0", "--samples")),
    "chi": (["chi"], _SET + ("--alpha", "--samples")),
    "dimension": (["dimension"], _SET),
    "deriv": (["deriv", "--function", "t**2"], _SET + ("--alpha", "--t0")),
    "integrate": (["integrate", "--function", "exp(t)"],
                  _SET + ("--alpha", "--t0", "--lower", "--upper")),
    "verify": (["verify", "--theorem", "1"], ["verify", "--theorem", "2"],
               _SET + ("--alpha", "--t0", "--t-end", "--dtau")),
    "solve": (["solve", "--system", "example1"], ["solve", "--system", "example2"],
              ("--t-end", "--dtau", "--y0", "--z0", "--record-every")),
    "stability": (["stability", "--system", "example1"],
                  ["stability", "--system", "example3"], ("--horizon", "--dtau")),
    "demo": (["demo", "example1"], ["demo", "example3"],
             ("--t-end", "--dtau", "--y0", "--z0")),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300)
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
# and of every other subcommand at its defaults, with the expected exit code;
# example2 fails C6, so its theorem 2 run exits 3 with empty output.  A
# change that alters the numbers on purpose re-captures these digests.
GOLDEN = [
    (["solve", "--system", "example1"], 0,
     "f2c6ff9aef4739aaf37db03b8bec31889cc3d944d75ce5a3197510d8a31991b0"),
    (["solve", "--system", "example2"], 0,
     "0b7ba24b44ba525b9c2fa72ae84f110f3b0ebbbc6b785376396c6691fae19632"),
    (["solve", "--system", "example3"], 0,
     "54017532ce456e5295d5bd34359fc32373e09aeefb53b8c6615e3c053bd24e27"),
    (["solve", "--system", "theorem1"], 0,
     "5013bcc69d22308be81d85178f50ad2bc3eb78bc208088809a4fe08786514fd5"),
    (["solve", "--system", "theorem2"], 0,
     "61287f076b4a84f880f83375c6acbbfeec4f90770b12566aa98e3b754ed2aeef"),
    (["solve", "--system", "custom-first", "--field=-y"], 0,
     "f2c6ff9aef4739aaf37db03b8bec31889cc3d944d75ce5a3197510d8a31991b0"),
    (["stability", "--system", "example1"], 0,
     "396b314bd8969d068094f04f1678de88aa2ee3aaf06bf46e0f5f913c427c730c"),
    (["stability", "--system", "example2"], 0,
     "fe1a9d060a16ecede61423c2a1642139efc78eb609fbbb547594a64dc0bb181f"),
    (["stability", "--system", "example3"], 0,
     "696b8c3747c8e516b3449f7cd1c059ba6bff00a2e3ee5838370caaa6a89039d3"),
    (["stability", "--system", "theorem1"], 0,
     "8afe4db72e30ecf79f90e234fad6bcf27002133e0498820f4656f2a1823319fc"),
    (["verify", "--theorem", "1"], 0,
     "bed29d6e6413c2b29ecb2881476337e35ec66116166d492c55a374dda561259a"),
    (["verify", "--theorem", "1", "--system", "example2"], 0,
     "69c64b4fecc3d3e5eba9b923d658a0d8b6b6e878723dfe6550199530db59226a"),
    (["verify", "--theorem", "2"], 0,
     "c080eefd9da2a238eb203ff95fe6e760380f625d3659b679e3e07636843a9737"),
    (["verify", "--theorem", "2", "--system", "example2"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["demo", "example1"], 0,
     "3632d2ff124bc3d6ec4bc101764f535e99e32b9ff64481a1b842a639a1be1388"),
    (["demo", "example2"], 0,
     "5df67b85454a76691e6555c40a0753f3adcfc9091172ac21bf3e346e3cd73a22"),
    (["demo", "example3"], 0,
     "007cec7adb55c3e33910f3a1123be30303f46f63047ae13ad11d7b21ca02ef89"),
    (["cantor"], 0,
     "9b7d22d087903d16162ab68cc939fe04e8c7ae9d9792c51de13b715a1583303d"),
    (["staircase"], 0,
     "be4236fbf79e67ade63ca274e2afa8b5ca7fda73467476d1feeb3d1bcd0ef66c"),
    (["chi"], 0,
     "35be434c0aab86f8c82ffcefb0d0b62a93e434af4d8381de3edd374443189fdf"),
    (["dimension"], 0,
     "61a07ad19cf49d1f17d0e6cc8dfacce8c64e1f97e41b827becd4074767b8dc96"),
    (["deriv", "--function", "t**2"], 0,
     "76849e4d6a4c9f008c16a63bddede17ba5ec13fe0e9a4f8b176ce5bb3d716a24"),
    (["integrate", "--function", "1"], 0,
     "cfc720d7f037f7ab225b9e52e1679d92cb1d122aca46613aab9a420cdbf9bf85"),
    # the extent-60 runs reach the decay fit and the unforced theorem 2 path
    (["stability", "--system", "example1", "--extent", "60"], 0,
     "59daf2d2b61966987c3ed5d8ff06c8ba9f7ae28b0018f22b768a856bbc02a30b"),
    (["stability", "--system", "theorem1", "--extent", "60"], 0,
     "8cf8cfe2b517a2db955659d0a3298a3fcd88503d1b00661130ae3032e11d70e8"),
    (["verify", "--theorem", "2", "--system", "theorem1", "--extent", "60"], 0,
     "536d338ab75bf672639d90bd7b639e53752d5667d955c840b73021b7e6223987"),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN,
    ids=["-".join(a for a in argv if not a.startswith("--"))
         for argv, _, _ in GOLDEN])
def test_default_output_is_pinned(argv, code, digest, capsys):
    assert run_cli(argv + ["--out", "-"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
