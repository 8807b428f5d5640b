import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractalcalc
from fractalcalc import cli
from fractalcalc.cli import build_parser, main


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


def test_a_closed_pipe_exits_1_without_a_traceback():
    # a reader that stops early, like `| head -2`: the table is far larger
    # than a pipe's buffer, so the writer meets the closed pipe
    src = os.path.dirname(os.path.dirname(fractalcalc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "fractalcalc", "deriv", "--function", "t", "--depth", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path))
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head[0].startswith("t,") and head[1].count(",") == head[0].count(",")
    assert "Traceback" not in err and "Error" not in err


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["staircase"],
    ["solve", "--system", "custom-first", "--field=y**3", "--y0=1e11", "--depth", "8"],
])
def test_unwritable_out_is_runtime_error(argv, tmp_path, capsys):
    # a missing directory and a directory, for a table and for a blow-up's
    # partial trajectory
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert run_cli(argv + ["--out", str(out)]) == 3
        assert f"error: cannot write --out {out}: " in capsys.readouterr().err


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


def test_custom_first_without_a_field_is_usage_error(capsys):
    assert run_cli(["solve", "--system", "custom-first", "--depth", "4"]) == 2
    assert "custom-first needs --field" in capsys.readouterr().err


def _per_cell_csv(names, columns):
    """The CSV text of a table by the writer's earlier rule, one cell at a time."""
    arrays = [np.asarray(col) for col in columns]
    ints = [arr.dtype.kind in "iu" for arr in arrays]
    values = [arr.tolist() if is_int else arr.astype(float).tolist()
              for arr, is_int in zip(arrays, ints)]
    cells = [map(str if is_int else "{:.12g}".format, col)
             for col, is_int in zip(values, ints)]
    return "\n".join([",".join(names), *map(",".join, zip(*cells))]) + "\n"


_SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e22, 1e-5, 0.1 + 0.2,
            -1.5, 1e300, 123456789012.5, 2.0 ** -1074 * 3]
_ROWS = [0, 1, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1,
         3 * cli._CHUNK_ROWS + 7]


@pytest.mark.parametrize("rows", _ROWS)
def test_chunked_csv_matches_the_per_cell_rule(rows, tmp_path, capsys):
    rng = np.random.default_rng(rows)
    ints = rng.integers(-2 ** 62, 2 ** 62, rows, dtype=np.int64)
    ints[:3] = [2 ** 62, -2 ** 62, 0][:rows]
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    special = np.resize(np.array(_SPECIAL), rows)
    columns = (ints, floats, special, np.arange(rows, dtype=np.uint8), special[::-1] * 7)
    names = ("i", "x", "special", "small", "scaled")
    expected = _per_cell_csv(names, columns)
    cli._write("-", (names, columns), "csv")
    assert capsys.readouterr().out == expected
    out = tmp_path / "table.csv"
    cli._write(str(out), (names, columns), "csv")
    assert out.read_bytes() == expected.encode()


# sha256 of stdout at every default configuration of the solver commands,
# and of every other subcommand at its defaults, with the expected exit code;
# example2 fails C6, so its theorem 2 run exits 3 with empty output.  The
# table commands are pinned in JSON too.  A change that alters the numbers
# on purpose re-captures these digests.
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
    (["cantor", "--format", "json"], 0,
     "03eb253e547570d1eab1e184d96314f70228ba3791ac62b05680380be7b51338"),
    (["staircase", "--format", "json"], 0,
     "bb95367643059d08095a2b44b032b7d6331ee2bdb30671fbac184e912518a72d"),
    (["chi", "--format", "json"], 0,
     "af9c30effc7fb4ff6afdd071efdefff7b82489ebf7d48a3a797a2776b47ac3f1"),
    (["dimension", "--format", "json"], 0,
     "7b5afe615cfc16bf5c3aefe0089c0772dea1da3d25e8594db3bde6fe6827060b"),
    (["deriv", "--function", "t**2", "--format", "json"], 0,
     "4f129883857a0d6abef65c0edee3fe3b7b89ccf81eb3674b10b34457c6703051"),
    (["integrate", "--function", "1", "--format", "json"], 0,
     "aaaa12b89a9d23384fc4fc706ced1a265ef7bb999515a9e5ac2ab6496bf85a6f"),
    (["solve", "--system", "example1", "--format", "json"], 0,
     "429e9aa92ef40e4826b989d7ca9a56c964580d89f992af589679bafb528b2a49"),
    (["solve", "--system", "example2", "--format", "json"], 0,
     "82541a7695f7702ff01104dfd6a1e2b582b7de5fa4f73527a226600e607b51e2"),
    (["demo", "example1", "--format", "json"], 0,
     "310844b187fde0f6f6adeb13c814e54a96295a55434dc2c9fa88e29218cc19fb"),
    (["demo", "example3", "--format", "json"], 0,
     "27b0726a7ad668d03e3b269311c05113870ad12305b012c5087c0365ee90c751"),
]


_GOLDEN_IDS = ["-".join(a for a in argv if not a.startswith("--")) for argv, _, _ in GOLDEN]


# every run goes to stdout, and again to a file, which must hold the same
# bytes; a run that fails writes no file
@pytest.mark.parametrize("argv,code,digest,route", [
    *(pytest.param(*case, "-", id=name) for case, name in zip(GOLDEN, _GOLDEN_IDS)),
    *(pytest.param(*case, "file", id=f"{name}-file") for case, name in zip(GOLDEN, _GOLDEN_IDS))])
def test_default_output_is_pinned(argv, code, digest, route, capsys, tmp_path):
    path = tmp_path / "out"
    assert run_cli(argv + ["--out", "-" if route == "-" else str(path)]) == code
    out = capsys.readouterr().out.encode()
    if route == "file":
        assert out == b"" and path.exists() == (code == 0)
        out = path.read_bytes() if code == 0 else b""
    assert hashlib.sha256(out).hexdigest() == digest


_WITHOUT_SCIPY = """
import contextlib, dataclasses, io, json, sys
import fractalcalc
from fractalcalc import cli
for argv, code in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == code, argv
assert "scipy.integrate" not in sys.modules, "a default run imported scipy.integrate"
bare = dataclasses.replace(fractalcalc.linear_damped_system(), h_integral=None)
ys = [-3.0, 0.5, 2.0]
got = bare.restoring_integral(ys).tolist()
assert "scipy.integrate" in sys.modules
from scipy.integrate import quad
assert got == [quad(bare.h, 0.0, y, limit=200)[0] for y in ys], got
"""


def test_default_runs_leave_scipy_integrate_unimported():
    # a fresh interpreter runs every pinned default; only a system without
    # h_integral, whose potential H needs quad, imports scipy.integrate
    src = os.path.dirname(os.path.dirname(fractalcalc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = json.dumps([(argv, code) for argv, code, _ in GOLDEN])
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, runs], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fmt,digest", [
    ("csv", "987c6552938a8c6d35c0be274acabe870935be9c0fe41a57063d508325f9cab7"),
    ("json", "e7203ad1c1789ec41ef173f9a9b6f91e46655f00199f0651a8f7172d4b382dbc"),
])
def test_partial_trajectory_is_pinned(tmp_path, fmt, digest):
    # sha256 of what a blow-up leaves in --out, in each format
    out = tmp_path / f"partial.{fmt}"
    assert run_cli(["solve", "--system", "custom-first", "--field=y**3", "--y0=1e11",
                    "--depth", "8", "--format", fmt, "--out", str(out)]) == 3
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# every subparser's options as (option strings, dest, default, type, choices,
# nargs, required); the help action is left out
_SHARED = {
    (("--mu",), "mu", 0.2, float, None, None, False),
    (("--origin",), "origin", 0.0, float, None, None, False),
    (("--extent",), "extent", 1.0, float, None, None, False),
    (("--out",), "out", "-", None, None, None, False),
    (("--format",), "format", "csv", None, ("csv", "json"), None, False),
}
_ALPHA = (("--alpha",), "alpha", "auto", None, None, None, False)
_T0 = (("--t0",), "t0", None, float, None, None, False)
_SAMPLES = (("--samples",), "samples", 1001, int, None, None, False)
_CLASSICAL = (("--classical",), "classical", False, None, None, 0, False)
_FUNCTION = (("--function",), "function", None, None, None, None, True)
_Y0 = (("--y0",), "y0", 1.0, float, None, None, False)
_Z0 = (("--z0",), "z0", 0.0, float, None, None, False)
_T_END = (("--t-end",), "t_end", None, float, None, None, False)
_DTAU = (("--dtau",), "dtau", 0.001, float, None, None, False)
_SPRING = (("--spring",), "spring", 1.0, float, None, None, False)


def _depth(default):
    return (("--depth",), "depth", default, int, None, None, False)


OPTIONS = {
    "cantor": _SHARED | {_depth(6)},
    "staircase": _SHARED | {_depth(10), _ALPHA, _T0, _SAMPLES, _CLASSICAL},
    "chi": _SHARED | {_depth(10), _ALPHA, _SAMPLES},
    "dimension": _SHARED | {_depth(16)},
    "deriv": _SHARED | {_depth(12), _ALPHA, _T0, _FUNCTION},
    "integrate": _SHARED | {
        _depth(12), _ALPHA, _T0, _FUNCTION,
        (("--lower",), "lower", None, float, None, None, False),
        (("--upper",), "upper", None, float, None, None, False)},
    "solve": _SHARED | {
        _depth(12), _ALPHA, _T0, _Y0, _Z0, _T_END, _DTAU, _SPRING, _CLASSICAL,
        (("--system",), "system", "example1", None,
         ("example1", "example2", "example3", "theorem1", "theorem2", "custom-first"),
         None, False),
        (("--field",), "field", None, None, None, None, False),
        (("--method",), "method", "rk4", None, ("rk4", "euler"), None, False),
        (("--record-every",), "record_every", 1, int, None, None, False)},
    "stability": _SHARED | {
        _depth(12), _ALPHA, _T0, _DTAU, _SPRING,
        (("--system",), "system", "example1", None,
         ("example1", "example2", "example3", "theorem1"), None, False),
        (("--horizon",), "horizon", 20.0, float, None, None, False)},
    "verify": _SHARED | {
        _depth(12), _ALPHA, _T0, _T_END, _DTAU,
        (("--theorem",), "theorem", None, int, (1, 2), None, True),
        (("--system",), "system", None, None, ("theorem1", "theorem2", "example2"),
         None, False)},
    "demo": _SHARED | {
        _depth(12), _ALPHA, _T0, _Y0, _Z0, _T_END, _DTAU, _SPRING, _CLASSICAL,
        ((), "which", None, None, ("example1", "example2", "example3"), None, True),
        (("--y0-list",), "y0_list", None, float, None, "*", False)},
}


def test_every_option_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: {(tuple(a.option_strings), a.dest, a.default, a.type,
                     None if a.choices is None else tuple(a.choices), a.nargs, a.required)
                    for a in p._actions if a.dest != "help"}
             for name, p in sub.choices.items()}
    assert found == OPTIONS
