"""End-to-end command line coverage: output formats, files, exit codes."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import persistwalk
from persistwalk import cli, engine, montecarlo as mc
from persistwalk.exponent import phi
from persistwalk.increments import preset


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_phi_command(capsys):
    rc, out, _ = run_cli(capsys, "phi", "--x", "3/5", "--b", "1")
    assert rc == 0
    val = float(re.search(r"phi=(\S+)", out).group(1))
    assert val == pytest.approx(phi(0.6, 1.0), rel=1e-10)
    assert "kappa=" in out and "psi_bar=" in out
    rc, out, _ = run_cli(capsys, "phi")
    assert rc == 0 and "phi=0.5 " in out


def test_oracle_dp_output(capsys):
    rc, out, _ = run_cli(capsys, "oracle-dp", "--dist", "simple",
                         "--x", "0", "--t", "4")
    assert rc == 0
    assert out == "3/8 = 0.375\n"
    rc, out, _ = run_cli(capsys, "oracle-dp", "--dist", "simple", "--x", "0",
                         "--t", "9", "--k", "1")
    assert rc == 0
    assert out.splitlines()[0].startswith("lower 33/512 = ")
    assert out.splitlines()[1].startswith("upper 47/128 = ")
    # --t-cap truncates the bracket's horizon in place of --t
    rc, out2, _ = run_cli(capsys, "oracle-dp", "--dist", "simple", "--x", "0",
                          "--t", "12", "--k", "1", "--t-cap", "9")
    assert rc == 0 and out2 == out
    # without --k there is no bracket: --t-cap was dropped without a word
    rc, out, err = run_cli(capsys, "oracle-dp", "--dist", "simple", "--t", "4",
                           "--t-cap", "10")
    assert rc == 1 and out == "" and "Traceback" not in err
    assert "persistwalk oracle-dp: ValueError: --t-cap truncates the bracket" in err
    rc, out, _ = run_cli(capsys, "oracle-dp", "--dist", "tg:1/2,3",
                         "--x", "1/2", "--t", "6")
    assert rc == 0 and out.startswith("2894435/11337408 = ")


def test_oracle_dp_refuses_empty_horizon(capsys):
    for extra in ((), ("--k", "1"), ("--k", "0"), ("--k", "1", "--t-cap", "-1")):
        rc, out, err = run_cli(capsys, "oracle-dp", "--dist", "simple",
                               "--x", "0", "--t", "0", *extra)
        assert rc == 1 and out == "", extra
        assert "persistwalk oracle-dp: OutOfRange" in err, extra


def test_estimate_atilde_then_fit_round_trip(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    rc, out, _ = run_cli(capsys, "estimate-atilde", "--dist", "simple",
                         "--x", "0", "--t-max", "4096", "--trials", "40000",
                         "--seed", "42", "--out", str(csv))
    assert rc == 0
    assert f"wrote {csv}" in out
    head = csv.read_text().splitlines()
    assert head[0].startswith("# persistwalk ")
    assert head[1].startswith("# config: ")
    assert "horizon,survivors,trials,p_hat,ci_low,ci_high" in head

    rc, out, _ = run_cli(capsys, "fit", "--in", str(csv),
                         "--lo", "32", "--hi", "4096", "--append")
    assert rc == 0
    slope = float(re.search(r"slope=(\S+)", out).group(1))
    # the time event at x=0 decays like t^(-1/4); wide band for 40k trials
    assert -0.33 <= slope <= -0.17
    assert f"appended fit to {csv}" in out
    # the appended file must parse again, bit-identically on the data rows
    rc, out2, _ = run_cli(capsys, "fit", "--in", str(csv),
                          "--lo", "32", "--hi", "4096")
    assert rc == 0
    assert float(re.search(r"slope=(\S+)", out2).group(1)) == slope
    assert "# fit: slope,stderr,r2,fit_lo,fit_hi" in csv.read_text()


def test_estimate_atilde_svg_and_path_dump(tmp_path, capsys):
    csv, chart, dump = (tmp_path / n for n in ("c.csv", "c.svg", "p.csv"))
    rc, out, _ = run_cli(capsys, "estimate-atilde", "--dist", "simple",
                         "--x", "0", "--t-max", "64", "--trials", "2000",
                         "--seed", "7", "--out", str(csv),
                         "--svg", str(chart), "--dump-path", str(dump))
    assert rc == 0
    text = chart.read_text()
    assert text.startswith("<svg xmlns=")
    assert "<!-- persistwalk " in text and "config:" in text
    ET.fromstring(text)  # well-formed XML, no external renderer needed

    lines = dump.read_text().splitlines()
    assert lines[0].startswith("# persistwalk ")
    hdr = lines.index("step,position,sign,cumulative_sign_sum")
    rows = np.array([[int(v) for v in ln.split(",")] for ln in lines[hdr + 1:]])
    assert rows.shape == (65, 4)
    assert list(rows[0]) == [0, 0, 1, 0]
    assert set(np.unique(rows[:, 2])) <= {-1, 1}
    # cumulative_sign_sum really is the running total of the sign column
    np.testing.assert_array_equal(rows[1:, 3], np.cumsum(rows[1:, 2]))
    steps = np.diff(rows[:, 1])
    assert set(np.unique(steps)) <= {-1, 1}


# sha256 of every artifact the CLI writes at the fixed arguments of
# test_artifacts_are_pinned: the header, the rows and the chart, byte for byte
ARTIFACT_DIGESTS = {
    "atilde.csv": "09ebe308d0a437c207108ee114fd8b6a9bdcec4166b580fc03a60714f2c1a9f7",
    "atilde.svg": "eff6d557b6e46ea82fb4e3ff68838001ea0bcea61c341292a9b623a6d9173d3f",
    "path.csv": "7b0664ad5045aabdda6912c623df46853dd176a5d22b1155c4fe95fe22e8ac73",
    "fit.csv": "52c5e46c2555ec7e62d030e202f7779426d09993238721aa489995829b7da8a8",
    "fit.svg": "bcaaa2589704ea28183c670e5012f17a26633e6399d144a8e3511d9a137b7b0d",
    "a.csv": "9bfbd826ee7d415187bf553839fe686bf2c79b1331fc0f16292232965b0ebb85",
    "a.svg": "04a167907a74d3535ab49b37c7783484d03f0f5fb9a56b600eeddd0af5a44123",
    "draws.txt": "e7f87ebfaa6adcf60621582654c9013b3b9e5fcb1c06e12127017c53d15bf0e9",
    "skew.csv": "340f1843fb93ebaedb92350b9bea5c57fa7107a76562523eb6d76501d0883825",
}


def test_artifacts_are_pinned(tmp_path, capsys):
    f = {name: str(tmp_path / name) for name in ARTIFACT_DIGESTS}
    runs = [
        ("estimate-atilde", "--dist", "simple", "--x", "0", "--t-max", "500",
         "--trials", "3000", "--seed", "7", "--out", f["atilde.csv"],
         "--svg", f["atilde.svg"], "--dump-path", f["path.csv"]),
        ("fit", "--in", f["fit.csv"], "--append", "--svg", f["fit.svg"]),
        # a general walk on the excursion event: the other x label
        ("estimate-a", "--dist", "unit-up:-2", "--x", "1/4", "--k-max", "64",
         "--trials", "2000", "--seed", "7", "--out", f["a.csv"],
         "--svg", f["a.svg"]),
        ("stable-sample", "--kappa", "0.5", "--n", "50", "--seed", "3",
         "--out", f["draws.txt"]),
        ("diagnose-skew", "--dist", "simple", "--x", "1/2", "--n-grid", "4,16",
         "--trials", "3000", "--seed", "11", "--out", f["skew.csv"]),
    ]
    for argv in runs:
        if argv[0] == "fit":
            shutil.copy(f["atilde.csv"], f["fit.csv"])
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 0, err
    got = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
           for name, path in f.items()}
    assert got == ARTIFACT_DIGESTS


def test_stable_sample_determinism(tmp_path, capsys):
    args = ("stable-sample", "--kappa", "-0.33", "--n", "5", "--seed", "99")
    rc, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc == rc2 == 0
    assert out1 == out2
    draws = [float(v) for v in out1.splitlines()]
    assert len(draws) == 5
    rc, out3, _ = run_cli(capsys, "stable-sample", "--kappa", "-0.33",
                          "--n", "5", "--seed", "100")
    assert out3 != out1
    # --out writes the same draws with version/config headers
    f = tmp_path / "draws.txt"
    rc, out, _ = run_cli(capsys, *args, "--out", str(f))
    assert rc == 0
    lines = f.read_text().splitlines()
    assert lines[0].startswith("# persistwalk ")
    cfg = json.loads(lines[1][len("# config: "):])
    assert cfg["kappa"] == -0.33 and cfg["seed"] == 99
    assert [float(v) for v in lines[2:]] == draws


def test_stable_sample_summary(capsys):
    rc, out, _ = run_cli(capsys, "stable-sample", "--kappa", "0",
                         "--n", "20000", "--seed", "5", "--summary")
    assert rc == 0
    assert "quantiles(5/25/50/75/95%):" in out
    m = re.search(r"negative_fraction=(\S+) \(closed form (\S+)\)", out)
    assert abs(float(m.group(1)) - float(m.group(2))) < 0.02
    assert float(m.group(2)) == pytest.approx(0.5)


def test_env_seed_default(monkeypatch, capsys):
    monkeypatch.setenv("PERSIST_WALK_SEED", "4242")
    rc, envd, _ = run_cli(capsys, "stable-sample", "--kappa", "0", "--n", "3")
    monkeypatch.delenv("PERSIST_WALK_SEED")
    rc2, explicit, _ = run_cli(capsys, "stable-sample", "--kappa", "0",
                               "--n", "3", "--seed", "4242")
    rc3, default, _ = run_cli(capsys, "stable-sample", "--kappa", "0",
                              "--n", "3")
    assert rc == rc2 == rc3 == 0
    assert envd == explicit
    assert envd != default


@pytest.mark.parametrize("bad", ["abc", "1.5"])
def test_unusable_env_seed_fails_only_the_runs_that_read_it(monkeypatch, capsys, bad):
    # the variable was read while the parser was built, so every subcommand,
    # --version and phi too, ended in a traceback
    monkeypatch.setenv("PERSIST_WALK_SEED", bad)
    with pytest.raises(SystemExit) as ei:
        cli.main(["--version"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.startswith("persistwalk ")
    rc, out, _ = run_cli(capsys, "phi", "--x", "0")
    assert rc == 0 and "phi=0.5 " in out
    argv = ["estimate-atilde", "--dist", "simple", "--t-max", "10", "--trials", "10"]
    with pytest.raises(SystemExit) as ei:
        cli.main(argv)
    err = capsys.readouterr().err
    assert ei.value.code == 2
    assert f"argument --seed: invalid int value: '{bad}'" in err
    assert "Traceback" not in err
    rc, out, _ = run_cli(capsys, *argv, "--seed", "3")
    assert rc == 0 and "trials=10" in out


def test_the_walk_picks_the_engine(capsys):
    # no entry point takes an engine choice: the passage law runs the simple
    # walk and the duration tables every other walk
    simple = preset("simple")
    for run in (lambda **kw: engine.atilde_counts(simple, 0, 10, 10, 1, (10,), **kw),
                lambda **kw: engine.a_counts(simple, 0, 2, 10, 1, (2,), **kw),
                lambda **kw: engine.run_xi_trials(simple, 0, 10, 10, 1, **kw),
                lambda **kw: mc.survival_atilde(simple, 0, 10, 10, 1, **kw),
                lambda **kw: mc.survival_a(simple, 0, 2, 10, 1, **kw),
                lambda **kw: mc.skew_diagnostic(simple, 0, (2, 10), 10, 1, **kw)):
        with pytest.raises(TypeError, match="engine_kind"):
            run(engine_kind="auto")
    for argv in (("estimate-atilde", "--t-max", "10"), ("estimate-a", "--k-max", "2"),
                 ("diagnose-skew", "--n-grid", "4")):
        for choice in ("auto", "table", "stepped"):
            with pytest.raises(SystemExit) as ei:
                cli.main([*argv, "--dist", "simple", "--trials", "10",
                          "--engine", choice])
            assert ei.value.code == 2, argv
            assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_estimate_b_commands(capsys):
    rc, out, _ = run_cli(capsys, "estimate-b", "--dist", "simple",
                         "--method", "tail", "--excursions", "30000",
                         "--seed", "613")
    assert rc == 0
    m = re.search(r"b_hat=(\S+) stderr=(\S+)", out)
    b_hat, stderr = float(m.group(1)), float(m.group(2))
    assert abs(b_hat - 1.0) <= 4 * stderr  # the simple walk is symmetric
    assert stderr > 0
    rc, out, _ = run_cli(capsys, "estimate-b", "--dist", "simple",
                         "--method", "q", "--x", "0", "--n-pairs", "50",
                         "--trials", "4000", "--seed", "612")
    assert rc == 0
    b_hat = float(re.search(r"b_hat=(\S+)", out).group(1))
    assert 0.5 <= b_hat <= 2.0


def test_estimate_b_reports_approximations(capsys):
    # the command used to look up diagnostics no estimator sets, and so
    # printed none of the counts below
    rc, out, _ = run_cli(capsys, "estimate-b", "--dist", "unit-up:-2",
                         "--method", "tail", "--excursions", "3000",
                         "--step-cap", "1024", "--seed", "615")
    assert rc == 0
    censored = re.search(r"censored_pos=(\d+)\n  censored_neg=(\d+)", out)
    assert censored and int(censored.group(1)) + int(censored.group(2)) > 0
    rc, out, _ = run_cli(capsys, "estimate-b", "--dist", "unit-up:-2",
                         "--method", "q", "--n-pairs", "10", "--trials", "500",
                         "--seed", "616")
    assert rc == 0
    assert "undecided=(0, 0)" in out
    assert re.search(r"capped_draws=\(\d+, \d+\)", out)


@pytest.mark.parametrize("argv,refusal", [
    (("--method", "tail", "--excursions", "20000", "--x", "1/2", "--trials", "7"),
     "ValueError: method 'tail' takes no x, trials"),
    (("--method", "q", "--excursions", "20000", "--step-cap", "1024", "--trials", "7"),
     "ValueError: method 'q' takes no n_excursions, step_cap"),
    (("--method", "tail", "--excursions", "2000"),
     "InsufficientTail: no stretch of a sample or bootstrap resample"),
])
def test_estimate_b_refusals(capsys, argv, refusal):
    # the first two printed a b̂ and exited 0, as if the other method's
    # options had not been given; the third ended in a ZeroDivisionError
    rc, out, err = run_cli(capsys, "estimate-b", "--dist", "simple", *argv,
                           "--seed", "1")
    assert rc == 1 and out == ""
    assert f"persistwalk estimate-b: {refusal}" in err
    assert "Traceback" not in err


def test_estimate_a_general_walk_runs_on_tables(capsys):
    # this command used to fall back to the O(t) stepped engine and had not
    # finished after 100 s at --k-max 400 --trials 1500
    rc, out, _ = run_cli(capsys, "estimate-a", "--dist", "unit-up:-2",
                         "--x", "1/4", "--k-max", "100", "--trials", "500",
                         "--seed", "614")
    assert rc == 0
    assert "engine=duration-table" in out and "tail_draws=" in out
    # an x beyond the stretch loop's int64 arithmetic names the way round it
    wide = f"{2 ** 40 - 1}/{2 ** 41}"
    rc, _, err = run_cli(capsys, "estimate-atilde", "--dist", "unit-up:-2",
                         "--x", wide, "--t-max", "10", "--trials", "10")
    assert rc == 1 and "OutOfDomain" in err and "oracle-dp" in err
    rc, out, _ = run_cli(capsys, "oracle-dp", "--dist", "unit-up:-2",
                         "--x", wide, "--t", "10")
    assert rc == 0 and " = " in out


def test_diagnose_skew_command(tmp_path, capsys):
    out_csv = tmp_path / "skew.csv"
    rc, out, _ = run_cli(capsys, "diagnose-skew", "--dist", "simple",
                         "--x", "1/2", "--n-grid", "4,16", "--trials", "3000",
                         "--seed", "11", "--out", str(out_csv))
    assert rc == 0
    assert re.search(r"n=4: D=\d", out)
    assert re.search(r"D_16=\d", out)
    text = out_csv.read_text()
    assert "# skew: n=4 " in text
    assert ('# config: {"command": "diagnose-skew", "dist": {"atoms": [[-1, "1/2"], '
            '[1, "1/2"]], "name": "simple"}, "printed_sign": false, "seed": 11, '
            '"trials": 3000, "x": "1/2"}\n') in text
    back = mc.read_survival_csv(out_csv)
    assert back.trials == 3000
    assert len(back.horizons) == 2
    # an x beyond exact int64 W is refused on both walks; the tables used to
    # run it with W in floats
    for dist in ("simple", "unit-up:-2"):
        rc, _, err = run_cli(capsys, "diagnose-skew", "--dist", dist,
                             "--x", f"{2 ** 40 - 1}/{2 ** 41}", "--n-grid", "4",
                             "--trials", "100")
        assert rc == 1 and "OutOfDomain" in err and "2^63" in err


def test_error_exit_codes(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "oracle-dp", "--dist", "no-such-dist",
                         "--t", "4")
    assert rc == 1
    assert "persistwalk oracle-dp" in err and "ConfigParse" in err
    rc, _, err = run_cli(capsys, "estimate-atilde", "--dist", "simple",
                         "--t-max", "1", "--trials", "10")
    assert rc == 1 and "OutOfRange" in err
    rc, _, err = run_cli(capsys, "fit", "--in", str(tmp_path / "missing.csv"))
    assert rc == 1 and "persistwalk fit" in err
    # a survivor floor of 0 kept the point with no survivors: slope=nan, exit 0
    six = tmp_path / "six.csv"
    six.write_text("horizon,survivors,trials\n" + "".join(
        f"{h},{s},100\n" for h, s in zip((1, 2, 4, 8, 16, 32), (50, 30, 20, 10, 5, 0))))
    rc, out, err = run_cli(capsys, "fit", "--in", str(six), "--min-survivors", "0")
    assert rc == 1 and out == ""
    assert "persistwalk fit: OutOfRange: min_survivors=0" in err
    rc, out, _ = run_cli(capsys, "fit", "--in", str(six), "--min-survivors", "1")
    assert rc == 0 and "n_points=5" in out and "nan" not in out
    with pytest.raises(SystemExit) as ei:
        cli.main(["definitely-not-a-command"])
    assert ei.value.code == 2
    # x outside [0, 1) is refused by every Monte Carlo command, on every walk
    for x in ("-1/2", "1", "1099511627776"):
        for argv in (("estimate-atilde", "--dist", "simple", "--t-max", "10"),
                     ("estimate-atilde", "--dist", "unit-up:-2", "--t-max", "10"),
                     ("estimate-a", "--dist", "simple", "--k-max", "2"),
                     ("diagnose-skew", "--dist", "unit-up:-2", "--n-grid", "4"),
                     ("estimate-b", "--dist", "simple", "--method", "q")):
            rc, _, err = run_cli(capsys, *argv, "--x", x, "--trials", "10")
            assert rc == 1 and f"persistwalk {argv[0]}: OutOfDomain" in err, argv
        for argv in (("phi",), ("oracle-dp", "--dist", "simple")):
            rc, _, err = run_cli(capsys, *argv, "--x", x)
            assert rc == 1 and f"persistwalk {argv[0]}: OutOfDomain" in err, argv


@pytest.mark.parametrize("argv", [
    ("estimate-atilde", "--dist", "simple", "--t-max", "10", "--grid-ratio", "inf"),
    ("estimate-atilde", "--dist", "simple", "--t-max", "10", "--grid-ratio", "nan"),
    ("estimate-a", "--dist", "simple", "--k-max", "10", "--grid-ratio", "inf"),
    ("stable-sample", "--kappa", "0", "--n", "0", "--summary"),
    ("stable-sample", "--kappa", "0", "--n", "-1"),
    ("stable-sample", "--kappa", "0", "--scale", "inf", "--n", "3"),
    ("diagnose-skew", "--dist", "simple", "--n-grid", "10,10,100"),
    ("estimate-atilde", "--dist", "simple", "--t-max", "10", "--workers", "0"),
    ("estimate-a", "--dist", "unit-up:-2", "--k-max", "10", "--workers", "-2"),
    ("estimate-b", "--dist", "simple", "--method", "q", "--workers", "0"),
    ("estimate-a", "--dist", "unit-up:-2", "--k-max", "5", "--step-cap", "-1"),
    ("estimate-a", "--dist", "unit-up:-2", "--k-max", "5", "--step-cap", "0"),
    ("estimate-b", "--dist", "simple", "--method", "q", "--n-pairs", "0"),
])
def test_bad_sizes_are_refused_or_merged(capsys, argv):
    # each used to end in a traceback or an error from deep in numpy, or
    # (--step-cap 0) in a curve of 1351 censored trials of 2000
    trials = ("--trials", "2000") if argv[0] != "stable-sample" else ()
    rc, out, err = run_cli(capsys, *argv, *trials)
    if argv[0] == "diagnose-skew":  # a repeated n is one row
        assert rc == 0, err
        assert [ln.split(":")[0] for ln in out.splitlines()
                if ln.startswith("n=")] == ["n=10", "n=100"]
    else:
        assert rc == 1 and f"persistwalk {argv[0]}: OutOfRange" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("rows,problem", [
    ("1,30,40\n2,50,40\n", "line 3: survivors 50 lie outside [0, 40]"),
    ("0,40,40\n-2,30,40\n", "line 2: horizon 0 is below 1"),
    ("1,30,40\n4,20,100\n16,10,1000\n", "line 3: trials 100 is not the first row's 40"),
    ("16,10,40\n1,30,40\n4,20,40\n", "line 3: horizon 1 is not above 16"),
    ("1,30,40\n1,2\n", "line 3: cannot read '1,2' as horizon,survivors,trials"),
    ("# config: [1, 2]\n1,30,40\n", "line 2: the config comment is not a JSON object"),
])
def test_fit_refuses_malformed_curves(tmp_path, capsys, rows, problem):
    # each used to fit: a slope from 50 survivors of 40 trials, a nan slope
    # after a RuntimeWarning, the first row's trials for every row, a range
    # from the first and last rows of unsorted horizons; a short row and a
    # config comment that is not a JSON object ended in a traceback
    path = tmp_path / "bad.csv"
    path.write_text("horizon,survivors,trials,p_hat,ci_low,ci_high\n" + rows)
    rc, out, err = run_cli(capsys, "fit", "--in", str(path), "--min-survivors", "1")
    assert rc == 1 and out == ""
    assert f"persistwalk fit: InsufficientData: {path}, {problem}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("estimate-b", "--dist", "unit-up:-2", "--method", "q", "--trials", "0",
     "--n-pairs", "5"),
    ("diagnose-skew", "--dist", "unit-up:-2", "--trials", "-5", "--n-grid", "5,10"),
])
def test_xi_commands_refuse_trials_below_one(capsys, argv):
    # these said "phi=nan outside (0, 1)" and "only 0 of -5 trials survive"
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 1 and f"persistwalk {argv[0]}: OutOfRange: trials=" in err
    assert "Traceback" not in err


def test_reproduce_list_and_unknown(capsys):
    rc, out, _ = run_cli(capsys, "reproduce", "--list")
    assert rc == 0
    names = out.splitlines()
    assert len(names) >= 9
    assert all(names)
    rc, _, err = run_cli(capsys, "reproduce", "not-an-experiment")
    assert rc == 1
    assert "UnknownExperiment" in err


# The [project.scripts] target that an install turns into `persistwalk`.
ENTRY_POINT = "persistwalk.cli:main"


def _checkout_env():
    """Environment for a child Python that imports the package under test.

    PYTHONPATH starts with the directory holding the imported `persistwalk`,
    so no other installed copy can shadow it.
    """
    env = dict(os.environ)
    src = str(Path(persistwalk.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_console_script_entry_point(tmp_path):
    env = _checkout_env()
    res = subprocess.run([sys.executable, "-m", "persistwalk.cli", "--version"],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0
    assert res.stdout == f"persistwalk {persistwalk.__version__}\n"
    # What the wrapper generated for ENTRY_POINT does, without an install.
    module, attr = ENTRY_POINT.split(":")
    wrapper = (f"import sys\nfrom {module} import {attr}\n"
               "sys.argv = ['persistwalk', 'phi', '--x', '0', '--b', '2']\n"
               f"sys.exit({attr}())\n")
    res = subprocess.run([sys.executable, "-c", wrapper],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0
    assert "phi=" in res.stdout


_SCIPY_GUARD = """
import sys
from fractions import Fraction
import persistwalk, persistwalk.cli, persistwalk.reproduce
from persistwalk import engine, montecarlo, oracle
simple = persistwalk.preset("simple")
engine.atilde_counts(simple, Fraction(0), 20, 50, 1, (10, 20))
engine.run_xi_trials(simple, Fraction(0), 10, 50, 1)
oracle.exact_atilde(simple, Fraction(0), 8)
persistwalk.phi(0.5, 1.0)
curve = montecarlo.survival_atilde(simple, 0, 20, 50, 1)
assert "scipy" not in sys.modules, "scipy loaded before a call that needs it"
curve.ci
assert "scipy" in sys.modules, "a curve's interval did not load scipy"
"""


def test_scipy_loads_only_where_it_is_called(tmp_path):
    # imports, the counts, the ξ pair runs, the oracle and phi never call
    # scipy, so a fresh process pays for it only at a confidence interval
    res = subprocess.run([sys.executable, "-c", _SCIPY_GUARD], capture_output=True,
                         text=True, env=_checkout_env(), cwd=tmp_path)
    assert res.returncode == 0, res.stderr


def test_code_lines_script(tmp_path):
    # docstrings, comments and blank lines are not code; a line of any other
    # string or inside brackets is
    (tmp_path / "a.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\nX = """two\nlines"""\n\n\n'
        'def f(a,\n      b):  # trailing\n    """Doc."""\n    return (a +\n\n            b)\n')
    (tmp_path / "b.py").write_text("class C:\n    'doc'\n    y = 1\n")
    script = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
    res = subprocess.run([sys.executable, str(script), str(tmp_path)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["6", "a.py", "2", "b.py", "8", "total"]


def test_exponent_surface_script(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "exponent_surface.py"
    res = subprocess.run([sys.executable, str(script), "--x-points", "3",
                          "--b-points", "3", "--outdir", str(tmp_path)],
                         capture_output=True, text=True, env=_checkout_env())
    assert res.returncode == 0, res.stderr
    assert f"wrote {tmp_path / 'exponent_surface.csv'} (9 points)" in res.stdout
    worst = float(re.search(r"round-trip error: (\S+)", res.stdout).group(1))
    assert worst < 1e-8
    rows = (tmp_path / "exponent_surface.csv").read_text().splitlines()
    args = {"x_points": 3, "b_points": 3, "b_lo": 0.1, "b_hi": 10.0,
            "outdir": str(tmp_path)}
    assert rows[:2] == [f"# {line}" for line in mc.provenance(args)]
    assert rows[0] == f"# persistwalk {persistwalk.__version__}"
    assert rows[2] == "x,b,phi,kappa,psi_bar"
    body = np.array([[float(v) for v in r.split(",")] for r in rows[3:]])
    assert body.shape == (9, 5)
    # rows run over b within x; x = 0, b = 1 is the second: phi(0, 1) = 1/2
    assert body[1, :2].tolist() == [0.0, 1.0]
    assert body[1, 2] == pytest.approx(0.5, abs=1e-12)


def test_pyproject_declares_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"persistwalk": ENTRY_POINT}


@pytest.mark.skipif(shutil.which("persistwalk") is None,
                    reason="no persistwalk executable on PATH (made by install)")
def test_installed_console_script():
    res = subprocess.run(["persistwalk", "phi", "--x", "0", "--b", "2"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "phi=" in res.stdout
