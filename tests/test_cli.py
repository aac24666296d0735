"""Command-line behavior: exit codes, JSON shape, determinism, manifests."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from b2gbounds import CosineSeries, asymptotic_constant, cli

SERIES_SINGLE = '{"terms": [{"b": 1.0, "theta": 0.75}]}\n'
SERIES_CONSTANT = '{"terms": [{"b": 1.0, "theta": 0.0}]}\n'
# I2 underflows to 0 for the first and overflows to inf for the second;
# A-upper overflows for the third
SERIES_TINY = '{"terms": [{"b": 1e-200, "theta": 0.75}]}\n'
SERIES_HUGE = '{"terms": [{"b": 1e300, "theta": 0.75}, {"b": 1e300, "theta": 1.7}]}\n'
SERIES_HIGH_FREQ = '{"terms": [{"b": 1.0, "theta": 1e160}]}\n'


def run_cli(*argv):
    """cli.main in this process, with the exit code and output of a b2g run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse errors and --version
            code = exc.code
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


@pytest.fixture
def series_file(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(SERIES_SINGLE)
    return str(path)


def test_version_flag():
    # the one test that goes through the module entry point
    proc = subprocess.run(
        [sys.executable, "-m", "b2gbounds.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.strip()
    assert proc.stdout == run_cli("--version").stdout


def test_analyze_reports_constant(series_file):
    proc = run_cli("analyze", series_file)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["i1_negative"] is True
    assert obj["constant"] == pytest.approx(1.8198734513025105, rel=1e-12)
    assert obj["constant"] == asymptotic_constant(CosineSeries([(1.0, 0.75)]))
    assert obj["summary"]["i2"] == pytest.approx(0.5, rel=1e-12)


def test_analyze_missing_file_exits_2(tmp_path):
    proc = run_cli("analyze", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()


def test_analyze_malformed_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"terms": [{"b": -3, "theta": 1}]}')
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 2
    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"terms": [')
    assert run_cli("analyze", str(truncated)).returncode == 2


def test_analyze_hypothesis_gate_exits_3(tmp_path):
    path = tmp_path / "const.json"
    path.write_text(SERIES_CONSTANT)
    assert run_cli("analyze", str(path)).returncode == 0
    proc = run_cli("analyze", str(path), "--require-negative-i1")
    assert proc.returncode == 3
    assert "hypothesis" in proc.stderr.lower()
    # without the gate the constant is withheld rather than invented
    obj = json.loads(run_cli("analyze", str(path)).stdout)
    assert obj["constant"] is None


@pytest.mark.parametrize(
    "text", [SERIES_TINY, SERIES_HUGE, SERIES_HIGH_FREQ], ids=["tiny", "huge", "high-freq"]
)
def test_summary_out_of_range_exits_3(tmp_path, text):
    path = tmp_path / "series.json"
    path.write_text(text)
    for argv in (["analyze", str(path)], ["bound", str(path), "--n", "1000", "--g", "2"]):
        proc = run_cli(*argv)
        assert proc.returncode == 3
        assert "double precision" in proc.stderr and proc.stdout == ""


def test_analyze_emit_samples(series_file, tmp_path):
    csv_path = tmp_path / "w.csv"
    proc = run_cli(
        "analyze", series_file, "--emit-samples", "4", "--samples-out", str(csv_path)
    )
    assert proc.returncode == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,w"
    assert len(lines) == 6
    t0, w0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(w0) == 1.0
    # K points need somewhere to land
    assert run_cli("analyze", series_file, "--emit-samples", "4").returncode == 2


def test_bound_command(series_file):
    proc = run_cli("bound", series_file, "--n", "1000", "--g", "2")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["max_size"] == 75
    assert obj["reference_min"] == pytest.approx(min(2 * 3.1694, 3 * 1.74217))
    # scientific count notation accepted
    assert run_cli("bound", series_file, "--n", "1e4", "--g", "1").returncode == 0


def test_yu_command_limit():
    proc = run_cli("yu", "--lambda", "0.75", "--limit", "--tol", "1e-6")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["truncation"] == "limit"
    assert obj["constant"] == pytest.approx(1.7424537, abs=1e-6)
    assert obj["error_bound"] <= 1e-6


def test_yu_command_finite_and_flag_exclusion():
    proc = run_cli("yu", "--lambda", "0.8", "--m", "100")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["truncation"] == 100
    assert run_cli("yu", "--lambda", "0.8").returncode == 2
    assert run_cli("yu", "--lambda", "0.8", "--m", "5", "--limit").returncode == 2
    assert run_cli("yu", "--lambda", "1.2", "--limit").returncode == 2


def test_search_exact_and_budget(tmp_path):
    proc = run_cli("search", "--g", "1", "--n", "7")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["F"] == 4 and obj["witness"]["elems"] == [0, 1, 3, 7]
    proc = run_cli("search", "--g", "2", "--n", "14", "--budget", "40")
    assert proc.returncode == 4
    assert "lower bound" in proc.stderr
    # a negative budget is an input error, not an exhausted budget
    assert run_cli("search", "--g", "2", "--n", "14", "--budget", "-1").returncode == 2
    assert run_cli("search", "--g", "1", "--n", "10", "--threads", "2").returncode == 2
    # the table mode honours the budget and rejects a negative N too
    proc = run_cli("search", "--g", "2", "--n", "30", "--table", "--budget", "5")
    assert proc.returncode == 4
    assert "lower bound" in proc.stderr and proc.stdout == ""
    proc = run_cli("search", "--g", "1", "--n", "-3", "--table")
    assert proc.returncode == 2 and proc.stdout == ""


def test_search_manifest_stats(tmp_path):
    from b2gbounds import exhaustive_f, f_table

    out = str(tmp_path / "search.json")
    plain = run_cli("search", "--g", "2", "--n", "14")
    proc = run_cli("search", "--g", "2", "--n", "14", "--out", out)
    assert proc.returncode == 0
    # run statistics go to the manifest; stdout stays byte-identical
    assert proc.stdout == plain.stdout
    with open(out + ".manifest.json") as fh:
        stats = json.load(fh)["stats"]
    expected = {}
    exhaustive_f(2, 14, stats=expected)
    assert stats["nodes"] == expected["nodes"] > 0
    assert stats["wall_s"] > 0
    out = str(tmp_path / "table.csv")
    plain = run_cli("search", "--g", "1", "--n", "12", "--table")
    proc = run_cli("search", "--g", "1", "--n", "12", "--table", "--out", out)
    assert proc.returncode == 0 and proc.stdout == plain.stdout
    with open(out + ".manifest.json") as fh:
        stats = json.load(fh)["stats"]
    f_table([1], 12, stats=expected)
    assert stats["nodes"] == expected["nodes"] > 0
    assert stats["wall_s"] > 0


def test_search_table_csv():
    proc = run_cli("search", "--g", "1", "--n", "7", "--table")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("g,N,F,witness")
    assert lines[-1].startswith("1,7,4,0 1 3 7")
    assert len(lines) == 9


def test_optimize_deterministic_and_manifest(tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (out1, out2):
        proc = run_cli(
            "optimize", "--m", "6", "--init", "random", "--seed", "11", "--out", out
        )
        assert proc.returncode == 0
    with open(out1) as f1, open(out2) as f2:
        assert f1.read() == f2.read()
    with open(out1 + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "optimize"
    assert manifest["inputs"]["seed"] == 11
    assert manifest["outputs"] == [out1]
    assert "timestamp" in manifest and "tool_version" in manifest
    # a negative seed is an input error, not a NumPy traceback
    proc = run_cli("optimize", "--m", "2", "--init", "random", "--seed", "-1")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr


def test_optimize_resume_roundtrip(tmp_path):
    # a capped run is restarted from its --out file through --init
    out = str(tmp_path / "o.json")
    proc = run_cli("optimize", "--m", "5", "--max-iter", "2", "--out", out)
    assert proc.returncode == 0
    with open(out) as fh:
        capped = json.load(fh)
    assert capped["converged"] is False
    proc = run_cli("optimize", "--m", "5", "--init", out, "--max-iter", "0")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert (obj["y"], obj["c"]) == (capped["y"], capped["c"])
    proc = run_cli("optimize", "--m", "5", "--init", out)
    assert proc.returncode == 0
    fresh = json.loads(run_cli("optimize", "--m", "5").stdout)
    assert json.loads(proc.stdout)["rho"] == pytest.approx(fresh["rho"], abs=1e-9)
    assert run_cli("optimize", "--m", "5", "--max-iter", "-1").returncode == 2


def test_optimize_manifest_stats(tmp_path):
    out = str(tmp_path / "opt.json")
    proc = run_cli("optimize", "--m", "5", "--out", out)
    assert proc.returncode == 0
    # run statistics go to the manifest; the stdout keys stay as they were
    assert list(json.loads(proc.stdout)) == [
        "M", "y", "c", "rho", "constant", "iterations", "converged",
    ]
    with open(out + ".manifest.json") as fh:
        stats = json.load(fh)["stats"]
    assert stats["stop_reason"] == "converged"
    assert stats["pg_norm"] < 1e-10
    assert stats["iterations"] == json.loads(proc.stdout)["iterations"] > 0
    assert stats["wall_s"] > 0
    run_cli("optimize", "--m", "5", "--max-iter", "2", "--out", out)
    with open(out + ".manifest.json") as fh:
        stats = json.load(fh)["stats"]
    assert stats["stop_reason"] == "max_iter" and stats["iterations"] == 2


def test_optimize_init_from_params_file(tmp_path):
    out = str(tmp_path / "seed.json")
    run_cli("optimize", "--m", "4", "--out", out)
    proc = run_cli("optimize", "--m", "4", "--init", out)
    assert proc.returncode == 0
    proc = run_cli("optimize", "--m", "3", "--init", out)
    assert proc.returncode == 2  # order mismatch is an input error


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "SERIES"],
        ["bound", "SERIES", "--n", "100", "--g", "2"],
        ["yu", "--lambda", "0.75", "--m", "10"],
        ["optimize", "--m", "2"],
        ["search", "--g", "1", "--n", "7"],
        ["verify", "--suite", "bounds"],
    ],
    ids=lambda argv: argv[0],
)
def test_config_flag_is_rejected(tmp_path, series_file, argv):
    # every setting has exactly one channel, its flag
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("tol = 1e-3\n")
    argv = [series_file if a == "SERIES" else a for a in argv]
    proc = run_cli(*argv, "--config", str(cfg))
    assert proc.returncode == 2 and proc.stdout == ""


def test_manifest_records_effective_settings(tmp_path):
    # defaults come from the library and are recorded as used, never null
    from b2gbounds.family import GRAD_TOL, MAX_ITER
    from b2gbounds.yu import TOL

    def manifest(*argv):
        out = str(tmp_path / f"{argv[0]}.out")
        proc = run_cli(*argv, "--out", out)
        with open(out) as fh:
            assert fh.read() == proc.stdout
        with open(out + ".manifest.json") as fh:
            return json.load(fh)

    yu = manifest("yu", "--lambda", "0.75", "--m", "10")
    assert yu["inputs"]["tol"] == yu["tolerances"]["tol"] == TOL
    opt = manifest("optimize", "--m", "2")
    assert opt["inputs"]["max_iter"] == MAX_ITER
    assert opt["inputs"]["grad_tol"] == opt["tolerances"]["grad_tol"] == GRAD_TOL
    ver = manifest("verify", "--suite", "bounds")
    assert (ver["inputs"]["seed"], ver["inputs"]["nmax"]) == (0, 14)
    ver = manifest("verify", "--suite", "lemmas", "--seed", "4", "--nmax", "6")
    assert (ver["inputs"]["seed"], ver["inputs"]["nmax"]) == (4, 6)


def test_verify_command_passes():
    proc = run_cli("verify", "--suite", "all", "--seed", "3")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout
    assert proc.stdout.splitlines()[-1] == "all checks passed"
    # a scan over no sets would pass vacuously
    proc = run_cli("verify", "--suite", "lemmas", "--nmax", "-1")
    assert proc.returncode == 2 and "all checks passed" not in proc.stdout
    # a negative seed is an input error
    proc = run_cli("verify", "--suite", "bounds", "--seed", "-1")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert "all checks passed" not in proc.stdout


def test_verify_failure_exits_5(monkeypatch, capsys):
    from b2gbounds import checks, cli

    monkeypatch.setattr(
        checks, "suite_bounds", lambda: [("planted", False, "1 violations")]
    )
    assert cli.main(["verify", "--suite", "bounds"]) == 5
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["[bounds] FAIL planted: 1 violations", "1 FAILED"]
