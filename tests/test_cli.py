"""Command-line behavior: exit codes, JSON shape, determinism, manifests."""

import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import b2gbounds
from b2gbounds import CosineSeries, cli, summarize

SERIES_SINGLE = '{"terms": [{"b": 1.0, "theta": 0.75}]}\n'
SERIES_CONSTANT = '{"terms": [{"b": 1.0, "theta": 0.0}]}\n'
# I2 underflows to 0 for the first and overflows to inf for the second;
# A-upper overflows for the third, and for the fourth 2 pi theta does too
SERIES_TINY = '{"terms": [{"b": 1e-200, "theta": 0.75}]}\n'
SERIES_HUGE = '{"terms": [{"b": 1e300, "theta": 0.75}, {"b": 1e300, "theta": 1.7}]}\n'
SERIES_HIGH_FREQ = '{"terms": [{"b": 1.0, "theta": 1e160}]}\n'
SERIES_HUGE_FREQ = '{"terms": [{"b": 1.0, "theta": 1e308}]}\n'


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
    # the one test that goes through the module entry point, as the
    # benchmark times it; -X importtime lists every module imported on the
    # way, and numpy must not be one of them (it loads on first use)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "b2gbounds.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.strip()
    assert proc.stdout == run_cli("--version").stdout
    imported = [
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "b2gbounds.family" in imported
    assert [m for m in imported if m.partition(".")[0] == "numpy"] == []


# A fresh interpreter starts each b2g process and prints the peak resident
# set that os.wait4 reports for it: a child started from the test process
# itself would count that process's pages, about 100 MiB under pytest, in
# its own peak.
_RSS_PROBE = """
import os, subprocess, sys
argv = [sys.executable, "-m", "b2gbounds.cli", *sys.argv[1:]]
proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, argv
print(usage.ru_maxrss)
"""


def _peak_rss_mib(*argv):
    """Peak resident set of one b2g process run to completion, in MiB."""
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=90,
    )
    assert proc.returncode == 0, (argv, proc.stderr)
    return int(proc.stdout) / 1024  # KiB on Linux


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_yu_and_verify_peak_memory_over_a_numpy_process():
    # yu --limit loads numpy and sums a head of a few thousand terms, so it
    # is the floor of a b2g process that computes; yu --m 1e6 holds one
    # array of 10^6 + 1 doubles (7.6 MiB) and verify its checks' temporaries
    floor = _peak_rss_mib("yu", "--lambda", "0.75", "--limit")
    for argv in (("yu", "--lambda", "0.75315", "--m", "1e6"), ("verify", "--seed", "0")):
        assert _peak_rss_mib(*argv) - floor <= 11, argv


def test_cli_import_leaves_out_scipy():
    # scipy is a test dependency only; importing it (and the numpy.testing
    # and numpy.f2py it pulls in) would cost every b2g process ~0.3 s.
    # numpy loads on first use (b2gbounds._numpy), so neither the import
    # nor a search loads numpy._core.  The import must still load every
    # module the benchmark traces (TRACED below): its tracer wraps only the
    # modules in sys.modules once `import b2gbounds.cli` returns.  The
    # records are namedtuples, so neither dataclasses nor the inspect it
    # loads is imported; pytest imports both, hence the fresh interpreter.
    # decimal (or fractions, which imports it) loads only for a count that
    # int() cannot read, so neither the import nor the search loads it.
    modules = sorted({"b2gbounds." + name.partition(".")[0] for name in TRACED})
    code = f"""
import contextlib, io, json, sys
import b2gbounds.cli
report = {{"untraceable": [m for m in {modules!r} if m not in sys.modules],
          "numpy_on_import": "numpy._core" in sys.modules,
          "dataclasses": "dataclasses" in sys.modules,
          "inspect": "inspect" in sys.modules,
          "exact_counts": sorted({{"fractions", "decimal"}} & set(sys.modules))}}
with contextlib.redirect_stdout(io.StringIO()):
    report["search_exit"] = b2gbounds.cli.main(["search", "--g", "1", "--n", "5"])
report["numpy_after_search"] = "numpy._core" in sys.modules
report["exact_counts_after_search"] = sorted({{"fractions", "decimal"}} & set(sys.modules))
report["scipy"] = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"
                         or m.startswith(("numpy.testing", "numpy.f2py")))
print(json.dumps(report))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "untraceable": [],
        "numpy_on_import": False,
        "dataclasses": False,
        "inspect": False,
        "exact_counts": [],
        "search_exit": 0,
        "numpy_after_search": False,
        "exact_counts_after_search": [],
        "scipy": [],
    }


# Functions the benchmark traces by name: perfbench/inproc.py wraps them
# through sys.modules after importing b2gbounds.cli and counts the scan's
# .checked, and perfbench/run.py builds per-layer keys from their timings.
# Their modules must be loaded by `import b2gbounds.cli` itself; a module
# loaded later is never wrapped (test_cli_import_leaves_out_scipy checks
# this in a fresh interpreter).  A renamed or unwrapped one leaves its keys
# out of the traced run's result, which then lacks per-layer metrics that
# BENCHMARK.json declares, so the run does not count as a measurement.
# Only a change to the benchmark itself (ROADMAP item 1) moves this list.
TRACED = (
    "family.optimize",
    "family.rho_and_grad",
    "series.kernel_s",
    "series.kernel_ds",
    "series.summarize",
    "bounds.max_size_bound",
    "bounds.scan_limit",
    "yu.yu_evaluate",
    "combinatorics.exhaustive_f",
    "combinatorics.sdft_inequality_scan",
)


def test_benchmark_trace_targets_resolve():
    for name in TRACED:
        module, _, attr = name.partition(".")
        assert callable(getattr(sys.modules[f"b2gbounds.{module}"], attr, None)), name
    scan = sys.modules["b2gbounds.combinatorics"].sdft_inequality_scan
    assert scan(1, 2).checked == 4 + 7  # B2[1] subsets of [0, 1] and [0, 2]


def test_benchmark_commands_pass_their_output_checks(tmp_path):
    # the benchmark's own commands and output checks (perfbench/workloads.py),
    # run in-process; certify's set-up writes its 401-term series first
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    exec(workloads.setup_code("certify", tmp_path), {})
    for workload in workloads.WORKLOADS:
        for label, argv in workloads.commands(workload, 0, tmp_path):
            proc = run_cli(*argv)
            errors, _ = workloads.check(label, proc.returncode, proc.stdout)
            assert errors == [], (label, proc.stderr)


def test_package_exports_resolve():
    names = b2gbounds.__all__
    assert len(names) == len(set(names))
    assert set(names) <= set(dir(b2gbounds))
    for name in names:
        assert getattr(b2gbounds, name, None) is not None, name
    with pytest.raises(AttributeError):
        b2gbounds.no_such_name


def test_package_import_loads_exports_on_first_access():
    code = """
import sys, b2gbounds
loaded = lambda: sorted(m for m in sys.modules if m.startswith("b2gbounds"))
print(loaded())
b2gbounds.YuParams
print(loaded())
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()
    assert before == "['b2gbounds']"
    assert "'b2gbounds.yu'" in after and "'b2gbounds.family'" not in after


def test_records_are_immutable_and_validated():
    # the records are namedtuples: no attribute can be set, and keyword
    # construction runs the same checks and normalisation
    records = (
        b2gbounds.IntSet(elems=(0, 1, 3), n=5),
        b2gbounds.FamilyParams(y=(1.0, 1.5), c=(0.5,)),
        b2gbounds.YuParams(lam=0.75, truncation=3),
        b2gbounds.max_size_bound(CosineSeries([(1.0, 0.75)]), 1000, 2),
    )
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    with pytest.raises(b2gbounds.ValidationError):
        b2gbounds.YuParams(lam=0.4, truncation=3)
    with pytest.raises(b2gbounds.ValidationError):
        b2gbounds.IntSet(elems=(3, 1), n=5)
    with pytest.raises(b2gbounds.ValidationError):
        b2gbounds.FamilyParams(y=(1.0,), c=(0.5,))
    assert b2gbounds.IntSet(elems=[0.0, 2], n=4.0) == ((0, 2), 4)


def test_analyze_reports_constant(series_file):
    proc = run_cli("analyze", series_file)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["i1_negative"] is True
    assert obj["constant"] == pytest.approx(1.8198734513025105, rel=1e-12)
    assert obj["constant"] == summarize(CosineSeries([(1.0, 0.75)])).constant
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


def test_integral_floats_print_as_floats(tmp_path):
    # w0 = 1.0 and a_upper = 0.0 read back as the floats they are, not ints
    path = tmp_path / "const.json"
    path.write_text(SERIES_CONSTANT)
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 0
    assert '"w0": 1.0,' in proc.stdout and '"a_upper": 0.0' in proc.stdout
    summary = json.loads(proc.stdout)["summary"]
    assert type(summary["w0"]) is float and type(summary["a_upper"]) is float


@pytest.mark.parametrize(
    "text, what",
    [
        (SERIES_TINY, "I2"),
        (SERIES_HUGE, "I2"),
        (SERIES_HIGH_FREQ, "A-upper"),
        (SERIES_HUGE_FREQ, "A-upper"),
    ],
    ids=["tiny", "huge", "high-freq", "huge-freq"],
)
def test_summary_out_of_range_exits_3(tmp_path, text, what):
    path = tmp_path / "series.json"
    path.write_text(text)
    for argv in (["analyze", str(path)], ["bound", str(path), "--n", "1000", "--g", "2"]):
        proc = run_cli(*argv)
        assert proc.returncode == 3
        assert "double precision" in proc.stderr and proc.stdout == ""
        assert what in proc.stderr


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


def test_analyze_manifest_lists_the_samples_csv(series_file, tmp_path):
    out = str(tmp_path / "an.json")
    proc = run_cli("analyze", series_file, "--emit-samples", "4", "--out", out)
    assert proc.returncode == 0
    samples = out + ".samples.csv"
    assert json.loads(proc.stdout)["samples"] == samples
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["inputs"]["samples_out"] == samples
    assert manifest["outputs"] == [out, samples]
    assert os.path.exists(samples)
    # without --emit-samples only the --out file is an output
    run_cli("analyze", series_file, "--out", out)
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["inputs"]["samples_out"] is None
    assert manifest["outputs"] == [out]


def test_bound_command(series_file):
    proc = run_cli("bound", series_file, "--n", "1000", "--g", "2")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["max_size"] == 75
    assert obj["reference_min"] == pytest.approx(min(2 * 3.1694, 3 * 1.74217))
    # scientific count notation accepted, and read exactly, not through a float
    assert run_cli("bound", series_file, "--n", "1e4", "--g", "1").returncode == 0
    proc = run_cli("bound", series_file, "--n", "1e23", "--g", "1")
    assert proc.returncode == 0
    assert '"n": 100000000000000000000000,' in proc.stdout


def test_bound_manifest_stats(series_file, tmp_path):
    from b2gbounds.bounds import scan_limit

    out = str(tmp_path / "bound.json")
    plain = run_cli("bound", series_file, "--n", "1e6", "--g", "2")
    proc = run_cli("bound", series_file, "--n", "1e6", "--g", "2", "--out", out)
    assert proc.returncode == 0
    # run statistics go to the manifest; stdout stays byte-identical
    assert proc.stdout == plain.stdout
    with open(out + ".manifest.json") as fh:
        stats = json.load(fh)["stats"]
    assert 1 <= stats["sizes_evaluated"] <= 2 + math.ceil(
        math.log2(scan_limit(10**6, 2))
    )
    assert stats["wall_s"] > 0


def test_bound_n_beyond_exact_sizes_exits_2(series_file):
    proc = run_cli("bound", series_file, "--n", "1e15", "--g", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["max_size"] > 0
    proc = run_cli("bound", series_file, "--n", "1e32", "--g", "2")
    assert proc.returncode == 2 and "2**53" in proc.stderr
    # integers past the double range are refused as too large, counts that
    # are not finite integers as such; argparse names the flag and prints usage
    for text in ("1e400", "1e999999999"):
        proc = run_cli("bound", series_file, "--n", text, "--g", "2")
        assert proc.returncode == 2, text
        assert f"argument --n: is too large, got {text!r}" in proc.stderr
    for text in ("nan", "inf", "1.5", "1e-999999999", "abc"):
        proc = run_cli("bound", series_file, "--n", text, "--g", "2")
        assert proc.returncode == 2, text
        assert f"argument --n: must be an integer, got {text!r}" in proc.stderr
        assert proc.stderr.startswith("usage: b2g bound")


def test_yu_command_limit():
    proc = run_cli("yu", "--lambda", "0.75", "--limit", "--tol", "1e-6")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["truncation"] == "limit"
    assert obj["constant"] == pytest.approx(1.7424537, abs=1e-6)
    assert obj["error_bound"] <= 1e-6
    # below 4 x the rounding envelope no head length can certify tol
    proc = run_cli("yu", "--lambda", "0.7", "--limit", "--tol", "1e-13")
    assert proc.returncode == 4 and proc.stdout == ""
    assert "budget exhausted" in proc.stderr


def test_yu_manifest_stats(tmp_path):
    out = str(tmp_path / "yu.json")
    # at lambda = 3/4 the tail term vanishes and with it the half-width
    argv = ("yu", "--lambda", "0.62", "--limit", "--tol", "1e-9")
    plain = run_cli(*argv)
    proc = run_cli(*argv, "--out", out)
    assert proc.returncode == 0
    # run statistics go to the manifest; stdout stays byte-identical
    assert proc.stdout == plain.stdout
    with open(out + ".manifest.json") as fh:
        stats = json.load(fh)["stats"]
    assert stats["m0"] >= 1000
    assert 0 < stats["half_width"] <= json.loads(proc.stdout)["error_bound"]
    assert stats["wall_s"] > 0


def test_yu_command_finite_and_flag_exclusion():
    proc = run_cli("yu", "--lambda", "0.8", "--m", "100")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["truncation"] == 100
    assert run_cli("yu", "--lambda", "0.8").returncode == 2
    assert run_cli("yu", "--lambda", "0.8", "--m", "5", "--limit").returncode == 2
    assert run_cli("yu", "--lambda", "1.2", "--limit").returncode == 2


def test_out_of_memory_exits_4(series_file, tmp_path):
    samples = str(tmp_path / "samples.csv")
    cases = [
        # numpy refuses the 7 PiB array of a 1e15-term sum before allocating it
        ("yu", "--lambda", "0.75", "--m", "1e15"),
        # past the address space numpy raises ValueError and Python sequences
        # OverflowError; these are refused as out of memory before either
        ("yu", "--lambda", "0.75", "--m", "1e20"),
        ("optimize", "--m", "100000000000000000000"),
        ("optimize", "--m", "1e20"),
        ("analyze", series_file, "--emit-samples", "100000000000000000000",
         "--samples-out", samples),
        ("verify", "--suite", "lemmas", "--nmax", "100000000000000000000"),
    ]
    for argv in cases:
        proc = run_cli(*argv)
        assert proc.returncode == 4 and proc.stdout == "", argv
        assert proc.stderr.startswith("budget exhausted: out of memory: "), argv
        assert "Traceback" not in proc.stderr
    assert not os.path.exists(samples)


def test_out_files_follow_umask(tmp_path):
    out = str(tmp_path / "o.json")
    old = os.umask(0o022)
    try:
        proc = run_cli("search", "--g", "1", "--n", "5", "--out", out)
    finally:
        os.umask(old)
    assert proc.returncode == 0
    for path in (out, out + ".manifest.json"):
        assert os.stat(path).st_mode & 0o777 == 0o644, path


def test_search_exact_and_budget(tmp_path):
    proc = run_cli("search", "--g", "1", "--n", "7")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["F"] == 4 and obj["witness"]["elems"] == [0, 1, 3, 7]
    # a sum in [0, 3] has at most 2 representations, so a g past the address
    # space costs what g = 2 costs
    proc = run_cli("search", "--g", "100000000000000000000", "--n", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["witness"]["elems"] == [0, 1, 2, 3]
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
    f_table(1, 12, stats=expected)
    assert stats["nodes"] == expected["nodes"] > 0
    assert stats["wall_s"] > 0


@pytest.mark.parametrize("g, n", [(1, 25), (2, 14)])
def test_search_json_is_the_last_table_row(g, n):
    argv = ("search", "--g", str(g), "--n", str(n))
    plain, table = run_cli(*argv), run_cli(*argv, "--table")
    assert plain.returncode == table.returncode == 0
    obj = json.loads(plain.stdout)
    last = table.stdout.splitlines()[-1]
    witness = " ".join(map(str, obj["witness"]["elems"]))
    assert last == f"{obj['g']},{obj['n']},{obj['F']},{witness}"
    assert (obj["g"], obj["n"], obj["witness"]["N"]) == (g, n, n)
    # both forms run out of a budget alike, with no output
    plain = run_cli(*argv, "--budget", "50")
    table = run_cli(*argv, "--table", "--budget", "50")
    assert plain.returncode == table.returncode == 4
    assert plain.stderr == table.stderr and "lower bound" in plain.stderr
    assert plain.stdout == table.stdout == ""


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


def test_optimize_manifest_counts_evaluations_and_step_routes(tmp_path):
    # the benchmark's run: the free block of -Hessian is indefinite at the
    # start (lowest eigenvalue -2.8e-7); at the next iterate it is positive
    # definite but the Newton step is too long; three Newton steps follow
    out = str(tmp_path / "opt.json")
    proc = run_cli("optimize", "--m", "200", "--init", "paper", "--out", out)
    assert proc.returncode == 0
    with open(out + ".manifest.json") as fh:
        stats = json.load(fh)["stats"]
    want = {"iterations": 5, "evaluations": 6, "cholesky_steps": 3, "eigh_calls": 2}
    assert {k: stats[k] for k in want} == want


def test_optimize_init_from_params_file(tmp_path):
    out = str(tmp_path / "seed.json")
    run_cli("optimize", "--m", "4", "--out", out)
    proc = run_cli("optimize", "--m", "4", "--init", out)
    assert proc.returncode == 0
    proc = run_cli("optimize", "--m", "3", "--init", out)
    assert proc.returncode == 2  # order mismatch is an input error


@pytest.mark.parametrize("bad", ['"x"', "null"], ids=["string", "null"])
def test_optimize_init_non_numeric_exits_2(tmp_path, bad):
    path = tmp_path / "params.json"
    path.write_text(f'{{"M": 1, "y": [{bad}, 1.0], "c": [0.5]}}\n')
    proc = run_cli("optimize", "--m", "1", "--init", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "non-numeric" in proc.stderr


@pytest.mark.parametrize(
    "argv, text",
    [
        (["analyze"], '{"terms": [{"b": true, "theta": 0.75}]}'),
        (["analyze"], '{"terms": [{"b": 1.0, "theta": "0.75"}]}'),
        (["analyze"], '{"terms": [{"b": 1%s, "theta": 0.75}]}' % ("0" * 400)),
        (["optimize", "--m", "1", "--init"], '{"M": true, "y": [1.5, 1.5], "c": [0.5]}'),
    ],
    ids=["bool", "numeric-string", "huge-int", "bool-order"],
)
def test_non_number_json_fields_exit_2(tmp_path, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    proc = run_cli(*argv, str(path))
    assert proc.returncode == 2 and proc.stdout == ""


def test_non_utf8_input_exits_2(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    assert "error" in proc.stderr


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
    # each setting is recorded once, in inputs
    assert yu["inputs"]["tol"] == TOL and "tolerances" not in yu
    assert set(yu["stats"]) == {"wall_s"}  # no enclosure at finite M
    opt = manifest("optimize", "--m", "2")
    assert opt["inputs"]["max_iter"] == MAX_ITER
    assert opt["inputs"]["grad_tol"] == GRAD_TOL and "tolerances" not in opt
    ver = manifest("verify", "--suite", "bounds")
    assert (ver["inputs"]["seed"], ver["inputs"]["nmax"]) == (0, 14)
    ver = manifest("verify", "--suite", "lemmas", "--seed", "4", "--nmax", "6")
    assert (ver["inputs"]["seed"], ver["inputs"]["nmax"]) == (4, 6)
    # a count is recorded as the integer it was read as, not as its flag text
    search = manifest("search", "--g", "1", "--n", "1e1")
    assert search["inputs"]["n"] == 10 and type(search["inputs"]["n"]) is int


OPTIMIZE_STATS = [
    "stop_reason", "iterations", "pg_norm", "evaluations", "cholesky_steps",
    "eigh_calls",
]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["analyze", "SERIES"], []),
        (["bound", "SERIES", "--n", "100", "--g", "2"], ["sizes_evaluated"]),
        (["yu", "--lambda", "0.62", "--limit", "--tol", "1e-9"], ["m0", "half_width"]),
        (["yu", "--lambda", "0.75", "--m", "10"], []),
        (["optimize", "--m", "2"], OPTIMIZE_STATS),
        (["search", "--g", "1", "--n", "7"], ["nodes"]),
        (["verify", "--suite", "bounds"], []),
    ],
    ids=["analyze", "bound", "yu-limit", "yu-m", "optimize", "search", "verify"],
)
def test_every_manifest_has_one_shape(tmp_path, series_file, argv, keys):
    # main times every command and writes every manifest; wall_s comes last
    out = str(tmp_path / "result.out")
    argv = [series_file if a == "SERIES" else a for a in argv]
    proc = run_cli(*argv, "--out", out)
    assert proc.returncode == 0
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert list(manifest) == [
        "command", "inputs", "outputs", "tool_version", "timestamp", "stats",
    ]
    assert list(manifest["stats"]) == [*keys, "wall_s"]
    assert manifest["stats"]["wall_s"] > 0


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
