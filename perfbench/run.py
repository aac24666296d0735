"""Benchmark of the ``b2g`` command line: optimize, search and certify.

    python3 perfbench/run.py --workload optimize|search|certify|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ``src/``.

``--trace 0`` runs each of the workload's commands as its own
``python -m b2gbounds.cli`` process, one after another (a closed loop with
one client), and repeats whole passes while the next one is predicted to end
inside ``--seconds``.  It reports the end-to-end metrics named in
``BENCHMARK.json``: medians over passes of wall and child CPU time, the
median of several fresh-interpreter set-ups, peak RSS and the share of
commands whose output passed its check.

``--trace 1`` runs the same commands in-process through ``cli.main``, once
plain and once with every package function wrapped (``tracer.py``), times
single ``rho_and_grad`` evaluations in a third process, and reports the
per-layer metrics.  Metrics whose trace target no longer exists
are left out and named on standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable
figures, the pinned environment and any failed check go to standard error;
the full record goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
HARD_LIMIT_S = 170.0  # a hung command is killed so that the run still ends
SETUP_TIMEOUT_S = 60.0
# Measured, printed and kept in the record, but not gated by BENCHMARK.json.
# cpu_s: the search's thread pool makes its CPU time swing by a quarter or
# more between runs (lock contention), past the widest bound allowed.
# fail_frac: reads 0 when all is well, which a gated metric may not; its
# complement pass_frac is gated instead.
UNGATED_UNITS = {"cpu_s": "s", "fail_frac": "1"}
STARTED = time.perf_counter()

ENV_PROBE = """
import json, os, platform
import numpy, scipy
import b2gbounds.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "cli_default_workers": os.cpu_count(),
}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, failed set-up)."""


def pinned_env() -> tuple[dict, dict]:
    """Child environment: this checkout's source, no B2G_THREADS, and BLAS
    threads fixed at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.pop("B2G_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env, {"nproc": nproc, "blas_threads": nproc, "b2g_threads": None}


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def describe_environment(env: dict, info: dict) -> dict:
    """Versions and thread settings; the import also warms the bytecode cache."""
    proc = subprocess.run(
        [sys.executable, "-c", ENV_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import b2gbounds.cli:\n{proc.stderr}")
    return {**info, **json.loads(proc.stdout), "commit": commit()}


def time_setups(env: dict, workload: str, workdir: Path) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and write the inputs."""
    code = workloads.setup_code(workload, workdir)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, timeout=SETUP_TIMEOUT_S
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"{workload} set-up exited with {proc.returncode}")
    return times


def spawn(argv: list[str], env: dict, workdir: Path) -> dict:
    """Run one child to completion: exit code, stdout, wall, CPU and peak RSS."""
    out_path = workdir / "stdout.txt"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, HARD_LIMIT_S - (start - STARTED)), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "stdout": out_path.read_text(errors="replace"),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def repeat(seconds: float, one_pass) -> list:
    """Whole passes, at least one, while the next is predicted to fit."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


class Tally:
    """Commands attempted and failed, with the first messages of failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, label: str, returncode: int, stdout: str) -> dict:
        errors, facts = workloads.check(label, returncode, stdout)
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])
        return facts


def run_timed(args, env, workdir: Path, tally: Tally) -> tuple[dict, dict]:
    commands = workloads.commands(args.workload, args.seed, workdir)

    def one_pass():
        start = time.perf_counter()
        results = [
            (label, spawn([sys.executable, "-m", "b2gbounds.cli", *argv], env, workdir))
            for label, argv in commands
        ]
        wall = time.perf_counter() - start  # the checks run after the clock stops
        for label, res in results:
            tally.check(label, res["returncode"], res["stdout"])
        return {
            "wall_s": wall,
            "cpu_s": sum(res["cpu_s"] for _, res in results),
            "rss_mib": max(res["rss_mib"] for _, res in results),
        }

    setups = time_setups(env, args.workload, workdir)
    passes = repeat(args.seconds, one_pass)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
        "pass_frac": (tally.attempted - tally.failed) / tally.attempted,
        "fail_frac": tally.failed / tally.attempted,
    }
    return metrics, {"setup_s": setups, "passes": passes}


def run_inproc(args, env, workdir: Path, mode: str) -> dict:
    record = workdir / f"{mode}.json"
    argv = [
        sys.executable, str(Path(__file__).resolve().parent / "inproc.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), "--record", str(record),
    ]
    res = spawn(argv, env, workdir)
    if res["returncode"] != 0 or not record.is_file():
        raise BenchError(f"in-process run ({mode}) exited with {res['returncode']}")
    return json.loads(record.read_text())


def layer_metrics(plain: dict, traced: dict, probe: dict, facts: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the reasons for absent ones."""
    stats, counters = traced["stats"], traced["counters"]
    absent = {**probe["absent"], **traced["absent"]}
    out = {}

    def put(name, keys, value):
        missing = [k for k in keys if k not in stats]
        if missing:
            absent.setdefault(name, f"no function {', '.join(missing)} to trace")
        else:
            out[name] = value()

    def st(key, field="total_s"):
        return stats[key][field]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    cli_keys = [k for k in stats if k.split(".")[0] in ("cli", "jsonutil")]
    out["cli.import_s"] = traced["import_s"]
    put("cli.self_s", ["cli.main"], lambda: sum(st(k, "self_s") for k in cli_keys))
    put("cli.commands", ["cli.main"], lambda: st("cli.main", "calls"))

    opt, rag = "family.optimize", "family.rho_and_grad"
    put(f"{opt}.s", [opt], lambda: st(opt))
    out["family.iterations"] = sum(f["iterations"] for f in facts if "iterations" in f)
    out["family.converged"] = sum(1 for f in facts if f.get("converged"))
    put(f"{rag}.calls", [rag], lambda: st(rag, "calls"))
    put(f"{rag}.s", [rag], lambda: st(rag))
    put(f"{rag}.ms_per_call", [rag], lambda: ratio(st(rag), st(rag, "calls"), 1e3))
    put("family.lbfgs_self_s", [opt, rag], lambda: st(opt) - st(rag))
    out.update(probe["probes"])

    kernels = ["series.kernel_s", "series.kernel_ds"]
    elems = counters["series.kernel.elems"]
    put("series.kernel.calls", kernels, lambda: sum(st(k, "calls") for k in kernels))
    put("series.kernel.elems", kernels, lambda: elems)
    put("series.kernel.s", kernels, lambda: sum(st(k) for k in kernels))
    put("series.kernel.ns_per_elem", kernels, lambda: ratio(sum(st(k) for k in kernels), elems, 1e9))
    put("series.summarize.s", ["series.summarize"], lambda: st("series.summarize"))

    msb = "bounds.max_size_bound"
    put(f"{msb}.calls", [msb], lambda: st(msb, "calls"))
    put(f"{msb}.s", [msb], lambda: st(msb))
    put("bounds.sizes_scanned", [msb], lambda: counters["bounds.sizes_scanned"])
    put("bounds.sizes_per_s", [msb], lambda: ratio(counters["bounds.sizes_scanned"], st(msb)))

    yu = "yu.yu_evaluate"
    put(f"{yu}.calls", [yu], lambda: st(yu, "calls"))
    put(f"{yu}.s", [yu], lambda: st(yu))

    ef, scan = "combinatorics.exhaustive_f", "combinatorics.sdft_inequality_scan"
    put(f"{ef}.calls", [ef], lambda: st(ef, "calls"))
    put(f"{ef}.s", [ef], lambda: st(ef))
    put(f"{ef}.max_s", [ef], lambda: st(ef, "max_s"))
    put("combinatorics.workers", [ef], lambda: counters["combinatorics.workers"])
    put("combinatorics.sdft_scan.s", [scan], lambda: st(scan))
    put("combinatorics.sets_enumerated", [scan], lambda: counters["combinatorics.sets_enumerated"])

    out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    # a counter that could not be taken takes the ratio built on it along
    for counter, derived in (
        ("series.kernel.elems", "series.kernel.ns_per_elem"),
        ("bounds.sizes_scanned", "bounds.sizes_per_s"),
    ):
        if counter in absent:
            absent.setdefault(derived, absent[counter])
    return {k: v for k, v in out.items() if k not in absent}, absent


def run_traced(args, env, workdir: Path, tally: Tally) -> tuple[dict, dict]:
    subprocess.run(
        [sys.executable, "-c", workloads.setup_code(args.workload, workdir)],
        env=env, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
    )
    absent: dict[str, str] = {}

    def one_pass():
        plain = run_inproc(args, env, workdir, "plain")
        traced = run_inproc(args, env, workdir, "traced")
        probe = run_inproc(args, env, workdir, "probe")
        facts = []
        for record in (plain, traced):
            for cmd in record["commands"]:
                facts.append(tally.check(cmd["label"], cmd["returncode"], cmd["stdout"]))
        metrics, why = layer_metrics(plain, traced, probe, facts[len(plain["commands"]):])
        absent.update(why)
        return {"metrics": metrics, "stats": traced["stats"]}

    passes = repeat(args.seconds, one_pass)
    names = set.intersection(*(set(p["metrics"]) for p in passes)) - set(absent)
    metrics = {n: statistics.median(p["metrics"][n] for p in passes) for n in names}
    return metrics, {"absent": absent, "passes": passes}


def run_workload(args, env) -> tuple[dict, Tally, dict]:
    workdir = OUT_DIR / f"work-{os.getpid()}-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        runner = run_traced if args.trace else run_timed
        metrics, detail = runner(args, env, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, tally, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "b2gbounds" / "cli.py").is_file():
            raise BenchError(f"no b2gbounds source under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        env, info = pinned_env()
        environment = describe_environment(env, info)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"environment: {json.dumps(environment)}", file=sys.stderr)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        wl_args = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            metrics, tally, detail = run_workload(wl_args, env)
        except (BenchError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        unknown = set(metrics) - set(units) - set(UNGATED_UNITS)
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        for error in tally.errors:
            print(f"CHECK FAILED {name}: {error}", file=sys.stderr)
        for metric, why in sorted(detail.get("absent", {}).items()):
            print(f"absent {name} {metric}: {why}", file=sys.stderr)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, unit in {**units, **UNGATED_UNITS}.items():
            if metric in metrics:
                value = metrics[metric]
                gated = metric in units
                if gated:
                    result["metrics"][prefix + metric] = {"value": value, "unit": unit}
                note = "" if gated else "  (not gated)"
                print(f"{name:9s} {metric:36s} {value:14.6g} {unit}{note}", file=sys.stderr)
        result["correct"] = result["correct"] and tally.failed == 0
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
        OUT_DIR.mkdir(exist_ok=True)
        record = OUT_DIR / f"record-{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(
            {"environment": environment, "args": vars(wl_args), "metrics": metrics,
             "errors": tally.errors, **detail},
            indent=1,
        ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
