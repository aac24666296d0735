"""Run one workload pass in this process through ``b2gbounds.cli.main``.

    python perfbench/inproc.py --mode plain|traced --workload W --seed S --workdir D --record OUT
    python perfbench/inproc.py --mode probe --record OUT

``traced`` wraps every public function of the package first (see
``tracer.py``); ``plain`` runs the same pass unwrapped.  The record written
to OUT holds the import time, the wall time of the commands, and each
command's exit code and standard output; a traced record adds the
per-function statistics and work counters.  ``probe`` times single
``rho_and_grad`` evaluations at fixed orders in a process that has run
nothing else, so the heap state other commands leave behind does not show.
``run.py`` checks the outputs and turns the records into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Per-size helpers of the bound scan: millions of calls at N = 1e12, so a
# wrapper would dominate the time it measures.  sizes_scanned is derived
# from scan_limit instead.
SKIP = ("bounds.finite_majorant", "bounds.radicand")
PROBE_ORDERS = (50, 400, 1000)
PROBE_MIN_S = 0.3  # time each probe order at least this long ...
PROBE_MIN_REPEATS = 3  # ... and at least this often


def make_hooks(counters: dict, absent: dict) -> dict:
    """Work counters taken from the arguments and results of wrapped calls.

    A counter that cannot be taken (a function or parameter renamed by a
    later change) is marked absent; the traced command itself goes on.
    """
    import numpy as np

    bounds = sys.modules["b2gbounds.bounds"]
    combinatorics = sys.modules["b2gbounds.combinatorics"]
    scan_limit = getattr(bounds, "scan_limit", None)  # the unwrapped original

    def guarded(counter, count):
        def hook(args, kwargs, result):
            if counter not in absent:
                try:
                    count(args, kwargs, result)
                except Exception as exc:  # must not fail the traced command
                    absent[counter] = f"cannot count: {exc!r}"

        return hook

    def arguments(fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def kernel_elems(args, kwargs, result):
        x = args[0] if args else next(iter(kwargs.values()))
        counters["series.kernel.elems"] += int(np.size(x))

    def sizes_scanned(args, kwargs, result):
        if scan_limit is None:
            raise LookupError("bounds.scan_limit not found")
        a = arguments(bounds.max_size_bound, args, kwargs)
        counters["bounds.sizes_scanned"] += scan_limit(a["n"], a["g"])

    def workers(args, kwargs, result):
        a = arguments(combinatorics.exhaustive_f, args, kwargs)
        counters["combinatorics.workers"] = max(counters["combinatorics.workers"], a["threads"])

    def sets_enumerated(args, kwargs, result):
        counters["combinatorics.sets_enumerated"] += int(result.checked)

    kernel = guarded("series.kernel.elems", kernel_elems)
    return {
        "series.kernel_s": kernel,
        "series.kernel_ds": kernel,
        "bounds.max_size_bound": guarded("bounds.sizes_scanned", sizes_scanned),
        "combinatorics.exhaustive_f": guarded("combinatorics.workers", workers),
        "combinatorics.sdft_inequality_scan": guarded(
            "combinatorics.sets_enumerated", sets_enumerated
        ),
    }


def probe_rho_and_grad(absent: dict) -> dict:
    """Median milliseconds of one rho_and_grad evaluation at each probe order."""
    import numpy as np

    from b2gbounds import family

    out = {}
    for m in PROBE_ORDERS:
        name = f"family.rho_and_grad.ms_M{m}"
        try:
            params = family.initial_params(m, "paper")
            x = np.concatenate([params.y, params.c])
            times = []
            while len(times) < PROBE_MIN_REPEATS or sum(times) < PROBE_MIN_S:
                start = time.perf_counter()
                family.rho_and_grad(x, m)
                times.append(time.perf_counter() - start)
            out[name] = 1e3 * statistics.median(times)
        except Exception as exc:  # a later API change must not stop the trace
            absent[name] = f"probe failed: {exc!r}"
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True, choices=("plain", "traced", "probe"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workdir")
    parser.add_argument("--record", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import b2gbounds.cli as cli

    import_s = time.perf_counter() - start
    absent: dict[str, str] = {}
    if args.mode == "probe":
        record = {"probes": probe_rho_and_grad(absent), "absent": absent}
        Path(args.record).write_text(json.dumps(record))
        return 0

    counters = {
        "series.kernel.elems": 0,
        "bounds.sizes_scanned": 0,
        "combinatorics.workers": 0,
        "combinatorics.sets_enumerated": 0,
    }
    tracer = None
    if args.mode == "traced":
        tracer = Tracer("b2gbounds", skip=SKIP, hooks=make_hooks(counters, absent))
        tracer.install()

    results = []
    start = time.perf_counter()
    for label, argv in workloads.commands(args.workload, args.seed, Path(args.workdir)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crashed command fails its check; the pass goes on
                traceback.print_exc()
                code = 1
        results.append({"label": label, "returncode": code, "stdout": buf.getvalue()})
    wall_s = time.perf_counter() - start

    record = {"import_s": import_s, "wall_s": wall_s, "commands": results, "absent": absent}
    if tracer is not None:
        record["stats"] = tracer.to_obj()
        record["counters"] = counters
    Path(args.record).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
