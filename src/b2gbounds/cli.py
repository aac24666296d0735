"""Command-line front end: reproducible experiments over the library.

Subcommands
    analyze   functionals + asymptotic constant of a series file
    bound     finite-N size bound for a series file at given N, g
    yu        one-parameter family constant (truncated or limit)
    optimize  box-constrained maximization of rho for the big family
    search    exact F(g, N) by branch and bound (optionally a CSV table)
    verify    self-check suites (identities / lemmas / bounds)

This module only parses flags and prints results: library defaults and all
arithmetic stay in the library, and b2g <cmd> --help shows every default.
Numeric output is JSON with 17-significant-digit decimals, so repeated runs
with identical flags are byte-identical.  With --out, _emit also writes the
result there plus a run manifest (command, the inputs actually used,
outputs, tool version, timestamp, tolerances and, for optimize and search,
run statistics); the timestamp and the statistics' wall time are the only
fields excluded from reproducibility guarantees.

Exit codes: 0 success, 2 input error, 3 hypothesis violation,
4 budget/tolerance exhausted, 5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, checks, jsonutil
from .bounds import max_size_bound
from .combinatorics import exhaustive_f, f_table
from .errors import (
    BracketError,
    BudgetError,
    DomainError,
    HypothesisError,
    InputError,
    ToleranceError,
)
from .family import GRAD_TOL, MAX_ITER, optimize
from .series import eval_w, summarize
from .yu import LIMIT, TOL, YuParams, yu_evaluate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (HypothesisError, DomainError) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except BudgetError as exc:
        print(
            f"budget exhausted: {exc} (nodes={exc.nodes}, "
            f"lower bound {exc.size} via {list(exc.witness.elems)})",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    except (ToleranceError, BracketError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="b2g",
        description="Upper bounds for B2[g] sets via nonnegative cosine series",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the result to this path")

    p = sub.add_parser("analyze", help="functionals of a series file")
    p.add_argument("series_file")
    p.add_argument(
        "--require-negative-i1",
        action="store_true",
        help="fail (exit 3) unless I1 < 0",
    )
    p.add_argument(
        "--emit-samples",
        type=int,
        default=None,
        metavar="K",
        help="also write a CSV of (t, w(t)) at K+1 uniform points on [0,1]",
    )
    p.add_argument("--samples-out", help="CSV path for --emit-samples")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bound", help="finite-N size bound for a series")
    p.add_argument("series_file")
    p.add_argument("--n", required=True, help="interval endpoint N")
    p.add_argument("--g", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("yu", help="one-parameter family constant")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", help="truncation order M >= 0")
    group.add_argument("--limit", action="store_true", help="M -> infinity")
    p.add_argument(
        "--tol",
        type=float,
        default=TOL,
        help="certified tolerance (default %(default)g)",
    )
    common(p)
    p.set_defaults(func=cmd_yu)

    p = sub.add_parser("optimize", help="maximize rho over the big family")
    p.add_argument("--m", type=int, required=True, help="family order M >= 0")
    p.add_argument(
        "--init",
        default="yu-like",
        help='"paper", "yu-like", "random", or a params JSON path',
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--max-iter",
        type=int,
        default=MAX_ITER,
        help="cap on trust-region Newton iterations (default %(default)d)",
    )
    p.add_argument(
        "--grad-tol",
        type=float,
        default=GRAD_TOL,
        help="converged when the projected-gradient infinity norm is below this "
        "(default %(default)g)",
    )
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("search", help="exact F(g, N) by branch and bound")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--budget", type=int, default=None, help="node limit")
    p.add_argument(
        "--table",
        action="store_true",
        help="emit CSV rows (g, N, F, witness) for all N up to --n",
    )
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument(
        "--suite",
        choices=["identities", "lemmas", "bounds", "all"],
        default="all",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="draws the identities and lemmas samples; "
        "the bounds suite is deterministic (default %(default)d)",
    )
    p.add_argument(
        "--nmax",
        type=int,
        default=14,
        help="enumeration depth for lemma scans (default %(default)d)",
    )
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


# -- plumbing ------------------------------------------------------------


def _parse_count(text: str, what: str) -> int:
    """Integer flag value, allowing scientific forms like 1e6."""
    try:
        value = int(text)
    except ValueError:
        try:
            as_float = float(text)
        except ValueError as exc:
            raise InputError(f"{what} must be an integer, got {text!r}") from exc
        value = int(as_float)
        if value != as_float:
            raise InputError(f"{what} must be an integer, got {text!r}")
    return value


def _emit(
    args, text: str, tolerances: dict | None = None, stats: dict | None = None
) -> None:
    """Print text; with --out also write it there, then the run manifest.

    stats (run statistics) go to the manifest only, never to stdout.
    """
    sys.stdout.write(text)
    if not args.out:
        return
    jsonutil.write_text_atomic(args.out, text)
    manifest = {
        "command": args.command,
        "inputs": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "command")
        },
        "outputs": [os.path.abspath(args.out)],
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tolerances": tolerances or {},
    }
    if stats is not None:
        manifest["stats"] = stats
    jsonutil.write_text_atomic(args.out + ".manifest.json", jsonutil.dumps(manifest))


# -- subcommands ----------------------------------------------------------


def cmd_analyze(args) -> int:
    series = jsonutil.load_series(args.series_file)
    summary = summarize(series)
    if args.require_negative_i1 and summary.constant is None:
        raise HypothesisError(
            f"I1 = {summary.i1!r} is not negative for {args.series_file}"
        )
    obj = {
        "summary": summary.to_obj(),
        "i1_negative": summary.constant is not None,
        "constant": summary.constant,
    }
    if args.emit_samples is not None:
        if args.emit_samples < 1:
            raise InputError("--emit-samples needs K >= 1")
        path = args.samples_out or (args.out + ".samples.csv" if args.out else None)
        if path is None:
            raise InputError("--emit-samples requires --samples-out or --out")
        grid = np.arange(args.emit_samples + 1) / args.emit_samples
        values = eval_w(series, grid)
        buf = io.StringIO()
        buf.write("t,w\n")
        for t, w in zip(grid, values):
            buf.write(f"{jsonutil.fmt17(t)},{jsonutil.fmt17(w)}\n")
        jsonutil.write_text_atomic(path, buf.getvalue())
        obj["samples"] = os.path.abspath(path)
    _emit(args, jsonutil.dumps(obj))
    return EXIT_OK


def cmd_bound(args) -> int:
    series = jsonutil.load_series(args.series_file)
    n = _parse_count(args.n, "--n")
    report = max_size_bound(series, n, args.g)
    _emit(args, jsonutil.dumps(report.to_obj()))
    return EXIT_OK


def cmd_yu(args) -> int:
    truncation = LIMIT if args.limit else _parse_count(args.m, "--m")
    params = YuParams(lam=args.lam, truncation=truncation)
    result = yu_evaluate(params, args.tol)
    _emit(args, jsonutil.dumps(result.to_obj()), tolerances={"tol": args.tol})
    return EXIT_OK


def cmd_optimize(args) -> int:
    init = args.init
    if init not in ("paper", "yu-like", "random") and (
        init.endswith(".json") or os.path.exists(init)
    ):
        init = jsonutil.load_params(init)
    start = time.perf_counter()
    result = optimize(
        args.m, init, max_iter=args.max_iter, grad_tol=args.grad_tol, seed=args.seed
    )
    wall_s = time.perf_counter() - start
    obj = jsonutil.params_to_obj(
        result.params,
        extra={
            "rho": result.rho,
            "constant": result.constant,
            "iterations": result.iterations,
            "converged": result.converged,
        },
    )
    stats = {
        "stop_reason": result.stop_reason,
        "iterations": result.iterations,
        "pg_norm": result.pg_norm,
        "wall_s": wall_s,
    }
    _emit(
        args, jsonutil.dumps(obj), tolerances={"grad_tol": args.grad_tol}, stats=stats
    )
    return EXIT_OK


def cmd_search(args) -> int:
    n = _parse_count(args.n, "--n")
    stats = {}
    start = time.perf_counter()
    if args.table:
        rows = f_table([args.g], n, budget=args.budget, stats=stats)
        stats["wall_s"] = time.perf_counter() - start
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["g", "N", "F", "witness"])
        for g, n_val, size, elems in rows:
            writer.writerow([g, n_val, size, " ".join(map(str, elems))])
        _emit(args, buf.getvalue(), stats=stats)
        return EXIT_OK
    size, witness = exhaustive_f(args.g, n, budget=args.budget, stats=stats)
    stats["wall_s"] = time.perf_counter() - start
    obj = {
        "g": args.g,
        "n": n,
        "F": size,
        "witness": jsonutil.intset_to_obj(witness),
    }
    _emit(args, jsonutil.dumps(obj), stats=stats)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    if args.nmax < 1:
        raise InputError(f"--nmax must be >= 1, got {args.nmax}")
    suites = {
        "identities": lambda: checks.suite_identities(args.seed),
        "lemmas": lambda: checks.suite_lemmas(args.seed, args.nmax),
        "bounds": checks.suite_bounds,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    lines = []
    failures = 0
    for name in names:
        for check, passed, detail in suites[name]():
            verdict = "PASS" if passed else "FAIL"
            lines.append(f"[{name}] {verdict} {check}: {detail}\n")
            failures += 0 if passed else 1
    lines.append("all checks passed\n" if failures == 0 else f"{failures} FAILED\n")
    _emit(args, "".join(lines))
    return EXIT_OK if failures == 0 else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
