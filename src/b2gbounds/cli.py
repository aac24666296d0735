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
Numeric output is JSON whose floats read back as the same doubles, so
repeated runs with identical flags are byte-identical.  Every integer flag
is read by _parse_count.  Each cmd_* returns its stdout text and exit code,
and main writes them: with --out, _emit also writes the text there plus a
run manifest (command, the inputs actually used, outputs, tool version,
timestamp, stats).  Every command's stats hold wall_s, the seconds from
parsed flags to formatted text (reading input files included, writing the
output not); bound adds sizes_evaluated, yu --limit m0 and half_width,
search nodes, and optimize stop_reason, iterations, pg_norm, evaluations,
cholesky_steps and eigh_calls.  The timestamp and wall_s are the only
fields excluded from reproducibility guarantees.

Exit codes: 0 success, 2 input error, 3 hypothesis violation,
4 budget/tolerance exhausted or out of memory, 5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import time
from datetime import datetime, timezone

from . import __version__, checks, jsonutil
from ._numpy import np
from .bounds import max_size_bound
from .combinatorics import f_table
from .errors import (
    BudgetError,
    DomainError,
    HypothesisError,
    InputError,
    ToleranceError,
    check_addressable,
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
    stats = {}
    try:
        start = time.perf_counter()
        text, code = args.func(args, stats)
        stats["wall_s"] = time.perf_counter() - start
        _emit(args, text, stats)
        return code
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
    except ToleranceError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"budget exhausted: out of memory: {exc}", file=sys.stderr)
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
        type=_parse_count,
        default=None,
        metavar="K",
        help="also write a CSV of (t, w(t)) at K+1 uniform points on [0,1]",
    )
    p.add_argument("--samples-out", help="CSV path for --emit-samples")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bound", help="finite-N size bound for a series")
    p.add_argument("series_file")
    p.add_argument("--n", type=_parse_count, required=True, help="interval endpoint N")
    p.add_argument("--g", type=_parse_count, required=True)
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("yu", help="one-parameter family constant")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=_parse_count, help="truncation order M >= 0")
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
    p.add_argument("--m", type=_parse_count, required=True, help="family order M >= 0")
    p.add_argument(
        "--init",
        default="yu-like",
        help='"paper", "yu-like", "random", or a params JSON path',
    )
    p.add_argument("--seed", type=_parse_count, default=None)
    p.add_argument(
        "--max-iter",
        type=_parse_count,
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
    p.add_argument("--g", type=_parse_count, required=True)
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--budget", type=_parse_count, default=None, help="node limit")
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
        type=_parse_count,
        default=0,
        help="draws the identities and lemmas samples; "
        "the bounds suite is deterministic (default %(default)d)",
    )
    p.add_argument(
        "--nmax",
        type=_parse_count,
        default=14,
        help="enumeration depth for lemma scans (default %(default)d)",
    )
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


# -- plumbing ------------------------------------------------------------


def _parse_count(text: str) -> int:
    """argparse type of every integer flag; scientific forms like 1e23 are
    read exactly."""
    try:
        return int(text)
    except ValueError:
        from decimal import Decimal, InvalidOperation  # off the path of plain counts
    try:
        value = Decimal(text)  # exact, with an exponent like 1e-999999999 unexpanded
        if value.is_finite() and value == value.to_integral_value():
            if not math.isfinite(float(value)):
                raise argparse.ArgumentTypeError(f"is too large, got {text!r}")
            return int(value)
    except InvalidOperation:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")


def _emit(args, text: str, stats: dict) -> None:
    """Print text; with --out also write it there, then the run manifest.

    stats (run statistics) go to the manifest only, never to stdout.
    """
    sys.stdout.write(text)
    if not args.out:
        return
    jsonutil.write_text_atomic(args.out, text)
    outputs = [args.out]
    if getattr(args, "emit_samples", None) is not None:
        outputs.append(args.samples_out)  # the path cmd_analyze wrote
    manifest = {
        "command": args.command,
        "inputs": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "command")
        },
        "outputs": [os.path.abspath(path) for path in outputs],
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "stats": stats,
    }
    jsonutil.write_text_atomic(args.out + ".manifest.json", jsonutil.dumps(manifest))


# -- subcommands ----------------------------------------------------------


def cmd_analyze(args, stats) -> tuple[str, int]:
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
        args.samples_out = path  # recorded in the manifest as used
        check_addressable(args.emit_samples + 1, f"--emit-samples {args.emit_samples}")
        grid = np.arange(args.emit_samples + 1) / args.emit_samples
        values = eval_w(series, grid)
        buf = io.StringIO()
        buf.write("t,w\n")
        for t, w in zip(grid, values):
            buf.write(f"{float(t)!r},{float(w)!r}\n")
        jsonutil.write_text_atomic(path, buf.getvalue())
        obj["samples"] = os.path.abspath(path)
    return jsonutil.dumps(obj), EXIT_OK


def cmd_bound(args, stats) -> tuple[str, int]:
    series = jsonutil.load_series(args.series_file)
    report = max_size_bound(series, args.n, args.g, stats=stats)
    return jsonutil.dumps(report.to_obj()), EXIT_OK


def cmd_yu(args, stats) -> tuple[str, int]:
    truncation = LIMIT if args.limit else args.m
    params = YuParams(lam=args.lam, truncation=truncation)
    result = yu_evaluate(params, args.tol, stats=stats)
    return jsonutil.dumps(result.to_obj()), EXIT_OK


def cmd_optimize(args, stats) -> tuple[str, int]:
    init = args.init
    if init not in ("paper", "yu-like", "random") and (
        init.endswith(".json") or os.path.exists(init)
    ):
        init = jsonutil.load_params(init)
    result = optimize(
        args.m, init, max_iter=args.max_iter, grad_tol=args.grad_tol, seed=args.seed
    )
    obj = jsonutil.params_to_obj(
        result.params,
        extra={
            "rho": result.rho,
            "constant": result.constant,
            "iterations": result.iterations,
            "converged": result.converged,
        },
    )
    stats.update(
        stop_reason=result.stop_reason,
        iterations=result.iterations,
        pg_norm=result.pg_norm,
        evaluations=result.evaluations,
        cholesky_steps=result.cholesky_steps,
        eigh_calls=result.eigh_calls,
    )
    return jsonutil.dumps(obj), EXIT_OK


def cmd_search(args, stats) -> tuple[str, int]:
    rows = f_table(args.g, args.n, budget=args.budget, stats=stats)
    if args.table:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["g", "N", "F", "witness"])
        for g, n_val, size, elems in rows:
            writer.writerow([g, n_val, size, " ".join(map(str, elems))])
        text = buf.getvalue()
    else:
        _, _, size, elems = rows[-1]
        witness = {"N": args.n, "elems": list(elems)}
        text = jsonutil.dumps({"g": args.g, "n": args.n, "F": size, "witness": witness})
    return text, EXIT_OK


def cmd_verify(args, stats) -> tuple[str, int]:
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
    return "".join(lines), EXIT_OK if failures == 0 else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
