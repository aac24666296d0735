"""Workloads of the b2gbounds benchmark and the checks on their outputs.

A workload is a fixed list of ``b2g`` command lines, run one after another.
Every command's output is checked against ``expected.json`` (recorded from
the commit that added this benchmark) and, for exact search, against the
known optimal Golomb ruler lengths.  The timed runner and the in-process
tracer share these definitions, so both run and check the same commands.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("optimize", "search", "certify")

# Optimal Golomb ruler lengths G(k) for k = 1..9 marks (OEIS A003022).  A
# Sidon (B2[1]) subset of [0, N] is a Golomb ruler, so F(1, N) is the
# largest k with G(k) <= N, for every N below G(10).
GOLOMB = (0, 1, 3, 6, 11, 17, 25, 34, 44)

REL_TOL = 1e-12  # floats in analyze/bound/yu output
CONSTANT_TOL = 5e-9  # optimize constant, absolute
SERIES_FILE = "series400.json"


def commands(workload: str, seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    """One pass of the workload as (label, b2g argv) pairs.

    Only certify uses the seed (as ``verify --seed``); optimize and search
    are seed-free by construction.
    """
    if workload == "optimize":
        return [("optimize", ["optimize", "--m", "200", "--init", "paper"])]
    if workload == "search":
        return [
            ("search_g1", ["search", "--g", "1", "--n", "29", "--table"]),
            ("search_g2", ["search", "--g", "2", "--n", "21", "--table"]),
        ]
    if workload == "certify":
        series = str(workdir / SERIES_FILE)
        return [
            ("analyze", ["analyze", series]),
            ("bound_n1e12_g2", ["bound", series, "--n", "1e12", "--g", "2"]),
            ("bound_n1e8_g1", ["bound", series, "--n", "1e8", "--g", "1"]),
            ("yu_limit", ["yu", "--lambda", "0.75", "--limit", "--tol", "1e-9"]),
            ("yu_m1e6", ["yu", "--lambda", "0.75315", "--m", "1e6"]),
            ("verify", ["verify", "--suite", "all", "--seed", str(seed)]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def setup_code(workload: str, workdir: Path) -> str:
    """Python source for one set-up: import the CLI and write the inputs."""
    code = "import b2gbounds.cli\n"
    if workload == "certify":
        code += (
            "from b2gbounds import jsonutil\n"
            "from b2gbounds.family import initial_params, to_series\n"
            f"jsonutil.save_series({str(workdir / SERIES_FILE)!r}, "
            "to_series(initial_params(400, 'paper')))\n"
        )
    return code


# -- output checks ---------------------------------------------------------

@functools.cache
def expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def check(label: str, returncode: int, stdout: str) -> tuple[list[str], dict]:
    """(errors, facts) for one command's exit code and standard output.

    An empty error list means the output passed.  ``facts`` carries values
    the trace reports but does not judge (optimizer iterations and whether
    it converged).
    """
    if returncode != 0:
        return [f"{label}: exit code {returncode}"], {}
    try:
        if label == "optimize":
            return _check_optimize(stdout)
        if label.startswith("search_"):
            return _check_table(label, stdout), {}
        if label == "verify":
            lines = stdout.strip().splitlines()
            ok = bool(lines) and lines[-1] == "all checks passed"
            return ([] if ok else [f"verify: last line {lines[-1:]!r}"]), {}
        return _close(json.loads(stdout), expected()[label], label), {}
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{label}: unreadable output ({exc!r})"], {}


def _check_optimize(stdout: str) -> tuple[list[str], dict]:
    obj = json.loads(stdout)
    want = expected()["optimize"]
    errors = []
    if abs(obj["constant"] - want["constant"]) > CONSTANT_TOL:
        errors.append(f"optimize: constant {obj['constant']!r} != {want['constant']!r}")
    if obj["M"] != want["M"] or len(obj["y"]) != want["M"] + 1 or len(obj["c"]) != want["M"]:
        errors.append("optimize: params have the wrong shape")
    facts = {"iterations": int(obj["iterations"]), "converged": bool(obj["converged"])}
    return errors, facts


def _check_table(label: str, stdout: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    want = expected()[label]
    errors = []
    if rows != want:
        diff = next((i for i, (a, b) in enumerate(zip(rows, want)) if a != b), None)
        where = f"row {diff}: {rows[diff]} != {want[diff]}" if diff is not None else (
            f"{len(rows)} rows, expected {len(want)}"
        )
        errors.append(f"{label}: {where}")
    for g_text, n_text, f_text, witness in rows[1:]:
        g, n, f = int(g_text), int(n_text), int(f_text)
        elems = [int(e) for e in witness.split()]
        if len(elems) != f or not all(0 <= e <= n for e in elems) or not _is_b2g(elems, g):
            errors.append(f"{label}: witness {elems} is not a B2[{g}] set of size {f} in [0, {n}]")
        if g == 1:
            if n >= GOLOMB[-1]:
                errors.append(f"{label}: N = {n} is beyond the Golomb table")
            elif f != max(k for k, length in enumerate(GOLOMB, 1) if length <= n):
                errors.append(f"{label}: F(1, {n}) = {f} disagrees with the Golomb table")
    return errors


def _is_b2g(elems: list[int], g: int) -> bool:
    counts: dict[int, int] = {}
    for i, a in enumerate(elems):
        for b in elems[i:]:
            counts[a + b] = counts.get(a + b, 0) + 1
    return all(c <= g for c in counts.values())


def _close(got, want, path: str) -> list[str]:
    """Exact for ints, strings, bools and None; relative REL_TOL for floats."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [e for key in want for e in _close(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [e for i, (a, b) in enumerate(zip(got, want)) for e in _close(a, b, f"{path}[{i}]")]
    numbers = (int, float)
    if (
        isinstance(want, float) or isinstance(got, float)
    ) and isinstance(got, numbers) and isinstance(want, numbers) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]
