"""Correctness gate: every op's output is checked for properties, never pinned values.

A CLI op passes when it exits with the expected code, its JSON parses as
strict JSON (a NaN or Infinity token is a failure), its CSV has the
expected rows with finite numbers, and the certificate fields say what the
theory guarantees: `scp` true, `gap_ok` with gap >= 1/(2k), Poincare
`passed`, every mgf row `ok`, `ineq-suite` `all_passed`, and sampled masks
inside the exact support.  Gap values and couplings are not pinned: a
different feasible coupling is a valid walk.

The exact supports come from this file's own enumeration, not from srconc.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

GAP_SLACK = 1e-9  # the CLI's own gap_ok tolerance


class Gate:
    """Counts attempted and failed ops; keeps the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: {'; '.join(problems)}")


def spanning_trees(vertices: int, edges) -> set[int]:
    """Edge masks of all spanning trees, by brute force over (V-1)-subsets."""
    trees = set()
    for pick in itertools.combinations(range(len(edges)), vertices - 1):
        parent = list(range(vertices))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        acyclic = True
        for e in pick:
            ru, rv = find(edges[e][0]), find(edges[e][1])
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            trees.add(sum(1 << e for e in pick))
    return trees


def dpp_support(kernel: np.ndarray, tol: float = 1e-10) -> set[int]:
    """Masks of the rank-sized subsets with a positive principal minor."""
    n = kernel.shape[0]
    rank = int(round(float(np.trace(kernel))))
    return {sum(1 << i for i in s) for s in itertools.combinations(range(n), rank)
            if np.linalg.det(kernel[np.ix_(s, s)]) > tol}


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _csv_rows(text: str, header: list[str], rows: int, problems: list[str]):
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != header:
        problems.append(f"CSV header {table[:1]} != {header}")
        return []
    body = [dict(zip(header, r)) for r in table[1:]]
    if len(body) != rows:
        problems.append(f"{len(body)} CSV rows, expected {rows}")
    for r in body:
        for key, val in r.items():
            if val in ("", "True", "False") or key == "dominator":
                continue
            try:
                num = float(val)
            except ValueError:
                problems.append(f"{key}={val!r} is not a number")
                return body
            if not math.isfinite(num):
                problems.append(f"{key}={val} is not finite")
                return body
    return body


MGF_HEADER = ["theta", "trace_mgf", "bound", "ok"]
TAIL_HEADER = ["t", "exact_or_empirical", "ci_upper", "bound_poincare", "bound_sr",
               "bound_ks", "dominator"]
KS_HEADER = ["k", "mu", "eps", "lhs", "rhs", "ours_better", "margin", "near_crossover",
             "exponent_sr", "exponent_ks", "dominator"]


def check_cli(cmd: str, code: int, stdout: str, expect: dict) -> list[str]:
    """Problems with one CLI op's result; an empty list means it passed.

    `expect` carries what the gate needs for this op: `support` (exact
    support masks), `k` (homogeneity), `rows`, `trials`, `count`, `out`.
    """
    problems: list[str] = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if cmd in ("validate-measure", "scp-check", "build-walk", "poincare-check",
               "ineq-suite"):
        try:
            obj = strict_json(stdout)
        except ValueError as exc:
            return problems + [f"stdout is not strict JSON: {exc}"]
        if not isinstance(obj, dict):
            return problems + ["stdout is not a JSON object"]
        _check_json(cmd, obj, expect, problems)
    elif cmd == "mgf":
        body = _csv_rows(stdout, MGF_HEADER, expect["rows"], problems)
        if any(r["ok"] != "True" for r in body):
            problems.append("an mgf row is not ok")
    elif cmd == "tail":
        body = _csv_rows(stdout, TAIL_HEADER, expect["rows"], problems)
        for r in body:
            p = float(r["exact_or_empirical"])
            if not 0.0 <= p <= 1.0 + 1e-9:  # a sum of masses may round past 1
                problems.append(f"tail probability {p} outside [0, 1]")
                break
            if r["ci_upper"] and float(r["ci_upper"]) < p:
                problems.append(f"ci_upper {r['ci_upper']} below the estimate {p}")
                break
    elif cmd == "compare-ks":
        _csv_rows(stdout, KS_HEADER, expect["rows"], problems)
    elif cmd == "sample":
        problems += check_masks(Path(expect["out"]), expect["count"], expect["support"])
    else:
        problems.append(f"no check for {cmd}")
    return problems


def _check_json(cmd: str, obj: dict, expect: dict, problems: list[str]) -> None:
    if cmd == "validate-measure":
        if obj.get("valid") is not True:
            problems.append("valid is not true")
        if obj.get("support_size") != len(expect["support"]):
            problems.append(f"support_size {obj.get('support_size')} != "
                            f"{len(expect['support'])}")
        if obj.get("homogeneity") != expect["k"]:
            problems.append(f"homogeneity {obj.get('homogeneity')} != {expect['k']}")
    elif cmd == "scp-check":
        if obj.get("scp") is not True:
            problems.append(f"scp is not true (witness {obj.get('witness')})")
    elif cmd == "build-walk":
        floor = 1.0 / (2.0 * expect["k"])
        gap = obj.get("gap")
        if obj.get("gap_ok") is not True:
            problems.append("gap_ok is not true")
        if not isinstance(gap, (int, float)) or not gap >= floor - GAP_SLACK:
            problems.append(f"gap {gap} below 1/(2k) = {floor}")
        if set(obj.get("states", [])) != expect["support"]:
            problems.append("walk states differ from the exact support")
        q = np.asarray(obj.get("Q", []), dtype=float)
        m = len(expect["support"])
        if q.shape != (m, m):
            problems.append(f"Q has shape {q.shape}, expected ({m}, {m})")
        elif np.abs(q.sum(axis=1)).max() > 1e-8 * max(1.0, np.abs(q).max()):
            problems.append("Q rows do not sum to zero")
    elif cmd == "poincare-check":
        if obj.get("passed") is not True:
            problems.append(f"Poincare check not passed (slack {obj.get('min_eig_slack')})")
    elif cmd == "ineq-suite":
        if obj.get("all_passed") is not True:
            problems.append(f"ineq-suite violations {obj.get('violations')}")
        if obj.get("trials") != expect["trials"]:
            problems.append(f"trials {obj.get('trials')} != {expect['trials']}")


def check_masks(path: Path, count: int, support: set[int]) -> list[str]:
    """The dump has `count` hex masks, each inside the exact support."""
    try:
        lines = path.read_text().split()
    except OSError as exc:
        return [f"cannot read the sample dump: {exc}"]
    problems = []
    if len(lines) != count:
        problems.append(f"{len(lines)} sampled masks, expected {count}")
    try:
        outside = {int(x, 16) for x in lines} - support
    except ValueError as exc:
        return problems + [f"bad mask in the dump: {exc}"]
    if outside:
        problems.append(f"{len(outside)} sampled masks outside the support")
    return problems
