"""The three benchmark workloads and the two ways of running CLI ops.

Every workload is closed loop: one op at a time, the next starting when
the previous one returns.  Inputs come from the workload seed only; the
program sees nothing but the generated config files (or, for
`observables`, the generated measure and observables).

- trees: the five-command certification sequence on the spanning trees
  of the 4-spoke wheel (45 trees, no symmetry), as CLI subprocesses.
  Coupling solves, the SCP check and the walk build do the work.
- observables: one walk on uniform(10, 5) built in process, then R random
  observables certified on it.  Dense concentration/functional work.
- cli_small: every subcommand but `compare-ks` once on small inputs, as
  CLI subprocesses.  Interpreter start and imports dominate.

Every run also times `compare-ks` (no config, so nearly pure start-up) as
the warm-up of each set-up and as cold-start probes after the passes.

Every timed op is bracketed by a reference loop (see `timed`): a pass
records each op's raw seconds and its seconds at reference speed, and
run.py turns the samples into metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gate

WHEEL4 = (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
K4 = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
CERTIFY = ("scp-check", "build-walk", "poincare-check", "mgf", "tail")
MGF_POINTS = 20     # cmd_mgf default theta grid
TAIL_POINTS = 50    # cmd_tail default t grid
KS_ROWS = 8 * 3     # cmd_compare_ks default k values x mu factors
OP_TIMEOUT_S = 150

# The host this benchmark was written on (2 vCPU Xeon VM) runs 25-50%
# slower for seconds to minutes at a time, and the slowdown hits a fixed
# pure-Python loop and the CLI alike: over 8 runs, the sum of five CLI ops
# (best of two repeats each) spread 35% (quartiles over median) in wall
# time and 2% once each op was divided by the loop's time.  So every op is scaled to reference speed: raw seconds *
# REF_SECONDS / loop time, with the loop timed just before and just after
# the op.  REF_SECONDS is the loop's best time on that host, uncontended.
REF_ITERATIONS = 100_000
REF_SECONDS = 0.0055


def reference_loop() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def timed(fn, *args):
    """(result, raw seconds, seconds at reference speed) of one call."""
    before = reference_loop()
    t0 = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - t0
    loop = (before + reference_loop()) / 2
    return result, raw, raw * REF_SECONDS / loop


def _graph_json(graph) -> dict:
    vertices, edges = graph
    return {"vertices": vertices, "edges": [list(e) for e in edges]}


def projection_kernel(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    return q @ q.T


class SubprocessCli:
    """Runs `python -m srconc.cli ARGV` in a fresh interpreter per op."""

    def __init__(self, env: dict, cwd: Path):
        self.env = env
        self.cwd = cwd
        self.output_bytes = 0

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        try:
            proc = subprocess.run([sys.executable, "-m", "srconc.cli", *argv],
                                  cwd=self.cwd, env=self.env, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, ""
        self.output_bytes += len(proc.stdout.encode())
        return proc.returncode, proc.stdout


class InProcessCli:
    """Runs the same argv through `srconc.cli.main`, optionally inside a span."""

    def __init__(self, recorder=None):
        from srconc import cli

        self.main = cli.main
        self.recorder = recorder
        self.output_bytes = 0

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        span = (self.recorder.span(f"cli.{argv[0]}") if self.recorder
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            try:
                code = self.main(argv)
            except Exception:  # an uncaught error fails the op, like a crash would
                print(traceback.format_exc(), file=sys.stderr)
                code = -1
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        return code, text


class Pass:
    """Timed ops of one pass: name -> seconds at reference speed, and raw."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}

    def add(self, name: str, raw: float, scaled: float) -> None:
        self.raw.setdefault(name, []).append(raw)
        self.samples.setdefault(name, []).append(scaled)

    @property
    def wall(self) -> float:
        """The pass at reference speed: the sum of its ops."""
        return sum(sum(v) for v in self.samples.values())

    @property
    def raw_wall(self) -> float:
        """The pass in wall-clock seconds."""
        return sum(sum(v) for v in self.raw.values())


def run_op(cli, gate_, p: Pass, sample: str, argv: list[str], expect: dict) -> None:
    """One CLI op: run it, gate its output, record its time under `sample`."""
    (code, stdout), raw, scaled = timed(cli, argv)
    gate_.record(sample, gate.check_cli(argv[0], code, stdout, expect))
    p.add(sample, raw, scaled)


class CliWorkload:
    """Shared set-up for the workloads that drive the CLI."""

    certify_ops = tuple(f"op.{cmd}" for cmd in CERTIFY)
    walk_op = "op.build-walk"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def write(self, name: str, cfg: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(cfg))
        return str(path)

    def certify(self, cli, gate_, p: Pass, cfg: str, expect: dict) -> None:
        """The five-command certification sequence on one config."""
        for cmd in CERTIFY:
            rows = {"mgf": MGF_POINTS, "tail": TAIL_POINTS}.get(cmd)
            run_op(cli, gate_, p, f"op.{cmd}", [cmd, "--config", cfg],
                   dict(expect, rows=rows))


class Trees(CliWorkload):
    name = "trees"

    def __init__(self, seed: int, workdir: Path, graph=WHEEL4):
        super().__init__(seed, workdir)
        self.graph = graph
        self.expect = {"support": gate.spanning_trees(*graph), "k": graph[0] - 1}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.cfg = self.write("trees.json", {
            "seed": self.seed,
            "measure": {"family": "spanning_tree", "graph": _graph_json(self.graph)},
            "function": {"random": {"kind": "linear", "d": 4, "L": 1.0,
                                    "seed": int(rng.integers(2**31))}},
        })

    def run_pass(self, gate_, cli, recorder=None) -> Pass:
        p = Pass()
        self.certify(cli, gate_, p, self.cfg, self.expect)
        return p


class CliSmall(CliWorkload):
    name = "cli_small"

    def __init__(self, seed: int, workdir: Path, tail_count: int = 100_000,
                 sample_count: int = 20_000):
        super().__init__(seed, workdir)
        self.tail_count = tail_count
        self.sample_count = sample_count
        self.k4 = {"support": gate.spanning_trees(*K4), "k": K4[0] - 1}
        self.wheel_trees = gate.spanning_trees(*WHEEL4)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        seeds = [int(s) for s in rng.integers(2**31, size=4)]
        kernel = projection_kernel(rng, 5, 2)
        kernel_json = {"d": 5, "rows": kernel.tolist()}
        self.dpp_support = gate.dpp_support(kernel)
        k4 = {"seed": seeds[0],
              "measure": {"family": "spanning_tree", "graph": _graph_json(K4)},
              "function": {"random": {"kind": "linear", "d": 4, "L": 1.0,
                                      "seed": seeds[1]}}}
        self.cfg = {
            "k4": self.write("k4.json", k4),
            "k4_emp": self.write("k4_emp.json", dict(k4, mode="empirical",
                                                     count=self.tail_count)),
            "dpp": self.write("dpp.json", {"seed": seeds[2], "measure": {
                "family": "projection_dpp", "kernel": kernel_json}}),
            "ineq": self.write("ineq.json", {"seed": seeds[3]}),
            "wilson": self.write("wilson.json", {
                "seed": seeds[2], "sampler": "wilson", "graph": _graph_json(WHEEL4),
                "count": self.sample_count}),
            "kdpp": self.write("kdpp.json", {
                "seed": seeds[3], "sampler": "kdpp", "kernel": kernel_json,
                "count": self.sample_count}),
        }

    def run_pass(self, gate_, cli, recorder=None) -> Pass:
        p = Pass()
        cfg = self.cfg
        run_op(cli, gate_, p, "op.validate-measure",
               ["validate-measure", "--config", cfg["k4"]], self.k4)
        self.certify(cli, gate_, p, cfg["k4"], self.k4)
        run_op(cli, gate_, p, "op.tail.empirical",
               ["tail", "--config", cfg["k4_emp"]], {"rows": TAIL_POINTS})
        run_op(cli, gate_, p, "op.scp-check.dpp",
               ["scp-check", "--config", cfg["dpp"]], {})
        run_op(cli, gate_, p, "op.ineq-suite",
               ["ineq-suite", "--config", cfg["ineq"]], {"trials": 100})
        for name, support in (("wilson", self.wheel_trees), ("kdpp", self.dpp_support)):
            out = str(self.workdir / f"{name}.txt")
            run_op(cli, gate_, p, f"op.sample.{name}",
                   ["sample", "--config", cfg[name], "--out", out],
                   {"out": out, "count": self.sample_count, "support": support})
        return p


class Observables:
    """Walk on uniform(n, k) in process, then R observables certified on it."""

    name = "observables"
    certify_ops = ("op.observable",)
    walk_op = "op.walk"

    d = 4

    def __init__(self, seed: int, workdir: Path, n: int = 10, k: int = 5,
                 observables: int = 4, samples: int = 20_000):
        self.seed = seed
        self.n, self.k, self.r, self.samples = n, k, observables, samples

    def setup(self) -> None:
        from srconc import functional, measures

        rng = np.random.default_rng(self.seed)
        self.measure = measures.make_uniform_k_subsets(self.n, self.k)
        states = self.measure.support()
        self.support = set(states.tolist())
        self.fns = []
        for _ in range(self.r):
            fn, lip = functional.random_linear_matrix_fn(
                self.n, states, self.d, 1.0, int(rng.integers(2**31)))
            self.fns.append((fn, lip, int(rng.integers(2**31))))

    def run_pass(self, gate_, cli=None, recorder=None) -> Pass:
        from srconc import chains, concentration as cc, functional, samplers

        p = Pass()
        span = recorder.span if recorder else (lambda name: contextlib.nullcontext())

        def walk_phase():
            with span("bench.walk_phase"):
                walk = chains.hermon_salez(self.measure)
                chains.validate_generator(walk)
                return walk, functional.scalar_spectral_gap(walk)

        (walk, lam), raw, scaled = timed(walk_phase)
        p.add("op.walk", raw, scaled)
        floor = 1.0 / (2.0 * self.k)
        problems = [] if lam >= floor - gate.GAP_SLACK else [f"gap {lam} < {floor}"]
        if set(walk.states.tolist()) != self.support:
            problems.append("walk states differ from the support")
        gate_.record("walk", problems)

        def observable(fn, lip, sample_seed):
            with span("bench.observable"):
                try:
                    self._certify(walk, lam, fn, lip, sample_seed, gate_, cc,
                                  functional, samplers)
                except Exception:  # a library error fails the op, not the run
                    gate_.record("observable", [traceback.format_exc(limit=-2)])

        for args in self.fns:
            _, raw, scaled = timed(observable, *args)
            p.add("op.observable", raw, scaled)
        return p

    def _certify(self, walk, lam, fn, lip, sample_seed, gate_, cc, functional,
                 samplers) -> None:
        """One observable: oscillation, Poincare, ladder, mgf, tails, samples."""
        v = cc.oscillation(walk, fn).v
        gate_.record("oscillation", [] if math.isfinite(v) and v > 0 else [f"v = {v}"])
        # scale into the ladder radius: alpha v^2 <= 0.81
        c = min(1.0, math.sqrt(0.81 * lam) / v)
        fn = functional.MatrixFn(fn.states, fn.values * c)
        v, lip = v * c, lip * c

        rep = functional.check_matrix_poincare(walk, fn, lam)
        gate_.record("poincare", [] if rep.passed else [f"slack {rep.min_eig_slack}"])
        ind = cc.check_induction_statement(walk, fn, lam, 12)
        gate_.record("induction", [] if ind.passed else [f"slacks {ind.slacks.min()}"])
        theta_max = math.sqrt(0.9 * lam) / v
        ok = [cc.check_mgf_bound(walk, fn, lam, float(th))
              for th in np.linspace(theta_max / 5, theta_max, 5)]
        gate_.record("mgf", [] if all(ok) else [f"mgf bound fails at {ok}"])

        vals = fn.gather(walk.states)
        mean = functional.matrix_mean(walk.pi, vals)
        dev = float(np.abs(np.linalg.eigvalsh(vals - mean)).max())
        ts = np.linspace(1.25 * dev / 20, 1.25 * dev, 20)
        exact = cc.exact_tail(walk.pi, vals, ts)
        radius = math.sqrt(lam) / v
        grid = np.linspace(radius / 100, radius * (1 - 1e-9), 100)
        curve = np.array([cc.mgf_bound(float(th), lam, v, self.d) for th in grid])
        problems = []
        for t, prob in zip(ts.tolist(), exact.tolist()):
            bp = cc.tail_bound_poincare(t, lam, v, self.d).raw
            bs = cc.tail_bound_sr(t, self.k, lip, self.d)
            lap = cc.laplace_tail(grid, curve, t,
                                  mgf=lambda th: cc.mgf_bound(th, lam, v, self.d))
            if prob > bp + 1e-12 or prob > bs + 1e-12 or lap > bp + 1e-9 * max(1.0, bp):
                problems.append(f"tail bound fails at t={t}")
                break
        gate_.record("tail", problems)

        ok = cc.check_dirichlet_trace_bound(walk, fn, 2)
        gate_.record("dirichlet_trace", [] if ok else ["Dirichlet trace bound fails"])

        batch = samplers.sample_table(self.measure, sample_seed, self.samples)
        rows = samplers.empirical_tail(fn, batch, ts, measure=self.measure)
        problems = []
        if set(batch.draws.tolist()) - self.support:
            problems.append("sampled masks outside the support")
        if any(not 0.0 <= r.estimate <= r.ci_upper <= 1.0 for r in rows):
            problems.append("empirical tail row out of order")
        gate_.record("empirical_tail", problems)


WORKLOADS = {w.name: w for w in (Trees, Observables, CliSmall)}
