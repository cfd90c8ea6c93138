"""srconc benchmark: one workload per invocation.

    python3 bench/run.py --workload {trees,observables,cli_small} --seed N \
        --seconds S --trace {0,1}

Paths resolve from this file, so any working directory works.  The run
sets up SETUP_REPEATS times, repeats passes of the workload (at least
MIN_PASSES, more while they fit in S seconds), and checks every op with
the correctness gate (gate.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with every
time scaled to reference speed (workloads.timed).  --trace 1 runs the same
inputs in process, alternating an untraced pass with a pass whose library
calls are wrapped in spans (spans.py), and reports the per-layer metrics.
The next-to-last stdout line is the full report: every metric with its
unit, sample count and raw wall-clock median, layer shares, the
environment and the first failures.  The last line is the result:
{"correct", "attempted", "failed", "metrics"}.

Exit code 0 when every op passed the gate, 1 when one failed, 2 when the
srconc sources are not next to the benchmark.
"""

import os

# One BLAS/OpenMP thread for the benchmark and, through the environment,
# for every CLI child: the matrices are small, and extra threads only add
# scheduling noise on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 2       # so that every op has a repeat
COLD_PROBES = 2      # compare-ks probes after the passes
IMPORT_PROBES = 3    # fresh interpreters timed with -X importtime in a traced run


def unit_of(name: str) -> str:
    if name == "obs_per_s":
        return "1/s"
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"),
                         ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH"))
                                        if p)
    return env


def import_times(env: dict, cwd: Path) -> dict:
    """Cumulative `-X importtime` figures of `import srconc.cli`, in seconds."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import srconc.cli"],
                          env=env, cwd=cwd, check=True, capture_output=True, text=True,
                          timeout=workloads.OP_TIMEOUT_S)
    cumulative, own = {}, 0
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        cumulative[name] = int(fields[1])
        if name == "srconc" or name.startswith("srconc."):
            own += int(fields[0])
    total = cumulative["srconc.cli"]
    return {"cli.import_s": total / 1e6,
            "cli.import_self_s": own / 1e6,
            "cli.import_deps_s": (total - own) / 1e6,
            "cli.import_scipy_stats_s": cumulative.get("scipy.stats", 0) / 1e6,
            "cli.import_networkx_s": cumulative.get("networkx", 0) / 1e6}


def environment(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(),
            **{pkg: version(pkg) for pkg in ("numpy", "scipy", "networkx")},
            "nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit or None,
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "ref_seconds": workloads.REF_SECONDS}


def repeat(run_pass, seconds: float) -> list:
    """MIN_PASSES passes, then more while the next would end by `seconds` + half a pass."""
    out = []
    t0 = time.perf_counter()
    while True:
        out.append(run_pass())
        if (len(out) >= MIN_PASSES
                and time.perf_counter() - t0 + out[-1].raw_wall / 2 >= seconds):
            return out


def untraced(wl, gate_, cli, seconds: float, setup) -> dict:
    """End-to-end metrics as (median at reference speed, samples, raw median).

    A pass (`wall_s`) and a certification (`certify_s`) are sums of their
    ops' medians.
    """
    in_process = isinstance(wl, workloads.Observables)
    passes = repeat(lambda: wl.run_pass(gate_, None if in_process else cli), seconds)
    probes = workloads.Pass()
    for _ in range(COLD_PROBES):
        workloads.run_op(cli, gate_, probes, "op.compare-ks", ["compare-ks"],
                         {"rows": workloads.KS_ROWS})
    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for p in (setup, *passes, probes):
        for name in p.samples:
            scaled.setdefault(name, []).extend(p.samples[name])
            raw.setdefault(name, []).extend(p.raw[name])
    metrics = {name: (statistics.median(scaled[name]), len(scaled[name]),
                      statistics.median(raw[name])) for name in scaled}
    per_pass = {name: len(vals) for name, vals in passes[0].samples.items()}
    metrics["wall_s"] = (sum(k * metrics[name][0] for name, k in per_pass.items()),
                         len(passes), statistics.median(p.raw_wall for p in passes))
    # one certification: the five commands, or one observable on the built walk
    ops = [metrics[op] for op in wl.certify_ops]
    metrics["certify_s"] = (sum(m[0] for m in ops), ops[0][1], sum(m[2] for m in ops))
    metrics["walk_ready_s"] = metrics[wl.walk_op]
    metrics["cold_start_s"] = metrics["op.compare-ks"]
    if in_process:
        value, n, raw_s = metrics["certify_s"]
        metrics["obs_per_s"] = (1.0 / value, n, 1.0 / raw_s)
    return metrics


def traced(wl, gate_, env: dict, workdir: Path, seconds: float):
    """Alternate untraced and traced in-process passes; per-layer metrics."""
    uses_cli = not isinstance(wl, workloads.Observables)
    plain, layers, shares = [], [], []
    t0 = time.perf_counter()
    while True:
        cli = workloads.InProcessCli() if uses_cli else None
        plain.append(wl.run_pass(gate_, cli))
        rec = spans.Recorder()
        cli = workloads.InProcessCli(rec) if uses_cli else None
        undo = spans.install(rec)
        try:
            p = wl.run_pass(gate_, cli, rec)
        finally:
            spans.uninstall(undo)
        layer = spans.reduce_spans(rec)
        layer["cli.output_bytes"] = cli.output_bytes if cli else 0
        layer["trace.pass_s"] = p.wall
        layers.append(layer)
        shares.append(layer_shares(layer))
        if not uses_cli:
            inner = spans.reduce_spans(rec, root="bench.observable")
            shares[-1].update({f"observable_phase.{k}": v
                               for k, v in layer_shares(inner).items()})
        if time.perf_counter() - t0 + (plain[-1].raw_wall + p.raw_wall) / 2 >= seconds:
            break
    imports = [import_times(env, workdir) for _ in range(IMPORT_PROBES)]
    metrics = {}
    for name in layers[0]:
        vals = [layer[name] for layer in layers]
        metrics[name] = (statistics.median(vals), len(vals), None)
    for name in imports[0]:
        vals = [imp[name] for imp in imports]
        metrics[name] = (statistics.median(vals), len(vals), None)
    untraced_s = statistics.median(q.wall for q in plain)
    traced_s = statistics.median(layer["trace.pass_s"] for layer in layers)
    metrics["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s,
                                       len(layers), None)
    share = {k: statistics.median(s[k] for s in shares) for k in shares[0]}
    return metrics, share


def layer_shares(layer: dict) -> dict:
    """Each layer's self time as a share of all time inside spans."""
    selfs = {k: v for k, v in layer.items() if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    return {k.removesuffix(".self_s"): v / total for k, v in selfs.items()}


def measure(wl, seconds: float, trace: bool, env: dict, workdir: Path) -> tuple:
    """Set up, run and gate one workload; returns (gate, metrics, layer shares).

    Metrics map a name to (value, sample count, raw-seconds median or None).
    """
    gate_ = gate.Gate()
    cli = workloads.SubprocessCli(env, workdir)
    setup = workloads.Pass()
    for _ in range(SETUP_REPEATS):
        _, raw, scaled = workloads.timed(wl.setup)
        # the warm-up invocation writes the .pyc files and is a cold-start probe
        workloads.run_op(cli, gate_, setup, "op.compare-ks", ["compare-ks"],
                         {"rows": workloads.KS_ROWS})
        setup.add("setup_s", raw + setup.raw["op.compare-ks"][-1],
                  scaled + setup.samples["op.compare-ks"][-1])
    share = {}
    if trace:
        metrics, share = traced(wl, gate_, env, workdir, seconds)
    else:
        metrics = untraced(wl, gate_, cli, seconds, setup)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, 1, None)
    metrics["ops_failed_ratio"] = (gate_.failed / max(1, gate_.attempted),
                                   gate_.attempted, None)
    return gate_, metrics, share


def report_lines(gate_, metrics: dict, share: dict, declared: list, env_info: dict):
    """The full report and the result object (the last stdout line)."""
    report = {
        "env": env_info,
        "attempted": gate_.attempted, "failed": gate_.failed,
        "failures": gate_.failures[:10],
        "metrics": {name: {"value": v, "unit": unit_of(name), "n": n,
                           **({"raw": raw} if raw is not None else {})}
                    for name, (v, n, raw) in sorted(metrics.items())},
        "layer_shares": share,
    }
    result = {
        "correct": gate_.failed == 0,
        "attempted": gate_.attempted,
        "failed": gate_.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one CPU for the benchmark and its children, so the reference loop
    # sees the same CPU as the op it brackets
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "srconc" / "cli.py").is_file():
        print(f"no srconc sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = ROOT / ".bench_build" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        gate_, metrics, share = measure(wl, args.seconds, bool(args.trace), child_env(),
                                        workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report, result = report_lines(gate_, metrics, share,
                                  spec["per_layer" if args.trace else "end_to_end"],
                                  environment(args))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
