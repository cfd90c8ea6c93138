"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Each workload runs once untraced and once traced on small inputs; every
metric the benchmark defines must come out with a unit.  The gate must
count a doctored op result as a failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
K3 = (3, [(0, 1), (1, 2), (0, 2)])

# the metrics the benchmark is asked to report, declared or not
END_TO_END = {"wall_s", "setup_s", "peak_rss_mb", "ops_failed_ratio", "certify_s",
              "cold_start_s", "walk_ready_s"}
PER_LAYER = {
    "measures.coupling_solves", "measures.coupling_s", "measures.condition_calls",
    "measures.scp_check_s", "chains.walk_calls", "chains.walk_build_s",
    "chains.adjacency_calls", "chains.validate_s", "chains.states", "chains.rate_nnz",
    "functional.gap_calls", "functional.gap_s", "functional.poincare_s",
    "functional.dirichlet_calls", "functional.dirichlet_s",
    "concentration.oscillation_calls", "concentration.oscillation_pairs",
    "concentration.oscillation_s", "concentration.induction_s", "concentration.mgf_s",
    "concentration.tail_s", "samplers.draws", "samplers.sample_s",
    "samplers.empirical_tail_s", "matrix_core.check_calls", "matrix_core.check_s",
    "cli.import_s", "cli.import_scipy_stats_s", "cli.import_networkx_s",
    "cli.output_bytes", "trace.overhead_ratio",
    *(f"{layer}.self_s" for layer in spans.LAYERS),
}


def tiny(name: str, workdir: Path):
    if name == "trees":
        return workloads.Trees(7, workdir, graph=K3)
    if name == "observables":
        return workloads.Observables(7, workdir, n=6, k=3, observables=2, samples=500)
    return workloads.CliSmall(7, workdir, tail_count=1000, sample_count=200)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reports_every_metric(name, trace, tmp_path):
    gate_, metrics, share = run.measure(tiny(name, tmp_path), 0.0, trace,
                                        run.child_env(), tmp_path)
    assert gate_.failures == []
    declared = SPEC["per_layer" if trace else "end_to_end"]
    report, result = run.report_lines(gate_, metrics, share, declared, {})
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    expected = PER_LAYER if trace else END_TO_END | ({"obs_per_s"} if
                                                     name == "observables" else set())
    assert expected <= set(report["metrics"])
    for name_, entry in report["metrics"].items():
        assert entry["unit"] and entry["n"] >= 1, name_
    if trace:
        assert abs(sum(v for k, v in share.items() if "." not in k) - 1.0) < 1e-9
        # a declared per-layer time is measured on every workload, never a fixed 0
        zero = [m["name"] for m in declared
                if m["unit"] == "s" and not result["metrics"][m["name"]]["value"] > 0]
        assert zero == []


BUILD_WALK = {"states": [3, 5, 6], "pi": [1 / 3] * 3,
              "Q": [[-1.0, 0.5, 0.5], [0.5, -1.0, 0.5], [0.5, 0.5, -1.0]],
              "gap": 1.5, "gap_lower_bound": 0.25, "gap_ok": True}
EXPECT = {"support": {3, 5, 6}, "k": 2}


def test_gate_passes_a_good_build_walk():
    assert gate.check_cli("build-walk", 0, json.dumps(BUILD_WALK), EXPECT) == []


@pytest.mark.parametrize("doctor", [
    lambda text: text.replace('"gap": 1.5', '"gap": Infinity'),
    lambda text: text.replace('"gap": 1.5', '"gap": NaN'),
    lambda text: text.replace('"gap_ok": true', '"gap_ok": false'),
    lambda text: text.replace('"gap": 1.5', '"gap": 0.1'),
], ids=["infinity", "nan", "gap_ok_false", "gap_below_floor"])
def test_gate_counts_a_doctored_result(doctor):
    g = gate.Gate()
    text = doctor(json.dumps(BUILD_WALK))
    g.record("build-walk", gate.check_cli("build-walk", 0, text, EXPECT))
    assert (g.attempted, g.failed) == (1, 1)


def test_gate_counts_a_bad_exit_code_and_masks(tmp_path):
    dump = tmp_path / "draws.txt"
    dump.write_text("3\n5\nf\n")
    problems = gate.check_cli("sample", 3, "", {"out": str(dump), "count": 4,
                                                "support": {3, 5, 6}})
    assert len(problems) == 3  # exit code, line count, mask outside the support


def test_oracles_match_known_counts():
    assert len(gate.spanning_trees(*workloads.WHEEL4)) == 45
    assert len(gate.spanning_trees(*workloads.K4)) == 16


def test_install_reaches_every_binding():
    from srconc import chains, concentration, functional, measures

    originals = (measures.feasible_coupling, functional.dirichlet_form)
    undo = spans.install(spans.Recorder())
    try:
        assert chains.feasible_coupling is measures.feasible_coupling
        assert chains.feasible_coupling is not originals[0]
        assert concentration.dirichlet_form is functional.dirichlet_form
        assert concentration.dirichlet_form is not originals[1]
    finally:
        spans.uninstall(undo)
    assert (measures.feasible_coupling, concentration.dirichlet_form) == originals


def test_missing_sources_exit_nonzero(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "trees",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
