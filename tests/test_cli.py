import csv
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from srconc.cli import main
from srconc.concentration import TAIL_CSV_COLUMNS


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def uniform_cfg(tmp_path, n=3, k=1, **extra):
    cfg = {"measure": {"family": "uniform_k_subsets", "n": n, "k": k}}
    cfg.update(extra)
    return write_cfg(tmp_path, "cfg.json", cfg)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_csv(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, list(csv.reader(out.strip().splitlines()))


# ------------------------------------------------------------------ validate

def test_validate_measure_ok(tmp_path, capsys):
    cfg = uniform_cfg(tmp_path, 4, 2)
    code, payload = run_json(capsys, ["validate-measure", "--config", cfg])
    assert code == 0
    assert payload == {"valid": True, "n": 4, "support_size": 6, "homogeneity": 2}


def test_validate_measure_rejects_unnormalized(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json", {
        "measure": {"inline": {"n": 1, "entries": [{"mask": 0, "p": 0.4},
                                                   {"mask": 1, "p": 0.4}]}}})
    code, payload = run_json(capsys, ["validate-measure", "--config", cfg])
    assert code == 2
    assert payload["error"] == "NotNormalized"


def test_validate_measure_rejects_nan_mass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "nan.json", {
        "measure": {"inline": {"n": 1, "entries": [{"mask": 0, "p": float("nan")},
                                                   {"mask": 1, "p": 0.5}]}}})
    code, payload = run_json(capsys, ["validate-measure", "--config", cfg])
    assert code == 2
    assert payload["error"] == "NotNormalized"


def test_validate_measure_negative_mass_message(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "neg.json", {
        "measure": {"inline": {"n": 1, "entries": [{"mask": 0, "p": -0.1},
                                                   {"mask": 1, "p": 1.1}]}}})
    code, payload = run_json(capsys, ["validate-measure", "--config", cfg])
    assert code == 2
    assert payload == {"error": "NegativeMass", "message": "mass -0.1 at mask 0x0"}


@pytest.mark.parametrize("mask", [-1, 7])
def test_validate_measure_rejects_mask_out_of_range(tmp_path, capsys, mask):
    cfg = write_cfg(tmp_path, "mask.json", {
        "measure": {"inline": {"n": 2, "entries": [{"mask": 0, "p": 0.5},
                                                   {"mask": mask, "p": 0.5}]}}})
    code, payload = run_json(capsys, ["validate-measure", "--config", cfg])
    assert code == 2
    assert payload["error"] == "MaskOutOfRange"


@pytest.mark.parametrize("n", [-1, 40])
def test_validate_measure_rejects_n_out_of_range(tmp_path, capsys, n):
    cfg = write_cfg(tmp_path, "n.json", {
        "measure": {"inline": {"n": n, "entries": [{"mask": 0, "p": 1.0}]}}})
    code, payload = run_json(capsys, ["validate-measure", "--config", cfg])
    assert code == 2
    assert payload["error"] == "StateSpaceTooLarge"


def test_validate_measure_inline_roundtrip(tmp_path, capsys):
    inline = {"n": 2, "entries": [{"mask": 1, "p": 0.5}, {"mask": 2, "p": 0.5}]}
    cfg = write_cfg(tmp_path, "inline.json", {"measure": {"inline": inline}})
    code, payload = run_json(capsys, ["validate-measure", "--config", cfg])
    assert code == 0
    assert payload["support_size"] == 2


def test_spanning_tree_family(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "tree.json", {
        "measure": {"family": "spanning_tree",
                    "graph": {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}}})
    code, payload = run_json(capsys, ["validate-measure", "--config", cfg])
    assert code == 0
    assert payload["support_size"] == 3
    assert payload["homogeneity"] == 2


# ----------------------------------------------------------------- scp-check

def test_scp_check_positive(tmp_path, capsys):
    cfg = uniform_cfg(tmp_path, 4, 2)
    code, payload = run_json(capsys, ["scp-check", "--config", cfg])
    assert code == 0
    assert payload == {"scp": True, "witness": None}


def test_scp_check_negative_has_witness(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "nonscp.json", {
        "measure": {"inline": {"n": 2, "entries": [{"mask": 0, "p": 0.5},
                                                   {"mask": 3, "p": 0.5}]}}})
    code, payload = run_json(capsys, ["scp-check", "--config", cfg])
    assert code == 2
    assert payload["scp"] is False
    wit = payload["witness"]
    assert set(wit) == {"coords", "x", "y"}
    assert len(wit["coords"]) == len(wit["x"]) == len(wit["y"])


# ---------------------------------------------------------------- build-walk

def test_build_walk_uniform31(tmp_path, capsys):
    cfg = uniform_cfg(tmp_path, 3, 1)
    code, payload = run_json(capsys, ["build-walk", "--config", cfg])
    assert code == 0
    assert payload["states"] == [1, 2, 4]
    assert payload["gap"] == pytest.approx(1.5)
    assert payload["delta"] == pytest.approx(1.0)
    assert payload["delta_raw"] == pytest.approx(7 / 9)
    assert payload["homogeneity"] == 1
    assert payload["gap_lower_bound"] == pytest.approx(0.5)
    assert payload["gap_ok"] is True
    q = np.asarray(payload["Q"])
    assert np.allclose(q, q.T)


def test_build_walk_output_reproducible(tmp_path, capsys):
    cfg = uniform_cfg(tmp_path, 4, 2)
    out1 = tmp_path / "walk1.json"
    out2 = tmp_path / "walk2.json"
    assert main(["build-walk", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["build-walk", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_build_walk_point_mass_emits_strict_json(tmp_path, capsys):
    # one state: the gap is infinite, which standard JSON can only carry as null
    cfg = write_cfg(tmp_path, "point.json", {
        "measure": {"inline": {"n": 2, "entries": [{"mask": 1, "p": 1.0}]}}})
    code = main(["build-walk", "--config", cfg])
    out = capsys.readouterr().out

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads(out, parse_constant=reject)
    assert code == 0
    assert payload["gap"] is None
    assert payload["states"] == [1]


def test_point_mass_walk_and_poincare_check(tmp_path, capsys):
    # one state: no exits (delta 0.0, not -0.0) and zero variance, so the
    # Poincare inequality holds even at the infinite gap
    cfg = write_cfg(tmp_path, "point.json", {
        "measure": {"inline": {"n": 2, "entries": [{"mask": 1, "p": 1.0}]}},
        "function": {"random": {"kind": "table", "d": 3, "seed": 4}}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, walk = run_json(capsys, ["build-walk", "--config", cfg])
        assert code == 0
        for key in ("delta", "delta_raw"):
            assert walk[key] == 0.0 and math.copysign(1.0, walk[key]) == 1.0
        code, payload = run_json(capsys, ["poincare-check", "--config", cfg])
    assert code == 0
    assert payload["passed"] is True
    assert payload["lambda"] is None
    assert payload["min_eig_slack"] == 0.0


# ------------------------------------------------------------ poincare-check

def test_poincare_check_default_lambda(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "p.json", {
        "measure": {"family": "uniform_k_subsets", "n": 4, "k": 2},
        "function": {"random": {"kind": "table", "d": 3, "seed": 7}}})
    code, payload = run_json(capsys, ["poincare-check", "--config", cfg])
    assert code == 0
    assert payload["passed"] is True
    assert payload["min_eig_slack"] >= -1e-8 * payload["scale"]


def test_poincare_check_violation_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "p.json", {
        "measure": {"family": "uniform_k_subsets", "n": 4, "k": 2},
        "function": {"random": {"kind": "table", "d": 3, "seed": 7}},
        "lambda": 100.0})
    code, payload = run_json(capsys, ["poincare-check", "--config", cfg])
    assert code == 3
    assert payload["passed"] is False


@pytest.mark.parametrize("function,needle", [
    ({"inline": {"d": 1, "values": [{"mask": 1, "rows": [[float("nan")]]},
                                    {"mask": 2, "rows": [[1.0]]},
                                    {"mask": 4, "rows": [[0.0]]}]}}, "finite"),
    ({"inline": {"d": 0, "values": [{"mask": s, "rows": []} for s in (1, 2, 4)]}},
     "d must be at least 1"),
    ({"random": {"kind": "table", "d": 0}}, "d >= 1"),
    ({"inline": {"d": 2, "values": []}}, "at least one state"),
    ({"inline": {"d": 1, "values": [{"mask": 1, "rows": [[1.0]]},
                                    {"mask": 2, "rows": [[0.0]]},
                                    {"mask": 4, "rows": [[0.0]]},
                                    {"mask": 1, "rows": [[5.0]]}]}}, "listed twice"),
], ids=["nan", "inline-d0", "random-d0", "inline-empty", "repeated-mask"])
def test_poincare_check_rejects_bad_values(tmp_path, capsys, function, needle):
    cfg = write_cfg(tmp_path, "p.json", {
        "measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
        "function": function})
    code, payload = run_json(capsys, ["poincare-check", "--config", cfg])
    assert code == 2
    assert payload["error"] == "BadValues"
    assert needle in payload["message"]


# ---------------------------------------------------------------- ineq-suite

def test_ineq_suite_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "i.json", {"trials": 8})
    code, payload = run_json(capsys, ["ineq-suite", "--config", cfg, "--seed", "1"])
    assert code == 0
    assert payload["all_passed"] is True
    assert payload["trials"] == 8
    assert set(payload["violations"]) == {
        "trace_monotone", "jensen_square_operator", "jensen_quartic_trace",
        "diff_square_convex", "duhamel", "int_norm", "lemma_var",
        "dirichlet_trace"}
    assert all(v == 0 for v in payload["violations"].values())


@pytest.mark.parametrize("trials", [0, -1])
def test_ineq_suite_rejects_no_trials(tmp_path, capsys, trials):
    cfg = write_cfg(tmp_path, "i.json", {"trials": trials})
    assert main(["ineq-suite", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


@pytest.mark.parametrize("dims", [[0], [3, -1], [], 3])
def test_ineq_suite_rejects_bad_dims(tmp_path, capsys, dims):
    cfg = write_cfg(tmp_path, "i.json", {"trials": 2, "dims": dims})
    assert main(["ineq-suite", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


def test_ineq_suite_trials_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "i.json", {"trials": 50})
    code, payload = run_json(capsys, ["ineq-suite", "--config", cfg,
                                      "--trials", "4"])
    assert code == 0
    assert payload["trials"] == 4


# ----------------------------------------------------------------------- mgf

def test_mgf_curve_under_bound(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m.json", {
        "measure": {"family": "uniform_k_subsets", "n": 4, "k": 2},
        "function": {"random": {"kind": "table", "d": 3, "seed": 7,
                                "scale": 0.4}}})
    code, rows = run_csv(capsys, ["mgf", "--config", cfg])
    assert code == 0
    assert rows[0] == ["theta", "trace_mgf", "bound", "ok"]
    assert len(rows) == 21
    for _, val, bound, ok in rows[1:]:
        assert ok == "True"
        assert float(val) <= float(bound) + 1e-8


def test_mgf_rejects_constant_function(tmp_path, capsys):
    inline = {"d": 1, "values": [{"mask": 1, "rows": [[1.0]]},
                                 {"mask": 2, "rows": [[1.0]]},
                                 {"mask": 4, "rows": [[1.0]]}]}
    cfg = write_cfg(tmp_path, "m.json", {
        "measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
        "function": {"inline": inline}})
    assert main(["mgf", "--config", cfg]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command,grid", [("mgf", "theta_grid"), ("tail", "t_grid")])
def test_grid_needs_a_point(tmp_path, capsys, command, grid):
    cfg = write_cfg(tmp_path, "g.json", {
        "measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
        "function": {"random": {"kind": "table", "d": 2, "seed": 3}},
        grid: {"points": 0}})
    assert main([command, "--config", cfg]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


@pytest.mark.parametrize("command,key,value", [
    ("mgf", "theta_grid", [1]), ("mgf", "theta_grid", {"points": 0}),
    ("tail", "t_grid", 5), ("tail", "t_grid", {"points": 0}),
    ("tail", "mode", "guess"), ("tail", "ks", 2)],
    ids=["theta-list", "theta-no-points", "t-int", "t-no-points", "mode", "ks-int"])
def test_bad_grid_or_mode_fails_before_the_walk(tmp_path, capsys, monkeypatch,
                                                command, key, value):
    def no_walk(*args, **kwargs):
        raise AssertionError("walk built before the config was checked")

    monkeypatch.setattr("srconc.chains.hermon_salez", no_walk)
    cfg = write_cfg(tmp_path, "g.json", {
        "measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
        "function": {"random": {"kind": "table", "d": 2, "seed": 3}},
        key: value})
    assert main([command, "--config", cfg]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_compare_ks_rejects_non_object_ks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "k.json", {"ks": 2})
    assert main(["compare-ks", "--config", cfg]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


@pytest.mark.parametrize("command,cfg,error,needle", [
    # an int or bool path would be opened as a file descriptor
    ("scp-check", {"measure": {"path": 0}}, "usage", "measure path"),
    ("scp-check", {"measure": {"path": [[0, 1]]}}, "usage", "measure path"),
    ("validate-measure", {"out": True}, "usage", "out must be"),
    ("validate-measure", {"out": 2}, "usage", "out must be"),
    ("compare-ks", {"ks": {"k_values": None}}, "TypeError", "NoneType"),
    ("validate-measure", {"measure": {"family": "bernoulli_product", "ps": 0}},
     "IndexError", "0-dimensional"),
    ("ineq-suite", {"seed": None}, "TypeError", "NoneType"),
], ids=["path-fd", "path-list", "out-bool", "out-fd", "ks-null", "ps-scalar",
        "seed-null"])
def test_malformed_values_are_usage_errors(tmp_path, capsys, command, cfg, error,
                                           needle):
    code = main([command, "--config", write_cfg(tmp_path, "c.json", cfg)])
    err = json.loads(capsys.readouterr().err)
    assert (code, err["error"]) == (1, error)
    assert needle in err["message"]


# ---------------------------------------------------------------------- tail

def test_tail_exact_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t.json", {
        "measure": {"family": "uniform_k_subsets", "n": 4, "k": 2},
        "function": {"random": {"kind": "linear", "d": 2, "L": 1.0, "seed": 5}},
        "t_grid": {"points": 12}})
    code, rows = run_csv(capsys, ["tail", "--config", cfg])
    assert code == 0
    assert rows[0][0] == "t"
    assert len(rows) == 13
    for row in rows[1:]:
        t, prob, _, bp, bs, bk, dom = row
        assert float(prob) <= float(bp) + 1e-8
        assert float(prob) <= float(bs) + 1e-8
        assert dom in ("poincare", "sr", "ks")
        assert bk != ""           # homogeneous with k = 2 fills the ks column


def test_tail_empirical_mode(tmp_path, capsys):
    out = tmp_path / "tail.csv"
    cfg = write_cfg(tmp_path, "t.json", {
        "measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
        "function": {"random": {"kind": "table", "d": 2, "seed": 3}},
        "mode": "empirical", "count": 2000, "t_grid": {"points": 6}})
    assert main(["tail", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.reader(out.read_text().strip().splitlines()))
    assert len(rows) == 7
    for row in rows[1:]:
        assert 0.0 <= float(row[1]) <= 1.0
        assert float(row[2]) >= float(row[1])   # CI upper covers the estimate


@pytest.mark.parametrize("mode", ["exact", "empirical"])
def test_tail_stdout_matches_out_file(tmp_path, capsys, mode):
    out = tmp_path / "tail.csv"
    cfg = write_cfg(tmp_path, "t.json", {
        "measure": {"family": "uniform_k_subsets", "n": 4, "k": 2},
        "function": {"random": {"kind": "table", "d": 2, "seed": 3}},
        "mode": mode, "count": 2000, "t_grid": {"points": 5}})
    assert main(["tail", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert main(["tail", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()

    rows = list(csv.reader(stdout.splitlines()))
    assert tuple(rows[0]) == TAIL_CSV_COLUMNS
    for row in rows[1:]:
        assert (row[2] == "") == (mode == "exact")   # no CI on exact tails
        assert row[4] == ""                          # a table has no Lipschitz bound
        bounds = {"poincare": float(row[3]), "ks": float(row[5])}
        assert row[6] == min(bounds, key=bounds.get)


def test_tail_rejects_unknown_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t.json", {
        "measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
        "function": {"random": {"kind": "table", "d": 2, "seed": 3}},
        "mode": "guess"})
    assert main(["tail", "--config", cfg]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------- compare-ks

def test_compare_ks_sweep(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "k.json", {
        "ks": {"k_values": [16, 64], "mu_factors": [0.5, 2.0]}})
    code, rows = run_csv(capsys, ["compare-ks", "--config", cfg])
    assert code == 0
    assert rows[0][0] == "k"
    assert len(rows) == 5
    for row in rows[1:]:
        better = row[5] == "True"
        factor_above = float(row[1]) > 0 and float(row[4]) >= float(row[3])
        assert better == factor_above


# -------------------------------------------------------------------- sample

def test_sample_table_to_file(tmp_path, capsys):
    out = tmp_path / "draws.hex"
    cfg = uniform_cfg(tmp_path, 3, 1, count=25)
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 25
    assert {int(s, 16) for s in lines} <= {1, 2, 4}


def test_sample_requires_out(tmp_path, capsys):
    cfg = uniform_cfg(tmp_path, 3, 1, count=5)
    assert main(["sample", "--config", cfg]) == 1
    capsys.readouterr()


def test_sample_seed_changes_draws(tmp_path, capsys):
    cfg = uniform_cfg(tmp_path, 4, 2, count=200)
    out1, out2, out3 = (tmp_path / f"d{i}.hex" for i in range(3))
    assert main(["sample", "--config", cfg, "--seed", "1", "--out", str(out1)]) == 0
    assert main(["sample", "--config", cfg, "--seed", "1", "--out", str(out2)]) == 0
    assert main(["sample", "--config", cfg, "--seed", "2", "--out", str(out3)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()


def test_sample_wilson(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "w.json", {
        "sampler": "wilson", "count": 30,
        "graph": {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}})
    out = tmp_path / "trees.hex"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    masks = {int(s, 16) for s in out.read_text().split()}
    assert masks <= {0b011, 0b101, 0b110}


def test_sample_kdpp(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "d.json", {
        "sampler": "kdpp", "count": 20,
        "kernel": {"d": 2, "rows": [[1.0, 0.0], [0.0, 0.0]]}})
    out = tmp_path / "dpp.hex"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert {int(s, 16) for s in out.read_text().split()} == {1}


# ----------------------------------------------------------------- plumbing

def test_unknown_command_usage_exit(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    assert main(["validate-measure", "--config", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert main(["validate-measure", "--config", str(cfg)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_config_without_measure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "empty.json", {})
    assert main(["validate-measure", "--config", cfg]) == 1
    capsys.readouterr()


def test_bad_measure_family(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "f.json", {"measure": {"family": "zeta"}})
    assert main(["validate-measure", "--config", cfg]) == 1
    capsys.readouterr()


def test_cli_import_skips_scipy():
    code = ("import sys, srconc, srconc.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'networkx')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_installed(tmp_path):
    cfg = uniform_cfg(tmp_path, 3, 1)
    proc = subprocess.run([sys.executable, "-m", "srconc.cli", "validate-measure",
                           "--config", cfg], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True
    script = subprocess.run(["srconc", "scp-check", "--config", cfg],
                            capture_output=True, text=True)
    assert script.returncode == 0
    assert json.loads(script.stdout)["scp"] is True
