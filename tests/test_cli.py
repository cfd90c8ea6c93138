import csv
import errno
import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import srconc
from srconc import chains, cli, concentration, functional, matrix_core, measures, streams
from srconc.cli import main
from srconc.concentration import TAIL_CSV_COLUMNS


# a fresh interpreter finds srconc where this one did, however pytest was started
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(srconc.__file__)), os.environ.get("PYTHONPATH")])))


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


def test_validate_measure_rejects_repeated_mask(tmp_path, capsys):
    """Keeping the last mass of mask 1 made these masses, which total 1.5,
    pass as a normalized measure."""
    cfg = write_cfg(tmp_path, "rep.json", {
        "measure": {"inline": {"n": 2, "entries": [{"mask": 1, "p": 0.5},
                                                   {"mask": 1, "p": 0.5},
                                                   {"mask": 2, "p": 0.5}]}}})
    code, payload = run_json(capsys, ["validate-measure", "--config", cfg])
    assert code == 2
    assert payload == {"error": "MeasureError", "message": "mask 1 is listed twice"}


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


@pytest.mark.parametrize("count", [32, 70])
def test_bernoulli_too_many_coordinates_is_rejected_before_allocating(tmp_path, capsys,
                                                                      count):
    """32 coordinates used to die on a 32 GiB table, 70 on numpy's size cap."""
    cfg = write_cfg(tmp_path, "b.json", {
        "measure": {"family": "bernoulli_product", "ps": [0.5] * count}})
    code, payload = run_json(capsys, ["validate-measure", "--config", cfg])
    assert (code, payload["error"]) == (2, "StateSpaceTooLarge")


def test_bernoulli_nan_probability_fails_the_range_check(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "b.json", {
        "measure": {"family": "bernoulli_product", "ps": [0.5, math.nan]}})
    assert main(["validate-measure", "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "[0, 1]" in err["message"]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_kernel_is_invalid_input(tmp_path, capsys, bad):
    """Both kernel readers exit 2, not 4 (an internal numeric failure)."""
    kernel = {"d": 2, "rows": [[0.5, bad], [bad, 0.5]]}
    dpp = write_cfg(tmp_path, "d.json", {
        "measure": {"family": "projection_dpp", "kernel": kernel}})
    code, payload = run_json(capsys, ["validate-measure", "--config", dpp])
    assert (code, payload["error"]) == (2, "NotAProjection")
    kdpp = write_cfg(tmp_path, "k.json", {"sampler": "kdpp", "kernel": kernel, "count": 5})
    code, payload = run_json(capsys, ["sample", "--config", kdpp,
                                      "--out", str(tmp_path / "draws.txt")])
    assert (code, payload["error"]) == (2, "NotAProjection")


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


def test_emit_walks_the_payload_only_for_a_non_finite_float(monkeypatch, capsys):
    """_emit prints a finite payload as json.dumps does and every non-finite
    float, at any depth, as null; only the latter pays for the _finite walk."""
    walked = []
    finite = cli._finite
    monkeypatch.setattr(cli, "_finite", lambda obj: walked.append(obj) or finite(obj))
    good = {"b": [1.5, (2, -0.0)], "a": {"x": 1e308, "y": True, "z": None}}
    cli._emit(good, None)
    assert capsys.readouterr().out == json.dumps(good, sort_keys=True, indent=2) + "\n"
    assert walked == []
    bad = {"gap": math.inf, "rows": [[1.0, math.nan], (np.float64(-math.inf),)]}
    cli._emit(bad, None)
    out = capsys.readouterr().out
    assert out == json.dumps({"gap": None, "rows": [[1.0, None], [None]]},
                             sort_keys=True, indent=2) + "\n"
    assert walked[0] is bad


def test_point_mass_walk_and_poincare_check(tmp_path, capsys):
    # one state: no exits (delta and Q 0.0, not -0.0) and zero variance, so the
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
        assert [math.copysign(1.0, v) for row in walk["Q"] for v in row] == [1.0]
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
    ({"inline": {"d": 2, "values": [{"mask": s, "rows": [[0.0, float("nan")], [0.0, 0.0]]}
                                    for s in (1, 2, 4)]}}, "finite"),
    ({"inline": {"d": 0, "values": [{"mask": s, "rows": []} for s in (1, 2, 4)]}},
     "d must be at least 1"),
    ({"inline": {"d": 2, "values": []}}, "at least one state"),
    ({"inline": {"d": 1, "values": [{"mask": 1, "rows": [[1.0]]},
                                    {"mask": 2, "rows": [[0.0]]},
                                    {"mask": 4, "rows": [[0.0]]},
                                    {"mask": 1, "rows": [[5.0]]}]}}, "listed twice"),
], ids=["nan", "nan-asymmetric", "inline-d0", "inline-empty", "repeated-mask"])
def test_poincare_check_rejects_bad_values(tmp_path, capsys, function, needle):
    cfg = write_cfg(tmp_path, "p.json", {
        "measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
        "function": function})
    code, payload = run_json(capsys, ["poincare-check", "--config", cfg])
    assert code == 2
    assert payload["error"] == "BadValues"
    assert needle in payload["message"]


@pytest.mark.parametrize("command", ["poincare-check", "mgf"])
def test_values_that_overflow_when_symmetrized_are_bad_values(tmp_path, capsys, command):
    """Entries near the float limit are finite, but (F + F^T) / 2 overflows for this
    draw: the observable held inf, and poincare-check ended in a LinAlgError (exit 4),
    mgf in a ValueError (exit 1)."""
    cfg = write_cfg(tmp_path, "p.json", {
        "seed": 3, "measure": {"family": "uniform_k_subsets", "n": 4, "k": 2},
        "function": {"random": {"kind": "table", "d": 2, "scale": 1e308}}})
    code, payload = run_json(capsys, [command, "--config", cfg])
    assert (code, payload) == (2, {"error": "BadValues", "message": "values must be finite"})


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


@pytest.mark.parametrize("dims", [[0], [3, -1], [], 3, [2.5], ["3"]])
def test_ineq_suite_rejects_bad_dims(tmp_path, capsys, dims):
    cfg = write_cfg(tmp_path, "i.json", {"trials": 2, "dims": dims})
    assert main(["ineq-suite", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


@pytest.mark.parametrize("tol,code,duhamel", [(1e-8, 0, 0), (0.0, 3, 40)])
def test_ineq_suite_output_is_pinned(tmp_path, capsys, tol, code, duhamel):
    """Byte for byte what the suite printed when each quadrature was a loop over
    its 64 nodes; at tol 0 no Duhamel residual is below the tolerance."""
    cfg = write_cfg(tmp_path, "i.json", {"trials": 40, "tol": tol, "dims": [1, 2, 5, 8]})
    assert main(["ineq-suite", "--config", cfg, "--seed", "5"]) == code
    names = ("diff_square_convex", "dirichlet_trace", "int_norm", "jensen_quartic_trace",
             "jensen_square_operator", "lemma_var", "trace_monotone")
    want = {"all_passed": code == 0, "trials": 40,
            "violations": {**dict.fromkeys(names, 0), "duhamel": duhamel}}
    assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("tol", [1e-8, 0.0])
def test_ineq_suite_prints_the_same_bytes_in_small_stacks(tmp_path, capsys, monkeypatch, tol):
    """One stack per entry of dims (4, 3 and 3 of 10 trials over [1, 2, 5]) at the
    default CHUNK_BYTES, and one trial per stack at CHUNK_BYTES = 1, print the same bytes."""
    cfg = write_cfg(tmp_path, "i.json", {"trials": 10, "tol": tol, "dims": [1, 2, 5]})
    outs, stacks, residual = [], [], matrix_core.duhamel_residual
    monkeypatch.setattr(matrix_core, "duhamel_residual",
                        lambda x, y: stacks.append(x.shape[:2]) or residual(x, y))
    for chunk_bytes in (streams.CHUNK_BYTES, 1):
        monkeypatch.setattr(streams, "CHUNK_BYTES", chunk_bytes)
        main(["ineq-suite", "--config", cfg])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["violations"]["duhamel"] == (tol == 0.0) * 10
    assert stacks == [(4, 1), (3, 2), (3, 5)] + [(1, 1)] * 4 + [(1, 2)] * 3 + [(1, 5)] * 3


def test_ineq_suite_memory_does_not_grow_with_d_squared(tmp_path, capsys):
    """At dims [48] a trial holds ~1.5 MB, so 13 trials take three stacks of at
    most 5; the tracemalloc peak stays under CHUNK_BYTES plus 2 MB (8.3 MB is
    measured), where one stack of all 13 peaks at 17 MB."""
    cfg = write_cfg(tmp_path, "i.json", {"trials": 13, "dims": [48]})
    main(["ineq-suite", "--trials", "1"])  # what a first run loads or caches is not stack state
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["ineq-suite", "--config", cfg]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["all_passed"]
    assert peak <= streams.CHUNK_BYTES + (2 << 20), peak


# the checkers ineq-suite calls, each with the stack of its trials' first matrices
SUITE_CHECKERS = {
    (matrix_core, "check_trace_monotone"): lambda args: args[1],
    (matrix_core, "check_operator_jensen"): lambda args: args[2][0],
    (matrix_core, "check_diff_square_convex"): lambda args: args[0],
    (matrix_core, "duhamel_residual"): lambda args: args[0],
    (matrix_core, "check_int_norm_bound"): lambda args: args[0],
    (matrix_core, "check_lemma_var"): lambda args: args[0][0][1],
    (concentration, "check_dirichlet_trace_bound"): lambda args: args[1].values,
}


def verdict_recorder(check, name, first, verdicts):
    """check, noting each trial's verdict under (name, the bytes of its first matrix)."""
    def call(*args):
        got = check(*args)
        keys = np.asarray(first(args)).reshape(np.size(got), -1)
        verdicts.update(((name, key.tobytes()), verdict)
                        for key, verdict in zip(keys, np.ravel(got).tolist()))
        return got
    return call


@pytest.mark.parametrize("tol", [1e-8, 0.0])
def test_ineq_suite_verdicts_do_not_depend_on_the_stack(tmp_path, capsys, monkeypatch, tol):
    """Each trial's verdict (its residual, for Duhamel) is the same in the default
    CHUNK_BYTES's stacks as alone, in stacks of 1: 12 trials of 8 statements."""
    cfg = write_cfg(tmp_path, "i.json", {"trials": 12, "tol": tol, "dims": [1, 2, 5]})
    outs, seen = [], []
    for chunk_bytes in (streams.CHUNK_BYTES, 1):
        seen.append({})
        with monkeypatch.context() as patch:
            patch.setattr(streams, "CHUNK_BYTES", chunk_bytes)
            for (module, name), first in SUITE_CHECKERS.items():
                patch.setattr(module, name,
                              verdict_recorder(getattr(module, name), name, first, seen[-1]))
            main(["ineq-suite", "--config", cfg])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert seen[0] == seen[1] and len(seen[0]) == 12 * 8


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


# one ulp below 1: sqrt(frac * lam) / v squared lands on the radius for this seed
RADIUS_CFG = {"measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
              "function": {"random": {"kind": "table", "d": 2, "seed": 6}},
              "theta_grid": {"max_fraction": 0.9999999999999999, "points": 1}}


def test_mgf_grid_stays_inside_the_radius(tmp_path, capsys):
    code, rows = run_csv(capsys, ["mgf", "--config", write_cfg(tmp_path, "m.json", RADIUS_CFG)])
    assert code in (0, 3)
    assert len(rows) == 2 and all(math.isfinite(float(x)) for x in rows[1][:3])
    assert rows[1][3] == ("True" if code == 0 else "False")
    # an ordinary fraction keeps its largest theta, sqrt(frac * lam) / v
    cfg = dict(RADIUS_CFG, theta_grid={"max_fraction": 0.9, "points": 1})
    walk = chains.hermon_salez(measures.make_uniform_k_subsets(3, 1))
    v = concentration.oscillation(walk, functional.random_matrix_fn(walk.states, 2, 6)).v
    lam = functional.scalar_spectral_gap(walk)
    _, rows = run_csv(capsys, ["mgf", "--config", write_cfg(tmp_path, "m.json", cfg)])
    assert rows[1][0] == repr(math.sqrt(0.9 * lam) / v)
    # v^2 / lam overflows: the step-down gives up after a few ulps and the radius
    # check still refuses the grid
    cfg = dict(RADIUS_CFG, **{"lambda": 1e-310})
    code, err = run_json(capsys, ["mgf", "--config", write_cfg(tmp_path, "m.json", cfg)])
    assert (code, err["error"]) == (4, "OutOfRadius")


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
    ("tail", "mode", "guess"), ("tail", "ks", 2),
    ("poincare-check", "lambda", math.nan), ("poincare-check", "lambda", math.inf),
    ("poincare-check", "lambda", -1.0), ("poincare-check", "lambda", 0.0),
    ("mgf", "lambda", math.nan), ("mgf", "lambda", math.inf),
    ("mgf", "theta_grid", {"max_fraction": math.nan}),
    ("mgf", "theta_grid", {"max_fraction": 2.0}),
    ("mgf", "theta_grid", {"max_fraction": 1.0}),
    ("mgf", "theta_grid", {"max_fraction": -1.0}),
    ("tail", "t_grid", {"max": math.nan}), ("tail", "t_grid", {"max": math.inf}),
    ("tail", "t_grid", {"max": -1.0}),
    ("tail", "ks", {"c": math.nan}), ("tail", "ks", {"c": 0.0}),
    ("compare-ks", "ks", {"c": math.nan}), ("compare-ks", "ks", {"c": math.inf}),
    ("tail", "t_grid", {"points": 2.5}), ("mgf", "theta_grid", {"points": True}),
    ("poincare-check", "tol", "1e-8"), ("poincare-check", "tol", True),
    ("poincare-check", "lambda", "0.5"), ("mgf", "theta_grid", {"max_fraction": True}),
    ("tail", "t_grid", {"max": "2"}), ("tail", "ks", {"c": True}),
    ("compare-ks", "ks", {"c": True}), ("compare-ks", "ks", {"mu_factors": ["2"]}),
    ("compare-ks", "ks", {"eps": "0.5"})],
    ids=["theta-list", "theta-no-points", "t-int", "t-no-points", "mode", "ks-int",
         "lambda-nan", "lambda-inf", "lambda-negative", "lambda-zero",
         "mgf-lambda-nan", "mgf-lambda-inf", "fraction-nan", "fraction-2",
         "fraction-1", "fraction-negative", "t-max-nan", "t-max-inf",
         "t-max-negative", "ks-c-nan", "ks-c-zero", "compare-ks-c-nan",
         "compare-ks-c-inf", "t-points-fraction", "theta-points-bool",
         "tol-string", "tol-bool", "lambda-string", "fraction-bool", "t-max-string",
         "ks-c-bool", "compare-ks-c-bool", "compare-ks-mu-string", "compare-ks-eps-string"])
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


def test_tail_empirical_count_fails_before_the_walk(tmp_path, capsys, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walk built before the count was checked")

    monkeypatch.setattr("srconc.chains.hermon_salez", no_walk)
    cfg = uniform_cfg(tmp_path, function={"random": {"kind": "table", "d": 2}},
                      mode="empirical", count=0)
    assert main(["tail", "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and "count must be at least 1" in err["message"]


@pytest.mark.parametrize("count", [1.5, True, "12"], ids=["fraction", "bool", "string"])
def test_tail_empirical_count_must_be_an_integer(tmp_path, capsys, monkeypatch, count):
    def no_walk(*args, **kwargs):
        raise AssertionError("walk built before the count was checked")

    monkeypatch.setattr("srconc.chains.hermon_salez", no_walk)
    cfg = uniform_cfg(tmp_path, function={"random": {"kind": "table", "d": 2}},
                      mode="empirical", count=count)
    assert main(["tail", "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"
    assert err["message"] == f"count must be an integer, got {count!r}"


@pytest.mark.parametrize("kind,key,value", [
    ("linear", "L", math.nan), ("linear", "L", math.inf), ("linear", "L", -1.0),
    ("table", "scale", math.nan), ("table", "scale", math.inf), ("table", "scale", -0.5),
    ("table", "d", 0), ("linear", "d", -1)])
def test_random_function_numbers_fail_before_the_walk(tmp_path, capsys, monkeypatch,
                                                      kind, key, value):
    def no_walk(*args, **kwargs):
        raise AssertionError("walk built before the function spec was checked")

    monkeypatch.setattr("srconc.chains.hermon_salez", no_walk)
    cfg = uniform_cfg(tmp_path, function={"random": {"kind": kind, "d": 2, key: value}})
    assert main(["poincare-check", "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and f"function.random.{key}" in err["message"]


@pytest.mark.parametrize("kind,key", [("linear", "L"), ("table", "scale")])
def test_random_function_accepts_zero(tmp_path, capsys, kind, key):
    cfg = uniform_cfg(tmp_path, function={"random": {"kind": kind, "d": 2, key: 0.0}})
    code, payload = run_json(capsys, ["poincare-check", "--config", cfg])
    assert code == 0 and payload["passed"]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", ["poincare-check", "validate-measure"])
def test_bad_tol_fails_before_the_walk(tmp_path, capsys, monkeypatch, command, tol):
    def no_walk(*args, **kwargs):
        raise AssertionError("walk built before tol was checked")

    monkeypatch.setattr("srconc.chains.hermon_salez", no_walk)
    cfg = uniform_cfg(tmp_path, function={"random": {"kind": "table", "d": 2}})
    assert main([command, "--config", cfg, f"--tol={tol}"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and "tol must lie in [0, inf)" in err["message"]


def test_bad_tol_in_config_is_a_usage_error(tmp_path, capsys):
    cfg = uniform_cfg(tmp_path, tol=-1.0)
    assert main(["validate-measure", "--config", cfg]) == 1
    assert "tol must lie" in json.loads(capsys.readouterr().err)["message"]


def test_zero_tol_is_accepted(tmp_path, capsys):
    cfg = uniform_cfg(tmp_path, function={"random": {"kind": "table", "d": 2}},
                      **{"lambda": 0.1})
    code, payload = run_json(capsys, ["poincare-check", "--config", cfg, "--tol", "0"])
    assert code == 0 and payload["passed"] and payload["min_eig_slack"] > 0.0


def test_out_of_memory_is_a_numeric_error(tmp_path, capsys):
    """A d = 10**7 observable asks for 728 TiB per state, more than any
    address space holds, so the allocation fails at once."""
    cfg = uniform_cfg(tmp_path, function={"random": {"kind": "table", "d": 10**7}})
    code, payload = run_json(capsys, ["poincare-check", "--config", cfg])
    assert code == 4 and "MemoryError" in payload["error"]


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
     "usage", "measure.ps must be a list"),
    ("ineq-suite", {"seed": None}, "usage", "seed must be an integer, got None"),
    ("validate-measure", {"measure": {"family": "bernoulli_product", "ps": ["0.5", True]}},
     "usage", "measure.ps entry must be a real number, got '0.5'"),
    ("validate-measure", {"measure": {"family": "bernoulli_product", "ps": [0.5, True]}},
     "usage", "measure.ps entry must be a real number, got True"),
    ("validate-measure", {"measure": {"inline": {
        "n": 1, "entries": [{"mask": 0, "p": "0.5"}, {"mask": 1, "p": 0.5}]}}},
     "usage", "p must be a real number, got '0.5'"),
    ("validate-measure", {"tol": "1e-8"}, "usage", "tol must be a real number, got '1e-8'"),
    ("validate-measure", {"measure": {"family": "projection_dpp", "kernel": {
        "d": 2, "rows": [["1.0", 0.0], [0.0, False]]}}},
     "usage", "rows entry must be a real number, got '1.0'"),
    ("poincare-check", {"measure": {"family": "uniform_k_subsets", "n": 2, "k": 1},
                        "function": {"inline": {"d": 1, "values": [
                            {"mask": 1, "rows": [["2.5"]]}, {"mask": 2, "rows": [[1.0]]}]}}},
     "usage", "value entry must be a real number, got '2.5'"),
    ("poincare-check", {"measure": {"family": "uniform_k_subsets", "n": 2, "k": 1},
                        "function": {"inline": {"d": 1, "values": [
                            {"mask": 1, "rows": [[True]]}, {"mask": 2, "rows": [[1.0]]}]}}},
     "usage", "value entry must be a real number, got True"),
], ids=["path-fd", "path-list", "out-bool", "out-fd", "ks-null", "ps-scalar",
        "seed-null", "ps-string", "ps-bool", "inline-p-string", "tol-string",
        "kernel-rows-string-bool", "inline-value-string", "inline-value-bool"])
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


def test_tail_at_a_t_whose_square_overflows(tmp_path, capsys):
    """At t_grid.max = 1e308 the Poincare and SR bounds read inf / inf = NaN, a
    false violation (exit 3) where the exact tail is 0."""
    cfg = write_cfg(tmp_path, "t.json", {
        "measure": {"family": "uniform_k_subsets", "n": 4, "k": 2},
        "function": {"random": {"kind": "linear", "d": 2, "L": 1.0, "seed": 3}},
        "t_grid": {"max": 1e308, "points": 2}})
    code, rows = run_csv(capsys, ["tail", "--config", cfg])
    assert code == 0
    assert [row[1:6] for row in rows[1:]] == [["0.0", "", "0.0", "0.0", "0.0"]] * 2


def test_tail_at_a_lipschitz_constant_whose_square_overflows(tmp_path, capsys):
    """L = 1e200 made tail_bound_sr square L past the largest float: an
    OverflowError and exit 4 in place of the table."""
    cfg = write_cfg(tmp_path, "t.json", {
        "seed": 3, "measure": {"family": "uniform_k_subsets", "n": 4, "k": 2},
        "function": {"random": {"kind": "linear", "d": 2, "L": 1e200}},
        "t_grid": {"points": 3}})
    code, rows = run_csv(capsys, ["tail", "--config", cfg])
    assert code == 0 and len(rows) == 4
    for row in rows[1:]:
        assert float(row[1]) <= min(float(row[3]), float(row[4])) <= 4.0


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
def test_tail_on_a_one_state_measure(tmp_path, capsys, mode):
    """A one-state walk has gap +inf and a constant observable (v = 0), so
    every Poincare bound is 0; the tail check used to refuse the infinite gap
    with a ScaleViolation (exit 4)."""
    cfg = write_cfg(tmp_path, "one.json", {
        "measure": {"family": "bernoulli_product", "ps": [1.0, 0.0]},
        "function": {"random": {"kind": "linear", "d": 2}}, "mode": mode, "count": 100})
    code, rows = run_csv(capsys, ["tail", "--config", cfg])
    assert code == 0
    assert rows[0] == list(TAIL_CSV_COLUMNS) and len(rows) == 51
    for row in rows[1:]:
        assert float(row[1]) == 0.0 and float(row[3]) == 0.0 and row[6] == "poincare"


DOC_CFG = {"measure": {"family": "uniform_k_subsets", "n": 4, "k": 2},
           "function": {"random": {"kind": "table", "d": 2, "seed": 3}},
           "count": 2000, "t_grid": {"points": 5}, "theta_grid": {"points": 4},
           "trials": 3, "ks": {"k_values": [16, 64]}}


@pytest.mark.parametrize("command,extra,code", [
    ("validate-measure", {}, 0),
    ("scp-check", {}, 0),
    ("scp-check", {"measure": {"inline": {"n": 2, "entries": [{"mask": 0, "p": 0.5},
                                                              {"mask": 3, "p": 0.5}]}}}, 2),
    ("build-walk", {}, 0),
    ("poincare-check", {}, 0),
    ("poincare-check", {"lambda": 100}, 3),
    ("ineq-suite", {}, 0),
    ("mgf", {}, 0),
    ("tail", {"mode": "exact"}, 0),
    ("tail", {"mode": "empirical"}, 0),
    ("compare-ks", {}, 0),
], ids=["validate-measure", "scp-check", "scp-check-witness", "build-walk", "poincare-check",
        "poincare-check-violated", "ineq-suite", "mgf", "exact", "empirical", "compare-ks"])
def test_tail_stdout_matches_out_file(tmp_path, capsys, command, extra, code):
    """With --out, every document command writes nothing to stdout, and the
    file holds exactly the bytes the command prints without --out, whatever
    its exit code."""
    out = tmp_path / "doc.out"
    cfg = write_cfg(tmp_path, "c.json", dict(DOC_CFG, **extra))
    assert main([command, "--config", cfg]) == code
    stdout = capsys.readouterr().out
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr() == ("", "")
    assert stdout and out.read_bytes() == stdout.encode()
    if command != "tail":
        return

    mode = extra["mode"]
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
    assert rows[0] == ["k", "mu", "eps", "lhs", "rhs", "ours_better", "margin",
                       "near_crossover", "exponent_sr", "exponent_ks", "dominator"]
    assert len(rows) == 5
    assert {row[5] for row in rows[1:]} == {"True", "False"}
    assert {row[7] for row in rows[1:]} <= {"True", "False"}
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


def test_integral_float_counts_draw_like_ints(tmp_path, capsys):
    outs = []
    for count in (25, 25.0):
        outs.append(tmp_path / f"draws-{count!r}.hex")
        cfg = uniform_cfg(tmp_path, 3, 1, count=count)
        assert main(["sample", "--config", cfg, "--out", str(outs[-1])]) == 0
    tails = []
    for count in (2000, 2000.0):
        cfg = uniform_cfg(tmp_path, function={"random": {"kind": "table", "d": 2}},
                          mode="empirical", count=count)
        assert main(["tail", "--config", cfg]) == 0
        tails.append(capsys.readouterr().out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().split()) == 25
    assert tails[0] == tails[1]


def test_sample_requires_out(tmp_path, capsys):
    cfg = uniform_cfg(tmp_path, 3, 1, count=5)
    assert main(["sample", "--config", cfg]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("extra,needle", [
    ({"count": 200_000}, "needs --out"),
    ({"count": -1, "out": "draws.hex"}, "count must be at least 0"),
    ({"count": 1.5, "out": "draws.hex"}, "count must be an integer, got 1.5"),
    ({"count": True, "out": "draws.hex"}, "count must be an integer, got True"),
    ({"count": "12", "out": "draws.hex"}, "count must be an integer, got '12'")],
    ids=["no-out", "negative-count", "fraction-count", "bool-count", "string-count"])
def test_sample_checks_its_config_before_drawing(tmp_path, capsys, monkeypatch,
                                                 extra, needle):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before the config was checked")

    monkeypatch.setattr("srconc.samplers.sample_table", no_draws)
    monkeypatch.chdir(tmp_path)  # the relative out, if anything wrote it
    cfg = uniform_cfg(tmp_path, 3, 1, **extra)
    assert main(["sample", "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and needle in err["message"]


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


# ------------------------------------------------- integer-only numbers

@pytest.mark.parametrize("ks,needle", [
    ({"k_values": [8.7]}, "ks.k_values entry must be an integer, got 8.7"),
    ({"k_values": [8, 1]}, "ks.k_values entries must be at least 2, got 1"),
    ({"mu_factors": [math.nan]}, "ks.mu_factors entry must lie in (0, inf), got nan"),
    ({"mu_factors": [1.0, -2.0]}, "ks.mu_factors entry must lie in (0, inf), got -2.0"),
    ({"eps": -0.5}, "ks.eps must lie in (0, inf), got -0.5"),
    ({"eps": math.nan}, "ks.eps must lie in (0, inf), got nan"),
    ({"eps": 1.0, "k_values": [8, 1024]},
     "no crossover at k = 1024, eps = 1.0: log k + eps <= eps sqrt k")],
    ids=["k-fraction", "k-one", "mu-nan", "mu-negative", "eps-negative", "eps-nan",
         "eps-no-crossover"])
def test_compare_ks_numbers_are_usage_errors(tmp_path, capsys, ks, needle):
    cfg = write_cfg(tmp_path, "k.json", {"ks": ks})
    assert main(["compare-ks", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "usage", "message": needle}


@pytest.mark.parametrize("seed,message", [
    (1.5, "must be an integer, got 1.5"), (math.nan, "must be an integer, got nan"),
    (True, "must be an integer, got True"), ("3", "must be an integer, got '3'"),
    (-1, "must lie in [0, 2^64), got -1"),
    (2**64, "must lie in [0, 2^64), got 18446744073709551616")],
    ids=["fraction", "nan", "bool", "string", "negative", "2^64"])
@pytest.mark.parametrize("key", ["seed", "function.random.seed"])
def test_seeds_must_be_integers_before_the_walk(tmp_path, capsys, monkeypatch, key, seed,
                                                message):
    """Integers in [0, 2^64), by inputs.as_seed."""
    def no_walk(*args, **kwargs):
        raise AssertionError("walk built before the seed was checked")

    monkeypatch.setattr("srconc.chains.hermon_salez", no_walk)
    rnd = {"kind": "table", "d": 2}
    extra = {"seed": seed} if key == "seed" else {}
    if key != "seed":
        rnd["seed"] = seed
    cfg = uniform_cfg(tmp_path, function={"random": rnd}, **extra)
    assert main(["poincare-check", "--config", cfg]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "usage", "message": f"{key} {message}"}


def test_sample_rejects_a_fractional_seed(tmp_path, capsys):
    cfg = uniform_cfg(tmp_path, 3, 1, count=5, seed=1.5)
    out = tmp_path / "draws.hex"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 1
    assert "seed must be an integer" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


def test_integral_float_seeds_draw_like_ints(tmp_path, capsys):
    outs = []
    for seed in (7, 7.0):
        outs.append(tmp_path / f"draws-{seed!r}.hex")
        cfg = uniform_cfg(tmp_path, 4, 2, count=50, seed=seed)
        assert main(["sample", "--config", cfg, "--out", str(outs[-1])]) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()


K4_GRAPH = {"vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
UNIT_KERNEL = {"d": 2, "rows": [[1.0, 0.0], [0.0, 0.0]]}
UNIFORM_4_2 = {"measure": {"family": "uniform_k_subsets", "n": 4, "k": 2}}
RANDOM_FN = {"function": {"random": {"kind": "table", "d": 2}}}  # seeded by the config seed
SEEDED_COMMANDS = {  # each seeded command, with a config it runs to exit 0
    "sample-table": ("sample", {"count": 5, **UNIFORM_4_2}),
    "sample-wilson": ("sample", {"sampler": "wilson", "count": 5, "graph": K4_GRAPH}),
    "sample-kdpp": ("sample", {"sampler": "kdpp", "count": 5, "kernel": UNIT_KERNEL}),
    "tail-empirical": ("tail", {"mode": "empirical", "count": 50, "t_grid": {"points": 2},
                                **UNIFORM_4_2, **RANDOM_FN}),
    "ineq-suite": ("ineq-suite", {"trials": 2}),
    "poincare-check": ("poincare-check", {**UNIFORM_4_2, **RANDOM_FN}),
    "compare-ks": ("compare-ks", {"ks": {"k_values": [8]}}),
}


def test_seeds_outside_64_bits_are_refused_before_numpy(tmp_path):
    """Seeds -1 and 2^64 exit 1 with one usage error object on stderr, from every
    seeded command, before numpy or any walk loads and before any file is written."""
    cases = []
    for name, (command, cfg) in SEEDED_COMMANDS.items():
        path = write_cfg(tmp_path, f"{name}.json", cfg)
        cases += [[command, "--config", path, "--seed", str(seed), "--out", f"{name}{seed}.out"]
                  for seed in (-1, 2**64)]
    probe = ("import contextlib, io, json, os, sys; from srconc.cli import main\n"
             "runs = []\n"
             f"for argv in {cases!r}:\n"
             "    with contextlib.redirect_stderr(err := io.StringIO()):\n"
             "        runs.append([main(argv), err.getvalue(), os.path.exists(argv[-1])])\n"
             "print(json.dumps([runs, 'numpy' in sys.modules, 'srconc.chains' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=CHILD_ENV, cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    *out, last = proc.stdout.splitlines()
    runs, numpy_loaded, chains_loaded = json.loads(last)
    assert out == [] and not numpy_loaded and not chains_loaded
    for argv, (code, err, written) in zip(cases, runs):
        message = f"seed must lie in [0, 2^64), got {argv[4]}"
        assert [code, err, written] == [1, json.dumps({"error": "usage", "message": message})
                                        + "\n", False], argv


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("name", SEEDED_COMMANDS)
def test_seeds_at_the_ends_of_64_bits_run(tmp_path, capsys, name, seed):
    command, cfg = SEEDED_COMMANDS[name]
    out = tmp_path / "run.out"
    argv = [command, "--config", write_cfg(tmp_path, "c.json", cfg), "--seed", str(seed)]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "") and out.stat().st_size > 0



@pytest.mark.parametrize("command,cfg,needle", [
    ("validate-measure", {"measure": {"family": "uniform_k_subsets", "n": 4.7, "k": 2}},
     "measure.n must be an integer, got 4.7"),
    ("validate-measure", {"measure": {"family": "uniform_k_subsets", "n": 4, "k": 2.2}},
     "measure.k must be an integer, got 2.2"),
    ("validate-measure", {"measure": {"inline": {
        "n": 2.9, "entries": [{"mask": 1, "p": 1.0}]}}}, "n must be an integer, got 2.9"),
    ("validate-measure", {"measure": {"inline": {
        "n": 2, "entries": [{"mask": 1.5, "p": 1.0}]}}}, "mask must be an integer, got 1.5"),
    ("validate-measure", {"measure": {"family": "spanning_tree",
                                      "graph": dict(K4_GRAPH, vertices=4.9)}},
     "vertices must be an integer, got 4.9"),
    ("scp-check", {"measure": {"family": "spanning_tree", "graph": dict(
        K4_GRAPH, edges=[[0, 1.7], *K4_GRAPH["edges"][1:]])}},
     "edge endpoint must be an integer, got 1.7"),
    ("sample", {"sampler": "wilson", "count": 5, "out": "draws.hex",
                "graph": dict(K4_GRAPH, vertices=4.9)}, "vertices must be an integer, got 4.9"),
    ("sample", {"sampler": "wilson", "count": 5, "out": "draws.hex", "graph": dict(
        K4_GRAPH, edges=[[0, 1.7], *K4_GRAPH["edges"][1:]])},
     "edge endpoint must be an integer, got 1.7"),
    ("validate-measure", {"measure": {"family": "projection_dpp",
                                      "kernel": dict(UNIT_KERNEL, d=2.5)}},
     "kernel.d must be an integer, got 2.5"),
    ("sample", {"sampler": "kdpp", "count": 5, "out": "draws.hex",
                "kernel": dict(UNIT_KERNEL, d=2.5)}, "kernel.d must be an integer"),
    ("poincare-check", {"measure": {"family": "uniform_k_subsets", "n": 2, "k": 1},
                        "function": {"inline": {"d": 2.5, "values": [
                            {"mask": m, "rows": [[1.0, 0.0], [0.0, 1.0]]} for m in (1, 2)]}}},
     "d must be an integer, got 2.5"),
    ("poincare-check", {"measure": {"family": "uniform_k_subsets", "n": 2, "k": 1},
                        "function": {"inline": {"d": 1, "values": [
                            {"mask": 1, "rows": [[1.0]]}, {"mask": 2.5, "rows": [[0.0]]}]}}},
     "mask must be an integer, got 2.5"),
], ids=["uniform-n", "uniform-k", "inline-n", "inline-mask", "graph-vertices",
        "graph-endpoint", "wilson-vertices", "wilson-endpoint", "kernel-d", "kdpp-d", "function-d",
        "function-mask"])
def test_json_readers_reject_non_integral_counts_and_masks(tmp_path, capsys, monkeypatch,
                                                           command, cfg, needle):
    monkeypatch.chdir(tmp_path)  # the relative out, if anything wrote it
    assert main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "usage" and needle in err["message"]
    assert captured.out == "" and not (tmp_path / "draws.hex").exists()


def test_wilson_reads_integral_float_graphs_like_ints(tmp_path, capsys):
    """The Wilson sampler reads its graph through measures.tree_edges, as the
    spanning-tree family does: an integral float graph draws the same trees."""
    outs = []
    for graph in (K4_GRAPH, {"vertices": 4.0, "edges": [[float(u), float(v)]
                                                        for u, v in K4_GRAPH["edges"]]}):
        outs.append(tmp_path / f"draws-{len(outs)}.hex")
        cfg = write_cfg(tmp_path, "w.json", {"sampler": "wilson", "count": 40, "graph": graph})
        assert main(["sample", "--config", cfg, "--out", str(outs[-1])]) == 0
    assert capsys.readouterr() == ("", "")
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_json_readers_take_integral_floats(tmp_path, capsys):
    payloads = []
    for spec in ({"family": "uniform_k_subsets", "n": 4, "k": 2},
                 {"family": "uniform_k_subsets", "n": 4.0, "k": 2.0},
                 {"family": "spanning_tree", "graph": K4_GRAPH},
                 {"family": "spanning_tree", "graph": {
                     "vertices": 4.0, "edges": [[float(u), float(v)]
                                                for u, v in K4_GRAPH["edges"]]}},
                 {"inline": {"n": 2, "entries": [{"mask": 1, "p": 0.5}, {"mask": 2, "p": 0.5}]}},
                 {"inline": {"n": 2.0, "entries": [{"mask": 1.0, "p": 0.5},
                                                   {"mask": 2.0, "p": 0.5}]}},
                 {"family": "projection_dpp", "kernel": UNIT_KERNEL},
                 {"family": "projection_dpp", "kernel": dict(UNIT_KERNEL, d=2.0)}):
        code, payload = run_json(capsys, ["validate-measure", "--config", write_cfg(
            tmp_path, "c.json", {"measure": spec})])
        assert code == 0
        payloads.append(payload)
    assert payloads[0::2] == payloads[1::2]


@pytest.mark.parametrize("kernel,code,error", [
    ({"d": 2.0, "rows": [[1.0, 0.0], [0.0, 0.0]]}, 0, None),
    ({"d": 2, "rows": [[1.0, 5e-9], [0.0, 0.0]]}, 0, None),
    ({"d": 2.5, "rows": [[1.0, 0.0], [0.0, 0.0]]}, 1, "usage"),
    ({"d": True, "rows": [[1.0]]}, 1, "usage"),
    ({"d": 3, "rows": [[1.0, 0.0], [0.0, 0.0]]}, 2, "NotAProjection"),
    ({"d": 2, "rows": [[1.0, 0.0, 0.0]]}, 2, "NotAProjection"),
], ids=["d-integral-float", "asymmetric-5e-9", "d-fraction", "d-bool", "d-above-rows",
        "rows-not-square"])
def test_kernel_reader_compares_d_with_the_rows(tmp_path, capsys, kernel, code, error):
    """Both kernel readers take d as an integer (2.0 is one), refuse rows that
    are not d x d, and accept what measures.projection_kernel accepts: symmetry
    and idempotency within PROJECTION_TOL of the largest entry."""
    dpp = write_cfg(tmp_path, "d.json", {"measure": {"family": "projection_dpp",
                                                     "kernel": kernel}})
    kdpp = write_cfg(tmp_path, "k.json", {"sampler": "kdpp", "kernel": kernel, "count": 5,
                                          "out": str(tmp_path / "draws.hex")})
    for argv in (["validate-measure", "--config", dpp], ["sample", "--config", kdpp]):
        assert main(argv) == code
        out, err = capsys.readouterr()
        if error == "usage":
            assert json.loads(err)["error"] == "usage"
        elif error is not None:
            assert json.loads(out)["error"] == error


# ----------------------------------------------------------------- plumbing

@pytest.mark.parametrize("argv,options", [
    (["compare-ks"], {}),
    (["mgf", "--config", "c.json", "--seed", "3", "--tol", "1e-6", "--trials", "7",
      "--out", "o.csv"],
     {"config": "c.json", "seed": 3, "tol": 1e-6, "trials": 7, "out": "o.csv"}),
    (["mgf", "--config=c.json", "--seed=3", "--tol=1e-6", "--trials=7", "--out=o.csv"],
     {"config": "c.json", "seed": 3, "tol": 1e-6, "trials": 7, "out": "o.csv"}),
    (["tail", "--seed", "1", "--seed=-2", "--out=a=b", "--out", "c"], {"seed": -2, "out": "c"}),
    (["sample", "--tol", "-1", "--config="], {"tol": -1.0, "config": ""}),
], ids=["bare", "key-space-value", "key-equals-value", "last-wins", "raw-values"])
def test_argv_grammar(argv, options):
    """Each option is --key value or --key=value, read as its type, the last
    one winning; range checks are left to the config reader."""
    assert cli.parse_argv(argv) == (argv[0], options)


@pytest.mark.parametrize("argv,needle", [
    ([], "expected a command"),
    (["no-such-command"], "expected a command"),
    (["--seed", "3", "compare-ks"], "got '--seed'"),
    (["compare-ks", "--bogus", "1"], "unknown option '--bogus'"),
    (["compare-ks", "--se", "1"], "unknown option '--se'"),
    (["compare-ks", "extra"], "unknown option 'extra'"),
    (["compare-ks", "--out"], "--out needs a value"),
    (["compare-ks", "--out", "--seed", "3"], "--out needs a value"),
    (["compare-ks", "--seed", "1.5"], "--seed takes int, got '1.5'"),
    (["compare-ks", "--seed="], "--seed takes int, got ''"),
    (["compare-ks", "--trials", "x"], "--trials takes int, got 'x'"),
    (["compare-ks", "--tol", "tiny"], "--tol takes float, got 'tiny'"),
    (["compare-ks", "--tol=nan"], "tol must lie in [0, inf), got nan"),
], ids=["no-command", "unknown-command", "option-first", "unknown-option", "abbreviation",
        "positional", "missing-value", "option-as-value", "fractional-seed", "empty-seed",
        "word-trials", "word-tol", "nan-tol"])
def test_bad_argv_is_a_usage_error(capsys, argv, needle):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "usage" and needle in report["message"]


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["compare-ks", "-h"],
                                  ["mgf", "--seed", "1", "--help"], ["no-such-command", "-h"]])
def test_help_anywhere_prints_the_usage(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr() == (cli.USAGE, "")


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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


BASE_LAYERS = {"cli", "inputs"}
MEASURE_LAYERS = BASE_LAYERS | {"measures"}
WALK_LAYERS = MEASURE_LAYERS | {"chains"}
CERTIFY_LAYERS = WALK_LAYERS | {"matrix_core", "functional", "streams"}
TAIL_LAYERS = CERTIFY_LAYERS | {"concentration"}
SAMPLE_LAYERS = MEASURE_LAYERS | {"samplers", "streams"}


@pytest.mark.parametrize("command,extra,layers", [
    ("compare-ks", None, BASE_LAYERS | {"ks"}),
    ("validate-measure", {}, MEASURE_LAYERS),
    ("scp-check", {}, WALK_LAYERS),
    ("build-walk", {}, CERTIFY_LAYERS),
    ("poincare-check", {}, CERTIFY_LAYERS),
    ("mgf", {}, TAIL_LAYERS),
    ("tail", {}, TAIL_LAYERS),
    ("tail", {"mode": "empirical", "count": 200}, TAIL_LAYERS | SAMPLE_LAYERS),
    ("sample", {"count": 5, "out": "draws.hex"}, SAMPLE_LAYERS),
    ("validate-measure", {"measure": {"family": "projection_dpp", "kernel": UNIT_KERNEL}},
     MEASURE_LAYERS),
    ("sample", {"sampler": "kdpp", "kernel": UNIT_KERNEL, "count": 5, "out": "draws.hex"},
     SAMPLE_LAYERS),
    ("ineq-suite", {"trials": 4}, TAIL_LAYERS),
], ids=["compare-ks", "validate-measure", "scp-check", "build-walk", "poincare-check",
        "mgf", "tail", "tail-empirical", "sample", "validate-measure-kernel", "sample-kdpp",
        "ineq-suite"])
def test_each_command_imports_only_the_layers_it_runs(tmp_path, command, extra, layers):
    """numpy loads with measures and never without it, and numpy.random (15 ms
    and 6 MB of a process) never loads without samplers: a random function
    reads counter streams."""
    argv = [command]
    if extra is not None:
        argv += ["--config", uniform_cfg(tmp_path, 4, 2, function={"random": {
            "kind": "table", "d": 2}}, **extra)]
    code = ("import json, sys; from srconc.cli import main; "
            f"code = main({argv!r}); "
            "print(json.dumps([code, sorted(m.removeprefix('srconc.') for m in sys.modules "
            "if m.startswith('srconc.')), 'numpy' in sys.modules, "
            "[m for m in sys.modules if m.split('.')[0] == 'scipy'], "
            "'numpy.random' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got[:4] == [0, sorted(layers), "measures" in layers, []]
    if "samplers" not in layers:
        assert got[4] is False


@pytest.mark.parametrize("argv,cfg,code", [
    (["compare-ks"], None, 0),
    (["compare-ks"], {"ks": {"k_values": [8, 16], "mu_factors": [1.0], "eps": 0.5}}, 0),
    (["--help"], None, 0),
    (["no-such-command"], None, 1),
    (["scp-check"], {"seed": True, "measure": {"family": "uniform_k_subsets", "n": 3, "k": 1}},
     1),
    (["mgf"], {"theta_grid": {"points": 0}, "measure": {"family": "uniform_k_subsets", "n": 3,
                                                        "k": 1}}, 1),
], ids=["compare-ks", "compare-ks-config", "help", "unknown-command", "seed-bool",
        "theta-points-0"])
def test_numpy_free_paths_never_import_numpy(tmp_path, capsys, argv, cfg, code):
    """A command or error that touches no array leaves numpy and measures
    unloaded, and its exit code and output are those of an in-process run
    that has numpy loaded.  The front end loads none of argparse, gettext,
    locale and json beyond what the interpreter started with, except json
    where a config is read or an error written."""
    if cfg is not None:
        argv = [*argv, "--config", write_cfg(tmp_path, "c.json", cfg)]
    probe = ("import sys; before = set(sys.modules); from srconc.cli import main; "
             f"code = main({argv!r}); "
             "front = sorted({'argparse', 'gettext', 'locale', 'json'} & (set(sys.modules) "
             "- before)); import json; print(json.dumps([code, 'numpy' in sys.modules, "
             "'srconc.measures' in sys.modules, front]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=CHILD_ENV, cwd=tmp_path)
    *out, flags = proc.stdout.splitlines(keepends=True)
    *flags, front = json.loads(flags)
    assert flags == [code, False, False], proc.stderr
    assert set(front) <= ({"json"} if cfg is not None or code else set())
    assert main(argv) == code
    assert capsys.readouterr() == ("".join(out), proc.stderr)
    if cfg is not None and code != 0:
        assert json.loads(proc.stderr)["error"] == "usage"


def test_package_import_loads_no_layer():
    code = ("import sys, srconc; "
            "print(sorted(m for m in sys.modules if m.startswith('srconc.'))); "
            "print(srconc.chains is sys.modules['srconc.chains'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True"]


NON_SCP = {"inline": {"n": 2, "entries": [{"mask": 0, "p": 0.5}, {"mask": 3, "p": 0.5}]}}


class FreshMatrixError(matrix_core.MatrixError):
    """A MatrixError subclass that no code of the package names."""


# MatrixFn would symmetrize [[0, 5], [0, 0]] to [[0, 2.5], [2.5, 0]]; the reader refuses it
ASYMMETRIC_VALUE_CFG = {"measure": {"family": "uniform_k_subsets", "n": 2, "k": 1},
                        "function": {"inline": {"d": 2, "values": [
                            {"mask": 1, "rows": [[0.0, 5.0], [0.0, 0.0]]},
                            {"mask": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}]}}}


@pytest.mark.parametrize("command,cfg,raises,code,error", [
    ("build-walk", {"measure": NON_SCP}, None, 2, "InfeasibleCoupling"),
    ("validate-measure", {"measure": {"family": "projection_dpp", "kernel": {
        "d": 2, "rows": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}}}, None, 2, "NotAProjection"),
    ("validate-measure", {"measure": {"family": "projection_dpp", "kernel": {
        "d": 2, "rows": [[1.0, 0.5], [0.0, 0.0]]}}}, None, 2, "NotAProjection"),
    ("poincare-check", {"measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
                        "function": {"random": {"kind": "table", "d": 2}}},
     ("functional.check_matrix_poincare", matrix_core.DimMismatch), 2, "DimMismatch"),
    ("poincare-check", ASYMMETRIC_VALUE_CFG, None, 2, "NotSymmetric"),
    ("mgf", RADIUS_CFG, ("concentration.mgf_bound", concentration.OutOfRadius),
     4, "OutOfRadius"),
    ("poincare-check", {"measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
                        "function": {"random": {"kind": "table", "d": 2}}},
     ("functional.check_matrix_poincare", FreshMatrixError), 2, "FreshMatrixError"),
    ("build-walk", {"measure": {"family": "uniform_k_subsets", "n": 3, "k": 1}},
     ("functional.scalar_spectral_gap", np.linalg.LinAlgError), 4, "LinAlgError"),
], ids=["chains", "kernel-shape", "kernel-symmetry", "matrix-core-shape",
        "matrix-core-symmetry", "concentration", "new-matrix-error", "numpy-linalg"])
def test_each_layer_error_keeps_its_exit_code(tmp_path, capsys, monkeypatch, command, cfg,
                                              raises, code, error):
    """The exit code goes by the error's class, a subclass no table names
    included; raises = (library function, error class) makes that function
    raise the error."""
    if raises is not None:
        def fail(*args):
            raise raises[1]("raised inside the command")
        monkeypatch.setattr(f"srconc.{raises[0]}", fail)
    assert main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == code
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["error"] == error


WHEEL4_GRAPH = {"vertices": 5, "edges": [[0, 1], [0, 2], [0, 3], [0, 4],
                                         [1, 2], [2, 3], [3, 4], [4, 1]]}
TABLE_FN = {"random": {"kind": "table", "d": 2, "seed": 3}}


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("timing", ["at-once", "after-a-line"])
@pytest.mark.parametrize("argv,cfg", [
    (["compare-ks"], None),
    (["--help"], None),
    (["build-walk"], {"measure": {"family": "spanning_tree", "graph": WHEEL4_GRAPH}}),
    (["tail"], {"measure": {"family": "uniform_k_subsets", "n": 4, "k": 2},
                "function": TABLE_FN}),
], ids=["compare-ks", "help", "build-walk", "tail"])
def test_a_closed_pipe_is_not_an_error(tmp_path, argv, cfg, timing, buffering):
    """A reader that closes stdout, before the first write or after reading a
    line, leaves the exit code 0 and stderr empty, whether stdout is buffered
    (the exit flush then meets the closed pipe) or not."""
    if cfg is not None:
        argv = [*argv, "--config", write_cfg(tmp_path, "c.json", cfg)]
    env = {key: val for key, val in CHILD_ENV.items() if key != "PYTHONUNBUFFERED"}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "srconc.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if timing == "after-a-line":
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


class ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is fd, which the CLI points at os.devnull."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv,cfg,code", [
    (["compare-ks"], None, 0),
    (["--help"], None, 0),
    (["scp-check"], {"measure": NON_SCP}, 2),
    (["build-walk"], {"measure": NON_SCP}, 2),
    (["poincare-check"], {"measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
                          "function": TABLE_FN, "lambda": 100}, 3),
    (["mgf"], dict(RADIUS_CFG, **{"lambda": 1e-310}), 4),
], ids=["compare-ks", "help", "scp-witness", "error-object", "violation", "numeric"])
def test_a_closed_stdout_keeps_the_commands_exit_code(tmp_path, capsys, monkeypatch,
                                                      argv, cfg, code):
    """main returns the command's own code when stdout's reader is gone, writes
    no error object, and leaves stdout's descriptor on os.devnull."""
    if cfg is not None:
        argv = [*argv, "--config", write_cfg(tmp_path, "c.json", cfg)]
    sink = tmp_path / "stdout.fd"
    fd = os.open(sink, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedStdout(fd))
        assert main(argv) == code
        os.write(fd, b"after the reader left")
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""
    assert sink.read_bytes() == b""


def console_script() -> list[str]:
    """The installed `srconc` script or, where none is installed, a fresh
    interpreter running what the generated script runs: sys.exit(FUNCTION())
    for the `srconc = "MODULE:FUNCTION"` line of pyproject.toml."""
    if script := shutil.which("srconc"):
        return [script]
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    module, function = re.search(r'^srconc = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    return [sys.executable, "-c", f"import sys; from {module} import {function}; "
                                  f"sys.exit({function}())"]


def test_console_script_installed(tmp_path):
    cfg = uniform_cfg(tmp_path, 3, 1)
    proc = subprocess.run([sys.executable, "-m", "srconc.cli", "validate-measure",
                           "--config", cfg], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True
    script = subprocess.run([*console_script(), "scp-check", "--config", cfg],
                            capture_output=True, text=True, env=CHILD_ENV)
    assert script.returncode == 0
    assert json.loads(script.stdout)["scp"] is True


# ------------------------------------------------------------ process lifecycle

LINEAR_FN = {"random": {"kind": "linear", "d": 4, "L": 1.0, "seed": 3}}
K5_GRAPH = {"vertices": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]}
MAX_CYCLIC_GARBAGE = 100  # objects a repeat run may leave for the collector


@pytest.fixture
def collector_off():
    """The cyclic collector off, as `entry` runs a command; its state restored after."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def cyclic_garbage(capsys, argv) -> int:
    """The objects only the collector can free that a repeat run of argv leaves:
    the first run imports, fills caches and leaves import-time cycles."""
    main(argv)
    gc.collect()
    code = main(argv)
    capsys.readouterr()
    assert code == 0
    return gc.collect()


K4_TREES = {"family": "spanning_tree", "graph": K4_GRAPH}
K5_TREES = {"family": "spanning_tree", "graph": K5_GRAPH}
UNIFORM_8_4 = {"family": "uniform_k_subsets", "n": 8, "k": 4}
UNIFORM_12_6 = {"family": "uniform_k_subsets", "n": 12, "k": 6}
K4_CERTIFY = {"measure": K4_TREES, "function": LINEAR_FN}


@pytest.mark.parametrize("argv,cfg", [
    (["validate-measure"], K4_CERTIFY),
    (["scp-check"], K4_CERTIFY),
    (["build-walk"], K4_CERTIFY),
    (["poincare-check"], K4_CERTIFY),
    (["mgf"], K4_CERTIFY),
    (["tail"], K4_CERTIFY),
    (["tail"], dict(K4_CERTIFY, mode="empirical", count=2000)),
    (["ineq-suite", "--trials", "20"], None),
    (["sample", "--out", "draws.hex"], {"sampler": "wilson", "count": 200,
                                        "graph": WHEEL4_GRAPH}),
    (["sample", "--out", "draws.hex"], {"sampler": "kdpp", "count": 200,
                                        "kernel": UNIT_KERNEL}),
    (["compare-ks"], None),
], ids=["validate-measure", "scp-check", "build-walk", "poincare-check", "mgf", "tail",
        "tail-empirical", "ineq-suite", "sample-wilson", "sample-kdpp", "compare-ks"])
def test_a_command_leaves_the_collector_almost_nothing(tmp_path, capsys, monkeypatch,
                                                       collector_off, argv, cfg):
    """What makes running a command with the collector off safe: a repeat run
    leaves at most MAX_CYCLIC_GARBAGE objects (0, or the 33 of json's
    indenting encoder, when this was written)."""
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        argv = [*argv, "--config", write_cfg(tmp_path, "c.json", cfg)]
    assert cyclic_garbage(capsys, argv) <= MAX_CYCLIC_GARBAGE


def sized_argv(tmp_path, command, size) -> list[str]:
    """command on the measure size, or ineq-suite with size trials."""
    if command == "ineq-suite":
        return [command, "--trials", str(size)]
    return [command, "--config", write_cfg(tmp_path, "sized.json", {"measure": size,
                                                                     "function": LINEAR_FN})]


@pytest.mark.parametrize("command,small,large", [
    ("scp-check", K4_TREES, K5_TREES),
    ("tail", K4_TREES, K5_TREES),
    ("scp-check", UNIFORM_8_4, UNIFORM_12_6),
    ("tail", UNIFORM_8_4, UNIFORM_12_6),
    ("ineq-suite", 100, 1000),
], ids=["scp-check-trees", "tail-trees", "scp-check-uniform", "tail-uniform", "ineq-suite"])
def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path, capsys, collector_off,
                                                     command, small, large):
    """No cycle is made per state, edge or trial: the larger input leaves no more."""
    assert (cyclic_garbage(capsys, sized_argv(tmp_path, command, large))
            <= cyclic_garbage(capsys, sized_argv(tmp_path, command, small)))


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv", [["compare-ks"], ["--help"], ["no-such-command"]])
def test_main_leaves_the_collector_as_it_found_it(capsys, argv, enabled):
    """In process, main changes neither the collector's switch nor the frozen heap."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


@pytest.mark.parametrize("argv,cfg,code", [
    (["compare-ks"], None, 0),
    (["scp-check", "--config", "missing.json"], None, 1),
    (["scp-check"], {"measure": NON_SCP}, 2),
    (["poincare-check"], {"measure": {"family": "uniform_k_subsets", "n": 3, "k": 1},
                          "function": TABLE_FN, "lambda": 100}, 3),
    (["mgf"], dict(RADIUS_CFG, **{"lambda": 1e-310}), 4),
], ids=["ok", "usage", "validation", "violation", "numeric"])
def test_entry_runs_the_command_without_the_collector(tmp_path, capsys, monkeypatch,
                                                     argv, cfg, code):
    """In a fresh interpreter, entry returns the command's exit code and
    prints what main prints in process; the collector is off after it and
    the heap frozen."""
    if cfg is not None:
        argv = [*argv, "--config", write_cfg(tmp_path, "c.json", cfg)]
    probe = ("import gc, json, sys; from srconc.cli import entry; code = entry(); "
             "print(json.dumps([code, gc.isenabled(), gc.get_freeze_count() > 0]), "
             "file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                          text=True, env=CHILD_ENV, cwd=tmp_path)
    *err, state = proc.stderr.splitlines(keepends=True)
    assert json.loads(state) == [code, False, True], proc.stderr
    assert proc.returncode == 0
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert capsys.readouterr() == (proc.stdout, "".join(err))
