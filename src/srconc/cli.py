"""Command line front end.

One JSON config document drives every subcommand; --seed, --tol,
--trials and --out override the matching config keys.  Exit codes:
0 all asserted checks passed, 1 usage or config parse problem,
2 input validation failure, 3 an asserted inequality or property was
violated, 4 internal numeric failure.  Validation failures emit a
machine-readable {"error": ..., "message": ...} JSON object.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import zlib

import numpy as np

from . import chains, concentration, functional, matrix_core, measures, samplers

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


def _load_config(path: str | None, overrides: dict) -> dict:
    cfg = {}
    if path:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError(f"config {path} must hold a JSON object")
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    out = cfg.get("out")
    if out is not None and not isinstance(out, str):
        raise UsageError(f"out must be a file path, got {out!r}")
    cfg.setdefault("seed", 0)
    cfg.setdefault("tol", 1e-8)
    cfg.setdefault("trials", 100)
    return cfg


def _finite(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {key: _finite(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(val) for val in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit(obj, out: str | None) -> None:
    text = json.dumps(_finite(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _emit_csv(header, rows, out: str | None) -> None:
    def render(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else (repr(v) if isinstance(v, float) else v)
                             for v in row])

    if out:
        with open(out, "w", newline="") as fh:
            render(fh)
    else:
        render(sys.stdout)


def _load_measure(cfg: dict) -> measures.SubsetMeasure:
    spec = cfg.get("measure")
    if not isinstance(spec, dict):
        raise UsageError("config needs a 'measure' object")
    if "path" in spec:
        if not isinstance(spec["path"], str):
            raise UsageError(f"measure path must be a string, got {spec['path']!r}")
        with open(spec["path"]) as fh:
            return measures.measure_from_json(json.load(fh))
    if "inline" in spec:
        return measures.measure_from_json(spec["inline"])
    family = spec.get("family")
    if family == "uniform_k_subsets":
        return measures.make_uniform_k_subsets(int(spec["n"]), int(spec["k"]))
    if family == "bernoulli_product":
        return measures.make_bernoulli_product(spec["ps"])
    if family == "spanning_tree":
        vertices, edges = measures.graph_from_json(spec["graph"])
        return measures.make_spanning_tree_measure(edges, vertices)
    if family == "projection_dpp":
        return measures.make_projection_dpp(matrix_core.matrix_from_json(spec["kernel"]))
    raise UsageError(f"unknown measure spec {spec!r}")


def _build_function(cfg: dict, states, n: int):
    """Returns (MatrixFn, lipschitz or None) from the 'function' config."""
    spec = cfg.get("function")
    if not isinstance(spec, dict):
        raise UsageError("config needs a 'function' object")
    if "inline" in spec:
        return functional.matrix_fn_from_json(spec["inline"]), None
    rnd = spec.get("random")
    if not isinstance(rnd, dict):
        raise UsageError(f"unknown function spec {spec!r}")
    kind = rnd.get("kind", "table")
    d = int(rnd.get("d", 2))
    seed = int(rnd.get("seed", cfg["seed"]))
    if kind == "table":
        return functional.random_matrix_fn(states, d, seed,
                                           float(rnd.get("scale", 1.0))), None
    if kind == "linear":
        fn, lip = functional.random_linear_matrix_fn(n, states, d,
                                                     float(rnd.get("L", 1.0)), seed)
        return fn, lip
    raise UsageError(f"unknown random function kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate_measure(cfg: dict) -> int:
    m = _load_measure(cfg)
    measures.validate(m)
    _emit({"valid": True, "n": m.n, "support_size": int(m.support().size),
           "homogeneity": measures.homogeneity_degree(m)}, cfg.get("out"))
    return EXIT_OK


def cmd_scp_check(cfg: dict) -> int:
    m = _load_measure(cfg)
    result = chains.scp_check(m)
    payload = {"scp": bool(result), "witness": None}
    if result.witness is not None:
        coords, x_bits, y_bits = result.witness
        payload["witness"] = {"coords": list(coords), "x": list(x_bits),
                              "y": list(y_bits)}
    _emit(payload, cfg.get("out"))
    return EXIT_OK if result else EXIT_VALIDATION


def _walk_summary(m):
    raw = chains.flip_swap_average(m)
    walk = chains.normalized(raw)
    chains.validate_generator(walk)
    gap = functional.scalar_spectral_gap(walk)
    k = measures.homogeneity_degree(m)
    k_eff = k if k not in (None, 0) else m.n / 2.0
    bound = 1.0 / (2.0 * k_eff) if k_eff > 0 else 0.0
    return raw, walk, gap, k, bound


def cmd_build_walk(cfg: dict) -> int:
    m = _load_measure(cfg)
    raw, walk, gap, k, bound = _walk_summary(m)
    payload = chains.generator_to_json(walk)
    payload.update({
        "n": m.n,
        "delta_raw": chains.delta(raw),
        "delta": chains.delta(walk),
        "gap": gap,
        "homogeneity": k,
        "gap_lower_bound": bound,
        "gap_ok": bool(gap >= bound - 1e-9),
    })
    _emit(payload, cfg.get("out"))
    return EXIT_OK if payload["gap_ok"] else EXIT_VIOLATION


def cmd_poincare_check(cfg: dict) -> int:
    m = _load_measure(cfg)
    walk = chains.hermon_salez(m)
    fn, _ = _build_function(cfg, walk.states, m.n)
    lam = float(cfg["lambda"]) if "lambda" in cfg else functional.scalar_spectral_gap(walk)
    report = functional.check_matrix_poincare(walk, fn, lam, float(cfg["tol"]))
    _emit({"lambda": report.lambda_claimed, "min_eig_slack": report.min_eig_slack,
           "scale": report.scale, "passed": report.passed}, cfg.get("out"))
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _positive(value, name: str) -> int:
    """value as an int, or a UsageError unless it is at least 1."""
    count = int(value)
    if count < 1:
        raise UsageError(f"{name} must be at least 1, got {count}")
    return count


def _section(cfg: dict, key: str) -> dict:
    """The optional cfg[key] object ({} when absent)."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise UsageError(f"{key} must be an object, got {section!r}")
    return section


def _grid(cfg: dict, key: str, points: int) -> tuple[dict, int]:
    """The cfg[key] grid object and its point count (default points)."""
    grid = _section(cfg, key)
    return grid, _positive(grid.get("points", points), f"{key}.points")


def cmd_ineq_suite(cfg: dict) -> int:
    trials = _positive(cfg["trials"], "trials")
    seed = int(cfg["seed"])
    tol = float(cfg["tol"])
    dims = cfg.get("dims", [3, 4])
    if not isinstance(dims, list) or not dims:
        raise UsageError(f"dims must be a non-empty list, got {dims!r}")
    dims = [_positive(d, "dims entry") for d in dims]
    counts: dict[str, int] = {}

    def run(name, fun):
        bad = 0
        for trial in range(trials):
            rng = np.random.default_rng([seed, zlib.crc32(name.encode()), trial])
            if not fun(rng, dims[trial % len(dims)]):
                bad += 1
        counts[name] = bad

    def t_monotone(rng, d):
        a = matrix_core.random_symmetric(rng, d, 1.5)
        bump = matrix_core.random_symmetric(rng, d, 1.0)
        return matrix_core.check_trace_monotone(np.exp, a, a + bump @ bump.T, tol)

    def t_jensen_sq(rng, d):
        w = rng.dirichlet(np.ones(3))
        dec = matrix_core.IdentityDecomposition.from_weights(w, d)
        mats = [matrix_core.random_symmetric(rng, d, 1.5) for _ in range(3)]
        return matrix_core.check_operator_jensen(np.square, dec, mats, "operator", tol)

    def t_jensen_quartic(rng, d):
        w = rng.dirichlet(np.ones(3))
        dec = matrix_core.IdentityDecomposition.from_weights(w, d)
        mats = [matrix_core.random_symmetric(rng, d, 1.5) for _ in range(3)]
        return matrix_core.check_operator_jensen(lambda x: x**4, dec, mats, "trace", tol)

    def t_diff_sq(rng, d):
        mats = [matrix_core.random_symmetric(rng, d, 1.5) for _ in range(4)]
        return matrix_core.check_diff_square_convex(*mats, float(rng.uniform()), tol)

    def t_duhamel(rng, d):
        x = matrix_core.random_symmetric(rng, d, 2.0)
        y = matrix_core.random_symmetric(rng, d, 2.0)
        return matrix_core.duhamel_residual(x, y) < tol

    def t_int_norm(rng, d):
        a = matrix_core.random_symmetric(rng, d, 1.5)
        b = matrix_core.random_symmetric(rng, d, 1.5)
        x = matrix_core.random_symmetric(rng, d, 1.5)
        p = (2, 4, np.inf)[int(rng.integers(3))]
        return matrix_core.check_int_norm_bound(a @ a.T, b @ b.T, x, p, tol)

    def t_lemma_var(rng, d):
        w = rng.dirichlet(np.ones(3))
        pairs = [(w[i], matrix_core.random_symmetric(rng, d, 1.5),
                  matrix_core.random_symmetric(rng, d, 1.5)) for i in range(3)]
        return matrix_core.check_lemma_var(pairs, int(rng.integers(1, 3)), tol)

    walk = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))

    def t_dirichlet_trace(rng, d):
        fn = functional.random_matrix_fn(walk.states, d,
                                         int(rng.integers(2**31)), 1.0)
        return concentration.check_dirichlet_trace_bound(walk, fn,
                                                         int(rng.integers(1, 3)), tol)

    run("trace_monotone", t_monotone)
    run("jensen_square_operator", t_jensen_sq)
    run("jensen_quartic_trace", t_jensen_quartic)
    run("diff_square_convex", t_diff_sq)
    run("duhamel", t_duhamel)
    run("int_norm", t_int_norm)
    run("lemma_var", t_lemma_var)
    run("dirichlet_trace", t_dirichlet_trace)

    total_bad = sum(counts.values())
    _emit({"trials": trials, "violations": counts, "all_passed": total_bad == 0},
          cfg.get("out"))
    return EXIT_OK if total_bad == 0 else EXIT_VIOLATION


def cmd_mgf(cfg: dict) -> int:
    grid_cfg, points = _grid(cfg, "theta_grid", 20)
    frac = float(grid_cfg.get("max_fraction", 0.9))
    m = _load_measure(cfg)
    walk = chains.hermon_salez(m)
    fn, _ = _build_function(cfg, walk.states, m.n)
    lam = float(cfg["lambda"]) if "lambda" in cfg else functional.scalar_spectral_gap(walk)
    v = concentration.oscillation(walk, fn).v
    if v <= 0.0:
        raise UsageError("constant function: mgf grid is unbounded")
    theta_max = math.sqrt(frac * lam) / v
    thetas = np.linspace(theta_max / points, theta_max, points)
    curve = concentration.TraceMgf(walk.pi, fn.gather(walk.states)).curve(thetas)
    tol = float(cfg["tol"])
    rows = []
    ok = True
    for theta, val in zip(thetas, curve):
        bound = concentration.mgf_bound(float(theta), lam, v, fn.dim)
        good = val <= bound + tol * max(1.0, bound)
        ok = ok and good
        rows.append([float(theta), float(val), float(bound), str(bool(good))])
    _emit_csv(["theta", "trace_mgf", "bound", "ok"], rows, cfg.get("out"))
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_tail(cfg: dict) -> int:
    grid_cfg, points = _grid(cfg, "t_grid", 50)
    mode = cfg.get("mode", "exact")
    if mode not in ("exact", "empirical"):
        raise UsageError(f"unknown tail mode {mode!r}")
    c_ks = float(_section(cfg, "ks").get("c", 1.0))
    m = _load_measure(cfg)
    walk = chains.hermon_salez(m)
    fn, lip = _build_function(cfg, walk.states, m.n)
    lam = functional.scalar_spectral_gap(walk)
    v = concentration.oscillation(walk, fn).v
    d = fn.dim
    k = measures.homogeneity_degree(m)
    vals = fn.gather(walk.states)
    mean = functional.matrix_mean(walk.pi, vals)
    mu = matrix_core.spectral_norm(mean)

    centered = vals - mean
    dev_max = float(np.abs(np.linalg.eigvalsh(centered)).max())
    t_hi = float(grid_cfg.get("max", 1.25 * max(dev_max, 1e-6)))
    ts = np.linspace(t_hi / points, t_hi, points)

    if mode == "exact":
        probs = concentration.exact_tail(walk.pi, vals, ts)
        cis = [None] * len(ts)
    else:
        batch = samplers.sample_table(m, int(cfg["seed"]), int(cfg.get("count", 100000)))
        rows_emp = samplers.empirical_tail(fn, batch, ts, measure=m)
        probs = [r.estimate for r in rows_emp]
        cis = [r.ci_upper for r in rows_emp]

    tol = float(cfg["tol"])
    rows = []
    violated = False
    for t, prob, ci in zip(ts, probs, cis):
        bp = concentration.tail_bound_poincare(float(t), lam, v, d).raw
        bs = None
        if k not in (None, 0) and lip:
            bs = concentration.tail_bound_sr(float(t), int(k), float(lip), d)
        bk = None
        if k is not None and k >= 2 and mu > 0:
            bk = concentration.ks_bound(float(t) / mu, mu, int(k), d, c_ks)
        if mode == "exact":
            for bound in (bp, bs):
                if bound is not None and prob > bound + tol * max(1.0, bound):
                    violated = True
        row = concentration.TailRow(float(t), float(prob), ci, bp, bs, bk)
        rows.append(row)
    _emit_csv(concentration.TAIL_CSV_COLUMNS,
              [[r.t, r.exact_or_empirical, r.ci_upper, r.bound_poincare,
                r.bound_sr, r.bound_ks, r.dominator] for r in rows], cfg.get("out"))
    return EXIT_VIOLATION if violated else EXIT_OK


def cmd_compare_ks(cfg: dict) -> int:
    ks_cfg = _section(cfg, "ks")
    k_values = [int(k) for k in ks_cfg.get("k_values", [8, 16, 32, 64, 128, 256, 512, 1024])]
    c = float(ks_cfg.get("c", 1.0))
    factors = [float(f) for f in ks_cfg.get("mu_factors", [0.5, 1.0, 2.0])]
    rows = []
    for k in k_values:
        eps_spec = ks_cfg.get("eps", "inv_sqrt_k")
        eps = 1.0 / math.sqrt(k) if eps_spec == "inv_sqrt_k" else float(eps_spec)
        mu_star = concentration.ks_crossover_threshold(k, eps)
        for f in factors:
            rec = concentration.ks_crossover(k, f * mu_star, eps, c)
            rows.append([rec.k, rec.mu, rec.eps, rec.lhs, rec.rhs,
                         str(rec.ours_better), rec.margin, str(rec.near_crossover),
                         rec.exponent_sr, rec.exponent_ks, rec.dominator])
    _emit_csv(["k", "mu", "eps", "lhs", "rhs", "ours_better", "margin",
               "near_crossover", "exponent_sr", "exponent_ks", "dominator"],
              rows, cfg.get("out"))
    return EXIT_OK


def cmd_sample(cfg: dict) -> int:
    kind = cfg.get("sampler", "table")
    seed = int(cfg["seed"])
    count = int(cfg.get("count", 1000))
    if kind == "table":
        batch = samplers.sample_table(_load_measure(cfg), seed, count)
    elif kind == "wilson":
        vertices, edges = measures.graph_from_json(cfg["graph"])
        batch = samplers.wilson_spanning_tree(edges, seed, count, vertices)
    elif kind == "kdpp":
        kernel = matrix_core.matrix_from_json(cfg["kernel"])
        batch = samplers.sample_kdpp(kernel, seed, count)
    else:
        raise UsageError(f"unknown sampler {kind!r}")
    out = cfg.get("out")
    if not out:
        raise UsageError("sample needs --out for the batch dump")
    samplers.dump_batch(batch, out)
    return EXIT_OK


COMMANDS = {
    "validate-measure": cmd_validate_measure,
    "scp-check": cmd_scp_check,
    "build-walk": cmd_build_walk,
    "poincare-check": cmd_poincare_check,
    "ineq-suite": cmd_ineq_suite,
    "mgf": cmd_mgf,
    "tail": cmd_tail,
    "compare-ks": cmd_compare_ks,
    "sample": cmd_sample,
}

VALIDATION_ERRORS = (measures.MeasureError, chains.ChainError,
                     functional.FunctionalError, matrix_core.DimMismatch,
                     matrix_core.NotSymmetric, matrix_core.PreconditionViolated,
                     matrix_core.BadDecomposition, matrix_core.NotPSD)

NUMERIC_ERRORS = (matrix_core.NonFinite, np.linalg.LinAlgError,
                  concentration.ConcentrationError, FloatingPointError,
                  OverflowError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srconc")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config document")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _load_config(args.config, {"seed": args.seed, "tol": args.tol,
                                         "trials": args.trials, "out": args.out})
        return COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except NUMERIC_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_NUMERIC
    except VALIDATION_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_VALIDATION
    except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
