"""Command line front end.

One JSON config document drives every subcommand; --seed, --tol,
--trials and --out override the matching config keys.  The argv grammar
is `COMMAND [--key value | --key=value]...`, parsed by `parse_argv`; -h or
--help anywhere prints USAGE.  Exit codes:
0 all asserted checks passed, 1 usage or config parse problem,
2 input validation failure, 3 an asserted inequality or property was
violated, 4 internal numeric failure.  The exit code of a library error
is its class: 2 for an `inputs.InvalidInput`, 4 for an
`inputs.NumericFailure`.  Validation failures emit a machine-readable
{"error": ..., "message": ...} JSON object.  Config numbers, each seed in
[0, 2^64) by `inputs.as_seed`, are range-checked before any walk is built
or draw is made.  One writer, `_write`, prints everything but a usage
error: a document goes to the file `out` names in place of stdout, and a
closed stdout ends the output quietly.

Each command imports the layers it calls when it runs, numpy included, so
`compare-ks`, `--help` and an early config error start without numpy; json
loads only where a config or measure file is read or JSON is written.

Process lifecycle: `entry`, the one entry point of the console script and of
`python -m srconc.cli`, runs `main` with the cyclic collector off and freezes
the heap before the interpreter exits.  A process runs one command, the
library leaves almost no cyclic garbage (a repeat run of any command leaves
at most the 33 objects of json's indenting encoder), while the collections
during the numpy import and the full sweep at exit over numpy's modules cost
~20 ms of a 200 ms `tail` on a small measure (2-CPU VM).  `main` itself
leaves the collector as it finds it.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import os
import sys
import zlib

from . import inputs

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
        import json
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError(f"config {path} must hold a JSON object")
    cfg.update(overrides)
    out = cfg.get("out")
    if out is not None and not isinstance(out, str):
        raise UsageError(f"out must be a file path, got {out!r}")
    cfg["seed"] = inputs.as_seed(cfg.get("seed", 0), "seed")
    cfg["tol"] = inputs.in_range(cfg.get("tol", 1e-8), "tol", zero_ok=True)
    cfg.setdefault("trials", 100)
    return cfg


def _finite(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {key: _finite(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(val) for val in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write(text: str, out: str | None = None) -> None:
    """text in the file out, which replaces stdout, or on stdout.  A reader that
    closed stdout ends the output: stdout's fd then points at os.devnull, so
    the exit flush meets no pipe and the command's own exit code stands."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())


def _emit(obj, out: str | None) -> None:
    """obj as indented JSON, every non-finite float as null: the _finite walk
    runs only when json.dumps refuses one."""
    import json
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        text = json.dumps(_finite(obj), sort_keys=True, indent=2, allow_nan=False)
    _write(text + "\n", out)


def _emit_csv(header, rows, out: str | None) -> None:
    csv.writer(text := io.StringIO(), lineterminator="\n").writerows([header, *rows])
    _write(text.getvalue(), out)


def _load_measure(cfg: dict):
    from . import measures
    spec = cfg.get("measure")
    if not isinstance(spec, dict):
        raise UsageError("config needs a 'measure' object")
    if "path" in spec:
        if not isinstance(spec["path"], str):
            raise UsageError(f"measure path must be a string, got {spec['path']!r}")
        import json
        with open(spec["path"]) as fh:
            return measures.measure_from_json(json.load(fh))
    if "inline" in spec:
        return measures.measure_from_json(spec["inline"])
    family = spec.get("family")
    if family == "uniform_k_subsets":
        return measures.make_uniform_k_subsets(inputs.as_integer(spec["n"], "measure.n"),
                                               inputs.as_integer(spec["k"], "measure.k"))
    if family == "bernoulli_product":
        ps = spec["ps"]
        if not isinstance(ps, list):
            raise UsageError(f"measure.ps must be a list, got {ps!r}")
        return measures.make_bernoulli_product([inputs.as_real(p, "measure.ps entry")
                                                for p in ps])
    if family == "spanning_tree":
        graph = spec["graph"]
        return measures.make_spanning_tree_measure(graph["edges"], graph["vertices"])
    if family == "projection_dpp":
        return measures.make_projection_dpp(_kernel(spec["kernel"]))
    raise UsageError(f"unknown measure spec {spec!r}")


def _kernel(obj: dict):
    """A kernel config's rows, d x d; measures.projection_kernel checks the rest."""
    from . import measures
    d = inputs.as_integer(obj["d"], "kernel.d")
    rows = measures.as_matrix(obj["rows"], "rows entry")
    if rows.shape != (d, d):
        raise measures.NotAProjection(f"kernel rows have shape {rows.shape}, d is {d}")
    return rows


def _build_function(cfg: dict):
    """From the 'function' config, a maker (states, n) -> (MatrixFn, lipschitz
    or None); the numbers of a random spec are checked here, before any walk."""
    from . import functional
    spec = cfg.get("function")
    if not isinstance(spec, dict):
        raise UsageError("config needs a 'function' object")
    if "inline" in spec:
        return lambda states, n: (functional.matrix_fn_from_json(spec["inline"]), None)
    rnd = spec.get("random")
    if not isinstance(rnd, dict):
        raise UsageError(f"unknown function spec {spec!r}")
    kind = rnd.get("kind", "table")
    d = inputs.at_least(rnd.get("d", 2), "function.random.d", 1)
    seed = inputs.as_seed(rnd.get("seed", cfg["seed"]), "function.random.seed")
    if kind == "table":
        scale = inputs.in_range(rnd.get("scale", 1.0), "function.random.scale", zero_ok=True)
        return lambda states, n: (functional.random_matrix_fn(states, d, seed, scale), None)
    if kind == "linear":
        lip = inputs.in_range(rnd.get("L", 1.0), "function.random.L", zero_ok=True)
        return lambda states, n: functional.random_linear_matrix_fn(n, states, d, lip, seed)
    raise UsageError(f"unknown random function kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate_measure(cfg: dict) -> int:
    from . import measures
    m = _load_measure(cfg)
    measures.validate(m)
    _emit({"valid": True, "n": m.n, "support_size": int(m.support().size),
           "homogeneity": measures.homogeneity_degree(m)}, cfg.get("out"))
    return EXIT_OK


def cmd_scp_check(cfg: dict) -> int:
    from . import chains
    result = chains.scp_check(_load_measure(cfg))
    witness = None if result.witness is None else dict(zip(("coords", "x", "y"), result.witness))
    _emit({"scp": bool(result), "witness": witness}, cfg.get("out"))
    return EXIT_OK if result else EXIT_VALIDATION


def cmd_build_walk(cfg: dict) -> int:
    from . import chains, functional, measures
    m = _load_measure(cfg)
    raw = chains.flip_swap_average(m)
    walk = chains.normalized(raw)
    chains.validate_generator(walk)
    gap = functional.scalar_spectral_gap(walk)
    k = measures.homogeneity_degree(m)
    k_eff = k if k not in (None, 0) else m.n / 2.0
    bound = 1.0 / (2.0 * k_eff) if k_eff > 0 else 0.0
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


def _certify_setup(cfg: dict, read_lambda: bool):
    """(measure, walk, function, lipschitz or None, lam): lam is the config's
    "lambda" when read_lambda and it is given, else the walk's spectral gap."""
    lam = inputs.in_range(cfg["lambda"], "lambda") if read_lambda and "lambda" in cfg else None
    from . import chains, functional
    m = _load_measure(cfg)
    make_fn = _build_function(cfg)
    walk = chains.hermon_salez(m)
    fn, lip = make_fn(walk.states, m.n)
    if lam is None:
        lam = functional.scalar_spectral_gap(walk)
    return m, walk, fn, lip, lam


def cmd_poincare_check(cfg: dict) -> int:
    from . import functional
    _, walk, fn, _, lam = _certify_setup(cfg, True)
    report = functional.check_matrix_poincare(walk, fn, lam, cfg["tol"])
    _emit({"lambda": report.lambda_claimed, "min_eig_slack": report.min_eig_slack,
           "scale": report.scale, "passed": report.passed}, cfg.get("out"))
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _section(cfg: dict, key: str) -> dict:
    """The optional cfg[key] object ({} when absent)."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise UsageError(f"{key} must be an object, got {section!r}")
    return section


def _grid(cfg: dict, key: str, points: int) -> tuple[dict, int]:
    """The cfg[key] grid object and its point count (default points)."""
    grid = _section(cfg, key)
    return grid, inputs.at_least(grid.get("points", points), f"{key}.points", 1)


def cmd_ineq_suite(cfg: dict) -> int:
    trials = inputs.at_least(cfg["trials"], "trials", 1)
    seed, tol = cfg["seed"], cfg["tol"]
    dims = cfg.get("dims", [3, 4])
    if not isinstance(dims, list) or not dims:
        raise UsageError(f"dims must be a non-empty list, got {dims!r}")
    dims = [inputs.at_least(d, "dims entry", 1) for d in dims]
    import numpy as np

    from . import chains, concentration, functional, matrix_core, measures, streams

    def by_p(word, ps, check):
        """check(mask of the trials that drew p, p) per p drawn, the verdicts joined: a trial
        draws ps[k], k Lemire's map of the high half of its word onto range(len(ps))."""
        ks = streams.lemire(word >> 32, len(ps))[0]
        return np.concatenate([check(ks == k, ps[k]) for k in set(ks.tolist())])

    def t_monotone(mats, w, d):
        a, bump = mats[:, 0], mats[:, 1]
        return matrix_core.check_trace_monotone(np.exp, a, a + bump @ bump.mT, tol)

    def t_jensen(fn, form):
        return lambda mats, w, d: matrix_core.check_operator_jensen(
            fn, streams.simplex(w[:, :3]).T, list(mats.swapaxes(0, 1)), form, tol)

    def t_diff_sq(mats, w, d):
        return matrix_core.check_diff_square_convex(*mats.swapaxes(0, 1),
                                                    streams.uniform(w[:, 0]), tol)

    def t_duhamel(mats, w, d):
        return matrix_core.duhamel_residual(mats[:, 0], mats[:, 1]) < tol

    def t_int_norm(mats, w, d):
        a, b, x = mats.swapaxes(0, 1)
        return by_p(w[:, 0], (2, 4, np.inf), lambda i, p: matrix_core.check_int_norm_bound(
            a[i] @ a[i].mT, b[i] @ b[i].mT, x[i], p, tol))

    def t_lemma_var(mats, w, d):
        weights = streams.simplex(w[:, :3])  # X_0, Y_0, X_1, ... in mats
        return by_p(w[:, 3], (1, 2), lambda i, p: matrix_core.check_lemma_var(
            [(weights[i, k], mats[i, 2 * k], mats[i, 2 * k + 1]) for k in range(3)], p, tol))

    walk = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))

    def t_dirichlet_trace(mats, w, d):
        return by_p(w[:, 0], (1, 2), lambda i, p: concentration.check_dirichlet_trace_bound(
            walk, functional.MatrixFn(walk.states, mats[i]), p, tol))

    suite = {"trace_monotone": ((1.5, 1.0), t_monotone),
             "jensen_square_operator": ((1.5,) * 3, t_jensen(np.square, "operator")),
             "jensen_quartic_trace": ((1.5,) * 3, t_jensen(lambda x: x**4, "trace")),
             "diff_square_convex": ((1.5,) * 4, t_diff_sq),
             "duhamel": ((2.0, 2.0), t_duhamel),
             "int_norm": ((1.5,) * 3, t_int_norm),
             "lemma_var": ((1.5,) * 6, t_lemma_var),
             "dirichlet_trace": ((1.0,) * walk.states.size, t_dirichlet_trace)}
    counts, sizes = dict.fromkeys(suite, 0), [len(bounds) for bounds, _ in suite.values()]
    tags = [np.uint64(zlib.crc32(name.encode()) << 32) for name in suite]
    # Each statement's fun(mats, w, d) checks the trials of one entry of dims, a stack of at
    # most CHUNK_BYTES at a time (per trial: all words, and 12 d x d arrays per matrix of the
    # largest statement).  Trial t reads stream (seed, crc32(name) << 32 | t): a gain word per
    # entry b_k of the statement's bounds, four words w, then the normals of mats, where
    # mats[:, k] is a random symmetric d x d matrix of norm at most b_k.
    for first, d in enumerate(dims):
        ts = np.arange(first, trials, len(dims), dtype=np.uint64)
        lengths = [k + 4 + (k * d * d + 1) // 2 for k in sizes]
        step = max(1, streams.CHUNK_BYTES // (8 * (sum(lengths) + 12 * max(sizes) * d * d)))
        for at in range(0, len(ts), step):
            draws = streams.words(seed, [tag | ts[at:at + step] for tag in tags], lengths)
            for (name, (bounds, fun)), w, k in zip(suite.items(), draws, sizes):
                gain = np.multiply(bounds, 0.2 + 0.8 * streams.uniform(w[:, :k]))
                g = streams.normal(w[:, k + 4:])[:, :k * d * d].reshape(-1, k, d, d)
                ok = fun(matrix_core.symmetrized(g, gain), w[:, k:k + 4], d)
                counts[name] += int(np.logical_not(ok).sum())

    total_bad = sum(counts.values())
    _emit({"trials": trials, "violations": counts, "all_passed": total_bad == 0},
          cfg.get("out"))
    return EXIT_OK if total_bad == 0 else EXIT_VIOLATION


def cmd_mgf(cfg: dict) -> int:
    grid_cfg, points = _grid(cfg, "theta_grid", 20)
    frac = inputs.in_range(grid_cfg.get("max_fraction", 0.9), "theta_grid.max_fraction", 1.0)
    from . import concentration
    _, walk, fn, _, lam = _certify_setup(cfg, True)
    v = concentration.oscillation(walk, fn).v
    if v <= 0.0:
        raise UsageError("constant function: mgf grid is unbounded")
    thetas = concentration.mgf_grid(lam, v, frac, points)
    rows = concentration.spectrum(walk, fn).rows(thetas, lam, v, cfg["tol"])
    _emit_csv(["theta", "trace_mgf", "bound", "ok"], rows, cfg.get("out"))
    return EXIT_OK if all(row[3] for row in rows) else EXIT_VIOLATION


def cmd_tail(cfg: dict) -> int:
    grid_cfg, points = _grid(cfg, "t_grid", 50)
    mode = cfg.get("mode", "exact")
    if mode not in ("exact", "empirical"):
        raise UsageError(f"unknown tail mode {mode!r}")
    c_ks = inputs.in_range(_section(cfg, "ks").get("c", 1.0), "ks.c")
    t_hi = inputs.in_range(grid_cfg["max"], "t_grid.max") if "max" in grid_cfg else None
    if mode == "empirical":
        count = inputs.at_least(cfg.get("count", 100000), "count", 1)
    import numpy as np

    from . import concentration, matrix_core, measures
    m, walk, fn, lip, lam = _certify_setup(cfg, False)
    v = concentration.oscillation(walk, fn).v
    d = fn.dim
    k = measures.homogeneity_degree(m)
    spectrum = concentration.spectrum(walk, fn)
    mu = matrix_core.spectral_norm(spectrum.mean)

    if t_hi is None:
        t_hi = 1.25 * max(float(spectrum.devs.max()), 1e-6)
    ts = np.linspace(t_hi / points, t_hi, points)

    if mode == "exact":
        probs, cis = spectrum.tail(ts), [None] * points
    else:
        from . import samplers
        batch = samplers.sample_table(m, cfg["seed"], count)
        emp = samplers.sampled_tail(walk.states, spectrum.devs, batch, ts)
        probs, cis = [r.estimate for r in emp], [r.ci_upper for r in emp]

    rows = []
    violated = False
    with_ks = k is not None and k >= 2 and mu > 0
    for t, prob, ci in zip(ts.tolist(), probs, cis):
        bp = concentration.tail_bound_poincare(t, lam, v, d).raw
        bs = concentration.tail_bound_sr(t, int(k), float(lip), d) if k and lip else None
        bk = concentration.ks_bound(t / mu, mu, int(k), d, c_ks) if with_ks else None
        if mode == "exact":
            violated |= not all(measures.within(prob, bound, cfg["tol"], bound)
                                for bound in (bp, bs) if bound is not None)
        rows.append([t, float(prob), ci, bp, bs, bk, concentration.tail_dominator(bp, bs, bk)])
    _emit_csv(concentration.TAIL_CSV_COLUMNS, rows, cfg.get("out"))
    return EXIT_VIOLATION if violated else EXIT_OK


def cmd_compare_ks(cfg: dict) -> int:
    from . import ks
    ks_cfg = _section(cfg, "ks")
    k_values = [inputs.as_integer(k, "ks.k_values entry")
                for k in ks_cfg.get("k_values", [8, 16, 32, 64, 128, 256, 512, 1024])]
    inputs.at_least(min(k_values, default=2), "ks.k_values entries", 2)
    c = inputs.in_range(ks_cfg.get("c", 1.0), "ks.c")
    factors = [inputs.in_range(f, "ks.mu_factors entry")
               for f in ks_cfg.get("mu_factors", [0.5, 1.0, 2.0])]
    eps_spec = ks_cfg.get("eps", "inv_sqrt_k")
    eps = None if eps_spec == "inv_sqrt_k" else inputs.in_range(eps_spec, "ks.eps")
    rows = []
    for k in k_values:
        eps_k = 1.0 / math.sqrt(k) if eps is None else eps
        mu_star = ks.ks_crossover_threshold(k, eps_k)
        if math.isinf(mu_star):
            raise UsageError(f"no crossover at k = {k}, eps = {eps_k}: log k + eps <= eps sqrt k")
        rows += [ks.ks_crossover(k, f * mu_star, eps_k, c) for f in factors]
    _emit_csv(ks.KsCrossover._fields, rows, cfg.get("out"))
    return EXIT_OK


def cmd_sample(cfg: dict) -> int:
    if not (out := cfg.get("out")):
        raise UsageError("sample needs --out for the batch dump")
    kind = cfg.get("sampler", "table")
    count = inputs.at_least(cfg.get("count", 1000), "count", 0)
    from . import measures, samplers
    if kind == "table":
        batch = samplers.sample_table(_load_measure(cfg), cfg["seed"], count)
    elif kind == "wilson":
        graph = cfg["graph"]
        batch = samplers.wilson_spanning_tree(graph["edges"], cfg["seed"], count, graph["vertices"])
    elif kind == "kdpp":
        batch = samplers.sample_kdpp(_kernel(cfg["kernel"]), cfg["seed"], count)
    else:
        raise UsageError(f"unknown sampler {kind!r}")
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

OPTIONS = {"--config": str, "--seed": int, "--tol": float, "--trials": int, "--out": str}

USAGE = """usage: srconc COMMAND [--config PATH] [--seed INT] [--tol FLOAT]
                      [--trials INT] [--out PATH]

COMMAND is one of
""" + "".join(f"  {name}\n" for name in COMMANDS) + """
Each option takes its value as --key value or --key=value, and the last one
given wins.  --config names a JSON config object; --seed, --tol, --trials
and --out override its keys.  -h or --help anywhere prints this text.
"""


def parse_argv(argv: list[str]) -> tuple[str, dict]:
    """(command, {key: value}) from COMMAND [--key value | --key=value]...,
    each value read by its OPTIONS type; UsageError for anything else."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        raise UsageError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    options, words = {}, iter(argv[1:])
    for word in words:
        key, eq, value = word.partition("=")
        if key not in OPTIONS:
            raise UsageError(f"unknown option {word!r}")
        if not eq and ((value := next(words, None)) is None or value.startswith("--")):
            raise UsageError(f"{key} needs a value")
        try:
            options[key[2:]] = OPTIONS[key](value)
        except ValueError:
            raise UsageError(f"{key} takes {OPTIONS[key].__name__}, got {value!r}") from None
    return command, options


def _report(code: int, error: str, exc) -> int:
    """code, once {"error": error, "message": str(exc)} is written: on stderr
    for a usage error (exit 1), else through _write on stdout."""
    import json
    text = json.dumps({"error": error, "message": str(exc)}) + "\n"
    (sys.stderr.write if code == EXIT_USAGE else _write)(text)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        _write(USAGE)
        return EXIT_OK
    try:
        command, options = parse_argv(argv)
        return COMMANDS[command](_load_config(options.pop("config", None), options))
    except (UsageError, inputs.NotANumber, inputs.OutOfRange) as exc:
        return _report(EXIT_USAGE, "usage", exc)
    # before InvalidInput: NonFinite is both; no LinAlgError without numpy loaded
    except (inputs.NumericFailure, *inputs.numpy_types("linalg.LinAlgError"),
            FloatingPointError, OverflowError, MemoryError) as exc:
        return _report(EXIT_NUMERIC, type(exc).__name__, exc)
    except inputs.InvalidInput as exc:
        return _report(EXIT_VALIDATION, type(exc).__name__, exc)
    except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
        return _report(EXIT_USAGE, type(exc).__name__, exc)


def entry() -> int:
    """main() for a process that ends with it: no collections while it runs,
    and its objects frozen so the interpreter's exit sweep skips them."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
