"""End-to-end acceptance checklist.

One test per numbered criterion; each records a single
``criterion N: PASS/FAIL (detail)`` line that the terminal-summary hook
in conftest prints after the run.  Every tolerance below is the stated
contract value, not a loosened stand-in; criterion 6 carries a clause
that the measured convergence rate cannot meet, and is asserted as
written rather than papered over.
"""

import math
import time

import numpy as np

import conftest
from conftest import (K4_EDGES, build_fixture_measures, random_projection_kernel,
                      random_symmetric)
from srconc import (
    chains,
    concentration as cc,
    functional,
    matrix_core as mx,
    measures,
    samplers,
)
from srconc.ks import ks_crossover, ks_crossover_threshold


def record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


FIXTURES = build_fixture_measures()
NAMES = sorted(FIXTURES)
WALKS = {name: chains.hermon_salez(FIXTURES[name][0]) for name in NAMES}
GAPS = {name: functional.scalar_spectral_gap(WALKS[name]) for name in NAMES}


def two_state_gen(a: float, b: float) -> chains.Generator:
    pi = np.array([b, a]) / (a + b)
    return chains.Generator(np.array([0, 1]), np.array([[-a, a], [b, -b]]),
                            pi, n=1)


def test_criterion_01_gap_lower_bound():
    start = time.perf_counter()
    worst = np.inf
    for name in NAMES:
        m, k = FIXTURES[name]
        walk = chains.hermon_salez(m)          # rebuilt so the timing is honest
        chains.validate_generator(walk)
        gap = functional.scalar_spectral_gap(walk)
        slack = gap - 1.0 / (2.0 * k)
        worst = min(worst, slack)
        assert gap >= 1.0 / (2.0 * k) - 1e-9, (name, gap, k)
    elapsed = time.perf_counter() - start
    record(1, worst >= -1e-9 and elapsed < 60.0,
           f"{len(NAMES)} fixtures, min gap slack {worst:+.3f}, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_02_two_state_constant():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(0.1, 3.0, size=2)
        gap = functional.scalar_spectral_gap(two_state_gen(a, b))
        worst = max(worst, abs(gap - (a + b)))
    record(2, worst <= 1e-12,
           f"100 random pairs, max |gap - (a+b)| = {worst:.2e} <= 1e-12")


def test_criterion_03_matrix_poincare_suite():
    """Trial i on the fi-th walk is an observable at d = (2, 3, 5)[i % 3] whose
    value at state x reads stream (3000 + fi, i << 32 | x); the trials of one d
    are drawn by one random_matrix_fn call and checked as one stack."""
    checks = 0
    worst = np.inf
    for fi, name in enumerate(NAMES):
        gen = WALKS[name]
        lam = GAPS[name]
        for first, d in enumerate((2, 3, 5)):
            trials = range(first, 500, 3)
            keys = (np.array(trials)[:, None] << 32 | gen.states).ravel()
            fn = functional.MatrixFn(gen.states, functional.random_matrix_fn(
                keys, d, seed=3000 + fi).values.reshape(len(trials), -1, d, d))
            rep = functional.check_matrix_poincare(gen, fn, lam, tol=1e-8)
            worst = min(worst, float((rep.min_eig_slack / rep.scale).min()))
            checks += len(trials)
            failed = np.flatnonzero(~rep.passed)
            assert failed.size == 0, (name, [trials[k] for k in failed],
                                      rep.min_eig_slack[failed])
    record(3, True, f"{checks} checks at lambda = gap, "
                    f"min slack/scale {worst:+.2e} >= -1e-8")


def test_criterion_04_decomposition_identities():
    splits = 0
    worst_res = 0.0
    worst_rec = np.inf
    for fi, name in enumerate(NAMES):
        m, _ = FIXTURES[name]
        gen = WALKS[name]
        lam = GAPS[name]
        fn = functional.random_matrix_fn(gen.states, 3, seed=4000 + fi)
        supp = m.support()
        for ell in range(m.n):
            bits = (supp >> ell) & 1
            if bits.min() == bits.max():
                continue
            splits += 1
            dec = chains.decompose(gen, ell)
            res = functional.check_decompositions(dec, fn)
            worst_res = max(worst_res, res.variance_residual / res.scale,
                            res.dirichlet_residual / res.scale)
            assert res.variance_residual < 1e-10 * res.scale, (name, ell)
            assert res.dirichlet_residual < 1e-10 * res.scale, (name, ell)

            chi = chains.chi(gen, dec, chains.scp_coupling(m, ell))
            lam_hat = functional.scalar_spectral_gap(dec.projection)
            lam_parts = []
            for restriction in dec.restrictions:
                try:
                    lam_parts.append(functional.scalar_spectral_gap(restriction))
                except functional.Reducible:
                    lam_parts.append(0.0)
            floor = min(chi * lam_hat, min(lam_parts))
            worst_rec = min(worst_rec, lam - floor)
            assert lam >= floor - 1e-9, (name, ell, lam, floor)
    record(4, True, f"{splits} splits: max residual/scale {worst_res:.2e} "
                    f"< 1e-10, recursive-bound slack >= {worst_rec:+.2e}")


def test_criterion_05_inequality_suite():
    """Trial t of statement idx draws its inputs from default_rng([5, idx, t]) at
    d = dims[t % 2]; the trials of one d are checked as one stack.  A statement is
    (draw, check): draw(rng, d) gives one trial's inputs, and check(*stacks) the
    verdicts of the stacked inputs."""
    trials = 1000
    tol = 1e-8
    walk = WALKS["uniform_4_2"]
    dims = (3, 4)
    ps = (1, 2, 4)

    def sym(rng, d, count, bound=1.5):
        return [random_symmetric(rng, d, bound) for _ in range(count)]

    diff_square = (lambda rng, d: (*sym(rng, d, 4), float(rng.uniform())),
                   lambda *args: mx.check_diff_square_convex(*args, tol))
    monotone = (lambda rng, d: (*sym(rng, d, 1), *sym(rng, d, 1, 1.0)),
                lambda a, bump: mx.check_trace_monotone(np.exp, a, a + bump @ bump.mT, tol))

    def jensen(fn, form):
        return (lambda rng, d: (rng.dirichlet(np.ones(3)), *sym(rng, d, 3)),
                lambda w, *mats: mx.check_operator_jensen(fn, w.T, mats, form, tol))

    def by_p(ks, options, check):
        """check(mask, p) per p = options[k] drawn, the verdicts joined."""
        return np.concatenate([check(ks == k, options[k]) for k in set(ks.tolist())])

    int_norm = (lambda rng, d: (*sym(rng, d, 3), int(rng.integers(3))),
                lambda a, b, x, ks: by_p(ks, (2, 4, np.inf), lambda i, p: mx.check_int_norm_bound(
                    a[i] @ a[i].mT, b[i] @ b[i].mT, x[i], p, tol)))
    duhamel = (lambda rng, d: (*sym(rng, d, 2, 2.0),),
               lambda x, y: mx.duhamel_residual(x, y, quad_points=64) < 1e-8)

    def lemma_var(p):  # X_0, Y_0, X_1, ... after the weights
        return (lambda rng, d: (rng.dirichlet(np.ones(3)), *sym(rng, d, 6)),
                lambda w, *xy: mx.check_lemma_var(
                    [(w[:, i], xy[2 * i], xy[2 * i + 1]) for i in range(3)], p, tol))

    def dirichlet_trace(p):
        return (lambda rng, d: (functional.random_matrix_fn(
                    walk.states, d, int(rng.integers(2**31)), 1.0).values,),
                lambda values: cc.check_dirichlet_trace_bound(
                    walk, functional.MatrixFn(walk.states, values), p, tol))

    suite = [("diff_square_convex", diff_square),
             ("trace_monotone", monotone),
             ("jensen_operator", jensen(np.square, "operator")),
             ("jensen_trace", jensen(lambda x: x**4, "trace")),
             ("int_norm", int_norm),
             ("duhamel_64", duhamel)]
    suite += [(f"lemma_var_p{p}", lemma_var(p)) for p in ps]
    suite += [(f"dirichlet_trace_p{p}", dirichlet_trace(p)) for p in ps]

    violations = {}
    for idx, (name, (draw, check)) in enumerate(suite):
        bad = 0
        for first, d in enumerate(dims):
            drawn = [draw(np.random.default_rng([5, idx, trial]), d)
                     for trial in range(first, trials, len(dims))]
            bad += int(np.count_nonzero(~check(*map(np.stack, zip(*drawn)))))
        violations[name] = bad
    total = sum(violations.values())
    record(5, total == 0,
           f"{len(suite)} statements x {trials} trials, "
           f"{total} violations" + ("" if total == 0 else f": {violations}"))


def test_criterion_06_induction_ladder():
    targets = (0.25, 0.5, 0.9)
    combos = 0
    worst_slack = np.inf
    errs = []
    for fi, name in enumerate(NAMES):
        gen = WALKS[name]
        lam = GAPS[name]
        base = functional.random_matrix_fn(gen.states, 3, seed=6000 + fi)
        v0 = cc.oscillation(gen, base).v
        for target in targets:
            combos += 1
            scaled = functional.MatrixFn(base.states,
                                         base.values * math.sqrt(target * lam) / v0)
            rep = cc.check_induction_statement(gen, scaled, lam, k_max=6,
                                               tol=1e-8)
            worst_slack = min(worst_slack, float(rep.slacks.min()) / rep.scale)
            assert rep.passed, (name, target, rep.slacks.min())
            vals = scaled.gather(gen.states)
            deep = cc.doubling_value(gen.pi, vals, 12)
            mean = functional.matrix_mean(gen.pi, vals)
            limit = float(np.exp(np.linalg.eigvalsh(mean)).sum())
            errs.append(abs(deep - limit) / abs(limit))
    errs = np.asarray(errs)
    hit = int((errs <= 1e-6).sum())
    ok = bool((errs <= 1e-6).all())
    record(6, ok,
           f"slackpart: {combos} combos pass (min slack/scale "
           f"{worst_slack:+.2e}); k=12 limit: {hit}/{combos} within 1e-6, "
           f"max rel err {errs.max():.2e} - ladder converges at rate 2^-k, "
           f"so 1e-6 at depth 12 is out of reach for these oscillation scales")


def test_criterion_07_mgf_bound_grid():
    checks = 0
    for fi, name in enumerate(NAMES):
        gen = WALKS[name]
        lam = GAPS[name]
        fn = functional.random_matrix_fn(gen.states, 3, seed=7000 + fi)
        v = cc.oscillation(gen, fn).v
        theta_max = math.sqrt(0.9 * lam) / v
        tm = cc.TraceMgf(gen.pi, fn.gather(gen.states))
        for theta in np.linspace(theta_max / 20, theta_max, 20):
            bound = cc.mgf_bound(float(theta), lam, v, fn.dim)
            value = tm(float(theta))
            checks += 1
            assert value <= bound + 1e-8 * max(1.0, bound), (name, theta)
    record(7, True, f"{checks} grid points with theta^2 alpha v^2 <= 0.9, "
                    f"all under d/(1 - theta^2 alpha v^2)")


def test_criterion_08_tail_validity():
    m = measures.make_spanning_tree_measure(K4_EDGES)
    walk = chains.hermon_salez(m)
    lam = functional.scalar_spectral_gap(walk)
    k = measures.homogeneity_degree(m)
    assert k == 3
    checks = 0
    for i in range(50):
        d = (2, 3, 4)[i % 3]
        fn, lip = functional.random_linear_matrix_fn(len(K4_EDGES), walk.states,
                                                     d, 1.0, seed=8000 + i)
        vals = fn.gather(walk.states)
        v = cc.oscillation(walk, fn).v
        mean = functional.matrix_mean(walk.pi, vals)
        dev = float(np.abs(np.linalg.eigvalsh(vals - mean)).max())
        ts = np.linspace(1.5 * dev / 50, 1.5 * dev, 50)
        exact = cc.exact_tail(walk.pi, vals, ts)
        radius = math.sqrt(lam) / v
        grid = np.linspace(radius / 400, radius * (1 - 1e-9), 400)
        curve = np.array([cc.mgf_bound(float(th), lam, v, d) for th in grid])
        for t, prob in zip(ts, exact):
            bp = cc.tail_bound_poincare(float(t), lam, v, d).raw
            bs = cc.tail_bound_sr(float(t), k, lip, d)
            lap = cc.laplace_tail(grid, curve, float(t),
                                  mgf=lambda th: cc.mgf_bound(th, lam, v, d))
            checks += 3
            assert prob <= bp + 1e-12, ("poincare", i, t)
            assert prob <= bs + 1e-12, ("sr", i, t)
            assert lap <= bp + 1e-9 * max(1.0, bp), ("laplace", i, t)
    record(8, True, f"50 Lipschitz functions x 50-point grids ({checks} "
                    f"comparisons): exact <= both closed forms, numeric "
                    f"laplace <= closed form")


def test_criterion_09_samplers():
    count = 100_000
    batch = samplers.wilson_spanning_tree(K4_EDGES, seed=9, count=count)
    m = measures.make_spanning_tree_measure(K4_EDGES)
    supp = m.support()
    assert supp.size == 16
    sigma = math.sqrt((1 / 16) * (15 / 16) / count)
    wilson_worst = 0.0
    for mask in supp.tolist():
        hat = float(np.mean(batch.draws == mask))
        wilson_worst = max(wilson_worst, abs(hat - 1 / 16) / sigma)
    assert wilson_worst <= 4.0

    kern = random_projection_kernel(6, 2, seed=13)
    dpp = samplers.sample_kdpp(kern, seed=9, count=50_000)
    dpp_worst = 0.0
    for b in range(6):
        p = float(kern[b, b])
        hat = float(np.mean((dpp.draws >> b) & 1))
        z = abs(hat - p) / math.sqrt(p * (1 - p) / 50_000)
        dpp_worst = max(dpp_worst, z)
    assert dpp_worst <= 4.0

    walk = chains.hermon_salez(m)
    fn, _ = functional.random_linear_matrix_fn(len(K4_EDGES), walk.states, 3,
                                               1.0, seed=9000)
    vals = fn.gather(walk.states)
    mean = functional.matrix_mean(walk.pi, vals)
    dev = float(np.abs(np.linalg.eigvalsh(vals - mean)).max())
    ts = np.array([0.35, 0.6, 0.85]) * dev
    exact = cc.exact_tail(walk.pi, vals, ts)
    covered = 0
    reps = 1000
    for rep in range(reps):
        sample = samplers.sample_table(m, seed=rep, count=500)
        rows = samplers.empirical_tail(fn, sample, ts, measure=m)
        if all(row.ci_upper >= true for row, true in zip(rows, exact)):
            covered += 1
    assert covered >= 0.97 * reps
    record(9, True,
           f"wilson worst z {wilson_worst:.2f} <= 4, kdpp marginal worst z "
           f"{dpp_worst:.2f} <= 4, CI coverage {covered}/{reps} >= 970")


def test_criterion_10_crossover():
    rng = np.random.default_rng(10)
    for _ in range(200):
        k = int(rng.integers(2, 2000))
        mu = float(rng.uniform(0.5, 500))
        eps = float(rng.uniform(0.001, 2.0))
        rec = ks_crossover(k, mu, eps)
        lhs = k + eps * mu * math.sqrt(k)
        rhs = mu * math.log(k) + eps * mu
        assert rec.lhs == lhs and rec.rhs == rhs
        assert rec.ours_better == (lhs <= rhs)

    ks = [8, 16, 32, 64, 128, 256, 512, 1024]
    margins = []
    for k in ks:
        eps = 1.0 / math.sqrt(k)
        mu_star = ks_crossover_threshold(k, eps)
        lo = k / (2 * math.log(k))
        hi = 2 * k / math.log(k)
        margins.append((mu_star - lo, hi - mu_star))
        assert lo <= mu_star <= hi, (k, mu_star, lo, hi)
        assert not ks_crossover(k, mu_star * 0.999, eps).ours_better
        assert ks_crossover(k, mu_star * 1.001, eps).ours_better
    record(10, True,
           f"comparator exact on 200 random triples; mu* inside "
           f"[k/(2 log k), 2k/log k] for k in {ks}")
