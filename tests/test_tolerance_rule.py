"""The one tolerance rule and the walk as the reader of its own edges,
checked against the expressions they replaced.

Every scaled verdict is ``measures.within(value, bound, tol, scale)``.
Before it, each checker spelled the rule inline, in one of two forms:
``lhs <= rhs + tol * max(1, s)`` or ``slack >= -tol * max(1, s)`` (and
``x > tol * max(1, s)`` where a violation raises).  The ``ref_*`` functions
below keep those inline verdicts on the same numeric steps, and the tests
assert equal booleans: on the criterion-5 trial streams of every checker,
over the fixture walks, and at tolerances within a few ulps of the point
where a verdict flips.  ``old_dirichlet_form`` and
``old_check_decompositions`` are the bare-array forms that rescanned the
rate matrix; the walk-side results must match them bit for bit.  The last
tests keep this rule, and each input rule that several layers apply, spelled
in one place.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import name_seed, random_symmetric
from srconc import chains, concentration as cc, functional, matrix_core as mx, measures
from srconc.functional import MatrixFn, random_matrix_fn

TOLS = (1e-8, 0.0, -1e-6, -1e-2, -0.3, -1.0)  # negative ones make both verdicts occur


def outcome(fn, *args):
    """("ok", result) or ("raise", exception type): what a call did."""
    try:
        return "ok", fn(*args)
    except mx.MatrixError as exc:
        return "raise", type(exc)


def ulps(x: float, steps: int) -> float:
    """x moved by steps units in the last place."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
    return float(x)


# ------------------------------------------------ the inline verdicts before

def ref_psd_leq(a, b, tol=1e-9):
    a, b = mx.require_symmetric(a, "a"), mx.require_symmetric(b, "b")
    gap = np.linalg.eigvalsh(b - a).min()
    scale = max(1.0, mx.spectral_norm(a), mx.spectral_norm(b))
    return bool(gap >= -tol * scale)


def ref_trace_monotone(fn, a, h, tol):
    a, h = mx.require_symmetric(a, "a"), mx.require_symmetric(h, "h")
    if not ref_psd_leq(a, h, tol=1e-9):
        raise mx.PreconditionViolated("a <= h does not hold in the PSD order")
    lhs = float(fn(np.linalg.eigvalsh(a)).sum())
    rhs = float(fn(np.linalg.eigvalsh(h)).sum())
    scale = max(1.0, abs(lhs), abs(rhs))
    return lhs <= rhs + tol * scale


def ref_operator_jensen(fn, decomp, mats, form, tol):
    mats = [mx.require_symmetric(a) for a in mats]
    mixed = sum(k.T @ a @ k for k, a in zip(decomp.factors, mats))
    pushed = sum(k.T @ mx.sym_apply(a, fn) @ k for k, a in zip(decomp.factors, mats))
    if form == "operator":
        return ref_psd_leq(mx.sym_apply(mixed, fn), pushed, tol)
    lhs = float(fn(np.linalg.eigvalsh(mixed)).sum())
    rhs = float(np.trace(pushed))
    scale = max(1.0, abs(lhs), abs(rhs))
    return lhs <= rhs + tol * scale


def ref_diff_square_convex(x1, x2, y1, y2, t, tol):
    x1, x2, y1, y2 = (mx.require_symmetric(m) for m in (x1, x2, y1, y2))
    mix = t * (x1 - y1) + (1 - t) * (x2 - y2)
    rhs = t * (x1 - y1) @ (x1 - y1) + (1 - t) * (x2 - y2) @ (x2 - y2)
    return ref_psd_leq(mix @ mix, rhs, tol)


def ref_int_norm_bound(a, b, x, p, tol):
    a, b, x = (mx.require_symmetric(m) for m in (a, b, x))
    la, ua = np.linalg.eigh(a)
    lb, ub = np.linalg.eigh(b)
    if la.min(initial=0.0) < -1e-10 * max(1.0, np.abs(la).max(initial=0.0)):
        raise mx.NotPSD("a must be PSD")
    if lb.min(initial=0.0) < -1e-10 * max(1.0, np.abs(lb).max(initial=0.0)):
        raise mx.NotPSD("b must be PSD")
    la, lb = np.clip(la, 0.0, None), np.clip(lb, 0.0, None)
    nodes, weights = mx._gl_nodes(mx.DEFAULT_QUAD_POINTS)
    acc = np.zeros_like(x)
    for t, w in zip(nodes, weights):
        acc += w * (((ua * la**t) @ ua.T) @ x @ ((ub * lb ** (1 - t)) @ ub.T))
    lhs = mx.schatten_norm(acc, p)
    rhs = 0.5 * mx.schatten_norm(a @ x + x @ b, p)
    return lhs <= rhs + tol * max(1.0, rhs)


def ref_lemma_var(pairs, p, tol):
    mean_sq, rhs = None, 0.0
    for w, x, y in pairs:
        x, y = mx.require_symmetric(x), mx.require_symmetric(y)
        diff_exp = mx.sym_apply(x, np.exp) - mx.sym_apply(y, np.exp)
        sq = diff_exp @ diff_exp
        mean_sq = w * sq if mean_sq is None else mean_sq + w * sq
        tr_x = float(np.exp(2 * p * np.linalg.eigvalsh(x)).sum())
        tr_y = float(np.exp(2 * p * np.linalg.eigvalsh(y)).sum())
        rhs += 0.5 * w * mx.spectral_norm(x - y) ** (2 * p) * (tr_x + tr_y)
    lhs = mx.trace_power(mean_sq, p)
    return lhs <= rhs + tol * max(1.0, abs(rhs))


def ref_psd_eigh(a, name):
    lam, vec = np.linalg.eigh(mx.require_symmetric(a))
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    if lam.min(initial=0.0) < -1e-10 * scale:
        raise mx.NotPSD(f"{name} has eigenvalue {lam.min():.3e}")
    return np.clip(lam, 0.0, None), vec


def old_dirichlet_form(rates, weights, values):
    """The bare-array form: the rate support rescanned on every call."""
    support = rates != 0.0
    x, y = np.nonzero(np.triu(support | support.T, 1))
    flow = weights[x] * rates[x, y] + weights[y] * rates[y, x]
    diff = values[x] - values[y]
    d = values.shape[1]
    weighted = diff * flow[:, None, None]
    return 0.5 * (diff.transpose(1, 0, 2).reshape(d, -1) @ weighted.reshape(-1, d))


def ref_dirichlet_trace(gen, fn, p, tol):
    lam, vec = np.linalg.eigh(fn.gather(gen.states))
    expf = (vec * np.exp(lam)[:, None, :]) @ vec.transpose(0, 2, 1)
    lhs = mx.trace_power(old_dirichlet_form(gen.rates, gen.pi, expf), p)
    v = cc.oscillation(gen, fn).v
    rhs = v ** (2 * p) * float(gen.pi @ np.exp(2 * p * lam).sum(axis=1))
    return bool(lhs <= rhs + tol * max(1.0, rhs))


def ref_poincare(gen, fn, lam, tol):
    """(slack, scale, passed) as check_matrix_poincare computed them."""
    vals = fn.gather(gen.states)
    energy = old_dirichlet_form(gen.rates, gen.pi, vals)
    var = functional.matrix_variance(gen.pi, vals)
    spread = mx.spectral_norm(var)
    lam_var, lam_spread = (lam * var, abs(lam) * spread) if spread > 0.0 else (var, 0.0)
    slack = float(np.linalg.eigvalsh(energy - lam_var).min())
    scale = max(1.0, mx.spectral_norm(energy), lam_spread)
    return slack, scale, slack >= -tol * scale


def ref_induction(gen, fn, lam, k_max, tol):
    """(slacks, base, scale, passed) as check_induction_statement computed them."""
    v = cc.oscillation(gen, fn).v
    av2 = (1.0 / lam) * v * v
    vals = fn.gather(gen.states)
    base = cc.doubling_value(gen.pi, vals, 0)
    slacks = np.asarray([cc.doubling_value(gen.pi, vals, k) - (1.0 - av2 * (1.0 - 0.5**k)) * base
                         for k in range(1, k_max + 1)])
    scale = max(1.0, abs(base))
    return slacks, base, scale, bool((slacks >= -tol * scale).all())


def ref_mgf_ok(value, bound, tol):
    return bool(value <= bound + tol * max(1.0, bound))


def old_check_decompositions(dec, fn):
    """check_decompositions with the label loop and the bare-array form."""
    gen = dec.source
    vals = fn.gather(gen.states)
    pihat = dec.projection.pi
    fhat = functional.project_fn(dec, fn)
    total_var = functional.matrix_variance(gen.pi, vals)
    inner = sum(pihat[i] * functional.matrix_variance(dec.restrictions[i].pi,
                                                      fn.gather(dec.parts[i]))
                for i in range(len(dec.parts)))
    across = functional.matrix_variance(pihat, fhat.values)
    var_res = float(np.abs(total_var - inner - across).max())
    total_dir = old_dirichlet_form(gen.rates, gen.pi, vals)
    within_dir = sum(pihat[i] * old_dirichlet_form(dec.restrictions[i].rates,
                                                   dec.restrictions[i].pi,
                                                   fn.gather(dec.parts[i]))
                     for i in range(len(dec.parts)))
    pos = {int(s): i for i, s in enumerate(gen.states)}
    labels = np.full(gen.states.size, -1)
    for i, part in enumerate(dec.parts):
        labels[[pos[int(s)] for s in part]] = i
    cross = old_dirichlet_form(gen.rates * (labels[:, None] != labels[None, :]),
                               gen.pi, vals)
    dir_res = float(np.abs(total_dir - within_dir - cross).max())
    scale = max(1.0, mx.spectral_norm(total_var), mx.spectral_norm(total_dir))
    return functional.DecompositionResiduals(var_res, dir_res, scale)


# ------------------------------------------ criterion-5 streams, both sides

def _suite(walk):
    """(criterion-5 stream index, name, draw) with draw(rng, d) -> (new, ref,
    args): the checker, its inline reference and the trial's inputs, drawn
    as criterion 5 draws them."""

    def diff_square(rng, d):
        mats = [random_symmetric(rng, d, 1.5) for _ in range(4)]
        return mx.check_diff_square_convex, ref_diff_square_convex, \
            (*mats, float(rng.uniform()))

    def monotone(rng, d):
        a = random_symmetric(rng, d, 1.5)
        bump = random_symmetric(rng, d, 1.0)
        return mx.check_trace_monotone, ref_trace_monotone, (np.exp, a, a + bump @ bump.T)

    def jensen(form, fn):
        def draw(rng, d):
            dec = mx.IdentityDecomposition.from_weights(rng.dirichlet(np.ones(3)), d)
            mats = [random_symmetric(rng, d, 1.5) for _ in range(3)]
            return mx.check_operator_jensen, ref_operator_jensen, (fn, dec, mats, form)
        return draw

    def int_norm(rng, d):
        a, b, x = (random_symmetric(rng, d, 1.5) for _ in range(3))
        p = (2, 4, np.inf)[int(rng.integers(3))]
        return mx.check_int_norm_bound, ref_int_norm_bound, (a @ a.T, b @ b.T, x, p)

    def lemma_var(p):
        def draw(rng, d):
            w = rng.dirichlet(np.ones(3))
            pairs = [(w[i], random_symmetric(rng, d, 1.5),
                      random_symmetric(rng, d, 1.5)) for i in range(3)]
            return mx.check_lemma_var, ref_lemma_var, (pairs, p)
        return draw

    def dirichlet_trace(p):
        def draw(rng, d):
            fn = random_matrix_fn(walk.states, d, int(rng.integers(2**31)), 1.0)
            return cc.check_dirichlet_trace_bound, ref_dirichlet_trace, (walk, fn, p)
        return draw

    suite = [(0, "diff_square_convex", diff_square), (1, "trace_monotone", monotone),
             (2, "jensen_operator", jensen("operator", np.square)),
             (3, "jensen_trace", jensen("trace", lambda x: x**4)),
             (4, "int_norm", int_norm)]
    suite += [(6 + i, f"lemma_var_p{p}", lemma_var(p)) for i, p in enumerate((1, 2, 4))]
    suite += [(9 + i, f"dirichlet_trace_p{p}", dirichlet_trace(p))
              for i, p in enumerate((1, 2, 4))]
    return suite


SUITE = _suite(chains.hermon_salez(measures.make_uniform_k_subsets(4, 2)))


@pytest.mark.parametrize("idx,name,draw", SUITE, ids=[name for _, name, _ in SUITE])
def test_checkers_agree_with_inline_verdicts_on_criterion5_streams(idx, name, draw):
    verdicts = set()
    for trial in range(60):
        rng = np.random.default_rng([5, idx, trial])
        new, ref, args = draw(rng, (3, 4)[trial % 2])
        for tol in TOLS:
            got, want = outcome(new, *args, tol), outcome(ref, *args, tol)
            assert got == want, (name, trial, tol)
            verdicts.add(got)
    assert {("ok", True), ("ok", False)} <= verdicts  # both verdicts were compared


def test_psd_checks_agree_at_the_flip_point():
    for big in (0.5, 1.0, 3.0, 1e6):
        scale = max(1.0, big)
        for tol in (1e-10, 1e-9, 1e-8):
            seen = set()
            for steps in range(-3, 4):
                a = np.diag([big, ulps(-tol * scale, steps)])
                verdict = mx.psd_leq(np.zeros((2, 2)), a, tol)
                assert verdict == ref_psd_leq(np.zeros((2, 2)), a, tol)
                seen.add(verdict)
            assert seen == {True, False}
            seen = set()
            for steps in range(-3, 4):
                a = np.diag([big, ulps(-1e-10 * scale, steps)])
                got = outcome(mx._psd_eigh, a, "a")[0]
                assert got == outcome(ref_psd_eigh, a, "a")[0]
                seen.add(got)
            assert seen == {"ok", "raise"}


@pytest.mark.parametrize("bound", [0.0, 0.25, 1.0, 3.5, 1e4, -2.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-8, 1e-3])
@pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 7.0, 1e6])
def test_within_matches_every_inline_form_at_the_ulp(bound, tol, scale):
    edge = bound + tol * max(1.0, scale)
    for steps in range(-3, 4):
        value = ulps(edge, steps)
        assert measures.within(value, bound, tol, scale) == \
            (value <= bound + tol * max(1.0, scale))
        slack = ulps(-tol * max(1.0, scale), steps)
        assert measures.within(-slack, 0.0, tol, scale) == (slack >= -tol * max(1.0, scale))
        excess = ulps(tol * max(1.0, scale), steps)
        assert (not measures.within(excess, 0.0, tol, scale)) == (excess > tol * max(1.0, scale))
    assert not measures.within(np.nan, bound, tol, scale)
    assert not measures.within(-np.nan, 0.0, tol, scale)


# --------------------------------------------- the walk-side certificates

def _observables(walk, name):
    rng = np.random.default_rng(name_seed(name))
    for d in (1, 3):
        yield random_matrix_fn(walk.states, d, int(rng.integers(2**31)), 1.0)


def _flip_tols(critical: float):
    """Tolerances a few ulps either side of the one where a verdict flips."""
    return [ulps(critical, steps) for steps in range(-3, 4)]


def test_poincare_reports_agree_over_fixture_walks(fixture_walks):
    for name, walk in fixture_walks.items():
        gap = functional.scalar_spectral_gap(walk)
        for fn in _observables(walk, name):
            for lam in (gap, 2.0 * gap, 0.5 * gap):
                slack, scale, _ = ref_poincare(walk, fn, lam, 0.0)
                for tol in (*TOLS, *_flip_tols(-slack / scale)):
                    rep = functional.check_matrix_poincare(walk, fn, lam, tol)
                    want = ref_poincare(walk, fn, lam, tol)
                    assert (rep.min_eig_slack, rep.scale, rep.passed) == want, (name, lam, tol)
                    assert rep.tol == tol and rep.witness is (None if rep.passed else fn)


def test_induction_reports_agree_over_fixture_walks(fixture_walks):
    for name, walk in fixture_walks.items():
        gap = functional.scalar_spectral_gap(walk)
        if not np.isfinite(gap):
            continue
        for raw in _observables(walk, name):
            v = cc.oscillation(walk, raw).v
            c = min(1.0, np.sqrt(0.81 * gap) / v) if v > 0 else 1.0
            fn = MatrixFn(raw.states, raw.values * c)
            for lam, k_max in ((gap, 6), (1.2 * gap, 6), (gap, 1)):
                slacks, base, scale, _ = ref_induction(walk, fn, lam, k_max, 0.0)
                for tol in (*TOLS, *_flip_tols(-slacks.min() / scale)):
                    rep = cc.check_induction_statement(walk, fn, lam, k_max, tol)
                    got = (rep.slacks, rep.base_trace, rep.scale, rep.passed)
                    want = ref_induction(walk, fn, lam, k_max, tol)
                    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], \
                        (name, lam, k_max, tol)


def test_mgf_rows_agree_over_fixture_walks(fixture_walks):
    for name, walk in fixture_walks.items():
        gap = functional.scalar_spectral_gap(walk)
        if not np.isfinite(gap):
            continue
        for fn in _observables(walk, name):
            v = cc.oscillation(walk, fn).v
            if v <= 0.0:
                continue
            thetas = np.linspace(0.1, 0.95, 6) * np.sqrt(gap) / v
            values = cc.TraceMgf(walk.pi, fn.gather(walk.states)).curve(thetas)
            bounds = [cc.mgf_bound(float(th), gap, v, fn.dim) for th in thetas]
            critical = (values[-1] - bounds[-1]) / max(1.0, bounds[-1])
            for tol in (*TOLS, *_flip_tols(critical)):
                rows = cc.spectrum(walk, fn).rows(thetas, gap, v, tol)
                assert [row[3] for row in rows] == [ref_mgf_ok(val, bd, tol)
                                                    for val, bd in zip(values, bounds)]
                theta = float(thetas[-1])
                assert cc.check_mgf_bound(walk, fn, gap, theta, tol) == ref_mgf_ok(
                    cc.spectrum(walk, fn)(theta), bounds[-1], tol)


# ------------------------------------------------------ the walk's edges

def test_dirichlet_form_matches_the_bare_array_form_bit_for_bit(fixture_walks):
    for name, walk in fixture_walks.items():
        for fn in _observables(walk, name):
            vals = fn.gather(walk.states)
            assert np.array_equal(functional.dirichlet_form(walk, vals),
                                  old_dirichlet_form(walk.rates, walk.pi, vals)), name


def test_dirichlet_form_reads_the_rate_support_from_the_walk_edges():
    walk = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    vals = random_matrix_fn(walk.states, 2, 3).gather(walk.states)
    x, y = walk.edges
    walk.__dict__["edges"] = (x[:1], y[:1])  # the cached property's slot
    diff = vals[x[0]] - vals[y[0]]
    flow = walk.pi[x[0]] * walk.rates[x[0], y[0]] + walk.pi[y[0]] * walk.rates[y[0], x[0]]
    assert np.allclose(functional.dirichlet_form(walk, vals), 0.5 * flow * diff @ diff,
                       rtol=1e-12, atol=0.0)


def test_decomposition_residuals_match_the_label_loop_bit_for_bit(fixture_walks):
    checked = 0
    for name, walk in fixture_walks.items():
        for fn in _observables(walk, name):
            for ell in range(walk.n):
                bits = (walk.states >> ell) & 1
                if bits.min() == bits.max():
                    continue
                dec = chains.decompose(walk, ell)
                assert functional.check_decompositions(dec, fn) == \
                    old_check_decompositions(dec, fn), (name, ell)
                checked += 1
    assert checked > 50


# ----------------------------------------------------------- the guard

RULE_SPELLINGS = ("tol * max(1", "tol * np.fmax(1", ">= -tol", "< -1e-10 *", "RATE_TOL *",
                  "_TOL * scale")


def test_the_tolerance_rule_is_spelled_only_in_within():
    src = Path(measures.__file__).parent
    tree = ast.parse((src / "measures.py").read_text())
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "within")
    inside, outside = [], []
    for path in sorted(src.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if any(spelling in line for spelling in RULE_SPELLINGS):
                home = path.name == "measures.py" and \
                    rule.lineno <= number <= rule.end_lineno
                (inside if home else outside).append(f"{path.name}:{number}: {line.strip()}")
    assert outside == []
    assert any("return" in line for line in inside)  # the rule itself is found


# spelling -> the one module of the package whose one line holds it
ONE_HOME = {
    "out of range for n=": "measures.py",      # measures.as_coordinate
    'f"{name} must be at least {low}, got {count}"': "inputs.py",  # inputs.at_least
    "f\"{name} must lie in {'[' if zero_ok else '('}0, {upper}), got {x!r}\"":
        "inputs.py",                           # inputs.in_range
    'f"{name} must lie in [0, 2^64), got {seed}"': "inputs.py",  # inputs.as_seed
    "(v * v / lam)": "concentration.py",       # the mgf radius, concentration._radius
    "lam must be positive": "concentration.py",  # concentration._positive_gap
}


@pytest.mark.parametrize("spelling", ONE_HOME)
def test_each_input_rule_is_spelled_in_one_module(spelling):
    src = Path(measures.__file__).parent
    found = [path.name for path in sorted(src.glob("*.py"))
             for line in path.read_text().splitlines() if spelling in line]
    assert found == [ONE_HOME[spelling]]


def test_the_cli_spells_its_integer_floor_once():
    """The CLI's floors and ranges are inputs.at_least and inputs.in_range,
    called with config-path names: it spells neither message itself."""
    text = (Path(measures.__file__).parent / "cli.py").read_text()
    assert "must be at least" not in text and "must lie in" not in text
    assert "inputs.at_least(" in text and "inputs.in_range(" in text
