import gc
import math
import weakref

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from srconc import chains, functional, measures
from srconc.concentration import (
    EmptyGrid,
    OscillationStats,
    OutOfRadius,
    ScaleViolation,
    TraceMgf,
    check_dirichlet_trace_bound,
    check_induction_statement,
    check_mgf_bound,
    doubling_value,
    exact_tail,
    ks_bound,
    laplace_tail,
    mgf_bound,
    mgf_grid,
    oscillation,
    spectrum,
    tail_bound_poincare,
    tail_bound_sr,
    tail_bound_sr_composed,
    tail_dominator,
    _oscillation,
)
from srconc.functional import MatrixFn, random_linear_matrix_fn, random_matrix_fn
from srconc.inputs import NotANumber, NotAnInteger, OutOfRange, at_least
from srconc.ks import ks_crossover, ks_crossover_threshold

from conftest import K4_EDGES, flip_swap_oscillation, flip_swap_walk, name_seed


def rademacher_fn(d: int = 2) -> tuple[chains.Generator, MatrixFn]:
    gen = chains.Generator(np.array([0, 1]),
                           np.array([[-1.0, 1.0], [1.0, -1.0]]),
                           np.array([0.5, 0.5]), n=1)
    fn = MatrixFn(np.array([0, 1]), np.stack([np.eye(d), -np.eye(d)]))
    return gen, fn


def scaled_fn(gen, fn, lam: float, target_av2: float) -> MatrixFn:
    """Rescale fn so alpha v(F)^2 lands exactly on target_av2."""
    v = oscillation(gen, fn).v
    c = math.sqrt(target_av2 * lam) / v
    return MatrixFn(fn.states, fn.values * c)


# --------------------------------------------------------------- oscillation

def test_oscillation_constant_zero():
    gen, _ = rademacher_fn()
    fn = MatrixFn.constant(gen.states, np.diag([4.0, -1.0]))
    assert oscillation(gen, fn).v == 0.0


def test_oscillation_centering_invariant():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    fn = random_matrix_fn(w.states, 3, seed=2)
    shift = np.diag([5.0, -3.0, 1.0])
    shifted = MatrixFn(fn.states, fn.values + shift)
    a = oscillation(w, fn)
    b = oscillation(w, shifted)
    assert a.v == pytest.approx(b.v, abs=1e-12)
    assert a.pairs == b.pairs


def test_oscillation_linear_fn_within_2L():
    m = measures.make_uniform_k_subsets(5, 2)
    w = chains.hermon_salez(m)
    fn, worst = random_linear_matrix_fn(5, w.states, 3, lipschitz=0.9, seed=4)
    # flip-swap neighbours differ in at most two coordinates, and every
    # transition of the walk is a flip or a swap
    flip_swap_v = flip_swap_oscillation(w.states, fn)
    assert flip_swap_v <= 2 * worst + 1e-12
    assert oscillation(w, fn).v <= flip_swap_v


def test_oscillation_two_point_value():
    gen, fn = rademacher_fn(d=3)
    stats = oscillation(gen, fn)
    assert stats.v == pytest.approx(2.0)
    assert stats.pairs == 1


def reference_oscillation(gen, fn, mode):
    """(v, pairs) by the pairwise loop over all state pairs."""
    vals = fn.gather(gen.states)
    worst, pairs = 0.0, 0
    for i in range(gen.states.size):
        for j in range(i + 1, gen.states.size):
            if mode == "q_support":
                hit = gen.rates[i, j] > 0.0 or gen.rates[j, i] > 0.0
            else:
                hit = chains.flip_swap_adjacent(int(gen.states[i]), int(gen.states[j]))
            if hit:
                pairs += 1
                worst = max(worst, float(np.linalg.norm(vals[i] - vals[j], 2)))
    return worst, pairs


@pytest.mark.parametrize("mode", ["q_support", "flip_swap"])
def test_oscillation_matches_pairwise_loop(fixture_walks, mode):
    """On the walk's edges, and on a generator whose edges are all flip-swap pairs."""
    for name, walk in fixture_walks.items():
        fn = random_matrix_fn(walk.states, 3, seed=name_seed(name))
        stats = oscillation(walk if mode == "q_support" else flip_swap_walk(walk), fn)
        assert (stats.v, stats.pairs) == reference_oscillation(walk, fn, mode), name


def out_of_place_oscillation(gen, fn) -> OscillationStats:
    """v(F) with a fresh array per step: the reference the in-place
    differences of _oscillation are checked against."""
    vals = fn.gather(gen.states)
    i, j = gen.edges
    diffs = vals[i] - vals[j]
    scale = float(np.abs(diffs).max(initial=0.0))
    if scale == 0.0:
        return OscillationStats(0.0, int(i.size))
    unit = diffs / scale
    gram = unit.transpose(0, 2, 1) @ unit
    bound = np.sqrt(np.sqrt(np.einsum("eij,eij->e", gram, gram)))
    floor = float(np.linalg.norm(diffs[bound.argmax()], 2))
    keep = bound >= floor / scale * (1.0 - 1e-12)
    v = float(np.linalg.norm(diffs[keep], 2, axis=(1, 2)).max(initial=floor))
    return OscillationStats(v, int(i.size))


def indicator_fn(walk) -> MatrixFn:
    """F(x) = diag(x): a swap of bits a and b moves it by e_a - e_b on every edge."""
    bits = (walk.states[:, None] >> np.arange(walk.n)) & 1
    return MatrixFn(walk.states, bits[:, :, None] * np.eye(walk.n))


def test_oscillation_is_bit_identical_over_the_fixture_zoo(fixture_walks):
    """The stacked exact norms of the kept edges give the v of the out-of-place
    reference, on tables, linear observables and indicators (whose 90 edges on
    uniform(6,3) all tie at 1)."""
    for name, walk in fixture_walks.items():
        fns = [indicator_fn(walk)]
        for d in (1, 3):
            fns += [random_matrix_fn(walk.states, d, seed=name_seed(name) + d),
                    random_linear_matrix_fn(walk.n, walk.states, d, 1.0, name_seed(name) + d)[0]]
        for fn in fns:
            assert _oscillation(walk, fn) == out_of_place_oscillation(walk, fn), name


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_oscillation_in_place_leaves_its_inputs(fixture_walks, d):
    for name in ("uniform_6_3", "trees_k4", "dpp_5"):
        walk = fixture_walks[name]
        fn = random_matrix_fn(walk.states, d, seed=name_seed(name) + d)
        kept = [a.copy() for a in (fn.values, walk.rates, walk.pi, *walk.edges)]
        assert _oscillation(walk, fn) == out_of_place_oscillation(walk, fn), name
        assert all(np.array_equal(a, b) for a, b in
                   zip((fn.values, walk.rates, walk.pi, *walk.edges), kept)), name


# ----------------------------------------------------------------- trace mgf

def test_trace_mgf_at_zero_is_dim():
    gen, fn = rademacher_fn(d=3)
    assert spectrum(gen, fn)(0.0) == pytest.approx(3.0)


def test_trace_mgf_constant_is_dim():
    # centering kills a constant value entirely
    gen, _ = rademacher_fn()
    fn = MatrixFn.constant(gen.states, np.diag([2.0, 7.0]))
    for theta in [0.0, 0.7, -2.0]:
        assert spectrum(gen, fn)(theta) == pytest.approx(2.0)


def test_trace_mgf_rademacher_cosh():
    gen, fn = rademacher_fn(d=2)
    for theta in [0.0, 0.4, 1.3, -0.9]:
        assert spectrum(gen, fn)(theta) == pytest.approx(2 * math.cosh(theta))


def test_trace_mgf_scipy_oracle():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    fn = random_matrix_fn(w.states, 3, seed=7, norm_bound=0.8)
    vals = fn.gather(w.states)
    mean = sum(p * v for p, v in zip(w.pi, vals))
    for theta in [0.3, 1.1, -0.6]:
        ref = sum(p * np.trace(expm(theta * (v - mean)))
                  for p, v in zip(w.pi, vals))
        assert spectrum(w, fn)(theta) == pytest.approx(float(ref), rel=1e-10)


def test_trace_mgf_curve_matches_scalar_calls():
    gen, fn = rademacher_fn()
    tm = TraceMgf(gen.pi, fn.gather(gen.states))
    grid = np.linspace(-2, 2, 9)
    curve = tm.curve(grid)
    assert np.allclose(curve, [tm(t) for t in grid])


def test_trace_mgf_convex_in_theta():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(5, 2))
    tm = TraceMgf(w.pi, random_matrix_fn(w.states, 2, seed=9).gather(w.states))
    grid = np.linspace(-1.5, 1.5, 31)
    vals = tm.curve(grid)
    assert (vals[:-2] + vals[2:] >= 2 * vals[1:-1] - 1e-12).all()


# ------------------------------------------------------- dirichlet vs trace

def test_dirichlet_trace_bound_two_state_recompute():
    g = chains.Generator(np.array([0, 1]), np.array([[-0.7, 0.7], [0.4, -0.4]]),
                         np.array([0.4, 0.7]) / 1.1, n=1)
    f0, f1 = 0.3, -0.9
    fn = MatrixFn(np.array([0, 1]), np.array([[[f0]], [[f1]]]))
    for p in (1, 2, 3):
        assert check_dirichlet_trace_bound(g, fn, p)
        lhs = (g.pi[0] * 0.7 * (math.exp(f0) - math.exp(f1)) ** 2) ** p
        rhs = abs(f0 - f1) ** (2 * p) * (
            g.pi[0] * math.exp(2 * p * f0) + g.pi[1] * math.exp(2 * p * f1))
        assert lhs <= rhs


def test_dirichlet_trace_bound_random(fixture_walks):
    for name in ["uniform_4_2", "trees_k3", "dpp_4"]:
        gen = fixture_walks[name]
        fn = random_matrix_fn(gen.states, 3, seed=name_seed(name),
                              norm_bound=0.7)
        for p in (1, 2, 4):
            assert check_dirichlet_trace_bound(gen, fn, p)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_oscillation_and_dirichlet_bound_match_each_alone(fixture_walks, d):
    """v(F) and the Dirichlet-trace verdicts of an (N, m, d, d) stack are, bit for bit,
    those of each observable alone; a constant in the stack has v = 0."""
    for name, walk in fixture_walks.items():
        fns = [random_matrix_fn(walk.states, d, seed=name_seed(name) + k) for k in range(3)]
        fns.append(MatrixFn.constant(walk.states, np.eye(d)))
        if walk.n:
            fns.append(random_linear_matrix_fn(walk.n, walk.states, d, 1.0, name_seed(name))[0])
        stack = MatrixFn(walk.states, np.stack([fn.values for fn in fns]))
        stats = oscillation(walk, stack)
        assert stats.v.tolist() == [oscillation(walk, fn).v for fn in fns], name
        assert stats.pairs == oscillation(walk, fns[0]).pairs and stats.v[3] == 0.0
        for p in (1, 2, 3):
            got = check_dirichlet_trace_bound(walk, stack, p)
            assert got.tolist() == [check_dirichlet_trace_bound(walk, fn, p) for fn in fns]
            one = MatrixFn(walk.states, fns[0].values[None])
            assert check_dirichlet_trace_bound(walk, one, p).tolist() == [got[0]], name


def test_dirichlet_trace_bound_rejects_bad_p():
    gen, fn = rademacher_fn()
    for p in (0, 2.5, True):
        with pytest.raises(ValueError) as rule:
            at_least(p, "p", 1)
        with pytest.raises(ValueError) as got:
            check_dirichlet_trace_bound(gen, fn, p)
        assert str(got.value) == str(rule.value)


# ------------------------------------------------------------------ doubling

def test_doubling_matches_expm_powers():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    vals = random_matrix_fn(w.states, 3, seed=7, norm_bound=0.8).gather(w.states)
    for k in range(3):
        mean = sum(p * expm(v / 2**k) for p, v in zip(w.pi, vals))
        ref = float(np.trace(np.linalg.matrix_power(mean, 2**k)))
        assert doubling_value(w.pi, vals, k) == pytest.approx(ref, rel=1e-10)


def test_doubling_depth_zero_is_plain_trace():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(3, 1))
    vals = random_matrix_fn(w.states, 2, seed=3).gather(w.states)
    ref = sum(p * np.trace(expm(v)) for p, v in zip(w.pi, vals))
    assert doubling_value(w.pi, vals, 0) == pytest.approx(float(ref))


def test_doubling_nonincreasing_in_depth():
    """Each halving step can only shrink the trace power, and the deep
    limit is exp of the mean, so the sequence decreases toward it."""
    w = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    vals = random_matrix_fn(w.states, 3, seed=7, norm_bound=0.8).gather(w.states)
    seq = [doubling_value(w.pi, vals, k) for k in range(25)]
    for a, b in zip(seq, seq[1:]):
        assert b <= a + 1e-12
    mean = sum(p * v for p, v in zip(w.pi, vals))
    floor = float(np.trace(expm(mean)))
    assert seq[-1] >= floor - 1e-9
    assert seq[-1] == pytest.approx(floor, rel=1e-6)


def test_doubling_value_reads_an_integer_depth_of_at_least_0():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(3, 1))
    vals = random_matrix_fn(w.states, 2, seed=3).gather(w.states)
    for k in (1.5, True):
        with pytest.raises(NotAnInteger):
            doubling_value(w.pi, vals, k)
    with pytest.raises(ValueError, match="k must be at least 0, got -3"):
        doubling_value(w.pi, vals, -3)
    assert doubling_value(w.pi, vals, 2.0) == doubling_value(w.pi, vals, 2)


def mp_doubling_value(weights, values, k: int) -> float:
    """Tr[(E[e^{F/2^k}])^{2^k}] in 50-digit arithmetic, with the weights
    renormalized to sum to 1 in that arithmetic."""
    with mpmath.workdps(50):
        weights = [mpmath.mpf(float(w)) for w in weights]
        total = mpmath.fsum(weights)
        mean = mpmath.zeros(values.shape[1])
        for w, v in zip(weights, values):
            lam, vec = mpmath.eigsy(mpmath.matrix(v.tolist()))
            scaled = mpmath.diag([mpmath.exp(x / mpmath.mpf(2)**k) for x in lam])
            mean += (w / total) * (vec * scaled * vec.T)
        mu = mpmath.eigsy(mean, eigvals_only=True)
        return float(mpmath.fsum(mpmath.exp(mpmath.mpf(2)**k * mpmath.log(x)) for x in mu))


@pytest.mark.parametrize("name,d,seed", [("uniform_4_2", 3, 7), ("trees_k4", 2, 5)])
def test_doubling_matches_50_digit_reference_at_depth(name, d, seed, fixture_walks):
    """The ladder keeps its digits at depth: within 1e-12 of a 50-digit
    evaluation from depth 12 to 60, where the deviation from I is 2^-60."""
    w = fixture_walks[name]
    vals = random_matrix_fn(w.states, d, seed=seed, norm_bound=0.8).gather(w.states)
    for k in (12, 24, 36, 44, 52, 60):
        ref = mp_doubling_value(w.pi, vals, k)
        assert doubling_value(w.pi, vals, k) == pytest.approx(ref, rel=1e-12), k


def test_doubling_huge_depth_stable():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(3, 1))
    vals = random_matrix_fn(w.states, 2, seed=5).gather(w.states)
    out = doubling_value(w.pi, vals, 60)
    assert np.isfinite(out) and out > 0.0


def per_depth_doubling_value(weights, values, k: int) -> float:
    """The ladder value with F/2^k diagonalized afresh at each depth, through
    the library's contraction (one GEMM over the stacked eigenvectors)."""
    lam, vec = np.linalg.eigh(values / float(2**k))
    cols = vec.transpose(1, 0, 2).reshape(vec.shape[1], -1)
    excess = (cols * (weights[:, None] * np.expm1(lam)).ravel()) @ cols.T
    mu = np.linalg.eigvalsh(excess)
    return float(np.exp(float(2**k) * np.log1p(mu)).sum())


def einsum_doubling_value(weights, values, k: int) -> float:
    """The ladder value with the four-operand einsum contraction the GEMM replaced."""
    lam, vec = np.linalg.eigh(values)
    excess = np.einsum("x,xij,xj,xkj->ik", weights, vec, np.expm1(lam / float(2**k)), vec)
    mu = np.linalg.eigvalsh(excess)
    return float(np.exp(float(2**k) * np.log1p(mu)).sum())


def test_one_eigendecomposition_ladder_matches_per_depth_reference(fixture_walks):
    """Dividing the eigenvalues of F by 2^k is exact, so one eigendecomposition
    serves the whole ladder with the same bits at depths 0 to 60."""
    depths = range(61)
    for i, (name, gen) in enumerate(fixture_walks.items()):
        lam = functional.scalar_spectral_gap(gen)
        fn = scaled_fn(gen, random_matrix_fn(gen.states, 2 + i % 3, seed=name_seed(name)),
                       lam, 0.9)
        vals = fn.gather(gen.states)
        ref = [per_depth_doubling_value(gen.pi, vals, k) for k in depths]
        assert [doubling_value(gen.pi, vals, k) for k in depths] == ref, name
        rep = check_induction_statement(gen, fn, lam, k_max=60)
        assert rep.base_trace == ref[0], name
        av2 = rep.alpha_v_sq
        assert rep.slacks.tolist() == [ref[k] - (1.0 - av2 * (1.0 - 0.5**k)) * ref[0]
                                       for k in depths[1:]], name


def test_gemm_ladder_matches_the_einsum_contraction(fixture_walks):
    """The one-GEMM contraction sums in another order than the einsum: values
    agree to 1e-13 relative and slacks to 1e-13 of the induction check's scale."""
    depths = range(61)
    for i, (name, gen) in enumerate(fixture_walks.items()):
        lam = functional.scalar_spectral_gap(gen)
        fn = scaled_fn(gen, random_matrix_fn(gen.states, 2 + i % 3, seed=name_seed(name)),
                       lam, 0.9)
        vals = fn.gather(gen.states)
        ref = [einsum_doubling_value(gen.pi, vals, k) for k in depths]
        got = [doubling_value(gen.pi, vals, k) for k in depths]
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0), name
        rep = check_induction_statement(gen, fn, lam, k_max=60)
        av2 = rep.alpha_v_sq
        want = [ref[k] - (1.0 - av2 * (1.0 - 0.5**k)) * ref[0] for k in depths[1:]]
        assert rep.slacks == pytest.approx(want, rel=0.0, abs=1e-13 * max(1.0, abs(ref[0]))), name


# ----------------------------------------------------------------- induction

def test_induction_constant_fn_zero_slack():
    gen, _ = rademacher_fn()
    fn = MatrixFn.constant(gen.states, np.diag([1.0, -2.0]))
    rep = check_induction_statement(gen, fn, lam=2.0, k_max=6)
    assert rep.alpha_v_sq == 0.0
    assert np.abs(rep.slacks).max() <= 1e-12
    assert rep.passed


def test_induction_base_case_recompute():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    lam = functional.scalar_spectral_gap(w)
    fn = scaled_fn(w, random_matrix_fn(w.states, 3, seed=11), lam, 0.5)
    rep = check_induction_statement(w, fn, lam, k_max=4)
    vals = fn.gather(w.states)
    base = doubling_value(w.pi, vals, 0)
    d1 = doubling_value(w.pi, vals, 1)
    assert rep.base_trace == pytest.approx(base)
    assert rep.alpha_v_sq == pytest.approx(0.5)
    assert rep.slacks[0] == pytest.approx(d1 - (1 - 0.5 * 0.5) * base)
    assert rep.passed


def test_induction_slacks_nonnegative_on_fixtures(fixture_walks):
    for name in ["uniform_3_1", "uniform_5_2", "trees_k4", "dpp_5", "bern_4"]:
        gen = fixture_walks[name]
        lam = functional.scalar_spectral_gap(gen)
        for target in (0.25, 0.9):
            fn = scaled_fn(gen, random_matrix_fn(gen.states, 2,
                                                 seed=name_seed(name)),
                           lam, target)
            rep = check_induction_statement(gen, fn, lam, k_max=8)
            assert rep.passed, (name, target, rep.slacks.min())
            assert rep.slacks.min() >= -1e-8 * rep.scale


def test_induction_scale_violations():
    gen, fn = rademacher_fn()
    with pytest.raises(ScaleViolation):
        check_induction_statement(gen, fn, lam=0.0, k_max=3)
    with pytest.raises(ScaleViolation):
        # v = 2, lam = 2 gives alpha v^2 = 2 > 1
        check_induction_statement(gen, fn, lam=2.0, k_max=3)
    with pytest.raises(ScaleViolation):
        check_induction_statement(gen, fn, lam=math.nan, k_max=3)
    for k_max in (2.5, True):
        with pytest.raises(NotAnInteger):
            check_induction_statement(gen, fn, lam=8.0, k_max=k_max)


def test_induction_refuses_an_empty_ladder():
    """With no depth to check, an empty ladder would certify anything."""
    gen, fn = rademacher_fn()
    for k_max in (0, -3):
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            check_induction_statement(gen, fn, lam=8.0, k_max=k_max)
    assert check_induction_statement(gen, fn, lam=8.0, k_max=1).slacks.size == 1


# ----------------------------------------------------------------- mgf bound

def test_mgf_bound_pinned_values():
    # theta^2 alpha v^2 = 1/2 doubles the dimension
    assert mgf_bound(1.0, 2.0, 1.0, 3) == pytest.approx(6.0)
    assert mgf_bound(0.5, 1.0, 1.0, 4) == pytest.approx(4 / (1 - 0.25))


def test_mgf_bound_out_of_radius():
    with pytest.raises(OutOfRadius):
        mgf_bound(1.0, 1.0, 1.0, 2)
    with pytest.raises(OutOfRadius):
        mgf_bound(2.0, 1.0, 1.0, 2)
    for lam in (-1.0, 0.0, math.nan):
        with pytest.raises(ScaleViolation):
            mgf_bound(0.5, lam, 1.0, 2)


def test_mgf_grid_top_steps_inside_the_radius():
    """At one ulp below the full radius, sqrt(frac lam) / v often rounds onto
    it; the grid's top then steps down, by at most three ulps, to a theta
    mgf_bound accepts.  At an ordinary fraction the top is the quotient."""
    frac = math.nextafter(1.0, 0.0)
    steps = []
    for lam, v in np.random.default_rng(0).uniform(0.05, 3.0, (500, 2)):
        grid = mgf_grid(lam, v, frac, 4)
        top, quotient = grid[-1], math.sqrt(frac * lam) / v
        assert mgf_bound(top, lam, v, 1) > 0.0
        below = [quotient]
        while below[-1] > top:
            below.append(math.nextafter(below[-1], 0.0))
        assert below[-1] == top
        steps.append(len(below) - 1)
        assert np.array_equal(grid, np.linspace(top / 4, top, 4))
    assert 0 < max(steps) <= 3 and min(steps) == 0
    assert mgf_grid(2.0, 1.5, 0.9, 1)[0] == math.sqrt(0.9 * 2.0) / 1.5
    with pytest.raises(ScaleViolation):
        mgf_grid(math.nan, 1.0, 0.9, 3)


def test_check_mgf_bound_inside_radius(fixture_walks):
    for name in ["uniform_4_2", "trees_k3", "cube_2"]:
        gen = fixture_walks[name]
        lam = functional.scalar_spectral_gap(gen)
        fn = scaled_fn(gen, random_matrix_fn(gen.states, 3,
                                             seed=name_seed(name)),
                       lam, 1.0)
        # alpha v^2 = 1, so any |theta| < 1 stays inside the radius
        for theta in (0.25, 0.6, 0.9, -0.6):
            assert check_mgf_bound(gen, fn, lam, theta), (name, theta)


# ------------------------------------------------- per-walk records (memo)

def test_walk_and_observable_arrays_are_read_only():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    fn = random_matrix_fn(w.states, 2, seed=1)
    for arr in (w.states, w.rates, w.pi, *w.edges, fn.states, fn.values):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_caller_arrays_are_copied():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    rates, pi, states = w.rates.copy(), w.pi.copy(), w.states.copy()
    gen = chains.Generator(states, rates, pi, n=4)
    fresh = random_matrix_fn(w.states, 2, seed=3)
    values = fresh.values.copy()
    fn = MatrixFn(states, values)
    before = oscillation(gen, fn)
    rates[:] = 0.0
    pi[:] = 1.0
    values *= 10.0
    states[:] = 0
    assert (gen.rates == w.rates).all() and (gen.pi == w.pi).all()
    assert (gen.states == w.states).all() and (fn.states == w.states).all()
    assert (fn.values == fresh.values).all()
    assert oscillation(gen, fn) == before == oscillation(gen, fresh)


def test_one_observable_on_two_walks_keeps_each_walks_value(fixture_walks):
    walk = fixture_walks["uniform_5_2"]
    m = walk.states.size
    complete = np.full((m, m), 1.0 / m) - np.eye(m)   # every pair adjacent
    walks = [walk, chains.Generator(walk.states, complete, walk.pi, n=5)]
    def make():
        return random_linear_matrix_fn(5, walk.states, 3, 1.0, seed=8)[0]

    fn = make()
    expected = [oscillation(w, make()).v for w in walks]
    assert expected[0] < expected[1]
    for _ in range(3):
        assert [oscillation(w, fn).v for w in walks] == expected
        assert [spectrum(w, fn)(0.7) for w in walks] == [
            spectrum(w, make())(0.7) for w in walks]


def test_ladder_and_dirichlet_bound_share_one_eigh(fixture_walks, monkeypatch):
    gen = fixture_walks["uniform_5_2"]
    lam = functional.scalar_spectral_gap(gen)
    fn, _ = random_linear_matrix_fn(5, gen.states, 3, 0.5, seed=9)
    first = (check_dirichlet_trace_bound(gen, fn, 2), check_induction_statement(gen, fn, lam, 6))
    tables = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: tables.append(a.shape) or eigh(a))
    again = random_linear_matrix_fn(5, gen.states, 3, 0.5, seed=9)[0]
    report = check_induction_statement(gen, again, lam, 6)
    assert check_dirichlet_trace_bound(gen, again, 2) == first[0]
    assert check_dirichlet_trace_bound(gen, again, 3) == check_dirichlet_trace_bound(gen, fn, 3)
    assert tables == [(gen.states.size, 3, 3)]
    assert report.base_trace == first[1].base_trace
    assert np.array_equal(report.slacks, first[1].slacks)


def test_record_does_not_keep_the_walk_alive():
    walk = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    fn = random_matrix_fn(walk.states, 2, seed=5)
    oscillation(walk, fn)
    check_mgf_bound(walk, fn, functional.scalar_spectral_gap(walk), 0.1)
    ref = weakref.ref(walk)
    del walk
    gc.collect()
    assert ref() is None
    assert fn.dim == 2


# --------------------------------------------------------------- tail bounds

def test_tail_poincare_frozen_value():
    out = tail_bound_poincare(4.0, 1.0, 1.0, 1)
    assert out.raw == pytest.approx(2 * math.exp(-0.8))
    assert out.capped == pytest.approx(min(1.0, out.raw))


def test_tail_poincare_small_t_limit_and_cap():
    out = tail_bound_poincare(1e-9, 1.0, 1.0, 3)
    assert out.raw == pytest.approx(6.0, rel=1e-6)
    assert out.capped == 1.0


def test_tail_poincare_zero_oscillation():
    out = tail_bound_poincare(1.0, 1.0, 0.0, 5)
    assert out.raw == 0.0 and out.capped == 0.0


def test_tail_poincare_rejects():
    with pytest.raises(ValueError):
        tail_bound_poincare(0.0, 1.0, 1.0, 1)
    for lam in (-2.0, math.nan):
        with pytest.raises(ScaleViolation):
            tail_bound_poincare(1.0, lam, 1.0, 1)


def test_tail_sr_frozen_value():
    assert tail_bound_sr(8.0, 1, 1.0, 1) == pytest.approx(2 * math.exp(-2 / 9))
    with pytest.raises(ValueError):
        tail_bound_sr(-1.0, 1, 1.0, 1)
    with pytest.raises(ValueError):
        tail_bound_sr(1.0, 0, 1.0, 1)


def test_tail_bounds_where_t_squared_overflows():
    """Past t ~ 1e154, t * t and the denominator both overflow and inf / inf made the
    bounds NaN; the exponent is then the same ratio with t^2 divided out, which is
    large where t dominates and 1 / (4 (r^2 + r)), r = v / (t sqrt(lam)), where v ~ t."""
    assert tail_bound_poincare(1e308, 0.5, 1.0, 2) == (0.0, 0.0)
    assert tail_bound_sr(1e308, 2, 1.0, 2) == 0.0
    assert tail_bound_sr(1e300, 1, 1e100, 1) == 0.0
    assert tail_bound_poincare(1e300, 1.0, 1e300, 1).raw == 2 * math.exp(-1 / 8)


def test_tail_sr_where_the_lipschitz_square_overflows():
    """L^2 raised OverflowError from 2^512 on; that term is then inf and the
    bound 2d, as tail_bound_poincare gives for v^2 = inf.  Below 2^512 the
    square is finite and read as L**2, whose last bit L * L can miss."""
    with pytest.raises(OverflowError):
        (2.0**512) ** 2
    assert tail_bound_sr(1.0, 1, 1e200, 1) == 2.0
    assert tail_bound_sr(1.0, 3, 2.0**512, 2) == 4.0
    assert tail_bound_poincare(1.0, 1.0, 1e200, 2).raw == 4.0
    for lip in (0.3, 1.7, 1e100, 1e150, math.nextafter(2.0**512, 0.0)):
        denom = 32.0 * (3 * lip**2 + 2.5 * math.sqrt(3) * lip)
        assert tail_bound_sr(2.5, 3, lip, 2) == 4.0 * math.exp(-2.5 * 2.5 / denom), lip


def test_tail_poincare_refuses_nan_inf_and_a_negative_v():
    """NaN passed `t <= 0`, so a NaN t was a capped bound of 1; an infinite t
    gave raw = NaN, an infinite lam divided by zero, a negative v a bound of 0.
    A constant F (v = 0) has the bound 0 at every positive lam, the +inf gap
    of a one-state walk included, and a NaN, 0 or negative lam stays refused."""
    for t, lam, v in ((math.nan, 0.5, 1.0), (math.inf, 0.5, 1.0), (1.0, 0.5, math.nan),
                      (1.0, 0.5, math.inf), (1.0, 0.5, -1.0)):
        with pytest.raises(OutOfRange, match="must lie in"):
            tail_bound_poincare(t, lam, v, 2)
    for t in (True, "1"):  # True was read as 1, "1" raised a bare TypeError
        with pytest.raises(NotANumber):
            tail_bound_poincare(t, 0.5, 1.0, 2)
    with pytest.raises(ScaleViolation, match="lam must be positive and finite, got inf"):
        tail_bound_poincare(1.0, math.inf, 1.0, 2)
    assert tail_bound_poincare(1.0, 0.5, 0.0, 2) == (0.0, 0.0)
    assert tail_bound_poincare(1.0, math.inf, 0.0, 2) == (0.0, 0.0)
    for lam in (math.nan, 0.0, -1.0):
        with pytest.raises(ScaleViolation):
            tail_bound_poincare(1.0, lam, 0.0, 2)


def test_tail_sr_ks_and_mgf_bounds_refuse_a_nan_scale():
    """Each test was spelled `x <= 0.0` or `x >= 1.0`, which NaN passes, so
    these calls returned NaN."""
    for call in (lambda: tail_bound_sr(math.nan, 2, 1.0, 2),
                 lambda: tail_bound_sr(1.0, 2, math.nan, 2),
                 lambda: tail_bound_sr(math.inf, 2, 1.0, 2),
                 lambda: ks_bound(math.nan, 1.0, 4, 2),
                 lambda: ks_bound(0.5, math.nan, 4, 2),
                 lambda: ks_bound(math.inf, 1.0, 4, 2)):
        with pytest.raises(OutOfRange, match=r"must lie in \(0, inf\)"):
            call()
    for theta, v in ((math.nan, 1.0), (0.5, math.nan), (0.0, math.inf)):
        with pytest.raises(OutOfRadius):
            mgf_bound(theta, 1.0, v, 2)


def test_sr_tails_read_lipschitz_by_the_range_rule():
    """tail_bound_sr_composed read L unchecked: True gave 3.95 and 0 a bound of 0."""
    for bound in (tail_bound_sr, tail_bound_sr_composed):
        for lip in (0, 0.0, -1.0, math.nan, math.inf):
            with pytest.raises(OutOfRange, match=r"lipschitz must lie in \(0, inf\)"):
                bound(1.0, 2, lip, 2)
        with pytest.raises(NotANumber):
            bound(1.0, 2, True, 2)


def test_tail_bound_degrees_are_integers_with_their_floors():
    for k in (1.5, True, "2"):
        with pytest.raises(NotAnInteger):
            tail_bound_sr(1.0, k, 1.0, 2)
        with pytest.raises(NotAnInteger):
            tail_bound_sr_composed(1.0, k, 1.0, 2)
    for k in (2.5, True):
        with pytest.raises(NotAnInteger):
            ks_bound(0.1, 1.0, k, 2)
    with pytest.raises(OutOfRange, match="k must be at least 1, got 0"):
        tail_bound_sr_composed(1.0, 0, 1.0, 2)  # was a ZeroDivisionError
    with pytest.raises(OutOfRange, match="k must be at least 2, got 1"):
        ks_bound(0.1, 1.0, 1, 2)
    # d = 0 gave a bound of 0, d = -2 a negative one, and d = 2.5 was read as is
    for bound in (lambda d: tail_bound_poincare(1.0, 0.5, 1.0, d),
                  lambda d: tail_bound_sr(1.0, 2, 1.0, d),
                  lambda d: tail_bound_sr_composed(1.0, 2, 1.0, d),
                  lambda d: ks_bound(0.5, 1.0, 4, d)):
        for d in (0, -2):
            with pytest.raises(OutOfRange, match=f"d must be at least 1, got {d}"):
                bound(d)
        with pytest.raises(NotAnInteger):
            bound(2.5)
    for c in (-1.0, 0.0, math.nan):  # c = -1 gave 2.28, above the trivial bound d = 2
        with pytest.raises(OutOfRange, match="c must lie in"):
            ks_bound(0.5, 1.0, 4, 2, c=c)
    assert tail_bound_sr(1.0, 2.0, 1.0, 2) == tail_bound_sr(1.0, 2, 1.0, 2)


def test_mgf_grid_refuses_a_bad_fraction_count_or_scale():
    """A NaN fraction made a grid of NaNs and zero points divided by zero."""
    for frac in (math.nan, 0.0, -0.5, 1.0, math.inf):
        with pytest.raises(ValueError, match="frac must lie in"):
            mgf_grid(0.5, 1.0, frac, 5)
    for points in (0, -1):
        with pytest.raises(ValueError, match="points must be at least 1"):
            mgf_grid(0.5, 1.0, 0.9, points)
    for points in (2.5, True):
        with pytest.raises(NotAnInteger):
            mgf_grid(0.5, 1.0, 0.9, points)
    for v in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(OutOfRange, match=r"v must lie in \(0, inf\)"):
            mgf_grid(0.5, v, 0.9, 5)
    for lam in (-1.0, math.inf):
        with pytest.raises(ScaleViolation):
            mgf_grid(lam, 1.0, 0.9, 5)
    assert np.array_equal(mgf_grid(0.5, 1.0, 0.9, 5.0), mgf_grid(0.5, 1.0, 0.9, 5))


def test_tail_sr_composed_is_tighter():
    """The composed route uses lam = 1/(2k), v = 2L before rounding the
    constants, so it never exceeds the published 32-denominator form."""
    for t in np.linspace(0.1, 20, 25):
        for k in (1, 2, 5, 11):
            for lip in (0.5, 1.0, 3.0):
                loose = tail_bound_sr(float(t), k, lip, 2)
                tight = tail_bound_sr_composed(float(t), k, lip, 2)
                assert tight <= loose + 1e-12


def test_tail_bounds_monotone_in_t():
    ts = np.linspace(0.1, 10, 40)
    pb = [tail_bound_poincare(float(t), 0.7, 1.3, 2).raw for t in ts]
    sb = [tail_bound_sr(float(t), 3, 0.8, 2) for t in ts]
    assert all(a >= b for a, b in zip(pb, pb[1:]))
    assert all(a >= b for a, b in zip(sb, sb[1:]))


# ------------------------------------------------------------- laplace route

def test_laplace_tail_rademacher_one_sided():
    """log cosh(theta) <= theta^2/2, so the optimized bound sits below the
    subgaussian closed form everywhere on the grid."""
    grid = np.linspace(0.01, 6, 400)
    mv = np.cosh(grid)
    for t in np.linspace(0.5, 2.0, 7):
        lap = laplace_tail(grid, mv, float(t), mgf=lambda th: math.cosh(th))
        assert lap <= 2 * math.exp(-t * t / 2) + 1e-12


def test_laplace_tail_rademacher_matches_subgaussian_closely():
    # near the origin the optimizer agrees with the closed form to 5%
    grid = np.linspace(0.01, 3, 300)
    mv = np.cosh(grid)
    for t in (0.5, 0.6, 0.7):
        lap = laplace_tail(grid, mv, t, mgf=lambda th: math.cosh(th))
        ref = 2 * math.exp(-t * t / 2)
        assert abs(lap - ref) / ref <= 0.05


def test_laplace_tail_refinement_improves_on_grid():
    grid = np.array([0.5, 1.0, 2.0])
    mv = np.cosh(grid)
    t = 0.9
    coarse = laplace_tail(grid, mv, t)
    fine = laplace_tail(grid, mv, t, mgf=lambda th: math.cosh(th))
    assert fine <= coarse + 1e-15


def test_laplace_tail_dominates_exact_on_walk():
    w = chains.hermon_salez(measures.make_spanning_tree_measure(K4_EDGES))
    fn = random_matrix_fn(w.states, 3, seed=21)
    vals = fn.gather(w.states)
    tm = TraceMgf(w.pi, vals)
    ts = np.linspace(0.2, 2.0, 10)
    exact = exact_tail(w.pi, vals, ts)
    grid = np.linspace(0.05, 12.0, 120)
    curve = tm.curve(grid)
    for t, e in zip(ts, exact):
        assert laplace_tail(grid, curve, float(t), mgf=tm) >= e - 1e-12


def ref_laplace_tail(thetas, m_values, t, mgf):
    """The golden-section refinement laplace_tail made before its one parabolic
    step: 48 steps between the best grid point's neighbours, 50 mgf calls."""
    thetas, m_values = np.asarray(thetas, dtype=float), np.asarray(m_values, dtype=float)
    exponents = -thetas * t + np.log(m_values)
    best, i = float(exponents.min()), int(np.argmin(exponents))
    a, b = thetas[max(0, i - 1)], thetas[min(thetas.size - 1, i + 1)]
    if b > a:
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = -c * t + math.log(mgf(c)), -d * t + math.log(mgf(d))
        for _ in range(48):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = -c * t + math.log(mgf(c))
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = -d * t + math.log(mgf(d))
        best = min(best, fc, fd)
    return 2.0 * math.exp(best)


def criterion_8_laplace_cases():
    """(grid, curve, t, mgf) of acceptance criterion 8: the K4 tree walk, 50
    linear observables, 50 t's each on a 400-point grid of mgf_bound."""
    walk = chains.hermon_salez(measures.make_spanning_tree_measure(K4_EDGES))
    lam = functional.scalar_spectral_gap(walk)
    for i in range(50):
        d = (2, 3, 4)[i % 3]
        fn, _ = random_linear_matrix_fn(len(K4_EDGES), walk.states, d, 1.0, seed=8000 + i)
        vals = fn.gather(walk.states)
        v = oscillation(walk, fn).v
        dev = float(np.abs(np.linalg.eigvalsh(vals - functional.matrix_mean(walk.pi, vals))).max())
        radius = math.sqrt(lam) / v
        grid = np.linspace(radius / 400, radius * (1 - 1e-9), 400)
        curve = np.array([mgf_bound(float(th), lam, v, d) for th in grid])
        for t in np.linspace(1.5 * dev / 50, 1.5 * dev, 50):
            yield grid, curve, float(t), lambda th, lam=lam, v=v, d=d: mgf_bound(th, lam, v, d)


def bench_laplace_cases(observables: int = 12):
    """The observables workload's tail inputs: the uniform(10,5) walk, linear
    d = 4 observables scaled to alpha v^2 <= 0.81, 20 t's on a 100-point grid."""
    walk = chains.hermon_salez(measures.make_uniform_k_subsets(10, 5))
    lam = functional.scalar_spectral_gap(walk)
    for seed in range(observables):
        fn, _ = random_linear_matrix_fn(10, walk.states, 4, 1.0, 4100 + seed)
        v = oscillation(walk, fn).v
        c = min(1.0, math.sqrt(0.81 * lam) / v)
        vals, v = fn.gather(walk.states) * c, v * c
        dev = float(np.abs(np.linalg.eigvalsh(vals - functional.matrix_mean(walk.pi, vals))).max())
        radius = math.sqrt(lam) / v
        grid = np.linspace(radius / 100, radius * (1 - 1e-9), 100)
        curve = np.array([mgf_bound(float(th), lam, v, 4) for th in grid])
        for t in np.linspace(1.25 * dev / 20, 1.25 * dev, 20):
            yield grid, curve, float(t), lambda th, lam=lam, v=v: mgf_bound(th, lam, v, 4)


@pytest.mark.parametrize("cases", [criterion_8_laplace_cases, bench_laplace_cases])
def test_laplace_tail_parabolic_step_matches_the_golden_section(cases):
    """One parabolic step lands within 1e-7 relative of 48 golden-section steps,
    never above the grid's own value, and reads mgf at most once."""
    count = 0
    for grid, curve, t, mgf in cases():
        calls = []
        got = laplace_tail(grid, curve, t, mgf=lambda th: calls.append(th) or mgf(th))
        ref = ref_laplace_tail(grid, curve, t, mgf)
        assert abs(got / ref - 1.0) <= 1e-7, (t, got, ref)
        assert got <= laplace_tail(grid, curve, t)
        assert len(calls) <= 1 and all(grid[0] <= th <= grid[-1] for th in calls)
        count += 1
    assert count in (2500, 240)


def test_laplace_tail_reads_mgf_once_at_the_parabola_vertex():
    """The uneven grid [0.5, 1, 2] with m = cosh and its minimum at 1: mgf is read
    once, at the vertex of the fitted parabola, and the bound lies between the
    true minimum over [0.5, 2] (the golden-section reference) and the grid's."""
    grid, t, calls = np.array([0.5, 1.0, 2.0]), 0.65, []
    exponents = -grid * t + np.log(np.cosh(grid))
    assert int(np.argmin(exponents)) == 1
    got = laplace_tail(grid, np.cosh(grid), t, mgf=lambda th: calls.append(th) or math.cosh(th))
    quad = np.polyfit(grid, exponents, 2)
    assert len(calls) == 1 and calls[0] == pytest.approx(-quad[1] / (2 * quad[0]), rel=1e-12)
    assert got == 2 * math.exp(min(exponents.min(), -calls[0] * t + math.log(math.cosh(calls[0]))))
    ref = ref_laplace_tail(grid, np.cosh(grid), t, math.cosh)
    assert ref <= got < laplace_tail(grid, np.cosh(grid), t)
    assert got == pytest.approx(ref, rel=1e-3)


def test_laplace_tail_keeps_the_grid_at_an_end_or_a_flat_triple():
    """A minimum at either end of the grid, a flat grid (its minimum the first
    point) and a collinear triple (zero denominator) read mgf never; a triple flat
    on one side reads it once, at the midpoint of the flat side."""
    def run(grid, exponents, t):
        calls, grid = [], np.asarray(grid, dtype=float)
        curve = np.exp(np.asarray(exponents, dtype=float) + grid * t)
        got = laplace_tail(grid, curve, t, mgf=lambda th: calls.append(th) or 1.0)
        return got, calls, laplace_tail(grid, curve, t)

    for exponents in ([-3.0, -2.0, -1.0], [-1.0, -2.0, -3.0], [-1.0, -1.0, -1.0]):
        got, calls, grid_only = run([1.0, 2.0, 3.0], exponents, 0.0)
        assert calls == [] and got == grid_only == 2 * math.exp(min(exponents))
    got, calls, grid_only = run([1.0, 3.0, 2.0], [1.0, 0.0, 0.5], 0.0)  # collinear
    assert calls == [] and got == grid_only == 2.0
    got, calls, grid_only = run([1.0, 2.0, 3.0], [1.0, 0.0, 0.0], 1.0)
    assert calls == [2.5] and got == 2 * math.exp(-2.5) < grid_only


def test_laplace_tail_input_checks():
    with pytest.raises(EmptyGrid):
        laplace_tail([], [], 1.0)
    with pytest.raises(ValueError):
        laplace_tail([0.0, 1.0], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        laplace_tail([0.5, 1.0], [1.0], 1.0)
    with pytest.raises(ValueError):
        laplace_tail([0.5, 1.0], [1.0, -1.0], 1.0)


# ----------------------------------------------------------------- exact tail

def test_exact_tail_two_point():
    w = np.array([0.3, 0.7])
    vals = np.array([[[1.0]], [[-1.0]]])
    # centered deviations are 1.4 (mass 0.3) and 0.6 (mass 0.7)
    out = exact_tail(w, vals, [0.5, 0.7, 1.5])
    assert np.allclose(out, [1.0, 0.3, 0.0])


def test_exact_tail_brute_oracle():
    rng = np.random.default_rng(14)
    w = rng.dirichlet(np.ones(6))
    vals = np.stack([(m + m.T) / 2 for m in rng.standard_normal((6, 3, 3))])
    mean = np.einsum("x,xij->ij", w, vals)
    devs = [np.abs(np.linalg.eigvalsh(v - mean)).max() for v in vals]
    ts = [0.3, 0.8, 1.4, 2.5]
    ref = [sum(wi for wi, dv in zip(w, devs) if dv >= t) for t in ts]
    assert np.allclose(exact_tail(w, vals, ts), ref)


def test_exact_tail_nonincreasing():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(5, 2))
    vals = random_matrix_fn(w.states, 2, seed=6).gather(w.states)
    ts = np.linspace(0.0, 3.0, 30)
    out = exact_tail(w.pi, vals, ts)
    assert (np.diff(out) <= 1e-15).all()


# ------------------------------------------------------------- ks comparison

def test_ks_bound_formula():
    assert ks_bound(0.5, 10.0, 4, 3) == pytest.approx(
        3 * math.exp(-0.25 * 10 / (math.log(4) + 0.5)))
    with pytest.raises(ValueError):
        ks_bound(0.5, 10.0, 1, 3)
    with pytest.raises(ValueError):
        ks_bound(-0.5, 10.0, 4, 3)


def test_ks_crossover_frozen_comparisons():
    """k = 256, eps = 1/16: the exponent comparison flips between mu = 40
    and mu = 64; lhs and rhs are exact rationals checked by hand."""
    win = ks_crossover(256, 64.0, 1 / 16)
    assert win.lhs == pytest.approx(320.0)
    assert win.rhs == pytest.approx(64 * math.log(256) + 4.0)
    assert win.ours_better
    lose = ks_crossover(256, 40.0, 1 / 16)
    assert lose.lhs == pytest.approx(296.0)
    assert not lose.ours_better
    big = ks_crossover(256, 256.0, 1 / 16)
    assert big.ours_better


def test_ks_crossover_exponents_are_the_tail_columns():
    """The crossover table's exponents are the SR and Kyng-Song tails of
    `tail` at t = eps mu and unit Lipschitz, bit for bit: both formulas are
    written in `ks` and again in `concentration`."""
    rng = np.random.default_rng(name_seed("ks_drift"))
    for _ in range(500):
        k, d = int(rng.integers(2, 4097)), int(rng.integers(1, 65))
        mu, eps, c = 10.0 ** rng.uniform(-2, 4), rng.uniform(0.01, 2.0), rng.uniform(0.1, 4.0)
        row = ks_crossover(k, mu, eps, c)
        assert tail_bound_sr(eps * mu, k, 1.0, d) == 2 * d * math.exp(-row.exponent_sr)
        assert ks_bound(eps, mu, k, d, c) == d * math.exp(-row.exponent_ks)


def test_ks_crossover_threshold_closed_form():
    """The comparison is affine in mu, so the threshold is
    k / (log k + eps - eps sqrt(k)) whenever the slope is positive."""
    for k, eps in [(256, 1 / 16), (64, 0.05), (1024, 0.01), (16, 0.2)]:
        closed = k / (math.log(k) + eps - eps * math.sqrt(k))
        got = ks_crossover_threshold(k, eps)
        assert got == pytest.approx(closed, rel=1e-9), (k, eps)
        below = ks_crossover(k, closed * 0.999, eps)
        above = ks_crossover(k, closed * 1.001, eps)
        assert not below.ours_better
        assert above.ours_better


def test_ks_crossover_threshold_unreachable():
    # eps sqrt(k) swamps log k + eps: no mu ever closes the gap
    assert ks_crossover_threshold(256, 1.0) == np.inf


def test_ks_crossover_near_flag():
    near = ks_crossover(5, 5.0, 1 / math.sqrt(5))
    assert near.near_crossover
    assert abs(near.margin) <= 0.1
    far = ks_crossover(256, 256.0, 1 / 16)
    assert not far.near_crossover


def test_ks_crossover_rejects_small_k():
    for call in (lambda k: ks_crossover(k, 10.0, 0.5),
                 lambda k: ks_crossover_threshold(k, 0.5)):
        with pytest.raises(OutOfRange, match="k must be at least 2, got 1"):
            call(1)
        for k in (2.5, True):  # 2.5 gave a row labelled k=2 computed at k = 2.5
            with pytest.raises(NotAnInteger):
                call(k)
    assert ks_crossover(4.0, 10.0, 0.5) == ks_crossover(4, 10.0, 0.5)


def test_ks_crossover_reads_mu_eps_and_c_by_the_range_rule():
    """mu, eps and c were read unchecked: ks_crossover(8, -1.0, 0.5) returned
    a row and ks_crossover_threshold(8, nan) the no-crossover inf."""
    for name, call in (("mu", lambda x: ks_crossover(8, x, 0.5)),
                       ("eps", lambda x: ks_crossover(8, 10.0, x)),
                       ("c", lambda x: ks_crossover(8, 10.0, 0.5, x)),
                       ("eps", lambda x: ks_crossover_threshold(8, x))):
        for x in (-1.0, 0, 0.0, math.nan, math.inf):
            with pytest.raises(OutOfRange, match=rf"{name} must lie in \(0, inf\)"):
                call(x)
        with pytest.raises(NotANumber):
            call(True)


def test_ks_exponent_fields_match_formulas():
    r = ks_crossover(16, 12.0, 0.25, c=1.0)
    t = 0.25 * 12.0
    assert r.exponent_sr == pytest.approx(t * t / (32 * (16 + t * 4)))
    assert r.exponent_ks == pytest.approx(0.25**2 * 12 / (math.log(16) + 0.25))
    assert r.dominator in ("sr", "ks")


# ----------------------------------------------------------------- reporting

def test_tail_dominator():
    assert tail_dominator(0.5, 0.3, 0.4) == "sr"
    assert tail_dominator(0.2, None, None) == "poincare"
    assert tail_dominator(None, None, None) == ""
