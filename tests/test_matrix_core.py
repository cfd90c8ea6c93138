from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from srconc import matrix_core as mc
from srconc import measures
from srconc.matrix_core import (
    DimMismatch,
    NonFinite,
    NotPSD,
    NotSymmetric,
    PreconditionViolated,
    check_diff_square_convex,
    check_int_norm_bound,
    check_lemma_var,
    check_operator_jensen,
    check_trace_monotone,
    duhamel_residual,
    psd_leq,
    schatten_norm,
    spectral_norm,
    sym_apply,
    trace_power,
)
from srconc.inputs import NotAnInteger, at_least

from conftest import random_symmetric


def test_sym_expm_pinned_values():
    assert np.allclose(sym_apply(np.zeros((3, 3)), np.exp), np.eye(3))
    assert np.allclose(sym_apply(np.diag([np.log(2.0), 0.0]), np.exp), np.diag([2.0, 1.0]))


@pytest.mark.parametrize("t", [0.3, 1.7])
def test_sym_expm_off_diagonal_closed_form(t):
    a = np.array([[0.0, t], [t, 0.0]])
    want = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    assert np.allclose(sym_apply(a, np.exp), want, atol=1e-12)


def test_sym_expm_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_symmetric(rng, 5, 3.0)
        assert np.allclose(sym_apply(a, np.exp), scipy.linalg.expm(a), atol=1e-10)


def test_sym_expm_commutes_and_maps_eigenvalues():
    rng = np.random.default_rng(8)
    a = random_symmetric(rng, 4, 2.0)
    e = sym_apply(a, np.exp)
    assert np.abs(a @ e - e @ a).max() < 1e-10
    got = np.sort(np.linalg.eigvalsh(e))
    want = np.sort(np.exp(np.linalg.eigvalsh(a)))
    assert np.allclose(got, want, rtol=1e-10)


def test_sym_expm_rejects_asymmetric_and_nan():
    with pytest.raises(NotSymmetric):
        sym_apply(np.array([[0.0, 1.0], [0.0, 0.0]]), np.exp)
    with pytest.raises(NonFinite):
        sym_apply(np.array([[np.nan, 0.0], [0.0, 0.0]]), np.exp)


def test_psd_order_pinned():
    eye = np.eye(2)
    assert psd_leq(eye, 2 * eye, 1e-9)
    assert not psd_leq(2 * eye, eye, 1e-9)
    # indefinite difference diag(1, -1)
    assert not psd_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]), 1e-9)


def test_schatten_norm_pinned():
    assert schatten_norm(np.eye(3), 2) == pytest.approx(np.sqrt(3.0))
    assert schatten_norm(np.diag([3.0, -4.0]), np.inf) == pytest.approx(4.0)
    assert schatten_norm(np.diag([1.0, 2.0]), 4) == pytest.approx(17.0 ** 0.25)
    with pytest.raises(NotAnInteger, match="^p must be an integer, got 'inf'$"):
        schatten_norm(np.eye(2), "inf")


def test_schatten_norm_matches_singular_values():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 4))
    sv = np.linalg.svd(a, compute_uv=False)
    for p in (2, 4, 6):
        assert schatten_norm(a, p) == pytest.approx((sv**p).sum() ** (1 / p), rel=1e-12)
    assert schatten_norm(a, np.inf) == pytest.approx(sv.max(), rel=1e-12)


def test_schatten_norm_rejects_odd_p():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 3)


@pytest.mark.parametrize("p", [2.5, True, "2"])
def test_schatten_norm_reads_p_as_an_integer(p):
    with pytest.raises(ValueError, match=f"^p must be an integer, got {p!r}$"):
        schatten_norm(np.diag([3.0, 4.0]), p)
    assert schatten_norm(np.diag([3.0, 4.0]), 2.0) == schatten_norm(np.diag([3.0, 4.0]), 2)


@pytest.mark.parametrize("p,match", [(2.5, "^p must be an integer, got 2.5$"),
                                     (True, "^p must be an integer, got True$"),
                                     (0, "^p must be at least 1, got 0$")])
def test_power_users_read_p_through_as_power(p, match):
    a = np.diag([1.0, 2.0])
    for use in (lambda p: at_least(p, "p", 1), lambda p: trace_power(a, p),
                lambda p: check_lemma_var([(1.0, a, a)], p)):
        with pytest.raises(ValueError, match=match):
            use(p)


def test_schatten_triangle_inequality():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        for p in (2, 4, np.inf):
            lhs = schatten_norm(a + b, p)
            rhs = schatten_norm(a, p) + schatten_norm(b, p)
            assert lhs <= rhs + 1e-10 * max(1.0, rhs)


def test_trace_power_pinned_and_oracle():
    assert trace_power(np.eye(2), 3) == pytest.approx(2.0)
    assert trace_power(np.diag([2.0, 3.0]), 2) == pytest.approx(13.0)
    rng = np.random.default_rng(5)
    a = random_symmetric(rng, 4, 2.0)
    assert trace_power(a, 1) == pytest.approx(np.trace(a), rel=1e-12)
    for p in (2, 3, 5):
        want = np.trace(np.linalg.matrix_power(a, p))
        assert trace_power(a, p) == pytest.approx(want, rel=1e-10)


def test_trace_monotone_trivial_and_precondition():
    assert check_trace_monotone(np.exp, np.zeros((3, 3)), np.eye(3))
    a = random_symmetric(np.random.default_rng(0), 3, 1.0)
    assert check_trace_monotone(np.exp, a, a)
    with pytest.raises(PreconditionViolated):
        check_trace_monotone(np.exp, np.eye(2), np.zeros((2, 2)))


def test_trace_monotone_rank_one_sweep():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = random_symmetric(rng, 3, 1.5)
        p = rng.standard_normal(3)
        assert check_trace_monotone(np.exp, a, a + np.outer(p, p))


BAD_WEIGHTS = ([0.5, 0.6], [0.3, 0.6], [0.5, 0.5 + 2e-10], [1.5, -0.5], [np.nan, 1.0],
               [np.nan], [0.5, np.nan, 0.5], [[0.5, 0.5], [0.5, 0.6]])


@pytest.mark.parametrize("weights", BAD_WEIGHTS, ids=str)
@pytest.mark.parametrize("checker", ["jensen", "lemma_var"])
def test_convex_weights_rule_refuses_bad_weights(checker, weights):
    """Jensen and lemma_var read weights by one rule: nonnegative and summing to 1
    within 1e-10 (per trial column); a NaN weight compares False both ways and fails."""
    weights = np.asarray(weights, dtype=float)
    mats = [np.broadcast_to(np.eye(2), (*w.shape, 2, 2)) for w in weights]
    with pytest.raises(PreconditionViolated, match="weights must be convex coefficients"):
        if checker == "jensen":
            check_operator_jensen(np.square, weights, mats, "operator")
        else:
            check_lemma_var([(w, a, a) for w, a in zip(weights, mats)], 1)


def test_jensen_single_factor_equality():
    a = random_symmetric(np.random.default_rng(2), 3, 1.0)
    assert check_operator_jensen(np.square, [1.0], [a], "operator")
    assert check_operator_jensen(np.exp, [1.0], [a], "trace")


def test_jensen_square_operator_form_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        w = rng.dirichlet(np.ones(3))
        mats = [random_symmetric(rng, 3, 1.5) for _ in range(3)]
        assert check_operator_jensen(np.square, w, mats, "operator")


def test_jensen_quartic_trace_form_random():
    rng = np.random.default_rng(32)
    for _ in range(100):
        w = rng.dirichlet(np.ones(3))
        mats = [random_symmetric(rng, 3, 1.5) for _ in range(3)]
        assert check_operator_jensen(lambda x: x**4, w, mats, "trace")


def test_jensen_detects_operator_form_violation():
    # t^4 is convex but not operator convex; this frozen pair separates
    # the two forms, so the checker is not vacuously true
    rng = np.random.default_rng(39)
    w = rng.dirichlet(np.ones(2))
    mats = [random_symmetric(rng, 2, 2.0) for _ in range(2)]
    assert not check_operator_jensen(lambda x: x**4, w, mats, "operator")
    assert check_operator_jensen(lambda x: x**4, w, mats, "trace")


def test_jensen_variance_psd_form():
    # square pushed through convex weights: E[A^2] - (E A)^2 is PSD
    rng = np.random.default_rng(33)
    w = rng.dirichlet(np.ones(4))
    mats = [random_symmetric(rng, 3, 1.0) for _ in range(4)]
    mean = sum(wi * a for wi, a in zip(w, mats))
    second = sum(wi * a @ a for wi, a in zip(w, mats))
    mc._psd_eigh(second - mean @ mean, "E[A^2] - (E A)^2")  # NotPSD unless PSD
    assert check_operator_jensen(np.square, w, mats, "operator")


def test_jensen_shape_guards():
    with pytest.raises(DimMismatch):
        check_operator_jensen(np.square, [0.5, 0.5], [np.eye(2)], "operator")
    with pytest.raises(ValueError):
        check_operator_jensen(np.square, [0.5, 0.5], [np.eye(2), np.eye(2)], "weird")


def test_diff_square_convex_endpoints_and_random():
    rng = np.random.default_rng(41)
    mats = [random_symmetric(rng, 4, 1.5) for _ in range(4)]
    for t in (0.0, 1.0):
        assert check_diff_square_convex(*mats, t)
    assert check_diff_square_convex(mats[0], mats[1], mats[0], mats[1], 0.3)
    for _ in range(100):
        quad = [random_symmetric(rng, 4, 1.5) for _ in range(4)]
        assert check_diff_square_convex(*quad, 0.3)
    with pytest.raises(PreconditionViolated):
        check_diff_square_convex(*mats, 1.5)


def test_duhamel_identical_arguments():
    a = random_symmetric(np.random.default_rng(6), 3, 2.0)
    assert duhamel_residual(a, a) == 0.0


def test_gl_nodes_cached_read_only():
    nodes, weights = mc._gl_nodes(64)
    assert mc._gl_nodes(64)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert weights.sum() == pytest.approx(1.0)


def test_duhamel_commuting_diagonals():
    x = np.diag([0.4, -1.1, 0.7])
    y = np.diag([-0.3, 0.9, 0.2])
    assert duhamel_residual(x, y, quad_points=32) < 1e-10


def test_duhamel_random_pairs_and_convergence():
    rng = np.random.default_rng(44)
    for _ in range(20):
        x = random_symmetric(rng, 3, 2.0)
        y = random_symmetric(rng, 3, 2.0)
        coarse = duhamel_residual(x, y, quad_points=16)
        fine = duhamel_residual(x, y, quad_points=64)
        assert fine < 1e-8
        assert fine <= coarse + 1e-12


def test_int_norm_bound_trivial_cases():
    x = random_symmetric(np.random.default_rng(7), 3, 1.0)
    assert check_int_norm_bound(np.eye(3), np.eye(3), x, 2)
    assert check_int_norm_bound(np.eye(3), 2 * np.eye(3), np.zeros((3, 3)), np.inf)


def test_int_norm_bound_random_psd():
    rng = np.random.default_rng(48)
    for trial in range(100):
        g1 = rng.standard_normal((3, 3))
        g2 = rng.standard_normal((3, 3))
        a = g1 @ g1.T
        b = g2 @ g2.T
        x = random_symmetric(rng, 3, 1.5)
        p = (2, 4, np.inf)[trial % 3]
        assert check_int_norm_bound(a, b, x, p)


def test_int_norm_bound_rejects_indefinite():
    with pytest.raises(NotPSD):
        check_int_norm_bound(np.diag([1.0, -1.0]), np.eye(2), np.eye(2), 2)


def test_lemma_var_scalar_reduction():
    # commuting 1x1 case: both sides have closed scalar forms
    x, y, p = 0.7, -0.4, 2
    pairs = [(1.0, np.array([[x]]), np.array([[y]]))]
    lhs = (np.exp(x) - np.exp(y)) ** (2 * p)
    rhs = 0.5 * abs(x - y) ** (2 * p) * (np.exp(2 * p * x) + np.exp(2 * p * y))
    assert lhs <= rhs
    assert check_lemma_var(pairs, p)


def test_lemma_var_identical_pair_and_random():
    rng = np.random.default_rng(51)
    a = random_symmetric(rng, 3, 1.0)
    assert check_lemma_var([(1.0, a, a)], 2)
    for _ in range(50):
        w = rng.dirichlet(np.ones(8))
        pairs = [(w[i], random_symmetric(rng, 3, 1.5), random_symmetric(rng, 3, 1.5))
                 for i in range(8)]
        for p in (1, 2, 4):
            assert check_lemma_var(pairs, p)


def test_lemma_var_rejects_bad_weights():
    a = np.eye(2)
    with pytest.raises(PreconditionViolated):
        check_lemma_var([(0.7, a, a), (0.7, a, a)], 1)
    for pairs in ([(np.nan, a, a), (1.0, a, a)], [(np.nan, a, a)]):
        with pytest.raises(PreconditionViolated):
            check_lemma_var(pairs, 1)


# ------------------------------------ quadratures against the per-node loops

def loop_duhamel_residual(x, y, quad_points):
    """The per-node loop the eigenbasis rule replaced: e^{tX}(X-Y)e^{(1-t)Y}
    formed from d x d products at each Gauss-Legendre node."""
    x, y = mc.require_symmetric(x), mc.require_symmetric(y)
    lx, ux = np.linalg.eigh(x)
    ly, uy = np.linalg.eigh(y)
    nodes, weights = mc._gl_nodes(quad_points)
    acc = np.zeros_like(x)
    for t, w in zip(nodes, weights):
        left = (ux * np.exp(t * lx)) @ ux.T
        right = (uy * np.exp((1 - t) * ly)) @ uy.T
        acc += w * (left @ (x - y) @ right)
    target = (ux * np.exp(lx)) @ ux.T - (uy * np.exp(ly)) @ uy.T
    return spectral_norm(target - acc)


def loop_int_norm_integral(a, b, x):
    """The per-node loop for int_0^1 a^t x b^(1-t) dt, on the clipped eigenpairs."""
    (la, ua), (lb, ub) = mc._psd_eigh(a, "a"), mc._psd_eigh(b, "b")
    nodes, weights = mc._gl_nodes(mc.DEFAULT_QUAD_POINTS)
    acc = np.zeros_like(x)
    for t, w in zip(nodes, weights):
        left = (ua * la**t) @ ua.T
        right = (ub * lb ** (1 - t)) @ ub.T
        acc += w * (left @ x @ right)
    return acc


def assert_duhamel_agrees(x, y, quad_points=mc.DEFAULT_QUAD_POINTS, tol=1e-8):
    got, want = duhamel_residual(x, y, quad_points), loop_duhamel_residual(x, y, quad_points)
    assert abs(got - want) <= 1e-12 * max(1.0, want)
    assert (got < tol) == (want < tol)


INT_NORM_TOLS = (1e-8, 0.0, -1e-2, -0.3)  # the negative ones make both verdicts occur


def int_norm_verdicts(a, b, x, p):
    """(new verdicts, loop verdicts) at each tolerance, after checking that the
    two integrals agree within 1e-12 of the loop's max-norm."""
    a, b, x = (mc.require_symmetric(m) for m in (a, b, x))
    want = loop_int_norm_integral(a, b, x)
    got = mc._gl_integral(x, *mc._psd_eigh(a, "a"), *mc._psd_eigh(b, "b"),
                          np.power.outer, mc.DEFAULT_QUAD_POINTS)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    lhs, rhs = schatten_norm(want, p), 0.5 * schatten_norm(a @ x + x @ b, p)
    return ([check_int_norm_bound(a, b, x, p, tol) for tol in INT_NORM_TOLS],
            [bool(lhs <= rhs + tol * max(1.0, rhs)) for tol in INT_NORM_TOLS])


def test_duhamel_matches_the_loop_on_criterion5_streams():
    for trial in range(1000):  # criterion 5's duhamel stream (index 5), dims 3 and 4
        rng = np.random.default_rng([5, 5, trial])
        d = (3, 4)[trial % 2]
        assert_duhamel_agrees(random_symmetric(rng, d, 2.0), random_symmetric(rng, d, 2.0))


def test_duhamel_matches_the_loop_on_random_pairs():
    rng = np.random.default_rng(2024)
    for trial in range(600):
        d, bound = int(rng.integers(1, 9)), float(rng.uniform(0.1, 6.0))
        x, y = random_symmetric(rng, d, bound), random_symmetric(rng, d, bound)
        assert_duhamel_agrees(x, y, (2, 8, 64)[trial % 3])  # coarse rules miss 1e-8


def test_int_norm_matches_the_loop_on_criterion5_streams():
    verdicts = set()
    for trial in range(1000):  # criterion 5's int_norm stream (index 4), dims 3 and 4
        rng = np.random.default_rng([5, 4, trial])
        d = (3, 4)[trial % 2]
        a, b, x = (random_symmetric(rng, d, 1.5) for _ in range(3))
        p = (2, 4, np.inf)[int(rng.integers(3))]
        got, want = int_norm_verdicts(a @ a.T, b @ b.T, x, p)
        assert got == want, trial
        verdicts.update(got)
    assert verdicts == {True, False}


def test_int_norm_matches_the_loop_on_random_pairs():
    rng = np.random.default_rng(2025)
    for trial in range(300):
        d = int(rng.integers(1, 9))
        g1, g2 = rng.standard_normal((d, d)), rng.standard_normal((d, d))
        rank = int(rng.integers(0, d + 1))  # singular a: eigenvalues clipped to 0
        a = g1[:, :rank] @ g1[:, :rank].T
        x = random_symmetric(rng, d, float(rng.uniform(0.1, 6.0)))
        got, want = int_norm_verdicts(a, g2 @ g2.T, x, (2, 4, np.inf)[trial % 3])
        assert got == want, trial


# --------------------------------------------- a stack against its slices

def _sym(rng, n, d):
    g = rng.standard_normal((n, d, d))
    return (g + g.mT) / 2.0


def _psd(rng, n, d):
    g = rng.standard_normal((n, d, d))
    return g @ g.mT


def _weights(rng, n):
    return rng.dirichlet(np.ones(3), size=n)


def _jensen(fn, form, tol):
    def case(rng, n, d):
        return (lambda w, mats: check_operator_jensen(fn, w.T, mats, form, tol)), \
            (_weights(rng, n), [_sym(rng, n, d) for _ in range(3)])
    return case


def _lemma_var(p, tol):
    def case(rng, n, d):
        return (lambda w, xs, ys: check_lemma_var(list(zip(w.T, xs, ys)), p, tol)), \
            (_weights(rng, n), [_sym(rng, n, d) for _ in range(3)],
             [_sym(rng, n, d) for _ in range(3)])
    return case


def _within(rng, n, d):
    scale = rng.choice([np.nan, -1.0, 0.0, 0.5, 7.0, 1e6], size=n)
    bound = rng.standard_normal(n)
    edge = bound + 1e-8 * np.fmax(1.0, scale)
    value = np.where(rng.random(n) < 0.5, edge, np.nextafter(edge, np.inf))
    return (lambda v, b, s: measures.within(v, b, 1e-8, s)), (value, bound, scale)


def _mixed(rng, n, d):
    """Exactly symmetric and general matrices in one stack."""
    a = _sym(rng, n, d)
    general = rng.random(n) < 0.5
    a[general] = rng.standard_normal((int(general.sum()), d, d))
    return a


STACK_CASES = {
    "trace_monotone": lambda rng, n, d: (
        (lambda a, bump: check_trace_monotone(np.exp, a, a + bump, -1e-3)),
        (_sym(rng, n, d), _psd(rng, n, d) * 0.01)),
    "psd_leq": lambda rng, n, d: (
        (lambda a, b: psd_leq(a, b, 1e-9)), (_sym(rng, n, d), _sym(rng, n, d) + 2.0 * np.eye(d))),
    "jensen_operator": _jensen(lambda x: x**4, "operator", 1e-8),
    "jensen_trace": _jensen(lambda x: x**4, "trace", -1e-3),
    "diff_square_convex": lambda rng, n, d: (
        (lambda *args: check_diff_square_convex(*args, -1e-3)),
        (*(_sym(rng, n, d) for _ in range(4)), rng.random(n))),
    "duhamel_residual": lambda rng, n, d: (duhamel_residual, (_sym(rng, n, d), _sym(rng, n, d))),
    **{f"int_norm_p{p}": (lambda p: lambda rng, n, d: (
        (lambda a, b, x: check_int_norm_bound(a, b, x, p, -1e-3)),
        (_psd(rng, n, d), _psd(rng, n, d), _sym(rng, n, d))))(p) for p in (2, 4, np.inf)},
    "lemma_var_p1": _lemma_var(1, -0.3),
    "lemma_var_p2": _lemma_var(2, -0.3),
    "spectral_norm": lambda rng, n, d: (spectral_norm, (_mixed(rng, n, d),)),
    **{f"schatten_norm_p{p}": (lambda p: lambda rng, n, d: (
        (lambda a: schatten_norm(a, p)), (_mixed(rng, n, d),)))(p) for p in (2, 4, np.inf)},
    **{f"trace_power_p{p}": (lambda p: lambda rng, n, d: (
        (lambda a: trace_power(a, p)), (_sym(rng, n, d),)))(p) for p in (1, 2, 3)},
    "within": _within,
}


def _take(obj, k):
    """Trial k of a checker's stacked arguments."""
    if isinstance(obj, np.ndarray):
        return obj[k]
    return [_take(o, k) for o in obj] if isinstance(obj, list) else obj


def _traced(fn, args):
    """fn(*args), and (value, bound, scale) of each within() it made, broadcast."""
    seen = []

    def spy(value, bound, tol, scale):
        seen.append(np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                          for x in (value, bound, scale))))
        return measures.within(value, bound, tol, scale)

    with mock.patch.object(mc, "within", spy):
        return fn(*args), seen


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(STACK_CASES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 17), d=st.integers(1, 8))
def test_a_stack_gives_each_trial_what_it_gives_alone(name, seed, n, d):
    """Every stack-aware checker and norm: the result for trial k of a stack,
    and every number its verdicts were read from, equal bit for bit what the
    trial alone gives, and a lone trial gives a Python bool or float."""
    fn, args = STACK_CASES[name](np.random.default_rng(seed), n, d)
    out, seen = _traced(fn, args)
    assert np.shape(out) == (n,)
    for k in range(n):
        alone, alone_seen = _traced(fn, [_take(a, k) for a in args])
        assert type(alone) in (bool, float), (name, type(alone))
        assert _bits(out[k]) == _bits(alone), (name, k)
        assert len(seen) == len(alone_seen)
        for stacked, single in zip(seen, alone_seen):
            assert [_bits(x[k]) for x in stacked] == [_bits(x) for x in single], (name, k)
