import numpy as np
import pytest

from srconc import chains, functional, measures
from conftest import name_seed, peak_traced_bytes
from srconc.functional import (
    DomainMismatch,
    MatrixFn,
    Reducible,
    check_decompositions,
    check_matrix_poincare,
    dirichlet_form,
    matrix_fn_from_json,
    matrix_mean,
    matrix_poincare_constant,
    matrix_variance,
    project_fn,
    random_linear_matrix_fn,
    random_matrix_fn,
    scalar_spectral_gap,
)


def two_state_gen(a: float, b: float) -> chains.Generator:
    pi = np.array([b, a]) / (a + b)
    return chains.Generator(np.array([0, 1]), np.array([[-a, a], [b, -b]]),
                            pi, n=1)


def complete_graph_gen(m: int) -> chains.Generator:
    rates = np.full((m, m), 1.0 / m)
    np.fill_diagonal(rates, 1.0 / m - 1.0)
    return chains.Generator(np.arange(m), rates, np.full(m, 1.0 / m))


# ----------------------------------------------------------------- MatrixFn

def test_matrix_fn_symmetrizes():
    fn = MatrixFn(np.array([0]), np.array([[[1.0, 2.0], [0.0, 3.0]]]))
    assert np.allclose(fn.values[0], [[1.0, 1.0], [1.0, 3.0]])
    assert fn.dim == 2


def test_matrix_fn_shape_check():
    with pytest.raises(ValueError):
        MatrixFn(np.array([0, 1]), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        MatrixFn(np.array([0]), np.zeros((1, 2, 3)))


@pytest.mark.parametrize("values", [
    np.full((1, 2, 2), np.nan), np.full((1, 1, 1), np.inf), np.zeros((2, 0, 0)),
    np.array([[[0.0, np.inf], [-np.inf, 0.0]]]),
    np.full((1, 2, 2), 1.5e308)])  # finite, but (values + values^T) / 2 overflows
def test_matrix_fn_rejects_non_finite_and_empty(values):
    with pytest.raises(functional.FunctionalError):
        MatrixFn(np.arange(values.shape[0]), values)


def test_gather_aligns_and_rejects():
    fn = MatrixFn.from_table({2: np.eye(2), 5: 2 * np.eye(2)})
    out = fn.gather([5, 2])
    assert np.allclose(out[0], 2 * np.eye(2))
    assert np.allclose(out[1], np.eye(2))
    with pytest.raises(DomainMismatch):
        fn.gather([3])


def test_records_compare_and_hash_by_identity():
    """MatrixFn and SampleBatch hold arrays; with the generated __eq__, `==`
    compared them, which raised, and hash() raised."""
    from srconc.samplers import SampleBatch
    fn = MatrixFn(np.array([1, 2]), np.zeros((2, 1, 1)))
    batch = SampleBatch(0, 2, np.array([1, 2]))
    for record, twin in ((fn, MatrixFn(fn.states, fn.values)),
                         (batch, SampleBatch(0, 2, batch.draws))):
        assert record == record and record != twin
        assert record in [twin, record] and twin not in [record]
        assert len({record, twin, record}) == 2


def test_constant_fn():
    fn = MatrixFn.constant([1, 2, 4], np.diag([1.0, -1.0]))
    assert fn.states.tolist() == [1, 2, 4]
    assert np.allclose(fn.values, np.diag([1.0, -1.0])[None])


def test_random_linear_fn_structure():
    states = measures.make_uniform_k_subsets(4, 2).support()
    fn, worst = random_linear_matrix_fn(4, states, 3, lipschitz=0.7, seed=3)
    assert worst <= 0.7 + 1e-12
    assert worst > 0.0
    # additivity over disjoint masks: F(x | y) = F(x) + F(y) by linearity
    table = {int(s): v for s, v in zip(fn.states, fn.values)}
    assert np.allclose(table[0b0011], table[0b0011])
    fn_full, _ = random_linear_matrix_fn(4, np.arange(16), 3, lipschitz=0.7, seed=3)
    full = {int(s): v for s, v in zip(fn_full.states, fn_full.values)}
    assert np.allclose(full[0], 0.0)
    assert np.allclose(full[0b0101], full[0b0001] + full[0b0100])


def test_random_observables_on_a_sub_list_are_the_full_lists_rows():
    """State x's table value reads stream (seed, x) and a linear F(x) is x's bits
    times the A_i of streams (seed, i), so any sub-list of states, in any order,
    draws the full list's rows bit for bit."""
    rng = np.random.default_rng(17)
    for n, d in ((5, 1), (8, 3), (10, 4)):
        states = np.arange(1 << n)
        table = random_matrix_fn(states, d, seed=n, norm_bound=2.0)
        linear, lip = random_linear_matrix_fn(n, states, d, 1.5, seed=n)
        for size in (1, 7, states.size // 2, states.size - 1):
            sub = rng.permutation(states)[:size]
            assert random_matrix_fn(sub, d, n, 2.0).values.tobytes() == \
                table.gather(sub).tobytes()
            part, part_lip = random_linear_matrix_fn(n, sub, d, 1.5, n)
            assert part.values.tobytes() == linear.gather(sub).tobytes()
            assert part_lip == lip


def test_random_values_have_norm_in_their_gain_range():
    """A table value has spectral norm in [0.2, 1] * scale, and a linear A_i in
    [0.5, 1] * L, so the returned Lipschitz constant lies there too."""
    for d in (1, 2, 5):
        for scale in (0.5, 1.0, 3.0):
            fn = random_matrix_fn(np.arange(200), d, seed=d, norm_bound=scale)
            nrm = np.abs(np.linalg.eigvalsh(fn.values)).max(axis=-1)
            assert (nrm >= 0.2 * scale * (1 - 1e-12)).all() and (nrm <= scale * (1 + 1e-12)).all()
            assert nrm.min() < 0.3 * scale and nrm.max() > 0.9 * scale
            fn, lip = random_linear_matrix_fn(12, 1 << np.arange(12), d, scale, seed=d)
            nrm = np.abs(np.linalg.eigvalsh(fn.values)).max(axis=-1)
            assert (nrm >= 0.5 * scale * (1 - 1e-12)).all() and (nrm <= scale * (1 + 1e-12)).all()
            assert lip == nrm.max()
    assert not random_matrix_fn(np.arange(3), 2, seed=1, norm_bound=0.0).values.any()


# ------------------------------------------------------------ mean/variance

def test_matrix_mean_and_variance_scalar_oracle():
    rng = np.random.default_rng(8)
    w = rng.dirichlet(np.ones(6))
    f = rng.standard_normal(6)
    vals = f[:, None, None] * np.eye(1)
    mean = matrix_mean(w, vals)[0, 0]
    var = matrix_variance(w, vals)[0, 0]
    assert mean == pytest.approx(float(w @ f))
    assert var == pytest.approx(float(w @ f**2 - (w @ f) ** 2))


def test_matrix_variance_constant_is_zero():
    vals = np.broadcast_to(np.diag([2.0, -1.0]), (4, 2, 2))
    w = np.full(4, 0.25)
    assert np.abs(matrix_variance(w, vals)).max() <= 1e-15


def test_matrix_variance_is_psd():
    rng = np.random.default_rng(4)
    for _ in range(25):
        w = rng.dirichlet(np.ones(5))
        vals = np.stack([np.eye(3) * 0 + (m + m.T) / 2
                         for m in rng.standard_normal((5, 3, 3))])
        assert np.linalg.eigvalsh(matrix_variance(w, vals)).min() >= -1e-12


# ------------------------------------------------------------ dirichlet form

def test_dirichlet_form_double_loop_oracle():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    fn = random_matrix_fn(w.states, 3, seed=1)
    vals = fn.gather(w.states)
    got = dirichlet_form(w, vals)
    m = w.states.size
    ref = np.zeros((3, 3))
    for x in range(m):
        for y in range(m):
            if x != y:
                d = vals[x] - vals[y]
                ref += 0.5 * w.pi[x] * w.rates[x, y] * (d @ d)
    assert np.abs(got - ref).max() <= 1e-12


def test_dirichlet_form_scalar_quadratic_identity():
    """For scalar f the half-sum convention reproduces <f, -Qf>_pi."""
    w = chains.hermon_salez(measures.make_uniform_k_subsets(5, 2))
    rng = np.random.default_rng(2)
    f = rng.standard_normal(w.states.size)
    vals = f[:, None, None] * np.eye(1)
    e = dirichlet_form(w, vals)[0, 0]
    assert e == pytest.approx(float((w.pi * f) @ (-w.rates @ f)))


def test_dirichlet_form_constant_zero():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(3, 1))
    vals = np.broadcast_to(np.diag([1.0, 5.0]), (3, 2, 2))
    assert np.abs(dirichlet_form(w, vals)).max() == 0.0


def out_of_place_dirichlet_form(gen, values) -> np.ndarray:
    """The Dirichlet form with a fresh array per step: the reference the
    in-place edge differences are checked against."""
    x, y = gen.edges
    flow = gen.pi[x] * gen.rates[x, y] + gen.pi[y] * gen.rates[y, x]
    diff = values[x] - values[y]
    weighted = diff * flow[:, None, None]
    d = values.shape[1]
    return 0.5 * (diff.transpose(1, 0, 2).reshape(d, -1) @ weighted.reshape(-1, d))


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_dirichlet_form_in_place_leaves_its_values(d):
    """d = 1 included: there the transposed differences are a view of them,
    so weighting them in place before the copy would corrupt the product."""
    w = chains.hermon_salez(measures.make_uniform_k_subsets(6, 3))
    values = random_matrix_fn(w.states, d, seed=d).gather(w.states)
    assert values.flags.writeable
    kept = values.copy()
    got = dirichlet_form(w, values)
    assert np.array_equal(values, kept)
    assert np.array_equal(got, out_of_place_dirichlet_form(w, kept))


def test_dirichlet_form_holds_few_edge_sized_arrays():
    """On uniform(10, 5) with d = 4 an edge-sized array is E d^2 8 bytes
    (403,200 for its 3,150 edges): the in-place differences peak at about 2.2
    of them, and out_of_place_dirichlet_form at 3.1."""
    w = chains.hermon_salez(measures.make_uniform_k_subsets(10, 5))
    values = random_matrix_fn(w.states, 4, seed=5).gather(w.states)
    edge_bytes = w.edges[0].size * 4 * 4 * 8
    peak, _ = peak_traced_bytes(lambda: dirichlet_form(w, values))
    assert peak <= 2.5 * edge_bytes


# ------------------------------------------------- two-level decompositions

def test_project_fn_uniform31():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(3, 1))
    dec = chains.decompose(w, 0)
    fn = MatrixFn.from_table({1: np.eye(1), 2: 2 * np.eye(1), 4: 4 * np.eye(1)})
    fhat = project_fn(dec, fn)
    # part 0 holds masks {2, 4} with equal conditional mass
    assert fhat.values[0][0, 0] == pytest.approx(3.0)
    assert fhat.values[1][0, 0] == pytest.approx(1.0)


def test_project_fn_of_constant_is_constant():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    dec = chains.decompose(w, 1)
    fn = MatrixFn.constant(w.states, np.diag([1.0, 2.0]))
    fhat = project_fn(dec, fn)
    assert np.allclose(fhat.values, np.diag([1.0, 2.0])[None])


def test_check_decompositions_two_state_scalar():
    g = two_state_gen(0.9, 0.4)
    dec = chains.decompose(g, 0)
    fn = MatrixFn.from_table({0: [[0.3]], 1: [[-1.2]]})
    res = check_decompositions(dec, fn)
    assert res.variance_residual <= 1e-12
    assert res.dirichlet_residual <= 1e-12


def test_check_decompositions_random_matrix(fixture_walks):
    for name in ["uniform_4_2", "trees_k4", "dpp_5", "bern_4"]:
        gen = fixture_walks[name]
        fn = random_matrix_fn(gen.states, 4, seed=name_seed(name))
        for ell in range(gen.n):
            bits = (gen.states >> ell) & 1
            if bits.min() == bits.max():
                continue
            dec = chains.decompose(gen, ell)
            res = check_decompositions(dec, fn)
            assert res.variance_residual <= 1e-10 * res.scale
            assert res.dirichlet_residual <= 1e-10 * res.scale


# -------------------------------------------------------------- spectral gap

def test_gap_two_state_closed_form():
    assert scalar_spectral_gap(two_state_gen(0.7, 0.4)) == pytest.approx(1.1)
    assert scalar_spectral_gap(two_state_gen(2.0, 3.0)) == pytest.approx(5.0)


def test_gap_complete_graph():
    for m in [3, 5, 8]:
        assert scalar_spectral_gap(complete_graph_gen(m)) == pytest.approx(1.0)


def test_gap_single_state_inf():
    g = chains.Generator(np.array([7]), np.zeros((1, 1)), np.array([1.0]), n=3)
    assert scalar_spectral_gap(g) == np.inf


def test_gap_reducible():
    rates = np.zeros((4, 4))
    rates[0, 1] = rates[1, 0] = 1.0
    rates[2, 3] = rates[3, 2] = 1.0
    np.fill_diagonal(rates, -rates.sum(axis=1))
    g = chains.Generator(np.arange(4), rates, np.full(4, 0.25))
    with pytest.raises(Reducible) as exc:
        scalar_spectral_gap(g)
    assert exc.value.components == 2


def test_gap_uniform31_value():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(3, 1))
    assert scalar_spectral_gap(w) == pytest.approx(1.5)


# ---------------------------------------------------------- poincare checks

def test_poincare_constant_function_passes():
    w = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    fn = MatrixFn.constant(w.states, np.diag([3.0, -2.0]))
    rep = check_matrix_poincare(w, fn, lam=10.0)
    assert rep.passed
    assert rep.witness is None


def observable_zoo(gen, d: int, seed: int) -> list:
    """Three random tables (norm bounds 1, 0.3 and 2), a linear observable where
    the states are cube masks, and a constant."""
    fns = [random_matrix_fn(gen.states, d, seed=seed + k, norm_bound=b)
           for k, b in enumerate((1.0, 0.3, 2.0))]
    if gen.n:
        fns.append(random_linear_matrix_fn(gen.n, gen.states, d, 1.0, seed)[0])
    return fns + [MatrixFn.constant(gen.states, np.eye(d))]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_observables_match_each_alone(fixture_walks, d):
    """An (N, m, d, d) stack gives, bit for bit, what each of its observables
    gives alone, and an observable alone what the stack of one gives."""
    for name, gen in fixture_walks.items():
        fns = observable_zoo(gen, d, name_seed(name))
        stack = MatrixFn(gen.states, np.stack([fn.values for fn in fns]))
        vals = stack.gather(gen.states)
        assert stack.dim == d and vals.shape == (len(fns), gen.states.size, d, d)
        lam = scalar_spectral_gap(gen)
        lams = lam * np.linspace(0.5, 1.5, len(fns))
        rep, reps = check_matrix_poincare(gen, stack, lams), []

        def fields(report):
            return [np.atleast_1d(x).tolist() for x in report[1:3] + report[4:5]]

        for k, fn in enumerate(fns):
            alone = fn.gather(gen.states)
            assert np.array_equal(vals[k], alone), name
            for f in (matrix_mean, matrix_variance):
                assert np.array_equal(f(gen.pi, vals)[k], f(gen.pi, alone)), (name, f)
            assert np.array_equal(dirichlet_form(gen, vals)[k], dirichlet_form(gen, alone)), name
            one = check_matrix_poincare(gen, MatrixFn(gen.states, alone[None]), lams[k])
            reps.append(check_matrix_poincare(gen, fn, lams[k]))
            assert fields(one) == fields(reps[-1]), name
        assert fields(rep) == [sum(x, []) for x in zip(*map(fields, reps))], name
        assert (rep.witness is None) == all(r.passed for r in reps), name


def test_poincare_scalar_reduction():
    """g(x) * I turns the matrix inequality into the scalar one, so the
    claim holds at the gap and fails just above it for the gap witness."""
    w = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    gap, fn = matrix_poincare_constant(w, 2)
    assert gap == scalar_spectral_gap(w)
    assert fn.states.tolist() == w.states.tolist()
    assert fn.dim == 2
    ok = check_matrix_poincare(w, fn, gap)
    assert ok.passed
    bad = check_matrix_poincare(w, fn, gap * 1.05)
    assert not bad.passed
    assert bad.min_eig_slack < 0.0
    assert bad.witness is fn


def test_poincare_random_fn_at_gap(fixture_walks):
    for name in ["uniform_3_1", "uniform_5_2", "trees_k3", "dpp_4", "cube_2"]:
        gen = fixture_walks[name]
        gap = scalar_spectral_gap(gen)
        fn = random_matrix_fn(gen.states, 3, seed=name_seed(name))
        rep = check_matrix_poincare(gen, fn, gap)
        assert rep.passed, (name, rep.min_eig_slack)


# ------------------------------------------------- matrix Poincare constant

def test_search_two_state_recovers_sum():
    g = two_state_gen(0.7, 0.4)
    found, _ = matrix_poincare_constant(g, 2)
    assert abs(found - 1.1) <= 1e-6


def test_search_complete_graph():
    found, _ = matrix_poincare_constant(complete_graph_gen(5), 2)
    assert abs(found - 1.0) <= 1e-6


def test_search_matches_scalar_gap_on_fixtures(fixture_walks):
    """The matrix constant cannot undercut the scalar gap and the scalar
    witness attains it, so the constant is the gap itself."""
    for name in ["uniform_3_1", "uniform_4_2", "trees_k3", "cube_2", "dpp_4"]:
        gen = fixture_walks[name]
        gap = scalar_spectral_gap(gen)
        found, witness = matrix_poincare_constant(gen, 2)
        assert found == gap, name
        assert check_matrix_poincare(gen, witness, found).passed, name
        assert not check_matrix_poincare(gen, witness, 1.05 * found).passed, name


def test_search_single_state():
    g = chains.Generator(np.array([0]), np.zeros((1, 1)), np.array([1.0]))
    assert matrix_poincare_constant(g, 2) == (np.inf, None)


# ----------------------------------------------------------------- round trip

def test_matrix_fn_json_roundtrip():
    fn = random_matrix_fn([1, 2, 4, 8], 3, seed=12)
    back = matrix_fn_from_json({
        "d": fn.dim, "values": [{"mask": int(s), "rows": mat.tolist()}
                                for s, mat in zip(fn.states, fn.values)]})
    assert back.states.tolist() == fn.states.tolist()
    assert np.allclose(back.values, fn.values)


def test_matrix_fn_json_shape_error():
    obj = {"d": 2, "values": [{"mask": 0, "rows": [[1.0]]}]}
    with pytest.raises(ValueError):
        matrix_fn_from_json(obj)
