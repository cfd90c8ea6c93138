import numpy as np
import pytest

from srconc import chains, measures
from srconc.chains import (
    DetailedBalanceViolation,
    EmptyPart,
    Generator,
    InfeasibleCoupling,
    MissingCoupling,
    NegativeRate,
    NonFiniteGenerator,
    NotOnCube,
    RowSumViolation,
    chi,
    crude_chi_bound,
    decompose,
    delta,
    flip_swap_adjacent,
    flip_swap_average,
    generator_from_json,
    generator_to_json,
    hermon_salez,
    scp_coupling,
    split_generator,
    validate_generator,
)
from srconc.measures import SubsetMeasure, ZeroMassEvent

from conftest import K4_EDGES, build_fixture_measures


def two_state_gen(a: float, b: float) -> Generator:
    """Rates a: 0->1 and b: 1->0 with the matching reversible law."""
    pi = np.array([b, a]) / (a + b)
    rates = np.array([[-a, a], [b, -b]])
    return Generator(np.array([0, 1]), rates, pi, n=1)


def flip_walk_cube2() -> Generator:
    # single-bit flips at rate 1 on the full two-cube, uniform law
    rates = np.zeros((4, 4))
    for x in range(4):
        for y in range(4):
            if bin(x ^ y).count("1") == 1:
                rates[x, y] = 1.0
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return Generator(np.arange(4), rates, np.full(4, 0.25), n=2)


# ---------------------------------------------------------------- adjacency

def test_flip_swap_truth_table():
    assert not flip_swap_adjacent(0, 0)
    assert not flip_swap_adjacent(5, 5)
    assert flip_swap_adjacent(1, 0)      # flip a bit off
    assert flip_swap_adjacent(0, 8)      # flip a bit on
    assert flip_swap_adjacent(1, 2)      # move the set bit
    assert flip_swap_adjacent(2, 1)
    assert flip_swap_adjacent(5, 3)      # 101 -> 011 moves bit 2 to bit 1
    assert not flip_swap_adjacent(3, 0)  # two bits change, none survives
    assert not flip_swap_adjacent(7, 1)  # two set bits drop
    assert not flip_swap_adjacent(15, 0)


def test_flip_swap_symmetry_small_masks():
    for x in range(16):
        for y in range(16):
            assert flip_swap_adjacent(x, y) == flip_swap_adjacent(y, x)


# --------------------------------------------------------------- validation

def test_delta_zero_and_two_state():
    g = two_state_gen(0.7, 0.2)
    assert delta(g) == 0.7
    z = Generator(np.array([3]), np.zeros((1, 1)), np.array([1.0]), n=2)
    assert delta(z) == 0.0


def test_validate_accepts_two_state():
    validate_generator(two_state_gen(1.3, 0.4))


def test_validate_negative_rate():
    g = Generator(np.array([0, 1]), np.array([[1.0, -1.0], [2.0, -2.0]]),
                  np.array([0.5, 0.5]), n=1)
    with pytest.raises(NegativeRate):
        validate_generator(g)


@pytest.mark.parametrize("rates,pi", [
    ([[-1.0, 1.0], [np.nan, -1.0]], [0.5, 0.5]),
    ([[-np.inf, np.inf], [1.0, -1.0]], [0.5, 0.5]),
    ([[-1.0, 1.0], [1.0, -1.0]], [np.nan, 0.5]),
], ids=["nan-rate", "inf-rate", "nan-pi"])
def test_validate_rejects_non_finite(rates, pi):
    g = Generator(np.array([0, 1]), np.array(rates), np.array(pi), n=1)
    with pytest.raises(NonFiniteGenerator):
        validate_generator(g)
    with pytest.raises(NonFiniteGenerator):
        generator_from_json({"states": [0, 1], "Q": rates, "pi": pi}, n=1)


def test_validate_row_sums():
    g = Generator(np.array([0, 1]), np.array([[-1.0, 2.0], [1.0, -1.0]]),
                  np.array([0.5, 0.5]), n=1)
    with pytest.raises(RowSumViolation):
        validate_generator(g)


def test_validate_detailed_balance():
    g = Generator(np.array([0, 1]), np.array([[-1.0, 1.0], [2.0, -2.0]]),
                  np.array([0.5, 0.5]), n=1)
    with pytest.raises(DetailedBalanceViolation):
        validate_generator(g)


def test_validate_zero_mass():
    g = Generator(np.array([0, 1]), np.zeros((2, 2)), np.array([1.0, 0.0]), n=1)
    with pytest.raises(ZeroMassEvent):
        validate_generator(g)


def test_generator_shape_checks():
    with pytest.raises(ValueError):
        Generator(np.array([0, 1]), np.zeros((3, 3)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Generator(np.array([0, 1]), np.zeros((2, 2)), np.array([1.0]))


# ------------------------------------------------------------ decomposition

def test_decompose_uniform31():
    """Split of the 3-state walk on coordinate 0: the conditioned masses
    are 2/3 and 1/3 and the projection rates follow from the flow sums."""
    w = hermon_salez(measures.make_uniform_k_subsets(3, 1))
    dec = decompose(w, 0)
    assert dec.parts[0].tolist() == [2, 4]
    assert dec.parts[1].tolist() == [1]
    assert np.allclose(dec.projection.pi, [2 / 3, 1 / 3])
    assert np.allclose(dec.projection.rates, [[-0.5, 0.5], [1.0, -1.0]])
    # rows of the projection cancel exactly because the diagonal uses the
    # same flow formula as the off-diagonal
    assert np.abs(dec.projection.rates.sum(axis=1)).max() <= 1e-12
    validate_generator(dec.projection)
    r0 = dec.restrictions[0]
    assert r0.states.tolist() == [2, 4]
    assert np.allclose(r0.rates, [[-0.5, 0.5], [0.5, -0.5]])
    assert np.allclose(r0.pi, [0.5, 0.5])
    validate_generator(r0)
    validate_generator(dec.restrictions[1])


def test_decompose_two_state_is_identity():
    g = two_state_gen(0.9, 0.35)
    dec = decompose(g, 0)
    assert np.allclose(dec.projection.rates, g.rates)
    assert np.allclose(dec.projection.pi, g.pi)


def test_decompose_projection_reversible_on_fixtures(fixture_walks):
    for name, gen in fixture_walks.items():
        for ell in range(gen.n):
            bits = (gen.states >> ell) & 1
            if bits.min() == bits.max():
                continue
            dec = decompose(gen, ell)
            validate_generator(dec.projection)
            assert np.abs(dec.projection.rates.sum(axis=1)).max() <= 1e-12


def test_decompose_requires_cube():
    g = Generator(np.array([0, 1]), np.array([[-1.0, 1.0], [1.0, -1.0]]),
                  np.array([0.5, 0.5]))
    with pytest.raises(NotOnCube):
        decompose(g, 0)


def test_decompose_empty_part():
    m = SubsetMeasure(2, np.array([0.0, 0.5, 0.0, 0.5]))  # x0 is always 1
    w = hermon_salez(m)
    with pytest.raises(EmptyPart):
        decompose(w, 0)
    with pytest.raises(ValueError):
        decompose(w, 5)


# -------------------------------------------------------- coupling quality

def test_chi_two_state_singletons():
    """Singleton parts force the point-mass coupling and the ratio is 1."""
    g = two_state_gen(1.7, 0.6)
    dec = decompose(g, 0)
    point = measures.CouplingTable(np.array([0]), np.array([1]),
                                   np.array([[1.0]]), np.array([1.0]),
                                   np.array([1.0]), np.array([[True]]))
    dec.couplings[(0, 1)] = point
    dec.couplings[(1, 0)] = point.transpose()
    assert chi(g, dec) == pytest.approx(1.0)
    assert crude_chi_bound(g, dec) == pytest.approx(1.0)


def test_chi_on_recursive_split():
    """The split construction makes pi(x)Q(x,y) = pihat0 pihat1 kappa(x,y)
    exactly, so chi equals 1 whatever feasible coupling is attached."""
    m = measures.make_uniform_k_subsets(2, 1)
    g = split_generator(m, 0)
    assert np.allclose(g.rates, [[-0.5, 0.5], [0.5, -0.5]])
    dec = decompose(g, 0)
    kap = scp_coupling(m, 0)
    dec.couplings[(0, 1)] = kap
    dec.couplings[(1, 0)] = kap.transpose()
    assert dec.projection.rates[0, 1] == pytest.approx(dec.projection.pi[1])
    assert dec.projection.rates[1, 0] == pytest.approx(dec.projection.pi[0])
    assert chi(g, dec) == pytest.approx(1.0)


def test_chi_on_recursive_split_uniform42():
    m = measures.make_uniform_k_subsets(4, 2)
    g = split_generator(m, 2)
    dec = decompose(g, 2)
    kap = scp_coupling(m, 2)
    dec.couplings[(0, 1)] = kap
    dec.couplings[(1, 0)] = kap.transpose()
    assert chi(g, dec) == pytest.approx(1.0)


def test_chi_missing_coupling():
    g = two_state_gen(1.0, 1.0)
    dec = decompose(g, 0)
    with pytest.raises(MissingCoupling):
        chi(g, dec)


def test_chi_zero_on_off_rate_support():
    """Mass on a pair the generator never jumps across gives ratio 0, not
    an error: the coupling is feasible but useless."""
    g = flip_walk_cube2()
    dec = decompose(g, 0)
    anti = measures.CouplingTable(
        np.array([0, 2]), np.array([1, 3]),
        np.array([[0.0, 0.5], [0.5, 0.0]]),
        np.array([0.5, 0.5]), np.array([0.5, 0.5]),
        np.array([[False, True], [True, False]]))
    dec.couplings[(0, 1)] = anti
    dec.couplings[(1, 0)] = anti.transpose()
    assert np.allclose(dec.projection.rates, [[-1.0, 1.0], [1.0, -1.0]])
    assert chi(g, dec) == 0.0


def test_crude_bound_never_exceeds_chi_denominator_free_cases(fixture_measures):
    # on recursive splits both routes see the same support, and the crude
    # route drops the kappa factor, so it stays within a constant of chi
    for name in ["uniform_3_1", "uniform_4_2", "cube_2"]:
        m, _ = fixture_measures[name]
        g = split_generator(m, 0)
        dec = decompose(g, 0)
        kap = scp_coupling(m, 0)
        dec.couplings[(0, 1)] = kap
        dec.couplings[(1, 0)] = kap.transpose()
        assert crude_chi_bound(g, dec) > 0.0
        assert chi(g, dec) > 0.0


# ------------------------------------------------------------ scp couplings

def test_scp_coupling_swap_pair():
    kap = scp_coupling(measures.make_uniform_k_subsets(2, 1), 0)
    assert kap.rows.tolist() == [2]
    assert kap.cols.tolist() == [1]
    assert np.allclose(kap.mass, [[1.0]])


def test_scp_coupling_cube_is_diagonal():
    """On the product measure the only admissible transport matches each
    row state with its bit-0 flip, giving the diagonal table."""
    kap = scp_coupling(measures.make_bernoulli_product([0.5, 0.5]), 0)
    assert kap.rows.tolist() == [0, 2]
    assert kap.cols.tolist() == [1, 3]
    assert np.allclose(kap.mass, [[0.5, 0.0], [0.0, 0.5]])
    assert kap.max_marginal_deviation() <= 1e-10
    assert kap.off_support_mass() == 0.0


def test_scp_coupling_marginals_on_fixtures(fixture_measures):
    for name, (m, _) in fixture_measures.items():
        supp = m.support()
        for ell in range(m.n):
            bits = (supp >> ell) & 1
            if bits.min() == bits.max():
                continue
            kap = scp_coupling(m, ell)
            assert kap.max_marginal_deviation() <= 1e-9
            for i, x in enumerate(kap.rows.tolist()):
                for j, y in enumerate(kap.cols.tolist()):
                    if kap.mass[i, j] > 0.0:
                        assert flip_swap_adjacent(x, y)


def test_scp_coupling_infeasible_on_two_point_mass():
    m = SubsetMeasure(2, np.array([0.5, 0.0, 0.0, 0.5]))
    with pytest.raises(InfeasibleCoupling):
        scp_coupling(m, 0)


def test_scp_coupling_constant_coordinate():
    m = SubsetMeasure(2, np.array([0.0, 0.5, 0.0, 0.5]))
    with pytest.raises(EmptyPart):
        scp_coupling(m, 0)


# -------------------------------------------------------------- walk values

def test_walk_uniform21():
    m = measures.make_uniform_k_subsets(2, 1)
    raw = flip_swap_average(m)
    assert np.allclose(raw.rates, [[-0.5, 0.5], [0.5, -0.5]])
    w = hermon_salez(m)
    assert np.allclose(w.rates, [[-1.0, 1.0], [1.0, -1.0]])
    gaps = np.sort(np.linalg.eigvalsh(-w.rates))
    assert gaps[1] == pytest.approx(2.0)


def test_walk_uniform31_rates():
    """Hand average for n=3, k=1: a pair of singletons meets two cross
    splits at rate 1/3 and one within split at rate 1/2, so the averaged
    rate is 7/18 and the exit rate 7/9."""
    m = measures.make_uniform_k_subsets(3, 1)
    raw = flip_swap_average(m)
    off = raw.rates[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 7 / 18)
    assert delta(raw) == pytest.approx(7 / 9)
    w = hermon_salez(m)
    off = w.rates[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.5)
    gap = np.sort(np.linalg.eigvalsh(-0.5 * (w.rates + w.rates.T)))[1]
    assert gap == pytest.approx(1.5)


def test_walk_single_coordinate_bernoulli():
    # rates are the opposite conditioned masses before normalization
    for q in [0.3, 0.5, 0.82]:
        raw = flip_swap_average(measures.make_bernoulli_product([q]))
        assert raw.states.tolist() == [0, 1]
        assert raw.rates[0, 1] == pytest.approx(q)
        assert raw.rates[1, 0] == pytest.approx(1.0 - q)


def test_walk_degenerate_coordinate():
    """A constant coordinate contributes the lifted walk of its single
    conditional rather than killing the construction."""
    m = SubsetMeasure(2, np.array([0.0, 0.5, 0.0, 0.5]))
    g = split_generator(m, 0)
    assert g.states.tolist() == [1, 3]
    assert np.allclose(g.rates, [[-0.5, 0.5], [0.5, -0.5]])
    w = hermon_salez(m)
    assert np.allclose(w.rates, [[-1.0, 1.0], [1.0, -1.0]])


def test_walk_point_mass_is_zero():
    m = SubsetMeasure(2, np.array([0.0, 0.0, 1.0, 0.0]))
    w = hermon_salez(m)
    assert w.states.tolist() == [2]
    assert np.all(w.rates == 0.0)


def test_split_generator_rejects_bad_coordinate():
    m = measures.make_uniform_k_subsets(3, 1)
    with pytest.raises(ValueError):
        split_generator(m, 3)


# ---------------------------------------------------------- walk invariants

FIXTURES = sorted(build_fixture_measures())


@pytest.mark.parametrize("name", FIXTURES)
def test_split_delta_at_most_n(name, fixture_measures):
    m, _ = fixture_measures[name]
    supp = m.support()
    for ell in range(m.n):
        bits = (supp >> ell) & 1
        g = split_generator(m, ell)
        assert delta(g) <= m.n + 1e-10
        validate_generator(g)


@pytest.mark.parametrize("name", FIXTURES)
def test_average_delta_at_most_2k(name, fixture_measures):
    m, k = fixture_measures[name]
    raw = flip_swap_average(m)
    validate_generator(raw)
    if measures.homogeneity_degree(m) is not None:
        assert delta(raw) <= 2.0 * k + 1e-10
    assert delta(raw) <= m.n + 1e-10


@pytest.mark.parametrize("name", FIXTURES)
def test_normalized_walk_contract(name, fixture_measures, fixture_walks):
    m, _ = fixture_measures[name]
    gen = fixture_walks[name]
    validate_generator(gen)
    assert delta(gen) <= 1.0 + 1e-10
    idx = gen.index_of()
    for a, x in enumerate(gen.states.tolist()):
        for b, y in enumerate(gen.states.tolist()):
            if a != b and gen.rates[a, b] > 0.0:
                assert flip_swap_adjacent(x, y)
    assert np.allclose(gen.pi, m.probs[m.support()])


def test_walk_memoization_consistency():
    # the memo key is content (n, masks, masses); two calls must agree entry for entry
    m = measures.make_uniform_k_subsets(5, 2)
    a = flip_swap_average(m)
    b = flip_swap_average(m)
    assert np.array_equal(a.rates, b.rates)


@pytest.mark.parametrize("n,k,solves", [(10, 5, 25), (12, 6, 36)])
def test_coupling_solved_once_per_pair_of_conditionals(monkeypatch, n, k, solves):
    # uniform(10,5) meets 150 splits but only 25 distinct (low, high) pairs
    calls = []
    solve = chains.feasible_coupling

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(chains, "feasible_coupling", counted)
    m = measures.make_uniform_k_subsets(n, k)
    assert chains.scp_check(m).satisfied
    assert len(calls) == solves
    flip_swap_average(m)
    assert len(calls) == 2 * solves


def test_scp_check_assembles_no_generator(monkeypatch):
    class Assembled(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Assembled

    for name in ("_assemble", "_add_split", "_generator", "Generator"):
        monkeypatch.setattr(chains, name, refuse)
    trees = measures.make_spanning_tree_measure(K4_EDGES)
    assert chains.scp_check(trees).satisfied
    two_point = SubsetMeasure(2, np.array([0.5, 0.0, 0.0, 0.5]))
    result = chains.scp_check(two_point)
    assert not result.satisfied and result.witness == ((0,), (1,), (0,))
    with pytest.raises(Assembled):
        flip_swap_average(trees)


def test_cube2_gap_meets_product_bound():
    w = hermon_salez(measures.make_bernoulli_product([0.5, 0.5]))
    d = np.sqrt(w.pi)
    s = -0.5 * (d[:, None] * w.rates / d[None, :]
                + (d[:, None] * w.rates / d[None, :]).T)
    gap = np.sort(np.linalg.eigvalsh(s))[1]
    assert gap >= 0.5 - 1e-10


# ----------------------------------------------------------------- round trip

def test_generator_json_roundtrip():
    w = hermon_salez(measures.make_uniform_k_subsets(4, 2))
    back = generator_from_json(generator_to_json(w), n=4)
    assert back.states.tolist() == w.states.tolist()
    assert np.allclose(back.rates, w.rates)
    assert np.allclose(back.pi, w.pi)
    assert back.n == 4


def test_generator_json_validates():
    obj = {"states": [0, 1], "pi": [0.5, 0.5], "Q": [[-1.0, 2.0], [1.0, -1.0]]}
    with pytest.raises(RowSumViolation):
        generator_from_json(obj)
