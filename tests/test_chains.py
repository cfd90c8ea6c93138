import json

import numpy as np
import pytest

from srconc import chains, measures
from srconc.chains import (
    DetailedBalanceViolation,
    EmptyPart,
    Generator,
    InfeasibleCoupling,
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
    generator_to_json,
    hermon_salez,
    scp_coupling,
    split_generator,
    validate_generator,
)
from srconc.measures import NotNormalized, SubsetMeasure, ZeroMassEvent

from conftest import (
    K4_EDGES,
    K5_EDGES,
    WHEEL4_EDGES,
    adjacency,
    build_fixture_measures,
    coupling_entries,
    covers,
    dense_measure,
    marginal_deviation,
    random_projection_kernel,
)
from test_measures import reference_covers, reference_scp


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
    m = dense_measure(2, np.array([0.0, 0.5, 0.0, 0.5]))  # x0 is always 1
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
    assert [r.rates.tolist() for r in dec.restrictions] == [[[0.0]], [[0.0]]]
    assert not any(np.signbit(r.rates).any() for r in dec.restrictions)  # 0.0, not -0.0
    point = measures.Coupling(np.array([0]), np.array([0]), np.array([1.0]))
    assert chi(g, dec, point) == pytest.approx(1.0)
    assert crude_chi_bound(g, dec, point) == pytest.approx(1.0)


def test_chi_on_recursive_split():
    """The split construction makes pi(x)Q(x,y) = pihat0 pihat1 kappa(x,y)
    exactly, so chi equals 1 whatever feasible coupling is passed."""
    m = measures.make_uniform_k_subsets(2, 1)
    g = split_generator(m, 0)
    assert np.allclose(g.rates, [[-0.5, 0.5], [0.5, -0.5]])
    dec = decompose(g, 0)
    kap = scp_coupling(m, 0)
    assert dec.projection.rates[0, 1] == pytest.approx(dec.projection.pi[1])
    assert dec.projection.rates[1, 0] == pytest.approx(dec.projection.pi[0])
    assert chi(g, dec, kap) == pytest.approx(1.0)


def test_chi_on_recursive_split_uniform42():
    m = measures.make_uniform_k_subsets(4, 2)
    g = split_generator(m, 2)
    dec = decompose(g, 2)
    assert chi(g, dec, scp_coupling(m, 2)) == pytest.approx(1.0)


def test_chi_zero_on_off_rate_support():
    """Mass on a pair the generator never jumps across gives ratio 0, not
    an error: the coupling is feasible but useless."""
    g = flip_walk_cube2()
    dec = decompose(g, 0)
    # parts [0, 2] and [1, 3]: mass on the pairs (0, 3) and (2, 1)
    anti = measures.Coupling(np.array([0, 1]), np.array([1, 0]), np.array([0.5, 0.5]))
    assert [part.tolist() for part in dec.parts] == [[0, 2], [1, 3]]
    assert np.allclose(dec.projection.rates, [[-1.0, 1.0], [1.0, -1.0]])
    assert chi(g, dec, anti) == 0.0


def test_crude_bound_never_exceeds_chi_denominator_free_cases(fixture_measures):
    # on recursive splits both routes see the same support, and the crude
    # route drops the kappa factor, so it stays within a constant of chi
    for name in ["uniform_3_1", "uniform_4_2", "cube_2"]:
        m, _ = fixture_measures[name]
        g = split_generator(m, 0)
        dec = decompose(g, 0)
        kap = scp_coupling(m, 0)
        assert crude_chi_bound(g, dec, kap) > 0.0
        assert chi(g, dec, kap) > 0.0


def ref_entries(gen, dec, kappa):
    """The attached-couplings loop chi and crude_chi_bound replaced: kappa as
    the (0, 1) coupling and its transpose as (1, 0), one support entry at a
    time, as (i, j, x index, y index, mass)."""
    src = {int(s): i for i, s in enumerate(gen.states)}
    entries = coupling_entries(kappa)
    rows, cols = ([src[int(s)] for s in part] for part in dec.parts)
    for (a, b), mass in entries.items():
        yield 0, 1, rows[a], cols[b], mass
    for (a, b), mass in entries.items():
        yield 1, 0, cols[b], rows[a], mass


def ref_chi(gen, dec, kappa):
    qhat, pihat = dec.projection.rates, dec.projection.pi
    best = np.inf
    for i, j, x_idx, y_idx, mass in ref_entries(gen, dec, kappa):
        if qhat[i, j] <= 0.0:
            continue
        denom = pihat[i] * qhat[i, j] * mass
        num = gen.pi[x_idx] * gen.rates[x_idx, y_idx]
        best = min(best, num / denom)
    return float(best)


def ref_crude(gen, dec, kappa):
    qhat = dec.projection.rates
    best = np.inf
    for i, j, x_idx, y_idx, _ in ref_entries(gen, dec, kappa):
        if qhat[i, j] <= 0.0:
            continue
        forward = gen.rates[x_idx, y_idx] / qhat[i, j]
        backward = gen.rates[y_idx, x_idx] / qhat[j, i] if qhat[j, i] > 0.0 else 0.0
        best = min(best, max(forward, backward))
    return float(best)


def test_chi_matches_the_attached_couplings_loop_bit_for_bit(fixture_measures, fixture_walks):
    """On every non-constant split of the fixtures, of the normalized walk and
    of the split's own generator, both ratios equal the loop's bit for bit."""
    checked = 0
    for name, (m, _) in fixture_measures.items():
        for ell in range(m.n):
            bits = (m.support() >> ell) & 1
            if bits.min() == bits.max():
                continue
            kappa = scp_coupling(m, ell)
            for g in (fixture_walks[name], split_generator(m, ell)):
                dec = decompose(g, ell)
                for new, ref in ((chi, ref_chi), (crude_chi_bound, ref_crude)):
                    got, want = new(g, dec, kappa), ref(g, dec, kappa)
                    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), \
                        (name, ell, new.__name__, got, want)
                checked += 1
    assert checked > 100


# ------------------------------------------------------------ scp couplings

def scp_sides(m, ell):
    """(masks, conditional masses) of m's two sides of coordinate ell, in the
    order scp_coupling's rows and columns index them."""
    side = (m.masks >> ell) & 1 == 1
    return [(m.masks[sel], m.masses[sel] / m.masses[sel].sum()) for sel in (~side, side)]


def scp_pairs(m, ell, kap):
    """scp_coupling(m, ell) = kap as {(row mask, col mask): mass}."""
    (rows, _), (cols, _) = scp_sides(m, ell)
    return {(int(rows[i]), int(cols[j])): f for (i, j), f in coupling_entries(kap).items()}


def test_scp_coupling_swap_pair():
    m = measures.make_uniform_k_subsets(2, 1)
    kap = scp_coupling(m, 0)
    assert scp_pairs(m, 0, kap) == pytest.approx({(2, 1): 1.0})


def test_scp_coupling_cube_is_diagonal():
    """On the product measure the only admissible transport matches each
    row state with its bit-0 flip, giving the diagonal table."""
    m = measures.make_bernoulli_product([0.5, 0.5])
    kap = scp_coupling(m, 0)
    assert scp_pairs(m, 0, kap) == pytest.approx({(0, 1): 0.5, (2, 3): 0.5})
    (_, low), (_, high) = scp_sides(m, 0)
    assert marginal_deviation(kap, low, high) <= 1e-10


def test_scp_coupling_marginals_on_fixtures(fixture_measures):
    for name, (m, _) in fixture_measures.items():
        supp = m.support()
        for ell in range(m.n):
            bits = (supp >> ell) & 1
            if bits.min() == bits.max():
                continue
            kap = scp_coupling(m, ell)
            (_, low), (_, high) = scp_sides(m, ell)
            assert marginal_deviation(kap, low, high) <= 1e-9
            for x, y in scp_pairs(m, ell, kap):
                assert flip_swap_adjacent(x, y)


def test_scp_coupling_infeasible_on_two_point_mass():
    m = dense_measure(2, np.array([0.5, 0.0, 0.0, 0.5]))
    with pytest.raises(InfeasibleCoupling):
        scp_coupling(m, 0)


def test_scp_coupling_constant_coordinate():
    m = dense_measure(2, np.array([0.0, 0.5, 0.0, 0.5]))
    with pytest.raises(EmptyPart):
        scp_coupling(m, 0)


@pytest.mark.parametrize("m,ell,error,match", [
    *[(measures.make_uniform_k_subsets(4, 2), ell, ValueError,
       rf"^coordinate {ell} out of range for n=4$") for ell in (4, 64, 99, -1)],
    (SubsetMeasure(2, [1, 2], [0.7, 0.7]), 0, NotNormalized, "total mass"),
    *[(measures.make_uniform_k_subsets(4, 2), ell, measures.NotAnInteger,
       rf"^coordinate must be an integer, got {ell!r}$") for ell in (True, 1.5)],
])
def test_scp_coupling_checks_its_input_as_split_generator_does(m, ell, error, match):
    for solve in (scp_coupling, split_generator):
        with pytest.raises(error, match=match):
            solve(m, ell)


@pytest.mark.parametrize("ell,error", [(True, measures.NotAnInteger),
                                       (1.5, measures.NotAnInteger),
                                       (-1, ValueError), (4, ValueError)])
def test_every_coordinate_user_refuses_what_as_coordinate_refuses(ell, error):
    """decompose, scp_coupling, split_generator and measures.condition read a
    coordinate through measures.as_coordinate: the same error and message."""
    m = measures.make_uniform_k_subsets(4, 2)
    with pytest.raises(error) as rule:
        measures.as_coordinate(ell, 4)
    for use in (lambda: decompose(hermon_salez(m), ell), lambda: scp_coupling(m, ell),
                lambda: split_generator(m, ell), lambda: measures.condition(m, [ell], [0])):
        with pytest.raises(error) as got:
            use()
        assert str(got.value) == str(rule.value)


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
    m = dense_measure(2, np.array([0.0, 0.5, 0.0, 0.5]))
    g = split_generator(m, 0)
    assert g.states.tolist() == [1, 3]
    assert np.allclose(g.rates, [[-0.5, 0.5], [0.5, -0.5]])
    w = hermon_salez(m)
    assert np.allclose(w.rates, [[-1.0, 1.0], [1.0, -1.0]])


# split_generator's rates on the free coordinates 0 and 3 of this product,
# pinned from the lattice that still kept a branch for a constant coordinate
PRODUCT_SPLITS = {
    0: [[-1.0, 0.3, 0.7, 0.0], [0.7, -1.4, 0.0, 0.7],
        [0.30000000000000004, 0.0, -0.6000000000000001, 0.30000000000000004],
        [0.0, 0.30000000000000004, 0.7, -1.0]],
    3: [[-0.9999999999999998, 0.3, 0.6999999999999998, 0.0], [0.7, -1.4, 0.0, 0.7],
        [0.30000000000000004, 0.0, -0.6000000000000001, 0.3], [0.0, 0.3, 0.7, -1.0]],
}


def test_split_on_a_fixed_coordinate_is_the_measures_own_walk():
    """A coordinate the measure fixes splits into the measure's own walk,
    flip_swap_average bit for bit; a free coordinate keeps its split."""
    m = measures.make_bernoulli_product([0.3, 1.0, 0.0, 0.7])
    walk = flip_swap_average(m)
    for ell in range(m.n):
        g = split_generator(m, ell)
        assert np.array_equal(g.states, m.masks) and np.array_equal(g.pi, walk.pi)
        if ell in PRODUCT_SPLITS:
            assert g.rates.tolist() == PRODUCT_SPLITS[ell], ell
        else:
            assert np.array_equal(g.rates, walk.rates), ell


def test_validate_names_the_first_negative_rate_in_row_major_order():
    """The sign check reads the edges in both directions; its message still
    names the first least rate of the whole table, row by row."""
    q = np.array([[-0.5, 0.0, 0.0, 0.5],
                  [-0.5, 0.5, 0.0, 0.0],
                  [0.0, 0.0, 0.5, -0.5],
                  [0.5, 0.0, 0.5, -1.0]])
    g = Generator(np.arange(4), q, np.full(4, 0.25), n=2)
    with pytest.raises(NegativeRate, match=r"^rate np.float64\(-0.5\) at \(1,0\)$"):
        validate_generator(g)


def test_walk_point_mass_is_zero():
    m = dense_measure(2, np.array([0.0, 0.0, 1.0, 0.0]))
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
    for a, x in enumerate(gen.states.tolist()):
        for b, y in enumerate(gen.states.tolist()):
            if a != b and gen.rates[a, b] > 0.0:
                assert flip_swap_adjacent(x, y)
    assert np.allclose(gen.pi, m.masses[m.masses > 0.0])


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

    for name in ("_rates", "_split_rates", "_lift", "_generator", "Generator"):
        monkeypatch.setattr(chains, name, refuse)
    trees = measures.make_spanning_tree_measure(K4_EDGES)
    assert chains.scp_check(trees).satisfied
    two_point = dense_measure(2, np.array([0.5, 0.0, 0.0, 0.5]))
    result = chains.scp_check(two_point)
    assert not result.satisfied and result.witness == ((0,), (1,), (0,))
    with pytest.raises(Assembled):
        flip_swap_average(trees)


@pytest.mark.parametrize("edges,nodes", [(K4_EDGES, 16), (WHEEL4_EDGES, 70),
                                         (K5_EDGES, 85)], ids=["K4", "wheel4", "K5"])
def test_lattice_keeps_one_node_per_orbit(edges, nodes):
    """Conditionals that are relabellings of each other under the root's
    automorphisms share a node, and a conditional that fixes coordinates
    reads the node of the event that fixes them too.  Merging by content
    alone kept 48, 318 and 1,579 nodes on these three measures, and a node
    per way of dropping the fixed bits kept 23, 143 and 183."""
    m = measures.make_spanning_tree_measure(edges)
    lattice = chains._Lattice(m)
    chains._visit(m, m, (0, 0), lattice, chains._key(m))
    assert len(lattice.nodes) == nodes


def with_fixed_bit(m: SubsetMeasure, pos: int, bit: int) -> SubsetMeasure:
    """m with a coordinate inserted at pos that every mask has equal to bit;
    the masks stay ascending and the masses are m's own."""
    low = m.masks & ((1 << pos) - 1)
    return SubsetMeasure(m.n + 1, (m.masks - low) << 1 | bit << pos | low, m.masses)


@pytest.mark.parametrize("make", [
    lambda: measures.make_spanning_tree_measure(K4_EDGES),
    lambda: measures.make_spanning_tree_measure(WHEEL4_EDGES),
    lambda: measures.make_uniform_k_subsets(6, 3),
    lambda: measures.make_projection_dpp(random_projection_kernel(6, 3, 7)),
], ids=["K4", "wheel4", "uniform63", "dpp63"])
def test_a_fixed_coordinate_leaves_the_walk_unchanged(make):
    """A coordinate the measure fixes splits into the measure's own walk, so
    the average over all coordinates equals the one over the free ones:
    adding it changes no rate, bit for bit."""
    m = make()
    rates = flip_swap_average(m).rates
    for pos in (0, 3, m.n):
        for bit in (0, 1):
            assert np.array_equal(flip_swap_average(with_fixed_bit(m, pos, bit)).rates,
                                  rates), (pos, bit)


def reference_walk(m: SubsetMeasure, w: SubsetMeasure) -> np.ndarray:
    """Off-diagonal raw flip-swap rates of the conditional m of w (the root
    restricted to its event, as measures.halves returns it), straight from
    the definition: the uniform average over all m.n coordinates of the split
    rates, a constant coordinate's split being the conditional's own walk.
    No lattice, memo or group; the covering pairs come from the table."""
    acc = np.zeros((m.masks.size, m.masks.size))
    if m.masks.size == 1:
        return acc
    for ell in range(m.n):
        sides = measures.halves(w, ell)
        if None in sides:
            side = next(side for side in sides if side is not None)
            acc += reference_walk(measures.conditional(side), side)
            continue
        bit = (m.masks >> ell) & 1 == 1
        parts = [np.flatnonzero(~bit), np.flatnonzero(bit)]
        low, high = map(measures.conditional, sides)
        for kid, side, pos in zip((low, high), sides, parts):
            acc[np.ix_(pos, pos)] += reference_walk(kid, side)
        kappa, _ = measures.feasible_coupling(
            low.masses, high.masses, adjacency(covers(low.masks[:, None], high.masks[None, :])))
        cross = m.masses[parts[0]].sum() * m.masses[parts[1]].sum()
        x, y = parts[0][kappa.row], parts[1][kappa.col]
        acc[x, y] += cross * kappa.mass / m.masses[x]
        acc[y, x] += cross * kappa.mass / m.masses[y]
    return acc / m.n


@pytest.mark.parametrize("name", FIXTURES)
def test_walk_matches_the_reference_recursion(name, fixture_measures, monkeypatch):
    """With the identity group, the lattice walk over free coordinates is the
    definition's average over every coordinate, up to summation order."""
    m, _ = fixture_measures[name]
    monkeypatch.setattr(chains, "automorphisms", lambda m: np.arange(m.n)[None])
    q = flip_swap_average(m).rates.copy()
    np.fill_diagonal(q, 0.0)
    ref = reference_walk(m, m)
    assert np.array_equal(q != 0.0, ref != 0.0)
    assert np.abs(q - ref).max() <= 1e-14 * np.abs(ref).max()


def test_scp_check_accepts_k6_trees():
    k6 = measures.make_spanning_tree_measure([(a, b) for a in range(6)
                                              for b in range(a + 1, 6)])
    assert k6.n == measures.SCP_LIMIT
    assert chains.scp_check(k6).satisfied


def rotation_invariant(seed: int) -> SubsetMeasure:
    """A seeded measure on 4 or 5 coordinates whose masses depend only on
    the rotation class of the mask, bit for bit: iid product masses times a
    random factor per class.  It has the cyclic automorphisms and is mostly
    not SCP."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 6))
    masks = np.arange(1 << n)
    cls = np.min([sum(((masks >> i) & 1) << ((i + s) % n) for i in range(n))
                  for s in range(n)], axis=0)
    p, size = rng.uniform(0.2, 0.8), measures.popcount(masks)
    probs = (p ** size * (1.0 - p) ** (n - size)
             * np.exp(rng.normal(0.0, rng.uniform(0.01, 0.3), 1 << n))[cls])
    return dense_measure(n, probs / probs.sum())


def test_scp_witness_sound_on_symmetric_measures(monkeypatch):
    """Verdicts match the brute force, and each witness names conditionals
    that do not cover.  On seeds 6, 25, 92 and 120 the first failing
    coupling lies below a conditional that reads a relabelled node, so the
    witness is the node's own event, not the one the recursion met (which
    the identity group alone reports): a relabelling, in root coordinates."""
    relabelled = set()
    for seed in [*range(40), 92, 120]:
        m = rotation_invariant(seed)
        assert len(measures.automorphisms(m)) >= m.n
        result = chains.scp_check(m)
        assert bool(result) == reference_scp(m), seed
        with monkeypatch.context() as patch:
            patch.setattr(chains, "automorphisms", lambda m: np.arange(m.n)[None])
            plain = chains.scp_check(m)
        assert bool(plain) == bool(result)
        for witness in (result.witness, plain.witness) if not result else ():
            coords, x_bits, y_bits = witness
            assert list(coords) == sorted(coords)
            assert sum(x_bits) == sum(y_bits) + 1
            assert reference_covers(measures.condition(m, coords, y_bits),
                                    measures.condition(m, coords, x_bits)) is None, seed
        if plain.witness != result.witness:
            relabelled.add(seed)
    assert relabelled == {6, 25, 92, 120}


def test_cube2_gap_meets_product_bound():
    w = hermon_salez(measures.make_bernoulli_product([0.5, 0.5]))
    d = np.sqrt(w.pi)
    s = -0.5 * (d[:, None] * w.rates / d[None, :]
                + (d[:, None] * w.rates / d[None, :]).T)
    gap = np.sort(np.linalg.eigvalsh(s))[1]
    assert gap >= 0.5 - 1e-10


# ----------------------------------------------------------------- round trip

def test_generator_json_roundtrip():
    """build-walk's payload: the walk's states, pi and Q, exact through JSON text."""
    w = hermon_salez(measures.make_uniform_k_subsets(4, 2))
    obj = json.loads(json.dumps(generator_to_json(w)))
    back = Generator(np.array(obj["states"]), np.array(obj["Q"]), np.array(obj["pi"]), n=4)
    validate_generator(back)
    assert back.states.tolist() == w.states.tolist()
    assert np.array_equal(back.rates, w.rates)
    assert np.array_equal(back.pi, w.pi)
