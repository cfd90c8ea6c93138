import itertools
import math
import re
import signal
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from srconc import inputs, measures
from srconc.chains import ScpResult, scp_check
from srconc.measures import (
    DisconnectedGraph,
    MaskOutOfRange,
    NegativeMass,
    NotAProjection,
    NotNormalized,
    StateSpaceTooLarge,
    SubsetMeasure,
    ZeroMassEvent,
    automorphisms,
    condition,
    generating_polynomial,
    homogeneity_degree,
    make_bernoulli_product,
    make_projection_dpp,
    make_spanning_tree_measure,
    make_uniform_k_subsets,
    popcount,
    validate,
)
from conftest import (
    C5_EDGES,
    K3_EDGES,
    K4_EDGES,
    K5_EDGES,
    WHEEL4_EDGES,
    adjacency,
    coupling_entries,
    covers,
    dense_measure,
    is_spanning_tree,
    marginal_deviation,
    peak_traced_bytes,
    random_projection_kernel,
)


def test_validate_accepts_normalized_pair():
    validate(dense_measure(1, np.array([0.5, 0.5])))


def test_validate_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        validate(dense_measure(1, np.array([0.7, 0.4])))


def test_validate_rejects_negative_mass():
    with pytest.raises(NegativeMass):
        validate(dense_measure(1, np.array([-0.1, 1.1])))


def test_validate_rejects_non_finite_mass():
    with pytest.raises(NotNormalized):
        validate(dense_measure(1, np.array([np.nan, 0.5])))
    with pytest.raises(NotNormalized):
        validate(dense_measure(2, np.array([0.0, np.nan, np.nan, 1.0])))
    with pytest.raises(NotNormalized):
        validate(dense_measure(1, np.array([np.inf, 0.5])))
    with pytest.raises(NegativeMass):
        validate(dense_measure(1, np.array([-np.inf, 0.5])))


@pytest.mark.parametrize("masks,match", [([5, 3, 6], "ascending and distinct"),
                                         ([3, 3, 5], "ascending and distinct"),
                                         ([3, 5, 40], r"in \[0, 8\) for n=3"),
                                         ([-1, 3, 5], r"in \[0, 8\) for n=3")])
def test_validate_refuses_a_support_out_of_order_or_range(masks, match):
    with pytest.raises(MaskOutOfRange, match=match):
        validate(SubsetMeasure(3, masks, np.full(3, 1.0 / 3.0)))


def test_validate_refuses_a_mask_stored_with_mass_0():
    """A stored zero mass is refused by name: conditional would divide 0 by 0
    on it, and scp_check read the measure as not SCP although without the
    entry it is."""
    with pytest.raises(ZeroMassEvent, match=r"^mask 0x6 is stored with mass 0$"):
        validate(SubsetMeasure(3, [3, 5, 6], [0.5, 0.5, 0.0]))
    with pytest.raises(ZeroMassEvent, match="mask 0x6"):
        scp_check(SubsetMeasure(3, [3, 5, 6], [0.5, 0.5, 0.0]))
    assert scp_check(SubsetMeasure(3, [3, 5], [0.5, 0.5])) == ScpResult(True, None)
    with pytest.raises(ZeroMassEvent, match="mask 0x0"):
        validate(SubsetMeasure(1, [0, 1], [-0.0, 1.0]))


def test_component_count():
    assert measures.component_count(4, K4_EDGES) == 1
    assert measures.component_count(4, [(0, 1), (2, 3)]) == 2
    assert measures.component_count(5, [(0, 1), (1, 0)]) == 4
    assert measures.component_count(3, []) == 3


def test_component_count_on_a_long_path():
    """A 20,000-vertex path in random vertex order is one component, and
    cutting it at one edge makes two."""
    order = np.random.default_rng(5).permutation(20_000)
    path = np.column_stack([order[:-1], order[1:]])
    assert measures.component_count(20_000, path) == 1
    assert measures.component_count(20_000, np.delete(path, 9_999, axis=0)) == 2


def test_storage_cap():
    with pytest.raises(StateSpaceTooLarge):
        SubsetMeasure(21, [], [])
    with pytest.raises(StateSpaceTooLarge):
        make_bernoulli_product([0.5] * 22)
    with pytest.raises(StateSpaceTooLarge):
        make_projection_dpp(np.eye(21))


def test_bernoulli_rejects_nan_probability():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        make_bernoulli_product([0.5, np.nan])


def test_bernoulli_support_leaves_out_certain_coordinates():
    """Coordinates with probability 0 or 1 are fixed, so the support has
    2**3 masks, with the masses of the full product table bit for bit."""
    ps = [0.5, 0.0, 0.25, 1.0, 0.9]
    table = np.ones(1 << len(ps))
    for mask in range(table.size):
        for i, p in enumerate(ps):
            table[mask] *= p if mask >> i & 1 else 1.0 - p
    m, want = make_bernoulli_product(ps), dense_measure(len(ps), table)
    assert m.masks.size == 8
    assert np.array_equal(m.masks, want.masks)
    assert np.array_equal(m.masses, want.masses)


def test_dpp_and_its_automorphisms_build_no_dense_table():
    """n = 20 has 2**20 masks but 190 support sets: a dense float table
    alone would take 8 MB."""
    kern = random_projection_kernel(20, 2, seed=3)
    tracemalloc.start()
    try:
        m = make_projection_dpp(kern)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        group = automorphisms(m)
        search_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.masks.size == 190 and group.shape == (1, 20)
    assert build_peak < 1 << 20 and search_peak < 1 << 20


def test_generating_polynomial_pinned_points():
    m = make_uniform_k_subsets(3, 1)
    assert generating_polynomial(m, [1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    # (1/3)(3 + 0 + 0)
    assert generating_polynomial(m, [3.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    point = dense_measure(2, np.array([0.0, 0.0, 0.0, 1.0]))
    assert generating_polynomial(point, [2.0, 5.0]) == pytest.approx(10.0)


def test_generating_polynomial_matches_explicit_expansion():
    rng = np.random.default_rng(4)
    probs = rng.dirichlet(np.ones(16))
    m = dense_measure(4, probs)
    z = rng.uniform(-2.0, 2.0, size=4)
    expected = 0.0
    for mask in range(16):
        term = probs[mask]
        for i in range(4):
            if (mask >> i) & 1:
                term *= z[i]
        expected += term
    assert generating_polynomial(m, z) == pytest.approx(expected, rel=1e-12)


def test_generating_polynomial_at_ones_is_total_mass(fixture_measures):
    for name, (m, _) in fixture_measures.items():
        assert generating_polynomial(m, np.ones(m.n)) == pytest.approx(1.0, abs=1e-12), name


@pytest.mark.parametrize("n,k", [(n, k) for n in range(9) for k in range(n + 1)])
def test_homogeneity_of_uniform_k_subsets(n, k):
    assert homogeneity_degree(make_uniform_k_subsets(n, k)) == k


def test_homogeneity_absent_for_product():
    assert homogeneity_degree(make_bernoulli_product([0.5, 0.5])) is None


def test_homogeneity_of_empty_set_point_mass():
    m = dense_measure(2, np.array([1.0, 0.0, 0.0, 0.0]))
    assert homogeneity_degree(m) == 0


def test_condition_pinned_example():
    # uniform singletons of a 3-set given coordinate 2 absent
    m = make_uniform_k_subsets(3, 1)
    c = condition(m, [2], [0])
    assert c.n == 2
    assert c.masks.tolist() == [0b01, 0b10] and np.allclose(c.masses, 0.5)


def test_condition_empty_set_is_identity():
    m = make_bernoulli_product([0.2, 0.7])
    c = condition(m, [], [])
    assert c.n == m.n and np.array_equal(c.masks, m.masks)
    assert np.array_equal(c.masses, m.masses)


def test_condition_zero_mass_event():
    point = dense_measure(1, np.array([0.0, 1.0]))
    with pytest.raises(ZeroMassEvent):
        condition(point, [0], [0])


@pytest.mark.parametrize("bits,error", [([2], ValueError), ([-1], ValueError),
                                        ([True], measures.NotAnInteger),
                                        ([0.5], measures.NotAnInteger),
                                        ([0, 1], ValueError)])
def test_condition_refuses_bits_other_than_one_0_or_1_per_coordinate(bits, error):
    m = make_uniform_k_subsets(3, 1)
    with pytest.raises(error):
        condition(m, [0], bits)


def test_condition_matches_dict_oracle():
    rng = np.random.default_rng(9)
    probs = rng.dirichlet(np.ones(16))
    m = dense_measure(4, probs)
    coords, bits = [1, 3], [1, 0]
    # oracle: filter, renormalize, repack surviving coordinates 0 and 2
    table = {}
    for mask in range(16):
        if (mask >> 1) & 1 == 1 and (mask >> 3) & 1 == 0:
            packed = (mask & 1) | (((mask >> 2) & 1) << 1)
            table[packed] = table.get(packed, 0.0) + probs[mask]
    total = sum(table.values())
    c = condition(m, coords, bits)
    assert c.n == 2
    for packed, mass in table.items():
        assert c.mass(packed) == pytest.approx(mass / total, rel=1e-12)


def test_covers_relation():
    assert covers(0b101, 0b101)
    assert covers(0b101, 0b001)
    assert not covers(0b001, 0b101)   # one-directional
    assert not covers(0b110, 0b001)
    assert not covers(0b111, 0b001)   # two extra bits


def reference_covers(p: SubsetMeasure, q: SubsetMeasure):
    """Coupling of p (rows) and q (columns) on covering pairs, or None."""
    rows, cols = p.support(), q.support()
    allowed = adjacency(covers(rows[:, None], cols[None, :]))
    table, _ = measures.feasible_coupling(p.masses[p.masses > 0.0], q.masses[q.masses > 0.0],
                                          allowed)
    return table


def reference_scp(m: SubsetMeasure) -> bool:
    """SCP by brute force: every coordinate set S, assignment y on S and
    i in S with y_i = 0, skipping zero-mass events."""
    for r in range(1, m.n + 1):
        for coords in itertools.combinations(range(m.n), r):
            conds = {}
            for assign in itertools.product((0, 1), repeat=r):
                try:
                    conds[assign] = condition(m, coords, assign)
                except ZeroMassEvent:
                    conds[assign] = None
            for assign, low in conds.items():
                for pos in range(r):
                    if low is None or assign[pos] == 1:
                        continue
                    high = conds[assign[:pos] + (1,) + assign[pos + 1:]]
                    if high is not None and reference_covers(low, high) is None:
                        return False
    return True


def test_measure_covers_reflexive_diagonal():
    m = make_uniform_k_subsets(3, 2)
    table = reference_covers(m, m)
    assert table is not None
    assert marginal_deviation(table, m.masses, m.masses) < 1e-10
    assert covers(m.masks[table.row], m.masks[table.col]).all()


def test_measure_covers_point_masses():
    up = dense_measure(1, np.array([0.0, 1.0]))
    down = dense_measure(1, np.array([1.0, 0.0]))
    table = reference_covers(up, down)
    assert table is not None
    assert coupling_entries(table) == {(0, 0): pytest.approx(1.0)}
    assert reference_covers(down, up) is None


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3)])
def test_scp_uniform_k_subsets(n, k):
    assert scp_check(make_uniform_k_subsets(n, k))


@pytest.mark.parametrize("ps", [[0.5], [0.3, 0.8], [0.2, 0.5, 0.9],
                                [0.35, 0.6, 0.75, 0.5]])
def test_scp_bernoulli_products(ps):
    assert scp_check(make_bernoulli_product(ps))


def test_scp_spanning_trees_and_dpps(fixture_measures):
    for name in ("trees_k3", "trees_c5", "dpp_4", "dpp_5"):
        m, _ = fixture_measures[name]
        assert scp_check(m), name


def test_scp_violation_witness():
    # mass only on the empty set and the full pair: conditioning on
    # coordinate 0 flips the other coordinate deterministically upward,
    # the wrong direction for covering
    bad = dense_measure(2, np.array([0.5, 0.0, 0.0, 0.5]))
    result = scp_check(bad)
    assert isinstance(result, ScpResult)
    assert not result
    coords, x_bits, y_bits = result.witness
    assert len(coords) == len(x_bits) == len(y_bits)
    assert list(coords) == sorted(coords)
    high = condition(bad, coords, x_bits)
    low = condition(bad, coords, y_bits)
    assert reference_covers(low, high) is None


def random_scp_inputs(count: int, seed: int):
    """Seeded measures on n <= 5: homogeneous, full-cube and arbitrary
    supports with random masses, so both verdicts occur."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(1, 6))
        masks = np.arange(1 << n)
        if t % 3 == 0:
            pool = masks[popcount(masks) == int(rng.integers(0, n + 1))]
        elif t % 3 == 1:
            pool = masks
        else:
            pool = rng.choice(masks, size=int(rng.integers(1, masks.size + 1)),
                              replace=False)
        keep = pool[rng.random(pool.size) < rng.uniform(0.3, 1.0)]
        if keep.size == 0:
            keep = pool[:1]
        probs = np.zeros(1 << n)
        probs[keep] = rng.dirichlet(np.ones(keep.size))
        yield f"random_{t}", dense_measure(n, probs)


def test_scp_check_matches_brute_force_reference(fixture_measures):
    cases = [(name, m) for name, (m, _) in fixture_measures.items()]
    cases += list(random_scp_inputs(150, 2024))
    verdicts = set()
    for name, m in cases:
        result = scp_check(m)
        assert bool(result) == reference_scp(m), name
        verdicts.add(bool(result))
        if not result:
            coords, x_bits, y_bits = result.witness
            assert list(coords) == sorted(coords), name
            assert [x - y for x, y in zip(x_bits, y_bits)].count(1) == 1, name
            assert sum(x_bits) == sum(y_bits) + 1, name
            low = condition(m, coords, y_bits)
            high = condition(m, coords, x_bits)
            assert reference_covers(low, high) is None, name
    assert verdicts == {True, False}


def test_scp_check_limit():
    n = measures.SCP_LIMIT + 1
    probs = np.zeros(1 << n)
    probs[0] = 1.0
    with pytest.raises(StateSpaceTooLarge):
        scp_check(dense_measure(n, probs))


def maps_onto_itself(m: SubsetMeasure, g) -> bool:
    """g carries every support mask to a support mask of the same mass."""
    mass = dict(zip(m.masks.tolist(), m.masses.tolist()))
    moved = {sum(1 << int(g[c]) for c in range(m.n) if mask >> c & 1): p
             for mask, p in mass.items()}
    return moved == mass


@pytest.mark.parametrize("edges,order", [(K4_EDGES, 24), (WHEEL4_EDGES, 8),
                                         (K5_EDGES, 120)], ids=["K4", "wheel4", "K5"])
def test_automorphisms_of_spanning_tree_measures(edges, order):
    """The whole group: S4 on K4's edges, the dihedral group of the 4-spoke
    wheel, S5 on K5's edges (which fills AUT_LIMIT exactly)."""
    m = make_spanning_tree_measure(edges)
    group = automorphisms(m)
    assert group.shape == (order, m.n)
    assert group[0].tolist() == list(range(m.n))
    assert len(set(map(tuple, group.tolist()))) == order
    assert all(sorted(g) == list(range(m.n)) and maps_onto_itself(m, g) for g in group)


def test_automorphisms_stop_at_the_limit():
    u = make_uniform_k_subsets(8, 4)  # all 8! permutations qualify
    group = automorphisms(u)
    assert group.shape == (measures.AUT_LIMIT, 8)
    assert all(maps_onto_itself(u, g) for g in group)


def test_automorphisms_stop_on_a_design_that_pair_joints_cannot_split():
    """The cyclic Steiner triple system on 13 points puts every pair in one
    block, so colours and pair joints never prune; its group has order 39,
    below AUT_LIMIT, so only AUT_WORK ends the search (13! leaves without
    it, which the alarm turns into a failure)."""
    blocks = {tuple(sorted((b + s) % 13 for b in base))
              for base in ((0, 1, 4), (0, 2, 7)) for s in range(13)}
    probs = np.zeros(1 << 13)
    probs[[sum(1 << c for c in block) for block in blocks]] = 1.0 / 26
    m = dense_measure(13, probs)

    def give_up(signum, frame):
        raise TimeoutError("automorphism search did not stop")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(30)
    try:
        group = automorphisms(m)
        result = scp_check(m)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert group[0].tolist() == list(range(13))
    assert all(maps_onto_itself(m, g) for g in group)
    assert result == ScpResult(False, ((0,), (1,), (0,)))


def test_automorphisms_need_bit_equal_masses():
    # swapping the two coordinates moves mass 0.5 onto one ulp less
    near = dense_measure(2, np.array([0.0, 0.5, np.nextafter(0.5, 0.0), 0.0]))
    assert automorphisms(near).tolist() == [[0, 1]]
    exact = dense_measure(2, np.array([0.0, 0.5, 0.5, 0.0]))
    assert automorphisms(exact).tolist() == [[0, 1], [1, 0]]
    dpp = make_projection_dpp(random_projection_kernel(5, 2, 1))
    assert automorphisms(dpp).tolist() == [list(range(5))]
    assert automorphisms(dense_measure(0, np.array([1.0]))).shape == (1, 0)


def test_make_uniform_singletons():
    m = make_uniform_k_subsets(3, 1)
    for mask in (0b001, 0b010, 0b100):
        assert m.mass(mask) == pytest.approx(1.0 / 3.0)
    assert m.mass(0b011) == 0.0 and m.mass(0) == 0.0  # off the support
    assert m.masses.sum() == pytest.approx(1.0)


def test_projection_dpp_axis_kernel():
    m = make_projection_dpp(np.diag([1.0, 0.0]))
    assert m.mass(0b01) == pytest.approx(1.0)
    assert m.support().tolist() == [1]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_projection_dpp_rejects_non_finite_kernel(bad):
    with pytest.raises(NotAProjection, match="non-finite"):
        make_projection_dpp(np.array([[0.5, bad], [0.5, 0.5]]))


def test_projection_dpp_rejects_non_projection():
    with pytest.raises(NotAProjection):
        make_projection_dpp(np.array([[0.5, 0.0], [0.0, 0.5]]))
    with pytest.raises(NotAProjection):
        make_projection_dpp(np.array([[1.0, 0.2], [0.0, 1.0]]))


def test_projection_dpp_matches_minor_determinants():
    kern = random_projection_kernel(5, 2, seed=17)
    m = make_projection_dpp(kern)
    assert homogeneity_degree(m) == 2
    for mask in m.support():
        idx = [i for i in range(5) if (mask >> i) & 1]
        det = np.linalg.det(kern[np.ix_(idx, idx)])
        assert m.mass(int(mask)) == pytest.approx(det, rel=1e-9)
    # single-element marginals of a projection DPP equal the diagonal
    for i in range(5):
        marg = sum(m.mass(int(s)) for s in m.support() if (int(s) >> i) & 1)
        assert marg == pytest.approx(kern[i, i], abs=1e-9)


def tree_count_oracle(edges, vertices):
    """Matrix-tree theorem: det of the reduced Laplacian."""
    lap = np.zeros((vertices, vertices))
    for u, v in edges:
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    return int(round(np.linalg.det(lap[1:, 1:])))


def wheel_edges(spokes: int) -> list:
    """The wheel with hub 0 and rim 1, ..., spokes: spokes first, then the rim."""
    rim = range(1, spokes + 1)
    return [(0, v) for v in rim] + [(v, v % spokes + 1) for v in rim]


@pytest.mark.parametrize("edges,vertices,count", [
    (K3_EDGES, 3, 3),
    (K4_EDGES, 4, 16),
    (C5_EDGES, 5, 5),
    (WHEEL4_EDGES, 5, 45),
    (K5_EDGES, 5, 125),
    ([(a, b) for a in range(6) for b in range(a + 1, 6)], 6, 1296),
    (wheel_edges(10), 11, 15125),
    ([(0, 1), (1, 2), (0, 1), (2, 0)], 3, 5),
    ([], 1, 1),
])
def test_spanning_tree_measure_counts(edges, vertices, count):
    assert tree_count_oracle(edges, vertices) == count
    m = make_spanning_tree_measure(edges, vertices)
    supp = m.support()
    assert supp.size == count
    assert np.allclose(m.masses, 1.0 / count)
    # the support is exactly the candidate masks of the right size that
    # pass the union-find spanning-tree test, ascending
    candidates = np.arange(1 << len(edges))
    candidates = candidates[popcount(candidates) == vertices - 1].tolist()
    assert supp.tolist() == [mask for mask in candidates
                             if is_spanning_tree(mask, edges, vertices)]


def test_spanning_tree_measure_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        make_spanning_tree_measure([(0, 1), (2, 3)], 4)


def test_spanning_tree_measure_rejects_self_loop():
    with pytest.raises(ValueError):
        make_spanning_tree_measure([(0, 0), (0, 1)], 2)


def test_measure_json_roundtrip(fixture_measures):
    for name, (m, _) in fixture_measures.items():
        keep = m.masses > 0.0
        back = measures.measure_from_json({"n": m.n, "entries": [
            {"mask": int(mask), "p": float(p)} for mask, p in zip(m.masks[keep], m.masses[keep])]})
        assert back.n == m.n, name
        assert np.array_equal(back.masks, m.support()), name
        assert np.allclose(back.masses, m.masses[m.masses > 0.0], atol=1e-15), name


def test_measure_from_json_validates():
    with pytest.raises(NotNormalized):
        measures.measure_from_json(
            {"n": 1, "entries": [{"mask": 0, "p": 0.5}, {"mask": 1, "p": 0.6}]})


def test_constructors_read_their_own_numbers():
    """make_uniform_k_subsets(True, 1) built a measure on n = True, and 4.0
    failed in `1 << 4.0`; the Bernoulli product read '0.5' and True as 0.5 and 1."""
    for n, k in ((True, 1), (4, True), (4.5, 2), (4, "2")):
        with pytest.raises(measures.NotAnInteger):
            make_uniform_k_subsets(n, k)
    m = make_uniform_k_subsets(4.0, 2.0)
    assert type(m.n) is int and m.masks.tolist() == make_uniform_k_subsets(4, 2).masks.tolist()
    for ps in (["0.5", "0.25"], [True, 0.5], [0.5, np.bool_(False)], [None]):
        with pytest.raises(measures.NotANumber):
            make_bernoulli_product(ps)
    want = make_bernoulli_product([0.5, 0.25])
    for ps in (np.array([0.5, 0.25]), [np.float32(0.5), 0.25], (0.5, 0.25)):
        got = make_bernoulli_product(ps)
        assert got.masks.tolist() == want.masks.tolist() and np.array_equal(got.masses, want.masses)


def test_tree_edges_reads_the_graph_record():
    """tree_edges reads a JSON graph record's vertex count and endpoints as
    ints; integral floats are integers."""
    for edges, vertices in (([[0, 1], [1, 2]], 3), ([[0.0, 1.0], [1, 2.0]], 3.0)):
        got, n = measures.tree_edges(edges, vertices)
        assert (got, n) == ([(0, 1), (1, 2)], 3)
        assert all(type(u) is int for edge in got for u in edge) and type(n) is int


def test_as_integer_is_the_one_integer_rule():
    assert [measures.as_integer(v, "x") for v in (4, 4.0, np.int64(4), -2.0)] == [4, 4, 4, -2]
    for bad in (4.5, float("nan"), float("inf"), True, np.bool_(True), "4", None, [4]):
        with pytest.raises(measures.NotAnInteger,
                           match=re.escape(f"x must be an integer, got {bad!r}")):
            measures.as_integer(bad, "x")
    with pytest.raises(measures.NotAnInteger,
                       match=re.escape("edge endpoint must be an integer, got 2.5")):
        measures.tree_edges([[0, 1], [1, 2.5]], 3)
    with pytest.raises(measures.NotAnInteger,
                       match=re.escape("vertices must be an integer, got 3.5")):
        measures.tree_edges([[0, 1], [1, 2]], 3.5)
    with pytest.raises(measures.NotAnInteger):
        measures.measure_from_json({"n": 1.5, "entries": [{"mask": 0, "p": 1.0}]})


def test_as_real_is_the_one_real_number_rule():
    got = [measures.as_real(v, "x") for v in (4, 0.5, np.int64(4), np.float32(0.5), -2.0)]
    assert got == [4.0, 0.5, 4.0, 0.5, -2.0] and all(type(x) is float for x in got)
    assert np.isnan(measures.as_real(float("nan"), "x"))  # left to the range checks
    for bad in (True, np.bool_(False), "0.5", None, [0.5]):
        with pytest.raises(measures.NotANumber,
                           match=re.escape(f"x must be a real number, got {bad!r}")):
            measures.as_real(bad, "x")
    with pytest.raises(measures.NotANumber, match="p must be a real number, got '0.5'"):
        measures.measure_from_json({"n": 1, "entries": [{"mask": 0, "p": "0.5"},
                                                        {"mask": 1, "p": 0.5}]})
    assert issubclass(measures.NotAnInteger, measures.NotANumber)


def _numpy_as_integer(value, name):
    """as_integer as written with numpy's classes named up front: the oracle."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer, float)) \
            or isinstance(value, float) and not value.is_integer():
        raise measures.NotAnInteger(f"{name} must be an integer, got {value!r}")
    return int(value)


def _numpy_as_real(value, name):
    """as_real as written with numpy's classes named up front: the oracle."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer, float, np.floating)):
        raise measures.NotANumber(f"{name} must be a real number, got {value!r}")
    return float(value)


READER_INPUTS = [4, -2, 4.0, 4.5, True, False, np.bool_(True), "4", None, [4], Fraction(4),
                 Fraction(1, 2), Decimal(4), Decimal("0.5"), np.int64(4), np.uint8(7),
                 np.float32(4.0), np.float32(0.5), np.float64(4.0), np.float64(0.5),
                 math.inf, -math.inf, math.nan]


def _outcome(reader, value):
    try:
        got = reader(value, "x")
    except ValueError as exc:
        return type(exc), str(exc)
    return type(got), "nan" if got != got else got


@pytest.mark.parametrize("reader,oracle", [(inputs.as_integer, _numpy_as_integer),
                                           (inputs.as_real, _numpy_as_real)],
                         ids=["as_integer", "as_real"])
def test_numpy_free_readers_accept_and_refuse_as_before(reader, oracle):
    """The readers name no numpy class yet keep the rule written with them:
    a Fraction or a Decimal is refused, a numpy integer is read."""
    got = [_outcome(reader, v) for v in READER_INPUTS]
    assert got == [_outcome(oracle, v) for v in READER_INPUTS]
    for value in (Fraction(4), Fraction(1, 2), Decimal(4), np.bool_(True)):
        assert issubclass(_outcome(reader, value)[0], measures.NotANumber)


def test_measures_reexports_the_input_layer():
    for name in ("InvalidInput", "NumericFailure", "NotANumber", "NotAnInteger",
                 "as_integer", "as_real"):
        assert getattr(measures, name) is getattr(inputs, name)


def test_feasible_coupling_reports_shortfall():
    # disjointly supported marginals with no allowed pairs at all
    table, value = measures.feasible_coupling(np.array([1.0]), np.array([1.0]), [[]])
    assert table is None and value == 0.0


def _lp_max_flow(p, q, allowed):
    from scipy.optimize import linprog

    ii, jj = np.nonzero(allowed)
    a_ub = np.zeros((p.size + q.size, ii.size))
    a_ub[ii, np.arange(ii.size)] = 1.0
    a_ub[p.size + jj, np.arange(ii.size)] = 1.0
    res = linprog(-np.ones(ii.size), A_ub=a_ub, b_ub=np.concatenate([p, q]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return -res.fun


def _transport_instance(rng, kind):
    rows, cols = (int(v) for v in rng.integers(1, 12, size=2))
    allowed = rng.random((rows, cols)) < rng.uniform(0.1, 0.7)
    allowed[rng.integers(rows), rng.integers(cols)] = True
    if kind == "random":
        p = rng.random(rows)
        q = rng.random(cols)
        return p / p.sum(), q / q.sum(), allowed
    w = rng.random((rows, cols)) * allowed
    w /= w.sum()
    if kind == "feasible":
        return w.sum(axis=1), w.sum(axis=0), allowed
    # near: a shortfall delta sits on an extra row and column with no allowed pair
    delta = rng.choice([1e-12, 3e-11, 9e-11, 1.1e-10, 5e-10, 1e-9])
    w *= 1.0 - delta
    allowed = np.pad(allowed, ((0, 1), (0, 1)))
    return (np.append(w.sum(axis=1), delta), np.append(w.sum(axis=0), delta), allowed)


@pytest.mark.parametrize("kind", ["feasible", "random", "near"])
def test_feasible_coupling_matches_lp(kind):
    rng = np.random.default_rng([7, len(kind)])
    verdicts = set()
    for _ in range(60):
        p, q, allowed = _transport_instance(rng, kind)
        table, value = measures.feasible_coupling(p, q, adjacency(allowed))
        lp = _lp_max_flow(p, q, allowed)
        assert abs(value - lp) <= 1e-9
        threshold = 1.0 - measures.COUPLING_TOL
        if abs(lp - threshold) > 1e-11:
            assert (table is not None) == (lp >= threshold)
        if table is not None:
            verdicts.add(True)
            # the table is the flow, so its marginals miss by the shortfall at most
            assert marginal_deviation(table, p, q) < 1e-12 + (1.0 - value)
            assert allowed[table.row, table.col].all()
            assert (table.mass >= 0.0).all()
        else:
            verdicts.add(False)
    assert verdicts == ({True} if kind == "feasible" else {True, False})


def test_feasible_coupling_stays_sparse():
    """One solve on a 3000 x 3000 banded support allocates per allowed pair,
    not per table entry: a dense float flow table alone would take 72 MB."""
    size = 3000
    idx = np.arange(size)
    allowed = np.abs(idx[:, None] - idx[None, :]) <= 2
    ii, jj = np.nonzero(allowed)
    w = np.random.default_rng(0).random(ii.size)
    w /= w.sum()
    supply, demand = np.bincount(ii, w), np.bincount(jj, w)
    adj = adjacency(allowed)
    peak, (table, value) = peak_traced_bytes(
        lambda: measures.feasible_coupling(supply, demand, adj))
    assert table is not None and value == pytest.approx(1.0, abs=1e-12)
    assert peak < 8 << 20


def test_scp_check_lists_covering_pairs():
    """The coupling pass lists each row's covering columns instead of
    building rows x cols covering tables: on uniform(14, 7), whose top
    split is 1716 x 1716, scp_check stays below 8 MB (3.4 MB measured;
    about 30 MB with the dense tables)."""
    m = make_uniform_k_subsets(14, 7)
    peak, result = peak_traced_bytes(lambda: scp_check(m))
    assert result
    assert peak < 8 << 20


def test_conditional_covering_instance_by_hand():
    # uniform 2-subsets of [4]: conditioning coordinate 3 to 0 vs 1 gives
    # uniform 2-subsets vs uniform 1-subsets of the remaining 3 elements,
    # and the former covers the latter elementwise
    m = make_uniform_k_subsets(4, 2)
    low = condition(m, [3], [0])
    high = condition(m, [3], [1])
    table = reference_covers(low, high)
    assert table is not None
    assert marginal_deviation(table, low.masses, high.masses) < 1e-10
    for i, j in coupling_entries(table):
        assert covers(int(low.masks[i]), int(high.masks[j]))
