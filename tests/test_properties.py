"""Property tests for the support-indexed measure storage and the
edge-list walk kernels.

Hypothesis draws the inputs from a fixed seed (derandomize=True), so every
run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srconc import chains, measures
from srconc.concentration import oscillation
from srconc.functional import (
    DomainMismatch,
    MatrixFn,
    dirichlet_form,
    random_linear_matrix_fn,
    random_matrix_fn,
)
from srconc.measures import (
    MeasureError,
    SubsetMeasure,
    ZeroMassEvent,
    condition,
    halves,
    measure_from_json,
    validate,
)

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


def dense_condition(probs, n, coords, bits):
    """Conditional table by filtering all 2**n masks and repacking the
    surviving coordinates (the dense-table formula), or None on zero mass.
    No event at all returns the table as it is."""
    if not coords:
        return probs.copy()
    masks = np.arange(1 << n, dtype=np.int64)
    sel = sum(1 << c for c in coords)
    want = sum(1 << c for c, b in zip(coords, bits) if b)
    keep = (masks & sel) == want
    slice_probs = probs[keep]
    total = float(slice_probs.sum())
    if total <= 0.0:
        return None
    rest = [c for c in range(n) if c not in coords]
    packed = np.zeros(int(keep.sum()), dtype=np.int64)
    for j, c in enumerate(rest):
        packed |= ((masks[keep] >> c) & 1) << j
    out = np.zeros(1 << len(rest))
    out[packed] = slice_probs / total
    return out


@st.composite
def dense_measures(draw, max_n=8):
    """(n, dense table): nonnegative masses, many of them zero."""
    n = draw(st.integers(1, max_n))
    mass = st.one_of(st.just(0.0), st.floats(1e-12, 1.0))
    probs = np.array(draw(st.lists(mass, min_size=1 << n, max_size=1 << n)))
    return n, probs


@st.composite
def events(draw, n):
    coords = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    bits = draw(st.lists(st.integers(0, 1), min_size=len(coords), max_size=len(coords)))
    return coords, bits


@PROPERTY
@given(st.data())
def test_condition_matches_dense_table(data):
    n, probs = data.draw(dense_measures())
    coords, bits = data.draw(events(n))
    m = SubsetMeasure(n, probs)
    expected = dense_condition(probs, n, coords, bits)
    if expected is None:
        with pytest.raises(ZeroMassEvent):
            condition(m, coords, bits)
        return
    c = condition(m, coords, bits)
    assert c.n == n - len(coords)
    assert np.array_equal(c.support(), np.flatnonzero(expected > 0.0))
    assert np.allclose(c.masses, expected[c.masks], rtol=1e-15, atol=0.0)


@PROPERTY
@given(st.data())
def test_halves_condition_in_any_order(data):
    """Fixing an event's coordinates one at a time through halves, in any
    order, gives condition(m, event) bit for bit; the walk's memo relies
    on it to share one node per event."""
    n, probs = data.draw(dense_measures(max_n=6))
    coords, bits = data.draw(events(n))
    order = data.draw(st.permutations(range(len(coords))))
    m = SubsetMeasure(n, probs)
    try:
        expected = condition(m, coords, bits)
    except ZeroMassEvent:
        expected = None
    rest, cond, fixed = m, m, []
    for i in order:
        c = coords[i] - sum(f < coords[i] for f in fixed)
        side = halves(rest, c)[bits[i]]
        if side is None:
            assert expected is None
            return
        cond, rest = side
        fixed.append(coords[i])
        # the restriction keeps m's own masses on the masks that agree so far
        assert np.array_equal(rest.masses, m.masses[agrees(m, coords, bits, fixed)])
    if expected is not None:
        assert cond.n == expected.n
        assert np.array_equal(cond.masks, expected.masks)
        assert np.array_equal(cond.masses, expected.masses)


def agrees(m, coords, bits, fixed):
    """Which of m's support masks agree with the event on the fixed coordinates."""
    keep = np.ones(m.masks.size, dtype=bool)
    for c, b in zip(coords, bits):
        if c in fixed:
            keep &= ((m.masks >> c) & 1) == b
    return keep


@PROPERTY
@given(dense_measures(max_n=6))
def test_dense_view_round_trips(measure):
    n, probs = measure
    m = SubsetMeasure(n, probs)
    assert np.array_equal(m.probs, probs)
    assert np.array_equal(m.masks, np.flatnonzero(probs))
    assert all(m.mass(mask) == probs[mask] for mask in range(1 << n))


@PROPERTY
@given(st.data())
def test_validate_rejects_non_finite_mass(data):
    n = data.draw(st.integers(0, 6))
    probs = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1 << n,
                                        max_size=1 << n)))
    bad = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, unique=True))
    for mask in bad:
        probs[mask] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(MeasureError):
        validate(SubsetMeasure(n, probs))
    entries = [{"mask": mask, "p": float(p)} for mask, p in enumerate(probs)]
    with pytest.raises(MeasureError):
        measure_from_json({"n": n, "entries": entries})


# ------------------------------------------------ edge-list walk kernels

WALK_PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def scp_walks(draw, max_n=6):
    """Normalized flip-swap walk of a random SCP measure on n <= max_n."""
    n = draw(st.integers(2, max_n))
    family = draw(st.sampled_from(["uniform", "bernoulli", "dpp"]))
    if family == "uniform":
        m = measures.make_uniform_k_subsets(n, draw(st.integers(1, n - 1)))
    elif family == "bernoulli":
        m = measures.make_bernoulli_product(
            draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        q, _ = np.linalg.qr(rng.standard_normal((n, draw(st.integers(1, n - 1)))))
        m = measures.make_projection_dpp(q @ q.T)
    return chains.hermon_salez(m)


@st.composite
def walk_functions(draw):
    """(walk, MatrixFn): random symmetric or linear values with d <= 4, or
    diag(x) with d = n, whose flip and swap differences all have norm 1."""
    walk = draw(scp_walks())
    kind = draw(st.sampled_from(["table", "linear", "bits"]))
    d, seed = draw(st.integers(1, 4)), draw(st.integers(0, 2**16))
    if kind == "table":
        return walk, random_matrix_fn(walk.states, d, seed)
    if kind == "linear":
        return walk, random_linear_matrix_fn(walk.n, walk.states, d, 1.0, seed)[0]
    bits = (walk.states[:, None] >> np.arange(walk.n)) & 1
    return walk, MatrixFn(walk.states, bits[:, :, None] * np.eye(walk.n))


def dense_dirichlet(rates, weights, values):
    """The m x m x d x d difference-tensor form the edge-list kernel replaced."""
    flows = weights[:, None] * rates
    np.fill_diagonal(flows, 0.0)
    diff = values[:, None, :, :] - values[None, :, :, :]
    return 0.5 * np.einsum("xy,xyij,xyjk->ik", flows, diff, diff)


def pairwise_oscillation(walk, fn, mode):
    """max ||F(x) - F(y)||_2 by one SVD norm per adjacent pair."""
    vals = fn.gather(walk.states)
    worst = 0.0
    for i in range(walk.states.size):
        for j in range(i + 1, walk.states.size):
            if mode == "q_support":
                hit = walk.rates[i, j] > 0.0 or walk.rates[j, i] > 0.0
            else:
                hit = chains.flip_swap_adjacent(int(walk.states[i]), int(walk.states[j]))
            if hit:
                worst = max(worst, float(np.linalg.norm(vals[i] - vals[j], 2)))
    return worst


@WALK_PROPERTY
@given(walk_functions())
def test_edge_dirichlet_form_matches_dense_einsum(case):
    walk, fn = case
    vals = fn.gather(walk.states)
    got = dirichlet_form(walk.rates, walk.pi, vals)
    ref = dense_dirichlet(walk.rates, walk.pi, vals)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@WALK_PROPERTY
@given(walk_functions(), st.sampled_from(["q_support", "flip_swap"]))
def test_pruned_oscillation_is_bit_identical(case, mode):
    walk, fn = case
    assert oscillation(walk, fn, mode).v == pairwise_oscillation(walk, fn, mode)


def test_oscillation_keeps_every_edge_at_equal_norms():
    """diag(x) on a uniform(4,2) walk: every swap difference has norm 1 and
    the same norm bound, so no edge is pruned and v is exactly 1."""
    walk = chains.hermon_salez(measures.make_uniform_k_subsets(4, 2))
    bits = (walk.states[:, None] >> np.arange(4)) & 1
    fn = MatrixFn(walk.states, bits[:, :, None] * np.eye(4))
    for mode in ("q_support", "flip_swap"):
        stats = oscillation(walk, fn, mode)
        assert stats.v == pairwise_oscillation(walk, fn, mode) == 1.0
        assert stats.pairs == 24 // 2


def test_oscillation_max_outside_the_probed_edges():
    """F(x) = 0.8 x_0 I_4 + x_1 E_11 on a product-measure walk (flips only):
    the 32 flips of x_0 have norm 0.8 but the larger norm bounds (Schatten
    4-norm 0.8 sqrt(2), Frobenius norm 1.6), so they fill the probe, while
    the maximum 1 sits on the flips of x_1."""
    walk = chains.hermon_salez(measures.make_bernoulli_product([0.5] * 6))
    e11 = np.diag([1.0, 0.0, 0.0, 0.0])
    fn = MatrixFn(walk.states, (walk.states & 1)[:, None, None] * 0.8 * np.eye(4)
                  + ((walk.states >> 1) & 1)[:, None, None] * e11)
    for mode in ("q_support", "flip_swap"):
        assert oscillation(walk, fn, mode).v == pairwise_oscillation(walk, fn, mode) == 1.0


@PROPERTY
@given(st.data())
def test_gather_aligns_unsorted_states(data):
    states = data.draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=30,
                                unique=True))
    values = np.arange(len(states), dtype=float)[:, None, None] * np.ones((1, 2, 2))
    fn = MatrixFn(np.array(states), values)
    order = data.draw(st.permutations(range(len(states))))
    query = np.array(states)[order]
    assert np.array_equal(fn.gather(query), values[order])
    missing = data.draw(st.integers(0, 2**40).filter(lambda s: s not in states))
    spot = data.draw(st.integers(0, len(order)))
    with pytest.raises(DomainMismatch):
        fn.gather(np.insert(query, spot, missing))
