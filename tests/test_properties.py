"""Property tests for the support-indexed measure storage, the edge-list
walk kernels, coordinate permutations and the CLI config boundary.

Hypothesis draws the inputs from a fixed seed (derandomize=True), so every
run checks the same examples.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srconc import chains, cli, measures
from srconc.concentration import oscillation
from srconc.functional import (
    DomainMismatch,
    MatrixFn,
    dirichlet_form,
    random_linear_matrix_fn,
    random_matrix_fn,
    scalar_spectral_gap,
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


# -------------------------------------------- coordinate permutations


@st.composite
def small_measures(draw):
    """A measure on n <= 5 coordinates: an SCP family (uniform, Bernoulli,
    projection DPP, spanning trees) or a random table, mostly not SCP."""
    n = draw(st.integers(1, 5))
    family = draw(st.sampled_from(["uniform", "bernoulli", "dpp", "trees", "table"]))
    if family == "uniform":
        return measures.make_uniform_k_subsets(n, draw(st.integers(0, n)))
    if family == "bernoulli":
        return measures.make_bernoulli_product(
            draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n)))
    if family == "dpp":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        q, _ = np.linalg.qr(rng.standard_normal((n, draw(st.integers(1, n)))))
        return measures.make_projection_dpp(q @ q.T)
    if family == "trees":
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)][:max(n, 2)]
        return measures.make_spanning_tree_measure(edges)
    probs = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                                   min_size=1 << n, max_size=1 << n)))
    if probs.sum() == 0.0:
        probs[0] = 1.0
    return SubsetMeasure(n, probs / probs.sum())


def permuted(m, perm):
    """m with coordinate i moved to perm[i]."""
    masks = np.arange(1 << m.n, dtype=np.int64)
    moved = sum(((masks >> i) & 1) << p for i, p in enumerate(perm))
    probs = np.zeros(1 << m.n)
    probs[moved] = m.probs
    return SubsetMeasure(m.n, probs)


@WALK_PROPERTY
@given(st.data())
def test_permuting_coordinates_keeps_the_scp_verdict_and_the_gap_bound(data):
    """Relabelling the ground set changes neither the SCP verdict nor the
    1/(2k) floor on the walk's gap.  The gaps themselves may differ: the
    max-flow coupling depends on the coordinate order."""
    m = data.draw(small_measures())
    perm = data.draw(st.permutations(range(m.n)))
    other = permuted(m, perm)
    verdict = bool(chains.scp_check(m))
    assert bool(chains.scp_check(other)) == verdict
    if not verdict:
        return
    k = measures.homogeneity_degree(m)
    floor = 1.0 / (2.0 * (k if k else m.n / 2.0))
    for measure in (m, other):
        assert scalar_spectral_gap(chains.hermon_salez(measure)) >= floor - 1e-9


# ------------------------------------------------------ CLI config boundary

SMALL_INT = st.integers(-2, 6)
SMALL_FLOAT = st.one_of(st.floats(-2.0, 8.0), st.sampled_from([np.nan, np.inf, -np.inf]))
JUNK = st.one_of(st.none(), st.booleans(), SMALL_INT, SMALL_FLOAT,
                 st.text("ab", max_size=2), st.lists(SMALL_INT, max_size=3),
                 st.builds(dict), st.builds(lambda: [[0, 1]]))
UNIT = st.floats(0.0, 1.0)


@st.composite
def graphs(draw):
    vertices = draw(st.integers(1, 5))
    edge = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
    return {"vertices": vertices,
            "edges": [list(e) for e in draw(st.lists(edge, min_size=1, max_size=7))]}


@st.composite
def kernels(draw):
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    q, _ = np.linalg.qr(rng.standard_normal((n, draw(st.integers(1, n)))))
    return {"d": n, "rows": (q @ q.T).tolist()}


@st.composite
def uniform_specs(draw):
    n = draw(st.integers(1, 6))
    return {"family": "uniform_k_subsets", "n": n, "k": draw(st.integers(0, n))}


MEASURE_SPECS = st.one_of(
    uniform_specs(),
    st.fixed_dictionaries({"family": st.just("bernoulli_product"),
                           "ps": st.lists(UNIT, min_size=1, max_size=5)}),
    st.fixed_dictionaries({"family": st.just("spanning_tree"), "graph": graphs()}),
    st.fixed_dictionaries({"family": st.just("projection_dpp"), "kernel": kernels()}),
    st.fixed_dictionaries({"inline": st.fixed_dictionaries({
        "n": st.just(2), "entries": st.lists(st.fixed_dictionaries(
            {"mask": st.integers(0, 3), "p": st.sampled_from([0.25, 0.5, 1.0])}),
            min_size=1, max_size=4)})}))
FUNCTION_SPECS = st.one_of(
    st.fixed_dictionaries({"random": st.fixed_dictionaries(
        {"kind": st.sampled_from(["table", "linear"]), "d": st.integers(1, 4)},
        optional={"seed": st.integers(0, 6), "scale": UNIT, "L": UNIT})}),
    st.fixed_dictionaries({"inline": st.fixed_dictionaries({
        "d": st.just(1), "values": st.lists(st.fixed_dictionaries(
            {"mask": st.integers(0, 3), "rows": st.lists(st.lists(
                st.floats(-2.0, 2.0), min_size=1, max_size=1), min_size=1, max_size=1)}),
            min_size=1, max_size=4, unique_by=lambda entry: entry["mask"])})}))
WELL_FORMED = st.fixed_dictionaries(
    {"trials": st.integers(1, 2),   # ineq-suite runs 8 x trials checks
     "measure": MEASURE_SPECS, "function": FUNCTION_SPECS},
    optional={
        "seed": st.integers(0, 6), "tol": st.floats(1e-10, 1e-6),
        "lambda": st.floats(0.01, 2.0),
        "theta_grid": st.fixed_dictionaries(
            {}, optional={"points": st.integers(1, 6), "max_fraction": UNIT}),
        "t_grid": st.fixed_dictionaries(
            {}, optional={"points": st.integers(1, 6), "max": st.floats(0.1, 8.0)}),
        "mode": st.sampled_from(["exact", "empirical"]),
        "count": st.integers(1, 50),
        "ks": st.fixed_dictionaries({}, optional={
            "c": st.floats(0.1, 2.0), "k_values": st.lists(st.integers(2, 64), max_size=3),
            "mu_factors": st.lists(st.floats(0.1, 4.0), max_size=3),
            "eps": st.one_of(st.just("inv_sqrt_k"), st.floats(0.01, 1.0))}),
        "sampler": st.sampled_from(["table", "wilson", "kdpp"]),
        "dims": st.lists(st.integers(1, 4), min_size=1, max_size=3),
        "graph": graphs(), "kernel": kernels()})


def value_paths(node, path=()):
    """Every (container path, key) under node, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        yield path, key
        if isinstance(val, (dict, list)):
            yield from value_paths(val, path + (key,))


@st.composite
def cli_configs(draw):
    """A well-formed config with up to three values replaced by junk or
    dropped.  "out" is never a string, which would be written to; an int or
    a bool would be taken as a file descriptor."""
    cfg = draw(WELL_FORMED)
    for _ in range(draw(st.integers(0, 3))):
        path, key = draw(st.sampled_from(list(value_paths(cfg))))
        parent = cfg
        for step in path:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JUNK)
    out = draw(st.sampled_from([None] * 9 + [True, 1, [[0, 1]]]))
    if out is not None:
        cfg["out"] = out
    return cfg


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(cli.COMMANDS)), cli_configs())
def test_cli_random_configs_exit_with_a_code(command, cfg):
    """Every config, however malformed, ends in a documented exit code
    (0-4) with no exception escaping main."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", path])
    assert code in range(5)
