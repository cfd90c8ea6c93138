import itertools
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import betaincinv
from scipy.stats import beta, binom

from srconc import chains, functional, measures, samplers, streams
from srconc.functional import MatrixFn, random_linear_matrix_fn
from srconc.inputs import OutOfRange
from srconc.measures import (
    DisconnectedGraph,
    NotAnInteger,
    NotAProjection,
    StateSpaceTooLarge,
    projection_kernel,
    tree_edges,
)
from srconc.samplers import (
    SampleBatch,
    _build_alias,
    clopper_pearson_upper,
    dump_batch,
    empirical_tail,
    sample_kdpp,
    sample_table,
    wilson_spanning_tree,
)

from conftest import (
    K3_EDGES,
    K4_EDGES,
    dense_measure,
    is_spanning_tree,
    peak_traced_bytes,
    random_projection_kernel,
)


def freq_within_4_sigma(draws, mask, p, count):
    hat = float(np.mean(draws == mask))
    sigma = np.sqrt(p * (1 - p) / count)
    return abs(hat - p) <= 4 * sigma


# -------------------------------------------------------------- alias table

def test_alias_table_reconstructs_probs():
    """Row i is hit by its own threshold plus the overflow of every cell
    aliased to it, so the table encodes the law exactly."""
    for name_probs in [np.array([0.5, 0.5]),
                       np.array([0.1, 0.2, 0.3, 0.4]),
                       np.array([0.97, 0.01, 0.01, 0.01])]:
        thresh, alias = _build_alias(name_probs)
        k = name_probs.size
        recon = thresh.copy()
        for j in range(k):
            if thresh[j] < 1.0:
                recon[alias[j]] += 1.0 - thresh[j]
        assert np.abs(recon / k - name_probs).max() <= 1e-12


def test_sample_table_point_mass():
    m = dense_measure(3, np.eye(8)[5])
    batch = sample_table(m, seed=0, count=50)
    assert (batch.draws == 5).all()


def test_sample_table_empty_batch():
    m = measures.make_uniform_k_subsets(3, 1)
    batch = sample_table(m, seed=0, count=0)
    assert batch.count == 0
    assert batch.draws.size == 0


def test_sample_table_frequencies():
    m = measures.make_uniform_k_subsets(3, 1)
    count = 100_000
    batch = sample_table(m, seed=7, count=count)
    assert set(batch.draws.tolist()) <= {1, 2, 4}
    for mask in (1, 2, 4):
        assert freq_within_4_sigma(batch.draws, mask, 1 / 3, count)


def test_sample_table_skewed_frequencies():
    m = measures.make_bernoulli_product([0.9, 0.2])
    count = 80_000
    batch = sample_table(m, seed=11, count=count)
    supp = m.support()
    for mask in supp.tolist():
        assert freq_within_4_sigma(batch.draws, mask, m.mass(mask), count)


def test_sample_table_deterministic():
    m = measures.make_uniform_k_subsets(4, 2)
    a = sample_table(m, seed=3, count=500)
    b = sample_table(m, seed=3, count=500)
    c = sample_table(m, seed=4, count=500)
    assert np.array_equal(a.draws, b.draws)
    assert not np.array_equal(a.draws, c.draws)


def test_sample_table_prefix_stable():
    # counter-based rows: a longer batch extends the shorter one
    m = measures.make_uniform_k_subsets(4, 2)
    short = sample_table(m, seed=5, count=100)
    long = sample_table(m, seed=5, count=300)
    assert np.array_equal(short.draws, long.draws[:100])


def test_sample_table_rejects_bad_count():
    """Each sampler reads count by the one floor: 2.0 is two draws, True and
    2.5 are not counts, and -1 is below the floor of 0."""
    m = measures.make_uniform_k_subsets(3, 1)
    for sample in (lambda count: sample_table(m, seed=0, count=count),
                   lambda count: wilson_spanning_tree(K3_EDGES, seed=0, count=count),
                   lambda count: sample_kdpp(np.diag([1.0, 0.0]), seed=0, count=count)):
        batch = sample(2.0)
        assert (batch.count, batch.draws.shape) == (2, (2,))
        assert type(batch.count) is int
        assert np.array_equal(batch.draws, sample(2).draws)
        for count in (True, 2.5):
            with pytest.raises(NotAnInteger):
                sample(count)
        with pytest.raises(OutOfRange, match="^count must be at least 0, got -1$"):
            sample(-1)


# ------------------------------------------------------------------- wilson

def test_wilson_tree_input_is_identity():
    batch = wilson_spanning_tree([(0, 1), (1, 2), (2, 3)], seed=3, count=10)
    assert set(batch.draws.tolist()) == {0b111}


def test_wilson_k3_uniform():
    count = 30_000
    batch = wilson_spanning_tree(K3_EDGES, seed=1, count=count)
    masks = sorted(set(batch.draws.tolist()))
    assert masks == [0b011, 0b101, 0b110]
    for mask in masks:
        assert freq_within_4_sigma(batch.draws, mask, 1 / 3, count)


def test_wilson_draws_are_spanning_trees():
    for edges, nv in [(K4_EDGES, 4), (K3_EDGES, 3)]:
        batch = wilson_spanning_tree(edges, seed=9, count=200)
        for mask in batch.draws.tolist():
            assert bin(mask).count("1") == nv - 1
            assert is_spanning_tree(int(mask), edges, nv)


def test_wilson_matches_exact_measure():
    m = measures.make_spanning_tree_measure(K4_EDGES)
    count = 100_000
    batch = wilson_spanning_tree(K4_EDGES, seed=2, count=count)
    supp = m.support()
    assert set(batch.draws.tolist()) <= set(supp.tolist())
    for mask in supp.tolist():
        assert freq_within_4_sigma(batch.draws, mask, m.mass(mask), count)


def test_wilson_deterministic_per_index():
    a = wilson_spanning_tree(K4_EDGES, seed=5, count=50)
    b = wilson_spanning_tree(K4_EDGES, seed=5, count=80)
    assert np.array_equal(a.draws, b.draws[:50])


def test_wilson_disconnected():
    with pytest.raises(DisconnectedGraph):
        wilson_spanning_tree([(0, 1), (2, 3)], seed=0, count=1)


def test_wilson_rejects_more_edges_than_mask_bits():
    k13 = list(itertools.combinations(range(13), 2))  # 78 edges
    with pytest.raises(StateSpaceTooLarge):
        wilson_spanning_tree(k13, seed=0, count=1)


@pytest.mark.parametrize("edges,vertices", [([(0, 0), (0, 1)], 2), ([(0, 1), (1, 2)], 2),
                                            ([(0, 1.5), (1, 2)], None), ([(0, True), (0, 2)], None)])
def test_wilson_rejects_what_the_tree_measure_rejects(edges, vertices):
    with pytest.raises(ValueError) as from_measure:
        measures.make_spanning_tree_measure(edges, vertices)
    with pytest.raises(ValueError) as from_sampler:
        wilson_spanning_tree(edges, seed=0, count=1, vertices=vertices)
    assert str(from_sampler.value) == str(from_measure.value)


@pytest.mark.parametrize("edges,vertices,error,message", [
    ([(0, 1), (2, 3)], None, DisconnectedGraph, "graph has 2 components"),
    ([(0, 1), (1, 2)], 4, DisconnectedGraph, "graph has 2 components"),
    (K4_EDGES, 4.5, NotAnInteger, "vertices must be an integer, got 4.5"),
    (K4_EDGES, True, NotAnInteger, "vertices must be an integer, got True"),
    # too many edges for either, and disconnected: the graph rule speaks first
    ([*itertools.combinations(range(12), 2), (12, 13)], None, DisconnectedGraph,
     "graph has 2 components"),
], ids=["two-pairs", "isolated-vertex", "fractional-vertices", "bool-vertices", "too-large"])
def test_tree_edges_is_the_one_graph_rule(edges, vertices, error, message):
    """The tree measure and the Wilson sampler read a graph through
    tree_edges alone: each bad graph gets one error and one message."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        measures.make_spanning_tree_measure(edges, vertices)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        wilson_spanning_tree(edges, seed=0, count=1, vertices=vertices)


def test_tree_constructors_read_an_integral_vertex_count():
    want = measures.make_spanning_tree_measure(K4_EDGES, 4)
    assert measures.make_spanning_tree_measure(K4_EDGES, 4.0).masks.tolist() == want.masks.tolist()
    assert np.array_equal(wilson_spanning_tree(K4_EDGES, seed=3, count=50, vertices=4.0).draws,
                          wilson_spanning_tree(K4_EDGES, seed=3, count=50).draws)


def test_wilson_parallel_edges():
    batch = wilson_spanning_tree([(0, 1), (0, 1)], seed=4, count=20_000)
    masks = sorted(set(batch.draws.tolist()))
    assert masks == [0b01, 0b10]
    assert freq_within_4_sigma(batch.draws, 0b01, 0.5, 20_000)


# --------------------------------------------------------------------- kdpp

def test_kdpp_rejects_more_elements_than_mask_bits():
    kern = np.zeros((70, 70))
    kern[69, 69] = 1.0  # every draw is {69}, past the int64 masks
    with pytest.raises(StateSpaceTooLarge):
        sample_kdpp(kern, seed=0, count=1)


def test_kdpp_axis_kernel():
    batch = sample_kdpp(np.diag([1.0, 0.0]), seed=1, count=25)
    assert (batch.draws == 0b01).all()


def test_kdpp_rank_one_singletons():
    p = np.array([0.6, 0.8])
    batch = sample_kdpp(np.outer(p, p), seed=2, count=40_000)
    masks = sorted(set(batch.draws.tolist()))
    assert masks == [0b01, 0b10]
    assert freq_within_4_sigma(batch.draws, 0b01, 0.36, 40_000)


def test_kdpp_sizes_equal_rank():
    kern = random_projection_kernel(5, 2, seed=12)
    batch = sample_kdpp(kern, seed=3, count=400)
    for mask in batch.draws.tolist():
        assert bin(mask).count("1") == 2


def test_kdpp_matches_exact_measure():
    kern = random_projection_kernel(4, 2, seed=11)
    m = measures.make_projection_dpp(kern)
    count = 60_000
    batch = sample_kdpp(kern, seed=6, count=count)
    supp = m.support()
    assert set(batch.draws.tolist()) <= set(supp.tolist())
    for mask in supp.tolist():
        assert freq_within_4_sigma(batch.draws, mask, m.mass(mask), count)


def test_kdpp_marginals_match_diagonal():
    kern = random_projection_kernel(6, 2, seed=13)
    count = 50_000
    batch = sample_kdpp(kern, seed=8, count=count)
    for b in range(6):
        p = float(kern[b, b])
        hat = float(np.mean((batch.draws >> b) & 1))
        sigma = np.sqrt(p * (1 - p) / count)
        assert abs(hat - p) <= 4 * sigma


def test_kdpp_rejects_non_projection():
    with pytest.raises(NotAProjection):
        sample_kdpp(np.diag([0.5, 0.5]), seed=0, count=1)
    with pytest.raises(NotAProjection):
        sample_kdpp(np.array([[1.0, 0.3], [0.0, 0.0]]), seed=0, count=1)
    for bad in (np.nan, np.inf):
        with pytest.raises(NotAProjection, match="non-finite"):
            sample_kdpp(np.array([[0.5, bad], [0.5, 0.5]]), seed=0, count=1)


def test_kdpp_deterministic_per_index():
    kern = random_projection_kernel(5, 2, seed=12)
    a = sample_kdpp(kern, seed=5, count=30)
    b = sample_kdpp(kern, seed=5, count=60)
    assert np.array_equal(a.draws, b.draws[:30])


# ------------------------------------------- batched samplers vs per-draw loops

WHEEL4_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]


def _stream(seed, index):
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reference_wilson(edges, seed, count, vertices=None):
    """One generator and one loop-erased walk per draw: the scalar sampler
    the batched one must reproduce bit for bit."""
    edges, vertices = tree_edges(edges, vertices)
    nbr = [[] for _ in range(vertices)]
    for idx, (u, v) in enumerate(edges):
        nbr[u].append((v, idx))
        nbr[v].append((u, idx))
    draws = np.zeros(count, dtype=np.int64)
    for i in range(count):
        rng = _stream(seed, i)
        in_tree = np.zeros(vertices, dtype=bool)
        in_tree[0] = True
        next_hop = np.full(vertices, -1, dtype=np.int64)
        next_edge = np.full(vertices, -1, dtype=np.int64)
        for start in range(1, vertices):
            if in_tree[start]:
                continue
            cur = start
            while not in_tree[cur]:
                j = int(rng.integers(len(nbr[cur])))
                nxt, eidx = nbr[cur][j]
                next_hop[cur] = nxt
                next_edge[cur] = eidx
                cur = nxt
            cur = start
            while not in_tree[cur]:
                in_tree[cur] = True
                cur = int(next_hop[cur])
        mask = 0
        for w in range(1, vertices):
            mask |= 1 << int(next_edge[w])
        draws[i] = mask
    return draws


def reference_kdpp(kernel, seed, count):
    """One generator and one chain-rule pass per draw (see reference_wilson)."""
    k_mat, rank = projection_kernel(kernel)
    n = k_mat.shape[0]
    draws = np.zeros(count, dtype=np.int64)
    for i in range(count):
        rng = _stream(seed, i)
        work = k_mat.copy()
        mask = 0
        for _ in range(rank):
            diag = np.clip(np.diag(work).copy(), 0.0, None)
            for b in range(n):
                if (mask >> b) & 1:
                    diag[b] = 0.0
            total = diag.sum()
            pick = int(np.searchsorted(np.cumsum(diag), rng.random() * total))
            pick = min(pick, n - 1)
            pivot = work[pick, pick]
            work = work - np.outer(work[:, pick], work[pick, :]) / pivot
            mask |= 1 << pick
        draws[i] = mask
    return draws


@pytest.mark.parametrize("seed", [0, 5, 2**63 + 5, 2**64 - 1])
def test_philox_blocks_match_numpy(seed):
    index = np.arange(40, dtype=np.uint64)
    for block in range(3):
        got = streams.philox(seed, index, block)
        for i in index.tolist():
            key = np.array([seed, i], dtype=np.uint64)
            want = np.random.Philox(key=key).random_raw(4 * (block + 1))[4 * block:]
            assert np.array_equal(got[i], want)


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
def test_table_draws_are_the_alias_map_of_stream_seed_0(monkeypatch, seed):
    """sample_table's numpy Philox(key=seed) is stream (seed, 0): draw j is the
    alias map of the uniforms of its words 2j and 2j + 1, in chunks of any size."""
    m = measures.make_bernoulli_product([0.3, 0.7, 0.6, 0.2])
    thresh, alias = _build_alias(m.masses)
    count = 1000
    u = streams.uniform(streams.words(seed, [np.array([0])], [2 * count])[0][0]).reshape(count, 2)
    cell = np.minimum((u[:, 0] * m.masks.size).astype(np.int64), m.masks.size - 1)
    want = m.masks[np.where(u[:, 1] >= thresh[cell], alias[cell], cell)]
    assert np.array_equal(sample_table(m, seed, count).draws, want)
    monkeypatch.setattr(streams, "CHUNK_BYTES", 33 * 7)
    assert np.array_equal(sample_table(m, seed, count).draws, want)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_is_refused_not_wrapped(seed):
    """philox (and with it words, Wilson, k-DPP and the two observable makers)
    and the table's numpy key read one rule, inputs.as_seed: a seed outside
    [0, 2^64) is an error, not the draws of the seed it wraps to."""
    m = measures.make_uniform_k_subsets(4, 2)
    kern = random_projection_kernel(4, 2, seed=1)
    for draw in (lambda: streams.philox(seed, np.arange(3), 0),
                 lambda: streams.words(seed, [np.arange(3)], [5]),
                 lambda: sample_table(m, seed, 5),
                 lambda: wilson_spanning_tree(K4_EDGES, seed, 5),
                 lambda: sample_kdpp(kern, seed, 5),
                 lambda: functional.random_matrix_fn(m.masks, 2, seed),
                 lambda: random_linear_matrix_fn(4, m.masks, 2, 1.0, seed)):
        with pytest.raises(OutOfRange, match=rf"seed must lie in \[0, 2\^64\), got {seed}$"):
            draw()


def test_words_of_no_keys_and_no_words():
    """An empty key array gives (0, c) words beside the other arrays' words,
    alone too, and a count of 0 gives (len(ks), 0)."""
    empty, full = streams.words(1, [np.arange(0, dtype=np.uint64), np.arange(2)], [3, 6])
    assert empty.shape == (0, 3) and empty.dtype == np.uint64
    assert np.array_equal(full, streams.words(1, [np.arange(2)], [6])[0])
    assert streams.words(1, [np.arange(0, dtype=np.uint64)], [3])[0].shape == (0, 3)
    assert streams.words(1, [np.arange(3)], [0])[0].shape == (3, 0)


def test_lemire_matches_integers_with_rejections():
    """n = 3 * 2**30 + 1 rejects about a quarter of the uint32 values."""
    n = 3 * 2**30 + 1
    rejected = 0
    for i in range(200):
        raw = np.concatenate([streams.philox(11, np.array([i]), b)[0] for b in range(4)])
        values = np.stack([raw & streams.MASK32, raw >> 32], axis=1).ravel()  # low half first
        for x in values:
            pick, ok = streams.lemire(x, np.uint64(n))
            if ok:
                break
            rejected += 1
        assert int(pick) == int(_stream(11, i).integers(n))
    assert rejected > 20


def test_kdpp_matches_the_per_draw_reference():
    rng = np.random.default_rng(1996)
    ranks = set()
    for t in range(20):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, min(n, 6) + 1))
        ranks.add(rank)
        kern = random_projection_kernel(n, rank, seed=t)
        assert np.array_equal(sample_kdpp(kern, t, 150).draws, reference_kdpp(kern, t, 150))
    assert max(ranks) > 4  # a second Philox block per draw


@pytest.mark.parametrize("edges", [
    K3_EDGES, K4_EDGES, WHEEL4_EDGES, list(itertools.combinations(range(6), 2)),
    [(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2)]],
    ids=["K3", "K4", "wheel4", "K6", "path", "parallel"])
def test_wilson_matches_the_per_draw_reference(edges):
    for seed in (3, 2**64 - 1):
        assert np.array_equal(wilson_spanning_tree(edges, seed, 200).draws,
                              reference_wilson(edges, seed, 200))


@pytest.mark.parametrize("sampler", ["table", "wilson", "kdpp"])
def test_batches_do_not_depend_on_the_chunks(monkeypatch, sampler):
    """Counts that end on a chunk boundary or mid-chunk give the prefix of the
    per-draw reference (for table, of the one-chunk draw)."""
    kern = random_projection_kernel(5, 2, seed=12)
    m = measures.make_uniform_k_subsets(6, 3)
    draw, reference, chunk_bytes = {
        "table": (lambda c: sample_table(m, 7, c), lambda c: sample_table(m, 7, c).draws, 400),
        "wilson": (lambda c: wilson_spanning_tree(WHEEL4_EDGES, 7, c),
                   lambda c: reference_wilson(WHEEL4_EDGES, 7, c), 1000),
        "kdpp": (lambda c: sample_kdpp(kern, 7, c), lambda c: reference_kdpp(kern, 7, c), 4000),
    }[sampler]
    want = reference(50)  # before the chunks shrink
    ranges = []
    batched = samplers._batched

    def spy(seed, count, row_bytes, chunk):
        def recorded(lo, hi, out):
            ranges.append((lo, hi))
            chunk(lo, hi, out)
        return batched(seed, count, row_bytes, recorded)

    monkeypatch.setattr(samplers, "_batched", spy)
    monkeypatch.setattr(streams, "CHUNK_BYTES", chunk_bytes)
    draw(30)
    step = ranges[0][1]
    assert 1 < step < 15 and ranges[1] == (step, 2 * step)
    for count in (0, 1, step - 1, step, step + 1, 2 * step + 1, 3 * step - 1):
        batch = draw(count)
        assert batch.count == count and np.array_equal(batch.draws, want[:count])


@pytest.mark.parametrize("sampler", ["table", "wilson", "kdpp", "dump"])
def test_sampler_memory_does_not_grow_with_count(monkeypatch, tmp_path, sampler):
    """With 64 KB chunks, a sampler's tracemalloc peak above its batch's own
    bytes, and a dump's peak, stay under four chunks at 4096 and at 32768
    draws: an 8x count must not hold more than one chunk's state."""
    monkeypatch.setattr(streams, "CHUNK_BYTES", 1 << 16)
    m = measures.make_uniform_k_subsets(6, 3)
    kern = random_projection_kernel(5, 2, seed=12)
    run = {"table": lambda c: sample_table(m, 1, c),
           "wilson": lambda c: wilson_spanning_tree(K3_EDGES, 1, c),
           "kdpp": lambda c: sample_kdpp(kern, 1, c),
           "dump": lambda c: dump_batch(batch, tmp_path / "draws.hex")}[sampler]
    for count in (4096, 8 * 4096):
        batch = sample_table(m, 1, count)  # the dump's input, made before the trace
        own = 0 if sampler == "dump" else 8 * count  # the int64 batch
        tracemalloc.start()
        try:
            run(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - own <= 4 * streams.CHUNK_BYTES, (count, peak - own)


def test_a_chunk_holds_at_most_chunk_bytes():
    """The module's memory contract, as tracemalloc sees it: at the default
    CHUNK_BYTES, a sampler's peak above its batch's own bytes, over two chunks
    and a draw, exceeds what one draw's call holds (alias table, kernel copy) by
    at most one chunk, for a small and a large kernel, a graph and a table."""
    m = measures.make_uniform_k_subsets(10, 5)
    small, large = random_projection_kernel(5, 2, seed=3), random_projection_kernel(20, 5, seed=3)
    runs = [(lambda c: sample_kdpp(small, 1, c), 8 * (25 + 25 + 20)),
            (lambda c: sample_kdpp(large, 1, c), 8 * (400 + 100 + 20)),
            (lambda c: wilson_spanning_tree(WHEEL4_EDGES, 1, c), 17 * 5 + 8 * 32),
            (lambda c: sample_table(m, 1, c), 8 * 4 + 1)]
    for run, row_bytes in runs:
        run(5)  # what a first call loads or caches is not chunk state
        count = 2 * (streams.CHUNK_BYTES // row_bytes) + 1
        one = peak_traced_bytes(lambda: run(1))[0]
        held = peak_traced_bytes(lambda: run(count))[0] - 8 * count
        assert held <= streams.CHUNK_BYTES + one, (row_bytes, held, one)


def test_golden_draws():
    """Literal draws, so that a numpy upgrade cannot move the streams unseen."""
    assert wilson_spanning_tree(K4_EDGES, 9, 8).draws.tolist() == [
        0x16, 0x1c, 0x34, 0x19, 0xe, 0x7, 0x13, 0xe]
    assert wilson_spanning_tree(WHEEL4_EDGES, 2**63 + 5, 6).draws.tolist() == [
        0xd4, 0x59, 0x63, 0xd2, 0x1d, 0x59]
    # an exact rank-3 projection: three orthonormal columns with entries 0, +-1/2
    h = np.array([[1, 1, 1, 1, 0, 0], [1, -1, 0, 0, 1, 1], [0, 0, 1, -1, 1, -1]]).T / 2
    assert sample_kdpp(h @ h.T, 9, 10).draws.tolist() == [
        0x1a, 0x23, 0xb, 0x1a, 0x29, 0x15, 0xd, 0xd, 0xd, 0x1a]


# ----------------------------------------------------------- clopper-pearson

def test_cp_upper_matches_binomial_cdf():
    # the exact upper limit solves P[Bin(n, u) <= s] = 1 - confidence
    for s, n in [(5, 100), (0, 37), (12, 40), (97, 200)]:
        u = clopper_pearson_upper(s, n, 0.99)
        if s < n:
            assert binom.cdf(s, n, u) == pytest.approx(0.01, abs=1e-9)


def test_cp_upper_matches_beta_quantile():
    # the limit is the confidence quantile of Beta(s + 1, n - s); scipy's is
    # an oracle to 1e-12 relative, not a pin on its last bits
    rng = np.random.default_rng(2011)
    for _ in range(100):
        n = int(rng.integers(1, 500))
        s = int(rng.integers(0, n))
        conf = float(rng.uniform(0.5, 0.999))
        ref = float(beta.ppf(conf, s + 1, n - s))
        assert abs(clopper_pearson_upper(s, n, conf) - ref) <= 1e-12 * ref


GRID_TRIALS = [1, 2, 5, 37, 500, 20_000, 100_000, 1_000_000]
GRID_CONFIDENCES = [0.5, 0.9, 0.95, 0.99, 0.999]


def grid_successes(n):
    """0..n at both edges and at the quantiles in between."""
    edges = np.concatenate([np.arange(min(n, 6) + 1), n - np.arange(min(n, 6) + 1)])
    quantiles = (n * np.array([1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95,
                               0.99, 0.999])).astype(np.int64)
    return np.unique(np.concatenate([edges, quantiles]))


@pytest.mark.parametrize("conf", GRID_CONFIDENCES)
@pytest.mark.parametrize("n", GRID_TRIALS)
def test_cp_upper_matches_betaincinv_on_a_grid(n, conf):
    """Relative error against scipy's betaincinv: 1e-12 up to 10^5 trials,
    1e-10 at 10^6, where betaincinv itself drifts (see the next test)."""
    s = grid_successes(n)
    got = samplers._cp_upper(s, n, conf)
    ref = np.where(s == n, 1.0, betaincinv(s + 1, np.maximum(n - s, 1), conf))
    assert np.all(np.abs(got - ref) <= (1e-12 if n <= 100_000 else 1e-10) * ref)
    assert [clopper_pearson_upper(int(x), n, conf) for x in s] == got.tolist()


def reference_cp_error(s, n, conf, p):
    """(p - p*) / p* to first order, from the binomial CDF at p summed in
    40 digits: (F(p) - (1 - conf)) / (p F'(p)), F'(p) = -(n - s) b(s) / (1 - p)."""
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        b = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(s + 1)
                       - mpmath.loggamma(n - s + 1) + s * mpmath.log(p)
                       + (n - s) * mpmath.log1p(-p))
        term, cdf, odds = b, b, (1 - p) / p
        for x in range(s, 0, -1):
            term *= x * odds / (n - x + 1)
            cdf += term
            if term < cdf * mpmath.mpf(10) ** -36:
                break
        return float((cdf - (1 - mpmath.mpf(conf))) * (1 - p) / (-(n - s) * b * p))


@pytest.mark.parametrize("n", [5, 37, 500, 20_000, 100_000, 1_000_000])
def test_cp_upper_matches_a_40_digit_reference(n):
    """Within 1e-14 relative of the exact quantile, also where betaincinv is
    off by up to 1e-11 (a few successes in 10^5 or 10^6 trials) and at the
    extreme confidences where three Newton steps would not be enough."""
    s = np.unique([1, 2, 3, 6, n // 2, n - 2, n - 1])
    s = s[s < n]
    for conf in (1e-6, 0.5, 0.95, 0.999, 1 - 1e-6):
        got = samplers._cp_upper(s, n, conf)
        assert max(abs(reference_cp_error(int(x), n, conf, p))
                   for x, p in zip(s, got)) <= 1e-14


def test_cp_upper_closed_form_zero_successes():
    n = 100
    assert clopper_pearson_upper(0, n, 0.99) == pytest.approx(
        1 - 0.01 ** (1 / n))


def test_cp_upper_saturates():
    assert clopper_pearson_upper(100, 100) == 1.0


def test_cp_upper_monotone_in_successes():
    vals = [clopper_pearson_upper(s, 50, 0.99) for s in range(0, 51, 5)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cp_upper_rejects():
    with pytest.raises(ValueError):
        clopper_pearson_upper(-1, 10)
    with pytest.raises(ValueError):
        clopper_pearson_upper(11, 10)
    with pytest.raises(ValueError):
        clopper_pearson_upper(0, 0)
    # confidence strictly inside (0, 1), read as a real
    for conf in (1.5, -0.2, float("nan"), 0.0, 1.0, True, "0.9", None):
        with pytest.raises(ValueError):
            clopper_pearson_upper(3, 10, conf)
    # counts read as integers: 4.0 is one, 3.5, a bool or a string is not
    assert clopper_pearson_upper(4.0, 10.0) == clopper_pearson_upper(4, 10)
    for successes, trials in ((3.5, 10), (True, 10), (3, True), ("3", 10), (3, 10.5)):
        with pytest.raises(ValueError):
            clopper_pearson_upper(successes, trials)


# ------------------------------------------------------------ empirical tail

def test_empirical_tail_constant_fn():
    m = measures.make_uniform_k_subsets(3, 1)
    batch = sample_table(m, seed=0, count=200)
    fn = MatrixFn.constant(m.support(), np.diag([2.0, -1.0]))
    rows = empirical_tail(fn, batch, [0.5, 1.0], measure=m)
    assert all(r.estimate == 0.0 for r in rows)


def test_empirical_tail_two_point_exact_mean():
    m = dense_measure(1, np.array([0.3, 0.7]))
    fn = MatrixFn.from_table({0: [[1.0]], 1: [[-1.0]]})
    batch = sample_table(m, seed=1, count=50_000)
    rows = empirical_tail(fn, batch, [0.7, 1.5], measure=m)
    # deviations are 1.4 on mass 0.3 and 0.6 on mass 0.7
    assert rows[0].estimate == pytest.approx(0.3, abs=0.02)
    assert rows[1].estimate == 0.0
    assert rows[0].ci_upper >= rows[0].estimate


def test_empirical_tail_domain_mismatch():
    m = measures.make_uniform_k_subsets(3, 1)
    batch = sample_table(m, seed=0, count=10)
    fn = MatrixFn.from_table({1: [[1.0]], 2: [[2.0]]})  # mask 4 missing
    with pytest.raises(functional.DomainMismatch):
        empirical_tail(fn, batch, [0.5], measure=m)


def test_empirical_tail_empty_batch():
    m = measures.make_uniform_k_subsets(3, 1)
    fn = MatrixFn.constant(m.support(), np.eye(2))
    with pytest.raises(ValueError):
        empirical_tail(fn, SampleBatch(0, 0, np.zeros(0, dtype=np.int64)), [0.5],
                       measure=m)


def test_empirical_tail_rejects_a_draw_outside_the_support():
    """The function is defined at mask 3, but the measure puts no mass there:
    the draw has no deviation from E_pi F to count."""
    m = measures.make_uniform_k_subsets(3, 1)
    fn = MatrixFn.from_table({1: [[1.0]], 2: [[2.0]], 3: [[0.0]], 4: [[3.0]]})
    batch = SampleBatch(0, 3, np.array([1, 3, 4], dtype=np.int64))
    with pytest.raises(functional.DomainMismatch, match="0x3 outside"):
        empirical_tail(fn, batch, [0.5], measure=m)


def test_empirical_tail_tracks_exact_tail():
    from srconc.concentration import exact_tail

    m = measures.make_spanning_tree_measure(K4_EDGES)
    w = chains.hermon_salez(m)
    fn, _ = random_linear_matrix_fn(len(K4_EDGES), w.states, 3,
                                    lipschitz=1.0, seed=17)
    count = 50_000
    batch = sample_table(m, seed=19, count=count)
    ts = [0.4, 0.8, 1.2]
    rows = empirical_tail(fn, batch, ts, measure=m)
    exact = exact_tail(w.pi, fn.gather(w.states), ts)
    for row, ex in zip(rows, exact):
        sigma = np.sqrt(max(ex * (1 - ex), 1e-12) / count)
        assert abs(row.estimate - ex) <= 5 * sigma + 1e-12
        assert row.ci_upper >= ex - 5 * sigma


def searchsorted_sampled_tail(states, devs, batch, ts):
    """The empirical tail by one searchsorted of the draws in draw order and a
    sort of their deviations: the reference of the per-state counts."""
    pos = np.minimum(np.searchsorted(states, batch.draws), states.size - 1)
    outside = batch.draws[states[pos] != batch.draws]
    if outside.size:
        raise functional.DomainMismatch(
            f"draw {int(outside[0]):#x} outside the measure's support")
    ts = np.asarray(ts, dtype=float)
    hits = batch.count - np.searchsorted(np.sort(devs[pos]), ts, side="left")
    return [samplers.EmpiricalTailRow(float(t), float(h / batch.count), float(c))
            for t, h, c in zip(ts, hits, samplers._cp_upper(hits, batch.count, 0.99))]


@pytest.mark.parametrize("count", [20_000, 100_000])
def test_sampled_tail_matches_the_searchsorted_reference(count):
    """Deviations with ties, an unsorted t grid holding deviations themselves,
    and two draws outside the support, the later of them the smaller mask."""
    m = measures.make_uniform_k_subsets(10, 5)
    rng = np.random.default_rng(count)
    devs = rng.integers(0, 12, m.masks.size) / 4.0
    ts = rng.permutation(np.concatenate([devs[:40], [-1.0, 0.0, 0.1, 2.75, 2.8, 9.0],
                                         3.0 * rng.random(20)]))
    batch = sample_table(m, seed=7, count=count)
    got = samplers.sampled_tail(m.masks, devs, batch, ts)
    assert got == searchsorted_sampled_tail(m.masks, devs, batch, ts)
    assert len({row.estimate for row in got}) > 10
    draws = batch.draws.copy()
    draws[[1234, 5000]] = [0x3FF, 0x1]
    outside = SampleBatch(batch.seed, count, draws)
    messages = []
    for tail in (samplers.sampled_tail, searchsorted_sampled_tail):
        with pytest.raises(functional.DomainMismatch, match="draw 0x3ff outside") as err:
            tail(m.masks, devs, outside, ts)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------- round trip

def test_dump_load_roundtrip(monkeypatch, tmp_path):
    """One line per draw, in one chunk and in chunks of 10 masks (640 bytes)."""
    m = measures.make_uniform_k_subsets(6, 3)
    batch = sample_table(m, seed=21, count=64)
    path = tmp_path / "draws.hex"
    for chunk_bytes in (streams.CHUNK_BYTES, 640):
        monkeypatch.setattr(streams, "CHUNK_BYTES", chunk_bytes)
        dump_batch(batch, path)
        text = path.read_text()
        assert text == "".join(f"{mask:x}\n" for mask in batch.draws.tolist())
        lines = text.strip().split("\n")
        assert len(lines) == 64
        assert all(line == line.lower() for line in lines)
        assert [int(line, 16) for line in lines] == batch.draws.tolist()


def test_batch_shape_check():
    with pytest.raises(ValueError):
        SampleBatch(0, 3, np.zeros((2,), dtype=np.int64))
