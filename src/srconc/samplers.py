"""Seeded samplers for the measure families plus empirical tails.

Randomness contract: every batch is a pure function of (seed, count), for a
seed in [0, 2^64) (inputs.as_seed).  Draw i reads only its own slice of a Philox
stream: the table's uniforms from stream (seed, 0), through numpy.random's C
Philox (ten times faster than `streams`), and draw i of a walk-based sampler
stream (seed, i), which `streams` computes for a chunk at once, so batches do
not depend on scheduling or chunking.  Memory contract: every batch is made
chunk by chunk (`_batched`) into one count-long int64 array, and `dump_batch`
writes it chunk by chunk, so a sampler holds its output plus one chunk's working
state, at most streams.CHUNK_BYTES (each sampler's row_bytes counts every array
a draw holds in its chunk), whatever the count.  Empirical tails read each
draw's deviation from the exact E_pi F off the centred spectrum of the support,
under exact Clopper-Pearson limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import streams
from .inputs import as_seed, at_least
from .measures import (
    StateSpaceTooLarge,
    SubsetMeasure,
    as_integer,
    as_real,
    projection_kernel,
    tree_edges,
    validate,
)

if TYPE_CHECKING:
    from .functional import MatrixFn

MASK_BITS = 63  # bits of a nonnegative int64 draw


def _batched(seed: int, count: int, row_bytes: int, draw) -> SampleBatch:
    """The batch whose masks lo..hi-1 draw(lo, hi, out) writes into out, in
    order over ranges of at most streams.CHUNK_BYTES of state, row_bytes per
    draw: the one count-long array is the only memory that grows with count."""
    step = max(1, streams.CHUNK_BYTES // row_bytes)
    masks = np.empty(count, dtype=np.int64)
    for lo in range(0, count, step):
        draw(lo, min(lo + step, count), masks[lo:lo + step])
    return SampleBatch(seed, count, masks)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    seed: int
    count: int
    draws: np.ndarray  # masks, shape (count,)

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=np.int64)
        if draws.shape != (self.count,):
            raise ValueError(f"draws have shape {draws.shape}, expected ({self.count},)")
        object.__setattr__(self, "draws", draws)


def _build_alias(probs):
    """Vose alias table; returns (thresholds, aliases)."""
    k = probs.size
    scaled = probs * k
    alias = np.zeros(k, dtype=np.int64)
    thresh = np.ones(k)
    small = [i for i in range(k) if scaled[i] < 1.0]
    large = [i for i in range(k) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        g = large.pop()
        thresh[s] = scaled[s]
        alias[s] = g
        scaled[g] = scaled[g] - (1.0 - scaled[s])
        (small if scaled[g] < 1.0 else large).append(g)
    for rest in small + large:
        thresh[rest] = 1.0
    return thresh, alias


def sample_table(m: SubsetMeasure, seed: int, count: int) -> SampleBatch:
    """I.i.d. draws from a dense measure by the alias method."""
    count = at_least(count, "count", 0)
    validate(m)
    supp, probs = m.masks, m.masses  # validated: every stored mass is positive
    thresh, alias = _build_alias(probs)
    rng = np.random.Generator(np.random.Philox(key=as_seed(seed, "seed")))
    return _batched(seed, count, 8 * 4 + 1,  # two uniforms, the cell, its alias and a flag
                    lambda lo, hi, out: _table_chunk(supp, thresh, alias, rng, out))


def _table_chunk(supp, thresh, alias, rng, out) -> None:
    """The alias draws of rng's next out.size uniform pairs, written into out.
    Read chunk after chunk, the pairs are those of one (count, 2) draw."""
    u = rng.random((out.size, 2))
    u[:, 0] *= supp.size
    cell = u[:, 0].astype(np.int64)
    np.minimum(cell, supp.size - 1, out=cell)
    aliased = u[:, 1] >= thresh[cell]
    del u  # before alias[cell] is made
    np.copyto(cell, alias[cell], where=aliased)
    np.take(supp, cell, out=out, mode="clip")  # cell is in range; "raise" would buffer out


def wilson_spanning_tree(edges, seed: int, count: int,
                         vertices: int | None = None) -> SampleBatch:
    """Uniform spanning trees by loop-erased random walks.

    Ground set = the edge list; each draw is a mask over edge indices.
    Multi-edges are allowed and picked uniformly among parallel arcs.
    Draws are int64 masks, so at most MASK_BITS edges.
    """
    count = at_least(count, "count", 0)
    edges, vertices = tree_edges(edges, vertices)
    if len(edges) > MASK_BITS:
        raise StateSpaceTooLarge(f"{len(edges)} edges exceed the {MASK_BITS}-bit masks")

    nbr: list[list[tuple[int, int]]] = [[] for _ in range(vertices)]
    for idx, (u, v) in enumerate(edges):
        nbr[u].append((v, idx))
        nbr[v].append((u, idx))
    degree = np.array([len(arcs) for arcs in nbr], dtype=np.uint64)
    hops = np.zeros((vertices, max(map(len, nbr)), 2), dtype=np.int64)  # (vertex, edge)
    for v, arcs in enumerate(nbr):
        hops[v, :len(arcs)] = np.reshape(arcs, (-1, 2))
    # per draw: in_tree, hop, via, and 32 words of walk state, block and temporaries
    return _batched(seed, count, 17 * vertices + 8 * 32,
                    lambda lo, hi, out: _wilson_chunk(hops, degree, seed, lo, hi, out))


def _wilson_chunk(hops, degree, seed: int, lo: int, hi: int, out) -> None:
    """Draws lo..hi-1 in lockstep, one walk or retrace step of each per
    iteration: walk from the lowest vertex not in the tree until it is hit,
    reading stream (seed, i) one uint32 per step off a vertex of degree > 1
    (Lemire rejections aside), then retrace the last exits, reading none."""
    vertices = degree.size
    in_tree = np.zeros((hi - lo, vertices), dtype=bool)
    in_tree[:, 0] = True
    hop = np.zeros(in_tree.shape, dtype=np.int64)  # last exit of each vertex
    via = np.zeros(in_tree.shape, dtype=np.int64)  # and its edge
    row = np.arange(hi - lo) if vertices > 1 else np.zeros(0, dtype=np.int64)
    start, cur = np.ones_like(row), np.ones_like(row)
    walking = np.ones(row.size, dtype=bool)
    used = np.zeros(row.size, dtype=np.uint64)  # uint32 values read
    words = np.zeros((row.size, 4), dtype=np.uint64)  # the block holding the next one
    while row.size:
        deg = degree[cur]
        reads = walking & (deg > 1)  # integers(1) reads nothing; lemire gives it 0
        fresh = reads & (used % 8 == 0)  # reads run in order, 8 to a block
        words[fresh] = streams.philox(seed, row[fresh] + lo, used[fresh] >> 3)
        word = words[np.arange(row.size), (used >> 1) & 3]
        pick, ok = streams.lemire(word >> ((used & 1) << 5) & streams.MASK32, deg)
        used += reads
        step = np.flatnonzero(walking & ok)
        back = np.flatnonzero(~walking)

        r, v = row[step], cur[step]
        hop[r, v], via[r, v] = hops[v, pick[step].astype(np.int64)].T
        cur[step] = hop[r, v]
        hit = step[in_tree[r, cur[step]]]
        walking[hit], cur[hit] = False, start[hit]

        r = row[back]
        in_tree[r, cur[back]] = True
        cur[back] = hop[r, cur[back]]
        done = back[in_tree[r, cur[back]]]
        left = ~in_tree[row[done]]  # every vertex below the last start is in the tree
        more = left.any(axis=1)
        start[done[more]] = cur[done[more]] = left[more].argmax(axis=1)
        walking[done[more]] = True
        live = ~np.isin(np.arange(row.size), done[~more])
        row, start, cur, walking, used, words = (
            a[live] for a in (row, start, cur, walking, used, words))
    np.left_shift(1, via, out=via)
    np.bitwise_or.reduce(via[:, 1:], axis=1, out=out)


def sample_kdpp(kernel, seed: int, count: int) -> SampleBatch:
    """Draws from the determinantal measure of a projection kernel.

    Chain rule on the kernel: pick an item proportional to the residual
    diagonal, take the Schur complement, repeat rank(K) times.  Draws are
    int64 masks, so at most MASK_BITS elements.  Step s of draw i uses
    word s of stream (seed, i) as Generator.random(); a chunk steps at once.
    """
    count = at_least(count, "count", 0)
    k_mat, rank = projection_kernel(kernel)
    n = k_mat.shape[0]
    if n > MASK_BITS:
        raise StateSpaceTooLarge(f"kernel on {n} elements exceeds the {MASK_BITS}-bit masks")
    # per draw: work, a step's five rows (weights, sums, col, row, step), 20 words
    return _batched(seed, count, 8 * (n * n + 5 * n + 20),
                    lambda lo, hi, out: _kdpp_chunk(k_mat, rank, seed, lo, hi, out))


def _kdpp_chunk(k_mat, rank: int, seed: int, lo: int, hi: int, out) -> None:
    """Draws lo..hi-1 in lockstep.  The Schur step updates the chunk's
    (size, n, n) state a column at a time: each entry loses
    (col_i * row_j) / pivot once, as in the whole-matrix outer product."""
    n = k_mat.shape[0]
    work = np.repeat(k_mat[None], hi - lo, axis=0)
    taken = np.zeros((hi - lo, n), dtype=bool)
    rows, diag = np.arange(hi - lo), np.arange(n)
    for s in range(rank):
        if s % 4 == 0:
            raw = streams.philox(seed, np.arange(lo, hi, dtype=np.uint64), s // 4)
        u = streams.uniform(raw[:, s % 4])
        weights = np.clip(work[:, diag, diag], 0.0, None)
        weights[taken] = 0.0
        total = weights.sum(axis=1)
        # searchsorted's left side: the count of cumulative sums below u * total
        pick = np.minimum((np.cumsum(weights, axis=1) < (u * total)[:, None]).sum(axis=1), n - 1)
        col, row, pivot = work[rows, :, pick], work[rows, pick, :], work[rows, pick, pick]
        for j in range(n):
            step = col * row[:, j, None]
            step /= pivot[:, None]
            work[:, :, j] -= step
        taken[rows, pick] = True
        del weights, col, row, step  # before the next step makes its own
    np.matmul(taken, np.left_shift(1, np.arange(n, dtype=np.int64)), out=out)


_TAIL_LOG = 36.0  # a window drops < e^-36 (1 + W/72) of its sum: see _cp_upper
_STIRLERR = np.array([math.lgamma(x + 1.0) - (x + 0.5) * math.log(x) + x
                      - 0.5 * math.log(2.0 * math.pi) for x in range(1, 16)])


def _bd0(x, mean):
    """x log(x/mean) + mean - x, by its series where |v| < 0.1 (Loader 2000)."""
    v = (x - mean) / (x + mean)
    w, poly = v * v, 1 / 17
    for j in range(15, 1, -2):
        poly = poly * w + 1 / j
    return np.where(np.abs(v) < 0.1, (x - mean) * v + 2 * x * v * w * poly,
                    x * np.log(x / mean) + mean - x)


def _cp_upper(hits, trials, confidence: float) -> np.ndarray:
    """clopper_pearson_upper on flattened, broadcast arrays, each entry bit
    for bit a function of its own (hits, trials, confidence).  For 0 < s < n - 1:
    four Newton steps on log P[Bin(n, p) <= k] = log beta in the log-odds of p
    (k = s, beta = 1 - confidence), or of 1 - p below confidence 1/2 (k = n-1-s,
    beta = confidence), from the Camp-Paulson start.  The CDF is the pmf at k
    (C. Loader, "Fast and Accurate Computation of Binomial Probabilities", 2000)
    times 1 + the partial products of r_{k-i} = b(k-i-1)/b(k-i) summed in order
    over W terms, padded with zeros.  For p >= k/(n + 1), true at the root as
    beta <= 1/2, r_{k-i} <= (1 - i/k)/(1 + i/m) with m = n - k + 1, so with
    L = _TAIL_LOG, h = km/(k + m) and W = ceil(sqrt(2Lh)) + 2L the terms past
    W add < e^-L (1 + W/2L) of the sum."""
    s, n = np.broadcast_arrays(np.ravel(hits).astype(float), np.ravel(trials).astype(float))
    out = np.where(s == 0, -np.expm1(np.log1p(-confidence) / n),
                   np.where(s == n, 1.0, np.exp(np.log(confidence) / n)))  # s = n - 1
    rows = np.flatnonzero((s > 0) & (s < n - 1))
    flip, n = confidence < 0.5, n[rows]
    k, beta = (n - 1 - s[rows], confidence) if flip else (s[rows], 1.0 - confidence)
    m = n - k + 1
    width = np.minimum(k, np.ceil(np.sqrt(2 * _TAIL_LOG * k * m / (k + m))) + 2 * _TAIL_LOG)
    j = np.arange(width.max(initial=1))
    ratios = np.where(j < width[:, None], (k[:, None] - j) / (m[:, None] + j), 0.0)  # at odds 1
    x = np.stack([n, k, n - k])  # stirlerr(x) = log x! - log(sqrt(2 pi x) (x/e)^x)
    xx = np.maximum(x, 16.0) ** -2.0
    stir = np.where(x < 16, _STIRLERR[np.minimum(x, 15).astype(np.int64) - 1], np.sqrt(xx)
                    * (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - xx / 1188) * xx) * xx) * xx))
    anchor = stir[0] - stir[1] - stir[2] - 0.5 * np.log(2 * np.pi * k * (n - k) / n)
    t = math.sqrt(-2.0 * math.log(beta))  # z = Phi^-1(1 - beta) by A&S 26.2.23
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t ** 3)
    a, b = 1.0 / (9.0 * (k + 1)), 1.0 / (9.0 * (n - k))
    z = np.minimum(z, 0.9 * (1 - b) / np.sqrt(b))  # where Camp-Paulson has no root
    theta = np.log((k + 1) / (n - k)) + 3 * np.log(
        ((1 - a) * (1 - b) + z * np.sqrt((1 - b) ** 2 * a + (1 - a) ** 2 * b - z * z * a * b))
        / ((1 - b) ** 2 - z * z * b))
    for _ in range(4):
        odds = np.exp(-theta)  # q / p
        terms = np.cumprod(ratios * odds[:, None], axis=1)
        total = 1.0 + np.cumsum(terms, axis=1, out=terms)[:, -1]  # F / b(k)
        p = 1.0 / (1.0 + odds)
        bd0 = _bd0(np.stack([k, n - k]), n * np.stack([p, odds * p]))  # log b(k) = anchor - both
        log_cdf = anchor - bd0[0] - bd0[1] + np.log(total)
        theta = theta + (log_cdf - math.log(beta)) * total / ((n - k) * p)
    out[rows] = 1.0 / (1.0 + np.exp(theta if flip else -theta))
    return out


def clopper_pearson_upper(successes: int, trials: int,
                          confidence: float = 0.99) -> float:
    """One-sided exact upper confidence limit for a binomial proportion: the p
    with P[Bin(trials, p) <= successes] = 1 - confidence.  Closed forms at 0,
    trials - 1 and trials successes, else four Newton steps (_cp_upper), within
    1e-14 relative of a 40-digit reference on the tested rows (to 10^6 trials).
    Counts are as_integer with 0 <= successes <= trials > 0, confidence is
    as_real strictly inside (0, 1); anything else raises ValueError."""
    successes, trials = as_integer(successes, "successes"), as_integer(trials, "trials")
    confidence = as_real(confidence, "confidence")
    if not (0 <= successes <= trials and trials > 0 and 0.0 < confidence < 1.0):
        raise ValueError("need 0 <= successes <= trials, trials > 0 and 0 < confidence < 1, "
                         f"got {successes}, {trials}, {confidence!r}")
    return float(_cp_upper(successes, trials, confidence)[0])


class EmpiricalTailRow(NamedTuple):
    t: float
    estimate: float
    ci_upper: float


def empirical_tail(fn: MatrixFn, batch: SampleBatch, ts,
                   measure: SubsetMeasure) -> list[EmpiricalTailRow]:
    """Empirical P[||F - E_pi F|| >= t] with a one-sided upper CI per t,
    centred at the exact mean over the measure's support."""
    from .concentration import TraceMgf
    validate(measure)
    spectrum = TraceMgf(measure.masses, fn.gather(measure.masks))
    return sampled_tail(measure.masks, spectrum.devs, batch, ts)


def sampled_tail(states, devs, batch: SampleBatch, ts) -> list[EmpiricalTailRow]:
    """Empirical tail of the batch, reading each draw's deviation from devs
    (aligned to the ascending states).  The draws are sorted once, and two
    searchsorteds of the states count the draws per state, which sum to the
    count exactly when every draw is in the support; the hits of t sum the
    counts of the states with devs >= t.  Beside the batch, only its sorted
    copy grows with the count."""
    from .concentration import _tail_mass
    from .functional import DomainMismatch
    if batch.count == 0:
        raise ValueError("empty batch")
    keys = np.sort(batch.draws)
    counts = np.searchsorted(keys, states, side="right") - np.searchsorted(keys, states)
    if counts.sum() != batch.count:
        first = batch.draws[~np.isin(batch.draws, states)][0]  # in draw order
        raise DomainMismatch(f"draw {int(first):#x} outside the measure's support")
    ts = np.asarray(ts, dtype=float)
    hits = _tail_mass(devs, counts, ts)
    return [EmpiricalTailRow(float(t), float(h / batch.count), float(c))
            for t, h, c in zip(ts, hits, _cp_upper(hits, batch.count, 0.99))]


def dump_batch(batch: SampleBatch, path) -> None:
    """Newline-delimited lowercase hex masks, written chunk by chunk."""
    step = max(1, streams.CHUNK_BYTES // 64)  # per mask: its int, list and tuple slots, hex line
    with open(path, "w") as fh:
        for lo in range(0, batch.count, step):
            chunk = batch.draws[lo:lo + step].tolist()
            fh.write(("%x\n" * len(chunk)) % tuple(chunk))
