"""Seeded samplers for the measure families plus empirical tails.

Randomness contract: every batch is a pure function of (seed, count).
Draw i consumes only its own slice of a counter-based Philox stream
keyed by the seed (a private row of uniforms for table sampling, a
dedicated Philox key (seed, i) for the walk-based samplers), so batches
are reproducible independently of scheduling or chunking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functional import MatrixFn, matrix_mean
from .measures import (
    DisconnectedGraph,
    StateSpaceTooLarge,
    SubsetMeasure,
    component_count,
    projection_kernel,
    tree_edges,
    validate,
)

MASK64 = (1 << 64) - 1
MASK_BITS = 63  # bits of a nonnegative int64 draw


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([int(seed) & MASK64, int(index) & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _row_uniforms(seed: int, count: int, per_draw: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=int(seed) & MASK64))
    return gen.random((count, per_draw))


@dataclass(frozen=True)
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
    validate(m)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    supp, probs = m.masks, m.masses  # validated: every stored mass is positive
    thresh, alias = _build_alias(probs)
    u = _row_uniforms(seed, count, 2)
    cell = np.minimum((u[:, 0] * supp.size).astype(np.int64), supp.size - 1)
    take_alias = u[:, 1] >= thresh[cell]
    cell = np.where(take_alias, alias[cell], cell)
    return SampleBatch(seed, count, supp[cell])


def wilson_spanning_tree(edges, seed: int, count: int,
                         vertices: int | None = None) -> SampleBatch:
    """Uniform spanning trees by loop-erased random walks.

    Ground set = the edge list; each draw is a mask over edge indices.
    Multi-edges are allowed and picked uniformly among parallel arcs.
    Draws are int64 masks, so at most MASK_BITS edges.
    """
    edges, vertices = tree_edges(edges, vertices)
    if len(edges) > MASK_BITS:
        raise StateSpaceTooLarge(f"{len(edges)} edges exceed the {MASK_BITS}-bit masks")
    if component_count(vertices, edges) != 1:
        raise DisconnectedGraph("graph is not connected")

    nbr: list[list[tuple[int, int]]] = [[] for _ in range(vertices)]
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
    return SampleBatch(seed, count, draws)


def sample_kdpp(kernel, seed: int, count: int) -> SampleBatch:
    """Draws from the determinantal measure of a projection kernel.

    Chain rule on the kernel: pick an item proportional to the residual
    diagonal, take the Schur complement, repeat rank(K) times.  Draws are
    int64 masks, so at most MASK_BITS elements.
    """
    k_mat, rank = projection_kernel(kernel)
    n = k_mat.shape[0]
    if n > MASK_BITS:
        raise StateSpaceTooLarge(f"kernel on {n} elements exceeds the {MASK_BITS}-bit masks")

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
    return SampleBatch(seed, count, draws)


def clopper_pearson_upper(successes: int, trials: int,
                          confidence: float = 0.99) -> float:
    """One-sided exact upper confidence limit for a binomial proportion."""
    if not 0 <= successes <= trials or trials <= 0:
        raise ValueError("need 0 <= successes <= trials, trials > 0")
    if successes == trials:
        return 1.0
    from scipy.special import betaincinv  # here, so only empirical tails pay scipy's import
    return float(betaincinv(successes + 1, trials - successes, confidence))


@dataclass(frozen=True)
class EmpiricalTailRow:
    t: float
    estimate: float
    ci_upper: float
    mean_is_exact: bool


def empirical_tail(fn: MatrixFn, batch: SampleBatch, ts,
                   measure: SubsetMeasure | None = None) -> list[EmpiricalTailRow]:
    """Empirical P[||F - mean|| >= t] with a one-sided upper CI per t.

    The centering mean is the exact E_pi[F] when the measure table is
    supplied; otherwise the batch mean is used and the rows are flagged.
    """
    if batch.count == 0:
        raise ValueError("empty batch")
    uniq, inverse = np.unique(batch.draws, return_inverse=True)
    vals = fn.gather(uniq)
    if measure is not None:
        keep = measure.masses > 0.0
        mean = matrix_mean(measure.masses[keep], fn.gather(measure.masks[keep]))
        exact = True
    else:
        mean = fn.gather(batch.draws).mean(axis=0)
        exact = False
    devs_per_state = np.abs(np.linalg.eigvalsh(vals - mean)).max(axis=1)
    devs = devs_per_state[inverse]
    rows = []
    for t in np.asarray(ts, dtype=float):
        hits = int((devs >= t).sum())
        rows.append(EmpiricalTailRow(float(t), hits / batch.count,
                                     clopper_pearson_upper(hits, batch.count),
                                     exact))
    return rows


def dump_batch(batch: SampleBatch, path) -> None:
    """Newline-delimited lowercase hex masks."""
    with open(path, "w") as fh:
        for mask in batch.draws:
            fh.write(f"{int(mask):x}\n")


def load_batch(path, seed: int = 0) -> SampleBatch:
    with open(path) as fh:
        draws = [int(line.strip(), 16) for line in fh if line.strip()]
    return SampleBatch(seed, len(draws), np.asarray(draws, dtype=np.int64))
