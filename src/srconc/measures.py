"""Probability measures on subsets of a finite ground set.

A measure over subsets of {0, ..., n-1} is stored by its support: the
bitmasks (bit i set <=> element i in the subset) that carry nonzero mass,
ascending, and their masses.  Every check stays exact and enumerable,
which is the point of this package; n is capped at STORAGE_LIMIT, a mask
stored with mass 0 is refused, and conditioning touches only the support.

The covering relation used throughout: x covers y (written x |> y here)
iff x == y or x == y | (1 << i) for a single bit i missing from y.  A
measure p covers a measure q when some coupling of p (rows) and q
(columns) puts all its mass on covering pairs.  A small max-flow solver
for the bipartite transportation problem (greedy warm start, then
breadth-first augmenting paths, on each row's list of allowed columns)
decides whether one exists, within an absolute tolerance of 1e-10, and a
coupling is stored by its support too: a ``Coupling`` of (row, col, mass)
arrays, one entry per pair with mass.

The stochastic covering property (SCP) asks that for every conditioning
set S and every pair of assignments x |> y on S, the conditional of the
measure given the smaller assignment covers the conditional given the
larger one.  ``chains.scp_check`` decides it with the recursion that
builds the flip-swap walk; this module supplies the pieces (``halves``,
the restrictions of which ``condition`` is a fold, ``conditional`` and
``feasible_coupling``) and SCP_LIMIT.

As the bottom numpy layer it also holds what the layers above share: the
readers ``as_coordinate`` and ``as_matrix``, ``within``, the one tolerance
rule of every scaled verdict, ``projection_kernel``, the one check a
projection kernel passes, and the re-exported names of ``inputs``.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .inputs import InvalidInput, NotANumber, NotAnInteger, NumericFailure, as_integer, as_real

MASS_TOL = 1e-12
COUPLING_TOL = 1e-10
PROJECTION_TOL = 1e-8
STORAGE_LIMIT = 20  # largest ground set n a measure may live on
SCP_LIMIT = 15      # largest n for chains.scp_check: K6 trees have 3,544 lattice nodes
AUT_LIMIT = 120     # automorphisms() stops once it has found this many
AUT_WORK = 2000     # or once its search has tried this many partial maps


class MeasureError(InvalidInput):
    """Base class for measure construction and validation failures."""


class NegativeMass(MeasureError):
    pass


class NotNormalized(MeasureError):
    pass


class ZeroMassEvent(MeasureError):
    pass


class StateSpaceTooLarge(MeasureError):
    pass


class NotAProjection(MeasureError):
    pass


class DisconnectedGraph(MeasureError):
    pass


class MaskOutOfRange(MeasureError):
    pass


def as_coordinate(c, n: int) -> int:
    """c as an int, or a ValueError unless it is an integer in [0, n): the one
    rule of every coordinate a split or a conditioning event names."""
    if not 0 <= (c := as_integer(c, "coordinate")) < n:
        raise ValueError(f"coordinate {c} out of range for n={n}")
    return c


def as_matrix(rows, name: str) -> np.ndarray:
    """rows, nested lists of reals, as a float array: every entry is read by
    as_real, and the shape is left to the caller's check."""
    if not isinstance(rows, list):
        return np.asarray(as_real(rows, name))
    return np.asarray([as_matrix(row, name) for row in rows], dtype=float)


def within(value, bound, tol: float, scale):
    """value <= bound + tol * max(1, scale) (a NaN scale reads as 1), the rule of every
    scaled verdict, per entry or a bool; a slack s >= 0 is within(-s, 0.0, tol, scale)."""
    return ok if (ok := np.less_equal(value, bound + tol * np.fmax(1.0, scale))).ndim else bool(ok)


def popcount(masks):
    """Number of set bits, elementwise on an integer array (or scalar)."""
    return np.bitwise_count(np.asarray(masks, dtype=np.int64))


def _check_size(n: int) -> None:
    if not 0 <= n <= STORAGE_LIMIT:
        raise StateSpaceTooLarge(f"n={n} outside supported range [0, {STORAGE_LIMIT}]")


class SubsetMeasure:
    """Measure over subsets of an n-element ground set, stored by support.

    masks are the subsets with nonzero mass, ascending, and masses their
    masses; masses <= 0, NaN and unsorted, repeated or out-of-range masks
    are kept so that ``validate`` sees them.  Only n is checked here.
    """

    __slots__ = ("n", "masks", "masses")

    def __init__(self, n: int, masks, masses):
        _check_size(n)
        self.n = n
        self.masks = np.asarray(masks, dtype=np.int64)
        self.masses = np.asarray(masses, dtype=float)

    def support(self) -> np.ndarray:
        """Masks with strictly positive mass, ascending."""
        return self.masks[self.masses > 0.0]

    def mass(self, mask: int) -> float:
        return float(self.masses[self.masks == mask].sum())


def validate(m: SubsetMeasure) -> None:
    """Raise unless m is normalized, its masses positive (a mask stored with
    mass 0 is a ZeroMassEvent) and its masks ascending, distinct, in [0, 2**n)."""
    if not (np.diff(m.masks) > 0).all():
        raise MaskOutOfRange("masks must be ascending and distinct")
    if m.masks.size and not 0 <= m.masks[0] <= m.masks[-1] < 1 << m.n:
        raise MaskOutOfRange(f"masks must lie in [0, {1 << m.n}) for n={m.n}")
    lo = np.fmin.reduce(m.masses, initial=0.0)  # fmin skips NaN
    if lo < 0.0:
        mask = int(m.masks[np.argmax(m.masses == lo)])
        raise NegativeMass(f"mass {float(lo)!r} at mask {mask:#x}")
    total = float(m.masses.sum())
    if not abs(total - 1.0) <= MASS_TOL:  # also rejects a NaN total
        raise NotNormalized(f"total mass {total!r} deviates from 1 by {total - 1.0:.3e}")
    if not m.masses.all():
        raise ZeroMassEvent(f"mask {int(m.masks[np.argmin(m.masses)]):#x} is stored with mass 0")


def generating_polynomial(m: SubsetMeasure, z) -> float:
    """Evaluate sum_S mu(S) prod_{i in S} z_i at the point z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (m.n,):
        raise ValueError(f"z has shape {z.shape}, expected ({m.n},)")
    hit = (m.masks[:, None] >> np.arange(m.n)) & 1 == 1
    return float(m.masses @ np.where(hit, z, 1.0).prod(axis=1))


def homogeneity_degree(m: SubsetMeasure) -> int | None:
    """Common cardinality of all support sets, or None if sizes mix."""
    sizes = popcount(m.support())
    if sizes.size == 0:
        raise ZeroMassEvent("measure has empty support")
    k = int(sizes[0])
    return k if bool((sizes == k).all()) else None


def condition(m: SubsetMeasure, coords, bits) -> SubsetMeasure:
    """Condition on X_c = b for (c, b) pairs; renormalize the rest.

    The surviving coordinates keep their relative order and are packed
    into a fresh cube of dimension n - len(coords).  It runs through
    ``halves``: from the highest coordinate down it keeps the restriction
    to X_c = b, whose masks stay ascending, and takes its ``conditional``.
    """
    coords = [as_coordinate(c, m.n) for c in coords]
    bits = [as_integer(b, "bit") for b in bits]
    if len(coords) != len(bits) or not set(bits) <= {0, 1}:
        raise ValueError(f"need one bit, 0 or 1, per coordinate, got bits {bits}")
    if len(set(coords)) != len(coords):
        raise ValueError("repeated conditioning coordinate")
    if not coords:
        return SubsetMeasure(m.n, m.masks.copy(), m.masses.copy())

    w = m
    for c, b in sorted(zip(coords, bits), reverse=True):
        if (w := halves(w, c)[b]) is None:
            break
    if w is None or float(w.masses.sum()) <= 0.0:
        raise ZeroMassEvent(f"conditioning event coords={coords} bits={bits} has zero mass")
    return conditional(w)


def halves(m: SubsetMeasure, ell: int) -> list:
    """[m restricted to x_ell = b for b = 0, 1] with bit ell dropped and m's
    masses kept, None for a side without support.  Both keep the order of
    m's support, so the conditional of a restriction of m is
    condition(m, event) bit for bit."""
    side = (m.masks >> ell) & 1 == 1
    low = ((m.masks >> (ell + 1)) << ell) | (m.masks & ((1 << ell) - 1))  # bit ell dropped
    return [SubsetMeasure(m.n - 1, low[sel], m.masses[sel]) if sel.any() else None
            for sel in (~side, side)]


def conditional(w: SubsetMeasure) -> SubsetMeasure:
    """w, a restriction, divided by its total mass: the one conditioning rule."""
    return SubsetMeasure(w.n, w.masks, w.masses / float(w.masses.sum()))


def automorphisms(m: SubsetMeasure) -> np.ndarray:
    """Coordinate permutations g (bit i moves to bit g[i]) mapping the support
    onto itself with masses equal bit for bit, one per row, identity first.
    A depth-first search keeps the pair-joint table of hashed mass classes
    (wrapping integer sums: no rounding hides one) and checks each complete
    map, so stopping at AUT_LIMIT found or AUT_WORK tried only leaves some out."""
    n = m.n
    bits = (m.masks[:, None] >> np.arange(n) & 1).astype(np.uint64)
    _, cls = np.unique(m.masses, return_inverse=True)
    salt = (cls.astype(np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    joint = (bits.T @ (bits * salt[:, None])).tolist()
    colour = [(row[i], sorted(row)) for i, row in enumerate(joint)]
    found, g, work = [], [], iter(range(AUT_WORK))

    def extend() -> bool:
        """Try every image of coordinate len(g); True once the search stops."""
        i = len(g)
        if i == n:
            image = (bits @ (1 << np.array(g, np.uint64))).astype(np.int64)
            order = np.argsort(image)
            if ((image[order] == m.masks).all()
                    and (m.masses[order].view(np.int64) == m.masses.view(np.int64)).all()):
                found.append(list(g))
            return len(found) == AUT_LIMIT
        for j in range(n):
            if (j not in g and colour[j] == colour[i]
                    and [joint[j][b] for b in g] == joint[i][:i]):
                g.append(j)
                if extend() or next(work, None) is None:
                    return True
                g.pop()
        return False

    extend()
    del extend  # its cell refers to it: a cycle that would hold bits and joint until a sweep
    return np.array(found, dtype=np.int64)


class Coupling(NamedTuple):
    """A coupling stored by its support: mass[t] > 0 sits on the pair
    (row[t], col[t]), indices into the row and column supports, and each
    pair appears at most once."""

    row: np.ndarray
    col: np.ndarray
    mass: np.ndarray


def feasible_coupling(row_probs, col_probs, adj):
    """Transportation feasibility on an explicit bipartite support: adj[i]
    lists row i's allowed columns, ascending.

    Returns (Coupling or None, attained flow value).  Feasible means
    max-flow reaches 1 within COUPLING_TOL; the coupling returned is the
    flow itself, so its marginals deviate at the float-summation level.
    """
    kappa = _max_flow(np.asarray(row_probs, dtype=float), np.asarray(col_probs, dtype=float), adj)
    value = float(kappa.mass.sum())
    return (None if value < 1.0 - COUPLING_TOL else kappa), value


def _max_flow(supply, demand, adj) -> Coupling:
    """Maximum flow from row supplies to column demands, by its support.

    The allowed pairs are given as adjacency lists, adj[i] holding row i's
    columns ascending, and are uncapacitated.  A greedy pass ships what it
    can in row-major order; then each round searches breadth-first from
    every row with supply left, along allowed row->col arcs and along
    col->row arcs that carry flow (cancelling it), and augments the first
    column with demand left by the path's bottleneck; the rows with supply
    left are kept across rounds, in ascending order.  Shortest augmenting
    paths bound the number of rounds whatever the float capacities, and
    each augmentation empties its bottleneck exactly, since x - x == 0 in
    floating point.  The supports are sparse and mostly a few masks wide,
    so plain lists and dicts beat array operations here, and the flow is
    returned column by column from them, with no rows x cols table.
    """
    rows, cols = supply.size, demand.size
    left = supply.tolist()
    need = demand.tolist()
    into = [{} for _ in range(cols)]  # into[j][i] = flow on (i, j), kept > 0
    for i in range(rows):
        for j in adj[i]:
            f = min(left[i], need[j])
            if f > 0.0:
                into[j][i] = f
                left[i] -= f
                need[j] -= f
            if left[i] == 0.0:  # f was all of it: no later column gets any
                break

    supplied = dict.fromkeys(i for i in range(rows) if left[i] > 0.0)  # ascending
    while True:
        row_from = dict.fromkeys(supplied, -1)  # -1: the source
        col_from = {}
        queue = list(row_from)
        sink = -1
        for i in queue:  # the queue grows while it is walked
            for j in adj[i]:
                if j in col_from:
                    continue
                col_from[j] = i
                if need[j] > 0.0:
                    sink = j
                    break
                for r in into[j]:
                    if r not in row_from:
                        row_from[r] = j
                        queue.append(r)
            if sink >= 0:
                break
        if sink < 0:
            break

        ship, cancel = [], []
        step = need[sink]
        j = sink
        while True:
            src = col_from[j]
            ship.append((src, j))
            j = row_from[src]
            if j < 0:
                step = min(step, left[src])
                break
            cancel.append((src, j))
            step = min(step, into[j][src])
        for r, c in ship:
            into[c][r] = into[c].get(r, 0.0) + step
        for r, c in cancel:
            f = into[c][r] - step
            if f > 0.0:
                into[c][r] = f
            else:
                del into[c][r]
        left[src] -= step
        need[sink] -= step
        if left[src] == 0.0:
            del supplied[src]

    return Coupling(np.array([i for carried in into for i in carried], dtype=np.int64),
                    np.repeat(np.arange(cols), [len(carried) for carried in into]),
                    np.array([f for carried in into for f in carried.values()], dtype=float))


# ---------------------------------------------------------------------------
# constructive families


def make_uniform_k_subsets(n: int, k: int) -> SubsetMeasure:
    """Uniform measure on all k-element subsets of an n-element set."""
    if not 0 <= (k := as_integer(k, "k")) <= (n := as_integer(n, "n")):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    _check_size(n)
    masks = np.arange(1 << n, dtype=np.int64)
    masks = masks[popcount(masks) == k]
    return SubsetMeasure(n, masks, np.full(masks.size, 1.0 / math.comb(n, k)))


def make_bernoulli_product(ps) -> SubsetMeasure:
    """Independent inclusion of element i with probability ps[i]; the support
    spans only the coordinates with 0 < ps[i] < 1, the others are fixed."""
    ps = np.asarray(ps, dtype=object)  # as given: a float array would read '0.5' and True
    ps = np.array([as_real(p, "inclusion probability") for p in ps.flat]).reshape(ps.shape)
    if not ((ps >= 0) & (ps <= 1)).all():  # also rejects NaN
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    _check_size(ps.size)
    masks, masses = np.zeros(1, dtype=np.int64), np.ones(1)
    for i in range(ps.size):  # each step keeps the masks ascending
        if ps[i] == 1.0:
            masks |= 1 << i
        elif ps[i] > 0.0:
            masks = np.concatenate([masks, masks | 1 << i])
            masses = np.concatenate([masses * (1.0 - ps[i]), masses * ps[i]])
    return SubsetMeasure(ps.size, masks[masses > 0], masses[masses > 0])


def projection_kernel(kernel) -> tuple[np.ndarray, int]:
    """The kernel, symmetrized, as a float array and its rank: the one check
    a kernel passes.

    Raises unless the kernel is an orthogonal projection: square, finite, and
    symmetric and idempotent ``within`` PROJECTION_TOL of its largest entry.
    """
    k_mat = np.asarray(kernel, dtype=float)
    if k_mat.ndim != 2 or k_mat.shape[0] != k_mat.shape[1]:
        raise ValueError(f"kernel must be square, got shape {k_mat.shape}")
    if not np.isfinite(k_mat).all():
        raise NotAProjection("kernel has non-finite entries")
    scale = float(np.abs(k_mat).max())
    if not within(np.abs(k_mat - k_mat.T).max(), 0.0, PROJECTION_TOL, scale):
        raise NotAProjection("kernel is not symmetric")
    k_mat = (k_mat + k_mat.T) / 2.0
    if not within(np.abs(k_mat @ k_mat - k_mat).max(), 0.0, PROJECTION_TOL, scale):
        raise NotAProjection("kernel is not idempotent within 1e-8")
    return k_mat, int(round(float(np.trace(k_mat))))


def make_projection_dpp(kernel) -> SubsetMeasure:
    """Determinantal measure of an orthogonal projection kernel.

    mu(S) = det(K_S) over subsets of size rank(K) with a positive
    determinant; the support is renormalized to kill the tiny float drift
    in the determinants.
    """
    k_mat, rank = projection_kernel(kernel)
    n = k_mat.shape[0]
    _check_size(n)
    dets = {}
    for bits in itertools.combinations(range(n), rank):
        det = float(np.linalg.det(k_mat[np.ix_(bits, bits)])) if rank else 1.0
        if det > 0.0:
            dets[sum(1 << b for b in bits)] = det
    if not dets:
        raise ZeroMassEvent("projection kernel produced an empty measure")
    masses = np.array([dets[mask] for mask in sorted(dets)])
    return SubsetMeasure(n, sorted(dets), masses / masses.sum())


def component_count(vertices: int, edges) -> int:
    """Connected components of the undirected graph on range(vertices).

    Every vertex starts as its own root.  Each round hooks the larger root
    of every edge onto the smaller with np.minimum.at, then sets root =
    root[root] until no pointer moves.  Roots only decrease, so the rounds
    end; they stop at the first round that hooks nothing, where every edge
    joins equal roots, and the count is the vertices that are their own root.
    """
    root = np.arange(vertices)
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    while (hook := root[u] != root[v]).any():
        a, b = root[u[hook]], root[v[hook]]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    return int(np.count_nonzero(root == np.arange(vertices)))


def tree_edges(edges, vertices: int | None = None) -> tuple[list[tuple[int, int]], int]:
    """The edge list as int pairs and the vertex count (default: one past the
    largest endpoint) of a connected graph: the one graph rule of a spanning
    tree.  A self-loop or an endpoint outside range(vertices) is a ValueError,
    a graph that is not connected a DisconnectedGraph."""
    edges = [(as_integer(u, "edge endpoint"), as_integer(v, "edge endpoint")) for u, v in edges]
    vertices = 1 + max(max(u, v) for u, v in edges) if vertices is None \
        else as_integer(vertices, "vertices")
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) cannot appear in a tree")
        if not (0 <= u < vertices and 0 <= v < vertices):
            raise ValueError(f"edge ({u},{v}) out of range for {vertices} vertices")
    if (components := component_count(vertices, edges)) != 1:
        raise DisconnectedGraph(f"graph has {components} components")
    return edges, vertices


def make_spanning_tree_measure(edges, vertices: int | None = None) -> SubsetMeasure:
    """Uniform measure on spanning trees, ground set = the edge list."""
    edges, vertices = tree_edges(edges, vertices)
    n = len(edges)
    _check_size(n)
    hits = []

    def grow(i: int, mask: int, component: list, missing: int) -> None:
        """Record the spanning trees adding missing edges of edges[i:] to forest mask."""
        if missing == 0:
            hits.append(mask)
        elif n - i >= missing:
            a, b = (component[v] for v in edges[i])
            if a != b:
                grow(i + 1, mask | 1 << i, [a if c == b else c for c in component], missing - 1)
            grow(i + 1, mask, component, missing)

    grow(0, 0, list(range(vertices)), vertices - 1)
    del grow  # as in automorphisms: no cycle left for the collector
    return SubsetMeasure(n, sorted(hits), np.full(len(hits), 1.0 / len(hits)))


# ---------------------------------------------------------------------------
# JSON interchange


def measure_from_json(obj: dict) -> SubsetMeasure:
    n = as_integer(obj["n"], "n")
    _check_size(n)
    entries = {}
    for entry in obj["entries"]:
        mask = as_integer(entry["mask"], "mask")
        if not 0 <= mask < 1 << n:
            raise MaskOutOfRange(f"mask {mask} outside [0, {1 << n}) for n={n}")
        if mask in entries:
            raise MeasureError(f"mask {mask} is listed twice")
        entries[mask] = as_real(entry["p"], "p")
    masks = sorted(mask for mask, p in entries.items() if p != 0.0)
    m = SubsetMeasure(n, masks, [entries[mask] for mask in masks])
    validate(m)
    return m
