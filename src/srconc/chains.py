"""Reversible generators on cube states and their decompositions.

A Generator holds an ordered state list (bitmasks when the chain lives
on a cube), a rate matrix Q with zero row sums and nonnegative
off-diagonal entries, and the stationary law pi restricted to those
states, with detailed balance pi(x) Q(x,y) = pi(y) Q(y,x).

``decompose`` splits a cube chain on one coordinate into a two-state
projection chain and per-part restriction chains.  ``chi`` measures the
quality of the split's one covering coupling, a ``measures.Coupling``
whose rows and columns index the states of part 0 and part 1 (read
transposed for the reverse direction), and ``crude_chi_bound`` is the
coupling-free lower bound on the same ratio.

``hermon_salez`` builds the flip-swap walk for a measure with the
stochastic covering property: recursively construct walks for both
coordinate conditionals, join them across the split with rates
proportional to a covering coupling, average the resulting generators
over all split coordinates with uniform weights 1/n, and finally divide
by the largest exit rate so the output satisfies Delta(Q) <= 1.  The
pre-normalization average has Delta <= 2k on k-homogeneous inputs and
Delta <= n in general, which is what makes the final spectral gap at
least 1/(2k) (k = n/2 when the measure is not homogeneous).

A coordinate that a conditional fixes (set in every mask of its support,
or clear in every one) splits into the conditional's own walk.  With F
its free coordinates, c = n - |F| fixed ones and A the average over F, the
average over all n is (|F| A + c A) / n = A by induction, so a node holds
free coordinates only: a conditional with several states and fixed
coordinates reads the node of the event that fixes them too, whose masks
are its own with those bits dropped, in the same order.

One recursion visits the conditionals, one node per orbit of their
fixing events under the root's ``measures.automorphisms``, keyed by the
orbit's least event; the orbit's other conditionals read the node's rates
through a permutation (covering and the average over splits ignore
coordinate order, so the gap bound holds).  It solves every covering
coupling, each an SCP event, reaching every event of positive mass up to
relabelling, so ``scp_check`` runs it alone and reports the first
infeasible coupling as the witness.  A walk makes a node's rates, (row,
col, rate) triplets, when it first reads them; only the root's is dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .measures import (
    SCP_LIMIT,
    Coupling,
    InvalidInput,
    StateSpaceTooLarge,
    SubsetMeasure,
    ZeroMassEvent,
    as_coordinate,
    automorphisms,
    conditional,
    feasible_coupling,
    halves,
    popcount,
    validate,
    within,
)

RATE_TOL = 1e-10


class ChainError(InvalidInput):
    """Base class for generator validation and construction failures."""


class EmptyPart(ChainError):
    pass


class InfeasibleCoupling(ChainError):
    """No covering coupling for event = (ones, zeros, ell): the split on
    coordinate ell given the bits of mask ones set and those of zeros clear."""

    def __init__(self, message: str, event: tuple):
        super().__init__(message)
        self.event = event


class NotOnCube(ChainError):
    pass


class RowSumViolation(ChainError):
    pass


class DetailedBalanceViolation(ChainError):
    pass


class NegativeRate(ChainError):
    pass


class NonFiniteGenerator(ChainError):
    pass


def _sealed(a: np.ndarray) -> np.ndarray:
    """a, which no caller holds, made read-only in place."""
    a.flags.writeable = False
    return a


def _read_only(a, dtype) -> np.ndarray:
    """a as a read-only array of dtype, copied first when writeable."""
    a = np.asarray(a, dtype=dtype)
    return _sealed(a.copy()) if a.flags.writeable else a


@dataclass(frozen=True, eq=False)
class Generator:
    """Reversible rate matrix over an ordered state list.

    n is the cube dimension when states are bitmasks; None for chains on
    abstract labels (projection chains use part indices as states).  The
    arrays are read-only, so what is derived from a walk may be kept with
    it, keyed by the walk itself: walks compare and hash by identity.
    """

    states: np.ndarray
    rates: np.ndarray
    pi: np.ndarray
    n: int | None = None

    def __post_init__(self):
        states = _read_only(self.states, np.int64)
        rates = _read_only(self.rates, float)
        pi = _read_only(self.pi, float)
        m = states.size
        if rates.shape != (m, m):
            raise ValueError(f"rates have shape {rates.shape}, expected ({m},{m})")
        if pi.shape != (m,):
            raise ValueError(f"pi has shape {pi.shape}, expected ({m},)")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "pi", pi)

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs x < y with a nonzero rate in either direction, computed once."""
        support = self.rates != 0.0
        return tuple(map(_sealed, np.nonzero(np.triu(support | support.T, 1))))


def flip_swap_adjacent(x, y):
    """Elementwise: the masks differ by one flipped bit or one moved bit.

    Broadcasts, so flip_swap_adjacent(rows[:, None], cols[None, :]) is the
    whole adjacency table of two mask lists.
    """
    x = np.asarray(x, dtype=np.int64)
    diff = x ^ np.asarray(y, dtype=np.int64)
    bits = popcount(diff)
    return (bits == 1) | ((bits == 2) & (popcount(x & diff) == 1))


def delta(gen: Generator) -> float:
    """Largest exit rate max_x -Q(x, x); adding 0.0 turns -0.0 into 0.0."""
    return float(np.max(-np.diag(gen.rates), initial=0.0)) + 0.0


def validate_generator(gen: Generator) -> None:
    """Raise on non-finite entries, negative rates, bad row sums, or broken
    detailed balance.  Every rate off the edges and the diagonal is 0, so the
    entry checks read the edges both ways and the diagonal: no m x m copy."""
    q, pi = gen.rates, gen.pi
    u, v = gen.edges
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    off, diag = q[rows, cols], np.diag(q)
    if not all(np.isfinite(a).all() for a in (off, diag, pi)):
        raise NonFiniteGenerator("rates and pi must be finite")
    scale = float(max(np.abs(off).max(initial=0.0), np.abs(diag).max(initial=0.0)))
    if not within(-off.min(initial=0.0), 0.0, RATE_TOL, scale):
        k = np.lexsort((cols, rows, off))[0]  # the least rate, first in row-major order
        raise NegativeRate(f"rate {q[rows[k], cols[k]]!r} at ({rows[k]},{cols[k]})")
    rowdev = np.abs(q.sum(axis=1)).max(initial=0.0)
    if not within(rowdev, 0.0, RATE_TOL, scale):
        raise RowSumViolation(f"row sums deviate from 0 by {rowdev:.3e}")
    if pi.size == 0 or pi.min() <= 0.0:
        raise ZeroMassEvent("stationary law must be positive on the state list")
    flows = pi[rows] * off
    dev = np.abs(flows[:u.size] - flows[u.size:]).max(initial=0.0)
    top = max(np.abs(flows).max(initial=0.0), np.abs(pi * diag).max(initial=0.0))
    if not within(dev, 0.0, RATE_TOL, float(top)):
        raise DetailedBalanceViolation(f"pi(x)Q(x,y) asymmetric by {dev:.3e}")


class Decomposition(NamedTuple):
    """Two-level view of a chain: projection across parts, restrictions within."""

    source: Generator
    parts: list
    projection: Generator
    restrictions: list


def decompose(gen: Generator, ell: int) -> Decomposition:
    """Split a cube chain on coordinate ell into parts {x_ell = 0}, {x_ell = 1}.

    Projection rates: Qhat(i, j) = (1/pihat(i)) sum_{x in part i, y in part j}
    pi(x) Q(x, y); applying the formula to i = j too makes the rows sum to
    zero exactly.  Restrictions keep the off-diagonal block and readjust
    the diagonal.
    """
    if gen.n is None:
        raise NotOnCube("decompose needs a cube chain with bitmask states")
    ell = as_coordinate(ell, gen.n)
    bit = ((gen.states >> ell) & 1).astype(bool)
    sel = [np.flatnonzero(~bit), np.flatnonzero(bit)]
    if sel[0].size == 0 or sel[1].size == 0:
        empty = 0 if sel[0].size == 0 else 1
        raise EmptyPart(f"part {empty} of the split on coordinate {ell} is empty")

    pihat = np.array([gen.pi[idx].sum() for idx in sel])
    flow = np.array([[gen.pi[si] @ gen.rates[np.ix_(si, sj)].sum(axis=1) for sj in sel]
                     for si in sel])
    qhat = flow / pihat[:, None]
    projection = Generator(np.array([0, 1]), qhat, pihat)

    restrictions = []
    for i, idx in enumerate(sel):
        block = gen.rates[np.ix_(idx, idx)].copy()
        np.fill_diagonal(block, 0.0)
        np.fill_diagonal(block, 0.0 - block.sum(axis=1))
        restrictions.append(Generator(gen.states[idx], block,
                                      gen.pi[idx] / pihat[i], n=gen.n))
    return Decomposition(gen, [gen.states[idx] for idx in sel], projection, restrictions)


def _coupled_pairs(gen: Generator, dec: Decomposition, kappa: Coupling) -> tuple:
    """(i, j, x, y, mass) for both directions (0, 1) and (1, 0) of the split's
    coupling: x and y index gen's states in parts i and j over its support."""
    part0, part1 = (np.flatnonzero(np.isin(gen.states, part)) for part in dec.parts)
    rows, cols = part0[kappa.row], part1[kappa.col]
    return (0, 1, rows, cols, kappa.mass), (1, 0, cols, rows, kappa.mass)


def chi(gen: Generator, dec: Decomposition, kappa: Coupling) -> float:
    """Coupling quality: min pi(x)Q(x,y) / (pihat(i) Qhat(i,j) kappa_ij(x,y)).

    kappa couples the conditioned laws of part 0 (rows) and part 1
    (columns): kappa.row and kappa.col index dec.parts[0] and dec.parts[1],
    as ``scp_coupling`` returns them.  kappa_10 is its transpose, and the
    minimum runs over the directions with Qhat(i,j) > 0 and over kappa's
    support.
    """
    qhat, pihat = dec.projection.rates, dec.projection.pi
    best = np.inf
    for i, j, x, y, mass in _coupled_pairs(gen, dec, kappa):
        if qhat[i, j] > 0.0:
            ratio = gen.pi[x] * gen.rates[x, y] / (pihat[i] * qhat[i, j] * mass)
            best = min(best, ratio.min(initial=np.inf))
    return float(best)


def crude_chi_bound(gen: Generator, dec: Decomposition, kappa: Coupling) -> float:
    """Coupling-free floor: min over kappa's support, in both directions, of
    max{Q(x,y)/Qhat(i,j), Q(y,x)/Qhat(j,i)}."""
    qhat = dec.projection.rates
    best = np.inf
    for i, j, x, y, _ in _coupled_pairs(gen, dec, kappa):
        if qhat[i, j] > 0.0:
            forward = gen.rates[x, y] / qhat[i, j]
            backward = gen.rates[y, x] / qhat[j, i] if qhat[j, i] > 0.0 else 0.0
            best = min(best, np.maximum(forward, backward).min(initial=np.inf))
    return float(best)


def scp_coupling(m: SubsetMeasure, ell: int) -> Coupling:
    """Coupling of the two coordinate conditionals on flip-swap pairs.

    Rows index m's masks with x_ell = 0 and columns those with x_ell = 1,
    each ascending, which is decompose(walk, ell).parts for any walk of m;
    the support is restricted to pairs whose free coordinates cover, which
    across this boundary are exactly the flip-swap adjacent pairs.  Raises
    InfeasibleCoupling when max-flow cannot move all the mass, i.e. the
    covering property fails at the SCP event ({ell}, e_ell, 0).
    """
    validate(m)
    ell = as_coordinate(ell, m.n)
    low, high = halves(m, ell)
    if low is None or high is None:
        raise EmptyPart(f"coordinate {ell} is constant under the measure")
    return _couple(conditional(low), conditional(high), (0, 0, ell))


def _covering(low: np.ndarray, high: np.ndarray) -> list:
    """adj[i] = the indices of the masks in high that low[i] covers, ascending:
    low[i] with one of its bits cleared, highest bit first, then low[i]."""
    index = {mask: j for j, mask in enumerate(high.tolist())}
    adj = []
    for x in low.tolist():
        below = (x ^ 1 << b for b in range(x.bit_length() - 1, -1, -1) if x >> b & 1)
        adj.append([index[y] for y in (*below, x) if y in index])
    return adj


def _couple(low: SubsetMeasure, high: SubsetMeasure, event: tuple) -> Coupling:
    """Covering coupling of the conditionals below one split (rows: bit 0)."""
    kappa, value = feasible_coupling(low.masses, high.masses, _covering(low.masks, high.masks))
    if kappa is None:
        raise InfeasibleCoupling(
            f"split on coordinate {event[2]}: moved only {value:.12f} of unit mass",
            event)
    return kappa


def _free(event: tuple, n: int) -> list:
    """The coordinates below n that event = (ones, zeros, ...) leaves free, ascending."""
    return [c for c in range(n) if not (event[0] | event[1]) >> c & 1]


class _Lattice:
    """nodes[least event (ones, zeros) of an orbit] = (m, [_split per free
    coordinate]); conditionals[content key] = (orbit, positions), a node reference:
    the node's b-th state is the conditional's state positions[b] (None: same order);
    kappas[child content keys] = coupling, shared by splits; rates[orbit] = triplets."""

    def __init__(self, root: SubsetMeasure):
        self.n, self.group = root.n, automorphisms(root)
        self.nodes, self.conditionals, self.kappas, self.rates = {}, {}, {}, {}


def _key(m: SubsetMeasure) -> tuple:
    return (m.n, m.masks.tobytes(), m.masses.tobytes())


def _visit(m: SubsetMeasure, w: SubsetMeasure, event: tuple, lattice: _Lattice,
           key: tuple) -> tuple:
    """The node reference of m, whose _key is key, after adding m's orbit and
    every conditional below it to the lattice.  w is the root restricted to the
    event; a node is it carried to the orbit's least event, bit-identical
    however reached.  A conditional with several states whose support fixes
    some coordinates reads the node of the event that fixes them too: its
    masks, ascending and distinct, keep their order without those bits."""
    if key in lattice.conditionals:
        return lattice.conditionals[key]
    free = _free(event, lattice.n)
    if m.masks.size > 1:
        first, varying = int(m.masks[0]), 0
        for mask in m.masks.tolist():  # a loop beats two ufunc reductions on a few masks
            varying |= mask ^ first
        if fixed := (1 << m.n) - 1 & ~varying:
            kept = [c for c in range(m.n) if varying >> c & 1]
            ones, zeros = (sum(1 << free[c] for c in range(m.n) if bits >> c & 1)
                           for bits in (fixed & first, fixed & ~first))
            masks = (m.masks[:, None] >> np.array(kept) & 1) @ (1 << np.arange(len(kept)))
            m = SubsetMeasure(len(kept), masks, m.masses)
            ref = _visit(m, SubsetMeasure(m.n, masks, w.masses),
                         (event[0] | ones, event[1] | zeros), lattice, _key(m))
            lattice.conditionals[key] = ref
            return ref
    img = (np.array(event)[:, None] >> np.arange(lattice.n) & 1) @ (1 << lattice.group.T)
    g = int(np.argmin(img[0] << lattice.n | img[1]))  # the first g to the least image
    orbit, positions = tuple(img[:, g].tolist()), None
    if g:
        least = _free(orbit, lattice.n)
        moved = [least.index(lattice.group[g, c]) for c in free]
        image = (w.masks[:, None] >> np.arange(m.n) & 1) @ (1 << np.array(moved))
        positions = np.argsort(image)
        w = SubsetMeasure(m.n, image[positions], w.masses[positions])
        m = conditional(w)
        free = least
    if orbit not in lattice.nodes:
        splits = ([_split(w, (*orbit, free[ell]), ell, lattice) for ell in range(m.n)]
                  if m.masks.size > 1 else [])
        lattice.nodes[orbit] = (m, splits)
    lattice.conditionals.setdefault(_key(m), (orbit, None))  # the first orbit keeps it
    lattice.conditionals[key] = ref = (orbit, positions)
    return ref


def _split(w: SubsetMeasure, event: tuple, ell: int, lattice: _Lattice) -> tuple:
    """Coupling of the split of w, the root restricted to (ones, zeros), on
    its free coordinate ell (root_ell of the root), rows and cols indexing the
    two children, and their node references.  Solving it first makes the first
    InfeasibleCoupling the first failing SCP event met, event =
    (ones, zeros, root_ell); only feasible couplings are memoized (as
    ``_couple`` returns them), so it is met as before."""
    ones, zeros, root_ell = event
    sides = halves(w, ell)
    kids = [conditional(side) for side in sides]
    keys = tuple(map(_key, kids))
    kappa = lattice.kappas.get(keys)
    if kappa is None:
        kappa = lattice.kappas[keys] = _couple(*kids, event)
    events = ((ones, zeros | 1 << root_ell), (ones | 1 << root_ell, zeros))
    return kappa, [_visit(kid, side, child, lattice, key)
                   for kid, side, child, key in zip(kids, sides, events, keys)]


def _rates(orbit: tuple, lattice: _Lattice) -> tuple:
    """Off-diagonal raw walk rates of a node as (rows, cols, rates) triplets,
    row-major, made on the first read: the uniform average of its split rates
    over its free coordinates, none for a single state.  One bincount sums
    each entry's terms in split order, as adding dense blocks would."""
    if orbit not in lattice.rates:
        m, splits = lattice.nodes[orbit]
        size = m.masks.size
        at, terms = [np.zeros(0, np.int64)], [np.zeros(0)]
        for ell, split in enumerate(splits):
            for rows, cols, vals in _split_rates(m, ell, split, lattice):
                at.append(rows * size + cols)
                terms.append(vals)
        total = np.bincount(np.concatenate(at), np.concatenate(terms), minlength=size * size)
        at = np.flatnonzero(total)
        lattice.rates[orbit] = (*np.divmod(at, size), total[at] / m.n)
    return lattice.rates[orbit]


def _lift(ref: tuple, pos: np.ndarray, lattice: _Lattice) -> tuple:
    """Rates of the conditional with node reference ref on its parent's states pos."""
    orbit, positions = ref
    pos = pos if positions is None else pos[positions]
    rows, cols, vals = _rates(orbit, lattice)
    return pos[rows], pos[cols], vals


def _split_rates(m: SubsetMeasure, ell: int, split: tuple, lattice: _Lattice) -> list:
    """The off-diagonal rates of one split as triplets, each entry named once.

    The children's node rates land on their states, and cross rates on a
    support pair (x, y) of the coupling kappa are
    Q(x, y) = pihat0 * pihat1 * kappa(x, y) / pi(x), mirrored with pi(y),
    which enforces detailed balance by construction.
    """
    kappa, kids = split
    side = (m.masks >> ell) & 1 == 1
    parts = (~side).nonzero()[0], side.nonzero()[0]
    pi = m.masses
    cross = float(pi[parts[0]].sum()) * float(pi[parts[1]].sum())
    a, b, w = kappa
    x_idx, y_idx = parts[0][a], parts[1][b]
    return [*(_lift(kid, pos, lattice) for kid, pos in zip(kids, parts)),
            (x_idx, y_idx, cross * w / pi[x_idx]), (y_idx, x_idx, cross * w / pi[y_idx])]


def _generator(m: SubsetMeasure, triplets: list) -> Generator:
    """Generator on m's support with the off-diagonal rates of triplets, which
    name each entry once (diagonal set in place)."""
    q = np.zeros((m.masks.size, m.masks.size))
    for rows, cols, vals in triplets:
        q[rows, cols] = vals
    np.fill_diagonal(q, 0.0 - q.sum(axis=1))  # 0.0, not -0.0, where a state has no exits
    return Generator(*map(_sealed, (m.masks.copy(), q, m.masses.copy())), n=m.n)


class ScpResult(NamedTuple):
    satisfied: bool
    # (coords, x_bits, y_bits) of the first violated conditioning, or None
    witness: tuple | None

    def __bool__(self) -> bool:
        return self.satisfied


def scp_check(m: SubsetMeasure) -> ScpResult:
    """Decide the stochastic covering property by the coupling pass alone.

    The witness (coords, x_bits, y_bits) has coords ascending and x = y + e_i:
    the conditional given y does not cover the one given x.
    """
    validate(m)
    if m.n > SCP_LIMIT:
        raise StateSpaceTooLarge(f"n={m.n} exceeds scp_check limit {SCP_LIMIT}")
    try:
        _visit(m, m, (0, 0), _Lattice(m), _key(m))
    except InfeasibleCoupling as exc:
        ones, zeros, ell = exc.event
        coords = [c for c in range(m.n) if (ones | zeros | 1 << ell) >> c & 1]
        x_bits = tuple((ones | 1 << ell) >> c & 1 for c in coords)
        return ScpResult(False, (tuple(coords), x_bits, tuple(ones >> c & 1 for c in coords)))
    return ScpResult(True, None)


def split_generator(m: SubsetMeasure, ell: int) -> Generator:
    """Pre-normalization generator of a single coordinate split; on a
    coordinate that m fixes, the split is m's own walk."""
    validate(m)
    ell = as_coordinate(ell, m.n)
    if None in halves(m, ell):
        return flip_swap_average(m)
    lattice = _Lattice(m)
    split = _split(m, (0, 0, ell), ell, lattice)
    return _generator(m, _split_rates(m, ell, split, lattice))


def flip_swap_average(m: SubsetMeasure) -> Generator:
    """Pre-normalization flip-swap walk (uniform average over splits)."""
    validate(m)
    lattice = _Lattice(m)
    root = _visit(m, m, (0, 0), lattice, _key(m))
    return _generator(m, [_lift(root, np.arange(m.masks.size), lattice)])


def normalized(gen: Generator) -> Generator:
    """gen with its rates divided by Delta(Q), unchanged when Delta(Q) is 0."""
    top = delta(gen)
    if top <= 0.0:
        return gen
    return Generator(gen.states, _sealed(gen.rates / top), gen.pi, n=gen.n)


def hermon_salez(m: SubsetMeasure) -> Generator:
    """Flip-swap walk for an SCP measure, normalized to Delta(Q) <= 1."""
    return normalized(flip_swap_average(m))


def generator_to_json(gen: Generator) -> dict:
    return {"states": gen.states.tolist(), "pi": gen.pi.tolist(), "Q": gen.rates.tolist()}
