"""Reversible generators on cube states and their decompositions.

A Generator holds an ordered state list (bitmasks when the chain lives
on a cube), a rate matrix Q with zero row sums and nonnegative
off-diagonal entries, and the stationary law pi restricted to those
states, with detailed balance pi(x) Q(x,y) = pi(y) Q(y,x).

``decompose`` splits a cube chain on one coordinate into a two-state
projection chain and per-part restriction chains.  ``chi`` measures the
quality of couplings attached to such a decomposition, and
``crude_chi_bound`` is the coupling-free lower bound on the same ratio.

``hermon_salez`` builds the flip-swap walk for a measure with the
stochastic covering property: recursively construct walks for both
coordinate conditionals, join them across the split with rates
proportional to a covering coupling, average the resulting generators
over all split coordinates with uniform weights 1/n, and finally divide
by the largest exit rate so the output satisfies Delta(Q) <= 1.  The
pre-normalization average has Delta <= 2k on k-homogeneous inputs and
Delta <= n in general, which is what makes the final spectral gap at
least 1/(2k) (k = n/2 when the measure is not homogeneous).

The recursion makes two passes over the distinct conditionals (keyed by
content).  The first solves every covering coupling: each is an event of
the stochastic covering property and they reach every event of positive
mass, so ``scp_check`` runs this pass alone and reports the first
infeasible coupling as the witness.  The second assembles the generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .measures import (
    SCP_LIMIT,
    CouplingTable,
    StateSpaceTooLarge,
    SubsetMeasure,
    ZeroMassEvent,
    covers,
    feasible_coupling,
    halves,
    popcount,
    validate,
)

RATE_TOL = 1e-10


class ChainError(Exception):
    """Base class for generator validation and construction failures."""


class EmptyPart(ChainError):
    pass


class MissingCoupling(ChainError):
    pass


class InfeasibleCoupling(ChainError):
    """No covering coupling for event = (coords, bits, ell): the split on ell
    given X_coords = bits, in the coordinates the exception has reached."""

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


@dataclass(frozen=True)
class Generator:
    """Reversible rate matrix over an ordered state list.

    n is the cube dimension when states are bitmasks; None for chains on
    abstract labels (projection chains use part indices as states).
    """

    states: np.ndarray
    rates: np.ndarray
    pi: np.ndarray
    n: int | None = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.int64)
        rates = np.asarray(self.rates, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        m = states.size
        if rates.shape != (m, m):
            raise ValueError(f"rates have shape {rates.shape}, expected ({m},{m})")
        if pi.shape != (m,):
            raise ValueError(f"pi has shape {pi.shape}, expected ({m},)")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "pi", pi)

    def index_of(self) -> dict:
        return {int(s): i for i, s in enumerate(self.states)}


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


def rate_edges(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs x < y with a nonzero rate in either direction."""
    support = rates != 0.0
    return np.nonzero(np.triu(support | support.T, 1))


def validate_generator(gen: Generator) -> None:
    """Raise on non-finite entries, negative rates, bad row sums, or broken
    detailed balance."""
    q = gen.rates
    if not (np.isfinite(q).all() and np.isfinite(gen.pi).all()):
        raise NonFiniteGenerator("rates and pi must be finite")
    scale = max(1.0, float(np.abs(q).max(initial=0.0)))
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if off.min(initial=0.0) < -RATE_TOL * scale:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise NegativeRate(f"rate {q[i, j]!r} at ({i},{j})")
    rowdev = np.abs(q.sum(axis=1)).max(initial=0.0)
    if rowdev > RATE_TOL * scale:
        raise RowSumViolation(f"row sums deviate from 0 by {rowdev:.3e}")
    if gen.pi.size == 0 or gen.pi.min() <= 0.0:
        raise ZeroMassEvent("stationary law must be positive on the state list")
    flows = gen.pi[:, None] * q
    dev = np.abs(flows - flows.T).max(initial=0.0)
    if dev > RATE_TOL * max(1.0, float(np.abs(flows).max(initial=0.0))):
        raise DetailedBalanceViolation(f"pi(x)Q(x,y) asymmetric by {dev:.3e}")


@dataclass
class Decomposition:
    """Two-level view of a chain: projection across parts, restrictions within.

    couplings maps ordered part pairs (i, j) to a CouplingTable of the
    conditioned stationary laws pi_i (rows) and pi_j (columns); they are
    attached by the caller, e.g. from ``scp_coupling``.
    """

    source: Generator
    parts: list
    projection: Generator
    restrictions: list
    couplings: dict = field(default_factory=dict)


def decompose(gen: Generator, ell: int) -> Decomposition:
    """Split a cube chain on coordinate ell into parts {x_ell = 0}, {x_ell = 1}.

    Projection rates: Qhat(i, j) = (1/pihat(i)) sum_{x in part i, y in part j}
    pi(x) Q(x, y); applying the formula to i = j too makes the rows sum to
    zero exactly.  Restrictions keep the off-diagonal block and readjust
    the diagonal.
    """
    if gen.n is None:
        raise NotOnCube("decompose needs a cube chain with bitmask states")
    if not 0 <= ell < gen.n:
        raise ValueError(f"coordinate {ell} out of range for n={gen.n}")
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
        np.fill_diagonal(block, -block.sum(axis=1))
        restrictions.append(Generator(gen.states[idx], block,
                                      gen.pi[idx] / pihat[i], n=gen.n))
    return Decomposition(gen, [gen.states[idx] for idx in sel], projection, restrictions)


def _coupling_entries(dec: Decomposition):
    """Yield (i, j, x_idx, y_idx, kappa_mass) over attached coupling supports."""
    src = dec.source.index_of()
    for (i, j), table in dec.couplings.items():
        for a, b in zip(*np.nonzero(table.mass > 0.0)):
            x_idx, y_idx = src[int(table.rows[a])], src[int(table.cols[b])]
            yield i, j, x_idx, y_idx, float(table.mass[a, b])


def chi(gen: Generator, dec: Decomposition) -> float:
    """Coupling quality: min pi(x)Q(x,y) / (pihat(i) Qhat(i,j) kappa_ij(x,y)).

    The minimum runs over ordered part pairs with Qhat(i,j) > 0 and over
    the support of the attached couplings; a missing coupling for such a
    pair raises MissingCoupling.
    """
    qhat = dec.projection.rates
    pihat = dec.projection.pi
    for i, j in zip(*np.nonzero(qhat > 0.0)):
        if i != j and (i, j) not in dec.couplings:
            raise MissingCoupling(f"no coupling attached for part pair ({i},{j})")
    best = np.inf
    for i, j, x_idx, y_idx, kappa in _coupling_entries(dec):
        if qhat[i, j] <= 0.0:
            continue
        denom = pihat[i] * qhat[i, j] * kappa
        num = gen.pi[x_idx] * gen.rates[x_idx, y_idx]
        best = min(best, num / denom)
    return float(best)


def crude_chi_bound(gen: Generator, dec: Decomposition) -> float:
    """Coupling-free floor: min over coupling supports of
    max{Q(x,y)/Qhat(i,j), Q(y,x)/Qhat(j,i)}."""
    qhat = dec.projection.rates
    best = np.inf
    for i, j, x_idx, y_idx, _ in _coupling_entries(dec):
        if qhat[i, j] <= 0.0:
            continue
        forward = gen.rates[x_idx, y_idx] / qhat[i, j]
        backward = gen.rates[y_idx, x_idx] / qhat[j, i] if qhat[j, i] > 0.0 else 0.0
        best = min(best, max(forward, backward))
    return float(best)


def scp_coupling(m: SubsetMeasure, ell: int) -> CouplingTable:
    """Coupling of the two coordinate conditionals on flip-swap pairs.

    Rows are full-cube masks with x_ell = 0, columns have x_ell = 1; the
    support is restricted to pairs whose free coordinates cover, which
    across this boundary are exactly the flip-swap adjacent pairs.  Raises
    InfeasibleCoupling when max-flow cannot move all the mass, i.e. the
    covering property fails at the SCP event ({ell}, e_ell, 0).
    """
    low, high = halves(m, ell)
    if low is None or high is None:
        raise EmptyPart(f"coordinate {ell} is constant under the measure")
    side = (m.masks >> ell) & 1 == 1
    return replace(_couple(low[0], high[0], ell), rows=m.masks[~side], cols=m.masks[side])


def _couple(low: SubsetMeasure, high: SubsetMeasure, ell: int) -> CouplingTable:
    """Covering coupling of the conditionals given x_ell = 0 (rows) and = 1."""
    allowed = covers(low.masks[:, None], high.masks[None, :])
    table, value = feasible_coupling(low.masks, low.masses, high.masks, high.masses,
                                     allowed)
    if table is None:
        raise InfeasibleCoupling(
            f"split on coordinate {ell}: moved only {value:.12f} of unit mass",
            ((), (), ell))
    return table


class _Lattice:
    """The distinct conditionals met by the recursion, by content key, as
    nodes[key] = (m, [_split per coordinate]), and the solved couplings by
    their pair of child keys: a coupling depends only on the two
    conditionals, and many splits share a pair."""

    def __init__(self):
        self.nodes = {}
        self.kappas = {}


def _key(m: SubsetMeasure) -> tuple:
    return (m.n, m.masks.tobytes(), m.masses.tobytes())


def _visit(m: SubsetMeasure, w: SubsetMeasure, lattice: _Lattice, key: tuple) -> tuple:
    """key (m's _key) after adding m and every conditional below it,
    children first, to the lattice.  w is the root restricted to m's
    event: computing each conditional from the root's masses makes an event
    reached in another order bit-identical."""
    if key not in lattice.nodes:
        splits = ([_split(w, ell, lattice) for ell in range(m.n)]
                  if m.masks.size > 1 else [])
        lattice.nodes[key] = (m, splits)
    return key


def _split(w: SubsetMeasure, ell: int, lattice: _Lattice) -> tuple:
    """Coupling of the split on ell as (row, col, mass) arrays over its
    support, rows and cols indexing the two children (None for a constant
    coordinate), and the child keys.  The coupling is solved first, so the
    first InfeasibleCoupling is the first failing SCP event in recursion
    order; events from below are lifted to w's coordinates.  Only feasible
    couplings are memoized, so a failure is met where it was before."""
    sides = halves(w, ell)
    keys = tuple(None if side is None else _key(side[0]) for side in sides)
    kappa = None
    if None not in sides:
        kappa = lattice.kappas.get(keys)
        if kappa is None:
            mass = _couple(sides[0][0], sides[1][0], ell).mass
            kappa = lattice.kappas[keys] = np.nonzero(mass) + (mass[mass > 0.0],)
    kids = []
    try:
        for bit, (side, key) in enumerate(zip(sides, keys)):
            if side is not None:
                kids.append(_visit(*side, lattice, key))
    except InfeasibleCoupling as exc:
        coords, bits, split = exc.event
        exc.event = ((ell, *(c + (c >= ell) for c in coords)), (bit, *bits),
                     split + (split >= ell))
        raise
    return kappa, kids


def _assemble(lattice: _Lattice) -> dict:
    """Off-diagonal raw walk rates of every node: the uniform average of
    its split rates, zero for a single state."""
    rates = {}
    for key, (m, splits) in lattice.nodes.items():
        acc = np.zeros((m.masks.size, m.masks.size))
        for ell, split in enumerate(splits):
            _add_split(acc, m, ell, split, rates)
        rates[key] = acc / m.n if splits else acc
    return rates


def _add_split(acc: np.ndarray, m: SubsetMeasure, ell: int, split: tuple,
               rates: dict) -> None:
    """Add the off-diagonal rates of one split, built from its children's, to acc.

    Cross rates on a support pair (x, y) of the coupling kappa:
    Q(x, y) = pihat0 * pihat1 * kappa(x, y) / pi(x) and mirrored with
    pi(y), which enforces detailed balance by construction.  When the
    coordinate is constant the split is the single conditional's walk.
    """
    kappa, kids = split
    side = (m.masks >> ell) & 1 == 1
    parts = [np.arange(m.masks.size)] if kappa is None else [
        (~side).nonzero()[0], side.nonzero()[0]]
    if any(rates[kid].shape[0] != pos.size for kid, pos in zip(kids, parts)):
        raise NotOnCube("lifted conditional support mismatch")
    if kappa is None:
        acc += rates[kids[0]]
        return
    for kid, pos in zip(kids, parts):
        acc[pos[:, None], pos] += rates[kid]
    pi = m.masses
    cross = float(pi[parts[0]].sum()) * float(pi[parts[1]].sum())
    a, b, w = kappa
    x_idx, y_idx = parts[0][a], parts[1][b]
    acc[x_idx, y_idx] += cross * w / pi[x_idx]
    acc[y_idx, x_idx] += cross * w / pi[y_idx]


def _generator(m: SubsetMeasure, q: np.ndarray) -> Generator:
    """Generator on m's support with off-diagonal rates q (diagonal set in place)."""
    np.fill_diagonal(q, -q.sum(axis=1))
    return Generator(m.masks.copy(), q, m.masses.copy(), n=m.n)


@dataclass(frozen=True)
class ScpResult:
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
        _visit(m, m, _Lattice(), _key(m))
    except InfeasibleCoupling as exc:
        coords, bits, ell = exc.event
        fixed = sorted(zip((*coords, ell), (*bits, 1), (*bits, 0)))
        return ScpResult(False, tuple(zip(*fixed)))
    return ScpResult(True, None)


def split_generator(m: SubsetMeasure, ell: int) -> Generator:
    """Pre-normalization generator of a single coordinate split."""
    validate(m)
    if not 0 <= ell < m.n:
        raise ValueError(f"coordinate {ell} out of range for n={m.n}")
    lattice = _Lattice()
    split = _split(m, ell, lattice)
    acc = np.zeros((m.masks.size, m.masks.size))
    _add_split(acc, m, ell, split, _assemble(lattice))
    return _generator(m, acc)


def flip_swap_average(m: SubsetMeasure) -> Generator:
    """Pre-normalization flip-swap walk (uniform average over splits)."""
    validate(m)
    lattice = _Lattice()
    key = _visit(m, m, lattice, _key(m))
    return _generator(m, _assemble(lattice)[key])


def normalized(gen: Generator) -> Generator:
    """gen with its rates divided by Delta(Q), unchanged when Delta(Q) is 0."""
    top = delta(gen)
    if top <= 0.0:
        return gen
    return Generator(gen.states, gen.rates / top, gen.pi, n=gen.n)


def hermon_salez(m: SubsetMeasure) -> Generator:
    """Flip-swap walk for an SCP measure, normalized to Delta(Q) <= 1."""
    return normalized(flip_swap_average(m))


def generator_to_json(gen: Generator) -> dict:
    return {
        "states": [int(s) for s in gen.states],
        "pi": [float(p) for p in gen.pi],
        "Q": [[float(v) for v in row] for row in gen.rates],
    }


def generator_from_json(obj: dict, n: int | None = None) -> Generator:
    gen = Generator(np.asarray(obj["states"], dtype=np.int64),
                    np.asarray(obj["Q"], dtype=float),
                    np.asarray(obj["pi"], dtype=float), n=n)
    validate_generator(gen)
    return gen
