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

Each coupling the recursion solves is one event of the stochastic covering
property, and it reaches every event of positive mass, so ``scp_check``
runs it and reports the first infeasible coupling as the witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import (
    SCP_LIMIT,
    CouplingTable,
    StateSpaceTooLarge,
    SubsetMeasure,
    ZeroMassEvent,
    condition,
    covers,
    feasible_coupling,
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
    """Largest exit rate max_x -Q(x, x)."""
    return float(np.max(-np.diag(gen.rates), initial=0.0))


def validate_generator(gen: Generator, tol: float = RATE_TOL) -> None:
    """Raise on negative rates, bad row sums, or broken detailed balance."""
    q = gen.rates
    scale = max(1.0, float(np.abs(q).max(initial=0.0)))
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if off.min(initial=0.0) < -tol * scale:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise NegativeRate(f"rate {q[i, j]!r} at ({i},{j})")
    rowdev = np.abs(q.sum(axis=1)).max(initial=0.0)
    if rowdev > tol * scale:
        raise RowSumViolation(f"row sums deviate from 0 by {rowdev:.3e}")
    if gen.pi.size == 0 or gen.pi.min() <= 0.0:
        raise ZeroMassEvent("stationary law must be positive on the state list")
    flows = gen.pi[:, None] * q
    dev = np.abs(flows - flows.T).max(initial=0.0)
    if dev > tol * max(1.0, float(np.abs(flows).max(initial=0.0))):
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
    flow = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            flow[i, j] = float(gen.pi[sel[i]] @ gen.rates[np.ix_(sel[i], sel[j])].sum(axis=1))
    qhat = flow / pihat[:, None]
    projection = Generator(np.array([0, 1]), qhat, pihat)

    restrictions = []
    parts = []
    for i in range(2):
        idx = sel[i]
        block = gen.rates[np.ix_(idx, idx)].copy()
        np.fill_diagonal(block, 0.0)
        np.fill_diagonal(block, -block.sum(axis=1))
        restrictions.append(Generator(gen.states[idx], block,
                                      gen.pi[idx] / pihat[i], n=gen.n))
        parts.append(gen.states[idx].copy())
    return Decomposition(gen, parts, projection, restrictions)


def _coupling_entries(dec: Decomposition):
    """Yield (i, j, x_idx, y_idx, kappa_mass) over attached coupling supports."""
    for (i, j), table in dec.couplings.items():
        src = {int(s): a for a, s in enumerate(dec.source.states)}
        rows = [src[int(x)] for x in table.rows]
        cols = [src[int(y)] for y in table.cols]
        for a, x_idx in enumerate(rows):
            for b, y_idx in enumerate(cols):
                if table.mass[a, b] > 0.0:
                    yield i, j, x_idx, y_idx, float(table.mass[a, b])


def chi(gen: Generator, dec: Decomposition) -> float:
    """Coupling quality: min pi(x)Q(x,y) / (pihat(i) Qhat(i,j) kappa_ij(x,y)).

    The minimum runs over ordered part pairs with Qhat(i,j) > 0 and over
    the support of the attached couplings; a missing coupling for such a
    pair raises MissingCoupling.
    """
    qhat = dec.projection.rates
    pihat = dec.projection.pi
    m = len(dec.parts)
    for i in range(m):
        for j in range(m):
            if i != j and qhat[i, j] > 0.0 and (i, j) not in dec.couplings:
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


def _conditional_support(m: SubsetMeasure, ell: int, bit: int):
    """Support masks with x_ell = bit and their renormalized masses."""
    supp = m.support()
    keep = ((supp >> ell) & 1) == bit
    masks = supp[keep]
    mass = m.probs[masks]
    total = float(mass.sum())
    return masks, mass, total


def scp_coupling(m: SubsetMeasure, ell: int) -> CouplingTable:
    """Coupling of the two coordinate conditionals on flip-swap pairs.

    Rows are full-cube masks with x_ell = 0, columns have x_ell = 1; the
    support is restricted to pairs whose free coordinates cover, which
    across this boundary are exactly the flip-swap adjacent pairs.  Raises
    InfeasibleCoupling when max-flow cannot move all the mass, i.e. the
    covering property fails at the SCP event ({ell}, e_ell, 0).
    """
    rows, row_mass, tot0 = _conditional_support(m, ell, 0)
    cols, col_mass, tot1 = _conditional_support(m, ell, 1)
    if rows.size == 0 or cols.size == 0:
        raise EmptyPart(f"coordinate {ell} is constant under the measure")
    allowed = covers(rows[:, None], cols[None, :] ^ (1 << ell))
    table, value = feasible_coupling(rows, row_mass / tot0, cols, col_mass / tot1,
                                     allowed)
    if table is None:
        raise InfeasibleCoupling(
            f"split on coordinate {ell}: moved only {value:.12f} of unit mass",
            ((), (), ell))
    return table


def _insert_bit(masks, pos: int, bit: int):
    masks = np.asarray(masks, dtype=np.int64)
    low = masks & ((1 << pos) - 1)
    high = (masks >> pos) << (pos + 1)
    return high | (int(bit) << pos) | low


def _zero_generator(m: SubsetMeasure) -> Generator:
    supp = m.support()
    return Generator(supp, np.zeros((supp.size, supp.size)),
                     m.probs[supp].copy(), n=m.n)


def _conditional_walk(m: SubsetMeasure, ell: int, bit: int, memo: dict) -> Generator:
    """Raw walk of m given x_ell = bit; failing events are lifted to m's coordinates."""
    try:
        return _raw_walk(condition(m, [ell], [bit]), memo)
    except InfeasibleCoupling as exc:
        coords, bits, split = exc.event
        exc.event = ((ell, *(c + (c >= ell) for c in coords)), (bit, *bits),
                     split + (split >= ell))
        raise


def _split_raw(m: SubsetMeasure, ell: int, memo: dict) -> Generator:
    """Pre-normalization generator for one split coordinate.

    Cross rates on a support pair (x, y) of the coupling kappa:
    Q(x, y) = pihat0 * pihat1 * kappa(x, y) / pi(x) and mirrored with
    pi(y), which enforces detailed balance by construction.  When the
    coordinate is constant the split degenerates to the lifted walk of
    the single conditional.
    """
    supp = m.support()
    pi = m.probs[supp]
    bit = ((supp >> ell) & 1).astype(bool)
    pihat1 = float(pi[bit].sum())
    pihat0 = float(pi[~bit].sum())

    if pihat0 == 0.0 or pihat1 == 0.0:
        const = 1 if pihat0 == 0.0 else 0
        sub = _conditional_walk(m, ell, const, memo)
        lifted = _insert_bit(sub.states, ell, const)
        if not np.array_equal(lifted, supp):
            raise NotOnCube("lifted conditional support mismatch")
        return Generator(supp, sub.rates.copy(), pi.copy(), n=m.n)

    kappa = scp_coupling(m, ell)
    sub0 = _conditional_walk(m, ell, 0, memo)
    sub1 = _conditional_walk(m, ell, 1, memo)

    q = np.zeros((supp.size, supp.size))
    pos = {int(s): i for i, s in enumerate(supp)}
    for sub, b in ((sub0, 0), (sub1, 1)):
        lifted = _insert_bit(sub.states, ell, b)
        idx = np.array([pos[int(s)] for s in lifted])
        block = sub.rates.copy()
        np.fill_diagonal(block, 0.0)
        q[np.ix_(idx, idx)] = block
    cross = pihat0 * pihat1
    row_idx = np.array([pos[int(x)] for x in kappa.rows])
    col_idx = np.array([pos[int(y)] for y in kappa.cols])
    a, b = np.nonzero(kappa.mass > 0.0)
    x_idx, y_idx, w = row_idx[a], col_idx[b], kappa.mass[a, b]
    q[x_idx, y_idx] = cross * w / pi[x_idx]
    q[y_idx, x_idx] = cross * w / pi[y_idx]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return Generator(supp, q, pi.copy(), n=m.n)


def _raw_walk(m: SubsetMeasure, memo: dict) -> Generator:
    """Average of the split generators over all coordinates, memoized."""
    key = (m.n, m.probs.tobytes())
    hit = memo.get(key)
    if hit is not None:
        return hit
    supp = m.support()
    if supp.size == 1 or m.n == 0:
        gen = _zero_generator(m)
    else:
        acc = None
        for ell in range(m.n):
            part = _split_raw(m, ell, memo).rates
            acc = part if acc is None else acc + part
        gen = Generator(supp, acc / m.n, m.probs[supp].copy(), n=m.n)
    memo[key] = gen
    return gen


@dataclass(frozen=True)
class ScpResult:
    satisfied: bool
    # (coords, x_bits, y_bits) of the first violated conditioning, or None
    witness: tuple | None

    def __bool__(self) -> bool:
        return self.satisfied


def scp_check(m: SubsetMeasure) -> ScpResult:
    """Decide the stochastic covering property by building the walk.

    The witness (coords, x_bits, y_bits) has coords ascending and x = y + e_i:
    the conditional given y does not cover the one given x.
    """
    validate(m)
    if m.n > SCP_LIMIT:
        raise StateSpaceTooLarge(f"n={m.n} exceeds scp_check limit {SCP_LIMIT}")
    try:
        _raw_walk(m, {})
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
    return _split_raw(m, ell, {})


def flip_swap_average(m: SubsetMeasure) -> Generator:
    """Pre-normalization flip-swap walk (uniform average over splits)."""
    validate(m)
    return _raw_walk(m, {})


def normalized(gen: Generator) -> Generator:
    """gen with its rates divided by Delta(Q), unchanged when Delta(Q) is 0."""
    top = delta(gen)
    if top <= 0.0:
        return gen
    return Generator(gen.states, gen.rates / top, gen.pi, n=gen.n)


def hermon_salez(m: SubsetMeasure, normalize: bool = True) -> Generator:
    """Flip-swap walk for an SCP measure, normalized to Delta(Q) <= 1."""
    gen = flip_swap_average(m)
    return normalized(gen) if normalize else gen


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
