"""Trace moment-generating bounds and tail bound assembly.

Notation: lam is always the actual Poincare constant (spectral gap) and
alpha = 1/lam its inverse; the two are never conflated.  v(F) is the
largest spectral-norm jump of F over adjacent states, where adjacency
defaults to the support of the generator ("q_support") and can be
widened to all flip-swap pairs of the state masks ("flip_swap").

The doubling ladder: with S_k = 1 - 2^{-k},

    (1 - alpha v(F)^2 S_k) Tr E[e^F]  <=  Tr[(E[e^{F/2^k}])^{2^k}],

valid whenever alpha v(F)^2 <= 1; letting k grow gives the trace-mgf
bound Tr E[e^{theta(F - E F)}] <= d / (1 - theta^2 alpha v^2) inside the
radius, and optimizing the Laplace transform yields the closed-form
tails.  Trace powers Tr[M^p] are always powers of the matrix, evaluated
through eigenvalues, so arbitrarily large doubling depths stay stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import Generator, flip_swap_adjacent, rate_edges
from .functional import MatrixFn, dirichlet_form, matrix_mean
from .matrix_core import trace_power

ADJACENCY_MODES = ("q_support", "flip_swap")
PROBE_EDGES = 16    # edges with the largest norm bounds whose exact norm
                    # bounds v(F) from below in `oscillation`
REFINE_ITERS = 48   # golden-section steps in `laplace_tail`


class ConcentrationError(Exception):
    pass


class ScaleViolation(ConcentrationError):
    pass


class OutOfRadius(ConcentrationError):
    pass


class EmptyGrid(ConcentrationError):
    pass


@dataclass(frozen=True)
class OscillationStats:
    v: float
    adjacency_mode: str
    pairs: int


def oscillation(gen: Generator, fn: MatrixFn, mode: str = "q_support") -> OscillationStats:
    """v(F) = max ||F(x) - F(y)|| over adjacent state pairs."""
    if mode not in ADJACENCY_MODES:
        raise ValueError(f"mode must be one of {ADJACENCY_MODES}, got {mode!r}")
    vals = fn.gather(gen.states)
    if mode == "q_support":
        i, j = rate_edges(gen.rates)
    else:
        hit = flip_swap_adjacent(gen.states[:, None], gen.states[None, :])
        i, j = np.nonzero(np.triu(hit, 1))
    diffs = vals[i] - vals[j]
    scale = float(np.abs(diffs).max(initial=0.0))
    if scale == 0.0:
        return OscillationStats(0.0, mode, int(i.size))
    # The Schatten 4-norm ||D'D||_F^(1/2) bounds ||D||_2 from above, so only
    # edges whose bound reaches the largest exact norm among the probed
    # edges can attain the max, and only they get the exact (SVD) norm.  The
    # 1e-12 margin absorbs rounding; dividing by the largest entry keeps the
    # fourth powers from under- or overflowing.
    unit = diffs / scale
    gram = unit.transpose(0, 2, 1) @ unit
    bound = np.sqrt(np.sqrt(np.einsum("eij,eij->e", gram, gram)))
    probe = min(PROBE_EDGES, bound.size)
    top = np.argpartition(bound, -probe)[-probe:]
    floor = float(np.linalg.norm(diffs[top], 2, axis=(1, 2)).max())
    keep = bound >= floor / scale * (1.0 - 1e-12)
    v = float(np.linalg.norm(diffs[keep], 2, axis=(1, 2)).max(initial=floor))
    return OscillationStats(v, mode, int(i.size))


class TraceMgf:
    """Tr E[e^{theta (F - E F)}] with the eigentable precomputed.

    Tr e^{theta A} only needs the eigenvalues of A, so one eigh per state
    makes every theta evaluation a cheap exp-sum.
    """

    def __init__(self, weights, values):
        weights = np.asarray(weights, dtype=float)
        values = np.asarray(values, dtype=float)
        centered = values - matrix_mean(weights, values)
        self.weights = weights
        self.eigs = np.linalg.eigvalsh(centered)
        self.dim = values.shape[1]

    def __call__(self, theta: float) -> float:
        return float(self.weights @ np.exp(theta * self.eigs).sum(axis=1))

    def curve(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        return np.einsum("x,txd->t", self.weights,
                         np.exp(thetas[:, None, None] * self.eigs[None, :, :]))


def trace_mgf(gen: Generator, fn: MatrixFn, theta: float) -> float:
    return TraceMgf(gen.pi, fn.gather(gen.states))(theta)


def check_dirichlet_trace_bound(gen: Generator, fn: MatrixFn, p: int,
                                tol: float = 1e-8) -> bool:
    """Tr[E_Q(e^F, e^F)^p] <= v(F)^{2p} Tr E[e^{2pF}]."""
    p = int(p)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    vals = fn.gather(gen.states)
    lam, vec = np.linalg.eigh(vals)
    expf = (vec * np.exp(lam)[:, None, :]) @ vec.transpose(0, 2, 1)
    energy = dirichlet_form(gen.rates, gen.pi, expf)
    lhs = trace_power(energy, p)
    v = oscillation(gen, fn).v
    rhs = v ** (2 * p) * float(gen.pi @ np.exp(2 * p * lam).sum(axis=1))
    return lhs <= rhs + tol * max(1.0, abs(rhs))


def doubling_value(weights, values, k: int) -> float:
    """Tr[(E[e^{F/2^k}])^{2^k}], stable for any depth via eigen-logs."""
    weights = np.asarray(weights, dtype=float)
    values = np.asarray(values, dtype=float)
    lam, vec = np.linalg.eigh(values / float(2**k))
    mean = np.einsum("x,xij,xj,xkj->ik", weights, vec, np.exp(lam), vec)
    mu = np.linalg.eigvalsh(mean)
    # mean of positive definite matrices is positive definite
    return float(np.exp(float(2**k) * np.log(mu)).sum())


@dataclass(frozen=True)
class InductionReport:
    slacks: np.ndarray          # slack_k = doubling_k - (1 - alpha v^2 S_k) base
    base_trace: float           # Tr E[e^F]
    alpha_v_sq: float
    scale: float
    tol: float
    passed: bool


def check_induction_statement(gen: Generator, fn: MatrixFn, lam: float,
                              k_max: int, tol: float = 1e-8) -> InductionReport:
    """Slack of the doubling ladder for k = 1..k_max."""
    if lam <= 0.0:
        raise ScaleViolation(f"lam must be positive, got {lam}")
    alpha = 1.0 / lam
    v = oscillation(gen, fn).v
    av2 = alpha * v * v
    if av2 > 1.0:
        raise ScaleViolation(f"alpha * v(F)^2 = {av2:.6f} exceeds 1")
    vals = fn.gather(gen.states)
    base = doubling_value(gen.pi, vals, 0)
    slacks = []
    for k in range(1, int(k_max) + 1):
        s_k = 1.0 - 0.5**k
        slacks.append(doubling_value(gen.pi, vals, k) - (1.0 - av2 * s_k) * base)
    slacks = np.asarray(slacks)
    scale = max(1.0, abs(base))
    return InductionReport(slacks, base, av2, scale, tol,
                           bool((slacks >= -tol * scale).all()))


def mgf_bound(theta: float, lam: float, v: float, d: int) -> float:
    """d / (1 - theta^2 alpha v^2) inside the radius theta^2 alpha v^2 < 1."""
    if lam <= 0.0:
        raise ScaleViolation(f"lam must be positive, got {lam}")
    x = theta * theta * (v * v / lam)
    if x >= 1.0:
        raise OutOfRadius(f"theta^2 alpha v^2 = {x:.6f} outside (0, 1)")
    return float(d) / (1.0 - x)


def check_mgf_bound(gen: Generator, fn: MatrixFn, lam: float, theta: float,
                    tol: float = 1e-8) -> bool:
    v = oscillation(gen, fn).v
    bound = mgf_bound(theta, lam, v, fn.dim)
    value = trace_mgf(gen, fn, theta)
    return value <= bound + tol * max(1.0, bound)


@dataclass(frozen=True)
class TailBound:
    raw: float
    capped: float


def tail_bound_poincare(t: float, lam: float, v: float, d: int) -> TailBound:
    """2d exp(-t^2 / (4 (v^2/lam + t v / sqrt(lam))))."""
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if lam <= 0.0:
        raise ScaleViolation(f"lam must be positive, got {lam}")
    if v <= 0.0:
        return TailBound(0.0, 0.0)
    denom = 4.0 * (v * v / lam + t * v / math.sqrt(lam))
    raw = 2.0 * d * math.exp(-t * t / denom)
    return TailBound(raw, min(1.0, raw))


def tail_bound_sr(t: float, k: int, lipschitz: float, d: int) -> float:
    """2d exp(-t^2 / (32 (k L^2 + t sqrt(k) L))) for k-homogeneous SCP laws."""
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if k <= 0 or lipschitz <= 0.0:
        raise ValueError("need k >= 1 and lipschitz > 0")
    denom = 32.0 * (k * lipschitz**2 + t * math.sqrt(k) * lipschitz)
    return 2.0 * d * math.exp(-t * t / denom)


def tail_bound_sr_composed(t: float, k: int, lipschitz: float, d: int) -> float:
    """Same tail assembled from the Poincare form with lam = 1/(2k), v = 2L.

    Tighter than tail_bound_sr (the published constant is looser); both
    are exposed so each statement is tested against itself.
    """
    return tail_bound_poincare(t, 1.0 / (2.0 * k), 2.0 * lipschitz, d).raw


def laplace_tail(thetas, m_values, t: float, mgf=None) -> float:
    """2 min_theta exp(-theta t + log m(theta)) over a positive grid.

    With a callable mgf the minimum is refined by golden-section around
    the best grid point; grid values alone already give a valid bound.
    """
    thetas = np.asarray(thetas, dtype=float)
    m_values = np.asarray(m_values, dtype=float)
    if thetas.size == 0 or m_values.size == 0:
        raise EmptyGrid("need at least one grid point")
    if thetas.shape != m_values.shape:
        raise ValueError("theta grid and mgf values differ in shape")
    if thetas.min() <= 0.0:
        raise ValueError("grid thetas must be positive")
    if (m_values <= 0.0).any():
        raise ValueError("mgf values must be positive")
    exponents = -thetas * t + np.log(m_values)
    best = float(exponents.min())
    if mgf is not None:
        i = int(np.argmin(exponents))
        lo = thetas[max(0, i - 1)]
        hi = thetas[min(thetas.size - 1, i + 1)]
        if hi > lo:
            invphi = (math.sqrt(5.0) - 1.0) / 2.0
            a, b = lo, hi
            c = b - invphi * (b - a)
            dd = a + invphi * (b - a)
            fc = -c * t + math.log(mgf(c))
            fd = -dd * t + math.log(mgf(dd))
            for _ in range(REFINE_ITERS):
                if fc < fd:
                    b, dd, fd = dd, c, fc
                    c = b - invphi * (b - a)
                    fc = -c * t + math.log(mgf(c))
                else:
                    a, c, fc = c, dd, fd
                    dd = a + invphi * (b - a)
                    fd = -dd * t + math.log(mgf(dd))
            best = min(best, fc, fd)
    return 2.0 * math.exp(best)


def exact_tail(weights, values, ts) -> np.ndarray:
    """P[||F - E F|| >= t] by full enumeration of the state table."""
    weights = np.asarray(weights, dtype=float)
    values = np.asarray(values, dtype=float)
    centered = values - matrix_mean(weights, values)
    devs = np.abs(np.linalg.eigvalsh(centered)).max(axis=1)
    ts = np.asarray(ts, dtype=float)
    return np.array([float(weights[devs >= t].sum()) for t in ts])


# ---------------------------------------------------------------------------
# comparison against the sparsification-style tail


def ks_bound(eps: float, mu: float, k: int, d: int, c: float = 1.0) -> float:
    """d exp(-c eps^2 mu / (log k + eps)); the constant c is exposed."""
    if eps <= 0.0 or mu <= 0.0 or k < 2:
        raise ValueError("need eps > 0, mu > 0, k >= 2")
    return float(d) * math.exp(-c * eps * eps * mu / (math.log(k) + eps))


@dataclass(frozen=True)
class KsCrossover:
    k: int
    mu: float
    eps: float
    lhs: float                  # k + eps mu sqrt(k)
    rhs: float                  # mu log k + eps mu
    ours_better: bool           # lhs <= rhs
    margin: float               # (rhs - lhs) / max(1, |lhs|, |rhs|)
    near_crossover: bool
    exponent_sr: float          # t^2 / (32 (k + t sqrt(k))) at t = eps mu, L = 1
    exponent_ks: float          # c eps^2 mu / (log k + eps)
    dominator: str              # which closed form decays faster


def ks_crossover(k: int, mu: float, eps: float, c: float = 1.0) -> KsCrossover:
    """Evaluate the exponent comparison at t = eps * mu with unit Lipschitz."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    lhs = k + eps * mu * math.sqrt(k)
    rhs = mu * math.log(k) + eps * mu
    t = eps * mu
    exp_sr = t * t / (32.0 * (k + t * math.sqrt(k))) if t > 0 else 0.0
    exp_ks = c * eps * eps * mu / (math.log(k) + eps)
    margin = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
    return KsCrossover(int(k), float(mu), float(eps), float(lhs), float(rhs),
                       lhs <= rhs, float(margin), abs(margin) <= 0.1,
                       float(exp_sr), float(exp_ks),
                       "sr" if exp_sr >= exp_ks else "ks")


def ks_crossover_threshold(k: int, eps: float) -> float:
    """Smallest mu with k + eps mu sqrt(k) <= mu log k + eps mu.

    The comparison is affine in mu, so the threshold is k / slope with
    slope = log k + eps - eps sqrt(k), and infinite when slope <= 0.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    slope = math.log(k) + eps - eps * math.sqrt(k)
    return k / slope if slope > 0.0 else float("inf")


# ---------------------------------------------------------------------------
# tail report plumbing

TAIL_CSV_COLUMNS = ("t", "exact_or_empirical", "ci_upper", "bound_poincare",
                    "bound_sr", "bound_ks", "dominator")


@dataclass(frozen=True)
class TailRow:
    t: float
    exact_or_empirical: float
    ci_upper: float | None
    bound_poincare: float | None
    bound_sr: float | None
    bound_ks: float | None

    @property
    def dominator(self) -> str:
        named = {"poincare": self.bound_poincare, "sr": self.bound_sr,
                 "ks": self.bound_ks}
        live = {k: v for k, v in named.items() if v is not None}
        if not live:
            return ""
        return min(live, key=live.get)

