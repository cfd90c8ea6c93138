"""Trace moment-generating bounds and tail bound assembly.

Notation: lam is always the actual Poincare constant (spectral gap) and
alpha = 1/lam its inverse; the two are never conflated.  v(F) is the
largest spectral-norm jump of F across the walk's transitions, the edges
of the generator's rate support (the support of the Dirichlet form).

The doubling ladder: with S_k = 1 - 2^{-k},

    (1 - alpha v(F)^2 S_k) Tr E[e^F]  <=  Tr[(E[e^{F/2^k}])^{2^k}],

valid whenever alpha v(F)^2 <= 1; letting k grow gives the trace-mgf
bound Tr E[e^{theta(F - E F)}] <= d / (1 - theta^2 alpha v^2) inside the
radius, and optimizing the Laplace transform yields the closed-form
tails.  Trace powers Tr[M^p] are always powers of the matrix, evaluated
through eigenvalues, so arbitrarily large doubling depths stay stable.
TraceMgf holds the centred spectrum of F: every trace-mgf value, its
check against mgf_bound and every exact or sampled tail read it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .chains import Generator
from .functional import MatrixFn, dirichlet_form, matrix_mean
from .inputs import at_least, in_range
from .matrix_core import _out, _rebuild, _scalar_pow, trace_power
from .measures import NumericFailure, within


class ConcentrationError(NumericFailure):
    pass


class ScaleViolation(ConcentrationError):
    pass


class OutOfRadius(ConcentrationError):
    pass


class EmptyGrid(ConcentrationError):
    pass


def _positive_gap(lam: float) -> float:
    """lam, read by the one rule of every lam here: positive and finite (NaN is not)."""
    if not 0.0 < lam < math.inf:
        raise ScaleViolation(f"lam must be positive and finite, got {lam}")
    return lam


class OscillationStats(NamedTuple):
    v: float
    pairs: int


def oscillation(gen: Generator, fn: MatrixFn) -> OscillationStats:
    """v(F) = max ||F(x) - F(y)|| over the walk's edges, computed once per
    (walk, observable) and then read from fn's record of the walk; for a
    stack, v holds one value per observable."""
    return fn.on_walk(gen, "oscillation", lambda: _oscillation(gen, fn))


def _oscillation(gen: Generator, fn: MatrixFn) -> OscillationStats:
    vals = fn.gather(gen.states)
    stack = vals.reshape(-1, *vals.shape[-3:])  # (N, m, d, d)
    i, j = gen.edges
    unit = np.take(stack, i, axis=1)
    np.subtract(unit, np.take(stack, j, axis=1), out=unit)
    scale = np.fmax(unit.max(axis=(1, 2, 3), initial=0.0), -unit.min(axis=(1, 2, 3), initial=0.0))
    # The Schatten 4-norm ||D'D||_F^(1/2) bounds ||D||_2 from above, so only
    # edges whose bound reaches the exact norm of the edge with the largest
    # bound can attain the max, and only they get the exact (SVD) norm.  The
    # 1e-12 margin absorbs rounding; dividing by the largest entry keeps the
    # fourth powers from under- or overflowing.  The differences are scaled
    # in place; the kept ones are taken again and each gets its exact norm,
    # so v, a max of exact norms, is each observable's own alone.
    if not (live := scale > 0.0).any():  # max |entry|; v = 0 where it is 0
        return OscillationStats(_out(np.zeros(vals.shape[:-3])), int(i.size))
    scale = np.where(live, scale, 1.0)[:, None]
    unit /= scale[..., None, None]
    gram = unit @ unit  # = D'D: MatrixFn values, hence their differences, are exactly symmetric
    bound = np.sqrt(np.sqrt(np.einsum("neij,neij->ne", gram, gram)))
    top, at = bound.argmax(axis=1, keepdims=True), np.arange(len(stack))[:, None]
    floor = np.linalg.svd(stack[at, i[top]] - stack[at, j[top]], compute_uv=False).max(axis=-1)
    fn_at, edge = np.nonzero(live[:, None] & (bound >= floor / scale * (1.0 - 1e-12)))
    kept = stack[fn_at, i[edge]] - stack[fn_at, j[edge]]
    v = np.where(live, floor[:, 0], 0.0)
    np.maximum.at(v, fn_at, np.linalg.svd(kept, compute_uv=False).max(axis=-1))
    return OscillationStats(_out(v.reshape(vals.shape[:-3])), int(i.size))


class TraceMgf:
    """The centred spectrum of F on a weighted state table: E F, the
    eigenvalues of F(x) - E F per state and the deviations ||F(x) - E F||.

    Tr e^{theta A} only needs the eigenvalues of A, so every mgf value is
    an exp-sum, and every tail probability a sum of weights.
    """

    def __init__(self, weights, values):
        self.weights = np.asarray(weights, dtype=float)
        values = np.asarray(values, dtype=float)
        self.mean = matrix_mean(self.weights, values)
        self.eigs = np.linalg.eigvalsh(values - self.mean)
        self.devs = np.abs(self.eigs).max(axis=1)
        self.dim = values.shape[1]

    def __call__(self, theta: float) -> float:
        return float(self.curve([theta])[0])

    def curve(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        return np.einsum("x,txd->t", self.weights,
                         np.exp(thetas[:, None, None] * self.eigs[None, :, :]))

    def rows(self, thetas, lam: float, v: float, tol: float) -> list[tuple]:
        """(theta, Tr E e^{theta(F - E F)}, mgf_bound, within tol) per theta."""
        bounds = [mgf_bound(float(theta), lam, v, self.dim) for theta in thetas]
        return [(float(theta), float(value), bound, within(value, bound, tol, bound))
                for theta, value, bound in zip(thetas, self.curve(thetas), bounds)]

    def tail(self, ts) -> np.ndarray:
        """P[||F - E F|| >= t] for each t."""
        return _tail_mass(self.devs, self.weights, ts)


def _tail_mass(devs, weights, ts) -> np.ndarray:
    """weights[devs >= t].sum() per t: exact tails with pi, sampled ones with draw counts."""
    return np.array([weights[devs >= t].sum() for t in ts])


def spectrum(gen: Generator, fn: MatrixFn) -> TraceMgf:
    """The centred spectrum of fn on the walk, built once per (walk, observable)."""
    return fn.on_walk(gen, "spectrum", lambda: TraceMgf(gen.pi, fn.gather(gen.states)))


def _eigh(gen: Generator, fn: MatrixFn) -> tuple[np.ndarray, np.ndarray]:
    """eigh of fn's value table on the walk, made once per (walk, observable)."""
    return fn.on_walk(gen, "eigh", lambda: np.linalg.eigh(fn.gather(gen.states)))


def check_dirichlet_trace_bound(gen: Generator, fn: MatrixFn, p: int,
                                tol: float = 1e-8) -> bool:
    """Tr[E_Q(e^F, e^F)^p] <= v(F)^{2p} Tr E[e^{2pF}], per observable of a stack."""
    p = at_least(p, "p", 1)
    lam, vec = _eigh(gen, fn)
    lhs = trace_power(dirichlet_form(gen, _rebuild(np.exp(lam), vec)), p)
    mass = np.exp(2 * p * lam).sum(axis=-1)[..., None, :] @ gen.pi[:, None]  # a dot each
    rhs = _scalar_pow(oscillation(gen, fn).v, 2 * p) * mass[..., 0, 0]
    return within(lhs, rhs, tol, rhs)


def doubling_value(weights, values, k: int) -> float:
    """Tr[(E[e^{F/2^k}])^{2^k}] for probability weights, stable for any depth."""
    k = at_least(k, "k", 0)
    weights = np.asarray(weights, dtype=float)
    return float(_doubling(weights, *np.linalg.eigh(np.asarray(values, dtype=float)), [k])[0])


def _doubling(weights: np.ndarray, lam: np.ndarray, vec: np.ndarray, depths) -> np.ndarray:
    """Tr[(E[e^{F/2^k}])^{2^k}] for each k in depths, from the eigh (lam, vec) of F.

    Dividing F's eigenvalues by 2^k is exact, so each value is bit for bit
    the one from diagonalizing F/2^k.  E[e^{F/2^k}] - I, of order 2^-k, is
    the stacked eigenvectors scaled by expm1 of those eigenvalues times their
    transpose, so it keeps its digits at depth; all depths are one batched
    (K, d, m d) @ (m d, d) matmul, which numpy runs as one GEMM per depth,
    holding K m d^2 floats.  The power is exp(2^k log1p(mu)) over the
    eigenvalues mu of all K excess matrices, from one stacked eigvalsh.
    """
    scales = np.array([float(2**k) for k in depths])
    cols = vec.transpose(1, 0, 2).reshape(vec.shape[1], -1)  # cols[i, (x, j)] = vec[x, i, j]
    flat = (weights[:, None] * np.expm1(lam / scales[:, None, None])).reshape(scales.size, 1, -1)
    mu = np.linalg.eigvalsh((cols * flat) @ cols.T)
    # a mean of positive definite matrices is positive definite: mu > -1
    return np.exp(scales[:, None] * np.log1p(mu)).sum(axis=1)


class InductionReport(NamedTuple):
    slacks: np.ndarray          # slack_k = doubling_k - (1 - alpha v^2 S_k) base
    base_trace: float           # Tr E[e^F]
    alpha_v_sq: float
    scale: float
    tol: float
    passed: bool


def check_induction_statement(gen: Generator, fn: MatrixFn, lam: float,
                              k_max: int, tol: float = 1e-8) -> InductionReport:
    """Slack of the doubling ladder for k = 1..k_max (at least 1)."""
    k_max = at_least(k_max, "k_max", 1)
    alpha = 1.0 / _positive_gap(lam)
    v = oscillation(gen, fn).v
    av2 = alpha * v * v
    if av2 > 1.0:
        raise ScaleViolation(f"alpha * v(F)^2 = {av2:.6f} exceeds 1")
    trace = _doubling(gen.pi, *_eigh(gen, fn), range(k_max + 1))
    base = float(trace[0])
    s_k = 1.0 - np.ldexp(1.0, -np.arange(1, k_max + 1))  # 1 - 2^-k, exact
    slacks = trace[1:] - (1.0 - av2 * s_k) * base
    scale = max(1.0, abs(base))
    return InductionReport(slacks, base, av2, scale, tol,
                           within(-slacks.min(), 0.0, tol, scale))


def _radius(theta: float, lam: float, v: float) -> float:
    """theta^2 alpha v^2, which mgf_bound needs below 1."""
    _positive_gap(lam)
    return theta * theta * (v * v / lam)


def mgf_grid(lam: float, v: float, frac: float, points: int) -> np.ndarray:
    """points thetas evenly spaced up to sqrt(frac lam) / v, the fraction frac < 1
    of the radius; the quotient can round onto the radius, so the top steps
    down by at most three ulps while mgf_bound would refuse it."""
    points = at_least(points, "points", 1)
    frac = in_range(frac, "frac", 1.0)
    v = in_range(v, "v")
    top = math.sqrt(frac * _positive_gap(lam)) / v
    for _ in range(3):
        if _radius(top, lam, v) >= 1.0:
            top = math.nextafter(top, 0.0)
    return np.linspace(top / points, top, points)


def mgf_bound(theta: float, lam: float, v: float, d: int) -> float:
    """d / (1 - theta^2 alpha v^2) inside the radius theta^2 alpha v^2 < 1."""
    x = _radius(theta, lam, v)
    if not x < 1.0:  # a NaN theta or v is outside too
        raise OutOfRadius(f"theta^2 alpha v^2 = {x:.6f} outside (0, 1)")
    return float(d) / (1.0 - x)


def check_mgf_bound(gen: Generator, fn: MatrixFn, lam: float, theta: float,
                    tol: float = 1e-8) -> bool:
    """Tr E e^{theta(F - E F)} <= mgf_bound up to tol; v(F) and the centred
    spectrum are read from fn's record of the walk, so a grid computes each once."""
    return spectrum(gen, fn).rows([theta], lam, oscillation(gen, fn).v, tol)[0][3]


class TailBound(NamedTuple):
    raw: float
    capped: float


def _exponent(ratio: float, r: float, c: float) -> float:
    """ratio = t^2 / (c (s^2 + t s)), r = s / t; where t^2 and the denominator both
    overflow (inf / inf is NaN), the same ratio with t^2 divided out."""
    return 1.0 / (c * (r * r + r)) if math.isnan(ratio) else ratio


def tail_bound_poincare(t: float, lam: float, v: float, d: int) -> TailBound:
    """2d exp(-t^2 / (4 (v^2/lam + t v / sqrt(lam)))); 0 for a constant F, v = 0."""
    t = in_range(t, "t")
    v = in_range(v, "v", zero_ok=True)
    d = at_least(d, "d", 1)
    if v == 0.0 and lam > 0.0:  # a one-state walk's gap is +inf
        return TailBound(0.0, 0.0)
    _positive_gap(lam)
    denom = 4.0 * (v * v / lam + t * v / math.sqrt(lam))
    raw = 2.0 * d * math.exp(-_exponent(t * t / denom, v / math.sqrt(lam) / t, 4.0))
    return TailBound(raw, min(1.0, raw))


def tail_bound_sr(t: float, k: int, lipschitz: float, d: int) -> float:
    """2d exp(-t^2 / (32 (k L^2 + t sqrt(k) L))) for k-homogeneous SCP laws."""
    t, lipschitz = in_range(t, "t"), in_range(lipschitz, "lipschitz")
    k, d = at_least(k, "k", 1), at_least(d, "d", 1)
    square = lipschitz**2 if lipschitz < 2.0**512 else math.inf  # L**2 raises from 2^512 on
    denom = 32.0 * (k * square + t * math.sqrt(k) * lipschitz)
    return 2.0 * d * math.exp(-_exponent(t * t / denom, math.sqrt(k) * lipschitz / t, 32.0))


def tail_bound_sr_composed(t: float, k: int, lipschitz: float, d: int) -> float:
    """Same tail assembled from the Poincare form with lam = 1/(2k), v = 2L.

    Tighter than tail_bound_sr (the published constant is looser); both
    are exposed so each statement is tested against itself.
    """
    lipschitz = in_range(lipschitz, "lipschitz")
    return tail_bound_poincare(t, 1.0 / (2.0 * at_least(k, "k", 1)), 2.0 * lipschitz, d).raw


def laplace_tail(thetas, m_values, t: float, mgf=None) -> float:
    """2 min_theta exp(-theta t + log m(theta)) over a positive grid: every theta > 0
    gives a valid bound.  With a callable mgf, an interior grid minimum adds one
    value, at the vertex of the parabola through its exponent and its neighbours'
    (one Newton step), clamped to their span; a flat triple adds none."""
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
    i = int(np.argmin(exponents))
    best = float(exponents[i])
    if mgf is not None and 0 < i < thetas.size - 1:
        (a, b, c), (fa, fb, fc) = thetas[i - 1:i + 2].tolist(), exponents[i - 1:i + 2].tolist()
        p, q = (b - a) * (fb - fc), (b - c) * (fb - fa)
        vertex = b - ((b - a) * p - (b - c) * q) / (2.0 * (p - q)) if p != q else math.nan
        theta = min(max(vertex, min(a, c)), max(a, c))  # a NaN vertex stays NaN
        if math.isfinite(theta):
            best = min(best, -theta * t + math.log(mgf(theta)))
    return 2.0 * math.exp(best)


def exact_tail(weights, values, ts) -> np.ndarray:
    """P[||F - E F|| >= t] by full enumeration of the state table."""
    return TraceMgf(weights, values).tail(ts)


# ---------------------------------------------------------------------------
# comparison against the sparsification-style tail


def ks_bound(eps: float, mu: float, k: int, d: int, c: float = 1.0) -> float:
    """d exp(-c eps^2 mu / (log k + eps)); the constant c is exposed."""
    eps, mu, c = in_range(eps, "eps"), in_range(mu, "mu"), in_range(c, "c")
    k, d = at_least(k, "k", 2), at_least(d, "d", 1)
    return d * math.exp(-c * eps * eps * mu / (math.log(k) + eps))


# ---------------------------------------------------------------------------
# tail report plumbing

TAIL_CSV_COLUMNS = ("t", "exact_or_empirical", "ci_upper", "bound_poincare",
                    "bound_sr", "bound_ks", "dominator")


def tail_dominator(bound_poincare, bound_sr, bound_ks) -> str:
    """Name of the least bound given (not None), ties going to poincare, then
    sr, then ks; "" when none is given."""
    named = {"poincare": bound_poincare, "sr": bound_sr, "ks": bound_ks}
    live = {k: v for k, v in named.items() if v is not None}
    return min(live, key=live.get) if live else ""
