"""Matrix-valued observables and Poincare-form checks.

Convention used everywhere for the Dirichlet form of a reversible
generator Q with stationary law pi:

    E_Q(F, F) = (1/2) sum_{x,y} pi(x) Q(x, y) (F(x) - F(y))^2 ,

which for scalar F equals <f, -Qf>_pi, so the matrix Poincare constant
obtained from lambda * Var <= E coincides with the spectral gap of the
additive symmetrization of Q in L^2(pi).  Variance is
Var_pi[F] = E[F^2] - E[F]^2.

The numeric core functions take plain weight/value arrays; a MatrixFn
carries the (state mask -> matrix) table and aligns itself to a state
list via ``gather``, raising DomainMismatch for missing states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import Decomposition, Generator, rate_edges
from .matrix_core import random_symmetric, require_symmetric, spectral_norm
from .measures import component_count


class FunctionalError(Exception):
    pass


class DomainMismatch(FunctionalError):
    pass


class BadValues(FunctionalError, ValueError):
    """Wrong shape, d < 1 or non-finite values; a ValueError, as shape errors were."""


class Reducible(FunctionalError):
    def __init__(self, components: int):
        super().__init__(f"chain splits into {components} communicating classes")
        self.components = components


@dataclass(frozen=True)
class MatrixFn:
    """Symmetric d x d matrix attached to each state mask."""

    states: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3 or values.shape[0] != states.size \
                or values.shape[1] != values.shape[2] or values.shape[1] < 1:
            raise BadValues(f"values have shape {values.shape}, "
                            f"expected ({states.size}, d, d) with d >= 1")
        if not np.isfinite(values).all():
            raise BadValues("values must be finite")
        values = (values + values.transpose(0, 2, 1)) / 2.0
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def gather(self, states) -> np.ndarray:
        """Value stack aligned to the given state list (a repeated state
        takes its last value)."""
        states = np.asarray(states, dtype=np.int64)
        order = np.argsort(self.states, kind="stable")
        keys = self.states[order]
        pos = np.maximum(np.searchsorted(keys, states, side="right") - 1, 0)
        missing = (keys[pos] != states) if keys.size else np.ones(states.shape, bool)
        if missing.any():
            raise DomainMismatch(
                f"function undefined at state {int(states[missing][0]):#x}")
        return self.values[order[pos]]

    @staticmethod
    def constant(states, mat) -> "MatrixFn":
        mat = require_symmetric(mat)
        states = np.asarray(states, dtype=np.int64)
        return MatrixFn(states, np.broadcast_to(mat, (states.size, *mat.shape)).copy())

    @staticmethod
    def from_table(table: dict) -> "MatrixFn":
        states = np.array(sorted(table), dtype=np.int64)
        return MatrixFn(states, np.stack([np.asarray(table[int(s)], dtype=float)
                                          for s in states]))


def random_matrix_fn(states, d: int, seed: int,
                     norm_bound: float = 1.0) -> MatrixFn:
    """Independent random symmetric value at every state."""
    rng = np.random.default_rng(seed)
    states = np.asarray(states, dtype=np.int64)
    vals = np.stack([random_symmetric(rng, d, norm_bound) for _ in states])
    return MatrixFn(states, vals)


def random_linear_matrix_fn(n: int, states, d: int, lipschitz: float,
                            seed: int) -> tuple["MatrixFn", float]:
    """F(x) = sum_i x_i A_i with ||A_i|| <= lipschitz.

    Returns the function and max_i ||A_i||, its Lipschitz constant in
    Hamming distance (adjacent cube states differ in at most two bits,
    so oscillation over flip-swap pairs is at most twice this).
    """
    rng = np.random.default_rng(seed)
    states = np.asarray(states, dtype=np.int64)
    coeffs = []
    worst = 0.0
    for _ in range(n):
        a = random_symmetric(rng, d)
        nrm = spectral_norm(a)
        if nrm > 0:
            a *= lipschitz * rng.uniform(0.5, 1.0) / nrm
        coeffs.append(a)
        worst = max(worst, spectral_norm(a))
    vals = np.zeros((states.size, d, d))
    for i in range(n):
        hit = ((states >> i) & 1).astype(bool)
        vals[hit] += coeffs[i]
    return MatrixFn(states, vals), worst


def matrix_mean(weights, values) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    return np.einsum("x,xij->ij", weights, np.asarray(values, dtype=float))


def matrix_variance(weights, values) -> np.ndarray:
    """E[(F - E F)^2] under the given weights (exactly 0 for a constant F)."""
    centered = np.asarray(values, dtype=float) - matrix_mean(weights, values)
    return np.einsum("x,xij,xjk->ik", np.asarray(weights, dtype=float),
                     centered, centered)


def dirichlet_form(rates, weights, values) -> np.ndarray:
    """(1/2) sum_{x,y} pi(x) Q(x,y) (F(x) - F(y))^2.

    Summed over the edges x < y of the rate support with the flow
    W_xy + W_yx, W_xy = pi(x) Q(x,y): the E edge differences D_e give one
    GEMM of D as d x (E d) by (W D) as (E d) x d, in O(E d^2) memory.
    """
    rates = np.asarray(rates, dtype=float)
    weights = np.asarray(weights, dtype=float)
    values = np.asarray(values, dtype=float)
    x, y = rate_edges(rates)
    flow = weights[x] * rates[x, y] + weights[y] * rates[y, x]
    diff = values[x] - values[y]
    d = values.shape[1]
    weighted = diff * flow[:, None, None]
    return 0.5 * (diff.transpose(1, 0, 2).reshape(d, -1) @ weighted.reshape(-1, d))


def project_fn(dec: Decomposition, fn: MatrixFn) -> MatrixFn:
    """Conditional means of fn per part, indexed by part label."""
    vals = []
    for part, restriction in zip(dec.parts, dec.restrictions):
        vals.append(matrix_mean(restriction.pi, fn.gather(part)))
    return MatrixFn(np.arange(len(dec.parts), dtype=np.int64), np.stack(vals))


@dataclass(frozen=True)
class DecompositionResiduals:
    variance_residual: float
    dirichlet_residual: float
    scale: float


def check_decompositions(dec: Decomposition, fn: MatrixFn) -> DecompositionResiduals:
    """Max-norm defects of the two-level variance and Dirichlet identities.

    Var_pi[F] = sum_i pihat(i) Var_{pi_i}[F] + Var_pihat[Fhat]
    E_Q(F,F)  = sum_i pihat(i) E_{Q_i}(F,F)
                + (1/2) sum_{i != j} sum_{x in part i, y in part j}
                        pi(x) Q(x,y) (F(x) - F(y))^2
    """
    gen = dec.source
    vals = fn.gather(gen.states)
    pihat = dec.projection.pi
    fhat = project_fn(dec, fn)

    total_var = matrix_variance(gen.pi, vals)
    within = sum(pihat[i] * matrix_variance(dec.restrictions[i].pi,
                                            fn.gather(dec.parts[i]))
                 for i in range(len(dec.parts)))
    across = matrix_variance(pihat, fhat.values)
    var_res = float(np.abs(total_var - within - across).max())

    total_dir = dirichlet_form(gen.rates, gen.pi, vals)
    within_dir = sum(pihat[i] * dirichlet_form(dec.restrictions[i].rates,
                                               dec.restrictions[i].pi,
                                               fn.gather(dec.parts[i]))
                     for i in range(len(dec.parts)))
    pos = gen.index_of()
    labels = np.full(gen.states.size, -1)
    for i, part in enumerate(dec.parts):
        labels[[pos[int(s)] for s in part]] = i
    cross = dirichlet_form(gen.rates * (labels[:, None] != labels[None, :]),
                           gen.pi, vals)
    dir_res = float(np.abs(total_dir - within_dir - cross).max())

    scale = max(1.0, spectral_norm(total_var), spectral_norm(total_dir))
    return DecompositionResiduals(var_res, dir_res, scale)


def _symmetrized(gen: Generator) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(pi), -(S + S')/2) with S = D^{1/2} Q D^{-1/2}, D = diag pi.

    Raises Reducible when the rate support graph is disconnected.
    """
    xs, ys = rate_edges(gen.rates)
    components = component_count(gen.states.size, zip(xs.tolist(), ys.tolist()))
    if components > 1:
        raise Reducible(components)
    root = np.sqrt(gen.pi)
    sym = (root[:, None] / root[None, :]) * gen.rates
    return root, -(sym + sym.T) / 2.0


def scalar_spectral_gap(gen: Generator) -> float:
    """Smallest nonzero eigenvalue of the symmetrized negative generator.

    Symmetrize D^{1/2} Q D^{-1/2} (D = diag pi); the gap is the second
    smallest eigenvalue of its negation.  Raises Reducible when the rate
    support graph is disconnected; a single-state chain has gap +inf.
    """
    if gen.states.size == 1:
        return float("inf")
    _, sym = _symmetrized(gen)
    return float(np.linalg.eigvalsh(sym)[1])


def matrix_poincare_constant(gen: Generator, d: int) -> tuple[float, MatrixFn | None]:
    """Largest lambda with lambda * Var_pi[F] <= E_Q(F, F) for every d x d F.

    For a fixed vector v, x -> F(x) v is d scalar functions; the scalar
    Poincare inequality for each, summed, gives v'(E - gap * Var) v >= 0.
    F = g * I_d with g the eigenvector attached to the gap attains it, so
    the constant is exactly scalar_spectral_gap(gen) and g * I_d is the
    witness (None for a single state, where the constant is +inf).
    """
    lam = scalar_spectral_gap(gen)
    if gen.states.size == 1:
        return lam, None
    root, sym = _symmetrized(gen)
    fiedler = np.linalg.eigh(sym)[1][:, 1] / root
    return lam, MatrixFn(gen.states, np.einsum("x,ij->xij", fiedler, np.eye(d)))


@dataclass(frozen=True)
class PoincareReport:
    lambda_claimed: float
    min_eig_slack: float
    scale: float
    tol: float
    passed: bool
    witness: MatrixFn | None


def check_matrix_poincare(gen: Generator, fn: MatrixFn, lam: float,
                          tol: float = 1e-8) -> PoincareReport:
    """Does lambda * Var_pi[F] <= E_Q(F, F) hold in the PSD order?"""
    vals = fn.gather(gen.states)
    energy = dirichlet_form(gen.rates, gen.pi, vals)
    var = matrix_variance(gen.pi, vals)
    spread = spectral_norm(var)
    # Var = 0 (one state, or F constant) satisfies the inequality for every
    # lambda, inf included, where lambda * Var would be 0 * inf = NaN.
    lam_var, lam_spread = (lam * var, abs(lam) * spread) if spread > 0.0 else (var, 0.0)
    slack = float(np.linalg.eigvalsh(energy - lam_var).min())
    scale = max(1.0, spectral_norm(energy), lam_spread)
    passed = slack >= -tol * scale
    return PoincareReport(float(lam), slack, scale, tol, passed,
                          None if passed else fn)


def matrix_fn_to_json(fn: MatrixFn) -> dict:
    return {
        "d": int(fn.dim),
        "values": [{"mask": int(s), "rows": [[float(v) for v in row] for row in mat]}
                   for s, mat in zip(fn.states, fn.values)],
    }


def matrix_fn_from_json(obj: dict) -> MatrixFn:
    d = int(obj["d"])
    if d < 1:
        raise BadValues(f"d must be at least 1, got {d}")
    if not obj["values"]:
        raise BadValues("values must list at least one state")
    mats = {}
    for entry in obj["values"]:
        mask = int(entry["mask"])
        if mask in mats:
            raise BadValues(f"mask {mask} is listed twice")
        mat = np.asarray(entry["rows"], dtype=float)
        if mat.shape != (d, d):
            raise BadValues(f"value at mask {entry['mask']} has shape {mat.shape}")
        mats[mask] = mat
    return MatrixFn(np.array(list(mats), dtype=np.int64), np.stack(list(mats.values())))
