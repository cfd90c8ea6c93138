"""Symmetric-matrix primitives and PSD trace-inequality checkers.

All matrix functions are evaluated through a full eigendecomposition:
f(A) = U f(L) U^T with A = U L U^T from ``numpy.linalg.eigh``.  PSD
order comparisons are eigenvalue checks with a tolerance scaled by the
operand norms.  Integrals over [0, 1] (the derivative-of-exp identity
and the weighted-power integral bound) use Gauss-Legendre quadrature,
64 nodes by default.

The ``check_*`` functions return booleans rather than raising: each one
evaluates both sides of an inequality that is supposed to be a theorem
for its admissible inputs and reports whether the numeric slack stays
above -tol * scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_QUAD_POINTS = 64
DECOMP_TOL = 1e-10


class MatrixError(Exception):
    """Base class for matrix precondition and validation failures."""


class NonFinite(MatrixError):
    pass


class DimMismatch(MatrixError):
    pass


class NotSymmetric(MatrixError):
    pass


class PreconditionViolated(MatrixError):
    pass


class BadDecomposition(MatrixError):
    pass


class NotPSD(MatrixError):
    pass


def require_symmetric(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite(f"{name} contains non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > 1e-10 * scale:
        raise NotSymmetric(f"{name} is not symmetric")
    return (a + a.T) / 2.0


def sym_apply(a, fn) -> np.ndarray:
    """U fn(L) U^T for symmetric a; fn maps eigenvalue arrays elementwise."""
    a = require_symmetric(a)
    lam, vec = np.linalg.eigh(a)
    return (vec * fn(lam)) @ vec.T


def sym_expm(a) -> np.ndarray:
    return sym_apply(a, np.exp)


def sym_power(a, t: float) -> np.ndarray:
    """Fractional power of a PSD matrix; tiny negative eigenvalues clip to 0."""
    a = require_symmetric(a)
    lam, vec = np.linalg.eigh(a)
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    if lam.min(initial=0.0) < -1e-10 * scale:
        raise NotPSD(f"matrix has eigenvalue {lam.min():.3e}")
    lam = np.clip(lam, 0.0, None)
    return (vec * lam**t) @ vec.T


def spectral_norm(a) -> float:
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def is_psd(a, tol: float = 1e-10) -> bool:
    a = require_symmetric(a)
    lam = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    return bool(lam.min(initial=0.0) >= -tol * scale)


def psd_leq(a, b, tol: float = 1e-9) -> bool:
    """True iff a <= b in the PSD order, with norm-scaled tolerance."""
    a = require_symmetric(a, "a")
    b = require_symmetric(b, "b")
    if a.shape != b.shape:
        raise DimMismatch(f"shapes {a.shape} and {b.shape} differ")
    gap = np.linalg.eigvalsh(b - a).min()
    scale = max(1.0, spectral_norm(a), spectral_norm(b))
    return bool(gap >= -tol * scale)


def schatten_norm(a, p) -> float:
    """Schatten p-norm by singular values; p is an even integer or inf."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains non-finite entries")
    sv = np.linalg.svd(a, compute_uv=False)
    if p == np.inf or p == "inf":
        return float(sv.max(initial=0.0))
    p = int(p)
    if p <= 0 or p % 2 != 0:
        raise ValueError(f"p must be a positive even integer or inf, got {p}")
    return float((sv**p).sum() ** (1.0 / p))


def trace_power(a, p: int) -> float:
    """Tr[a^p] through eigenvalues; p a positive integer."""
    a = require_symmetric(a)
    p = int(p)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    lam = np.linalg.eigvalsh(a)
    return float((lam**p).sum())


def check_trace_monotone(fn, a, h, tol: float = 1e-8) -> bool:
    """Tr fn(a) <= Tr fn(h) whenever a <= h and fn is monotone.

    Raises PreconditionViolated if a <= h fails outright.
    """
    a = require_symmetric(a, "a")
    h = require_symmetric(h, "h")
    if not psd_leq(a, h, tol=1e-9):
        raise PreconditionViolated("a <= h does not hold in the PSD order")
    lhs = float(fn(np.linalg.eigvalsh(a)).sum())
    rhs = float(fn(np.linalg.eigvalsh(h)).sum())
    scale = max(1.0, abs(lhs), abs(rhs))
    return lhs <= rhs + tol * scale


@dataclass(frozen=True)
class IdentityDecomposition:
    """Factors K_i with sum_i K_i^T K_i = I (checked on validate)."""

    factors: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(k, dtype=float) for k in self.factors)
        if not mats:
            raise BadDecomposition("no factors")
        d = mats[0].shape[0]
        for k in mats:
            if k.shape != (d, d):
                raise DimMismatch("factors must share one square shape")
        object.__setattr__(self, "factors", mats)

    @property
    def dim(self) -> int:
        return self.factors[0].shape[0]

    def resolution_defect(self) -> float:
        d = self.dim
        acc = sum(k.T @ k for k in self.factors)
        return float(np.abs(acc - np.eye(d)).max())

    def validate(self) -> None:
        defect = self.resolution_defect()
        if defect > DECOMP_TOL:
            raise BadDecomposition(f"sum K_i^T K_i deviates from I by {defect:.3e}")

    @staticmethod
    def from_weights(weights, dim: int) -> "IdentityDecomposition":
        weights = np.asarray(weights, dtype=float)
        if weights.min(initial=0.0) < 0 or abs(weights.sum() - 1.0) > DECOMP_TOL:
            raise BadDecomposition("weights must be convex coefficients")
        return IdentityDecomposition(
            tuple(np.sqrt(w) * np.eye(dim) for w in weights))


def check_operator_jensen(fn, decomp: IdentityDecomposition, mats,
                          form: str = "operator", tol: float = 1e-8) -> bool:
    """Jensen for an identity decomposition.

    operator form (fn operator convex):
        fn(sum K_i^T A_i K_i) <= sum K_i^T fn(A_i) K_i  in the PSD order
    trace form (fn merely convex):
        Tr fn(sum K_i^T A_i K_i) <= Tr[sum K_i^T fn(A_i) K_i]
    """
    decomp.validate()
    mats = [require_symmetric(a, f"mats[{i}]") for i, a in enumerate(mats)]
    if len(mats) != len(decomp.factors):
        raise BadDecomposition(
            f"{len(mats)} matrices for {len(decomp.factors)} factors")
    d = decomp.dim
    for a in mats:
        if a.shape != (d, d):
            raise DimMismatch("matrix dimension differs from factor dimension")
    mixed = sum(k.T @ a @ k for k, a in zip(decomp.factors, mats))
    pushed = sum(k.T @ sym_apply(a, fn) @ k for k, a in zip(decomp.factors, mats))
    if form == "operator":
        return psd_leq(sym_apply(mixed, fn), pushed, tol)
    if form == "trace":
        lhs = float(fn(np.linalg.eigvalsh(mixed)).sum())
        rhs = float(np.trace(pushed))
        scale = max(1.0, abs(lhs), abs(rhs))
        return lhs <= rhs + tol * scale
    raise ValueError(f"form must be 'operator' or 'trace', got {form!r}")


def check_diff_square_convex(x1, x2, y1, y2, t: float, tol: float = 1e-8) -> bool:
    """Joint convexity of (X, Y) -> (X - Y)^2 along one segment."""
    x1, x2 = require_symmetric(x1, "x1"), require_symmetric(x2, "x2")
    y1, y2 = require_symmetric(y1, "y1"), require_symmetric(y2, "y2")
    if not 0.0 <= t <= 1.0:
        raise PreconditionViolated(f"t must lie in [0, 1], got {t}")
    mix = t * (x1 - y1) + (1 - t) * (x2 - y2)
    lhs = mix @ mix
    rhs = t * (x1 - y1) @ (x1 - y1) + (1 - t) * (x2 - y2) @ (x2 - y2)
    return psd_leq(lhs, rhs, tol)


@lru_cache(maxsize=None)
def _gl_nodes(quad_points: int):
    x, w = np.polynomial.legendre.leggauss(quad_points)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0  # mapped to [0, 1]
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return nodes, weights


def duhamel_residual(x, y, quad_points: int = DEFAULT_QUAD_POINTS) -> float:
    """Spectral-norm defect of e^X - e^Y = int_0^1 e^{tX}(X-Y)e^{(1-t)Y} dt."""
    x = require_symmetric(x, "x")
    y = require_symmetric(y, "y")
    if x.shape != y.shape:
        raise DimMismatch(f"shapes {x.shape} and {y.shape} differ")
    lx, ux = np.linalg.eigh(x)
    ly, uy = np.linalg.eigh(y)
    diff = x - y
    nodes, weights = _gl_nodes(quad_points)
    acc = np.zeros_like(x)
    for t, w in zip(nodes, weights):
        left = (ux * np.exp(t * lx)) @ ux.T
        right = (uy * np.exp((1 - t) * ly)) @ uy.T
        acc += w * (left @ diff @ right)
    target = (ux * np.exp(lx)) @ ux.T - (uy * np.exp(ly)) @ uy.T
    return spectral_norm(target - acc)


def check_int_norm_bound(a, b, x, p, tol: float = 1e-8,
                         quad_points: int = DEFAULT_QUAD_POINTS) -> bool:
    """|| int_0^1 a^t x b^(1-t) dt ||_p <= (1/2) || a x + x b ||_p for PSD a, b."""
    a = require_symmetric(a, "a")
    b = require_symmetric(b, "b")
    x = require_symmetric(x, "x")
    la, ua = np.linalg.eigh(a)
    lb, ub = np.linalg.eigh(b)
    if la.min(initial=0.0) < -1e-10 * max(1.0, np.abs(la).max(initial=0.0)):
        raise NotPSD("a must be PSD")
    if lb.min(initial=0.0) < -1e-10 * max(1.0, np.abs(lb).max(initial=0.0)):
        raise NotPSD("b must be PSD")
    la, lb = np.clip(la, 0.0, None), np.clip(lb, 0.0, None)
    nodes, weights = _gl_nodes(quad_points)
    acc = np.zeros_like(x)
    for t, w in zip(nodes, weights):
        left = (ua * la**t) @ ua.T
        right = (ub * lb ** (1 - t)) @ ub.T
        acc += w * (left @ x @ right)
    lhs = schatten_norm(acc, p)
    rhs = 0.5 * schatten_norm(a @ x + x @ b, p)
    return lhs <= rhs + tol * max(1.0, rhs)


def check_lemma_var(pairs, p: int, tol: float = 1e-8) -> bool:
    """Second-moment bound for exponential differences.

    pairs is a list of (weight, X, Y) with weights summing to 1; checks

        Tr[(E[(e^X - e^Y)^2])^p]
            <= (1/2) E[ ||X - Y||^{2p} (Tr e^{2pX} + Tr e^{2pY}) ].
    """
    p = int(p)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    weights = np.array([w for w, _, _ in pairs], dtype=float)
    if weights.min(initial=0.0) < 0 or abs(weights.sum() - 1.0) > 1e-9:
        raise PreconditionViolated("weights must be convex coefficients")
    mean_sq = None
    rhs = 0.0
    for w, x, y in pairs:
        x = require_symmetric(x, "x")
        y = require_symmetric(y, "y")
        diff_exp = sym_expm(x) - sym_expm(y)
        sq = diff_exp @ diff_exp
        mean_sq = w * sq if mean_sq is None else mean_sq + w * sq
        osc = spectral_norm(x - y)
        tr_x = float(np.exp(2 * p * np.linalg.eigvalsh(x)).sum())
        tr_y = float(np.exp(2 * p * np.linalg.eigvalsh(y)).sum())
        rhs += 0.5 * w * osc ** (2 * p) * (tr_x + tr_y)
    lhs = trace_power(mean_sq, p)
    return lhs <= rhs + tol * max(1.0, abs(rhs))


def random_symmetric(rng: np.random.Generator, d: int,
                     norm_bound: float | None = None) -> np.ndarray:
    """GOE-style random symmetric matrix, optionally rescaled in norm."""
    g = rng.standard_normal((d, d))
    a = (g + g.T) / 2.0
    if norm_bound is not None:
        nrm = spectral_norm(a)
        if nrm > 0:
            a *= norm_bound * rng.uniform(0.2, 1.0) / nrm
    return a


def matrix_to_json(a) -> dict:
    a = require_symmetric(a)
    return {"d": int(a.shape[0]), "rows": [[float(v) for v in row] for row in a]}


def matrix_from_json(obj: dict) -> np.ndarray:
    d = int(obj["d"])
    a = np.asarray(obj["rows"], dtype=float)
    if a.shape != (d, d):
        raise DimMismatch(f"rows have shape {a.shape}, header says d={d}")
    return require_symmetric(a)
