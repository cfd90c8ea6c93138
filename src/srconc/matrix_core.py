"""Symmetric-matrix primitives and PSD trace-inequality checkers.

All matrix functions are evaluated through a full eigendecomposition:
f(A) = U f(L) U^T with A = U L U^T from ``numpy.linalg.eigh``.  PSD
order comparisons are eigenvalue checks, and every verdict is ``within``
(the one tolerance rule, which lives in ``measures``) with a tolerance
scaled by the operand norms.  Integrals over [0, 1] (the derivative-of-exp
identity and the weighted-power integral bound) use Gauss-Legendre
quadrature, 64 nodes by default, evaluated in the eigenbases of the two
operands, where the integrand is entrywise.

The ``check_*`` functions return booleans rather than raising: each one
evaluates both sides of an inequality that is supposed to be a theorem
for its admissible inputs and reports whether they are ``within`` tol.
Every checker and norm takes a leading trial axis: stacks (N, d, d), with N
scalars where a trial has one (segment t, pair and decomposition weights),
give N verdicts or values, each bit for bit what the trial gives alone, and
one (d, d) matrix a bool or float.  ``ineq-suite`` checks a statement's trials
of one size (and p) in one call.  ``symmetrized`` turns counter-stream normals
into every random symmetric matrix, the suite's and the random observables'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .inputs import at_least
from .measures import InvalidInput, NumericFailure, as_integer, within

DEFAULT_QUAD_POINTS = 64
DECOMP_TOL = 1e-10


class MatrixError(InvalidInput):
    """Base class for matrix precondition and validation failures."""


class NonFinite(MatrixError, NumericFailure):
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


def _out(x):
    """A 0-d result as a float (one matrix in, one number out); a stack's array as is."""
    return float(x) if np.ndim(x) == 0 else x


def _scalar_pow(x, e):
    """x ** e per entry, each raised as a lone float is: numpy's vector pow can
    round differently in the last place, and no trial's value may depend on its stack."""
    x = np.asarray(x)
    return _out(np.array([v ** e for v in x.flat]).reshape(x.shape))


def _rebuild(lam, vec) -> np.ndarray:
    """vec diag(lam) vec^T, per matrix of a stack."""
    return (vec * lam[..., None, :]) @ vec.mT


def require_symmetric(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite(f"{name} contains non-finite entries")
    if not np.all(within(np.abs(a - a.mT).max(axis=(-2, -1)), 0.0, 1e-10,
                         np.abs(a).max(axis=(-2, -1)))):
        raise NotSymmetric(f"{name} is not symmetric")
    return (a + a.mT) / 2.0


def _psd_eigh(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """eigh of symmetric a, eigenvalues clipped to 0; NotPSD below -1e-10 * max(1, |lam|)."""
    lam, vec = np.linalg.eigh(a)
    if not np.all(within(-lam.min(axis=-1, initial=0.0), 0.0, 1e-10,
                         np.abs(lam).max(axis=-1, initial=0.0))):
        raise NotPSD(f"{name} must be PSD, has eigenvalue {lam.min():.3e}")
    return np.clip(lam, 0.0, None), vec


def sym_apply(a, fn) -> np.ndarray:
    """U fn(L) U^T for symmetric a; fn maps eigenvalue arrays elementwise."""
    lam, vec = np.linalg.eigh(require_symmetric(a))
    return _rebuild(fn(lam), vec)


def spectral_norm(a):
    """Largest singular value of each matrix; max |eigenvalue| for an exactly symmetric one."""
    a = np.atleast_2d(np.asarray(a, dtype=float))  # a vector is one row
    norm = np.empty(a.shape[:-2])
    square = a.shape[-1] == a.shape[-2]
    sym = (a == a.mT).all(axis=(-2, -1)) if square else np.zeros(norm.shape, bool)
    if sym.any():
        norm[sym] = np.abs(np.linalg.eigvalsh(a[sym])).max(axis=-1, initial=0.0)
    if not sym.all():
        norm[~sym] = np.linalg.svd(a[~sym], compute_uv=False).max(axis=-1, initial=0.0)
    return _out(norm)


def psd_leq(a, b, tol: float = 1e-9):
    """True iff a <= b in the PSD order, with norm-scaled tolerance."""
    a = require_symmetric(a, "a")
    b = require_symmetric(b, "b")
    if a.shape != b.shape:
        raise DimMismatch(f"shapes {a.shape} and {b.shape} differ")
    gap = np.linalg.eigvalsh(b - a).min(axis=-1)
    return within(-gap, 0.0, tol, np.maximum(spectral_norm(a), spectral_norm(b)))


def schatten_norm(a, p):
    """Schatten p-norm by singular values; p is an even integer or inf."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimMismatch(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains non-finite entries")
    sv = np.linalg.svd(a, compute_uv=False)
    if p == np.inf:
        return _out(sv.max(axis=-1, initial=0.0))
    if (p := as_integer(p, "p")) <= 0 or p % 2 != 0:
        raise ValueError(f"p must be a positive even integer or inf, got {p}")
    return _scalar_pow((sv**p).sum(axis=-1), 1.0 / p)


def trace_power(a, p: int):
    """Tr[a^p] through eigenvalues; p a positive integer."""
    p = at_least(p, "p", 1)
    return _out((np.linalg.eigvalsh(require_symmetric(a))**p).sum(axis=-1))


def check_trace_monotone(fn, a, h, tol: float = 1e-8):
    """Tr fn(a) <= Tr fn(h) whenever a <= h and fn is monotone.

    Raises PreconditionViolated if a <= h fails outright.
    """
    a = require_symmetric(a, "a")
    h = require_symmetric(h, "h")
    if not np.all(psd_leq(a, h, tol=1e-9)):
        raise PreconditionViolated("a <= h does not hold in the PSD order")
    lhs = fn(np.linalg.eigvalsh(a)).sum(axis=-1)
    rhs = fn(np.linalg.eigvalsh(h)).sum(axis=-1)
    return within(lhs, rhs, tol, np.maximum(abs(lhs), abs(rhs)))


@dataclass(frozen=True, eq=False)
class IdentityDecomposition:
    """Factors K_i with sum_i K_i^T K_i = I (checked on validate), each one
    (d, d) matrix or a stack (N, d, d) with one decomposition per trial."""

    factors: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(k, dtype=float) for k in self.factors)
        if not mats:
            raise BadDecomposition("no factors")
        shape = mats[0].shape
        if len(shape) < 2 or shape[-1] != shape[-2] or any(k.shape != shape for k in mats):
            raise DimMismatch("factors must share one square shape")
        object.__setattr__(self, "factors", mats)

    @property
    def dim(self) -> int:
        return self.factors[0].shape[-1]

    def resolution_defect(self):
        acc = sum(k.mT @ k for k in self.factors)
        return _out(np.abs(acc - np.eye(self.dim)).max(axis=(-2, -1)))

    def validate(self) -> None:
        defect = self.resolution_defect()
        if not np.all(defect <= DECOMP_TOL):  # a NaN defect fails
            raise BadDecomposition(f"sum K_i^T K_i deviates from I by {np.max(defect):.3e}")

    @staticmethod
    def from_weights(weights, dim: int) -> "IdentityDecomposition":
        """sqrt(w_i) I per weight; weights (m,), or (N, m) for N decompositions."""
        weights = np.asarray(weights, dtype=float)
        if not ((weights >= 0).all() and (abs(weights.sum(axis=-1) - 1.0) <= DECOMP_TOL).all()):
            raise BadDecomposition("weights must be convex coefficients")
        return IdentityDecomposition(
            tuple(np.sqrt(w)[..., None, None] * np.eye(dim) for w in weights.T))


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
    if any(a.shape != decomp.factors[0].shape for a in mats):
        raise DimMismatch("matrix shape differs from factor shape")
    mixed = sum(k.mT @ a @ k for k, a in zip(decomp.factors, mats))
    pushed = sum(k.mT @ sym_apply(a, fn) @ k for k, a in zip(decomp.factors, mats))
    if form == "operator":
        return psd_leq(sym_apply(mixed, fn), pushed, tol)
    if form == "trace":
        lhs = fn(np.linalg.eigvalsh(mixed)).sum(axis=-1)
        rhs = np.trace(pushed, axis1=-2, axis2=-1)
        return within(lhs, rhs, tol, np.maximum(abs(lhs), abs(rhs)))
    raise ValueError(f"form must be 'operator' or 'trace', got {form!r}")


def check_diff_square_convex(x1, x2, y1, y2, t, tol: float = 1e-8):
    """Joint convexity of (X, Y) -> (X - Y)^2 along one segment (one t per trial)."""
    x1, x2 = require_symmetric(x1, "x1"), require_symmetric(x2, "x2")
    y1, y2 = require_symmetric(y1, "y1"), require_symmetric(y2, "y2")
    t = np.asarray(t, dtype=float)
    if not ((0.0 <= t) & (t <= 1.0)).all():
        raise PreconditionViolated(f"t must lie in [0, 1], got {t}")
    t = t[..., None, None]
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


def _gl_integral(x, la, ua, lb, ub, power, quad_points: int) -> np.ndarray:
    """sum_t w_t power(A, t) x power(B, 1 - t) on the Gauss-Legendre rule in the Daleckii-Krein
    form: ua[(ua^T x ub) o K]ub^T, K = power(la, t) diag(w) power(lb, 1 - t)^T, one GEMM."""
    nodes, weights = _gl_nodes(quad_points)
    kernel = (power(la, nodes) * weights) @ power(lb, 1.0 - nodes).mT
    return ua @ ((ua.mT @ x @ ub) * kernel) @ ub.mT


def duhamel_residual(x, y, quad_points: int = DEFAULT_QUAD_POINTS):
    """Spectral-norm defect of e^X - e^Y = int_0^1 e^{tX}(X-Y)e^{(1-t)Y} dt,
    the integral by the Gauss-Legendre rule in the eigenbases of X and Y."""
    x = require_symmetric(x, "x")
    y = require_symmetric(y, "y")
    if x.shape != y.shape:
        raise DimMismatch(f"shapes {x.shape} and {y.shape} differ")
    (lx, ux), (ly, uy) = np.linalg.eigh(x), np.linalg.eigh(y)
    acc = _gl_integral(x - y, lx, ux, ly, uy,
                       lambda lam, s: np.exp(np.multiply.outer(lam, s)), quad_points)
    return spectral_norm(_rebuild(np.exp(lx), ux) - _rebuild(np.exp(ly), uy) - acc)


def check_int_norm_bound(a, b, x, p, tol: float = 1e-8,
                         quad_points: int = DEFAULT_QUAD_POINTS):
    """|| int_0^1 a^t x b^(1-t) dt ||_p <= (1/2) || a x + x b ||_p for PSD a, b,
    the integral by the Gauss-Legendre rule in the eigenbases of a and b."""
    a = require_symmetric(a, "a")
    b = require_symmetric(b, "b")
    x = require_symmetric(x, "x")
    acc = _gl_integral(x, *_psd_eigh(a, "a"), *_psd_eigh(b, "b"), np.power.outer, quad_points)
    lhs = schatten_norm(acc, p)
    rhs = 0.5 * schatten_norm(a @ x + x @ b, p)
    return within(lhs, rhs, tol, rhs)


def check_lemma_var(pairs, p: int, tol: float = 1e-8):
    """Second-moment bound for exponential differences.

    pairs is a list of (weight, X, Y) with weights summing to 1 (per trial:
    N weights and (N, d, d) stacks for N trials); checks

        Tr[(E[(e^X - e^Y)^2])^p]
            <= (1/2) E[ ||X - Y||^{2p} (Tr e^{2pX} + Tr e^{2pY}) ].
    """
    p = at_least(p, "p", 1)
    weights = np.array([w for w, _, _ in pairs], dtype=float)
    if not ((weights >= 0).all() and (abs(weights.sum(axis=0) - 1.0) <= 1e-9).all()):  # NaN fails
        raise PreconditionViolated("weights must be convex coefficients")
    mean_sq = None
    rhs = 0.0
    for w, (_, x, y) in zip(weights, pairs):
        x = require_symmetric(x, "x")
        y = require_symmetric(y, "y")
        (lx, ux), (ly, uy) = np.linalg.eigh(x), np.linalg.eigh(y)  # e^X and Tr e^{2pX}
        diff_exp = _rebuild(np.exp(lx), ux) - _rebuild(np.exp(ly), uy)
        sq = w[..., None, None] * (diff_exp @ diff_exp)
        mean_sq = sq if mean_sq is None else mean_sq + sq
        tr = np.exp(2 * p * lx).sum(axis=-1) + np.exp(2 * p * ly).sum(axis=-1)
        rhs += 0.5 * w * _scalar_pow(spectral_norm(x - y), 2 * p) * tr
    lhs = trace_power(mean_sq, p)
    return within(lhs, rhs, tol, rhs)  # rhs >= 0


def symmetrized(g, gain) -> np.ndarray:
    """(g + g^T) / 2 per matrix of a stack, rescaled to spectral norm gain where
    its norm is positive: the rule of every random symmetric matrix drawn here."""
    a = (g + g.mT) / 2.0
    nrm = spectral_norm(a)  # a is exactly symmetric
    a *= (gain / np.where(nrm > 0, nrm, 1.0))[..., None, None]
    return a

