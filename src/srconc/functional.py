"""Matrix-valued observables and Poincare-form checks.

Convention used everywhere for the Dirichlet form of a reversible
generator Q with stationary law pi:

    E_Q(F, F) = (1/2) sum_{x,y} pi(x) Q(x, y) (F(x) - F(y))^2 ,

which for scalar F equals <f, -Qf>_pi, so the matrix Poincare constant
obtained from lambda * Var <= E coincides with the spectral gap of the
additive symmetrization of Q in L^2(pi).  Variance is
Var_pi[F] = E[F^2] - E[F]^2.

The mean and variance take plain weight/value arrays, the Dirichlet form
a walk; a MatrixFn carries the (state mask -> matrix) table and aligns
itself to a state list via ``gather``, raising DomainMismatch for missing states.
Values (N, m, d, d) are N observables on m states: each result then holds N,
each bit for bit its observable's alone, the stack of one.  A random observable
reads counter streams, key x for a table's value at x and key i for a linear A_i.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chains import Decomposition, Generator, _read_only, _sealed
from .matrix_core import _out, require_symmetric, spectral_norm, symmetrized
from .measures import InvalidInput, as_integer, as_matrix, component_count, within
from .streams import normal, uniform, words


class FunctionalError(InvalidInput):
    pass


class DomainMismatch(FunctionalError):
    pass


class BadValues(FunctionalError, ValueError):
    """Wrong shape, d < 1 or non-finite values; a ValueError, as shape errors were."""


class Reducible(FunctionalError):
    def __init__(self, components: int):
        super().__init__(f"chain splits into {components} communicating classes")
        self.components = components


@dataclass(frozen=True, eq=False)
class MatrixFn:
    """Symmetric d x d matrix attached to each state mask, each state listed
    once, or a stack of N such tables, values (N, m, d, d); the arrays are
    read-only, and a writeable input is copied."""

    states: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        states = _read_only(self.states, np.int64)
        values = np.asarray(self.values, dtype=float)
        if values.ndim not in (3, 4) or values.shape[-3] != states.size \
                or values.shape[-2] != values.shape[-1] or values.shape[-1] < 1:
            raise BadValues(f"values have shape {values.shape}, "
                            f"expected ([N,] {states.size}, d, d) with d >= 1")
        if not np.isfinite(values).all():
            raise BadValues("values must be finite")
        order = np.argsort(states)
        keys = states[order]
        if (repeated := keys[1:][keys[1:] == keys[:-1]]).size:
            raise BadValues(f"state {int(repeated[0]):#x} is listed twice")
        values = _sealed((values + values.mT) / 2.0)
        object.__setattr__(self, "_sorted", (keys, order))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_walks", weakref.WeakKeyDictionary())

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def on_walk(self, gen: Generator, key: str, make):
        """make(), computed once per key and walk, kept in a record that
        refers to the walk weakly and so goes with it."""
        record = self._walks.setdefault(gen, {})
        return record[key] if key in record else record.setdefault(key, make())

    def gather(self, states) -> np.ndarray:
        """Value stack aligned to the given state list (per observable of a
        stack), through the states sorted once at construction."""
        states = np.asarray(states, dtype=np.int64)
        keys, order = self._sorted
        pos = np.minimum(np.searchsorted(keys, states), keys.size - 1)
        missing = (keys[pos] != states) if keys.size else np.ones(states.shape, bool)
        if missing.any():
            raise DomainMismatch(
                f"function undefined at state {int(states[missing][0]):#x}")
        return np.take(self.values, order[pos], axis=-3)

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
    """An independent random symmetric value of norm norm_bound * (0.2 + 0.8 u) at each
    state x, from stream (seed, x): the gain word u, then ceil(d^2 / 2) normal words."""
    w = words(seed, [states], [1 + (d * d + 1) // 2])[0]
    g = normal(w[:, 1:])[:, :d * d].reshape(-1, d, d)
    return MatrixFn(states, symmetrized(g, norm_bound * (0.2 + 0.8 * uniform(w[:, 0]))))


def random_linear_matrix_fn(n: int, states, d: int, lipschitz: float,
                            seed: int) -> tuple["MatrixFn", float]:
    """F(x) = sum_i x_i A_i, A_i of norm lipschitz * (0.5 + 0.5 u) from stream (seed, i) as above.

    Returns the function and max_i ||A_i||, its Lipschitz constant in
    Hamming distance (adjacent cube states differ in at most two bits,
    so oscillation over flip-swap pairs is at most twice this).
    """
    states = np.asarray(states, dtype=np.int64)
    w = words(seed, [np.arange(n)], [1 + (d * d + 1) // 2])[0]
    g = normal(w[:, 1:])[:, :d * d].reshape(-1, d, d)
    coeffs = symmetrized(g, lipschitz * (0.5 + 0.5 * uniform(w[:, 0])))
    vals = np.zeros((states.size, d, d))
    for i in range(n):  # each state sums in the order of i; bits @ A may not (1 row is a GEMV)
        vals[(states >> i) & 1 == 1] += coeffs[i]
    return MatrixFn(states, vals), float(spectral_norm(coeffs).max(initial=0.0))


def matrix_mean(weights, values) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    return np.einsum("x,...xij->...ij", weights, np.asarray(values, dtype=float))


def matrix_variance(weights, values) -> np.ndarray:
    """E[(F - E F)^2] under the given weights (exactly 0 for a constant F)."""
    centered = np.asarray(values, dtype=float) - matrix_mean(weights, values)[..., None, :, :]
    return np.einsum("x,...xij,...xjk->...ik", np.asarray(weights, dtype=float),
                     centered, centered)


def dirichlet_form(gen: Generator, values) -> np.ndarray:
    """(1/2) sum_{x,y} pi(x) Q(x,y) (F(x) - F(y))^2 with values[i] = F(gen.states[i]).

    Summed over the walk's cached edges x < y (``Generator.edges``) with the
    flow W_xy + W_yx, W_xy = pi(x) Q(x,y): the E edge differences D_e give
    one GEMM of D as d x (E d) by (W D) as (E d) x d per observable.  D is taken
    in the fresh gather of values[x] and weighted in place after its transpose
    is copied, so at most two E d^2 arrays per observable are live at once.
    """
    values = np.asarray(values, dtype=float)
    x, y = gen.edges
    flow = gen.pi[x] * gen.rates[x, y] + gen.pi[y] * gen.rates[y, x]
    diff = np.take(values, x, axis=-3)  # in C order, as values[..., x, :, :] is not
    np.subtract(diff, np.take(values, y, axis=-3), out=diff)
    lead, d = diff.shape[:-3], values.shape[-1]
    cols = np.array(diff.swapaxes(-3, -2), order="C").reshape(*lead, d, -1)  # a copy at d = 1
    diff *= flow[:, None, None]
    return 0.5 * (cols @ diff.reshape(*lead, -1, d))


def project_fn(dec: Decomposition, fn: MatrixFn) -> MatrixFn:
    """Conditional means of fn per part, indexed by part label."""
    vals = []
    for part, restriction in zip(dec.parts, dec.restrictions):
        vals.append(matrix_mean(restriction.pi, fn.gather(part)))
    return MatrixFn(np.arange(len(dec.parts), dtype=np.int64), np.stack(vals))


class DecompositionResiduals(NamedTuple):
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
    inner = sum(pihat[i] * matrix_variance(dec.restrictions[i].pi,
                                           fn.gather(dec.parts[i]))
                for i in range(len(dec.parts)))
    across = matrix_variance(pihat, fhat.values)
    var_res = float(np.abs(total_var - inner - across).max())

    total_dir = dirichlet_form(gen, vals)
    within_dir = sum(pihat[i] * dirichlet_form(part_walk, fn.gather(part))
                     for i, (part, part_walk) in enumerate(zip(dec.parts, dec.restrictions)))
    side = np.isin(gen.states, dec.parts[1])
    cross = dirichlet_form(Generator(gen.states, gen.rates * (side[:, None] != side),
                                     gen.pi), vals)
    dir_res = float(np.abs(total_dir - within_dir - cross).max())

    scale = max(1.0, spectral_norm(total_var), spectral_norm(total_dir))
    return DecompositionResiduals(var_res, dir_res, scale)


def _symmetrized(gen: Generator) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(pi), -(S + S')/2) with S = D^{1/2} Q D^{-1/2}, D = diag pi.

    Raises Reducible when the rate support graph is disconnected.
    """
    components = component_count(gen.states.size, np.column_stack(gen.edges))
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


class PoincareReport(NamedTuple):
    lambda_claimed: float
    min_eig_slack: float
    scale: float
    tol: float
    passed: bool
    witness: MatrixFn | None


def check_matrix_poincare(gen: Generator, fn: MatrixFn, lam: float,
                          tol: float = 1e-8) -> PoincareReport:
    """Does lambda * Var_pi[F] <= E_Q(F, F) hold in the PSD order (per observable,
    with one lam or one each)?  The witness is fn when any fails."""
    vals = fn.gather(gen.states)
    energy = dirichlet_form(gen, vals)
    var = matrix_variance(gen.pi, vals)
    spread = spectral_norm(var)
    # Var = 0 (one state, or F constant) satisfies the inequality for every
    # lambda, inf included, where lambda * Var would be 0 * inf = NaN: 1 stands in.
    live = np.where(spread > 0.0, lam, 1.0)
    slack = _out(np.linalg.eigvalsh(energy - live[..., None, None] * var).min(axis=-1))
    scale = _out(np.fmax(np.fmax(1.0, spectral_norm(energy)), abs(live) * spread))
    passed = within(-slack, 0.0, tol, scale)
    return PoincareReport(_out(np.asarray(lam, dtype=float)), slack, scale, tol, passed,
                          None if np.all(passed) else fn)


def matrix_fn_from_json(obj: dict) -> MatrixFn:
    d = as_integer(obj["d"], "d")
    if d < 1:
        raise BadValues(f"d must be at least 1, got {d}")
    if not obj["values"]:
        raise BadValues("values must list at least one state")
    mats = {}
    for entry in obj["values"]:
        mask = as_integer(entry["mask"], "mask")
        if mask in mats:
            raise BadValues(f"mask {mask} is listed twice")
        mat = as_matrix(entry["rows"], "value entry")
        if mat.shape != (d, d):
            raise BadValues(f"value at mask {entry['mask']} has shape {mat.shape}")
        if np.isfinite(mat).all():  # a non-finite value is MatrixFn's BadValues
            require_symmetric(mat, f"value at mask {mask}")
        mats[mask] = mat
    return MatrixFn(np.array(list(mats), dtype=np.int64), np.stack(list(mats.values())))
