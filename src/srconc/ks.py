"""The crossover table of `compare-ks`: the strongly Rayleigh (SR) tail
against the Kyng-Song sparsification tail at t = eps mu, unit Lipschitz.

`ks_crossover` evaluates the comparison k + eps mu sqrt(k) <= mu log k +
eps mu and both exponents at one (k, mu, eps); `ks_crossover_threshold` is
the smallest mu where it holds, in closed form.  The module needs only
the standard library, so `compare-ks` loads neither the walk layers nor
numpy; the Kyng-Song tail itself, `ks_bound`, stays in `concentration`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .inputs import at_least, in_range


class KsCrossover(NamedTuple):
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
    k = at_least(k, "k", 2)
    mu, eps, c = in_range(mu, "mu"), in_range(eps, "eps"), in_range(c, "c")
    lhs = k + eps * mu * math.sqrt(k)
    rhs = mu * math.log(k) + eps * mu
    t = eps * mu
    exp_sr = t * t / (32.0 * (k + t * math.sqrt(k)))
    exp_ks = c * eps * eps * mu / (math.log(k) + eps)
    margin = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
    return KsCrossover(k, mu, eps, lhs, rhs, lhs <= rhs, margin, abs(margin) <= 0.1,
                       exp_sr, exp_ks, "sr" if exp_sr >= exp_ks else "ks")


def ks_crossover_threshold(k: int, eps: float) -> float:
    """Smallest mu with k + eps mu sqrt(k) <= mu log k + eps mu.

    The comparison is affine in mu, so the threshold is k / slope with
    slope = log k + eps - eps sqrt(k), and infinite when slope <= 0.
    """
    k, eps = at_least(k, "k", 2), in_range(eps, "eps")
    slope = math.log(k) + eps - eps * math.sqrt(k)
    return k / slope if slope > 0.0 else float("inf")
