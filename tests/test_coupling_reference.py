"""Differential gate for the coupling solver: the support-only solver
(measures.feasible_coupling returning a Coupling of (row, col, mass)
triplets) against the dense-table solver it replaced, kept here verbatim
as the reference.  The library solver takes each row's allowed columns as
a list; the reference reads the same pairs as its bool table.  Every solve
must give the same verdict and the same flow, bit for bit, and walks built
on either solver must be identical."""

from dataclasses import dataclass

import numpy as np
import pytest

from srconc import chains, measures
from srconc.measures import COUPLING_TOL

from conftest import (
    K5_EDGES,
    adjacency,
    build_fixture_measures,
    coupling_entries,
    random_projection_kernel,
)
from test_measures import _transport_instance

# ------------------------------------------------ the dense reference solver


@dataclass(frozen=True)
class CouplingTable:
    """Joint table over rows x cols with declared marginals and support.

    mass[i, j] is the coupling weight on (rows[i], cols[j]); support is a
    boolean array of the same shape and all mass outside it is zero.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    support: np.ndarray

    def max_marginal_deviation(self) -> float:
        dr = np.abs(self.mass.sum(axis=1) - self.row_marginal).max(initial=0.0)
        dc = np.abs(self.mass.sum(axis=0) - self.col_marginal).max(initial=0.0)
        return float(max(dr, dc))

    def off_support_mass(self) -> float:
        off = self.mass[~self.support]
        return float(np.abs(off).max(initial=0.0))


def feasible_coupling(row_masks, row_probs, col_masks, col_probs, allowed):
    """Transportation feasibility on an explicit bipartite support.

    Returns (CouplingTable or None, attained flow value).  Feasible means
    max-flow reaches 1 within COUPLING_TOL; the returned table is the
    flow itself, so marginal deviations are at the float-summation level.
    """
    row_masks = np.asarray(row_masks, dtype=np.int64)
    col_masks = np.asarray(col_masks, dtype=np.int64)
    row_probs = np.asarray(row_probs, dtype=float)
    col_probs = np.asarray(col_probs, dtype=float)
    allowed = np.asarray(allowed, dtype=bool)
    mass = _max_flow(row_probs, col_probs, allowed)
    value = float(mass.sum())
    if value < 1.0 - COUPLING_TOL:
        return None, value
    return CouplingTable(row_masks, col_masks, mass, row_probs.copy(),
                         col_probs.copy(), allowed.copy()), value


def _max_flow(supply, demand, allowed) -> np.ndarray:
    """Maximum flow table from row supplies to column demands.

    Allowed pairs are uncapacitated.  A greedy pass ships what it can in
    row-major order; then each round searches breadth-first from every row
    with supply left, along allowed row->col arcs and along col->row arcs
    that carry flow (cancelling it), and augments the first column with
    demand left by the path's bottleneck.  Shortest augmenting paths bound
    the number of rounds whatever the float capacities, and each
    augmentation empties its bottleneck exactly, since x - x == 0 in
    floating point.  The supports are sparse and mostly a few masks wide,
    so plain lists and dicts beat array operations here.
    """
    rows, cols = allowed.shape
    adj = [[] for _ in range(rows)]
    ii, jj = np.nonzero(allowed)
    for i, j in zip(ii.tolist(), jj.tolist()):
        adj[i].append(j)
    left = supply.tolist()
    need = demand.tolist()
    into = [{} for _ in range(cols)]  # into[j][i] = flow on (i, j), kept > 0
    for i in range(rows):
        for j in adj[i]:
            f = min(left[i], need[j])
            if f > 0.0:
                into[j][i] = f
                left[i] -= f
                need[j] -= f
            if left[i] == 0.0:  # f was all of it: no later column gets any
                break

    while True:
        row_from = {i: -1 for i in range(rows) if left[i] > 0.0}  # -1: the source
        col_from = {}
        queue = list(row_from)
        sink = -1
        for i in queue:  # the queue grows while it is walked
            for j in adj[i]:
                if j in col_from:
                    continue
                col_from[j] = i
                if need[j] > 0.0:
                    sink = j
                    break
                for r in into[j]:
                    if r not in row_from:
                        row_from[r] = j
                        queue.append(r)
            if sink >= 0:
                break
        if sink < 0:
            break

        ship, cancel = [], []
        step = need[sink]
        j = sink
        while True:
            src = col_from[j]
            ship.append((src, j))
            j = row_from[src]
            if j < 0:
                step = min(step, left[src])
                break
            cancel.append((src, j))
            step = min(step, into[j][src])
        for r, c in ship:
            into[c][r] = into[c].get(r, 0.0) + step
        for r, c in cancel:
            f = into[c][r] - step
            if f > 0.0:
                into[c][r] = f
            else:
                del into[c][r]
        left[src] -= step
        need[sink] -= step

    flow = np.zeros((rows, cols))
    for j, carried in enumerate(into):
        for i, f in carried.items():
            flow[i, j] = f
    return flow


# ----------------------------------------------------------------- the gate


def dense_table(supply, demand, adj) -> np.ndarray:
    """The rows x cols bool table of the adjacency lists, the reference's input."""
    allowed = np.zeros((len(supply), len(demand)), dtype=bool)
    for i, cols in enumerate(adj):
        allowed[i, cols] = True
    return allowed


def reference_solver(supply, demand, adj):
    """The reference behind feasible_coupling's signature, its table read as triplets."""
    table, value = feasible_coupling(np.arange(len(supply)), supply,
                                     np.arange(len(demand)), demand,
                                     dense_table(supply, demand, adj))
    if table is None:
        return None, value
    row, col = np.nonzero(table.mass)
    return measures.Coupling(row, col, table.mass[row, col]), value


def compared_solve(supply, demand, adj):
    """feasible_coupling's answer, after checking that the flow equals the
    reference's nonzeros bit for bit and that the verdicts agree."""
    allowed = dense_table(supply, demand, adj)
    flow = _max_flow(np.asarray(supply), np.asarray(demand), allowed)
    ii, jj = np.nonzero(flow)
    want = {(i, j): f for i, j, f in zip(ii.tolist(), jj.tolist(), flow[ii, jj].tolist())}
    assert coupling_entries(measures._max_flow(supply, demand, adj)) == want
    kappa, value = measures.feasible_coupling(supply, demand, adj)
    table, ref_value = feasible_coupling(np.arange(len(supply)), supply,
                                         np.arange(len(demand)), demand, allowed)
    assert (kappa is None) == (table is None)
    assert value == pytest.approx(ref_value, rel=0.0, abs=1e-14)
    return kappa, value


FIXTURES = build_fixture_measures()
EXTRA = {
    "trees_k5": lambda: measures.make_spanning_tree_measure(K5_EDGES),
    "uniform_10_5": lambda: measures.make_uniform_k_subsets(10, 5),
    **{f"dpp_7_rank3_seed{seed}":
       (lambda seed=seed: measures.make_projection_dpp(random_projection_kernel(7, 3, seed)))
       for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("name", [*FIXTURES, *EXTRA])
def test_walk_couplings_and_rates_match_the_dense_reference(name, monkeypatch):
    """Every coupling the walk solves matches the reference, and the walk
    built on the reference solver has the same states, rates and pi bytes."""
    m = FIXTURES[name][0] if name in FIXTURES else EXTRA[name]()
    solves = []

    def counted(*args):
        solves.append(1)
        return compared_solve(*args)

    monkeypatch.setattr(chains, "feasible_coupling", counted)
    walk = chains.hermon_salez(m)
    monkeypatch.setattr(chains, "feasible_coupling", reference_solver)
    ref = chains.hermon_salez(m)
    assert solves or m.masks.size == 1
    for field in ("states", "rates", "pi"):
        assert getattr(walk, field).tobytes() == getattr(ref, field).tobytes(), field


@pytest.mark.parametrize("kind", ["feasible", "random", "near"])
def test_transport_instances_match_the_dense_reference(kind):
    rng = np.random.default_rng([7, len(kind)])
    verdicts = set()
    for _ in range(60):
        p, q, allowed = _transport_instance(rng, kind)
        verdicts.add(compared_solve(p, q, adjacency(allowed))[0] is not None)
    assert verdicts == ({True} if kind == "feasible" else {True, False})
