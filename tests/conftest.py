import tracemalloc
import zlib

import numpy as np
import pytest

from srconc import chains, matrix_core, measures

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def name_seed(name: str) -> int:
    """Stable small seed for a fixture name (hash() is per-process)."""
    return zlib.crc32(name.encode()) % 2**16


def random_symmetric(rng: np.random.Generator, d: int, norm_bound: float):
    """A GOE-style random symmetric d x d matrix from rng's standard normals,
    rescaled to spectral norm norm_bound * U(0.2, 1): the tests' own inputs,
    drawn from a numpy Generator the test seeds."""
    g = rng.standard_normal((d, d))
    return matrix_core.symmetrized(g, norm_bound * rng.uniform(0.2, 1.0))


def peak_traced_bytes(fn):
    """(the peak bytes tracemalloc traces while fn() runs, fn's result)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


K3_EDGES = [(0, 1), (1, 2), (0, 2)]
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
K5_EDGES = [(a, b) for a in range(5) for b in range(a + 1, 5)]
WHEEL4_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]


def dense_measure(n: int, probs) -> measures.SubsetMeasure:
    """The measure whose mass on mask b is probs[b], from a table of all
    2**n masses; zero entries are left out of the support."""
    probs = np.asarray(probs, dtype=float)
    assert probs.shape == (1 << n,), probs.shape
    masks = np.flatnonzero(probs)
    return measures.SubsetMeasure(n, masks, probs[masks])


def covers(x, y):
    """Elementwise: x == y or x equals y with exactly one extra bit set.

    Broadcasts, so covers(rows[:, None], cols[None, :]) is the whole
    covering table of two mask lists: the reference the walk's listed
    covering pairs are checked against.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    return ((x | y) == x) & (measures.popcount(x ^ y) <= 1)


def adjacency(allowed) -> list:
    """A rows x cols bool table as the solver's adjacency lists: row i's
    allowed columns, ascending."""
    return [np.flatnonzero(row).tolist() for row in np.asarray(allowed, dtype=bool)]


def reference_component_count(vertices: int, edges) -> int:
    """Connected components by a union-find with path halving, one edge at a
    time: the reference the array routine measures.component_count is
    checked against."""
    parent = list(range(vertices))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    count = vertices
    for u, v in edges:
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def is_spanning_tree(edge_mask: int, edges, vertices: int) -> bool:
    """True iff the selected edges form a spanning tree on all vertices,
    decided by the union-find reference, not by the library's own routine."""
    chosen = [e for i, e in enumerate(edges) if (edge_mask >> i) & 1]
    return len(chosen) == vertices - 1 and reference_component_count(vertices, chosen) == 1


def coupling_entries(kappa: measures.Coupling) -> dict:
    """{(row, col): mass} of a coupling's support; each pair is listed once."""
    entries = {(i, j): f for i, j, f in zip(kappa.row.tolist(), kappa.col.tolist(),
                                            kappa.mass.tolist())}
    assert len(entries) == kappa.mass.size
    return entries


def marginal_deviation(kappa: measures.Coupling, supply, demand) -> float:
    """Largest gap between a coupling's row and column sums and its marginals."""
    supply, demand = np.asarray(supply), np.asarray(demand)
    rows = np.bincount(kappa.row, kappa.mass, minlength=supply.size)
    cols = np.bincount(kappa.col, kappa.mass, minlength=demand.size)
    return float(max(np.abs(rows - supply).max(initial=0.0),
                     np.abs(cols - demand).max(initial=0.0)))


def flip_swap_walk(gen: chains.Generator) -> chains.Generator:
    """A reversible generator on gen's states, uniform pi, whose edges are
    all the flip-swap pairs of the state masks."""
    rates = chains.flip_swap_adjacent(gen.states[:, None], gen.states[None, :]).astype(float)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return chains.Generator(gen.states, rates, np.full(gen.states.size, 1.0 / gen.states.size),
                            n=gen.n)


def flip_swap_oscillation(states, fn) -> float:
    """max ||F(x) - F(y)||_2 over the flip-swap pairs of the state masks,
    the exact norm of every pair."""
    hit = chains.flip_swap_adjacent(states[:, None], states[None, :])
    vals = fn.gather(states)
    i, j = np.nonzero(np.triu(hit, 1))
    return float(np.linalg.norm(vals[i] - vals[j], 2, axis=(1, 2)).max(initial=0.0))


def random_projection_kernel(n: int, rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    return q @ q.T


def build_fixture_measures() -> dict:
    """The SR fixture families the acceptance criteria quantify over.

    Keys map to (measure, k) with k the homogeneity degree used in the
    1/(2k) gap bound; non-homogeneous entries carry k = n/2.
    """
    out = {}
    for n, k in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (6, 1), (5, 3)]:
        out[f"uniform_{n}_{k}"] = (measures.make_uniform_k_subsets(n, k), float(k))
    out["trees_k3"] = (measures.make_spanning_tree_measure(K3_EDGES), 2.0)
    out["trees_k4"] = (measures.make_spanning_tree_measure(K4_EDGES), 3.0)
    out["trees_c5"] = (measures.make_spanning_tree_measure(C5_EDGES), 4.0)
    for n, seed in [(4, 11), (5, 12), (6, 13)]:
        kern = random_projection_kernel(n, 2, seed)
        out[f"dpp_{n}"] = (measures.make_projection_dpp(kern), 2.0)
    out["cube_2"] = (measures.make_bernoulli_product([0.5, 0.5]), 1.0)
    out["bern_4"] = (measures.make_bernoulli_product([0.3, 0.6, 0.8, 0.5]), 2.0)
    return out


@pytest.fixture(scope="session")
def fixture_measures():
    return build_fixture_measures()


@pytest.fixture(scope="session")
def fixture_walks(fixture_measures):
    """Normalized hermon_salez walks, built once per session."""
    return {name: chains.hermon_salez(m)
            for name, (m, _) in fixture_measures.items()}
