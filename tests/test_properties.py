"""Property tests for the support-indexed measure storage.

Hypothesis draws the inputs from a fixed seed (derandomize=True), so every
run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srconc import measures
from srconc.measures import (
    MeasureError,
    SubsetMeasure,
    ZeroMassEvent,
    condition,
    halves,
    measure_from_json,
    validate,
)

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


def dense_condition(probs, n, coords, bits):
    """Conditional table by filtering all 2**n masks and repacking the
    surviving coordinates (the dense-table formula), or None on zero mass.
    No event at all returns the table as it is."""
    if not coords:
        return probs.copy()
    masks = np.arange(1 << n, dtype=np.int64)
    sel = sum(1 << c for c in coords)
    want = sum(1 << c for c, b in zip(coords, bits) if b)
    keep = (masks & sel) == want
    slice_probs = probs[keep]
    total = float(slice_probs.sum())
    if total <= 0.0:
        return None
    rest = [c for c in range(n) if c not in coords]
    packed = np.zeros(int(keep.sum()), dtype=np.int64)
    for j, c in enumerate(rest):
        packed |= ((masks[keep] >> c) & 1) << j
    out = np.zeros(1 << len(rest))
    out[packed] = slice_probs / total
    return out


@st.composite
def dense_measures(draw, max_n=8):
    """(n, dense table): nonnegative masses, many of them zero."""
    n = draw(st.integers(1, max_n))
    mass = st.one_of(st.just(0.0), st.floats(1e-12, 1.0))
    probs = np.array(draw(st.lists(mass, min_size=1 << n, max_size=1 << n)))
    return n, probs


@st.composite
def events(draw, n):
    coords = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    bits = draw(st.lists(st.integers(0, 1), min_size=len(coords), max_size=len(coords)))
    return coords, bits


@PROPERTY
@given(st.data())
def test_condition_matches_dense_table(data):
    n, probs = data.draw(dense_measures())
    coords, bits = data.draw(events(n))
    m = SubsetMeasure(n, probs)
    expected = dense_condition(probs, n, coords, bits)
    if expected is None:
        with pytest.raises(ZeroMassEvent):
            condition(m, coords, bits)
        return
    c = condition(m, coords, bits)
    assert c.n == n - len(coords)
    assert np.array_equal(c.support(), np.flatnonzero(expected > 0.0))
    assert np.allclose(c.masses, expected[c.masks], rtol=1e-15, atol=0.0)


@PROPERTY
@given(st.data())
def test_halves_condition_in_any_order(data):
    """Fixing an event's coordinates one at a time through halves, in any
    order, gives condition(m, event) bit for bit; the walk's memo relies
    on it to share one node per event."""
    n, probs = data.draw(dense_measures(max_n=6))
    coords, bits = data.draw(events(n))
    order = data.draw(st.permutations(range(len(coords))))
    m = SubsetMeasure(n, probs)
    try:
        expected = condition(m, coords, bits)
    except ZeroMassEvent:
        expected = None
    rest, cond, fixed = m, m, []
    for i in order:
        c = coords[i] - sum(f < coords[i] for f in fixed)
        side = halves(rest, c)[bits[i]]
        if side is None:
            assert expected is None
            return
        cond, rest = side
        fixed.append(coords[i])
        # the restriction keeps m's own masses on the masks that agree so far
        assert np.array_equal(rest.masses, m.masses[agrees(m, coords, bits, fixed)])
    if expected is not None:
        assert cond.n == expected.n
        assert np.array_equal(cond.masks, expected.masks)
        assert np.array_equal(cond.masses, expected.masses)


def agrees(m, coords, bits, fixed):
    """Which of m's support masks agree with the event on the fixed coordinates."""
    keep = np.ones(m.masks.size, dtype=bool)
    for c, b in zip(coords, bits):
        if c in fixed:
            keep &= ((m.masks >> c) & 1) == b
    return keep


@PROPERTY
@given(dense_measures(max_n=6))
def test_dense_view_round_trips(measure):
    n, probs = measure
    m = SubsetMeasure(n, probs)
    assert np.array_equal(m.probs, probs)
    assert np.array_equal(m.masks, np.flatnonzero(probs))
    assert all(m.mass(mask) == probs[mask] for mask in range(1 << n))


@PROPERTY
@given(st.data())
def test_validate_rejects_non_finite_mass(data):
    n = data.draw(st.integers(0, 6))
    probs = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1 << n,
                                        max_size=1 << n)))
    bad = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, unique=True))
    for mask in bad:
        probs[mask] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(MeasureError):
        validate(SubsetMeasure(n, probs))
    entries = [{"mask": mask, "p": float(p)} for mask, p in enumerate(probs)]
    with pytest.raises(MeasureError):
        measure_from_json({"n": n, "entries": entries})
