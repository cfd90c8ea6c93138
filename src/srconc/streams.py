"""Counter-based random streams: Philox4x64-10 over uint64 arrays, bit for bit
numpy's Philox(key=[k0, k1]).random_raw(), whose block b is words 4b to 4b + 3.
A word depends on its key and position only, so a batch of streams advances at
once, in any chunks, and no numpy generator is built (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).  inputs.as_seed reads the
seed, and CHUNK_BYTES bounds the state of one sampler chunk, dump chunk or suite stack."""

from __future__ import annotations

import numpy as np

from .inputs import as_seed

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1
CHUNK_BYTES = 8 << 20  # the working state of one chunk, so memory does not grow with count
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # Philox4x64 round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # and key increments


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product a * b."""
    a_lo, a_hi = np.uint64(a & MASK32), np.uint64(a >> 32)
    b_lo, b_hi = b & MASK32, b >> 32
    lo_hi, hi_lo = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo >> 32) + (lo_hi & MASK32) + (hi_lo & MASK32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32), np.uint64(a) * b


def philox(seed: int, index: np.ndarray, block) -> np.ndarray:
    """Block `block` (4 words) of the Philox4x64-10 stream keyed (seed, i)
    for every i in index, shape (len(index), 4): the words 4*block to
    4*block + 3 that numpy's Philox(key=[seed, i]).random_raw() returns."""
    k1 = np.asarray(index, dtype=np.uint64)
    c0 = np.broadcast_to(np.asarray(block, dtype=np.uint64) + np.uint64(1), k1.shape)
    c1 = c2 = c3 = np.zeros(k1.shape, dtype=np.uint64)
    k0 = as_seed(seed, "seed")
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0 = (k0 + _PHILOX_W[0]) & MASK64
                k1 = k1 + np.uint64(_PHILOX_W[1])
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1)


def lemire(x: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generator.integers(n)'s draw from uint32 values x: (value, accepted);
    a rejected x is followed by the stream's next uint32."""
    m = x * n
    return m >> 32, (m & MASK32) >= (np.uint64(1 << 32) - n) % n


def words(seed: int, keys, counts) -> list[np.ndarray]:
    """Per array ks of keys and count c, the first c words of stream (seed, k) for each
    k in ks, (len(ks), c), in one pass; ks may be empty."""
    keys, blocks = [np.asarray(ks, dtype=np.uint64) for ks in keys], [-(-c // 4) for c in counts]
    raw = philox(seed, np.concatenate([np.repeat(ks, b) for ks, b in zip(keys, blocks)]),
                 np.concatenate([np.tile(np.arange(b), ks.size) for ks, b in zip(keys, blocks)]))
    parts = np.split(raw, np.cumsum([ks.size * b for ks, b in zip(keys, blocks)])[:-1])
    return [p.reshape(ks.size, 4 * b)[:, :c] for p, ks, b, c in zip(parts, keys, blocks, counts)]


def uniform(w: np.ndarray) -> np.ndarray:
    """The top 53 bits of each word as a float in [0, 1), as Generator.random() reads it."""
    return (w >> 11) * 2.0**-53


def simplex(w: np.ndarray) -> np.ndarray:
    """Dirichlet(1, ..., 1) weights from the words of each row: exponentials over their sum."""
    e = -np.log1p(-uniform(w))
    return e / e.sum(axis=-1, keepdims=True)


def normal(w: np.ndarray) -> np.ndarray:
    """Two standard normals from each word, by the Box-Muller transform of its
    two 32-bit halves: along the last axis, the words' cosines, then their sines."""
    radius = np.sqrt(-2.0 * np.log(((w >> 32) + 1) * 2.0**-32))
    angle = (w & MASK32) * (2.0 * np.pi * 2.0**-32)
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
