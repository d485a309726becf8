"""Deterministic replica seeding.

Every experiment derives one independent stream per replica as
Generator(SeedSequence([base_seed, replica_index])). Distinct replicas never
share a stream, and a (seed, replica) pair always reproduces the same draws.
Every sampler draws its update pairs through ``draw_pairs``, the one pair law.
"""

from __future__ import annotations

import numpy as np

__all__ = ["draw_pairs", "replica_rng", "replica_seed_words"]


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(replica)]))


def replica_seed_words(seed: int, replicas: int) -> list:
    """First derived 64-bit word per replica, for run manifests."""
    return [
        int(np.random.SeedSequence([int(seed), b]).generate_state(1, np.uint64)[0])
        for b in range(replicas)
    ]


def draw_pairs(rng: np.random.Generator, T: int, n: int, group=None, gens=None):
    """T uniform update pairs (a, b) with a != b, as two length-T arrays.

    Given a group and its generator set (the simplex chain), a is a uniform
    element g and b = g*r the other end of its Cayley edge for a uniform
    generator r; the g array is drawn first, then the generator array.
    Otherwise (the matrix chain on n rows), a is a uniform row i and b a
    uniform row other than i; the i array is drawn first, then the offset
    array. This call order is part of the frozen per-replica draw order.
    """
    if group is not None:
        g = rng.integers(0, n, T)
        r = np.asarray(gens.elements, dtype=np.int64)[rng.integers(0, gens.m, T)]
        return g, group.mul[g, r]
    i = rng.integers(0, n, T)
    raw = rng.integers(0, n - 1, T)
    return i, raw + (raw >= i)
