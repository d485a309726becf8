"""Deterministic replica seeding.

Every experiment derives one independent stream per replica as
Generator(SeedSequence([base_seed, replica_index])). Distinct replicas never
share a stream, and a (seed, replica) pair always reproduces the same draws.
Every sampler draws its update pairs through ``draw_pairs``, the one pair law,
and every lockstep experiment its moves through ``draw_moves``, the one move
law: the pair arrays, then the lambda array.
"""

from __future__ import annotations

import numpy as np

__all__ = ["draw_moves", "draw_pairs", "empty_moves", "replica_rng", "replica_seed_words"]


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(replica)]))


def replica_seed_words(seed: int, replicas: int) -> list:
    """First derived 64-bit word per replica, for run manifests."""
    return [
        int(np.random.SeedSequence([int(seed), b]).generate_state(1, np.uint64)[0])
        for b in range(replicas)
    ]


def draw_pairs(rng: np.random.Generator, T: int, n: int, group=None, gens=None,
               head=None):
    """T uniform update pairs (a, b) with a != b, as two length-T arrays.

    Given a group and its generator set (the simplex chain), a is a uniform
    element g and b = g*r the other end of its Cayley edge for a uniform
    generator r; the g array is drawn first, then the generator array.
    Otherwise (the matrix chain on n rows), a is a uniform row i and b a
    uniform row other than i; the i array is drawn first, then the offset
    array. This call order is part of the frozen per-replica draw order.

    With ``head=h`` (0 <= h <= T) only the first h pairs are returned: the
    first array is still drawn at length T, the second at length h, and the
    h pairs equal the first h of the full draw. The generator then ends in a
    different state than after the full draw, so ``head`` is only for a
    stream from which nothing is drawn after the pair arrays.
    """
    if head is None:
        head = T
    if group is not None:
        g = rng.integers(0, n, T)[:head]
        r = np.asarray(gens.elements, dtype=np.int64)[rng.integers(0, gens.m, head)]
        return g, group.mul[g, r]
    i = rng.integers(0, n, T)[:head]
    raw = rng.integers(0, n - 1, head)
    return i, raw + (raw >= i)


def draw_moves(rng: np.random.Generator, T: int, n: int, group=None, gens=None):
    """T moves (a, b, lam): the pair arrays of ``draw_pairs``, then the
    length-T lambda array ``rng.random(T)``."""
    a, b = draw_pairs(rng, T, n, group, gens)
    return a, b, rng.random(T)


def empty_moves(B: int, T: int, n: int):
    """Uninitialised (B, T) store (a, b, lam) for B replicas' moves, the
    coordinates in the narrowest unsigned dtype that holds n - 1 (one byte
    per coordinate up to n = 256)."""
    a = np.empty((B, T), dtype=np.min_scalar_type(n - 1))
    return a, np.empty_like(a), np.empty((B, T))
