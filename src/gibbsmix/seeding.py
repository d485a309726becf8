"""Deterministic replica seeding.

Every experiment derives one independent stream per replica as
Generator(SeedSequence([base_seed, replica_index])). Distinct replicas never
share a stream, and a (seed, replica) pair always reproduces the same draws.
Every sampler draws its update pairs through ``draw_pairs``, the one pair law,
and its moves by the one move law of ``draw_moves``: the pair arrays, then
the lambda array. ``predraw`` draws the moves of the lockstep experiments and
of both coupling phases: the pairs into a (B, T) store, once
``check_draw_memory`` has found room for it, and the lambdas as a
``LambdaStream``, which draws them one chunk of the level-tile grid at a
time, as the level tiles reach it, from its own copy of each generator:
``predraw`` leaves each generator where ``draw_moves`` does, however far the
stream is read. ``skip_draws`` moves a PCG64 stream past draws that are
never read.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import pairops
from .errors import ConfigError, InvariantViolation

__all__ = [
    "LambdaStream", "available_memory", "check_draw_memory", "draw_moves", "draw_pairs",
    "empty_pairs", "predraw", "replica_rng", "replica_seed_words", "skip_draws",
]


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(replica)]))


def replica_seed_words(seed: int, replicas: int) -> list:
    """First derived 64-bit word per replica, for run manifests."""
    return [
        int(np.random.SeedSequence([int(seed), b]).generate_state(1, np.uint64)[0])
        for b in range(replicas)
    ]


def skip_draws(rng: np.random.Generator, count: int, bits: int = 64) -> None:
    """Move ``rng``'s PCG64 stream past ``count`` draws without generating
    them, as if they had been drawn: 64-bit outputs (one per double of
    ``random`` or ``uniform``; a negative count moves the stream back), or
    with ``bits=32`` 32-bit outputs (one per value of ``integers`` below a
    power-of-two bound; count >= 0).

    PCG64 keeps the upper half of a 64-bit output for the next 32-bit draw
    (``has_uint32``, ``uinteger``), and ``advance`` clears it, so it is put
    back as the draws would leave it. 64-bit draws do not touch it. 32-bit
    draws use a kept half first, then take one 64-bit output per two; the
    last of those is drawn here, and its upper half is left kept if their
    number is odd, used (but still ``uinteger``) if even.
    """
    if not count:
        return
    bg = rng.bit_generator
    state = bg.state
    has, half = state["has_uint32"], state["uinteger"]
    if bits == 64:
        bg.advance(count % 2**128)
    else:
        if has:
            count, has = count - 1, 0
        bg.advance(max(count - 1, 0) // 2)
        if count:
            half, has = int(bg.random_raw()) >> 32, count % 2
    if has or half:
        state = bg.state
        state["has_uint32"], state["uinteger"] = has, half
        bg.state = state


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
    stream passes all T values of the first array, the second is drawn at
    length h, and the h pairs equal the first h of the full draw. For n a
    power of two, ``integers(0, n)`` takes exactly one 32-bit output per
    value (no rejections: 2**32 mod n is 0), so the T - h unread values are
    skipped (``skip_draws``) instead of drawn; for any other n the first
    array is drawn at length T. The generator then ends in a different state than after the
    full draw, so ``head`` is only for a stream from which nothing is drawn
    after the pair arrays.
    """
    if head is None:
        head = T
    if head < T and n > 1 and n & (n - 1) == 0:
        a = rng.integers(0, n, head)
        skip_draws(rng, T - head, bits=32)
    else:
        a = rng.integers(0, n, T)[:head]
    if group is not None:
        r = np.asarray(gens.elements, dtype=np.int64)[rng.integers(0, gens.m, head)]
        return a, group.mul[a, r]
    raw = rng.integers(0, n - 1, head)
    return a, raw + (raw >= a)


def draw_moves(rng: np.random.Generator, T: int, n: int, group=None, gens=None):
    """T moves (a, b, lam): the pair arrays of ``draw_pairs``, then the
    length-T lambda array ``rng.random(T)``."""
    a, b = draw_pairs(rng, T, n, group, gens)
    return a, b, rng.random(T)


def predraw(chain, rngs, T: int, what: str, before: int = 0, then=None):
    """The draws of a lockstep experiment ``what`` over T steps of ``chain``,
    one replica per generator of ``rngs``: replica r draws ``before``
    stationary rows (one ``chain.stationary`` call, which leaves the stream
    of as many single draws, and none for ``before = 0``), then its T moves
    (``draw_moves``), from rngs[r]. Returns (rows, (a, b, lam)): rows[k, r]
    the k-th stationary row of replica r, (a, b) the (B, T) pair store and
    lam the ``LambdaStream`` of the lambda arrays; each generator then
    stands after its lambdas.
    ``check_draw_memory`` first compares the bytes of the store, of the
    stream's buffer and of the levelling of one tile with the memory
    available: the buffer is one (B, _LEVEL_TILE) chunk of the level-tile
    grid, since the stream draws nothing past the chunk its tile is in, and
    every store is levelled, one tile of at most a chunk at a time
    (``pairops._level_step_bytes``). ``then = (T', what')`` names a later
    predraw on the same generators, the coupled runner's phase 2 (its only
    caller): that store, buffer and levelling, and the runner's (B, T')
    bool barrier flags, one byte a step, are checked here too, before
    anything is drawn."""
    n, B = chain.n, len(rngs)
    pair_bytes = 2 * np.min_scalar_type(n - 1).itemsize
    for steps, about, flag in [(T, what, 0)] + ([] if then is None else [(*then, 1)]):
        width = min(steps, pairops._LEVEL_TILE)
        check_draw_memory(
            B * (steps * (pair_bytes + flag) + width * (8 + pairops._level_step_bytes(n, width))),
            f"{about} over {B} replicas and {steps} steps")
    rows = np.empty((before, B, n))
    a, b = empty_pairs(B, T, n)
    for r, rng in enumerate(rngs):
        if before:
            rows[:, r] = chain.stationary(rng, before)
        a[r], b[r] = draw_pairs(rng, T, n, chain.group, chain.gens)
    return rows, (a, b, LambdaStream(rngs, T))


class _Unseeded(ISeedSequence):
    """A seed of zero words, for a generator whose state is set at once: a
    ``SeedSequence`` would hash its entropy for nothing."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype)


class LambdaStream:
    """The length-T lambda arrays of ``draw_moves``, one per generator of
    ``rngs``, as a tile source for ``pairops.pair_levels``: stream(s0, s1)
    returns the (B, s1 - s0) lambdas of steps [s0, s1) of every replica, row
    b from rngs[b], as a view of one reused buffer that the next call may
    overwrite.

    The stream draws from its own copy of each generator, taken where that
    replica's lambdas start, and moves the generator itself past its T
    lambdas at once (``skip_draws``), as ``rng.random(T)`` would: what is
    drawn from rngs after the stream is made follows the lambdas, however
    far the stream is read.

    Tiles must come in time order, from step 0 on, and none may cross a
    multiple of ``pairops._LEVEL_TILE``, read when the stream is called:
    the grid cuts the steps into chunks. The first tile of a chunk draws
    the whole chunk (at most to T), with one ``random`` call per replica,
    so the chunk's tiles share a call and nothing is drawn past it.
    Consecutive ``random`` calls on a generator give the bits of one call,
    so the lambdas are the bits of ``rng.random(T)``.
    """

    def __init__(self, rngs, T: int):
        self.T = T
        seed, self._rngs = _Unseeded(), []
        for rng in rngs:
            copy = np.random.PCG64(seed)
            copy.state = rng.bit_generator.state
            self._rngs.append(np.random.Generator(copy))
            skip_draws(rng, T)
        # steps drawn and served; the buffer is made by the first tile that
        # draws (the first chunk's, the widest)
        self._drawn = self._served = 0
        self._buf, self._rows = np.empty((len(rngs), 0)), []

    def __call__(self, s0: int, s1: int) -> np.ndarray:
        grid = pairops._LEVEL_TILE
        at = s0 % grid
        if s0 != self._served or not s0 <= s1 <= min(self.T, s0 - at + grid):
            raise InvariantViolation(
                "draw-order", f"lambda tile [{s0}, {s1}) after {self._served} of {self.T} steps"
            )
        self._served = s1
        if s1 > self._drawn:
            # a tile past the steps drawn starts its chunk and draws it whole
            width = min(self.T - s0, grid)
            if not self._rows:
                self._buf = np.empty((len(self._rngs), width))
                self._rows = list(self._buf)
            for rng, row in zip(self._rngs, self._rows):
                rng.random(width, out=row[:width])
            self._drawn = s0 + width
        return self._buf[:, at:at + s1 - s0]


def empty_pairs(B: int, T: int, n: int):
    """Uninitialised (B, T) pair arrays (a, b) for B replicas' moves, in the
    narrowest unsigned dtype that holds n - 1 (one byte per coordinate up to
    n = 256)."""
    a = np.empty((B, T), dtype=np.min_scalar_type(n - 1))
    return a, np.empty_like(a)


def available_memory() -> Optional[int]:
    """The kernel's estimate of the memory available to a new allocation
    (MemAvailable in /proc/meminfo), in bytes; None where it is not
    reported."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def check_draw_memory(nbytes: int, what: str) -> None:
    """Raise ConfigError if ``what`` would hold more than the available
    memory at once: arrays that large would be granted and then, as they
    fill, get the process killed, with no failed manifest. Nothing is
    checked where the available memory is not reported."""
    available = available_memory()
    if available is not None and nbytes > available:
        raise ConfigError(
            f"{what} would hold {nbytes:,} bytes at once, more than the "
            f"{available:,} bytes of memory available"
        )
