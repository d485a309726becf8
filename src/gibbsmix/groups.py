"""Finite groups as dense multiplication tables, plus symmetric generator sets.

Elements are 0-based indices into an n x n multiplication table. The built-in
families (cyclic, hypercube, dihedral) put the identity at index 0; tables
loaded from files may place it anywhere, and the loader locates it by its row.

Dense tables are capped at order 4096: all experiments in this package are
desk-scale, and a dense int32 table at the cap is ~64 MB.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import (
    ContainsIdentity,
    InvariantViolation,
    NotGenerating,
    NotSymmetric,
    ParseError,
    SizeLimitExceeded,
)

__all__ = [
    "GroupTable",
    "GeneratorSet",
    "build_cyclic",
    "build_hypercube",
    "build_dihedral",
    "load_group",
    "SIZE_CAP",
]

SIZE_CAP = 4096
_ASSOC_EXHAUSTIVE_LIMIT = 64
_ASSOC_SAMPLES = 100_000
_ASSOC_SEED = 0x5EED


@dataclass(eq=False)
class GroupTable:
    """A finite group: order, multiplication table, inverse map, identity."""

    n: int
    mul: np.ndarray          # shape (n, n), int
    inv: np.ndarray          # shape (n,), int
    identity: int

    def __post_init__(self):
        self.mul = np.asarray(self.mul, dtype=np.int32)
        self.inv = np.asarray(self.inv, dtype=np.int32)
        verify_group_axioms(self)


@dataclass(eq=False)
class GeneratorSet:
    """A symmetric generating set (closed under inverse, no identity)."""

    elements: Tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.elements)


def verify_group_axioms(g: GroupTable) -> None:
    """Check table shape, identity, inverses, associativity.

    Associativity is exhaustive for n <= 64 and sampled (seeded, 1e5 triples)
    above that. Raises InvariantViolation naming the broken axiom.
    """
    n = g.n
    if n < 1:
        raise InvariantViolation("order", f"n={n}")
    if n > SIZE_CAP:
        raise SizeLimitExceeded(f"group order {n} exceeds cap {SIZE_CAP}")
    if g.mul.shape != (n, n):
        raise InvariantViolation("table-shape", f"expected ({n},{n}), got {g.mul.shape}")
    if g.mul.min() < 0 or g.mul.max() >= n:
        raise InvariantViolation("closure", "table entry out of range")
    e = g.identity
    rng_n = np.arange(n)
    if not (np.array_equal(g.mul[e], rng_n) and np.array_equal(g.mul[:, e], rng_n)):
        raise InvariantViolation("identity", f"index {e} is not a two-sided identity")
    if g.inv.shape != (n,):
        raise InvariantViolation("inverse-shape", str(g.inv.shape))
    if not (np.all(g.mul[rng_n, g.inv] == e) and np.all(g.mul[g.inv, rng_n] == e)):
        raise InvariantViolation("inverse", "a * inv(a) != identity for some a")
    if n <= _ASSOC_EXHAUSTIVE_LIMIT:
        ab = g.mul                          # (a,b)
        left = g.mul[ab, :]                 # (a,b,c) -> (ab)c
        right = g.mul[:, g.mul]             # (a,b,c) -> a(bc)
        if not np.array_equal(left, right):
            raise InvariantViolation("associativity", "exhaustive check failed")
    else:
        rng = np.random.default_rng(_ASSOC_SEED)
        a = rng.integers(0, n, _ASSOC_SAMPLES)
        b = rng.integers(0, n, _ASSOC_SAMPLES)
        c = rng.integers(0, n, _ASSOC_SAMPLES)
        if not np.array_equal(g.mul[g.mul[a, b], c], g.mul[a, g.mul[b, c]]):
            raise InvariantViolation("associativity", "sampled check failed")


def verify_generator_set(g: GroupTable, gens: Sequence[int]) -> GeneratorSet:
    """Validate symmetry, identity exclusion and generation; return the set."""
    elems = tuple(sorted(set(int(x) for x in gens)))
    if len(elems) == 0:
        raise NotGenerating("empty generator set")
    # sorted: the generators are in range if the first and the last are
    if elems[0] < 0 or elems[-1] >= g.n:
        r = elems[0] if elems[0] < 0 else elems[bisect_left(elems, g.n)]
        raise InvariantViolation("generator-range", f"generator {r} out of range")
    if g.identity in elems:
        raise ContainsIdentity(f"identity {g.identity} in generator set")
    gens_index = np.array(elems)
    lacking = np.flatnonzero(~np.isin(g.inv[gens_index], gens_index))
    if lacking.size:
        r = elems[lacking[0]]
        raise NotSymmetric(f"generator {r} lacks its inverse {int(g.inv[r])}")
    # generation == connectivity of the Cayley graph; BFS from identity, one
    # gather of every frontier element times every generator per step
    seen = np.zeros(g.n, dtype=bool)
    seen[g.identity] = True
    frontier = np.array([g.identity])
    while frontier.size:
        reached = g.mul[frontier[:, None], gens_index].ravel()
        reached = reached[~seen[reached]]
        seen[reached] = True
        frontier = np.unique(reached)
    if not seen.all():
        raise NotGenerating(f"generators reach only {int(seen.sum())} of {g.n} elements")
    return GeneratorSet(elements=elems)


def build_cyclic(n: int, gens: Iterable[int]) -> Tuple[GroupTable, GeneratorSet]:
    """Z_n with addition mod n and the given residues as generators (n >= 3)."""
    if n < 3:
        raise InvariantViolation("order", f"cyclic group needs n >= 3, got {n}")
    if n > SIZE_CAP:
        raise SizeLimitExceeded(f"n={n} exceeds cap {SIZE_CAP}")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    inv = (-idx) % n
    g = GroupTable(n=n, mul=mul, inv=inv, identity=0)
    gs = verify_generator_set(g, [x % n for x in gens])
    return g, gs


def build_hypercube(k: int) -> Tuple[GroupTable, GeneratorSet]:
    """Z_2^k under XOR with the k standard basis vectors as generators."""
    if not 1 <= k <= 12:
        raise SizeLimitExceeded(f"hypercube dimension {k} outside [1, 12]")
    n = 1 << k
    idx = np.arange(n)
    mul = idx[:, None] ^ idx[None, :]
    g = GroupTable(n=n, mul=mul, inv=idx.copy(), identity=0)
    gs = verify_generator_set(g, [1 << i for i in range(k)])
    return g, gs


def build_dihedral(k: int) -> Tuple[GroupTable, GeneratorSet]:
    """Dihedral group of order 2k; generators: rotation, its inverse, one flip.

    Element i + k*f encodes rot^i * flip^f. For k >= 3 the group is
    non-abelian; flip * rot = rot^{-1} * flip.
    """
    if k < 3:
        raise InvariantViolation("order", f"dihedral needs k >= 3, got {k}")
    n = 2 * k
    if n > SIZE_CAP:
        raise SizeLimitExceeded(f"order {n} exceeds cap {SIZE_CAP}")
    i = np.arange(n) % k
    f = np.arange(n) // k
    mul = np.empty((n, n), dtype=np.int32)
    j = i[None, :]
    gflag = f[None, :]
    rot = np.where(f[:, None] == 0, (i[:, None] + j) % k, (i[:, None] - j) % k)
    mul[:, :] = rot + k * ((f[:, None] + gflag) % 2)
    inv = np.where(f == 0, (-i) % k, i) + k * f
    g = GroupTable(n=n, mul=mul, inv=inv, identity=0)
    gs = verify_generator_set(g, [1, k - 1, k])
    return g, gs


def load_group(path: str) -> Tuple[GroupTable, GeneratorSet]:
    """Read a group file.

    Format: first line n; then n whitespace-separated rows of the
    multiplication table; final line the generator indices. The identity is
    the index whose table row reads 0..n-1. A file that cannot be opened or
    is not UTF-8 is a ``ParseError`` that names the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read group file {path!r}: {reason}") from exc
    if not lines:
        raise ParseError("empty group file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"first line is not an integer: {lines[0]!r}") from exc
    if n < 1:
        raise ParseError(f"declared order {n} < 1")
    if n > SIZE_CAP:
        raise SizeLimitExceeded(f"declared order {n} exceeds cap {SIZE_CAP}")
    if len(lines) != n + 2:
        raise ParseError(f"expected {n + 2} lines (n, {n} rows, generators), got {len(lines)}")
    rows = []
    for ln in lines[1 : n + 1]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ParseError(f"non-integer table entry in row: {ln!r}") from exc
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}")
        rows.append(row)
    mul = np.array(rows, dtype=np.int32)
    if mul.min() < 0 or mul.max() >= n:
        raise ParseError("table entry out of range")
    try:
        gens = [int(tok) for tok in lines[n + 1].split()]
    except ValueError as exc:
        raise ParseError(f"bad generator line: {lines[n + 1]!r}") from exc
    # the identity is the first row that reads 0..n-1, and a's inverse the
    # one b with ab = e, where ba = e too
    every = np.arange(n)
    ids = np.flatnonzero((mul == every).all(axis=1))
    if not ids.size:
        raise InvariantViolation("identity", "no row equals 0..n-1")
    e = int(ids[0])
    eq = mul == e
    inv = eq.argmax(axis=1)
    lacking = np.flatnonzero((eq.sum(axis=1) != 1) | (mul[inv, every] != e))
    if lacking.size:
        raise InvariantViolation("inverse", f"element {lacking[0]} lacks a two-sided inverse")
    g = GroupTable(n=n, mul=mul, inv=inv, identity=e)
    gs = verify_generator_set(g, gens)
    return g, gs
