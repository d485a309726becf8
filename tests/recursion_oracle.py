"""The S recursion one row and one entry at a time: the reference that the
array terms of ``kernels.s_recursion_terms`` and their two readers,
``kernels.comparison_kernel`` and ``simplex.s_recursion_targets``, reproduce
bit for bit. Each row's terms are Python lists of (coef, ws), added on Python
floats in list order."""

from functools import reduce
from operator import add

import numpy as np


def s_recursion_rows(group, gens):
    """For each row h in order, the list of (coef, ws) with E[S'[h]] = sum of
    coef * (s[ws[0]] + s[ws[1]] + ...), h's own term (coef, (h,)) first."""
    n, m, e = group.n, gens.m, group.identity
    mul, inv = group.mul.tolist(), group.inv.tolist()
    gset = set(gens.elements)
    four = 1.0 / (2 * m * n)
    for h in range(n):
        if h == e:
            yield [(1.0 - 2.0 / (3 * n), (e,)), (4.0 / (3 * m * n), tuple(gens.elements))]
            continue
        hi = inv[h]
        if h in gset:
            terms = [(1.0 - 2.0 / n + 2.0 / (3 * m * n), (h,)), (2.0 / (3 * m * n), (e,))]
            if hi != h:
                terms.append((2.0 / (m * n), (mul[h][h],)))
            skip = (h, hi)
        else:
            terms = [(1.0 - 2.0 / n, (h,))]
            skip = ()
        for r in gens.elements:
            if r not in skip:
                ri = inv[r]
                terms.append((four, (mul[r][h], mul[r][hi], mul[ri][h], mul[ri][hi])))
        yield terms


def comparison_matrix(group, gens):
    """The comparison kernel's matrix: row h holds its own coefficient on the
    diagonal and every other coefficient times c[w] / c[h] (c = 2 at the
    identity, 1 elsewhere), split half onto w and half onto w^{-1}."""
    n, e = group.n, group.identity
    inv = group.inv.tolist()
    c = [1.0] * n
    c[e] = 2.0
    p = np.zeros((n, n))
    for h, ((own, _), *rest) in enumerate(s_recursion_rows(group, gens)):
        row = [0.0] * n
        row[h] += own
        for coef, ws in rest:
            for w in ws:
                x = coef * c[w] / c[h]
                wi = inv[w]
                if w == wi:
                    row[w] += x
                else:
                    row[w] += 0.5 * x
                    row[wi] += 0.5 * x
        p[h] = row
    return p


def recursion_targets(s, group, gens):
    """The rows' terms applied to s, each term's entries summed left to right
    from its first."""
    s = np.asarray(s, dtype=float).tolist()
    return np.array([
        reduce(add, [coef * reduce(add, [s[w] for w in ws]) for coef, ws in terms])
        for terms in s_recursion_rows(group, gens)
    ])
