"""Constrained multi-index enumeration and closed-form counts.

A multi-index is a tuple of non-negative integer exponents.  A constraint
Q = (Q_1, ..., Q_n) with n <= r bounds the first n exponents; M_Q(d) denotes
the set of multi-indexes of dimension r and degree d with I_i <= Q_i for
i <= n, and m_Q(d) its cardinality.  `count_constrained` counts every shape
by a series without enumerating it; `closed_form_count` gives the paper's
closed forms for several constraint shapes and reports applicability instead
of silently falling back.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import comb, prod


def effective_bounds(bounds, j=None, d=None):
    """Bounds that actually constrain: drops entries equal to j.

    A bound Q_i = j never excludes a monomial of degree <= j, so the counting
    formulas treat that coordinate as unconstrained.  The normalization is
    only sound at degrees d <= j, so it is skipped when d exceeds j.
    """
    if j is None or (d is not None and d > j):
        return tuple(bounds)
    return tuple(q for q in bounds if q != j)


def enumerate_constrained(r, d, bounds=()):
    """All multi-indexes of dimension r, degree d with I_i <= bounds[i].

    Coordinates beyond len(bounds) are unconstrained.  The list is in strictly
    descending lexicographic order (the order used for matrix row and column
    indexing throughout).  Results are cached; each call gets a fresh list.
    """
    # plain-int keys, so numpy integers share entries and never leak into results
    idx = operator.index
    return list(_enumerate_cached(idx(r), idx(d), tuple(map(idx, bounds))))


@lru_cache(maxsize=256)
def _enumerate_cached(r, d, bounds):
    if len(bounds) > r:
        raise ValueError("more bounds than coordinates")
    if d < 0 or r == 0:
        return ((),) if (r == 0 and d == 0) else ()
    caps = [bounds[i] if i < len(bounds) else d for i in range(r)]
    # Suffix capacity: the largest degree positions i..r-1 can absorb.
    tail_cap = [0] * (r + 1)
    for i in range(r - 1, -1, -1):
        tail_cap[i] = tail_cap[i + 1] + caps[i]
    if d > tail_cap[0]:
        return ()

    def fill(cur, start, rem):
        # Greedily maximize entries from position `start` on.
        for i in range(start, r):
            take = min(caps[i], rem)
            cur[i] = take
            rem -= take

    cur = [0] * r
    fill(cur, 0, d)
    out = [tuple(cur)]
    while True:
        # Find the rightmost position (before the last) whose entry can be
        # decremented while the tail still absorbs the remainder.
        k = r - 2
        suffix = cur[r - 1]
        while k >= 0:
            suffix += cur[k]
            if cur[k] > 0 and suffix - (cur[k] - 1) <= tail_cap[k + 1]:
                break
            k -= 1
        if k < 0:
            return tuple(out)
        cur[k] -= 1
        fill(cur, k + 1, suffix - cur[k])
        out.append(tuple(cur))


def closed_form_count(r, d, bounds=(), j=None):
    """Closed-form m_Q(d), or None when no formula covers the input.

    The applicable formula depends on the effective constraint count n
    (bounds equal to j are discarded first; bound order never matters):

    * n = 0: the plain monomial count C(d+r-1, r-1).
    * n = r: 0 once d exceeds q = sum of bounds.
    * n = r-1: product of (Q_i + 1) for d >= q.
    * n = r-2: P_n(2d - S_n + r)/2 for d >= q, where S_n / P_n are the sum
      and product of the a_i = Q_i + 1.  For r <= 4 the same formula holds
      at d = q-1, with a +1 correction at exactly d = q-2, and below every
      bound the count is the plain binomial.
    * n = r-3, d >= q: quadratic forms for r = 4 and r = 5; beyond, the sum
      over t <= q of C(d-t+2, 2) times m_Q(t) in the n bounded coordinates.
    """
    eff = effective_bounds(bounds, j, d)
    n = len(eff)
    if d < 0:
        return 0
    if n == 0:
        return count_constrained(r, d)
    a = [q + 1 for q in eff]
    q = sum(eff)
    if n == r:
        return 0 if d > q else None
    if n == r - 1:
        return prod(a) if d >= q else None
    if n == r - 2:
        num = prod(a) * (2 * d - sum(a) + r)
        assert num % 2 == 0  # S_n - r odd makes some a_i, so P_n, even
        count = num // 2
        if d >= q or (r <= 4 and d == q - 1):
            return count
        if r <= 4 and d == q - 2:
            return count + 1
        if r <= 4 and d < min(a):
            return comb(d + r - 1, r - 1)
        return None
    if n == r - 3 and d >= q:
        if r == 4:
            a1 = a[0]
            # a1 * [3d^2 + 3(4-a1)d + a1^2 - 6a1 + 11] / 6
            num = a1 * (3 * d * d + 3 * (4 - a1) * d + a1 * a1 - 6 * a1 + 11)
            assert num % 6 == 0
            return num // 6
        if r == 5:
            a1, a2 = a
            c0 = 2 * (a1 * a1 + a2 * a2) - 15 * (a1 + a2) + 3 * a1 * a2 + 35
            num = a1 * a2 * (6 * d * d + 6 * (5 - a1 - a2) * d + c0)
            assert num % 12 == 0
            return num // 12
        return sum(count_constrained(n, t, eff) * comb(d - t + 2, 2) for t in range(q + 1))
    return None


def count_constrained(r, d, bounds=()):
    """m_Q(d) = #M_Q(d), by series.

    m_Q(d) is the coefficient of x^d in prod_i (1 - x^(Q_i+1)) / (1 - x)^r.
    The numerator is expanded one bound at a time as a sparse map from
    exponent to coefficient, cut at d, so nothing is enumerated and the work
    grows with the number of distinct exponents below d, not with m_Q(d).
    """
    if len(bounds) > r:
        raise ValueError("more bounds than coordinates")
    if d < 0 or r == 0:  # comb would raise: M_Q(d) is empty, or {()} at d = 0
        return int(d == 0)
    num = {0: 1}
    for q in bounds:
        step = q + 1
        for e, c in list(num.items()):
            if e + step <= d:
                num[e + step] = num.get(e + step, 0) - c
    return sum(c * comb(d - e + r - 1, r - 1) for e, c in num.items())
