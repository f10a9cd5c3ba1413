"""The poset G_Q of bounded exponent tuples, topsets, and the TPP/TAP checks.

G_Q consists of all tuples I with 0 <= I_i <= Q_i, ordered by the reversed
componentwise order: I dominates J iff I_i <= J_i for every i.  Under this
order (0,...,0) is the unique maximum and Q the unique minimum.  A topset is
an upward-closed subset, a bottomset a downward-closed one.

TPP (topset positivity): an order-preserving function with nonnegative total
sum has nonnegative sum on every topset.  TAP (topset averaging): every
nonempty topset's average is at least the global average.  Both hold on every
G_Q; the checks are exhaustive over the enumerated topsets and report a
violating witness when one exists (which requires a poset that is not a
product of chains, e.g. an antichain).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

import numpy as np

TOPSET_GUARD = 1 << 20
MAX_WEIGHT = 10  # largest weight in random_order_preserving
_CHECK_CELLS = 1 << 20  # topset matrix cells per product in _check


class TopsetGuardExceeded(Exception):
    """G_Q or its topset enumeration would exceed the size guard."""


class FinitePoset:
    """A finite poset given by its elements and each element's upper covers.

    covers[i] holds the indexes of the elements that cover elements[i] from
    above, all smaller than i: the element list is a linear extension with
    dominators first.
    """

    def __init__(self, elements, covers):
        self.elements = list(elements)
        self.covers = list(covers)
        self._topsets = None

    def __len__(self):
        return len(self.elements)

    def _topset_masks(self):
        """All upward-closed subsets as sorted bitmasks, bit i for elements[i].

        Elements join in list order, each once all its upper covers are in.
        The guard bounds the cells of topset_matrix, counting at least 64 per
        mask.  A poset of n elements has at least n + 1 topsets, the prefixes
        of its element list, so a long one is refused before enumerating.
        """
        if self._topsets is not None:
            return self._topsets
        n = len(self.elements)
        limit = 64 * TOPSET_GUARD // max(n, 64)
        guard = TopsetGuardExceeded("more than %d topsets of %d elements" % (limit, n))
        if n + 1 > limit:
            raise guard
        cover_masks = [sum(1 << j for j in c) for c in self.covers]
        out = []
        stack = [(0, 0)]
        while stack:
            pos, mask = stack.pop()
            if pos == n:
                out.append(mask)
                if len(out) > limit:
                    raise guard
                continue
            stack.append((pos + 1, mask))
            if mask & cover_masks[pos] == cover_masks[pos]:
                stack.append((pos + 1, mask | (1 << pos)))
        out.sort()
        self._topsets = out
        return out


class GQPoset(FinitePoset):
    """G_Q for a bound tuple Q, its elements in ascending lexicographic order."""

    def __init__(self, q):
        self.q = tuple(q)
        size = prod(b + 1 for b in self.q)
        if size > TOPSET_GUARD:
            raise TopsetGuardExceeded("G_Q has %d elements, more than %d"
                                      % (size, TOPSET_GUARD))
        elements = list(itertools.product(*(range(b + 1) for b in self.q)))
        # I - e_k, the upper cover of I along coordinate k, sits one stride earlier
        strides = [prod(b + 1 for b in self.q[k + 1:]) for k in range(len(self.q))]
        super().__init__(elements, [[i - s for s, x in zip(strides, e) if x]
                                    for i, e in enumerate(elements)])

    @property
    def top(self):
        return tuple(0 for _ in self.q)

    @property
    def bottom(self):
        return self.q


def dominates(i, j):
    """I dominates J iff I_k <= J_k for every coordinate."""
    if len(i) != len(j):
        raise ValueError("dimension mismatch")
    return all(x <= y for x, y in zip(i, j))


@dataclass(frozen=True)
class ElementSet:
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))

    def to_json(self):
        return sorted(list(m) for m in self.members)


def enumerate_topsets(poset):
    """All upward-closed subsets except the empty and the full set."""
    return [_members(poset, row) for row in topset_matrix(poset)[1:-1]]


def _members(poset, row):
    return ElementSet(itertools.compress(poset.elements, row.tolist()))


@dataclass(frozen=True)
class OrderPreservingFn:
    """A map element -> rational value, monotone for the domination order."""

    values: dict

    def __post_init__(self):
        object.__setattr__(self, "values",
                           {k: Fraction(v) for k, v in self.values.items()})

    def validated(self, poset):
        """Check monotonicity on the upper covers, enough by transitivity."""
        for e, covers in zip(poset.elements, poset.covers):
            for j in covers:
                if self.values[poset.elements[j]] < self.values[e]:
                    raise ValueError(
                        "not order-preserving at %r >= %r"
                        % (poset.elements[j], e))
        return self

    def __call__(self, e):
        return self.values[e]

    def total(self, poset):
        return sum(self.values[e] for e in poset.elements)

    def shifted(self, poset):
        """phi minus the global average (used for the TAP/TPP equivalence)."""
        mean = self.total(poset) / len(poset)
        return OrderPreservingFn({k: v - mean for k, v in self.values.items()})


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: ElementSet | None = None


def check_tpp(poset, phi):
    """Does every topset have a nonnegative phi-sum?

    Requires phi order-preserving with nonnegative total over the poset.
    Returns a violating topset as witness on failure.
    """
    phi.validated(poset)
    if phi.total(poset) < 0:
        raise ValueError("TPP requires a nonnegative total sum")
    return _check(poset, phi, lambda s, size, total, n: s >= 0)


def check_tap(poset, phi):
    """Is every nonempty topset's average at least the global average?"""
    phi.validated(poset)
    return _check(poset, phi, lambda s, size, total, n: n * s >= total * size)


def _check(poset, phi, ok):
    """Test ok(s, size, total, n) on every topset; the first failure in mask order is the witness.

    phi is scaled by the lcm of its denominators to integers w, so each
    topset's scaled sum s is an exact integer product of its row of the
    topset matrix with w; total is the sum of w and n the number of
    elements.  The products are in int64 when n times the sum of |w| fits,
    else in Python integers, and take _CHECK_CELLS matrix cells at a time.
    """
    values = [phi.values[e] for e in poset.elements]
    scale = lcm(*(v.denominator for v in values))
    w = [v.numerator * (scale // v.denominator) for v in values]
    n, total = len(w), sum(w)
    exact = np.int64 if n * sum(map(abs, w)) < 2 ** 63 else object
    w = np.array(w, dtype=exact)
    tops = topset_matrix(poset)
    step = max(1, _CHECK_CELLS // n)
    for lo in range(0, len(tops), step):
        rows = tops[lo:lo + step].astype(exact)
        bad = np.flatnonzero(~ok(rows @ w, rows.sum(axis=1), total, n))
        if bad.size:
            return CheckResult(False, _members(poset, tops[lo + bad[0]]))
    return CheckResult(True, None)


def topset_matrix(poset):
    """Boolean topset/element incidence matrix, one row per topset.

    Rows follow the sorted bitmasks, so the empty set comes first and the
    full set last.
    """
    masks = poset._topset_masks()
    width = (len(poset) + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks),
                           dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=len(poset), bitorder="little").view(bool)


def random_order_preserving(poset, rng):
    """A random integer-valued order-preserving function on G_Q with nonnegative total.

    Built as phi(I) = sum of weights in [0, MAX_WEIGHT] over elements I
    dominates (inclusive), minus a constant capped so the total stays
    nonnegative, while typically leaving some negative values.
    """
    n = len(poset)
    w = rng.integers(0, MAX_WEIGHT + 1, size=n).reshape([b + 1 for b in poset.q])
    for axis in range(w.ndim):  # suffix sums over J >= I in every coordinate
        w = np.flip(np.flip(w, axis).cumsum(axis), axis)
    raw = w.ravel().tolist()
    shift = int(rng.integers(0, sum(raw) // n + 1))
    return OrderPreservingFn({e: x - shift for e, x in zip(poset.elements, raw)})
