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

import numpy as np

TOPSET_GUARD = 1 << 20
MAX_WEIGHT = 10  # largest weight in random_order_preserving


class TopsetGuardExceeded(Exception):
    """Topset enumeration would exceed the size guard."""


class FinitePoset:
    """A finite poset given by its elements and a domination predicate."""

    def __init__(self, elements, dominates_fn):
        self.elements = list(elements)
        self._dominates = dominates_fn
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        # dominators[i] = indexes j != i with elements[j] >= elements[i]
        self.dominators = [
            [j for j in range(n) if j != i
             and dominates_fn(self.elements[j], self.elements[i])]
            for i in range(n)
        ]
        self.dominated = [
            [j for j in range(n) if j != i
             and dominates_fn(self.elements[i], self.elements[j])]
            for i in range(n)
        ]
        self._topsets = None

    def __len__(self):
        return len(self.elements)

    def index(self, e):
        return self._index[e]

    def dominates(self, a, b):
        if a not in self._index or b not in self._index:
            raise ValueError("element outside the poset")
        return self._dominates(a, b)

    def _topset_masks(self):
        """All upward-closed subsets as bitmasks, in a deterministic order.

        Elements are processed dominators-first; an element may join only
        when all its dominators are already in.
        """
        if self._topsets is not None:
            return self._topsets
        n = len(self.elements)
        # Linear extension with dominators first.
        order = sorted(range(n),
                       key=lambda i: (-len(self.dominated[i]), self.elements[i]))
        dom_masks = []
        for i in order:
            m = 0
            for j in self.dominators[i]:
                m |= 1 << j
            dom_masks.append(m)
        out = []
        stack = [(0, 0)]
        while stack:
            pos, mask = stack.pop()
            if pos == n:
                out.append(mask)
                if len(out) > TOPSET_GUARD:
                    raise TopsetGuardExceeded(
                        "more than %d topsets" % TOPSET_GUARD)
                continue
            i = order[pos]
            stack.append((pos + 1, mask))
            if mask & dom_masks[pos] == dom_masks[pos]:
                stack.append((pos + 1, mask | (1 << i)))
        out.sort()
        self._topsets = out
        return out


class GQPoset(FinitePoset):
    """G_Q for a bound tuple Q."""

    def __init__(self, q):
        self.q = tuple(q)
        elements = [tuple(t) for t in
                    itertools.product(*(range(b + 1) for b in self.q))]
        super().__init__(elements, dominates)

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
    full = (1 << len(poset)) - 1
    return [ElementSet(poset.elements[i] for i in range(len(poset)) if mask >> i & 1)
            for mask in poset._topset_masks() if mask not in (0, full)]


@dataclass(frozen=True)
class OrderPreservingFn:
    """A map element -> rational value, monotone for the domination order."""

    values: dict

    def __post_init__(self):
        object.__setattr__(self, "values",
                           {k: Fraction(v) for k, v in self.values.items()})

    def validated(self, poset):
        for i, e in enumerate(poset.elements):
            for j in poset.dominators[i]:
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
    return _check(poset, phi, lambda s, size: s >= 0)


def check_tap(poset, phi):
    """Is every nonempty topset's average at least the global average?"""
    phi.validated(poset)
    mean = phi.total(poset) / len(poset)
    return _check(poset, phi, lambda s, size: size == 0 or s >= mean * size)


def _check(poset, phi, ok):
    vals = [phi.values[e] for e in poset.elements]
    for mask in poset._topset_masks():
        size = 0
        s = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            s += vals[i]
            size += 1
            m &= m - 1
        if not ok(s, size):
            return CheckResult(False, ElementSet(poset.elements[i] for i in range(len(poset))
                                                 if mask >> i & 1))
    return CheckResult(True, None)


def topset_matrix(poset):
    """Boolean topset/element incidence matrix for bulk TPP checking."""
    masks = poset._topset_masks()
    n = len(poset)
    out = np.zeros((len(masks), n), dtype=np.int64)
    for t, mask in enumerate(masks):
        for i in range(n):
            if mask >> i & 1:
                out[t, i] = 1
    return out


def random_order_preserving(poset, rng):
    """A random integer-valued order-preserving function with nonnegative total.

    Built as phi(I) = sum of weights in [0, MAX_WEIGHT] over elements I
    dominates (inclusive), minus a constant capped so the total stays
    nonnegative, while typically leaving some negative values.
    """
    n = len(poset)
    w = rng.integers(0, MAX_WEIGHT + 1, size=n)
    raw = []
    for i in range(n):
        s = int(w[i]) + sum(int(w[j]) for j in poset.dominated[i])
        raw.append(s)
    shift = int(rng.integers(0, sum(raw) // n + 1)) if n else 0
    return OrderPreservingFn({poset.elements[i]: raw[i] - shift for i in range(n)})
