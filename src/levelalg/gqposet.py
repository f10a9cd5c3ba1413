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
product of chains, e.g. an antichain).  A function on a poset is the
sequence of its rational values (ints or Fractions) in element order, and a
check's answer is a row of topset_matrix, the witness, or -1 when it passes.

The topsets of a poset are generated once, as one boolean matrix with a
row per topset in bitmask order (topset_matrix).  Everything else reads
that matrix: enumerate_topsets lists members straight off its rows, and
first_negative_topset answers the one question behind TPP, TAP and
lmatrix.gq3_criterion: for each integer weight column, which topset comes
first in mask order with a negative sum, if any.  TAP is TPP of the
shifted function times n, and the criterion is TPP of the block excesses.
random_trials checks both properties of many random functions at once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod

import numpy as np

TOPSET_GUARD = 1 << 20
TRIAL_BUDGET = 1 << 28  # random_trials: trials times topset-matrix cells, counted as the guard counts them
MAX_WEIGHT = 10  # largest weight in random_order_preserving
_CHECK_CELLS = 1 << 20  # matrix and product cells per chunk of first_negative_topset
_TRIAL_GROUP = 64  # functions per first_negative_topset call of random_trials
MAX_LISTED = 1 << 24  # members over all the lists of enumerate_topsets


class TopsetGuardExceeded(Exception):
    """G_Q or its topset enumeration would exceed the size guard."""


class FinitePoset:
    """A finite poset given by its elements and each element's upper covers.

    covers[i] holds the indexes, all smaller than i, of the elements that cover
    elements[i] from above, and possibly of more or all of its dominators: the
    element list is a linear extension with dominators first.  The topset
    matrix is generated on first use (topset_matrix) and kept.
    """

    def __init__(self, elements, covers):
        self.elements = list(elements)
        self.covers = list(covers)
        self._topsets = None

    def __len__(self):
        return len(self.elements)


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


def dominates(i, j):
    """I dominates J iff I_k <= J_k for every coordinate."""
    if len(i) != len(j):
        raise ValueError("dimension mismatch")
    return all(x <= y for x, y in zip(i, j))


def enumerate_topsets(poset):
    """The members of every upward-closed subset except the empty and the full set.

    One list per topset, in mask order, read straight off topset_matrix.
    Each member is its element tuple as a list, built once per element and
    shared between topsets; members are listed in element order.  Refused
    when the lists would hold more than MAX_LISTED members, before any is
    built.
    """
    rows = topset_matrix(poset)[1:-1]
    listed = int(np.count_nonzero(rows))
    if listed > MAX_LISTED:
        raise TopsetGuardExceeded("%d topsets list %d members, more than %d"
                                  % (len(rows), listed, MAX_LISTED))
    which, cols = np.nonzero(rows)
    labels = [list(e) for e in poset.elements]
    members = list(map(labels.__getitem__, cols.tolist()))
    ends = np.searchsorted(which, np.arange(1, len(rows) + 1)).tolist()
    return [members[lo:hi] for lo, hi in zip([0] + ends, ends)]


def is_order_preserving(poset, values):
    """Are values, one per element in element order, monotone for the domination order?

    Checked on the upper covers, enough by transitivity.
    """
    return all(values[j] >= v for v, cov in zip(values, poset.covers) for j in cov)


def check_tpp(poset, values):
    """The first topset_matrix row with a negative sum of values, or -1.

    values are an order-preserving function's, in element order, with a
    nonnegative total; a ValueError otherwise.
    """
    w = _integer_weights(poset, values)
    if w.sum() < 0:
        raise ValueError("TPP requires a nonnegative total sum")
    return int(first_negative_topset(poset, w)[0])


def check_tap(poset, values):
    """The first topset_matrix row whose average of values is below the mean, or -1.

    With w the values scaled to integers, total its sum and n the number of
    elements, a topset T passes iff n * w(T) - total * |T| >= 0: TAP of the
    function is TPP of n * w - total.  A ValueError unless order-preserving.
    """
    w = _integer_weights(poset, values)
    return int(first_negative_topset(poset, len(w) * w - w.sum())[0])


def _integer_weights(poset, values):
    """Order-preserving values scaled by the lcm of their denominators, as an
    n x 1 column of Python integers."""
    values = [Fraction(v) for v in values]
    if len(values) != len(poset) or not is_order_preserving(poset, values):
        raise ValueError("not an order-preserving function on the poset")
    scale = lcm(*(v.denominator for v in values))
    return np.array([v.numerator * (scale // v.denominator) for v in values],
                    dtype=object).reshape(-1, 1)


def topset(poset, row):
    """The members of row `row` of topset_matrix, in element order."""
    return list(itertools.compress(poset.elements, topset_matrix(poset)[row].tolist()))


def first_negative_topset(poset, w):
    """Per weight column, the first row of topset_matrix with a negative sum, else -1.

    w is an n x k array of integers, row i weighting elements[i].  The sums
    are exact: the matrix is multiplied by the columns still open, in chunks
    of _CHECK_CELLS cells of matrix and product together, in float64 when
    n * max|w| is below 2**53 (so every partial sum is an integer below
    2**53, in any order of addition), else in Python integers.  The open
    columns are sliced out again only after a chunk closes one.  An int64 or
    object array is read as it is; other input is taken as Python integers.
    """
    if not (isinstance(w, np.ndarray) and w.dtype in (np.int64, object)):
        w = np.array(w, dtype=object)
    bound = len(w) * max(int(w.max(initial=0)), -int(w.min(initial=0)))
    exact = np.float64 if bound < 2 ** 53 else object
    w = w.astype(exact)
    tops = topset_matrix(poset)
    first = np.full(w.shape[1], -1)
    cols = np.arange(w.shape[1])
    step = max(1, _CHECK_CELLS // (w.shape[0] + w.shape[1]))
    for lo in range(0, len(tops), step):
        if not cols.size:
            break
        neg = tops[lo:lo + step].astype(exact) @ w < 0
        hit = neg.any(axis=0)
        if hit.any():
            first[cols[hit]] = lo + neg.argmax(axis=0)[hit]
            cols, w = cols[~hit], w[:, ~hit]
    return first


def topset_matrix(poset):
    """Boolean topset/element incidence matrix, one row per topset, read-only.

    Rows are in the order of their bitmasks, bit i for elements[i], so the
    empty set comes first and the full set last.  Generated on the first
    call and kept on the poset.

    Elements join in list order: at elements[pos], each row built so far
    whose covers[pos] columns are all set gets a copy with column pos set,
    so the rows are exactly the sets holding the upper covers of each
    member.  A row's highest set column is the step that made it.  So only
    rows made since the step of the last cover can hold every cover, and
    appending keeps the rows in mask order: each new row is an old one plus
    a bit above all of theirs.

    The rows live in a bool buffer whose capacity doubles; the kept matrix
    is an exact-size copy.  TopsetGuardExceeded when the rows times
    max(64, elements) would pass 64 * TOPSET_GUARD cells: growth that would
    pass that many rows is refused, so the capacity never exceeds it.  A
    poset of n elements has at least n + 1 topsets, the prefixes of its
    element list, so a long one is refused up front.
    """
    if poset._topsets is not None:
        return poset._topsets
    n = len(poset.elements)
    limit = 64 * TOPSET_GUARD // max(n, 64)
    guard = TopsetGuardExceeded("more than %d topsets of %d elements" % (limit, n))
    if n + 1 > limit:
        raise guard
    buf = np.zeros((min(64, limit), n), dtype=bool)
    count, starts = 1, []
    for pos, cov in enumerate(poset.covers):
        starts.append(count)
        rows = buf[starts[max(cov)] if cov else 0:count]
        new = rows[rows[:, list(cov)].all(axis=1)]
        end = count + len(new)
        if end > limit:
            raise guard
        if end > len(buf):
            grown = np.empty((min(max(2 * len(buf), end), limit), n), dtype=bool)
            grown[:count] = buf[:count]
            buf = grown
        buf[count:end] = new
        buf[count:end, pos] = True
        count = end
    tops = buf if count == len(buf) else buf[:count].copy()
    tops.flags.writeable = False
    poset._topsets = tops
    return tops


def random_order_preserving(poset, rng):
    """A random order-preserving function on G_Q with nonnegative total, as int64 values.

    Built as phi(I) = sum of weights in [0, MAX_WEIGHT] over elements I
    dominates (inclusive), minus a constant capped so the total stays
    nonnegative, while typically leaving some negative values.
    """
    n = len(poset)
    w = np.flip(rng.integers(0, MAX_WEIGHT + 1, size=n).reshape([b + 1 for b in poset.q]))
    for axis in range(w.ndim):  # suffix sums over J >= I in every coordinate
        w = w.cumsum(axis)
    w = np.flip(w).ravel()
    return w - int(rng.integers(0, int(w.sum()) // n + 1))


def random_trials(poset, rng, trials, budget=True):
    """The TPP and TAP failures of `trials` random_order_preserving draws from rng.

    A list of (trial, check, row) in trial order, check 0 (TPP) before 1
    (TAP): row is the first_negative_topset row of the function w, or of
    its TAP weights n * w - total.  The functions are drawn and checked
    _TRIAL_GROUP at a time, as the columns of [W | n * W - totals], so
    memory grows with the failures, not with trials.  Each trial is a pass
    over the topset matrix, counted as its guard counts it.  With budget,
    trials times that count over TRIAL_BUDGET is refused with a ValueError
    before anything is drawn; the selftest's fixed suites go without, as
    100 trials over G_(3,3,3) count 1.5e9 cells.
    """
    n = len(poset)
    cells = len(topset_matrix(poset)) * max(n, 64) if budget else 0
    if trials * cells > TRIAL_BUDGET:
        raise ValueError("%d trials of %d topset-matrix cells pass the budget of %d cells"
                         % (trials, cells, TRIAL_BUDGET))
    failed = []
    for lo in range(0, trials, _TRIAL_GROUP):
        w = np.empty((n, min(_TRIAL_GROUP, trials - lo)), dtype=np.int64)
        for col in w.T:
            col[:] = random_order_preserving(poset, rng)
        rows = first_negative_topset(poset, np.hstack([w, n * w - w.sum(axis=0)])).reshape(2, -1).T
        t, k = np.nonzero(rows >= 0)
        failed += zip((lo + t).tolist(), k.tolist(), rows[t, k].tolist())
    return failed
