"""Exact arithmetic over GF(p): dense rank, determinants, seeded sampling.

Everything downstream (Hilbert values, drop verification, the randomized
determinant oracle) reduces to ranks of dense matrices over a prime field.
Matrices are numpy int64 arrays, or float64 arrays of integers such as the
residues `apolarity` gathers, which are reduced mod p only if they are not
residues already.  Two kernels eliminate them:

- `_eliminate` eliminates in int64 pivot by pivot, skipping dead columns,
  so its steps follow the rank, not the width.  Every product of two residues
  stays below p^2 < 2^63, so it is exact for every p up to MAX_PRIME,
  which `check_prime` enforces.  `det` and the ranks of matrices
  whose shorter side is at most PANEL rows use it, and it is the oracle the
  tests hold the blocked kernel to.
- `_rank_blocked` eliminates PANEL columns at a time in float64, each
  panel left-looking with two matrix-vector products per column, and
  updates the rest of the matrix with one BLAS matmul per panel (the
  blocked elimination with delayed modular reduction of FFLAS-FFPACK,
  Dumas, Giorgi and Pernet, ACM TOMS 2008).  A float64 dot product of PANEL
  residue products is an exact integer only below 2^53, so `rank` uses it
  for p <= FLOAT_PRIME_LIMIT and a shorter side over PANEL; the rest of the
  matrix is reduced only when its next update could pass 2^53.  A matrix
  with fewer rows is one panel, which blocking would only slow down.
  `rank` hands it the rows in order of their leading (first nonzero)
  column, and a panel is eliminated only over the rows that lead inside or
  left of it: the rest are still zero in every column a pivot has taken so
  far, so they are left alone until their panel.  The G_Q block pattern
  makes the L-matrices and the derivative matrices of boxed generators
  such staircases, and there this skips most of the work.

`json_int` is the integer check that every JSON parser applies to its numbers.
"""

from __future__ import annotations

import hashlib
import operator
from functools import lru_cache
from math import isqrt

import numpy as np

DEFAULT_PRIME = 32749
MAX_PRIME = 3037000493  # the largest prime p with p * p < 2^63
PANEL = 64  # columns per panel of `_rank_blocked`
# The largest p with PANEL * (p - 1)^2 + p < 2^53: a sum of PANEL products of
# residues, plus one residue, is then an exact float64 integer.  With t = p - 1
# this is PANEL*t*t + t <= 2^53 - 2, solved exactly with an integer sqrt.
FLOAT_PRIME_LIMIT = 1 + (isqrt(4 * PANEL * (2 ** 53 - 2) + 1) - 1) // (2 * PANEL)
_CHUNK_ROWS = 128  # rows per trailing-update matmul, which bounds its temporaries
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin; the bases 2..37 make it exact below 3.18e23."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_is_prime_cached = lru_cache(maxsize=64)(is_prime)  # check_prime runs once per rank


def check_prime(p):
    """Return p as an int if the int64 kernels are exact mod p, else raise ValueError.

    Products of two residues must stay below 2^63, so p may be at most
    MAX_PRIME.  The primality verdict is cached per p; a refused p raises
    on every call.
    """
    p = operator.index(p)
    if p > MAX_PRIME:
        raise ValueError("prime %d too large: the int64 kernels need p <= %d"
                         % (p, MAX_PRIME))
    if not _is_prime_cached(p):
        raise ValueError("%d is not prime" % p)
    return p


def json_int(x, what, signed=False):
    """x if it is a JSON integer (not a float or bool) and, unless signed, >= 0."""
    if type(x) is not int or (x < 0 and not signed):
        raise ValueError("%s must be an integer%s, got %r" % (what, "" if signed else " >= 0", x))
    return x


def stream(seed, label):
    """Deterministic PRNG stream for (seed, label).

    PCG64 seeded by SeedSequence(seed, spawn_key=(sha256(label),)); distinct
    labels give independent streams, and the output is stable across
    platforms and numpy versions that keep the PCG64 bit stream.
    """
    h = hashlib.sha256(label.encode("utf-8")).digest()
    key = int.from_bytes(h[:4], "big")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))))


def sample(shape, seed, stream_label, p=DEFAULT_PRIME):
    """Matrix with entries uniform over GF(p), determined by (seed, label)."""
    rng = stream(seed, stream_label)
    return rng.integers(0, p, size=shape, dtype=np.int64)


def _eliminate(a, p):
    """(rank, d) of an int64 matrix reduced mod p, eliminated in place.

    d is the sign of the row swaps times the product of the pivots, so for a
    square matrix of full rank it is the determinant.  The loop advances by
    pivots: a column with no nonzero entry left in the remaining rows stays
    so, and one vectorized scan jumps from such a column to the next live
    one.  That is at most 2 * rank + 1 steps, whatever the width.
    """
    m, n = a.shape
    r, c, d = 0, 0, 1
    while r < m and c < n:
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            live = np.flatnonzero(a[r:, c + 1:].any(axis=0))
            if live.size == 0:
                break
            c += 1 + int(live[0])
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            d = p - d
        d = d * int(a[r, c]) % p
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        below = a[r + 1:, c]
        hot = np.nonzero(below)[0]
        if hot.size:
            a[r + 1 + hot, c:] = (a[r + 1 + hot, c:] - below[hot, None] * a[r, None, c:]) % p
        r += 1
        c += 1
    return r, d


def _reduce(x, p):
    """Reduce a float64 array of integers below 2^53 in magnitude into [0, p), in place.

    Such floats convert to int64 exactly, so the int64 remainder is exact and
    needs no rounding fix-up.
    """
    t = x.astype(np.int64)
    np.remainder(t, p, out=t)
    x[...] = t


def _rank_blocked(a, p, lead):
    """Rank of a float64 matrix of residues mod p <= FLOAT_PRIME_LIMIT, eliminated in place.

    lead[i] is at most the first column where row i is nonzero, and lead
    is nondecreasing (`_staircase` writes the rows so).  Panel [c0, c1)
    works only on the rows [r, act) that are not pivots yet and have
    lead < c1.  A later row is zero left of c1, in every column where a
    pivot has been taken, so eliminating it against those pivots would
    leave it as it is: it is neither read nor written until its panel.

    Each step copies the next PANEL columns of the active rows out as a
    contiguous panel and eliminates it left-looking: a column is brought up
    to date only when it is reached, by two matrix-vector products with the
    multipliers L of the panel's t earlier pivots, y = L11^-1 v[:t] for its
    pivot-row entries and v[t:] - L21 y for the rest.  L is unit lower, so
    L11^-1 grows by the row -l L11^-1 per pivot, l being the new pivot
    row's multipliers.  Row swaps, all among the active rows, move the
    whole row of the panel, of L and of the trailing columns.  The panel's
    t pivot rows give the trailing pivot rows U12 = L11^-1 A12, and the
    other active rows are updated as A22 - L21 U12 by one matmul per chunk
    of rows.

    Every product sums at most PANEL products of residues, so its operands
    are reduced first: the panel when it is copied out, the pivot rows
    before the solve.  The trailing block is not: each update adds at most
    t (p - 1)^2 to a bound on its magnitude, and it is reduced only before
    an update that could take that bound to 2^53, where float64 integers
    stop being exact.  With p = 32749 that never happens; near
    FLOAT_PRIME_LIMIT it happens before every update.  A row that joins
    late still holds its residues, within any such bound.
    """
    m, n = a.shape
    r, bound, step = 0, p - 1, (p - 1) ** 2
    for c0 in range(0, n, PANEL):
        if r == m:
            break
        c1 = min(c0 + PANEL, n)
        r0, act = r, int(np.searchsorted(lead, c1))
        panel = a[r0:act, c0:c1].T.copy()  # one contiguous row per column
        _reduce(panel, p)
        low = np.zeros(panel.shape)  # row t: the multipliers of pivot t
        inv = np.zeros((c1 - c0, c1 - c0))  # L11^-1
        t = 0
        for v in panel:
            if r == act:
                break
            if t:
                y = inv[:t, :t] @ v[:t]
                _reduce(y, p)
                v[t:] -= y @ low[:t, t:]
            w = v[t:].astype(np.int64)  # the column below the pivot rows, reduced
            np.remainder(w, p, out=w)
            nz = w.nonzero()[0]
            if nz.size == 0:
                continue
            if nz[0]:
                s = t + int(nz[0])
                w[[0, s - t]] = w[[s - t, 0]]
                panel[:, [t, s]] = panel[:, [s, t]]
                low[:t, [t, s]] = low[:t, [s, t]]
                a[[r, r0 + s], c1:] = a[[r0 + s, r], c1:]
            mult = w[1:]
            mult *= pow(int(w[0]), -1, p)
            low[t, t + 1:] = np.remainder(mult, p, out=mult)
            row = -(low[:t, t] @ inv[:t, :t])
            _reduce(row, p)
            inv[t, :t] = row
            inv[t, t] = 1
            t += 1
            r += 1
        if t == 0 or c1 == n or r == act:
            continue
        a12 = a[r0:r, c1:]
        _reduce(a12, p)
        u12 = inv[:t, :t] @ a12
        _reduce(u12, p)
        l21 = low[:t, t:].T
        stale = bound + t * step >= 2 ** 53
        bound = (p - 1 if stale else bound) + t * step
        for s in range(r, act, _CHUNK_ROWS):
            e = min(s + _CHUNK_ROWS, act)
            block = a[s:e, c1:]
            if stale:
                _reduce(block, p)
            block -= l21[s - r:e - r] @ u12
    return r


def _fold(x, p):
    """Reduce x, an array of integers, into [0, p) in place, unless it holds residues already."""
    if x.size and (x.min() < 0 or x.max() >= p):
        np.mod(x, p, out=x)


def _staircase(a, p):
    """(b, lead): the rows of a as float64 residues mod p, in order of lead.

    lead is each row's first nonzero column in a as given, sorted stably;
    an entry that is a nonzero multiple of p only makes it smaller, which
    `_rank_blocked` allows.  Rows already in lead order, as in a dense
    matrix, are copied without a gather.  A float64 a is copied whole and
    reduced only if it holds more than residues; an int a is reduced
    _CHUNK_ROWS rows at a time, so the only full-size array made is b.
    """
    lead = np.empty(a.shape[0], dtype=np.int64)
    for s in range(0, a.shape[0], _CHUNK_ROWS):
        lead[s:s + _CHUNK_ROWS] = (a[s:s + _CHUNK_ROWS] != 0).argmax(axis=1)
    ordered = bool((lead[1:] >= lead[:-1]).all())
    order = None if ordered else np.argsort(lead, kind="stable")
    if a.dtype == np.float64:
        b = a.copy(order="C") if ordered else a[order]
        _fold(b, p)
    else:
        b = np.empty(a.shape, dtype=np.float64)
        for s in range(0, a.shape[0], _CHUNK_ROWS):
            rows = slice(s, s + _CHUNK_ROWS) if ordered else order[s:s + _CHUNK_ROWS]
            np.mod(a[rows], p, out=b[s:s + _CHUNK_ROWS])
    return b, lead if ordered else lead[order]


def rank(mat, p=DEFAULT_PRIME):
    """Rank over GF(p) by Gaussian elimination on a copy.

    mat holds integers, as an int array or a float one (below 2^63 in
    magnitude); float64 residues, as `DerivativeTemplate.gather` returns,
    need no mod p pass and no int64 round trip.  A float that is no such
    integer (a fraction, NaN, inf) is refused with a ValueError, not
    truncated.  All-zero rows and columns are dropped first; a derivative
    matrix over a support box can be mostly such lines.  A tall matrix is
    eliminated as its transpose (rank(A) = rank(A^T)), so the rows are the
    shorter side.  That side over PANEL, and p at most FLOAT_PRIME_LIMIT,
    send the copy to the blocked float64 kernel, its rows in order of their
    leading column so that each panel is eliminated only over the rows that
    have started; every other matrix goes to `_eliminate`, whose loop takes
    at most 2 * rank + 1 steps.
    """
    p = check_prime(p)
    a = np.asarray(mat)
    a = a.astype(np.float64 if a.dtype.kind == "f" else np.int64, copy=False)
    if a.ndim != 2:
        raise ValueError("rank needs a 2-d matrix")
    rows, cols = a.any(axis=1), a.any(axis=0)
    if not (rows.all() and cols.all()):
        a = a[np.ix_(rows, cols)]
    if a.size == 0:
        return 0
    if a.dtype == np.float64:
        with np.errstate(invalid="ignore"):  # NaN, inf and |x| >= 2^63 cast to other values
            if not (a.astype(np.int64) == a).all():
                raise ValueError("rank needs integers below 2^63 in magnitude")
    if a.shape[0] > a.shape[1]:
        a = a.T
    if a.shape[0] > PANEL and p <= FLOAT_PRIME_LIMIT:
        b, lead = _staircase(a, p)
        return _rank_blocked(b, p, lead)
    a = a.astype(np.int64, order="C")  # the copy `_eliminate` works in
    _fold(a, p)
    return _eliminate(a, p)[0]


def det(mat, p=DEFAULT_PRIME):
    """Determinant over GF(p)."""
    p = check_prime(p)
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("det needs a square matrix")
    r, d = _eliminate(a, p)
    return d if r == a.shape[0] else 0
