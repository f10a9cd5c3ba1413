"""Exact arithmetic over GF(p): dense rank, determinants, seeded sampling.

Everything downstream (Hilbert values, drop verification, the randomized
determinant oracle) reduces to ranks of dense matrices over a prime field.
Matrices are numpy int64 arrays with entries reduced mod p; all intermediate
products stay below p^2 < 2^63, which `check_prime` enforces.  `rank` and
`det` share one elimination kernel.  `json_int` is the integer check that
every JSON parser applies to its numbers.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

DEFAULT_PRIME = 32749
MAX_PRIME = 3037000493  # the largest prime p with p * p < 2^63
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


def check_prime(p):
    """Return p as an int if the int64 kernels are exact mod p, else raise ValueError.

    Products of two residues must stay below 2^63, so p may be at most
    MAX_PRIME.
    """
    p = operator.index(p)
    if p > MAX_PRIME:
        raise ValueError("prime %d too large: the int64 kernels need p <= %d"
                         % (p, MAX_PRIME))
    if not is_prime(p):
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
    square matrix of full rank it is the determinant.
    """
    m, n = a.shape
    r, d = 0, 1
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
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
    return r, d


def rank(mat, p=DEFAULT_PRIME):
    """Rank over GF(p) by Gaussian elimination on a copy.

    A tall matrix is eliminated as its transpose (rank(A) = rank(A^T)), so
    the pivot loop runs over the shorter side.
    """
    p = check_prime(p)
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("rank needs a 2-d matrix")
    if a.size == 0:
        return 0
    if a.shape[0] > a.shape[1]:
        a = a.T
    return _eliminate(np.mod(a, p, order="C"), p)[0]


def det(mat, p=DEFAULT_PRIME):
    """Determinant over GF(p)."""
    p = check_prime(p)
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("det needs a square matrix")
    r, d = _eliminate(a, p)
    return d if r == a.shape[0] else 0


def evaluate_symbolic(m, assignment, p=DEFAULT_PRIME):
    """Evaluate a SymbolicMatrix at a variable assignment over GF(p).

    Entries are None (zero) or (lam, var) meaning lam * value(var).
    """
    out = np.zeros((m.nrows, m.ncols), dtype=np.int64)
    for i, row in enumerate(m.entries):
        for k, cell in enumerate(row):
            if cell is None:
                continue
            lam, var = cell
            if var not in assignment:
                raise KeyError("no value assigned to variable %r" % (var,))
            out[i, k] = lam % p * (assignment[var] % p) % p
    return out
