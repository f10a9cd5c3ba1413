"""Exact linear algebra over GF(p) and the labeled PRNG streams."""

import time
from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelalg import apolarity, exactalg, families, lmatrix
from levelalg.gqposet import GQPoset
from levelalg.lmatrix import GQBlockStructure, SymbolicMatrix

# The largest prime the float64 kernel takes, and the first it refuses.
LAST_FLOAT_PRIME = 11863279
FIRST_INT64_PRIME = 11863289
BLOCKED_PRIMES = [2, 3, 97, exactalg.DEFAULT_PRIME, LAST_FLOAT_PRIME, FIRST_INT64_PRIME]


def rational_rank(mat):
    """Row-echelon rank over the rationals (oracle for small matrices)."""
    rows = [[Fraction(int(x)) for x in row] for row in mat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k][col]:
                f = rows[k][col] / rows[rank][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[rank])]
        rank += 1
        col += 1
    return rank


def permanent_style_det(mat, p):
    """Determinant by the Leibniz sum (oracle for n <= 5)."""
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if perm[a] > perm[b])
        term = (-1) ** inv
        for k in range(n):
            term *= int(mat[k][perm[k]])
        total += term
    return total % p


def oracle_rank(mat, p):
    """Rank of mat mod p by the int64 kernel, on a reduced copy."""
    return exactalg._eliminate(np.mod(np.asarray(mat, dtype=np.int64), p), p)[0]


def blocked_rank(mat, p):
    """Rank of mat mod p by the float64 blocked kernel, rows in leading-column order."""
    b, lead = exactalg._staircase(np.asarray(mat, dtype=np.int64), p)
    return exactalg._rank_blocked(b, p, lead)


def with_dead_stretches(rows, cols, dense, seed, p):
    """A rows x cols matrix over GF(p) shaped like the type matrices.

    The first `dense` rows are uniform over the whole width, as the F rows
    cover the support; every other row is zero outside a few column
    stretches, as the E rows cover only the box P.  Once the dense rows'
    pivots are taken, the columns outside the stretches are dead.  A row
    may repeat a multiple of another, so the rank can fall short.
    """
    rng = exactalg.stream(seed, "dead-stretches")
    a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    keep = np.zeros(cols, dtype=bool)
    for _ in range(int(rng.integers(0, 4))):
        lo = int(rng.integers(0, cols))
        keep[lo:lo + int(rng.integers(1, cols // 3 + 2))] = True
    a[dense:, ~keep] = 0
    if rows > 1 and rng.random() < 0.5:
        a[-1] = a[int(rng.integers(0, rows - 1))] * int(rng.integers(0, p)) % p
    return a


def assert_all_ways(m, p, want=None):
    """The int64 kernel's rank of m, checked against want (if given), rank
    of m and m^T, and the blocked kernel on each orientation as it is,
    where p lets it run."""
    got = oracle_rank(m, p)
    assert want is None or got == want
    if p <= exactalg.FLOAT_PRIME_LIMIT:
        assert blocked_rank(m, p) == blocked_rank(m.T, p) == got
    # rank drops all-zero lines, then takes the blocked kernel when the
    # shorter side left is over PANEL and p is at most the limit
    short = min(m.any(axis=1).sum(), m.any(axis=0).sum())
    with mock.patch.object(exactalg, "_rank_blocked", wraps=exactalg._rank_blocked) as spy:
        assert exactalg.rank(m, p) == exactalg.rank(m.T, p) == got
    assert spy.called == (short > exactalg.PANEL and p <= exactalg.FLOAT_PRIME_LIMIT)
    return got


def shuffled_rows(m, seed):
    return m[exactalg.stream(seed, "shuffle").permutation(len(m))]


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


class TestPrimality:
    def test_is_prime(self):
        assert exactalg.is_prime(2)
        assert exactalg.is_prime(32749)
        assert not exactalg.is_prime(1)
        assert not exactalg.is_prime(32749 * 3)
        assert exactalg.is_prime(exactalg.DEFAULT_PRIME)

    def test_matches_trial_division(self):
        assert [n for n in range(10 ** 5) if exactalg.is_prime(n)] == \
            [n for n in range(10 ** 5) if trial_division(n)]

    def test_large_values(self):
        # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5, 7
        assert not exactalg.is_prime(3215031751)
        assert not exactalg.is_prime(561) and not exactalg.is_prime(3037000499)
        assert exactalg.is_prime(2 ** 61 - 1)
        assert exactalg.is_prime(9223372036854775783)  # the largest prime below 2^63

    def test_float_prime_limit(self):
        limit = exactalg.FLOAT_PRIME_LIMIT
        assert exactalg.PANEL == 64 and limit == 11863284
        assert 64 * (limit - 1) ** 2 + limit < 2 ** 53 <= 64 * limit ** 2 + limit + 1
        assert [q for q in range(LAST_FLOAT_PRIME, FIRST_INT64_PRIME + 1)
                if exactalg.is_prime(q)] == [LAST_FLOAT_PRIME, FIRST_INT64_PRIME]
        assert LAST_FLOAT_PRIME <= limit < FIRST_INT64_PRIME

    def test_check_prime_bound(self):
        assert exactalg.check_prime(exactalg.MAX_PRIME) == 3037000493
        assert exactalg.MAX_PRIME ** 2 < 2 ** 63 <= 3037000507 ** 2  # the next prime
        for p in (3037000507, 4294967311, 9223372036854775783):
            with pytest.raises(ValueError, match="too large"):
                exactalg.check_prime(p)
        with pytest.raises(ValueError, match="not prime"):
            exactalg.check_prime(32749 * 3)


    def test_check_prime_caches_its_verdict(self):
        # the Miller-Rabin verdict is kept per p; a refused p raises every time
        exactalg._is_prime_cached.cache_clear()
        for _ in range(3):
            assert exactalg.check_prime(np.int64(32749)) == 32749
            with pytest.raises(ValueError, match="not prime"):
                exactalg.check_prime(32749 * 3)
            with pytest.raises(TypeError):
                exactalg.check_prime(32749.0)
        info = exactalg._is_prime_cached.cache_info()
        assert (info.hits, info.misses) == (4, 2)


class TestStreams:
    def test_deterministic_and_label_separated(self):
        a1 = exactalg.sample((4, 4), 7, "alpha")
        a2 = exactalg.sample((4, 4), 7, "alpha")
        b = exactalg.sample((4, 4), 7, "beta")
        c = exactalg.sample((4, 4), 8, "alpha")
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)

    def test_sample_range(self):
        x = exactalg.sample((100,), 0, "range", p=97)
        assert x.dtype == np.int64
        assert x.min() >= 0 and x.max() < 97


class TestRank:
    def test_edge_cases(self):
        assert exactalg.rank(np.zeros((0, 5), dtype=np.int64)) == 0
        assert exactalg.rank(np.zeros((3, 0), dtype=np.int64)) == 0
        assert exactalg.rank(np.zeros((3, 3), dtype=np.int64)) == 0
        assert exactalg.rank(np.eye(4, dtype=np.int64)) == 4

    def test_modular_collapse(self):
        # a matrix of full rational rank that drops rank mod p
        p = 97
        m = np.array([[1, 0], [0, p]], dtype=np.int64)
        assert exactalg.rank(m, p) == 1
        assert rational_rank(m) == 2

    @given(rows=st.integers(1, 6), cols=st.integers(1, 6),
           seed=st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    def test_matches_rational_rank(self, rows, cols, seed):
        # entries < 20 on a 6x6 grid cannot collapse mod 32749
        m = exactalg.sample((rows, cols), seed, "rank-test", p=20)
        assert exactalg.rank(m) == rational_rank(m)


    @given(rows=st.integers(1, 12), cols=st.integers(1, 12), k=st.integers(0, 12),
           seed=st.integers(0, 10 ** 6),
           p=st.sampled_from([2, 3, 97, exactalg.DEFAULT_PRIME, exactalg.MAX_PRIME]))
    @settings(max_examples=150, deadline=None)
    def test_transpose_invariant(self, rows, cols, k, seed, p):
        # B (rows x k) times C (k x cols) has rank at most k.  The leading
        # n x n block (the whole draw when square) pins det to the same
        # elimination: det(A) = det(A^T), and det(A) != 0 iff rank(A) = n.
        b = exactalg.sample((rows, k), seed, "rank-b", p).astype(object)
        c = exactalg.sample((k, cols), seed, "rank-c", p).astype(object)
        n = min(rows, cols)
        for m in (exactalg.sample((rows, cols), seed, "rank-full", p),
                  (b.dot(c) % p).astype(np.int64).reshape(rows, cols)):
            got = exactalg.rank(m, p)
            assert got == exactalg.rank(m.T, p) <= n
            # These matrices are one panel, so the float64 kernel must agree
            # wherever it is exact; MAX_PRIME is past FLOAT_PRIME_LIMIT.
            assert got == oracle_rank(m, p) == oracle_rank(m.T, p)
            if p <= exactalg.FLOAT_PRIME_LIMIT:
                assert got == blocked_rank(m, p) == blocked_rank(m.T, p)
            sq = m[:n, :n]
            d = exactalg.det(sq, p)
            assert d == exactalg.det(sq.T, p)
            assert (d != 0) == (exactalg.rank(sq, p) == n)
        assert got <= k

    @given(rows=st.integers(65, 200), cols=st.integers(65, 200),
           k=st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 193])
           | st.integers(0, 200),
           sparse=st.booleans(), seed=st.integers(0, 10 ** 6),
           p=st.sampled_from(BLOCKED_PRIMES))
    @settings(max_examples=40, deadline=None)
    def test_blocked_matches_int64_kernel(self, rows, cols, k, sparse, seed, p):
        # B (rows x k) times C (k x cols) has rank at most k, and k near a
        # multiple of 64 ends the pivots at a panel edge.  With sparse, about
        # a third of C's columns are zero, so some panel columns hold no pivot
        # when the kernel runs on m as it is.
        b = exactalg.sample((rows, k), seed, "blocked-b", p)
        c = exactalg.sample((k, cols), seed, "blocked-c", p)
        if sparse:
            c[:, exactalg.stream(seed, "blocked-zero").random(cols) < 1 / 3] = 0
        m = b @ c % p  # int64 is exact: k * (p - 1)^2 < 2^63
        assert assert_all_ways(m, p) <= min(k, rows, cols)

    def test_blocked_on_a_derivative_matrix(self):
        # G2 (a, b, i, s) = (4, 6, 14, 2) at degree 14: 601 x 441, rank 433
        w = families.construct(families.require_valid("G2", a=4, b=6, i=14, s=2), 0)
        m = apolarity.hilbert_matrix(w, 14)
        assert m.shape == (601, 441)
        assert blocked_rank(m.T, w.p) == oracle_rank(m, w.p) == exactalg.rank(m, w.p) == 433

    @given(rows=st.integers(1, 16), cols=st.integers(1, 1300), dense=st.integers(0, 3),
           tall=st.booleans(), seed=st.integers(0, 10 ** 6),
           p=st.sampled_from(BLOCKED_PRIMES + [exactalg.MAX_PRIME]))
    @settings(max_examples=80, deadline=None)
    def test_dead_stretches(self, rows, cols, dense, tall, seed, p):
        # The type-sweep shape: 1 to 16 rows, hundreds of columns, most of
        # them dead once the dense rows' pivots are taken.  Drawn tall too.
        m = with_dead_stretches(rows, cols, dense, seed, p)
        if tall:
            m = m.T
        want = oracle_rank(m, p)
        assert want == oracle_rank(m.T, p) == exactalg.rank(m, p) <= min(m.shape)
        if p <= exactalg.FLOAT_PRIME_LIMIT:
            assert blocked_rank(m, p) == blocked_rank(m.T, p) == want

    @pytest.mark.parametrize("p, rows, cols, k", [
        (5300003, 65, 1000, 40), (5300003, 65, 1030, 65), (5300003, 200, 1000, 150),
        (5300003, 400, 1000, 321), (5300003, 420, 1070, 380), (LAST_FLOAT_PRIME, 420, 1000, 400)])
    def test_delayed_reduction(self, p, rows, cols, k):
        # At p = 5300003 the trailing block takes exactly five 64-pivot
        # updates before its bound could pass 2^53, so a rank over 320 on
        # 1000 columns (16 panels) forces a reduction partway through; past
        # five updates some value the kernel reduces must exceed what one
        # update leaves, or nothing was delayed.  At the last float prime
        # the bound admits one update, and 400 pivots' worth of typical
        # products would pass 2^53 unreduced.  No reduced value may reach it.
        step = (p - 1) ** 2
        fits = (2 ** 53 - p) // (exactalg.PANEL * step)
        assert fits == (5 if p == 5300003 else 1)
        b = exactalg.sample((rows, k), k, "delayed-b", p)
        m = b @ exactalg.sample((k, cols), k, "delayed-c", p) % p  # exact: k (p - 1)^2 < 2^63
        reduce, seen = exactalg._reduce, []

        def spy(x, q):
            seen.append(float(np.abs(x).max(initial=0)))
            return reduce(x, q)

        with mock.patch.object(exactalg, "_reduce", side_effect=spy):
            assert blocked_rank(m, p) == oracle_rank(m, p) == k
        assert max(seen) < 2 ** 53
        if fits == 1:
            assert max(seen) <= exactalg.PANEL * step + p
        elif k > fits * exactalg.PANEL:
            assert max(seen) > exactalg.PANEL * step + p

    @pytest.mark.parametrize("p", BLOCKED_PRIMES)
    @pytest.mark.parametrize("rows", [5, 100])
    def test_float_input(self, p, rows):
        # float64 integers rank as their int64 matrix, both ways round:
        # residues are taken as they are, other values reduced first, up to
        # multiples of p near 2^53
        rng = exactalg.stream(p + rows, "float-input")
        m = rng.integers(0, p, size=(rows, 40)) @ rng.integers(0, p, size=(40, 150)) % p
        m[:, 7] = 0
        want = oracle_rank(m, p)
        for x in (m, m - p, m + (2 ** 53 // p - 1) * p, -m):
            for y in (x, x.T):
                assert exactalg.rank(y.astype(np.float64), p) == exactalg.rank(y, p) == want

    @pytest.mark.parametrize("shape, kernel", [((3, 3), "_eliminate"), ((3, 200), "_eliminate"),
                                               ((70, 70), "_rank_blocked"),
                                               ((200, 70), "_rank_blocked")])
    @pytest.mark.parametrize("bad", [0.5, 1.5, -2.5, np.nan, np.inf, -np.inf, 2.0 ** 63])
    def test_refuses_non_integral_floats(self, shape, kernel, bad):
        # a float matrix of ones goes to `kernel`; with one entry `bad` it is
        # refused before any kernel runs, where the cast to int64 used to
        # truncate 0.5 to 0 and 1.5 to 1
        called = []

        def spy(name):
            run = getattr(exactalg, name)
            return lambda *args: called.append(name) or run(*args)

        with mock.patch.multiple(exactalg, _eliminate=spy("_eliminate"),
                                 _rank_blocked=spy("_rank_blocked")):
            m = np.ones(shape)
            assert exactalg.rank(m) == 1 and called == [kernel]
            m[-1, -1] = bad
            for dtype in (np.float64, np.float32):
                with pytest.raises(ValueError, match="integers below 2\\^63"):
                    exactalg.rank(m.astype(dtype))
            assert called == [kernel]

    def test_large_prime_exact_or_refused(self):
        m = exactalg.sample((6, 6), 1, "big-prime", exactalg.MAX_PRIME)
        m[5] = (m[0] + m[1]) % exactalg.MAX_PRIME
        assert exactalg.rank(m, exactalg.MAX_PRIME) == 5
        assert exactalg.det(m, exactalg.MAX_PRIME) == 0
        for fn in (exactalg.rank, exactalg.det):
            with pytest.raises(ValueError):
                fn(m, 4294967311)


class TestStaircase:
    """The blocked kernel on rows that start late: each panel eliminates only
    the rows whose leading column is left of its end."""

    @pytest.mark.parametrize("p", [2, 3, 97, exactalg.DEFAULT_PRIME, LAST_FLOAT_PRIME])
    def test_rows_that_start_late(self, p):
        # Ten echelon rows leading at 0..9 and 60 combinations of them hold
        # pivots 0..9 only.  Rows leading at 63, 64 and 65 straddle the first
        # panel edge, and rows leading at 200..204 start after every other
        # row's pivot is taken.  Rows of multiples of p leading at 250, past
        # the last pivot, are zero mod p: a raw lead only bounds the true one.
        cols = 256
        rng = exactalg.stream(p, "late-rows")

        def fresh(lead):
            row = np.zeros(cols, dtype=np.int64)
            row[lead] = 1
            row[lead + 1:] = rng.integers(0, p, size=cols - lead - 1)
            return row

        base = np.array([fresh(k) for k in range(10)])
        mix = rng.integers(0, p, size=(60, 10)) @ base % p
        late = np.array([fresh(k) for k in (63, 64, 65, 200, 201, 202, 203, 204)])
        dead = p * np.array([fresh(250) for _ in range(4)])
        m = shuffled_rows(np.vstack([base, mix, late, dead]), p)
        b, lead = exactalg._staircase(m, p)
        assert lead.tolist() == sorted(lead.tolist()) and lead[-1] == 250
        assert_all_ways(m, p, want=18)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("ordered", [True, False])
    def test_rows_in_lead_order(self, ordered, dtype):
        # b holds the rows reduced mod p, stably in order of lead.  Rows
        # already in that order, as in a dense matrix, are copied without
        # the argsort gather.  Entries run from -3p to 3p, so float rows
        # are reduced too.
        p, rng = 97, exactalg.stream(5, "lead-order")
        m = rng.integers(-3 * p, 3 * p, size=(200, 150))
        for i, lead in enumerate(sorted(rng.integers(0, 150, size=200))):
            m[i, :lead], m[i, lead] = 0, 1
        if not ordered:
            m = shuffled_rows(m, 5)
        lead = (m != 0).argmax(axis=1)
        order = np.argsort(lead, kind="stable")
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            b, got = exactalg._staircase(m.astype(dtype), p)
        assert spy.called != ordered
        assert b.dtype == np.float64 and np.array_equal(b, m[order] % p)
        assert got.tolist() == lead[order].tolist()

    @given(rows=st.integers(65, 160), cols=st.integers(66, 260),
           leads=st.lists(st.sampled_from([0, 1, 62, 63, 64, 65, 66, 127, 128, 129, 192])
                          | st.integers(0, 259), min_size=1, max_size=8),
           seed=st.integers(0, 10 ** 6), p=st.sampled_from(BLOCKED_PRIMES))
    @settings(max_examples=40, deadline=None)
    def test_random_staircases(self, rows, cols, leads, seed, p):
        # Each row is zero left of a lead drawn from `leads`, some near panel
        # edges; a row may instead copy a multiple of an earlier one or be p
        # times a fresh row, so ranks fall short and leads repeat.
        rng = exactalg.stream(seed, "random-staircase")
        m = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        for i in range(rows):
            m[i, :min(leads[int(rng.integers(0, len(leads)))], cols - 1)] = 0
            kind = rng.random()
            if kind < 0.3 and i:
                m[i] = m[int(rng.integers(0, i))] * int(rng.integers(0, p)) % p
            elif kind < 0.4:
                m[i] *= p
        assert_all_ways(shuffled_rows(m, seed), p)

    @given(q=st.sampled_from([(7,), (3, 3), (1, 1, 1, 1), (2, 2, 2)]),
           seed=st.integers(0, 10 ** 6), p=st.sampled_from(BLOCKED_PRIMES))
    @settings(max_examples=25, deadline=None)
    def test_gq_block_patterns(self, q, seed, p):
        # Block (I, J) uniform over 1..p-1 exactly when I dominates J, the
        # block rows shuffled: the L-matrix staircase with numeric entries.
        rng = exactalg.stream(seed, "gq-staircase")
        poset = GQPoset(q)
        sizes = [{e: int(rng.integers(0, 11)) for e in poset.elements} for _ in range(2)]
        mask = GQBlockStructure(poset, *sizes).pattern()
        m = np.where(mask, rng.integers(1, p, size=mask.shape), 0)
        assert_all_ways(shuffled_rows(m, seed), p)

    @pytest.mark.parametrize("family, a, i, s", [("F1", 9, 18, 6), ("F2", 9, 16, 23)])
    def test_cropped_family_matrices(self, family, a, i, s):
        # F1 and F2 at a reduced size: the cropped derivative matrices of E
        # (inside its box P) beside F, whose late rows the panels skip.
        params = families.require_valid(family, a=a, i=i, s=s)
        w = families.construct(params, 0)
        for d in range(params.i, params.i_f + 1):
            m = apolarity.hilbert_matrix(w, d)
            short = m[np.ix_(m.any(axis=1), m.any(axis=0))]
            short = short if short.shape[0] <= short.shape[1] else short.T
            assert exactalg._staircase(short, w.p)[1][-1] >= exactalg.PANEL
            assert_all_ways(m, w.p, want=apolarity.hilbert_value(w, d))


class TestEliminate:
    def test_cost_follows_the_rank_not_the_width(self):
        # Two pivots two million columns apart.  Probing each dead column
        # took about 0.38 s per 2 x 200000 call; jumping takes one scan.
        a = np.ones((2, 2 * 10 ** 6), dtype=np.int64)
        a[1, -1] = 2
        t0 = time.monotonic()
        assert exactalg._eliminate(a, exactalg.DEFAULT_PRIME) == (2, 1)
        assert time.monotonic() - t0 < 1
        assert a[1, -1] == 1 and not a[1, :-1].any()


class TestDet:
    @given(n=st.integers(1, 5), seed=st.integers(0, 500))
    @settings(max_examples=100, deadline=None)
    def test_matches_leibniz(self, n, seed):
        p = exactalg.DEFAULT_PRIME
        m = exactalg.sample((n, n), seed, "det-test", p=11)
        assert exactalg.det(m, p) == permanent_style_det(m, p)

    @given(n=st.integers(1, 5), seed=st.integers(0, 10 ** 6), whole=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_dead_columns_in_the_middle(self, n, seed, whole):
        # Middle columns zeroed from a random row down: once the rows above
        # hold the pivots, the elimination jumps over them.  With `whole`
        # the zeros start at row 0, and any such column makes m singular.
        p = exactalg.DEFAULT_PRIME
        rng = exactalg.stream(seed, "det-dead")
        m = rng.integers(0, 11, size=(n, n), dtype=np.int64)
        for c in range(1, n - 1):
            if rng.random() < 0.6:
                m[0 if whole else int(rng.integers(1, n)):, c] = 0
        assert exactalg.det(m, p) == permanent_style_det(m, p)
        assert exactalg.det(m.T, p) == permanent_style_det(m, p)

    def test_singular(self):
        m = np.array([[1, 2], [2, 4]], dtype=np.int64)
        assert exactalg.det(m) == 0
        assert exactalg.det(np.zeros((0, 0), dtype=np.int64)) == 1
        with pytest.raises(ValueError):
            exactalg.det(np.zeros((2, 3), dtype=np.int64))


class TestEvaluateSymbolic:
    def test_small_matrix(self):
        m = SymbolicMatrix((((2, "x"), None), ((1, "y"), (3, "x"))))
        got = lmatrix.evaluate_symbolic(m, {"x": 5, "y": 7}, p=101)
        assert got.tolist() == [[10, 0], [7, 15]]
