"""The bounded-exponent poset, topset enumeration, and TPP/TAP checks."""

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations
from math import comb, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelalg import cli, exactalg, gqposet
from levelalg.gqposet import (MAX_WEIGHT, FinitePoset, GQPoset, TopsetGuardExceeded,
                              check_tap, check_tpp, dominates, enumerate_topsets,
                              first_negative_topset, is_order_preserving,
                              random_order_preserving, random_trials, topset,
                              topset_matrix)


def brute_topsets(poset):
    """All upward-closed subsets by checking every subset (tiny posets)."""
    els = poset.elements
    out = []
    for sub in chain.from_iterable(combinations(els, k)
                                   for k in range(len(els) + 1)):
        sub = frozenset(sub)
        if all(x in sub for e in sub for x in els if dominates(x, e)):
            out.append(sub)
    return out


def dfs_topset_masks(poset):
    """All upward-closed subsets as sorted big-int bitmasks, bit i for elements[i],
    by depth-first search over the element list (oracle)."""
    n = len(poset.elements)
    cover_masks = [sum(1 << j for j in c) for c in poset.covers]
    out = []
    stack = [(0, 0)]
    while stack:
        pos, mask = stack.pop()
        if pos == n:
            out.append(mask)
            continue
        stack.append((pos + 1, mask))
        if mask & cover_masks[pos] == cover_masks[pos]:
            stack.append((pos + 1, mask | (1 << pos)))
    return sorted(out)


def random_dag_poset(rng, n):
    """Elements 0..n-1, each covered by a random set of earlier ones."""
    return FinitePoset(range(n), [rng.sample(range(i), rng.randint(0, min(i, 3)))
                                  for i in range(n)])


def macmahon(a, b, c):
    """Plane partitions in an a x b x c box: the up-sets of a product of three chains."""
    num = prod(i + j + k - 1 for i in range(1, a + 1) for j in range(1, b + 1)
               for k in range(1, c + 1))
    den = prod(i + j + k - 2 for i in range(1, a + 1) for j in range(1, b + 1)
               for k in range(1, c + 1))
    return num // den


def loop_check(poset, values, tap):
    """The members of the first topset in mask order failing TPP or TAP of
    values in element order, by Fraction sums (oracle)."""
    mean = sum(values, Fraction(0)) / len(poset)
    for row in topset_matrix(poset):
        s = sum((v for v, x in zip(values, row) if x), Fraction(0))
        if s < mean * int(row.sum()) if tap else s < 0:
            return [e for e, x in zip(poset.elements, row) if x]
    return None


def witness(poset, row):
    """The members of a check's answer row, None for -1."""
    return None if row < 0 else topset(poset, row)


class TestPosetStructure:
    def test_cardinality_and_extremes(self):
        p = GQPoset((2, 3))
        assert len(p) == 12
        # the maximum 0 comes first and the minimum Q last
        assert p.elements[0] == (0, 0)
        assert p.elements[-1] == p.q == (2, 3)
        # the upper covers of I are the I - e_k, listed before I
        at = p.elements.index((1, 2))
        assert {p.elements[j] for j in p.covers[at]} == {(0, 2), (1, 1)}
        assert all(j < i for i, c in enumerate(p.covers) for j in c)
        assert not p.covers[0]

    def test_dominates_function(self):
        assert dominates((0, 0), (5, 5))
        assert not dominates((1, 0), (0, 5))
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))


class TestTopsets:
    @pytest.mark.parametrize("q,count", [((3,), 5), ((1, 1), 6), ((2, 2), 20)])
    def test_counts(self, q, count):
        # chains have n+2 topsets; small grids checked against brute force,
        # less the empty and the full set
        p = GQPoset(q)
        tops = enumerate_topsets(p)
        assert len(tops) == count - 2
        assert all(t == sorted(t) for t in tops)  # members in element order
        assert {frozenset(map(tuple, t)) for t in tops} == \
            set(brute_topsets(p)) - {frozenset(), frozenset(p.elements)}

    def test_matrix_agrees_with_enumeration(self):
        p = GQPoset((2, 1))
        mat = topset_matrix(p)
        tops = enumerate_topsets(p)
        assert mat.shape == (len(tops) + 2, len(p))
        # rows follow the sorted masks: the empty set first, the full set last
        assert not mat[0].any() and mat[-1].all()
        for row, t in zip(mat[1:-1], tops):
            assert t == [list(p.elements[i]) for i in range(len(p)) if row[i]]

    def test_labels_are_shared(self):
        # one list per element, the same object in every topset that holds it
        p = GQPoset((1, 1))
        tops = enumerate_topsets(p)
        labels = {}
        for m in (m for t in tops for m in t):
            assert m is labels.setdefault(tuple(m), m)
        assert sorted(labels) == p.elements[:-1]

    @given(n=st.integers(0, 10), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_matches_dfs_oracle(self, n, seed):
        # same rows in the same order as the sorted masks of the old search
        poset = random_dag_poset(random.Random(seed), n)
        mat = topset_matrix(poset)
        masks = [sum(1 << i for i in np.flatnonzero(row).tolist()) for row in mat]
        assert masks == dfs_topset_masks(poset)
        assert mat.shape == (len(masks), n) and mat.dtype == bool
        assert not mat.flags.writeable
        assert mat.flags.owndata  # no spare rows of the growth buffer kept

    @pytest.mark.parametrize("q", [(0, 0), (2, 3), (3, 3), (1, 4), (5, 2), (6, 6)])
    def test_count_2d(self, q):
        # monotone staircases in a (q1+1) x (q2+1) box
        assert len(topset_matrix(GQPoset(q))) == comb(q[0] + q[1] + 2, q[0] + 1)

    @pytest.mark.parametrize("q,count", [((3, 3, 3), 232848), ((1, 2, 3), 490),
                                         ((2, 2, 2), 980), ((0, 1, 4), 21)])
    def test_count_3d_macmahon(self, q, count):
        assert macmahon(*(x + 1 for x in q)) == count
        assert len(topset_matrix(GQPoset(q))) == count

    @pytest.mark.parametrize("n,count", [(0, 2), (1, 3), (2, 6), (3, 20), (4, 168),
                                         (5, 7581)])
    def test_count_boolean_lattice_dedekind(self, n, count):
        assert len(topset_matrix(GQPoset((1,) * n))) == count

    def test_chain_prefix_triangle(self):
        # a chain's topsets are its prefixes, in order of length
        mat = topset_matrix(GQPoset((2000,)))
        assert np.array_equal(mat, np.tri(2002, 2001, -1, dtype=bool))

    def test_report_bound(self):
        # (3,3,3) lists about 7.4 M members, under MAX_LISTED
        listed = int(topset_matrix(GQPoset((3, 3, 3)))[1:-1].sum())
        assert 7 * 10 ** 6 < listed <= gqposet.MAX_LISTED
        p = GQPoset((2, 2))
        listed = int(topset_matrix(p)[1:-1].sum())
        with mock.patch.object(gqposet, "MAX_LISTED", listed):
            assert len(enumerate_topsets(p)) == 18
        with mock.patch.object(gqposet, "MAX_LISTED", listed - 1):
            with pytest.raises(TopsetGuardExceeded, match="18 topsets list %d members, "
                               "more than %d" % (listed, listed - 1)):
                enumerate_topsets(p)

    def test_guard(self):
        # the Boolean lattice on 6 atoms has over 2^20 topsets
        with pytest.raises(TopsetGuardExceeded):
            enumerate_topsets(GQPoset((1,) * 6))

    def test_guard_counts_cells(self):
        # beyond 64 elements the guard bounds masks x elements: 4096
        # elements allow 2^14 topsets, and a chain of 10^5 has too many to start
        with pytest.raises(TopsetGuardExceeded, match="more than 16384 topsets"):
            enumerate_topsets(GQPoset((1,) * 12))
        with pytest.raises(TopsetGuardExceeded, match="more than 671 topsets"):
            enumerate_topsets(GQPoset((100000,)))

    def test_guard_during_growth(self):
        # an antichain of 6 under one more element has 64 + 1 topsets: a
        # limit of 65 rows admits them, exactly; a limit of 64 refuses them
        def poset():
            return FinitePoset(range(7), [()] * 6 + [range(6)])
        with mock.patch.object(gqposet, "TOPSET_GUARD", 65):
            mat = topset_matrix(poset())
            assert mat.shape == (65, 7)
        with mock.patch.object(gqposet, "TOPSET_GUARD", 64):
            with pytest.raises(TopsetGuardExceeded, match="more than 64 topsets of 7"):
                topset_matrix(poset())

    def test_guard_on_poset_size(self, capsys):
        start = time.perf_counter()
        with pytest.raises(TopsetGuardExceeded, match="1048577 elements"):
            GQPoset((1 << 20,))
        assert cli.main(["poset", "topsets", "--q", "100000"]) == 1
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: more than 671 topsets")


class TestOrderPreserving:
    def test_validation(self):
        p = GQPoset((1,))
        assert is_order_preserving(p, [3, 1])
        assert not is_order_preserving(p, [1, 3])
        # the checks refuse what is not an order-preserving function on p
        for check in (check_tpp, check_tap):
            assert check(p, [Fraction(3, 2), 1]) == -1
            for values in ([1, 3], [3], [3, 1, 0]):
                with pytest.raises(ValueError, match="not an order-preserving"):
                    check(p, values)

    @given(q=st.lists(st.integers(0, 2), max_size=3), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_validated_matches_all_pairs(self, q, data):
        # covers only against every dominating pair; a nonincreasing run
        # along the element list (a linear extension) is always monotone
        p = GQPoset(q)
        vals = data.draw(st.lists(st.integers(-2, 2), min_size=len(p), max_size=len(p)))
        if data.draw(st.booleans()):
            vals.sort(reverse=True)
        values = dict(zip(p.elements, vals))
        monotone = all(values[a] >= values[b]
                       for a in p.elements for b in p.elements if dominates(a, b))
        assert is_order_preserving(p, vals) == monotone

    @pytest.mark.parametrize("q", [(), (3,), (2, 1), (1, 2, 2), (2, 0, 3)])
    def test_random_phi_is_a_down_set_sum(self, q):
        # the same draws, summed over every element I dominates
        p = GQPoset(q)
        phi = random_order_preserving(p, exactalg.stream(4, "test-sum"))
        rng = exactalg.stream(4, "test-sum")
        w = dict(zip(p.elements, rng.integers(0, MAX_WEIGHT + 1, size=len(p)).tolist()))
        raw = {e: sum(w[x] for x in p.elements if dominates(e, x)) for e in p.elements}
        shift = int(rng.integers(0, sum(raw.values()) // len(p) + 1))
        assert phi.dtype == np.int64 and phi.shape == (len(p),)
        assert phi.tolist() == [raw[e] - shift for e in p.elements]

    @given(seed=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_random_phi_is_valid(self, seed):
        p = GQPoset((2, 2))
        rng = exactalg.stream(seed, "test-phi")
        phi = random_order_preserving(p, rng)
        assert is_order_preserving(p, phi)
        assert phi.sum() >= 0


class TestTppTap:
    @pytest.mark.parametrize("q", [(4,), (1, 1), (2, 3), (1, 1, 1), (2, 2, 2)])
    def test_hold_on_chain_products(self, q):
        p = GQPoset(q)
        rng = exactalg.stream(0, "test-tpp")
        for _ in range(25):
            phi = random_order_preserving(p, rng)
            assert check_tpp(p, phi) == -1
            tap = check_tap(p, phi)
            assert tap == -1
            # TAP of phi is TPP of phi minus its mean
            mean = Fraction(int(phi.sum()), len(p))
            shifted = [v - mean for v in phi.tolist()]
            assert sum(shifted) == 0
            assert check_tpp(p, shifted) == tap

    def test_tap_fails_on_an_antichain(self):
        # two incomparable elements: TPP holds but the averaging property
        # fails, showing the chain-product structure matters
        p = FinitePoset(["a", "b"], [(), ()])
        assert check_tpp(p, [0, 2]) == -1
        tap = check_tap(p, [0, 2])
        assert tap >= 0 and topset(p, tap) == ["a"]

    def test_tpp_requires_nonnegative_total(self):
        p = GQPoset((1,))
        with pytest.raises(ValueError):
            check_tpp(p, [0, -3])

    def test_witness_reported(self):
        p = FinitePoset(["a", "b"], [(), ()])
        res = check_tpp(p, [-1, 1])
        assert res >= 0 and topset(p, res) == ["a"]
        # members in element order, not sorted: "z" covers "a"
        p = FinitePoset(["z", "a", "m"], [(), [0], ()])
        assert topset(p, check_tpp(p, [0, -1, 2])) == ["z", "a"]

    @given(n=st.integers(1, 7), seed=st.integers(0, 10 ** 6),
           scale=st.sampled_from([1, 2 ** 44, 2 ** 47, 2 ** 62]),
           cells=st.sampled_from([1, 5, gqposet._CHECK_CELLS]))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_sums(self, n, seed, scale, cells):
        # Any DAG of covers, so witnesses exist; rational values whose
        # scaled column sums of |w| fall below 2^53 (float64) or above it
        # (Python integers), some past int64; a few topset rows per product
        # or all of them.
        rng = random.Random(seed)
        covers = [rng.sample(range(i), rng.randint(0, min(i, 2))) for i in range(n)]
        vals = []
        for cov in covers:
            raw = Fraction(rng.randint(-9, 9) * scale, rng.choice([1, 2, 3, 6]))
            vals.append(min([raw] + [vals[c] for c in cov]))
        shift = Fraction(min(sum(vals), 0), n)
        poset = FinitePoset(range(n), covers)
        phi = [v - shift for v in vals]
        with mock.patch.object(gqposet, "_CHECK_CELLS", cells):
            for check, tap in ((check_tpp, False), (check_tap, True)):
                assert witness(poset, check(poset, phi)) == loop_check(poset, phi, tap)

    @given(n=st.integers(1, 7), k=st.integers(2, 5), seed=st.integers(0, 10 ** 6),
           scale=st.sampled_from([1, 2 ** 50, 2 ** 62]),
           cells=st.sampled_from([1, 5, gqposet._CHECK_CELLS]))
    @settings(max_examples=100, deadline=None)
    def test_columns_match_loop_check(self, n, k, seed, scale, cells):
        # each column of one call finds what the Fraction loop finds for it alone
        rng = random.Random(seed)
        poset = random_dag_poset(rng, n)
        phis = [[rng.randint(-9, 9) * scale for _ in range(n)] for _ in range(k)]
        w = np.array(phis, dtype=object).T
        with mock.patch.object(gqposet, "_CHECK_CELLS", cells):
            first = first_negative_topset(poset, w)
            # the same rows from int64 input, and from nested lists
            if scale < 2 ** 62:
                assert first.tolist() == first_negative_topset(poset, w.astype(np.int64)).tolist()
            assert first.tolist() == first_negative_topset(poset, w.tolist()).tolist()
        assert first.shape == (k,)
        for row, phi in zip(first.tolist(), phis):
            assert witness(poset, row) == loop_check(poset, phi, False)

    def test_abs_sum_past_int64(self):
        # Entries fit int64 but their |w| sum is 2^64 - 1: the full chain
        # sums to -1, which float64 rounds to 0, and an int64 bound wraps.
        chain3 = GQPoset((2,))
        w = np.array([[2 ** 62 - 1], [2 ** 62], [-2 ** 63]], dtype=np.int64)
        assert first_negative_topset(chain3, w).tolist() == [3]
        assert first_negative_topset(chain3, w[:, [0, 0]] + [[0, 1], [0, 0], [0, 0]]
                                     ).tolist() == [3, -1]
        # nested lists that numpy would read as float64, losing the -1
        assert first_negative_topset(chain3, [[2 ** 63], [-1], [-2 ** 63]]).tolist() == [3]

    def test_columns_close_in_different_chunks(self):
        # On a chain, row k of the topset matrix is its first k elements.
        # Column c sums negative first at row stops[c]; with three rows per
        # chunk the columns close in chunks 0, 1, 3 and 4, two of them in
        # each of the first two, and one never closes, so the open columns
        # are sliced out again after each of those chunks and not after 2.
        poset = GQPoset((11,))
        stops = [1, 2, 4, 11, 5, -1, 12]
        w = np.ones((12, len(stops)), dtype=np.int64)
        for c, k in enumerate(stops):
            if k > 0:
                w[k - 1, c] = -k
        with mock.patch.object(gqposet, "_CHECK_CELLS", 3 * sum(w.shape)):
            first = first_negative_topset(poset, w)
        assert first.tolist() == stops
        for row, col in zip(first.tolist(), w.T.tolist()):
            assert witness(poset, row) == loop_check(poset, col, False)

    def test_int64_weights_stay_int64(self):
        # int64 weights are bounded and multiplied without a copy to Python
        # integers: the traced peak stays within 3 times the weights' bytes
        p = GQPoset((63,))
        w = np.random.default_rng(0).integers(-40000, 80000, size=(64, 4096))
        with mock.patch.object(gqposet, "_CHECK_CELLS", 1 << 16):
            first = first_negative_topset(p, w)
            tracemalloc.start()
            try:
                assert first_negative_topset(p, w).tolist() == first.tolist()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3 * w.nbytes


def arbitrary_fn(poset, rng):
    """Integer values in [-9, 9], monotone or not: stands in for
    random_order_preserving so that TPP and TAP can fail."""
    return rng.integers(-9, 10, size=len(poset))


class TestRandomTrials:
    @pytest.mark.parametrize("q", [(), (4,), (2, 3), (1, 1, 1)])
    def test_columns_match_the_checks(self, q):
        # no failures, as check_tpp and check_tap say of the same draws,
        # and the same generator state after them
        p = GQPoset(q)
        trials_rng = exactalg.stream(5, "test-trials")
        assert random_trials(p, trials_rng, 70) == []
        rng = exactalg.stream(5, "test-trials")
        for _ in range(70):
            phi = random_order_preserving(p, rng)
            assert check_tpp(p, phi) == check_tap(p, phi) == -1
        assert rng.bit_generator.state == trials_rng.bit_generator.state

    @given(n=st.integers(1, 7), trials=st.integers(0, 8), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_group_size_changes_nothing(self, n, trials, seed):
        # Any DAG and any integer values, so both checks fail often: the
        # same failures and the same generator state in groups of 1, 3 or
        # all, each the first topset the Fraction loop finds, listed in
        # trial order with TPP (check 0) before TAP (check 1).
        poset = random_dag_poset(random.Random(seed), n)
        results = []
        with mock.patch.object(gqposet, "random_order_preserving", arbitrary_fn):
            for group in (1, 3, gqposet._TRIAL_GROUP):
                rng = exactalg.stream(seed, "test-groups")
                with mock.patch.object(gqposet, "_TRIAL_GROUP", group):
                    failed = random_trials(poset, rng, trials)
                results.append((failed, rng.bit_generator.state))
        assert results[0] == results[1] == results[2]
        rng = exactalg.stream(seed, "test-groups")
        want = []
        for t in range(trials):
            phi = arbitrary_fn(poset, rng).tolist()
            for k, tap in enumerate((False, True)):
                members = loop_check(poset, phi, tap)
                if members is not None:
                    want.append((t, k, members))
        assert [(t, k, topset(poset, row)) for t, k, row in failed] == want
        assert all(type(x) is int for f in failed for x in f)

    def test_trial_budget_refused_before_drawing(self):
        # G_(2,2) has 20 topset-matrix rows, counted as 20 x 64 cells; the
        # selftest's suites run without the budget
        p = GQPoset((2, 2))
        with mock.patch.object(gqposet, "TRIAL_BUDGET", 10 * 20 * 64):
            assert random_trials(p, exactalg.stream(0, "test-budget"), 10) == []
            assert random_trials(p, exactalg.stream(0, "test-budget"), 11, budget=False) == []
            rng = exactalg.stream(0, "test-budget")
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="^11 trials of 1280 topset-matrix cells pass "
                                                 "the budget of 12800 cells$"):
                random_trials(p, rng, 11)
        assert rng.bit_generator.state == state

    def test_memory_does_not_grow_with_trials(self):
        # only failures are kept: the traced peak of 6400 passing trials is
        # within twice that of 64
        p = GQPoset((1,))

        def peak(trials):
            tracemalloc.start()
            try:
                assert random_trials(p, exactalg.stream(0, "test-memory"), trials) == []
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(64)
        assert peak(6400) <= 2 * peak(64)
