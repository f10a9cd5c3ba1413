"""Multi-index enumeration order and closed-form counts."""

from itertools import product
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelalg import multiindex
from levelalg.multiindex import (closed_form_count, count_constrained,
                                 effective_bounds, enumerate_constrained)
from levelalg.selfcheck import count_oracle


def brute_list(r, d, bounds=()):
    """M_Q(d) in descending lex order, filtered from every tuple with entries <= d."""
    return sorted((m for m in product(range(d + 1), repeat=r)
                   if sum(m) == d and all(x <= q for x, q in zip(m, bounds))), reverse=True)


def brute_count(r, d, bounds=()):
    return len(brute_list(r, d, bounds))


class TestEnumeration:
    def test_small_examples(self):
        assert enumerate_constrained(2, 2) == [(2, 0), (1, 1), (0, 2)]
        assert enumerate_constrained(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert enumerate_constrained(2, 3, (1,)) == [(1, 2), (0, 3)]
        assert enumerate_constrained(1, 4, (3,)) == []
        assert enumerate_constrained(2, 0) == [(0, 0)]

    def test_cached_result_is_a_fresh_list(self):
        got = enumerate_constrained(3, 2, (1,))
        want = list(got)
        got.append((9, 9, 9))
        got[0] = None
        assert enumerate_constrained(3, 2, (1,)) == want
        assert count_constrained(3, 2, (1,)) == len(want)

    def test_bounded_example(self):
        got = enumerate_constrained(3, 7, (2, 3))
        assert len(got) == 12
        assert got[0] == (2, 3, 2)

    @given(r=st.integers(1, 5), d=st.integers(0, 8),
           bounds=st.lists(st.integers(0, 6), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_enumeration_properties(self, r, d, bounds):
        bounds = tuple(bounds[:r])
        out = enumerate_constrained(r, d, bounds)
        seen = set(out)
        assert len(seen) == len(out)
        for m in out:
            assert sum(m) == d and len(m) == r
            assert all(m[k] <= bounds[k] for k in range(len(bounds)))
        for a, b in zip(out, out[1:]):
            assert a > b  # tuples compare lexicographically
        assert out == brute_list(r, d, bounds)


class TestClosedForms:
    def test_unconstrained(self):
        assert closed_form_count(3, 4) == comb(6, 2)
        assert closed_form_count(5, 0) == 1

    def test_bound_equal_to_j_is_no_constraint(self):
        # at degrees d <= j a bound of j never bites ...
        assert closed_form_count(3, 4, (6,), j=6) == comb(6, 2)
        # ... but it does once d exceeds j
        assert closed_form_count(2, 14, (6,), j=6) == 7

    def test_fully_constrained(self):
        assert closed_form_count(2, 6, (2, 3), j=6) == 0
        assert closed_form_count(2, 5, (2, 3), j=6) is None

    def test_one_free_coordinate(self):
        # n = r-1, d >= q: the full box fits
        assert closed_form_count(3, 9, (2, 3), j=9) == 12
        assert closed_form_count(3, 4, (2, 1), j=9) == 6

    def test_two_free_coordinates_corrections(self):
        # r = 3, n = 1: extended range with the +1 bump at d = q-2
        for a1 in (3, 5, 8):
            q = a1 - 1
            for d in range(0, q + 4):
                got = closed_form_count(3, d, (q,), j=q + 3)
                want = brute_count(3, d, (q,))
                if d >= q - 1 or d == q - 2 or d < a1:
                    assert got == want, (a1, d)
        # r = 4, n = 2: same shape of trichotomy
        for b in ((2, 4), (3, 3), (1, 5)):
            q = sum(b)
            for d in range(0, q + 4):
                got = closed_form_count(4, d, b, j=q + 3)
                if got is not None:
                    assert got == brute_count(4, d, b), (b, d)

    @pytest.mark.parametrize("r,bounds", [(3, (4,)), (3, (7,)), (4, (2, 4)), (4, (3, 3)),
                                          (4, (1, 5)), (5, (1, 2, 3)), (6, (2, 2, 1, 3))])
    def test_two_free_coordinates_range(self, r, bounds):
        # where the formula applies: for r <= 4 also at d = q-1, at d = q-2
        # (one short) and below every bound (the plain binomial); past r = 4
        # only from d = q on
        q, low = sum(bounds), min(bounds) + 1
        covered = [d for d in range(q + 3) if closed_form_count(r, d, bounds) is not None]
        want = {*range(low), q - 2, q - 1} if r <= 4 else set()
        assert covered == sorted(want | set(range(q, q + 3)))
        for d in covered:
            assert closed_form_count(r, d, bounds) == count_oracle(r, d, bounds), d

    def test_three_free_coordinates(self):
        for r, b in ((4, (2,)), (5, (2, 3)), (6, (1, 2, 2))):
            q = sum(b)
            for d in range(q, q + 5):
                assert closed_form_count(r, d, b, j=d + 1) == \
                    brute_count(r, d, b), (r, b, d)

    @pytest.mark.parametrize("r", [6, 7])
    def test_three_free_coordinates_past_r_5(self, r):
        # the sum over the degree t of the bounded prefix, on every box of
        # r - 3 bounds up to 3, from d = q to q + 4
        for bounds in product(range(4), repeat=r - 3):
            q = sum(bounds)
            for d in range(q, q + 5):
                assert closed_form_count(r, d, bounds) == count_oracle(r, d, bounds), \
                    (r, bounds, d)

    def test_method_dispatch(self):
        # the series agrees with the closed form where one applies, and
        # counts where none does
        assert closed_form_count(3, 7, (2, 3), j=9) == 12
        assert count_constrained(3, 7, (2, 3)) == 12
        assert closed_form_count(4, 2, (1, 1, 1), j=9) is None
        assert count_constrained(4, 2, (1, 1, 1)) == \
            len(enumerate_constrained(4, 2, (1, 1, 1))) == brute_count(4, 2, (1, 1, 1))

    @given(r=st.integers(0, 5), d=st.integers(-1, 10),
           bounds=st.lists(st.integers(0, 7), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_count_matches_enumeration(self, r, d, bounds):
        bounds = tuple(bounds[:r])
        assert count_constrained(r, d, bounds) == len(enumerate_constrained(r, d, bounds))

    def test_counts_without_enumerating(self):
        # no closed form covers these, and none of them may be enumerated
        with mock.patch.object(multiindex, "_enumerate_cached", side_effect=AssertionError):
            assert count_constrained(12, 30, (30,) * 12) == comb(41, 11)
            assert count_constrained(3, 10 ** 6, (10 ** 6 - 1,) * 3) == comb(10 ** 6 + 2, 2) - 3
            assert count_constrained(40, 20, (0,) * 20 + (1,) * 20) == 1
            assert count_constrained(4, 2, (1, 1, 1)) == comb(5, 3) - 3

    def test_effective_bounds(self):
        assert effective_bounds((2, 6, 3), 6) == (2, 3)
        assert effective_bounds((2, 6, 3), 6, d=4) == (2, 3)
        assert effective_bounds((2, 6, 3), 6, d=7) == (2, 6, 3)
        assert effective_bounds((2, 6, 3)) == (2, 6, 3)

    @given(r=st.integers(1, 5), d=st.integers(0, 10),
           bounds=st.lists(st.integers(0, 7), max_size=5),
           extra=st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_enumeration(self, r, d, bounds, extra):
        bounds = tuple(bounds[:r])
        j = max([d] + list(bounds)) + extra
        got = closed_form_count(r, d, bounds, j)
        if got is not None:
            assert got == brute_count(r, d, bounds)
