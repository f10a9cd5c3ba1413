"""The bounded-exponent poset, topset enumeration, and TPP/TAP checks."""

from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelalg import exactalg
from levelalg.gqposet import (FinitePoset, GQPoset, OrderPreservingFn,
                              TopsetGuardExceeded, check_tap, check_tpp,
                              dominates, enumerate_topsets,
                              random_order_preserving, topset_matrix)


def brute_topsets(poset):
    """All upward-closed subsets by checking every subset (tiny posets)."""
    els = poset.elements
    out = []
    for sub in chain.from_iterable(combinations(els, k)
                                   for k in range(len(els) + 1)):
        sub = frozenset(sub)
        if all(poset.elements[j] in sub
               for e in sub for j in poset.dominators[poset.index(e)]):
            out.append(sub)
    return out


class TestPosetStructure:
    def test_cardinality_and_extremes(self):
        p = GQPoset((2, 3))
        assert len(p) == 12
        assert p.top == (0, 0)
        assert p.bottom == (2, 3)
        assert p.dominates((0, 1), (2, 3))
        assert not p.dominates((2, 3), (0, 1))
        assert not p.dominates((1, 0), (0, 1))

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
        assert {t.members for t in tops} == \
            set(brute_topsets(p)) - {frozenset(), frozenset(p.elements)}

    def test_matrix_agrees_with_enumeration(self):
        p = GQPoset((2, 1))
        mat = topset_matrix(p)
        tops = enumerate_topsets(p)
        assert mat.shape == (len(tops) + 2, len(p))
        # rows follow the sorted masks: the empty set first, the full set last
        assert not mat[0].any() and mat[-1].all()
        for row, t in zip(mat[1:-1], tops):
            got = {p.elements[i] for i in range(len(p)) if row[i]}
            assert got == t.members

    def test_guard(self):
        # the Boolean lattice on 6 atoms has over 2^20 topsets
        with pytest.raises(TopsetGuardExceeded):
            enumerate_topsets(GQPoset((1,) * 6))


class TestOrderPreserving:
    def test_validation(self):
        p = GQPoset((1,))
        OrderPreservingFn({(0,): 3, (1,): 1}).validated(p)
        with pytest.raises(ValueError):
            OrderPreservingFn({(0,): 1, (1,): 3}).validated(p)

    def test_shifted_has_zero_total(self):
        p = GQPoset((2, 1))
        phi = OrderPreservingFn({e: sum(p.q) - sum(e) for e in p.elements})
        assert phi.shifted(p).total(p) == 0
        assert phi((0, 0)) == Fraction(3)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_random_phi_is_valid(self, seed):
        p = GQPoset((2, 2))
        rng = exactalg.stream(seed, "test-phi")
        phi = random_order_preserving(p, rng)
        phi.validated(p)
        assert phi.total(p) >= 0


class TestTppTap:
    @pytest.mark.parametrize("q", [(4,), (1, 1), (2, 3), (1, 1, 1), (2, 2, 2)])
    def test_hold_on_chain_products(self, q):
        p = GQPoset(q)
        rng = exactalg.stream(0, "test-tpp")
        for _ in range(25):
            phi = random_order_preserving(p, rng)
            assert check_tpp(p, phi).passed
            tap = check_tap(p, phi)
            assert tap.passed
            assert check_tpp(p, phi.shifted(p)).passed == tap.passed

    def test_tap_fails_on_an_antichain(self):
        # two incomparable elements: TPP holds but the averaging property
        # fails, showing the chain-product structure matters
        p = FinitePoset(["a", "b"], lambda x, y: x == y)
        phi = OrderPreservingFn({"a": 0, "b": 2})
        assert check_tpp(p, phi).passed
        tap = check_tap(p, phi)
        assert not tap.passed
        assert tap.witness is not None and tap.witness.members == {"a"}

    def test_tpp_requires_nonnegative_total(self):
        p = GQPoset((1,))
        with pytest.raises(ValueError):
            check_tpp(p, OrderPreservingFn({(0,): 0, (1,): -3}))

    def test_witness_reported(self):
        p = FinitePoset(["a", "b"], lambda x, y: x == y)
        phi = OrderPreservingFn({"a": -1, "b": 1})
        res = check_tpp(p, phi)
        assert not res.passed
        assert res.witness.members == {"a"}
