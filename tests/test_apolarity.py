"""Derivative action, matrix construction, and Hilbert values."""

import os
import subprocess
import sys
from dataclasses import dataclass
from itertools import count, product
from math import comb, factorial, prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_exactalg import FIRST_INT64_PRIME, LAST_FLOAT_PRIME, rational_rank

from levelalg import apolarity, exactalg, families, lmatrix, multiindex
from levelalg.apolarity import (GeneratorBlock, HomogeneousSubspace,
                                derivative_coefficient, derivative_template, hilbert_matrix,
                                hilbert_value, hilbert_vector, sum_space_dimension,
                                symbolic_matrix)
from levelalg.multiindex import count_constrained, enumerate_constrained

P = exactalg.DEFAULT_PRIME


@dataclass(frozen=True)
class MaxRankReport:
    rows: int
    cols: int
    guaranteed_full_rank: bool


def max_rank_predicate(bounds, r, j, d, s):
    """Row/column counts of the cropped matrix and the tall-enough guarantee.

    With some coordinate unconstrained (a bound of j or more constrains
    nothing), generic generators give a matrix of maximal rank, so when
    rows >= cols the predicted Hilbert value at degree d is the column
    count.  A box that bounds every coordinate below j has no such
    guarantee: for r = 3, j = 7, box (2, 4, 2) and s = 2 the 6 x 6 matrix
    at d = 6 has rank 5 for every draw.
    """
    rows = s * count_constrained(r, j - d, bounds)
    cols = count_constrained(r, d, bounds)
    free = sum(q < j for q in bounds) < r
    return MaxRankReport(rows, cols, free and rows >= cols)


def counted_structure(bounds, r, j, d, s):
    """(Q, r_I, c_I) of the cropped degree-d matrix by the count formula, for every I in G_Q.

    Row block I holds the s rows of each E of degree e = j - d starting
    with I, column block I the D of degree d starting with Q - I.  Past
    the n bounded coordinates both are free, so r_I = s m(r - n, e - |I|)
    and c_I = m(r - n, d - |Q| + |I|).
    """
    n, q = len(bounds), sum(bounds)
    els = list(product(*(range(b + 1) for b in bounds)))
    return (tuple(bounds), {e: s * count_constrained(r - n, j - d - sum(e)) for e in els},
            {e: count_constrained(r - n, d - q + sum(e)) for e in els})


def structure_of(sym):
    """(Q, r_I, c_I) of a DerivativeMatrix's block structure."""
    return sym.structure.poset.q, sym.structure.r, sym.structure.c


def apply_derivative(e_idx, f, p=None):
    """Apply X^E to a sparse form {monomial: coefficient}.

    Returns the sparse result of degree deg(f) - |E|; monomials not divisible
    by x^E vanish.  This is the term-by-term oracle for the assembled
    derivative matrices.
    """
    out = {}
    for mono, coeff in f.items():
        if any(mk < ek for mk, ek in zip(mono, e_idx)):
            continue
        n = derivative_coefficient(mono, e_idx)
        target = tuple(mk - ek for mk, ek in zip(mono, e_idx))
        val = out.get(target, 0) + n * coeff
        if p is not None:
            val %= p
        out[target] = val
    return {m: c for m, c in out.items() if c != 0}


def random_blocks(seed, p=P, tall=False):
    """A random multi-block subspace with r <= 4, j <= 7, bounded or not.

    p=None takes the least prime above j.  A tall draw has r <= 3, j <= 5
    and gives each block more generators than its box has monomials in any
    degree, so its rows outnumber its columns wherever it has any.
    """
    rng = exactalg.stream(seed, "template-oracle")
    r, j = (int(rng.integers(1, 4)), int(rng.integers(0, 6))) if tall else \
        (int(rng.integers(1, 5)), int(rng.integers(0, 8)))
    p = p or next(q for q in count(j + 1) if exactalg.is_prime(q))
    blocks = []
    for _ in range(int(rng.integers(1, 4))):
        nb = int(rng.integers(0, r + 1))
        bounds = tuple(int(x) for x in rng.integers(0, j + 1, size=nb))
        m = len(enumerate_constrained(r, j, bounds))
        s = 1 + max(count_constrained(r, e, bounds) for e in range(j + 1)) if tall else \
            int(rng.integers(1, 4))
        coeffs = rng.integers(0, p, size=(s, m))
        coeffs[rng.random(coeffs.shape) < 0.2] = 0
        blocks.append((bounds, coeffs))
    return HomogeneousSubspace(r, j, tuple(blocks), p)


@st.composite
def sparse_generators(draw):
    """(r, j, generators) with r <= 4, j <= 7 and up to 6 sparse generators.

    A generator may repeat the previous one's monomials, so runs of equal
    boxes occur; it may be empty, or have a coefficient that is 0 mod p.
    """
    r, j = draw(st.integers(1, 4)), draw(st.integers(0, 7))
    monos = enumerate_constrained(r, j)
    gens = []
    for _ in range(draw(st.integers(0, 6))):
        if gens and draw(st.booleans()):
            keys = list(gens[-1])
        else:
            keys = draw(st.lists(st.sampled_from(monos), max_size=4, unique=True))
        gens.append({m: draw(st.sampled_from([0, 1, -1, P]) | st.integers(0, P - 1))
                     for m in keys})
    return r, j, gens


def oracle_matrix(w, d):
    """The stacked cropped matrix of w at degree d, from apply_derivative.

    Rows run over blocks, then E of degree j-d inside the block's box, then
    generators; columns over the union of the blocks' degree-d boxes.
    """
    cols = sorted({m for b in w.blocks for m in enumerate_constrained(w.r, d, b.bounds)},
                  reverse=True)
    rows = []
    for b in w.blocks:
        support = enumerate_constrained(w.r, w.j, b.bounds)
        for ee in enumerate_constrained(w.r, w.j - d, b.bounds):
            for z in b.coeffs:
                g = apply_derivative(ee, {m: int(c) for m, c in zip(support, z)}, w.p)
                rows.append([g.get(m, 0) for m in cols])
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(cols))


def column_factorials(w, d):
    """D! mod p per column of w's degree-d matrix, as int64."""
    cols = sorted({m for b in w.blocks for m in enumerate_constrained(w.r, d, b.bounds)},
                  reverse=True)
    return np.array([prod(map(factorial, m)) % w.p for m in cols], dtype=np.int64)


def assembled(w, d):
    """The derivative matrix mod p: the gather times diag(1/D!)."""
    inv = [pow(int(f), -1, w.p) for f in column_factorials(w, d)]
    return hilbert_matrix(w, d).astype(np.int64) * np.array(inv, dtype=np.int64) % w.p


def assert_gather_is_scaled_oracle(w, d):
    """The gather is exactly oracle_matrix times diag(D!) mod p, in float64; returns the oracle."""
    want = oracle_matrix(w, d)
    got = hilbert_matrix(w, d)
    assert got.dtype == np.float64
    assert np.array_equal(got, want * column_factorials(w, d) % w.p)
    return want


def unbounded(w):
    """The forms of a one-block subspace over the unbounded box ()."""
    b = w.blocks[0]
    support = enumerate_constrained(w.r, w.j, b.bounds)
    return HomogeneousSubspace.from_sparse(
        w.r, w.j, [dict(zip(support, z)) for z in b.coeffs.tolist()], (), w.p)


def reference_build(generators, bounds, r, j, d, cropped, p=P):
    """A derivative matrix entry by entry: symbolic grid, dense matrix, indexes."""
    support = enumerate_constrained(r, j, bounds)
    index = {m: i for i, m in enumerate(support)}
    box = bounds if cropped else ()
    cols = enumerate_constrained(r, d, box)
    row_index = tuple((ee, i) for ee in enumerate_constrained(r, j - d, box)
                      for i in range(len(generators)))
    grid, dense = [], np.zeros((len(row_index), len(cols)), dtype=np.int64)
    for a, (ee, i) in enumerate(row_index):
        row = []
        for c, dd in enumerate(cols):
            jj = tuple(x + y for x, y in zip(ee, dd))
            if jj in index:
                n = derivative_coefficient(jj, ee)
                row.append((n, (i, jj)))
                dense[a, c] = n * int(generators[i][index[jj]]) % p
            else:
                row.append(None)
        grid.append(tuple(row))
    return lmatrix.SymbolicMatrix(tuple(grid)), dense, row_index, tuple(cols)


class TestDerivativeAction:
    def test_coefficient(self):
        assert derivative_coefficient((3, 2), (1, 0)) == 3
        assert derivative_coefficient((3, 2), (1, 2)) == 6
        assert derivative_coefficient((3, 2), (0, 3)) == 0
        assert derivative_coefficient((4,), (4,)) == 24

    def test_apply(self):
        f = {(3, 3, 0): 1}
        assert apply_derivative((1, 0, 0), f) == {(2, 3, 0): 3}
        assert apply_derivative((0, 0, 1), f) == {}
        assert apply_derivative((2, 2, 0), f) == {(1, 1, 0): 36}

    def test_apply_cancellation(self):
        f = {(2, 0): 1, (1, 1): -1}
        # d/dx1: 2 x1 - x2; d/dx2: -x1
        assert apply_derivative((1, 0), f) == {(1, 0): 2, (0, 1): -1}
        assert apply_derivative((0, 1), f) == {(1, 0): -1}

    def test_leibniz_free(self):
        # the operator X^E of full degree recovers n(J, E) on x^J alone
        f = {(2, 3): 5}
        assert apply_derivative((2, 3), f) == {(0, 0): 2 * 6 * 5}


class TestSubspace:
    def test_from_sparse_box_inference(self):
        w = HomogeneousSubspace.from_sparse(3, 6, [{(3, 3, 0): 1}])
        assert w.blocks[0].bounds == (3, 3, 0)
        with pytest.raises(ValueError):
            HomogeneousSubspace.from_sparse(3, 6, [{(3, 2, 0): 1}])

    def test_json_roundtrip(self):
        w = HomogeneousSubspace.from_sparse(3, 4, [{(2, 2, 0): 3, (0, 2, 2): 1}])
        back = HomogeneousSubspace.from_json(w.to_json())
        assert back.to_json() == w.to_json()
        assert [hilbert_value(back, d) for d in range(5)] == \
            [hilbert_value(w, d) for d in range(5)]

    def test_generator_runs_get_their_own_boxes(self):
        gens = [{(3, 3, 0): 1}, {(3, 3, 0): 2}, {(2, 4, 0): 2, (3, 3, 0): 0},
                {(2, 4, 0): 1, (3, 3, 0): 4}, {(3, 3, 0): 5}, {(0, 0, 6): P}]
        w = HomogeneousSubspace.from_sparse(3, 6, gens)
        # a term that is 0 mod p is dropped, so it widens no box
        assert [(b.bounds, len(b.coeffs)) for b in w.blocks] == \
            [((3, 3, 0), 2), ((2, 4, 0), 1), ((3, 4, 0), 1), ((3, 3, 0), 1), ((0, 0, 0), 1)]
        one = HomogeneousSubspace.from_sparse(3, 6, gens, bounds=(3, 4, 6))
        assert len(one.blocks) == 1 and len(one.blocks[0].coeffs) == 6
        assert hilbert_vector(w) == hilbert_vector(one)

    @given(gens=sparse_generators())
    @settings(max_examples=60, deadline=None)
    def test_split_matches_the_hull_box(self, gens):
        # The single block over the hull box is the oracle for the split.
        r, j, generators = gens
        hull = tuple(max((m[k] for g in generators for m in g), default=0) for k in range(r))
        w = HomogeneousSubspace.from_sparse(r, j, generators)
        one = HomogeneousSubspace.from_sparse(r, j, generators, bounds=hull)
        assert len(one.blocks) == 1
        assert hilbert_vector(w) == hilbert_vector(one)
        # to_json keeps the generators in order, with their nonzero terms
        out = w.to_json()
        assert [{tuple(t["monomial"]): t["coeff"] for t in g} for g in out["generators"]] == \
            [{m: c % P for m, c in g.items() if c % P} for g in generators]
        back = HomogeneousSubspace.from_json(out)
        assert back.to_json() == out
        assert [b.bounds for b in back.blocks] == [b.bounds for b in w.blocks]

    @pytest.mark.parametrize("generators", [[], [{}], [{}, {}], [{(4, 0, 0): P}]])
    def test_no_nonzero_term_gives_zero_h(self, generators):
        w = HomogeneousSubspace.from_sparse(3, 4, generators)
        assert hilbert_vector(w) == (0,) * 5
        assert HomogeneousSubspace.from_json(w.to_json()).to_json() == w.to_json()

    def test_prime_must_exceed_degree(self):
        with pytest.raises(ValueError):
            HomogeneousSubspace.from_sparse(2, 7, [{(7, 0): 1}], p=7)

    def test_socle_degree_is_bounded(self):
        big = 3037000493
        w = HomogeneousSubspace.from_sparse(1, apolarity.MAX_DEGREE, [], p=big)
        assert hilbert_vector(w, (0, 3)) == (0,) * 4
        with pytest.raises(ValueError, match="socle degree 65537 over the limit of 65536"):
            HomogeneousSubspace.from_sparse(1, apolarity.MAX_DEGREE + 1, [], p=big)

    def test_blocks_are_pairs_checked_by_the_subspace(self):
        # a block is (bounds, coeffs); the subspace states r and j once,
        # makes the coefficients 2-d int64 and checks their width
        w = HomogeneousSubspace(3, 4, (([2], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
                                       ((), np.zeros((2, 15), dtype=np.uint8))))
        assert all(type(b) is GeneratorBlock for b in w.blocks)
        assert [b.bounds for b in w.blocks] == [(2,), ()]
        assert [(b.coeffs.dtype, b.coeffs.shape) for b in w.blocks] == \
            [(np.int64, (1, 12)), (np.int64, (2, 15))]
        with pytest.raises(ValueError, match="width 14 != support size 15"):
            HomogeneousSubspace(3, 4, (((), np.ones((1, 14))),))
        with pytest.raises(ValueError, match="width 3 != support size 12"):
            HomogeneousSubspace(3, 4, (((2,), np.ones((1, 2, 3))),))
        with pytest.raises(ValueError, match="socle degree"):
            HomogeneousSubspace(3, 4, (((), np.ones((1, 14))),), p=3)


    @pytest.mark.parametrize("coeffs", [[[0.5, 0.7]], [[True, False]], [[1, True]],
                                        np.array([[1.0, 2.0]]), np.array([[True, False]]),
                                        np.array([[1, 0.5]], dtype=object)])
    def test_refuses_float_and_bool_coefficients(self, coeffs):
        # these were truncated: [[0.5, 0.7]] was held as [[0, 0]], and h was (0, 0)
        with pytest.raises(ValueError, match="coeff must be an integer"):
            HomogeneousSubspace(2, 1, (((), coeffs),))

    @pytest.mark.parametrize("coeffs", [[[1, 2]], [[np.int64(1), np.uint8(2)]],
                                        np.array([[1, 2]], dtype=np.int32),
                                        np.array([[1, 2]], dtype=object)])
    def test_takes_python_and_numpy_int_coefficients(self, coeffs):
        w = HomogeneousSubspace(2, 1, (((), coeffs),))
        assert w.blocks[0].coeffs.dtype == np.int64 and w.blocks[0].coeffs.tolist() == [[1, 2]]
        assert hilbert_vector(w) == (1, 1)

    @pytest.mark.parametrize("gen, what", [({(1, 0): 1.7}, "coeff"), ({(1, 0): True}, "coeff"),
                                           ({(1, 0): np.float64(2)}, "coeff"),
                                           ({(True, 0): 1}, "exponent"),
                                           ({(1.0, 0): 1}, "exponent"),
                                           ([((1, 0), 1.5), ((1, 0), 2)], "coeff")])
    def test_from_sparse_refuses_float_and_bool_terms(self, gen, what):
        # from_sparse(2, 1, [{(1, 0): 1.7}]) stored 1 and {(True, 0): 1} was
        # x^1; every pair is checked, a replaced one too
        with pytest.raises(ValueError, match="%s must be an integer" % what):
            HomogeneousSubspace.from_sparse(2, 1, [gen])

    def test_from_sparse_takes_numpy_ints_and_pairs(self):
        # a generator is a dict or a list of pairs, the last pair of a monomial winning
        w = HomogeneousSubspace.from_sparse(
            2, 1, [{(np.int64(1), 0): np.int64(3)}, [((0, 1), 2), ((0, 1), 5)]], bounds=())
        assert w.blocks[0].coeffs.tolist() == [[3, 0], [0, 5]]


class TestHilbert:
    def test_single_monomial(self):
        # Ann-quotient of x^a y^b: h(d) = #divisors of degree d
        w = HomogeneousSubspace.from_sparse(2, 5, [{(3, 2): 1}])
        assert hilbert_vector(w) == (1, 2, 3, 3, 2, 1)

    def test_generic_binary_form(self):
        # catalecticant matrices of a generic binary form have maximal rank
        coeffs = exactalg.sample((1, 8), 0, "binary-form")
        w = HomogeneousSubspace(2, 7, (((), coeffs),))
        assert hilbert_vector(w) == (1, 2, 3, 4, 4, 3, 2, 1)

    def test_out_of_range(self):
        w = HomogeneousSubspace.from_sparse(2, 3, [{(3, 0): 1}])
        assert hilbert_value(w, -1) == 0
        assert hilbert_value(w, 4) == 0

    def test_vector_range(self):
        w = HomogeneousSubspace.from_sparse(2, 5, [{(3, 2): 1}])
        assert hilbert_vector(w, (2, 4)) == (3, 3, 2)
        assert hilbert_vector(w, (-3, 2)) == (0, 0, 0, 1, 2, 3)
        assert hilbert_vector(w, (4, 3)) == ()
        with pytest.raises(ValueError, match="more than j"):
            hilbert_vector(w, (-3, 3))

    @given(seed=st.integers(0, 200), r=st.integers(2, 3),
           j=st.integers(2, 6), s=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_gorenstein_symmetry_and_bounds(self, seed, r, j, s):
        m = comb(j + r - 1, r - 1)
        coeffs = exactalg.sample((s, m), seed, "symmetry-test")
        w = HomogeneousSubspace(r, j, (((), coeffs),))
        h = hilbert_vector(w)
        assert h[0] <= 1 and h[j] <= s
        for d in range(j + 1):
            assert h[d] <= comb(d + r - 1, r - 1)
        if s == 1 and h[j] == 1:
            # a single form gives a symmetric h-vector
            assert h == h[::-1]


class TestBuildMatrix:
    def test_crop_preserves_rank(self):
        w = HomogeneousSubspace.from_sparse(3, 6, [{(3, 3, 0): 1}])
        whole = unbounded(w)
        for d in range(7):
            assert hilbert_value(w, d) == hilbert_value(whole, d)
            assert hilbert_matrix(w, d).shape[1] <= hilbert_matrix(whole, d).shape[1]

    def test_symbolic_matches_dense(self):
        coeffs = exactalg.sample((2, 4), 1, "symbolic-test")
        w = HomogeneousSubspace(2, 3, (((), coeffs),))
        sym = symbolic_matrix(2, 3, (), 1, 2)
        assignment = {}
        for i in range(2):
            for m, c in zip(enumerate_constrained(2, 3), coeffs[i]):
                assignment[(i, m)] = int(c)
        evaluated = lmatrix.evaluate_symbolic(sym.matrix, assignment, P)
        assert np.array_equal(evaluated, assembled(w, 1))

    def test_symbolic_is_l_matrix_with_pattern(self):
        sym = symbolic_matrix(3, 4, (2,), 2, 1)
        assert lmatrix.classify(sym.matrix).is_l_matrix
        assert lmatrix.verify_gq_pattern(sym.matrix, sym.structure)

    def test_structure_matches_count_formula(self):
        # r = 3, j = 4, Q = (2,), d = 2, s = 1: r_I = m(2, 2 - I) and
        # c_I = m(2, I), counted off the row and column lists
        sym = symbolic_matrix(3, 4, (2,), 2, 1)
        assert structure_of(sym) == counted_structure((2,), 3, 4, 2, 1) == \
            ((2,), {(0,): 3, (1,): 2, (2,): 1}, {(0,): 1, (1,): 2, (2,): 3})


class TestSumAndPredicate:
    def test_splice_example(self):
        v = HomogeneousSubspace.from_sparse(3, 6, [{(3, 3, 0): 1}])
        w = HomogeneousSubspace.from_sparse(3, 6, [{(3, 0, 3): 1}])
        for d in range(7):
            assert sum_space_dimension(v, w, d)[1] == (d >= 4)

    def test_ambient_mismatch(self):
        v = HomogeneousSubspace.from_sparse(2, 3, [{(3, 0): 1}])
        w = HomogeneousSubspace.from_sparse(2, 4, [{(4, 0): 1}])
        with pytest.raises(ValueError):
            sum_space_dimension(v, w, 1)

    def test_max_rank_predicate(self):
        rep = max_rank_predicate((), 2, 7, 3, s=1)
        assert (rep.rows, rep.cols) == (5, 4)
        assert rep.guaranteed_full_rank
        rep = max_rank_predicate((), 2, 7, 5, s=1)
        assert not rep.guaranteed_full_rank

    @given(r=st.integers(1, 5), j=st.integers(0, 8),
           bounds=st.lists(st.integers(0, 8), max_size=5), s=st.integers(1, 3),
           seed=st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_maximal_rank_on_built_matrices(self, r, j, bounds, s, seed):
        # The paper's claim on the matrices the program builds: for generic
        # generators in one box with a coordinate left free, h(d) =
        # min(rows, cols) at every degree.  A miss may be a non-generic
        # draw, so re-seed as verify_drop does.
        bounds = tuple(min(q, j) for q in bounds[:r])
        m = count_constrained(r, j, bounds)
        assume(m > 0 and sum(q < j for q in bounds) < r)
        want = [min(rep.rows, rep.cols)
                for rep in (max_rank_predicate(bounds, r, j, d, s) for d in range(j + 1))]
        for attempt in range(4):
            w = HomogeneousSubspace(
                r, j, ((bounds, exactalg.sample((s, m), seed + attempt, "max-rank")),))
            got = [hilbert_value(w, d) for d in range(j + 1)]
            if got == want:
                break
        assert got == want

    @pytest.mark.parametrize("r,j,bounds,d,rank", [(3, 7, (2, 4, 2), 6, 5),
                                                  (4, 8, (4, 1, 4, 1), 6, 15)])
    def test_no_maximal_rank_when_every_coordinate_is_bounded(self, r, j, bounds, d, rank):
        # Square matrices one short of full rank for every seed and prime
        # tried; so the predicate guarantees nothing for such a box.
        rep = max_rank_predicate(bounds, r, j, d, s=2)
        assert rep.rows == rep.cols == rank + 1 and not rep.guaranteed_full_rank
        m = count_constrained(r, j, bounds)
        for seed in range(5):
            w = HomogeneousSubspace(r, j, ((bounds, exactalg.sample((2, m), seed, "max-rank")),))
            assert hilbert_value(w, d) == rank

    @given(r=st.integers(1, 3), j=st.integers(1, 5),
           bounds=st.lists(st.integers(0, 5), max_size=3), s=st.integers(1, 2),
           seed=st.integers(0, 10 ** 6), p=st.sampled_from([7, 11, 13, P]))
    @settings(max_examples=60, deadline=None)
    def test_rank_mod_p_at_most_rational_rank(self, r, j, bounds, s, seed, p):
        # The integer derivative matrix n(J, E) z_{i,J}, with small integer
        # z, reduces mod p to the matrix the template assembles over GF(p);
        # reduction can only lose rank.
        bounds = tuple(min(q, j) for q in bounds[:r])
        support = enumerate_constrained(r, j, bounds)
        assume(support)
        index = {m: k for k, m in enumerate(support)}
        z = exactalg.sample((s, len(support)), seed, "rational-rank", p=5)
        w = HomogeneousSubspace(r, j, ((bounds, z),), p)
        for d in range(j + 1):
            sym = symbolic_matrix(r, j, bounds, d, s).matrix
            ints = np.array([[0 if cell is None else cell[0] * int(z[cell[1][0], index[cell[1][1]]])
                              for cell in row] for row in sym.entries],
                            dtype=np.int64).reshape(sym.nrows, sym.ncols)
            assert np.array_equal(ints % p, assembled(w, d))
            assert exactalg.rank(ints, p) <= rational_rank(ints)


class TestSizeGuard:
    def test_counted_shapes_match_the_built_ones(self):
        # Rows are counted exactly.  Columns are exact for nested boxes (the
        # E box P lies in the F box in F1 and F2) and never below the truth.
        for fam, kw, _, _ in families.GOLDEN:
            prm = families.require_valid(fam, **kw)
            w = families.construct(prm, 0)
            crops = tuple((b.bounds, len(b.coeffs)) for b in w.blocks)
            for d in (prm.i, w.j):
                rows, cols = apolarity.check_cells(w.r, w.j, d, crops)
                shape = hilbert_matrix(w, d).shape
                assert rows == shape[0] and cols >= shape[1]
                assert cols == shape[1] or fam not in ("F1", "F2")

    def test_limit_admits_the_largest_family_matrix(self, monkeypatch):
        # F1 (a, i) = (30, 60) builds 2476 x 1891 at degree 60
        prm = families.require_valid("F1", a=30, i=60, s=4)
        crops = ((prm.p_bounds, prm.s), (prm.q_bounds, prm.u))
        assert apolarity.check_cells(prm.r, prm.j, 60, crops) == (2476, 1891)
        for d in range(61, 64):
            apolarity.check_cells(prm.r, prm.j, d, crops)
        monkeypatch.setattr(apolarity, "MAX_CELLS", 2476 * 1891 - 1)
        with pytest.raises(ValueError, match="degree-60 derivative matrix would be 2476 x 1891"):
            apolarity.check_cells(prm.r, prm.j, 60, crops)

    def test_monomial_lists_are_bounded(self, monkeypatch):
        # F1 (30, 60) enumerates the longest lists admitted: its unbounded
        # support of C(92, 2) = 4186 degree-90 monomials
        prm = families.require_valid("F1", a=30, i=60, s=4)
        crops = ((prm.p_bounds, prm.s), (prm.q_bounds, prm.u))
        for d in range(prm.j + 1):
            apolarity.check_cells(prm.r, prm.j, d, crops)
        monkeypatch.setattr(apolarity, "MAX_MONOMIALS", 4185)
        with pytest.raises(ValueError, match="enumerate 4186 monomials in one list"):
            apolarity.check_cells(prm.r, prm.j, 60, crops)

    def test_refused_before_enumeration(self):
        gen = [{(30,) + (0,) * 11: 1}]
        with mock.patch.object(multiindex, "_enumerate_cached", side_effect=AssertionError):
            with pytest.raises(ValueError, match="1 x 3159461968"):
                HomogeneousSubspace.from_sparse(12, 30, gen, bounds=(30,) * 12)


class TestDerivativeTemplate:
    @given(seed=st.integers(0, 10 ** 6), tall=st.booleans(),
           p=st.sampled_from([P, LAST_FLOAT_PRIME, FIRST_INT64_PRIME, None]))
    @settings(max_examples=60, deadline=None)
    def test_matches_sparse_oracle(self, seed, tall, p):
        # the last prime of the float64 kernel, the first of the int64 one,
        # and (None) the least prime above j, on wide and tall subspaces;
        # hilbert_value ranks the float gather, the oracle its int matrix
        w = random_blocks(seed, p, tall)
        for d in range(w.j + 1):
            want = assert_gather_is_scaled_oracle(w, d)
            assert hilbert_value(w, d) == exactalg.rank(want, w.p)

    def test_one_template_serves_every_prime(self):
        # positions do not depend on p: after the first prime, no degree
        # builds a template again, and at each prime the gather is still
        # exactly the oracle times diag(D!) mod p
        coeffs = exactalg.sample((2, len(enumerate_constrained(3, 4, (3,)))), 4,
                                 "two-primes", p=11)
        templates = [derivative_template(3, 4, ((3,),), d) for d in range(5)]
        misses = derivative_template.cache_info().misses
        for p in (11, P, 101, 11):
            w = HomogeneousSubspace(3, 4, (((3,), coeffs),), p)
            for d in range(5):
                assert derivative_template(3, 4, ((3,),), d) is templates[d]
                assert_gather_is_scaled_oracle(w, d)
        assert derivative_template.cache_info().misses == misses

    def test_refuses_codes_beyond_int64(self):
        # 4^40 > 2^63: mixed-radix codes would wrap and collide, so the
        # subspace is refused when it is built
        with pytest.raises(ValueError, match="overflow"):
            HomogeneousSubspace.from_sparse(
                40, 3, [{(1, 1, 1) + (0,) * 37: 1}, {(0,) * 39 + (3,): 1}], bounds=())

    @pytest.mark.parametrize("p", [211, 1009, P])
    def test_factorial_tables(self, p):
        fact = apolarity._factorials(200, p)
        assert fact.tolist() == [factorial(k) % p for k in range(201)]
        with pytest.raises(ValueError):
            fact[0] = 1
        # J! per box monomial, in support order, from that one table
        for r, j, bounds in ((3, 12, (5, 2)), (1, 200, ()), (4, 7, (0, 7, 1, 3))):
            got = apolarity._support_factorials(r, j, bounds, p)
            assert got.tolist() == [prod(map(factorial, m)) % p
                                    for m in enumerate_constrained(r, j, bounds)]

    def test_long_single_variable_form(self):
        # x^10000 with r = 1: h is 1 at each of 10001 degrees, one template
        # per degree, and the k! table and the box's J! are built once, not
        # per template
        code = ("from levelalg import apolarity\n"
                "w = apolarity.HomogeneousSubspace.from_sparse(1, 10000, [{(10000,): 1}])\n"
                "assert apolarity.hilbert_vector(w) == (1,) * 10001\n"
                "assert apolarity._factorials.cache_info().misses == 1\n"
                "assert apolarity._support_factorials.cache_info().misses == 1\n")
        env = dict(os.environ, PYTHONPATH=str(Path(apolarity.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=10)

    def test_cached_arrays_are_read_only(self):
        w = random_blocks(7)
        t = derivative_template(w.r, w.j, tuple(b.bounds for b in w.blocks), 1)
        arrays = [t.col_keys] + [v for part in t.blocks for v in vars(part).values()
                                 if isinstance(v, np.ndarray)]
        arrays += [apolarity._support_factorials(w.r, w.j, b.bounds, w.p) for b in w.blocks]
        assert len(arrays) > 1
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = 0

    def test_columns_of_several_blocks(self):
        # Bernstein t4 at d = 8: four blocks whose degree-8 columns overlap.
        # The template's columns are their union in descending lex order,
        # which is ascending key order, and each block gathers zeros in the
        # union columns outside its own box.
        w = families.special_construction("bernstein_t4")
        bounds = tuple(b.bounds for b in w.blocks)
        block_cols = [enumerate_constrained(5, 8, box) for box in bounds]
        union = sorted(set().union(*block_cols), reverse=True)
        t = derivative_template(5, 16, bounds, 8)
        assert len(t.col_keys) == len(union) < sum(map(len, block_cols))
        assert t.col_keys.tolist() == [-sum(x * 17 ** (4 - k) for k, x in enumerate(m))
                                       for m in union]
        g, top = t.gather([b.coeffs for b in w.blocks]), 0
        for part, b, cols in zip(t.blocks, w.blocks, block_cols):
            rows = g[top:top + len(part.row_keys) * len(b.coeffs)]
            outside = [k for k, m in enumerate(union) if m not in cols]
            assert outside and not rows[:, outside].any()
            top += len(rows)
        assert top == len(g)

    @pytest.mark.parametrize("r,j,bounds,s", [(3, 6, (3, 3), 2), (2, 5, (), 1),
                                              (4, 5, (2, 1, 2), 3), (3, 4, (4, 0, 4), 1)])
    def test_build_matrix_matches_reference(self, r, j, bounds, s):
        # symbolic_matrix against the reference grid and indexes; the
        # template's assembly of the box subspace against the cropped dense
        # matrix, and of its re-expression over () against the uncropped one
        m = len(enumerate_constrained(r, j, bounds))
        coeffs = exactalg.sample((s, m), r + j, "build-reference")
        w = HomogeneousSubspace(r, j, ((bounds, coeffs),))
        for d in range(j + 1):
            for cropped, v in ((True, w), (False, unbounded(w))):
                _, dense, _, cols = reference_build(coeffs, bounds, r, j, d, cropped)
                assert np.array_equal(assembled(v, d), dense)
                assert hilbert_matrix(v, d).shape[1] == len(cols)
            sym, _, rows, cols = reference_build(coeffs, bounds, r, j, d, True)
            got = symbolic_matrix(r, j, bounds, d, s)
            assert got.matrix == sym
            assert (got.row_index, got.col_index) == (rows, cols)
            assert structure_of(got) == counted_structure(bounds, r, j, d, s)


class TestStrictJson:
    @pytest.mark.parametrize("obj", [
        {"r": 2, "j": 3, "generators": [[{"monomial": [3, 0], "coeff": 1.5}]]},
        {"r": 2, "j": 3, "generators": [[{"monomial": [3, 0], "coeff": True}]]},
        {"r": 2, "j": 3, "generators": [[{"monomial": [3, 0], "coeff": "1"}]]},
        {"r": 2.0, "j": 3, "generators": [[{"monomial": [3, 0], "coeff": 1}]]},
        {"r": 2, "j": -3, "generators": [[{"monomial": [3, 0], "coeff": 1}]]},
        {"r": 2, "j": 3, "generators": [[{"monomial": [3, 0, 0], "coeff": 1}]]},
        {"r": 3, "j": 3, "generators": [[{"monomial": [3, 0], "coeff": 1}]]},
        {"r": 2, "j": 3, "generators": [[{"monomial": [3.0, 0], "coeff": 1}]]},
        {"r": 2, "j": 3, "constraint": {"bounds": [True]},
         "generators": [[{"monomial": [1, 2], "coeff": 1}]]},
        [1, 2],
    ])
    def test_rejects(self, obj):
        with pytest.raises(ValueError):
            HomogeneousSubspace.from_json(obj)

    @pytest.mark.parametrize("gens, err", [
        ([[{"monomial": [1.5, 0], "coeff": 1}, {"monomial": [3, 0]}]], ValueError),
        ([[{"monomial": [3, 0], "coeff": True}], 5], ValueError),
        ([[{"monomial": [3, 0]}, {"monomial": [1.5, 0], "coeff": 1}]], KeyError),
    ])
    def test_terms_checked_in_order(self, gens, err):
        # from_sparse checks each term as from_json reads it, so the error
        # is the first bad term's, whatever the later terms hold
        with pytest.raises(err):
            HomogeneousSubspace.from_json({"r": 2, "j": 3, "generators": gens})

    def test_negative_and_large_coefficients_reduce_mod_p(self):
        w = HomogeneousSubspace.from_json(
            {"r": 2, "j": 3, "generators": [[{"monomial": [3, 0], "coeff": -1},
                                             {"monomial": [1, 2], "coeff": 10 ** 30}]]})
        assert w.blocks[0].coeffs.tolist() == [[P - 1, 0, 10 ** 30 % P]]

    def test_refuses_prime_beyond_int64_kernel(self):
        with pytest.raises(ValueError):
            HomogeneousSubspace.from_sparse(2, 3, [{(3, 0): 1}], p=4294967311)
