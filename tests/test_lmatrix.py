"""Symbolic PV/L-matrices, block patterns, and the nonsingularity criterion."""

from functools import cache
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelalg import apolarity, exactalg
from levelalg.gqposet import GQPoset, TopsetGuardExceeded, dominates
from levelalg.lmatrix import (GQ_SHAPES, GQBlockStructure, SymbolicMatrix, classify,
                              det_is_nonzero, exact_det_polynomial,
                              gq3_criterion, random_gq_structure,
                              random_l_matrix, verify_gq_pattern)
from levelalg.multiindex import count_constrained


CONDITIONS = ("topsets", "topsets_no_bottom", "bottomsets", "bottomsets_no_top")


def M(grid):
    return SymbolicMatrix.from_json(grid)


@cache
def brute_topsets(q):
    """Every up-set of G_q as a frozenset, by checking each subset (tiny posets; cached)."""
    els = GQPoset(q).elements
    subsets = chain.from_iterable(combinations(els, k) for k in range(len(els) + 1))
    return tuple(frozenset(s) for s in subsets
                 if all(x in s for e in s for x in els if dominates(x, e)))


def family_criterion(structure, condition="topsets"):
    """gq3_criterion over explicit families of frozensets (oracle)."""
    if not structure.is_square:
        raise ValueError("criterion requires a square structure")
    poset = structure.poset
    elements = frozenset(poset.elements)
    top, bottom = (0,) * len(poset.q), poset.q
    tops = [t for t in brute_topsets(poset.q) if t and t != elements]
    if condition == "topsets":
        families, sign = tops, 1
    elif condition == "topsets_no_bottom":
        families = [t for t in tops if bottom not in t]
        families.append(elements - {bottom})
        families, sign = [f for f in families if f], 1
    elif condition == "bottomsets":
        families, sign = [elements - t for t in tops], -1
    elif condition == "bottomsets_no_top":
        bots = [elements - t for t in tops if top not in elements - t]
        bots.append(elements - {top})
        families, sign = [f for f in bots if f], -1
    else:
        raise ValueError("unknown condition %r" % (condition,))
    return all(sign * sum(structure.excess(e) for e in f) >= 0 for f in families)


def pairwise_moving_left(m):
    """The variables whose every two occurrences, taken in row-major order,
    have the second in a strictly lower row and strictly further left (oracle)."""
    places = {}
    for i, row in enumerate(m.entries):
        for j, cell in enumerate(row):
            if cell is not None:
                places.setdefault(cell[1], []).append((i, j))
    return {v for v, ps in places.items()
            if all(r1 < r2 and c1 > c2 for (r1, c1), (r2, c2) in combinations(ps, 2))}


class TestSymbolicMatrix:
    def test_json_roundtrip(self):
        grid = [[0, [2, "x"]], [[1, "y"], 0]]
        m = M(grid)
        assert m.to_json() == grid
        assert m.nrows == 2 and m.ncols == 2
        assert m.variables == {"x", "y"}

    def test_validation(self):
        with pytest.raises(ValueError):
            SymbolicMatrix((((1, "x"),), ((1, "x"), (1, "y"))))
        with pytest.raises(ValueError):
            SymbolicMatrix((((0, "x"),),))
        # lam is an int >= 1 (not a float or bool), the variable a string
        for grid in ([[[1.5, "x"]]], [[[True, "x"]]], [[[0, "x"]]], [[[1, ["x"]]]],
                     [[[1]]], [[[1, "x", 2]]], [[0.0]], [[False]]):
            with pytest.raises(ValueError):
                M(grid)


class TestClassify:
    def test_l_matrix(self):
        # x occurs at (0,1) and (1,0): lower row, strictly further left
        m = M([[[1, "y"], [1, "x"]], [[1, "x"], [2, "z"]]])
        cls = classify(m)
        assert cls.is_l_matrix
        assert cls.moving_left_variables == {"x", "y", "z"}

    def test_not_moving_left(self):
        # x repeats inside one row
        m = M([[[1, "x"], [1, "x"]]])
        cls = classify(m)
        assert not cls.is_l_matrix
        assert "x" not in cls.moving_left_variables
        # x moves right going down
        m = M([[[1, "x"], 0], [0, [1, "x"]]])
        assert not classify(m).is_l_matrix

    @given(rows=st.integers(1, 5), cols=st.integers(1, 5), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_oracle(self, rows, cols, data):
        # a few variables over a random grid: L-matrices and others alike
        cell = st.one_of(st.just(0), st.tuples(st.just(1), st.sampled_from("xyz")).map(list))
        m = M(data.draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows)))
        cls = classify(m)
        assert cls.moving_left_variables == pairwise_moving_left(m)
        assert cls.is_l_matrix == (cls.moving_left_variables == m.variables)

    def test_oracle_sees_l_matrices(self):
        # the generator's L-matrices move left under the pairwise definition too
        rng = exactalg.stream(0, "test-classify")
        for _ in range(50):
            m = random_l_matrix(random_gq_structure(rng), rng)
            assert classify(m).is_l_matrix
            assert pairwise_moving_left(m) == m.variables


class TestBlockStructure:
    def test_orders_and_spans(self):
        p = GQPoset((1,))
        st = GQBlockStructure(p, {(0,): 2, (1,): 1}, {(0,): 1, (1,): 2})
        # block rows (1,), (0,) of 1 and 2 rows; block columns (0,), (1,)
        # of 1 and 2 columns; only (1,) over (0,) is a zero block
        assert st.pattern().tolist() == [[False, True, True],
                                         [True, True, True],
                                         [True, True, True]]
        assert st.is_square
        assert st.excess((0,)) == 1 and st.excess((1,)) == -1

    def test_negative_sizes_rejected(self):
        p = GQPoset((1,))
        with pytest.raises(ValueError):
            GQBlockStructure(p, {(0,): -1, (1,): 1}, {})


class TestPattern:
    def test_pattern_verification(self):
        # G_(1,): rows (1,), (0,); cols (0,), (1,); (0,) dominates both,
        # (1,) dominates only itself -> lower-left zero block
        p = GQPoset((1,))
        st = GQBlockStructure(p, {(0,): 1, (1,): 1}, {(0,): 1, (1,): 1})
        good = M([[0, [1, "a"]], [[1, "b"], [1, "c"]]])
        bad = M([[[1, "a"], [1, "b"]], [[1, "c"], [1, "d"]]])
        assert verify_gq_pattern(good, st)
        assert not verify_gq_pattern(bad, st)
        with pytest.raises(ValueError):
            verify_gq_pattern(M([[0]]), st)

    def test_pattern_matches_cell_reference(self):
        # cell (i, j) is nonzero iff its row block dominates its column block
        rng = exactalg.stream(0, "test-pattern")
        for _ in range(100):
            st = random_gq_structure(rng)
            row_blocks = [e for e in reversed(st.poset.elements) for _ in range(st.r[e])]
            col_blocks = [e for e in st.poset.elements for _ in range(st.c[e])]
            assert st.pattern().tolist() == [[dominates(a, b) for b in col_blocks]
                                             for a in row_blocks]


class TestDeterminant:
    def test_exact_polynomial(self):
        m = M([[[1, "a"], [1, "b"]], [[1, "c"], [1, "d"]]])
        assert exact_det_polynomial(m) == {("a", "d"): 1, ("b", "c"): -1}

    def test_symbolic_cancellation(self):
        # equal products on the diagonal and antidiagonal cancel exactly
        m = M([[[1, "a"], [1, "a"]], [[1, "b"], [1, "b"]]])
        assert exact_det_polynomial(m) == {}
        assert not det_is_nonzero(m, "exact")
        assert not det_is_nonzero(m, "randomized")

    def test_randomized_agrees(self):
        m = M([[[1, "a"], 0], [0, [2, "b"]]])
        assert det_is_nonzero(m, "exact")
        assert det_is_nonzero(m, "randomized")

    def test_guards(self):
        with pytest.raises(ValueError):
            det_is_nonzero(M([[0, 0]]))
        big = SymbolicMatrix(tuple(tuple((1, "v%d%d" % (i, j))
                                         for j in range(8)) for i in range(8)))
        with pytest.raises(ValueError):
            exact_det_polynomial(big)


class TestCriterion:
    def test_known_values(self):
        p = GQPoset((1,))
        # excess -1 on the topset {(0,)} -> singular pattern
        st = GQBlockStructure(p, {(0,): 0, (1,): 2}, {(0,): 1, (1,): 1})
        assert not gq3_criterion(st)
        # balanced blocks -> nonsingular
        st = GQBlockStructure(p, {(0,): 1, (1,): 1}, {(0,): 1, (1,): 1})
        assert gq3_criterion(st)

    def test_requires_square(self):
        p = GQPoset((1,))
        st = GQBlockStructure(p, {(0,): 2, (1,): 1}, {(0,): 1, (1,): 1})
        with pytest.raises(ValueError):
            gq3_criterion(st)

    def test_matches_det(self):
        rng = exactalg.stream(3, "test-gq3")
        for _ in range(40):
            st = random_gq_structure(rng)
            m = random_l_matrix(st, rng)
            assert classify(m).is_l_matrix
            assert verify_gq_pattern(m, st)
            assert gq3_criterion(st) == det_is_nonzero(m, "exact")

    def test_holds_on_a_singular_derivative_matrix(self):
        # The scope the module docstring states: every coordinate bounded
        # below j, the derivative factors cancel, and the criterion holds
        # on a 6 x 6 L-matrix with the pattern whose determinant is 0.  Its
        # GF(p) rank is 5 at any coefficients, so h(4) = 5, not 6.
        r, j, box, d, s = 3, 5, (2, 2, 2), 4, 2
        width = count_constrained(r, j, box)
        sym = apolarity.symbolic_matrix(r, j, box, d, s)
        m = sym.matrix
        assert (m.nrows, m.ncols) == (6, 6)
        assert classify(m).is_l_matrix and verify_gq_pattern(m, sym.structure)
        assert gq3_criterion(sym.structure)
        assert exact_det_polynomial(m) == {}
        assert not det_is_nonzero(m, "randomized")
        for seed in range(3):
            z = exactalg.sample((s, width), seed, "singular-derivative")
            w = apolarity.HomogeneousSubspace(r, j, ((box, z),))
            assert apolarity.hilbert_value(w, d) == 5

    def test_matches_det_on_derivative_matrices(self):
        # Every square symbolic derivative matrix of 1-7 rows with r <= 3,
        # 1 <= j <= 5, s <= 3, any bound tuple and any d; a box whose degree-j
        # support is empty gives the zero matrix and is skipped.
        free, bounded, singular, refused = 0, 0, [], []
        for r, j in product(range(1, 4), range(1, 6)):
            boxes = (box for nb in range(r + 1)
                     for box in product(range(j + 1), repeat=nb))
            for box, s, d in product(boxes, range(1, 4), range(j + 1)):
                n = s * count_constrained(r, j - d, box)
                if not (1 <= n <= 7 and n == count_constrained(r, d, box)
                        and count_constrained(r, j, box)):
                    continue
                sym = apolarity.symbolic_matrix(r, j, box, d, s)
                assert classify(sym.matrix).is_l_matrix
                assert verify_gq_pattern(sym.matrix, sym.structure)
                try:
                    assert gq3_criterion(sym.structure)
                except TopsetGuardExceeded:
                    refused.append((r, j, box, s, d))
                    continue
                nonzero = det_is_nonzero(sym.matrix, "exact")
                if len(box) < r or max(box) >= j:  # a free coordinate
                    free += 1
                    assert nonzero
                else:
                    bounded += 1
                    if not nonzero:
                        singular.append((r, j, box, s, d))
        assert (free, bounded) == (592, 395)
        assert singular == [(3, 5, (2, 2, 2), 2, 4)]
        # the criterion runs on the elements with a block, so no G_Q is too big
        assert refused == []

    @given(seed=st.integers(0, 10 ** 6), scale=st.sampled_from([1, 7, 2 ** 61]))
    @settings(max_examples=150, deadline=None)
    def test_matches_family_oracle(self, seed, scale):
        # random_gq_structure's structures, every block scaled; 2^61 leaves int64
        s = random_gq_structure(exactalg.stream(seed, "test-gq3-oracle"))
        s = GQBlockStructure(s.poset, {e: scale * x for e, x in s.r.items()},
                             {e: scale * x for e, x in s.c.items()})
        for cond in CONDITIONS:
            assert gq3_criterion(s) == family_criterion(s, cond)

    @given(q=st.sampled_from(GQ_SHAPES + ((2, 2), (1, 1, 2))), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_family_oracle_any_sizes(self, q, data):
        # arbitrary block sizes, made square unless the draw says otherwise;
        # a non-square structure is refused by both
        poset = GQPoset(q)
        sizes = st.lists(st.integers(0, 4), min_size=len(poset), max_size=len(poset))
        r, c = data.draw(sizes), data.draw(sizes)
        square = data.draw(st.booleans())
        gap = sum(r) - sum(c)
        if square and gap:
            (c if gap > 0 else r)[-1] += abs(gap)
        s = GQBlockStructure(poset, dict(zip(poset.elements, r)), dict(zip(poset.elements, c)))
        for cond in CONDITIONS:
            if s.is_square:
                assert gq3_criterion(s) == family_criterion(s, cond)
            else:
                with pytest.raises(ValueError, match="square"):
                    family_criterion(s, cond)
        if not s.is_square:
            with pytest.raises(ValueError, match="square"):
                gq3_criterion(s)
