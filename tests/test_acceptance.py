"""End-to-end acceptance checks.

Each test pins one of the headline guarantees: the six golden family
verifications with their published Hilbert values, the codimension-5
type-1 h-vector and its type-2/3/4 shifts, the nonsingularity-criterion /
determinant equivalence, the topset positivity and averaging properties,
the closed-form counting formulas, crop-rank and block-pattern invariants,
the sum-splitting example, type computations across seeds, and the
minimum-type sweep for the odd-a family.
"""

import pytest

from levelalg import apolarity, families, selfcheck
from levelalg.families import (BERNSTEIN_H, GOLDEN, f2_threshold,
                               min_sufficient_s, require_valid,
                               special_construction, verify_drop)

SINGLE_DROP = ("F2", "G2", "G3")  # the families whose drop spans one degree


class TestCriterion1GoldenFamilies:
    @pytest.mark.parametrize("fam,kw,values,_t", GOLDEN,
                             ids=[g[0] for g in GOLDEN])
    def test_golden_verification(self, fam, kw, values, _t):
        params = require_valid(fam, **kw)
        rep = verify_drop(params, seed=0, retries=3)
        assert rep.verdict != "mismatch", rep.to_json()
        assert rep.measured == values
        want = "single_drop" if fam in SINGLE_DROP else "double_drop"
        assert rep.verdict == want


class TestCriterion2Bernstein:
    def test_type1_h_vector(self):
        w = special_construction("bernstein_t1", seed=0)
        assert apolarity.hilbert_vector(w) == BERNSTEIN_H

    @pytest.mark.parametrize("k,kind", [(2, "bernstein_t2"),
                                        (3, "bernstein_t3"),
                                        (4, "bernstein_t4")])
    def test_higher_type_shifts(self, k, kind):
        h = apolarity.hilbert_vector(special_construction(kind, seed=0))
        assert h[0] == 1 and h[1] == 5
        for d in range(2, 15):
            assert h[d] == BERNSTEIN_H[d] + (k - 1)
        assert h[16] == k


class TestCriterion3CriterionVsDeterminant:
    def test_200_matrices(self):
        rep = selfcheck.run_gq3_suite(n_matrices=200, seed=0)
        assert rep["passed"], rep["failures"]
        assert rep["matrices"] >= 200


class TestCriterion4Tpp:
    def test_all_shapes(self):
        rep = selfcheck.run_tpp_suite(phis_per_poset=100, seed=0)
        assert rep["passed"], rep["failures"]
        assert rep["posets"] == len(selfcheck.TPP_SHAPES)


class TestCriterion5Counting:
    def test_1000_triples(self):
        rep = selfcheck.run_count_suite(n_triples=1000, seed=0)
        assert rep["passed"], rep["failures"]
        assert rep["closed_form_checked"] >= 500
        assert rep["corrections_checked"] >= 100


class TestCriterion6CropRank:
    def test_100_subspaces(self):
        rep = selfcheck.run_crop_suite(n_subspaces=100, seed=0)
        assert rep["passed"], rep["failures"]
        assert rep["subspaces"] >= 100


class TestCriterion7Splice:
    def test_splits_only_in_high_degrees(self):
        rep = selfcheck.run_splice_suite()
        assert rep["passed"], rep["failures"]


class TestCriterion8Type:
    def test_first_seed(self):
        for fam, kw, _vals, t in GOLDEN:
            params = require_valid(fam, **kw)
            assert families.compute_type(params, seed=0) == t, fam

    def test_95_percent_of_100_seeds(self):
        for fam, kw, _vals, t in GOLDEN:
            params = require_valid(fam, **kw)
            hits = sum(families.compute_type(params, seed=s) == t
                       for s in range(100))
            assert hits >= 95, (fam, hits)


class TestCriterion9MinimumTypeSweep:
    def test_odd_a_sweep(self):
        hits = []
        for a in range(7, 221, 2):
            i = f2_threshold(a)
            if min_sufficient_s("F2", a, i=i) == 10:
                hits.append(a)
        assert hits == [205, 209] + list(range(213, 221, 2))
