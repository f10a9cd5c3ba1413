"""Family validation, predictions, constructions, and the catalog."""

from math import comb, isqrt
from unittest import mock

import numpy as np
import pytest

from levelalg import apolarity, families
from levelalg.families import (BERNSTEIN_H, FAMILIES, FamilyError, existence_catalog,
                               extend_codim, f2_threshold, g3_socle_shift,
                               min_sufficient_s, predicted_h, realize_recipe,
                               require_valid, special_construction,
                               validate, validate_json, verify_drop)


def theorem_min_s(family, a, b=None, c=None, i=None):
    """The paper's per-family closed forms for min_sufficient_s (none for G3)."""
    def ceil_div(x, y):
        return -(-x // y)
    if family == "F1":
        return ceil_div(a * (2 * i - a + 9), a * a - 3 * a + 2)
    if family == "F2":
        return ceil_div(4 * a * (2 * i - a + 7), (a - 1) * (a - 3))
    if family == "G1":
        return ceil_div(2 * i - a - b + 10, 2 * a * b - a - b - 2)
    if family == "G2":
        if a == 2:
            return ceil_div(a * b * (2 * i - a - b + 8),
                            a * b * (a * b - a - b) + 2)
        return ceil_div(2 * i - a - b + 8, a * b - a - b)
    if family == "H1":
        return ceil_div(2 * i - a - b - c + 11, 2 * a * b * c - a - b - c - 1)
    raise FamilyError("no closed form for %r" % (family,))


def theorem_h(p, d):
    """The paper's per-family closed forms for h(d) = h_E(d) + h_F(d)."""
    e = p.j - d
    fam, a, b, c = p.family, p.a, p.b, p.c
    if fam in ("F1", "F2"):
        h_e = p.delta * (2 * d - a + 3) // 2
    elif fam in ("G1", "G2", "G3"):
        h_e = p.delta * (2 * d - a - b + 4) // 2
    else:
        h_e = p.delta * (2 * d - a - b - c + 5) // 2
    if fam in ("F1", "G1", "H1"):
        h_f = comb(e + 2, 2)
    elif fam == "F2":
        h_f = 2 * comb(e + 2, 2)
    elif fam == "G2":
        h_f = (e + 1) ** 2
    else:
        h_f = comb(e + 3, 3)
    return h_e + h_f


def theorem_deltas(p, d):
    """The paper's per-family closed forms for (Delta_d, delta_d)."""
    e = p.j - d
    if p.family in ("F1", "G1", "H1"):
        small = -(e + 1)
    elif p.family == "F2":
        small = -2 * (e + 1)
    elif p.family == "G2":
        small = -(2 * e + 1)
    else:
        small = -comb(e + 2, 2)
    return p.delta, small


def theorem_g3_bound(a, b, i):
    """The paper's G3 space bound ab(2i-a-b+4)/2 + C(m+3,3) <= C(i+3,3), as
    the violation `validate` reports, or None when it holds."""
    lhs = a * b * (2 * i - a - b + 4) // 2 + comb(g3_socle_shift(a, b) + 3, 3)
    if lhs > comb(i + 3, 3):
        return "G3 space bound fails: %d > %d" % (lhs, comb(i + 3, 3))
    return None


def socle_shift_by_counting(a, b):
    m = 0
    while (m + 1) * (m + 2) // 2 < a * b:
        m += 1
    return m


def valid_grid():
    """Every valid instance of a small grid, each at its minimum s."""
    for fam in FAMILIES:
        for a in range(2, 16 if fam[0] == "F" else 7):
            for b in (range(a, 7) if fam[0] in "GH" else (None,)):
                for c in (range(b, 5) if fam == "H1" else (None,)):
                    for i in range(1, 73, 3):
                        res = validate(fam, a=a, b=b, c=c, i=i, s=1)
                        if res.violations and res.violations[0].startswith("s = 1 below"):
                            res = validate(fam, a=a, b=b, c=c, i=i,
                                           s=min_sufficient_s(fam, a, b, c, i))
                        if res.valid:
                            yield res.params


class TestThresholds:
    def test_f2_threshold(self):
        assert f2_threshold(21) == 36
        # defining property: i = M is admissible, i = M - 1 is not
        for a in (7, 9, 21, 101, 205):
            m = f2_threshold(a)
            assert validate("F2", a=a, i=m, s=10 ** 6).violations[0].startswith("s =")
            assert any(v.startswith("F2 requires i >=")
                       for v in validate("F2", a=a, i=m - 1, s=1).violations)

    def test_g3_socle_shift(self):
        # largest m with C(m+1,2) < ab
        assert g3_socle_shift(4, 4) == 5
        assert g3_socle_shift(2, 3) == 2
        pairs = [(ab, 1) for ab in range(1, 3000)]
        pairs += [(a, b) for a in (7, 10 ** 4, 10 ** 8) for b in (a, a + 1, 3 * a + 5)]
        for a, b in pairs:
            m = g3_socle_shift(a, b)
            assert m * (m + 1) // 2 < a * b <= (m + 1) * (m + 2) // 2, (a, b)
            if a * b < 3000:
                assert m == socle_shift_by_counting(a, b), (a, b)


class TestValidation:
    def test_golden_instances_valid(self):
        for fam, kw, _h, t in families.GOLDEN:
            res = validate(fam, **kw)
            assert res.valid, (fam, res.violations)
            assert res.params.t == t == kw["s"] + (2 if fam == "F2" else 1)

    def test_derived_shape(self):
        p = require_valid("F1", a=21, i=42, s=4)
        assert (p.r, p.j, p.u, p.i_f) == (3, 63, 1, 45)
        assert p.p_bounds == (20,) and p.q_bounds == ()
        p = require_valid("H1", a=2, b=2, c=3, i=12, s=2)
        assert (p.r, p.j, p.i_f) == (5, 24, 15)
        assert p.q_bounds == (24, 24, 24, 0, 0)

    def test_rejections(self):
        assert not validate("F1", a=3, i=10, s=1).valid
        assert not validate("F1", a=21, i=41, s=4).valid
        assert not validate("F2", a=8, i=100, s=10).valid
        assert not validate("G1", a=4, b=3, i=30, s=2).valid
        assert not validate("G2", a=3, b=3, i=30, s=2).valid
        assert not validate("G3", a=2, b=3, i=30, s=2).valid  # ab triangular
        assert not validate("H1", a=2, b=2, c=1, i=30, s=2).valid
        assert not validate("Z9", a=2, i=3, s=1).valid
        assert not validate("F1", a=21, i=42, s="4").valid
        assert not validate("F1", a=21, i=42, s=1).valid  # below minimum

    def test_validate_json(self):
        res = validate_json({"family": "G1", "a": 3, "b": 4, "i": 13, "s": 2})
        assert res.valid
        assert not validate_json({"family": "G1", "a": 3, "b": 4}).valid
        with pytest.raises(FamilyError):
            require_valid("F1", a=21, i=10, s=4)


class TestMinimumS:
    def test_known_values(self):
        assert min_sufficient_s("F1", 21, i=42) == 4
        assert min_sufficient_s("G3", 4, 4, i=8) == 7
        assert min_sufficient_s("H1", 2, 2, 3, i=12) == 2

    def test_closed_forms_agree(self):
        cases = [("F1", a, None, None, i)
                 for a in (4, 7, 21) for i in (2 * a, 2 * a + 9)]
        cases += [("F2", a, None, None, f2_threshold(a) + k)
                  for a in (7, 21, 35) for k in (0, 5)]
        cases += [("G1", a, b, None, a * b + 1 + k)
                  for a, b in ((2, 3), (3, 4), (4, 4)) for k in (0, 6)]
        cases += [("G2", a, b, None, a * b // 2 + 2 + k)
                  for a, b in ((2, 4), (4, 6)) for k in (0, 6)]
        cases += [("H1", a, b, c, a * b * c + k)
                  for a, b, c in ((2, 2, 3), (3, 3, 3)) for k in (0, 7)]
        for fam, a, b, c, i in cases:
            assert theorem_min_s(fam, a, b, c, i) == \
                min_sufficient_s(fam, a, b, c, i), (fam, a, b, c, i)
        with pytest.raises(FamilyError):
            theorem_min_s("G3", 4, 4, i=8)


class TestPredictions:
    @pytest.mark.parametrize("fam,kw", [g[:2] for g in families.GOLDEN])
    def test_deltas_track_predicted_h(self, fam, kw):
        p = require_valid(fam, **kw)
        for d in range(p.i, p.i_f):
            big, small = families.deltas(p, d)
            assert predicted_h(p, d + 1) == predicted_h(p, d) + big + small

    def test_count_form_matches_closed_forms(self):
        seen = set()
        for p in valid_grid():
            seen.add(p.family)
            for d in range(p.i, p.i_f + 1):
                assert predicted_h(p, d) == theorem_h(p, d), (p, d)
                assert families.deltas(p, d) == theorem_deltas(p, d), (p, d)
        assert seen == set(FAMILIES)
        # G2 with a = b = 2: j = i_f, so j - d reaches 0 at the last degree
        p = require_valid("G2", a=2, b=2, i=9, s=min_sufficient_s("G2", 2, 2, i=9))
        assert p.j == p.i_f
        assert families.deltas(p, p.i_f) == theorem_deltas(p, p.i_f) == (4, -1)
        assert predicted_h(p, p.i_f) == theorem_h(p, p.i_f)

    def test_g3_space_bound_matches_closed_form(self):
        fails = 0
        for a in range(2, 13):
            for b in range(a, 13):
                if (isqrt(8 * a * b + 1)) ** 2 == 8 * a * b + 1:
                    continue  # ab triangular: refused before the bound
                for i in range(a + b - 3, a + b + 30):
                    want = theorem_g3_bound(a, b, i)
                    got = [v for v in validate("G3", a=a, b=b, i=i, s=1).violations
                           if v.startswith("G3 space bound")]
                    assert got == ([want] if want else []), (a, b, i)
                    fails += want is not None
        assert fails > 100

    def test_outside_critical_range(self):
        p = require_valid("F1", a=21, i=42, s=4)
        with pytest.raises(FamilyError):
            predicted_h(p, p.i - 1)


class TestConstruction:
    def test_deterministic(self):
        p = require_valid("G3", a=4, b=4, i=8, s=7)
        w1 = families.construct(p, 5)
        w2 = families.construct(p, 5)
        w3 = families.construct(p, 6)
        assert all(np.array_equal(a.coeffs, b.coeffs)
                   for a, b in zip(w1.blocks, w2.blocks))
        assert any(not np.array_equal(a.coeffs, b.coeffs)
                   for a, b in zip(w1.blocks, w3.blocks))

    def test_verify_drop_report(self):
        p = require_valid("G3", a=4, b=4, i=8, s=7)
        rep = verify_drop(p, seed=0)
        assert rep.verdict == "single_drop"
        assert rep.degrees == (8, 9, 10)
        assert rep.measured == rep.predicted
        obj = rep.to_json()
        assert obj["verdict"] == "single_drop"
        assert obj["attempts"][0]["seed"] == 0

    def test_construct_refuses_before_sampling(self):
        # a valid G3 instance whose coefficient arrays would take 5.2 and
        # 37.6 GB: the size guard refuses it before anything is drawn
        p = require_valid("G3", a=30, b=31, i=3000, s=234)
        with mock.patch.object(families.exactalg, "sample", side_effect=AssertionError):
            with pytest.raises(ValueError, match="would be 235 x 4700917690"):
                families.construct(p, 0)


class TestSpecialConstructions:
    def test_bernstein_variants(self):
        base = special_construction("bernstein_t1")
        h1 = apolarity.hilbert_vector(base)
        assert h1 == BERNSTEIN_H
        for k, kind in ((2, "bernstein_t2"), (3, "bernstein_t3"),
                        (4, "bernstein_t4")):
            h = apolarity.hilbert_vector(special_construction(kind))
            assert h[:2] == (1, 5)
            assert all(h[d] == h1[d] + (k - 1) for d in range(2, 17))
            assert h[16] == k

    def test_bernstein_blocks(self):
        # one block per generator box: x4 f + x5 g, then each tail monomial
        tails = [(0, 0, 0, 0, 16), (0, 0, 0, 1, 15), (0, 0, 0, 2, 14)]
        for k in (1, 2, 3, 4):
            w = special_construction("bernstein_t%d" % k, seed=k)
            assert [b.bounds for b in w.blocks] == [(15, 15, 15, 1, 1)] + tails[:k - 1]
            assert w.blocks[0].coeffs.shape == (1, 542)
            assert [b.coeffs.tolist() for b in w.blocks[1:]] == [[[1]]] * (k - 1)

    def test_unknown_kind(self):
        with pytest.raises(FamilyError):
            special_construction("bernstein_t9")

    def test_extend_codim_append(self):
        base = HomogeneousSubspaceFixture()
        ext = extend_codim(base.w, 2, "append")
        assert ext.r == base.w.r + 2
        h0 = apolarity.hilbert_vector(base.w)
        h = apolarity.hilbert_vector(ext)
        # two pure powers add 2 everywhere strictly between the ends
        assert h[0] == 1 and h[base.w.j] == h0[base.w.j] + 2
        assert all(h[d] == h0[d] + 2 for d in range(1, base.w.j))

    def test_extend_codim_summed(self):
        base = HomogeneousSubspaceFixture()
        ext = extend_codim(base.w, 1, "summed")
        h0 = apolarity.hilbert_vector(base.w)
        h = apolarity.hilbert_vector(ext)
        # type preserved, interior values shifted up by one
        assert h[base.w.j] == h0[base.w.j]
        assert all(h[d] == h0[d] + 1 for d in range(1, base.w.j))

    def test_extend_codim_summed_refused_before_enumeration(self):
        # r = 10 puts 702522 monomials in the one generator's box: the size
        # guard refuses it from the counts, with no r = 10 list built
        base = special_construction("bernstein_t1")
        real = apolarity.enumerate_constrained

        def base_lists_only(r, d, bounds=()):
            assert r < 10, "enumerated an r = 10 monomial list"
            return real(r, d, bounds)
        with mock.patch.object(apolarity, "enumerate_constrained", side_effect=base_lists_only):
            with pytest.raises(ValueError, match="702522 monomials"):
                extend_codim(base, 5, "summed")


class HomogeneousSubspaceFixture:
    def __init__(self):
        from levelalg.apolarity import HomogeneousSubspace
        self.w = HomogeneousSubspace.from_sparse(2, 4, [{(2, 2): 1, (4, 0): 3}])


class TestCatalog:
    def test_statuses(self):
        assert existence_catalog(1, 1).status == "unimodal_forced"
        assert existence_catalog(2, 7).status == "unimodal_forced"
        assert existence_catalog(3, 1).status == "unimodal_forced"
        assert existence_catalog(3, 3).status == "unknown"
        assert existence_catalog(4, 2).status == "unknown"
        for r, t in ((3, 5), (3, 9), (4, 3), (4, 8), (5, 1), (5, 2), (5, 3),
                     (5, 6), (6, 1), (6, 4), (8, 2)):
            assert existence_catalog(r, t).status == "exists_nonunimodal", (r, t)
        with pytest.raises(ValueError):
            existence_catalog(0, 1)

    def test_family_recipes_are_valid(self):
        for r, t in ((3, 5), (3, 8), (4, 3), (4, 6), (5, 3), (5, 5)):
            rec = existence_catalog(r, t).recipe
            res = validate_json(rec)
            assert res.valid, (r, t, rec)
            assert res.params.r == r and res.params.t == t

    def test_recipes_at_the_least_i(self):
        # the least i >= the base whose m_P(j) holds s = t - u forms
        assert existence_catalog(3, 5).recipe == {"family": "F1", "a": 21, "i": 42, "s": 4}
        assert existence_catalog(4, 3).recipe == \
            {"family": "G1", "a": 3, "b": 4, "i": 13, "s": 2}
        assert existence_catalog(5, 3).recipe == \
            {"family": "H1", "a": 2, "b": 2, "c": 3, "i": 12, "s": 2}
        # m_P(j) = 21 (i + 11) for a = 21: i = 47619036 is the first to hold s
        assert existence_catalog(3, 10 ** 9).recipe == \
            {"family": "F1", "a": 21, "i": 47619036, "s": 10 ** 9 - 1}
        assert not validate("F1", a=21, i=47619035, s=10 ** 9 - 1).valid
        assert existence_catalog(4, 10 ** 9).recipe["i"] == 62499986

    def test_type_without_instance(self):
        # s = 1 is below min_sufficient_s = 4 at i = 42, and it only grows with i
        with pytest.raises(FamilyError, match="no instance found for F1 type 2"):
            families._family_recipe("F1", 2, 42, {"a": 21})

    def test_realize_family_recipe(self):
        rec = existence_catalog(4, 3).recipe
        w = realize_recipe(rec, seed=0)
        assert w.r == 4
        assert apolarity.hilbert_value(w, w.j) == 3

    def test_realize_extension_recipe(self):
        rec = existence_catalog(7, 2).recipe
        assert rec["kind"] == "extend_codim"
        w = realize_recipe(rec, seed=0)
        assert w.r == 7
        assert apolarity.hilbert_value(w, w.j) == 2
