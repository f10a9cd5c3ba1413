"""Randomized property suites shared by the CLI selftest and the test suite.

Each runner draws its instances from a labeled stream of the master seed,
checks a library result against an independent oracle, and returns a summary
dict with a boolean "passed" plus counters; failures carry a description of
the offending instance.
"""

from __future__ import annotations

from math import comb

from . import apolarity, exactalg, gqposet, lmatrix
from .multiindex import closed_form_count, effective_bounds, enumerate_constrained

# Representative Q shapes with |G_Q| <= 64 whose topset counts stay inside
# the enumeration guard, spanning chain products of dimension 1 through 5.
TPP_SHAPES = ((1,), (2,), (5,), (15,), (63,),
              (1, 1), (2, 2), (3, 3), (2, 4), (1, 15), (7, 7),
              (1, 1, 1), (2, 2, 2), (3, 3, 3), (1, 2, 3),
              (1, 1, 1, 1), (2, 2, 1, 1), (1, 1, 1, 1, 1))
# run_count_suite's largest number of variables and degree
COUNT_MAX_R = 6
COUNT_MAX_D = 30


def count_oracle(r, d, bounds=()):
    """m_Q(d) by explicit enumeration of the constrained coordinates.

    Walks every admissible prefix (d_1, ..., d_n) and counts completions of
    the unconstrained tail with a stars-and-bars binomial; independent of
    the closed-form count formulas.
    """
    bounds = tuple(bounds)
    n = len(bounds)
    free = r - n
    if d < 0:
        return 0

    def rec(k, rem):
        if k == n:
            if free == 0:
                return 1 if rem == 0 else 0
            return comb(rem + free - 1, free - 1)
        total = 0
        for v in range(min(bounds[k], rem) + 1):
            total += rec(k + 1, rem - v)
        return total

    return rec(0, d)


def run_count_suite(n_triples=1000, seed=0):
    """Closed-form counts vs the enumeration oracle on random triples."""
    rng = exactalg.stream(seed, "selfcheck-count")
    failures = []
    closed_checked = 0
    corrections = 0
    enum_checked = 0
    for trial in range(n_triples):
        r = int(rng.integers(1, COUNT_MAX_R + 1))
        n = int(rng.integers(0, r + 1))
        j = int(rng.integers(0, COUNT_MAX_D + 6))
        bounds = tuple(int(rng.integers(0, j + 1)) for _ in range(n))
        if trial % 5 == 0:
            # steer into the +1 correction ranges at d = q - 2
            if trial % 10 == 0:
                r, n = 3, 1
                bounds = (int(rng.integers(4, COUNT_MAX_D)),)
            else:
                r, n = 4, 2
                bounds = (int(rng.integers(2, 12)), int(rng.integers(2, 12)))
            j = max(bounds) + 1 + int(rng.integers(0, 5))
            d = sum(bounds) - 2
            if d < 0:
                d = 0
        else:
            d = int(rng.integers(0, COUNT_MAX_D + 1))
        want = count_oracle(r, d, bounds)
        got = closed_form_count(r, d, bounds, j)
        if got is not None:
            closed_checked += 1
            eff = effective_bounds(bounds, j, d)
            if d == sum(eff) - 2 and len(eff) == r - 2 and r in (3, 4):
                corrections += 1
            if got != want:
                failures.append({"r": r, "d": d, "bounds": list(bounds),
                                 "j": j, "closed": got, "oracle": want})
        if want <= 20000:
            enum_checked += 1
            if len(enumerate_constrained(r, d, bounds)) != want:
                failures.append({"r": r, "d": d, "bounds": list(bounds),
                                 "j": j, "method": "enumerate", "oracle": want})
    return {"passed": not failures, "trials": n_triples,
            "closed_form_checked": closed_checked,
            "corrections_checked": corrections,
            "enumeration_checked": enum_checked, "failures": failures[:5]}


def run_tpp_suite(phis_per_poset=100, seed=0, shapes=TPP_SHAPES):
    """TPP and TAP of random functions over enumerated topsets, per shape,
    plus TAP/TPP agreement of check_tpp and check_tap."""
    failures = []
    posets_checked = 0
    for q in shapes:
        poset = gqposet.GQPoset(q)
        posets_checked += 1
        rng = exactalg.stream(seed, "selfcheck-tpp-%s" % (",".join(map(str, q))))
        for t, k, _ in gqposet.random_trials(poset, rng, phis_per_poset, budget=False):
            failures.append({"q": list(q), "trial": t, "check": ("tpp", "tap")[k]})
        # API-level agreement on a small function
        if len(poset) <= 16:
            phi = gqposet.random_order_preserving(poset, rng)
            if (gqposet.check_tpp(poset, phi) < 0) != (gqposet.check_tap(poset, phi) < 0):
                failures.append({"q": list(q), "check": "tap-vs-tpp"})
    return {"passed": not failures, "posets": posets_checked,
            "phis_per_poset": phis_per_poset, "failures": failures[:5]}


def run_gq3_suite(n_matrices=200, seed=0):
    """gq3_criterion vs the exact symbolic determinant on random L-matrices."""
    rng = exactalg.stream(seed, "selfcheck-gq3")
    failures = []
    nonsingular = 0
    for t in range(n_matrices):
        structure = lmatrix.random_gq_structure(rng)
        m = lmatrix.random_l_matrix(structure, rng)
        cls = lmatrix.classify(m)
        if not cls.is_l_matrix:
            failures.append({"trial": t, "check": "generator-not-l"})
            continue
        if not lmatrix.verify_gq_pattern(m, structure):
            failures.append({"trial": t, "check": "generator-pattern"})
            continue
        crit = lmatrix.gq3_criterion(structure)
        exact = lmatrix.det_is_nonzero(m, "exact")
        if crit != exact:
            failures.append({"trial": t, "check": "criterion-vs-det",
                             "criterion": crit, "det_nonzero": exact,
                             "q": list(structure.poset.q)})
        rand = lmatrix.det_is_nonzero(m, "randomized", seed=seed + t)
        if rand and not exact:
            failures.append({"trial": t, "check": "randomized-vs-exact"})
        if exact:
            nonsingular += 1
    return {"passed": not failures, "matrices": n_matrices,
            "nonsingular": nonsingular, "failures": failures[:5]}


def random_subspace(rng):
    """A small random constrained subspace for crop/pattern checks."""
    while True:
        r = int(rng.integers(2, 5))
        j = int(rng.integers(2, 9))
        n = int(rng.integers(0, r + 1))
        bounds = tuple(int(rng.integers(0, j + 1)) for _ in range(n))
        card = 1
        for bb in bounds:
            card *= bb + 1
        if card > 40:  # keeps G_Q small for the block-pattern checks
            continue
        m = count_oracle(r, j, bounds)
        if m == 0:
            continue
        s = int(rng.integers(1, 4))
        coeffs = rng.integers(0, exactalg.DEFAULT_PRIME, size=(s, m))
        return apolarity.HomogeneousSubspace(r, j, ((bounds, coeffs),))


def run_crop_suite(n_subspaces=100, seed=0):
    """Crop-rank equality, L-classification, pattern and order-preservation checks."""
    rng = exactalg.stream(seed, "selfcheck-crop")
    failures = []
    for t in range(n_subspaces):
        w = random_subspace(rng)
        b = w.blocks[0]
        d = int(rng.integers(0, w.j + 1))
        # the same forms over the unbounded box give the uncropped matrix
        support = enumerate_constrained(w.r, w.j, b.bounds)
        whole = apolarity.HomogeneousSubspace.from_sparse(
            w.r, w.j, [dict(zip(support, z)) for z in b.coeffs.tolist()], (), w.p)
        if apolarity.hilbert_value(w, d) != apolarity.hilbert_value(whole, d):
            failures.append({"trial": t, "check": "crop-rank"})
        sym = apolarity.symbolic_matrix(w.r, w.j, b.bounds, d, len(b.coeffs))
        if sym.matrix.nrows and sym.matrix.ncols:
            if not lmatrix.classify(sym.matrix).is_l_matrix:
                failures.append({"trial": t, "check": "l-matrix"})
            if not lmatrix.verify_gq_pattern(sym.matrix, sym.structure):
                failures.append({"trial": t, "check": "pattern"})
        st, nb = sym.structure, len(b.bounds)
        # r_I and the excesses are order-preserving on G_Q whenever some
        # coordinate is unconstrained (for nb = r the sizes are indicators
        # of a single prefix degree and monotonicity can fail)
        els = st.poset.elements
        if nb < w.r and not (gqposet.is_order_preserving(st.poset, [st.r[e] for e in els]) and
                             gqposet.is_order_preserving(st.poset, [st.excess(e) for e in els])):
            failures.append({"trial": t, "check": "order-preserving"})
    return {"passed": not failures, "subspaces": n_subspaces,
            "failures": failures[:5]}


def run_splice_suite():
    """The x^3 y^3 / x^3 z^3 splitting example at every degree."""
    v = apolarity.HomogeneousSubspace.from_sparse(3, 6, [{(3, 3, 0): 1}])
    w = apolarity.HomogeneousSubspace.from_sparse(3, 6, [{(3, 0, 3): 1}])
    failures = []
    for d in range(7):
        _, split = apolarity.sum_space_dimension(v, w, d)
        if split != (d >= 4):
            failures.append({"d": d, "equals_split": split})
    return {"passed": not failures, "failures": failures}


def run_all(seed=0, quick=True):
    """Reduced (quick) or full property sweep; returns per-suite summaries."""
    scale = 1 if not quick else 5
    out = {
        "count": run_count_suite(1000 // scale, seed),
        "tpp": run_tpp_suite(100 // scale, seed,
                             shapes=TPP_SHAPES if not quick else
                             ((1,), (3,), (1, 1), (2, 2), (1, 1, 1))),
        "gq3": run_gq3_suite(200 // scale, seed),
        "crop": run_crop_suite(100 // scale, seed),
        "splice": run_splice_suite(),
    }
    out["passed"] = all(v["passed"] for v in out.values() if isinstance(v, dict))
    return out
