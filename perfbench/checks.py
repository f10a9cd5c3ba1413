"""Reference values and output checks, made apart from the program.

Nothing here imports levelalg.  The references are the paper's published
numbers, closed forms computed from scratch, and properties that the method
must have.  Every check returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

# Golden instances: parameters, published h on the critical range [i, i_f],
# and the drop kind (single: i_f = i + 2, double: i_f = i + 3).
GOLDEN = {
    "F1": ({"a": 21, "i": 42, "s": 4}, (946, 945, 945, 946), "double"),
    "F2": ({"a": 21, "i": 36, "s": 14}, (699, 698, 699), "single"),
    "G1": ({"a": 3, "b": 4, "i": 13, "s": 2}, (229, 228, 228, 229), "double"),
    "G2": ({"a": 4, "b": 6, "i": 14, "s": 2}, (433, 432, 433), "single"),
    "G3": ({"a": 4, "b": 4, "i": 8, "s": 7}, (152, 147, 148), "single"),
    "H1": ({"a": 2, "b": 2, "c": 3, "i": 12, "s": 2}, (223, 222, 222, 223),
           "double"),
}

# Number of F-generators per family; the type of W = E + F is s + u.
F_GENERATORS = {"F1": 1, "F2": 2, "G1": 1, "G2": 1, "G3": 1, "H1": 1}

# The published codimension-5 type-1 h-vector.
BERNSTEIN_H = (1, 5, 12, 22, 35, 51, 70, 91, 90, 91, 70, 51, 35, 22, 12, 5, 1)

# Dedekind numbers: up-sets of the Boolean lattice on n atoms.
DEDEKIND = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}

TYPE_SHARE = 0.95


def instance(family):
    """The golden instance of `family` as the JSON object the CLI reads."""
    params = dict(GOLDEN[family][0])
    return {"family": family, **params}


def expected_type(family):
    return GOLDEN[family][0]["s"] + F_GENERATORS[family]


def check_verify(family, report):
    """`family verify` on a golden instance: published values and drop."""
    params, values, kind = GOLDEN[family]
    i = params["i"]
    i_f = i + (2 if kind == "single" else 3)
    problems = []
    if report.get("degrees") != list(range(i, i_f + 1)):
        problems.append("%s degrees %r, want %d..%d"
                        % (family, report.get("degrees"), i, i_f))
    h = report.get("measured")
    if h != list(values):
        problems.append("%s measured %r, want %r" % (family, h, list(values)))
    elif not (h[1] < h[0] and h[-1] > h[-2]):
        problems.append("%s shows no drop and recovery: %r" % (family, h))
    if report.get("verdict") != kind + "_drop":
        problems.append("%s verdict %r, want %s_drop"
                        % (family, report.get("verdict"), kind))
    return problems


def bernstein_h(k):
    """Published h-vector of the type-k variant, None where unpublished.

    Type k adds k - 1 at degrees 2..14 and has h(16) = k; h(15) is not
    stated, so it is not checked.
    """
    if k == 1:
        return list(BERNSTEIN_H)
    return ([1, 5] + [BERNSTEIN_H[d] + k - 1 for d in range(2, 15)]
            + [None, k])


def check_hilbert(k, report):
    want = bernstein_h(k)
    h = report.get("h")
    if report.get("start") != 0 or not isinstance(h, list) or len(h) != 17:
        return ["bernstein t%d: h %r is not a full vector" % (k, h)]
    bad = [d for d, w in enumerate(want) if w is not None and h[d] != w]
    if bad:
        return ["bernstein t%d: h %r differs from %r at degrees %r"
                % (k, h, want, bad)]
    return []


def check_type(family, report):
    """One `family type` output: the type never exceeds s + u."""
    t = expected_type(family)
    got = report.get("type")
    if not isinstance(got, int) or not 0 <= got <= t:
        return ["%s type %r outside 0..%d" % (family, got, t)]
    return []


def check_type_share(family, types):
    """Across a seed sweep, at least 95% of the types equal s + u."""
    t = expected_type(family)
    hits = sum(1 for x in types if x == t)
    if hits < TYPE_SHARE * len(types):
        return ["%s: %d of %d seeds reach type %d" % (family, hits, len(types), t)]
    return []


def macmahon(a, b, c):
    """Plane partitions in an a x b x c box (MacMahon's product)."""
    out = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                out *= Fraction(i + j + k - 1, i + j + k - 2)
    if out.denominator != 1:
        raise ArithmeticError("MacMahon product is not an integer")
    return int(out)


def topset_total(q):
    """Number of topsets of G_Q, empty and full set included.

    G_Q is a product of chains with Q_k + 1 elements.  One chain of n
    elements has n + 1 up-sets; two chains give the lattice-path binomial;
    three give MacMahon's box product; Q = (1, ..., 1) is the Boolean
    lattice, counted by the Dedekind numbers.
    """
    q = tuple(q)
    if all(x == 1 for x in q) and len(q) in DEDEKIND:
        return DEDEKIND[len(q)]
    if len(q) == 1:
        return q[0] + 2
    if len(q) == 2:
        return comb(q[0] + q[1] + 2, q[0] + 1)
    if len(q) == 3:
        return macmahon(q[0] + 1, q[1] + 1, q[2] + 1)
    raise ValueError("no closed form for Q = %r" % (q,))


def check_topsets(q, report):
    """`poset topsets`: count by closed form, every listed set a distinct
    proper nonempty topset."""
    want = topset_total(q) - 2
    tops = report.get("topsets")
    if report.get("count") != want or not isinstance(tops, list) \
            or len(tops) != want:
        return ["Q=%r: count %r, want %d" % (q, report.get("count"), want)]
    # Element e of G_Q is bit number e_1 w_1 + ... + e_n w_n, w_k the
    # product of (Q_l + 1) for l > k, so lowering coordinate k by one is a
    # right shift by w_k.  A set is a topset iff it is closed under lowering
    # one coordinate, since the order is reversed componentwise.
    elements = gq_elements(q)
    bit = {e: 1 << i for i, e in enumerate(elements)}
    shifts = []
    w = len(elements)
    for k, b in enumerate(q):
        w //= b + 1
        raised = sum(bit[e] for e in elements if e[k] > 0)
        shifts.append((raised, w))
    full = (1 << len(elements)) - 1
    seen = set()
    for t in tops:
        mask = 0
        for m in t:
            mask |= bit.get(tuple(m), 0) if isinstance(m, list) else 0
        if bin(mask).count("1") != len(t) or mask in (0, full) or mask in seen:
            return ["Q=%r: %r is empty, full, repeated or leaves G_Q" % (q, t)]
        seen.add(mask)
        for raised, w in shifts:
            if (mask & raised) >> w & ~mask:
                return ["Q=%r: %r is not a topset" % (q, t)]
    return []


def check_tpp(q, trials, report):
    """TPP is a theorem on every G_Q, so every trial must pass."""
    if report.get("passed") is not True or report.get("trials") != trials \
            or report.get("q") != list(q):
        return ["Q=%r: tpp report %r" % (q, {k: report.get(k) for k in
                                              ("passed", "trials", "q")})]
    return []


def gq_elements(q):
    """G_Q in ascending lexicographic order."""
    return list(itertools.product(*(range(b + 1) for b in q)))


def dominates(x, y):
    return all(a <= b for a, b in zip(x, y))


def criterion(q, rows, cols):
    """Topset excess criterion by brute force over all subsets of G_Q.

    rows and cols give r_I and c_I in ascending element order.  True when
    every nonempty proper topset has a nonnegative sum of r_I - c_I.
    """
    elements = gq_elements(q)
    n = len(elements)
    excess = [r - c for r, c in zip(rows, cols)]
    above = [[j for j in range(n) if j != i and dominates(elements[j], elements[i])]
             for i in range(n)]
    for mask in range(1, (1 << n) - 1):
        if all(mask >> j & 1 for i in range(n) if mask >> i & 1 for j in above[i]):
            if sum(excess[i] for i in range(n) if mask >> i & 1) < 0:
                return False
    return True


def check_lmatrix(case, report):
    """`lmatrix check` on a generated square G_Q-pattern L-matrix."""
    q, rows, cols = case
    n = sum(rows)
    problems = []
    for key, want in (("rows", n), ("cols", n), ("is_pv", True),
                      ("is_l_matrix", True), ("gq_pattern", True),
                      ("gq3_criterion", criterion(q, rows, cols))):
        if report.get(key) != want:
            problems.append("Q=%r %r/%r: %s is %r, want %r"
                            % (q, rows, cols, key, report.get(key), want))
    if "det_nonzero" in report and \
            report["det_nonzero"] != report.get("gq3_criterion"):
        problems.append("Q=%r %r/%r: criterion %r but exact det nonzero %r"
                        % (q, rows, cols, report.get("gq3_criterion"),
                           report["det_nonzero"]))
    elif "det_nonzero" not in report:
        problems.append("Q=%r %r/%r: no exact determinant" % (q, rows, cols))
    return problems


def check_randomized(case, crit, randomized):
    """The randomized determinant test agrees with the criterion.

    A nonzero evaluation certifies det != 0, which the criterion forbids
    when it is false.  When it is true, det is a nonzero polynomial of
    degree n, so three evaluations at fixed random points of GF(p) all
    vanish with probability at most (n/p)^3, under 10^-8 here: a False
    then means `exactalg.det` returned 0 for a nonsingular matrix.
    """
    q, rows, cols = case
    want = criterion(q, rows, cols)
    if crit != want:
        return ["Q=%r %r/%r: criterion %r, want %r" % (q, rows, cols, crit, want)]
    if randomized != crit:
        return ["Q=%r %r/%r: criterion %r but randomized det nonzero %r"
                % (q, rows, cols, crit, randomized)]
    return []
