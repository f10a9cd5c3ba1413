"""The six non-unimodal level-algebra families and related constructions.

Each family F1, F2, G1, G2, G3, H1 produces a subspace W = E + F of the
degree-j forms in r variables: E is spanned by s random forms supported in a
box M_P(j), F by u random forms supported in M_Q(j); `_shape` alone states r,
j, P, Q, u and the drop.  On the critical range [i, i_f] - a single drop
(i_f = i+2) for F2/G2/G3, a double drop (i_f = i+3) for F1/G1/H1 - the
Hilbert function of R/Ann(W) is h(d) = m_P(d) + u m_Q(j - d), with m_Q from
`multiindex.count_constrained`; s >= `min_sufficient_s` is what makes E's part
m_P(d).  For valid parameters h dips below its shoulders there, so the
h-vector is not unimodal.

Also here: the codimension-5 Gorenstein example with non-unimodal h-vector
(1,5,12,22,35,51,70,91,90,91,70,51,35,22,12,5,1), its type-2/3/4
modifications, codimension extensions, and the existence catalog mapping
(codimension, type) to a construction or an open/forced status.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import exactalg
from .apolarity import HomogeneousSubspace, check_cells, hilbert_value
from .multiindex import count_constrained, enumerate_constrained

FAMILIES = ("F1", "F2", "G1", "G2", "G3", "H1")

BERNSTEIN_H = (1, 5, 12, 22, 35, 51, 70, 91, 90, 91, 70, 51, 35, 22, 12, 5, 1)

# The six reference instances: (family, parameters, published h on the
# critical range [i, i_f], type s + u).
GOLDEN = (
    ("F1", dict(a=21, i=42, s=4), (946, 945, 945, 946), 5),
    ("F2", dict(a=21, i=36, s=14), (699, 698, 699), 16),
    ("G1", dict(a=3, b=4, i=13, s=2), (229, 228, 228, 229), 3),
    ("G2", dict(a=4, b=6, i=14, s=2), (433, 432, 433), 3),
    ("G3", dict(a=4, b=4, i=8, s=7), (152, 147, 148), 8),
    ("H1", dict(a=2, b=2, c=3, i=12, s=2), (223, 222, 222, 223), 3),
)


class FamilyError(ValueError):
    pass


def _ceil_div(a, b):
    return -(-a // b)


def f2_threshold(a):
    """Smallest admissible i for F2: ceil((2a-3+sqrt(2a^2+8a+7))/2), exactly."""
    disc = 2 * a * a + 8 * a + 7
    s0 = isqrt(disc)
    if s0 * s0 == disc:
        return (2 * a - 3 + s0 + 1) // 2
    # sqrt(disc) lies strictly between s0 and s0+1
    return (2 * a - 3 + s0) // 2 + 1


def g3_socle_shift(a, b):
    """Largest m with C(m+1, 2) < ab, that is with (2m+1)^2 <= 8ab - 7."""
    return (isqrt(8 * a * b - 7) - 1) // 2


def _is_triangular(n):
    m = isqrt(8 * n + 1)
    return m * m == 8 * n + 1


@dataclass(frozen=True)
class FamilyParams:
    family: str
    a: int
    i: int
    s: int
    b: int | None = None
    c: int | None = None
    # derived
    r: int = 0
    j: int = 0
    p_bounds: tuple = ()
    q_bounds: tuple = ()
    u: int = 0
    delta: int = 0
    drop_kind: str = ""
    i_f: int = 0
    t: int = 0

    def to_json(self):
        obj = {"family": self.family, "a": self.a, "i": self.i, "s": self.s}
        if self.b is not None:
            obj["b"] = self.b
        if self.c is not None:
            obj["c"] = self.c
        return obj


def _shape(family, a, b, c, i):
    """(r, j, P, Q, u, delta, drop kind) for given shape parameters."""
    if family == "F1":
        j = i + a
        return 3, j, (a - 1,), (), 1, a, "double"
    if family == "F2":
        j = i + (a - 1) // 2
        return 3, j, (a - 1,), (), 2, a, "single"
    if family == "G1":
        j = i + a * b
        return 4, j, (a - 1, b - 1), (j, j, j, 0), 1, a * b, "double"
    if family == "G2":
        j = i + a * b // 2
        return 4, j, (j, a - 1, b - 1), (1,), 1, a * b, "single"
    if family == "G3":
        j = i + g3_socle_shift(a, b)
        return 4, j, (a - 1, b - 1), (), 1, a * b, "single"
    if family == "H1":
        j = i + a * b * c
        return 5, j, (a - 1, b - 1, c - 1), (j, j, j, 0, 0), 1, a * b * c, "double"
    raise FamilyError("unknown family %r" % (family,))


def min_sufficient_s(family, a, b=None, c=None, i=None):
    """Smallest s making the (j - i_f)-th cropped matrix of E at least as
    tall as wide: ceil(m_P(i_f) / m_P(j - i_f))."""
    r, j, p_bounds, _, _, _, drop = _shape(family, a, b, c, i)
    i_f = i + (2 if drop == "single" else 3)
    return _ceil_div(count_constrained(r, i_f, p_bounds),
                     count_constrained(r, j - i_f, p_bounds))


@dataclass(frozen=True)
class ValidationResult:
    params: FamilyParams | None
    violations: tuple

    @property
    def valid(self):
        return not self.violations


def validate(family, a=None, b=None, c=None, i=None, s=None):
    """Check all family constraints; returns derived params or violations."""
    bad = []
    if family not in FAMILIES:
        return ValidationResult(None, ("unknown family %r" % (family,),))
    need = {"F1": ("a", "i", "s"), "F2": ("a", "i", "s"),
            "G1": ("a", "b", "i", "s"), "G2": ("a", "b", "i", "s"),
            "G3": ("a", "b", "i", "s"), "H1": ("a", "b", "c", "i", "s")}[family]
    given = {"a": a, "b": b, "c": c, "i": i, "s": s}
    for name in need:
        v = given[name]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            bad.append("%s must be a positive integer" % name)
    if bad:
        return ValidationResult(None, tuple(bad))

    r, j, p_bounds, q_bounds, u, delta, drop = _shape(family, a, b, c, i)
    if family in ("F1", "F2"):
        if family == "F1":
            if a < 4:
                bad.append("F1 requires a >= 4")
            if i < 2 * a:
                bad.append("F1 requires i >= 2a")
        else:
            if a < 7 or a % 2 == 0:
                bad.append("F2 requires odd a >= 7")
            elif i < f2_threshold(a):
                bad.append("F2 requires i >= %d" % f2_threshold(a))
    elif family in ("G1", "G2", "G3"):
        if not b >= a >= 2:
            bad.append("%s requires b >= a >= 2" % family)
        elif family == "G1" and i < a * b + 1:
            bad.append("G1 requires i >= ab + 1")
        elif family == "G2":
            if a * b % 2:
                bad.append("G2 requires ab even")
            elif i < a * b // 2 + 2:
                bad.append("G2 requires i >= ab/2 + 2")
        elif family == "G3":
            if _is_triangular(a * b):
                bad.append("G3 requires ab not a triangular number")
            elif i < a + b - 3:
                bad.append("G3 requires i >= a + b - 3")
            else:
                # E and F must fit in R_i: m_P(i) + m_Q(j - i) <= m(i)
                lhs = count_constrained(r, i, p_bounds) + count_constrained(r, j - i, q_bounds)
                m_i = count_constrained(r, i)
                if lhs > m_i:
                    bad.append("G3 space bound fails: %d > %d" % (lhs, m_i))
    elif family == "H1":
        if not c >= b >= a >= 2:
            bad.append("H1 requires c >= b >= a >= 2")
        elif i < a * b * c:
            bad.append("H1 requires i >= abc")
    if bad:
        return ValidationResult(None, tuple(bad))

    i_f = i + (2 if drop == "single" else 3)
    smin = min_sufficient_s(family, a, b, c, i)
    if s < smin:
        bad.append("s = %d below the sufficient minimum %d" % (s, smin))
    m_p_j = count_constrained(r, j, p_bounds)
    if s > m_p_j:
        bad.append("s = %d exceeds m_P(j) = %d" % (s, m_p_j))
    if bad:
        return ValidationResult(None, tuple(bad))
    params = FamilyParams(family, a, i, s, b, c, r=r, j=j, p_bounds=p_bounds,
                          q_bounds=q_bounds, u=u, delta=delta, drop_kind=drop,
                          i_f=i_f, t=s + u)
    return ValidationResult(params, ())


def validate_json(obj):
    """`validate` on a parsed JSON instance, refusing anything but an object."""
    if not isinstance(obj, dict):
        raise FamilyError("a family instance must be a JSON object")
    return validate(obj.get("family"), a=obj.get("a"), b=obj.get("b"),
                    c=obj.get("c"), i=obj.get("i"), s=obj.get("s"))


def require_valid(family, a=None, b=None, c=None, i=None, s=None):
    res = validate(family, a, b, c, i, s)
    if not res.valid:
        raise FamilyError("; ".join(res.violations))
    return res.params


def predicted_h(params, d):
    """h(d) = m_P(d) + u m_Q(j - d) on the critical range [i, i_f]: E's s >=
    min_sufficient_s forms give m_P(d), F's u generic forms u m_Q(j - d)."""
    if not params.i <= d <= params.i_f:
        raise FamilyError("degree %d outside the critical range [%d, %d]"
                          % (d, params.i, params.i_f))
    return (count_constrained(params.r, d, params.p_bounds)
            + params.u * count_constrained(params.r, params.j - d, params.q_bounds))


def deltas(params, d):
    """(Delta_d, delta_d) with h(d+1) = h(d) + Delta_d + delta_d: E's part
    Delta_d is `delta`, F's part delta_d = u (m_Q(j-d-1) - m_Q(j-d))."""
    r, e, q = params.r, params.j - d, params.q_bounds
    return params.delta, params.u * (count_constrained(r, e - 1, q) - count_constrained(r, e, q))


def construct(params, seed, p=exactalg.DEFAULT_PRIME):
    """The random subspace E + F for these parameters, deterministic in seed."""
    r, j = params.r, params.j
    # bounds the s x m_P(j) and u x m_Q(j) coefficient arrays before they are drawn
    check_cells(r, j, j, ((params.p_bounds, params.s), (params.q_bounds, params.u)))
    m_p = count_constrained(r, j, params.p_bounds)
    m_q = count_constrained(r, j, params.q_bounds)
    return HomogeneousSubspace(r, j, (
        (params.p_bounds, exactalg.sample((params.s, m_p), seed, "family-E", p)),
        (params.q_bounds, exactalg.sample((params.u, m_q), seed, "family-F", p))), p)


@dataclass(frozen=True)
class DropReport:
    params: FamilyParams
    degrees: tuple
    predicted: tuple
    measured: tuple
    attempts: tuple  # of (seed, measured tuple)
    verdict: str  # single_drop | double_drop | mismatch

    def to_json(self):
        return {
            "family": self.params.to_json(),
            "degrees": list(self.degrees),
            "predicted": list(self.predicted),
            "measured": list(self.measured),
            "attempts": [{"seed": s, "h": list(h)} for s, h in self.attempts],
            "verdict": self.verdict,
        }


def verify_drop(params, seed=0, retries=3, p=exactalg.DEFAULT_PRIME):
    """Measure h on the critical range, reseeding on a genericity miss.

    A mismatch against the prediction triggers a re-seed, up to `retries`
    extra attempts; every attempt's seed and values are recorded.
    """
    degrees = tuple(range(params.i, params.i_f + 1))
    predicted = tuple(predicted_h(params, d) for d in degrees)
    attempts = []
    measured = ()
    for k in range(retries + 1):
        attempt_seed = seed + k
        w = construct(params, attempt_seed, p)
        measured = tuple(hilbert_value(w, d) for d in degrees)
        attempts.append((attempt_seed, measured))
        if measured == predicted:
            verdict = ("single_drop" if params.drop_kind == "single"
                       else "double_drop")
            return DropReport(params, degrees, predicted, measured,
                              tuple(attempts), verdict)
    return DropReport(params, degrees, predicted, measured, tuple(attempts),
                      "mismatch")


def compute_type(params, seed=0, p=exactalg.DEFAULT_PRIME):
    """dim W = h(j); equals s + u for generic coefficients."""
    return hilbert_value(construct(params, seed, p), params.j)


def special_construction(kind, seed=0, p=exactalg.DEFAULT_PRIME):
    """Named constructions beyond the six families.

    bernstein_t1 is the single generator x4 f + x5 g with f, g random in the
    degree-15 part of k[x1,x2,x3] (r = 5, j = 16); t2, t3, t4 cumulatively
    append the monomials x5^16, x4 x5^15, x4^2 x5^14, each a block of its own.
    """
    if kind in ("bernstein_t1", "bernstein_t2", "bernstein_t3", "bernstein_t4"):
        inner = enumerate_constrained(3, 15)
        f = exactalg.sample((len(inner),), seed, "bernstein-f", p).tolist()
        g = exactalg.sample((len(inner),), seed, "bernstein-g", p).tolist()
        terms = {m + (1, 0): c for m, c in zip(inner, f)}
        terms.update((m + (0, 1), c) for m, c in zip(inner, g))
        tails = ((0, 0, 0, 0, 16), (0, 0, 0, 1, 15), (0, 0, 0, 2, 14))[:int(kind[-1]) - 1]
        return HomogeneousSubspace.from_sparse(5, 16, [terms] + [{t: 1} for t in tails], p=p)
    raise FamilyError("unknown construction %r" % (kind,))


def extend_codim(base, k_extra, mode="append"):
    """Embed into r + k_extra variables, adjoining pure-power monomials.

    mode "append" adds each x_{r+m}^j as a new generator (type grows by
    k_extra); "summed" adds their sum into the single existing generator
    (type preserved).
    """
    r2, j = base.r + k_extra, base.j
    powers = [(0,) * (base.r + m) + (j,) + (0,) * (k_extra - m - 1) for m in range(k_extra)]
    if mode == "append":
        # a bound of j leaves a coordinate free, 0 keeps the new ones out
        blocks = [(bounds + (j,) * (base.r - len(bounds)) + (0,) * k_extra, z)
                  for bounds, z in base.blocks]
        return HomogeneousSubspace(r2, j, tuple(blocks + [(x, [[1]]) for x in powers]), base.p)
    if mode == "summed":
        if len(base.blocks) != 1 or len(base.blocks[0].coeffs) != 1:
            raise FamilyError("summed extension needs a single-generator base")
        bounds, z = base.blocks[0]
        support = enumerate_constrained(base.r, j, bounds)
        terms = {m + (0,) * k_extra: c for m, c in zip(support, z[0].tolist())}
        terms.update(dict.fromkeys(powers, 1))
        return HomogeneousSubspace.from_sparse(r2, j, [terms], bounds + (j,) * (r2 - len(bounds)),
                                               base.p)
    raise FamilyError("unknown extension mode %r" % (mode,))


@dataclass(frozen=True)
class CatalogEntry:
    codim: int
    type: int
    status: str  # unimodal_forced | exists_nonunimodal | unknown
    recipe: dict | None = None
    notes: str = ""

    def to_json(self):
        obj = {"codim": self.codim, "type": self.type, "status": self.status}
        if self.recipe is not None:
            obj["recipe"] = self.recipe
        if self.notes:
            obj["notes"] = self.notes
        return obj


def _family_recipe(family, t, base_i, shape):
    """Instance of `family` with type t at the least i >= base_i with s = t - u <= m_P(j).

    In F1, G1 and H1 neither m_P(j) (P leaves two coordinates free) nor
    min_sufficient_s (j - i_f is fixed) falls as i grows, so the valid i, if
    any, are an interval starting at that i: found by doubling and bisection.
    """
    a, b, c = shape.get("a"), shape.get("b"), shape.get("c")
    s = t - _shape(family, a, b, c, base_i)[4]

    def fits(i):  # s <= m_P(j)
        return s <= count_constrained(*_shape(family, a, b, c, i)[:3])
    lo, hi = base_i - 1, base_i  # fits(hi), and lo < base_i or not fits(lo)
    while not fits(hi):
        lo, hi = hi, 2 * hi - base_i + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    res = validate(family, a=a, b=b, c=c, i=hi, s=s)
    if res.valid:
        return res.params.to_json()
    raise FamilyError("no instance found for %s type %d" % (family, t))


def existence_catalog(r, t):
    """Is a level algebra of codimension r and type t forced unimodal?

    Returns the status and, when non-unimodal examples exist, a concrete
    construction recipe.
    """
    if r < 1 or t < 1:
        raise ValueError("codimension and type must be positive")
    if r <= 2:
        return CatalogEntry(r, t, "unimodal_forced",
                            notes="codimension at most 2 forces unimodality")
    if r == 3:
        if t == 1:
            return CatalogEntry(r, t, "unimodal_forced",
                                notes="type 1 in codimension 3 forces unimodality")
        if t <= 4:
            return CatalogEntry(r, t, "unknown")
        return CatalogEntry(r, t, "exists_nonunimodal",
                            recipe=_family_recipe("F1", t, 42, {"a": 21}))
    if r == 4:
        if t <= 2:
            return CatalogEntry(r, t, "unknown")
        if t == 3:
            return CatalogEntry(r, t, "exists_nonunimodal",
                                recipe=_family_recipe("G1", 3, 13, {"a": 3, "b": 4}))
        return CatalogEntry(r, t, "exists_nonunimodal",
                            recipe=_family_recipe("G1", t, 17, {"a": 4, "b": 4}))
    if r == 5:
        if t == 1:
            return CatalogEntry(r, t, "exists_nonunimodal",
                                recipe={"kind": "bernstein_t1"})
        if t == 2:
            return CatalogEntry(r, t, "exists_nonunimodal",
                                recipe={"kind": "bernstein_t2"})
        if t == 3:
            return CatalogEntry(r, t, "exists_nonunimodal",
                                recipe=_family_recipe("H1", 3, 12,
                                                      {"a": 2, "b": 2, "c": 3}))
        return CatalogEntry(r, t, "exists_nonunimodal",
                            recipe=_family_recipe("H1", t, 27,
                                                  {"a": 3, "b": 3, "c": 3}))
    # r > 5: extend a codimension-5 construction
    k = r - 5
    if t > k:
        base = existence_catalog(5, t - k)
        recipe = {"kind": "extend_codim", "base": base.recipe,
                  "k_extra": k, "mode": "append"}
    else:
        # keep the type low: summed (type-preserving) extension of the
        # type-1 example, then append t-1 monomial generators
        recipe = {"kind": "extend_codim",
                  "base": {"kind": "extend_codim",
                           "base": {"kind": "bernstein_t1"},
                           "k_extra": k - (t - 1), "mode": "summed"},
                  "k_extra": t - 1, "mode": "append"}
        if t == 1:
            recipe = {"kind": "extend_codim", "base": {"kind": "bernstein_t1"},
                      "k_extra": k, "mode": "summed"}
    return CatalogEntry(r, t, "exists_nonunimodal", recipe=recipe)


def realize_recipe(recipe, seed=0, p=exactalg.DEFAULT_PRIME):
    """Build the subspace a catalog recipe describes."""
    if "family" in recipe:
        params = require_valid(recipe["family"], a=recipe.get("a"),
                               b=recipe.get("b"), c=recipe.get("c"),
                               i=recipe.get("i"), s=recipe.get("s"))
        return construct(params, seed, p)
    kind = recipe["kind"]
    if kind == "extend_codim":
        base = realize_recipe(recipe["base"], seed, p)
        return extend_codim(base, recipe["k_extra"], recipe.get("mode", "append"))
    return special_construction(kind, seed, p)
