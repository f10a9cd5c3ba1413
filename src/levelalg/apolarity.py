"""Differential-operator apolarity: derivative matrices and Hilbert functions.

Monomials X^E of the polynomial ring act on degree-j forms as differential
operators: X^E * x^J = n(J, E) x^(J-E) with n(J, E) a product of falling
factorials.  For a subspace W spanned by degree-j forms, the Hilbert function
of the level algebra R/Ann(W) is h(d) = dim R_{j-d} * W, computed here as the
rank over GF(p) of a derivative coefficient matrix.

Generators are stored in blocks, each a pair of a bound tuple ("box")
confining its monomial support and the generators' coefficients.  A boxed
derivative matrix has two views: `symbolic_matrix`, the L-matrix in the
formal coefficients z_{i,J}, and its evaluation over GF(p).  The latter's
entries n(J, E) z_i[J] = J!/D! z_i[J] (J = D + E) make it the gather
z_i[J] J!, the contraction catalecticant of Iarrobino and Kanev (LNM 1721,
App. A), times diag(1/D!), which is invertible for p > j: so
`hilbert_value` scales each block's coefficients by J! mod p and ranks
their `DerivativeTemplate.gather`, with no 1/D! factor.  Where each z_i[J]
lands depends on r, j, the boxes and d, not on p, so a template holds keys
only.  `symbolic_matrix` places its entries from its own row and column
lists, not from a template, so each view is an oracle for the other.
Both views are cropped per block: rows range over operator exponents
inside the box, columns over the union of the per-block target supports.
Cropping removes only all-zero rows and columns, so ranks match the
uncropped matrix, which is the same forms over the unbounded box ().

No derivative matrix over MAX_CELLS entries, and no monomial list over
MAX_MONOMIALS, is built: `check_cells` counts them first and refuses them
with a ValueError; a subspace of socle degree j over MAX_DEGREE is refused
when built, since its Hilbert vector and k! table have j + 1 entries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add, le, sub
from typing import NamedTuple

import numpy as np

from . import exactalg
from .gqposet import GQPoset
from .lmatrix import GQBlockStructure, SymbolicMatrix
from .multiindex import count_constrained, enumerate_constrained

MAX_CELLS = 2 ** 24  # entries of the largest derivative matrix that is built
MAX_MONOMIALS = 2 ** 18  # monomials in the longest support, row or column list
MAX_DEGREE = 2 ** 16  # socle degree j: h has j + 1 values and the k! table j + 1 entries


def derivative_coefficient(j_idx, e_idx):
    """n(J, E) = product over k of J_k (J_k - 1) ... (J_k - E_k + 1)."""
    n = 1
    for jk, ek in zip(j_idx, e_idx):
        if ek > jk:
            return 0
        for t in range(ek):
            n *= jk - t
    return n


class GeneratorBlock(NamedTuple):
    """Generators sharing a support box M_bounds(j): one coefficient row per
    generator, over the box's degree-j monomials in descending lex order."""

    bounds: tuple
    coeffs: np.ndarray  # shape (generators, m_bounds(j))


@dataclass(frozen=True)
class HomogeneousSubspace:
    """A subspace of the degree-j forms, spanned by the blocks' generators.

    Each (bounds, coeffs) pair of blocks becomes a GeneratorBlock of 2-d
    int64 coefficients, checked to be as wide as the box's support.  A
    float or bool coefficient is refused with a ValueError, not truncated."""

    r: int
    j: int
    blocks: tuple
    p: int = exactalg.DEFAULT_PRIME

    def __post_init__(self):
        object.__setattr__(self, "p", exactalg.check_prime(self.p))
        if self.p <= self.j:
            raise ValueError("prime must exceed the socle degree")
        if self.j > MAX_DEGREE:
            raise ValueError("socle degree %d over the limit of %d" % (self.j, MAX_DEGREE))
        blocks = []
        for bounds, coeffs in self.blocks:
            bounds, z = tuple(bounds), np.atleast_2d(np.asarray(coeffs))
            width = count_constrained(self.r, self.j, bounds)
            if z.ndim != 2 or z.shape[1] != width:
                raise ValueError("coefficient width %d != support size %d" % (z.shape[-1], width))
            if z.dtype.kind not in "iu" or not isinstance(coeffs, np.ndarray):
                for x in np.asarray(coeffs, dtype=object).flat:  # [1, True] is an int array
                    exactalg.json_int(x, "coeff", signed=True)
            blocks.append(GeneratorBlock(bounds, z.astype(np.int64, copy=False)))
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def from_sparse(cls, r, j, generators, bounds=None, p=exactalg.DEFAULT_PRIME):
        """Build from sparse generators, each a {monomial: coeff} dict or a
        list of (monomial, coeff) pairs, the last pair of a monomial winning.

        Every exponent and coefficient is checked by `exactalg.json_int` as
        it is read, before anything else: a float or bool is refused, not truncated.
        Terms whose coefficient is 0 mod p are dropped.  With an explicit
        bound tuple the subspace is one block.  Without one, a generator's
        box is the componentwise maximum of its monomials, and each run of
        consecutive generators with the same box is a block.  A generator's
        derivatives vanish outside its own box, so cropping to it never
        changes ranks.
        """
        generators = [[(tuple(exactalg.json_int(x, "exponent") for x in mono),
                        exactalg.json_int(coeff, "coeff", signed=True))
                       for mono, coeff in (g.items() if isinstance(g, dict) else g)]
                      for g in generators]
        check_codes(r, j)  # before anything of length r is built
        terms = []
        for g in generators:
            g = dict(g)
            for mono in g:
                if len(mono) != r:
                    raise ValueError("every monomial must have r = %d entries" % r)
                if sum(mono) != j:
                    raise ValueError("generator monomial %r has degree != %d" % (mono, j))
            terms.append({mono: coeff % p for mono, coeff in g.items() if coeff % p})
        if bounds is not None:
            runs = [(tuple(bounds), terms)]
        else:
            runs = []
            for g in terms:
                box = tuple(max((mono[k] for mono in g), default=0) for k in range(r))
                if runs and runs[-1][0] == box:
                    runs[-1][1].append(g)
                else:
                    runs.append((box, [g]))
            runs = runs or [((0,) * r, [])]
        blocks = []
        for box, gens in runs:
            check_cells(r, j, j, ((box, len(gens)),))  # s x support
            index = {m: i for i, m in enumerate(enumerate_constrained(r, j, box))}
            coeffs = np.zeros((len(gens), len(index)), dtype=np.int64)
            for gi, g in enumerate(gens):
                for mono, coeff in g.items():
                    if mono not in index:
                        raise ValueError("monomial %r outside the support box" % (mono,))
                    coeffs[gi, index[mono]] = coeff
            blocks.append((box, coeffs))
        return cls(r, j, tuple(blocks), p)

    def to_json(self):
        gens = []
        for bounds, coeffs in self.blocks:
            support = enumerate_constrained(self.r, self.j, bounds)
            gens.extend([{"monomial": list(m), "coeff": c} for m, c in zip(support, z) if c]
                        for z in coeffs.tolist())
        obj = {"r": self.r, "j": self.j, "generators": gens}
        if len(self.blocks) == 1:
            obj["constraint"] = {"bounds": list(self.blocks[0].bounds)}
        return obj

    @classmethod
    def from_json(cls, obj, p=exactalg.DEFAULT_PRIME):
        """Parse {"r", "j", "generators", "constraint"?} strictly.

        Every number must be an integer: a float or bool is refused, not
        truncated, here for r, j and the bounds, by `from_sparse` for the terms.
        """
        if not isinstance(obj, dict):
            raise ValueError("a subspace must be a JSON object")
        r, j = exactalg.json_int(obj["r"], "r"), exactalg.json_int(obj["j"], "j")
        bounds = None
        if obj.get("constraint"):
            bounds = tuple(exactalg.json_int(q, "bound") for q in obj["constraint"]["bounds"])
        # lazily, so each term is checked before the next is read
        gens = (((t["monomial"], t["coeff"]) for t in g) for g in obj["generators"])
        return cls.from_sparse(r, j, gens, bounds, p)


def check_codes(r, j):
    """Refuse r, j whose mixed-radix j+1 monomial codes would pass int64."""
    if r >= 63 or (j + 1) ** r >= 2 ** 63:
        raise ValueError("monomial codes overflow int64 for r=%d, j=%d" % (r, j))


def check_cells(r, j, d, crops):
    """The counted (rows, cols) of the degree-d derivative matrix, refused over MAX_CELLS.

    crops holds one (crop box, generator count) pair per block; a block with
    no generators still builds its grid of positions, so it counts as one.
    The shape is counted, not enumerated: rows exactly, columns as the
    smaller of the blocks' total and the count of the least box holding
    every crop box, which is exact for one block and for nested boxes.
    A block's support, row and column lists, and the column union, are
    enumerated as tuples, so each is also refused over MAX_MONOMIALS.
    """
    counts = [[count_constrained(r, e, box) for e in (j, j - d, d)] for box, _ in crops]
    rows = sum(max(s, 1) * c[1] for (_, s), c in zip(crops, counts))
    total = sum(c[2] for c in counts)
    padded = [tuple(box) + (j,) * (r - len(box)) for box, _ in crops]
    hull = tuple(max(col) for col in zip(*padded))
    cols = min(total, count_constrained(r, d, hull))
    if rows * cols > MAX_CELLS:
        raise ValueError("the degree-%d derivative matrix would be %d x %d, over the limit "
                         "of %d entries" % (d, rows, cols, MAX_CELLS))
    longest = max([cols] + [max(c) for c in counts])
    if longest > MAX_MONOMIALS:
        raise ValueError("the degree-%d derivative matrix would enumerate %d monomials in one "
                         "list, over the limit of %d" % (d, longest, MAX_MONOMIALS))
    return rows, cols


@dataclass(frozen=True)
class _BlockTemplate:
    """One generator block's share of a DerivativeTemplate; arrays are read-only.

    A multi-index's key is its mixed-radix j+1 code, big-endian and negated:
    J = D + E has no digit above j, so key(J) = key(D) + key(E), and the
    descending lex support has ascending keys.  `keys` ends in a sentinel.
    """

    keys: np.ndarray  # key(J) per support position, then the sentinel 1
    row_keys: np.ndarray  # key(E) per row exponent

    def __post_init__(self):
        for v in vars(self).values():
            v.flags.writeable = False


@dataclass(frozen=True)
class DerivativeTemplate:
    """Where each coefficient lands in a stacked derivative matrix: keys only, no prime.

    Entry ((E, i), D) of a block is n(J, E) z_i[J] with J = D + E and
    n(J, E) = prod_k J_k! / D_k!, so the derivative matrix is the gather of
    z_i[J] J! times diag(1/D!).  That factor is invertible mod p > j and
    leaves the rank alone, so `hilbert_value` scales z by J! mod p and ranks
    the gather itself.  Positions are rebuilt per gather; a template holds
    O(support) data.
    """

    col_keys: np.ndarray  # key(D) per column, ascending: the union of the blocks' D
    blocks: tuple  # of _BlockTemplate

    def gather(self, coeffs):
        """The float64 matrix coeffs[pos(D + E)], one 2-d coefficient array per block.

        A column D outside a block's box puts D + E outside it too, so each
        block searches its positions among all the columns, and such
        entries read the sentinel's 0.
        """
        ncols = len(self.col_keys)
        out = np.empty((sum(len(b.row_keys) * len(z) for b, z in zip(self.blocks, coeffs)), ncols))
        top = 0
        for part, z in zip(self.blocks, coeffs):
            zf = np.zeros((len(z), len(part.keys)))
            zf[:, :-1] = z
            keys = part.row_keys[:, None] + self.col_keys  # key(D + E) per (E, D)
            pos = np.searchsorted(part.keys, keys)
            pos[part.keys[pos] != keys] = len(part.keys) - 1
            rows = out[top:top + len(part.row_keys) * len(z)]
            view = rows.reshape(len(part.row_keys), len(z), ncols)
            for i, zi in enumerate(zf):  # a gather per generator beats one strided copy
                view[:, i] = zi[pos]
            top += len(rows)
        return out


def _monomials(r, e, bounds):
    """The box's degree-e monomials, one int64 row each, in descending lex order."""
    monos = enumerate_constrained(r, e, bounds)
    return np.array(monos, dtype=np.int64).reshape(len(monos), r)


@lru_cache(maxsize=16)
def _factorials(j, p):
    """Read-only int64 k! mod p for k = 0..j, by running products."""
    fact = np.array(list(accumulate(range(1, j + 1), lambda f, k: f * k % p, initial=1)),
                    dtype=np.int64)
    fact.flags.writeable = False
    return fact


@lru_cache(maxsize=64)
def _support_factorials(r, j, bounds, p):
    """Read-only int64 J! = prod_k J_k! mod p per degree-j monomial J of the box."""
    fact, monos = _factorials(j, p), _monomials(r, j, bounds)
    out = np.ones(len(monos), dtype=np.int64)
    for exps in monos.T:
        out = out * fact[exps] % p
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def derivative_template(r, j, block_bounds, d):
    """The DerivativeTemplate of blocks with these bounds at degree d.

    Block rows are the operator exponents E of degree j-d inside the
    block's box; the template's columns are the union of the blocks'
    targets D of degree d, in ascending key order.
    """
    check_codes(r, j)
    weights = -(j + 1) ** np.arange(r - 1, -1, -1, dtype=np.int64)
    union = np.array(sorted(set().union(*((_monomials(r, d, bounds) @ weights).tolist()
                                          for bounds in block_bounds))), dtype=np.int64)
    union.flags.writeable = False
    return DerivativeTemplate(union, tuple(
        _BlockTemplate(np.append(_monomials(r, j, bounds) @ weights, 1),
                       _monomials(r, j - d, bounds) @ weights) for bounds in block_bounds))


@dataclass(frozen=True)
class DerivativeMatrix:
    """A symbolic derivative matrix with its row/column indexes and block structure."""

    matrix: SymbolicMatrix
    row_index: tuple  # pairs (E, generator index)
    col_index: tuple  # multi-indexes D
    structure: GQBlockStructure


def symbolic_matrix(r, j, bounds, d, s):
    """The (j-d)-th derivative matrix of s forms in M_bounds(j), in the formal z_{i,J}.

    Rows are pairs (E, i) with E of degree e = j-d in the box and i < s,
    columns the box's monomials D of degree d, both in descending
    lexicographic order.  The entry at ((E, i), D) is n(J, E) z_{i,J} for
    J = D + E inside the box, else zero.  Evaluated at coefficients over
    GF(p), with column D scaled by D!, it is `hilbert_matrix`.  The G_Q
    block sizes are counted off the same two lists: row block I holds the
    rows whose E starts with I, column block I the columns whose D starts
    with Q - I, and every element of G_Q has both, zeros included.
    """
    bounds = tuple(bounds)
    check_cells(r, j, d, ((bounds, s),))
    rows, cols = enumerate_constrained(r, j - d, bounds), enumerate_constrained(r, d, bounds)

    def entry(ee, i, dd):
        jj = tuple(map(add, dd, ee))
        return (derivative_coefficient(jj, ee), (i, jj)) if all(map(le, jj, bounds)) else None

    poset = GQPoset(bounds)
    starts = Counter(ee[:len(bounds)] for ee in rows)
    ends = Counter(tuple(map(sub, bounds, dd)) for dd in cols)
    return DerivativeMatrix(
        SymbolicMatrix(tuple(tuple(entry(ee, i, dd) for dd in cols)
                             for ee in rows for i in range(s))),
        tuple((ee, i) for ee in rows for i in range(s)), tuple(cols),
        GQBlockStructure(poset, {e: s * starts[e] for e in poset.elements},
                         {e: ends[e] for e in poset.elements}))


def hilbert_matrix(w, d):
    """The float64 matrix whose GF(p) rank is h(d): each block's z_i J! mod p gathered at D + E."""
    check_cells(w.r, w.j, d, tuple((bounds, len(z)) for bounds, z in w.blocks))
    t = derivative_template(w.r, w.j, tuple(bounds for bounds, _ in w.blocks), d)
    return t.gather([z % w.p * _support_factorials(w.r, w.j, bounds, w.p) % w.p
                     for bounds, z in w.blocks])


def hilbert_value(w, d):
    """h(d) = dim R_{j-d} * W, the rank of the cropped derivative matrix."""
    if d < 0 or d > w.j:
        return 0
    return exactalg.rank(hilbert_matrix(w, d), w.p)


def hilbert_vector(w, rng=None):
    """The Hilbert values h(lo), ..., h(hi) of a range [lo, hi], by default 0..j.

    h is 0 outside 0..j, so a range of more than j + 1 degrees is refused
    with a ValueError before anything is computed.
    """
    lo, hi = (0, w.j) if rng is None else rng
    if hi - lo > w.j:
        raise ValueError("range %d..%d has %d degrees, more than j + 1 = %d"
                         % (lo, hi, hi - lo + 1, w.j + 1))
    return tuple(hilbert_value(w, d) for d in range(lo, hi + 1))


def sum_space_dimension(v, w, d):
    """(dim R_{j-d}*(V+W), whether it splits as the sum of the parts' dimensions)."""
    if v.r != w.r or v.j != w.j or v.p != w.p:
        raise ValueError("subspaces live in different ambients")
    both = HomogeneousSubspace(v.r, v.j, v.blocks + w.blocks, v.p)
    dim = hilbert_value(both, d)
    return dim, dim == hilbert_value(v, d) + hilbert_value(w, d)
