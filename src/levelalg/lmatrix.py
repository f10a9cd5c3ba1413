"""Symbolic PV/L-matrices, G_Q block patterns, and determinant oracles.

A PV-matrix has entries that are either zero or a positive integer multiple
of a single variable.  A variable "moves to the left" when, for any two of
its occurrences, the one in the lower row sits strictly further left; an
L-matrix is a PV-matrix all of whose variables move left.

The paper's nonsingularity criterion for a square L-matrix with G_Q block
pattern (block rows indexed by G_Q in descending lexicographic order, block
columns in ascending order, block (I, J) all-nonzero exactly when I
dominates J) asks that the block excesses A_I = r_I - c_I sum to a
nonnegative value over every nonempty proper topset of G_Q.  It is not an
"iff" for every such matrix.  The derivative matrix
`apolarity.symbolic_matrix(3, 5, (2, 2, 2), 4, 2)` of s = 2 forms is a 6 x 6
L-matrix with the pattern and the criterion holds, yet its determinant is
the zero polynomial: the derivative factors n(J, E) cancel.  Measured scope, over
every square cropped derivative matrix of 1-7 rows with r <= 4, j <= 8, s <= 3,
bounds up to j and a nonempty support: where some coordinate is free (fewer
bounds than r, or a bound >= j), the criterion and a nonzero determinant agreed
in all 4121 cases; where every coordinate is bounded below j, they agreed in
7092 and the criterion held over a zero determinant in 100.  The criterion was
never false on a derivative matrix, and on random_l_matrix draws, whose
factors are random, no disagreement has been found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import exactalg
from .gqposet import FinitePoset, GQPoset, dominates, first_negative_topset

EXACT_DET_LIMIT = 7
DET_TRIALS = 3  # evaluation points of the randomized determinant test
# random_gq_structure's Q shapes (|G_Q| <= 8); random_l_matrix's chance of
# reusing a variable and largest factor
GQ_SHAPES = ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (1, 1), (1, 2), (1, 3), (1, 1, 1))
REUSE_PROB = 0.3
MAX_LAMBDA = 3


@dataclass(frozen=True)
class SymbolicMatrix:
    """Rectangular grid of entries, each None or (lam, var) with lam >= 1."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged entry grid")
        for r in rows:
            for cell in r:
                if cell is None:
                    continue
                lam, _ = cell
                if lam < 1:
                    raise ValueError("nonzero entries need a positive factor")
        object.__setattr__(self, "entries", rows)

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0]) if self.entries else 0

    @property
    def variables(self):
        out = set()
        for r in self.entries:
            for cell in r:
                if cell is not None:
                    out.add(cell[1])
        return out

    def to_json(self):
        return [[0 if cell is None else [cell[0], cell[1]] for cell in row]
                for row in self.entries]

    @classmethod
    def from_json(cls, grid):
        """Parse rows of cells, each 0 or [lam, var] with lam an int >= 1, var a string."""
        def cell(x):
            if type(x) is int and x == 0:
                return None
            if type(x) is not list or len(x) != 2 or type(x[1]) is not str:
                raise ValueError("a cell must be 0 or [lam, var] with var a string, got %r"
                                 % (x,))
            return exactalg.json_int(x[0], "lam"), x[1]
        return cls(tuple(tuple(cell(x) for x in row) for row in grid))


@dataclass(frozen=True)
class Classification:
    moving_left_variables: frozenset
    is_l_matrix: bool


def classify(m):
    """PV/L classification with the set of variables that move left."""
    occ = {}
    for i, row in enumerate(m.entries):
        for j, cell in enumerate(row):
            if cell is not None:
                occ.setdefault(cell[1], []).append((i, j))
    # occurrences arrive in row-major order, so every pair is in a lower row
    # and strictly further left iff every consecutive pair is
    moving = {var for var, places in occ.items()
              if all(r1 < r2 and c1 > c2 for (r1, c1), (r2, c2) in zip(places, places[1:]))}
    return Classification(frozenset(moving), len(moving) == len(occ))


@dataclass(frozen=True)
class GQBlockStructure:
    """Block sizes r_I, c_I over G_Q with excesses A_I = r_I - c_I."""

    poset: GQPoset
    r: dict
    c: dict

    def __post_init__(self):
        for e in self.poset.elements:
            if self.r.get(e, 0) < 0 or self.c.get(e, 0) < 0:
                raise ValueError("negative block size")

    def excess(self, i):
        return self.r.get(i, 0) - self.c.get(i, 0)

    @property
    def total_rows(self):
        return sum(self.r.get(e, 0) for e in self.poset.elements)

    @property
    def total_cols(self):
        return sum(self.c.get(e, 0) for e in self.poset.elements)

    @property
    def is_square(self):
        return self.total_rows == self.total_cols

    def pattern(self):
        """Cell-level nonzero mask: block (I, J) is all-nonzero iff I dominates J.

        Block rows run in descending lexicographic order, block columns in
        ascending order; only blocks of nonzero size are compared, so the
        work stays within the size of the matrix itself.
        """
        rows = [e for e in reversed(self.poset.elements) if self.r.get(e, 0)]
        cols = [e for e in self.poset.elements if self.c.get(e, 0)]
        blocks = np.array([[dominates(i, j) for j in cols] for i in rows], dtype=bool)
        return (blocks.reshape(len(rows), len(cols))
                .repeat([self.r[e] for e in rows], axis=0)
                .repeat([self.c[e] for e in cols], axis=1))


def verify_gq_pattern(m, structure):
    """Is every block all-nonzero when row index dominates column index,
    and all-zero otherwise?"""
    if m.nrows != structure.total_rows or m.ncols != structure.total_cols:
        raise ValueError("matrix shape does not match block sizes")
    return structure.pattern().tolist() == [[cell is not None for cell in row]
                                            for row in m.entries]


def gq3_criterion(structure):
    """Nonsingularity criterion for a square G_Q-pattern L-matrix.

    The paper states it in four equivalent forms:
    - excess sums >= 0 over nonempty proper topsets of G_Q;
    - the same over nonempty topsets of G_Q minus Q;
    - excess sums <= 0 over nonempty proper bottomsets;
    - the same over nonempty bottomsets of G_Q minus 0.
    On a square structure they are one test: the empty and the full set
    both sum to 0, the only topset holding the minimum Q is the full set,
    every nonempty topset holds the maximum 0, and a bottomset sums to minus
    its complement.  So the excesses are checked over every topset of the
    elements with a block, nonzero r_I or c_I: the excess is 0 off them, and
    their topsets are the traces of G_Q's.  So the work follows the matrix.
    """
    if not structure.is_square:
        raise ValueError("criterion requires a square structure")
    support = [e for e in structure.poset.elements if structure.r.get(e) or structure.c.get(e)]
    sub = FinitePoset(support, [[k for k in range(i) if dominates(support[k], e)]
                                for i, e in enumerate(support)])
    excess = np.array([structure.excess(e) for e in support], dtype=object)
    return bool(first_negative_topset(sub, excess.reshape(-1, 1))[0] < 0)


def exact_det_polynomial(m):
    """The determinant as a sparse polynomial: monomial -> integer coefficient.

    Monomials are sorted tuples of variables (with multiplicity).  Expansion
    is over all permutations, so the size guard matters.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    if n > EXACT_DET_LIMIT:
        raise ValueError("exact expansion limited to %dx%d"
                         % (EXACT_DET_LIMIT, EXACT_DET_LIMIT))
    poly = {}
    rows = m.entries
    for perm in itertools.permutations(range(n)):
        coeff = 1
        mono = []
        for i in range(n):
            cell = rows[i][perm[i]]
            if cell is None:
                coeff = 0
                break
            coeff *= cell[0]
            mono.append(cell[1])
        if coeff == 0:
            continue
        # permutation sign by counting inversions
        inv = sum(1 for a, b in itertools.combinations(range(n), 2)
                  if perm[a] > perm[b])
        if inv % 2:
            coeff = -coeff
        key = tuple(sorted(mono))
        poly[key] = poly.get(key, 0) + coeff
        if poly[key] == 0:
            del poly[key]
    return poly


def evaluate_symbolic(m, assignment, p=exactalg.DEFAULT_PRIME):
    """Evaluate a SymbolicMatrix at a variable assignment over GF(p).

    Entries are None (zero) or (lam, var) meaning lam * value(var).
    """
    out = np.zeros((m.nrows, m.ncols), dtype=np.int64)
    for i, row in enumerate(m.entries):
        for k, cell in enumerate(row):
            if cell is None:
                continue
            lam, var = cell
            if var not in assignment:
                raise KeyError("no value assigned to variable %r" % (var,))
            out[i, k] = lam % p * (assignment[var] % p) % p
    return out


def det_is_nonzero(m, mode="exact", p=exactalg.DEFAULT_PRIME, seed=0):
    """Decide (exact) or probabilistically test (randomized) det != 0.

    Randomized mode evaluates at DET_TRIALS uniform points of GF(p); a nonzero
    evaluation certifies a nonzero determinant, while `False` is wrong with
    probability at most (size/p)^DET_TRIALS.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    if mode == "exact":
        return bool(exact_det_polynomial(m))
    if mode == "randomized":
        variables = sorted(m.variables)
        for t in range(DET_TRIALS):
            rng = exactalg.stream(seed, "det-trial-%d" % t)
            vals = rng.integers(0, p, size=len(variables))
            assignment = {v: int(x) for v, x in zip(variables, vals)}
            dense = evaluate_symbolic(m, assignment, p)
            if exactalg.det(dense, p) != 0:
                return True
        return False
    raise ValueError("unknown mode %r" % (mode,))


def random_gq_structure(rng):
    """Random square block structure over a random G_Q, at most EXACT_DET_LIMIT rows."""
    while True:
        poset = GQPoset(GQ_SHAPES[int(rng.integers(0, len(GQ_SHAPES)))])
        r = {e: int(rng.integers(0, 3)) for e in poset.elements}
        c = {e: int(rng.integers(0, 3)) for e in poset.elements}
        s = GQBlockStructure(poset, r, c)
        if 0 < s.total_rows <= EXACT_DET_LIMIT and s.is_square:
            return s


def random_l_matrix(structure, rng):
    """A random L-matrix realizing the given G_Q pattern.

    Cells are filled row-major; each nonzero cell gets either a fresh
    variable or (with probability REUSE_PROB) an existing variable whose
    occurrences so far all sit in strictly higher rows and strictly further
    right, which preserves the move-to-left property by construction.
    """
    grid = [[None] * structure.total_cols for _ in range(structure.total_rows)]
    state = {}  # var -> (last row, leftmost column)
    fresh = 0
    for i, j in np.argwhere(structure.pattern()).tolist():
        lam = int(rng.integers(1, MAX_LAMBDA + 1))
        var = None
        if state and rng.random() < REUSE_PROB:
            eligible = [v for v, (lr, lc) in state.items()
                        if lr < i and lc > j]
            if eligible:
                var = eligible[int(rng.integers(0, len(eligible)))]
        if var is None:
            var = "z%d" % fresh
            fresh += 1
        state[var] = (i, j)
        grid[i][j] = (lam, var)
    return SymbolicMatrix(tuple(tuple(r) for r in grid))
