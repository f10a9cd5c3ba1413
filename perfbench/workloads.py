"""The three workloads: their inputs, built from the benchmark seed, and
their fixed task lists.

A task is one call of `levelalg.cli.main` with the argv a user would type,
or, where no subcommand exists, one call of a named public function.  The
task list, and so the work, is the same for every seed; the seed changes
only the random coefficients, program seeds and L-matrix entries.  Nothing
here imports levelalg: the child process passes the module in.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import checks

PRIME = 32749

# Generated L-matrices: the chance that a cell tries to reuse an earlier
# variable, and the largest coefficient lambda of a cell.
REUSE_PROB = 0.3
MAX_LAMBDA = 3

# Program seeds per golden instance in the type sweep.
TYPE_SEEDS = 20

TOPSET_SHAPES = ((6,), (2, 3), (3, 4), (1, 2, 2), (2, 2, 2), (1, 1, 1, 1),
                 (1, 1, 1, 1, 1))
TPP_SHAPES = ((4,), (2, 3), (1, 2, 2), (1, 1, 1, 1))
TPP_TRIALS = 10

# Square G_Q block structures (Q, r_I, c_I in ascending element order) for
# `lmatrix check`, at most 7 x 7 so that the exact determinant is computed.
# Both verdicts of the criterion occur.
SMALL_STRUCTURES = (
    ((), (5,), (5,)),
    ((1,), (2, 2), (2, 2)),
    ((1,), (1, 3), (2, 2)),
    ((2,), (3, 1, 2), (2, 2, 2)),
    ((2,), (1, 3, 2), (2, 1, 3)),
    ((3,), (2, 2, 2, 1), (1, 2, 2, 2)),
    ((3,), (1, 2, 2, 2), (2, 2, 2, 1)),
    ((1, 1), (2, 1, 2, 1), (1, 2, 1, 2)),
    ((1, 1), (1, 2, 1, 2), (2, 1, 1, 2)),
    ((1, 2), (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)),
    ((1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 0), (0, 1, 1, 1, 1, 1, 1, 1)),
    ((1, 1, 1), (0, 1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 0)),
)

# Larger structures for the randomized determinant: the small ones with
# every block scaled, which keeps the criterion's verdict.
LARGE_SCALE = 10
LARGE_STRUCTURES = tuple(
    (q, tuple(LARGE_SCALE * x for x in rows), tuple(LARGE_SCALE * x for x in cols))
    for q, rows, cols in SMALL_STRUCTURES[1:9])


class TaskFailed(Exception):
    """The program exited with an error code or printed no report."""


class Task:
    """One timed call; `check` maps its output to a list of problems."""

    def __init__(self, label, call, check, cli=False):
        self.label = label
        self.call = call
        self.check = check
        self.cli = cli  # output is (report, bytes printed)


def run_cli(levelalg, argv, expect_codes):
    """Run the CLI in-process with stdout captured; return (report, bytes)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = levelalg.cli.main(argv)
    text = buf.getvalue()
    if code not in expect_codes:
        raise TaskFailed("%s exited %r" % (" ".join(argv[:2]), code))
    return json.loads(text), len(text.encode())


def cli_task(levelalg, label, argv, check, expect_codes=(0,)):
    return Task(label, lambda: run_cli(levelalg, argv, expect_codes),
                lambda out: check(out[0]), cli=True)


def _monomials(r, d):
    if r == 1:
        return [(d,)]
    return [(a,) + m for a in range(d, -1, -1) for m in _monomials(r - 1, d - a)]


def bernstein_json(rng, k):
    """The type-k codimension-5 subspace: x4 f + x5 g with f, g random
    degree-15 forms in x1..x3, plus the first k - 1 of x5^16, x4 x5^15,
    x4^2 x5^14 as extra generators."""
    gen = []
    for m in _monomials(3, 15):
        gen.append({"monomial": list(m) + [1, 0], "coeff": rng.randrange(1, PRIME)})
        gen.append({"monomial": list(m) + [0, 1], "coeff": rng.randrange(1, PRIME)})
    gens = [gen]
    for tail in ((0, 0, 0, 0, 16), (0, 0, 0, 1, 15), (0, 0, 0, 2, 14))[:k - 1]:
        gens.append([{"monomial": list(tail), "coeff": 1}])
    return {"r": 5, "j": 16, "generators": gens}


def l_matrix(rng, case):
    """A random L-matrix with the G_Q pattern of `case`, as a JSON grid.

    Block row I (descending order) meets block column J (ascending order)
    in an all-nonzero block exactly when I dominates J.  Cells are filled
    row by row; a cell reuses a variable only when all of that variable's
    earlier cells lie in higher rows and further right, so every variable
    moves to the left.
    """
    q, rows, cols = case
    elements = checks.gq_elements(q)
    row_blocks = [e for e, n in zip(reversed(elements), reversed(rows))
                  for _ in range(n)]
    col_blocks = [e for e, n in zip(elements, cols) for _ in range(n)]
    last = {}  # variable -> (row, column) of its latest, lowest-leftmost cell
    names = []
    grid = []
    for i, bi in enumerate(row_blocks):
        row = []
        for j, bj in enumerate(col_blocks):
            if not checks.dominates(bi, bj):
                row.append(0)
                continue
            var = None
            if names and rng.random() < REUSE_PROB:
                cand = names[rng.randrange(len(names))]
                li, lj = last[cand]
                if li < i and lj > j:
                    var = cand
            if var is None:
                var = "z%d" % len(names)
                names.append(var)
            last[var] = (i, j)
            row.append([rng.randint(1, MAX_LAMBDA), var])
        grid.append(row)
    return grid


def lmatrix_json(grid, case):
    q, rows, cols = case
    return {"entries": grid, "q": list(q), "row_sizes": list(reversed(rows)),
            "col_sizes": list(cols)}


def paper_values(levelalg, seed):
    rng = random.Random("paper-values-%d" % seed)
    tasks = []
    for family in checks.GOLDEN:
        argv = ["family", "verify", json.dumps(checks.instance(family)),
                "--seed", str(seed)]
        tasks.append(cli_task(levelalg, "verify " + family, argv,
                              lambda out, f=family: checks.check_verify(f, out)))
    for k in (1, 2, 3, 4):
        argv = ["hilbert", json.dumps(bernstein_json(rng, k))]
        tasks.append(cli_task(levelalg, "hilbert t%d" % k, argv,
                              lambda out, k=k: checks.check_hilbert(k, out)))
    return tasks, None


def type_sweep(levelalg, seed):
    tasks = []
    for family in checks.GOLDEN:
        text = json.dumps(checks.instance(family))
        for s in range(seed * TYPE_SEEDS, (seed + 1) * TYPE_SEEDS):
            argv = ["family", "type", text, "--seed", str(s)]
            tasks.append(cli_task(levelalg, "type %s %d" % (family, s), argv,
                                  lambda out, f=family: checks.check_type(f, out),
                                  expect_codes=(0, 2)))

    def sweep_check(outputs):
        problems = []
        for family in checks.GOLDEN:
            types = [out[0]["type"] for task, out in zip(tasks, outputs)
                     if out is not None and task.label.split()[1] == family]
            problems += checks.check_type_share(family, types)
        return problems
    return tasks, sweep_check


def randomized_task(levelalg, case, grid):
    def call():
        lm = levelalg.lmatrix
        q, rows, cols = case
        poset = levelalg.gqposet.GQPoset(q)
        elements = checks.gq_elements(q)
        structure = lm.GQBlockStructure(poset, dict(zip(elements, rows)),
                                        dict(zip(elements, cols)))
        m = lm.SymbolicMatrix.from_json(grid)
        return (lm.gq3_criterion(structure),
                lm.det_is_nonzero(m, "randomized", PRIME))
    return Task("randomized %r" % (case,), call,
                lambda out: checks.check_randomized(case, *out))


def certificates(levelalg, seed):
    rng = random.Random("certificates-%d" % seed)
    tasks = []
    for q in TOPSET_SHAPES:
        argv = ["poset", "topsets", "--q", ",".join(map(str, q))]
        tasks.append(cli_task(levelalg, "topsets %r" % (q,), argv,
                              lambda out, q=q: checks.check_topsets(q, out)))
    for q in TPP_SHAPES:
        argv = ["poset", "tpp", "--q", ",".join(map(str, q)),
                "--trials", str(TPP_TRIALS), "--seed", str(seed)]
        tasks.append(cli_task(levelalg, "tpp %r" % (q,), argv,
                              lambda out, q=q: checks.check_tpp(q, TPP_TRIALS, out)))
    for case in SMALL_STRUCTURES:
        argv = ["lmatrix", "check", json.dumps(lmatrix_json(l_matrix(rng, case), case))]
        tasks.append(cli_task(levelalg, "lmatrix %r" % (case,), argv,
                              lambda out, c=case: checks.check_lmatrix(c, out)))
    for case in LARGE_STRUCTURES:
        tasks.append(randomized_task(levelalg, case, l_matrix(rng, case)))
    return tasks, None


WORKLOADS = {"paper-values": paper_values, "type-sweep": type_sweep,
             "certificates": certificates}
