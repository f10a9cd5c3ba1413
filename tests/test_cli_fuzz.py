"""Resource-bounded fuzzing of the command line.

Hypothesis draws argument vectors for every subcommand from a small grammar:
near-valid subspaces, L-matrices and family instances whose numbers may be
extreme integers, floats, bools, strings or the wrong container, with huge
ranges, seeds, trials, retries and bounds.  Each draw runs in a child
process of its own, one at a time, under RLIMIT_AS and a wall timeout.
Whatever the input, the program must exit 0, 1 or 2, print no traceback
and keep stdout under STDOUT_BOUND bytes; exit 1 is one `error:` line on
stderr and nothing on stdout.

The draws are derandomized, so tier-1 sees the same few draws on every run;
raise `max_examples` (and drop `derandomize`) to search further.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from levelalg import families
from levelalg.multiindex import enumerate_constrained

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 1 << 30  # RLIMIT_AS of a child, in bytes
WALL_SECONDS = 60  # a child's wall timeout
# Bytes a child may print, also its RLIMIT_FSIZE.  The largest answers the
# guards admit are topset listings of up to 2^24 tuples: `poset topsets
# --q 3,3,3` prints 60 MB.
STDOUT_BOUND = 1 << 27
CHILD = ("import resource, sys\n"
         "resource.setrlimit(resource.RLIMIT_AS, (%d, %d))\n"
         "resource.setrlimit(resource.RLIMIT_FSIZE, (%d, %d))\n"
         "from levelalg.cli import main\n"
         "sys.exit(main(sys.argv[1:]))\n"
         % (ADDRESS_SPACE, ADDRESS_SPACE, STDOUT_BOUND, STDOUT_BOUND))

EXTREME_INTS = st.sampled_from([-1, -2 ** 63, 2 ** 31 - 1, 2 ** 31, 2 ** 53 + 1, 2 ** 63 - 1,
                                2 ** 63, 2 ** 64, 10 ** 30])
INTS = st.integers(-2, 12) | EXTREME_INTS
SCALARS = INTS | st.floats() | st.booleans() | st.none() | st.text(max_size=3)
HOSTILE = (SCALARS | st.lists(SCALARS, max_size=3)
           | st.dictionaries(st.text(max_size=2), SCALARS, max_size=2))
PRIMES = st.sampled_from(["2", "3", "101", "32749", "1000003", "3037000493"])
# text an argument can hold: no NUL, no lone surrogate
ARG_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                   max_size=5)


def near(valid):
    """Mostly a valid value, sometimes a hostile one in its place."""
    return st.one_of(valid, valid, valid, HOSTILE)


def option(name, values):
    """[], or [name, value] with value a drawn value as text, or arbitrary text."""
    return st.just([]) | st.tuples(st.just(name), values.map(str) | ARG_TEXT).map(list)


@st.composite
def subspaces(draw):
    r, j = draw(st.integers(0, 4)), draw(st.integers(0, 8))
    monos = enumerate_constrained(r, j) or [(0,) * r]  # r = 0 < j has no monomial
    term = st.fixed_dictionaries({"monomial": near(st.sampled_from(monos).map(list)),
                                  "coeff": near(INTS)})
    obj = {"r": draw(near(st.just(r))), "j": draw(near(st.just(j))),
           "generators": draw(near(st.lists(near(st.lists(near(term), max_size=3)),
                                            max_size=3)))}
    if draw(st.booleans()):
        obj["constraint"] = draw(near(st.fixed_dictionaries(
            {"bounds": near(st.lists(near(st.integers(0, j)), max_size=r))})))
    return draw(near(st.just(obj)))


@st.composite
def instances(draw):
    family, kw, _, _ = draw(st.sampled_from(families.GOLDEN))
    obj = {"family": family, **kw}
    for key in draw(st.lists(st.sampled_from(["family", "a", "b", "c", "i", "s"]), max_size=2)):
        obj[key] = draw(INTS | HOSTILE)
    return draw(near(st.just(obj)))


@st.composite
def matrices(draw):
    n = draw(st.integers(0, 4))
    cell = st.just(0) | st.tuples(near(st.integers(1, 3)), near(st.sampled_from("xyz"))).map(list)
    grid = draw(near(st.lists(near(st.lists(near(cell), min_size=n, max_size=n)), max_size=4)))
    obj = {"entries": grid}
    if draw(st.booleans()):
        obj["q"] = draw(near(st.lists(near(st.integers(0, 2)), max_size=2)))
        for key in ("row_sizes", "col_sizes"):
            obj[key] = draw(near(st.lists(near(st.integers(0, 3)), max_size=9)))
    return draw(near(st.just(obj)))


def document(objects):
    """A JSON argument: canonical, as a file's text would be, or not JSON at all."""
    return objects.map(json.dumps) | st.sampled_from(["{", "{\"r\": 1,}", "{}", "{\"x\": NaN}"])


def argvs():
    fmt = option("--format", st.sampled_from(["json", "csv", "pretty"]))
    ranges = st.tuples(INTS, INTS).map(lambda t: "%d..%d" % t) | ARG_TEXT
    hilbert = st.tuples(st.just(["hilbert"]), document(subspaces()).map(lambda s: [s]),
                        option("--range", ranges), option("--prime", PRIMES | INTS), fmt)
    actions = st.sampled_from(["validate", "predict", "verify", "type"]).map(lambda a: [a])
    family = st.tuples(st.just(["family"]), actions,
                       document(instances()).map(lambda s: [s]), option("--seed", INTS),
                       option("--prime", PRIMES), option("--retries", INTS), fmt)
    catalog = st.tuples(st.just(["catalog"]), option("--codim", INTS), option("--type", INTS), fmt)
    q = st.lists(INTS, max_size=3).map(lambda q: ",".join(map(str, q))) | ARG_TEXT
    poset = st.tuples(st.just(["poset"]), st.sampled_from([["tpp"], ["topsets"]]),
                      q.map(lambda q: ["--q", q]), option("--trials", INTS),
                      option("--seed", INTS), fmt)
    lmatrix = st.tuples(st.just(["lmatrix", "check"]), document(matrices()).map(lambda s: [s]),
                        fmt)
    selftest = st.tuples(st.just(["selftest"]), option("--seed", INTS), fmt)
    unknown = st.tuples(st.sampled_from([[], ["bench"], ["hilbert"], ["catalog", "--seed", "1"]]))
    return st.one_of(hilbert, family, catalog, poset, lmatrix, selftest, unknown).map(
        lambda parts: [a for part in parts for a in part])


def run_child(argv):
    """(exit code, stdout bytes, first bytes of stdout, stderr); stdout goes to a file."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryFile() as out:
        done = subprocess.run([sys.executable, "-c", CHILD] + argv, env=env, stdout=out,
                              stderr=subprocess.PIPE, timeout=WALL_SECONDS)
        size = out.tell()
        out.seek(0)
        return done.returncode, size, out.read(100), done.stderr


VALID = json.dumps({"r": 2, "j": 5, "generators": [[{"monomial": [3, 2], "coeff": 1}]]})


@given(argv=argvs())
@example(argv=["hilbert", VALID, "--range", "0..%d" % 2 ** 31])
@example(argv=["hilbert", VALID, "--range", "-%d..5" % 10 ** 30])
@example(argv=["hilbert", json.dumps({"r": 1, "j": 2 ** 31, "generators": []}),
               "--prime", "3037000493"])
@settings(max_examples=12, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
def test_any_argv_exits_cleanly(argv):
    code, size, head, err = run_child(argv)
    assert code in (0, 1, 2), (argv, code, err[-2000:])
    assert b"Traceback" not in err, (argv, err[-2000:])
    assert size < STDOUT_BOUND, (argv, size)
    if code == 1:
        assert size == 0, (argv, head)
        lines = err.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
