"""Tests of the benchmark's own checks: each accepts the right answer and
rejects a deliberately wrong one.  They need no levelalg:

    python3 -m pytest perfbench
"""

import copy
import itertools
import json
import os
import random

import pytest

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def brute_topsets(q):
    """Every up-set of G_Q, by testing all subsets."""
    elements = checks.gq_elements(q)
    n = len(elements)
    above = [sum(1 << j for j in range(n) if checks.dominates(elements[j], e))
             for e in elements]
    return [[elements[i] for i in range(n) if mask >> i & 1]
            for mask in range(1 << n)
            if all(above[i] & ~mask == 0 for i in range(n) if mask >> i & 1)]


def topsets_report(q):
    n = len(checks.gq_elements(q))
    tops = [[list(m) for m in t] for t in brute_topsets(q) if 0 < len(t) < n]
    return {"count": len(tops), "topsets": tops, "q": list(q)}


def verify_report(family):
    params, values, kind = checks.GOLDEN[family]
    i = params["i"]
    return {"degrees": list(range(i, i + len(values))), "measured": list(values),
            "verdict": kind + "_drop"}


@pytest.mark.parametrize("family", sorted(checks.GOLDEN))
def test_verify_accepts_published_values(family):
    assert checks.check_verify(family, verify_report(family)) == []


@pytest.mark.parametrize("change", ["value", "verdict", "degrees"])
def test_verify_rejects_wrong_report(change):
    rep = verify_report("F1")
    if change == "value":
        rep["measured"][1] += 1
    elif change == "verdict":
        rep["verdict"] = "single_drop"
    else:
        rep["degrees"] = rep["degrees"][1:]
    assert checks.check_verify("F1", rep)


def test_golden_values_drop_and_recover():
    for params, values, kind in checks.GOLDEN.values():
        assert values[1] < values[0] and values[-1] > values[-2]
        assert len(values) == (3 if kind == "single" else 4)


def test_verify_rejects_values_without_drop(monkeypatch):
    golden = dict(checks.GOLDEN)
    golden["G3"] = (golden["G3"][0], (147, 147, 148), "single")
    monkeypatch.setattr(checks, "GOLDEN", golden)
    assert checks.check_verify("G3", verify_report("G3"))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hilbert_accepts_published_vector(k):
    h = [0 if w is None else w for w in checks.bernstein_h(k)]
    assert checks.check_hilbert(k, {"start": 0, "h": h}) == []


@pytest.mark.parametrize("k,degree", [(1, 8), (1, 15), (2, 2), (3, 14), (4, 16)])
def test_hilbert_rejects_wrong_value(k, degree):
    h = [0 if w is None else w for w in checks.bernstein_h(k)]
    h[degree] += 1
    assert checks.check_hilbert(k, {"start": 0, "h": h})


def test_hilbert_rejects_short_vector():
    assert checks.check_hilbert(1, {"start": 0, "h": list(checks.BERNSTEIN_H)[:16]})


def test_type_checks():
    assert checks.check_type("F2", {"type": 16}) == []
    assert checks.check_type("F2", {"type": 15}) == []
    assert checks.check_type("F2", {"type": 17})
    assert checks.check_type_share("F1", [5] * 38 + [4] * 2) == []
    assert checks.check_type_share("F1", [5] * 37 + [4] * 3)


@pytest.mark.parametrize("q", [(), (3,), (6,), (2, 3), (1, 2, 2), (1, 1, 1),
                               (1, 1, 1, 1)])
def test_topset_closed_forms_match_brute_force(q):
    assert checks.topset_total(q) == len(brute_topsets(q))


def test_macmahon_box():
    assert checks.macmahon(3, 3, 3) == 980
    assert checks.topset_total((1, 1, 1, 1, 1)) == 7581


def test_topsets_accepts_full_list():
    for q in [(3,), (2, 3), (1, 2, 2), (1, 1, 1, 1)]:
        assert checks.check_topsets(q, topsets_report(q)) == []


@pytest.mark.parametrize("change", ["drop", "duplicate", "not_closed", "empty",
                                    "outside", "full"])
def test_topsets_rejects_wrong_list(change):
    q = (1, 2)
    rep = topsets_report(q)
    tops = rep["topsets"]
    if change == "drop":
        tops.pop()
        rep["count"] -= 1
    elif change == "duplicate":
        tops[-1] = copy.deepcopy(tops[0])
    elif change == "not_closed":
        # same size as a real topset, but misses the top element (0, 0)
        k = next(i for i, t in enumerate(tops) if len(t) == 2)
        tops[k] = [[1, 2], [1, 1]]
    elif change == "empty":
        tops[-1] = []
    elif change == "outside":
        k = next(i for i, t in enumerate(tops) if [0, 0] in t and len(t) == 1)
        tops[k] = [[0, 0], [0, 3]]
    else:
        tops[-1] = [list(e) for e in checks.gq_elements(q)]
    assert checks.check_topsets(q, rep)


def test_tpp_check():
    good = {"passed": True, "trials": 10, "q": [2, 3]}
    assert checks.check_tpp((2, 3), 10, good) == []
    assert checks.check_tpp((2, 3), 10, dict(good, passed=False))
    assert checks.check_tpp((2, 3), 10, dict(good, trials=9))


def lmatrix_report(case, **change):
    q, rows, cols = case
    crit = checks.criterion(q, rows, cols)
    rep = {"rows": sum(rows), "cols": sum(cols), "is_pv": True,
           "is_l_matrix": True, "gq_pattern": True, "gq3_criterion": crit,
           "det_nonzero": crit}
    rep.update(change)
    return rep


def test_lmatrix_check():
    for case in workloads.SMALL_STRUCTURES:
        crit = checks.criterion(*case)
        assert checks.check_lmatrix(case, lmatrix_report(case)) == []
        assert checks.check_lmatrix(case, lmatrix_report(case, det_nonzero=not crit))
        assert checks.check_lmatrix(case, lmatrix_report(
            case, gq3_criterion=not crit, det_nonzero=not crit))
        assert checks.check_lmatrix(case, lmatrix_report(case, is_l_matrix=False))
        assert checks.check_lmatrix(case, lmatrix_report(case, gq_pattern=False))
        rep = lmatrix_report(case)
        del rep["det_nonzero"]
        assert checks.check_lmatrix(case, rep)


def test_randomized_check():
    true_case, false_case = workloads.LARGE_STRUCTURES[:2]
    assert checks.criterion(*true_case) and not checks.criterion(*false_case)
    assert checks.check_randomized(true_case, True, True) == []
    assert checks.check_randomized(false_case, False, False) == []
    assert checks.check_randomized(false_case, False, True)
    assert checks.check_randomized(false_case, True, True)
    # an always-zero det: the criterion is true, the test says singular
    assert checks.check_randomized(true_case, True, False)


def test_criterion_by_hand():
    # G_(1): the only proper nonempty topset is {(0,)}, excess r - c there
    assert checks.criterion((1,), (2, 2), (2, 2))
    assert not checks.criterion((1,), (1, 3), (2, 2))
    assert checks.criterion((), (4,), (4,))


def test_structures_cover_both_verdicts():
    for group in (workloads.SMALL_STRUCTURES, workloads.LARGE_STRUCTURES):
        verdicts = {checks.criterion(*case) for case in group}
        assert verdicts == {True, False}
        for q, rows, cols in group:
            assert sum(rows) == sum(cols)
            assert len(rows) == len(cols) == len(checks.gq_elements(q))
    assert all(sum(rows) <= 7 for _, rows, _ in workloads.SMALL_STRUCTURES)


@pytest.mark.parametrize("case", workloads.SMALL_STRUCTURES + workloads.LARGE_STRUCTURES)
def test_generated_l_matrix_has_pattern_and_moves_left(case):
    grid = workloads.l_matrix(random.Random(7), case)
    q, rows, cols = case
    elements = checks.gq_elements(q)
    row_blocks = [e for e, n in zip(elements[::-1], rows[::-1]) for _ in range(n)]
    col_blocks = [e for e, n in zip(elements, cols) for _ in range(n)]
    places = {}
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            assert (cell != 0) == checks.dominates(row_blocks[i], col_blocks[j])
            if cell:
                assert 1 <= cell[0] <= workloads.MAX_LAMBDA
                places.setdefault(cell[1], []).append((i, j))
    for cells in places.values():
        for (r1, c1), (r2, c2) in itertools.combinations(cells, 2):
            assert r1 != r2 and (r1 < r2) == (c1 > c2)


def test_inputs_depend_only_on_seed():
    a = workloads.bernstein_json(random.Random("x"), 3)
    b = workloads.bernstein_json(random.Random("x"), 3)
    c = workloads.bernstein_json(random.Random("y"), 3)
    assert a == b and a != c
    assert len(a["generators"]) == 3 and len(a["generators"][0]) == 2 * 136


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [m[:3] for m in spans.METRICS]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_tracer_self_time():
    tracer = spans.Tracer()

    def inner(x):
        return [x] * 3

    inner_t = tracer.wrap("multiindex.enumerate_constrained", inner,
                          spans._args_key, lambda a, k, out: len(out))

    def outer():
        return inner_t(1) + inner_t(1)

    tracer.wrap("families.construct", outer)()
    m = tracer.layer_metrics()
    assert m["multiindex.enumerate_constrained.calls"] == 2
    assert m["multiindex.enumerate_constrained.items"] == 6
    assert m["multiindex.enumerate_constrained.repeat_calls"] == 1
    total = (tracer.spans[0][2] - tracer.spans[0][1]) / 1e9
    assert m["families.construct.self_s"] == pytest.approx(
        total - m["multiindex.enumerate_constrained.s"])
