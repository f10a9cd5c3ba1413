"""The names the benchmark's traced run wraps still exist in levelalg.

perfbench/spans.py replaces levelalg's public functions by tracing
wrappers, looked up by name when `perfbench/run.py --trace 1` starts.  A
rename or a deletion in levelalg would crash that run; this catches it in
the test suite.  spans.py is loaded by its path, as it is.
"""

import importlib.util
from pathlib import Path

import levelalg
import levelalg.cli  # noqa: F401  (the benchmark's child imports it too)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_targets_resolve():
    spans = load_spans()
    assert spans.TARGETS
    for mod_name, attr, *_ in spans.TARGETS:
        assert callable(getattr(getattr(levelalg, mod_name), attr)), (mod_name, attr)


def test_wrapped_methods_exist():
    # Tracer.install also wraps these two by hand
    assert callable(levelalg.gqposet.GQPoset.__init__)
    assert callable(levelalg.apolarity.HomogeneousSubspace.from_json.__func__)


def test_hilbert_value_ranks_through_the_public_rank(monkeypatch):
    # exactalg.rank's traced calls and cells count the Hilbert values: one
    # call per degree 0..j, on a matrix of the shape check_cells counts
    # (exact here, for F1's nested boxes)
    w = levelalg.families.construct(levelalg.families.require_valid("F1", a=4, i=8, s=14), 0)
    rank, shapes = levelalg.exactalg.rank, []

    def spy(mat, p=levelalg.exactalg.DEFAULT_PRIME):
        shapes.append(mat.shape)
        return rank(mat, p)

    monkeypatch.setattr(levelalg.exactalg, "rank", spy)
    h = levelalg.apolarity.hilbert_vector(w)
    crops = tuple((b.bounds, len(b.coeffs)) for b in w.blocks)
    assert len(h) == w.j + 1
    assert shapes == [levelalg.apolarity.check_cells(w.r, w.j, d, crops) for d in range(w.j + 1)]


def test_traced_keys_and_details_read_real_objects():
    # `perfbench/run.py --trace 1` applies each target's repeat key and
    # detail to the real arguments and results: _subspace_key reads every
    # block's bounds and coefficients, verify_drop's detail the report's
    # attempts.  Wrapped here without install, so no module is patched.
    spans = load_spans()
    targets = {name: (fn, key, detail) for mod, attr, name, key, detail in spans.TARGETS
               for fn in [getattr(getattr(levelalg, mod), attr)]}
    tracer = spans.Tracer()
    hilbert_value = tracer.wrap("apolarity.hilbert_value", *targets["apolarity.hilbert_value"])
    verify_drop = tracer.wrap("families.verify_drop", *targets["families.verify_drop"])
    params = levelalg.families.require_valid("G3", a=4, b=4, i=8, s=7)
    w0, w1 = (levelalg.families.construct(params, seed) for seed in (0, 1))
    for w, d in ((w0, 9), (w1, 9), (w0, 9), (w0, 8)):
        hilbert_value(w, d)
    report = verify_drop(params, 0, 2)
    metrics = tracer.layer_metrics()
    assert metrics["apolarity.hilbert_value.calls"] == 4
    assert metrics["apolarity.hilbert_value.repeat_calls"] == 1
    assert metrics["families.verify_drop.attempts"] == len(report.attempts) >= 1
    key = spans._subspace_key((w0, 9), {})
    assert key[:3] == (w0.r, w0.j, w0.p) and key[4] == 9
    assert [b[:2] for b in key[3]] == [(b.bounds, b.coeffs.shape) for b in w0.blocks]
