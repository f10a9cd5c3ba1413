"""Span tracing of levelalg's public functions, for the traced run only.

`Tracer.install` replaces each traced function, everywhere levelalg's
modules refer to it, by a wrapper that records a span (name, start, end,
parent, detail) in memory.  `layer_metrics` folds the spans of one pass
into the per-layer metrics; `dump` writes the spans out.  Self time is a
span's duration minus the durations of its direct children, which never
overlap because the program runs on one thread.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

# (metric, unit, better, span, how each span of that name adds to it):
# "calls" 1, "s" its duration, "self_s" its self time, "repeat" 1 if its
# arguments repeat an earlier call, "detail" the number recorded with it,
# "s=<detail>" its duration when its detail is <detail>.  Metrics without a
# span are filled by the child (output bytes) or the parent (trace.*).
# The order is BENCHMARK.json's.
METRICS = (
    ("multiindex.enumerate_constrained.calls", "count", "lower",
     "multiindex.enumerate_constrained", "calls"),
    ("multiindex.enumerate_constrained.s", "s", "lower",
     "multiindex.enumerate_constrained", "s"),
    ("multiindex.enumerate_constrained.items", "count", "lower",
     "multiindex.enumerate_constrained", "detail"),
    ("multiindex.enumerate_constrained.repeat_calls", "count", "lower",
     "multiindex.enumerate_constrained", "repeat"),
    ("multiindex.count_constrained.s", "s", "lower", "multiindex.count_constrained", "s"),
    ("exactalg.rank.calls", "count", "lower", "exactalg.rank", "calls"),
    ("exactalg.rank.s", "s", "lower", "exactalg.rank", "s"),
    ("exactalg.rank.cells", "count", "lower", "exactalg.rank", "detail"),
    ("exactalg.det.calls", "count", "lower", "exactalg.det", "calls"),
    ("exactalg.det.s", "s", "lower", "exactalg.det", "s"),
    ("exactalg.sample.s", "s", "lower", "exactalg.sample", "s"),
    ("apolarity.hilbert_value.calls", "count", "lower", "apolarity.hilbert_value", "calls"),
    ("apolarity.hilbert_value.self_s", "s", "lower", "apolarity.hilbert_value", "self_s"),
    ("apolarity.hilbert_value.repeat_calls", "count", "lower",
     "apolarity.hilbert_value", "repeat"),
    ("apolarity.from_json.s", "s", "lower", "apolarity.from_json", "s"),
    ("families.verify_drop.attempts", "count", "lower", "families.verify_drop", "detail"),
    ("families.construct.self_s", "s", "lower", "families.construct", "self_s"),
    ("families.validate.s", "s", "lower", "families.validate", "s"),
    ("gqposet.topsets.count", "count", "lower", "gqposet.enumerate_topsets", "detail"),
    ("gqposet.GQPoset.s", "s", "lower", "gqposet.GQPoset", "s"),
    ("gqposet.enumerate_topsets.s", "s", "lower", "gqposet.enumerate_topsets", "s"),
    ("gqposet.check_tpp.s", "s", "lower", "gqposet.check_tpp", "s"),
    ("gqposet.check_tap.s", "s", "lower", "gqposet.check_tap", "s"),
    ("lmatrix.classify.s", "s", "lower", "lmatrix.classify", "s"),
    ("lmatrix.verify_gq_pattern.s", "s", "lower", "lmatrix.verify_gq_pattern", "s"),
    ("lmatrix.gq3_criterion.s", "s", "lower", "lmatrix.gq3_criterion", "s"),
    ("lmatrix.det_is_nonzero.exact_s", "s", "lower", "lmatrix.det_is_nonzero", "s=exact"),
    ("lmatrix.det_is_nonzero.randomized_s", "s", "lower", "lmatrix.det_is_nonzero",
     "s=randomized"),
    ("cli.main.self_s", "s", "lower", "cli.main", "self_s"),
    ("cli.output_bytes", "bytes", "lower", None, None),
    ("trace.pass_s", "s", "lower", None, None),
    ("trace.overhead_s", "s", "lower", None, None),
)


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    return x


def _args_key(args, kwargs):
    return _freeze(args), tuple(sorted((k, _freeze(v)) for k, v in kwargs.items()))


def _subspace_key(args, kwargs):
    w, d = args
    blocks = tuple((b.bounds, b.coeffs.shape,
                    hashlib.blake2b(b.coeffs.tobytes(), digest_size=16).digest())
                   for b in w.blocks)
    return w.r, w.j, w.p, blocks, d


def _shape_cells(args, kwargs, out):
    rows, cols = args[0].shape
    return rows * cols


def _det_mode(args, kwargs, out):
    return kwargs.get("mode", args[1] if len(args) > 1 else "exact")


# (module, attribute, span name, repeat key, detail of the call)
TARGETS = (
    ("multiindex", "enumerate_constrained", "multiindex.enumerate_constrained",
     _args_key, lambda a, k, out: len(out)),
    ("multiindex", "count_constrained", "multiindex.count_constrained", None, None),
    ("exactalg", "rank", "exactalg.rank", None, _shape_cells),
    ("exactalg", "det", "exactalg.det", None, None),
    ("exactalg", "sample", "exactalg.sample", None, None),
    ("apolarity", "hilbert_value", "apolarity.hilbert_value", _subspace_key, None),
    ("families", "verify_drop", "families.verify_drop", None,
     lambda a, k, out: len(out.attempts)),
    ("families", "construct", "families.construct", None, None),
    ("families", "validate", "families.validate", None, None),
    ("gqposet", "enumerate_topsets", "gqposet.enumerate_topsets", None,
     lambda a, k, out: len(out)),
    ("gqposet", "check_tpp", "gqposet.check_tpp", None, None),
    ("gqposet", "check_tap", "gqposet.check_tap", None, None),
    ("lmatrix", "classify", "lmatrix.classify", None, None),
    ("lmatrix", "verify_gq_pattern", "lmatrix.verify_gq_pattern", None, None),
    ("lmatrix", "gq3_criterion", "lmatrix.gq3_criterion", None, None),
    ("lmatrix", "det_is_nonzero", "lmatrix.det_is_nonzero", None, _det_mode),
    ("cli", "main", "cli.main", None, None),
)


class Tracer:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, detail, repeat]
        self._open = []
        self._seen = {}

    def wrap(self, name, fn, key=None, detail=None):
        spans, stack = self.spans, self._open
        seen = self._seen.setdefault(name, set())

        def traced(*args, **kwargs):
            repeat = False
            if key is not None:
                k = key(args, kwargs)
                repeat = k in seen
                seen.add(k)
            rec = [name, 0, 0, stack[-1] if stack else -1, None, repeat]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if detail is not None:
                rec[4] = detail(args, kwargs, out)
            return out
        return traced

    def install(self, levelalg):
        """Wrap every target and rebind each module name that refers to it."""
        mods = [m for name, m in sys.modules.items()
                if name.startswith(levelalg.__name__ + ".")]
        for mod_name, attr, name, key, detail in TARGETS:
            orig = getattr(getattr(levelalg, mod_name), attr)
            traced = self.wrap(name, orig, key, detail)
            for mod in mods:
                for k, v in list(vars(mod).items()):
                    if v is orig:
                        setattr(mod, k, traced)
        poset = levelalg.gqposet.GQPoset
        poset.__init__ = self.wrap("gqposet.GQPoset", poset.__init__)
        sub = levelalg.apolarity.HomogeneousSubspace
        sub.from_json = classmethod(self.wrap("apolarity.from_json",
                                              sub.from_json.__func__))

    def layer_metrics(self):
        """Per-layer totals over every span recorded so far."""
        dur = [(s[2] - s[1]) / 1e9 for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        by_span = {}
        for metric, _, _, span, how in METRICS:
            by_span.setdefault(span, []).append((metric, how))
        out = {metric: 0 for metric, *_ in METRICS}
        for i, (name, _, _, _, detail, repeat) in enumerate(self.spans):
            for metric, how in by_span.get(name, ()):
                if how.startswith("s="):
                    value = dur[i] if detail == how[2:] else 0
                else:
                    value = {"calls": 1, "s": dur[i], "self_s": dur[i] - child[i],
                             "repeat": int(repeat), "detail": detail}[how]
                out[metric] += value
        return out

    def dump(self, path):
        names = ("name", "start_ns", "end_ns", "parent", "detail", "repeat")
        with open(path, "w") as fh:
            json.dump([dict(zip(names, s)) for s in self.spans], fh)
