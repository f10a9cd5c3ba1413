"""Command-line front end.

Subcommands, each with --format json|csv|pretty:
  hilbert <subspace.json> [--range a..b] [--prime P]      Hilbert values of a subspace
  family validate|predict|verify|type <instance.json> [--seed S] [--prime P] [--retries N]
  catalog --codim R --type T                              existence catalog lookup
  poset tpp|topsets --q Q1,Q2,... [--trials N] [--seed S]  topsets / TPP check
  lmatrix check <matrix.json>                             PV/L classification and pattern
  selftest [--full] [--seed S]                            randomized property suites

Any other option is a usage error; every report states "p" and "seed", at
their defaults (32749, 0) where the subcommand has no such option.  Arguments
that look like JSON (leading "{") are parsed inline, otherwise treated as file
paths.  Exit codes: 0 success / verdict pass, 2 verdict fail, 1 usage or input
error.  All randomness derives from --seed; reports are canonical JSON by default.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import prod

from . import __version__, exactalg, families, gqposet, lmatrix, selfcheck
from .apolarity import HomogeneousSubspace, hilbert_vector
from .gqposet import GQPoset, TopsetGuardExceeded, enumerate_topsets


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; main exits 1 on a UsageError
        raise UsageError(message)


def _load_json(arg):
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError as e:
            raise UsageError("cannot read %s: %s" % (arg, e))
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError("malformed JSON: %s" % e)


def _parse_range(text):
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise UsageError("range must look like 3..7, got %r" % (text,))


def _parse_q(text):
    try:
        q = tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise UsageError("bounds must be comma-separated integers, got %r" % (text,))
    return _bounds(q)


def _bounds(q):
    """The bound tuple Q, refusing non-integer and negative entries."""
    return tuple(exactalg.json_int(x, "bound") for x in q)


def _sizes(obj, key, n):
    """The list obj[key] of n non-negative block sizes."""
    sizes = obj[key]
    if type(sizes) is not list or len(sizes) != n:
        raise ValueError("%s must list %d sizes, one per element of G_Q" % (key, n))
    return [exactalg.json_int(x, key) for x in sizes]


def _canonical_encoder():
    """A function writing any part of one report as canonical JSON.

    The result equals json.dumps(part, sort_keys=True, separators=(",", ":")).
    A list of scalars, such as an element of G_Q that many topsets share, is
    encoded once and kept by id(), which stays unique while the report is
    alive.  A list whose members are all kept is one str.join of their kept
    strings, with no Python call per member.  Other lists of lists, and
    dicts with string keys that hold one, join their members' encodings in
    sorted key order; anything else, a small report included, is one call
    of the json encoder.  Only scalar lists are kept: the encoding of a list
    of lists is dropped once its parent has joined it, so the peak memory
    stays below json.dumps's.
    """
    memo = {}

    def encode(obj):
        if type(obj) is dict and set(map(type, obj)) <= {str} and any(
                type(v) is list and list in set(map(type, v)) for v in obj.values()):
            return "{%s}" % ",".join([_dumps(k) + ":" + encode(v) for k, v in sorted(obj.items())])
        if type(obj) is not list:
            return _dumps(obj)
        text = memo.get(id(obj))
        if text is not None:
            return text
        try:
            return "[%s]" % ",".join(map(memo.__getitem__, map(id, obj)))
        except KeyError:  # a member not kept: not met yet, or not a scalar list
            pass
        if {list, dict} & set(map(type, obj)):
            return "[%s]" % ",".join(map(encode, obj))
        memo[id(obj)] = text = _dumps(obj)
        return text
    return encode


def emit_report(report, fmt="json"):
    """Serialize a report dict: canonical json, flat csv, or pretty text.

    Both json and the csv's list and dict fields come from one
    _canonical_encoder per report, so a shared list of scalars is encoded once.
    Reports are trees the program builds, never cyclic, so no cycle check is made.
    """
    encode = _canonical_encoder()
    if fmt == "json":
        return encode(report)
    if fmt == "csv":
        lines = []
        if "h" in report and isinstance(report["h"], list):
            start = report.get("start", 0)
            lines.append("d,h")
            for k, v in enumerate(report["h"]):
                lines.append("%d,%s" % (start + k, v))
        for key in sorted(report):
            if key in ("h", "start"):
                continue
            val = report[key]
            if isinstance(val, (dict, list)):
                val = encode(val)
            lines.append("%s,%s" % (key, val))
        return "\n".join(lines)
    if fmt == "pretty":
        lines = []
        for key in sorted(report):
            lines.append("%s: %s" % (key, report[key]))
        return "\n".join(lines)
    raise UsageError("unknown format %r" % (fmt,))


@lru_cache(maxsize=None)
def _build_parser():
    top = _Parser(prog="levelalg", description=__doc__)
    top.set_defaults(seed=0, prime=exactalg.DEFAULT_PRIME, retries=3)  # each default, once
    sub = top.add_subparsers(dest="command")

    def command(name, *options, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
        for option in options:  # SUPPRESS: the top-level default stands unless given
            p.add_argument(option, type=int, default=argparse.SUPPRESS)
        return p

    p = command("hilbert", "--prime")
    p.add_argument("subspace")
    p.add_argument("--range", dest="drange", default=None)
    p = command("family", "--seed", "--prime", "--retries")
    p.add_argument("action", choices=("validate", "predict", "verify", "type"))
    p.add_argument("instance")
    p = command("catalog")
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--type", dest="type_", type=int, required=True)
    p = command("poset", "--seed")
    p.add_argument("action", choices=("tpp", "topsets"))
    p.add_argument("--q", required=True)
    p.add_argument("--trials", type=int, default=50)
    p = command("lmatrix", description=(
        "gq3_criterion is the paper's topset test for a square G_Q block structure; on "
        "derivative matrices with every coordinate bounded below j it can hold over a zero "
        "determinant. det_nonzero is the exact check, reported for at most %d rows."
        % lmatrix.EXACT_DET_LIMIT))
    p.add_argument("action", choices=("check",))
    p.add_argument("matrix")
    command("selftest", "--seed").add_argument("--full", action="store_true")
    return top


def _base_report(command, args):
    return {"command": command, "p": args.prime, "seed": args.seed, "version": __version__}


def _cmd_hilbert(args):
    obj = _load_json(args.subspace)
    try:
        w = HomogeneousSubspace.from_json(obj, args.prime)
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError("bad subspace: %s" % e)
    rng = _parse_range(args.drange) if args.drange else None
    h = hilbert_vector(w, rng)
    report = _base_report("hilbert", args)
    report.update({"r": w.r, "j": w.j, "start": rng[0] if rng else 0, "h": list(h)})
    return report, 0


def _cmd_family(args):
    obj = _load_json(args.instance)
    res = families.validate_json(obj)
    report = _base_report("family " + args.action, args)
    report["instance"] = obj
    if args.action == "validate":
        report["valid"] = res.valid
        report["violations"] = list(res.violations)
        if res.valid:
            d = res.params
            report["derived"] = {"r": d.r, "j": d.j, "u": d.u, "t": d.t,
                                 "i_f": d.i_f, "drop": d.drop_kind,
                                 "P": list(d.p_bounds), "Q": list(d.q_bounds)}
        return report, 0 if res.valid else 2
    if not res.valid:
        raise UsageError("invalid family instance: " + "; ".join(res.violations))
    params = res.params
    if args.action == "predict":
        degrees = list(range(params.i, params.i_f + 1))
        report["degrees"] = degrees
        report["predicted"] = [families.predicted_h(params, d) for d in degrees]
        report["Delta"] = params.delta
        report["delta"] = [families.deltas(params, d)[1] for d in degrees]
        return report, 0
    if args.action == "verify":
        dr = families.verify_drop(params, args.seed, args.retries, args.prime)
        report.update(dr.to_json())
        return report, 0 if dr.verdict != "mismatch" else 2
    if args.action == "type":
        got = families.compute_type(params, args.seed, args.prime)
        report["type"] = got
        report["expected"] = params.t
        return report, 0 if got == params.t else 2
    raise UsageError("unknown action %r" % (args.action,))


def _cmd_catalog(args):
    entry = families.existence_catalog(args.codim, args.type_)
    report = _base_report("catalog", args)
    report.update(entry.to_json())
    return report, 0


def _cmd_poset(args):
    if args.trials < 0:
        raise UsageError("trials must be nonnegative")
    q = _parse_q(args.q)
    poset = GQPoset(q)
    report = _base_report("poset " + args.action, args)
    report["q"] = list(q)
    if args.action == "topsets":
        tops = enumerate_topsets(poset)
        report["count"] = len(tops)
        report["topsets"] = tops
        return report, 0
    # each trial is a pass over the topset matrix: bound their product
    # before any function is drawn
    cells = len(gqposet.topset_matrix(poset)) * max(len(poset), 64)
    if args.trials * cells > gqposet.TRIAL_BUDGET:
        raise UsageError("%d trials of %d topset-matrix cells pass the budget of %d cells"
                         % (args.trials, cells, gqposet.TRIAL_BUDGET))
    # a trial fails when TPP or TAP does; the witness is the first failing
    # trial's topset, TPP before TAP
    failed = gqposet.random_trials(poset, exactalg.stream(args.seed, "cli-tpp"), args.trials)
    if failed:
        report["witness"] = [list(e) for e in gqposet.topset(poset, failed[0][2])]
    report["trials"] = args.trials
    report["passed"] = not failed
    return report, 2 if failed else 0


def _cmd_lmatrix(args):
    obj = _load_json(args.matrix)
    structure = None
    try:
        m = lmatrix.SymbolicMatrix.from_json(obj["entries"])
        if "q" in obj:
            # |G_Q| = prod(Q_i + 1): check the size lists before building G_Q
            q = _bounds(obj["q"])
            n = prod(x + 1 for x in q)
            rows, cols = _sizes(obj, "row_sizes", n), _sizes(obj, "col_sizes", n)
            poset = GQPoset(q)
            structure = lmatrix.GQBlockStructure(
                poset, dict(zip(poset.elements[::-1], rows)), dict(zip(poset.elements, cols)))
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError("bad matrix: %s" % e)
    cls = lmatrix.classify(m)
    report = _base_report("lmatrix check", args)
    # SymbolicMatrix admits only PV grids: every nonzero cell is lam * var with lam >= 1
    report.update({"rows": m.nrows, "cols": m.ncols, "is_pv": True,
                   "is_l_matrix": cls.is_l_matrix,
                   "moving_left": sorted(cls.moving_left_variables)})
    verdict = cls.is_l_matrix
    if structure is not None:
        pattern = lmatrix.verify_gq_pattern(m, structure)
        report["gq_pattern"] = pattern
        verdict = verdict and pattern
        if structure.is_square:
            crit = lmatrix.gq3_criterion(structure)
            report["gq3_criterion"] = crit
            if m.nrows <= lmatrix.EXACT_DET_LIMIT:
                report["det_nonzero"] = lmatrix.det_is_nonzero(m, "exact")
    return report, 0 if verdict else 2


def _cmd_selftest(args):
    result = selfcheck.run_all(args.seed, quick=not args.full)
    report = _base_report("selftest", args)
    report.update(result)
    return report, 0 if result["passed"] else 2


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(parser.format_usage().strip())
        exactalg.check_prime(args.prime)
        if args.retries < 0:
            raise UsageError("retries must be nonnegative")
        handler = {"hilbert": _cmd_hilbert, "family": _cmd_family,
                   "catalog": _cmd_catalog, "poset": _cmd_poset,
                   "lmatrix": _cmd_lmatrix, "selftest": _cmd_selftest}[args.command]
        report, code = handler(args)
    except (UsageError, TopsetGuardExceeded, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    print(emit_report(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
