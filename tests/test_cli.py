"""Command-line interface: subcommands, exit codes, formats, determinism."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from levelalg import __version__, apolarity, cli, gqposet
from levelalg.cli import emit_report, main

G3 = '{"family":"G3","a":4,"b":4,"i":8,"s":7}'
REPO = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(*args, timeout, address_space=None):
    """Run `python *args` from the repository root with src/ on the path.

    address_space, if given, caps the child's virtual memory in bytes.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    limit = None
    if address_space is not None:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env, capture_output=True,
                          text=True, timeout=timeout, preexec_fn=limit)


class TestFamilyCommands:
    def test_validate_valid(self, capsys):
        code, out, _ = run(capsys, "family", "validate", G3)
        assert code == 0
        rep = json.loads(out)
        assert rep["valid"] and rep["violations"] == []
        assert rep["derived"]["r"] == 4 and rep["derived"]["j"] == 13

    def test_validate_invalid_exits_2(self, capsys):
        code, out, _ = run(capsys, "family", "validate",
                           '{"family":"F1","a":3,"i":10,"s":1}')
        assert code == 2
        assert not json.loads(out)["valid"]

    def test_predict(self, capsys):
        code, out, _ = run(capsys, "family", "predict", G3)
        assert code == 0
        rep = json.loads(out)
        assert rep["degrees"] == [8, 9, 10]
        assert rep["predicted"] == [152, 147, 148]

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "family", "verify", G3)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "single_drop"
        assert rep["measured"] == [152, 147, 148]

    def test_type(self, capsys):
        code, out, _ = run(capsys, "family", "type", G3)
        assert code == 0
        assert json.loads(out)["type"] == 8

    def test_invalid_instance_other_actions_exit_1(self, capsys):
        code, _, err = run(capsys, "family", "predict",
                           '{"family":"F1","a":3,"i":10,"s":1}')
        assert code == 1
        assert "error" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(G3)
        code, out, _ = run(capsys, "family", "validate", str(path))
        assert code == 0 and json.loads(out)["valid"]

    @pytest.mark.parametrize("text", ["[1]", "7", '"G3"'])
    @pytest.mark.parametrize("action", ["validate", "predict", "verify", "type"])
    def test_non_object_instance_exits_1(self, capsys, tmp_path, text, action):
        path = tmp_path / "inst.json"
        path.write_text(text)
        code, out, err = run(capsys, "family", action, str(path))
        assert code == 1 and out == ""
        assert err == "error: a family instance must be a JSON object\n"

    def test_validate_large_g3_is_immediate(self):
        # the socle shift m of a = b = 10^8 is about 1.4 * 10^8: no loop to m
        inst = '{"family":"G3","a":100000000,"b":100000000,"i":300000000,"s":1}'
        res = run_python("-m", "levelalg.cli", "family", "validate", inst, timeout=10)
        assert res.returncode == 2
        assert json.loads(res.stdout)["violations"] == ["s = 1 below the sufficient minimum 5"]

    @pytest.mark.parametrize("action", ["verify", "type"])
    def test_oversized_instance_refused_before_sampling(self, action):
        # valid, but E's and F's coefficient arrays would take 5.2 and 37.6 GB;
        # the cap turns a regression into a MemoryError, not a host-wide OOM
        inst = '{"family":"G3","a":30,"b":31,"i":3000,"s":234}'
        res = run_python("-m", "levelalg.cli", "family", action, inst, timeout=10,
                         address_space=2 ** 30)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr.startswith("error: the degree-3042 derivative matrix would be "
                                     "235 x 4700917690") and res.stderr.count("\n") == 1


class TestHilbert:
    def test_subspace_file(self, capsys, tmp_path):
        obj = {"r": 2, "j": 5,
               "generators": [[{"monomial": [3, 2], "coeff": 1}]]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "hilbert", str(path))
        assert code == 0
        rep = json.loads(out)
        assert rep["h"] == [1, 2, 3, 3, 2, 1]

    def test_range_and_csv(self, capsys, tmp_path):
        obj = {"r": 2, "j": 5,
               "generators": [[{"monomial": [3, 2], "coeff": 1}]]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "hilbert", str(path), "--range", "1..3",
                           "--format", "csv")
        assert code == 0
        assert "d,h" in out and "1,2" in out and "3,3" in out

    def test_range_start(self, capsys, tmp_path):
        obj = {"r": 2, "j": 5,
               "generators": [[{"monomial": [3, 2], "coeff": 1}]]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "hilbert", str(path), "--range", "2..4")
        assert code == 0
        rep = json.loads(out)
        assert (rep["start"], rep["h"]) == (2, [3, 3, 2])

    def test_range_past_j_plus_1_degrees_refused(self, capsys, tmp_path):
        # h is 0 outside 0..j: a wider range is refused before any value is
        # computed, and one of j + 1 degrees anywhere is still answered.
        obj = {"r": 2, "j": 5,
               "generators": [[{"monomial": [3, 2], "coeff": 1}]]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(obj))
        for span in ("0..6", "-1..5", "-100000000..0", "0..100000000"):
            code, out, err = run(capsys, "hilbert", str(path), "--range=" + span)
            assert (code, out) == (1, "")
            assert err.startswith("error: range ") and err.count("\n") == 1
        for span, h in (("0..5", [1, 2, 3, 3, 2, 1]), ("3..8", [3, 2, 1, 0, 0, 0]),
                        ("-5..0", [0, 0, 0, 0, 0, 1]), ("4..2", [])):
            code, out, _ = run(capsys, "hilbert", str(path), "--range=" + span)
            assert code == 0 and json.loads(out)["h"] == h

    def test_bad_file_exits_1(self, capsys):
        code, _, err = run(capsys, "hilbert", "/nonexistent.json")
        assert code == 1 and "error" in err


class TestOtherCommands:
    def test_catalog(self, capsys):
        code, out, _ = run(capsys, "catalog", "--codim", "4", "--type", "3")
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "exists_nonunimodal"
        assert rep["recipe"]["family"] == "G1"

    def test_poset_topsets(self, capsys):
        code, out, _ = run(capsys, "poset", "topsets", "--q", "1,1")
        assert code == 0
        rep = json.loads(out)
        # the empty and full topsets are excluded from the report
        assert rep["count"] == 4
        # in mask order (bit i for the i-th element), members in element order
        assert rep["topsets"] == [[[0, 0]], [[0, 0], [0, 1]], [[0, 0], [1, 0]],
                                  [[0, 0], [0, 1], [1, 0]]]

    def test_poset_tpp(self, capsys):
        code, out, _ = run(capsys, "poset", "tpp", "--q", "2,2",
                           "--trials", "10")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_poset_tpp_fails_on_tap_alone(self, capsys):
        # Flag the weight columns that sum to 0: every TAP column n * w - total
        # does, a TPP column only when its total is 0.  So TAP fails and the
        # command fails with TAP's witness, the topset {(0, 0)} in row 1.
        real = gqposet.first_negative_topset

        def zero_sums_fail(poset, w):
            first = real(poset, w)
            first[np.asarray(w).sum(axis=0) == 0] = 1
            return first
        with mock.patch.object(gqposet, "first_negative_topset", zero_sums_fail):
            code, out, _ = run(capsys, "poset", "tpp", "--q", "2,2", "--trials", "3")
        rep = json.loads(out)
        assert code == 2 and not rep["passed"] and rep["trials"] == 3
        assert rep["witness"] == [[0, 0]]

    @pytest.mark.parametrize("first,witness", [
        ([(1, 1, 2)], [[0, 0], [1, 0]]),              # TAP of trial 1
        ([(0, 1, 2), (1, 0, 1)], [[0, 0], [1, 0]]),   # the first failing trial
        ([(0, 0, 2), (0, 1, 1)], [[0, 0], [1, 0]]),   # TPP before TAP
        ([(0, 0, 1), (0, 1, 2)], [[0, 0]]),
    ])
    def test_poset_tpp_witness(self, capsys, first, witness):
        # first: random_trials' (trial, check, row) failures, in its order;
        # rows 1 and 2 of the chain G_(2,0): {(0, 0)} and {(0, 0), (1, 0)}
        with mock.patch.object(gqposet, "random_trials", lambda *a: first):
            code, out, _ = run(capsys, "poset", "tpp", "--q", "2,0", "--trials", "3")
        assert code == 2
        assert json.loads(out)["witness"] == witness

    def test_poset_tpp_trial_budget(self, capsys):
        # G_(2,2) has 20 topset-matrix rows, counted as 20 x 64 cells
        assert run(capsys, "poset", "tpp", "--q", "2,2", "--trials", "50")[0] == 0
        with mock.patch.object(gqposet, "TRIAL_BUDGET", 10 * 20 * 64):
            assert run(capsys, "poset", "tpp", "--q", "2,2", "--trials", "10")[0] == 0
            code, out, err = run(capsys, "poset", "tpp", "--q", "2,2", "--trials", "11")
        assert code == 1 and out == ""
        assert err == "error: 11 trials of 1280 topset-matrix cells pass the budget of 12800 cells\n"

    def test_lmatrix_check(self, capsys, tmp_path):
        obj = {"entries": [[0, [1, "a"]], [[1, "b"], [1, "c"]]],
               "q": [1], "row_sizes": [1, 1], "col_sizes": [1, 1]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "lmatrix", "check", str(path))
        assert code == 0
        rep = json.loads(out)
        assert rep["is_l_matrix"] and rep["gq_pattern"]
        assert rep["gq3_criterion"] and rep["det_nonzero"]

    def test_lmatrix_check_on_a_large_g_q(self, capsys):
        # 6 x 6 over G_(3,3,4) of 80 elements: the criterion runs on the
        # elements with a block, so it answers where G_Q has too many topsets
        sym = apolarity.symbolic_matrix(3, 4, (3, 3, 4), 2, 1)
        elements = sym.structure.poset.elements
        obj = {"entries": [[0 if cell is None else [cell[0], str(cell[1])] for cell in row]
                           for row in sym.matrix.entries],
               "q": [3, 3, 4], "row_sizes": [sym.structure.r[e] for e in elements[::-1]],
               "col_sizes": [sym.structure.c[e] for e in elements]}
        code, out, _ = run(capsys, "lmatrix", "check", json.dumps(obj))
        assert code == 0
        assert '"gq3_criterion":true' in out and '"det_nonzero":true' in out

    def test_lmatrix_rejects_bad(self, capsys):
        code, out, _ = run(capsys, "lmatrix", "check",
                           '{"entries": [[[1, "x"], [1, "x"]]]}')
        assert code == 2
        assert not json.loads(out)["is_l_matrix"]

    @pytest.mark.parametrize("argv", [
        ["lmatrix", "check", '{"entries":[[[1,"x"]]],"q":[0]}'],
        ["lmatrix", "check", '{"entries":[[[1]]]}'],
        ["lmatrix", "check", '{"entries":[[[1,["x"]]]]}'],
        ["lmatrix", "check", '{"entries":[[[1,"x"]]],"q":[],"row_sizes":[1,5],"col_sizes":[1]}'],
        ["lmatrix", "check", '{"entries":[[[1.5,"x"]]]}'],
        ["lmatrix", "check", '{"entries":[[[true,"x"]]]}'],
        ["lmatrix", "check", '{"entries":[],"q":[-1],"row_sizes":[],"col_sizes":[]}'],
        ["poset", "tpp", "--q", "-1"],
        ["poset", "topsets", "--q", "-1"],
        ["poset", "tpp", "--q", "1", "--trials", "-3"],
        # 10^8 trials of 3 x 64 topset-matrix cells: about 20 minutes of draws
        ["poset", "tpp", "--q", "1", "--trials", "100000000"],
        ["poset", "topsets", "--q", "1048576"],
        # 8192 topsets pass the cell guard, but would list 33542145 members
        ["poset", "topsets", "--q", "8190"],
        ["lmatrix", "check", '{"entries":[],"q":[1024,1024],"row_sizes":[],"col_sizes":[]}'],
        ["lmatrix", "check", '{"entries":[],"q":[1023,1023],"row_sizes":[0],"col_sizes":[0]}'],
        # C(41, 11) = 3159461968 support monomials, counted and not enumerated
        ["hilbert", '{"r":12,"j":30,"generators":[[{"monomial":[30%s],"coeff":1}]],'
                    '"constraint":{"bounds":[%s]}}' % (",0" * 11, ",".join(["30"] * 12))],
        # no generators: the support would still be enumerated
        ["hilbert", '{"r":12,"j":30,"generators":[],"constraint":{"bounds":[%s]}}'
                    % ",".join(["30"] * 12)],
        # a 227251 x 180901 derivative matrix at degree 600
        ["family", "verify", '{"family":"F1","a":300,"i":600,"s":4}'],
        # C(31, 7) = 2629575 support monomials: 1 x 2629575 cells pass 2^24,
        # the list of monomials does not pass 2^18
        ["hilbert", '{"r":8,"j":24,"generators":[[{"monomial":[24%s],"coeff":1}]],'
                    '"constraint":{"bounds":[%s]}}' % (",0" * 7, ",".join(["24"] * 8))],
    ], ids=["no-sizes", "short-cell", "list-variable", "long-sizes", "float-lam",
            "bool-lam", "lmatrix-negative-q", "tpp-negative-q", "topsets-negative-q",
            "negative-trials", "tpp-trials-past-budget", "topsets-huge-q", "topsets-long-report", "lmatrix-huge-q", "lmatrix-short-sizes-big-q",
            "hilbert-huge-support", "hilbert-empty-huge-support", "family-huge-matrix",
            "hilbert-long-support-list"])
    def test_hostile_input_exits_1(self, capsys, argv):
        # refused before any work that grows with the input: well under 1 s
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - t0 < 1
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("subspace", [
        '{"r":10000000,"j":1,"generators":[]}', '{"r":10000000,"j":1,"generators":[[]]}',
        '{"r":100000000,"j":1,"generators":[]}', '{"r":1000000000,"j":1,"generators":[[]]}',
        '{"r":10000000,"j":0,"generators":[]}', '{"r":63,"j":0,"generators":[]}',
    ], ids=["r-1e7", "r-1e7-empty-generator", "r-1e8", "r-1e9-empty-generator", "j-0-r-1e7",
            "j-0-r-63"])
    def test_hostile_r_refused_before_building(self, subspace):
        # r >= 63 or (j + 1)^r >= 2^63 is refused before any list of length r
        # exists, so within the time and memory caps
        res = run_python("-m", "levelalg.cli", "hilbert", subspace, timeout=10,
                         address_space=2 ** 30)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error: bad subspace: monomial codes overflow int64")
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize("generators", ['[]', '[[{"monomial":[%d],"coeff":1}]]'],
                             ids=["no-generator", "x^j"])
    @pytest.mark.parametrize("j", [2 ** 16 + 1, 2 ** 31, 3037000492])
    def test_huge_socle_degree_refused(self, generators, j):
        # h would have j + 1 values and the k! table j + 1 entries: past
        # 2^16 the subspace is refused when it is built, where j = 2^31 used
        # to die of a MemoryError building the table
        subspace = '{"r":1,"j":%d,"generators":%s}' % (j, generators.replace("%d", str(j)))
        res = run_python("-m", "levelalg.cli", "hilbert", subspace, "--prime", "3037000493",
                         timeout=10, address_space=2 ** 30)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == "error: bad subspace: socle degree %d over the limit of 65536\n" % j

    def test_selftest_quick(self, capsys):
        # every counter pinned: a change in the order of the random draws shows
        code, out, _ = run(capsys, "selftest", "--seed", "1")
        assert code == 0
        assert out == (
            '{"command":"selftest","count":{"closed_form_checked":130,'
            '"corrections_checked":41,"enumeration_checked":186,"failures":[],'
            '"passed":true,"trials":200},"crop":{"failures":[],"passed":true,'
            '"subspaces":20},"gq3":{"failures":[],"matrices":40,"nonsingular":24,'
            '"passed":true},"p":32749,"passed":true,"seed":1,"splice":{"failures":[],'
            '"passed":true},"tpp":{"failures":[],"passed":true,"phis_per_poset":20,'
            '"posets":5},"version":"%s"}\n' % __version__)


class TestScripts:
    def test_sweep_f2(self):
        res = run_python("scripts/sweep_f2.py", "--max-a", "221", "--only-s", "10", timeout=30)
        assert res.returncode == 0
        # --max-a is inclusive, so 221 is swept too
        assert [line.split()[0] for line in res.stdout.splitlines()] == \
            ["a=%d" % a for a in (205, 209, 213, 215, 217, 219, 221)]

    def test_verify_families(self):
        res = run_python("scripts/verify_families.py", timeout=30)
        assert res.returncode == 0
        assert len(res.stdout.splitlines()) == 6 and "mismatch" not in res.stdout

    def test_bernstein_table(self):
        res = run_python("scripts/bernstein_table.py", timeout=30)
        assert res.returncode == 0
        rows = res.stdout.splitlines()[1:]
        assert [int(row.split()[0]) for row in rows] == list(range(17))


class TestPlumbing:
    def test_no_command(self, capsys):
        # a usage error like any other: one error line that holds the usage
        code, out, err = run(capsys, )
        assert code == 1 and out == ""
        assert err.startswith("error: usage: levelalg") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["hilbert", '{"r":1,"j":2,"generators":[]}', "--range", "-1..3"],
        ["poset", "tpp"],
        ["catalog", "--codim", "x", "--type", "1"],
    ], ids=["range-below-0", "missing-q", "non-integer-codim"])
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["hilbert", "--help"])
        assert exit_.value.code == 0 and "--range" in capsys.readouterr().out

    def test_hilbert_leaves_numpy_ma_unimported(self):
        # np.unique and np.union1d would import numpy.ma, a megabyte of peak memory
        res = run_python("-c", "import json, sys\n"
                         "from levelalg import cli, families\n"
                         "w = families.special_construction('bernstein_t4')\n"
                         "cli.main(['hilbert', json.dumps(w.to_json())])\n"
                         "print('numpy.ma' in sys.modules)", timeout=30)
        assert res.returncode == 0 and res.stdout.splitlines()[-1] == "False"

    def test_bad_prime(self, capsys):
        code, _, err = run(capsys, "family", "validate", G3, "--prime", "10")
        assert code == 1 and "not prime" in err

    @pytest.mark.parametrize("prime", ["4294967311", "9223372036854775783"])
    def test_prime_too_large(self, capsys, prime):
        code, _, err = run(capsys, "family", "type", G3, "--prime", prime)
        assert code == 1 and "too large" in err

    def test_no_state_between_calls(self, capsys):
        first = json.loads(run(capsys, "family", "type", G3, "--seed", "5", "--prime", "101",
                               "--format", "json")[1])
        assert (first["seed"], first["p"]) == (5, 101)
        code, out, _ = run(capsys, "family", "type", G3)
        assert code == 0 and (json.loads(out)["seed"], json.loads(out)["p"]) == (0, 32749)
        assert run(capsys, "catalog", "--codim", "3", "--type", "5",
                   "--format", "pretty")[1].startswith("codim: 3")
        assert json.loads(run(capsys, "catalog", "--codim", "3", "--type", "5")[1])

    @pytest.mark.parametrize("coeff", ["1.5", "true"])
    def test_non_integer_coefficient_exits_1(self, capsys, coeff):
        code, out, err = run(capsys, "hilbert", '{"r":2,"j":3,"generators":[[{"monomial":[3,0],'
                             '"coeff":%s},{"monomial":[1,2],"coeff":1}]]}' % coeff)
        assert code == 1 and out == "" and "coeff" in err

    def test_environment_sets_no_prime(self, capsys, monkeypatch):
        # --prime is the only way to change the prime
        want = run(capsys, "family", "type", G3)
        monkeypatch.setenv("APOLARITY_PRIME", "33")
        assert run(capsys, "family", "type", G3) == want and want[0] == 0

    @pytest.mark.parametrize("argv", [
        ["hilbert", '{"r":1,"j":2,"generators":[]}', "--seed", "1"],
        ["catalog", "--codim", "3", "--type", "5", "--seed", "1"],
        ["lmatrix", "check", '{"entries":[[[1,"x"]]]}', "--seed", "1"],
        ["catalog", "--codim", "3", "--type", "5", "--prime", "101"],
        ["poset", "topsets", "--q", "1", "--prime", "101"],
        ["lmatrix", "check", '{"entries":[[[1,"x"]]]}', "--prime", "101"],
        ["selftest", "--prime", "7"],
        ["hilbert", '{"r":1,"j":2,"generators":[]}', "--retries", "1"],
        ["catalog", "--codim", "3", "--type", "5", "--retries", "1"],
        ["poset", "tpp", "--q", "1", "--retries", "1"],
        ["lmatrix", "check", '{"entries":[[[1,"x"]]]}', "--retries", "1"],
        ["selftest", "--retries", "1"],
    ], ids=lambda argv: argv[0] + argv[-2])
    def test_option_the_command_does_not_read(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: unrecognized arguments: ") and err.count("\n") == 1

    def test_defaults_reported_without_the_options(self, capsys):
        code, out, _ = run(capsys, "catalog", "--codim", "3", "--type", "5")
        assert code == 0 and '"p":32749,' in out and '"seed":0,' in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "family", "verify", G3, "--seed", "3")
        _, out2, _ = run(capsys, "family", "verify", G3, "--seed", "3")
        assert out1 == out2

    def test_canonical_json_with_shared_sublists(self, capsys):
        # the same list object in many places, as in a `poset topsets` report:
        # json and csv equal what json.dumps writes for the same report
        def dumps(obj):
            return json.dumps(obj, sort_keys=True, separators=(",", ":"))

        def csv(report):
            return "\n".join("%s,%s" % (k, dumps(v) if isinstance(v, (dict, list)) else v)
                             for k, v in sorted(report.items()))
        a, b = [0, 1], [2, "x"]
        reports = [
            {"z": [[a, b], [a], [b, a]], "a": {"k": [a, a], "b": 1.5}, "m": [[], None, True]},
            {"n": {"x": {"y": [[a], [b, a]], "e": []}, "w": {"v": [a]}}, "a": [a, [a, [a]]]},
            {"f": [0.1, -0.0, 1e300, float("inf"), [2.5, a]], "s": ["é", "ü∞", [b, "→"]],
             "e": [[], [[]], {}, [{}]], "ü": a},
            {2: [[a], [b, a]], 10: [a]},  # keys json writes as strings, sorted as ints
        ]
        # `poset topsets` of the benchmark's shapes and four more, as main builds them
        shapes = ((), (0,), (1, 1), (3, 3), (6,), (2, 3), (3, 4), (1, 2, 2), (2, 2, 2),
                  (1, 1, 1, 1), (1, 1, 1, 1, 1))
        for q in shapes:
            with mock.patch.object(cli, "emit_report", lambda report, fmt: reports.append(report)
                                   or emit_report(report, fmt)):
                code, out, _ = run(capsys, "poset", "topsets", "--q", ",".join(map(str, q)))
            assert code == 0 and out == dumps(reports[-1]) + "\n"
        assert reports[-1]["count"] == 7579 and len(out) == 1470432
        for report in reports:
            assert emit_report(report) == dumps(report)
            assert emit_report(report, "csv") == csv(report)
        assert json.loads(dumps(reports[0]))["z"] == [[[0, 1], [2, "x"]], [[0, 1]], [[2, "x"], [0, 1]]]
        # each list of scalars goes to json.dumps once, however many lists hold it
        shared = {"t": [[a, b], [b]] * 1000}
        with mock.patch.object(cli, "_dumps", side_effect=cli._dumps) as calls:
            assert emit_report(shared) == dumps(shared)
        assert [c.args[0] for c in calls.call_args_list] == ["t", a, b]

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "family", "validate", "{not json")
        assert code == 1 and "malformed" in err
