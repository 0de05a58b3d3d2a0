import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ellmf import cli
from ellmf.cli import mf_to_json, run
from ellmf.mf import KST

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def check_golden(capsys, name, *argv):
    code, out = invoke(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_golden_roots_csv(capsys):
    check_golden(capsys, "roots_m0.csv", "roots", "--m-max", "0",
                 "--n-min", "0", "--n-max", "0", "--format", "csv")


def test_golden_cohom_json(capsys):
    check_golden(capsys, "cohom_1_0.json", "cohom", "1", "0",
                 "--format", "json")


def test_golden_kst_json(capsys):
    check_golden(capsys, "kst.json", "mf", "build", "kst",
                 "--format", "json")


def test_golden_slope_word(capsys):
    check_golden(capsys, "slope_2_5.json", "slope-word", "2/5",
                 "--format", "json")


def test_golden_catalog(capsys):
    check_golden(capsys, "catalog_small.json", "betti-catalog",
                 "--a-max", "1", "--b-max", "1", "--r-max", "2",
                 "--format", "json")


def test_roots_contains_first_row(capsys):
    code, out = invoke(capsys, "roots", "--m-max", "0", "--n-min", "0",
                       "--n-max", "0", "--format", "csv")
    assert code == 0
    assert "0,1,0,0,0,0,0,1,0" in out.splitlines()
    assert len(out.splitlines()) == 48


def test_cohom_d_odd(capsys):
    code, out = invoke(capsys, "cohom", "0", "1", "--format", "json")
    assert code == 0
    recs = json.loads(out)
    assert [r["mult"] for r in recs] == [4, 4]
    assert recs[0]["rows"] == [[1, 0], [0, 1], [0, 0], [0, 0]]


def test_mf_round_trip(capsys, monkeypatch):
    code, out = invoke(capsys, "mf", "build", "reduced", "1", "1",
                       "--format", "json")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, verify_out = invoke(capsys, "mf", "verify", "-")
    assert code == 0
    assert verify_out == "ok\n"
    # Round trip: re-serializing the parsed factorization is the identity.
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out2 = invoke(capsys, "mf", "reduce", "-", "--format", "json")
    assert code == 0
    assert json.loads(out2) == json.loads(out)


def test_mf_betti_pipeline(capsys, monkeypatch, tmp_path):
    code, cone = invoke(capsys, "mf", "build", "cone", "0", "1",
                        "--format", "json")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(cone))
    code, red = invoke(capsys, "mf", "reduce", "-", "--format", "json")
    assert code == 0
    path = tmp_path / "red.json"
    path.write_text(red)
    code, out = invoke(capsys, "mf", "betti", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"entries": [
        {"i": 0, "j": 0, "beta": 1}, {"i": 0, "j": 1, "beta": 1},
        {"i": 1, "j": 2, "beta": 1}, {"i": 1, "j": 3, "beta": 1}]}


def test_mf_build_with_lambda(capsys, monkeypatch):
    code, out = invoke(capsys, "mf", "build", "cone", "1", "1",
                       "--lambda", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == "2"
    for row in doc["A"]["rows"]:
        for cell in row:
            for term in cell:
                assert len(term["c"]) == 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, _ = invoke(capsys, "mf", "verify", "-")
    assert code == 0


def test_betti_round_trip(capsys, tmp_path):
    doc = {"entries": [{"i": 0, "j": 0, "beta": 1},
                       {"i": 0, "j": 1, "beta": 1},
                       {"i": 1, "j": 2, "beta": 1},
                       {"i": 1, "j": 3, "beta": 1}]}
    path = tmp_path / "betti.json"
    path.write_text(json.dumps(doc))
    code, out = invoke(capsys, "classify-betti", str(path),
                       "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert got["kind"] == "I" and got["params"] == [1, 1]
    assert got["count"] == {"base": "full-line", "level": 1}
    assert (got["r"], got["d"]) == (0, 2)


def test_classify_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entries": [
        {"i": 0, "j": 0, "beta": 1}, {"i": 1, "j": 7, "beta": 1}]}))
    code = run(["classify-betti", str(path)])
    capsys.readouterr()
    assert code == 1


def test_classify_wide_spread_fails_fast(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"entries": [
        {"i": 0, "j": 0, "beta": 1}, {"i": 1, "j": 10**12, "beta": 1}]}))
    start = time.perf_counter()
    code = run(["classify-betti", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert capsys.readouterr().err.startswith("error: classification failed: ")


def test_bad_rational_rejected(capsys):
    assert run(["slope-word", "1/0"]) == 2
    assert run(["slope-word", "-1/2"]) == 2
    assert run(["mf", "build", "cone", "1/0", "1"]) == 2
    capsys.readouterr()


def test_schema_violation_names_path(capsys, tmp_path, monkeypatch):
    path = tmp_path / "mf.json"
    path.write_text(json.dumps({"lambda": "sym", "f": [], "A": {}, "B": {}}))
    code = run(["mf", "verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "A" in err


def test_numeric_lambda_requires_constant_coeffs(capsys, tmp_path):
    doc = {"lambda": "2",
           "f": [{"x": 1, "y": 0, "c": ["1", "1"]}],
           "A": {"rows": [], "row_twists": [], "col_twists": []},
           "B": {"rows": [], "row_twists": [], "col_twists": []}}
    path = tmp_path / "mf.json"
    path.write_text(json.dumps(doc))
    code = run(["mf", "verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "c" in err


def test_unknown_command_exit_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_reduce_rd(capsys):
    code, out = invoke(capsys, "reduce-rd", "-3", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"r": 2, "d": -5, "k": 1, "region": "R3"}
    assert run(["reduce-rd", "0", "0"]) == 2
    capsys.readouterr()


def test_ulrich_small(capsys):
    code, out = invoke(capsys, "ulrich", "--a-max", "2", "--b-max", "2",
                       "--r-max", "2", "--format", "json")
    assert code == 0
    hits = [r for r in json.loads(out) if r["ulrich"]]
    assert hits == [{"kind": "III", "params": [0, 0], "e": 1, "mu": 1,
                     "ulrich": True}]


def test_determinism(capsys):
    _, out1 = invoke(capsys, "roots", "--m-max", "1", "--n-min", "-1",
                     "--n-max", "1", "--format", "json")
    _, out2 = invoke(capsys, "roots", "--m-max", "1", "--n-min", "-1",
                     "--n-max", "1", "--format", "json")
    assert out1 == out2


def test_verify_failure_exit_1(capsys, monkeypatch):
    code, out = invoke(capsys, "mf", "build", "kst", "--format", "json")
    doc = json.loads(out)
    doc["A"]["rows"][0][0][0]["c"] = ["2"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = invoke(capsys, "mf", "verify", "-")
    assert code == 1
    assert "FAIL" in out


def test_verify_empty_inner_dimension_fails(capsys, monkeypatch):
    """A 1x0 A and a 0x1 B pass every twist check, and A*B is the 1x1
    zero matrix, not f."""
    code, out = invoke(capsys, "mf", "build", "kst", "--format", "json")
    doc = json.loads(out)
    doc["A"] = {"rows": [[]], "row_twists": [0], "col_twists": []}
    doc["B"] = {"rows": [], "row_twists": [], "col_twists": [4]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = invoke(capsys, "mf", "verify", "-")
    assert code == 1
    assert out.startswith("FAIL")


def test_slope_word_one_text(capsys):
    code, out = invoke(capsys, "slope-word", "1")
    assert code == 0
    assert out == "word: (empty)\nmatrix: [[1,1],[0,1]]\n"


@pytest.mark.parametrize("slot,where", [
    (("f", 0, "x"), "f[0]"),
    (("A", "rows", 0, 0, 0, "y"), "A.rows[0][0][0]"),
    (("A", "row_twists", 0), "A.row_twists"),
    (("B", "row_twists", 1), "B.row_twists"),
])
def test_mf_reader_rejects_bool(capsys, tmp_path, slot, where):
    doc = mf_to_json(KST, None)
    *outer, last = slot
    holder = doc
    for key in outer:
        holder = holder[key]
    assert holder[last] in (0, 1)
    holder[last] = bool(holder[last])
    path = tmp_path / "mf.json"
    path.write_text(json.dumps(doc))
    code = run(["mf", "verify", str(path)])
    assert code == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("entry,where", [
    ({"i": False, "j": 0, "beta": True}, "entries[0]"),
    ({"i": 0, "j": False, "beta": 1}, "entries[0]"),
    ({"i": 0, "j": 0, "beta": True}, "entries[0].beta"),
])
def test_betti_reader_rejects_bool(capsys, tmp_path, entry, where):
    entries = [entry, {"i": 0, "j": 1, "beta": 1},
               {"i": 1, "j": 2, "beta": 1}, {"i": 1, "j": 3, "beta": 1}]
    path = tmp_path / "betti.json"
    path.write_text(json.dumps({"entries": entries}))
    code = run(["classify-betti", str(path)])
    assert code == 2
    assert where in capsys.readouterr().err


def test_mf_reader_checks_f(capsys, tmp_path):
    def x_power(k):
        return [{"x": k, "y": 0, "c": ["1"]}]
    doc = {"lambda": "sym", "f": x_power(4),
           "A": {"rows": [[x_power(1)]], "row_twists": [0], "col_twists": [1]},
           "B": {"rows": [[x_power(3)]], "row_twists": [1], "col_twists": [4]}}
    path = tmp_path / "x4.json"
    path.write_text(json.dumps(doc))
    for action in ("verify", "reduce", "betti"):
        assert run(["mf", action, str(path)]) == 2
        assert "f:" in capsys.readouterr().err
    # A specialized file must carry f at its own lambda.
    code, out = invoke(capsys, "mf", "build", "kst", "--lambda", "2",
                       "--format", "json")
    doc = json.loads(out)
    doc["lambda"] = "3"
    path.write_text(json.dumps(doc))
    assert run(["mf", "verify", str(path)]) == 2
    assert "f:" in capsys.readouterr().err


def test_mf_betti_rejects_non_factorization(capsys, tmp_path):
    # mf_linear(1) with A = (Y) instead of (X): twists and homogeneity
    # hold, so only the product A*B = f fails.
    code, out = invoke(capsys, "mf", "build", "linear", "1",
                       "--format", "json")
    doc = json.loads(out)
    doc["A"]["rows"] = [[[{"c": ["1"], "x": 0, "y": 1}]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["mf", "reduce", str(path)]) == 1
    reduce_err = capsys.readouterr().err
    # The first failure, as `mf verify` prints it.
    assert reduce_err == (
        "error: input fails verification: A*B (0,0): (1*L)Y^4 + "
        "(-1 + -2*L)XY^3 + (2 + 1*L)X^2Y^2 + (-1)X^3Y\n")
    for fmt in ("text", "json", "csv"):
        assert run(["mf", "betti", str(path), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == reduce_err


def test_reduce_without_file_form_exit_1(capsys, tmp_path):
    """The input scrambled of cli_matrix.json, built by
    test_cli_matrix.make_inputs: its reduced A is -X/(L-1), which has no
    file form."""
    doc = json.loads((GOLDEN / "cli_matrix.json").read_text())
    path = tmp_path / "scrambled.json"
    path.write_text(doc["inputs"]["scrambled"])
    assert run(["mf", "verify", str(path)]) == 0
    capsys.readouterr()
    for fmt in ("text", "json"):
        assert run(["mf", "reduce", str(path), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: result A.rows[0][0]: coefficient is not polynomial in "
            "lambda; the file format cannot hold it\n")


def test_bad_input_exit_2(capsys, tmp_path):
    assert run(["roots", "--m-max", "-1"]) == 2
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    assert run(["classify-betti", str(path)]) == 2
    doc = mf_to_json(KST, None)
    doc["A"]["rows"] = [5, 6]
    path.write_text(json.dumps(doc))
    assert run(["mf", "verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "A.rows" in err


@pytest.mark.parametrize("argv,message", [
    ("build kst 1", "ellmf mf build: error: unrecognized arguments: 1"),
    ("build linear 5",
     "ellmf mf build linear: error: argument i: invalid choice: '5'"),
    ("build conic 1 1",
     "ellmf mf build: error: argument kind: invalid choice: 'conic'"),
    ("build cone 1", "ellmf mf build cone: error: the following arguments "
     "are required: p1"),
    ("build cone 0 0", "point: (0, 0) is not a projective point"),
    ("verify A B", "ellmf mf verify: error: unrecognized arguments: B"),
    ("verify FILE --lambda 2",
     "ellmf mf verify: error: unrecognized arguments: --lambda 2"),
    ("build kst --lambda 0", "--lambda: must avoid 0 and 1"),
])
def test_mf_argument_errors_exit_2(capsys, argv, message):
    """A word missing, left over or outside its choices is argparse's
    error, under the usage of the parser that found it (the prog before
    ": error:"), or for a leftover word that of the command; a bad value
    of a word is the command's own error."""
    check_argument_error(capsys, ["mf", *argv.split()], message)


def check_argument_error(capsys, argv, message):
    code = run(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    if ": error: " in message:
        prog = message.split(": error: ")[0]
        assert err.startswith(f"usage: {prog} ")
        assert err.splitlines()[-1].startswith(message)
    else:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    ("cohom 1 2 3", "ellmf cohom: error: unrecognized arguments: 3"),
    ("slope-word 2/5 7",
     "ellmf slope-word: error: unrecognized arguments: 7"),
    ("reduce-rd 1 2 --lambda 3",
     "ellmf reduce-rd: error: unrecognized arguments: --lambda 3"),
])
def test_leftover_words_reported_by_the_command(capsys, argv, message):
    """Words a command does not take are reported under its own usage,
    not the top-level one."""
    check_argument_error(capsys, argv.split(), message)


def test_lambda_refused_on_file_actions(capsys, tmp_path):
    path = tmp_path / "kst.json"
    path.write_text(json.dumps(mf_to_json(KST, None)))
    for action in ("verify", "reduce", "betti"):
        assert run(["mf", action, str(path), "--lambda", "foo"]) == 2
        assert "--lambda" in capsys.readouterr().err
    assert run(["mf", "verify", str(path)]) == 0
    capsys.readouterr()


def test_unreadable_file_named_as_given(capsys, tmp_path, monkeypatch):
    """A file that cannot be read is exit 2, with its path as it was given;
    a "/" after a file's name is the operating system's error."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kst.json").write_text(json.dumps(mf_to_json(KST, None)))
    assert run(["mf", "verify", "./missing.json"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read ./missing.json: [Errno 2] No such file or "
        "directory: './missing.json'\n")
    assert run(["mf", "verify", "kst.json/"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: cannot read kst.json/: [Errno 20] Not a directory")


# --- the exit-code contract of a real process ------------------------------

def ellmf_process(argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "ellmf.cli", *argv],
                          env=env, stderr=subprocess.PIPE, text=True,
                          timeout=60, **kwargs)


# Options may sit at mf, at the verb or among the words, and a "--"
# before the kind still guards a coordinate such as -5/2: each argv prints
# what its canonical form prints.
PLACEMENTS = [
    ("mf build cone --format json 2 3", "mf build cone 2 3 --format json"),
    ("mf build cone 2 --format json 3", "mf build cone 2 3 --format json"),
    ("mf build --format json cone 2 3", "mf build cone 2 3 --format json"),
    ("mf --format json build cone 2 3", "mf build cone 2 3 --format json"),
    ("mf --format json build -- cone 2 3", "mf build cone 2 3 --format json"),
    ("mf build cone --format json -- -1 1",
     "mf build cone -1 1 --format json"),
    ("mf --format json build --lambda=3 -- cone -5/2 3",
     "mf build cone --lambda 3 --format json -- -5/2 3"),
    ("mf --format json build cone --lambda=3 -- -5/2 3",
     "mf build cone --lambda 3 --format json -- -5/2 3"),
    ("mf build -- kst", "mf build kst"),
]


@pytest.mark.parametrize("argv,canonical", PLACEMENTS)
def test_option_placement(capsys, argv, canonical):
    code, out = invoke(capsys, *canonical.split())
    assert code == 0 and out
    if "--format json" in canonical:
        json.loads(out)
    assert invoke(capsys, *argv.split()) == (code, out)


def test_option_placement_in_a_process(capsys):
    argv, canonical = PLACEMENTS[6]
    proc = ellmf_process(argv.split(), stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        *invoke(capsys, *canonical.split()), "")


def test_closed_stdout_keeps_exit_code(tmp_path):
    doc = mf_to_json(KST, None)
    (tmp_path / "kst.json").write_text(json.dumps(doc))
    doc["A"]["rows"][0][0][0]["c"] = ["2"]
    (tmp_path / "broken.json").write_text(json.dumps(doc))
    cases = [
        (["ulrich"], 0, ""),
        (["roots", "--m-max", "6", "--n-min", "-5", "--n-max", "5"], 0, ""),
        (["mf", "verify", str(tmp_path / "kst.json")], 0, ""),
        (["mf", "verify", str(tmp_path / "broken.json")], 1,
         "error: verification failed\n"),
    ]
    for argv, code, err in cases:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = ellmf_process(argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, err), argv


def test_oversized_input_exit_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    big = tmp_path / "big.json"
    big.write_text('{"entries": [{"i": 0, "j": 0, "beta": %s}]}'
                   % ("7" * 5000))
    digits = "3" * 3000
    cases = [
        (["classify-betti", str(deep)], {2}),
        # Python 3.10 may lack the int-to-str limit and parse the integer.
        (["classify-betti", str(big)],
         {2} if sys.version_info >= (3, 11) else {1, 2}),
        (["slope-word", "1/" + "7" * 5000], {2}),
        (["class-info", digits, "0", "0", "0", "0", "0"], {2}),
        (["slope-word", "1/" + "1" + "0" * 22], {2}),
        (["class-info", "9" * 1000, "0", "0", "0", "0", "0"], {0}),
    ]
    for argv, codes in cases:
        proc = ellmf_process(argv, stdout=subprocess.DEVNULL)
        assert proc.returncode in codes, (argv[0], proc.stderr[-200:])
        assert "Traceback" not in proc.stderr, argv[0]


def test_huge_defect_prints_without_traceback(tmp_path):
    """A*B entries with coefficients past the int-to-str digit limit: the
    defect prints as a placeholder, exit 1 as for any failed check."""
    doc = mf_to_json(KST, None)
    big = str(10 ** 2999 + 7)
    for term in doc["A"]["rows"][0][0] + doc["B"]["rows"][0][1]:
        term["c"] = [big]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    limited = hasattr(sys, "get_int_max_str_digits")
    for fmt in ("text", "json"):
        proc = ellmf_process(["mf", "verify", str(path), "--format", fmt],
                             stdout=subprocess.PIPE)
        assert proc.returncode == 1, proc.stderr[-300:]
        assert "Traceback" not in proc.stderr
        assert proc.stderr.endswith("error: verification failed\n")
        assert ("digits>" in proc.stdout) == limited
        if fmt == "json":
            report = json.loads(proc.stdout)
            assert not report["ok"] and report["failures"]
    for action in ("reduce", "betti"):
        proc = ellmf_process(["mf", action, str(path)],
                             stdout=subprocess.DEVNULL)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["roots", "--m-max", "1000000"],
    ["roots", "--n-min", "-600000", "--n-max", "600000"],
    ["betti-catalog", "--a-max", "1000000"],
    ["betti-catalog", "--r-max", "1000000"],
    ["ulrich", "--a-max", "1000", "--b-max", "1000"],
    ["ulrich", "--r-max", "1" + "0" * 999],
])
def test_oversized_enumeration_refused(capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert f"more than {cli.MAX_RECORDS} records" in err


def test_record_limit_is_inclusive(capsys, monkeypatch):
    """roots --m-max 0 is 48 classes and betti-catalog 0 0 1 is 4 tables."""
    for limit, code in ((48, 0), (47, 2)):
        monkeypatch.setattr(cli, "MAX_RECORDS", limit)
        assert invoke(capsys, "roots", "--format", "json")[0] == code
    for limit, code in ((4, 0), (3, 2)):
        monkeypatch.setattr(cli, "MAX_RECORDS", limit)
        for command in ("betti-catalog", "ulrich"):
            assert invoke(capsys, command, "--a-max", "0", "--b-max", "0",
                          "--r-max", "1")[0] == code
