"""Pinned CLI behaviour.

`cli_matrix.json` holds the exit code and stdout of a fixed command matrix
in the text and json formats, together with the input files the commands
read.  Regenerate it, only when an output change is intended, with

    PYTHONPATH=src python tests/test_cli_matrix.py

The format-matrix test runs every command in every format and checks the
csv shape rule; the subprocess test checks the exit-code contract of
`python -m ellmf.cli`.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ellmf import mf, tables
from ellmf.cli import betti_to_json, mf_to_json, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cli_matrix.json"

MATRIX = [
    ["roots", "--m-max", "1", "--n-min", "-1", "--n-max", "1"],
    ["class-info", "1", "1", "0", "0", "0", "0"],
    ["class-info", "0", "0", "0", "0", "0", "1"],
    ["class-info", "0", "0", "0", "0", "0", "0"],
    ["cohom", "0", "2"],
    ["cohom", "1", "0"],
    ["cohom", "-1", "0"],
    ["betti-catalog", "--a-max", "1", "--b-max", "1", "--r-max", "2"],
    ["classify-betti", "{table}"],
    ["classify-betti", "{table_first}"],
    ["classify-betti", "{table_bad}"],
    ["classify-betti", "{not_json}"],
    ["reduce-rd", "-3", "1"],
    ["reduce-rd", "0", "0"],
    ["slope-word", "2/5"],
    ["slope-word", "1"],
    ["slope-word", "7/3"],
    ["slope-word", "-1/2"],
    ["ulrich", "--a-max", "2", "--b-max", "2", "--r-max", "4"],
    ["mf", "build", "kst"],
    ["mf", "build", "linear", "2"],
    ["mf", "build", "cone", "1", "1"],
    ["mf", "build", "reduced", "1", "0", "--lambda", "2"],
    ["mf", "build", "cone", "1/0", "1"],
    ["mf", "verify", "{cone}"],
    ["mf", "verify", "{broken}"],
    ["mf", "reduce", "{cone}"],
    ["mf", "reduce", "{broken}"],
    ["mf", "betti", "{reduced}"],
    ["mf", "betti", "{cone}"],
]


def make_inputs() -> dict[str, str]:
    """Input files of the matrix, as the text written to each."""
    cone = mf.mf_cone(mf.PointP1(1, 1))
    broken = mf_to_json(mf.KST, None)
    broken["A"]["rows"][0][0][0]["c"] = ["2"]

    def table(d):
        return json.dumps(betti_to_json(tables.BettiTable(d)))

    return {
        "cone": json.dumps(mf_to_json(cone, None)),
        "reduced": json.dumps(mf_to_json(mf.reduce_mf(cone), None)),
        "broken": json.dumps(broken),
        "table": table({(0, 0): 1, (0, 1): 1, (1, 2): 1, (1, 3): 1}),
        "table_first": table({(0, 0): 1, (0, 1): 2, (1, 3): 2, (1, 4): 1}),
        "table_bad": table({(0, 0): 1, (1, 7): 1}),
        "not_json": "{",
    }


def write_inputs(inputs: dict[str, str], where: Path) -> dict[str, str]:
    paths = {}
    for name, text in inputs.items():
        path = where / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run_captured(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def resolve(argv, paths):
    return [a.format(**paths) if a.startswith("{") else a for a in argv]


CASES = [(argv, fmt) for argv in MATRIX for fmt in ("text", "json")]


@pytest.fixture(scope="module")
def golden_paths(tmp_path_factory):
    doc = json.loads(GOLDEN.read_text())
    return doc, write_inputs(doc["inputs"], tmp_path_factory.mktemp("in"))


@pytest.mark.parametrize("argv,fmt", CASES,
                         ids=[f"{' '.join(a)}-{f}" for a, f in CASES])
def test_golden_matrix(golden_paths, argv, fmt):
    doc, paths = golden_paths
    want = doc["outputs"][f"{' '.join(argv)} --format {fmt}"]
    code, out = run_captured(resolve(argv, paths) + ["--format", fmt])
    assert [code, out] == want


def test_golden_inputs_current(golden_paths):
    """The embedded inputs are what the library builds today."""
    doc, _ = golden_paths
    assert doc["inputs"] == make_inputs()


# --- every command in every format -----------------------------------------

FORMAT_MATRIX = [
    ["roots", "--m-max", "1", "--n-min", "-1", "--n-max", "1"],
    ["class-info", "0", "0", "0", "0", "0", "1"],
    ["cohom", "1", "0"],
    ["betti-catalog", "--a-max", "2", "--b-max", "2", "--r-max", "3"],
    ["classify-betti", "{table}"],
    ["reduce-rd", "-3", "1"],
    ["slope-word", "1"],
    ["ulrich", "--a-max", "2", "--b-max", "2", "--r-max", "3"],
    ["mf", "build", "cone", "1", "1"],
    ["mf", "verify", "{broken}"],
    ["mf", "reduce", "{cone}"],
    ["mf", "betti", "{reduced}"],
]
TREES = {"mf build", "mf reduce"}


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    return write_inputs(make_inputs(), tmp_path_factory.mktemp("fm"))


@pytest.mark.parametrize("argv", FORMAT_MATRIX, ids=" ".join)
def test_format_matrix(input_paths, argv):
    argv = resolve(argv, input_paths)
    codes = {}
    for fmt in ("text", "json", "csv"):
        codes[fmt], out = run_captured(argv + ["--format", fmt])
        if fmt == "json":
            records = json.loads(out)
        elif fmt == "csv":
            csv = out.splitlines()
    assert codes["text"] == codes["json"]
    if " ".join(argv[:2]) in TREES:
        assert codes["csv"] == 2 and csv == []
        return
    assert codes["csv"] == codes["json"]
    if isinstance(records, dict):
        records = [records]
    assert len(csv) == len(records)
    # Each field is padded to its widest value, so every row of one result
    # has the same width, even where the catalog classes of the first kind
    # carry one parameter and the others two.
    assert len({row.count(",") for row in csv}) <= 1


# --- the exit-code contract of the real process -------------------------------

def test_process_exit_codes(tmp_path):
    paths = write_inputs(make_inputs(), tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    cases = [
        (["roots", "--format", "csv"], 0),
        (["mf", "verify", paths["broken"]], 1),
        (["classify-betti", paths["table_bad"], "--format", "json"], 1),
        (["--format", "json", "roots"], 2),
        (["classify-betti", paths["not_json"]], 2),
        (["mf", "build", "cone", "--format", "csv", "1", "1"], 2),
        (["slope-word", "0"], 2),
    ]
    for argv, want in cases:
        proc = subprocess.run([sys.executable, "-m", "ellmf.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == want, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        if want:
            assert proc.stderr, argv


if __name__ == "__main__":
    inputs = make_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(inputs, Path(tmp))
        outputs = {f"{' '.join(a)} --format {f}":
                   list(run_captured(resolve(a, paths) + ["--format", f]))
                   for a, f in CASES}
    GOLDEN.write_text(json.dumps({"inputs": inputs, "outputs": outputs},
                                 indent=1, sort_keys=True) + "\n")
