"""What an `ellmf` process imports, and the public namespace.

`import ellmf` loads no layer: its public names resolve on first use.  Each
command run in a fresh interpreter loads exactly the layers it computes
with, so `roots` never compiles the matrix-factorization stack and `mf
build` never compiles the sheaf tables.  No command loads `dataclasses` or
`inspect`: the value classes are plain `ellmf._record.Record` subclasses.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellmf
from ellmf import mf
from ellmf.cli import mf_to_json

ROOT = Path(__file__).resolve().parent.parent

# The public names of `ellmf`, by defining module.
EXPORTS = {
    "k0": ["DELTA", "K0Class", "OMEGA", "RootInfo", "RootKind",
           "STRUCTURE_SHEAF", "ZERO", "chi", "classify_root", "degree",
           "enumerate_real_roots", "euler_pairing", "invariants",
           "line_bundle_class", "q_form", "rank",
           "real_root_classes_with_rd", "real_root_gamma_parts",
           "simple_class", "slope", "tensor_omega", "twist_by_c"],
    "shift": ["Region", "SHIFT_MATRIX", "in_fundamental_domain",
              "reduce_to_fundamental", "region", "shift_rd"],
    "tubular": ["MutationWord", "TubeInfo", "mutate_pair_left",
                "mutate_pair_right", "phi_from_infinity", "tube_invariants",
                "word_for_slope"],
    "tables": ["BettiClass", "BettiTable", "CohomTable", "IndecCount",
               "betti_from_cohom", "catalog", "cohom_rank_one",
               "cohom_rank_two", "cohom_via_euler", "hilbert",
               "indec_count", "normalize_and_classify", "rd_from_betti",
               "suspend_betti", "template_table", "translate_betti"],
    "mf": ["GradedMatrix", "KST", "MatrixFactorization", "PHI_PSI",
           "PointP1", "betti_of_mf", "cone", "direct_sum",
           "lemma63_invariants", "mf_Mp_reduced", "mf_cone", "mf_linear",
           "reduce_mf", "verify_mf"],
}
NAMES = sorted(n for names in EXPORTS.values() for n in names)

# The modules each command loads besides `ellmf` and `ellmf.cli`; every
# layer with a value class brings the record base `_record`.
K0 = {"_record", "k0"}
SHEAF = K0 | {"shift", "tables"}
MF = {"_record", "mf", "poly", "qlambda"}
COMMANDS = [
    (["roots", "--m-max", "1"], K0),
    (["class-info", "1", "1", "0", "0", "0", "0"], K0),
    (["cohom", "7", "-20"], SHEAF),
    (["classify-betti", "{table}"], SHEAF),
    (["ulrich", "--a-max", "2", "--b-max", "2", "--r-max", "4"], SHEAF),
    (["betti-catalog", "--a-max", "1", "--b-max", "1"], SHEAF),
    (["reduce-rd", "-3", "1"], {"shift"}),
    (["slope-word", "2/5"], K0 | {"shift", "tubular"}),
    (["mf", "build", "cone", "1", "1", "--lambda", "2"], MF),
    (["mf", "verify", "{cone}"], MF),
    (["mf", "reduce", "{cone}"], MF),
    (["mf", "betti", "{reduced}"], MF | SHEAF),
]

# Runs one command through cli.run, then prints the loaded ellmf modules
# and which of `dataclasses` and `inspect` are loaded.
CHILD = ("import json, sys; from ellmf.cli import run; "
         "code = run(sys.argv[1:]); "
         "print(json.dumps([sorted(m for m in sys.modules "
         "if m.startswith('ellmf')), sorted({'dataclasses', 'inspect'} "
         "& set(sys.modules))])); sys.exit(code)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def python(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    where = tmp_path_factory.mktemp("startup")
    cone = mf.mf_cone(mf.PointP1(1, 1))
    docs = {"cone": mf_to_json(cone, None),
            "reduced": mf_to_json(mf.reduce_mf(cone), None),
            "table": {"entries": [{"i": 0, "j": 0, "beta": 1},
                                  {"i": 0, "j": 1, "beta": 1},
                                  {"i": 1, "j": 2, "beta": 1},
                                  {"i": 1, "j": 3, "beta": 1}]}}
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(where / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return paths


def test_import_ellmf_loads_no_layer():
    proc = python("-c", "import sys, ellmf; print(sorted(m for m in "
                        "sys.modules if m.startswith('ellmf')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['ellmf']"]


@pytest.mark.parametrize("argv,layers", COMMANDS,
                         ids=[" ".join(a[:2] if a[0] == "mf" else a[:1])
                              for a, _ in COMMANDS])
def test_command_loads_only_its_layers(inputs, argv, layers):
    argv = [a.format(**inputs) if a.startswith("{") else a for a in argv]
    proc = python("-c", CHILD, *argv, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    loaded, unwanted = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == sorted({"ellmf", "ellmf.cli"}
                            | {f"ellmf.{m}" for m in layers})
    assert unwanted == []


def test_public_names_pinned():
    assert len(NAMES) == 65
    assert sorted(ellmf.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_public_name_is_its_module_attribute(module):
    mod = importlib.import_module(f"ellmf.{module}")
    for name in EXPORTS[module]:
        assert getattr(ellmf, name) is getattr(mod, name), name
        assert vars(ellmf)[name] is getattr(mod, name), name


def test_star_import_binds_every_name():
    ns = {}
    exec("from ellmf import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == NAMES


def test_dir_and_unknown_name():
    assert set(NAMES) <= set(dir(ellmf))
    with pytest.raises(AttributeError, match="no_such_name"):
        ellmf.no_such_name
    assert not hasattr(ellmf, "no_such_name")


def test_run_as_module_warns_nothing():
    """`python -m ellmf.cli` must not find ellmf.cli already imported by
    the package, which runpy reports with a RuntimeWarning."""
    proc = python("-W", "error", "-m", "ellmf.cli", "roots")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("(")
