"""`cli.run` builds the top parser and the parser of the command that its
first word names, and no other: for `mf` its four verbs, and the kinds of
`mf build` only when build runs.  Any other first word builds every
command.  What a user sees must not depend on it: each help text and each
argument error read the same as from the whole tree."""
import argparse
import json

import pytest

from ellmf import cli
from ellmf.cli import MF_KINDS, mf_to_json, run
from ellmf.mf import PointP1, mf_cone

COMMANDS = ["roots", "class-info", "cohom", "betti-catalog",
            "classify-betti", "reduce-rd", "slope-word", "mf", "ulrich"]
# Every parser a user can reach by name: the commands, mf's verbs and the
# kinds of mf build.
PARSERS = ([[c] for c in COMMANDS]
           + [["mf", v] for v in ("build", "verify", "reduce", "betti")]
           + [["mf", "build", k] for k in MF_KINDS])
# A first word that names no command, and words that reach the top parser.
TOP = [[], ["-h"], ["bogus"], ["coh", "1", "2"], ["--format"],
       ["--format", "json", "cohom", "1", "2"], ["--", "cohom", "1", "2"]]


def outcome(capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


BUILD_PARSER = cli.build_parser


@pytest.mark.parametrize("argv", [p + ["-h"] for p in PARSERS]
                         + [p + ["--bogus"] for p in PARSERS] + TOP
                         + [["mf", "build", "conic"],
                            ["mf", "build", "cone", "1", "2", "3"],
                            ["mf", "verify", "A", "B"], ["cohom", "1"]],
                         ids=" ".join)
def test_help_and_errors_read_as_from_the_whole_tree(capsys, monkeypatch,
                                                     argv):
    monkeypatch.setenv("COLUMNS", "80")
    got = outcome(capsys, argv)
    monkeypatch.setattr(cli, "build_parser",
                        lambda word=None: BUILD_PARSER())
    assert got == outcome(capsys, argv)
    if argv[-1:] == ["-h"]:
        assert got[0] == 0 and got[1].startswith("usage: ")


def parsers_made(monkeypatch, argv):
    """The progs of the parsers with help that run(argv) constructs, and the
    count of those without (the option parsers and the kinds' holder)."""
    named, options = [], []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        (named if self.add_help else options).append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(argv) == 0
    return named, len(options)


def test_cohom_builds_three_parsers(capsys, monkeypatch):
    assert parsers_made(monkeypatch, ["cohom", "1", "2"]) == (
        ["ellmf", "ellmf cohom"], 1)


def test_mf_builds_its_verbs_and_no_kind(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(mf_to_json(mf_cone(PointP1(1, 1)), None)))
    named, options = parsers_made(
        monkeypatch, ["mf", "--format", "json", "reduce", str(path)])
    assert named == ["ellmf", "ellmf mf", "ellmf mf build",
                     "ellmf mf verify", "ellmf mf reduce", "ellmf mf betti"]
    assert options == 2


def test_mf_build_builds_the_kinds(capsys, monkeypatch):
    named, options = parsers_made(monkeypatch, ["mf", "build", "kst"])
    assert named[-4:] == [f"ellmf mf build {k}" for k in MF_KINDS]
    assert options == 3


def test_command_function_is_looked_up_when_run(capsys, monkeypatch):
    """A wrapper put on a cmd_ function after import, as a tracer puts
    one, is the function that runs."""
    calls = []
    original = cli.cmd_cohom
    monkeypatch.setattr(cli, "cmd_cohom",
                        lambda args: calls.append(args) or original(args))
    assert run(["cohom", "1", "2"]) == 0
    assert len(calls) == 1
