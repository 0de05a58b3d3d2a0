"""The CLI exit-code contract under mutated input files.

Every run of `cli.run` returns 0 (success), 1 (a failed check) or 2 (bad
input), and no exception escapes it.  The inputs start from real
documents, the `mf build` output and Betti tables of reduced
factorizations, and are mutated at random nodes: dropped or extra keys,
wrong types, booleans, huge integers, ragged rows and nudged twists.  Each
mutated document is fed through `mf verify`, `mf reduce`, `mf betti` and
`classify-betti` in all three formats.
"""
import contextlib
import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings                  # noqa: E402
from hypothesis import strategies as st                 # noqa: E402

from ellmf.cli import run                               # noqa: E402


def run_captured(argv, stdin: str = "") -> tuple[int, str]:
    """The exit code and stdout of one in-process run."""
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def json_output(argv, stdin: str = "") -> str:
    code, out = run_captured([*argv, "--format", "json"], stdin)
    assert code == 0
    return out


MF_ARGS = (("kst",), ("linear", "3"), ("cone", "1", "1"),
           ("cone", "2", "1", "--lambda", "3"), ("reduced", "1", "0"))
MF_TEXT = [json_output(["mf", "build", *a]) for a in MF_ARGS]
BETTI_TEXT = [json_output(["mf", "betti", "-"],
                          json_output(["mf", "reduce", "-"], t))
              for t in MF_TEXT]
MF_COMMANDS = (("mf", "verify"), ("mf", "reduce"), ("mf", "betti"))
CASES = ([(json.loads(t), MF_COMMANDS) for t in MF_TEXT]
         + [(json.loads(t), (("classify-betti",),)) for t in BETTI_TEXT])
FORMATS = ("text", "json", "csv")
ODD_VALUES = (None, True, False, 0, -1, 1.5, "1", "x", "1/0", "sym", [], {},
              [[]], 10 ** 40, -10 ** 40, [10 ** 30], "9" * 50)


def locations(doc):
    """(parent, key) for every node below the root."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = (list(node) if isinstance(node, dict)
                else range(len(node)) if isinstance(node, list) else ())
        for k in keys:
            out.append((node, k))
            stack.append(node[k])
    return out


@st.composite
def mutated(draw):
    """A command and a copy of a document it reads, with up to three
    mutations applied."""
    def copy(v):
        return json.loads(json.dumps(v))

    def odd():
        return copy(draw(st.sampled_from(ODD_VALUES)))

    doc, commands = draw(st.sampled_from(CASES))
    doc = copy(doc)
    for _ in range(draw(st.integers(0, 3))):
        where = locations(doc)
        if not where:
            break
        parent, key = draw(st.sampled_from(where))
        node = parent[key]
        kind = draw(st.sampled_from(("nudge", "ragged", "drop", "extra",
                                     "retype")))
        if kind == "drop":
            del parent[key]
        elif kind == "extra" and isinstance(node, dict):
            node["extra"] = odd()
        elif kind == "extra" and isinstance(node, list):
            node.append(copy(node[0]) if node else odd())
        elif kind == "nudge" and type(node) is int:
            parent[key] = node + draw(st.sampled_from((-4, -1, 1, 4)))
        elif kind == "ragged" and isinstance(node, list) and node \
                and all(isinstance(r, list) for r in node):
            row = node[draw(st.integers(0, len(node) - 1))]
            if row and draw(st.booleans()):
                row.pop()
            else:
                row.append(copy(row[0]) if row else [])
        else:
            parent[key] = odd()
    return draw(st.sampled_from(commands)), doc


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mutated(), st.sampled_from(FORMATS))
def test_mutated_input_keeps_exit_code_contract(case, fmt):
    command, doc = case
    code, _ = run_captured([*command, "-", "--format", fmt], json.dumps(doc))
    assert code in (0, 1, 2)
