"""Command-line front end.

Each command computes its result once: a JSON record, or a list of them,
and a small function that lays the result out as lines of text.  `render`
prints it in the chosen format (text, json or csv); json output is
canonical (sorted keys, no floats) so golden files regenerate byte-exactly.
`mf` is a tree of verbs: build (a kind of MF_KINDS), verify, reduce, betti.
`run` alone reports errors and picks the exit code: 0 success, 1 failed
verification/classification, 2 invalid input; a reader that closes
stdout early ends the output, not the exit code.  Each command and
(de)serializer imports the layers it uses, so a process loads no other;
a repeated import of a loaded module costs microseconds, against the tens
of milliseconds a process takes to start.  The same holds for the standard
library: `json` is imported where a file is read or json printed, and
`fractions` where a rational is parsed.  A process builds the parser of
the command it was given and no other (see build_parser).
"""
from __future__ import annotations

import argparse
import os
import re
import sys

RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
# Integer arguments stay within this many digits, so that q_form of a class
# still prints within Python's 4300-digit int-to-str limit.
MAX_INT_DIGITS = 1000
# The longest word slope-word prints.
MAX_WORD_LETTERS = 10 ** 6
# The most records roots, betti-catalog and ulrich build; their bounds are
# checked against the closed-form count before anything is built.
MAX_RECORDS = 10 ** 6


class SchemaError(ValueError):
    """Invalid input (exit 2)."""


class CheckFailed(Exception):
    """A check on valid input failed (exit 1)."""


def parse_rational(text: str, where: str = "argument") -> Fraction:
    from fractions import Fraction
    if not RATIONAL_RE.fullmatch(text):
        raise SchemaError(f"{where}: not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _integer(text: str) -> int:
    """The argparse type of every integer argument: an int of at most
    MAX_INT_DIGITS digits."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if abs(value) >= 10 ** MAX_INT_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {MAX_INT_DIGITS} digits")
    return value


def parse_lambda(raw, where: str) -> Fraction | None:
    """The parameter of a file or of --lambda: None for "sym", else a
    rational other than 0 and 1."""
    if raw == "sym":
        return None
    if not isinstance(raw, str):
        raise SchemaError(f'{where}: expected "sym" or rational string')
    lam = parse_rational(raw, where)
    if lam in (0, 1):
        raise SchemaError(f"{where}: must avoid 0 and 1")
    return lam


def _is_int(v) -> bool:
    """A JSON integer; bool subclasses int in Python but not in JSON."""
    return type(v) is int


# --- serialization --------------------------------------------------------

def scalar_to_coeffs(s: qlambda.Scalar, where: str) -> list[str]:
    """Output only: a result with a lambda denominator, as `mf reduce` can
    make from valid input, has no file form, and that fails the command."""
    try:
        coeffs = s.lambda_coeffs()
    except ValueError:
        raise CheckFailed(f"result {where}: coefficient is not polynomial "
                          "in lambda; the file format cannot hold "
                          "it") from None
    return [str(c) for c in coeffs]


def poly_to_json(p: poly.BivariatePoly, where: str):
    return [{"x": i, "y": j, "c": scalar_to_coeffs(c, where)}
            for (i, j), c in p.terms]


def poly_from_json(obj, where: str, numeric: bool) -> poly.BivariatePoly:
    from .poly import BivariatePoly
    from .qlambda import Scalar
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected array")
    terms = {}
    for k, t in enumerate(obj):
        path = f"{where}[{k}]"
        if not isinstance(t, dict) or set(t) != {"x", "y", "c"}:
            raise SchemaError(f"{path}: expected object with x, y, c")
        i, j, c = t["x"], t["y"], t["c"]
        if not (_is_int(i) and _is_int(j)) or i < 0 or j < 0:
            raise SchemaError(f"{path}: bad exponents")
        if not isinstance(c, list) or not c:
            raise SchemaError(f"{path}.c: expected nonempty array")
        if numeric and len(c) != 1:
            raise SchemaError(f"{path}.c: numeric-lambda file requires "
                              "constant coefficients")
        vals = []
        for m, s in enumerate(c):
            if not isinstance(s, str):
                raise SchemaError(f"{path}.c[{m}]: expected string")
            vals.append(parse_rational(s, f"{path}.c[{m}]"))
        if (i, j) in terms:
            raise SchemaError(f"{path}: duplicate monomial")
        terms[(i, j)] = Scalar(vals)
    return BivariatePoly(terms.items())


def gm_to_json(g: mf.GradedMatrix, where: str):
    return {"rows": [[poly_to_json(e, f"{where}.rows[{i}][{j}]")
                      for j, e in enumerate(row)]
                     for i, row in enumerate(g.entries)],
            "row_twists": list(g.row_twists),
            "col_twists": list(g.col_twists)}


def gm_from_json(obj, where: str, numeric: bool) -> mf.GradedMatrix:
    from . import mf
    if not isinstance(obj, dict) or set(obj) != {"rows", "row_twists",
                                                 "col_twists"}:
        raise SchemaError(f"{where}: expected rows/row_twists/col_twists")
    for key in ("row_twists", "col_twists"):
        tw = obj[key]
        if not isinstance(tw, list) or not all(_is_int(v) for v in tw):
            raise SchemaError(f"{where}.{key}: expected integer array")
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list)
                                             for r in rows):
        raise SchemaError(f"{where}.rows: expected array of arrays")
    entries = tuple(
        tuple(poly_from_json(e, f"{where}.rows[{i}][{j}]", numeric)
              for j, e in enumerate(row))
        for i, row in enumerate(rows))
    try:
        return mf.GradedMatrix(entries, tuple(obj["row_twists"]),
                               tuple(obj["col_twists"]))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}")


def mf_to_json(m: mf.MatrixFactorization, lam):
    return {"lambda": "sym" if lam is None else str(lam),
            "f": poly_to_json(m.f, "f"),
            "A": gm_to_json(m.A, "A"),
            "B": gm_to_json(m.B, "B")}


def mf_from_json(obj) -> tuple[mf.MatrixFactorization, Fraction | None]:
    from . import mf
    if not isinstance(obj, dict) or set(obj) != {"lambda", "f", "A", "B"}:
        raise SchemaError("root: expected lambda/f/A/B")
    lam = parse_lambda(obj["lambda"], "lambda")
    numeric = lam is not None
    f = poly_from_json(obj["f"], "f", numeric)
    a = gm_from_json(obj["A"], "A", numeric)
    b = gm_from_json(obj["B"], "B", numeric)
    if f != (mf.F if lam is None else mf.F.specialize(lam)):
        raise SchemaError("f: not XY(X-Y)(X-lambda*Y) at the file's lambda")
    return mf.MatrixFactorization(a, b, f), lam


def betti_to_json(t: tables.BettiTable):
    return {"entries": [{"i": i, "j": j, "beta": v}
                        for (i, j), v in t.entries]}


def betti_from_json(obj) -> tables.BettiTable:
    from . import tables
    if not isinstance(obj, dict) or set(obj) != {"entries"}:
        raise SchemaError("root: expected object with entries")
    if not isinstance(obj["entries"], list):
        raise SchemaError("entries: expected array")
    d = {}
    for k, e in enumerate(obj["entries"]):
        path = f"entries[{k}]"
        if not isinstance(e, dict) or set(e) != {"i", "j", "beta"}:
            raise SchemaError(f"{path}: expected i/j/beta")
        i, j, v = e["i"], e["j"], e["beta"]
        if not (_is_int(i) and _is_int(j)) or i not in (0, 1):
            raise SchemaError(f"{path}: bad index")
        if not _is_int(v) or v <= 0:
            raise SchemaError(f"{path}.beta: expected positive integer")
        if (i, j) in d:
            raise SchemaError(f"{path}: duplicate entry")
        d[(i, j)] = v
    return tables.BettiTable(d)


def _read_json(path: str):
    import json
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an integer over the int-to-str limit.
        raise SchemaError(f"invalid JSON: {exc}")


# --- rendering ------------------------------------------------------------

def emit_json(obj) -> None:
    import json
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _csv_cell(v) -> str:
    if isinstance(v, (dict, list)):
        raise SchemaError("--format csv: the result is a nested document, "
                          "not a table; use --format json")
    if v is None:
        return ""
    return str(int(v)) if isinstance(v, bool) else str(v)


def _csv_cells(v) -> list[str]:
    """One field of a record as csv cells.  A list contributes its
    elements; an object, or a list of objects, is one cell in which each
    object's values are joined by ':' and the objects by ';'."""
    if isinstance(v, dict):
        v = [v]
    if not isinstance(v, list):
        return [_csv_cell(v)]
    if not v or isinstance(v[0], dict):
        return [";".join(":".join(_csv_cell(x) for x in obj.values())
                         for obj in v)]
    return [c for e in v for c in _csv_cells(e)]


def render(args, record, text) -> None:
    """Print a command result: its record as json or as one csv line per
    record (fields in the order the record was built, each padded with empty
    cells to its widest value among the records), or `text(record)`.  A
    closed stdout ends the printing; main() discards the unwritten rest."""
    try:
        if args.format == "json":
            emit_json(record)
            return
        if args.format == "csv":
            rows = [[_csv_cells(v) for v in rec.values()] for rec in
                    (record if isinstance(record, list) else [record])]
            widths = [max(map(len, field)) for field in zip(*rows)]
            lines = [",".join(c for cells, w in zip(row, widths)
                              for c in cells + [""] * (w - len(cells)))
                     for row in rows]
        else:
            lines = text(record)
        for line in lines:
            print(line)
    except BrokenPipeError:
        pass


# --- commands -------------------------------------------------------------
# Each returns (record, text): the JSON record, or list of records, and the
# function laying it out as lines of text.

def _check_records(count: int, bounds: str) -> None:
    if count > MAX_RECORDS:
        raise SchemaError(f"{bounds}: more than {MAX_RECORDS} records")


def _catalog(args):
    from . import tables
    _check_records(tables.catalog_size(args.a_max, args.b_max, args.r_max),
                   "--a-max/--b-max/--r-max")
    return tables.catalog(args.a_max, args.b_max, args.r_max)


def _class_str(c) -> str:
    return f"({c['a0']}; {' '.join(map(str, c['a']))}; {c['n']})"


def cmd_roots(args):
    from . import k0
    try:
        _check_records(k0.real_root_count(args.m_max, args.n_min, args.n_max),
                       "--m-max/--n-min/--n-max")
        roots = k0.enumerate_real_roots(args.m_max, args.n_min, args.n_max)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    recs = [{"a0": cl.a0, "a": list(cl.a), "n": cl.n, "r": k0.rank(cl),
             "d": k0.degree(cl), "chi": k0.chi(cl)} for cl in roots]
    return recs, lambda recs: [
        f"{_class_str(c)}  r={c['r']} d={c['d']} chi={c['chi']}"
        for c in recs]


def cmd_class_info(args):
    from . import k0
    cl = k0.K0Class(args.a0, (args.a1, args.a2, args.a3, args.a4), args.n)
    r, d, x, mu = k0.invariants(cl)
    info = k0.classify_root(cl)
    slope = str(mu) if mu is not None else "inf" if d else None
    return {"a0": cl.a0, "a": list(cl.a), "n": cl.n, "r": r, "d": d,
            "chi": x, "q": k0.q_form(cl), "root": info.kind.value,
            "slope": slope, "sheaf": info.is_sheaf_class}, _class_info_text


def _class_info_text(c):
    slope = "undefined" if c["slope"] is None else c["slope"]
    return [f"class: {_class_str(c)}", f"rank: {c['r']}",
            f"degree: {c['d']}", f"chi: {c['chi']}", f"slope: {slope}",
            f"q-form: {c['q']}", f"root: {c['root']}",
            f"sheaf-class: {'yes' if c['sheaf'] else 'no'}"]


def cmd_cohom(args):
    from . import tables
    p = (args.r, args.d)
    try:
        one = tables.cohom_rank_one(p)
        two = tables.cohom_rank_two(p)
    except tables.NotReducedError as exc:
        raise SchemaError(str(exc)) from None
    tubes = [(one, 1, "rank1")] if one is not None else []
    tubes += [(t, mult, "rank2O" if tag.startswith("socle") else "rank2")
              for t, mult, tag in two]
    return [{"tube": tube, "mult": mult,
             "rows": [list(row) for row in t.rows], "r": args.r,
             "d": args.d} for t, mult, tube in tubes], _cohom_text


def _cohom_text(recs):
    lines = []
    for c in recs:
        lines.append(f"{c['tube']} x{c['mult']}:")
        lines += [f"  {h0} {h1}" for h0, h1 in c["rows"]]
    return lines


def cmd_betti_catalog(args):
    recs = [{"kind": c.kind, "params": list(c.params), **betti_to_json(t)}
            for c, t in _catalog(args)]
    return recs, lambda recs: [
        f"{c['kind']}{tuple(c['params'])}: "
        + " ".join(f"b[{e['i']},{e['j']}]={e['beta']}" for e in c["entries"])
        for c in recs]


def cmd_classify_betti(args):
    from . import tables
    t = betti_from_json(_read_json(args.file))
    try:
        cls = tables.normalize_and_classify(t)
        r, d = tables.rd_from_betti(t)
    except tables.TableError as exc:
        raise CheckFailed(f"classification failed: {exc}") from None
    n = tables.indec_count(cls)
    count = ({"finite": n.finite} if n.finite is not None
             else {"level": n.level, "base": n.base})
    return {"kind": cls.kind, "params": list(cls.params),
            "shift": cls.shift, "r": r, "d": d, "count": count}, \
        _classify_text


def _classify_text(c):
    from . import tables
    cls = tables.BettiClass(c["kind"], tuple(c["params"]), c["shift"])
    n = c["count"]
    return [f"class: {cls}", f"rank: {c['r']}", f"degree: {c['d']}",
            f"count: finite {n['finite']}" if "finite" in n
            else f"count: family level {n['level']} over {n['base']}"]


def cmd_reduce_rd(args):
    from . import shift
    try:
        (r, d), k = shift.reduce_to_fundamental((args.r, args.d))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    rec = {"r": r, "d": d, "k": k, "region": shift.region((r, d)).name}
    return rec, lambda c: [f"reduced: ({c['r']}, {c['d']}) via shift "
                           f"{c['k']}, region {c['region']}"]


def cmd_slope_word(args):
    from . import tubular
    q = parse_rational(args.slope, "slope")
    if q <= 0:
        raise SchemaError("slope: must be positive")
    word = tubular.word_for_slope(q)
    if sum(k for _, k in word.runs) > MAX_WORD_LETTERS:
        raise SchemaError(f"slope: its word has more than {MAX_WORD_LETTERS}"
                          " letters")
    m = tubular.phi_from_infinity(q)
    return {"word": str(word),
            "matrix": [list(m[0]), list(m[1])]}, _slope_word_text


def _slope_word_text(c):
    (a, b), (e, d) = c["matrix"]
    return [f"word: {c['word'] or '(empty)'}",
            f"matrix: [[{a},{b}],[{e},{d}]]"]


def cmd_ulrich(args):
    from . import tables
    recs = []
    for c, t in _catalog(args):
        _, e, mu, is_ulrich = tables.hilbert(t)
        recs.append({"kind": c.kind, "params": list(c.params), "e": e,
                     "mu": mu, "ulrich": is_ulrich})
    return recs, lambda recs: [
        f"{c['kind']}{tuple(c['params'])}: e={c['e']} mu={c['mu']}"
        + ("  ULRICH" if c["ulrich"] else "") for c in recs]


def cmd_mf_build(args):
    from . import mf
    lam = parse_lambda(args.lam, "--lambda")
    if args.kind == "kst":
        m = mf.KST
    elif args.kind == "linear":
        m = mf.mf_linear(int(args.i))
    else:
        x, y = (parse_rational(s, "point") for s in (args.p0, args.p1))
        try:
            point = mf.PointP1(x, y)
        except ValueError as exc:
            raise SchemaError(f"point: {exc}")
        m = (mf.mf_cone if args.kind == "cone" else mf.mf_Mp_reduced)(point)
    if lam is not None:
        m = m.specialize(lam)
    return mf_to_json(m, lam), _mf_text


def _mf_text(doc):
    lines = []
    for label in ("A", "B"):
        g = doc[label]
        lines.append(f"{label}: rows {g['row_twists']} cols "
                     f"{g['col_twists']}")
        lines += ["  [" + " | ".join(str(poly_from_json(e, label, False))
                                     for e in row) + "]"
                  for row in g["rows"]]
    return lines


def _verify_text(c):
    from .mf import failure_text
    return ["ok" if c["ok"] else "FAIL"] + [
        "  " + failure_text(x["where"], x["i"], x["j"], x["defect"])
        for x in c["failures"]]


def cmd_mf_verify(args):
    from . import mf
    cert = mf.verify_mf(mf_from_json(_read_json(args.file))[0])
    report = {"ok": cert.ok,
              "failures": [{"where": w, "i": i, "j": j,
                            "defect": mf.defect_text(dd)}
                           for w, i, j, dd in cert.failures]}
    if not cert.ok:
        render(args, report, _verify_text)
        raise CheckFailed("verification failed")
    return report, _verify_text


def cmd_mf_reduce(args):
    from . import mf
    m, lam = mf_from_json(_read_json(args.file))
    try:
        red = mf.reduce_mf(m)
    except ValueError as exc:
        raise CheckFailed(str(exc)) from None
    return mf_to_json(red, lam), _mf_text


def cmd_mf_betti(args):
    from . import mf
    m = mf_from_json(_read_json(args.file))[0]
    try:
        t = mf.betti_of_mf(m)
    except ValueError as exc:
        raise CheckFailed(str(exc)) from None
    return betti_to_json(t), lambda c: [
        f"b[{e['i']},{e['j']}] = {e['beta']}" for e in c["entries"]]


# The kinds of `mf build` and the words each takes, with their choices.
MF_KINDS = {"kst": {}, "linear": {"i": ("1", "2", "3", "4")},
            "cone": {"p0": None, "p1": None},
            "reduced": {"p0": None, "p1": None}}


class _KindWords(argparse.Action):
    """mf build's words, read by a parser of the kinds that is built only
    when build runs, with the option parsers in const as each kind's
    parents.  A "--" before the kind moves behind it, where it still marks
    -5/2 as a word."""

    def __call__(self, parser, namespace, words, option_string=None):
        if words[:1] == ["--"]:
            words = words[1:2] + ["--"] * (len(words) > 2) + words[2:]
        kinds = argparse.ArgumentParser(prog=parser.prog, add_help=False)
        kind = kinds.add_subparsers(dest="kind", required=True)
        for name, args in MF_KINDS.items():
            p = kind.add_parser(name, parents=self.const)
            for word, choices in args.items():
                p.add_argument(word, choices=choices)
        kinds.parse_args(words, namespace)


def _add_command(group, name: str, func, *parents) -> None:
    """Add the parser of command or verb `name`, which runs func, to the
    subparsers `group`, with the option parsers `parents`."""
    p = group.add_parser(name, parents=parents)
    p.set_defaults(func=func, parser=p)
    if name == "roots":
        for option in ("--m-max", "--n-min", "--n-max"):
            p.add_argument(option, type=_integer, default=0)
    elif name == "class-info":
        for word in ("a0", "a1", "a2", "a3", "a4", "n"):
            p.add_argument(word, type=_integer)
    elif name in ("cohom", "reduce-rd"):
        p.add_argument("r", type=_integer)
        p.add_argument("d", type=_integer)
    elif name in ("betti-catalog", "ulrich"):
        bounds = (3, 3, 4) if name == "betti-catalog" else (20, 20, 40)
        for option, bound in zip(("--a-max", "--b-max", "--r-max"), bounds):
            p.add_argument(option, type=_integer, default=bound)
    elif name == "slope-word":
        p.add_argument("slope")
    elif name == "mf":
        lam = argparse.ArgumentParser(add_help=False)
        lam.add_argument("--lambda", dest="lam", default=argparse.SUPPRESS)
        verbs = p.add_subparsers(required=True)
        _add_command(verbs, "build", cmd_mf_build, *parents, lam)
        _add_command(verbs, "verify", cmd_mf_verify, *parents)
        _add_command(verbs, "reduce", cmd_mf_reduce, *parents)
        _add_command(verbs, "betti", cmd_mf_betti, *parents)
    elif name == "build":
        p.add_argument("words", nargs=argparse.REMAINDER, action=_KindWords,
                       const=parents, default=argparse.SUPPRESS,
                       metavar="KIND",
                       help="kst | linear I | cone P0 P1 | reduced P0 P1")
    else:
        # classify-betti and mf's verify, reduce and betti read one file.
        p.add_argument("file")


def build_parser(word: str | None = None) -> argparse.ArgumentParser:
    """The parser of `ellmf`.  If word names a command, the top parser
    holds that command alone: its help and its errors do not read the
    others, and an error after a command word is that command's.  Any other
    word, or none, gets every command, for the top-level help and errors."""
    # --format may sit at each level of a command, as --lambda may in mf
    # build.  A subcommand's namespace is copied over its parent's, and
    # parsers share their parents' options, so only the top has defaults.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json", "csv"),
                     default=argparse.SUPPRESS)
    top = argparse.ArgumentParser(prog="ellmf")
    top.set_defaults(format="text", lam="sym")
    sub = top.add_subparsers(dest="command", required=True)
    # The commands in the order `ellmf -h` lists them, with the function
    # each runs (mf runs none, its verbs theirs), named here so that a
    # wrapper put on a cmd_ function, as a tracer does, is the one run.
    commands = {"roots": cmd_roots, "class-info": cmd_class_info,
                "cohom": cmd_cohom, "betti-catalog": cmd_betti_catalog,
                "classify-betti": cmd_classify_betti,
                "reduce-rd": cmd_reduce_rd, "slope-word": cmd_slope_word,
                "mf": None, "ulrich": cmd_ulrich}
    for name in [word] if word in commands else commands:
        _add_command(sub, name, commands[name], fmt)
    return top


def run(argv) -> int:
    try:
        # A subcommand hands the words it did not take up to the top parser;
        # they are reported under the usage of the command that was picked.
        parser = build_parser(argv[0] if argv else None)
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        render(args, *args.func(args))
    except (SchemaError, CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SchemaError) else 1
    return 0


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit drops what is left.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
