"""The four workloads of the ellmf benchmark.

Each workload builds a seeded input pool up front (outside every timed
region) and exposes:

    tail_cap       highest percentile op_tail_ms may report (see run.py)
    trace_ops      ops per pass of the traced run
    op(i)          one op on pool item i mod len(pool): the timed part
    check(i, out)  raises Mismatch unless out is the correct result

cli-process also has traced_op(i), the same command run in-process for the
traced run, and input_bytes(i), the size of the file op i reads.

Expected results are re-derived in this file from closed forms wherever the
paper gives one, so a checker never trusts the code path it checks.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

from ellmf import cli, k0, mf, shift, tables, tubular
from ellmf.qlambda import LAMBDA, ONE, Scalar

# Betti table of every cone over a point of P^1 after reduction: the 2x2
# skyscraper factorization.
CONE_BETTI = {(0, 0): 1, (0, 1): 1, (1, 2): 1, (1, 3): 1}


class Mismatch(Exception):
    """An op returned a wrong result."""


def expect(cond, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def seeded_rational(rng, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def seeded_lambda(rng) -> Fraction:
    """A rational parameter value; 0 and 1 are outside the domain."""
    while True:
        lam = seeded_rational(rng, 9, 9)
        if lam not in (0, 1):
            return lam


# --- mf-symbolic / mf-numeric ---------------------------------------------

def cone_points(rng) -> list:
    """Four times over: the four branch points (0, inf, 1, lambda), four points
    [a*lambda + b : 1] and eight rational points [q : 1], shuffled.  The
    fixed mix keeps the cost profile alike across seeds."""
    points = []
    for _ in range(4):
        points += list(mf.BRANCH_POINTS)
        for _ in range(4):
            a = rng.choice((-3, -2, -1, 1, 2, 3))
            points.append(mf.PointP1(LAMBDA * a + rng.randint(-5, 5), ONE))
        for _ in range(8):
            points.append(mf.PointP1(Scalar.of(seeded_rational(rng, 15, 15)),
                                     ONE))
    rng.shuffle(points)
    return points


class ConePipeline:
    """mf_cone(p) -> [specialize] -> verify_mf -> reduce_mf -> betti_of_mf."""

    tail_cap = 90.0
    trace_ops = 8

    def __init__(self, rng, numeric: bool):
        self.items = []
        for p in cone_points(rng):
            lam = seeded_lambda(rng) if numeric else None
            ref = mf.mf_Mp_reduced(p)
            if lam is not None:
                ref = ref.specialize(lam)
            self.items.append((p, lam, mf.betti_of_mf(ref).as_dict()))

    def op(self, i):
        p, lam, _ = self.items[i % len(self.items)]
        m = mf.mf_cone(p)
        if lam is not None:
            m = m.specialize(lam)
        if not mf.verify_mf(m).ok:
            return None
        return mf.betti_of_mf(mf.reduce_mf(m))

    def check(self, i, out) -> None:
        expect(out is not None, "verify_mf rejected the cone")
        got = out.as_dict()
        expect(got == CONE_BETTI, f"cone Betti table {got}")
        expect(got == self.items[i % len(self.items)][2],
               "cone and reduced 2x2 factorization disagree")


# --- sheaf-queries ----------------------------------------------------------

SHIFT = ((-1, -1), (2, 1))


def in_domain(r: int, d: int) -> bool:
    return (r >= 0 and d > 0) or (r > 0 and d == 0) or (r > 0 and d < -2 * r)


def shifted(p, k: int):
    r, d = p
    (a, b), (c, e) = SHIFT
    for _ in range(k % 4):
        r, d = a * r + b * d, c * r + e * d
    return r, d


def rank_one_rows(r: int, d: int):
    """Closed-form table of the self-canonical indecomposables, or None."""
    if gcd(r, abs(d)) % 2 == 1:
        return None
    if d > 0:
        return ((d // 2, d // 2), (d // 2 + r,) * 2, (0, 0), (0, 0))
    if d == 0:
        return ((0, 0), (r, r), (0, 0), (0, 0))
    h = -d // 2
    return ((0, 0), (0, 0), (h, h), (h - r, h - r))


def mirror(rows):
    return tuple((b, a) for a, b in rows)


def rank_two_rows(r: int, d: int):
    """Closed-form (table, multiplicity) list of the other indecomposables."""
    if d == 0:
        socle = (((1, 0), (r - 1, r + 1), (1, 0), (0, 0)) if r % 2
                 else ((1, 0), (r, r), (0, 1), (0, 0)))
        return [(socle, 1), (mirror(socle), 1),
                (((0, 0), (r, r), (0, 0), (0, 0)), 6)]

    def table(h0, h0w):
        if d > 0:
            return ((h0, h0w), (h0w + r, h0 + r), (0, 0), (0, 0))
        return ((0, 0), (0, 0), (-h0, -h0w), (-h0w - r, -h0 - r))

    if d % 2:
        plus = table((d + 1) // 2, (d - 1) // 2)
        return [(plus, 4), (mirror(plus), 4)]
    diag = table(d // 2, d // 2)
    if r % 2:
        plus = table(d // 2 + 1, d // 2 - 1)
        return [(plus, 1), (mirror(plus), 1), (diag, 6)]
    return [(diag, 8)]


def betti_readout(rows) -> dict:
    out = {}
    for k, (left, right) in enumerate(rows):
        if left:
            out[(0, k)] = left
        if right:
            out[(1, k + 2)] = right
    return out


def hilbert_data(betti: dict):
    """(numerator partial sums, multiplicity, generators) of a table."""
    n = {}
    for (i, j), v in betti.items():
        n[j] = n.get(j, 0) + (v if i == 0 else -v)
    p, acc = {}, 0
    for j in range(min(n), max(n) + 1):
        acc += n.get(j, 0)
        if acc:
            p[j] = acc
    e = sum(j * (v if i == 1 else -v) for (i, j), v in betti.items())
    mu = sum(v for (i, _), v in betti.items() if i == 0)
    return p, e, mu


FINITE_COUNTS = {"II": 4, "III": 4, "IV": 1, "V": 1,
                 "first-kind-odd-a": 1, "first-kind-odd-b": 1,
                 "first-kind-even-a": 1, "first-kind-even-b": 1}


def check_count(kind: str, params, count) -> None:
    if kind in FINITE_COUNTS:
        expect(count.finite == FINITE_COUNTS[kind], f"count of {kind}")
        return
    a, b = params
    expect(b != 0, "type I with b = 0")
    if (b - a) % 2:
        expect(count.finite == 6, "type I odd-rank count")
    elif a:
        expect((count.finite, count.level, count.base)
               == (None, gcd(b - a, 2 * a) // 2, "full-line"),
               "type I family count")
    else:
        expect((count.finite, count.level, count.base)
               == (None, b // 2, "line-minus-infinity"),
               "type I family count at d = 0")


class SheafQueries:
    """(r, d) -> fundamental domain -> tube data -> cohomology tables ->
    Betti classification -> real-root cross-check."""

    tail_cap = 95.0
    trace_ops = 256

    def __init__(self, rng):
        self.items = []
        while len(self.items) < 1024:
            p = (rng.randint(-20, 20), rng.randint(-40, 40))
            if p == (0, 0):
                continue
            hits = [k for k in range(4) if in_domain(*shifted(p, k))]
            expect(len(hits) == 1, f"{p} meets the domain {len(hits)} times")
            q = shifted(p, hits[0])
            one = rank_one_rows(*q)
            two = rank_two_rows(*q)
            self.items.append((p, q, hits[0], one, two))

    def op(self, i):
        p = self.items[i % len(self.items)][0]
        q, k = shift.reduce_to_fundamental(p)
        tube = tubular.tube_invariants(q)
        phi = tubular.phi_from_infinity(Fraction(q[1], q[0])) if q[0] else None
        one = tables.cohom_rank_one(q)
        two = tables.cohom_rank_two(q)
        readouts = []
        for t in ([one] if one is not None else []) + [t for t, _, _ in two]:
            bt = tables.betti_from_cohom(t)
            cls = tables.normalize_and_classify(bt)
            readouts.append((bt, cls, tables.rd_from_betti(bt),
                             tables.indec_count(cls), tables.hilbert(bt)))
        roots = k0.real_root_classes_with_rd(*q)
        euler = ([tables.cohom_via_euler(cl) for cl in roots]
                 if shift.region(q) in (shift.Region.R1, shift.Region.R3)
                 else [])
        return q, k, tube, phi, one, two, readouts, roots, euler

    def check(self, i, out) -> None:
        _, q, k, one_rows, two_rows = self.items[i % len(self.items)]
        got_q, got_k, tube, phi, one, two, readouts, roots, euler = out
        r, d = q
        expect((got_q, got_k) == (q, k), f"reduced to {got_q} via {got_k}")
        g = gcd(r, abs(d))
        expect((tube.g, tube.rank_one_exists, tube.rank_one_length,
                tube.rank_two_length, tube.finitely_many,
                tube.count_if_finite, tube.has_exceptional)
               == (g, g % 2 == 0, g // 2 if g % 2 == 0 else None, g,
                   g % 2 == 1, 8 if g % 2 else None, g == 1),
               "tube invariants")
        if r:
            det = phi[0][0] * phi[1][1] - phi[0][1] * phi[1][0]
            expect(det == 1 and (phi[0][1], phi[1][1]) == (r // g, d // g),
                   "phi_from_infinity does not reach the slope")
        expect((one.rows if one is not None else None) == one_rows,
               "rank-one cohomology table")
        expect([(t.rows, m) for t, m, _ in two] == two_rows,
               "rank-two cohomology tables")
        sources = ([one_rows] if one_rows else []) + [t for t, _ in two_rows]
        expect(len(readouts) == len(sources), "table count")
        for rows, (bt, cls, rd, count, hil) in zip(sources, readouts):
            betti = betti_readout(rows)
            expect(bt.as_dict() == betti, "positional Betti readout")
            if cls.kind in ("IV", "V"):
                expect((cls.params[1] - cls.params[0]) % 2 == 1,
                       f"{cls.kind} parity")
            expect(any(shifted(rd, s) == q for s in range(4)),
                   f"rank/degree {rd} not in the orbit of {q}")
            check_count(cls.kind, cls.params, count)
            p, e, mu = hilbert_data(betti)
            expect(tuple(hil) == (p, e, mu, e == mu), "Hilbert data")
        for cl in roots:
            expect((cl.a0, sum(cl.a) + 2 * cl.n) == q, "root rank/degree")
            a0, a = cl.a0, cl.a
            expect(a0 * a0 + sum(x * x for x in a) - a0 * sum(a) == 1,
                   "root class is not real")
        if g % 2:
            chis = sorted(cl.a0 + cl.n for cl in roots)
            if d % 2:
                want = [(d - 1) // 2] * 4 + [(d + 1) // 2] * 4
            else:
                want = [d // 2 - 1] + [d // 2] * 6 + [d // 2 + 1]
            expect(chis == want, "Euler characteristics of the real roots")
        listed = [t for t, _ in two_rows]
        expect(all(t.rows in listed for t in euler),
               "Euler-method table missing from the rank-two list")
        expect(len(euler) == (len(roots) if d else 0), "Euler-method count")


# --- cli-process ------------------------------------------------------------

def render_in_process(argv) -> tuple[int, bytes]:
    """Exit code and stdout of one CLI command run inside this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue().encode()


class CliProcess:
    """Real `python -m ellmf.cli` subprocesses, --format json, in groups
    of eight: build a cone into a file, verify it, reduce it into a second
    file, read the Betti table off that, then classify-betti, cohom, roots
    and a small ulrich."""

    tail_cap = 75.0
    trace_ops = 16

    def __init__(self, rng, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.command = [sys.executable, "-m", "ellmf.cli"]
        # (argv with an {in} slot, input file, output file, group)
        self.plan = []
        self.brute = {}
        for g in range(4):
            a, b = seeded_rational(rng, 9, 9), seeded_rational(rng, 9, 9)
            if a == b == 0:
                b = Fraction(1)
            build = ["mf", "build"]
            if g % 2:
                build.append(f"--lambda={seeded_lambda(rng)}")
            # "=" and "--" keep argparse from reading -5/2 as an option.
            build += ["--", "cone", str(a), str(b)]
            while True:
                rd = (rng.randint(0, 12), rng.randint(-30, 30))
                if rd != (0, 0) and in_domain(*rd):
                    break
            rows = rank_two_rows(*rd)[0][0]
            table = {"entries": [{"i": i, "j": j, "beta": v} for (i, j), v
                                 in sorted(betti_readout(rows).items())]}
            for prefix in ("", "exp-"):
                self._write(f"{prefix}g{g}-table.json",
                            json.dumps(table).encode())
            m, n = rng.randint(0, 1), rng.randint(0, 2)
            self.brute[g] = {(c.a0, c.a, c.n) for c in
                             k0.real_roots_bruteforce_box(2 * m + 2, m + 1, n)}
            self.plan += [
                (build, None, f"g{g}-cone.json", g),
                (["mf", "verify", "{in}"], f"g{g}-cone.json", None, g),
                (["mf", "reduce", "{in}"], f"g{g}-cone.json",
                 f"g{g}-red.json", g),
                (["mf", "betti", "{in}"], f"g{g}-red.json", None, g),
                (["classify-betti", "{in}"], f"g{g}-table.json", None, g),
                (["cohom", str(rd[0]), str(rd[1])], None, None, g),
                (["roots", "--m-max", str(m), "--n-min", str(-n),
                  "--n-max", str(n)], None, None, g),
                (["ulrich", "--a-max", str(rng.randint(2, 5)), "--b-max",
                  str(rng.randint(2, 5)), "--r-max", str(rng.randint(4, 10))],
                 None, None, g),
            ]
        self.expected = []
        for k in range(len(self.plan)):
            code, out = render_in_process(self.argv(k, "exp-"))
            self.expected.append(out)
            if self.plan[k][2]:
                self._write("exp-" + self.plan[k][2], out)
            expect(code == 0, f"in-process {self.argv(k, '')} exited {code}")

    def _write(self, name: str, data: bytes) -> None:
        (self.workdir / name).write_bytes(data)

    def argv(self, k: int, prefix: str = "") -> list[str]:
        args, infile, _, _ = self.plan[k]
        args = [str(self.workdir / (prefix + infile)) if a == "{in}" else a
                for a in args]
        return [args[0], "--format", "json", *args[1:]]

    def input_bytes(self, i: int) -> int:
        infile = self.plan[i % len(self.plan)][1]
        return 0 if infile is None else (self.workdir / infile).stat().st_size

    def _finish(self, k: int, code: int, out: bytes):
        if self.plan[k][2]:
            self._write(self.plan[k][2], out)
        return code, out

    def op(self, i):
        k = i % len(self.plan)
        proc = subprocess.run(self.command + self.argv(k), env=self.env,
                              cwd=self.workdir, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=120)
        return self._finish(k, proc.returncode, proc.stdout)

    def traced_op(self, i):
        """The same command through ellmf.cli.run inside this process."""
        k = i % len(self.plan)
        return self._finish(k, *render_in_process(self.argv(k)))

    def check(self, i, out) -> None:
        k = i % len(self.plan)
        code, stdout = out
        expect(code == 0, f"{self.argv(k)} exited {code}")
        expect(stdout == self.expected[k],
               f"{self.argv(k)} differs from the in-process rendering")
        args, _, _, group = self.plan[k]
        if args[0] == "roots":
            got = {(r["a0"], tuple(r["a"]), r["n"])
                   for r in json.loads(stdout)}
            expect(got == self.brute[group],
                   "roots differ from the brute-force box")
        if args[:2] == ["mf", "betti"]:
            got = {(e["i"], e["j"]): e["beta"]
                   for e in json.loads(stdout)["entries"]}
            expect(got == CONE_BETTI, f"cone Betti table {got}")


# Module whose fresh import is each workload's set-up time.
ENTRY = {"mf-symbolic": "ellmf", "mf-numeric": "ellmf",
         "sheaf-queries": "ellmf", "cli-process": "ellmf.cli"}


def make(name: str, rng, workdir: Path, env: dict):
    if name == "mf-symbolic":
        return ConePipeline(rng, numeric=False)
    if name == "mf-numeric":
        return ConePipeline(rng, numeric=True)
    if name == "sheaf-queries":
        return SheafQueries(rng)
    if name == "cli-process":
        return CliProcess(rng, workdir, env)
    raise ValueError(f"unknown workload {name!r}")
