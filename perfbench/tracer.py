"""Span recorder for the traced run.

`Tracer.install()` wraps, from outside the program, every function defined
in a layer module and every public (or arithmetic) method of the classes
defined there.  A wrapped function is replaced in every `ellmf` module that
holds it, so calls made from inside another layer are caught too.  Each
call appends one span `[name, start, end, parent, op]` to an in-memory
list; nothing is written until the run ends.  `uninstall()` restores the
original objects, so untraced passes run the unmodified program.
"""
from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("qlambda", "poly", "mf", "tables", "k0", "shift", "tubular", "cli")
ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__truediv__"}

# Named groups of spans.  A group's busy time is the time during which at
# least one of its spans is open.
BUILD = {"mf.mf_cone", "mf.mf_kst", "mf.mf_linear", "mf.mf_Mp_reduced"}
ENUMERATE = {"k0.enumerate_real_roots", "k0.real_root_classes_with_rd",
             "k0.real_roots_bruteforce", "k0.real_roots_bruteforce_box"}
FILE_PARSE = {"cli._read_json", "cli.mf_from_json", "cli.betti_from_json"}
RENDER = {"cli.emit_json", "cli.emit_csv_rows", "cli.mf_to_json",
          "cli.betti_to_json", "cli.cohom_to_json", "cli._print_mf_text"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._patches: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # --- patching -----------------------------------------------------------

    def install(self) -> None:
        if not self._patches:
            self._patches = self._plan_patches()
        for holder, name, _, wrapped in self._patches:
            setattr(holder, name, wrapped)

    def uninstall(self) -> None:
        for holder, name, original, _ in reversed(self._patches):
            setattr(holder, name, original)

    def _plan_patches(self) -> list:
        patches = []
        holders = [m for n, m in list(sys.modules.items())
                   if n == "ellmf" or n.startswith("ellmf.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"ellmf.{layer}")
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}")
                    patches += [(holder, name, obj, wrapped)
                                for holder in holders
                                for name, value in vars(holder).items()
                                if value is obj]
                elif inspect.isclass(obj) and not issubclass(
                        obj, (enum.Enum, BaseException)):
                    patches += self._plan_class(layer, obj)
        return patches

    def _plan_class(self, layer: str, cls) -> list:
        patches = []
        for name, raw in vars(cls).items():
            if name.startswith("_") and name not in ARITHMETIC:
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, span))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, span)
            else:
                continue
            patches.append((cls, name, raw, wrapped))
        return patches

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        hook = self._hook_for(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # --- counters measured at the layer boundary ----------------------------

    def _hook_for(self, name: str):
        if name.startswith("qlambda."):
            return self._scalar_result
        return {"poly.BivariatePoly.__mul__": self._mul,
                "mf.reduce_mf": self._reduce,
                "k0.enumerate_real_roots": self._roots,
                "k0.real_root_classes_with_rd": self._roots,
                "k0.real_roots_bruteforce_box": self._roots,
                "tables.normalize_and_classify": self._classified}.get(name)

    def _scalar_result(self, args, result) -> None:
        den = getattr(result, "den", None)
        if den is not None:
            self.counts["scalars"] += 1
            self.counts["lambda_dependent"] += (len(result.num) > 1
                                                or len(den) > 1)
            self.counts["nontrivial_den"] += len(den) > 1

    def _mul(self, args, result) -> None:
        self.counts["poly.mul_term_products"] += (len(args[0].terms)
                                                  * len(args[1].terms))

    def _reduce(self, args, result) -> None:
        self.counts["mf.pivots"] += args[0].A.nrows - result.A.nrows

    def _roots(self, args, result) -> None:
        self.counts["k0.root_classes_out"] += len(result)

    def _classified(self, args, result) -> None:
        self.counts["classified"] += 1

    # --- per-layer metrics of one pass --------------------------------------

    def metrics(self) -> dict[str, float]:
        spans, names = self.spans, self.names
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        covered = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                covered[s[3]] += dur[i]
        calls, self_s = Counter(), Counter()
        for i, s in enumerate(spans):
            layer = names[s[0]].split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += dur[i] - covered[i]

        def group(members):
            """Busy seconds and call count of a set of span names."""
            inside = [False] * n
            secs, count = 0.0, 0
            for i, s in enumerate(spans):
                p = s[3]
                if p >= 0:
                    inside[i] = inside[p] or names[spans[p][0]] in members
                if names[s[0]] in members:
                    count += 1
                    if not inside[i]:
                        secs += dur[i]
            return secs, count

        def under(name, ancestor):
            """Calls of `name` made while `ancestor` is open."""
            inside = [False] * n
            count = 0
            for i, s in enumerate(spans):
                p = s[3]
                if p >= 0:
                    inside[i] = inside[p] or names[spans[p][0]] == ancestor
                count += inside[i] and names[s[0]] == name
            return count

        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = float(self_s[layer])
        out["qlambda.busy_s"] = group({nm for nm in names
                                       if nm.startswith("qlambda.")})[0]
        out["qlambda.lambda_dependent_ratio"] = ratio(c["lambda_dependent"],
                                                      c["scalars"])
        out["qlambda.nontrivial_den_ratio"] = ratio(c["nontrivial_den"],
                                                    c["scalars"])
        out["poly.mul_calls"] = group({"poly.BivariatePoly.__mul__"})[1]
        out["poly.mul_term_products"] = c["poly.mul_term_products"]
        out["poly.exact_div_calls"] = group({"poly.exact_div"})[1]
        out["mf.build_s"] = group(BUILD)[0]
        out["mf.compose_s"], out["mf.compose_calls"] = group(
            {"mf.GradedMatrix.compose"})
        out["mf.verify_s"] = group({"mf.verify_mf"})[0]
        out["mf.reduce_s"] = group({"mf.reduce_mf"})[0]
        out["mf.pivots"] = c["mf.pivots"]
        out["tables.classify_s"], out["tables.classify_calls"] = group(
            {"tables.normalize_and_classify"})
        attempts = under("tables.template_table",
                         "tables.normalize_and_classify")
        out["tables.template_attempts"] = attempts
        out["tables.template_hit_ratio"] = ratio(c["classified"], attempts)
        out["tables.hilbert_s"] = group({"tables.hilbert"})[0]
        out["k0.root_classes_out"] = c["k0.root_classes_out"]
        out["k0.enumerate_s"] = group(ENUMERATE)[0]
        run_s = group({"cli.run"})[0]
        cmd_s = group({nm for nm in names if nm.startswith("cli.cmd_")})[0]
        parse_s = group(FILE_PARSE)[0]
        render_s = group(RENDER)[0]
        out["cli.parse_s"] = run_s - cmd_s + parse_s
        out["cli.render_s"] = render_s
        out["cli.command_s"] = cmd_s - parse_s - render_s
        out["cli.bytes_in"] = c["cli.bytes_in"]
        out["cli.bytes_out"] = c["cli.bytes_out"]
        return dict(sorted(out.items(),
                           key=lambda kv: LAYERS.index(kv[0].split(".")[0])))

    def dump(self, path) -> None:
        """Write the current pass's spans as JSON lines."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": self.names[s[0]],
                                     "start": s[1] - t0, "end": s[2] - t0,
                                     "parent": s[3], "op": s[4]}) + "\n")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
