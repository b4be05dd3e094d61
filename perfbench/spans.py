"""Span tracing for the traced benchmark run.

`Tracer.install` replaces each public module-level function of the layer
modules by a wrapper that records one span per call: name, start, end and
the index of the enclosing span.  It patches the attribute in every
`strawcat.*` namespace that holds the function, so calls from one module
into another (`gray` -> `homs.hom_double`) are seen as well as calls from
the benchmark.  Spans stay in memory; `write` puts them in a file once the
run has ended.  Nothing inside `src/` changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("core", "cli", "strictify", "homs", "twovar", "multicat", "gray")

# Public functions called 5,000 times or more in one round of some workload
# (up to 590,000 for compose_functors in gray-homs), mostly from inside
# another layer's loop.  A wrapper there costs more than the work it
# measures, so their time counts toward the span that called them.
UNWRAPPED = {
    "homs": {"compose_functors", "identity_vertical", "hcomp_horizontal",
             "whisker_post_functor", "whisker_pre_functor"},
    "twovar": {"tree_flatten"},
    "multicat": {"perm_id", "perm_compose", "perm_block", "perm_sum",
                 "all_perms"},
}


class Tracer:
    def __init__(self):
        self.spans = []         # (name, start, end, parent index or -1)
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (name, t0, t1, parent)
        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules.

        Generator functions stay unwrapped: a span would close before the
        first item is produced."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"strawcat.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or attr in UNWRAPPED.get(layer, ())
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "strawcat" and not modname.startswith("strawcat."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f)


def summarize(spans: list, lo: int, hi: int, groups: dict) -> dict:
    """Per-layer figures over spans[lo:hi], which must be whole subtrees.

    Gives `<layer>.self_s`, the time in the layer's spans minus the spans of
    other layers nested in them, and for each entry of `groups` (metric
    name -> set of span names) the inclusive time, where a span nested in
    another span of the same group counts once, and `<metric>#calls`.
    """
    n = hi - lo
    excl = [0.0] * n
    nested = {g: [False] * n for g in groups}
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for g in groups:
        out[g] = 0.0
        out[g + "#calls"] = 0
    for i in range(n):
        name, t0, t1, parent = spans[lo + i]
        dur = t1 - t0
        excl[i] += dur
        p = parent - lo if parent >= lo else -1
        if p >= 0:
            excl[p] -= dur
        for g, names in groups.items():
            if p >= 0:
                nested[g][i] = nested[g][p] or spans[lo + p][0] in names
            if name in names:
                out[g + "#calls"] += 1
                if not nested[g][i]:
                    out[g] += dur
    for i in range(n):
        out[spans[lo + i][0].split(".", 1)[0] + ".self_s"] += excl[i]
    return out
