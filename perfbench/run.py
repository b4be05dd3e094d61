"""strawcat benchmark: time to verdict, set-up time and peak memory.

    python3 perfbench/run.py --workload st-oracle --seed 1 --seconds 20 --trace 0

Run from the root of a strawcat checkout.  One process, one thread of work:
it imports `strawcat` from `src/`, loads the workload's inputs, then repeats
whole rounds of the workload's operations, and begins no round that would
end past `--seconds`.
An operation is one checker call on one input together with its
correctness check; an exception, a wrong verdict or a count that differs
from its independent computation (or, where there is none, from
`reference_counts.json`) fails it.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: `setup_s` (median of
several set-ups), `check_s` (median round) and `peak_rss_mb`.  With
`--trace 1` every public function of the layer modules is wrapped (see
spans.py), and the metrics are per-layer times and counts for one set-up
plus the mean round; the spans go to `perfbench/out/`.

`--seed` renames every declared identifier through a seeded bijection and
shuffles declarations and rows, so the work does not depend on it.

The host is shared, and its speed drifts by tens of per cent within
seconds to minutes.  While the run is timed, a timer interrupts it every
`CAL_INTERVAL_S` and times one of two fixed calibration kernels (see
`Meter`); the interrupts' own time is left out of every timed step.
`setup_s` and `check_s` are given in seconds of a reference host, on which
the kernels take the times in `CAL_KERNELS`: each stretch of a step is
scaled by the host speed measured around it.  The program's own speed moves
them as before, and the host's load cancels.  The wall times go to standard
error.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback

import oracles
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "corpus")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference_counts.json")

SETUP_REPEATS = 15
MUTATION_SEED = 20180221     # fixed: the run's seed only renames the mutants
CAL_INTERVAL_S = 0.05        # how often a calibration kernel is timed
CAL_WINDOW = 5               # ticks of a kernel on either side that set its speed


class Failure(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise Failure(what)


def numeric(params: dict) -> dict:
    return {k: v for k, v in params.items()
            if isinstance(v, int) and not isinstance(v, bool)}


# ---------------------------------------------------------------------------
# workloads
#
# Each workload has `prepare(rng)`, the benchmark's own untimed work (inputs
# and expected values), `load(sc, prep)`, the timed set-up through the
# program, and `ops(sc, prep, inputs)`, the round: a list of
# (label, thunk), where a thunk returns a dict of counts or raises.
# ---------------------------------------------------------------------------

def read_corpus(rng, names):
    out = {}
    for name in names:
        with open(os.path.join(CORPUS, f"{name}.pdc")) as f:
            rows = oracles.read_rows(f.read(), name)
        out[name] = oracles.renamed(rows, rng)
    return out


def load_corpus(sc, prep):
    return {name: sc.cli.elaborate(sc.cli.parse(rows.text(), name))
            for name, rows in prep["rows"].items()}


class StOracle:
    """Strictness oracle of st A, the 3-d universal property, triangle 1."""
    name = "st-oracle"
    members = ("terminal", "unit", "vertfree", "sigmaM", "sigma2", "quintet",
               "quintetP", "nonstrict")
    bounds = {"sigmaM": 3}          # sigmaM at bound 4 alone takes 40-55 s
    iso_pairs = (("nonstrict", "sigmaM"), ("quintet", "quintetP"))

    def prepare(self, rng):
        rows = read_corpus(rng, self.members)
        paths = {n: oracles.path_counts(rows[n], self.bounds.get(n, 4))
                 for n in self.members}
        return {"rows": rows, "paths": paths}

    load = staticmethod(load_corpus)

    def ops(self, sc, prep, T):
        S = sc.strictify

        def strict(n):
            rep = S.st_strict_report(S.st(T[n]), self.bounds.get(n, 4))
            expect(rep.ok, rep.render(5))
            inst = rep.params["instances"]
            for fam, want in prep["paths"][n].items():
                expect(inst.get(fam) == want, f"{fam}: {inst.get(fam)} != {want}")
            return dict(inst)

        def iso(a, b):
            rep = S.verify_3d_iso(T[a], T[b], 3)
            expect(rep.ok, rep.render(5))
            return numeric(rep.params)

        def triangle(n):
            rep = S.triangle1_report(T[n], 3)
            expect(rep.ok, rep.render(5))
            return {}

        return ([(f"st_strict_report({n})", lambda n=n: strict(n)) for n in self.members]
                + [(f"verify_3d_iso({a},{b})", lambda a=a, b=b: iso(a, b))
                   for a, b in self.iso_pairs]
                + [(f"triangle1_report({n})", lambda n=n: triangle(n)) for n in self.members])


class GrayHoms:
    """Gray interchange layer, representability equivalence, adjunction."""
    name = "gray-homs"
    gray_triples = (("nonstrict", "sigmaM", "sigmaM"), ("sigma2", "sigma2", "sigma2"))
    equivalence_triples = (("quintet", "quintet", "sigmaM"),
                           ("nonstrict", "nonstrict", "sigmaM"))
    adjunction_members = ("nonstrict", "sigmaM", "quintet")

    def prepare(self, rng):
        names = sorted({n for t in self.gray_triples + self.equivalence_triples
                        for n in t} | set(self.adjunction_members))
        return {"rows": read_corpus(rng, names)}

    load = staticmethod(load_corpus)

    def ops(self, sc, prep, T):
        def run(check):
            rep = check()
            expect(rep.ok, rep.render(5))
            return numeric(rep.params)

        ops = [(f"gray_axiom_check({','.join(t)})",
                lambda t=t: run(lambda: sc.gray.gray_axiom_check(*(T[n] for n in t), bound=2)))
               for t in self.gray_triples]
        ops += [(f"verify_equivalence({','.join(t)})",
                 lambda t=t: run(lambda: sc.twovar.verify_equivalence(*(T[n] for n in t))))
                for t in self.equivalence_triples]
        sub = self.adjunction_members
        ops.append((f"strictification_adjunction_report({','.join(sub)})",
                    lambda: run(lambda: sc.multicat.strictification_adjunction_report(
                        {n: T[n] for n in sub}, bound=3))))
        return ops


def on_names(elems, op):
    """`op` on element indices, as an operation on the element names."""
    ix = {x: i for i, x in enumerate(elems)}
    return lambda x, y: elems[op(ix[x], ix[y])]


class EnvelopeCap4:
    """Symmetric monoidal envelopes, plus a planted defect it must reject."""
    name = "envelope-cap4"

    def prepare(self, rng):
        def names(k):
            perm = list(range(k))
            rng.shuffle(perm)
            return [f"e{i}" for i in perm]

        t = names(1)
        z = names(2)
        m = names(3)
        e = names(2)
        specs = {
            # name: (elements, operation on element indices, word cap)
            "terminal": (t, None, 4),
            "z2": (z, lambda x, y: (x + y) % 2, 4),
            "truncadd": (m, lambda x, y: min(x + y, 2), 3),
        }
        expected = {}
        for name, (elems, op, cap) in specs.items():
            if op is None:
                size = lambda inputs, out: 1        # noqa: E731
            else:
                size = oracles.monoid_hom_size(op, 0)
            expected[name] = oracles.envelope_morphisms(range(len(elems)), size, cap)
        # endo({0,1}) has one object and 2^(2^k) morphisms of arity k
        expected["endo2"] = oracles.envelope_morphisms(
            range(1), lambda inputs, out: 2 ** (2 ** len(inputs)), 2)
        return {"specs": specs, "endo": e, "expected": expected}

    def load(self, sc, prep):
        mc = sc.multicat
        V = {}
        for name, (elems, op, cap) in prep["specs"].items():
            if op is None:
                V[name] = mc.endo_multicat(name, tuple(elems), cap)
            else:
                V[name] = mc.from_monoidal(name, tuple(elems), on_names(elems, op),
                                           elems[0], cap)
        # endo({0,1}) at cap 2, once with one substitution and once with one
        # symmetric-group action entry set to the constant-0 binary function
        zero, one = elems = tuple(prep["endo"])

        def fn(f, n):
            return ("f", n, tuple(f(*args) for args in itertools.product(elems, repeat=n)))
        conj = fn(lambda x, y: one if x == y == one else zero, 2)
        const0 = fn(lambda x, y: zero, 2)
        keys = {"gamma_table": (conj, (fn(lambda x: one if x == zero else zero, 1),
                                       fn(lambda x: x, 1))),
                "action_table": (conj, (1, 0))}
        for table, key in keys.items():
            W = mc.endo_multicat(f"endo2-{table}", elems, 2)
            entries = getattr(W, table)
            if entries[key] == const0 or W.sig[entries[key]] != W.sig[const0]:
                raise RuntimeError(f"no defect to plant at {key}")
            entries[key] = const0
            V[f"endo2-{table}"] = W
        return V

    def ops(self, sc, prep, V):
        mc = sc.multicat
        ops = []
        for name, (_e, _op, cap) in prep["specs"].items():
            def valid_multicat(name=name):
                rep = mc.validate_multicat(V[name])
                expect(rep.ok, rep.render(5))
                return numeric(rep.params)

            def valid_envelope(name=name, cap=cap):
                rep = mc.validate_envelope(mc.envelope(V[name], cap))
                expect(rep.ok, rep.render(5))
                want = prep["expected"][name]
                expect(rep.params["morphisms"] == want,
                       f"morphisms {rep.params['morphisms']} != {want}")
                return numeric(rep.params)
            ops += [(f"validate_multicat({name})", valid_multicat),
                    (f"validate_envelope({name},{cap})", valid_envelope)]
        for table in ("gamma_table", "action_table"):
            def planted(name=f"endo2-{table}"):
                rep = mc.validate_envelope(mc.envelope(V[name], 2), assoc_full_len=2)
                fails = rep.failures()
                expect(not rep.ok and fails, "planted defect accepted")
                expect(all(f.check.startswith("env.") for f in fails),
                       f"findings outside env.*: {sorted({f.check for f in fails})}")
                expect("env.assoc" in {f.check for f in fails}, "env.assoc not named")
                want = prep["expected"]["endo2"]
                expect(rep.params["morphisms"] == want,
                       f"morphisms {rep.params['morphisms']} != {want}")
                return dict(numeric(rep.params), findings=len(fails))
            ops.append((f"validate_envelope(endo2-{table},2)", planted))
        return ops


class MonoidTables:
    """One-object 2-categories on finite monoids through the reader and the
    validator, and single-row mutants of them that must be rejected."""
    name = "monoid-tables"
    MUTANTS_EACH = 2

    @staticmethod
    def monoids():
        return [oracles.cyclic(16), oracles.cyclic(24), oracles.truncated(20),
                oracles.cyclic_product(3, 6)]

    def prepare(self, rng):
        os.makedirs(OUT, exist_ok=True)
        mutation_rng = random.Random(MUTATION_SEED)
        kinds = itertools.cycle(oracles.MUTATION_KINDS)
        items = []
        for M in self.monoids():
            bad = M.check()
            if bad:
                raise RuntimeError(f"{M.name} is not a monoid: {bad[:3]}")
            rows = oracles.monoid_rows(M)
            mutants = [oracles.mutation(rows, next(kinds), mutation_rng)
                       for _ in range(self.MUTANTS_EACH)]
            for label, r in [("valid", rows)] + mutants:
                text = oracles.renamed(r, rng).text()
                path = os.path.join(OUT, f"{M.name}-{label}.pdc")
                with open(path, "w") as f:
                    f.write(text)
                items.append({"monoid": M.name, "n": len(M.elems), "label": label,
                              "text": text, "path": path,
                              "sha256": hashlib.sha256(text.encode()).hexdigest()})
        return {"items": items}

    def load(self, sc, prep):
        return None

    def ops(self, sc, prep, _inputs):
        cli, core = sc.cli, sc.core
        ops = []
        for it in prep["items"]:
            name = f"{it['monoid']}-{it['label']}"
            if it["label"] == "valid":
                tables = {}

                def elaborate(it=it, tables=tables):
                    tables.clear()
                    A = cli.elaborate(cli.parse(it["text"], it["monoid"]))
                    n = it["n"]
                    expect(len(A.objects) == 1 and len(A.hmors) == n and len(A.cells) == n
                           and len(A.hcomp_hmor_table) == n * n
                           and len(A.hcomp_cell_table) == n * n and len(A.assoc) == n ** 3,
                           "elaborated table has the wrong size")
                    tables["A"] = A
                    return {}

                def validate(tables=tables):
                    rep = core.validate(tables["A"])
                    expect(rep.ok and not rep.findings, rep.render(5))
                    tables["rep"] = rep
                    return {}

                def serialize(it=it, tables=tables):
                    doc = json.loads(cli.serialize_report("validate", [it["path"]],
                                                          tables["rep"]))
                    expect(doc["pass"] is True and doc["checks"] == []
                           and doc["truncated"] is False, "report does not pass")
                    expect(doc["inputs"] == [{"path": it["path"], "sha256": it["sha256"]}],
                           "report names the wrong input")
                    return {}
                ops += [(f"elaborate({name})", elaborate), (f"validate({name})", validate),
                        (f"serialize_report({name})", serialize)]
            else:
                def mutant(it=it):
                    A = cli.elaborate(cli.parse(it["text"], it["monoid"]), allow_invalid=True)
                    rep = core.validate(A)
                    fails = rep.failures()
                    expect(not rep.ok and fails, "mutant accepted")
                    structural = sorted({f.check for f in fails if f.check.startswith("structure.")})
                    expect(not structural, f"mutant named structurally: {structural}")
                    return {"findings": len(fails)}
                ops.append((f"validate({name})", mutant))
        return ops


WORKLOADS = {w.name: w for w in (StOracle(), EnvelopeCap4(), GrayHoms(), MonoidTables())}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

INCLUSIVE = {
    "core.validate_s": {"core.validate"},
    "cli.parse_s": {"cli.parse"},
    "cli.elaborate_s": {"cli.elaborate"},
    "cli.serialize_report_s": {"cli.serialize_report"},
    "strictify.st_strict_report_s": {"strictify.st_strict_report"},
    "strictify.verify_3d_iso_s": {"strictify.verify_3d_iso"},
    "strictify.triangle_s": {"strictify.triangle1_report", "strictify.triangle2_report"},
    "homs.hom_double_s": {"homs.hom_double"},
    "homs.enumerate_s": {"homs.enumerate_functors", "homs.enumerate_underlying_functors",
                         "homs.enumerate_vertical", "homs.enumerate_horizontal",
                         "homs.enumerate_modifications"},
    "homs.interchanger_s": {"homs.interchanger", "homs.interchanger_inv"},
    "twovar.verify_equivalence_s": {"twovar.verify_equivalence"},
    "multicat.envelope_s": {"multicat.envelope"},
    "multicat.validate_envelope_s": {"multicat.validate_envelope"},
    "multicat.strictification_adjunction_report_s":
        {"multicat.strictification_adjunction_report"},
    "gray.gray_axiom_check_s": {"gray.gray_axiom_check"},
    "gray.interchange_grid_s": {"gray.interchange_grid"},
}
CALLS = {
    "core.validate_calls": "core.validate_s",
    "homs.interchanger_calls": "homs.interchanger_s",
    "gray.interchange_grid_calls": "gray.interchange_grid_s",
}
# work counts: per metric, the operations (by label prefix) and the params
# of their reports that are summed
PARAM_COUNTS = {
    "strictify.st_instances": ("st_strict_report(", lambda k: True),
    "strictify.st_interchange_instances": ("st_strict_report(", lambda k: k == "st.interchange"),
    "strictify.iso_candidates": ("verify_3d_iso(", lambda k: k.endswith("_candidates")),
    "multicat.envelope_morphisms": ("validate_envelope(", lambda k: k == "morphisms"),
    "multicat.envelope_instances": ("validate_envelope(", lambda k: "_instances" in k),
    "gray.grid_instances": ("gray_axiom_check(", lambda k: k == "grid_instances"),
    "report.findings": ("", lambda k: k == "findings"),
}


def param_counts(counts: dict) -> dict:
    return {metric: sum(v for label, c in counts.items() if label.startswith(prefix)
                        for k, v in c.items() if summed(k))
            for metric, (prefix, summed) in PARAM_COUNTS.items()}


def layer_metrics(spans_list, lo, hi, rounds) -> dict:
    """Per-layer times and call counts for the set-up spans [0, lo) plus
    the mean round of the check spans [lo, hi)."""
    setup = spans.summarize(spans_list, 0, lo, INCLUSIVE)
    check = spans.summarize(spans_list, lo, hi, INCLUSIVE)
    out = {}
    for key in setup:
        if not key.endswith("#calls"):
            out[key] = {"value": setup[key] + check[key] / rounds, "unit": "s"}
    for metric, group in CALLS.items():
        calls, rest = divmod(check[group + "#calls"], rounds)
        if rest:
            raise RuntimeError(f"{metric}: rounds made unequal numbers of calls")
        out[metric] = {"value": setup[group + "#calls"] + calls, "unit": "count"}
    return out


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

class Modules:
    """The strawcat layer modules, imported afresh."""

    def __init__(self):
        for name in list(sys.modules):
            if name == "strawcat" or name.startswith("strawcat."):
                del sys.modules[name]
        importlib.import_module("strawcat")
        for layer in spans.LAYERS:
            setattr(self, layer, importlib.import_module(f"strawcat.{layer}"))


CAL_SMALL_KEYS = [(i, i ^ 5) for i in range(300)]
CAL_LARGE_KEYS = [(i, i ^ 5) for i in range(3000)]
CAL_SMALL = dict.fromkeys(CAL_SMALL_KEYS, 1)
CAL_LARGE = dict.fromkeys(CAL_LARGE_KEYS, 1)


def read_kernel() -> int:
    """Tuple keys, made afresh, looked up in dicts built beforehand: a small
    one read many times and a larger one read twice."""
    s = 0
    for _ in range(24):
        for i in range(300):
            s += CAL_SMALL[(i, i ^ 5)]
    for _ in range(2):
        for i in range(3000):
            s += CAL_LARGE[(i, i ^ 5)]
    return s


def build_kernel() -> int:
    """Dicts of the same keys built afresh and read once.  The keys are made
    beforehand, so the kernel leaves no objects behind that could move the
    process's peak memory."""
    s = 0
    for _ in range(24):
        small = {}
        for key in CAL_SMALL_KEYS:
            small[key] = 1
        for key in CAL_SMALL_KEYS:
            s += small[key]
    for _ in range(2):
        large = {}
        for key in CAL_LARGE_KEYS:
            large[key] = 1
        for key in CAL_LARGE_KEYS:
            s += large[key]
    return s


# Fixed pure-Python work of the program's kind, and each kernel's time on
# the reference host; these are round figures near the kernels' median times
# on a 2.1 GHz Xeon shared with other tenants.
CAL_KERNELS = ((read_kernel, 0.0020), (build_kernel, 0.0020))


class Meter:
    """Host speed, sampled while the timed steps run.

    Inside `with Meter() as meter:` a SIGALRM timer fires every
    `CAL_INTERVAL_S`, and its handler times one of `CAL_KERNELS`, in turn,
    between two bytecodes of whatever runs.  `clock()` is the wall clock
    minus the handler's time, so a step timed by it excludes the meter.

    After the `with` block, `reference_s(t0, t1)` converts the step from
    `t0` to `t1` (readings of `clock()`) into seconds of the reference host.
    Each stretch of the step between two ticks is converted at the speed
    measured around it: for each kernel, its reference time over its median
    time at the `2 * CAL_WINDOW + 1` ticks of that kernel nearest the
    stretch's end, and the geometric mean of these over the kernels.
    """

    def __init__(self):
        self.stamps = [[] for _ in CAL_KERNELS]     # clock() at each tick
        self.times = [[] for _ in CAL_KERNELS]      # kernel times
        self.spent = 0.0
        self.ticks = 0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        k = self.ticks % len(CAL_KERNELS)
        self.ticks += 1
        self.stamps[k].append(t0 - self.spent)
        CAL_KERNELS[k][0]()
        self.times[k].append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        for kernel, _ref in CAL_KERNELS:
            for _ in range(3):
                kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if exc[0] is None:
            self.settle()

    def settle(self) -> None:
        """Work out the speed at every tick from the samples."""
        width = 2 * CAL_WINDOW + 1
        if min(map(len, self.times)) < width:
            raise RuntimeError("too few calibration samples")
        local = []
        for (_kernel, ref), times in zip(CAL_KERNELS, self.times):
            n = len(times)
            starts = (min(max(j - CAL_WINDOW, 0), n - width) for j in range(n))
            local.append([ref / statistics.median(times[lo:lo + width]) for lo in starts])
        self.at = sorted(t for stamps in self.stamps for t in stamps)
        self.speed = []
        for t in self.at:
            v = 1.0
            for stamps, speeds in zip(self.stamps, local):
                v *= speeds[min(bisect.bisect_left(stamps, t), len(speeds) - 1)]
            self.speed.append(v ** (1 / len(CAL_KERNELS)))

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def reference_s(self, t0: float, t1: float) -> float:
        at, speed = self.at, self.speed
        j = bisect.bisect_left(at, t0)
        out, t = 0.0, t0
        while t < t1:
            end = min(at[j], t1) if j < len(at) else t1
            out += (end - t) * speed[min(j, len(at) - 1)]
            t, j = end, j + 1
        return out


def run_round(ops, reference):
    """One round; counts are compared with `reference` unless it is None."""
    counts, failed = {}, 0
    for label, thunk in ops:
        try:
            c = thunk()
            if reference is not None:
                ref = reference.get(label, {})
                expect(ref or not c, "no reference counts")
                diff = {k: (c.get(k), v) for k, v in ref.items() if c.get(k) != v}
                expect(not diff, f"counts differ from the reference (got, want): {diff}")
            counts[label] = c
        except Exception as e:        # every failure is counted, then the round goes on
            failed += 1
            print(f"FAILED {label}: {type(e).__name__}: {e}", file=sys.stderr)
            if not isinstance(e, Failure):
                traceback.print_exc()
    return counts, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "strawcat", "__init__.py")):
        print(f"error: no strawcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  -- imported once, outside the timed set-ups

    with open(REFERENCE) as f:
        reference = json.load(f).get(args.workload, {})
    wl = WORKLOADS[args.workload]
    prep = wl.prepare(random.Random(args.seed))

    tracer = None
    setups, rounds_at = [], []
    per_round, failed, consistent = None, 0, True
    with Meter() as meter:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = meter.clock()
            sc = Modules()
            if args.trace:
                tracer = spans.Tracer()
                tracer.install()
            inputs = wl.load(sc, prep)
            setups.append((t0, meter.clock()))
        ops = wl.ops(sc, prep, inputs)
        setup_spans = len(tracer.spans) if tracer else 0

        # whole rounds; no round is begun that would end past --seconds
        start = meter.clock()
        while True:
            t0 = meter.clock()
            counts, f = run_round(ops, reference)
            rounds_at.append((t0, meter.clock()))
            failed += f
            if per_round is None:
                per_round = counts
            consistent &= counts == per_round
            elapsed = meter.clock() - start
            if elapsed * (1 + 1 / len(rounds_at)) > args.seconds:
                break
    rounds = len(rounds_at)
    setup_s = statistics.median(meter.reference_s(*t) for t in setups)
    check_s = statistics.median(meter.reference_s(*t) for t in rounds_at)

    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        metrics = layer_metrics(tracer.spans, setup_spans, len(tracer.spans), rounds)
        texts = ([r.text() for r in prep.get("rows", {}).values()]
                 + [it["text"] for it in prep.get("items", ())])
        metrics["cli.input_bytes"] = {"value": sum(len(t.encode()) for t in texts),
                                      "unit": "bytes"}
        for k, v in param_counts(per_round).items():
            metrics[k] = {"value": v, "unit": "count"}
        metrics["trace.check_s"] = {"value": check_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "check_s": {"value": check_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(f"{args.workload}: {rounds} round(s) of {len(ops)} operations, {failed} failed; "
          f"wall s without the meter: set-up {statistics.median(t1 - t0 for t0, t1 in setups):.4f}, "
          f"rounds {['%.3f' % (t1 - t0) for t0, t1 in rounds_at]}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": rounds * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
