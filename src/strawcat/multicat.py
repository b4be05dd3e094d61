"""Finite symmetric multicategories, the symmetric monoidal envelope,
pronormality, and verification of adjunctions of symmetric multicategories.

Multihom sets are stored per signature up to an arity cap; all claims are
relative to the cap and the reports stamp it.  The envelope of a finite
multicategory is infinite, so its validation is capped by word length; the
composition-associativity family additionally stamps exactly which strata
were exhausted (full up to the stated word length, plus every composable
triple at the cap whose middle morphism is structural: an identity or a
symmetry).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .homs import within_budget
from .report import Report, StructuralError


# ---------------------------------------------------------------------------
# permutations (tuples p with p[i] = source position of the i-th input)
# ---------------------------------------------------------------------------

def perm_id(n):
    return tuple(range(n))

def perm_compose(p, q):
    """(p . q)[i] = p[q[i]]: acting by q after p under the right action."""
    return tuple(p[q[i]] for i in range(len(q)))

def perm_block(p, sizes):
    """The permutation of sum(sizes) positions that permutes blocks by p."""
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    out = []
    for j in p:
        out.extend(range(starts[j], starts[j] + sizes[j]))
    return tuple(out)

def perm_sum(ps):
    out = []
    off = 0
    for p in ps:
        out.extend(x + off for x in p)
        off += len(p)
    return tuple(out)

def all_perms(n):
    return list(itertools.permutations(range(n)))


@dataclass
class FiniteSymMulticat:
    name: str
    objects: tuple
    arity_cap: int
    homs: dict                  # (inputs tuple, output) -> tuple of mm ids
    sig: dict                   # mm -> (inputs, output)
    identities: dict            # object -> mm
    gamma_table: dict           # (g, fs tuple) -> mm
    action_table: dict          # (mm, perm) -> mm
    _interned: InternedMulticat | None = field(default=None, init=False, repr=False,
                                               compare=False)

    def interned(self) -> InternedMulticat:
        """The integer form of V, built on first use."""
        if self._interned is None:
            self._interned = InternedMulticat(self)
        return self._interned

    def hom(self, inputs, out):
        return self.homs.get((tuple(inputs), out), ())

    def ident(self, X):
        return self.identities[X]

    def gamma(self, g, fs):
        try:
            return self.gamma_table[(g, tuple(fs))]
        except KeyError:
            raise StructuralError(f"{self.name}: gamma undefined for {g} {fs}")

    def act(self, f, p):
        try:
            return self.action_table[(f, tuple(p))]
        except KeyError:
            raise StructuralError(f"{self.name}: action undefined for {f} {p}")


def endo_multicat(name: str, elems: tuple, cap: int) -> FiniteSymMulticat:
    """The endomorphism multicategory of a finite set: n-ary morphisms are
    functions elems^n -> elems.  The terminal multicategory is the case of a
    singleton."""
    obj = "x"
    homs, sig, gamma, action = {}, {}, {}, {}
    mms_by_arity = {}
    for n in range(cap + 1):
        mms = []
        for table in itertools.product(elems, repeat=len(elems) ** n):
            m = ("f", n, table)
            mms.append(m)
            sig[m] = (tuple([obj] * n), obj)
        homs[(tuple([obj] * n), obj)] = tuple(mms)
        mms_by_arity[n] = mms

    def evaluate(m, args):
        idx = 0
        for a in args:
            idx = idx * len(elems) + elems.index(a)
        return m[2][idx]

    ident = ("f", 1, tuple(elems))
    for n, mms in mms_by_arity.items():
        for m in mms:
            for p in all_perms(n):
                # act(m, p) has i-th input = original input at position p[i]
                action[(m, p)] = ("f", n, tuple(
                    evaluate(m, tuple(args[tuple(p).index(j)] for j in range(n)))
                    for args in itertools.product(elems, repeat=n)))
    # gamma: substitute
    for n, gs in mms_by_arity.items():
        for g in gs:
            for ks in itertools.product(range(cap + 1), repeat=n):
                if sum(ks) > cap:
                    continue
                for fs in itertools.product(*[mms_by_arity[k] for k in ks]):
                    total = sum(ks)
                    table = []
                    for args in itertools.product(elems, repeat=total):
                        vals = []
                        off = 0
                        for f in fs:
                            k = f[1]
                            vals.append(evaluate(f, args[off:off + k]))
                            off += k
                        table.append(evaluate(g, tuple(vals)))
                    gamma[(g, fs)] = ("f", total, tuple(table))
    return FiniteSymMulticat(name, (obj,), cap, homs, sig, {obj: ident},
                             gamma, action)


def terminal_multicat(cap: int) -> FiniteSymMulticat:
    return endo_multicat("terminal", ("*",), cap)


def _by_out_size(sig: dict) -> dict:
    """The multimorphisms of a signature table, pooled by (output, arity)."""
    pools = {}
    for m, (xs, y) in sig.items():
        pools.setdefault((y, len(xs)), []).append(m)
    return pools


def _budgeted(by_out_size: dict, outputs: tuple, budget: int):
    """Tuples of multimorphisms with the given outputs, total arity <= budget."""
    if not outputs:
        yield ()
        return
    y, rest = outputs[0], outputs[1:]
    for k in range(budget + 1):
        for m in by_out_size.get((y, k), ()):
            for tail in _budgeted(by_out_size, rest, budget - k):
                yield (m,) + tail


def _words(objs, cap):
    """The words over objs of length <= cap, by length, then in objs order."""
    out = [()]
    frontier = [()]
    for _ in range(cap):
        frontier = [w + (x,) for w in frontier for x in objs]
        out.extend(frontier)
    return out


def from_monoidal(name: str, elems: tuple, add, zero, cap: int) -> FiniteSymMulticat:
    """Represented multicategory of a finite commutative monoid seen as a
    discrete symmetric strict monoidal category: the multihom (x1..xn; y) is
    a singleton exactly when the product of the inputs is y."""
    for x, y in itertools.product(elems, elems):
        if add(x, y) != add(y, x):
            raise StructuralError("from_monoidal requires a commutative monoid")
    homs, sig, gamma, action = {}, {}, {}, {}
    mms = []
    for n in range(cap + 1):
        for xs in itertools.product(elems, repeat=n):
            y = zero
            for x in xs:
                y = add(y, x)
            m = ("m", xs, y)
            mms.append(m)
            sig[m] = (xs, y)
            homs[(xs, y)] = (m,)
    for m in mms:
        xs, y = sig[m]
        n = len(xs)
        for p in all_perms(n):
            action[(m, p)] = ("m", tuple(xs[p[i]] for i in range(n)), y)
        # gamma over all splittings handled below
    by_out_size = _by_out_size(sig)
    for g in mms:
        ys, z = sig[g]
        for fs in _budgeted(by_out_size, tuple(ys), cap):
            xs = tuple(x for f in fs for x in sig[f][0])
            gamma[(g, fs)] = ("m", xs, z)
    identities = {x: ("m", (x,), x) for x in elems}
    return FiniteSymMulticat(name, tuple(elems), cap, homs, sig, identities,
                             gamma, action)


def _padded(rows, width):
    """Tuples of ints as the rows of an int64 array, padded with -1."""
    return np.array([r + (-1,) * (width - len(r)) for r in map(tuple, rows)],
                    dtype=np.int64).reshape(len(rows), width)


class InternedMulticat:
    """V in integers.  Its multimorphisms are numbered in V.sig order, then
    those that only its other tables name (mms, ids); its objects in
    V.objects order, then those that only signatures name.  Per number,
    arity, out and ins (padded with -1) are -1 off V.sig and on a spare last
    row, which number -1 reads.  No key of V's tables holds more than width
    multimorphisms or positions.  A lookup that V does not define, or that
    reads -1, gives -1; gamma's entries are g, fs and h in V's order."""

    def __init__(self, V: FiniteSymMulticat):
        self.mms = list(dict.fromkeys(itertools.chain(
            V.sig, V.identities.values(), *V.homs.values(),
            *((g, *fs, h) for (g, fs), h in V.gamma_table.items()),
            *((m, h) for (m, _), h in V.action_table.items()))))
        self.ids = ids = {m: i for i, m in enumerate(self.mms)}
        obj = {x: i for i, x in enumerate(V.objects)}
        sigs = [(tuple(obj.setdefault(x, len(obj)) for x in xs), obj.setdefault(y, len(obj)))
                for xs, y in V.sig.values()]
        gamma = [(ids[g], [ids[f] for f in fs], ids[h]) for (g, fs), h in V.gamma_table.items()]
        action = [(ids[m], p, ids[h]) for (m, p), h in V.action_table.items()]
        self.ident = np.array([ids.get(V.identities.get(x), -1) for x in obj] + [-1])
        self.cap, R = V.arity_cap, len(ids) + 1
        self.radix = R
        self.width = W = max([1, V.arity_cap] + [len(k[0]) for k in [*V.homs, *sigs]]
                             + [len(e[1]) for e in [*gamma, *action]])
        if R ** (W + 1) >= 2 ** 63:
            raise StructuralError(f"{V.name}: too many multimorphisms for int64 keys")
        self.arity, self.out, self.ins = np.full(R, -1), np.full(R, -1), np.full((R, W), -1)
        for i, (xs, y) in enumerate(sigs):
            self.arity[i], self.out[i], self.ins[i, :len(xs)] = len(xs), y, xs
        # gamma(g, fs) under the key g * R**W + sum (f_t + 1) * digit[t], the
        # keys sorted and then a sentinel above all
        self.digit = R ** np.arange(W - 1, -1, -1)
        self.g, self.h, self.act_m, self.act_h = (np.array([e[k] for e in es], dtype=np.int64)
                                                  for es in (gamma, action) for k in (0, 2))
        self.fs, self.act_p = _padded([e[1] for e in gamma], W), _padded([e[1] for e in action], W)
        key = self.g * R ** W + (self.fs + 1) @ self.digit
        order = np.argsort(key)
        self.gkey, self.gval = np.append(key[order], 2 ** 63 - 1), np.append(self.h[order], -1)
        self.by_out_size, self._act, self._budgeted = _by_out_size(dict(enumerate(sigs))), None, {}

    def gamma(self, g, fs):
        """gamma(g, fs) by number, fs padded with -1 along its last axis."""
        key = g * self.radix ** self.width + (fs + 1) @ self.digit[:fs.shape[-1]]
        at = self.gkey.searchsorted(key)
        return np.where(self.gkey[at] == key, self.gval[at], -1)

    def code(self, P):
        """The code sum (p[t] + 1) * (width + 1)**t of each permutation p,
        padded with -1 along the last axis of P; it holds p's length too."""
        return (P + 1) @ (self.width + 1) ** np.arange(P.shape[-1])

    def act(self, m, code):
        """act(m, p) by number and by p's code: a dense table, built on
        first use."""
        if self._act is None:
            self._act = np.full((self.radix, (self.width + 1) ** self.width), -1)
            self._act[self.act_m, self.code(self.act_p)] = self.act_h
        return self._act[m, code]

    def budgeted(self, word):
        """_budgeted within V's cap on numbers, for a tuple of object
        numbers: one padded row per tuple, built on first use."""
        if word not in self._budgeted:
            self._budgeted[word] = _padded(list(_budgeted(self.by_out_size, word, self.cap)),
                                           self.width)
        return self._budgeted[word]


def _inputs(form: InternedMulticat, fs):
    """Per row of fs (numbers padded with -1): the arity of each, where
    each one's inputs start, and the inputs of all of them in a row padded
    with -1 (inputs past the form's width are dropped)."""
    ks = np.maximum(form.arity[fs], 0)
    offs = np.cumsum(ks, axis=1) - ks
    xs, rows = np.full(fs.shape, -1), np.arange(len(fs))
    for t, s in itertools.product(range(fs.shape[1]), range(form.width)):
        put = (s < ks[:, t]) & (offs[:, t] + s < form.width)
        xs[rows[put], offs[put, t] + s] = form.ins[fs[put, t], s]
    return ks, offs, xs


def _runs(counts):
    """Instances run after run, counts[r] in run r, in batches of _BATCH:
    each batch's instances as their runs and their places in their runs."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _BATCH):
        nth = np.arange(lo, min(lo + _BATCH, total))
        run = np.searchsorted(ends, nth, side="right")
        yield run, nth - ends[run] + counts[run]


def _fail(rep, check, n, bad, witness):
    """n more instances of check, the bad ones named in order."""
    if n:
        rep.counts[check] = rep.counts.get(check, 0) + int(n)
    for k in zip(*np.nonzero(bad)):
        rep.add(check, False, witness(*k))


def _structure(V: FiniteSymMulticat):
    """The structural families of validate_multicat, which an envelope of
    V checks on entry too.  When all hold, every substitution and action
    that a law, or a composite of an envelope within the arity cap, reads
    is defined and typed.  Returns the report, the (g, fs) that gamma must
    define as numbers (fs padded with -1) with gamma(g, fs), and the (m, p)
    that the action must define as m's numbers, p's tuples and p padded
    with -1, with act(m, p)."""
    rep = Report(f"validate_multicat({V.name})", params={"arity_cap": V.arity_cap})
    form, ns = V.interned(), len(V.sig)
    mms, arity, out, ins = form.mms, form.arity, form.out, form.ins
    for x, (xs, y) in V.sig.items():
        rep.require("mc.sig.cap", len(xs) <= V.arity_cap, (x,))
        rep.require("mc.sig.listed", x in V.hom(xs, y), (x,))
    for key, ms in V.homs.items():
        rep.require("mc.homs.sig", len(set(ms)) == len(ms)
                    and all(V.sig.get(m) == key for m in ms), key)
    for X in V.objects:
        rep.require("mc.ident.sig", V.sig.get(V.identities.get(X)) == ((X,), X), (X,))
    # substitution is typed: the fs' outputs are g's inputs, and the result
    # runs from the fs' inputs, concatenated, to g's output
    g, fs, h, keys = form.g, form.fs, form.h, list(V.gamma_table)
    ks, _, xs = _inputs(form, fs)
    ok = (((fs >= 0).sum(1) == arity[g]) & (out[fs] == ins[g]).all(1)
          & (arity[h] == ks.sum(1)) & (out[h] == out[g]) & (ins[h] == xs).all(1))
    _fail(rep, "mc.gamma.sig", len(g), ~ok, lambda i: keys[i])
    rows = [form.budgeted(tuple(ins[x, :arity[x]].tolist())) for x in range(ns)]
    pg = np.repeat(np.arange(ns), [len(r) for r in rows])
    pfs = np.vstack([_padded([], form.width), *rows])
    gf = form.gamma(pg, pfs)
    _fail(rep, "mc.gamma.total", len(pg), gf < 0,
          lambda i: (mms[pg[i]], tuple(mms[f] for f in pfs[i] if f >= 0)))
    # an action is typed: act(m, p) takes m's inputs in the order p gives
    mps = [(m, p) for m in range(ns) for p in all_perms(arity[m])]
    am, ps = np.array([m for m, _ in mps], dtype=np.int64), [p for _, p in mps]
    P = _padded(ps, form.width)
    mp = form.act(am, form.code(P))
    want = np.where(P >= 0, np.take_along_axis(ins[am], np.maximum(P, 0), 1), -1)
    _fail(rep, "mc.act.total", len(am), mp < 0, lambda i: (mms[am[i]], ps[i]))
    _fail(rep, "mc.act.sig", (mp >= 0).sum(),
          (mp >= 0) & ((out[mp] != out[am]) | (ins[mp] != want).any(1)),
          lambda i: (mms[am[i]], ps[i]))
    return rep, (pg, pfs, gf), (am, ps, P, mp)


def validate_multicat(V: FiniteSymMulticat) -> Report:
    """The laws of a symmetric multicategory on V, every instance within
    its arity cap, as batched gathers over V.interned(), once V's structure
    holds.

    Findings come family by family, each family's in the order of the
    loops that quantify it.  First V's structure (_structure): mc.sig.cap
    and mc.sig.listed alternating per multimorphism; mc.homs.sig per homs
    entry; mc.ident.sig per object; mc.gamma.sig per gamma_table entry, in
    its order; mc.gamma.total per (g, fs) that gamma must define;
    mc.act.total per (m, p) that the action must define, and mc.act.sig
    per such (m, p) that V defines.
    Only when none of these fail, the laws: mc.unit.left and mc.unit.right
    alternating per multimorphism; mc.act.id per multimorphism; mc.act.comp
    per (m, p, q); mc.assoc per (g, fs, flat); and per (g, fs),
    mc.equivariance.outer per p, then mc.equivariance.inner per (i, q).
    There m and g run in V.sig order, fs (on g's inputs) and flat in
    _budgeted order and permutations in all_perms order.  Witnesses are V's
    own multimorphisms."""
    rep, (pg, pfs, gf), (am, ps, P, mp) = _structure(V)
    if rep.failures():
        return rep              # the laws below substitute along these types
    form, ns = V.interned(), len(V.sig)
    mms, W, arity, out, ins = form.mms, form.width, form.arity, form.out, form.ins

    def objs(row):
        return tuple(mms[x] for x in row if x >= 0)

    # identity laws
    m = np.arange(ns)
    left = form.gamma(form.ident[out[m]], m[:, None])
    right = form.gamma(m, form.ident[ins[m]])
    for i, x in enumerate(V.sig):
        rep.require("mc.unit.left", left[i] == i, (x,))
        if arity[i]:
            rep.require("mc.unit.right", right[i] == i, (x,))

    # action laws: act(act(m, p), q) == act(m, p.q), the q of (m, p) being
    # the p of m, whose first is the identity
    n_perms = np.bincount(am, minlength=ns)
    first = np.cumsum(n_perms) - n_perms
    _fail(rep, "mc.act.id", ns, mp[first] != m, lambda i: (mms[i],))
    for r, b in _runs(n_perms[am]):
        q = first[am[r]] + b
        pq = np.where(P[q] >= 0, np.take_along_axis(P[r], np.maximum(P[q], 0), 1), -1)
        _fail(rep, "mc.act.comp", len(r),
              form.act(mp[r], form.code(P[q])) != form.act(am[r], form.code(pq)),
              lambda i: (mms[am[r[i]]], ps[r[i]], ps[q[i]]))

    # the pairs (g, fs) with g not nullary; per pair, the arities of the
    # fs, where their inputs start, and all their inputs
    keep = arity[pg] > 0
    pg, pfs, gf = pg[keep], pfs[keep], gf[keep]
    ks, offs, xs = _inputs(form, pfs)

    # associativity of substitution on two-level trees within the cap: a
    # pair's flats are _budgeted on its inputs, stored once per word
    words = {}
    word = np.array([words.setdefault(tuple(r[:k]), len(words))
                     for r, k in zip(xs.tolist(), ks.sum(1).tolist())], dtype=np.int64)
    flats = [form.budgeted(w) for w in words]
    store, n_flat = np.vstack([_padded([], W), *flats]), np.fromiter(map(len, flats), np.int64)
    store_at, n_flat = np.cumsum(n_flat) - n_flat, n_flat[word]
    cols = np.arange(W)
    for p, j in _runs(n_flat):
        flat, fs = store[store_at[word[p]] + j], pfs[p]
        inner = np.stack([form.gamma(fs[:, t], np.where(cols < ks[p, t, None], np.take_along_axis(
            flat, np.minimum(offs[p, t, None] + cols, W - 1), 1), -1)) for t in range(W)], 1)
        _fail(rep, "mc.assoc", len(p), form.gamma(gf[p], flat) != form.gamma(pg[p], inner),
              lambda i: (mms[pg[p[i]]], objs(fs[i]), objs(flat[i])))
    rep.params["assoc_instances"] = rep.counts.get("mc.assoc", 0)

    # equivariance: a pair's instances depend on its arity profile alone,
    # so each profile's are planned once, as rows (col, perm, rperm): outer
    # rows (col -1) act on g by perm and permute the fs by it; inner rows
    # act on f_col by perm; rperm acts on gf.  A witness ends with (perm,)
    # for outer rows, (col, perm) else.
    profiles, plan, starts, n_outer = {}, [], [], 0
    prof = np.array([profiles.setdefault(tuple(k[:n]), len(profiles))
                     for k, n in zip(ks.tolist(), arity[pg].tolist())], dtype=np.int64)
    for sizes in profiles:
        ids = [perm_id(k) for k in sizes]
        starts.append(len(plan))
        plan += [(-1, p, perm_block(p, sizes)) for p in all_perms(len(sizes))]
        plan += [(i, q, perm_sum(ids[:i] + [q] + ids[i + 1:]))
                 for i, k in enumerate(sizes) for q in all_perms(k)]
    col = np.array([r[0] for r in plan], dtype=np.int64)
    perm, rperm = (_padded([r[k] for r in plan], W) for k in (1, 2))
    starts = np.array(starts + [len(plan)], dtype=np.int64)
    n_rows = np.diff(starts)[prof]
    for p, j in _runs(n_rows):
        t, fs = starts[prof[p]] + j, pfs[p]
        c, inner = col[t], col[t] >= 0
        acted = form.act(np.where(inner, fs[np.arange(len(p)), np.maximum(c, 0)], pg[p]),
                         form.code(perm[t]))
        F = np.where(inner[:, None] | (perm[t] < 0), fs,
                     np.take_along_axis(fs, np.maximum(perm[t], 0), 1))
        F[inner, c[inner]] = acted[inner]
        bad = form.gamma(np.where(inner, pg[p], acted), F) != form.act(gf[p], form.code(rperm[t]))
        for i in np.flatnonzero(bad):
            rep.add("mc.equivariance.inner" if inner[i] else "mc.equivariance.outer", False,
                    (mms[pg[p[i]]], objs(fs[i]), *plan[t[i]][int(c[i] < 0):2]))
        n_outer += len(p) - inner.sum()
    rep.counts.update((check, int(n)) for check, n in (
        ("mc.equivariance.outer", n_outer), ("mc.equivariance.inner", n_rows.sum() - n_outer)) if n)
    return rep


# ---------------------------------------------------------------------------
# symmetric monoidal envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvMor:
    dom: tuple
    cod: tuple
    idx: tuple                  # idx[i] = output slot fed by input i (0-based)
    fibers: tuple               # fibers[j] = multimorphism for output slot j


_BATCH = 1 << 16                # composable pairs per batch of a composition table


def _slot_perm(hit, Gf, base):
    """The code sum_t (p[t] + 1) * base**t of the permutation p that restores
    input order in one output slot of g after f, or -1 where substitution
    keeps the order, for columns (slot-major) of f's index maps Gf, padded
    with -1, and of hit: hit[j] when g's input j feeds the slot.  The
    slot's inputs arrive in blocks, by f's output and then by position:
    input x arrives arrive[x]-th and sits at pos[x]."""
    live = (Gf >= 0) & np.take_along_axis(hit, np.maximum(Gf, 0), 0)
    order = np.argsort(np.where(live, Gf, len(Gf)), axis=0, kind="stable")
    arrive = np.argsort(order, axis=0)
    pos = np.maximum(np.cumsum(live, axis=0) - 1, 0)
    code = np.where(live, (arrive + 1) * base ** pos, 0).sum(0)
    return np.where((live & (arrive != pos)).any(0), code, -1)


@dataclass(frozen=True)
class EnvComposition:
    """Composition and tensor in an envelope as two int32 tables over
    positions in E.morphisms (index); dom and cod are word positions.  g
    after f sits at table[row[g] + col[f]], in blocks by_dom[k] x by_cod[k]
    word by word, g-major, with no column of pairs kept (see pairs).  f x g
    sits at tensors[trow[f] + tcol[g]] where doms and cods fit the cap."""
    index: dict
    dom: np.ndarray
    cod: np.ndarray
    by_dom: list
    by_cod: list
    row: np.ndarray
    col: np.ndarray
    table: np.ndarray
    trow: np.ndarray
    tcol: np.ndarray
    tensors: np.ndarray

    def __call__(self, g, f):
        return self.table[self.row[g] + self.col[f]]

    def pairs(self, t):
        """The pair (g, f) at table positions t, as two columns, by block
        arithmetic: t's word block k, then its place there, g-major."""
        ng, nf = (np.array([len(x) for x in xs]) for xs in (self.by_dom, self.by_cod))
        end = np.cumsum(ng * nf)
        k = np.searchsorted(end, t, "right")
        gi, fi = np.divmod(t - end[k] + ng[k] * nf[k], nf[k])
        return (np.concatenate(self.by_dom)[np.cumsum(ng)[k] - ng[k] + gi],
                np.concatenate(self.by_cod)[np.cumsum(nf)[k] - nf[k] + fi])

    def tensor(self, f, g):
        """The positions of f x g for positions f and g, broadcast together."""
        return self.tensors[self.trow[f] + self.tcol[g]]


@dataclass
class EnvelopeCategory:
    """The symmetric strict monoidal envelope of V on the words of length
    <= word_cap.  A V that fails a structural family of validate_multicat,
    or a word cap above its arity cap, is refused with a StructuralError.
    Its morphisms are enumerated eagerly, within the candidate budget;
    composition reads one table, built on first use."""
    V: FiniteSymMulticat
    word_cap: int
    max_candidates: int | None = None
    objects: list = field(default_factory=list)
    morphisms: list = field(default_factory=list)

    def __post_init__(self):
        V = self.V
        if self.word_cap > V.arity_cap:
            raise StructuralError(f"{V.name}: word cap {self.word_cap} exceeds the arity "
                                  f"cap {V.arity_cap}")
        for f in _structure(V)[0].failures():
            raise StructuralError(f"{V.name}: V fails {f.check} at "
                                  f"({', '.join(map(str, f.witness))})")
        self.objects = words = _words(V.objects, self.word_cap)
        obj = {x: i for i, x in enumerate(V.objects)}
        maps = {}

        def index_maps(n, m):
            """The maps n -> m in product order, and per map the inputs it
            feeds into each slot as a bit mask."""
            if (n, m) not in maps:
                idxs = list(itertools.product(range(m), repeat=n))
                a = np.array(idxs, dtype=np.int64).reshape(len(idxs), n)
                masks = ((a[:, :, None] == np.arange(m)) << np.arange(n)[:, None]).sum(1)
                maps[(n, m)] = idxs, masks
            return maps[(n, m)]

        def candidates():
            for dom in words:
                n = len(dom)
                # pools[mask][y]: the hom from the inputs of dom in mask to y
                pools = [[V.hom(tuple(x for i, x in enumerate(dom) if mask >> i & 1), y)
                          for y in V.objects] for mask in range(2 ** n)]
                live = np.array([[len(p) > 0 for p in row] for row in pools])
                for cod in words:
                    idxs, masks = index_maps(n, len(cod))
                    ys = [obj[y] for y in cod]
                    for t in np.flatnonzero(live[masks, ys].all(1)):
                        for fibers in itertools.product(
                                *[pools[mask][y] for mask, y in zip(masks[t].tolist(), ys)]):
                            yield EnvMor(dom, cod, idxs[t], fibers)
        self.morphisms = list(within_budget(candidates(), self.max_candidates))

    def identity(self, w) -> EnvMor:
        return EnvMor(w, w, tuple(range(len(w))),
                      tuple(self.V.ident(x) for x in w))

    @cached_property
    def composition(self) -> EnvComposition:
        """Every composite g after f, by gathers over batches of pairs in table
        order, word block by word block, and every tensor product within the cap.
        Slot k of g after f is gamma of g's fiber at k on f's fibers at the
        inputs g feeds into k, which arrive by f's output, then by position;
        the action restores input order where that differs (_slot_perm).
        Morphisms come frame by frame (dom, cod, index map), within one in
        mixed radix over its slots' homs: each sits at its frame's first
        position plus its fibers' ranks (places in their homs) times the
        frame's strides, 0 where a hom has one element, which V's structure
        makes a composite's fiber there; gamma and the action are read on
        the other slots alone.  f x g concatenates the frames of f and g, so
        its place in its frame is f's place times the size of g's frame plus
        g's place.  One frame lookup serves both tables."""
        V, mors, words, cap = self.V, self.morphisms, self.objects, self.word_cap
        nm, nw, width = len(mors), len(words), max(cap, 1)
        index = {f: i for i, f in enumerate(mors)}
        wid = {w: k for k, w in enumerate(words)}
        dom = np.array([wid[f.dom] for f in mors], dtype=np.int64)
        cod = np.array([wid[f.cod] for f in mors], dtype=np.int64)
        by_dom = [np.flatnonzero(dom == k).astype(np.int32) for k in range(nw)]
        by_cod = [np.flatnonzero(cod == k).astype(np.int32) for k in range(nw)]
        col, row = np.zeros(nm, dtype=np.int64), np.zeros(nm, dtype=np.int64)
        start = 0
        for gs, fs in zip(by_dom, by_cod):
            col[fs] = np.arange(len(fs))
            row[gs] = start + len(fs) * np.arange(len(gs))
            start += len(gs) * len(fs)

        form = V.interned()
        G = _padded([f.idx for f in mors], width).T
        F = _padded([map(form.ids.__getitem__, f.fibers) for f in mors], width).T
        rank = np.zeros(form.radix, dtype=np.int64)
        for ms in V.homs.values():
            rank[[form.ids[m] for m in ms]] = range(len(ms))

        def map_rank(G, m):
            """Index maps into m (columns padded with -1) by product order."""
            return reduce(lambda r, x: np.where(x >= 0, r * m + x, r), G, 0)

        # frame[block[dom, cod] + map_rank] numbers the frames with morphisms
        # in order, the others by a spare last one (first -1, strides 0); a
        # frame's last morphism has each slot's last multimorphism
        wlen = np.array([len(w) for w in words])
        n_maps = (wlen ** wlen[:, None]).ravel()
        block = (np.cumsum(n_maps) - n_maps).reshape(nw, nw)
        fno = block[dom, cod] + map_rank(G, wlen[cod])
        in_frame = np.cumsum(np.diff(fno, prepend=-1) != 0) - 1
        first = np.append(np.flatnonzero(np.diff(fno, prepend=-1)), -1)
        frame = np.full(n_maps.sum(), len(first) - 1, dtype=np.int32)
        frame[fno[first[:-1]]] = range(len(first) - 1)
        size = rank[F.take(np.append(first[1:-1], nm) - 1, axis=1)] + 1
        after = np.cumprod(size[::-1], axis=0)[::-1]
        stride = np.pad(np.where(size > 1, after // size, 0), ((0, 0), (0, 1)))

        def frame_of(d, c, Gx):
            return frame[block[d, c] + map_rank(Gx, wlen[c])]

        table, end = np.empty(start, dtype=np.int32), 0
        batches = ((gs[rows, None], fs[cols]) for gs, fs in zip(by_dom, by_cod) if len(fs)
                   for rows, cols in _blocks(len(gs), len(fs)))
        for g, f in batches:
            g, f = (x.ravel().astype(np.int64) for x in np.broadcast_arrays(g, f))
            t, end = slice(end, end + len(g)), end + len(g)
            # the composite's index map, g's after f's, and its frame
            Gf = G.take(f, axis=1)
            cidx = np.where(Gf >= 0, G.take(Gf * nm + g), -1)
            at = frame_of(dom[f], cod[g], cidx)
            # slots k of more than one element, at pairs i: gamma of g's fiber
            # at k on f's fibers at g's inputs fed into k (hit), in order,
            # then the action that restores input order
            k, i = np.divmod(np.flatnonzero(stride.take(at, axis=1) > 0), len(g))
            hit = G[:, g[i]] == k
            o = np.argsort(~hit, axis=0, kind="stable")
            fs = np.where(np.take_along_axis(hit, o, 0), np.take_along_axis(F[:, f[i]], o, 0), -1)
            mm = form.gamma(F[k, g[i]], fs.T)
            c = _slot_perm(hit, Gf[:, i], form.width + 1)
            turn = np.flatnonzero(c >= 0)
            mm[turn] = form.act(mm[turn], c[turn])
            # the composite's position, where its frame's morphism has its fibers
            pos = first[at]
            np.add.at(pos, i, rank[mm] * stride[k, at[i]])
            ok = (pos >= 0) & (in_frame[pos] == at)
            ok[i] &= F[k, pos[i]] == mm
            table[t] = np.where(ok, pos, -1)
        if (table < 0).any():
            raise StructuralError(f"{V.name}: a composite is not a morphism of the envelope")

        # the tensor table: f's row runs over the morphisms by length profile
        # (len dom, len cod), total length first, up to the last profile
        # that fits beside f's; entries that do not fit hold -1
        ld, lc = wlen[dom], wlen[cod]
        key = (ld + lc) * (cap + 1) + ld
        by_key = np.argsort(key, kind="stable")
        span = np.searchsorted(key[by_key], (2 * cap - ld - lc) * (cap + 1) + cap - ld, "right")
        trow = np.cumsum(span) - span
        tf = np.repeat(np.arange(nm), span)
        tg = by_key[np.arange(len(tf)) - trow[tf]]
        fits = np.flatnonzero((ld[tf] + ld[tg] <= cap) & (lc[tf] + lc[tg] <= cap))
        f, g = tf[fits], tg[fits]
        # the frame of f x g, and its place there: f's place times the number
        # of morphisms in g's frame (none in the spare one) plus g's place
        cat = np.array([[wid.get(a + b, -1) for b in words] for a in words])
        Gg = G.take(g, axis=1)
        at = frame_of(cat[dom[f], dom[g]], cat[cod[f], cod[g]],
                      np.concatenate([G.take(f, axis=1), np.where(Gg >= 0, Gg + lc[f], -1)]))
        place, n_frame = np.arange(nm) - first[in_frame], np.append(after[0], 0)
        fg = place[f] * n_frame[in_frame[g]] + place[g]
        if (fg >= n_frame[at]).any():
            raise StructuralError(f"{V.name}: a tensor product is not a morphism of the envelope")
        tensors = np.full(len(tf), -1, dtype=np.int32)
        tensors[fits] = first[at] + fg
        return EnvComposition(index, dom, cod, by_dom, by_cod, row, col, table,
                              trow, np.argsort(by_key), tensors)

    def compose(self, g: EnvMor, f: EnvMor) -> EnvMor:
        """g after f, read from the composition table; g and f are morphisms
        of E with f.cod == g.dom."""
        t = self.composition
        if f.cod != g.dom or g not in t.index or f not in t.index:
            raise StructuralError("envelope: not composable within the word cap")
        return self.morphisms[t(t.index[g], t.index[f])]

    def tensor(self, f: EnvMor, g: EnvMor) -> EnvMor:
        m1 = len(f.cod)
        idx = f.idx + tuple(j + m1 for j in g.idx)
        return EnvMor(f.dom + g.dom, f.cod + g.cod, idx, f.fibers + g.fibers)

    def symmetry(self, w1, w2) -> EnvMor:
        n1, n2 = len(w1), len(w2)
        idx = tuple(n2 + i for i in range(n1)) + tuple(range(n2))
        fibers = tuple(self.V.ident(x) for x in w2 + w1)
        return EnvMor(w1 + w2, w2 + w1, idx, fibers)


def envelope(V: FiniteSymMulticat, word_cap: int | None = None,
             max_candidates: int | None = None) -> EnvelopeCategory:
    return EnvelopeCategory(V, word_cap if word_cap is not None else V.arity_cap,
                            max_candidates)


def _blocks(n_rows, n_cols):
    """An n_rows x n_cols grid in row-major blocks of about _BATCH cells:
    whole rows at a time, or one row in slices where a row is longer."""
    if n_cols > _BATCH:
        for r in range(n_rows):
            for c in range(0, n_cols, _BATCH):
                yield slice(r, r + 1), slice(c, c + _BATCH)
    else:
        step = _BATCH // max(n_cols, 1)
        for r in range(0, n_rows, step):
            yield slice(r, r + step), slice(None)


def validate_envelope(E: EnvelopeCategory, assoc_full_len: int = 3) -> Report:
    """Symmetric strict monoidal axioms for the envelope, exhaustively up to
    the word cap.  Composition associativity is exhausted on the full
    subcategory of words of length <= assoc_full_len and, at the cap, on all
    composable triples whose middle morphism is structural (an identity or a
    symmetry); the report stamps both strata.

    Witnesses number morphisms by their position in E.morphisms; those of
    env.assoc count among the morphisms between short words only.  Every
    family reads E.composition alone: its two int32 tables, every composite
    g after f and every tensor product within the cap, and the positions
    of identities and symmetries.  The structural-associativity stratum
    and tensor functoriality, per pair of middle words, compare their grids
    in blocks of about _BATCH instances and store no pair of the table, so
    memory stays bounded by the table, not by the strata.  The two
    associativity strata report their first violation per outer (short
    words) or middle (structural) morphism; every other family reports
    each violated instance.
    """
    rep = Report(f"validate_envelope({E.V.name})",
                 params={"word_cap": E.word_cap, "assoc_full_len": assoc_full_len})
    cap, words = E.word_cap, E.objects
    comp = E.composition
    index, dom, cod, tensor = comp.index, comp.dom, comp.cod, comp.tensor
    by_dom, by_cod, table, row, col = comp.by_dom, comp.by_cod, comp.table, comp.row, comp.col
    nm = len(dom)
    wid = {w: k for k, w in enumerate(words)}
    wlen = np.array([len(w) for w in words])
    ld, lc = wlen[dom], wlen[cod]

    # identities
    ids = np.arange(nm)
    id_of = np.array([index[E.identity(w)] for w in words])
    for i in np.flatnonzero((comp(id_of[cod], ids) != ids)
                            | (comp(ids, id_of[dom]) != ids)):
        rep.add("env.unit", False, (int(i),))

    # associativity on the full subcategory of short words: h.(g.f) ==
    # (h.g).f over every composable triple, reporting per outer h the first
    # violation in (g, f) order, by positions among the short morphisms;
    # the pairs under h are the short g into h's dom, each with the short f
    # into g's dom (into[k]: the short morphisms into word k)
    short = (ld <= assoc_full_len) & (lc <= assoc_full_len)
    spos = np.cumsum(short) - 1
    into = [fs[short[fs]] for fs in by_cod]
    runs = [(np.repeat(gs, [len(into[k]) for k in dom[gs]]),
             np.concatenate([np.empty(0, dtype=np.int32), *(into[k] for k in dom[gs])]))
            for gs in into]
    runs = [(g, f, comp(g, f)) for g, f in runs]
    n_assoc = 0
    for hpos, h in enumerate(np.flatnonzero(short)):
        g, f, gf = runs[dom[h]]
        bad = np.flatnonzero(comp(h, gf) != comp(comp(h, g), f))
        n_assoc += len(g)
        if len(bad):
            rep.add("env.assoc", False,
                    (hpos, int(spos[g[bad[0]]]), int(spos[f[bad[0]]])))
    rep.params["assoc_instances_small"] = n_assoc

    # associativity at the cap: (g.s).f == g.(s.f) for every structural s
    sym = np.full((len(words), len(words)), -1, dtype=np.int64)
    for k1, k2 in zip(*np.nonzero(wlen[:, None] + wlen <= cap)):
        sym[k1, k2] = index[E.symmetry(words[k1], words[k2])]
    n_struct = 0
    for s in sorted(set(id_of.tolist()) | set(sym[sym >= 0].tolist())):
        f_ids, g_ids = by_cod[dom[s]], by_dom[cod[s]]
        gs, sf = comp(g_ids, s), comp(s, f_ids)
        n_struct += len(g_ids) * len(f_ids)
        for rows, cols in _blocks(len(g_ids), len(f_ids)):
            bad = comp(gs[rows, None], f_ids[cols]) != comp(g_ids[rows, None], sf[cols])
            if bad.any():
                gi, fi = np.argwhere(bad)[0]
                rep.add("env.assoc.structural", False,
                        (int(g_ids[rows][gi]), s, int(f_ids[cols][fi])))
                break
    rep.params["assoc_instances_structural"] = n_struct

    # tensor: strict unit on every morphism, and strict associativity on
    # the triples of morphisms whose dom and cod total at most 3
    unit = id_of[wid[()]]
    _fail(rep, "env.tensor.unit", nm, (tensor(ids, unit) != ids) | (tensor(unit, ids) != ids),
          lambda i: (int(i),))
    small = np.flatnonzero(ld + lc <= 3)
    a, c = ld[small], lc[small]
    f, g, h = (small[x] for x in np.nonzero((a[:, None, None] + a[:, None] + a <= cap)
                                            & (c[:, None, None] + c[:, None] + c <= cap)))
    _fail(rep, "env.tensor.assoc", len(f), tensor(tensor(f, g), h) != tensor(f, tensor(g, h)),
          lambda i: (int(f[i]), int(g[i]), int(h[i])))

    # tensor functoriality: g1.f1 x g2.f2 == (g1 x g2).(f1 x f2), per pair of
    # middle words over the (g1, g2) and (f1, f2) that fit the cap, reading
    # the word blocks of the table as views; findings come in the order of
    # pairs bucketed by (dom, mid, cod) lengths, each in table order, which
    # is (g, f) order as E.morphisms run dom word by dom word
    ends = np.cumsum([len(g) * len(f) for g, f in zip(by_dom, by_cod)])
    block = [b.reshape(len(g), len(f))
             for b, g, f in zip(np.split(table, ends[:-1]), by_dom, by_cod)]
    found, n_fun = [], 0
    for k1, k2 in zip(*np.nonzero(wlen[:, None] + wlen <= cap)):
        g1, g2, f1, f2 = by_dom[k1], by_dom[k2], by_cod[k1], by_cod[k2]
        gi, gj = np.nonzero(lc[g1, None] + lc[g2] <= cap)
        fi, fj = np.nonzero(ld[f1, None] + ld[f2] <= cap)
        n_fun += len(gi) * len(fi)
        rows, cols = row[tensor(g1[gi], g2[gj])], col[tensor(f1[fi], f2[fj])]
        for r, c in _blocks(len(gi), len(fi)):
            lhs = tensor(block[k1][gi[r, None], fi[c]], block[k2][gj[r, None], fj[c]])
            for p, q in np.argwhere(lhs != table[rows[r, None] + cols[c]]):
                x, y = (g1[gi[r][p]], f1[fi[c][q]]), (g2[gj[r][p]], f2[fj[c][q]])
                found.append((ld[x[1]], wlen[k1], lc[x[0]], ld[y[1]], wlen[k2], lc[y[0]], x, y))
    for *_, (g1, f1), (g2, f2) in sorted(found):
        rep.add("env.tensor.functorial", False, (int(f1), int(g1), int(f2), int(g2)))
    rep.params["tensor_functoriality_instances"] = n_fun

    # symmetry: involution per pair of words within the cap, the hexagon
    # per triple, and naturality per pair of morphisms, by pairs of length
    # profiles (len dom, len cod) within the cap
    cat = np.array([[wid.get(a + b, -1) for b in words] for a in words])
    w1, w2 = np.nonzero(wlen[:, None] + wlen <= cap)
    _fail(rep, "env.sym.involution", len(w1),
          comp(sym[w2, w1], sym[w1, w2]) != id_of[cat[w1, w2]],
          lambda i: (words[w1[i]], words[w2[i]]))
    w1, w2, w3 = np.nonzero(wlen[:, None, None] + wlen[:, None] + wlen <= cap)
    _fail(rep, "env.sym.hexagon", len(w1),
          sym[w1, cat[w2, w3]]
          != comp(tensor(id_of[w2], sym[w1, w3]), tensor(sym[w1, w2], id_of[w3])),
          lambda i: (words[w1[i]], words[w2[i]], words[w3[i]]))
    by_profile = {}
    for i, pf in enumerate(zip(ld.tolist(), lc.tolist())):
        by_profile.setdefault(pf, []).append(i)
    n_nat = 0
    for p1, p2 in itertools.product(sorted(by_profile), repeat=2):
        if p1[0] + p2[0] <= cap and p1[1] + p2[1] <= cap:
            f, g = np.array(by_profile[p1])[:, None], np.array(by_profile[p2])
            bad = comp(sym[cod[f], cod[g]], tensor(f, g)) != comp(tensor(g, f), sym[dom[f], dom[g]])
            for i, j in np.argwhere(bad):
                rep.add("env.sym.natural", False, (int(f[i, 0]), int(g[j])))
            n_nat += bad.size
    rep.params["symmetry_naturality_instances"] = n_nat
    rep.params["morphisms"] = nm
    return rep


# ---------------------------------------------------------------------------
# multifunctors, adjunctions
# ---------------------------------------------------------------------------

@dataclass
class MultiFunctorData:
    name: str
    dom: FiniteSymMulticat
    cod: FiniteSymMulticat
    obj_map: dict
    mm_map: dict

    def obj(self, X):
        return self.obj_map[X]

    def mm(self, f):
        return self.mm_map[f]


def check_multifunctor(T: MultiFunctorData) -> Report:
    V, W = T.dom, T.cod
    rep = Report(f"check_multifunctor({T.name})")
    for m, (xs, y) in V.sig.items():
        want = (tuple(T.obj(x) for x in xs), T.obj(y))
        rep.require("mf.sig", W.sig.get(T.mm(m)) == want, (m,))
    for X in V.objects:
        rep.require("mf.ident", T.mm(V.ident(X)) == W.ident(T.obj(X)), (X,))
    for (g, fs), out in V.gamma_table.items():
        rep.require("mf.gamma",
                    T.mm(out) == W.gamma(T.mm(g), tuple(T.mm(f) for f in fs)),
                    (g, fs))
    for (m, p), out in V.action_table.items():
        rep.require("mf.act", T.mm(out) == W.act(T.mm(m), p), (m, p))
    return rep


def pronormal_check(T: MultiFunctorData) -> Report:
    """The map on nullary homs V(;X) -> W(;TX) is a bijection per object."""
    V, W = T.dom, T.cod
    rep = Report(f"pronormal({T.name})")
    for X in V.objects:
        src = V.hom((), X)
        tgt = W.hom((), T.obj(X))
        img = [T.mm(m) for m in src]
        rep.require("pronormal.injective", len(set(img)) == len(img), (X,))
        rep.require("pronormal.surjective", set(img) == set(tgt), (X,),
                    detail=f"|V(;X)|={len(src)} |W(;TX)|={len(tgt)}")
    return rep


@dataclass
class MultiNatData:
    components: dict            # object -> unary morphism in the codomain side


@dataclass
class AdjunctionData:
    S: MultiFunctorData         # left adjoint W -> V
    T: MultiFunctorData         # right adjoint V -> W
    unit: MultiNatData          # Y -> TS Y in W
    counit: MultiNatData        # ST X -> X in V


def adjunction_check(data: AdjunctionData) -> Report:
    S, T = data.S, data.T
    V, W = T.dom, T.cod
    rep = Report("adjunction_check")
    rep.merge(check_multifunctor(S))
    rep.merge(check_multifunctor(T))
    for Y in W.objects:
        e = data.unit.components[Y]
        rep.require("adj.unit.sig", W.sig.get(e) == ((Y,), T.obj(S.obj(Y))), (Y,))
    for X in V.objects:
        e = data.counit.components[X]
        rep.require("adj.counit.sig", V.sig.get(e) == ((S.obj(T.obj(X)),), X), (X,))
    if rep.failures():
        return rep
    # multinaturality of the unit: for f: (Y1..Yn) -> Z in W,
    # eta_Z . f = TS(f) . (eta_{Y1}, .., eta_{Yn})
    for f, (ys, z) in W.sig.items():
        lhs = W.gamma(data.unit.components[z], (f,))
        rhs = W.gamma(T.mm(S.mm(f)), tuple(data.unit.components[y] for y in ys)) \
            if ys else T.mm(S.mm(f))
        rep.require("adj.unit.natural", lhs == rhs, (f,))
    # multinaturality of the counit
    for f, (xs, w) in V.sig.items():
        lhs = V.gamma(data.counit.components[w], (S.mm(T.mm(f)),))
        rhs = V.gamma(f, tuple(data.counit.components[x] for x in xs)) if xs else f
        rep.require("adj.counit.natural", lhs == rhs, (f,))
    # triangle identities
    for X in V.objects:
        lhs = W.gamma(T.mm(data.counit.components[X]),
                      (data.unit.components[T.obj(X)],))
        rep.require("adj.triangle.T", lhs == W.ident(T.obj(X)), (X,))
    for Y in W.objects:
        lhs = V.gamma(data.counit.components[S.obj(Y)],
                      (S.mm(data.unit.components[Y]),))
        rep.require("adj.triangle.S", lhs == V.ident(S.obj(Y)), (Y,))
    return rep


def hypothesis_check(T: MultiFunctorData, S_obj: dict, unit: dict):
    """Verify the representability hypothesis for T with the candidate
    objects and unit components, then synthesise the left adjoint's action
    and the counit through the inverse bijections.  Returns the report and
    the induced adjunction data."""
    V, W = T.dom, T.cod
    rep = Report(f"hypothesis_check({T.name})")
    Ninv = {}
    # every signature on the W side within the cap
    for ys in _words(W.objects, W.arity_cap):
        for X in V.objects:
            src = V.hom(tuple(S_obj[y] for y in ys), X)
            tgt = W.hom(ys, T.obj(X))
            fwd = {}
            for m in src:
                img = T.mm(m)
                if ys:
                    img = W.gamma(img, tuple(unit[y] for y in ys))
                fwd[m] = img
            rep.require("hyp.well_typed",
                        all(v in tgt for v in fwd.values()), (ys, X))
            rep.require("hyp.injective",
                        len(set(fwd.values())) == len(fwd), (ys, X))
            rep.require("hyp.surjective",
                        set(fwd.values()) == set(tgt), (ys, X),
                        detail=f"|A-side|={len(src)} |B-side|={len(tgt)}")
            Ninv[(ys, X)] = {v: k for k, v in fwd.items()}
    if not rep.ok:
        return rep, None
    # synthesise S on multimorphisms and the counit
    S_mm = {}
    for f, (ys, z) in W.sig.items():
        target = W.gamma(unit[z], (f,))
        S_mm[f] = Ninv[(ys, S_obj[z])][target]
    counit = {}
    for X in V.objects:
        counit[X] = Ninv[((T.obj(X),), X)][W.ident(T.obj(X))]
    S = MultiFunctorData(f"S({T.name})", W, V,
                         dict(S_obj), S_mm)
    data = AdjunctionData(S=S, T=T,
                          unit=MultiNatData(dict(unit)),
                          counit=MultiNatData(counit))
    return rep, data


def identity_adjunction(V: FiniteSymMulticat) -> AdjunctionData:
    I = MultiFunctorData("1", V, V, {X: X for X in V.objects},
                         {m: m for m in V.sig})
    ids = MultiNatData({X: V.ident(X) for X in V.objects})
    return AdjunctionData(S=I, T=I, unit=ids, counit=ids)


def conjugation_multifunctor(V: FiniteSymMulticat, elems: tuple, tau: dict,
                             name="conj") -> MultiFunctorData:
    """Endomorphism-multicategory conjugation by a bijection of the carrier."""
    inv = {v: k for k, v in tau.items()}

    def conj(m):
        n = m[1]
        table = []
        for args in itertools.product(elems, repeat=n):
            pre = tuple(tau[a] for a in args)
            idx = 0
            for a in pre:
                idx = idx * len(elems) + elems.index(a)
            table.append(inv[m[2][idx]])
        return ("f", n, tuple(table))

    return MultiFunctorData(name, V, V, {"x": "x"}, {m: conj(m) for m in V.sig})


# ---------------------------------------------------------------------------
# the Set-level strictification adjunction on the corpus
# ---------------------------------------------------------------------------

def strictification_adjunction_report(tables: dict, bound: int = 3,
                                      max_candidates: int | None = None) -> Report:
    """The unit-counit equations of st -| inclusion verified pointwise on all
    bounded data, for every corpus member and every enumerated morphism
    between them.

    The multicategories involved are infinite (S keeps producing new
    strictifications), so this is the exact finite fragment: naturality of
    the unit on all enumerated pseudo functors between corpus members,
    naturality of the counit on all bounded strictification data, S's
    functoriality on composable enumerated pairs, both triangle identities,
    and the nullary (pronormality) level, where eta and the counit are
    inverse bijections on objects.  Higher-arity naturality is certified
    separately through the hom-level equivalences.

    st f for f: A -> B is the strict extension of eta_B . f along eta_A, so
    unit naturality is the round trip of that extension, and the other
    families compare extensions on the bounded paths and cells of st A.
    S's functoriality reads each extension once, as index maps between the
    bounded paths and cells of its ends, and compares maps per pair.
    """
    from .homs import compose_functors, enumerate_functors
    from .strictify import (counit, eta, extend_functor, restrict_extension, st,
                            triangle1_report, triangle2_report)
    from .core import is_strict

    rep = Report("strictification_adjunction", params={"bound": bound})
    names = list(tables)
    sts = {n: st(tables[n]) for n in names}
    etas = {n: eta(tables[n], sts[n]) for n in names}
    funs = {(n1, n2): enumerate_functors(tables[n1], tables[n2], max_candidates)
            for n1 in names for n2 in names}
    paths = {n: sts[n].paths(bound) for n in names}
    cells = {n: sts[n].cells(bound) for n in names}

    def st_of(f, n1, n2):
        return extend_functor(compose_functors(etas[n2], f), sts[n1], sts[n2])

    stfs = {(n1, n2): [st_of(f, n1, n2) for f in fs] for (n1, n2), fs in funs.items()}

    # unit naturality: st(f) . eta_A == eta_B . f as pseudo functors
    # A -> st B, data plus constraints
    for (n1, n2), fs in funs.items():
        for f, stf in zip(fs, stfs[(n1, n2)]):
            lhs, rhs = restrict_extension(stf, etas[n1]), stf.F
            ok = (lhs.hmor_map == rhs.hmor_map and lhs.cell_map == rhs.cell_map
                  and lhs.phi0 == rhs.phi0 and lhs.phi2 == rhs.phi2)
            rep.require("sadj.unit.natural", ok, (n1, n2, f.name))
    rep.params["unit_naturality_instances"] = rep.counts.get("sadj.unit.natural", 0)

    # S functoriality on composable enumerated pairs, on bounded data; st(g f)
    # is the extension already built for the enumerated functor g f, and a
    # composite that is not one fails the family.  Each extension is read
    # once, as index maps into its codomain's bounded paths and cells (None
    # for an image outside them), so st(g f) == st g . st f compares ids; a
    # pair with an image outside is compared as objects
    path_id = {n: {p: i for i, p in enumerate(paths[n])} for n in names}
    cell_id = {n: {c: i for i, c in enumerate(cells[n])} for n in names}
    maps = {(n1, n2): [([path_id[n2].get(stf.on_path(p)) for p in paths[n1]],
                        [cell_id[n2].get(stf.on_cell(c)) for c in cells[n1]]) for stf in exts]
            for (n1, n2), exts in stfs.items()}
    st_by_key = {(n1, n2, f.key()): (stf, m) for (n1, n2), fs in funs.items()
                 for f, stf, m in zip(fs, stfs[(n1, n2)], maps[(n1, n2)])}
    for n1, n2, n3 in itertools.product(names, repeat=3):
        for f, stf, mf in zip(funs[(n1, n2)], stfs[(n1, n2)], maps[(n1, n2)]):
            for g, stg, mg in zip(funs[(n2, n3)], stfs[(n2, n3)], maps[(n2, n3)]):
                stgf, mgf = st_by_key.get((n1, n3, compose_functors(g, f).key()), (None, None))
                if stgf is None:
                    ok = False
                elif any(None in m for m in mf + mgf):
                    ok = (all(stgf.on_path(p) == stg.on_path(stf.on_path(p)) for p in paths[n1])
                          and all(stgf.on_cell(c) == stg.on_cell(stf.on_cell(c)) for c in cells[n1]))
                else:
                    ok = all(mgf[k] == list(map(mg[k].__getitem__, mf[k])) for k in (0, 1))
                rep.require("sadj.S.functorial", ok, (n1, n2, n3, f.name, g.name))
    rep.params["S_functoriality_instances"] = rep.counts.get("sadj.S.functorial", 0)

    # counit naturality on bounded data: for strict members X, X' and every
    # enumerated e: X -> X', eps_X' . st e == e . eps_X on all bounded
    # paths and cells of st X
    strict_names = [n for n in names if is_strict(tables[n])]
    counits = {n: counit(tables[n]) for n in strict_names}
    for n1, n2 in itertools.product(strict_names, repeat=2):
        eps1, eps2 = counits[n1], counits[n2]
        for e, ebar in zip(funs[(n1, n2)], stfs[(n1, n2)]):
            for p in paths[n1]:
                rep.require("sadj.counit.natural",
                            eps2.on_path(ebar.on_path(p)) == e.hmor(eps1.on_path(p)),
                            (n1, n2, e.name, p))
            for c in cells[n1]:
                rep.require("sadj.counit.natural",
                            eps2.on_cell(ebar.on_cell(c)) == e.cell(eps1.on_cell(c)),
                            (n1, n2, e.name))
    rep.params["counit_naturality_instances"] = rep.counts.get("sadj.counit.natural", 0)

    # triangles
    for n in names:
        r = triangle1_report(tables[n], bound)
        rep.require("sadj.triangle1", r.ok, (n,), detail=r.summary())
    for n in strict_names:
        r = triangle2_report(tables[n])
        rep.require("sadj.triangle2", r.ok, (n,), detail=r.summary())

    # pronormality at the nullary level: eta_A is a bijection on objects,
    # and for strict A the counit inverts it
    for n in names:
        obj = etas[n].obj_map
        ok = (set(obj) == set(tables[n].objects) and set(obj.values()) == set(sts[n].objects)
              and len(set(obj.values())) == len(obj))
        if n in counits:
            ok = ok and all(counits[n].obj(obj[a]) == a for a in obj)
        rep.require("sadj.pronormal.identity", ok, (n,))
    return rep
