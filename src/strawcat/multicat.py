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
from functools import cached_property

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

    def all_mms(self):
        return list(self.sig)


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
        n = m[1]
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


def validate_multicat(V: FiniteSymMulticat) -> Report:
    rep = Report(f"validate_multicat({V.name})", params={"arity_cap": V.arity_cap})
    for m, (xs, y) in V.sig.items():
        rep.require("mc.sig.cap", len(xs) <= V.arity_cap, (m,))
        rep.require("mc.sig.listed", m in V.hom(xs, y), (m,))
    for X in V.objects:
        i = V.ident(X)
        rep.require("mc.ident.sig", V.sig[i] == ((X,), X), (X,))
    # substitution is typed: the fs' outputs are g's inputs, and the result
    # runs from the fs' inputs, concatenated, to g's output
    for (g, fs), h in V.gamma_table.items():
        sigs = [V.sig.get(m) for m in (g, *fs)]
        ok = None not in sigs and tuple(s[1] for s in sigs[1:]) == sigs[0][0]
        rep.require("mc.gamma.sig", ok and V.sig.get(h) == (
            tuple(x for s in sigs[1:] for x in s[0]), sigs[0][1]), (g, fs))
    if rep.failures():
        return rep              # the laws below substitute along these types
    # identity laws
    for m in V.all_mms():
        xs, y = V.sig[m]
        rep.require("mc.unit.left", V.gamma(V.ident(y), (m,)) == m, (m,))
        if xs:
            rep.require("mc.unit.right",
                        V.gamma(m, tuple(V.ident(x) for x in xs)) == m, (m,))
    # action laws
    for m in V.all_mms():
        n = len(V.sig[m][0])
        rep.require("mc.act.id", V.act(m, perm_id(n)) == m, (m,))
        for p in all_perms(n):
            mp = V.act(m, p)
            xs = V.sig[m][0]
            rep.require("mc.act.sig",
                        V.sig[mp] == (tuple(xs[p[i]] for i in range(n)), V.sig[m][1]),
                        (m, p))
            for q in all_perms(n):
                rep.require("mc.act.comp",
                            V.act(mp, q) == V.act(m, perm_compose(p, q)), (m, p, q))
    by_out_size, tuples = _by_out_size(V.sig), {}

    def budgeted(outputs):
        """_budgeted within the cap, enumerated once per call."""
        if outputs not in tuples:
            tuples[outputs] = tuple(_budgeted(by_out_size, outputs, V.arity_cap))
        return tuples[outputs]

    # associativity of substitution on two-level trees within the cap
    for g in V.all_mms():
        ys, z = V.sig[g]
        if not ys:
            continue
        for fs in budgeted(tuple(ys)):
            gf = V.gamma(g, fs)
            xs_all = tuple(x for f in fs for x in V.sig[f][0])
            for flat in budgeted(xs_all):
                # split flat back into the blocks of the fs
                ess, off = [], 0
                for f in fs:
                    k = len(V.sig[f][0])
                    ess.append(flat[off:off + k])
                    off += k
                lhs = V.gamma(gf, flat)
                rhs = V.gamma(g, tuple(V.gamma(f, es) for f, es in zip(fs, ess)))
                rep.require("mc.assoc", lhs == rhs, (g, fs, flat))
    rep.params["assoc_instances"] = rep.counts.get("mc.assoc", 0)
    # equivariance
    for g in V.all_mms():
        ys, z = V.sig[g]
        n = len(ys)
        if n == 0:
            continue
        for fs in budgeted(tuple(ys)):
            sizes = [len(V.sig[f][0]) for f in fs]
            base = V.gamma(g, fs)
            for p in all_perms(n):
                lhs = V.gamma(V.act(g, p), tuple(fs[p[i]] for i in range(n)))
                rhs = V.act(base, perm_block(p, sizes))
                rep.require("mc.equivariance.outer", lhs == rhs, (g, fs, p))
            for i, f in enumerate(fs):
                k = sizes[i]
                for q in all_perms(k):
                    fs2 = list(fs)
                    fs2[i] = V.act(f, q)
                    lhs = V.gamma(g, tuple(fs2))
                    qs = [perm_id(s) for s in sizes]
                    qs[i] = q
                    rhs = V.act(base, perm_sum(qs))
                    rep.require("mc.equivariance.inner", lhs == rhs, (g, fs, i, q))
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


def _shapes(Gg, Gf, width):
    """The combinatorial half of g after f, which depends on the index maps
    alone, for columns of index maps padded with -1 (slot-major: Gg[j] is the
    output slot of g fed by input j).  Returns the composite's index map and,
    per output slot of g, the code sum_t p[t] * width**t of the permutation p
    that restores input order once the fibers of f that g feeds into the
    slot are substituted there, or -1 where substitution keeps the order.
    The substituted inputs of a slot arrive in blocks, by f's output and
    then by position: input x arrives at arrive[x] and sits at pos[x]."""
    n, small = Gg.shape[1], np.int16
    Gg, Gf = Gg.astype(small), Gf.astype(small)
    cidx = np.where(Gf >= 0, np.take_along_axis(Gg, np.maximum(Gf, 0), 0), -1).astype(small)
    arrival = Gf * width + np.arange(width, dtype=small)[:, None]
    arrive, pos, live = np.zeros_like(cidx), np.zeros_like(cidx), cidx >= 0
    for x in range(width):
        for i in range(x):
            same = (cidx[i] == cidx[x]) & live[x]
            pos[x] += same
            ahead = arrival[i] < arrival[x]
            arrive[x] += same & ahead
            arrive[i] += same & ~ahead
    # each input adds its digit to its slot's code; -1 slots land in a spare row
    code = np.zeros((width + 1) * n, dtype=np.int64)
    turn = np.zeros((width + 1) * n, dtype=bool)
    power, cols = width ** np.arange(width), np.arange(n)
    for x in range(width):
        at = cidx[x].astype(np.int64) * n + cols
        code[at] += arrive[x] * power[pos[x]]
        turn[at] |= arrive[x] != pos[x]
    code, turn = code[:width * n].reshape(width, n), turn[:width * n].reshape(width, n)
    return cidx, np.where(turn, code, -1)


@dataclass(frozen=True)
class EnvComposition:
    """Composition in an envelope as one int32 table over positions in
    E.morphisms (index).  g after f sits at table[row[g] + col[f]], and
    table[t] is pair_g[t] after pair_f[t], both int32 too; dom and cod are
    word positions."""
    index: dict
    dom: np.ndarray
    cod: np.ndarray
    by_dom: list
    by_cod: list
    row: np.ndarray
    col: np.ndarray
    pair_g: np.ndarray
    pair_f: np.ndarray
    table: np.ndarray

    def __call__(self, g, f):
        return self.table[self.row[g] + self.col[f]]


@dataclass
class EnvelopeCategory:
    """The symmetric strict monoidal envelope of V on the words of length
    <= word_cap.  Its morphisms are enumerated eagerly, within the candidate
    budget; composition reads one table, built on first use."""
    V: FiniteSymMulticat
    word_cap: int
    max_candidates: int | None = None
    objects: list = field(default_factory=list)
    morphisms: list = field(default_factory=list)

    def __post_init__(self):
        self.objects = words = _words(self.V.objects, self.word_cap)
        V, obj = self.V, {x: i for i, x in enumerate(self.V.objects)}
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
        """Every composite g after f, by integer gathers over batches of
        pairs.  Slot k of g after f is gamma of g's fiber at k on f's fibers
        at the inputs g feeds into k, which arrive by f's output, then by
        position; the action restores input order where that differs.  That
        order, and the composite's index map, depend on the pair's index
        maps alone (_shapes): the batches take g by index map, and each
        batch plans each pair of index maps in it once."""
        V, mors, words = self.V, self.morphisms, self.objects
        nm, nw, width = len(mors), len(words), max(self.word_cap, 1)
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
        pair_g = np.concatenate([np.repeat(g, len(f)) for g, f in zip(by_dom, by_cod)])
        pair_f = np.concatenate([np.tile(f, len(g)) for g, f in zip(by_dom, by_cod)])

        # V as int tables: its multimorphisms numbered, in keys as digits
        # m + 1 of radix M + 1, with 0 for the padding past a row's end
        ids = {m: i for i, m in enumerate(V.sig)}

        def num(m):
            return ids.setdefault(m, len(ids))

        def padded(rows):
            return np.array([r + (-1,) * (width - len(r)) for r in rows], dtype=np.int64)

        # slot-major: F[k] is each morphism's fiber at k, G[i] input i's slot
        F = padded([tuple(map(num, f.fibers)) for f in mors]).T
        G = padded([f.idx for f in mors]).T
        gamma = [(num(g), tuple(map(num, fs)), num(h))
                 for (g, fs), h in V.gamma_table.items() if len(fs) <= width]
        action = [(num(m), sum(x * width ** t for t, x in enumerate(p)), num(h))
                  for (m, p), h in V.action_table.items() if len(p) <= width]
        radix = len(ids) + 1
        if nw * nw * (width + 1) ** width * radix ** (width + 1) >= 2 ** 63:
            raise StructuralError(f"{V.name}: too many multimorphisms for int64 keys")
        digit = radix ** np.arange(width - 1, -1, -1)

        def sort_keys(keys, values):
            order = np.argsort(keys)            # then a sentinel above all
            return np.append(keys[order], 2 ** 63 - 1), np.append(values[order], -1)

        gkey, gval = sort_keys(
            np.array([g * radix ** width + sum((f + 1) * digit[t] for t, f in enumerate(fs))
                      for g, fs, _ in gamma], dtype=np.int64),
            np.array([h for *_, h in gamma], dtype=np.int64))
        act = np.full((radix, width ** width), -1, dtype=np.int64)
        for m, code, h in action:
            act[m, code] = h

        # a morphism's key: (dom, cod), its index map and its fibers as digits
        index_digit = (width + 1) ** np.arange(width)

        def mor_key(dom, cod, idx_key, fibers):
            return (((dom * nw + cod) * (width + 1) ** width + idx_key) * radix ** width
                    + digit @ (fibers + 1))

        mkey, mpos = sort_keys(mor_key(dom, cod, index_digit @ (G + 1), F), np.arange(nm))
        # gamma's key for slot k of g after f is g's fiber at k, then f's
        # fibers at the outputs that g feeds into k, in order: sub[f, mask]
        # has f's fibers on each set of outputs (a bit mask) as digits, and
        # feeds[k, g] the mask that g feeds into k
        slots = np.arange(width)
        sub = np.zeros((nm, 2 ** width), dtype=np.int64)
        for mask in range(2 ** width):
            for r, j in enumerate(j for j in slots if mask >> j & 1):
                sub[:, mask] += (F[j] + 1) * digit[r]
        feeds = ((G[:, None, :] == slots[:, None]) << slots[:, None, None]).sum(0)

        # the pairs taken g by g, the g ordered by index map, so that a
        # batch holds few pairs of index maps
        maps = {}
        imap = np.array([maps.setdefault(f.idx, len(maps)) for f in mors], dtype=np.int64)
        run = np.array([len(fs) for fs in by_cod])[dom]
        by_map = np.argsort(imap, kind="stable")
        ends = np.cumsum(run[by_map])
        table = np.empty(len(pair_g), dtype=np.int32)
        for s in range(0, len(pair_g), _BATCH):
            nth = np.arange(s, min(s + _BATCH, len(pair_g)))
            r = np.searchsorted(ends, nth, side="right")
            g = by_map[r]
            t = row[g] + nth - (ends[r] - run[g])
            f = pair_f[t]
            # the shape of each pair, planned once per pair of index maps
            _, first, shape = np.unique(imap[g] * len(maps) + imap[f],
                                        return_index=True, return_inverse=True)
            cidx, code = _shapes(G[:, g[first]], G[:, f[first]], width)
            code = code.take(shape, axis=1)
            # gamma: slot k of g substitutes f's fibers at g's inputs fed into k
            Fg = F.take(g, axis=1)
            live = Fg >= 0
            key = Fg * radix ** width + sub.take(f * 2 ** width + feeds.take(g, axis=1))
            at = np.searchsorted(gkey, key)
            bad = live & (gkey[at] != key)
            if bad.any():             # V's own error for the first missing entry
                b, k = np.argwhere(bad.T)[0]
                gm, fm = mors[g[b]], mors[f[b]]
                V.gamma(gm.fibers[k], tuple(x for x, j in zip(fm.fibers, gm.idx) if j == k))
            out = np.where(live, gval[at], -1)
            # the action, where the shape turns a slot's inputs
            turn = np.flatnonzero(code >= 0)
            acted = act.take(out.take(turn) * width ** width + code.take(turn))
            if (acted < 0).any():
                k, b = divmod(int(turn[np.argmax(acted < 0)]), len(g))
                size = int((cidx[:, shape[b]] == k).sum())
                V.act(list(ids)[out[k, b]],
                      tuple(int(code[k, b]) // width ** i % width for i in range(size)))
            out.put(turn, acted)
            # the composite's position, if it is a morphism
            key = mor_key(dom[f], cod[g], (index_digit @ (cidx + 1))[shape], out)
            at = np.searchsorted(mkey, key)
            if (mkey[at] != key).any():
                b = np.argmax(mkey[at] != key)
                raise StructuralError(f"{V.name}: {mors[g[b]]} after {mors[f[b]]} has a "
                                      f"fiber outside the hom of its slot")
            table[t] = mpos[at]
        return EnvComposition(index, dom, cod, by_dom, by_cod, row, col,
                              pair_g, pair_f, table)

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
    env.assoc count among the morphisms between short words only.  The
    checks run on integer tables built once: E.composition, every composite
    g after f in one int32 array, which E.compose and so env.sym.involution
    and env.sym.hexagon read too, and every tensor product within the cap
    per pair of length profiles.  The structural-associativity and
    tensor-functoriality strata compare their grids in row-major blocks of
    about _BATCH instances, so memory stays bounded by the table, not by
    the strata.  A composite that V's gamma or action does not define, or
    whose fiber falls outside its hom, raises StructuralError.  The two
    associativity strata report their first violation per outer (short
    words) or middle (structural) morphism; every other family reports each
    violated instance.
    """
    rep = Report(f"validate_envelope({E.V.name})",
                 params={"word_cap": E.word_cap, "assoc_full_len": assoc_full_len})
    cap = E.word_cap
    mors = E.morphisms
    nm = len(mors)
    comp = E.composition
    index, dom, cod = comp.index, comp.dom, comp.cod
    by_dom, by_cod = comp.by_dom, comp.by_cod
    pair_g, pair_f, table = comp.pair_g, comp.pair_f, comp.table
    row, col = comp.row, comp.col
    wid = {w: k for k, w in enumerate(E.objects)}
    wlen = np.array([len(w) for w in E.objects])

    # identities
    ids = np.arange(nm)
    id_of = np.array([index[E.identity(w)] for w in E.objects])
    for i in np.flatnonzero((comp(id_of[cod], ids) != ids)
                            | (comp(ids, id_of[dom]) != ids)):
        rep.add("env.unit", False, (int(i),))

    # associativity on the full subcategory of short words: h.(g.f) ==
    # (h.g).f over every composable triple, reporting per outer h the first
    # violation in (g, f) order, by positions among the short morphisms
    short = (wlen[dom] <= assoc_full_len) & (wlen[cod] <= assoc_full_len)
    spos = np.cumsum(short) - 1
    t = np.flatnonzero(short[pair_g] & short[pair_f])
    t = t[np.lexsort((pair_f[t], pair_g[t], cod[pair_g[t]]))]
    runs = np.searchsorted(cod[pair_g[t]], np.arange(len(E.objects) + 1))
    n_assoc = 0
    for hpos, h in enumerate(np.flatnonzero(short)):
        run = t[runs[dom[h]]:runs[dom[h] + 1]]
        g, f = pair_g[run], pair_f[run]
        bad = np.flatnonzero(comp(h, table[run]) != comp(comp(h, g), f))
        n_assoc += len(run)
        if len(bad):
            rep.add("env.assoc", False,
                    (hpos, int(spos[g[bad[0]]]), int(spos[f[bad[0]]])))
    rep.params["assoc_instances_small"] = n_assoc

    # associativity at the cap: (g.s).f == g.(s.f) for every structural s
    structural = set(id_of.tolist())
    sym = np.full((len(E.objects), len(E.objects)), -1, dtype=np.int64)
    for w1 in E.objects:
        for w2 in E.objects:
            if len(w1) + len(w2) <= cap:
                sym[wid[w1], wid[w2]] = index[E.symmetry(w1, w2)]
    structural.update(sym[sym >= 0].tolist())
    n_struct = 0
    for s in sorted(structural):
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

    # tensor: strict associativity and unit on objects and morphisms
    unit = E.identity(())
    for i, f in enumerate(mors):
        rep.require("env.tensor.unit",
                    E.tensor(f, unit) == f and E.tensor(unit, f) == f, (i,))
    small3 = [(i, f) for i, f in enumerate(mors) if len(f.dom) + len(f.cod) <= 3]
    for i, f in small3:
        for j, g in small3:
            nd, nc = len(f.dom) + len(g.dom), len(f.cod) + len(g.cod)
            for k, h in small3:
                if nd + len(h.dom) > cap or nc + len(h.cod) > cap:
                    continue
                rep.require("env.tensor.assoc",
                            E.tensor(E.tensor(f, g), h) == E.tensor(f, E.tensor(g, h)),
                            (i, j, k))

    # the tensor table, per pair of length profiles (len dom, len cod) within
    # the cap: f x g sits at tens[(pf, pg)][ppos[f], ppos[g]]
    by_profile = {}
    for i, f in enumerate(mors):
        by_profile.setdefault((len(f.dom), len(f.cod)), []).append(i)
    mprofiles = sorted(by_profile)
    ppos = np.zeros(nm, dtype=np.int64)
    for p, members in by_profile.items():
        by_profile[p] = np.array(members)
        ppos[members] = np.arange(len(members))
    tens = {}
    for p1 in mprofiles:
        for p2 in mprofiles:
            if p1[0] + p2[0] <= cap and p1[1] + p2[1] <= cap:
                tens[(p1, p2)] = np.array(
                    [[index[E.tensor(mors[i], mors[j])] for j in by_profile[p2]]
                     for i in by_profile[p1]], dtype=np.int64)

    def tensor(f, g, pf, pg):
        t = tens[(pf, pg)]
        return t.ravel()[ppos[f] * t.shape[1] + ppos[g]]

    # tensor functoriality over every two composable pairs, bucketed by the
    # length profile (dom, mid, cod) of each pair; a bucket holds its pairs'
    # table positions in table order, which is word by word, g-major
    buckets = {}
    for k, w in enumerate(E.objects):
        gs, fs = by_dom[k], by_cod[k]
        for c in range(cap + 1):
            g = gs[wlen[cod[gs]] == c]
            for a in range(cap + 1):
                f = fs[wlen[dom[fs]] == a]
                if len(g) and len(f):
                    buckets.setdefault((a, len(w), c), []).append(
                        (row[g][:, None] + col[f]).ravel().astype(np.int32))
    buckets = {p: np.concatenate(runs) for p, runs in sorted(buckets.items())}
    n_fun = 0
    for (a1, b1, c1), t1 in buckets.items():
        for (a2, b2, c2), t2 in buckets.items():
            if a1 + a2 > cap or b1 + b2 > cap or c1 + c2 > cap:
                continue
            g2, f2, gf2 = pair_g[t2], pair_f[t2], table[t2]
            for rows, cols in _blocks(len(t1), len(t2)):
                t = t1[rows, None]
                g1, f1, g, f = pair_g[t], pair_f[t], g2[cols], f2[cols]
                lhs = tensor(table[t], gf2[cols], (a1, c1), (a2, c2))
                rhs = comp(tensor(g1, g, (b1, c1), (b2, c2)),
                           tensor(f1, f, (a1, b1), (a2, b2)))
                for i, j in np.argwhere(lhs != rhs):
                    rep.add("env.tensor.functorial", False,
                            (int(f1[i, 0]), int(g1[i, 0]), int(f[j]), int(g[j])))
            n_fun += len(t1) * len(t2)
    rep.params["tensor_functoriality_instances"] = n_fun

    # symmetry: involution, naturality, coherence
    for w1 in E.objects:
        for w2 in E.objects:
            if len(w1) + len(w2) > cap:
                continue
            s = E.symmetry(w1, w2)
            rep.require("env.sym.involution",
                        E.compose(E.symmetry(w2, w1), s) == E.identity(w1 + w2),
                        (w1, w2))
            for w3 in E.objects:
                if len(w1) + len(w2) + len(w3) > cap:
                    continue
                lhs = E.symmetry(w1, w2 + w3)
                rhs = E.compose(E.tensor(E.identity(w2), E.symmetry(w1, w3)),
                                E.tensor(E.symmetry(w1, w2), E.identity(w3)))
                rep.require("env.sym.hexagon", lhs == rhs, (w1, w2, w3))
    n_nat = 0
    for p1, p2 in tens:
        f, g = by_profile[p1][:, None], by_profile[p2][None, :]
        lhs = comp(sym[cod[f], cod[g]], tens[(p1, p2)])
        rhs = comp(tens[(p2, p1)].T, sym[dom[f], dom[g]])
        for i, j in np.argwhere(lhs != rhs):
            rep.add("env.sym.natural", False, (int(f[i, 0]), int(g[0, j])))
        n_nat += lhs.size
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
    N = {}
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
            N[(ys, X)] = fwd
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
    # composite that is not one fails the family
    st_by_key = {(n1, n2, f.key()): stf for (n1, n2), fs in funs.items()
                 for f, stf in zip(fs, stfs[(n1, n2)])}
    for n1, n2, n3 in itertools.product(names, repeat=3):
        for f, stf in zip(funs[(n1, n2)], stfs[(n1, n2)]):
            for g, stg in zip(funs[(n2, n3)], stfs[(n2, n3)]):
                stgf = st_by_key.get((n1, n3, compose_functors(g, f).key()))
                ok = (stgf is not None
                      and all(stgf.on_path(p) == stg.on_path(stf.on_path(p)) for p in paths[n1])
                      and all(stgf.on_cell(c) == stg.on_cell(stf.on_cell(c)) for c in cells[n1]))
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
