"""Finite pseudo double categories as composition/constraint lookup tables.

A pseudo double category here has strict vertical composition (of vertical
morphisms and of cells) and weak horizontal composition: associators and
unitors are stored invertible globular cells, with their inverses stored as
witnesses rather than searched for.

Conventions, fixed once and used everywhere:

* a cell has a frame (top, bottom, left, right): top and bottom are
  horizontal, left and right vertical, and the cell is drawn with top above
  bottom;
* composites are written "second after first": ``vcomp(b, a)`` stacks ``a``
  on top of ``b``; ``hcomp(b, a)`` puts ``a`` to the left of ``b``, so on
  horizontal morphisms ``hcomp_hmor(g, f)`` is the composite g.f of f
  followed by g;
* ``assoc[(f, g, h)]`` (f first) is the cell (h.g).f -> h.(g.f);
* ``lunit[f]`` is 1.f -> f and ``runit[f]`` is f.1 -> f.

Identifiers are opaque hashable values; equality of cells is identifier
equality, and enumeration order is the construction order of the id tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Protocol, runtime_checkable

import numpy as np

from .report import Report, StructuralError


@runtime_checkable
class DoubleInterface(Protocol):
    """Capability surface shared by tables and lazy strictifications: pure,
    deterministic queries with decidable cell equality."""

    objects: tuple
    vmors: tuple

    def vsrc(self, u): ...
    def vtgt(self, u): ...
    def v_id(self, a): ...
    def vcomp_vmor(self, w, u): ...
    def hsrc(self, f): ...
    def htgt(self, f): ...
    def h_id(self, a): ...
    def hcomp_hmor(self, g, f): ...
    def frame(self, c): ...
    def vcomp_cell(self, lo, up): ...
    def hcomp_cell(self, r, l): ...
    def vid_of(self, f): ...
    def hid_of(self, u): ...
    def assoc_of(self, f, g, h): ...
    def lunit_of(self, f): ...
    def runit_of(self, f): ...
    def is_globular(self, c): ...
    def inverse_of(self, c): ...
    def cells_with_frame(self, fr): ...
    def globular_cells(self, f, g): ...


@dataclass(frozen=True)
class Frame:
    top: object
    bottom: object
    left: object
    right: object


@dataclass
class TableDouble:
    name: str
    objects: tuple

    vmors: tuple
    vmor_src: dict
    vmor_tgt: dict
    v_identity: dict            # object -> identity vertical morphism
    vcomp_vmor_table: dict      # (w, u) -> w.u  with tgt(u) = src(w)

    hmors: tuple
    hmor_src: dict
    hmor_tgt: dict
    h_identity: dict            # object -> horizontal identity morphism
    hcomp_hmor_table: dict      # (g, f) -> g.f  with tgt(f) = src(g)

    cells: tuple
    cell_frames: dict           # cell -> Frame
    vcomp_cell_table: dict      # (lower, upper) -> composite
    vid_cell: dict              # hmor -> identity cell on it
    hcomp_cell_table: dict      # (right, left) -> composite
    hid_cell: dict              # vmor -> horizontal identity cell on it

    assoc: dict                 # (f, g, h) -> (cell, inverse), f first
    lunit: dict                 # f -> (cell, inverse): 1.f -> f
    runit: dict                 # f -> (cell, inverse): f.1 -> f

    _inv_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _by_frame: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _interned: Interned | None = field(default=None, init=False, repr=False, compare=False)

    def interned(self) -> Interned:
        """The integer form of this table, built on first use."""
        if self._interned is None:
            self._interned = Interned(self)
        return self._interned

    # -- basic accessors ---------------------------------------------------

    def frame(self, c) -> Frame:
        return self.cell_frames[c]

    def vcomp_vmor(self, w, u):
        try:
            return self.vcomp_vmor_table[(w, u)]
        except KeyError:
            raise StructuralError(f"{self.name}: vmors not composable: {w} after {u}")

    def hcomp_hmor(self, g, f):
        try:
            return self.hcomp_hmor_table[(g, f)]
        except KeyError:
            raise StructuralError(f"{self.name}: hmors not composable: {g} after {f}")

    def vcomp_cell(self, lower, upper):
        try:
            return self.vcomp_cell_table[(lower, upper)]
        except KeyError:
            raise StructuralError(f"{self.name}: cells not v-composable: {lower} under {upper}")

    def hcomp_cell(self, right, left):
        try:
            return self.hcomp_cell_table[(right, left)]
        except KeyError:
            raise StructuralError(f"{self.name}: cells not h-composable: {right} after {left}")

    def vcomp_cells(self, *chain):
        """Vertical composite of a top-to-bottom chain of cells."""
        out = chain[0]
        for c in chain[1:]:
            out = self.vcomp_cell(c, out)
        return out

    def is_globular(self, c) -> bool:
        fr = self.frame(c)
        a = self.hmor_src[fr.top]
        b = self.hmor_tgt[fr.top]
        return fr.left == self.v_identity[a] and fr.right == self.v_identity[b]

    def inverse_of(self, c):
        """Two-sided vertical inverse of a cell, or None.

        Computed once per table by scanning the vertical composition table
        for vid pairs; constraint cells always hit their stored witnesses.
        """
        if not self._inv_cache:
            vids = set(self.vid_cell.values())
            for (lo, up), out in self.vcomp_cell_table.items():
                if out in vids:
                    other = self.vcomp_cell_table.get((up, lo))
                    if other in vids:
                        self._inv_cache.setdefault(lo, up)
                        self._inv_cache.setdefault(up, lo)
        return self._inv_cache.get(c)

    # -- uniform interface, shared with the lazy strictification ------------

    def vsrc(self, u):
        return self.vmor_src[u]

    def vtgt(self, u):
        return self.vmor_tgt[u]

    def hsrc(self, f):
        return self.hmor_src[f]

    def htgt(self, f):
        return self.hmor_tgt[f]

    def v_id(self, a):
        return self.v_identity[a]

    def h_id(self, a):
        return self.h_identity[a]

    def vid_of(self, f):
        return self.vid_cell[f]

    def hid_of(self, u):
        return self.hid_cell[u]

    def assoc_of(self, f, g, h):
        return self.assoc[(f, g, h)]

    def lunit_of(self, f):
        return self.lunit[f]

    def runit_of(self, f):
        return self.runit[f]

    def inv(self, c):
        d = self.inverse_of(c)
        if d is None:
            raise StructuralError(f"{self.name}: cell {c} is not invertible")
        return d

    # -- derived views -----------------------------------------------------

    def cells_with_frame(self, fr: Frame) -> tuple:
        """The cells in frame fr, in table order, from an index built once."""
        if not self._by_frame:
            by = {}
            for c in self.cells:
                by.setdefault(self.cell_frames[c], []).append(c)
            self._by_frame.update((fr, tuple(cs)) for fr, cs in by.items())
        return self._by_frame.get(fr, ())

    def globular_cells(self, f, g):
        a = self.hmor_src[f]
        b = self.hmor_tgt[f]
        fr = Frame(f, g, self.v_identity[a], self.v_identity[b])
        return self.cells_with_frame(fr)


@dataclass
class FiniteCategory:
    """Plain finite category: the vertical part of a table."""
    name: str
    objects: tuple
    mors: tuple
    src: dict
    tgt: dict
    identity: dict
    comp: dict      # (w, u) -> w.u


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _structural(A: TableDouble, rep: Report) -> bool:
    """Dangling-id checks on morphisms, identities and frames, and identities'
    endpoints; returns False if any fails, and then A cannot be interned."""
    ok = True

    def need(cond, witness, what):
        nonlocal ok
        if not cond:
            rep.add("structure." + what, False, witness)
            ok = False

    objs = set(A.objects)
    vm = set(A.vmors)
    hm = set(A.hmors)
    for u in A.vmors:
        need(A.vmor_src.get(u) in objs and A.vmor_tgt.get(u) in objs, (u,), "vmor.endpoints")
    for f in A.hmors:
        need(A.hmor_src.get(f) in objs and A.hmor_tgt.get(f) in objs, (f,), "hmor.endpoints")
    for a in A.objects:
        need(A.v_identity.get(a) in vm, (a,), "v_identity")
        need(A.h_identity.get(a) in hm, (a,), "h_identity")
    if not ok:
        return False
    for a in A.objects:
        i = A.v_identity[a]
        need(A.vmor_src[i] == a and A.vmor_tgt[i] == a, (a, i), "v_identity.endpoints")
        j = A.h_identity[a]
        need(A.hmor_src[j] == a and A.hmor_tgt[j] == a, (a, j), "h_identity.endpoints")
    for c in A.cells:
        fr = A.cell_frames.get(c)
        need(fr is not None, (c,), "cell.frame")
        if fr is None:
            continue
        need(fr.top in hm and fr.bottom in hm and fr.left in vm and fr.right in vm,
             (c,), "cell.frame.ids")
    return ok


_BATCH = 1 << 12                # instances per batch of a quantified family


class _Groups:
    """Ids 0..n-1 grouped by key[i], in id order within a group: group k is
    members[ptr[k]:ptr[k + 1]], and id i sits at place pos[i] of its group."""

    def __init__(self, key, nkeys: int):
        self.key = key
        self.members = key.argsort(kind="stable")
        self.count = np.bincount(key, minlength=nkeys)
        self.ptr = np.zeros(nkeys + 1, dtype=np.int64)
        self.ptr[1:] = self.count.cumsum()
        self.pos = np.empty_like(self.members)
        self.pos[self.members] = np.arange(len(key)) - self.ptr[key[self.members]]


class _Table:
    """A composition table as one flat int array.  The composable pair
    (s, f), s second and f first, meets at a boundary b = seconds.key[s] =
    firsts.key[f] and sits in b's block at row[s] + col[f]; the blocks hold
    every composable pair and nothing else.  A pair without an entry, and
    the position ``end`` after the blocks, hold ``undef``: the number of ids
    of the composite's kind.  row and col send the undefined id (that number,
    or -1) to ``end``, where lookups clip: an undefined factor stays undefined."""

    def __init__(self, seconds: _Groups, firsts: _Groups, undef: int):
        self.seconds, self.firsts, self.undef = seconds, firsts, undef
        width = firsts.count
        self.start = np.concatenate(([0], np.cumsum(seconds.count * width)))
        self.end = end = int(self.start[-1])
        row = self.start[seconds.key] + width[seconds.key] * seconds.pos
        self.row, self.col = np.concatenate((row, [end])), np.concatenate((firsts.pos, [end]))
        self.table = np.full(end + 1, undef, dtype=np.intp)

    def at(self, s, f):
        return np.minimum(self.row[s] + self.col[f], self.end)

    def __call__(self, s, f):
        return self.table.take(self.row[s] + self.col[f], mode="clip")

    def pairs(self):
        """The pair (s, f) at each position, as two columns."""
        s, f = self.seconds, self.firsts
        block = np.repeat(np.arange(len(s.count)), s.count * f.count)
        off = np.arange(self.end) - self.start[block]
        width = f.count[block]
        return s.members[s.ptr[block] + off // width], f.members[f.ptr[block] + off % width]


def _ids(index: dict, xs, dtype=np.intp) -> np.ndarray:
    """The numbers of xs in index, -1 for those it lacks."""
    return np.fromiter(map(index.get, xs, itertools.repeat(-1)), dtype=dtype)


def _columns(table: dict, arity: int, *index, dtype=np.intp) -> list:
    """The entries of table, in its order, as columns of ids: arity columns
    for the key, then one for each part of the value; index[i] numbers
    column i."""
    parts = len(index) - arity
    keys = [map(itemgetter(i), table) for i in range(arity)] if arity > 1 else [table]
    values = (table.values(),) if parts == 1 else (
        map(itemgetter(i), table.values()) for i in range(parts))
    return [_ids(ix, col, dtype) for ix, col in zip(index, [*keys, *values])]


class Interned:
    """A table as integers, built once per table by `TableDouble.interned`;
    `validate` and the st kernel read it, and nothing else numbers a table.
    ``O``, ``V``, ``H``, ``C`` number the objects, vmors, hmors and cells in
    table order, an id used but not declared being -1; the other fields are
    arrays over those numbers, named as `validate` reads them.  Each `_Table`
    keeps its dict's entries as id columns in dict order (``entries``, int32
    for assoc's triples) and marks those it holds, whose keys compose (``ok``)."""

    def __init__(self, A: TableDouble):
        Os, Vs, Hs, Cs = A.objects, A.vmors, A.hmors, A.cells
        self.O, self.V, self.H, self.C = O, V, H, C = [
            {x: i for i, x in enumerate(xs)} for xs in (Os, Vs, Hs, Cs)]
        nO, nV, nH, nC = len(Os), len(Vs), len(Hs), len(Cs)
        self.vs, self.vt, self.hs, self.ht = vs, vt, hs, ht = [
            _ids(O, map(ends.get, xs)) for ends, xs in (
                (A.vmor_src, Vs), (A.vmor_tgt, Vs), (A.hmor_src, Hs), (A.hmor_tgt, Hs))]
        frames = [A.cell_frames[c] for c in Cs]
        self.frame = top, bot, lef, rig = np.stack([_ids(ix, map(attrgetter(side), frames))
                                                    for ix, side in ((H, "top"), (H, "bottom"),
                                                                     (V, "left"), (V, "right"))])
        self.vI, self.hI = _ids(V, map(A.v_identity.get, Os)), _ids(H, map(A.h_identity.get, Os))

        self.out_v, self.in_v, self.out_h, self.in_h = (_Groups(k, nO) for k in (vs, vt, hs, ht))
        self.by_top, self.by_bot = _Groups(top, nH), _Groups(bot, nH)
        self.by_left, self.by_right = _Groups(lef, nV), _Groups(rig, nV)
        self.vv, self.hh = _Table(self.out_v, self.in_v, nV), _Table(self.out_h, self.in_h, nH)
        self.cv = _Table(self.by_top, self.by_bot, nC)
        self.ch = _Table(self.by_left, self.by_right, nC)
        for T, table, ix in ((self.vv, A.vcomp_vmor_table, V), (self.hh, A.hcomp_hmor_table, H),
                             (self.cv, A.vcomp_cell_table, C), (self.ch, A.hcomp_cell_table, C)):
            s, f, x = T.entries = _columns(table, 2, ix, ix, ix)
            ok = T.ok = np.minimum(s, f) >= 0
            ok[ok] = T.seconds.key[s[ok]] == T.firsts.key[f[ok]]
            T.table[T.at(s[ok], f[ok])] = x[ok]
        # assoc[(f, g, h)] sits at the pair h after (g after f), which meet at ht[g]
        pg, _ = self.hh.pairs()
        a3 = self.a3 = _Table(self.out_h, _Groups(ht[pg], nO), nC)
        f, g, h, c, _ = a3.entries = _columns(A.assoc, 3, H, H, H, C, C, dtype=np.int32)
        ok = a3.ok = np.minimum.reduce((f, g, h)) >= 0
        ok[ok] = (ht[f[ok]] == hs[g[ok]]) & (ht[g[ok]] == hs[h[ok]])
        a3.table[a3.at(h[ok], self.hh.at(g[ok], f[ok]))] = c[ok]

        self.vid_cols, self.hid_cols = _columns(A.vid_cell, 1, H, C), _columns(A.hid_cell, 1, V, C)
        self.lun_cols, self.run_cols = _columns(A.lunit, 1, H, C, C), _columns(A.runit, 1, H, C, C)
        self.vid, self.hid = _ids(C, map(A.vid_cell.get, Hs)), _ids(C, map(A.hid_cell.get, Vs))
        self.lun, self.run = (_ids(C, (d[f][0] if f in d else None for f in Hs))
                              for d in (A.lunit, A.runit))

    def assoc(self, f, g, h):
        return self.a3(h, self.hh.at(g, f))


def _batches(*cols):
    """The columns, _BATCH rows at a time."""
    for i in range(0, len(cols[0]), _BATCH):
        yield [c[i:i + _BATCH] for c in cols]


def _ranges(lo, hi):
    """The ranges [lo[i], hi[i]) laid end to end, as (owner, pos): the index
    i each element came from, and the element; a range with hi <= lo is
    empty."""
    n = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(len(n)), n)
    return owner, np.arange(len(owner)) + (lo - (n.cumsum() - n))[owner]


def _parts(sizes):
    """The bounds (a, b) of consecutive runs of rows whose sizes sum to about
    _BATCH each, or to one row's size where that is more; runs of total size
    0 are skipped."""
    ends = np.zeros(len(sizes) + 1, dtype=np.int64)
    ends[1:] = np.cumsum(sizes)
    cuts = [] if ends[-1] <= _BATCH else ends[1:].searchsorted(
        np.arange(_BATCH, ends[-1], _BATCH), "right").tolist()
    for a, b in zip([0, *cuts], [*cuts, len(sizes)]):
        if ends[b] > ends[a]:
            yield a, b


def _joins(n: int, *steps):
    """Batches of id columns in nested-loop order: the first column runs
    over 0..n-1, and each step (groups, key, i) adds a column that runs
    over the group key[column i] of groups.  A batch holds about _BATCH
    rows, or one row of the step before and all its extensions."""
    batches = _batches(np.arange(n))
    for groups, key, i in steps:
        batches = _extend(batches, groups, key, i)
    return batches


def _extend(batches, groups: _Groups, key, i: int):
    for cols in batches:
        k = key[cols[i]]
        lo, n = groups.ptr[k], groups.count[k]
        for a, b in _parts(n):
            row, at = _ranges(lo[a:b], lo[a:b] + n[a:b])
            yield [col[a:b][row] for col in cols] + [groups.members[at]]


def _report(rep: Report, *slots) -> None:
    """The failing instances of one batch as findings, in instance order and,
    within an instance, in slot order.  A slot is (check, bad, witness), the
    witness a tuple of (ids, column) pairs that map an instance back to the
    table's ids."""
    if not any(map(np.count_nonzero, (b for _, b, _ in slots))):
        return
    bad = np.stack([b for _, b, _ in slots], axis=1)
    for i, j in zip(*np.nonzero(bad)):
        check, _, witness = slots[j]
        rep.add(check, False, tuple(ids[col[i]] for ids, col in witness))


def _report_rows(rep: Report, check: str, bad, rows) -> None:
    """Findings for the bad entries of a table, each witnessed by its row
    as the table holds it, ids it does not resolve included."""
    if np.count_nonzero(bad):
        rows = list(rows)
        for i in np.flatnonzero(bad):
            rep.add(check, False, rows[i])


def validate(A: TableDouble) -> Report:
    """Exhaustive axiom check; the report is empty iff A is a pseudo double
    category.  Every axiom family quantifies over all composable tuples in
    the tables; nothing is sampled.

    The table is numbered once, by `TableDouble.interned`, so a second call
    on one table only checks, and each family is a few gathers over batches
    of its instances, in the order of the nested loops that quantify it.
    Findings name the table's own ids."""
    rep = Report(f"validate({A.name})")
    if not _structural(A, rep):
        return rep

    T = A.interned()
    Os, Vs, Hs, Cs = A.objects, A.vmors, A.hmors, A.cells
    nO, nV, nH, nC = len(Os), len(Vs), len(Hs), len(Cs)
    vs, vt, hs, ht, vI, hI = T.vs, T.vt, T.hs, T.ht, T.vI, T.hI
    top, bot, lef, rig = frame = T.frame
    vv, hh, cv, ch, a3, assoc = T.vv, T.hh, T.cv, T.ch, T.a3, T.assoc
    vid, hid, lun, run = T.vid, T.hid, T.lun, T.run
    (vid_f, vid_c), (hid_u, hid_c) = T.vid_cols, T.hid_cols
    (lun_f, lun_c, lun_d), (run_f, run_c, run_d) = T.lun_cols, T.run_cols

    def ids(*cols):
        return tuple(zip(cols[::2], cols[1::2]))

    # the corners of each frame meet; a frame that fails is still checked
    # with the tables' keys and totality before `validate` stops
    each = ids(Cs, np.arange(nC))
    _report(rep, ("structure.cell.frame.topleft", vs[lef] != hs[top], each),
            ("structure.cell.frame.botleft", vt[lef] != hs[bot], each),
            ("structure.cell.frame.topright", vs[rig] != ht[top], each),
            ("structure.cell.frame.botright", vt[rig] != ht[bot], each))

    # every key of a table is composable data, or one id, of its kind; each
    # composition table and assoc holds its composable entries
    for what, table, X in (("vcomp.vmor", A.vcomp_vmor_table, vv),
                           ("hcomp.hmor", A.hcomp_hmor_table, hh),
                           ("vcomp.cell", A.vcomp_cell_table, cv),
                           ("hcomp.cell", A.hcomp_cell_table, ch),
                           ("assoc", A.assoc, a3)):
        _report_rows(rep, f"structure.{what}.composable", ~X.ok, table)
    for what, table, key in (("vid", A.vid_cell, vid_f), ("hid", A.hid_cell, hid_u),
                             ("lunit", A.lunit, lun_f), ("runit", A.runit, run_f)):
        _report_rows(rep, f"structure.{what}.keys", key < 0, ((k,) for k in table))

    def missing(check, X, names, tuples):
        # the composable tuples without an entry, in lexicographic order
        gone = np.flatnonzero(X.table[:X.end] == X.undef)
        if len(gone):
            cols = [c[gone] for c in tuples()]
            order = np.lexsort(cols[::-1])
            _report(rep, (check, np.ones(len(gone), dtype=bool),
                          tuple((names, c[order]) for c in cols)))

    def assoc_triples():
        h, p = a3.pairs()
        pg, pf = hh.pairs()
        return pf[p], pg[p], h

    missing("structure.vcomp.vmor.total", vv, Vs, vv.pairs)
    missing("structure.hcomp.hmor.total", hh, Hs, hh.pairs)
    _report(rep, ("structure.vid.total", vid < 0, ids(Hs, np.arange(nH))))
    _report(rep, ("structure.hid.total", hid < 0, ids(Vs, np.arange(nV))))
    if rep.failures():
        return rep
    missing("structure.vcomp.cell.total", cv, Cs, cv.pairs)
    missing("structure.hcomp.cell.total", ch, Cs, ch.pairs)
    missing("structure.assoc.total", a3, Hs, assoc_triples)
    has_l = np.bincount(lun_f[lun_f >= 0], minlength=nH) > 0
    has_r = np.bincount(run_f[run_f >= 0], minlength=nH) > 0
    _report(rep, ("structure.lunit.total", ~has_l, ids(Hs, np.arange(nH))),
            ("structure.runit.total", ~has_r, ids(Hs, np.arange(nH))))
    if rep.failures():
        return rep

    # table outputs well-typed
    for what, table, (s, f, x), src, tgt in (
            ("vcomp.vmor", A.vcomp_vmor_table, vv.entries, vs, vt),
            ("hcomp.hmor", A.hcomp_hmor_table, hh.entries, hs, ht)):
        ok = x >= 0
        ok[ok] = (src[x[ok]] == src[f[ok]]) & (tgt[x[ok]] == tgt[s[ok]])
        _report_rows(rep, f"structure.{what}.typed", ~ok, ((*k, y) for k, y in table.items()))
    for what, table, X in (("vcomp.cell", A.vcomp_cell_table, cv),
                           ("hcomp.cell", A.hcomp_cell_table, ch)):
        _report_rows(rep, f"structure.{what}.ids", X.entries[2] < 0,
                     ((*k, y) for k, y in table.items()))
    af, ag, ah, ac, ad = a3.entries
    _report_rows(rep, "structure.constraint.ids",
                 np.minimum(np.concatenate((ac, lun_c, run_c)),
                            np.concatenate((ad, lun_d, run_d))) < 0,
                 itertools.chain(A.assoc.values(), A.lunit.values(), A.runit.values()))
    if rep.failures():
        return rep

    # vertical category of objects and vmors
    for (u,) in _joins(nV):
        _report(rep, ("vcat.unit", vv(vI[vt[u]], u) != u, ids(Vs, u)),
                ("vcat.unit", vv(u, vI[vs[u]]) != u, ids(Vs, u)))
    for u, w, x in _joins(nV, (T.out_v, vt, 0), (T.out_v, vt, 1)):
        _report(rep, ("vcat.assoc", vv(x, vv(w, u)) != vv(vv(x, w), u), ids(Vs, u, Vs, w, Vs, x)))

    # frames of composites
    for lo, up, x in _batches(*cv.entries):
        want = (top[up], bot[lo], vv(lef[lo], lef[up]), vv(rig[lo], rig[up]))
        _report(rep, ("frame.vcomp", (frame[:, x] != want).any(0), ids(Cs, lo, Cs, up, Cs, x)))
    for r, l, x in _batches(*ch.entries):
        want = (hh(top[r], top[l]), hh(bot[r], bot[l]), lef[l], rig[r])
        _report(rep, ("frame.hcomp", (frame[:, x] != want).any(0), ids(Cs, r, Cs, l, Cs, x)))
    for f, c in _batches(vid_f, vid_c):
        _report(rep, ("frame.vid", (frame[:, c] != (f, f, vI[hs[f]], vI[ht[f]])).any(0),
                      ids(Hs, f, Cs, c)))
    for u, c in _batches(hid_u, hid_c):
        _report(rep, ("frame.hid", (frame[:, c] != (hI[vs[u]], hI[vt[u]], u, u)).any(0),
                      ids(Vs, u, Cs, c)))
    if rep.failures():
        # later families look composites up by frame; meaningless if broken
        return rep

    # cells form a category under vertical composition
    for (c,) in _joins(nC):
        _report(rep, ("cell.vcat.unit", cv(vid[bot[c]], c) != c, ids(Cs, c)),
                ("cell.vcat.unit", cv(c, vid[top[c]]) != c, ids(Cs, c)))
    for c1, c2, c3 in _joins(nC, (T.by_top, bot, 0), (T.by_top, bot, 1)):
        _report(rep, ("cell.vcat.assoc", cv(c3, cv(c2, c1)) != cv(cv(c3, c2), c1),
                      ids(Cs, c1, Cs, c2, Cs, c3)))

    # horizontal composition of cells is a functor A1 x_{A0} A1 -> A1
    for g, f, gf in _batches(*hh.entries):
        _report(rep, ("hcomp.vid", ch(vid[g], vid[f]) != vid[gf], ids(Hs, f, Hs, g)))
    for l1, r1, l2, r2 in _joins(nC, (T.by_left, rig, 0), (T.by_top, bot, 0),
                                 (T.by_left, rig, 2)):
        keep = top[r2] == bot[r1]
        l1, r1, l2, r2 = l1[keep], r1[keep], l2[keep], r2[keep]
        lhs = cv(ch(r2, l2), ch(r1, l1))
        _report(rep, ("interchange", lhs != ch(cv(r2, r1), cv(l2, l1)),
                      ids(Cs, l1, Cs, r1, Cs, l2, Cs, r2)))

    # horizontal identities are functorial in the vertical direction
    for (a,) in _joins(nO):
        _report(rep, ("hid.of.videntity", hid[vI[a]] != vid[hI[a]], ids(Os, a)))
    for w, u, wu in _batches(*vv.entries):
        _report(rep, ("hid.functorial", cv(hid[w], hid[u]) != hid[wu], ids(Vs, u, Vs, w)))

    # constraint cells: globular, invertible against the stored witnesses
    globular = (lef == vI[hs[top]]) & (rig == vI[ht[top]])

    def check_constraint(tag, witness, src_h, tgt_h, c, d):
        ok = (top[c] == src_h) & (bot[c] == tgt_h) & globular[c]
        ok2 = (top[d] == tgt_h) & (bot[d] == src_h) & globular[d]
        inv = ok & ok2
        c2, d2 = c[inv], d[inv]
        inv[inv] = (cv(d2, c2) == vid[src_h[inv]]) & (cv(c2, d2) == vid[tgt_h[inv]])
        _report(rep, (tag + ".globular", ~ok, witness + ids(Cs, c)),
                (tag + ".globular", ~ok2, witness + ids(Cs, d)),
                (tag + ".invertible", ok & ok2 & ~inv, witness + ids(Cs, c, Cs, d)))

    for f, g, h, c, d in _batches(af, ag, ah, ac, ad):
        check_constraint("assoc", ids(Hs, f, Hs, g, Hs, h), hh(hh(h, g), f), hh(h, hh(g, f)), c, d)
    for f, c, d in _batches(lun_f, lun_c, lun_d):
        check_constraint("lunit", ids(Hs, f), hh(hI[ht[f]], f), f, c, d)
    for f, c, d in _batches(run_f, run_c, run_d):
        check_constraint("runit", ids(Hs, f), hh(f, hI[hs[f]]), f, c, d)
    if rep.failures():
        # naturality/coherence below assumes well-framed constraints
        return rep

    # naturality of the associator in all three arguments
    for l1, m1, r1 in _joins(nC, (T.by_left, rig, 0), (T.by_left, rig, 1)):
        lhs = cv(assoc(bot[l1], bot[m1], bot[r1]), ch(r1, ch(m1, l1)))
        rhs = cv(ch(ch(r1, m1), l1), assoc(top[l1], top[m1], top[r1]))
        _report(rep, ("assoc.natural", lhs != rhs, ids(Cs, l1, Cs, m1, Cs, r1)))

    # naturality of the unitors
    for (c,) in _joins(nC):
        _report(rep, ("lunit.natural", cv(lun[bot[c]], ch(hid[rig[c]], c)) != cv(c, lun[top[c]]),
                      ids(Cs, c)),
                ("runit.natural", cv(run[bot[c]], ch(c, hid[lef[c]])) != cv(c, run[top[c]]),
                 ids(Cs, c)))

    # pentagon and triangle
    out_h = T.out_h
    for f, g, h, k in _joins(nH, (out_h, ht, 0), (out_h, ht, 1), (out_h, ht, 2)):
        p1 = cv(ch(vid[k], assoc(f, g, h)),
                cv(assoc(f, hh(h, g), k), ch(assoc(g, h, k), vid[f])))
        p2 = cv(assoc(hh(g, f), h, k), assoc(f, g, hh(k, h)))
        _report(rep, ("pentagon", p1 != p2, ids(Hs, f, Hs, g, Hs, h, Hs, k)))
    for f, g in _joins(nH, (out_h, ht, 0)):
        lhs = cv(ch(vid[g], lun[f]), assoc(f, hI[ht[f]], g))
        _report(rep, ("triangle", lhs != ch(run[g], vid[f]), ids(Hs, f, Hs, g)))

    # bookkeeping: instance counts make reports comparable across runs
    rep.params["objects"] = len(A.objects)
    rep.params["vmors"] = len(A.vmors)
    rep.params["hmors"] = len(A.hmors)
    rep.params["cells"] = len(A.cells)
    rep.params["vid_cells"] = len(set(A.vid_cell.values()))
    return rep


# ---------------------------------------------------------------------------
# underlying structures, products, units
# ---------------------------------------------------------------------------

def underlying_category(A: TableDouble) -> FiniteCategory:
    """The category of objects and vertical morphisms."""
    return FiniteCategory(
        name=f"U({A.name})",
        objects=A.objects,
        mors=A.vmors,
        src=dict(A.vmor_src),
        tgt=dict(A.vmor_tgt),
        identity=dict(A.v_identity),
        comp=dict(A.vcomp_vmor_table),
    )


def horizontal_category(A: TableDouble) -> FiniteCategory:
    """Objects and horizontal morphisms; only meaningful when A is strict."""
    return FiniteCategory(
        name=f"Uh({A.name})",
        objects=A.objects,
        mors=A.hmors,
        src=dict(A.hmor_src),
        tgt=dict(A.hmor_tgt),
        identity=dict(A.h_identity),
        comp=dict(A.hcomp_hmor_table),
    )


def full_sub(A: TableDouble, name: str, objects, vmors, hmors, cells) -> TableDouble:
    """The sub-table of A on the given data, which must be closed under
    sources, targets, identities and composites: every table entry whose
    arguments are all kept.  Each dict keeps A's order."""
    ko, kv, kh, kc = set(objects), set(vmors), set(hmors), set(cells)

    def on(d, keep):
        return {k: x for k, x in d.items() if k in keep}

    def on_all(d, keep):
        return {k: x for k, x in d.items() if all(y in keep for y in k)}

    return TableDouble(
        name=name,
        objects=tuple(objects),
        vmors=tuple(vmors),
        vmor_src=on(A.vmor_src, kv),
        vmor_tgt=on(A.vmor_tgt, kv),
        v_identity=on(A.v_identity, ko),
        vcomp_vmor_table=on_all(A.vcomp_vmor_table, kv),
        hmors=tuple(hmors),
        hmor_src=on(A.hmor_src, kh),
        hmor_tgt=on(A.hmor_tgt, kh),
        h_identity=on(A.h_identity, ko),
        hcomp_hmor_table=on_all(A.hcomp_hmor_table, kh),
        cells=tuple(cells),
        cell_frames=on(A.cell_frames, kc),
        vcomp_cell_table=on_all(A.vcomp_cell_table, kc),
        vid_cell=on(A.vid_cell, kh),
        hcomp_cell_table=on_all(A.hcomp_cell_table, kc),
        hid_cell=on(A.hid_cell, kv),
        assoc=on_all(A.assoc, kh),
        lunit=on(A.lunit, kh),
        runit=on(A.runit, kh),
    )


def underlying_bicategory(A: TableDouble) -> TableDouble:
    """Discard non-identity vertical morphisms and non-globular cells."""
    ids = set(A.v_identity.values())
    return full_sub(A, f"H({A.name})", A.objects, [u for u in A.vmors if u in ids],
                    A.hmors, [c for c in A.cells if A.is_globular(c)])


def is_bicategory(A: TableDouble) -> bool:
    return set(A.vmors) == {A.v_identity[a] for a in A.objects}


def product(A: TableDouble, B: TableDouble) -> TableDouble:
    """Componentwise product; every identifier is a pair."""
    objects = tuple(itertools.product(A.objects, B.objects))
    vmors, vsrc, vtgt = [], {}, {}
    for u, v in itertools.product(A.vmors, B.vmors):
        vmors.append((u, v))
        vsrc[(u, v)] = (A.vmor_src[u], B.vmor_src[v])
        vtgt[(u, v)] = (A.vmor_tgt[u], B.vmor_tgt[v])
    hmors, hsrc, htgt = [], {}, {}
    for f, g in itertools.product(A.hmors, B.hmors):
        hmors.append((f, g))
        hsrc[(f, g)] = (A.hmor_src[f], B.hmor_src[g])
        htgt[(f, g)] = (A.hmor_tgt[f], B.hmor_tgt[g])
    cells, frames = [], {}
    for c, d in itertools.product(A.cells, B.cells):
        cells.append((c, d))
        fc, fd = A.cell_frames[c], B.cell_frames[d]
        frames[(c, d)] = Frame((fc.top, fd.top), (fc.bottom, fd.bottom),
                               (fc.left, fd.left), (fc.right, fd.right))
    vcomp_v = {((w, x), (u, v)): (A.vcomp_vmor_table[(w, u)], B.vcomp_vmor_table[(x, v)])
               for (w, u) in A.vcomp_vmor_table for (x, v) in B.vcomp_vmor_table}
    hcomp_h = {((g, k), (f, h)): (A.hcomp_hmor_table[(g, f)], B.hcomp_hmor_table[(k, h)])
               for (g, f) in A.hcomp_hmor_table for (k, h) in B.hcomp_hmor_table}
    vcomp_c = {((l2, r2), (l1, r1)): (A.vcomp_cell_table[(l2, l1)], B.vcomp_cell_table[(r2, r1)])
               for (l2, l1) in A.vcomp_cell_table for (r2, r1) in B.vcomp_cell_table}
    hcomp_c = {((c2, d2), (c1, d1)): (A.hcomp_cell_table[(c2, c1)], B.hcomp_cell_table[(d2, d1)])
               for (c2, c1) in A.hcomp_cell_table for (d2, d1) in B.hcomp_cell_table}
    return TableDouble(
        name=f"({A.name}x{B.name})",
        objects=objects,
        vmors=tuple(vmors), vmor_src=vsrc, vmor_tgt=vtgt,
        v_identity={(a, b): (A.v_identity[a], B.v_identity[b]) for a, b in objects},
        vcomp_vmor_table=vcomp_v,
        hmors=tuple(hmors), hmor_src=hsrc, hmor_tgt=htgt,
        h_identity={(a, b): (A.h_identity[a], B.h_identity[b]) for a, b in objects},
        hcomp_hmor_table=hcomp_h,
        cells=tuple(cells), cell_frames=frames,
        vcomp_cell_table=vcomp_c,
        vid_cell={(f, g): (A.vid_cell[f], B.vid_cell[g]) for f, g in hmors},
        hcomp_cell_table=hcomp_c,
        hid_cell={(u, v): (A.hid_cell[u], B.hid_cell[v]) for u, v in vmors},
        assoc={((f, x), (g, y), (h, z)): ((A.assoc[(f, g, h)][0], B.assoc[(x, y, z)][0]),
                                          (A.assoc[(f, g, h)][1], B.assoc[(x, y, z)][1]))
               for (f, g, h) in A.assoc for (x, y, z) in B.assoc},
        lunit={(f, g): ((A.lunit[f][0], B.lunit[g][0]), (A.lunit[f][1], B.lunit[g][1]))
               for f in A.lunit for g in B.lunit},
        runit={(f, g): ((A.runit[f][0], B.runit[g][0]), (A.runit[f][1], B.runit[g][1]))
               for f in A.runit for g in B.runit},
    )


def _one_object_identities(name: str, obj, vid, hid, cell) -> TableDouble:
    return TableDouble(
        name=name,
        objects=(obj,),
        vmors=(vid,), vmor_src={vid: obj}, vmor_tgt={vid: obj},
        v_identity={obj: vid}, vcomp_vmor_table={(vid, vid): vid},
        hmors=(hid,), hmor_src={hid: obj}, hmor_tgt={hid: obj},
        h_identity={obj: hid}, hcomp_hmor_table={(hid, hid): hid},
        cells=(cell,),
        cell_frames={cell: Frame(hid, hid, vid, vid)},
        vcomp_cell_table={(cell, cell): cell},
        vid_cell={hid: cell},
        hcomp_cell_table={(cell, cell): cell},
        hid_cell={vid: cell},
        assoc={(hid, hid, hid): (cell, cell)},
        lunit={hid: (cell, cell)},
        runit={hid: (cell, cell)},
    )


def terminal() -> TableDouble:
    return _one_object_identities("terminal", "pt", "idpt", "hpt", "cpt")


def unit_object() -> TableDouble:
    """The unit object I for the hom calculus.

    One object and identities only; strict double functors out of it pick
    out exactly the objects of any table whose constraints on identity
    composites are identity cells (true of every corpus member).
    """
    return _one_object_identities("I", "i", "idi", "hi", "ci")


def is_strict(A: TableDouble) -> bool:
    """All associator and unitor cells are identity cells."""
    for (f, g, h), (c, _) in A.assoc.items():
        hg = A.hcomp_hmor_table[(h, g)]
        gf = A.hcomp_hmor_table[(g, f)]
        if A.hcomp_hmor_table[(hg, f)] != A.hcomp_hmor_table[(h, gf)]:
            return False
        if c != A.vid_cell[A.hcomp_hmor_table[(hg, f)]]:
            return False
    for f, (c, _) in A.lunit.items():
        if A.hcomp_hmor_table[(A.h_identity[A.hmor_tgt[f]], f)] != f or c != A.vid_cell[f]:
            return False
    for f, (c, _) in A.runit.items():
        if A.hcomp_hmor_table[(f, A.h_identity[A.hmor_src[f]])] != f or c != A.vid_cell[f]:
            return False
    return True


def category_is_free(C: FiniteCategory) -> bool:
    """Unique-factorisation test: C is free on a graph iff every non-identity
    morphism factors into indecomposables in exactly one way."""
    idset = set(C.identity.values())
    nonid = [m for m in C.mors if m not in idset]
    decomposable = set()
    for m in nonid:
        for u in nonid:
            for w in nonid:
                if C.comp.get((w, u)) == m:
                    decomposable.add(m)
    indec = [m for m in nonid if m not in decomposable]
    cap = len(C.mors) + 1

    def count_factorisations(m, depth):
        # number of ways to write m as e_k . ... . e_1 with e_i indecomposable
        if depth > cap:
            return 2  # cycle: certainly not free
        total = 0
        if m in indec:
            total += 1
        for e in indec:
            if C.tgt[e] != C.tgt[m]:
                continue
            for rest in nonid:
                if C.comp.get((e, rest)) == m and C.src[rest] == C.src[m]:
                    total += count_factorisations(rest, depth + 1)
                    if total > 1:
                        return total
        return total

    for m in nonid:
        if count_factorisations(m, 0) != 1:
            return False
    return True


def is_cofibrant(A: TableDouble) -> bool:
    """The underlying (vertical) category is free on a graph."""
    return category_is_free(underlying_category(A))
