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
from typing import Protocol, runtime_checkable

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
    """Dangling-id and totality checks; returns False if anything dangles."""
    ok = True

    def need(cond, witness, what):
        nonlocal ok
        if not cond:
            rep.add("structure." + what, False, witness)
            ok = False

    objs = set(A.objects)
    vm = set(A.vmors)
    hm = set(A.hmors)
    cs = set(A.cells)
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
    if not ok:
        return False
    for c in A.cells:
        fr = A.cell_frames[c]
        need(A.vmor_src[fr.left] == A.hmor_src[fr.top], (c,), "cell.frame.topleft")
        need(A.vmor_tgt[fr.left] == A.hmor_src[fr.bottom], (c,), "cell.frame.botleft")
        need(A.vmor_src[fr.right] == A.hmor_tgt[fr.top], (c,), "cell.frame.topright")
        need(A.vmor_tgt[fr.right] == A.hmor_tgt[fr.bottom], (c,), "cell.frame.botright")

    # totality of the composition tables over composable data
    for w, u in itertools.product(A.vmors, A.vmors):
        if A.vmor_tgt[u] == A.vmor_src[w]:
            need((w, u) in A.vcomp_vmor_table, (w, u), "vcomp.vmor.total")
    for g, f in itertools.product(A.hmors, A.hmors):
        if A.hmor_tgt[f] == A.hmor_src[g]:
            need((g, f) in A.hcomp_hmor_table, (g, f), "hcomp.hmor.total")
    for f in A.hmors:
        need(f in A.vid_cell and A.vid_cell[f] in cs, (f,), "vid.total")
    for u in A.vmors:
        need(u in A.hid_cell and A.hid_cell[u] in cs, (u,), "hid.total")
    if not ok:
        return False
    for lo, up in itertools.product(A.cells, A.cells):
        if A.cell_frames[up].bottom == A.cell_frames[lo].top:
            need((lo, up) in A.vcomp_cell_table, (lo, up), "vcomp.cell.total")
    for r, l in itertools.product(A.cells, A.cells):
        if A.cell_frames[l].right == A.cell_frames[r].left:
            need((r, l) in A.hcomp_cell_table, (r, l), "hcomp.cell.total")
    for f, g in itertools.product(A.hmors, A.hmors):
        if A.hmor_tgt[f] != A.hmor_src[g]:
            continue
        for h in A.hmors:
            if A.hmor_tgt[g] == A.hmor_src[h]:
                need((f, g, h) in A.assoc, (f, g, h), "assoc.total")
    for f in A.hmors:
        need(f in A.lunit, (f,), "lunit.total")
        need(f in A.runit, (f,), "runit.total")
    if not ok:
        return False

    # table outputs well-typed
    for (w, u), x in A.vcomp_vmor_table.items():
        need(x in vm and A.vmor_src[x] == A.vmor_src[u] and A.vmor_tgt[x] == A.vmor_tgt[w],
             (w, u, x), "vcomp.vmor.typed")
    for (g, f), x in A.hcomp_hmor_table.items():
        need(x in hm and A.hmor_src[x] == A.hmor_src[f] and A.hmor_tgt[x] == A.hmor_tgt[g],
             (g, f, x), "hcomp.hmor.typed")
    for (c, d) in list(A.assoc.values()) + list(A.lunit.values()) + list(A.runit.values()):
        need(c in cs and d in cs, (c, d), "constraint.ids")
    return ok


def validate(A: TableDouble) -> Report:
    """Exhaustive axiom check; the report is empty iff A is a pseudo double
    category.  Every axiom family quantifies over all composable tuples in
    the tables; nothing is sampled."""
    rep = Report(f"validate({A.name})")
    if not _structural(A, rep):
        return rep

    vid_vals = set(A.vid_cell.values())

    # vertical category of objects and vmors
    for u in A.vmors:
        a, b = A.vmor_src[u], A.vmor_tgt[u]
        rep.require("vcat.unit", A.vcomp_vmor_table[(A.v_identity[b], u)] == u, (u,))
        rep.require("vcat.unit", A.vcomp_vmor_table[(u, A.v_identity[a])] == u, (u,))
    for u in A.vmors:
        for w in A.vmors:
            if A.vmor_src[w] != A.vmor_tgt[u]:
                continue
            for x in A.vmors:
                if A.vmor_src[x] != A.vmor_tgt[w]:
                    continue
                lhs = A.vcomp_vmor_table[(x, A.vcomp_vmor_table[(w, u)])]
                rhs = A.vcomp_vmor_table[(A.vcomp_vmor_table[(x, w)], u)]
                rep.require("vcat.assoc", lhs == rhs, (u, w, x))

    # frames of composites
    for (lo, up), out in A.vcomp_cell_table.items():
        fu, fl = A.cell_frames[up], A.cell_frames[lo]
        want = Frame(fu.top, fl.bottom,
                     A.vcomp_vmor_table[(fl.left, fu.left)],
                     A.vcomp_vmor_table[(fl.right, fu.right)])
        rep.require("frame.vcomp", A.cell_frames[out] == want, (lo, up, out))
    for (r, l), out in A.hcomp_cell_table.items():
        fl, fr_ = A.cell_frames[l], A.cell_frames[r]
        want = Frame(A.hcomp_hmor_table[(fr_.top, fl.top)],
                     A.hcomp_hmor_table[(fr_.bottom, fl.bottom)],
                     fl.left, fr_.right)
        rep.require("frame.hcomp", A.cell_frames[out] == want, (r, l, out))
    for f, c in A.vid_cell.items():
        a, b = A.hmor_src[f], A.hmor_tgt[f]
        want = Frame(f, f, A.v_identity[a], A.v_identity[b])
        rep.require("frame.vid", A.cell_frames[c] == want, (f, c))
    for u, c in A.hid_cell.items():
        a, b = A.vmor_src[u], A.vmor_tgt[u]
        want = Frame(A.h_identity[a], A.h_identity[b], u, u)
        rep.require("frame.hid", A.cell_frames[c] == want, (u, c))
    if rep.failures():
        # later families look composites up by frame; meaningless if broken
        return rep

    # cells form a category under vertical composition
    for c in A.cells:
        fr = A.cell_frames[c]
        rep.require("cell.vcat.unit", A.vcomp_cell_table[(A.vid_cell[fr.bottom], c)] == c, (c,))
        rep.require("cell.vcat.unit", A.vcomp_cell_table[(c, A.vid_cell[fr.top])] == c, (c,))
    by_top = {}
    for c in A.cells:
        by_top.setdefault(A.cell_frames[c].top, []).append(c)
    for c1 in A.cells:
        for c2 in by_top.get(A.cell_frames[c1].bottom, ()):
            c12 = A.vcomp_cell_table[(c2, c1)]
            for c3 in by_top.get(A.cell_frames[c2].bottom, ()):
                lhs = A.vcomp_cell_table[(c3, c12)]
                rhs = A.vcomp_cell_table[(A.vcomp_cell_table[(c3, c2)], c1)]
                rep.require("cell.vcat.assoc", lhs == rhs, (c1, c2, c3))

    # horizontal composition of cells is a functor A1 x_{A0} A1 -> A1
    by_left = {}
    for c in A.cells:
        by_left.setdefault(A.cell_frames[c].left, []).append(c)
    for g, f in A.hcomp_hmor_table:
        gf = A.hcomp_hmor_table[(g, f)]
        rep.require("hcomp.vid", A.hcomp_cell_table[(A.vid_cell[g], A.vid_cell[f])] == A.vid_cell[gf],
                    (f, g))
    for l1 in A.cells:
        for r1 in by_left.get(A.cell_frames[l1].right, ()):
            top1 = A.hcomp_cell_table[(r1, l1)]
            fl1, fr1 = A.cell_frames[l1], A.cell_frames[r1]
            for l2 in by_top.get(fl1.bottom, ()):
                for r2 in by_left.get(A.cell_frames[l2].right, ()):
                    if A.cell_frames[r2].top != fr1.bottom:
                        continue
                    bot = A.hcomp_cell_table[(r2, l2)]
                    lhs = A.vcomp_cell_table[(bot, top1)]
                    rhs = A.hcomp_cell_table[(A.vcomp_cell_table[(r2, r1)],
                                              A.vcomp_cell_table[(l2, l1)])]
                    rep.require("interchange", lhs == rhs, (l1, r1, l2, r2))

    # horizontal identities are functorial in the vertical direction
    for a in A.objects:
        rep.require("hid.of.videntity", A.hid_cell[A.v_identity[a]] == A.vid_cell[A.h_identity[a]],
                    (a,))
    for (w, u), wu in A.vcomp_vmor_table.items():
        lhs = A.vcomp_cell_table[(A.hid_cell[w], A.hid_cell[u])]
        rep.require("hid.functorial", lhs == A.hid_cell[wu], (u, w))

    # constraint cells: globular, invertible against the stored witnesses
    def check_constraint(tag, pair, src_h, tgt_h, witness):
        c, d = pair
        fr = A.cell_frames[c]
        ok = (fr.top == src_h and fr.bottom == tgt_h and A.is_globular(c))
        rep.require(tag + ".globular", ok, witness + (c,))
        fr2 = A.cell_frames[d]
        ok2 = (fr2.top == tgt_h and fr2.bottom == src_h and A.is_globular(d))
        rep.require(tag + ".globular", ok2, witness + (d,))
        if ok and ok2:
            rep.require(tag + ".invertible",
                        A.vcomp_cell_table[(d, c)] == A.vid_cell[src_h]
                        and A.vcomp_cell_table[(c, d)] == A.vid_cell[tgt_h],
                        witness + (c, d))

    for (f, g, h), pair in A.assoc.items():
        hg = A.hcomp_hmor_table[(h, g)]
        gf = A.hcomp_hmor_table[(g, f)]
        check_constraint("assoc", pair,
                         A.hcomp_hmor_table[(hg, f)], A.hcomp_hmor_table[(h, gf)], (f, g, h))
    for f, pair in A.lunit.items():
        b = A.hmor_tgt[f]
        check_constraint("lunit", pair, A.hcomp_hmor_table[(A.h_identity[b], f)], f, (f,))
    for f, pair in A.runit.items():
        a = A.hmor_src[f]
        check_constraint("runit", pair, A.hcomp_hmor_table[(f, A.h_identity[a])], f, (f,))
    if rep.failures():
        # naturality/coherence below assumes well-framed constraints
        return rep

    # naturality of the associator in all three arguments
    for l1 in A.cells:
        fl = A.cell_frames[l1]
        for m1 in by_left.get(fl.right, ()):
            fm = A.cell_frames[m1]
            top_lm = A.hcomp_cell_table[(m1, l1)]
            for r1 in by_left.get(fm.right, ()):
                fr_ = A.cell_frames[r1]
                lhs = A.vcomp_cell_table[(A.assoc[(fl.bottom, fm.bottom, fr_.bottom)][0],
                                          A.hcomp_cell_table[(r1, top_lm)])]
                rhs = A.vcomp_cell_table[(A.hcomp_cell_table[(A.hcomp_cell_table[(r1, m1)], l1)],
                                          A.assoc[(fl.top, fm.top, fr_.top)][0])]
                rep.require("assoc.natural", lhs == rhs, (l1, m1, r1))

    # naturality of the unitors
    for c in A.cells:
        fr = A.cell_frames[c]
        lhs = A.vcomp_cell_table[(A.lunit[fr.bottom][0],
                                  A.hcomp_cell_table[(A.hid_cell[fr.right], c)])]
        rhs = A.vcomp_cell_table[(c, A.lunit[fr.top][0])]
        rep.require("lunit.natural", lhs == rhs, (c,))
        lhs = A.vcomp_cell_table[(A.runit[fr.bottom][0],
                                  A.hcomp_cell_table[(c, A.hid_cell[fr.left])])]
        rhs = A.vcomp_cell_table[(c, A.runit[fr.top][0])]
        rep.require("runit.natural", lhs == rhs, (c,))

    # pentagon and triangle
    out_of = {}
    for f in A.hmors:
        out_of.setdefault(A.hmor_src[f], []).append(f)
    for f in A.hmors:
        for g in out_of.get(A.hmor_tgt[f], ()):
            gf = A.hcomp_hmor_table[(g, f)]
            for h in out_of.get(A.hmor_tgt[g], ()):
                hg = A.hcomp_hmor_table[(h, g)]
                for k in out_of.get(A.hmor_tgt[h], ()):
                    kh = A.hcomp_hmor_table[(k, h)]
                    p1 = A.vcomp_cells(
                        A.hcomp_cell_table[(A.assoc[(g, h, k)][0], A.vid_cell[f])],
                        A.assoc[(f, hg, k)][0],
                        A.hcomp_cell_table[(A.vid_cell[k], A.assoc[(f, g, h)][0])],
                    )
                    p2 = A.vcomp_cells(A.assoc[(f, g, kh)][0], A.assoc[(gf, h, k)][0])
                    rep.require("pentagon", p1 == p2, (f, g, h, k))
    for f in A.hmors:
        b = A.hmor_tgt[f]
        for g in out_of.get(b, ()):
            lhs = A.vcomp_cell_table[(A.hcomp_cell_table[(A.vid_cell[g], A.lunit[f][0])],
                                      A.assoc[(f, A.h_identity[b], g)][0])]
            rhs = A.hcomp_cell_table[(A.runit[g][0], A.vid_cell[f])]
            rep.require("triangle", lhs == rhs, (f, g))

    # bookkeeping: instance counts make reports comparable across runs
    rep.params["objects"] = len(A.objects)
    rep.params["vmors"] = len(A.vmors)
    rep.params["hmors"] = len(A.hmors)
    rep.params["cells"] = len(A.cells)
    rep.params["vid_cells"] = len(vid_vals)
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
