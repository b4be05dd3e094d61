"""Morphism-level calculus: pseudo double functors, vertical and horizontal
pseudo transformations, modifications, their exact axiom checkers, exhaustive
enumerators, and the hom pseudo double category.

Orientation conventions (matching core):

* the unit constraint of a functor points 1 -> F1 and the composition
  constraint points Fg.Ff -> F(g.f);
* the component of a horizontal pseudo transformation t: F -> G at a
  horizontal f: a -> b points  t_b . Ff  ->  Gf . t_a  (so the component of
  the interchanger at an object is literally the stored pseudonaturality
  cell, with no repackaging).

Functor domains are always finite tables; codomains may be any structure
exposing the table interface (in particular a lazy strictification).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Frame, TableDouble, full_sub
from .report import Report


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

@dataclass
class PseudoDoubleFunctor:
    dom: TableDouble
    cod: object
    obj_map: dict
    vmor_map: dict
    hmor_map: dict
    cell_map: dict
    phi0: dict                  # object a -> cell 1_{Fa} -> F(1_a)
    phi2: dict                  # (f, g), f first -> cell Fg.Ff -> F(g.f)
    name: str = ""

    def obj(self, a):
        return self.obj_map[a]

    def vmor(self, u):
        return self.vmor_map[u]

    def hmor(self, f):
        return self.hmor_map[f]

    def cell(self, c):
        return self.cell_map[c]

    def frame(self, fr: Frame) -> Frame:
        """The image of a frame of the domain."""
        return Frame(self.hmor(fr.top), self.hmor(fr.bottom),
                     self.vmor(fr.left), self.vmor(fr.right))

    def key(self):
        return ("fun",
                tuple(sorted(self.obj_map.items())),
                tuple(sorted(self.vmor_map.items())),
                tuple(sorted(self.hmor_map.items())),
                tuple(sorted(self.cell_map.items())),
                tuple(sorted(self.phi0.items())),
                tuple(sorted(self.phi2.items())))


@dataclass
class VerticalTransformation:
    src: PseudoDoubleFunctor
    tgt: PseudoDoubleFunctor
    at_obj: dict                # a -> vertical morphism Fa -> Ga
    at_hmor: dict               # f -> cell Ff => Gf
    name: str = ""

    def key(self):
        return ("vt", tuple(sorted(self.at_obj.items())),
                tuple(sorted(self.at_hmor.items())))


@dataclass
class HorizontalPseudoTransformation:
    src: PseudoDoubleFunctor
    tgt: PseudoDoubleFunctor
    at_obj: dict                # a -> horizontal morphism Fa -> Ga
    at_vmor: dict               # u -> cell t_a => t_b
    at_hmor: dict               # f -> (cell t_b.Ff -> Gf.t_a, inverse)
    name: str = ""

    def key(self):
        return ("ht", tuple(sorted(self.at_obj.items())),
                tuple(sorted(self.at_vmor.items())),
                tuple(sorted(self.at_hmor.items())))


@dataclass
class Modification:
    top: HorizontalPseudoTransformation
    bottom: HorizontalPseudoTransformation
    left: VerticalTransformation
    right: VerticalTransformation
    at_obj: dict                # a -> cell top_a => bottom_a
    name: str = ""

    def key(self):
        return ("mod", tuple(sorted(self.at_obj.items())))


# ---------------------------------------------------------------------------
# identities, composition, whiskering
# ---------------------------------------------------------------------------

def identity_functor(A: TableDouble) -> PseudoDoubleFunctor:
    return PseudoDoubleFunctor(
        dom=A, cod=A,
        obj_map={a: a for a in A.objects},
        vmor_map={u: u for u in A.vmors},
        hmor_map={f: f for f in A.hmors},
        cell_map={c: c for c in A.cells},
        phi0={a: A.vid_of(A.h_id(a)) for a in A.objects},
        phi2={(f, g): A.vid_of(gf) for (g, f), gf in A.hcomp_hmor_table.items()},
        name=f"1_{A.name}",
    )


def is_strict_functor(F: PseudoDoubleFunctor) -> bool:
    B = F.cod
    for a in F.dom.objects:
        if F.hmor(F.dom.h_id(a)) != B.h_id(F.obj(a)):
            return False
        if F.phi0[a] != B.vid_of(B.h_id(F.obj(a))):
            return False
    for (g, f), gf in F.dom.hcomp_hmor_table.items():
        composite = B.hcomp_hmor(F.hmor(g), F.hmor(f))
        if F.hmor(gf) != composite or F.phi2[(f, g)] != B.vid_of(composite):
            return False
    return True


def compose_functors(G: PseudoDoubleFunctor, F: PseudoDoubleFunctor) -> PseudoDoubleFunctor:
    """G after F; F's codomain must be G's (finite) domain."""
    B = G.cod
    phi0 = {a: B.vcomp_cells(G.phi0[F.obj(a)], G.cell(F.phi0[a])) for a in F.dom.objects}
    phi2 = {}
    for (g2, f2) in F.dom.hcomp_hmor_table:
        phi2[(f2, g2)] = B.vcomp_cells(G.phi2[(F.hmor(f2), F.hmor(g2))],
                                       G.cell(F.phi2[(f2, g2)]))
    return PseudoDoubleFunctor(
        dom=F.dom, cod=G.cod,
        obj_map={a: G.obj(F.obj(a)) for a in F.dom.objects},
        vmor_map={u: G.vmor(F.vmor(u)) for u in F.dom.vmors},
        hmor_map={f: G.hmor(F.hmor(f)) for f in F.dom.hmors},
        cell_map={c: G.cell(F.cell(c)) for c in F.dom.cells},
        phi0=phi0, phi2=phi2,
        name=f"{G.name}.{F.name}",
    )


def identity_vertical(F: PseudoDoubleFunctor) -> VerticalTransformation:
    B = F.cod
    return VerticalTransformation(
        src=F, tgt=F,
        at_obj={a: B.v_id(F.obj(a)) for a in F.dom.objects},
        at_hmor={f: B.vid_of(F.hmor(f)) for f in F.dom.hmors},
    )


def compose_vertical(t: VerticalTransformation, s: VerticalTransformation) -> VerticalTransformation:
    """t after s (s: F -> G, t: G -> H)."""
    B = s.src.cod
    return VerticalTransformation(
        src=s.src, tgt=t.tgt,
        at_obj={a: B.vcomp_vmor(t.at_obj[a], s.at_obj[a]) for a in s.at_obj},
        at_hmor={f: B.vcomp_cells(s.at_hmor[f], t.at_hmor[f]) for f in s.at_hmor},
    )


def identity_horizontal(F: PseudoDoubleFunctor) -> HorizontalPseudoTransformation:
    B = F.cod
    at_hmor = {}
    for f in F.dom.hmors:
        Ff = F.hmor(f)
        cell = B.vcomp_cells(B.lunit_of(Ff)[0], B.runit_of(Ff)[1])
        inv = B.vcomp_cells(B.runit_of(Ff)[0], B.lunit_of(Ff)[1])
        at_hmor[f] = (cell, inv)
    return HorizontalPseudoTransformation(
        src=F, tgt=F,
        at_obj={a: B.h_id(F.obj(a)) for a in F.dom.objects},
        at_vmor={u: B.hid_of(F.vmor(u)) for u in F.dom.vmors},
        at_hmor=at_hmor,
    )


def hcomp_horizontal(t2: HorizontalPseudoTransformation,
                     t1: HorizontalPseudoTransformation) -> HorizontalPseudoTransformation:
    """t2 after t1 (t1: F -> G, t2: G -> H)."""
    F, G, H = t1.src, t1.tgt, t2.tgt
    B = F.cod
    at_obj = {a: B.hcomp_hmor(t2.at_obj[a], t1.at_obj[a]) for a in t1.at_obj}
    at_vmor = {u: B.hcomp_cell(t2.at_vmor[u], t1.at_vmor[u]) for u in t1.at_vmor}
    at_hmor = {}
    for f in F.dom.hmors:
        a, b = F.dom.hsrc(f), F.dom.htgt(f)
        Ff, Gf, Hf = F.hmor(f), G.hmor(f), H.hmor(f)
        fwd = B.vcomp_cells(
            B.assoc_of(Ff, t1.at_obj[b], t2.at_obj[b])[0],
            B.hcomp_cell(B.vid_of(t2.at_obj[b]), t1.at_hmor[f][0]),
            B.assoc_of(t1.at_obj[a], Gf, t2.at_obj[b])[1],
            B.hcomp_cell(t2.at_hmor[f][0], B.vid_of(t1.at_obj[a])),
            B.assoc_of(t1.at_obj[a], t2.at_obj[a], Hf)[0],
        )
        bwd = B.vcomp_cells(
            B.assoc_of(t1.at_obj[a], t2.at_obj[a], Hf)[1],
            B.hcomp_cell(t2.at_hmor[f][1], B.vid_of(t1.at_obj[a])),
            B.assoc_of(t1.at_obj[a], Gf, t2.at_obj[b])[0],
            B.hcomp_cell(B.vid_of(t2.at_obj[b]), t1.at_hmor[f][1]),
            B.assoc_of(Ff, t1.at_obj[b], t2.at_obj[b])[1],
        )
        at_hmor[f] = (fwd, bwd)
    return HorizontalPseudoTransformation(src=F, tgt=H, at_obj=at_obj,
                                          at_vmor=at_vmor, at_hmor=at_hmor)


def whisker_post_functor(h: PseudoDoubleFunctor, t):
    """Post-compose a transformation or modification with a functor h."""
    B = h.cod
    if isinstance(t, VerticalTransformation):
        return VerticalTransformation(
            src=compose_functors(h, t.src), tgt=compose_functors(h, t.tgt),
            at_obj={a: h.vmor(t.at_obj[a]) for a in t.at_obj},
            at_hmor={f: h.cell(t.at_hmor[f]) for f in t.at_hmor},
        )
    if isinstance(t, HorizontalPseudoTransformation):
        F, G = t.src, t.tgt
        at_hmor = {}
        for f in F.dom.hmors:
            a, b = F.dom.hsrc(f), F.dom.htgt(f)
            fwd = B.vcomp_cells(
                h.phi2[(F.hmor(f), t.at_obj[b])],
                h.cell(t.at_hmor[f][0]),
                B.inv(h.phi2[(t.at_obj[a], G.hmor(f))]),
            )
            bwd = B.vcomp_cells(
                h.phi2[(t.at_obj[a], G.hmor(f))],
                h.cell(t.at_hmor[f][1]),
                B.inv(h.phi2[(F.hmor(f), t.at_obj[b])]),
            )
            at_hmor[f] = (fwd, bwd)
        return HorizontalPseudoTransformation(
            src=compose_functors(h, F), tgt=compose_functors(h, G),
            at_obj={a: h.hmor(t.at_obj[a]) for a in t.at_obj},
            at_vmor={u: h.cell(t.at_vmor[u]) for u in t.at_vmor},
            at_hmor=at_hmor,
        )
    if isinstance(t, Modification):
        return Modification(
            top=whisker_post_functor(h, t.top), bottom=whisker_post_functor(h, t.bottom),
            left=whisker_post_functor(h, t.left), right=whisker_post_functor(h, t.right),
            at_obj={a: h.cell(t.at_obj[a]) for a in t.at_obj},
        )
    raise TypeError(type(t))


def whisker_pre_functor(t, h: PseudoDoubleFunctor):
    """Pre-compose with h; strict on the nose (no constraint corrections)."""
    if isinstance(t, VerticalTransformation):
        return VerticalTransformation(
            src=compose_functors(t.src, h), tgt=compose_functors(t.tgt, h),
            at_obj={a: t.at_obj[h.obj(a)] for a in h.dom.objects},
            at_hmor={f: t.at_hmor[h.hmor(f)] for f in h.dom.hmors},
        )
    if isinstance(t, HorizontalPseudoTransformation):
        return HorizontalPseudoTransformation(
            src=compose_functors(t.src, h), tgt=compose_functors(t.tgt, h),
            at_obj={a: t.at_obj[h.obj(a)] for a in h.dom.objects},
            at_vmor={u: t.at_vmor[h.vmor(u)] for u in h.dom.vmors},
            at_hmor={f: t.at_hmor[h.hmor(f)] for f in h.dom.hmors},
        )
    if isinstance(t, Modification):
        return Modification(
            top=whisker_pre_functor(t.top, h), bottom=whisker_pre_functor(t.bottom, h),
            left=whisker_pre_functor(t.left, h), right=whisker_pre_functor(t.right, h),
            at_obj={a: t.at_obj[h.obj(a)] for a in h.dom.objects},
        )
    raise TypeError(type(t))


def interchanger(alpha: HorizontalPseudoTransformation,
                 beta: HorizontalPseudoTransformation) -> Modification:
    """The canonical invertible modification  (beta g).(h alpha) -> (k alpha).(beta f)
    for alpha: f -> g over A -> B and beta: h -> k over B -> C, with component
    at a the stored pseudonaturality cell of beta at the morphism alpha_a."""
    f, g = alpha.src, alpha.tgt
    h, k = beta.src, beta.tgt
    top = hcomp_horizontal(whisker_pre_functor(beta, g), whisker_post_functor(h, alpha))
    bottom = hcomp_horizontal(whisker_post_functor(k, alpha), whisker_pre_functor(beta, f))
    return Modification(
        top=top, bottom=bottom,
        left=identity_vertical(compose_functors(h, f)),
        right=identity_vertical(compose_functors(k, g)),
        at_obj={a: beta.at_hmor[alpha.at_obj[a]][0] for a in alpha.at_obj},
    )


def interchanger_inv(alpha, beta) -> Modification:
    """The vertical inverse of interchanger(alpha, beta): the same identity
    verticals, top and bottom swapped, the stored inverse components."""
    m = interchanger(alpha, beta)
    return Modification(top=m.bottom, bottom=m.top, left=m.left, right=m.right,
                        at_obj={a: beta.at_hmor[alpha.at_obj[a]][1] for a in alpha.at_obj})


# ---------------------------------------------------------------------------
# checkers: exact decision procedures over finite domains
# ---------------------------------------------------------------------------

def check_functor(F: PseudoDoubleFunctor) -> Report:
    A, B = F.dom, F.cod
    rep = Report(f"check_functor({F.name or '?'})")

    for a in A.objects:
        rep.require("fun.vid", F.vmor(A.v_id(a)) == B.v_id(F.obj(a)), (a,))
    for (w, u), wu in A.vcomp_vmor_table.items():
        rep.require("fun.vcomp", F.vmor(wu) == B.vcomp_vmor(F.vmor(w), F.vmor(u)), (u, w))
    for u in A.vmors:
        rep.require("fun.vmor.typed",
                    B.vsrc(F.vmor(u)) == F.obj(A.vsrc(u)) and B.vtgt(F.vmor(u)) == F.obj(A.vtgt(u)),
                    (u,))
    for f in A.hmors:
        rep.require("fun.hmor.typed",
                    B.hsrc(F.hmor(f)) == F.obj(A.hsrc(f)) and B.htgt(F.hmor(f)) == F.obj(A.htgt(f)),
                    (f,))
    for c in A.cells:
        rep.require("fun.cell.frame", B.frame(F.cell(c)) == F.frame(A.frame(c)), (c,))
    if rep.failures():
        return rep              # the composites below need well-typed maps
    for f in A.hmors:
        rep.require("fun.cell.vid", F.cell(A.vid_of(f)) == B.vid_of(F.hmor(f)), (f,))
    for (lo, up), out in A.vcomp_cell_table.items():
        rep.require("fun.cell.vcomp",
                    F.cell(out) == B.vcomp_cell(F.cell(lo), F.cell(up)), (up, lo))

    # constraints: globular and invertible
    for a in A.objects:
        c = F.phi0[a]
        fr = B.frame(c)
        ok = (fr.top == B.h_id(F.obj(a)) and fr.bottom == F.hmor(A.h_id(a))
              and B.is_globular(c))
        rep.require("fun.phi0.frame", ok, (a,))
        if ok:
            rep.require("fun.phi0.invertible", B.inverse_of(c) is not None, (a,))
    for (g, f), gf in A.hcomp_hmor_table.items():
        c = F.phi2[(f, g)]
        fr = B.frame(c)
        ok = (fr.top == B.hcomp_hmor(F.hmor(g), F.hmor(f)) and fr.bottom == F.hmor(gf)
              and B.is_globular(c))
        rep.require("fun.phi2.frame", ok, (f, g))
        if ok:
            rep.require("fun.phi2.invertible", B.inverse_of(c) is not None, (f, g))
    if rep.failures():
        return rep

    # naturality of phi0 with respect to vertical morphisms
    for u in A.vmors:
        a, b = A.vsrc(u), A.vtgt(u)
        lhs = B.vcomp_cells(F.phi0[a], F.cell(A.hid_of(u)))
        rhs = B.vcomp_cells(B.hid_of(F.vmor(u)), F.phi0[b])
        rep.require("fun.phi0.natural", lhs == rhs, (u,))

    # naturality of phi2 with respect to horizontally composable cell pairs
    for (r, l), out in A.hcomp_cell_table.items():
        fl, fr_ = A.frame(l), A.frame(r)
        lhs = B.vcomp_cells(B.hcomp_cell(F.cell(r), F.cell(l)),
                            F.phi2[(fl.bottom, fr_.bottom)])
        rhs = B.vcomp_cells(F.phi2[(fl.top, fr_.top)], F.cell(out))
        rep.require("fun.phi2.natural", lhs == rhs, (l, r))

    # associativity coherence
    for (f, g, h), (ac, _) in A.assoc.items():
        gf = A.hcomp_hmor(g, f)
        hg = A.hcomp_hmor(h, g)
        lhs = B.vcomp_cells(
            B.assoc_of(F.hmor(f), F.hmor(g), F.hmor(h))[0],
            B.hcomp_cell(B.vid_of(F.hmor(h)), F.phi2[(f, g)]),
            F.phi2[(gf, h)],
        )
        rhs = B.vcomp_cells(
            B.hcomp_cell(F.phi2[(g, h)], B.vid_of(F.hmor(f))),
            F.phi2[(f, hg)],
            F.cell(ac),
        )
        rep.require("fun.hexagon", lhs == rhs, (f, g, h))

    # unit coherence
    for f in A.hmors:
        a, b = A.hsrc(f), A.htgt(f)
        lhs = B.vcomp_cells(
            B.hcomp_cell(F.phi0[b], B.vid_of(F.hmor(f))),
            F.phi2[(f, A.h_id(b))],
            F.cell(A.lunit_of(f)[0]),
        )
        rep.require("fun.lunit", lhs == B.lunit_of(F.hmor(f))[0], (f,))
        lhs = B.vcomp_cells(
            B.hcomp_cell(B.vid_of(F.hmor(f)), F.phi0[a]),
            F.phi2[(A.h_id(a), f)],
            F.cell(A.runit_of(f)[0]),
        )
        rep.require("fun.runit", lhs == B.runit_of(F.hmor(f))[0], (f,))
    return rep


def check_vertical(t: VerticalTransformation) -> Report:
    F, G = t.src, t.tgt
    A, B = F.dom, F.cod
    rep = Report("check_vertical")
    for a in A.objects:
        v = t.at_obj[a]
        rep.require("vt.typed", B.vsrc(v) == F.obj(a) and B.vtgt(v) == G.obj(a), (a,))
    for u in A.vmors:
        a, b = A.vsrc(u), A.vtgt(u)
        rep.require("vt.natural.vmor",
                    B.vcomp_vmor(t.at_obj[b], F.vmor(u)) ==
                    B.vcomp_vmor(G.vmor(u), t.at_obj[a]), (u,))
    for f in A.hmors:
        a, b = A.hsrc(f), A.htgt(f)
        want = Frame(F.hmor(f), G.hmor(f), t.at_obj[a], t.at_obj[b])
        rep.require("vt.frame", B.frame(t.at_hmor[f]) == want, (f,))
    if rep.failures():
        return rep
    for (g, f), gf in A.hcomp_hmor_table.items():
        lhs = B.vcomp_cells(F.phi2[(f, g)], t.at_hmor[gf])
        rhs = B.vcomp_cells(B.hcomp_cell(t.at_hmor[g], t.at_hmor[f]), G.phi2[(f, g)])
        rep.require("vt.hfunctorial", lhs == rhs, (f, g))
    for a in A.objects:
        lhs = B.vcomp_cells(F.phi0[a], t.at_hmor[A.h_id(a)])
        rhs = B.vcomp_cells(B.hid_of(t.at_obj[a]), G.phi0[a])
        rep.require("vt.hunit", lhs == rhs, (a,))
    for c in A.cells:
        fr = A.frame(c)
        lhs = B.vcomp_cells(F.cell(c), t.at_hmor[fr.bottom])
        rhs = B.vcomp_cells(t.at_hmor[fr.top], G.cell(c))
        rep.require("vt.natural.cell", lhs == rhs, (c,))
    return rep


def check_horizontal(t: HorizontalPseudoTransformation) -> Report:
    F, G = t.src, t.tgt
    A, B = F.dom, F.cod
    rep = Report("check_horizontal")
    for a in A.objects:
        x = t.at_obj[a]
        rep.require("ht.typed", B.hsrc(x) == F.obj(a) and B.htgt(x) == G.obj(a), (a,))
    for u in A.vmors:
        a, b = A.vsrc(u), A.vtgt(u)
        want = Frame(t.at_obj[a], t.at_obj[b], F.vmor(u), G.vmor(u))
        rep.require("ht.vframe", B.frame(t.at_vmor[u]) == want, (u,))
    for f in A.hmors:
        a, b = A.hsrc(f), A.htgt(f)
        cell, inv = t.at_hmor[f]
        src_h = B.hcomp_hmor(t.at_obj[b], F.hmor(f))
        tgt_h = B.hcomp_hmor(G.hmor(f), t.at_obj[a])
        fr = B.frame(cell)
        ok = fr.top == src_h and fr.bottom == tgt_h and B.is_globular(cell)
        rep.require("ht.hframe", ok, (f,))
        if ok:
            rep.require("ht.invertible",
                        B.vcomp_cell(inv, cell) == B.vid_of(src_h)
                        and B.vcomp_cell(cell, inv) == B.vid_of(tgt_h), (f,))
    if rep.failures():
        return rep
    for a in A.objects:
        rep.require("ht.vid", t.at_vmor[A.v_id(a)] == B.vid_of(t.at_obj[a]), (a,))
    for (w, u), wu in A.vcomp_vmor_table.items():
        rep.require("ht.vfunctorial",
                    t.at_vmor[wu] == B.vcomp_cells(t.at_vmor[u], t.at_vmor[w]), (u, w))
    # unit coherence
    for a in A.objects:
        x = t.at_obj[a]
        want = B.vcomp_cells(
            B.hcomp_cell(B.vid_of(x), B.inv(F.phi0[a])),
            B.runit_of(x)[0],
            B.lunit_of(x)[1],
            B.hcomp_cell(G.phi0[a], B.vid_of(x)),
        )
        rep.require("ht.unitcoh", t.at_hmor[A.h_id(a)][0] == want, (a,))
    # composition coherence
    for (g, f), gf in A.hcomp_hmor_table.items():
        a = A.hsrc(f)
        b = A.htgt(f)
        c = A.htgt(g)
        tc, tb, ta = t.at_obj[c], t.at_obj[b], t.at_obj[a]
        want = B.vcomp_cells(
            B.hcomp_cell(B.vid_of(tc), B.inv(F.phi2[(f, g)])),
            B.assoc_of(F.hmor(f), F.hmor(g), tc)[1],
            B.hcomp_cell(t.at_hmor[g][0], B.vid_of(F.hmor(f))),
            B.assoc_of(F.hmor(f), tb, G.hmor(g))[0],
            B.hcomp_cell(B.vid_of(G.hmor(g)), t.at_hmor[f][0]),
            B.assoc_of(ta, G.hmor(f), G.hmor(g))[1],
            B.hcomp_cell(G.phi2[(f, g)], B.vid_of(ta)),
        )
        rep.require("ht.compcoh", t.at_hmor[gf][0] == want, (f, g))
    # naturality with respect to cells
    for cc in A.cells:
        fr = A.frame(cc)
        u, v = fr.left, fr.right
        lhs = B.vcomp_cells(B.hcomp_cell(t.at_vmor[v], F.cell(cc)), t.at_hmor[fr.bottom][0])
        rhs = B.vcomp_cells(t.at_hmor[fr.top][0], B.hcomp_cell(G.cell(cc), t.at_vmor[u]))
        rep.require("ht.natural.cell", lhs == rhs, (cc,))
    return rep


def check_modification(m: Modification) -> Report:
    t, b_, s, r = m.top, m.bottom, m.left, m.right
    A, B = t.src.dom, t.src.cod
    rep = Report("check_modification")
    for a in A.objects:
        want = Frame(t.at_obj[a], b_.at_obj[a], s.at_obj[a], r.at_obj[a])
        rep.require("mod.frame", B.frame(m.at_obj[a]) == want, (a,))
    if rep.failures():
        return rep
    for u in A.vmors:
        x, y = A.vsrc(u), A.vtgt(u)
        lhs = B.vcomp_cells(t.at_vmor[u], m.at_obj[y])
        rhs = B.vcomp_cells(m.at_obj[x], b_.at_vmor[u])
        rep.require("mod.vnatural", lhs == rhs, (u,))
    for f in A.hmors:
        x, y = A.hsrc(f), A.htgt(f)
        lhs = B.vcomp_cells(B.hcomp_cell(m.at_obj[y], s.at_hmor[f]), b_.at_hmor[f][0])
        rhs = B.vcomp_cells(t.at_hmor[f][0], B.hcomp_cell(r.at_hmor[f], m.at_obj[x]))
        rep.require("mod.hnatural", lhs == rhs, (f,))
    return rep


# ---------------------------------------------------------------------------
# enumerators
# ---------------------------------------------------------------------------

DEFAULT_MAX_CANDIDATES = 10 ** 6


class Truncated(Exception):
    pass


def within_budget(candidates, max_candidates=None):
    """Pass the candidates through, raising Truncated at the first one past
    the budget; None means DEFAULT_MAX_CANDIDATES.  The one place where
    enumeration is counted against the budget."""
    if max_candidates is None:
        max_candidates = DEFAULT_MAX_CANDIDATES
    for n, x in enumerate(candidates, 1):
        if n > max_candidates:
            raise Truncated()
        yield x


def _members(candidates, check, prefix):
    """The candidates that pass the check, named prefix0, prefix1, ..."""
    out = []
    for x in candidates:
        if check(x).ok:
            x.name = f"{prefix}{len(out)}"
            out.append(x)
    return out


def _search(choices, slots, max_candidates):
    """Bind name i in turn to each value of ``choices[i](vals)``, where vals
    holds the values of names 0..i-1, so complete bindings come in product
    order.  A slot (i, fill) gets its list ``fill(vals)`` once names 0..i-1
    are bound, and a branch where a list is empty is cut.  Yields (vals,
    pick) for each complete binding and each pick from its slot lists, in
    product order, counted against the budget.  vals is live: copy what you
    keep before drawing the next."""
    ready = [[] for _ in range(len(choices) + 1)]
    for k, (i, _) in enumerate(slots):
        ready[i].append(k)
    vals, lists = [], [None] * len(slots)

    def search(i):
        for k in ready[i]:
            lists[k] = slots[k][1](vals)
            if not lists[k]:
                return
        if i == len(choices):
            yield from zip(itertools.repeat(vals), itertools.product(*lists))
            return
        for x in choices[i](vals):
            vals.append(x)
            yield from search(i + 1)
            vals.pop()

    return within_budget(search(0), max_candidates)


def iter_functor_candidates(A: TableDouble, B, require_invertible=True,
                            max_candidates=None):
    """Frame-typed functor data A -> B, not yet filtered by the axioms.

    Identity vertical morphisms and identity cells of horizontal morphisms
    are forced by functoriality and the horizontal identity cells of
    vertical morphisms by naturality of the unit constraint; everything else
    ranges over all frame-compatible choices (constraints restricted to
    invertible cells unless asked not to).

    One `_search` binds the objects, the vertical morphisms and then the
    horizontal morphisms, so a branch whose vertical composites fail, or
    where a phi0, phi2 or cell slot has no candidate, is cut.  The budget
    counts the candidates, and also each vertical part (objects and
    vertical morphisms) before its composites are checked.
    """
    invertible = {c for c in B.cells if B.inverse_of(c) is not None}
    vid_vals = set(A.vid_cell.values())
    hid_vals = set(A.hid_cell.values())
    if require_invertible:
        # hid images are forced by naturality of the unit constraint
        free_cells = [c for c in A.cells if c not in vid_vals and c not in hid_vals]
    else:
        free_cells = [c for c in A.cells if c not in vid_vals]
    p2keys = [(f, g) for (g, f) in A.hcomp_hmor_table]
    n0, nh = len(A.objects), len(A.objects) + len(A.vmors)
    n2 = 1 + n0 + len(p2keys)
    # positions in vals, one map per kind: ids need not differ across kinds
    ob = {a: i for i, a in enumerate(A.objects)}
    vm = {u: n0 + i for i, u in enumerate(A.vmors)}
    hm = {f: nh + i for i, f in enumerate(A.hmors)}
    unit_of = {u: a for a, u in A.v_identity.items()}
    parts = within_budget(itertools.repeat(None), max_candidates)

    def vmors(u):
        if u in unit_of:
            return lambda vals: [B.v_id(vals[ob[unit_of[u]]])]
        return lambda vals: [v for v in B.vmors if B.vsrc(v) == vals[ob[A.vsrc(u)]]
                             and B.vtgt(v) == vals[ob[A.vtgt(u)]]]

    def composites(vals):
        next(parts)
        return [None] if all(vals[vm[wu]] == B.vcomp_vmor(vals[vm[w]], vals[vm[u]])
                             for (w, u), wu in A.vcomp_vmor_table.items()) else []

    def constraints(src_h, tgt_h):
        return [c for c in B.globular_cells(src_h, tgt_h)
                if not require_invertible or c in invertible]

    choices = ([lambda vals: B.objects] * n0 + [vmors(u) for u in A.vmors]
               + [lambda vals, f=f: [x for x in B.hmors if B.hsrc(x) == vals[ob[A.hsrc(f)]]
                                     and B.htgt(x) == vals[ob[A.htgt(f)]]] for f in A.hmors])
    # (names bound, candidate list): composites, phi0, phi2, cells
    slots = ([(nh, composites)]
             + [(hm[A.h_id(a)] + 1, lambda vals, a=a: constraints(
                 B.h_id(vals[ob[a]]), vals[hm[A.h_id(a)]])) for a in A.objects]
             + [(max(hm[f], hm[g], hm[gf]) + 1, lambda vals, f=f, g=g, gf=gf: constraints(
                 B.hcomp_hmor(vals[hm[g]], vals[hm[f]]), vals[hm[gf]]))
                for (g, f), gf in A.hcomp_hmor_table.items()]
             + [(max(hm[fr.top], hm[fr.bottom]) + 1, lambda vals, fr=fr: B.cells_with_frame(
                 Frame(vals[hm[fr.top]], vals[hm[fr.bottom]], vals[vm[fr.left]],
                       vals[vm[fr.right]]))) for fr in map(A.frame, free_cells)])
    for vals, pick in _search(choices, slots, max_candidates):
        vmor_map, hmor_map = dict(zip(A.vmors, vals[n0:nh])), dict(zip(A.hmors, vals[nh:]))
        phi0 = dict(zip(A.objects, pick[1:1 + n0]))
        cell_map = dict(zip(free_cells, pick[n2:]))
        for f in A.hmors:
            cell_map[A.vid_of(f)] = B.vid_of(hmor_map[f])
        for u in A.vmors:
            c = A.hid_of(u)
            if c not in cell_map:
                cell_map[c] = B.vcomp_cells(B.inv(phi0[A.vsrc(u)]), B.hid_of(vmor_map[u]),
                                            phi0[A.vtgt(u)])
        yield PseudoDoubleFunctor(A, B, dict(zip(A.objects, vals[:n0])), vmor_map, hmor_map,
                                  cell_map, phi0, dict(zip(p2keys, pick[1 + n0:n2])))


def iter_vertical_candidates(F: PseudoDoubleFunctor, G: PseudoDoubleFunctor,
                             max_candidates=None):
    """Frame-typed vertical transformation data F -> G, not yet filtered by
    the axioms."""
    A, B = F.dom, F.cod
    ob = {a: i for i, a in enumerate(A.objects)}
    choices = [lambda vals, a=a: [v for v in B.vmors if B.vsrc(v) == F.obj(a)
                                  and B.vtgt(v) == G.obj(a)] for a in A.objects]
    slots = [(len(ob), lambda vals, f=f: B.cells_with_frame(
        Frame(F.hmor(f), G.hmor(f), vals[ob[A.hsrc(f)]], vals[ob[A.htgt(f)]])))
        for f in A.hmors]
    for vals, pick in _search(choices, slots, max_candidates):
        yield VerticalTransformation(F, G, dict(zip(A.objects, vals)), dict(zip(A.hmors, pick)))


def iter_horizontal_candidates(F: PseudoDoubleFunctor, G: PseudoDoubleFunctor,
                               max_candidates=None):
    """Frame-typed horizontal pseudo transformation data F -> G, with
    invertible components, not yet filtered by the axioms."""
    A, B = F.dom, F.cod
    ob = {a: i for i, a in enumerate(A.objects)}
    choices = [lambda vals, a=a: [x for x in B.hmors if B.hsrc(x) == F.obj(a)
                                  and B.htgt(x) == G.obj(a)] for a in A.objects]

    def pseudo(f):
        """The (cell, inverse) pairs  t_b . Ff -> Gf . t_a."""
        a, b = ob[A.hsrc(f)], ob[A.htgt(f)]
        return lambda vals: [(c, B.inverse_of(c)) for c in B.globular_cells(
            B.hcomp_hmor(vals[b], F.hmor(f)), B.hcomp_hmor(G.hmor(f), vals[a]))
            if B.inverse_of(c) is not None]

    slots = ([(len(ob), lambda vals, u=u: B.cells_with_frame(
        Frame(vals[ob[A.vsrc(u)]], vals[ob[A.vtgt(u)]], F.vmor(u), G.vmor(u))))
        for u in A.vmors] + [(len(ob), pseudo(f)) for f in A.hmors])
    for vals, pick in _search(choices, slots, max_candidates):
        yield HorizontalPseudoTransformation(F, G, dict(zip(A.objects, vals)),
                                             dict(zip(A.vmors, pick)),
                                             dict(zip(A.hmors, pick[len(A.vmors):])))


def iter_modification_candidates(top, bottom, left, right, max_candidates=None):
    """Frame-typed modification data in the given frame, not yet filtered by
    the axioms."""
    A, B = top.src.dom, top.src.cod
    slots = [(0, lambda vals, a=a: B.cells_with_frame(
        Frame(top.at_obj[a], bottom.at_obj[a], left.at_obj[a], right.at_obj[a])))
        for a in A.objects]
    for _, pick in _search([], slots, max_candidates):
        yield Modification(top, bottom, left, right, dict(zip(A.objects, pick)))


def enumerate_functors(A: TableDouble, B, max_candidates=None):
    """All pseudo double functors A -> B, complete and duplicate-free.

    The naive oracle in the tests re-derives the same set from raw tuples.
    """
    return _members(iter_functor_candidates(A, B, True, max_candidates), check_functor, "F")


def enumerate_vertical(F: PseudoDoubleFunctor, G: PseudoDoubleFunctor, max_candidates=None):
    return _members(iter_vertical_candidates(F, G, max_candidates), check_vertical, "v")


def enumerate_horizontal(F: PseudoDoubleFunctor, G: PseudoDoubleFunctor, max_candidates=None):
    return _members(iter_horizontal_candidates(F, G, max_candidates), check_horizontal, "h")


def enumerate_modifications(top, bottom, left, right, max_candidates=None):
    return _members(iter_modification_candidates(top, bottom, left, right, max_candidates),
                    check_modification, "m")


# ---------------------------------------------------------------------------
# the hom pseudo double category
# ---------------------------------------------------------------------------

@dataclass
class HomDouble:
    """Materialised Hom(A, B) together with the dictionaries back to data."""
    dom: TableDouble            # A
    cod: TableDouble            # B
    table: TableDouble
    functors: dict              # id -> PseudoDoubleFunctor
    verticals: dict             # id -> VerticalTransformation
    horizontals: dict           # id -> HorizontalPseudoTransformation
    modifications: dict         # id -> Modification
    _ids: dict                  # datum key, as built by id_of and cell_id -> id

    def id_of(self, x):
        """The id in this hom of a functor, a vertical or horizontal
        transformation, or a modification."""
        if isinstance(x, PseudoDoubleFunctor):
            return self._ids[x.key()]
        if isinstance(x, Modification):
            return self.cell_id(Frame(self.id_of(x.top), self.id_of(x.bottom),
                                      self.id_of(x.left), self.id_of(x.right)), x.at_obj)
        return self._ids[(self.id_of(x.src), self.id_of(x.tgt), x.key())]

    def cell_id(self, frame, at_obj):
        """The id of the modification in frame, a Frame of this hom's ids,
        with components at_obj (object of the domain -> cell)."""
        return self._ids[(frame, tuple(sorted(at_obj.items())))]


def hom_double(A: TableDouble, B: TableDouble, max_candidates=None) -> HomDouble:
    """The pseudo double category of functors A -> B, vertical transformations,
    horizontal pseudo transformations, and modifications."""
    hom = HomDouble(A, B, None, {}, {}, {}, {}, {})
    ids, id_of = hom._ids, hom.id_of
    functors, verticals, horizontals, modifications = (
        hom.functors, hom.verticals, hom.horizontals, hom.modifications)
    for F in enumerate_functors(A, B, max_candidates):
        functors[F.name] = F
        ids[F.key()] = F.name

    def transformations(enumerate_, identity, prefix, store):
        src, tgt = {}, {}
        for i, F in functors.items():
            for j, G in functors.items():
                for t in enumerate_(F, G, max_candidates):
                    x = f"{prefix}{len(store)}"
                    store[x], src[x], tgt[x] = t, i, j
                    ids[(i, j, t.key())] = x
        return src, tgt, {i: ids[(i, i, identity(F).key())] for i, F in functors.items()}

    vsrc, vtgt, v_identity = transformations(enumerate_vertical, identity_vertical,
                                              "v", verticals)
    hsrc, htgt, h_identity = transformations(enumerate_horizontal, identity_horizontal,
                                              "h", horizontals)

    def by(key, xs):
        """The ids xs grouped by key, each group in id order."""
        groups = {}
        for x in xs:
            groups.setdefault(key(x), []).append(x)
        return groups

    v_ends, v_into = by(lambda v: (vsrc[v], vtgt[v]), verticals), by(vtgt.get, verticals)
    h_from, h_into = by(hsrc.get, horizontals), by(htgt.get, horizontals)

    frames = {}
    for ht_id, t in horizontals.items():
        for hb_id, b_ in horizontals.items():
            for vl_id in v_ends.get((hsrc[ht_id], hsrc[hb_id]), ()):
                for vr_id in v_ends.get((htgt[ht_id], htgt[hb_id]), ()):
                    for m in enumerate_modifications(t, b_, verticals[vl_id], verticals[vr_id],
                                                     max_candidates):
                        mid_ = f"m{len(modifications)}"
                        modifications[mid_] = m
                        frames[mid_] = fr = Frame(ht_id, hb_id, vl_id, vr_id)
                        ids[(fr, tuple(sorted(m.at_obj.items())))] = mid_
    m_above = by(lambda m: frames[m].bottom, modifications)
    m_left = by(lambda m: frames[m].right, modifications)

    vcomp_v = {(id2, id1): id_of(compose_vertical(t2, verticals[id1]))
               for id2, t2 in verticals.items() for id1 in v_into.get(vsrc[id2], ())}
    hcomp_h = {(id2, id1): id_of(hcomp_horizontal(t2, horizontals[id1]))
               for id2, t2 in horizontals.items() for id1 in h_into.get(hsrc[id2], ())}

    # the composites and identities of modifications, componentwise, named
    # by their frames in the tables above
    cell_id = hom.cell_id
    vcomp_c = {(lo, up): cell_id(Frame(frames[up].top, frames[lo].bottom,
                                       vcomp_v[(frames[lo].left, frames[up].left)],
                                       vcomp_v[(frames[lo].right, frames[up].right)]),
                                 {a: B.vcomp_cell(mlo.at_obj[a], modifications[up].at_obj[a])
                                  for a in A.objects})
               for lo, mlo in modifications.items() for up in m_above.get(frames[lo].top, ())}
    hcomp_c = {(r_, l_): cell_id(Frame(hcomp_h[(frames[r_].top, frames[l_].top)],
                                       hcomp_h[(frames[r_].bottom, frames[l_].bottom)],
                                       frames[l_].left, frames[r_].right),
                                 {a: B.hcomp_cell(mr.at_obj[a], modifications[l_].at_obj[a])
                                  for a in A.objects})
               for r_, mr in modifications.items() for l_ in m_left.get(frames[r_].left, ())}
    vid_cell = {h: cell_id(Frame(h, h, v_identity[hsrc[h]], v_identity[htgt[h]]),
                           {a: B.vid_of(t.at_obj[a]) for a in A.objects})
                for h, t in horizontals.items()}
    hid_cell = {v: cell_id(Frame(h_identity[vsrc[v]], h_identity[vtgt[v]], v, v),
                           {a: B.hid_of(s.at_obj[a]) for a in A.objects})
                for v, s in verticals.items()}

    def globular_pair(top, bottom, pairs):
        """The globular modifications top -> bottom and back whose components
        are the (cell, inverse) pairs."""
        left, right = v_identity[hsrc[top]], v_identity[htgt[top]]
        return (cell_id(Frame(top, bottom, left, right), {a: p[0] for a, p in pairs.items()}),
                cell_id(Frame(bottom, top, left, right), {a: p[1] for a, p in pairs.items()}))

    assoc = {(h1, h2, h3): globular_pair(
                 hcomp_h[(hcomp_h[(h3, h2)], h1)], hcomp_h[(h3, hcomp_h[(h2, h1)])],
                 {a: B.assoc_of(t1.at_obj[a], horizontals[h2].at_obj[a],
                                horizontals[h3].at_obj[a]) for a in A.objects})
             for h1, t1 in horizontals.items() for h2 in h_from.get(htgt[h1], ())
             for h3 in h_from.get(htgt[h2], ())}
    lunit = {h: globular_pair(hcomp_h[(h_identity[htgt[h]], h)], h,
                              {a: B.lunit_of(t.at_obj[a]) for a in A.objects})
             for h, t in horizontals.items()}
    runit = {h: globular_pair(hcomp_h[(h, h_identity[hsrc[h]])], h,
                              {a: B.runit_of(t.at_obj[a]) for a in A.objects})
             for h, t in horizontals.items()}

    hom.table = TableDouble(
        name=f"Hom({A.name},{B.name})",
        objects=tuple(functors),
        vmors=tuple(verticals),
        vmor_src=vsrc,
        vmor_tgt=vtgt,
        v_identity=v_identity,
        vcomp_vmor_table=vcomp_v,
        hmors=tuple(horizontals),
        hmor_src=hsrc,
        hmor_tgt=htgt,
        h_identity=h_identity,
        hcomp_hmor_table=hcomp_h,
        cells=tuple(modifications),
        cell_frames=frames,
        vcomp_cell_table=vcomp_c,
        vid_cell=vid_cell,
        hcomp_cell_table=hcomp_c,
        hid_cell=hid_cell,
        assoc=assoc,
        lunit=lunit,
        runit=runit,
    )
    return hom


def ps_sub(A: TableDouble, B: TableDouble, hom: HomDouble | None = None,
           max_candidates=None) -> HomDouble:
    """Full sub double category of Hom(A, B) on the strict double functors."""
    hom = hom or hom_double(A, B, max_candidates)
    T = hom.table
    keep_o = {o for o in T.objects if is_strict_functor(hom.functors[o])}
    keep_v = [v for v in T.vmors if T.vmor_src[v] in keep_o and T.vmor_tgt[v] in keep_o]
    keep_h = [h for h in T.hmors if T.hmor_src[h] in keep_o and T.hmor_tgt[h] in keep_o]
    hs = set(keep_h)
    keep_c = [c for c in T.cells if T.cell_frames[c].top in hs and T.cell_frames[c].bottom in hs]
    sub = full_sub(T, f"Ps({A.name},{B.name})", [o for o in T.objects if o in keep_o],
                   keep_v, keep_h, keep_c)
    return HomDouble(A, B, sub, {o: hom.functors[o] for o in sub.objects},
                     {v: hom.verticals[v] for v in keep_v},
                     {h: hom.horizontals[h] for h in keep_h},
                     {c: hom.modifications[c] for c in keep_c}, hom._ids)
