"""Multivariable calculus: two-variable functors and their transformation
kinds, currying against the hom double category, the skew-closed structure
maps, the comparison functor K into the cartesian product, and the transport
constructions realising the equivalence between one-variable functors off a
product and two-variable functors.

A two-variable functor is stored "flat" (partial functors plus the three
cell families); the curried form is an object of Hom(A, Hom(B, C)) and the
two encodings are mutually inverse on the nose, which the tests confirm by
exhaustive round trips.

Every kind is written in its first variable only: its second variable is the
first variable of its swap skew_s, so each checker runs one half on x and on
skew_s(x).  Each curried component is built by one method (right_at, mod_at,
mod_at_vmor, mods_at_hmor), which the checkers and curry_vertical,
curry_horizontal and curry_modification share.  curry_functor and L =
skew_L read their cells by frame: a cell is named in the hom by the frame its
boundary goes to and its components, with no modification built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Frame, TableDouble, product, terminal
from .homs import (
    HomDouble,
    HorizontalPseudoTransformation,
    Modification,
    PseudoDoubleFunctor,
    VerticalTransformation,
    check_functor,
    check_horizontal,
    check_modification,
    check_vertical,
    compose_functors,
    enumerate_functors,
    enumerate_vertical,
    hcomp_horizontal,
    hom_double,
    identity_functor,
    identity_vertical,
    whisker_post_functor,
    whisker_pre_functor,
)
from .report import Report, StructuralError
from .strictify import Path, st


# ---------------------------------------------------------------------------
# coherence helpers over an arbitrary table interface
# ---------------------------------------------------------------------------

def tree_flatten(C, tree):
    """The leaves of a tree over C, left to right: a tree is a horizontal
    morphism of C (a leaf, whatever its id) or a pair (first, second)."""
    if tree in C.hmor_src:
        return [tree]
    return tree_flatten(C, tree[0]) + tree_flatten(C, tree[1])


def tree_norm_iso(C, tree):
    """(cell, inverse): eval(tree) -> left-nested composite of its leaves."""
    return _norm_iso(st(C), tree)


def _norm_iso(S, tree):
    C = S.base
    if tree in C.hmor_src:
        return (C.vid_of(tree), C.vid_of(tree))
    t1, t2 = tree
    n1, n1i = _norm_iso(S, t1)
    n2, n2i = _norm_iso(S, t2)
    s1, s2 = tree_flatten(C, t1), tree_flatten(C, t2)
    sh, shi = S.xi(Path(C.hsrc(s1[0]), tuple(s1)), Path(C.hsrc(s2[0]), tuple(s2)))
    fwd = C.vcomp_cells(C.hcomp_cell(n2, n1), shi)
    bwd = C.vcomp_cells(sh, C.hcomp_cell(n2i, n1i))
    return (fwd, bwd)


def rebracket_iso(C, tree_from, tree_to):
    """Canonical iso between two bracketings of the same leaf sequence."""
    if tree_flatten(C, tree_from) != tree_flatten(C, tree_to):
        raise StructuralError("rebracket: different leaf sequences")
    S = st(C)
    a, ai = _norm_iso(S, tree_from)
    b, bi = _norm_iso(S, tree_to)
    return (C.vcomp_cells(a, bi), C.vcomp_cells(b, ai))


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

@dataclass
class TwoVarFunctor:
    """Pseudo double functor of two variables (A, B) -> C, stored flat."""
    domA: TableDouble
    domB: TableDouble
    cod: object
    partial_right: dict         # a -> functor F(a,-): B -> C
    partial_left: dict          # c -> functor F(-,c): A -> C
    cell_vh: dict               # (u, g) -> cell F(u,g)
    cell_hv: dict               # (f, v) -> cell F(f,v)
    cell_hh: dict               # (f, g) -> (cell, inverse) F(f,g)
    name: str = ""

    def obj(self, a, c):
        return self.partial_right[a].obj(c)

    def key(self):
        return ("2fun",
                tuple(sorted((a, F.key()) for a, F in self.partial_right.items())),
                tuple(sorted((c, F.key()) for c, F in self.partial_left.items())),
                tuple(sorted(self.cell_vh.items())),
                tuple(sorted(self.cell_hv.items())),
                tuple(sorted(self.cell_hh.items())))

    def vertical_at(self, u) -> VerticalTransformation:
        A, B = self.domA, self.domB
        a, b = A.vsrc(u), A.vtgt(u)
        return VerticalTransformation(
            src=self.partial_right[a], tgt=self.partial_right[b],
            at_obj={c: self.partial_left[c].vmor(u) for c in B.objects},
            at_hmor={g: self.cell_vh[(u, g)] for g in B.hmors},
        )

    def horizontal_at(self, f) -> HorizontalPseudoTransformation:
        A, B = self.domA, self.domB
        a, b = A.hsrc(f), A.htgt(f)
        return HorizontalPseudoTransformation(
            src=self.partial_right[a], tgt=self.partial_right[b],
            at_obj={c: self.partial_left[c].hmor(f) for c in B.objects},
            at_vmor={v: self.cell_hv[(f, v)] for v in B.vmors},
            at_hmor={g: self.cell_hh[(f, g)] for g in B.hmors},
        )


@dataclass
class TwoVarVertical:
    src: TwoVarFunctor
    tgt: TwoVarFunctor
    at_pair: dict               # (a, c) -> vertical morphism
    cell_right: dict            # (a, g) -> cell: component of s(a,-) at g
    cell_left: dict             # (f, c) -> cell: component of s(-,c) at f
    name: str = ""

    def key(self):
        return ("2vt", tuple(sorted(self.at_pair.items())),
                tuple(sorted(self.cell_right.items())),
                tuple(sorted(self.cell_left.items())))

    def right_at(self, a) -> VerticalTransformation:
        B = self.src.domB
        return VerticalTransformation(
            src=self.src.partial_right[a], tgt=self.tgt.partial_right[a],
            at_obj={c: self.at_pair[(a, c)] for c in B.objects},
            at_hmor={g: self.cell_right[(a, g)] for g in B.hmors},
        )

    def mod_at(self, f) -> Modification:
        """The component at f of the curried transformation."""
        A, B = self.src.domA, self.src.domB
        return Modification(top=self.src.horizontal_at(f), bottom=self.tgt.horizontal_at(f),
                            left=self.right_at(A.hsrc(f)), right=self.right_at(A.htgt(f)),
                            at_obj={c: self.cell_left[(f, c)] for c in B.objects})


@dataclass
class TwoVarHorizontal:
    src: TwoVarFunctor
    tgt: TwoVarFunctor
    at_pair: dict               # (a, c) -> horizontal morphism
    cell_av: dict               # (a, v) -> cell
    cell_ag: dict               # (a, g) -> (cell, inverse)
    cell_uc: dict               # (u, c) -> cell
    cell_fc: dict               # (f, c) -> (cell, inverse)
    name: str = ""

    def key(self):
        return ("2ht", tuple(sorted(self.at_pair.items())),
                tuple(sorted(self.cell_av.items())),
                tuple(sorted(self.cell_ag.items())),
                tuple(sorted(self.cell_uc.items())),
                tuple(sorted(self.cell_fc.items())))

    def right_at(self, a) -> HorizontalPseudoTransformation:
        B = self.src.domB
        return HorizontalPseudoTransformation(
            src=self.src.partial_right[a], tgt=self.tgt.partial_right[a],
            at_obj={c: self.at_pair[(a, c)] for c in B.objects},
            at_vmor={v: self.cell_av[(a, v)] for v in B.vmors},
            at_hmor={g: self.cell_ag[(a, g)] for g in B.hmors},
        )

    def mod_at_vmor(self, u) -> Modification:
        """The component at u of the curried transformation."""
        A, B = self.src.domA, self.src.domB
        return Modification(top=self.right_at(A.vsrc(u)), bottom=self.right_at(A.vtgt(u)),
                            left=self.src.vertical_at(u), right=self.tgt.vertical_at(u),
                            at_obj={c: self.cell_uc[(u, c)] for c in B.objects})

    def mods_at_hmor(self, f) -> tuple:
        """The component at f of the curried transformation and its inverse."""
        A, B = self.src.domA, self.src.domB
        a, b = A.hsrc(f), A.htgt(f)
        top = hcomp_horizontal(self.right_at(b), self.src.horizontal_at(f))
        bot = hcomp_horizontal(self.tgt.horizontal_at(f), self.right_at(a))
        left = identity_vertical(self.src.partial_right[a])
        right = identity_vertical(self.tgt.partial_right[b])
        fwd = Modification(top=top, bottom=bot, left=left, right=right,
                           at_obj={c: self.cell_fc[(f, c)][0] for c in B.objects})
        inv = Modification(top=bot, bottom=top, left=left, right=right,
                           at_obj={c: self.cell_fc[(f, c)][1] for c in B.objects})
        return fwd, inv


@dataclass
class TwoVarModification:
    top: TwoVarHorizontal
    bottom: TwoVarHorizontal
    left: TwoVarVertical
    right: TwoVarVertical
    at_pair: dict               # (a, c) -> cell
    name: str = ""

    def key(self):
        return ("2mod", tuple(sorted(self.at_pair.items())))

    def right_at(self, a) -> Modification:
        B = self.top.src.domB
        return Modification(top=self.top.right_at(a), bottom=self.bottom.right_at(a),
                            left=self.left.right_at(a), right=self.right.right_at(a),
                            at_obj={c: self.at_pair[(a, c)] for c in B.objects})


# ---------------------------------------------------------------------------
# checkers: each checks the first variable of x and of skew_s(x)
# ---------------------------------------------------------------------------

def _require_each(rep, family, elems, build, check):
    for e in elems:
        r = check(build(e))
        rep.require(family, r.ok, (e,), detail=r.summary())


def check_twovar_functor(F: TwoVarFunctor) -> Report:
    A, B, C = F.domA, F.domB, F.cod
    rep = Report("check_twovar_functor")
    both = (F, skew_s(F))
    for x in both:
        for a in x.domA.objects:
            rep.merge(check_functor(x.partial_right[a]))
    for a in A.objects:
        for c in B.objects:
            rep.require("2fun.obj.agree",
                        F.partial_right[a].obj(c) == F.partial_left[c].obj(a), (a, c))
    # the underlying data form a functor on the product of the verticals
    for u in A.vmors:
        for v in B.vmors:
            a, b = A.vsrc(u), A.vtgt(u)
            c, d = B.vsrc(v), B.vtgt(v)
            lhs = C.vcomp_vmor(F.partial_left[d].vmor(u), F.partial_right[a].vmor(v))
            rhs = C.vcomp_vmor(F.partial_right[b].vmor(v), F.partial_left[c].vmor(u))
            rep.require("2fun.square", lhs == rhs, (u, v))
    if rep.failures():
        return rep
    for x, family in zip(both, ("2fun.vert.first", "2fun.vert.second")):
        _require_each(rep, family, x.domA.vmors, x.vertical_at, check_vertical)
    for x, family in zip(both, ("2fun.horiz.first", "2fun.horiz.second")):
        _require_each(rep, family, x.domA.hmors, x.horizontal_at, check_horizontal)
    return rep


def check_twovar_vertical(s: TwoVarVertical) -> Report:
    rep = Report("check_twovar_vertical")
    both = (s, skew_s(s))
    for x, family in zip(both, ("2vt.right", "2vt.left")):
        _require_each(rep, family, x.src.domA.objects, x.right_at, check_vertical)
    if rep.failures():
        return rep
    # modification axioms in the other variable
    for x, family in zip(both, ("2vt.mod.first", "2vt.mod.second")):
        _require_each(rep, family, x.src.domA.hmors, x.mod_at, check_modification)
    return rep


def check_twovar_horizontal(t: TwoVarHorizontal) -> Report:
    rep = Report("check_twovar_horizontal")
    both = (t, skew_s(t))
    for x, family in zip(both, ("2ht.right", "2ht.left")):
        _require_each(rep, family, x.src.domA.objects, x.right_at, check_horizontal)
    if rep.failures():
        return rep
    for x, family in zip(both, ("2ht.mod.u", "2ht.mod.v")):
        _require_each(rep, family, x.src.domA.vmors, x.mod_at_vmor, check_modification)
    # invertible modifications between composites in the remaining variable
    for x, family in zip(both, ("2ht.mod.f", "2ht.mod.g")):
        for f in x.src.domA.hmors:
            m, minv = x.mods_at_hmor(f)
            r = check_modification(m)
            rep.require(family, r.ok, (f,), detail=r.summary())
            r = check_modification(minv)
            rep.require(family + ".inv", r.ok, (f,), detail=r.summary())
    return rep


def check_twovar_modification(m: TwoVarModification) -> Report:
    rep = Report("check_twovar_modification")
    for x, family in zip((m, skew_s(m)), ("2mod.right", "2mod.left")):
        _require_each(rep, family, x.top.src.domA.objects, x.right_at, check_modification)
    return rep


# ---------------------------------------------------------------------------
# curry / uncurry against a materialised hom
# ---------------------------------------------------------------------------

def curry_functor(F: TwoVarFunctor, hom: HomDouble) -> PseudoDoubleFunctor:
    """F: (A,B) -> C as a pseudo functor A -> Hom(B, C)."""
    A, B, T = F.domA, F.domB, hom.table
    id_of = hom.id_of
    P = PseudoDoubleFunctor(A, T, {a: id_of(F.partial_right[a]) for a in A.objects},
                            {u: id_of(F.vertical_at(u)) for u in A.vmors},
                            {f: id_of(F.horizontal_at(f)) for f in A.hmors},
                            {}, {}, {}, name=f"curry({F.name})")
    for cc in A.cells:
        P.cell_map[cc] = hom.cell_id(P.frame(A.frame(cc)),
                                     {c: F.partial_left[c].cell(cc) for c in B.objects})
    for a in A.objects:
        P.phi0[a] = _globular(hom, T.h_id(P.obj(a)), P.hmor(A.h_id(a)),
                              {c: F.partial_left[c].phi0[a] for c in B.objects})
    for (g, f), gf in A.hcomp_hmor_table.items():
        P.phi2[(f, g)] = _globular(hom, T.hcomp_hmor(P.hmor(g), P.hmor(f)), P.hmor(gf),
                                   {c: F.partial_left[c].phi2[(f, g)] for c in B.objects})
    return P


def _globular(hom: HomDouble, top, bottom, at_obj):
    """The id of the modification of hom from top to bottom with identity
    sides and components at_obj."""
    T = hom.table
    return hom.cell_id(Frame(top, bottom, T.v_id(T.hsrc(top)), T.v_id(T.htgt(top))), at_obj)


def uncurry_functor(P: PseudoDoubleFunctor, hom: HomDouble, B: TableDouble,
                    C: TableDouble) -> TwoVarFunctor:
    """Inverse of curry_functor: read the flat two-variable data back."""
    A = P.dom
    partial_right = {a: hom.functors[P.obj(a)] for a in A.objects}
    verts = {u: hom.verticals[P.vmor(u)] for u in A.vmors}
    horiz = {f: hom.horizontals[P.hmor(f)] for f in A.hmors}
    mods = {cc: hom.modifications[P.cell(cc)] for cc in A.cells}
    partial_left = {}
    for c in B.objects:
        phi0 = {a: hom.modifications[P.phi0[a]].at_obj[c] for a in A.objects}
        phi2 = {k: hom.modifications[P.phi2[k]].at_obj[c] for k in P.phi2}
        partial_left[c] = PseudoDoubleFunctor(
            dom=A, cod=C,
            obj_map={a: partial_right[a].obj(c) for a in A.objects},
            vmor_map={u: verts[u].at_obj[c] for u in A.vmors},
            hmor_map={f: horiz[f].at_obj[c] for f in A.hmors},
            cell_map={cc: mods[cc].at_obj[c] for cc in A.cells},
            phi0=phi0, phi2=phi2,
        )
    return TwoVarFunctor(
        domA=A, domB=B, cod=C,
        partial_right=partial_right,
        partial_left=partial_left,
        cell_vh={(u, g): verts[u].at_hmor[g] for u in A.vmors for g in B.hmors},
        cell_hv={(f, v): horiz[f].at_vmor[v] for f in A.hmors for v in B.vmors},
        cell_hh={(f, g): horiz[f].at_hmor[g] for f in A.hmors for g in B.hmors},
        name=f"uncurry({P.name})",
    )


def curry_vertical(s: TwoVarVertical, hom: HomDouble,
                   Pf: PseudoDoubleFunctor, Pg: PseudoDoubleFunctor) -> VerticalTransformation:
    A = s.src.domA
    at_hmor = {f: hom.id_of(s.mod_at(f)) for f in A.hmors}
    return VerticalTransformation(
        src=Pf, tgt=Pg,
        at_obj={a: hom.id_of(s.right_at(a)) for a in A.objects},
        at_hmor=at_hmor,
    )


def uncurry_vertical(t: VerticalTransformation, hom: HomDouble,
                     F2: TwoVarFunctor, G2: TwoVarFunctor) -> TwoVarVertical:
    A, B = F2.domA, F2.domB
    comps = {a: hom.verticals[t.at_obj[a]] for a in A.objects}
    mods = {f: hom.modifications[t.at_hmor[f]] for f in A.hmors}
    return TwoVarVertical(
        src=F2, tgt=G2,
        at_pair={(a, c): comps[a].at_obj[c] for a in A.objects for c in B.objects},
        cell_right={(a, g): comps[a].at_hmor[g] for a in A.objects for g in B.hmors},
        cell_left={(f, c): mods[f].at_obj[c] for f in A.hmors for c in B.objects},
    )


def curry_horizontal(t: TwoVarHorizontal, hom: HomDouble, Pf, Pg) -> HorizontalPseudoTransformation:
    A = t.src.domA
    id_of = hom.id_of
    at_vmor = {u: id_of(t.mod_at_vmor(u)) for u in A.vmors}
    at_hmor = {f: tuple(map(id_of, t.mods_at_hmor(f))) for f in A.hmors}
    return HorizontalPseudoTransformation(
        src=Pf, tgt=Pg,
        at_obj={a: id_of(t.right_at(a)) for a in A.objects},
        at_vmor=at_vmor, at_hmor=at_hmor,
    )


def uncurry_horizontal(t: HorizontalPseudoTransformation, hom: HomDouble,
                       F2: TwoVarFunctor, G2: TwoVarFunctor) -> TwoVarHorizontal:
    A, B = F2.domA, F2.domB
    comps = {a: hom.horizontals[t.at_obj[a]] for a in A.objects}
    umods = {u: hom.modifications[t.at_vmor[u]] for u in A.vmors}
    fmods = {f: (hom.modifications[t.at_hmor[f][0]], hom.modifications[t.at_hmor[f][1]])
             for f in A.hmors}
    return TwoVarHorizontal(
        src=F2, tgt=G2,
        at_pair={(a, c): comps[a].at_obj[c] for a in A.objects for c in B.objects},
        cell_av={(a, v): comps[a].at_vmor[v] for a in A.objects for v in B.vmors},
        cell_ag={(a, g): comps[a].at_hmor[g] for a in A.objects for g in B.hmors},
        cell_uc={(u, c): umods[u].at_obj[c] for u in A.vmors for c in B.objects},
        cell_fc={(f, c): (fmods[f][0].at_obj[c], fmods[f][1].at_obj[c])
                 for f in A.hmors for c in B.objects},
    )


def curry_modification(m: TwoVarModification, hom: HomDouble, top, bottom,
                       left, right) -> Modification:
    at_obj = {a: hom.id_of(m.right_at(a)) for a in m.top.src.domA.objects}
    return Modification(top=top, bottom=bottom, left=left, right=right, at_obj=at_obj)


def uncurry_modification(mm: Modification, hom: HomDouble, top2, bottom2,
                         left2, right2) -> TwoVarModification:
    A, B = top2.src.domA, top2.src.domB
    comps = {a: hom.modifications[mm.at_obj[a]] for a in A.objects}
    return TwoVarModification(
        top=top2, bottom=bottom2, left=left2, right=right2,
        at_pair={(a, c): comps[a].at_obj[c] for a in A.objects for c in B.objects},
    )


def enumerate_twovar_functors(A: TableDouble, B: TableDouble, C: TableDouble,
                              hom: HomDouble | None = None,
                              max_candidates: int | None = None):
    """All two-variable functors (A, B) -> C, via the curried encoding."""
    hom = hom or hom_double(B, C, max_candidates)
    out = []
    for P in enumerate_functors(A, hom.table, max_candidates):
        F = uncurry_functor(P, hom, B, C)
        F.name = f"F2_{len(out)}"
        out.append(F)
    return out


# ---------------------------------------------------------------------------
# multihom
# ---------------------------------------------------------------------------

def multihom(doms: list, B: TableDouble, arity_cap: int = 3):
    """Iterated hom: n=0 yields the objects of the codomain, n=1 the hom
    double category, n>=2 peels the last variable recursively."""
    if len(doms) > arity_cap:
        raise StructuralError(f"multihom arity {len(doms)} exceeds cap {arity_cap}")
    if not doms:
        return list(B.objects)
    if len(doms) == 1:
        return hom_double(doms[0], B)
    inner = hom_double(doms[-1], B)
    return multihom(doms[:-1], inner.table, arity_cap)


# ---------------------------------------------------------------------------
# skew structure
# ---------------------------------------------------------------------------

def skew_i(A: TableDouble, hom_IA: HomDouble, I: TableDouble) -> PseudoDoubleFunctor:
    """Evaluation Hom(I, A) -> A at the unique object of I; strict."""
    pt = I.objects[0]
    T = hom_IA.table
    return PseudoDoubleFunctor(
        dom=T, cod=A,
        obj_map={o: hom_IA.functors[o].obj(pt) for o in T.objects},
        vmor_map={v: hom_IA.verticals[v].at_obj[pt] for v in T.vmors},
        hmor_map={h: hom_IA.horizontals[h].at_obj[pt] for h in T.hmors},
        cell_map={m: hom_IA.modifications[m].at_obj[pt] for m in T.cells},
        phi0={o: A.vid_of(A.h_id(hom_IA.functors[o].obj(pt))) for o in T.objects},
        phi2={(f, g): A.vid_of(A.hcomp_hmor(hom_IA.horizontals[g].at_obj[pt],
                                            hom_IA.horizontals[f].at_obj[pt]))
              for (g, f) in T.hcomp_hmor_table},
        name=f"i_{A.name}",
    )


def skew_j(A: TableDouble, hom_AA: HomDouble, I: TableDouble) -> PseudoDoubleFunctor:
    """I -> Hom(A, A) picking out the identity pseudo double functor; strict."""
    pt = I.objects[0]
    T = hom_AA.table
    target = hom_AA.id_of(identity_functor(A))
    idv = T.v_identity[target]
    idh = T.h_identity[target]
    return PseudoDoubleFunctor(
        dom=I, cod=T,
        obj_map={pt: target},
        vmor_map={I.v_identity[pt]: idv},
        hmor_map={I.h_identity[pt]: idh},
        cell_map={I.cells[0]: T.vid_of(idh)},
        phi0={pt: T.vid_of(idh)},
        phi2={(I.h_identity[pt], I.h_identity[pt]): T.vid_of(idh)},
        name=f"j_{A.name}",
    )


def skew_L(A: TableDouble, B: TableDouble, C: TableDouble,
           hom_BC: HomDouble | None = None, hom_AB: HomDouble | None = None,
           hom_AC: HomDouble | None = None) -> TwoVarFunctor:
    """Horizontal composition (Hom(B,C), Hom(A,B)) -> Hom(A,C), strict in
    the first variable."""
    hom_BC = hom_BC or hom_double(B, C)
    hom_AB = hom_AB or hom_double(A, B)
    hom_AC = hom_AC or hom_double(A, C)
    TBC, TAB, TAC = hom_BC.table, hom_AB.table, hom_AC.table
    id_of, cell_id = hom_AC.id_of, hom_AC.cell_id
    fun_BC, fun_AB = hom_BC.functors, hom_AB.functors

    # second-variable partials: post-composition with a fixed G (pseudo)
    partial_right = {}
    for o in TBC.objects:
        G = fun_BC[o]
        R = partial_right[o] = PseudoDoubleFunctor(
            TAB, TAC, {p: id_of(compose_functors(G, fun_AB[p])) for p in TAB.objects},
            {v: id_of(whisker_post_functor(G, hom_AB.verticals[v])) for v in TAB.vmors},
            {h: id_of(whisker_post_functor(G, hom_AB.horizontals[h])) for h in TAB.hmors},
            {}, {}, {}, name=f"L({o},-)")
        for m in TAB.cells:
            R.cell_map[m] = cell_id(R.frame(TAB.frame(m)), {
                a: G.cell(x) for a, x in hom_AB.modifications[m].at_obj.items()})
        for p in TAB.objects:
            R.phi0[p] = _globular(hom_AC, TAC.h_id(R.obj(p)), R.hmor(TAB.h_id(p)),
                                  {a: G.phi0[fun_AB[p].obj(a)] for a in A.objects})
        for (h2, h1), h21 in TAB.hcomp_hmor_table.items():
            t1, t2 = hom_AB.horizontals[h1], hom_AB.horizontals[h2]
            R.phi2[(h1, h2)] = _globular(
                hom_AC, TAC.hcomp_hmor(R.hmor(h2), R.hmor(h1)), R.hmor(h21),
                {a: G.phi2[(t1.at_obj[a], t2.at_obj[a])] for a in A.objects})

    # first-variable partials: pre-composition with a fixed F (strict)
    partial_left = {}
    for p in TAB.objects:
        F = fun_AB[p]
        Lp = partial_left[p] = PseudoDoubleFunctor(
            TBC, TAC, {o: id_of(compose_functors(fun_BC[o], F)) for o in TBC.objects},
            {v: id_of(whisker_pre_functor(hom_BC.verticals[v], F)) for v in TBC.vmors},
            {h: id_of(whisker_pre_functor(hom_BC.horizontals[h], F)) for h in TBC.hmors},
            {}, {}, {}, name=f"L(-,{p})")
        for m in TBC.cells:
            at = hom_BC.modifications[m].at_obj
            Lp.cell_map[m] = cell_id(Lp.frame(TBC.frame(m)), {a: at[F.obj(a)] for a in A.objects})
        Lp.phi0.update((o, TAC.vid_of(TAC.h_id(Lp.obj(o)))) for o in TBC.objects)
        Lp.phi2.update(((h1, h2), TAC.vid_of(TAC.hcomp_hmor(Lp.hmor(h2), Lp.hmor(h1))))
                       for (h2, h1) in TBC.hcomp_hmor_table)

    # cell families, each in the frame its boundary goes to under the partials
    cell_vh = {}
    for tau in TBC.vmors:
        tv = hom_BC.verticals[tau]
        for th in TAB.hmors:
            t = hom_AB.horizontals[th]
            fr = Frame(partial_right[TBC.vsrc(tau)].hmor(th), partial_right[TBC.vtgt(tau)].hmor(th),
                       partial_left[TAB.hsrc(th)].vmor(tau), partial_left[TAB.htgt(th)].vmor(tau))
            cell_vh[(tau, th)] = cell_id(fr, {a: tv.at_hmor[t.at_obj[a]] for a in A.objects})
    cell_hv = {}
    for bh in TBC.hmors:
        bt = hom_BC.horizontals[bh]
        for sv in TAB.vmors:
            s = hom_AB.verticals[sv]
            fr = Frame(partial_left[TAB.vsrc(sv)].hmor(bh), partial_left[TAB.vtgt(sv)].hmor(bh),
                       partial_right[TBC.hsrc(bh)].vmor(sv), partial_right[TBC.htgt(bh)].vmor(sv))
            cell_hv[(bh, sv)] = cell_id(fr, {a: bt.at_vmor[s.at_obj[a]] for a in A.objects})
    # the interchanger of a: f -> g and b: h -> k, (b g).(h a) -> (k a).(b f),
    # and its inverse
    cell_hh = {}
    for bh in TBC.hmors:
        bt, h, k = hom_BC.horizontals[bh], TBC.hsrc(bh), TBC.htgt(bh)
        for th in TAB.hmors:
            t, f, g = hom_AB.horizontals[th], TAB.hsrc(th), TAB.htgt(th)
            top = TAC.hcomp_hmor(partial_left[g].hmor(bh), partial_right[h].hmor(th))
            bottom = TAC.hcomp_hmor(partial_right[k].hmor(th), partial_left[f].hmor(bh))
            comps = {a: bt.at_hmor[t.at_obj[a]] for a in A.objects}
            cell_hh[(bh, th)] = (
                _globular(hom_AC, top, bottom, {a: c[0] for a, c in comps.items()}),
                _globular(hom_AC, bottom, top, {a: c[1] for a, c in comps.items()}))
    return TwoVarFunctor(
        domA=TBC, domB=TAB, cod=TAC,
        partial_right=partial_right, partial_left=partial_left,
        cell_vh=cell_vh, cell_hv=cell_hv, cell_hh=cell_hh,
        name=f"L({A.name},{B.name},{C.name})",
    )


def _flip(pairs: dict) -> dict:
    return {(y, x): v for (x, y), v in pairs.items()}


def skew_s(x):
    """The symmetry: swap the two variables of a two-variable functor,
    transformation or modification.  A functor's (vi)-cells are replaced by
    their inverses."""
    name = f"s({x.name})"
    if isinstance(x, TwoVarFunctor):
        return TwoVarFunctor(
            domA=x.domB, domB=x.domA, cod=x.cod,
            partial_right=x.partial_left, partial_left=x.partial_right,
            cell_vh=_flip(x.cell_hv), cell_hv=_flip(x.cell_vh),
            cell_hh={(g, f): (inv, fwd) for (f, g), (fwd, inv) in x.cell_hh.items()},
            name=name)
    if isinstance(x, TwoVarVertical):
        return TwoVarVertical(skew_s(x.src), skew_s(x.tgt), _flip(x.at_pair),
                              cell_right=_flip(x.cell_left), cell_left=_flip(x.cell_right),
                              name=name)
    if isinstance(x, TwoVarHorizontal):
        return TwoVarHorizontal(skew_s(x.src), skew_s(x.tgt), _flip(x.at_pair),
                                cell_av=_flip(x.cell_uc), cell_ag=_flip(x.cell_fc),
                                cell_uc=_flip(x.cell_av), cell_fc=_flip(x.cell_ag),
                                name=name)
    return TwoVarModification(skew_s(x.top), skew_s(x.bottom), skew_s(x.left),
                              skew_s(x.right), _flip(x.at_pair), name=name)


# ---------------------------------------------------------------------------
# the comparison functor K and the transports
# ---------------------------------------------------------------------------

def cubical_K(A: TableDouble, B: TableDouble) -> TwoVarFunctor:
    """K: (A, B) -> A x B with identity underlying functor; the cell data
    are identities padded by unitors."""
    P = product(A, B)

    def right_partial(a):
        phi0 = {b: P.vid_of(P.h_id((a, b))) for b in B.objects}
        phi2 = {}
        for (g2, g1) in B.hcomp_hmor_table:
            comp = B.hcomp_hmor(g2, g1)
            phi2[(g1, g2)] = (A.lunit_of(A.h_id(a))[0], B.vid_of(comp))
        return PseudoDoubleFunctor(
            dom=B, cod=P,
            obj_map={b: (a, b) for b in B.objects},
            vmor_map={v: (A.v_id(a), v) for v in B.vmors},
            hmor_map={g: (A.h_id(a), g) for g in B.hmors},
            cell_map={cc: (A.vid_of(A.h_id(a)), cc) for cc in B.cells},
            phi0=phi0, phi2=phi2, name=f"K({a},-)")

    def left_partial(b):
        phi0 = {a: P.vid_of(P.h_id((a, b))) for a in A.objects}
        phi2 = {}
        for (f2, f1) in A.hcomp_hmor_table:
            comp = A.hcomp_hmor(f2, f1)
            phi2[(f1, f2)] = (A.vid_of(comp), B.lunit_of(B.h_id(b))[0])
        return PseudoDoubleFunctor(
            dom=A, cod=P,
            obj_map={a: (a, b) for a in A.objects},
            vmor_map={u: (u, B.v_id(b)) for u in A.vmors},
            hmor_map={f: (f, B.h_id(b)) for f in A.hmors},
            cell_map={cc: (cc, B.vid_of(B.h_id(b))) for cc in A.cells},
            phi0=phi0, phi2=phi2, name=f"K(-,{b})")

    cell_vh = {(u, g): (A.hid_of(u), B.vid_of(g)) for u in A.vmors for g in B.hmors}
    cell_hv = {(f, v): (A.vid_of(f), B.hid_of(v)) for f in A.hmors for v in B.vmors}
    cell_hh = {}
    for f in A.hmors:
        fwd1 = A.vcomp_cells(A.runit_of(f)[0], A.lunit_of(f)[1])
        bwd1 = A.vcomp_cells(A.lunit_of(f)[0], A.runit_of(f)[1])
        for g in B.hmors:
            fwd2 = B.vcomp_cells(B.lunit_of(g)[0], B.runit_of(g)[1])
            bwd2 = B.vcomp_cells(B.runit_of(g)[0], B.lunit_of(g)[1])
            cell_hh[(f, g)] = ((fwd1, fwd2), (bwd1, bwd2))
    return TwoVarFunctor(
        domA=A, domB=B, cod=P,
        partial_right={a: right_partial(a) for a in A.objects},
        partial_left={b: left_partial(b) for b in B.objects},
        cell_vh=cell_vh, cell_hv=cell_hv, cell_hh=cell_hh,
        name=f"K({A.name},{B.name})",
    )


def cubical_K_list(tables: list):
    """n = 0: the unique object of the terminal; n = 1: the identity; n = 2:
    the explicit comparison functor.  Larger n is reachable only through the
    recursive multihom encoding."""
    if not tables:
        return terminal().objects[0]
    if len(tables) == 1:
        return identity_functor(tables[0])
    if len(tables) == 2:
        return cubical_K(tables[0], tables[1])
    raise StructuralError("cubical K is materialised for n <= 2; higher arities "
                          "live in the recursive multihom encoding")


def restrict_along_K(H: PseudoDoubleFunctor, A: TableDouble, B: TableDouble,
                     K: TwoVarFunctor | None = None) -> TwoVarFunctor:
    """H . K as a two-variable functor, for H: A x B -> C."""
    K = K or cubical_K(A, B)
    partial_right = {a: compose_functors(H, K.partial_right[a]) for a in A.objects}
    partial_left = {b: compose_functors(H, K.partial_left[b]) for b in B.objects}
    cell_vh = {}
    for u in A.vmors:
        wt = whisker_post_functor(H, K.vertical_at(u))
        for g in B.hmors:
            cell_vh[(u, g)] = wt.at_hmor[g]
    cell_hv = {}
    cell_hh = {}
    for f in A.hmors:
        wt = whisker_post_functor(H, K.horizontal_at(f))
        for v in B.vmors:
            cell_hv[(f, v)] = wt.at_vmor[v]
        for g in B.hmors:
            cell_hh[(f, g)] = wt.at_hmor[g]
    return TwoVarFunctor(
        domA=A, domB=B, cod=H.cod,
        partial_right=partial_right, partial_left=partial_left,
        cell_vh=cell_vh, cell_hv=cell_hv, cell_hh=cell_hh,
        name=f"{H.name}.K",
    )


def transport_product(F: TwoVarFunctor) -> PseudoDoubleFunctor:
    """The one-variable functor on the product through which F factors up to
    an invertible two-variable vertical transformation."""
    A, B, C = F.domA, F.domB, F.cod
    P = product(A, B)

    def fobj(ac):
        return F.obj(*ac)

    def fvmor(uv):
        u, v = uv
        return C.vcomp_vmor(F.partial_left[B.vtgt(v)].vmor(u),
                            F.partial_right[A.vsrc(u)].vmor(v))

    def fhmor(fg):
        f, g = fg
        return C.hcomp_hmor(F.partial_right[A.htgt(f)].hmor(g),
                            F.partial_left[B.hsrc(g)].hmor(f))

    cell_map = {}
    for (al, be) in P.cells:
        fra, frb = A.frame(al), B.frame(be)
        c = B.hsrc(frb.top)
        row1 = C.hcomp_cell(F.cell_vh[(fra.right, frb.top)],
                            F.partial_left[c].cell(al))
        row2 = C.hcomp_cell(F.partial_right[A.htgt(fra.bottom)].cell(be),
                            F.cell_hv[(fra.bottom, frb.left)])
        cell_map[(al, be)] = C.vcomp_cell(row2, row1)

    phi0 = {}
    for (a, c) in P.objects:
        one = C.h_id(F.obj(a, c))
        phi0[(a, c)] = C.vcomp_cells(
            C.lunit_of(one)[1],
            C.hcomp_cell(F.partial_right[a].phi0[c], F.partial_left[c].phi0[a]),
        )
    phi2 = {}
    for ((h, k), (f, g)) in P.hcomp_hmor_table:
        a, c = A.hsrc(f), B.hsrc(g)
        b, d = A.htgt(f), B.htgt(g)
        x = A.htgt(h)
        Ffc = F.partial_left[c].hmor(f)
        Fbg = F.partial_right[b].hmor(g)
        Fhd = F.partial_left[d].hmor(h)
        Fxk = F.partial_right[x].hmor(k)
        Fxg = F.partial_right[x].hmor(g)
        Fhc = F.partial_left[c].hmor(h)
        hf = A.hcomp_hmor(h, f)
        Fhfc = F.partial_left[c].hmor(hf)
        # ((Fxk . Fhd) . (Fbg . Ffc))  ~>  Fxk . ((Fhd . Fbg) . Ffc)
        r1 = rebracket_iso(C, ((Ffc, Fbg), (Fhd, Fxk)),
                           ((Ffc, (Fbg, Fhd)), Fxk))[0]
        # interchange F(h,g) in the middle, whiskered on both sides
        swap = C.hcomp_cell(C.vid_of(Fxk),
                            C.hcomp_cell(F.cell_hh[(h, g)][0], C.vid_of(Ffc)))
        # Fxk . ((Fxg . Fhc) . Ffc)  ~>  Fxk . (Fxg . (Fhc . Ffc))
        r2 = rebracket_iso(C, ((Ffc, (Fhc, Fxg)), Fxk),
                           (((Ffc, Fhc), Fxg), Fxk))[0]
        paste_l = C.hcomp_cell(C.vid_of(Fxk),
                               C.hcomp_cell(C.vid_of(Fxg),
                                            F.partial_left[c].phi2[(f, h)]))
        # Fxk . (Fxg . Fhfc)  ~>  (Fxk . Fxg) . Fhfc
        r3 = rebracket_iso(C, ((Fhfc, Fxg), Fxk), (Fhfc, (Fxg, Fxk)))[0]
        paste_r = C.hcomp_cell(F.partial_right[x].phi2[(g, k)], C.vid_of(Fhfc))
        phi2[((f, g), (h, k))] = C.vcomp_cells(r1, swap, r2, paste_l, r3, paste_r)

    return PseudoDoubleFunctor(
        dom=P, cod=C,
        obj_map={ac: fobj(ac) for ac in P.objects},
        vmor_map={uv: fvmor(uv) for uv in P.vmors},
        hmor_map={fg: fhmor(fg) for fg in P.hmors},
        cell_map=cell_map, phi0=phi0, phi2=phi2,
        name=f"prod({F.name})",
    )


def transport_sigma(F: TwoVarFunctor, Fbar: PseudoDoubleFunctor | None = None) -> TwoVarVertical:
    """The invertible two-variable vertical transformation F -> Fbar . K
    whose underlying natural transformation is the identity."""
    A, B, C = F.domA, F.domB, F.cod
    Fbar = Fbar or transport_product(F)
    FK = restrict_along_K(Fbar, A, B)
    at_pair = {(a, c): C.v_id(F.obj(a, c)) for a in A.objects for c in B.objects}
    cell_right = {}
    for a in A.objects:
        for g in B.hmors:
            c = B.hsrc(g)
            Fag = F.partial_right[a].hmor(g)
            cell_right[(a, g)] = C.vcomp_cells(
                C.runit_of(Fag)[1],
                C.hcomp_cell(C.vid_of(Fag), F.partial_left[c].phi0[a]),
            )
    cell_left = {}
    for f in A.hmors:
        b = A.htgt(f)
        for c in B.objects:
            Ffc = F.partial_left[c].hmor(f)
            cell_left[(f, c)] = C.vcomp_cells(
                C.lunit_of(Ffc)[1],
                C.hcomp_cell(F.partial_right[b].phi0[c], C.vid_of(Ffc)),
            )
    return TwoVarVertical(src=F, tgt=FK, at_pair=at_pair,
                          cell_right=cell_right, cell_left=cell_left,
                          name=f"sigma({F.name})")


def transport_faithful(s: TwoVarVertical, H: PseudoDoubleFunctor,
                       H2: PseudoDoubleFunctor) -> VerticalTransformation:
    """The unique vertical transformation H -> H2 restricting along K to s,
    for s: HK -> H2K."""
    A, B = s.src.domA, s.src.domB
    C = H.cod
    P = H.dom

    def j_cells(G, f, g):
        a, b = A.hsrc(f), A.htgt(f)
        c, d = B.hsrc(g), B.htgt(g)
        pair_cell = (A.lunit_of(f)[0], B.runit_of(g)[0])
        fwd = C.vcomp_cells(C.inv(G.cell(pair_cell)),
                            C.inv(G.phi2[((f, B.h_id(c)), (A.h_id(b), g))]))
        bwd = C.vcomp_cells(G.phi2[((f, B.h_id(c)), (A.h_id(b), g))],
                            G.cell(pair_cell))
        return fwd, bwd

    at_hmor = {}
    for (f, g) in P.hmors:
        b = A.htgt(f)
        c = B.hsrc(g)
        jf, _ = j_cells(H, f, g)
        _, jg = j_cells(H2, f, g)
        mid = C.hcomp_cell(s.cell_right[(b, g)], s.cell_left[(f, c)])
        at_hmor[(f, g)] = C.vcomp_cells(jf, mid, jg)
    return VerticalTransformation(
        src=H, tgt=H2,
        at_obj={(a, c): s.at_pair[(a, c)] for (a, c) in P.objects},
        at_hmor=at_hmor,
        name="faithful",
    )


def verify_equivalence(A: TableDouble, B: TableDouble, C: TableDouble,
                       hom_BC: HomDouble | None = None,
                       max_candidates: int | None = None) -> Report:
    """Restriction along K from Hom(A x B, C) to the two-variable functors is
    essentially surjective (via transport_product and transport_sigma) and
    fully faithful on vertical transformations (via transport_faithful)."""
    rep = Report(f"equivalence({A.name},{B.name};{C.name})")
    P = product(A, B)
    hom_BC = hom_BC or hom_double(B, C, max_candidates)
    two = enumerate_twovar_functors(A, B, C, hom_BC, max_candidates)
    rep.params["twovar_functors"] = len(two)

    # essential surjectivity
    for F in two:
        r = check_twovar_functor(F)
        rep.require("eq.twovar.valid", r.ok, (F.name,), detail=r.summary())
        Fbar = transport_product(F)
        r = check_functor(Fbar)
        rep.require("eq.transport.functor", r.ok, (F.name,), detail=r.summary())
        sg = transport_sigma(F, Fbar)
        r = check_twovar_vertical(sg)
        rep.require("eq.transport.sigma", r.ok, (F.name,), detail=r.summary())
        inv_ok = all(C.inverse_of(c) is not None for c in sg.cell_right.values()) and \
            all(C.inverse_of(c) is not None for c in sg.cell_left.values())
        rep.require("eq.transport.sigma.invertible", inv_ok, (F.name,))

    # full faithfulness on vertical transformations; the two-variable
    # verticals HK -> H2K are enumerated through their curried encoding
    ones = enumerate_functors(P, C, max_candidates)
    rep.params["product_functors"] = len(ones)
    curried = [(HK, curry_functor(HK, hom_BC))
               for HK in (restrict_along_K(H, A, B) for H in ones)]
    for H, (HK, cHK) in zip(ones, curried):
        for H2, (H2K, cH2K) in zip(ones, curried):
            verts = enumerate_vertical(H, H2, max_candidates)
            twoverts = [uncurry_vertical(t, hom_BC, HK, H2K)
                        for t in enumerate_vertical(cHK, cH2K, max_candidates)]
            rep.add("eq.ff.count", len(verts) == len(twoverts),
                    (H.name, H2.name), detail=f"{len(verts)} vs {len(twoverts)}")
            restricted = []
            for t in verts:
                tK = _restrict_vertical_along_K(t, HK, H2K, A, B)
                r = check_twovar_vertical(tK)
                rep.require("eq.restrict.valid", r.ok, (H.name, H2.name))
                back = transport_faithful(tK, H, H2)
                rep.require("eq.ff.roundtrip", back.key() == t.key(), (H.name, H2.name))
                restricted.append(tK.key())
            rep.require("eq.ff.injective", len(set(restricted)) == len(restricted),
                        (H.name, H2.name))
            for s in twoverts:
                r = check_twovar_vertical(s)
                rep.require("eq.uncurry.valid", r.ok, (H.name, H2.name), detail=r.summary())
                t = transport_faithful(s, H, H2)
                r = check_vertical(t)
                rep.require("eq.full.valid", r.ok, (H.name, H2.name), detail=r.summary())
                again = _restrict_vertical_along_K(t, HK, H2K, A, B)
                rep.require("eq.full.roundtrip", again.key() == s.key(),
                            (H.name, H2.name))
    return rep


def _restrict_vertical_along_K(t: VerticalTransformation, FK: TwoVarFunctor,
                               GK: TwoVarFunctor, A, B) -> TwoVarVertical:
    return TwoVarVertical(
        src=FK, tgt=GK,
        at_pair={(a, c): t.at_obj[(a, c)] for a in A.objects for c in B.objects},
        cell_right={(a, g): t.at_hmor[(A.h_id(a), g)] for a in A.objects for g in B.hmors},
        cell_left={(f, c): t.at_hmor[(f, B.h_id(c))] for f in A.hmors for c in B.objects},
    )

