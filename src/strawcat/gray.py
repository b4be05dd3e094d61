"""The Gray-style interchange layer: strictified hom 2-categories, vertical
paths of pseudonatural transformations, the interchange pasting grid, and the
cofibrancy/biequivalence component checks.

2-cells between pseudofunctors A -> B are paths of horizontal transformations
in the strictification of the hom double category's underlying bicategory;
3-cells are its st-cells, whose payloads are modifications.  The interchange
grid of two paths is a memoised fold: a 1x1 grid is the single interchanger,
and a larger one is the whiskered paste of two smaller grids, split off along
the betas ("row") or the alphas ("col").  The two orders paste the same
elementary interchangers in different orders; their agreement is a tested
property, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (FiniteCategory, Frame, TableDouble, category_is_free,
                   horizontal_category, is_bicategory, is_cofibrant, is_strict,
                   underlying_bicategory)
from .homs import HomDouble, hom_double
from .report import Report, StructuralError
from .strictify import Path, StCell, StrictifiedDouble, counit, kappa, st, \
    st_strict_report
from .twovar import check_twovar_functor, skew_L


@dataclass
class StHom:
    """Hom(A, B) together with st of its underlying bicategory."""
    hom: HomDouble
    S: StrictifiedDouble


def st_hom(A: TableDouble, B: TableDouble, max_candidates=None) -> StHom:
    hom = hom_double(A, B, max_candidates)
    return StHom(hom, st(underlying_bicategory(hom.table)))


class GridContext:
    """Horizontal composition Hom(B, C) x Hom(A, B) -> Hom(A, C) over a fixed
    triple of homs, read from the two-variable functor L = skew_L built once:
    composite functors, whiskered transformations and interchangers as ids
    of Hom(A, C).  ``grids`` memoises interchange_grid for this triple."""

    def __init__(self, sh_ac: StHom, hom_ab: HomDouble, hom_bc: HomDouble):
        self.sh_ac = sh_ac
        self.hom_ab = hom_ab
        self.hom_bc = hom_bc
        self.L = skew_L(hom_ab.dom, hom_ab.cod, hom_bc.cod, hom_bc, hom_ab, sh_ac.hom)
        self.grids = {}

    def whisker_path_post(self, g_id, path: Path) -> Path:
        """The path g . alpha1, .., g . alphan of Hom(A, C)."""
        return _on_path(self.L.partial_right[g_id], path)

    def whisker_path_pre(self, path: Path, f_id) -> Path:
        """The path beta1 . f, .., betam . f of Hom(A, C)."""
        return _on_path(self.L.partial_left[f_id], path)


def _on_path(F, path: Path) -> Path:
    return Path(F.obj_map[path.src], tuple(F.hmor_map[h] for h in path.hmors))


def interchange_grid(ctx: GridContext, alphas: Path, betas: Path,
                     order: str = "row") -> StCell:
    """The invertible 2-cell of st Hom(A, C)

        (g0 a1, .., g0 an, b1 fn, .., bm fn)
            -> (b1 f0, .., bm f0, gm a1, .., gm an)

    pasted from single interchangers and memoised on ctx.  "row" splits off
    the last beta while there are two or more, so each beta crosses every
    alpha in turn; "col" splits off the last alpha while there are two or
    more, so each alpha crosses every beta."""
    if order not in ("row", "col"):
        raise ValueError(order)
    key = (alphas, betas, order)
    out = ctx.grids.get(key)
    if out is None:
        out = ctx.grids[key] = _grid(ctx, alphas, betas, order)
    return out


def _grid(ctx: GridContext, alphas: Path, betas: Path, order: str) -> StCell:
    S, L = ctx.sh_ac.S, ctx.L
    TAB, TBC = ctx.hom_ab.table, ctx.hom_bc.table
    n, m = len(alphas), len(betas)
    f0, g0 = alphas.src, betas.src
    if not (n and m):
        return S.vid_of(ctx.whisker_path_pre(betas, f0) if m
                        else ctx.whisker_path_post(g0, alphas))
    fn, gm = TAB.htgt(alphas.hmors[-1]), TBC.htgt(betas.hmors[-1])
    if n == 1 and m == 1:
        return S.mk_cell(ctx.whisker_path_post(g0, alphas) + ctx.whisker_path_pre(betas, fn),
                         ctx.whisker_path_pre(betas, f0) + ctx.whisker_path_post(gm, alphas),
                         L.cell_hh[(betas.hmors[0], alphas.hmors[0])][0])
    if m > 1 and (order == "row" or n == 1):
        # G(alpha, beta) beside b fn, then beta f0 beside G(alpha, (b))
        b = betas.hmors[-1]
        head, last = Path(g0, betas.hmors[:-1]), Path(TBC.hsrc(b), (b,))
        up = S.hcomp_cell(S.vid_of(ctx.whisker_path_pre(last, fn)),
                          interchange_grid(ctx, alphas, head, order))
        lo = S.hcomp_cell(interchange_grid(ctx, alphas, last, order),
                          S.vid_of(ctx.whisker_path_pre(head, f0)))
    else:
        # g0 alpha beside G((a), beta), then G(alpha, beta) beside gm a
        a = alphas.hmors[-1]
        head, last = Path(f0, alphas.hmors[:-1]), Path(TAB.hsrc(a), (a,))
        up = S.hcomp_cell(interchange_grid(ctx, last, betas, order),
                          S.vid_of(ctx.whisker_path_post(g0, head)))
        lo = S.hcomp_cell(S.vid_of(ctx.whisker_path_post(gm, last)),
                          interchange_grid(ctx, head, betas, order))
    return S.vcomp_cell(lo, up)


def gray_axiom_check(A: TableDouble, B: TableDouble, C: TableDouble,
                     bound: int = 2, max_candidates=None) -> Report:
    """Axioms of the interchange layer over the triple (A, B, C): strict
    2-category structure of each strictified hom, the composition functor
    Hom(B, C) x Hom(A, B) -> Hom(A, C) the grids read, whisker functoriality,
    grid invertibility, order independence, concatenation compatibility,
    and the pointwise 1x1 component identity."""
    rep = Report(f"gray({A.name},{B.name},{C.name})", params={"bound": bound})
    built = {}                  # st Hom(X, Y) and its strictness, per (X, Y) given

    def hom(X, Y):
        if (id(X), id(Y)) not in built:
            sh = st_hom(X, Y, max_candidates)
            built[(id(X), id(Y))] = sh, st_strict_report(sh.S, bound)
        return built[(id(X), id(Y))]

    (sh_ab, r_ab), (sh_bc, r_bc), (sh_ac, r_ac) = hom(A, B), hom(B, C), hom(A, C)
    ctx = GridContext(sh_ac, sh_ab.hom, sh_bc.hom)

    for name, r in [("AB", r_ab), ("BC", r_bc), ("AC", r_ac)]:
        rep.require("gray.sthom.strict." + name, r.ok, (name,), detail=r.summary())
    # the composition the grids read is itself checked as a two-variable functor
    for f in check_twovar_functor(ctx.L).failures():
        rep.add("gray.composite", False, (f.check,) + f.witness, f.detail)

    a_chains = sh_ab.S.paths(bound)
    b_chains = sh_bc.S.paths(bound)
    # whiskering by identities and by composites
    for p in a_chains:
        for gid in sh_bc.hom.table.objects:
            w = ctx.whisker_path_post(gid, p)
            rep.require("gray.whisker.compat",
                        len(w) == len(p) and w.src == ctx.L.obj(gid, p.src), (gid,))
    rep.params["whisker_instances"] = rep.counts.get("gray.whisker.compat", 0)

    for alphas in a_chains:
        for betas in b_chains:
            g = interchange_grid(ctx, alphas, betas, "row")
            gi = sh_ac.S.inverse_of(g)
            rep.require("gray.grid.invertible", gi is not None,
                        (alphas, betas))
            if gi is not None:
                rep.require("gray.grid.inv.exact",
                            sh_ac.S.vcomp_cell(gi, g) == sh_ac.S.vid_of(g.dom)
                            and sh_ac.S.vcomp_cell(g, gi) == sh_ac.S.vid_of(g.cod),
                            (alphas, betas))
            g2 = interchange_grid(ctx, alphas, betas, "col")
            rep.require("gray.grid.order", g == g2, (alphas, betas))
            if not alphas.hmors or not betas.hmors:
                rep.require("gray.grid.empty", g == sh_ac.S.vid_of(g.dom),
                            (alphas, betas))
            if len(alphas) == 1 and len(betas) == 1:
                al = sh_ab.hom.horizontals[alphas.hmors[0]]
                be = sh_bc.hom.horizontals[betas.hmors[0]]
                mod = sh_ac.hom.modifications[g.payload]
                for a in A.objects:
                    rep.require("gray.grid.component.pointwise",
                                mod.at_obj[a] == be.at_hmor[al.at_obj[a]][0], (a,))
    rep.params["grid_instances"] = rep.counts.get("gray.grid.invertible", 0)

    # concatenation compatibility in the vertical-path argument
    for alphas, alphas2 in sh_ab.S.composable_pairs(bound, a_chains):
        if not alphas.hmors or not alphas2.hmors:
            continue
        for betas in b_chains:
            if not betas.hmors:
                continue
            combined = interchange_grid(ctx, alphas + alphas2, betas, "row")
            g1 = interchange_grid(ctx, alphas2, betas, "row")
            g2 = interchange_grid(ctx, alphas, betas, "row")
            left = ctx.whisker_path_post(betas.src, alphas)
            gm = sh_bc.hom.table.hmor_tgt[betas.hmors[-1]]
            right = ctx.whisker_path_post(gm, alphas2)
            step1 = sh_ac.S.hcomp_cell(g1, sh_ac.S.vid_of(left))
            step2 = sh_ac.S.hcomp_cell(sh_ac.S.vid_of(right), g2)
            pasted = sh_ac.S.vcomp_cell(step2, step1)
            rep.require("gray.grid.concat", combined == pasted, (alphas, alphas2, betas))
    rep.params["concat_instances"] = rep.counts.get("gray.grid.concat", 0)
    return rep


def biequivalence_check(A: TableDouble, B: TableDouble, bound: int = 3) -> Report:
    """Unit and counit components of the strictification adjunction are
    bijective on objects and locally equivalences at the bound; st A is
    cofibrant in the contract reading of is_cofibrant (vertical category
    free), and the horizontal category of its bounded table is free: every
    bounded path factors uniquely into unary paths."""
    rep = Report(f"biequivalence({A.name},{B.name})", params={"bound": bound})
    if not is_bicategory(A):
        raise StructuralError("biequivalence_check expects a finite bicategory A")
    if not is_strict(B):
        raise StructuralError("biequivalence_check expects a strict B")
    S = st(A)

    # eta_A: bijective on objects, locally an equivalence at the bound
    rep.require("bieq.eta.objects", tuple(S.objects) == tuple(A.objects))
    paths = S.paths(bound)
    for p in paths:
        k = kappa(S, p)
        rep.require("bieq.eta.kappa.invertible", S.inverse_of(k) is not None, (p,))
        rep.require("bieq.eta.kappa.unary", len(k.cod) == 1, (p,))
    for f in A.hmors:
        for g in A.hmors:
            if A.hsrc(f) != A.hsrc(g) or A.htgt(f) != A.htgt(g):
                continue
            cells = A.globular_cells(f, g)
            stcells = S.globular_cells(S.unary(f), S.unary(g))
            rep.require("bieq.eta.locally_ff", len(cells) == len(stcells), (f, g))

    # cofibrancy of st A
    rep.require("bieq.stA.cofibrant.vertical", is_cofibrant(A), ())
    # the horizontal category of the bounded table of st A
    Uh = FiniteCategory(f"Uh({S.name}<={bound})", A.objects, tuple(paths),
                        {p: p.src for p in paths}, {p: S.htgt(p) for p in paths},
                        {p.src: p for p in paths if not p.hmors},
                        {(q, p): p + q for p, q in S.composable_pairs(bound, paths)})
    rep.require("bieq.stA.cofibrant.horizontal", category_is_free(Uh), ())

    # counit at strict B: bijective on objects, locally an equivalence
    SB = st(B)
    eps = counit(B)
    rep.require("bieq.counit.objects", tuple(SB.objects) == tuple(B.objects))
    rep.params["B_horizontally_free"] = category_is_free(horizontal_category(B))
    for f in B.hmors:
        rep.require("bieq.counit.locally_surjective",
                    eps.on_path(SB.unary(f)) == f, (f,))
    paths = SB.paths(bound)
    for p in paths:
        for q in paths:
            if p.src != q.src or SB.htgt(p) != SB.htgt(q):
                continue
            fr = Frame(p, q, SB.v_id(p.src), SB.v_id(SB.htgt(p)))
            stcells = SB.cells_with_frame(fr)
            bcells = B.globular_cells(eps.on_path(p), eps.on_path(q))
            rep.require("bieq.counit.locally_ff",
                        len(stcells) == len(bcells), (p, q))
    return rep
