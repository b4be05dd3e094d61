"""The Gray-style interchange layer: strictified hom 2-categories, vertical
paths of pseudonatural transformations, the interchange pasting grid, and the
cofibrancy/biequivalence component checks.

2-cells between pseudofunctors A -> B are paths of horizontal transformations
in the strictification of the hom double category's underlying bicategory;
3-cells are its st-cells, whose payloads are modifications.  The interchange
of two paths is computed by bubbling each right-hand transformation across
the left-hand ones with single interchanger cells, whiskered by identity
paths; the evaluation order is fixed row-major and order independence is a
tested property, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (Frame, TableDouble, category_is_free, horizontal_category,
                   is_bicategory, is_cofibrant, is_strict, underlying_bicategory)
from .homs import HomDouble, hom_double
from .report import Report, StructuralError
from .strictify import Path, StCell, StrictifiedDouble, counit, kappa, st, \
    st_strict_report
from .twovar import check_twovar_functor, skew_L


@dataclass
class StHom:
    """st Hom(A, B) together with the dictionaries back to transformation data."""
    hom: HomDouble
    bicat: TableDouble
    S: StrictifiedDouble


def st_hom(A: TableDouble, B: TableDouble, max_candidates=None) -> StHom:
    hom = hom_double(A, B, max_candidates)
    bic = underlying_bicategory(hom.table)
    return StHom(hom, bic, st(bic))


def eta_star(sh: StHom, alpha_id) -> Path:
    """A pseudonatural transformation as the unary vertical path it comprises."""
    return sh.S.unary(alpha_id)


class GridContext:
    """Horizontal composition Hom(B, C) x Hom(A, B) -> Hom(A, C) over a fixed
    triple of homs, read from the two-variable functor L = skew_L built once:
    composite functors, whiskered transformations and interchangers as ids
    of Hom(A, C)."""

    def __init__(self, sh_ac: StHom, hom_ab: HomDouble, hom_bc: HomDouble):
        self.sh_ac = sh_ac
        self.hom_ab = hom_ab
        self.hom_bc = hom_bc
        self.L = skew_L(hom_ab.dom, hom_ab.cod, hom_bc.cod, hom_bc, hom_ab, sh_ac.hom)

    def post(self, g_id, a_id):
        """Transformation id of g . alpha in Hom(A, C)."""
        return self.L.partial_right[g_id].hmor_map[a_id]

    def pre(self, b_id, f_id):
        """Transformation id of beta . f in Hom(A, C)."""
        return self.L.partial_left[f_id].hmor_map[b_id]

    def obj(self, g_id, f_id):
        """Functor id of g . f in Hom(A, C)."""
        return self.L.partial_right[g_id].obj_map[f_id]

    def whisker_path_post(self, g_id, path: Path) -> Path:
        return Path(self.obj(g_id, path.src),
                    tuple(self.post(g_id, a) for a in path.hmors))

    def interchanger_payload(self, a_id, b_id):
        """Modification id of the interchanger of alpha and beta."""
        return self.L.cell_hh[(b_id, a_id)][0]


def interchange_grid(ctx: GridContext, alphas: Path, betas: Path,
                     order: str = "row") -> StCell:
    """The invertible 2-cell of st Hom(A, C)

        (g0 a1, .., g0 an, b1 fn, .., bm fn)
            -> (b1 f0, .., bm f0, gm a1, .., gm an)

    pasted from single interchangers; "row" moves each beta across every
    alpha in turn, "col" moves each alpha under every beta."""
    S = ctx.sh_ac.S
    TAB, TBC = ctx.hom_ab.table, ctx.hom_bc.table
    n, m = len(alphas), len(betas)
    # boundary 1-cells: f0..fn on the alpha side, g0..gm on the beta side
    fs = [alphas.src]
    for a in alphas.hmors:
        fs.append(TAB.hmor_tgt[a])
    gs = [betas.src]
    for b in betas.hmors:
        gs.append(TBC.hmor_tgt[b])

    # symbols: ("a", i, j) is g_j a_i ; ("b", j, i) is b_j f_i
    def sid(sym):
        kind, x, y = sym
        if kind == "a":
            return ctx.post(gs[y], alphas.hmors[x - 1])
        return ctx.pre(betas.hmors[x - 1], fs[y])

    state = [("a", i, 0) for i in range(1, n + 1)] + \
            [("b", j, n) for j in range(1, m + 1)]

    def path_of(syms):
        return Path(ctx.obj(gs[0], fs[0]), tuple(sid(s) for s in syms))

    cur = path_of(state)
    total = None

    def apply_swap(k):
        nonlocal total, cur
        kind1, i, j0 = state[k]
        kind2, j, i0 = state[k + 1]
        if not (kind1 == "a" and kind2 == "b" and j0 == j - 1 and i0 == i):
            raise StructuralError("grid schedule out of order")
        payload = ctx.interchanger_payload(alphas.hmors[i - 1], betas.hmors[j - 1])
        old = cur
        state[k] = ("b", j, i - 1)
        state[k + 1] = ("a", i, j)
        new = path_of(state)
        pre_path = Path(old.src, old.hmors[:k])
        dom_bin = Path(S.htgt(pre_path), old.hmors[k:k + 2])
        cod_bin = Path(S.htgt(pre_path), new.hmors[k:k + 2])
        cell = S.mk_cell(dom_bin, cod_bin, payload)
        if k:
            cell = S.hcomp_cell(cell, S.vid_of(pre_path))
        if k + 2 < len(old.hmors):
            suf = Path(S.htgt(Path(new.src, new.hmors[:k + 2])), new.hmors[k + 2:])
            cell = S.hcomp_cell(S.vid_of(suf), cell)
        total = cell if total is None else S.vcomp_cell(cell, total)
        cur = new

    if order == "row":
        for j in range(1, m + 1):
            for step in range(n):
                apply_swap((j - 1) + (n - 1 - step))
    elif order == "col":
        for i in range(n, 0, -1):
            for j in range(1, m + 1):
                apply_swap((i - 1) + (j - 1))
    else:
        raise ValueError(order)
    if total is None:
        total = S.vid_of(cur)
    return total


def gray_axiom_check(A: TableDouble, B: TableDouble, C: TableDouble,
                     bound: int = 2, max_candidates=None) -> Report:
    """Axioms of the interchange layer over the triple (A, B, C): strict
    2-category structure of each strictified hom, the composition functor
    Hom(B, C) x Hom(A, B) -> Hom(A, C) the grids read, whisker functoriality,
    grid invertibility, order independence, concatenation compatibility,
    and the pointwise 1x1 component identity."""
    rep = Report(f"gray({A.name},{B.name},{C.name})", params={"bound": bound})
    sh_ab = st_hom(A, B, max_candidates)
    sh_bc = st_hom(B, C, max_candidates)
    sh_ac = st_hom(A, C, max_candidates)
    ctx = GridContext(sh_ac, sh_ab.hom, sh_bc.hom)

    for name, sh in [("AB", sh_ab), ("BC", sh_bc), ("AC", sh_ac)]:
        r = st_strict_report(sh.S, bound)
        rep.require("gray.sthom.strict." + name, r.ok, (name,), detail=r.summary())
    # the composition the grids read is itself checked as a two-variable functor
    for f in check_twovar_functor(ctx.L).failures():
        rep.add("gray.composite", False, (f.check,) + f.witness, f.detail)

    # whiskering by identities and by composites
    n_wh = 0
    for p in sh_ab.S.paths(bound):
        for gid in sh_bc.hom.table.objects:
            w = ctx.whisker_path_post(gid, p)
            rep.require("gray.whisker.compat",
                        len(w) == len(p) and w.src == ctx.obj(gid, p.src), (gid,))
            n_wh += 1
    rep.params["whisker_instances"] = n_wh

    a_chains = sh_ab.S.paths(bound)
    b_chains = sh_bc.S.paths(bound)
    n_grid = 0
    for alphas in a_chains:
        for betas in b_chains:
            g = interchange_grid(ctx, alphas, betas, "row")
            n_grid += 1
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
    rep.params["grid_instances"] = n_grid

    # concatenation compatibility in the vertical-path argument
    n_cat = 0
    for alphas, alphas2 in sh_ab.S.composable_pairs(bound):
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
            n_cat += 1
    rep.params["concat_instances"] = n_cat
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
    for p in S.paths(bound):
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
    rep.require("bieq.stA.cofibrant.horizontal",
                category_is_free(horizontal_category(S.table(bound))), ())

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
