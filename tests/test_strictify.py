import dataclasses
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st_

import strawcat
from strawcat import core, is_strict, terminal
from strawcat.cli import elaborate, parse
from strawcat.corpus import nonstrict, quintet, sigma_m3
from strawcat.core import Frame, TableDouble, validate
from strawcat.homs import (
    check_functor,
    compose_functors,
    check_horizontal,
    check_modification,
    check_vertical,
    enumerate_functors,
    enumerate_vertical,
    identity_functor,
    is_strict_functor,
    iter_functor_candidates,
    iter_horizontal_candidates,
    iter_modification_candidates,
    iter_vertical_candidates,
)
from strawcat.strictify import (
    Path,
    StCell,
    StExtension,
    StrictifiedDouble,
    counit,
    eta,
    extend_functor,
    extend_horizontal,
    extend_modification,
    extend_vertical,
    kappa,
    restrict_extension,
    st,
    st_strict_report,
    triangle1_report,
    triangle2_report,
    verify_3d_iso,
)
from strawcat.report import Report, StructuralError
from test_core import single_entry_mutants


@pytest.fixture(scope="module")
def N():
    return nonstrict()


@pytest.fixture(scope="module")
def SN(N):
    return st(N)


def test_eps_empty_path_is_identity(SN, N):
    assert SN.eps(SN.h_id("st")) == N.h_identity["st"]


def test_eps_unary(SN):
    assert SN.eps(SN.unary("e")) == "e"


def test_eps_left_nested(SN, N):
    # eps(f, g, h) = h . (g . f), checked against the composition table
    p = Path("st", ("e", "j", "e"))
    want = N.hcomp_hmor("e", N.hcomp_hmor("j", "e"))
    assert SN.eps(p) == want


def test_path_enumeration_counts(SN):
    # two endomorphisms on one object: 2^k paths of each length
    assert len(SN.paths(0)) == 1
    assert len(SN.paths(3)) == 1 + 2 + 4 + 8


def test_composable_pairs_are_the_filtered_double_loop(tables):
    for name, A in tables.items():
        S = st(A)
        for b in range(5):
            ps = S.paths(b)
            want = [(p, q) for p in ps for q in ps
                    if S.htgt(p) == q.src and len(p) + len(q) <= b]
            assert S.composable_pairs(b) == want, (name, b)


def test_st_of_terminal_has_one_path_per_length():
    S = st(terminal())
    for k in range(4):
        assert len([p for p in S.paths(3) if len(p) == k]) == (1 if k <= 3 else 0)
    rep = st_strict_report(S, 4)
    assert rep.ok


def test_kappa_unary_is_identity(SN):
    k = kappa(SN, SN.unary("e"))
    assert k.payload == "ce" and k.dom == k.cod


def test_kappa_empty_is_eta_unit_constraint(SN, N):
    k = kappa(SN, SN.h_id("st"))
    e = eta(N, SN)
    assert e.phi0["st"] == k


def test_kappa_decomposition_all_length3(SN):
    # on p = p1 + (f): (1 . kappa) on the split, then the binary kappa
    for p in SN.paths(3):
        if len(p) < 2:
            continue
        p1, f = Path(p.src, p.hmors[:-1]), p.hmors[-1]
        first = SN.hcomp_cell(SN.vid_of(SN.unary(f)), kappa(SN, p1))
        second = kappa(SN, Path(p.src, (SN.eps(p1), f)))
        assert SN.vcomp_cells(first, second) == kappa(SN, p)


def test_normalize_roundtrip(SN):
    # every st-cell is kappa^-1 . (its payload on the evaluations) . kappa
    for c in SN.cells(3):
        mid = StCell(SN.unary(SN.eps(c.dom)), SN.unary(SN.eps(c.cod)), c.payload)
        assert SN.vcomp_cells(kappa(SN, c.dom), mid, SN.inv(kappa(SN, c.cod))) == c


def test_normalize_is_bijective_per_boundary(SN, N):
    # bounded st-cells with fixed boundaries correspond to base cells with
    # the eps boundaries
    for p in SN.paths(2):
        for q in SN.paths(2):
            cells = [c for c in SN.cells(2) if c.dom == p and c.cod == q]
            base = [c for c in N.cells
                    if N.frame(c).top == SN.eps(p) and N.frame(c).bottom == SN.eps(q)]
            assert len(cells) == len(base)


def test_eta_is_pseudo_functor_everywhere(tables):
    for name, A in tables.items():
        S = st(A)
        assert check_functor(eta(A, S)).ok, name


def test_eta_composition_constraint_is_kappa(SN, N):
    e = eta(N, SN)
    assert e.phi2[("e", "j")] == kappa(SN, Path("st", ("e", "j")))


def test_st_strictness_small_bound(tables):
    for name in ("nonstrict", "quintet", "sigma2"):
        rep = st_strict_report(st(tables[name]), 3)
        assert rep.ok, f"{name}: {rep.render()}"


def test_st_of_bicategory_is_two_category(SN):
    assert set(SN.vmors) == {"idv"}


def test_underlying_category_of_st_is_unchanged(tables):
    Q = tables["quintet"]
    S = st(Q)
    assert S.objects == Q.objects and S.vmors == Q.vmors


def test_hcomp_payload_matches_cell_composition(SN):
    # composing two unary st-cells agrees with the base composition through
    # the coherence isos
    a = SN.cells(1)
    for c1 in a:
        for c2 in a:
            fr1 = SN.base.frame(c1.payload)
            fr2 = SN.base.frame(c2.payload)
            if fr1.right != fr2.left:
                continue
            out = SN.hcomp_cell(c2, c1)
            assert len(out.dom) == len(c1.dom) + len(c2.dom)
            assert SN.check_cell(out)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st_.data())
def test_hcomp_associative_on_random_paths(data):
    N = nonstrict()
    S = st(N)
    cells = S.cells(2)
    c1 = data.draw(st_.sampled_from(cells))
    c2 = data.draw(st_.sampled_from(cells))
    c3 = data.draw(st_.sampled_from(cells))
    lhs = S.hcomp_cell(c3, S.hcomp_cell(c2, c1))
    rhs = S.hcomp_cell(S.hcomp_cell(c3, c2), c1)
    assert lhs == rhs


def test_paths_and_cells_print_as_before():
    # witness text is what a report shows of a path or a cell
    assert str(Path("st", ("e", "j"))) == "Path(st, ('e', 'j'))"
    assert str(Path("st", ())) == "Path(st, ())"
    c = StCell(Path("st", ("e",)), Path("st", ("e", "e")), "ce")
    assert str(c) == "StCell(Path(st, ('e',)), Path(st, ('e', 'e')), ce)"
    S = st(nonstrict())
    out = S.hcomp_cell(S.vid_of(Path("st", ("e",))), S.vid_of(Path("st", ("j",))))
    assert str(out) == "StCell(Path(st, ('j', 'e')), Path(st, ('j', 'e')), ce)"


def test_a_path_is_its_length_and_concatenates_to_a_path():
    S = st(nonstrict())
    paths = S.paths(3)
    assert all(len(p) == len(p.hmors) for p in paths)
    assert not Path("st", ()) and Path("st", ("e",))
    for p, q in S.composable_pairs(3, paths):
        pq = p + q
        assert type(pq) is Path and pq == Path(p.src, p.hmors + q.hmors)
        assert S.hcomp_hmor(q, p) == pq


def test_extension_requires_strict_codomain(N):
    F = identity_functor(N)
    with pytest.raises(StructuralError):
        extend_functor(F, st(N), N)


def test_extension_of_identity_is_counit(tables):
    M = tables["sigmaM"]
    eps = counit(M)
    S = st(M)
    p = Path("o", ("m1", "m1"))
    assert eps.on_path(p) == "m2"
    for c in S.cells(2):
        assert eps.on_cell(c) == c.payload


def test_extension_restriction_roundtrip(N, tables):
    M = tables["sigmaM"]
    S = st(N)
    T = S.table(3)
    e = eta(N, S)
    for F in enumerate_functors(N, M):
        E = extend_functor(F, S, M)
        EF = E.functor(T)
        assert check_functor(EF).ok and is_strict_functor(EF)
        back = restrict_extension(E, e)
        assert back.key() == F.key()


def test_extension_sends_kappa_to_phi(N, tables):
    M = tables["sigmaM"]
    S = st(N)
    for F in enumerate_functors(N, M):
        E = extend_functor(F, S, M)
        for p in S.paths(3):
            assert E.on_cell(kappa(S, p)) == E.phi(p)[0]


def test_triangle_identities(tables):
    for name, A in tables.items():
        assert triangle1_report(A, 3).ok, name
    for name, A in tables.items():
        if is_strict(A):
            assert triangle2_report(A).ok, name


def _st_functor_reference(F, SA):
    """st F for F: A -> B, written out by hand: paths map pointwise and a
    cell's payload is conjugated by the comparison cells of F."""
    E = StExtension(F, SA, F.cod)

    def on_path(p):
        return Path(F.obj(p.src), tuple(F.hmor(f) for f in p.hmors))

    def on_cell(c):
        return StCell(on_path(c.dom), on_path(c.cod), E.on_cell(c))

    return on_path, on_cell


def test_st_of_a_functor_is_the_extension_of_eta_after_it(tables):
    # st f = ext(eta_B . f) on every bounded path and cell, for every
    # enumerated functor of every ordered pair of members
    n = 0
    for A, B in itertools.product(tables.values(), repeat=2):
        SA, SB = st(A), st(B)
        etaB = eta(B, SB)
        paths, cells = SA.paths(3), SA.cells(3)
        for f in enumerate_functors(A, B):
            stf = StExtension(compose_functors(etaB, f), SA, SB)
            on_path, on_cell = _st_functor_reference(f, SA)
            assert all(stf.on_path(p) == on_path(p) for p in paths), (A.name, B.name)
            assert all(stf.on_cell(c) == on_cell(c) for c in cells), (A.name, B.name)
            n += len(paths) + len(cells)
    assert n == 27164


def test_3d_iso_small(tables):
    rep = verify_3d_iso(tables["nonstrict"], tables["sigma2"], 2)
    assert rep.ok, rep.render()
    assert rep.params["objects_each_side"] >= 1


def test_3d_iso_honours_the_candidate_budget(tables):
    # terminal -> sigmaM has 3 horizontal candidates between its one functor
    # and itself; a budget of 2 must stop the run, not pass it
    from strawcat.homs import Truncated
    with pytest.raises(Truncated):
        verify_3d_iso(tables["terminal"], tables["sigmaM"], 3, max_candidates=2)
    rep = verify_3d_iso(tables["terminal"], tables["sigmaM"], 3, max_candidates=3)
    assert rep.ok and rep.params["hmor_candidates"] == 3


def test_3d_iso_rejects_weak_codomain(tables):
    with pytest.raises(StructuralError):
        verify_3d_iso(tables["sigmaM"], tables["nonstrict"], 2)


def test_uniqueness_of_vertical_extension(tables):
    # any bounded vertical transformation agreeing with its restriction is
    # the recursion extension: raw bounded candidates are classified
    # consistently by verify_3d_iso, and counts agree on both sides
    rep = verify_3d_iso(tables["quintet"], tables["quintetP"], 3)
    assert rep.ok
    assert rep.params["vmor_candidates"] >= rep.params["vmors_each_side"]


def test_uniqueness_by_free_enumeration_at_bound(tables):
    # literal quantification: enumerate every frame-compatible family of
    # components over all bounded paths, filter by the bounded axioms, and
    # compare with the recursion extensions of the valid restrictions
    for a, b in [("nonstrict", "sigmaM"), ("quintet", "quintetP")]:
        A, B = tables[a], tables[b]
        S = st(A)
        bound = 3
        T = S.table(bound)
        paths = S.paths(bound)
        for F in enumerate_functors(A, B):
            EF = extend_functor(F, S, B).functor(T)
            for G in enumerate_functors(A, B):
                EG = extend_functor(G, S, B).functor(T)
                expected = set()
                for t in enumerate_vertical(F, G):
                    sv = extend_vertical(t, EF, EG)
                    if check_vertical(sv).ok:
                        expected.add(tuple(sorted(
                            (p.hmors, sv.at_hmor[p]) for p in paths)))
                obj_cands = [[v for v in B.vmors
                              if B.vsrc(v) == F.obj(x) and B.vtgt(v) == G.obj(x)]
                             for x in A.objects]
                found = set()
                for opick in itertools.product(*obj_cands):
                    at_obj = dict(zip(A.objects, opick))
                    cands = []
                    for p in paths:
                        want = Frame(EF.hmor(p), EG.hmor(p),
                                     at_obj[p.src], at_obj[S.htgt(p)])
                        cands.append(B.cells_with_frame(want))
                    for pick in itertools.product(*cands):
                        comp = dict(zip(paths, pick))
                        ok = True
                        for p in paths:
                            for q in paths:
                                if S.htgt(p) != q.src or len(p) + len(q) > bound:
                                    continue
                                if comp[p + q] != B.hcomp_cell(comp[q], comp[p]):
                                    ok = False
                                    break
                            if not ok:
                                break
                        if ok:
                            for c in S.cells(bound):
                                lhs = B.vcomp_cells(EF.cell(c), comp[c.cod])
                                rhs = B.vcomp_cells(comp[c.dom], EG.cell(c))
                                if lhs != rhs:
                                    ok = False
                                    break
                        if ok:
                            found.add(tuple(sorted(
                                (p.hmors, comp[p]) for p in paths)))
                assert found == expected, (a, b, F.name, G.name)


# -- the former st-side checkers, kept as a reference oracle -------------------
#
# verify_3d_iso once decided the st side with these hand-written bounded
# axioms, and now runs homs' checkers on S.table(bound).  The bodies are kept
# as they were; they read the same extended data, a strict functor or a
# transformation on S.table(bound), and walk S's own paths, pairs and cells.

def ref_extension_strict(S, E, bound):
    """All strict double functor axiom instances of an extension within the
    bound: identities, both compositions, frames."""
    B, on_path, on_cell = E.cod, E.hmor, E.cell
    A = S.base
    rep = Report("strictfun", params={"bound": bound})
    for a in A.objects:
        rep.require("ext.hid", on_path(S.h_id(a)) == B.h_id(E.obj(a)), (a,))
        rep.require("ext.vid.cell",
                    on_cell(S.vid_of(S.h_id(a))) == B.vid_of(B.h_id(E.obj(a))), (a,))
    for u in A.vmors:
        rep.require("ext.hid.cell", on_cell(S.hid_of(u)) == B.hid_of(E.vmor(u)), (u,))
    for p, q in S.composable_pairs(bound):
        if not q.hmors:                         # p's first pair
            rep.require("ext.vid.path", on_cell(S.vid_of(p)) == B.vid_of(on_path(p)), (p,))
        rep.require("ext.hcomp.path",
                    on_path(p + q) == B.hcomp_hmor(on_path(q), on_path(p)), (p, q))
    cells = S.cells(bound)
    for c in cells:
        fr = S.frame(c)
        want = Frame(on_path(c.dom), on_path(c.cod), E.vmor(fr.left), E.vmor(fr.right))
        rep.require("ext.frame", B.frame(on_cell(c)) == want, (c,))
        if rep.failures():
            return rep
    by_dom = {}
    for c in cells:
        by_dom.setdefault(c.dom, []).append(c)
    for c1 in cells:
        for c2 in by_dom.get(c1.cod, ()):
            lhs = on_cell(S.vcomp_cell(c2, c1))
            rhs = B.vcomp_cell(on_cell(c2), on_cell(c1))
            rep.require("ext.vcomp.cell", lhs == rhs, (c1, c2))
            if rep.failures():
                return rep
    by_left = {}
    for c in cells:
        by_left.setdefault(A.frame(c.payload).left, []).append(c)
    for c1 in cells:
        for c2 in by_left.get(A.frame(c1.payload).right, ()):
            if c2.dom.src != S.htgt(c1.dom):
                continue
            if len(c1.dom) + len(c2.dom) > bound or len(c1.cod) + len(c2.cod) > bound:
                continue
            lhs = on_cell(S.hcomp_cell(c2, c1))
            rhs = B.hcomp_cell(on_cell(c2), on_cell(c1))
            rep.require("ext.hcomp.cell", lhs == rhs, (c1, c2))
            if rep.failures():
                return rep
    return rep


def ref_stvertical(S, v, bound):
    E, E2, B = v.src, v.tgt, v.src.cod
    A = S.base
    rep = Report("stvertical", params={"bound": bound})
    for u in A.vmors:
        a, b = A.vsrc(u), A.vtgt(u)
        rep.require("stv.natural.vmor",
                    B.vcomp_vmor(v.at_obj[b], E.vmor(u)) ==
                    B.vcomp_vmor(E2.vmor(u), v.at_obj[a]), (u,))
    for p in S.paths(bound):
        a, b = p.src, S.htgt(p)
        want = Frame(E.hmor(p), E2.hmor(p), v.at_obj[a], v.at_obj[b])
        rep.require("stv.frame", B.frame(v.at_hmor[p]) == want, (p,))
        if rep.failures():
            return rep
    for p, q in S.composable_pairs(bound):
        lhs = v.at_hmor[p + q]
        rhs = B.hcomp_cell(v.at_hmor[q], v.at_hmor[p])
        rep.require("stv.hfunctorial", lhs == rhs, (p, q))
    for c in S.cells(bound):
        lhs = B.vcomp_cells(E.cell(c), v.at_hmor[c.cod])
        rhs = B.vcomp_cells(v.at_hmor[c.dom], E2.cell(c))
        rep.require("stv.natural.cell", lhs == rhs, (c,))
        if rep.failures():
            return rep
    return rep


def ref_sthorizontal(S, h, bound):
    E, E2, B = h.src, h.tgt, h.src.cod
    A = S.base
    rep = Report("sthorizontal", params={"bound": bound})
    for a in A.objects:
        rep.require("sth.vid", h.at_vmor[A.v_id(a)] == B.vid_of(h.at_obj[a]), (a,))
    for (w, u), wu in A.vcomp_vmor_table.items():
        rep.require("sth.vfunctorial",
                    h.at_vmor[wu] == B.vcomp_cells(h.at_vmor[u], h.at_vmor[w]), (u, w))
    for p in S.paths(bound):
        a, b = p.src, S.htgt(p)
        cell, inv = h.at_hmor[p]
        src_h = B.hcomp_hmor(h.at_obj[b], E.hmor(p))
        tgt_h = B.hcomp_hmor(E2.hmor(p), h.at_obj[a])
        fr = B.frame(cell)
        ok = fr.top == src_h and fr.bottom == tgt_h and B.is_globular(cell)
        rep.require("sth.frame", ok, (p,))
        if not ok:
            return rep
        rep.require("sth.invertible",
                    B.vcomp_cell(inv, cell) == B.vid_of(src_h)
                    and B.vcomp_cell(cell, inv) == B.vid_of(tgt_h), (p,))
    for p, q in S.composable_pairs(bound):
        lhs = h.at_hmor[p + q][0]
        rhs = B.vcomp_cells(
            B.hcomp_cell(h.at_hmor[q][0], B.vid_of(E.hmor(p))),
            B.hcomp_cell(B.vid_of(E2.hmor(q)), h.at_hmor[p][0]),
        )
        rep.require("sth.hfunctorial", lhs == rhs, (p, q))
        if rep.failures():
            return rep
    for cc in S.cells(bound):
        fr = S.frame(cc)
        u, v_ = fr.left, fr.right
        lhs = B.vcomp_cells(B.hcomp_cell(h.at_vmor[v_], E.cell(cc)), h.at_hmor[cc.cod][0])
        rhs = B.vcomp_cells(h.at_hmor[cc.dom][0], B.hcomp_cell(E2.cell(cc), h.at_vmor[u]))
        rep.require("sth.natural.cell", lhs == rhs, (cc,))
        if rep.failures():
            return rep
    return rep


def ref_stmodification(S, mm, bound):
    B = mm.top.src.cod
    A = S.base
    rep = Report("stmodification", params={"bound": bound})
    for u in A.vmors:
        x, y = A.vsrc(u), A.vtgt(u)
        lhs = B.vcomp_cells(mm.top.at_vmor[u], mm.at_obj[y])
        rhs = B.vcomp_cells(mm.at_obj[x], mm.bottom.at_vmor[u])
        rep.require("stm.vnatural", lhs == rhs, (u,))
    for p in S.paths(bound):
        x, y = p.src, S.htgt(p)
        lhs = B.vcomp_cells(B.hcomp_cell(mm.at_obj[y], mm.left.at_hmor[p]),
                            mm.bottom.at_hmor[p][0])
        rhs = B.vcomp_cells(mm.top.at_hmor[p][0],
                            B.hcomp_cell(mm.right.at_hmor[p], mm.at_obj[x]))
        rep.require("stm.hnatural", lhs == rhs, (p,))
        if rep.failures():
            return rep
    return rep


def _st_side(A, B, bound):
    """verify_3d_iso's raw candidates of each kind, as (hom-side datum,
    extension to S.table(bound)) pairs, enumerated as it does."""
    S = st(A)
    T = S.table(bound)
    funs = [(F, extend_functor(F, S, B).functor(T))
            for F in iter_functor_candidates(A, B, False)]
    members = [x for x in funs if check_functor(x[0]).ok]
    verts, hors = [], []
    for (F, EF), (G, EG) in itertools.product(members, members):
        verts += [(t, extend_vertical(t, EF, EG)) for t in iter_vertical_candidates(F, G)]
        hors += [(t, extend_horizontal(t, EF, EG)) for t in iter_horizontal_candidates(F, G)]
    vm = [x for x in verts if check_vertical(x[0]).ok]
    hm = [x for x in hors if check_horizontal(x[0]).ok]
    mods = []
    for (t, st_), (b, sb) in itertools.product(hm, hm):
        for (s, ss), (r, sr) in itertools.product(vm, vm):
            if (s.src, s.tgt, r.src, r.tgt) == (t.src, b.src, t.tgt, b.tgt):
                mods += [(m, extend_modification(m, st_, sb, ss, sr))
                         for m in iter_modification_candidates(t, b, s, r)]
    return S, {"functor": funs, "vertical": verts, "horizontal": hors, "modification": mods}


_OLD = {"functor": ref_extension_strict, "vertical": ref_stvertical,
        "horizontal": ref_sthorizontal, "modification": ref_stmodification}
_NEW = {"functor": lambda E: check_functor(E).ok and is_strict_functor(E),
        "vertical": lambda x: check_vertical(x).ok,
        "horizontal": lambda x: check_horizontal(x).ok,
        "modification": lambda x: check_modification(x).ok}


def _verdicts(S, kind, x, bound):
    """The former verdict, 'ok', 'fail' or 'raise' (data it cannot type: not a
    member either), and the current one, which reports and never raises."""
    try:
        old = "ok" if _OLD[kind](S, x, bound).ok else "fail"
    except StructuralError:
        old = "raise"
    return old, _NEW[kind](x)


def _one_component_mutants(kind, x, B):
    """x with one component moved to a cell of another frame or to a
    non-invertible cell (horizontal morphisms of a functor: to another one),
    on a spread of components of each map."""
    nonunit = [c for c in B.cells if B.inverse_of(c) is None][:1]

    def cells(c):
        other = [d for d in B.cells if B.frame(d) != B.frame(c)][:1]
        return other + [d for d in nonunit if d != c and d not in other]

    moves = {"functor": {"hmor_map": lambda f: [g for g in B.hmors if g != f][:1],
                         "cell_map": cells},
             "vertical": {"at_hmor": cells},
             "horizontal": {"at_vmor": cells,
                            "at_hmor": lambda ci: [(d, ci[1]) for d in cells(ci[0])]},
             "modification": {"at_obj": cells}}[kind]
    for field, values in moves.items():
        d = getattr(x, field)
        keys = list(d)
        for k in keys[::max(1, len(keys) // 6)]:
            for v in values(d[k]):
                yield dataclasses.replace(x, **{field: {**d, k: v}})


@pytest.mark.parametrize("a, b, bound", [("nonstrict", "sigmaM", 3), ("quintet", "quintetP", 3),
                                         ("nonstrict", "sigma2", 2), ("sigmaM", "sigmaM", 3)])
def test_st_side_verdicts_match_the_former_st_checkers(tables, a, b, bound):
    B = tables[b]
    S, raw = _st_side(tables[a], B, bound)
    rejected = set()
    for kind, pairs in raw.items():
        assert pairs, kind
        for datum, x in pairs:
            old, new = _verdicts(S, kind, x, bound)
            assert (old == "ok") == new, (kind, datum.key(), old, new)
            if not new:
                continue
            for y in _one_component_mutants(kind, x, B):
                old, new = _verdicts(S, kind, y, bound)
                assert (old == "ok") == new, (kind, datum.key(), old, new)
                if not new:
                    rejected.add(kind)
    assert rejected == set(raw), rejected


@pytest.mark.parametrize("a, b", [("nonstrict", "sigmaM"), ("quintet", "quintetP")])
@pytest.mark.parametrize("operator, family", [("extend_vertical", "iso.vmor.agree"),
                                              ("extend_horizontal", "iso.hmor.agree")])
def test_3d_iso_names_a_wrong_extension_operator(tables, monkeypatch, a, b, operator, family):
    # a path of length >= 2 takes the component of its first step
    import strawcat.strictify as strictify
    right = getattr(strictify, operator)

    def wrong(t, E, E2):
        x = right(t, E, E2)
        for p in x.at_hmor:
            if len(p) >= 2:
                x.at_hmor[p] = x.at_hmor[Path(p.src, p.hmors[:1])]
        return x

    monkeypatch.setattr(strictify, operator, wrong)
    rep = verify_3d_iso(tables[a], tables[b], 3)
    assert rep.failures() and {f.check for f in rep.failures()} == {family}


# -- the st kernel's families against plain loops -------------------------------

def _rights_of(S, cells, bound):
    """The right neighbours of a cell within the bound, in the order
    (dom length, cod length, position)."""
    A = S.base
    by_left_sz = {}
    for c in cells:
        key = (A.frame(c.payload).left, c.dom.src, len(c.dom), len(c.cod))
        by_left_sz.setdefault(key, []).append(c)

    def rights_of(c, dmax, cmax):
        r = A.frame(c.payload).right
        t = S.htgt(c.dom)
        for dl in range(dmax + 1):
            for cl in range(cmax + 1):
                yield from by_left_sz.get((r, t, dl, cl), ())
    return rights_of


def hassoc_oracle(S, bound):
    """Family st.cell.hassoc by plain loops over st-cells: (count, findings)."""
    cells = S.cells(bound)
    rights_of = _rights_of(S, cells, bound)
    hp = S.hcomp_payload
    n, out = 0, []
    for c1 in cells:
        d1, k1 = len(c1.dom), len(c1.cod)
        if d1 >= bound and k1 >= bound:
            continue
        for c2 in list(rights_of(c1, bound - d1, bound - k1)):
            p12 = hp(c1.dom, c1.cod, c1.payload, c2.dom, c2.cod, c2.payload)
            n12d, n12c = d1 + len(c2.dom), k1 + len(c2.cod)
            for c3 in rights_of(c2, bound - n12d, bound - n12c):
                lhs = hp(c1.dom + c2.dom, c1.cod + c2.cod, p12,
                         c3.dom, c3.cod, c3.payload)
                p23 = hp(c2.dom, c2.cod, c2.payload, c3.dom, c3.cod, c3.payload)
                rhs = hp(c1.dom, c1.cod, c1.payload,
                         c2.dom + c3.dom, c2.cod + c3.cod, p23)
                if lhs != rhs:
                    out.append(("st.cell.hassoc", (c1, c2, c3)))
                n += 1
    return n, out


def interchange_oracle(S, bound):
    """Family st.interchange by plain loops over st-cells: (count, findings)."""
    A = S.base
    cells = S.cells(bound)
    rights_of = _rights_of(S, cells, bound)
    by_dom = {}
    for c in cells:
        by_dom.setdefault(c.dom, []).append(c)
    hp, vc = S.hcomp_payload, A.vcomp_cell
    n, out = 0, []
    for l1 in cells:
        d1, k1 = len(l1.dom), len(l1.cod)
        for r1 in list(rights_of(l1, bound - d1, bound - k1)):
            top = hp(l1.dom, l1.cod, l1.payload, r1.dom, r1.cod, r1.payload)
            for l2 in by_dom.get(l1.cod, ()):
                if len(l2.cod) + len(r1.cod) > bound:
                    continue
                for r2 in by_dom.get(r1.cod, ()):
                    if (A.frame(l2.payload).right != A.frame(r2.payload).left
                            or len(l2.cod) + len(r2.cod) > bound):
                        continue
                    bot = hp(l2.dom, l2.cod, l2.payload, r2.dom, r2.cod, r2.payload)
                    lhs = vc(bot, top)
                    rhs = hp(l1.dom, l2.cod, vc(l2.payload, l1.payload),
                             r1.dom, r2.cod, vc(r2.payload, r1.payload))
                    if lhs != rhs:
                        out.append(("st.interchange", (l1, r1, l2, r2)))
                    n += 1
    return n, out


def plain_triples(pairs, bound):
    """The triples (p, q, r) with (p, q) and (q, r) in ``pairs``, which is
    ``composable_pairs(bound)``, and len(p) + len(q) + len(r) <= bound, in
    the order of the walk over those pairs."""
    after = {}
    for q, r in pairs:
        after.setdefault(q, []).append(r)
    return [(p, q, r) for p, q in pairs for r in after[q]
            if len(p) + len(q) + len(r) <= bound]


def strict_oracle(S, bound, slow=True):
    """`st_strict_report` by plain loops over paths and st-cells: families
    P1, C1, C2, C3 and C5 as it once ran them, one instance at a time
    through `StrictifiedDouble`'s own composites; C4 and C6 by the two
    oracles above, left out unless slow; C7 and C8 as it runs them."""
    A = S.base
    rep = Report("oracle")
    all_paths, cells = S.paths(bound), S.cells(bound)
    pairs = S.composable_pairs(bound, all_paths)

    # P1: concatenation associativity and units
    for p in all_paths:
        rep.require("st.hmor.unit",
                    S.hcomp_hmor(S.h_id(S.htgt(p)), p) == p
                    and S.hcomp_hmor(p, S.h_id(p.src)) == p, (p,))
    triples = plain_triples(pairs, bound)
    for p, q, r in triples:
        rep.require("st.hmor.assoc",
                    S.hcomp_hmor(r, S.hcomp_hmor(q, p)) ==
                    S.hcomp_hmor(S.hcomp_hmor(r, q), p), (p, q, r))

    # C1: vertical identity cells are neutral
    for c in cells:
        rep.require("st.cell.vunit",
                    S.vcomp_cell(S.vid_of(c.cod), c) == c
                    and S.vcomp_cell(c, S.vid_of(c.dom)) == c, (c,))

    # C2: vertical associativity: bounded total-length chains + unary stratum
    small = [c for c in cells if len(c.dom) + len(c.cod) <= bound]
    small_by_dom = {}
    for c in small:
        small_by_dom.setdefault(c.dom, []).append(c)
    for c1 in small:
        budget = bound - len(c1.dom) - len(c1.cod)
        for c2 in small_by_dom.get(c1.cod, ()):
            if len(c2.cod) > budget:
                continue
            c12 = S.vcomp_cell(c2, c1)
            for c3 in small_by_dom.get(c2.cod, ()):
                if len(c2.cod) + len(c3.cod) > budget:
                    continue
                lhs = S.vcomp_cell(c3, c12)
                rhs = S.vcomp_cell(S.vcomp_cell(c3, c2), c1)
                rep.require("st.cell.vassoc", lhs == rhs, (c1, c2, c3))
    unary = [c for c in cells if len(c.dom) == 1 and len(c.cod) == 1]
    unary_by_dom = {}
    for c in unary:
        unary_by_dom.setdefault(c.dom, []).append(c)
    for c1 in unary:
        for c2 in unary_by_dom.get(c1.cod, ()):
            c12 = S.vcomp_cell(c2, c1)
            for c3 in unary_by_dom.get(c2.cod, ()):
                lhs = S.vcomp_cell(c3, c12)
                rhs = S.vcomp_cell(S.vcomp_cell(c3, c2), c1)
                rep.require("st.cell.vassoc", lhs == rhs, (c1, c2, c3))

    # C3: horizontal unit cells (empty paths) are neutral for hcomp
    for c in cells:
        e_l = S.vid_of(S.h_id(c.dom.src))
        e_r = S.vid_of(S.h_id(S.htgt(c.dom)))
        fr = A.frame(c.payload)
        if A.frame(e_l.payload).right == fr.left:
            rep.require("st.cell.hunit", S.hcomp_cell(c, e_l) == c, (c,))
        if fr.right == A.frame(e_r.payload).left:
            rep.require("st.cell.hunit", S.hcomp_cell(e_r, c) == c, (c,))

    def by_oracle(family, oracle):
        if slow:
            rep.counts[family], found = oracle(S, bound)
            for check, witness in found:
                rep.add(check, False, witness)

    by_oracle("st.cell.hassoc", hassoc_oracle)                          # C4

    # C5: vid multiplicative over concatenation
    for p, q in pairs:
        rep.require("st.vid.mult",
                    S.hcomp_cell(S.vid_of(q), S.vid_of(p)) == S.vid_of(p + q), (p, q))

    by_oracle("st.interchange", interchange_oracle)                     # C6

    # C7: horizontal identities functorial
    for a in A.objects:
        rep.require("st.hid.videntity", S.hid_of(A.v_id(a)) == S.vid_of(S.h_id(a)), (a,))
    for (w, u), wu in A.vcomp_vmor_table.items():
        rep.require("st.hid.functorial",
                    S.vcomp_cell(S.hid_of(w), S.hid_of(u)) == S.hid_of(wu), (u, w))

    # C8: all constraints are identity cells
    for p, q, r in triples:
        c, d = S.assoc_of(p, q, r)
        rep.require("st.constraint.identity", c == S.vid_of(p + q + r) and d == c, (p, q, r))
    for p in all_paths:
        rep.require("st.constraint.identity",
                    S.lunit_of(p)[0] == S.vid_of(p) and S.runit_of(p)[0] == S.vid_of(p), (p,))
    return rep


SLOW = ("st.cell.hassoc", "st.interchange")


def _assert_kernel_matches_oracles(S, bound, rep, slow=True):
    """rep, ``st_strict_report(S, bound)``, has the oracle's counts, in its
    key order, and its findings, in order and as rendered; without slow, C4
    and C6 are left out of the comparison."""
    want = strict_oracle(S, bound, slow)
    left_out = () if slow else SLOW
    got = [(f, n) for f, n in rep.params["instances"].items() if f not in left_out]
    assert got == list(want.counts.items())
    assert [f.render() for f in rep.findings if f.check not in left_out] == \
        [f.render() for f in want.findings]


def _mutant(corpus_dir, name, old, new):
    text = (corpus_dir / f"{name}.pdc").read_text()
    assert old + "\n" in text, (name, old)
    return elaborate(parse(text.replace(old, new, 1), name), allow_invalid=True)


def test_st_kernel_findings_on_a_broken_cell_table(corpus_dir, monkeypatch):
    A = _mutant(corpus_dir, "nonstrict", "  t * t = ce", "  t * t = t")
    # the default batch, and one smaller than the bound + 1 runs of an outer pair
    for batch in (core._BATCH, 2):
        monkeypatch.setattr(core, "_BATCH", batch)
        S = st(A)
        rep = st_strict_report(S, 3)
        assert not rep.ok
        assert Counter(f.check for f in rep.failures()) == {"st.interchange": 1680,
                                                            "st.cell.hassoc": 84}
        _assert_kernel_matches_oracles(S, 3, rep)
    # the witness text of the first findings, as the report renders it
    assert rep.render().splitlines()[:3] == [
        "strict(st(nonstrict)): FAIL (1764 violations)",
        "  [FAIL] st.cell.hassoc witness=StCell(Path(st, ()), Path(st, ('j',)), cj),"
        "StCell(Path(st, ('e',)), Path(st, ('e',)), ce),"
        "StCell(Path(st, ('e',)), Path(st, ('e',)), t)",
        "  [FAIL] st.cell.hassoc witness=StCell(Path(st, ()), Path(st, ('j',)), cj),"
        "StCell(Path(st, ('e',)), Path(st, ('e',)), ce),"
        "StCell(Path(st, ('j', 'e')), Path(st, ('e',)), t)",
    ]


def test_st_kernel_findings_on_a_planted_coherence_iso():
    # xi((e), (e, e)) replaced by t: every instance at bound 3 still holds,
    # and 552 hcomp-associativity instances at bound 4 fail
    plant = (Path("st", ("e",)), Path("st", ("e", "e")))
    S3 = st(nonstrict())
    S3._xi[plant] = ("t", "t")
    assert st_strict_report(S3, 3).ok
    S = st(nonstrict())
    S._xi[plant] = ("t", "t")
    rep = st_strict_report(S, 4)
    assert Counter(f.check for f in rep.failures()) == {"st.cell.hassoc": 552}
    _assert_kernel_matches_oracles(S, 4, rep)


@pytest.mark.parametrize("name, old, new, failure", [
    ("nonstrict", "  e * e = e", "  e * e = j", "frame.hcomp at (ce, ce, ce)"),
    ("sigmaM", "  m1 * m1 = m2", "  m1 * m1 = m1", "frame.hcomp at (c_m1, c_m1, c_m2)"),
    ("quintet", "  cb * s = s", "  cb * s = cb", "frame.hcomp at (cb, s, cb)"),
    ("sigma2", "  z1 * z1 = z0", "  z1 * z1 = z1", "frame.hcomp at (c_z1, c_z1, c_z0)"),
    # cu runs along u, not along identities
    ("quintet", "  ha ha ha = ca ca", "  ha ha ha = cu ca", "assoc.globular at (ha, ha, ha, cu)"),
])
def test_st_undefined_composite_is_a_structural_error(corpus_dir, name, old, new, failure):
    # refused on entry, naming validate's first failure of the base
    with pytest.raises(StructuralError, match=re.escape(f"the base fails {failure}") + "$"):
        st_strict_report(st(_mutant(corpus_dir, name, old, new)), 3)


# how many of the 31 single-entry mutants that get a report name each family;
# st.hmor.* and st.constraint.identity hold by construction, and in these
# bases each frame that st.hid.* reads holds one cell, so a change there is
# refused
MUTANTS_NAMING = {"st.cell.hassoc": 31, "st.interchange": 28, "st.vid.mult": 25,
                  "st.cell.hunit": 11, "st.cell.vunit": 4, "st.cell.vassoc": 3}


def test_st_strict_report_refuses_exactly_the_ill_framed_mutants():
    # a base that fails a structure, frame or globularity family leaves some
    # composite of st A undefined; any other base gets the plain loops' report
    refused, run, naming = 0, 0, Counter()
    for M in itertools.chain(*(single_entry_mutants(b()) for b in (nonstrict, quintet, sigma_m3))):
        framing = [f.check for f in validate(M).failures()
                   if f.check.startswith(("structure.", "frame."))
                   or f.check.endswith(".globular")]
        if framing:
            with pytest.raises(StructuralError, match=re.escape(f"the base fails {framing[0]} at")):
                st_strict_report(st(M), 3)
            refused += 1
        else:
            S = st(M)
            rep = st_strict_report(S, 3)
            _assert_kernel_matches_oracles(S, 3, rep)
            naming.update({f.check for f in rep.failures()})
            run += 1
    assert (refused, run) == (741, 31) and naming == MUTANTS_NAMING


@pytest.mark.parametrize("name", ["terminal", "unit", "vertfree", "sigmaM", "sigma2", "quintet",
                                  "quintetP", "nonstrict"])
def test_st_strict_report_matches_the_plain_loops_on_every_member(tables, name):
    # every family up to bound 3; at bound 4 all but C4 and C6, whose plain
    # loops take seconds there and whose counts ST_COUNTS pins
    for bound in range(4 if name == "sigmaM" else 5):
        S = st(tables[name])
        _assert_kernel_matches_oracles(S, bound, st_strict_report(S, bound), slow=bound < 4)


# -- the bounded table against plain loops -----------------------------------

def _plain_table(S, bound):
    """`StrictifiedDouble.table` by plain loops over st-cells, composing each
    pair through `StrictifiedDouble.vcomp_cell` and `hcomp_cell`."""
    A = S.base
    paths, cells = S.paths(bound), S.cells(bound)
    pairs = S.composable_pairs(bound, paths)
    frames = {c: S.frame(c) for c in cells}
    by_dom, by_left = {}, {}
    for c in cells:
        by_dom.setdefault(c.dom, []).append(c)
        by_left.setdefault(frames[c].left, []).append(c)
    return TableDouble(
        name=f"{S.name}<={bound}", objects=A.objects,
        vmors=A.vmors, vmor_src=A.vmor_src, vmor_tgt=A.vmor_tgt,
        v_identity=A.v_identity, vcomp_vmor_table=A.vcomp_vmor_table,
        hmors=tuple(paths), hmor_src={p: p.src for p in paths},
        hmor_tgt={p: S.htgt(p) for p in paths},
        h_identity={p.src: p for p in paths if not p.hmors},
        hcomp_hmor_table={(q, p): p + q for p, q in pairs},
        cells=tuple(cells), cell_frames=frames,
        vcomp_cell_table={(lo, up): S.vcomp_cell(lo, up)
                          for up in cells for lo in by_dom.get(up.cod, ())},
        vid_cell={p: S.vid_of(p) for p in paths},
        hcomp_cell_table={(r, l): S.hcomp_cell(r, l) for l in cells
                          for r in by_left.get(frames[l].right, ())
                          if len(l.dom) + len(r.dom) <= bound
                          and len(l.cod) + len(r.cod) <= bound},
        hid_cell={u: S.hid_of(u) for u in A.vmors},
        assoc={pqr: S.assoc_of(*pqr) for pqr in plain_triples(pairs, bound)},
        lunit={p: S.lunit_of(p) for p in paths},
        runit={p: S.runit_of(p) for p in paths},
    )


def _assert_table_matches_plain(A, bound, monkeypatch):
    want = _plain_table(st(A), bound)

    def composed(*_):
        raise AssertionError("table() composed a pair of st-cells")

    with monkeypatch.context() as m:
        m.setattr(StrictifiedDouble, "vcomp_cell", composed)
        m.setattr(StrictifiedDouble, "hcomp_cell", composed)
        got = st(A).table(bound)
    for f in dataclasses.fields(TableDouble):
        if f.compare:
            x, y = getattr(got, f.name), getattr(want, f.name)
            assert x == y, f.name
            if isinstance(x, dict):
                assert list(x) == list(y), f.name          # entry order too
    # each composite is the table's own cell
    cells = {id(c) for c in got.cells}
    for table in (got.vcomp_cell_table, got.hcomp_cell_table):
        assert all(id(c) in cells for c in table.values())


@pytest.mark.parametrize("name, bound", [(n, b) for n in ("terminal", "unit", "vertfree",
                                                          "sigmaM", "sigma2", "quintet",
                                                          "quintetP", "nonstrict")
                                         for b in range(4 if n == "sigmaM" else 5)])
def test_table_matches_the_plain_loops(tables, name, bound, monkeypatch):
    _assert_table_matches_plain(tables[name], bound, monkeypatch)


@pytest.mark.parametrize("batch", [core._BATCH, 2])
def test_table_of_a_base_failing_only_axioms_matches_the_plain_loops(corpus_dir, batch,
                                                                     monkeypatch):
    A = _mutant(corpus_dir, "nonstrict", "  t * t = ce", "  t * t = t")
    assert all(not f.check.startswith(("structure.", "frame.")) for f in validate(A).failures())
    assert not validate(A).ok
    monkeypatch.setattr(core, "_BATCH", batch)
    for bound in range(5):
        _assert_table_matches_plain(A, bound, monkeypatch)


def test_table_refuses_exactly_the_mutants_st_strict_report_refuses():
    refused = built = 0
    for M in itertools.chain(*(single_entry_mutants(b()) for b in (nonstrict, quintet, sigma_m3))):
        try:
            st_strict_report(st(M), 2)
        except StructuralError as e:
            with pytest.raises(StructuralError, match="the base fails") as got:
                st(M).table(2)
            assert str(got.value) == str(e)
            refused += 1
        else:
            assert isinstance(st(M).table(2), TableDouble)
            built += 1
    assert (refused, built) == (741, 31)


SCALE = "STRAWCAT_SCALE"


@pytest.mark.skipif(not os.environ.get(SCALE), reason=f"a scale point; set {SCALE}=1 to run it")
def test_st_sigma_m_table_at_bound_4_within_5_s_and_500_mb():
    # a fresh process, so that its ru_maxrss is the peak of this run alone
    script = ("import json, resource\n"
              "from strawcat.corpus import sigma_m3\n"
              "from strawcat.strictify import st\n"
              "T = st(sigma_m3()).table(4)\n"
              "print(json.dumps({'counts': [len(T.cells), len(T.vcomp_cell_table),\n"
              "                             len(T.hcomp_cell_table)],\n"
              "                  'kb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))\n")
    src = str(pathlib.Path(strawcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=600)
    seconds = time.perf_counter() - t0
    run = json.loads(out.stdout.splitlines()[-1])
    assert run["counts"] == [11_361, 1_192_141, 56_165]
    assert seconds <= 5, seconds
    assert run["kb"] <= 500 << 10, run["kb"]        # KiB: 500 MiB


@pytest.mark.skipif(not os.environ.get(SCALE), reason=f"a scale point; set {SCALE}=1 to run it")
def test_st_sigma_m_strictness_at_bound_5_within_36_s_and_256_mib():
    # a fresh process, so that its ru_maxrss is the peak of this run alone
    script = ("import json, resource\n"
              "from strawcat.corpus import sigma_m3\n"
              "from strawcat.strictify import st, st_strict_report\n"
              "rep = st_strict_report(st(sigma_m3()), 5)\n"
              "print(json.dumps({'ok': rep.ok, 'counts': rep.params['instances'],\n"
              "                  'kb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))\n")
    src = str(pathlib.Path(strawcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=600)
    seconds = time.perf_counter() - t0
    run = json.loads(out.stdout.splitlines()[-1])
    assert run["ok"]
    assert list(run["counts"].items()) == [
        ("st.hmor.unit", 364), ("st.hmor.assoc", 6_652), ("st.cell.vunit", 117_910),
        ("st.cell.vassoc", 163), ("st.cell.hunit", 235_820), ("st.cell.hassoc", 3_016_597),
        ("st.vid.mult", 2_005), ("st.interchange", 301_810_611), ("st.hid.videntity", 1),
        ("st.hid.functorial", 1), ("st.constraint.identity", 7_016)]
    assert sum(run["counts"].values()) == 305_197_140
    assert seconds <= 36, seconds
    assert run["kb"] <= 256 << 10, run["kb"]        # KiB: 256 MiB


def test_table_refuses_a_composite_outside_its_cells():
    # a coherence iso framed on j, not on e, leaves horizontal composites
    # whose payload is no cell between the evaluations of their boundaries
    S = st(nonstrict())
    S._xi[(Path("st", ("e",)), Path("st", ("e", "e")))] = ("cj", "cj")
    with pytest.raises(StructuralError, match="a composite is not a bounded st-cell$"):
        S.table(3)
