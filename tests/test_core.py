import dataclasses
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strawcat import core
from strawcat import (
    is_bicategory,
    is_cofibrant,
    is_strict,
    product,
    terminal,
    underlying_bicategory,
    underlying_category,
    unit_object,
    validate,
)
from strawcat.core import FiniteCategory, Frame, TableDouble, category_is_free
from strawcat.corpus import nonstrict, quintet, sigma_m3, vertical_free
from strawcat.homs import hom_double
from strawcat.report import Report, StructuralError


def test_corpus_validates(tables):
    for name, A in tables.items():
        rep = validate(A)
        assert rep.ok, f"{name}: {rep.render()}"


def test_terminal_is_trivially_valid():
    rep = validate(terminal())
    assert rep.ok and rep.failures() == []


def test_strictness_flags(tables):
    strict = {n: is_strict(A) for n, A in tables.items()}
    assert strict["sigmaM"] and strict["quintet"] and strict["terminal"]
    assert not strict["nonstrict"]


def test_bicategory_flags(tables):
    assert is_bicategory(tables["nonstrict"])
    assert is_bicategory(tables["sigmaM"])
    assert not is_bicategory(tables["quintet"])
    assert not is_bicategory(tables["vertfree"])


def test_underlying_bicategory_of_quintet(tables):
    # Q has one generating square along a non-identity vertical, so its
    # underlying bicategory keeps only the three identity-like cells
    H = underlying_bicategory(tables["quintet"])
    assert set(H.cells) == {"ca", "cb", "cf"}
    assert validate(H).ok
    assert is_bicategory(H)


def test_underlying_bicategory_of_vertical_only(tables):
    H = underlying_bicategory(tables["vertfree"])
    assert set(H.hmors) == {"ha", "hb"}
    assert len(H.cells) == 2


def test_underlying_category(tables):
    U = underlying_category(tables["quintet"])
    assert set(U.mors) == {"ida", "idb", "u"}
    assert U.comp[("idb", "u")] == "u"
    U2 = underlying_category(tables["nonstrict"])
    assert set(U2.mors) == set(U2.identity.values())


def test_product_validates_and_unit_law(tables):
    Q = tables["quintet"]
    P = product(Q, Q)
    assert validate(P).ok
    PT = product(terminal(), Q)
    assert validate(PT).ok
    # unit law of the cartesian product: projection is a bijection on ids
    assert len(PT.objects) == len(Q.objects)
    assert len(PT.cells) == len(Q.cells)
    assert is_strict(PT) == is_strict(Q)


def test_product_of_nonstrict(tables):
    P = product(tables["nonstrict"], tables["sigma2"])
    assert validate(P).ok
    assert not is_strict(P)


def test_unit_object_shape():
    I = unit_object()
    assert len(I.objects) == 1 and len(I.hmors) == 1 and len(I.cells) == 1
    assert validate(I).ok
    assert is_strict(I)
    assert underlying_category(I).mors == I.vmors


def test_cofibrancy(tables):
    for name in tables:
        assert is_cofibrant(tables[name]), name


def test_cofibrancy_fails_on_commuting_square():
    # free-looking category with a forced relation rp = sq
    C = FiniteCategory(
        name="square",
        objects=("a", "b", "c", "d"),
        mors=("ia", "ib", "ic", "id_", "p", "q", "r", "s", "diag"),
        src={"ia": "a", "ib": "b", "ic": "c", "id_": "d",
             "p": "a", "q": "a", "r": "b", "s": "c", "diag": "a"},
        tgt={"ia": "a", "ib": "b", "ic": "c", "id_": "d",
             "p": "b", "q": "c", "r": "d", "s": "d", "diag": "d"},
        identity={"a": "ia", "b": "ib", "c": "ic", "d": "id_"},
        comp={("ia", "ia"): "ia", ("ib", "ib"): "ib", ("ic", "ic"): "ic",
              ("id_", "id_"): "id_",
              ("p", "ia"): "p", ("ib", "p"): "p",
              ("q", "ia"): "q", ("ic", "q"): "q",
              ("r", "ib"): "r", ("id_", "r"): "r",
              ("s", "ic"): "s", ("id_", "s"): "s",
              ("r", "p"): "diag", ("s", "q"): "diag",
              ("diag", "ia"): "diag", ("id_", "diag"): "diag"},
    )
    assert not category_is_free(C)


def test_free_category_on_arrow_is_free(tables):
    assert category_is_free(underlying_category(tables["vertfree"]))


# --- mutation detection ------------------------------------------------------

def mutate(A, **changes):
    return dataclasses.replace(A, **changes)


def test_a_replaced_table_computes_its_own_inverses():
    N = nonstrict()
    assert N.inverse_of("t") == "t"
    vc = {k: x for k, x in N.vcomp_cell_table.items() if k != ("t", "t")}
    assert mutate(N, vcomp_cell_table=vc).inverse_of("t") is None


def test_a_replaced_table_indexes_its_own_frames():
    N = nonstrict()
    fr = N.frame("t")
    assert N.cells_with_frame(fr) == ("ce", "t")
    moved = mutate(N, cell_frames={**N.cell_frames, "t": N.frame("cj")})
    assert moved.cells_with_frame(fr) == ("ce",)
    assert moved.cells_with_frame(N.frame("cj")) == ("cj", "t")


def test_a_replaced_table_gets_its_own_integer_form():
    N = nonstrict()
    assert validate(N).ok
    bad = mutate(N, hcomp_cell_table={**N.hcomp_cell_table, ("ce", "t"): "ce"})
    assert bad.interned() is not N.interned()
    assert "interchange" in {f.check for f in validate(bad).failures()}


def test_a_second_validate_reads_the_same_integer_form(monkeypatch):
    N = nonstrict()
    validate(N)
    form = N.interned()
    monkeypatch.setattr(core, "Interned", lambda A: pytest.fail("interned twice"))
    assert validate(N).ok and N.interned() is form


def test_an_undefined_factor_gives_an_undefined_composite():
    T = nonstrict().interned()
    n = len(T.C)
    cells, undef = np.arange(n), np.full(n, n)
    for X in (T.cv, T.ch):
        assert X.undef == n
        assert (X(cells, undef) == n).all() and (X(undef, cells) == n).all()
        assert (X(cells, np.full(n, -1)) == n).all()     # an id the table lacks


def test_inverse_lookups_leave_equality_alone():
    N, N2 = nonstrict(), nonstrict()
    assert N == N2
    N.inverse_of("t")
    N.cells_with_frame(N.frame("t"))
    validate(N)
    assert N == N2 and N2 == N


def test_nonstrict_broken_associator_names_axiom():
    N = nonstrict()
    bad = mutate(N, assoc={**N.assoc, ("e", "j", "j"): ("ce", "ce")})
    rep = validate(bad)
    assert not rep.ok
    assert {f.check for f in rep.failures()} & {"pentagon", "triangle"}


def test_non_inverse_associator_flagged():
    M = sigma_m3()
    # replace one associator by a non-inverse pair: cells here are all vid,
    # so point the inverse at a different hmor's identity cell
    bad = mutate(M, assoc={**M.assoc, ("m1", "m1", "m1"): ("c_m0", "c_m0")})
    rep = validate(bad)
    assert not rep.ok
    checks = {f.check for f in rep.failures()}
    assert "assoc.globular" in checks or "assoc.invertible" in checks


def test_broken_interchange_flagged():
    Q = quintet()
    bad_h = dict(Q.hcomp_cell_table)
    bad_h[("cb", "s")] = "cb"       # wrong frame for the composite
    rep = validate(mutate(Q, hcomp_cell_table=bad_h))
    assert not rep.ok
    assert any(f.check.startswith("frame.hcomp") or f.check == "interchange"
               for f in rep.failures())


def test_missing_table_row_is_structural():
    Q = quintet()
    vc = dict(Q.vcomp_cell_table)
    del vc[("cb", "s")]
    rep = validate(mutate(Q, vcomp_cell_table=vc))
    assert not rep.ok
    assert any(f.check == "structure.vcomp.cell.total" for f in rep.failures())


@pytest.mark.parametrize("table, key, value, check", [
    ("vcomp_vmor_table", ("u", "u"), "u", "vcomp.vmor.composable"),
    ("hcomp_hmor_table", ("f", "f"), "f", "hcomp.hmor.composable"),
    ("vcomp_cell_table", ("ca", "cb"), "ca", "vcomp.cell.composable"),
    ("hcomp_cell_table", ("ca", "cb"), "cb", "hcomp.cell.composable"),
    ("assoc", ("f", "f", "f"), ("cf", "cf"), "assoc.composable"),
    ("vcomp_cell_table", ("ca", "nowhere"), "ca", "vcomp.cell.composable"),
    ("vid_cell", "nowhere", "ca", "vid.keys"),
    ("hid_cell", "nowhere", "ca", "hid.keys"),
    ("lunit", "nowhere", ("ca", "ca"), "lunit.keys"),
    ("runit", "nowhere", ("ca", "ca"), "runit.keys"),
])
def test_a_key_that_does_not_compose_is_structural(table, key, value, check):
    Q = quintet()
    rep = validate(mutate(Q, **{table: {**getattr(Q, table), key: value}}))
    witness = key if isinstance(key, tuple) else (key,)
    assert [(f.check, f.witness) for f in rep.failures()] == [("structure." + check, witness)]


def test_dangling_identifier_is_structural_not_axiom():
    Q = quintet()
    rep = validate(mutate(Q, hmor_src={**Q.hmor_src, "f": "nowhere"}))
    assert not rep.ok
    assert all(f.check.startswith("structure.") for f in rep.failures())


# a small pool of single-entry table mutations used as a property test;
# each either leaves the table valid (no-op swap) or is caught
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_random_single_entry_mutations_detected(data):
    A = nonstrict()
    table_name = data.draw(st.sampled_from(["vcomp_cell_table", "hcomp_cell_table"]))
    table = dict(getattr(A, table_name))
    key = data.draw(st.sampled_from(sorted(table)))
    new = data.draw(st.sampled_from(sorted(A.cells)))
    changed = table[key] != new
    table[key] = new
    rep = validate(mutate(A, **{table_name: table}))
    if changed:
        assert not rep.ok
    else:
        assert rep.ok


def test_underlying_structures_commute_with_product(tables):
    # the canonical isomorphism is the identity on pair identifiers
    A, B = tables["quintet"], tables["nonstrict"]
    P = product(A, B)
    HP = underlying_bicategory(P)
    HH = product(underlying_bicategory(A), underlying_bicategory(B))
    assert set(HP.cells) == set(HH.cells)
    assert set(HP.vmors) == set(HH.vmors)
    assert HP.hcomp_hmor_table == HH.hcomp_hmor_table
    UP = underlying_category(P)
    UU_mors = {(u, v) for u in underlying_category(A).mors
               for v in underlying_category(B).mors}
    assert set(UP.mors) == UU_mors


def test_double_interface_protocol(tables):
    from strawcat.core import DoubleInterface
    from strawcat.strictify import st
    assert isinstance(tables["quintet"], DoubleInterface)
    assert isinstance(st(tables["nonstrict"]), DoubleInterface)


def test_strict_functor_count_from_unit(tables):
    # |strict functors I -> X| = |ob X| on the corpus
    from strawcat.homs import enumerate_functors, is_strict_functor
    I = unit_object()
    for name in ("terminal", "sigmaM", "quintet", "nonstrict", "vertfree"):
        X = tables[name]
        fs = [F for F in enumerate_functors(I, X) if is_strict_functor(F)]
        assert len(fs) == len(X.objects), name


# --- the array passes against the loops they replaced -------------------------

def _plain_structural(A, rep):
    """The structural checks of `validate` as per-entry loops, its oracle."""
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

    # every key of a composition table is a composable pair (triple, for assoc)
    frame = A.cell_frames
    for what, table, ids, meet in (
            ("vcomp.vmor", A.vcomp_vmor_table, vm, lambda w, u: A.vmor_tgt[u] == A.vmor_src[w]),
            ("hcomp.hmor", A.hcomp_hmor_table, hm, lambda g, f: A.hmor_tgt[f] == A.hmor_src[g]),
            ("vcomp.cell", A.vcomp_cell_table, cs, lambda lo, up: frame[up].bottom == frame[lo].top),
            ("hcomp.cell", A.hcomp_cell_table, cs, lambda r, l: frame[l].right == frame[r].left),
            ("assoc", A.assoc, hm, lambda f, g, h: A.hmor_tgt[f] == A.hmor_src[g]
             and A.hmor_tgt[g] == A.hmor_src[h])):
        for key in table:
            need(ids.issuperset(key) and meet(*key), key, what + ".composable")
    for what, table, ids in (("vid", A.vid_cell, hm), ("hid", A.hid_cell, vm),
                             ("lunit", A.lunit, hm), ("runit", A.runit, hm)):
        for key in table:
            need(key in ids, (key,), what + ".keys")

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
    for (lo, up), x in A.vcomp_cell_table.items():
        need(x in cs, (lo, up, x), "vcomp.cell.ids")
    for (r, l), x in A.hcomp_cell_table.items():
        need(x in cs, (r, l, x), "hcomp.cell.ids")
    for (c, d) in list(A.assoc.values()) + list(A.lunit.values()) + list(A.runit.values()):
        need(c in cs and d in cs, (c, d), "constraint.ids")
    return ok


def _plain_validate(A):
    """The per-instance loops that `validate` replaced by array passes, kept
    as its oracle: the findings must agree element for element."""
    rep = Report(f"validate({A.name})")
    if not _plain_structural(A, rep):
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


def one_object(name, vcomp, hcomp):
    """The one-object table on a unital vertical magma and a unital
    horizontal one, each a dict (second, first) -> composite on names with
    unit "1".  Its cells are the identity cells on vmors and hmors, and each
    constraint is the identity cell on its source."""
    vm = tuple(sorted({x for k in vcomp for x in k}))
    hm = tuple(sorted({x for k in hcomp for x in k}))
    vid = {f: f"c{f}" for f in hm}
    hid = {u: f"d{u}" for u in vm if u != "1"} | {"1": "c1"}
    frames = {c: Frame(f, f, "1", "1") for f, c in vid.items()}
    frames |= {c: Frame("1", "1", u, u) for u, c in hid.items()}
    on = {c: u for u, c in hid.items()}
    cs = tuple(frames)

    def pairs(meet):
        return [(s, f) for s, f in itertools.product(cs, cs) if meet(frames[s], frames[f])]
    vcomp_c = {(lo, up): hid[vcomp[(on[lo], on[up])]] if lo in on else lo
               for lo, up in pairs(lambda lo, up: up.bottom == lo.top)}
    hcomp_c = {(r, l): vid[hcomp[(frames[r].top, frames[l].top)]] if r.startswith("c") else r
               for r, l in pairs(lambda r, l: l.right == r.left)}
    return TableDouble(
        name=name, objects=("o",),
        vmors=vm, vmor_src=dict.fromkeys(vm, "o"), vmor_tgt=dict.fromkeys(vm, "o"),
        v_identity={"o": "1"}, vcomp_vmor_table=dict(vcomp),
        hmors=hm, hmor_src=dict.fromkeys(hm, "o"), hmor_tgt=dict.fromkeys(hm, "o"),
        h_identity={"o": "1"}, hcomp_hmor_table=dict(hcomp),
        cells=cs, cell_frames=frames, vcomp_cell_table=vcomp_c,
        vid_cell=vid, hcomp_cell_table=hcomp_c, hid_cell=hid,
        assoc={(f, g, h): (vid[hcomp[(hcomp[(h, g)], f)]],) * 2
               for f, g, h in itertools.product(hm, hm, hm)},
        lunit={f: (vid[f], vid[f]) for f in hm},
        runit={f: (vid[f], vid[f]) for f in hm},
    )


def cyclic(n):
    """The strict one-object 2-category on Z/n with identity cells only."""
    names = ["1"] + [f"h{i}" for i in range(1, n)]
    table = {(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)}
    return one_object(f"Z{n}", {("1", "1"): "1"}, table)


def agrees(A):
    new, old = validate(A), _plain_validate(A)
    assert new.findings == old.findings and new.params == old.params
    return new


# the default batch, and one so small that every family spans many batches
BATCHES = pytest.mark.parametrize("batch", [core._BATCH, 2])


@BATCHES
def test_validate_matches_the_loops_on_corpus_products_homs_and_a_monoid(
        tables, batch, monkeypatch):
    monkeypatch.setattr(core, "_BATCH", batch)
    for A in tables.values():
        agrees(A)
        # every other entry of each table dropped: many findings at once
        for name in MUTATED:
            table = getattr(A, name)
            agrees(mutate(A, **{name: dict(list(table.items())[::2])}))
    Q, N = tables["quintet"], tables["nonstrict"]
    for A in (product(Q, Q), product(terminal(), Q), product(N, tables["sigma2"]),
              hom_double(N, tables["sigmaM"]).table, hom_double(N, N).table, cyclic(7)):
        assert agrees(A).ok


MUTATED = {
    "vcomp_vmor_table": "vmors", "hcomp_hmor_table": "hmors",
    "vcomp_cell_table": "cells", "hcomp_cell_table": "cells",
    "assoc": "cells", "lunit": "cells", "runit": "cells",
    "vid_cell": "cells", "hid_cell": "cells",
}


def single_entry_mutants(A):
    """Every table that differs from A in one entry of a composition table,
    a constraint or an identity-cell map: the entry dropped, or one slot of
    its value changed to another id of its kind or to an unknown one."""
    for name, pool in MUTATED.items():
        table = getattr(A, name)
        for key, value in table.items():
            yield mutate(A, **{name: {k: x for k, x in table.items() if k != key}})
            slots = list(value) if name in ("assoc", "lunit", "runit") else [value]
            for i, old in enumerate(slots):
                for new in (*getattr(A, pool), "unknown"):
                    if new != old:
                        out = slots[:i] + [new] + slots[i + 1:]
                        yield mutate(A, **{name: {**table, key: out[0] if len(out) == 1
                                                  else tuple(out)}})


@BATCHES
@pytest.mark.parametrize("build", [nonstrict, quintet, sigma_m3], ids=lambda b: b.__name__)
def test_validate_matches_the_loops_on_every_single_entry_mutant(build, batch, monkeypatch):
    monkeypatch.setattr(core, "_BATCH", batch)
    seen = 0
    for M in single_entry_mutants(build()):
        try:
            old = _plain_validate(M)
        except (KeyError, StructuralError):
            continue
        assert validate(M).findings == old.findings
        seen += 1
    assert seen > 50


def plant(A, table, key, value):
    return mutate(A, **{table: {**getattr(A, table), key: value}})


def with_twin(A, c, twin):
    """A with one more cell, twin, in c's frame, that composes as c does."""
    def dup(table):
        out = dict(table)
        for key, x in table.items():
            for new in itertools.product(*[(k, twin) if k == c else (k,) for k in key]):
                out.setdefault(new, x)
        return out
    return mutate(A, cells=A.cells + (twin,), cell_frames={**A.cell_frames, twin: A.frame(c)},
                  vcomp_cell_table=dup(A.vcomp_cell_table),
                  hcomp_cell_table=dup(A.hcomp_cell_table))


# a unital magma on {1, x, y} in which (x.x).y = x differs from x.(x.y) = y
MAGMA = {("1", "1"): "1", ("1", "x"): "x", ("x", "1"): "x", ("1", "y"): "y", ("y", "1"): "y",
         ("x", "x"): "y", ("x", "y"): "y", ("y", "x"): "x", ("y", "y"): "x"}

# an idempotent x: a vertical endomorphism that is not an identity
IDEMPOTENT = {("1", "1"): "1", ("1", "x"): "x", ("x", "1"): "x", ("x", "x"): "x"}

FAMILY_MUTANTS = {
    "vcat.unit": lambda: one_object("half-unital", {**IDEMPOTENT, ("x", "1"): "1"},
                                    {("1", "1"): "1"}),
    "vcat.assoc": lambda: one_object("magma", MAGMA, {("1", "1"): "1"}),
    # dx has the frame of 1.1 -> 1 but runs along x, not the identity
    "lunit.globular": lambda: plant(one_object("idempotent", IDEMPOTENT, {("1", "1"): "1"}),
                                   "lunit", "1", ("dx", "dx")),
    "cell.vcat.assoc": lambda: plant(nonstrict(), "vcomp_cell_table", ("ce", "t"), "ce"),
    "interchange": lambda: plant(nonstrict(), "hcomp_cell_table", ("ce", "t"), "ce"),
    "hcomp.vid": lambda: plant(nonstrict(), "hcomp_cell_table", ("cj", "ce"), "t"),
    "hid.of.videntity": lambda: plant(with_twin(nonstrict(), "cj", "cj2"),
                                      "hid_cell", "idv", "cj2"),
    "hid.functorial": lambda: plant(with_twin(vertical_free(), "cu", "cu2"),
                                    "vcomp_cell_table", ("cb", "cu"), "cu2"),
    "assoc.natural": lambda: plant(nonstrict(), "hcomp_cell_table", ("cj", "t"), "ce"),
    # t2 . t is the identity and t . t2 is not: an inverse on one side only
    "assoc.invertible": lambda: plant(
        plant(with_twin(nonstrict(), "t", "t2"), "assoc", ("e", "j", "j"), ("t", "t2")),
        "vcomp_cell_table", ("t", "t2"), "t"),
    "lunit.natural": lambda: plant(nonstrict(), "hcomp_cell_table", ("cj", "t"), "ce"),
    "runit.natural": lambda: plant(nonstrict(), "hcomp_cell_table", ("t", "cj"), "ce"),
    "pentagon": lambda: plant(nonstrict(), "hcomp_cell_table", ("cj", "t"), "ce"),
    "triangle": lambda: plant(nonstrict(), "hcomp_cell_table", ("cj", "t"), "ce"),
}


@pytest.mark.parametrize("family", FAMILY_MUTANTS)
def test_each_family_names_its_planted_mutant(family):
    rep = agrees(FAMILY_MUTANTS[family]())
    assert family in {f.check for f in rep.failures()}


def test_validate_z32_within_three_seconds():
    # 32**4 = 1,048,576 pentagon instances: per-instance Python would not fit
    A = cyclic(32)
    t = time.perf_counter()
    rep = validate(A)
    assert rep.ok and rep.params["hmors"] == 32
    assert time.perf_counter() - t < 3.0
