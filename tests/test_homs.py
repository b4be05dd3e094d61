import dataclasses
import itertools

import pytest

from strawcat import Frame, product, terminal, unit_object, validate
from strawcat.homs import (
    Modification,
    PseudoDoubleFunctor,
    Truncated,
    check_functor,
    check_horizontal,
    check_modification,
    check_vertical,
    compose_functors,
    compose_vertical,
    enumerate_functors,
    enumerate_horizontal,
    enumerate_underlying_functors,
    enumerate_vertical,
    hcomp_horizontal,
    hom_double,
    identity_functor,
    identity_horizontal,
    identity_vertical,
    interchanger,
    interchanger_inv,
    is_strict_functor,
    iter_functor_candidates,
    iter_horizontal_candidates,
    iter_modification_candidates,
    iter_vertical_candidates,
    ps_sub,
    whisker_post_functor,
    whisker_pre_functor,
    within_budget,
)


def naive_enumerate_functors(A, B):
    """Independent brute-force enumeration against the raw definition; no
    sharing with the pruned enumerator beyond the data layout."""
    out = []
    vmaps = []
    for picks in itertools.product(B.vmors, repeat=len(A.vmors)):
        m = dict(zip(A.vmors, picks))
        if all(B.vmor_src[m[u]] is not None for u in A.vmors):
            vmaps.append(m)
    for opicks in itertools.product(B.objects, repeat=len(A.objects)):
        om = dict(zip(A.objects, opicks))
        for vm in vmaps:
            if any(B.vmor_src[vm[u]] != om[A.vmor_src[u]]
                   or B.vmor_tgt[vm[u]] != om[A.vmor_tgt[u]] for u in A.vmors):
                continue
            if any(vm[A.v_identity[a]] != B.v_identity[om[a]] for a in A.objects):
                continue
            if any(vm[c] != B.vcomp_vmor_table[(vm[w], vm[u])]
                   for (w, u), c in A.vcomp_vmor_table.items()):
                continue
            for hpicks in itertools.product(B.hmors, repeat=len(A.hmors)):
                hm = dict(zip(A.hmors, hpicks))
                if any(B.hmor_src[hm[f]] != om[A.hmor_src[f]]
                       or B.hmor_tgt[hm[f]] != om[A.hmor_tgt[f]] for f in A.hmors):
                    continue
                for cpicks in itertools.product(B.cells, repeat=len(A.cells)):
                    cm = dict(zip(A.cells, cpicks))
                    ok = True
                    for c in A.cells:
                        fr = A.cell_frames[c]
                        want = Frame(hm[fr.top], hm[fr.bottom], vm[fr.left], vm[fr.right])
                        if B.cell_frames[cm[c]] != want:
                            ok = False
                            break
                    if not ok:
                        continue
                    p0_pool = [[c for c in B.cells
                                if B.cell_frames[c] == Frame(B.h_identity[om[a]],
                                                             hm[A.h_identity[a]],
                                                             B.v_identity[om[a]],
                                                             B.v_identity[om[a]])]
                               for a in A.objects]
                    p2keys = [(f, g) for (g, f) in A.hcomp_hmor_table]
                    p2_pool = []
                    for (f, g) in p2keys:
                        src_h = B.hcomp_hmor_table[(hm[g], hm[f])]
                        tgt_h = hm[A.hcomp_hmor_table[(g, f)]]
                        a0 = B.hmor_src[src_h]
                        b0 = B.hmor_tgt[src_h]
                        p2_pool.append([c for c in B.cells
                                        if B.cell_frames[c] == Frame(src_h, tgt_h,
                                                                     B.v_identity[a0],
                                                                     B.v_identity[b0])])
                    for p0s in itertools.product(*p0_pool):
                        for p2s in itertools.product(*p2_pool):
                            F = PseudoDoubleFunctor(A, B, om, vm, hm, cm,
                                                    dict(zip(A.objects, p0s)),
                                                    dict(zip(p2keys, p2s)))
                            if check_functor(F).ok:
                                out.append(F.key())
    return out


def test_enumerator_matches_naive_oracle(tables):
    # second-implementation oracle on small pairs
    for a, b in [("terminal", "sigmaM"), ("unit", "nonstrict"),
                 ("nonstrict", "sigmaM"), ("terminal", "vertfree")]:
        fast = {F.key() for F in enumerate_functors(tables[a], tables[b])}
        slow = set(naive_enumerate_functors(tables[a], tables[b]))
        assert fast == slow, (a, b, len(fast), len(slow))


def product_functor_candidates(A, B, require_invertible=True, max_candidates=None):
    """The functor candidate stream as the plain product over all hmor maps,
    each expanded into its phi0, phi2 and cell candidate lists: the oracle
    for the forward-checked search of `iter_functor_candidates`."""
    invertible = {c for c in B.cells if B.inverse_of(c) is not None}
    vid_vals = set(A.vid_cell.values())
    hid_vals = set(A.hid_cell.values())
    if require_invertible:
        free_cells = [c for c in A.cells if c not in vid_vals and c not in hid_vals]
    else:
        free_cells = [c for c in A.cells if c not in vid_vals]

    def candidates():
        for obj_map, vmor_map in enumerate_underlying_functors(A, B, max_candidates):
            hcands = []
            for f in A.hmors:
                cs = [x for x in B.hmors
                      if B.hsrc(x) == obj_map[A.hsrc(f)] and B.htgt(x) == obj_map[A.htgt(f)]]
                hcands.append(cs)
            for hpick in itertools.product(*hcands):
                hmor_map = dict(zip(A.hmors, hpick))
                p0cands = []
                for a in A.objects:
                    cs = [c for c in B.globular_cells(B.h_id(obj_map[a]), hmor_map[A.h_id(a)])
                          if not require_invertible or c in invertible]
                    p0cands.append(cs)
                p2keys = [(f, g) for (g, f) in A.hcomp_hmor_table]
                p2cands = []
                for (f, g) in p2keys:
                    src_h = B.hcomp_hmor(hmor_map[g], hmor_map[f])
                    cs = [c for c in B.globular_cells(src_h, hmor_map[A.hcomp_hmor(g, f)])
                          if not require_invertible or c in invertible]
                    p2cands.append(cs)
                ccands = []
                for c in free_cells:
                    fr = A.frame(c)
                    want = Frame(hmor_map[fr.top], hmor_map[fr.bottom],
                                 vmor_map[fr.left], vmor_map[fr.right])
                    ccands.append(B.cells_with_frame(want))
                for p0pick in itertools.product(*p0cands):
                    phi0 = dict(zip(A.objects, p0pick))
                    for p2pick in itertools.product(*p2cands):
                        phi2 = dict(zip(p2keys, p2pick))
                        for cpick in itertools.product(*ccands):
                            cell_map = dict(zip(free_cells, cpick))
                            for f in A.hmors:
                                cell_map[A.vid_of(f)] = B.vid_of(hmor_map[f])
                            for u in A.vmors:
                                c = A.hid_of(u)
                                if c not in cell_map:
                                    cell_map[c] = B.vcomp_cells(
                                        B.inv(phi0[A.vsrc(u)]),
                                        B.hid_of(vmor_map[u]),
                                        phi0[A.vtgt(u)])
                            yield PseudoDoubleFunctor(A, B, obj_map, vmor_map, hmor_map,
                                                      cell_map, phi0, phi2)

    yield from within_budget(candidates(), max_candidates)


def _drawn_keys(candidates):
    """The keys of the candidates drawn, and whether the budget ran out."""
    keys = []
    try:
        for F in candidates:
            keys.append(F.key())
    except Truncated:
        return keys, True
    return keys, False


def test_functor_candidate_stream_matches_the_product_oracle(tables):
    pairs = [(tables[a], tables[b]) for a in tables for b in tables]
    pairs += [(product(tables[x], tables[x]), tables["sigmaM"])
              for x in ("quintet", "nonstrict")]
    for A, B in pairs:
        for inv in (True, False):
            new = _drawn_keys(iter_functor_candidates(A, B, inv))
            assert new == _drawn_keys(product_functor_candidates(A, B, inv)), (A.name, B.name)
            assert not new[1]
    # the budget runs out at the same candidate: sigmaM -> nonstrict has 257
    A, B = tables["sigmaM"], tables["nonstrict"]
    assert len(_drawn_keys(iter_functor_candidates(A, B))[0]) == 257
    for mc in (1, 100, 256):
        new = _drawn_keys(iter_functor_candidates(A, B, True, mc))
        assert new == _drawn_keys(product_functor_candidates(A, B, True, mc)) == (
            _drawn_keys(iter_functor_candidates(A, B))[0][:mc], True)


def test_functor_counts(tables):
    # frozen counts, derived once from the oracle above
    assert len(enumerate_functors(tables["nonstrict"], tables["sigmaM"])) == 2
    assert len(enumerate_functors(terminal(), tables["quintet"])) == 2
    assert len(enumerate_functors(unit_object(), tables["sigmaM"])) == 1


def test_identity_and_eta_pass_checkers(tables):
    from strawcat.strictify import eta, st
    for name, A in tables.items():
        assert check_functor(identity_functor(A)).ok
        assert check_functor(eta(A, st(A))).ok


def test_mutated_phi2_is_named_or_is_another_functor(tables):
    # every phi2 component of every functor N -> N moved to another cell of
    # its frame (sigmaM has one cell per frame, so N -> sigmaM has none)
    N = tables["nonstrict"]
    fs = enumerate_functors(N, N)
    keys = {F.key() for F in fs}
    named = 0
    for F in fs:
        for k, c0 in F.phi2.items():
            for c in N.cells:
                if c == c0 or N.frame(c) != N.frame(c0):
                    continue
                G = dataclasses.replace(F, phi2={**F.phi2, k: c})
                failures = check_functor(G).failures()
                if failures:
                    assert failures[0].check in {"fun.phi2.invertible", "fun.phi2.natural",
                                                 "fun.hexagon"}, (F.name, k, c)
                    named += 1
                else:
                    assert G.key() in keys, (F.name, k, c)
    assert named > 0


def test_perturbed_horizontal_component_is_named_under_its_family(tables):
    # one component of a horizontal transformation N -> N moved to another
    # cell of its frame: a unit hmor's fails unit coherence, any other hmor's
    # composition coherence, the identity vmor's ht.vid
    N = tables["nonstrict"]
    H = hom_double(N, N)
    units = set(N.h_identity.values())
    n = 0
    for t in H.horizontals.values():
        for f, (c0, _) in t.at_hmor.items():
            for c in N.cells:
                if c != c0 and N.frame(c) == N.frame(c0) and N.inverse_of(c) is not None:
                    u = dataclasses.replace(t, at_hmor={**t.at_hmor, f: (c, N.inverse_of(c))})
                    want = "ht.unitcoh" if f in units else "ht.compcoh"
                    assert check_horizontal(u).failures()[0].check == want, (t.name, f, c)
                    n += 1
        for v, c0 in t.at_vmor.items():
            for c in N.cells:
                if c != c0 and N.frame(c) == N.frame(c0):
                    u = dataclasses.replace(t, at_vmor={**t.at_vmor, v: c})
                    assert check_horizontal(u).failures()[0].check == "ht.vid", (t.name, v, c)
                    n += 1
    assert n > 0


def test_ill_typed_cell_map_is_reported_not_raised(tables):
    # a cell moved to another frame fails fun.cell.frame; the composites
    # after it would compose cells that do not meet
    N, M = tables["nonstrict"], tables["sigmaM"]
    F = next(iter(enumerate_functors(N, M)))
    for c in N.cells:
        for d in M.cells:
            if M.frame(d) != M.frame(F.cell(c)):
                G = dataclasses.replace(F, cell_map={**F.cell_map, c: d})
                assert {f.check for f in check_functor(G).failures()} == {"fun.cell.frame"}


def test_compose_functors(tables):
    Q = tables["quintet"]
    fs = enumerate_functors(Q, Q)
    for F in fs:
        for G in fs:
            assert check_functor(compose_functors(G, F)).ok


def test_identity_transformations_pass(tables):
    Q = tables["quintet"]
    for F in enumerate_functors(Q, Q):
        assert check_vertical(identity_vertical(F)).ok
        assert check_horizontal(identity_horizontal(F)).ok


def test_hom_double_validates(tables):
    for a, b in [("terminal", "sigmaM"), ("quintet", "quintet"),
                 ("nonstrict", "sigma2")]:
        H = hom_double(tables[a], tables[b])
        rep = validate(H.table)
        assert rep.ok, f"Hom({a},{b}): {rep.render()}"


@pytest.mark.parametrize("a, b", [("nonstrict", "sigmaM"), ("quintet", "sigmaM"),
                                  ("sigma2", "sigma2")])
def test_hom_cell_tables_name_the_componentwise_modifications(tables, a, b):
    # the oracle builds each composite or identity modification whole, its
    # frame of composite or identity transformations included, and looks it up
    H = hom_double(tables[a], tables[b])
    T, B, id_of, mods, hs = H.table, tables[b], H.id_of, H.modifications, H.horizontals
    assert T.vcomp_cell_table and T.hcomp_cell_table and T.assoc

    def globular(top, bottom, pairs, i):
        return id_of(Modification(top, bottom, identity_vertical(top.src),
                                  identity_vertical(top.tgt), {x: p[i] for x, p in pairs.items()}))

    for (lo, up), out in T.vcomp_cell_table.items():
        m2, m1 = mods[lo], mods[up]
        assert out == id_of(Modification(
            m1.top, m2.bottom, compose_vertical(m2.left, m1.left),
            compose_vertical(m2.right, m1.right),
            {x: B.vcomp_cells(m1.at_obj[x], m2.at_obj[x]) for x in m1.at_obj}))
    for (r, l_), out in T.hcomp_cell_table.items():
        m2, m1 = mods[r], mods[l_]
        assert out == id_of(Modification(
            hcomp_horizontal(m2.top, m1.top), hcomp_horizontal(m2.bottom, m1.bottom),
            m1.left, m2.right, {x: B.hcomp_cell(m2.at_obj[x], m1.at_obj[x]) for x in m1.at_obj}))
    for h, out in T.vid_cell.items():
        t = hs[h]
        assert out == id_of(Modification(t, t, identity_vertical(t.src), identity_vertical(t.tgt),
                                         {x: B.vid_of(t.at_obj[x]) for x in t.at_obj}))
    for v, out in T.hid_cell.items():
        s = H.verticals[v]
        assert out == id_of(Modification(identity_horizontal(s.src), identity_horizontal(s.tgt),
                                         s, s, {x: B.hid_of(s.at_obj[x]) for x in s.at_obj}))
    for (h1, h2, h3), pair in T.assoc.items():
        t1, t2, t3 = hs[h1], hs[h2], hs[h3]
        lhs = hcomp_horizontal(hcomp_horizontal(t3, t2), t1)
        rhs = hcomp_horizontal(t3, hcomp_horizontal(t2, t1))
        pairs = {x: B.assoc_of(t1.at_obj[x], t2.at_obj[x], t3.at_obj[x]) for x in t1.at_obj}
        assert pair == (globular(lhs, rhs, pairs, 0), globular(rhs, lhs, pairs, 1))
    for h, t in hs.items():
        lcomp = hcomp_horizontal(identity_horizontal(t.tgt), t)
        pairs = {x: B.lunit_of(t.at_obj[x]) for x in t.at_obj}
        assert T.lunit[h] == (globular(lcomp, t, pairs, 0), globular(t, lcomp, pairs, 1))
        rcomp = hcomp_horizontal(t, identity_horizontal(t.src))
        pairs = {x: B.runit_of(t.at_obj[x]) for x in t.at_obj}
        assert T.runit[h] == (globular(rcomp, t, pairs, 0), globular(t, rcomp, pairs, 1))


def test_hom_of_terminal_recovers_target(tables):
    # Hom(terminal, B) is isomorphic to B via evaluation at the point
    B = tables["sigmaM"]
    H = hom_double(terminal(), B)
    assert len(H.table.objects) == len(B.objects)
    assert len(H.table.hmors) == len(B.hmors)
    assert len(H.table.cells) == len(B.cells)
    # evaluation: component maps are bijections
    pts = {h: t.at_obj["pt"] for h, t in H.horizontals.items()}
    assert sorted(pts.values()) == sorted(B.hmors)


def test_hom_unit_object_evaluation(tables):
    B = tables["nonstrict"]
    H = hom_double(unit_object(), B)
    assert len(H.table.objects) == len(B.objects)
    assert len(H.table.hmors) == len(B.hmors)
    assert len(H.table.cells) == len(B.cells)


def test_hom_of_bicategories_has_icon_verticals(tables):
    # vertical morphisms of Hom(N, N) are icons: identity components on
    # objects, cells at the horizontal morphisms
    N = tables["nonstrict"]
    H = hom_double(N, N)
    for t in H.verticals.values():
        for a in N.objects:
            assert t.at_obj[a] == N.v_identity[a]


def test_ps_sub_is_full_on_strict_functors(tables):
    Q = tables["quintet"]
    H = hom_double(Q, Q)
    P = ps_sub(Q, Q, H)
    assert all(is_strict_functor(F) for F in P.functors.values())
    assert validate(P.table).ok
    keep = set(P.table.objects)
    for h, t in H.horizontals.items():
        if H.id_of(t.src) in keep and H.id_of(t.tgt) in keep:
            assert h in P.horizontals


def test_underlying_bicategory_of_hom_is_hom_bicategory(tables):
    from strawcat import underlying_bicategory
    N = tables["nonstrict"]
    H = hom_double(N, N)
    HB = underlying_bicategory(H.table)
    assert validate(HB).ok
    # globular cells = modifications over identity icons
    for c in HB.cells:
        m = H.modifications[c]
        assert m.left.key() == identity_vertical(m.top.src).key()


def test_whiskering_strictness(tables):
    # pre-whiskering is strict on the nose; post-whiskering corrects by phi
    N = tables["nonstrict"]
    H = hom_double(N, N)
    for t in H.horizontals.values():
        for F in H.functors.values():
            pre = whisker_pre_functor(t, F)
            assert check_horizontal(pre).ok
            post = whisker_post_functor(F, t)
            assert check_horizontal(post).ok


def test_interchanger_component_and_axioms(tables):
    N = tables["nonstrict"]
    H = hom_double(N, N)
    hs = list(H.horizontals.values())
    n_checked = 0
    for al in hs:
        for be in hs:
            m = interchanger(al, be)
            assert check_modification(m).ok
            mi = interchanger_inv(al, be)
            assert check_modification(mi).ok
            for a in N.objects:
                assert m.at_obj[a] == be.at_hmor[al.at_obj[a]][0]
            n_checked += 1
    assert n_checked == len(hs) ** 2


def test_interchanger_identity_degenerates(tables):
    N = tables["nonstrict"]
    F = identity_functor(N)
    one = identity_horizontal(F)
    m = interchanger(one, one)
    assert check_modification(m).ok


def test_enumerate_transformations_complete(tables):
    Q = tables["quintet"]
    fs = enumerate_functors(Q, Q)
    for F in fs:
        for G in fs:
            for t in enumerate_vertical(F, G):
                assert check_vertical(t).ok
            for t in enumerate_horizontal(F, G):
                assert check_horizontal(t).ok


def test_candidate_generators_truncate_at_budget_plus_one(tables):
    N = tables["nonstrict"]
    fs = enumerate_functors(N, N)
    t = enumerate_horizontal(fs[0], fs[0])[1]
    v = identity_vertical(fs[0])
    generators = {
        "functor": lambda mc: iter_functor_candidates(N, N, True, mc),
        "vertical": lambda mc: iter_vertical_candidates(fs[1], fs[1], mc),
        "horizontal": lambda mc: iter_horizontal_candidates(fs[0], fs[0], mc),
        "modification": lambda mc: iter_modification_candidates(t, t, v, v, mc),
    }
    for kind, gen in generators.items():
        n = len(list(gen(None)))
        assert n >= 2, kind
        assert len(list(gen(n))) == n, kind
        drawn = []
        with pytest.raises(Truncated):
            for x in gen(n - 1):
                drawn.append(x)
        assert len(drawn) == n - 1, kind
