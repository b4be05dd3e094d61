import dataclasses
import itertools

import pytest

from strawcat import Frame, TableDouble, product, terminal, unit_object, validate
from strawcat.homs import (
    HorizontalPseudoTransformation,
    Modification,
    PseudoDoubleFunctor,
    Truncated,
    VerticalTransformation,
    check_functor,
    check_horizontal,
    check_modification,
    check_vertical,
    compose_functors,
    compose_vertical,
    enumerate_functors,
    enumerate_horizontal,
    enumerate_modifications,
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


def plain_underlying_functors(A, B, max_candidates=None):
    """Functors A0 -> B0 as (obj_map, vmor_map) pairs: a product over objects
    and non-identity vertical morphisms, each pair counted against the
    budget before the composites are checked."""
    vid_vals = set(A.v_identity.values())
    nonid_v = [u for u in A.vmors if u not in vid_vals]

    def candidates():
        for objs in itertools.product(B.objects, repeat=len(A.objects)):
            obj_map = dict(zip(A.objects, objs))
            cands = [[v for v in B.vmors
                      if B.vsrc(v) == obj_map[A.vsrc(u)] and B.vtgt(v) == obj_map[A.vtgt(u)]]
                     for u in nonid_v]
            for pick in itertools.product(*cands):
                vmor_map = dict(zip(nonid_v, pick))
                for a in A.objects:
                    vmor_map[A.v_id(a)] = B.v_id(obj_map[a])
                yield obj_map, vmor_map

    return [(obj_map, vmor_map)
            for obj_map, vmor_map in within_budget(candidates(), max_candidates)
            if all(vmor_map[wu] == B.vcomp_vmor(vmor_map[w], vmor_map[u])
                   for (w, u), wu in A.vcomp_vmor_table.items())]


def product_functor_candidates(A, B, require_invertible=True, max_candidates=None):
    """The functor candidate stream as the plain product over all hmor maps,
    each expanded into its phi0, phi2 and cell candidate lists: the oracle
    for the search of `iter_functor_candidates`."""
    invertible = {c for c in B.cells if B.inverse_of(c) is not None}
    vid_vals = set(A.vid_cell.values())
    hid_vals = set(A.hid_cell.values())
    if require_invertible:
        free_cells = [c for c in A.cells if c not in vid_vals and c not in hid_vals]
    else:
        free_cells = [c for c in A.cells if c not in vid_vals]

    def candidates():
        for obj_map, vmor_map in plain_underlying_functors(A, B, max_candidates):
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


def product_vertical_candidates(F, G, max_candidates=None):
    """Vertical transformation candidates as nested products: components at
    objects, then cells at hmors."""
    A, B = F.dom, F.cod
    obj_cands = [[v for v in B.vmors if B.vsrc(v) == F.obj(a) and B.vtgt(v) == G.obj(a)]
                 for a in A.objects]

    def candidates():
        for opick in itertools.product(*obj_cands):
            at_obj = dict(zip(A.objects, opick))
            hcands = [B.cells_with_frame(Frame(F.hmor(f), G.hmor(f), at_obj[A.hsrc(f)],
                                               at_obj[A.htgt(f)])) for f in A.hmors]
            for hpick in itertools.product(*hcands):
                yield VerticalTransformation(F, G, at_obj, dict(zip(A.hmors, hpick)))

    yield from within_budget(candidates(), max_candidates)


def product_horizontal_candidates(F, G, max_candidates=None):
    """Horizontal transformation candidates as nested products: components
    at objects, then cells at vmors, then invertible cells at hmors."""
    A, B = F.dom, F.cod
    obj_cands = [[x for x in B.hmors if B.hsrc(x) == F.obj(a) and B.htgt(x) == G.obj(a)]
                 for a in A.objects]

    def candidates():
        for opick in itertools.product(*obj_cands):
            at_obj = dict(zip(A.objects, opick))
            vcands = [B.cells_with_frame(Frame(at_obj[A.vsrc(u)], at_obj[A.vtgt(u)],
                                               F.vmor(u), G.vmor(u))) for u in A.vmors]
            hcands = []
            for f in A.hmors:
                src_h = B.hcomp_hmor(at_obj[A.htgt(f)], F.hmor(f))
                tgt_h = B.hcomp_hmor(G.hmor(f), at_obj[A.hsrc(f)])
                hcands.append([(c, B.inverse_of(c)) for c in B.globular_cells(src_h, tgt_h)
                               if B.inverse_of(c) is not None])
            for vpick in itertools.product(*vcands):
                for hpick in itertools.product(*hcands):
                    yield HorizontalPseudoTransformation(F, G, at_obj, dict(zip(A.vmors, vpick)),
                                                         dict(zip(A.hmors, hpick)))

    yield from within_budget(candidates(), max_candidates)


def product_modification_candidates(top, bottom, left, right, max_candidates=None):
    """Modification candidates as the product of the cells at objects."""
    A, B = top.src.dom, top.src.cod
    cands = [B.cells_with_frame(Frame(top.at_obj[a], bottom.at_obj[a], left.at_obj[a],
                                      right.at_obj[a])) for a in A.objects]
    for pick in within_budget(itertools.product(*cands), max_candidates):
        yield Modification(top, bottom, left, right, dict(zip(A.objects, pick)))


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


def same_streams(new, old, *args):
    """The candidate streams new(*args) and old(*args) draw the same keys,
    and run out at the same candidate under budgets below their length."""
    full = _drawn_keys(new(*args))
    assert full == _drawn_keys(old(*args)) and not full[1]
    n = len(full[0])
    for mc in {0, n // 2, max(n - 1, 0)}:
        assert _drawn_keys(new(*args, mc)) == _drawn_keys(old(*args, mc)) == (
            full[0][:mc], mc < n)


def test_transformation_and_modification_streams_match_the_product_oracles(tables):
    # every functor pair of four homs and every well-typed frame of three;
    # budgets under the stream length run out at the same candidate.  Only
    # nonstrict has a frame with two cells, so only Hom(nonstrict, nonstrict)
    # pins the order within a cell slot; no member has parallel vertical
    # morphisms, so the order of vertical components at objects is pinned
    # on the test-only vertZ2 below
    for a, b in [("quintet", "quintet"), ("nonstrict", "sigmaM"), ("sigma2", "sigma2"),
                 ("nonstrict", "nonstrict")]:
        H = hom_double(tables[a], tables[b])
        T, vs, hs = H.table, H.verticals, H.horizontals
        for F in H.functors.values():
            for G in H.functors.values():
                same_streams(iter_vertical_candidates, product_vertical_candidates, F, G)
                same_streams(iter_horizontal_candidates, product_horizontal_candidates, F, G)
        if b == "sigma2":
            continue
        frames = [(t, b_, s, r) for ht, t in hs.items() for hb, b_ in hs.items()
                  for vl, s in vs.items() for vr, r in vs.items()
                  if (T.vmor_src[vl], T.vmor_tgt[vl], T.vmor_src[vr], T.vmor_tgt[vr])
                  == (T.hmor_src[ht], T.hmor_src[hb], T.hmor_tgt[ht], T.hmor_tgt[hb])]
        assert len(frames) == {"quintet": 11, "sigmaM": 20, "nonstrict": 140}[b]
        for frame in frames:
            same_streams(iter_modification_candidates, product_modification_candidates, *frame)


def test_functor_budget_counts_the_vertical_parts(tables):
    # product(quintet, quintet) -> product(vertfree, vertfree) has 36 object
    # and vmor maps before their composites are checked, and 4 candidates:
    # the budget counts both, so every budget under 36 runs out
    A = product(tables["quintet"], tables["quintet"])
    B = product(tables["vertfree"], tables["vertfree"])
    for mc in (3, 4, 10, 35):
        with pytest.raises(Truncated):
            plain_underlying_functors(A, B, mc)
        with pytest.raises(Truncated):
            list(iter_functor_candidates(A, B, True, mc))
    assert _drawn_keys(iter_functor_candidates(A, B, True, 36)) == _drawn_keys(
        product_functor_candidates(A, B, True, 36))
    assert len(list(iter_functor_candidates(A, B, True, 36))) == 4


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


def idem_s3():
    """One object, horizontal morphisms {1, e} with e.e = e, End(e) the
    symmetric group S3 under vertical composition, and every horizontal
    composite of two e-cells the identity cell of e: vertical composites of
    cells that depend on the order.  Kept out of the corpus."""
    perms = list(itertools.permutations(range(3)))
    s = {p: "s" + "".join(map(str, p)) for p in perms}
    es, one_e = tuple(s.values()), s[(0, 1, 2)]
    hmors = ("1", "e")

    def comp(g, f):
        return "e" if "e" in (g, f) else "1"

    def unit(f):
        return (one_e if f == "e" else "c1",) * 2

    return TableDouble(
        name="idemS3", objects=("o",),
        vmors=("idv",), vmor_src={"idv": "o"}, vmor_tgt={"idv": "o"},
        v_identity={"o": "idv"}, vcomp_vmor_table={("idv", "idv"): "idv"},
        hmors=hmors, hmor_src={f: "o" for f in hmors}, hmor_tgt={f: "o" for f in hmors},
        h_identity={"o": "1"},
        hcomp_hmor_table={(g, f): comp(g, f) for g in hmors for f in hmors},
        cells=("c1",) + es,
        cell_frames={"c1": Frame("1", "1", "idv", "idv"),
                     **{c: Frame("e", "e", "idv", "idv") for c in es}},
        vcomp_cell_table={("c1", "c1"): "c1",
                          **{(s[p], s[q]): s[tuple(p[i] for i in q)] for p in perms for q in perms}},
        vid_cell={"1": "c1", "e": one_e},
        hcomp_cell_table={("c1", "c1"): "c1", **{(c, "c1"): c for c in es},
                          **{("c1", c): c for c in es}, **{(c, d): one_e for c in es for d in es}},
        hid_cell={"idv": "c1"},
        assoc={(f, g, h): unit(comp(comp(h, g), f)) for f in hmors for g in hmors for h in hmors},
        lunit={f: unit(f) for f in hmors},
        runit={f: unit(f) for f in hmors},
    )


def test_idem_s3_has_order_dependent_vertical_composites():
    # Hom(terminal, idemS3) has modifications whose vertical composite
    # depends on the order of its components, so the test below pins it
    B = idem_s3()
    assert validate(B).ok
    H = hom_double(terminal(), B)
    assert validate(H.table).ok
    mods = H.modifications
    flipped = [(lo, up) for (lo, up) in H.table.vcomp_cell_table
               if B.vcomp_cell(mods[lo].at_obj["pt"], mods[up].at_obj["pt"])
               != B.vcomp_cell(mods[up].at_obj["pt"], mods[lo].at_obj["pt"])]
    assert len(flipped) == 18


def vertical_z2():
    """One object, vertical morphisms {idv, u} with u.u = idv, and only the
    identity horizontal morphism and identity cells: two parallel vertical
    morphisms.  Kept out of the corpus."""
    vs = ("idv", "u")
    hid = {"idv": "c", "u": "cu"}

    def comp(w, v):
        return "u" if (w == "u") != (v == "u") else "idv"

    return TableDouble(
        name="vertZ2", objects=("o",),
        vmors=vs, vmor_src={v: "o" for v in vs}, vmor_tgt={v: "o" for v in vs},
        v_identity={"o": "idv"},
        vcomp_vmor_table={(w, v): comp(w, v) for w in vs for v in vs},
        hmors=("1",), hmor_src={"1": "o"}, hmor_tgt={"1": "o"}, h_identity={"o": "1"},
        hcomp_hmor_table={("1", "1"): "1"},
        cells=("c", "cu"), cell_frames={hid[v]: Frame("1", "1", v, v) for v in vs},
        vcomp_cell_table={(hid[w], hid[v]): hid[comp(w, v)] for w in vs for v in vs},
        vid_cell={"1": "c"},
        hcomp_cell_table={("c", "c"): "c", ("cu", "cu"): "cu"},
        hid_cell=hid,
        assoc={("1", "1", "1"): ("c", "c")}, lunit={"1": ("c", "c")}, runit={"1": ("c", "c")},
    )


def test_parallel_vertical_morphisms_are_tried_in_table_order():
    # into vertZ2, a vertical component at an object and the image of u both
    # have two choices; the streams try them in B.vmors order, as the
    # product oracles do
    B = vertical_z2()
    assert validate(B).ok
    for A in (terminal(), B):
        for inv in (True, False):
            keys, _ = _drawn_keys(iter_functor_candidates(A, B, inv))
            assert (keys, False) == _drawn_keys(product_functor_candidates(A, B, inv))
            if A is B:
                assert [dict(k[2])["u"] for k in keys] == ["idv", "u"]
        H = hom_double(A, B)
        for F in H.functors.values():
            for G in H.functors.values():
                same_streams(iter_vertical_candidates, product_vertical_candidates, F, G)
                assert [t.at_obj[A.objects[0]] for t in iter_vertical_candidates(F, G)] == [
                    "idv", "u"]


@pytest.mark.parametrize("a, b", [("nonstrict", "sigmaM"), ("quintet", "sigmaM"),
                                  ("sigma2", "sigma2"), ("terminal", "idemS3")])
def test_hom_cell_tables_name_the_componentwise_modifications(tables, a, b):
    # the oracle builds each composite or identity modification whole, its
    # frame of composite or identity transformations included, and looks it up
    members = {**tables, "idemS3": idem_s3()}
    H = hom_double(members[a], members[b])
    T, B, id_of, mods, hs = H.table, members[b], H.id_of, H.modifications, H.horizontals
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


def _plain_hom_tables(H):
    """Hom(A, B)'s identities, frames and composition tables rebuilt by
    filtering every pair, triple or quadruple of ids by their endpoints."""
    A, B, T, id_of, cell_id = H.dom, H.cod, H.table, H.id_of, H.cell_id
    vs, hs = H.verticals, H.horizontals
    vsrc, vtgt, hsrc, htgt = T.vmor_src, T.vmor_tgt, T.hmor_src, T.hmor_tgt
    v_identity = {vsrc[v]: v for v, s in vs.items()
                  if vsrc[v] == vtgt[v] and s.key() == identity_vertical(s.src).key()}
    h_identity = {hsrc[h]: h for h, t in hs.items()
                  if hsrc[h] == htgt[h] and t.key() == identity_horizontal(t.src).key()}
    frames, mods = {}, {}
    for ht, t in hs.items():
        for hb, b_ in hs.items():
            for vl, s in vs.items():
                if not (vsrc[vl] == hsrc[ht] and vtgt[vl] == hsrc[hb]):
                    continue
                for vr, r in vs.items():
                    if not (vsrc[vr] == htgt[ht] and vtgt[vr] == htgt[hb]):
                        continue
                    for m in enumerate_modifications(t, b_, s, r):
                        mid = f"m{len(mods)}"
                        mods[mid], frames[mid] = m, Frame(ht, hb, vl, vr)
    vcomp_v = {(v2, v1): id_of(compose_vertical(t2, t1))
               for v2, t2 in vs.items() for v1, t1 in vs.items() if vtgt[v1] == vsrc[v2]}
    hcomp_h = {(h2, h1): id_of(hcomp_horizontal(t2, t1))
               for h2, t2 in hs.items() for h1, t1 in hs.items() if htgt[h1] == hsrc[h2]}
    vcomp_c = {(lo, up): cell_id(Frame(frames[up].top, frames[lo].bottom,
                                       vcomp_v[(frames[lo].left, frames[up].left)],
                                       vcomp_v[(frames[lo].right, frames[up].right)]),
                                 {a: B.vcomp_cell(mlo.at_obj[a], mup.at_obj[a]) for a in A.objects})
               for lo, mlo in mods.items() for up, mup in mods.items()
               if frames[up].bottom == frames[lo].top}
    hcomp_c = {(r, l_): cell_id(Frame(hcomp_h[(frames[r].top, frames[l_].top)],
                                      hcomp_h[(frames[r].bottom, frames[l_].bottom)],
                                      frames[l_].left, frames[r].right),
                                {a: B.hcomp_cell(mr.at_obj[a], ml.at_obj[a]) for a in A.objects})
               for r, mr in mods.items() for l_, ml in mods.items()
               if frames[l_].right == frames[r].left}

    def globular_pair(top, bottom, pairs):
        left, right = v_identity[hsrc[top]], v_identity[htgt[top]]
        return (cell_id(Frame(top, bottom, left, right), {a: p[0] for a, p in pairs.items()}),
                cell_id(Frame(bottom, top, left, right), {a: p[1] for a, p in pairs.items()}))

    assoc = {}
    for h1, t1 in hs.items():
        for h2, t2 in hs.items():
            for h3, t3 in hs.items():
                if htgt[h1] == hsrc[h2] and htgt[h2] == hsrc[h3]:
                    assoc[(h1, h2, h3)] = globular_pair(
                        hcomp_h[(hcomp_h[(h3, h2)], h1)], hcomp_h[(h3, hcomp_h[(h2, h1)])],
                        {a: B.assoc_of(t1.at_obj[a], t2.at_obj[a], t3.at_obj[a])
                         for a in A.objects})
    return {"v_identity": v_identity, "h_identity": h_identity, "cell_frames": frames,
            "vcomp_vmor_table": vcomp_v, "hcomp_hmor_table": hcomp_h,
            "vcomp_cell_table": vcomp_c, "hcomp_cell_table": hcomp_c, "assoc": assoc}


@pytest.mark.parametrize("a, b", [("sigmaM", "nonstrict"), ("quintet", "quintet"),
                                  ("nonstrict", "sigma2"), ("vertfree", "quintet")])
def test_hom_tables_match_the_all_pairs_oracle(tables, a, b):
    # equal items in equal order: the endpoint groups keep id order
    H = hom_double(tables[a], tables[b])
    for name, want in _plain_hom_tables(H).items():
        assert want, (a, b, name)
        assert list(getattr(H.table, name).items()) == list(want.items()), (a, b, name)


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
