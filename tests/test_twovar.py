import dataclasses

import pytest

from strawcat import homs, product, terminal, twovar, unit_object
from strawcat.homs import (HorizontalPseudoTransformation, Modification,
                           VerticalTransformation, check_functor,
                           enumerate_functors, enumerate_horizontal,
                           enumerate_modifications, enumerate_vertical,
                           hcomp_horizontal, hom_double, identity_functor,
                           identity_horizontal, identity_vertical, interchanger,
                           interchanger_inv, is_strict_functor)
from strawcat.report import StructuralError
from strawcat.twovar import (
    check_twovar_functor,
    check_twovar_horizontal,
    check_twovar_modification,
    check_twovar_vertical,
    cubical_K,
    cubical_K_list,
    curry_functor,
    curry_modification,
    curry_vertical,
    enumerate_twovar_functors,
    multihom,
    restrict_along_K,
    skew_L,
    skew_i,
    skew_j,
    skew_s,
    transport_faithful,
    transport_product,
    transport_sigma,
    tree_norm_iso,
    uncurry_functor,
    uncurry_horizontal,
    uncurry_modification,
    uncurry_vertical,
    verify_equivalence,
    _restrict_vertical_along_K,
)


@pytest.fixture(scope="module")
def QQM(tables):
    Q, M = tables["quintet"], tables["sigmaM"]
    hom = hom_double(Q, M)
    return Q, M, hom


def test_twovar_enumeration_and_checks(QQM, tables):
    Q, M, hom = QQM
    two = enumerate_twovar_functors(Q, Q, M, hom)
    assert len(two) == 1
    for F in two:
        assert check_twovar_functor(F).ok


def test_twovar_nonstrict_instances(tables):
    N, M = tables["nonstrict"], tables["sigmaM"]
    hom = hom_double(N, M)
    two = enumerate_twovar_functors(N, N, M, hom)
    assert len(two) == 4
    for F in two:
        assert check_twovar_functor(F).ok


def test_curry_roundtrip_functors(QQM):
    Q, M, hom = QQM
    for F in enumerate_twovar_functors(Q, Q, M, hom):
        P = curry_functor(F, hom)
        assert check_functor(P).ok
        back = uncurry_functor(P, hom, Q, M)
        assert back.key() == F.key()


def test_curry_roundtrip_all_levels(tables):
    # (N, N; M): four functors, transformations between them
    N, M = tables["nonstrict"], tables["sigmaM"]
    hom = hom_double(N, M)
    two = enumerate_twovar_functors(N, N, M, hom)
    curried = {F.key(): curry_functor(F, hom) for F in two}
    homNH = None
    for F in two:
        for G in two:
            Pf, Pg = curried[F.key()], curried[G.key()]
            for t in enumerate_vertical(Pf, Pg):
                s2 = uncurry_vertical(t, hom, F, G)
                assert check_twovar_vertical(s2).ok
                t2 = curry_vertical(s2, hom, Pf, Pg)
                assert t2.key() == t.key()


def test_curry_roundtrip_modifications(tables):
    from strawcat.homs import (enumerate_horizontal, enumerate_modifications,
                               identity_vertical)
    N, M = tables["nonstrict"], tables["sigmaM"]
    hom = hom_double(N, M)
    two = enumerate_twovar_functors(N, N, M, hom)
    curried = {F.key(): curry_functor(F, hom) for F in two}
    n = 0
    for F in two:
        for G in two:
            Pf, Pg = curried[F.key()], curried[G.key()]
            hs = enumerate_horizontal(Pf, Pg)
            for t in hs:
                for b in hs:
                    for m in enumerate_modifications(
                            t, b, identity_vertical(Pf), identity_vertical(Pg)):
                        h_t = uncurry_horizontal(t, hom, F, G)
                        h_b = uncurry_horizontal(b, hom, F, G)
                        s_id = uncurry_vertical(identity_vertical(Pf), hom, F, F)
                        r_id = uncurry_vertical(identity_vertical(Pg), hom, G, G)
                        m2 = uncurry_modification(m, hom, h_t, h_b, s_id, r_id)
                        assert check_twovar_modification(m2).ok
                        back = curry_modification(m2, hom, t, b,
                                                  identity_vertical(Pf),
                                                  identity_vertical(Pg))
                        assert back.key() == m.key()
                        n += 1
    assert n > 0


def test_skew_s_involution(QQM, tables):
    Q, M, hom = QQM
    for F in enumerate_twovar_functors(Q, Q, M, hom):
        s = skew_s(F)
        assert check_twovar_functor(s).ok
        assert skew_s(s).key() == F.key()
    N = tables["nonstrict"]
    homN = hom_double(N, M)
    for F in enumerate_twovar_functors(N, N, M, homN):
        assert skew_s(skew_s(F)).key() == F.key()


def test_skew_i_and_j(tables):
    I = unit_object()
    B = tables["nonstrict"]
    hom_IA = hom_double(I, B)
    i = skew_i(B, hom_IA, I)
    assert check_functor(i).ok
    assert is_strict_functor(i)
    hom_AA = hom_double(B, B)
    j = skew_j(B, hom_AA, I)
    assert check_functor(j).ok
    # j picks the identity functor; evaluating at the point recovers it
    picked = hom_AA.functors[j.obj("i")]
    assert picked.key() == identity_functor(B).key()


def test_skew_L_structure(tables):
    T = terminal()
    M = tables["sigmaM"]
    hom_TT = hom_double(T, T)
    hom_TM = hom_double(T, M)
    L = skew_L(T, T, M, hom_BC=hom_TM, hom_AB=hom_TT, hom_AC=hom_TM)
    assert check_twovar_functor(L).ok
    # strict in the first variable
    for p in L.partial_left.values():
        assert is_strict_functor(p)


def test_skew_L_interchange_cells_are_pseudonaturality_components(tables):
    T = terminal()
    N = tables["nonstrict"]
    hom_TN = hom_double(T, N)
    hom_TT = hom_double(T, T)
    L = skew_L(T, T, N, hom_BC=hom_TN, hom_AB=hom_TT, hom_AC=hom_TN)
    assert check_twovar_functor(L).ok
    for (bh, th), (cid, _) in L.cell_hh.items():
        bt = hom_TN.horizontals[bh]
        t = hom_TT.horizontals[th]
        m = hom_TN.modifications[cid]
        for a in T.objects:
            assert m.at_obj[a] == bt.at_hmor[t.at_obj[a]][0]


def test_skew_L_and_inverse_interchangers_on_a_mixed_triple(tables):
    # the left and right verticals of an interchanger differ on this triple,
    # so an inverse with the two swapped has no id in Hom(A, C)
    N, M = tables["nonstrict"], tables["sigmaM"]
    hom_NM, hom_MM = hom_double(N, M), hom_double(M, M)
    T = hom_NM.table
    for al in hom_NM.horizontals.values():
        for be in hom_MM.horizontals.values():
            m = hom_NM.id_of(interchanger(al, be))
            mi = hom_NM.id_of(interchanger_inv(al, be))
            top, bottom = T.frame(m).top, T.frame(m).bottom
            assert T.vcomp_cell(mi, m) == T.vid_cell[top]
            assert T.vcomp_cell(m, mi) == T.vid_cell[bottom]
    L = skew_L(N, M, M, hom_BC=hom_MM, hom_AB=hom_NM, hom_AC=hom_NM)
    assert len(L.cell_hh) == len(hom_MM.horizontals) * len(hom_NM.horizontals)
    assert check_twovar_functor(L).ok


CURRY_TRIPLES = [("quintet", "quintet", "sigmaM"), ("nonstrict", "sigmaM", "sigmaM"),
                 ("sigma2", "sigma2", "sigma2")]


@pytest.mark.parametrize("names", CURRY_TRIPLES)
def test_curry_functor_cells_agree_with_whole_modifications(tables, names):
    # the oracle builds each modification whole, with the curried
    # transformations of F as its frame, and looks its id up in Hom(B, C)
    A, B, C = (tables[n] for n in names)
    hom = hom_double(B, C)
    two = enumerate_twovar_functors(A, B, C, hom)
    assert two
    for F in two:
        P = curry_functor(F, hom)
        for cc in A.cells:
            fr = A.frame(cc)
            assert P.cell_map[cc] == hom.id_of(Modification(
                F.horizontal_at(fr.top), F.horizontal_at(fr.bottom),
                F.vertical_at(fr.left), F.vertical_at(fr.right),
                {c: F.partial_left[c].cell(cc) for c in B.objects}))
        for a in A.objects:
            Fa = F.partial_right[a]
            assert P.phi0[a] == hom.id_of(Modification(
                identity_horizontal(Fa), F.horizontal_at(A.h_id(a)),
                identity_vertical(Fa), identity_vertical(Fa),
                {c: F.partial_left[c].phi0[a] for c in B.objects}))
        for (g, f), gf in A.hcomp_hmor_table.items():
            assert P.phi2[(f, g)] == hom.id_of(Modification(
                hcomp_horizontal(F.horizontal_at(g), F.horizontal_at(f)), F.horizontal_at(gf),
                identity_vertical(F.partial_right[A.hsrc(f)]),
                identity_vertical(F.partial_right[A.htgt(g)]),
                {c: F.partial_left[c].phi2[(f, g)] for c in B.objects}))


@pytest.mark.parametrize("names", CURRY_TRIPLES)
def test_skew_L_and_curry_functor_name_cells_by_frame_alone(tables, names, monkeypatch):
    # with modifications unbuildable and the interchangers out of reach, L
    # and every curried functor are the same data: both name each cell by
    # its frame of ids and its components
    A, B, C = (tables[n] for n in names)
    hom_ab, hom_bc, hom_ac = hom_double(A, B), hom_double(B, C), hom_double(A, C)
    two = enumerate_twovar_functors(A, B, C, hom_bc)

    def outcome():
        L = skew_L(A, B, C, hom_BC=hom_bc, hom_AB=hom_ab, hom_AC=hom_ac)
        return L.key(), [curry_functor(F, hom_bc).key() for F in two]

    want = outcome()

    class Unbuildable(Modification):
        def __init__(self, *args, **kwargs):
            raise AssertionError("a modification was built")

    def unreachable(*args):
        raise AssertionError("an interchanger was built")

    for module in (homs, twovar):
        monkeypatch.setattr(module, "Modification", Unbuildable)
        for name in ("interchanger", "interchanger_inv"):
            monkeypatch.setattr(module, name, unreachable, raising=False)
    assert outcome() == want


def test_multihom_arity(tables):
    M = tables["sigmaM"]
    Q = tables["quintet"]
    assert multihom([], M) == list(M.objects)
    H1 = multihom([Q], M)
    assert len(H1.functors) == len(enumerate_functors(Q, M))
    H2 = multihom([Q, Q], M)
    assert len(H2.table.objects) == len(enumerate_twovar_functors(Q, Q, M))
    with pytest.raises(StructuralError):
        multihom([Q, Q, Q, Q], M, arity_cap=3)


def test_cubical_K_arities(tables):
    assert cubical_K_list([]) == "pt"
    Q = tables["quintet"]
    assert cubical_K_list([Q]).key() == identity_functor(Q).key()
    K = cubical_K_list([Q, Q])
    assert check_twovar_functor(K).ok
    with pytest.raises(StructuralError):
        cubical_K_list([Q, Q, Q])


def test_K_valid_on_nonstrict_pairs(tables):
    for a, b in [("nonstrict", "sigmaM"), ("nonstrict", "nonstrict")]:
        K = cubical_K(tables[a], tables[b])
        assert check_twovar_functor(K).ok, (a, b)


def test_transport_product_and_sigma(tables):
    N, M = tables["nonstrict"], tables["sigmaM"]
    hom = hom_double(N, M)
    for F in enumerate_twovar_functors(N, N, M, hom):
        Fbar = transport_product(F)
        assert check_functor(Fbar).ok
        sg = transport_sigma(F, Fbar)
        assert check_twovar_vertical(sg).ok
        C = F.cod
        assert all(C.inverse_of(c) is not None for c in sg.cell_right.values())
        assert all(C.inverse_of(c) is not None for c in sg.cell_left.values())


def test_transport_faithful_roundtrip(tables):
    Q, M = tables["quintet"], tables["sigmaM"]
    P = product(Q, Q)
    ones = enumerate_functors(P, M)
    for H in ones:
        for H2 in ones:
            HK = restrict_along_K(H, Q, Q)
            H2K = restrict_along_K(H2, Q, Q)
            for t in enumerate_vertical(H, H2):
                tK = _restrict_vertical_along_K(t, HK, H2K, Q, Q)
                assert check_twovar_vertical(tK).ok
                back = transport_faithful(tK, H, H2)
                assert back.key() == t.key()


def test_verify_equivalence(tables):
    rep = verify_equivalence(tables["quintet"], tables["quintet"], tables["sigmaM"])
    assert rep.ok, rep.render()
    rep = verify_equivalence(tables["nonstrict"], tables["nonstrict"],
                             tables["sigmaM"])
    assert rep.ok, rep.render()
    assert rep.params["twovar_functors"] == rep.params["product_functors"] == 4


def test_verify_equivalence_degenerate_terminal(tables):
    rep = verify_equivalence(terminal(), terminal(), tables["sigma2"])
    assert rep.ok, rep.render()


def test_tree_norm_iso_roundtrip(tables):
    N = tables["nonstrict"]
    tree = (("e", "j"), ("e", "e"))
    fwd, bwd = tree_norm_iso(N, tree)
    assert N.vcomp_cell(bwd, fwd) == N.vid_of(N.frame(fwd).top)
    assert N.vcomp_cell(fwd, bwd) == N.vid_of(N.frame(fwd).bottom)


@pytest.mark.parametrize("a, b, c", [
    ("sigma2", "terminal", ("nonstrict", "terminal")),
    ("terminal", "sigma2", ("terminal", "nonstrict")),
    ("terminal", "terminal", ("sigma2", "terminal")),
])
def test_verify_equivalence_into_a_product_of_pair_ids(a, b, c, tables):
    # the codomain's horizontal morphisms are pairs, which rebracketing must
    # read as leaves, not as trees
    def table(name):
        return terminal() if name == "terminal" else tables[name]
    C = product(*map(table, c))
    rep = verify_equivalence(table(a), table(b), C)
    assert rep.ok, rep.render()


def test_tree_norm_iso_roundtrip_on_pair_ids(tables):
    P = product(tables["nonstrict"], terminal())
    e, j = (("e", "hpt"), ("j", "hpt"))
    assert {e, j} <= set(P.hmors)
    for tree in [((e, j), (e, e)), (e, (j, (e, e)))]:
        fwd, bwd = tree_norm_iso(P, tree)
        assert P.vcomp_cell(bwd, fwd) == P.vid_of(P.frame(fwd).top)
        assert P.vcomp_cell(fwd, bwd) == P.vid_of(P.frame(fwd).bottom)


def _trees(leaves):
    if len(leaves) == 1:
        return [leaves[0]]
    out = []
    for k in range(1, len(leaves)):
        for l in _trees(leaves[:k]):
            for r in _trees(leaves[k:]):
                out.append((l, r))
    return out


def test_rebracketing_isos_compose_coherently(tables):
    # any two canonical isos between bracketings compose to the canonical
    # one; with four leaves this exercises every pentagon route
    from strawcat.twovar import rebracket_iso
    N = tables["nonstrict"]
    for leaves in [("e", "j", "e"), ("e", "e", "j", "e")]:
        trees = _trees(leaves)
        for t0 in trees:
            for t1 in trees:
                for t2 in trees:
                    a = rebracket_iso(N, t0, t1)[0]
                    b = rebracket_iso(N, t1, t2)[0]
                    c = rebracket_iso(N, t0, t2)[0]
                    assert N.vcomp_cell(b, a) == c


# Second-variable reads written out directly, as independent oracles for the
# first-variable reads on the swap.

def _vertical_at2(F, v):
    A, B = F.domA, F.domB
    c, d = B.vsrc(v), B.vtgt(v)
    return VerticalTransformation(
        src=F.partial_left[c], tgt=F.partial_left[d],
        at_obj={a: F.partial_right[a].vmor(v) for a in A.objects},
        at_hmor={f: F.cell_hv[(f, v)] for f in A.hmors},
    )


def _horizontal_at2(F, g):
    A, B = F.domA, F.domB
    c, d = B.hsrc(g), B.htgt(g)
    return HorizontalPseudoTransformation(
        src=F.partial_left[c], tgt=F.partial_left[d],
        at_obj={a: F.partial_right[a].hmor(g) for a in A.objects},
        at_vmor={u: F.cell_vh[(u, g)] for u in A.vmors},
        at_hmor={f: (F.cell_hh[(f, g)][1], F.cell_hh[(f, g)][0]) for f in A.hmors},
    )


def _vertical_left_at(s, c):
    A = s.src.domA
    return VerticalTransformation(
        src=s.src.partial_left[c], tgt=s.tgt.partial_left[c],
        at_obj={a: s.at_pair[(a, c)] for a in A.objects},
        at_hmor={f: s.cell_left[(f, c)] for f in A.hmors},
    )


def _horizontal_left_at(t, c):
    A = t.src.domA
    return HorizontalPseudoTransformation(
        src=t.src.partial_left[c], tgt=t.tgt.partial_left[c],
        at_obj={a: t.at_pair[(a, c)] for a in A.objects},
        at_vmor={u: t.cell_uc[(u, c)] for u in A.vmors},
        at_hmor={f: t.cell_fc[(f, c)] for f in A.hmors},
    )


def _deep_key(x):
    """key() of a one-variable datum together with its boundaries."""
    if isinstance(x, Modification):
        return (x.key(),) + tuple(_deep_key(y) for y in (x.top, x.bottom, x.left, x.right))
    return (x.key(), x.src.key(), x.tgt.key())


def _assert_functor_swap(F):
    S = skew_s(F)
    for v in F.domB.vmors:
        assert _deep_key(S.vertical_at(v)) == _deep_key(_vertical_at2(F, v))
    for g in F.domB.hmors:
        assert _deep_key(S.horizontal_at(g)) == _deep_key(_horizontal_at2(F, g))
    assert skew_s(S).key() == F.key()


def _assert_vertical_swap(s):
    A, B = s.src.domA, s.src.domB
    S = skew_s(s)
    for c in B.objects:
        assert _deep_key(S.right_at(c)) == _deep_key(_vertical_left_at(s, c))
    for g in B.hmors:
        want = Modification(
            top=_horizontal_at2(s.src, g), bottom=_horizontal_at2(s.tgt, g),
            left=_vertical_left_at(s, B.hsrc(g)), right=_vertical_left_at(s, B.htgt(g)),
            at_obj={a: s.cell_right[(a, g)] for a in A.objects})
        assert _deep_key(S.mod_at(g)) == _deep_key(want)
    assert skew_s(S).key() == s.key()


def _assert_horizontal_swap(t):
    A, B = t.src.domA, t.src.domB
    F, G = t.src, t.tgt
    S = skew_s(t)
    for c in B.objects:
        assert _deep_key(S.right_at(c)) == _deep_key(_horizontal_left_at(t, c))
    for v in B.vmors:
        want = Modification(
            top=_horizontal_left_at(t, B.vsrc(v)), bottom=_horizontal_left_at(t, B.vtgt(v)),
            left=_vertical_at2(F, v), right=_vertical_at2(G, v),
            at_obj={a: t.cell_av[(a, v)] for a in A.objects})
        assert _deep_key(S.mod_at_vmor(v)) == _deep_key(want)
    for g in B.hmors:
        c, d = B.hsrc(g), B.htgt(g)
        top = hcomp_horizontal(_horizontal_left_at(t, d), _horizontal_at2(F, g))
        bot = hcomp_horizontal(_horizontal_at2(G, g), _horizontal_left_at(t, c))
        left, right = identity_vertical(F.partial_left[c]), identity_vertical(G.partial_left[d])
        want = (Modification(top=top, bottom=bot, left=left, right=right,
                             at_obj={a: t.cell_ag[(a, g)][0] for a in A.objects}),
                Modification(top=bot, bottom=top, left=left, right=right,
                             at_obj={a: t.cell_ag[(a, g)][1] for a in A.objects}))
        assert [_deep_key(m) for m in S.mods_at_hmor(g)] == [_deep_key(m) for m in want]
    assert skew_s(S).key() == t.key()


def _assert_modification_swap(m):
    A = m.top.src.domA
    S = skew_s(m)
    for c in m.top.src.domB.objects:
        want = Modification(
            top=_horizontal_left_at(m.top, c), bottom=_horizontal_left_at(m.bottom, c),
            left=_vertical_left_at(m.left, c), right=_vertical_left_at(m.right, c),
            at_obj={a: m.at_pair[(a, c)] for a in A.objects})
        assert _deep_key(S.right_at(c)) == _deep_key(want)
    assert skew_s(S).key() == m.key()


def test_skew_s_second_variable_reads_match_direct_oracles(QQM, tables):
    Q, M, hom = QQM
    for F in enumerate_twovar_functors(Q, Q, M, hom):
        _assert_functor_swap(F)
    N = tables["nonstrict"]
    hom = hom_double(N, M)
    two = enumerate_twovar_functors(N, N, M, hom)
    curried = {F.key(): curry_functor(F, hom) for F in two}
    counts = dict.fromkeys(("functor", "vertical", "horizontal", "modification"), 0)
    for F in two:
        _assert_functor_swap(F)
        counts["functor"] += 1
    for F in two:
        for G in two:
            Pf, Pg = curried[F.key()], curried[G.key()]
            for t in enumerate_vertical(Pf, Pg):
                _assert_vertical_swap(uncurry_vertical(t, hom, F, G))
                counts["vertical"] += 1
            hs = enumerate_horizontal(Pf, Pg)
            s_id = uncurry_vertical(identity_vertical(Pf), hom, F, F)
            r_id = uncurry_vertical(identity_vertical(Pg), hom, G, G)
            for t in hs:
                h_t = uncurry_horizontal(t, hom, F, G)
                _assert_horizontal_swap(h_t)
                counts["horizontal"] += 1
                for b in hs:
                    h_b = uncurry_horizontal(b, hom, F, G)
                    for m in enumerate_modifications(
                            t, b, identity_vertical(Pf), identity_vertical(Pg)):
                        _assert_modification_swap(
                            uncurry_modification(m, hom, h_t, h_b, s_id, r_id))
                        counts["modification"] += 1
    assert all(counts.values()), counts


def _failed_families(rep):
    return {f.check for f in rep.failures()}


def test_twovar_vertical_checker_names_a_wrong_cell_in_either_variable(tables):
    N, M = tables["nonstrict"], tables["sigmaM"]
    hom = hom_double(N, M)
    F = enumerate_twovar_functors(N, N, M, hom)[0]
    P = curry_functor(F, hom)
    s = uncurry_vertical(identity_vertical(P), hom, F, F)
    assert check_twovar_vertical(s).ok
    n = 0
    for field, family in (("cell_right", "2vt.right"), ("cell_left", "2vt.left")):
        cells = getattr(s, field)
        for k, c in cells.items():
            for other in M.cells:
                if other != c:
                    mutant = dataclasses.replace(s, **{field: {**cells, k: other}})
                    assert _failed_families(check_twovar_vertical(mutant)) == {family}
                    n += 1
    assert n > 0


def test_twovar_horizontal_checker_names_a_wrong_cell_in_either_variable(tables):
    T, N = terminal(), tables["nonstrict"]
    hom = hom_double(T, N)
    (F,) = enumerate_twovar_functors(T, T, N, hom)
    P = curry_functor(F, hom)
    seen = set()
    for t in enumerate_horizontal(P, P):
        h = uncurry_horizontal(t, hom, F, F)
        assert check_twovar_horizontal(h).ok
        for field, family in (("cell_av", "2ht.right"), ("cell_ag", "2ht.right"),
                              ("cell_uc", "2ht.left"), ("cell_fc", "2ht.left")):
            cells = getattr(h, field)
            for k, c in cells.items():
                pair = isinstance(c, tuple)
                for other in N.cells_with_frame(N.frame(c[0] if pair else c)):
                    if pair:
                        if N.inverse_of(other) is None:
                            continue
                        other = (other, N.inverse_of(other))
                    if other != c:
                        mutant = dataclasses.replace(h, **{field: {**cells, k: other}})
                        assert _failed_families(check_twovar_horizontal(mutant)) == {family}
                        seen.add(field)
    assert seen == {"cell_av", "cell_ag", "cell_uc", "cell_fc"}
