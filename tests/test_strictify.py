from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st_

from strawcat import is_strict, terminal
from strawcat.cli import elaborate, parse
from strawcat.corpus import nonstrict
from strawcat.homs import check_functor, enumerate_functors, identity_functor
from strawcat.strictify import (
    Path,
    check_extension_strict,
    counit,
    decompose_kappa,
    eta,
    extend_functor,
    flatten_path,
    kappa,
    normalize_cell,
    renormalize,
    restrict_extension,
    st,
    st_strict_report,
    triangle1_report,
    triangle2_report,
    verify_3d_iso,
)
from strawcat.report import StructuralError


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
    for p in SN.paths(3):
        if len(p) < 2:
            continue
        recipe = decompose_kappa(SN, p)
        assert len(recipe) == 2
        assert SN.vcomp_cells(*recipe) == kappa(SN, p)


def test_normalize_roundtrip(SN):
    for c in SN.cells(3):
        alpha = normalize_cell(SN, c)
        assert renormalize(SN, c.dom, c.cod, alpha) == c


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


@settings(max_examples=40, deadline=None)
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
    e = eta(N, S)
    for F in enumerate_functors(N, M):
        E = extend_functor(F, S, M)
        assert check_extension_strict(E, 3).ok
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


def test_flatten_path():
    p = Path("st", (Path("st", ("e",)), Path("st", ("j", "e"))))
    assert flatten_path(p) == Path("st", ("e", "j", "e"))


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
    import itertools
    from strawcat.homs import enumerate_vertical
    from strawcat.strictify import (check_stvertical, extend_vertical)

    for a, b in [("nonstrict", "sigmaM"), ("quintet", "quintetP")]:
        A, B = tables[a], tables[b]
        S = st(A)
        bound = 3
        paths = S.paths(bound)
        for F in enumerate_functors(A, B):
            EF = extend_functor(F, S, B)
            for G in enumerate_functors(A, B):
                EG = extend_functor(G, S, B)
                expected = set()
                for t in enumerate_vertical(F, G):
                    sv = extend_vertical(t, EF, EG)
                    if check_stvertical(sv, bound).ok:
                        expected.add(tuple(sorted(
                            (p.hmors, sv.at_path(p)) for p in paths)))
                obj_cands = [[v for v in B.vmors
                              if B.vsrc(v) == F.obj(x) and B.vtgt(v) == G.obj(x)]
                             for x in A.objects]
                found = set()
                for opick in itertools.product(*obj_cands):
                    at_obj = dict(zip(A.objects, opick))
                    cands = []
                    for p in paths:
                        from strawcat.core import Frame
                        want = Frame(EF.on_path(p), EG.on_path(p),
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
                                lhs = B.vcomp_cells(EF.on_cell(c), comp[c.cod])
                                rhs = B.vcomp_cells(comp[c.dom], EG.on_cell(c))
                                if lhs != rhs:
                                    ok = False
                                    break
                        if ok:
                            found.add(tuple(sorted(
                                (p.hmors, comp[p]) for p in paths)))
                assert found == expected, (a, b, F.name, G.name)


# -- the st kernel of families C4 and C6 against plain loops -------------------

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
    hp, cat = S.hcomp_payload, S.concat
    n, out = 0, []
    for c1 in cells:
        d1, k1 = len(c1.dom), len(c1.cod)
        if d1 >= bound and k1 >= bound:
            continue
        for c2 in list(rights_of(c1, bound - d1, bound - k1)):
            p12 = hp(c1.dom, c1.cod, c1.payload, c2.dom, c2.cod, c2.payload)
            n12d, n12c = d1 + len(c2.dom), k1 + len(c2.cod)
            for c3 in rights_of(c2, bound - n12d, bound - n12c):
                lhs = hp(cat(c1.dom, c2.dom), cat(c1.cod, c2.cod), p12,
                         c3.dom, c3.cod, c3.payload)
                p23 = hp(c2.dom, c2.cod, c2.payload, c3.dom, c3.cod, c3.payload)
                rhs = hp(c1.dom, c1.cod, c1.payload,
                         cat(c2.dom, c3.dom), cat(c2.cod, c3.cod), p23)
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


def _as_text(findings):
    return [(check, tuple(str(w) for w in witness)) for check, witness in findings]


def _assert_kernel_matches_oracles(S, bound, rep):
    for family, oracle in (("st.cell.hassoc", hassoc_oracle),
                           ("st.interchange", interchange_oracle)):
        n, want = oracle(S, bound)
        got = [(f.check, f.witness) for f in rep.findings if f.check == family]
        assert rep.params["instances"][family] == n, family
        assert _as_text(got) == _as_text(want), family


def _mutant(corpus_dir, name, old, new):
    text = (corpus_dir / f"{name}.pdc").read_text()
    assert old + "\n" in text, (name, old)
    return elaborate(parse(text.replace(old, new, 1), name), allow_invalid=True)


def test_st_kernel_findings_on_a_broken_cell_table(corpus_dir):
    A = _mutant(corpus_dir, "nonstrict", "  t * t = ce", "  t * t = t")
    S = st(A)
    rep = st_strict_report(S, 3)
    assert not rep.ok
    assert Counter(f.check for f in rep.failures()) == {"st.interchange": 1680,
                                                        "st.cell.hassoc": 84}
    _assert_kernel_matches_oracles(S, 3, rep)


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


@pytest.mark.parametrize("name, old, new, pair", [
    ("nonstrict", "  e * e = e", "  e * e = j", "ce under cj"),
    ("sigmaM", "  m1 * m1 = m2", "  m1 * m1 = m1", "c_m2 under c_m1"),
    ("quintet", "  cb * s = s", "  cb * s = cb", "cb under cf"),
    ("sigma2", "  z1 * z1 = z0", "  z1 * z1 = z1", "c_z0 under c_z1"),
])
def test_st_undefined_composite_is_a_structural_error(corpus_dir, name, old, new, pair):
    # the first three fail inside the kernel (family C4), quintet in C3
    with pytest.raises(StructuralError, match=f"cells not v-composable: {pair}$"):
        st_strict_report(st(_mutant(corpus_dir, name, old, new)), 3)
