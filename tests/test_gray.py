import pytest

from strawcat import terminal
from strawcat import gray
from strawcat.gray import (GridContext, biequivalence_check, eta_star,
                           gray_axiom_check, interchange_grid, st_hom)
from strawcat.homs import (compose_functors, interchanger, whisker_post_functor,
                           whisker_pre_functor)
from strawcat.report import StructuralError
from strawcat.strictify import Path


@pytest.fixture(scope="module")
def shNN(tables):
    return st_hom(tables["nonstrict"], tables["nonstrict"])


@pytest.fixture(scope="module")
def ctxNN(shNN):
    return GridContext(shNN, shNN.hom, shNN.hom)


def test_eta_star_is_unary(shNN):
    h = shNN.hom.table.hmors[0]
    p = eta_star(shNN, h)
    assert len(p) == 1 and p.hmors == (h,)


def test_empty_grids_are_identities(shNN, ctxNN):
    S = shNN.S
    some_obj = shNN.hom.table.objects[0]
    empty = Path(some_obj, ())
    g = interchange_grid(ctxNN, empty, empty)
    assert g == S.vid_of(g.dom)
    for h in shNN.hom.table.hmors[:4]:
        one = S.unary(h)
        g = interchange_grid(ctxNN, one, empty)
        assert g == S.vid_of(g.dom)
        g = interchange_grid(ctxNN, empty, one)
        assert g == S.vid_of(g.dom)


def test_single_grid_is_the_interchanger(shNN, ctxNN):
    T = shNN.hom.table
    for a in T.hmors[:6]:
        for b in T.hmors[:6]:
            al = S_unary = shNN.S.unary(a)
            be = shNN.S.unary(b)
            g = interchange_grid(ctxNN, al, be)
            assert g.payload == ctxNN.interchanger_payload(a, b)
            gi = shNN.S.inverse_of(g)
            assert gi is not None
            assert shNN.S.vcomp_cell(gi, g) == shNN.S.vid_of(g.dom)


def test_grid_order_independence_2x2(shNN, ctxNN):
    T = shNN.hom.table
    count = 0
    for alphas in shNN.S.paths(2):
        if len(alphas) != 2:
            continue
        for betas in shNN.S.paths(2):
            if len(betas) != 2:
                continue
            row = interchange_grid(ctxNN, alphas, betas, "row")
            col = interchange_grid(ctxNN, alphas, betas, "col")
            assert row == col
            count += 1
            if count >= 25:
                return
    assert count


def test_gray_axiom_check_terminal_triple(tables):
    rep = gray_axiom_check(terminal(), terminal(), terminal(), bound=2)
    assert rep.ok, rep.render()


def test_gray_axiom_check_mixed_triple(tables):
    rep = gray_axiom_check(tables["sigma2"], tables["sigma2"], tables["sigma2"],
                           bound=2)
    assert rep.ok, rep.render()
    assert rep.params["grid_instances"] > 0


@pytest.mark.parametrize("names", [("nonstrict", "sigmaM", "sigmaM"),
                                   ("sigma2", "sigma2", "sigma2")])
def test_grid_context_reads_agree_with_direct_composition(tables, names):
    # the oracle builds each composite datum and looks its id up in Hom(A, C)
    A, B, C = (tables[n] for n in names)
    sh_ab, sh_bc, sh_ac = st_hom(A, B), st_hom(B, C), st_hom(A, C)
    ctx = GridContext(sh_ac, sh_ab.hom, sh_bc.hom)
    H_ab, H_bc, id_of = sh_ab.hom, sh_bc.hom, sh_ac.hom.id_of
    for g, G in H_bc.functors.items():
        for f, F in H_ab.functors.items():
            assert ctx.obj(g, f) == id_of(compose_functors(G, F))
        for a, al in H_ab.horizontals.items():
            assert ctx.post(g, a) == id_of(whisker_post_functor(G, al))
    for b, be in H_bc.horizontals.items():
        for f, F in H_ab.functors.items():
            assert ctx.pre(b, f) == id_of(whisker_pre_functor(be, F))
        for a, al in H_ab.horizontals.items():
            assert ctx.interchanger_payload(a, b) == id_of(interchanger(al, be))


def test_gray_composite_names_a_wrong_interchanger(tables, monkeypatch):
    # one interchanger of L(nonstrict, nonstrict, nonstrict) that is not an
    # identity is replaced by the identity modification on its top
    built = gray.skew_L

    def planted(*args):
        L = built(*args)
        T = L.cod
        key, (m, _) = next((k, c) for k, c in L.cell_hh.items()
                           if c[0] != T.vid_cell[T.frame(c[0]).top])
        one = T.vid_cell[T.frame(m).top]
        L.cell_hh[key] = (one, one)
        return L

    N = tables["nonstrict"]
    assert gray_axiom_check(N, N, N, bound=0).ok
    monkeypatch.setattr(gray, "skew_L", planted)
    rep = gray_axiom_check(N, N, N, bound=0)
    assert {f.check for f in rep.failures()} == {"gray.composite"}
    assert {f.witness[0] for f in rep.failures()} == {"2fun.horiz.first",
                                                       "2fun.horiz.second"}


def test_biequivalence_checks(tables):
    rep = biequivalence_check(tables["nonstrict"], tables["sigmaM"], bound=3)
    assert rep.ok, rep.render()
    rep = biequivalence_check(tables["terminal"], tables["sigma2"], bound=3)
    assert rep.ok, rep.render()


def test_biequivalence_names_a_path_category_that_is_not_free(tables, monkeypatch):
    # (e) planted as the composite of (e) with itself in the bounded table of
    # st A: (e) then has no factorisation into indecomposables
    from strawcat.strictify import StrictifiedDouble
    table = StrictifiedDouble.table

    def planted(S, bound):
        T = table(S, bound)
        e = S.unary("e")
        T.hcomp_hmor_table[(e, e)] = e
        return T

    monkeypatch.setattr(StrictifiedDouble, "table", planted)
    rep = biequivalence_check(tables["nonstrict"], tables["sigmaM"], bound=3)
    assert {f.check for f in rep.failures()} == {"bieq.stA.cofibrant.horizontal"}


def test_biequivalence_rejects_bad_inputs(tables):
    with pytest.raises(StructuralError):
        biequivalence_check(tables["quintet"], tables["sigmaM"])
    with pytest.raises(StructuralError):
        biequivalence_check(tables["nonstrict"], tables["nonstrict"])
