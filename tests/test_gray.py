import pytest

from strawcat import terminal
from strawcat import gray
from strawcat.gray import (GridContext, biequivalence_check, gray_axiom_check,
                           interchange_grid, st_hom)
from strawcat.homs import (Modification, compose_functors, hcomp_horizontal,
                           identity_horizontal, identity_vertical, interchanger,
                           interchanger_inv, whisker_post_functor, whisker_pre_functor)
from strawcat.report import StructuralError
from strawcat.strictify import Path, st


@pytest.fixture(scope="module")
def shNN(tables):
    return st_hom(tables["nonstrict"], tables["nonstrict"])


@pytest.fixture(scope="module")
def ctxNN(shNN):
    return GridContext(shNN, shNN.hom, shNN.hom)


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
            assert g.payload == ctxNN.L.cell_hh[(b, a)][0]
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


def _swap_schedule_grid(ctx, alphas, betas, order):
    # the grid as a swap schedule pastes it: the path is a list of symbols,
    # ("a", i, j) for g_j a_i and ("b", j, i) for b_j f_i, and each swap of
    # an adjacent (a, b) is one interchanger whiskered by identities on the
    # rest of the path
    S, L = ctx.sh_ac.S, ctx.L
    TAB, TBC = ctx.hom_ab.table, ctx.hom_bc.table
    n, m = len(alphas), len(betas)
    fs = [alphas.src] + [TAB.hmor_tgt[a] for a in alphas.hmors]
    gs = [betas.src] + [TBC.hmor_tgt[b] for b in betas.hmors]

    def sid(sym):
        kind, x, y = sym
        if kind == "a":
            return L.partial_right[gs[y]].hmor_map[alphas.hmors[x - 1]]
        return L.partial_left[fs[y]].hmor_map[betas.hmors[x - 1]]

    state = [("a", i, 0) for i in range(1, n + 1)] + \
            [("b", j, n) for j in range(1, m + 1)]

    def path_of(syms):
        return Path(L.partial_right[gs[0]].obj_map[fs[0]], tuple(sid(s) for s in syms))

    cur = path_of(state)
    total = None

    def apply_swap(k):
        nonlocal total, cur
        kind1, i, j0 = state[k]
        kind2, j, i0 = state[k + 1]
        assert kind1 == "a" and kind2 == "b" and j0 == j - 1 and i0 == i
        payload = L.cell_hh[(betas.hmors[j - 1], alphas.hmors[i - 1])][0]
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
    else:
        for i in range(n, 0, -1):
            for j in range(1, m + 1):
                apply_swap((i - 1) + (j - 1))
    return S.vid_of(cur) if total is None else total


@pytest.mark.parametrize("names, count", [
    (("nonstrict", "sigmaM", "sigmaM"), 9828),
    (("sigma2", "sigma2", "sigma2"), 392),
    (("quintet", "quintet", "quintet"), 450)])
def test_grid_fold_matches_the_swap_schedule(tables, names, count):
    # every (alphas, betas, order) at bound 2: the memoised fold pastes the
    # same cell as the swap schedule, on the nose
    A, B, C = (tables[n] for n in names)
    sh_ab, sh_bc = st_hom(A, B), st_hom(B, C)
    ctx = GridContext(st_hom(A, C), sh_ab.hom, sh_bc.hom)
    seen = 0
    for alphas in sh_ab.S.paths(2):
        for betas in sh_bc.S.paths(2):
            for order in ("row", "col"):
                assert interchange_grid(ctx, alphas, betas, order) == \
                    _swap_schedule_grid(ctx, alphas, betas, order), (alphas, betas, order)
                seen += 1
    assert seen == count


def test_grid_rejects_an_unknown_order(shNN, ctxNN):
    one = shNN.S.unary(shNN.hom.table.hmors[0])
    with pytest.raises(ValueError):
        interchange_grid(ctxNN, one, one, "diagonal")


def test_gray_axiom_check_terminal_triple(tables):
    rep = gray_axiom_check(terminal(), terminal(), terminal(), bound=2)
    assert rep.ok, rep.render()


def test_gray_axiom_check_mixed_triple(tables):
    rep = gray_axiom_check(tables["sigma2"], tables["sigma2"], tables["sigma2"],
                           bound=2)
    assert rep.ok, rep.render()
    assert rep.params["grid_instances"] > 0


@pytest.mark.parametrize("names, calls", [(("nonstrict", "sigmaM", "sigmaM"), 2),
                                          (("sigma2", "sigma2", "sigma2"), 1)])
def test_gray_axiom_check_builds_each_hom_once(tables, monkeypatch, names, calls):
    # a hom that occurs twice in the triple is built and checked once, and
    # each strictness family still requires once
    real, built = gray.hom_double, []

    def counted(*args):
        built.append(args[:2])
        return real(*args)

    monkeypatch.setattr(gray, "hom_double", counted)
    rep = gray_axiom_check(*(tables[n] for n in names), bound=1)
    assert rep.ok, rep.render()
    assert len(built) == calls
    assert [rep.counts[f"gray.sthom.strict.{n}"] for n in ("AB", "BC", "AC")] == [1, 1, 1]


@pytest.mark.parametrize("names", [("nonstrict", "sigmaM", "sigmaM"),
                                   ("sigma2", "sigma2", "sigma2")])
def test_grid_context_reads_agree_with_direct_composition(tables, names):
    # the oracle builds each composite datum, modifications whole with their
    # frames of whiskered and composite transformations, and looks its id up
    # in Hom(A, C)
    A, B, C = (tables[n] for n in names)
    sh_ab, sh_bc, sh_ac = st_hom(A, B), st_hom(B, C), st_hom(A, C)
    ctx = GridContext(sh_ac, sh_ab.hom, sh_bc.hom)
    H_ab, H_bc, id_of, L = sh_ab.hom, sh_bc.hom, sh_ac.hom.id_of, ctx.L
    T_ab, T_bc, T_ac = H_ab.table, H_bc.table, sh_ac.hom.table
    for g, G in H_bc.functors.items():
        R = L.partial_right[g]
        for f, F in H_ab.functors.items():
            GF = compose_functors(G, F)
            assert R.obj_map[f] == id_of(GF)
            assert R.phi0[f] == id_of(Modification(
                identity_horizontal(GF), whisker_post_functor(G, identity_horizontal(F)),
                identity_vertical(GF), identity_vertical(GF),
                {a: G.phi0[F.obj(a)] for a in A.objects}))
        for a, al in H_ab.horizontals.items():
            assert R.hmor_map[a] == id_of(whisker_post_functor(G, al))
        for v, s in H_ab.verticals.items():
            assert R.vmor_map[v] == id_of(whisker_post_functor(G, s))
        for m, mod in H_ab.modifications.items():
            assert R.cell_map[m] == id_of(whisker_post_functor(G, mod))
        for (a2, a1) in T_ab.hcomp_hmor_table:
            t1, t2 = H_ab.horizontals[a1], H_ab.horizontals[a2]
            wt1, wt2 = whisker_post_functor(G, t1), whisker_post_functor(G, t2)
            assert R.phi2[(a1, a2)] == id_of(Modification(
                hcomp_horizontal(wt2, wt1), whisker_post_functor(G, hcomp_horizontal(t2, t1)),
                identity_vertical(wt1.src), identity_vertical(wt2.tgt),
                {x: G.phi2[(t1.at_obj[x], t2.at_obj[x])] for x in A.objects}))
    for f, F in H_ab.functors.items():
        P = L.partial_left[f]
        for g, G in H_bc.functors.items():
            assert P.phi0[g] == T_ac.vid_of(T_ac.h_id(id_of(compose_functors(G, F))))
        for b, be in H_bc.horizontals.items():
            assert P.hmor_map[b] == id_of(whisker_pre_functor(be, F))
        for v, s in H_bc.verticals.items():
            assert P.vmor_map[v] == id_of(whisker_pre_functor(s, F))
        for m, mod in H_bc.modifications.items():
            assert P.cell_map[m] == id_of(whisker_pre_functor(mod, F))
        for (b2, b1) in T_bc.hcomp_hmor_table:
            assert P.phi2[(b1, b2)] == T_ac.vid_of(T_ac.hcomp_hmor(
                id_of(whisker_pre_functor(H_bc.horizontals[b2], F)),
                id_of(whisker_pre_functor(H_bc.horizontals[b1], F))))
    for b, be in H_bc.horizontals.items():
        for a, al in H_ab.horizontals.items():
            assert L.cell_hh[(b, a)] == (id_of(interchanger(al, be)),
                                         id_of(interchanger_inv(al, be)))
        for v, s in H_ab.verticals.items():
            assert L.cell_hv[(b, v)] == id_of(Modification(
                whisker_pre_functor(be, s.src), whisker_pre_functor(be, s.tgt),
                whisker_post_functor(be.src, s), whisker_post_functor(be.tgt, s),
                {x: be.at_vmor[s.at_obj[x]] for x in A.objects}))
    for v, s in H_bc.verticals.items():
        for a, al in H_ab.horizontals.items():
            assert L.cell_vh[(v, a)] == id_of(Modification(
                whisker_post_functor(s.src, al), whisker_post_functor(s.tgt, al),
                whisker_pre_functor(s, al.src), whisker_pre_functor(s, al.tgt),
                {x: s.at_hmor[al.at_obj[x]] for x in A.objects}))


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
    # (e) planted as the composite of (e) with itself in the bounded path
    # category of st A: (e) then has no factorisation into indecomposables
    e = st(tables["nonstrict"]).unary("e")
    free = gray.category_is_free

    def planted(C):
        if e in C.mors:
            C.comp[(e, e)] = e
        return free(C)

    monkeypatch.setattr(gray, "category_is_free", planted)
    rep = biequivalence_check(tables["nonstrict"], tables["sigmaM"], bound=3)
    assert {f.check for f in rep.failures()} == {"bieq.stA.cofibrant.horizontal"}


def test_biequivalence_rejects_bad_inputs(tables):
    with pytest.raises(StructuralError):
        biequivalence_check(tables["quintet"], tables["sigmaM"])
    with pytest.raises(StructuralError):
        biequivalence_check(tables["nonstrict"], tables["nonstrict"])
