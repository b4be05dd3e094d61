import dataclasses

from hypothesis import given, settings, strategies as st

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
from strawcat.core import FiniteCategory, category_is_free
from strawcat.corpus import nonstrict, quintet, sigma_m3


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


def test_inverse_lookups_leave_equality_alone():
    N, N2 = nonstrict(), nonstrict()
    assert N == N2
    N.inverse_of("t")
    N.cells_with_frame(N.frame("t"))
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


def test_dangling_identifier_is_structural_not_axiom():
    Q = quintet()
    rep = validate(mutate(Q, hmor_src={**Q.hmor_src, "f": "nowhere"}))
    assert not rep.ok
    assert all(f.check.startswith("structure.") for f in rep.failures())


# a small pool of single-entry table mutations used as a property test;
# each either leaves the table valid (no-op swap) or is caught
@settings(max_examples=60, deadline=None)
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
