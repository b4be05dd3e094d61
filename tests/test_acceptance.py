"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its elapsed time.  All tolerances are exact (discrete algebra);
the runtime limits are the stated budgets."""

import time

from strawcat import is_cofibrant, is_strict, validate
from strawcat.cli import elaborate, parse
from strawcat.corpus import corpus

CORPUS = corpus()


def report_line(num, ok, elapsed, limit, detail=""):
    within = elapsed < limit
    status = "PASS" if ok and within else "FAIL"
    bound = "<" if within else ">="
    print(f"\nACCEPTANCE {num}: {status} [{elapsed:.1f}s {bound} {limit}s] {detail}")
    assert ok
    assert elapsed < limit


# twenty single-row mutations of corpus files; each must produce a non-empty
# report naming the violated axiom (never a structural error)
MUTATIONS = [
    ("nonstrict", "  l e = t t", "  l e = ce ce"),
    ("nonstrict", "  r e = t t", "  r e = ce ce"),
    ("nonstrict", "  e j j = t t", "  e j j = ce ce"),
    ("nonstrict", "  j j e = t t", "  j j e = ce ce"),
    ("nonstrict", "  t . t = ce", "  t . t = t"),
    ("nonstrict", "  t * t = ce", "  t * t = t"),
    ("nonstrict", "  j j j = cj cj", "  j j j = ce ce"),
    ("nonstrict", "  e * e = e", "  e * e = j"),
    ("sigmaM", "  m1 * m1 = m2", "  m1 * m1 = m1"),
    ("sigmaM", "  c_m1 . c_m1 = c_m1", "  c_m1 . c_m1 = c_m0"),
    ("sigmaM", "  m0 m1 m1 = c_m2 c_m2", "  m0 m1 m1 = c_m1 c_m1"),
    ("sigmaM", "  c_m2 * c_m1 = c_m2", "  c_m2 * c_m1 = c_m1"),
    ("quintet", "  cb . s = s", "  cb . s = cb"),
    ("quintet", "  cb * s = s", "  cb * s = cb"),
    ("quintet", "  s . cf = s", "  s . cf = cf"),
    ("quintet", "  cu . ca = cu", "  cu . ca = ca"),
    ("quintet", "  s * cu = s", "  s * cu = cb"),
    ("vertfree", "  cb . cu = cu", "  cb . cu = cb"),
    ("sigma2", "  z1 * z1 = z0", "  z1 * z1 = z1"),
    ("quintetP", "  sp . cfp = sp", "  sp . cfp = cfp"),
]


def test_criterion_1_validator_soundness(corpus_dir):
    t0 = time.perf_counter()
    for name, A in CORPUS.items():
        rep = validate(A)
        assert rep.ok and rep.failures() == [], name
        text = (corpus_dir / f"{name}.pdc").read_text()
        assert validate(elaborate(parse(text, name))).ok
    assert len(MUTATIONS) == 20
    named = []
    for fname, old, new in MUTATIONS:
        text = (corpus_dir / f"{fname}.pdc").read_text()
        assert old + "\n" in text + "\n", (fname, old)
        mutated = text.replace(old, new, 1)
        A = elaborate(parse(mutated, fname), allow_invalid=True)
        rep = validate(A)
        assert not rep.ok, (fname, old, new)
        fails = rep.failures()
        assert fails, (fname, old)
        assert all(not f.check.startswith("structure.") for f in fails), \
            (fname, old, [f.check for f in fails])
        named.append(fails[0].check)
    report_line(1, True, time.perf_counter() - t0, 10,
                f"20 mutations -> axioms {sorted(set(named))}")


# per-family instance counts of st_strict_report(st(A), 4), so that a
# faster oracle is seen to do the same work
ST_FAMILIES = (
    "st.hmor.unit", "st.hmor.assoc", "st.cell.vunit",
    "st.cell.vassoc", "st.cell.hunit", "st.cell.hassoc",
    "st.vid.mult", "st.interchange", "st.hid.videntity",
    "st.hid.functorial", "st.constraint.identity",
)
ST_COUNTS = {
    "terminal": (5, 35, 25, 71, 50, 1_224, 15, 2_850, 1, 1, 40),
    "unit": (5, 35, 25, 71, 50, 1_224, 15, 2_850, 1, 1, 40),
    "vertfree": (10, 70, 75, 355, 100, 3_672, 30, 11_400, 2, 4, 80),
    "sigmaM": (121, 1_549, 11_361, 75, 22_722, 166_458, 547, 5_837_202, 1, 1, 1_670),
    "sigma2": (31, 351, 481, 195, 962, 21_873, 129, 133_361, 1, 1, 382),
    "quintet": (20, 175, 225, 452, 350, 11_002, 70, 41_820, 2, 4, 195),
    "quintetP": (20, 175, 225, 452, 350, 11_002, 70, 41_820, 2, 4, 195),
    "nonstrict": (31, 351, 1_377, 87, 2_754, 43_478, 129, 816_210, 1, 1, 382),
}


def test_criterion_2_strictness_of_st():
    from strawcat.strictify import st, st_strict_report
    t0 = time.perf_counter()
    total = 0
    for name, A in CORPUS.items():
        rep = st_strict_report(st(A), 4)
        assert rep.ok, f"{name}: {rep.render()}"
        assert rep.params["instances"] == dict(zip(ST_FAMILIES, ST_COUNTS[name])), name
        total += sum(rep.params["instances"].values())
    assert set(ST_COUNTS) == set(CORPUS)
    report_line(2, True, time.perf_counter() - t0, 60, f"{total} axiom instances at L=4")


def test_criterion_3_three_dimensional_universal_property():
    from strawcat.strictify import verify_3d_iso
    t0 = time.perf_counter()
    counts = {}
    for a, b in [("nonstrict", "sigmaM"), ("quintet", "quintetP")]:
        rep = verify_3d_iso(CORPUS[a], CORPUS[b], 3)
        assert rep.ok, f"({a},{b}): {rep.render()}"
        counts[(a, b)] = (rep.params["objects_each_side"],
                          rep.params["vmors_each_side"],
                          rep.params["hmors_each_side"],
                          rep.params["cells_each_side"])
    report_line(3, True, time.perf_counter() - t0, 300, f"bijection sizes {counts}")


def test_criterion_4_adjunction_laws():
    from strawcat.multicat import strictification_adjunction_report
    from strawcat.strictify import triangle1_report, triangle2_report
    t0 = time.perf_counter()
    for name, A in CORPUS.items():
        assert triangle1_report(A, 3).ok, name
        if is_strict(A):
            assert triangle2_report(A).ok, name
    sub = {k: CORPUS[k] for k in ("nonstrict", "sigmaM", "quintet")}
    rep = strictification_adjunction_report(sub, bound=3)
    assert rep.ok, rep.render()
    report_line(4, True, time.perf_counter() - t0, 60,
                f"unit naturality on {rep.params['unit_naturality_instances']} "
                f"functors; S functorial on {rep.params['S_functoriality_instances']} pairs")


# instance counts of the two envelopes at word cap 4, so that a faster
# checker is seen to do the same work
ENVELOPE_COUNTS = {
    "terminal": {"morphisms": 499,
                 "assoc_instances_small": 50_018,
                 "assoc_instances_structural": 521_071,
                 "tensor_functoriality_instances": 388_443,
                 "symmetry_naturality_instances": 1_613},
    "z2mon": {"morphisms": 6_609,
              "assoc_instances_small": 317_310,
              "assoc_instances_structural": 7_115_571,
              "tensor_functoriality_instances": 5_259_281,
              "symmetry_naturality_instances": 20_875},
}


def test_criterion_5_envelope():
    from strawcat.multicat import (envelope, from_monoidal, terminal_multicat,
                                   validate_envelope, validate_multicat)
    t0 = time.perf_counter()
    T = terminal_multicat(4)
    assert validate_multicat(T).ok
    r1 = validate_envelope(envelope(T, 4))
    assert r1.ok, r1.render()
    Z = from_monoidal("z2mon", ("0", "1"),
                      lambda x, y: str((int(x) + int(y)) % 2), "0", 4)
    assert validate_multicat(Z).ok
    r2 = validate_envelope(envelope(Z, 4))
    assert r2.ok, r2.render()
    for name, rep in (("terminal", r1), ("z2mon", r2)):
        counts = ENVELOPE_COUNTS[name]
        assert {k: rep.params[k] for k in counts} == counts, name
    report_line(5, True, time.perf_counter() - t0, 30,
                f"{r1.params['morphisms']} + {r2.params['morphisms']} morphisms")


def test_criterion_6_currying_and_representability():
    from strawcat.homs import enumerate_vertical, enumerate_horizontal, hom_double
    from strawcat.twovar import (curry_functor, curry_vertical, curry_horizontal,
                                 enumerate_twovar_functors, uncurry_functor,
                                 uncurry_horizontal, uncurry_vertical,
                                 verify_equivalence)
    t0 = time.perf_counter()
    Q, M = CORPUS["quintet"], CORPUS["sigmaM"]
    hom = hom_double(Q, M)
    two = enumerate_twovar_functors(Q, Q, M, hom)
    n_data = 0
    curried = {F.key(): curry_functor(F, hom) for F in two}
    for F in two:
        P = curried[F.key()]
        assert uncurry_functor(P, hom, Q, M).key() == F.key()
        n_data += 1
    for F in two:
        for G in two:
            Pf, Pg = curried[F.key()], curried[G.key()]
            for t in enumerate_vertical(Pf, Pg):
                s2 = uncurry_vertical(t, hom, F, G)
                assert curry_vertical(s2, hom, Pf, Pg).key() == t.key()
                n_data += 1
            for t in enumerate_horizontal(Pf, Pg):
                h2 = uncurry_horizontal(t, hom, F, G)
                from strawcat.twovar import check_twovar_horizontal
                assert check_twovar_horizontal(h2).ok
                assert curry_horizontal(h2, hom, Pf, Pg).key() == t.key()
                n_data += 1
    rep = verify_equivalence(Q, Q, M)
    assert rep.ok, rep.render()
    rep2 = verify_equivalence(CORPUS["nonstrict"], CORPUS["nonstrict"], M)
    assert rep2.ok, rep2.render()
    report_line(6, True, time.perf_counter() - t0, 300,
                f"{n_data} curry round trips; equivalence params {rep2.params}")


def test_criterion_7_interchange_gray_layer():
    from strawcat.gray import gray_axiom_check
    t0 = time.perf_counter()
    grids = 0
    for triple in [("nonstrict", "sigmaM", "sigmaM"),
                   ("sigma2", "sigma2", "sigma2")]:
        rep = gray_axiom_check(*(CORPUS[t] for t in triple), bound=2)
        assert rep.ok, f"{triple}: {rep.render()}"
        grids += rep.params["grid_instances"]
    report_line(7, True, time.perf_counter() - t0, 300, f"{grids} grids across 2 triples")


def test_criterion_8_cofibrancy_and_biequivalence():
    from strawcat.gray import biequivalence_check
    from strawcat.strictify import st
    t0 = time.perf_counter()
    for name, A in CORPUS.items():
        # st preserves the underlying category, so cofibrancy of st A in the
        # contract reading is cofibrancy of A's vertical category
        assert is_cofibrant(A), name
        S = st(A)
        seen = set()
        for p in S.paths(3):
            assert (p.src, p.hmors) not in seen
            seen.add((p.src, p.hmors))
    pairs = [("nonstrict", "sigmaM"), ("sigma2", "sigma2"),
             ("terminal", "sigma2"), ("nonstrict", "quintet")]
    for a, b in pairs:
        rep = biequivalence_check(CORPUS[a], CORPUS[b], bound=3)
        assert rep.ok, f"({a},{b}): {rep.render()}"
        if b == "quintet":
            assert rep.params["B_horizontally_free"]
    report_line(8, True, time.perf_counter() - t0, 60, f"pairs {pairs}")
