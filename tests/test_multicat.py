import dataclasses
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import strawcat
from strawcat import homs, multicat, strictify
from strawcat.core import TableDouble
from strawcat.multicat import (
    EnvelopeCategory,
    EnvMor,
    MultiFunctorData,
    adjunction_check,
    check_multifunctor,
    conjugation_multifunctor,
    endo_multicat,
    envelope,
    from_monoidal,
    hypothesis_check,
    identity_adjunction,
    perm_block,
    perm_compose,
    perm_sum,
    pronormal_check,
    strictification_adjunction_report,
    terminal_multicat,
    validate_envelope,
    validate_multicat,
)
from strawcat.report import Report, StructuralError
from strawcat.strictify import StCell

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def addz2(x, y):
    return str((int(x) + int(y)) % 2)


@pytest.fixture(scope="module")
def endo2():
    return endo_multicat("endo2", ("0", "1"), 2)


@pytest.fixture(scope="module")
def z2mon():
    return from_monoidal("z2mon", ("0", "1"), addz2, "0", 3)


def test_perm_utilities():
    p, q = (1, 0, 2), (2, 0, 1)
    assert perm_compose(p, q) == tuple(p[q[i]] for i in range(3))
    assert perm_block((1, 0), [2, 1]) == (2, 0, 1)
    assert perm_sum([(1, 0), (0,)]) == (1, 0, 2)


def _plain_validate_multicat(V):
    """validate_multicat one V.gamma/V.act lookup at a time, in the loop
    order its docstring promises: the oracle for the batched gathers."""
    rep = Report(f"validate_multicat({V.name})", params={"arity_cap": V.arity_cap})
    for m, (xs, y) in V.sig.items():
        rep.require("mc.sig.cap", len(xs) <= V.arity_cap, (m,))
        rep.require("mc.sig.listed", m in V.hom(xs, y), (m,))
    for (xs, y), ms in V.homs.items():
        rep.require("mc.homs.sig", len(set(ms)) == len(ms)
                    and all(V.sig.get(m) == (xs, y) for m in ms), (xs, y))
    for X in V.objects:
        rep.require("mc.ident.sig", V.sig.get(V.identities.get(X)) == ((X,), X), (X,))
    # substitution is typed: the fs' outputs are g's inputs, and the result
    # runs from the fs' inputs, concatenated, to g's output
    for (g, fs), h in V.gamma_table.items():
        sigs = [V.sig.get(m) for m in (g, *fs)]
        ok = None not in sigs and tuple(s[1] for s in sigs[1:]) == sigs[0][0]
        rep.require("mc.gamma.sig", ok and V.sig.get(h) == (
            tuple(x for s in sigs[1:] for x in s[0]), sigs[0][1]), (g, fs))
    by_out_size, tuples = multicat._by_out_size(V.sig), {}

    def budgeted(outputs):
        """_budgeted within the cap, enumerated once per call."""
        if outputs not in tuples:
            tuples[outputs] = tuple(multicat._budgeted(by_out_size, outputs, V.arity_cap))
        return tuples[outputs]

    # gamma and the action are defined wherever the laws below read them
    for g in V.sig:
        for fs in budgeted(tuple(V.sig[g][0])):
            rep.require("mc.gamma.total", (g, fs) in V.gamma_table, (g, fs))
    for m in V.sig:
        for p in multicat.all_perms(len(V.sig[m][0])):
            rep.require("mc.act.total", (m, p) in V.action_table, (m, p))
    for m, (xs, y) in V.sig.items():
        for p in multicat.all_perms(len(xs)):
            if (m, p) in V.action_table:
                rep.require("mc.act.sig", V.sig.get(V.action_table[(m, p)])
                            == (tuple(xs[i] for i in p), y), (m, p))
    if rep.failures():
        return rep              # the laws below substitute along these types
    # identity laws
    for m in V.sig:
        xs, y = V.sig[m]
        rep.require("mc.unit.left", V.gamma(V.ident(y), (m,)) == m, (m,))
        if xs:
            rep.require("mc.unit.right",
                        V.gamma(m, tuple(V.ident(x) for x in xs)) == m, (m,))
    # action laws
    for m in V.sig:
        rep.require("mc.act.id", V.act(m, multicat.perm_id(len(V.sig[m][0]))) == m, (m,))
    for m in V.sig:
        for p in multicat.all_perms(len(V.sig[m][0])):
            for q in multicat.all_perms(len(p)):
                rep.require("mc.act.comp",
                            V.act(V.act(m, p), q) == V.act(m, perm_compose(p, q)), (m, p, q))
    # associativity of substitution on two-level trees within the cap
    for g in V.sig:
        ys, z = V.sig[g]
        if not ys:
            continue
        for fs in budgeted(tuple(ys)):
            gf = V.gamma(g, fs)
            xs_all = tuple(x for f in fs for x in V.sig[f][0])
            for flat in budgeted(xs_all):
                # split flat back into the blocks of the fs
                ess, off = [], 0
                for f in fs:
                    k = len(V.sig[f][0])
                    ess.append(flat[off:off + k])
                    off += k
                lhs = V.gamma(gf, flat)
                rhs = V.gamma(g, tuple(V.gamma(f, es) for f, es in zip(fs, ess)))
                rep.require("mc.assoc", lhs == rhs, (g, fs, flat))
    rep.params["assoc_instances"] = rep.counts.get("mc.assoc", 0)
    # equivariance
    for g in V.sig:
        ys, z = V.sig[g]
        n = len(ys)
        if n == 0:
            continue
        for fs in budgeted(tuple(ys)):
            sizes = [len(V.sig[f][0]) for f in fs]
            base = V.gamma(g, fs)
            for p in multicat.all_perms(n):
                lhs = V.gamma(V.act(g, p), tuple(fs[p[i]] for i in range(n)))
                rhs = V.act(base, perm_block(p, sizes))
                rep.require("mc.equivariance.outer", lhs == rhs, (g, fs, p))
            for i, f in enumerate(fs):
                k = sizes[i]
                for q in multicat.all_perms(k):
                    fs2 = list(fs)
                    fs2[i] = V.act(f, q)
                    lhs = V.gamma(g, tuple(fs2))
                    qs = [multicat.perm_id(s) for s in sizes]
                    qs[i] = q
                    rhs = V.act(base, perm_sum(qs))
                    rep.require("mc.equivariance.inner", lhs == rhs, (g, fs, i, q))
    return rep


def test_terminal_multicat_valid():
    assert validate_multicat(terminal_multicat(3)).ok


def test_endo_multicat_valid(endo2):
    rep = validate_multicat(endo2)
    assert rep.ok, rep.render()
    # binary morphisms are the functions on pairs
    assert len(endo2.hom(("x", "x"), "x")) == 16


def test_from_monoidal_valid(z2mon):
    rep = validate_multicat(z2mon)
    assert rep.ok, rep.render()
    # multihoms are singletons exactly when the product matches
    assert z2mon.hom(("0", "1", "1"), "0")
    assert not z2mon.hom(("0", "1", "1"), "1")


ZERO2, ZERO0 = ("m", ("0", "0"), "0"), ("m", (), "0")


def _off_signature_z2():
    # gamma of 0 + 0 = 0 on two nullary 0s set to the unary 1 -> 1, where
    # the nullary 0 belongs
    V = from_monoidal("z2", ("0", "1"), addz2, "0", 2)
    V.gamma_table[(ZERO2, (ZERO0, ZERO0))] = ("m", ("1",), "1")
    return V


def test_validate_multicat_names_an_off_signature_substitution():
    rep = validate_multicat(_off_signature_z2())
    assert [(f.check, f.witness) for f in rep.failures()] == [
        ("mc.gamma.sig", (ZERO2, (ZERO0, ZERO0)))]


def _truncadd(cap):
    return from_monoidal("truncadd", ("0", "1", "2"),
                         lambda x, y: str(min(int(x) + int(y), 2)), "0", cap)


BASES = {"terminal": lambda: terminal_multicat(3),
         "z2mon": lambda: from_monoidal("z2mon", ("0", "1"), addz2, "0", 3),
         "truncadd": lambda: _truncadd(3),
         "endo2": lambda: endo_multicat("endo2", ("0", "1"), 2)}


def _planted(V, table, key, value):
    """V with one entry of one table set, or deleted where value is None,
    on a copy of that table: the copy builds its own integer form."""
    entries = dict(getattr(V, table))
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    return dataclasses.replace(V, **{table: entries})


def _other(V, m, same=True):
    """The first multimorphism but m with m's signature (where same), else
    with its arity, else any."""
    sig = V.sig[m]
    tests = [lambda s: s == sig] if same else []
    tests += [lambda s: len(s[0]) == len(sig[0]) and s != sig, lambda s: True]
    return next(x for ok in tests for x, s in V.sig.items() if x != m and ok(s))


def _mutant(V, family):
    """One entry of V's tables, and a new value for it, aimed at family:
    mostly around g, V's first binary multimorphism."""
    top = list(V.sig)[-1]
    binary = [m for m, (xs, _) in V.sig.items() if len(xs) == 2]
    g = binary[0]
    (x0, x1), y = V.sig[g]
    units = (V.ident(x0), V.ident(x1))
    nullary = next(m for m, (xs, z) in V.sig.items() if not xs and z == x1)
    swap = V.act(g, (1, 0))
    # inner: a binary a that the swap moves, with a nullary n into its
    # second input; gamma(a, (a, n)) is moved by the swap too
    a, n = next(((m, z) for m in binary if V.act(m, (1, 0)) != m
                 for z, (zs, w) in V.sig.items() if not zs and w == V.sig[m][0][1]),
                (g, nullary))
    an = V.gamma(a, (a, n))
    return {
        "mc.sig.cap": ("sig", top, (V.sig[top][0] + (V.sig[top][1],), V.sig[top][1])),
        "mc.sig.listed": ("homs", V.sig[g], tuple(m for m in V.hom(*V.sig[g]) if m != g)),
        "mc.homs.sig": ("homs", V.sig[g], V.hom(*V.sig[g]) + (_other(V, g, same=False),)),
        "mc.ident.sig": ("identities", x0, g),
        "mc.gamma.sig": ("gamma_table", (g, units), V.ident(y)),
        "mc.gamma.total": ("gamma_table", (g, units), None),
        "mc.act.total": ("action_table", (g, (1, 0)), None),
        "mc.unit.left": ("gamma_table", (V.ident(y), (g,)), _other(V, g)),
        "mc.unit.right": ("gamma_table", (g, units), _other(V, g)),
        "mc.act.id": ("action_table", (g, (0, 1)), _other(V, g)),
        "mc.act.sig": ("action_table", (g, (1, 0)), _other(V, swap, same=False)),
        "mc.act.comp": ("action_table", (g, (1, 0)), _other(V, swap)),
        "mc.assoc": ("gamma_table", (g, (units[0], V.ident(x1))), _other(V, g)),
        "mc.equivariance.outer": ("gamma_table", (g, (units[0], nullary)),
                                  _other(V, V.gamma(g, (units[0], nullary)))),
        "mc.equivariance.inner": ("gamma_table", (a, (a, n)), V.act(an, (1, 0))),
    }[family]


def _outcome(check, V):
    """The report of check on V as its findings, counts and params."""
    rep = check(V)
    return [(f.check, f.witness) for f in rep.findings], list(rep.counts.items()), rep.params


MC_STRUCTURE = ["mc.sig.cap", "mc.sig.listed", "mc.homs.sig", "mc.ident.sig", "mc.gamma.sig",
                "mc.gamma.total", "mc.act.total", "mc.act.sig"]
MC_FAMILIES = MC_STRUCTURE + ["mc.unit.left", "mc.unit.right", "mc.act.id", "mc.act.comp",
                              "mc.assoc", "mc.equivariance.outer", "mc.equivariance.inner"]


@pytest.mark.parametrize("base", BASES)
def test_validate_multicat_matches_the_plain_loops_on_every_planted_family(base):
    # on the base and on one single-entry mutant per family: the same
    # findings (check, witness, order), counts and params as the loops
    V = BASES[base]()
    assert _outcome(validate_multicat, V) == _outcome(_plain_validate_multicat, V)
    for family in MC_FAMILIES:
        W = _planted(V, *_mutant(V, family))
        assert _outcome(validate_multicat, W) == _outcome(_plain_validate_multicat, W), family


def test_every_family_is_named_by_its_planted_mutant():
    # a mistyped action value, and a deleted entry, are named on every base
    named = {}
    for base, make in BASES.items():
        V = make()
        for family in MC_FAMILIES:
            rep = validate_multicat(_planted(V, *_mutant(V, family)))
            if family in {f.check for f in rep.failures()}:
                named.setdefault(family, []).append(base)
    assert set(named) == set(MC_FAMILIES), named
    for family in ("mc.gamma.total", "mc.act.total", "mc.act.sig"):
        assert named[family] == list(BASES), (family, named[family])


@pytest.mark.parametrize("base", ["z2mon", "endo2"])
@pytest.mark.parametrize("table", ["gamma_table", "action_table"])
def test_validate_multicat_names_a_missing_entry_as_the_loops_do(base, table):
    # a report that names the entry under mc.gamma.total or mc.act.total
    V = BASES[base]()
    keys = list(getattr(V, table))
    family = {"gamma_table": "mc.gamma.total", "action_table": "mc.act.total"}[table]
    for key in keys[::max(1, len(keys) // 5)] + keys[-1:]:
        W = _planted(V, table, key, None)
        want = _outcome(_plain_validate_multicat, W)
        assert (family, key) in want[0]
        assert _outcome(validate_multicat, W) == want, key


def test_envelope_refuses_an_off_signature_substitution():
    # refused on entry, before any composite is formed
    want = f"z2: V fails mc.gamma.sig at ({ZERO2}, {(ZERO0, ZERO0)})"
    with pytest.raises(StructuralError, match=re.escape(want)):
        envelope(_off_signature_z2(), 2)


@pytest.mark.parametrize("extra", [("m", ("1", "1"), "0"), ZERO2])
def test_envelope_refuses_a_homs_entry_that_lists_a_stray_or_a_repeat(extra):
    # the (0, 0; 0) hom of z2 at cap 2 listing 1 + 1 = 0, whose signature
    # is (1, 1; 0), or listing 0 + 0 = 0 twice: both pass every other
    # family, and the envelope's frames would number its fibers wrongly
    V = from_monoidal("z2", ("0", "1"), addz2, "0", 2)
    W = _planted(V, "homs", (("0", "0"), "0"), V.hom(("0", "0"), "0") + (extra,))
    rep = validate_multicat(W)
    assert [(f.check, f.witness) for f in rep.failures()] == [
        ("mc.homs.sig", (("0", "0"), "0"))]
    assert _outcome(validate_multicat, W) == _outcome(_plain_validate_multicat, W)
    want = "z2: V fails mc.homs.sig at (('0', '0'), 0)"
    with pytest.raises(StructuralError, match=re.escape(want)):
        envelope(W, 2)


def test_envelope_refuses_a_word_cap_above_the_arity_cap():
    # a composite of more inputs than the arity cap has no gamma entry
    with pytest.raises(StructuralError, match="word cap 3 exceeds the arity cap 2"):
        envelope(terminal_multicat(2), 3)
    assert len(envelope(terminal_multicat(2), 2).composition.table) > 0


def test_single_entry_mutants_are_reported_and_refused_by_name():
    # every gamma and action entry of two bases, deleted or set to a
    # multimorphism of another signature: validate_multicat reports, the
    # envelope refuses exactly those whose report fails a structural
    # family, and any envelope built composes as the plain composite does
    bases = [terminal_multicat(3), from_monoidal("z2mon", ("0", "1"), addz2, "0", 2)]
    mutants = [_planted(V, table, key, value)
               for V in bases for table in ("gamma_table", "action_table")
               for key, h in getattr(V, table).items()
               for value in (None, _other(V, h, same=False))]
    assert len(mutants) == 162
    refused = 0
    for W in [*bases, *mutants]:
        structural = {f.check for f in validate_multicat(W).failures()} & set(MC_STRUCTURE)
        try:
            E = envelope(W)
        except StructuralError as e:
            assert structural and str(e).startswith(f"{W.name}: V fails mc."), e
            refused += 1
            continue
        assert not structural
        t = E.composition
        assert (t.table >= 0).all()
        assert [E.morphisms[i] for i in t.table] == [
            _plain_composite(W, E.morphisms[g], E.morphisms[f])
            for g, f in zip(*t.pairs(np.arange(len(t.table))))]
    assert refused == len(mutants)


def test_from_monoidal_rejects_noncommutative():
    elems = ("i", "a", "b")
    table = {("i", x): x for x in elems} | {(x, "i"): x for x in elems}
    table |= {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
    with pytest.raises(Exception):
        from_monoidal("lz", elems, lambda x, y: table[(x, y)], "i", 2)


def test_envelope_of_terminal_small():
    E = envelope(terminal_multicat(3), 3)
    rep = validate_envelope(E, assoc_full_len=3)
    assert rep.ok, rep.render()
    # objects are the finite ordinals up to the cap
    assert len(E.objects) == 4


def test_envelope_morphism_composition_uses_actions(z2mon):
    E = envelope(z2mon, 3)
    # find a composite whose reindexing permutation is nontrivial: feed two
    # inputs to swapped output slots and collapse
    rep = validate_envelope(E, assoc_full_len=2)
    assert rep.ok, rep.render()


CONJ = ("f", 2, ("0", "0", "0", "1"))
CONST0 = ("f", 2, ("0", "0", "0", "0"))
BROKEN_ENTRIES = {
    "gamma_table": (CONJ, (("f", 1, ("1", "0")), ("f", 1, ("0", "1")))),
    "action_table": (CONJ, (1, 0)),
}


def _broken_endo2(table, key):
    # one substitution or action entry of endo({0,1}) changed to another
    # binary function
    V = endo_multicat("endo2", ("0", "1"), 2)
    entries = getattr(V, table)
    assert entries[key] != CONST0 and V.sig[entries[key]] == V.sig[CONST0]
    entries[key] = CONST0
    return V


@pytest.mark.parametrize("table, key", BROKEN_ENTRIES.items())
def test_envelope_checker_fails_on_a_broken_table(table, key):
    # the envelope's composites go wrong, and the checker must say so,
    # naming exactly the findings recorded before composition became a table
    rep = validate_envelope(envelope(_broken_endo2(table, key), 2), assoc_full_len=2)
    fails = rep.failures()
    assert fails and all(f.check.startswith("env.") for f in fails)
    assert "env.assoc" in {f.check for f in fails}
    want = json.loads((GOLDEN / "planted-endo2-findings.json").read_text())[table]
    assert [[f.check, list(f.witness)] for f in fails] == want


@pytest.mark.parametrize("table, key", BROKEN_ENTRIES.items())
def test_envelope_names_a_missing_entry(table, key):
    # an entry that V lacks is refused on entry, by its family
    V = endo_multicat("endo2", ("0", "1"), 2)
    del getattr(V, table)[key]
    family = {"gamma_table": "mc.gamma.total", "action_table": "mc.act.total"}[table]
    want = f"endo2: V fails {family} at ({key[0]}, {key[1]})"
    with pytest.raises(StructuralError, match=re.escape(want)):
        envelope(V, 2)


def _plan(gidx, m, fidx):
    """The index map of g after f and, per output slot k < m of g, the
    permutation restoring input order once the fibers of f that g feeds into
    k are substituted there (None when substitution keeps the order).  The
    substituted inputs of slot k arrive in blocks, ordered by f's output and
    then by position; input i sits at rank[i] in that order."""
    idx = tuple([gidx[j] for j in fidx])
    rank = [0] * len(fidx)
    seen = [0] * m
    for i in sorted(range(len(fidx)), key=fidx.__getitem__):
        rank[i] = seen[idx[i]]
        seen[idx[i]] += 1
    perms = [[] for _ in range(m)]
    for i, k in enumerate(idx):
        perms[k].append(rank[i])
    return idx, tuple(None if p == sorted(p) else tuple(p) for p in perms)


def test_shapes_match_the_plan_on_every_pair_of_index_maps():
    # every composable pair of index maps up to length 4, whatever V, each
    # output slot k of g once: a dropped or inverted transposition shows
    # here even where V's actions are trivial, as terminal's are
    w = 4
    maps = [(m, idx) for n in range(w + 1) for m in range(w + 1)
            for idx in itertools.product(range(m), repeat=n)]
    pairs = [(g, f) for g in maps for f in maps if f[0] == len(g[1])]
    assert len(pairs) == 133_799

    def padded(idxs):
        return np.array([idx + (-1,) * (w - len(idx)) for idx in idxs]).T

    G, F = padded([g for (_, g), _ in pairs]), padded([f for _, (_, f) in pairs])
    codes = np.stack([multicat._slot_perm(G == k, F, w + 1) for k in range(w)], 1).tolist()
    for ((m, gidx), (_, fidx)), code in zip(pairs, codes):
        idx, perms = _plan(gidx, m, fidx)
        assert tuple(None if x < 0 else tuple(x // (w + 1) ** t % (w + 1) - 1
                                              for t in range(idx.count(k)))
                     for k, x in enumerate(code[:m])) == perms, (gidx, m, fidx)
        assert code[m:] == [-1] * (w - m)


def _plain_morphisms(V, cap):
    """The envelope's morphisms, one index map and one slot at a time: the
    oracle for the enumeration that filters index maps as arrays."""
    words = multicat._words(V.objects, cap)
    for dom in words:
        n = len(dom)
        for cod in words:
            m = len(cod)
            for idx in itertools.product(range(m), repeat=n):
                pools = []
                for j in range(m):
                    ins = tuple(dom[i] for i in range(n) if idx[i] == j)
                    pool = V.hom(ins, cod[j])
                    if not pool:
                        break
                    pools.append(pool)
                else:
                    for fibers in itertools.product(*pools):
                        yield EnvMor(dom, cod, idx, fibers)


@pytest.mark.parametrize("budget", [1, 100, 1_000])
def test_envelope_budget_stops_at_the_plain_candidate(budget, monkeypatch):
    # the candidates reach the budget in the oracle's order, and the same
    # candidate raises Truncated; z2 at cap 3 has 360 morphisms, so both
    # enumerations meet a budget of 1,000 in full
    V = from_monoidal("z2mon", ("0", "1"), addz2, "0", 3)
    real, seen = multicat.within_budget, []

    def pulled(candidates, max_candidates):
        def record():
            for x in candidates:
                seen.append(x)
                yield x
        return real(record(), max_candidates)

    def outcome(enumerate_all):
        seen.clear()
        try:
            enumerate_all()
            stop = None
        except homs.Truncated:
            stop = "Truncated"
        return stop, list(seen)

    want = outcome(lambda: list(pulled(_plain_morphisms(V, 3), budget)))
    monkeypatch.setattr(multicat, "within_budget", pulled)
    assert outcome(lambda: envelope(V, 3, max_candidates=budget)) == want
    assert want[0] == ("Truncated" if budget < 360 else None)
    assert len(want[1]) == min(budget + 1, 360)


def _plain_composite(V, g, f):
    """g after f, one pair at a time through V's gamma and action dicts: the
    oracle for the envelope's composition table.  Output slot k carries g's
    fiber at k with the fibers of f that g feeds into k substituted, then
    permuted back into input order."""
    idx, perms = _plan(g.idx, len(g.cod), f.idx)
    fibers = []
    for k, (m, perm) in enumerate(zip(g.fibers, perms)):
        m = V.gamma(m, tuple(x for x, j in zip(f.fibers, g.idx) if j == k))
        fibers.append(m if perm is None else V.act(m, perm))
    return EnvMor(f.dom, g.cod, idx, tuple(fibers))


def _tagged_union(name, *Vs):
    """The disjoint union of multicategories of one arity cap, each one's
    objects and multimorphisms tagged by its place among them."""
    objects, homs, sig, identities, gamma, action = [], {}, {}, {}, {}, {}
    for i, V in enumerate(Vs):
        def t(x, i=i):
            return (i, x)
        objects += map(t, V.objects)
        homs |= {(tuple(map(t, xs)), t(y)): tuple(map(t, ms)) for (xs, y), ms in V.homs.items()}
        sig |= {t(m): (tuple(map(t, xs)), t(y)) for m, (xs, y) in V.sig.items()}
        identities |= {t(x): t(m) for x, m in V.identities.items()}
        gamma |= {(t(g), tuple(map(t, fs))): t(h) for (g, fs), h in V.gamma_table.items()}
        action |= {(t(m), p): t(h) for (m, p), h in V.action_table.items()}
    return multicat.FiniteSymMulticat(name, tuple(objects), Vs[0].arity_cap, homs, sig,
                                      identities, gamma, action)


# bases whose envelopes' composition tables are checked against the plain
# composites; endo2 + terminal is the one whose composites mix slots of one
# and of many elements
ORACLE_ROWS = [
    (lambda: terminal_multicat(3), 3, 1_678),
    (lambda: from_monoidal("z2mon", ("0", "1"), addz2, "0", 3), 3, 10_608),
    (lambda: from_monoidal("truncadd", ("0", "1", "2"),
                           lambda x, y: str(min(int(x) + int(y), 2)), "0", 3), 3, 33_390),
    (lambda: _broken_endo2("gamma_table", BROKEN_ENTRIES["gamma_table"]), 2, 13_439),
    (lambda: _broken_endo2("action_table", BROKEN_ENTRIES["action_table"]), 2, 13_439),
    (lambda: _tagged_union("endo2+terminal", endo_multicat("endo2", ("0", "1"), 2),
                           terminal_multicat(2)), 2, 17_961),
]
ORACLE_IDS = ["terminal", "z2mon", "truncadd", "endo2-gamma", "endo2-action", "endo2-terminal"]


def test_the_mixed_union_validates():
    V = ORACLE_ROWS[-1][0]()
    assert validate_multicat(V).ok
    assert len(envelope(V, 2).morphisms) == 217


@pytest.mark.parametrize("make, cap, n_pairs", ORACLE_ROWS, ids=ORACLE_IDS)
def test_composition_table_matches_plain_composites(make, cap, n_pairs, monkeypatch):
    # every composable pair, in table order, against the plain per-pair
    # composite, over batches small enough that most cases span several;
    # compose reads the same table
    monkeypatch.setattr(multicat, "_BATCH", 4096)
    V = make()
    E = envelope(V, cap)
    t, mors = E.composition, E.morphisms
    assert mors == list(_plain_morphisms(V, cap))
    assert len(t.table) == n_pairs
    pair_g, pair_f = t.pairs(np.arange(n_pairs))
    want = [_plain_composite(V, mors[g], mors[f]) for g, f in zip(pair_g, pair_f)]
    assert [mors[i] for i in t.table] == want
    assert E.compose(mors[pair_g[-1]], mors[pair_f[-1]]) == want[-1]


@pytest.mark.parametrize("make, cap, n_pairs", ORACLE_ROWS, ids=ORACLE_IDS)
def test_tensor_table_matches_plain_tensors(make, cap, n_pairs):
    # every pair whose doms and cods each total within the cap, against the
    # concatenation of EnvMor tuples
    E = envelope(make(), cap)
    t, mors = E.composition, E.morphisms
    f, g = np.array([(i, j) for i, x in enumerate(mors) for j, y in enumerate(mors)
                     if len(x.dom) + len(y.dom) <= cap and len(x.cod) + len(y.cod) <= cap]).T
    assert [mors[i] for i in t.tensor(f, g)] == [E.tensor(mors[i], mors[j]) for i, j in zip(f, g)]


def test_validate_envelope_of_z2_at_word_cap_4_peaks_within_28_mib():
    # tracemalloc counts numpy's buffers.  The composition table (7 MiB of
    # int32 here) is the one array the size of every composable pair: no
    # stratum keeps a column of pairs beside it.  Measured: 21.7 MiB, set
    # by a batch of the table's construction; 46.7 MiB while the table's
    # pairs and the tensor-functoriality buckets were stored
    V = from_monoidal("z2", ("0", "1"), addz2, "0", 4)
    tracemalloc.start()
    try:
        rep = validate_envelope(envelope(V, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.params["morphisms"] == 6_609
    assert peak <= 28 << 20, peak / (1 << 20)


def _plain_loop_findings(E):
    """env.tensor.functorial and env.sym.natural violations, found by plain
    loops over the morphisms in the order validate_envelope promises, with
    the plain per-pair composite."""
    mors, cap = E.morphisms, E.word_cap

    def compose(g, f):
        return _plain_composite(E.V, g, f)

    index = {f: i for i, f in enumerate(mors)}
    pairs, by_profile, out = {}, {}, []
    for w in E.objects:
        for g in (g for g in mors if g.dom == w):
            for f in (f for f in mors if f.cod == w):
                pairs.setdefault((len(f.dom), len(w), len(g.cod)), []).append((g, f))
    for p1 in sorted(pairs):
        for p2 in sorted(pairs):
            if any(a + b > cap for a, b in zip(p1, p2)):
                continue
            for g1, f1 in pairs[p1]:
                for g2, f2 in pairs[p2]:
                    if (E.tensor(compose(g1, f1), compose(g2, f2))
                            != compose(E.tensor(g1, g2), E.tensor(f1, f2))):
                        out.append(("env.tensor.functorial",
                                    (index[f1], index[g1], index[f2], index[g2])))
    for f in mors:
        by_profile.setdefault((len(f.dom), len(f.cod)), []).append(f)
    for p1 in sorted(by_profile):
        for p2 in sorted(by_profile):
            if p1[0] + p2[0] > cap or p1[1] + p2[1] > cap:
                continue
            for f in by_profile[p1]:
                for g in by_profile[p2]:
                    if (compose(E.symmetry(f.cod, g.cod), E.tensor(f, g))
                            != compose(E.tensor(g, f), E.symmetry(f.dom, g.dom))):
                        out.append(("env.sym.natural", (index[f], index[g])))
    return out


def _with_tensors(monkeypatch, E, tensors):
    """E reading its tensor products from the array tensors in place of
    its own, laid out as E's (trow, tcol) say."""
    monkeypatch.setitem(E.__dict__, "composition",
                        dataclasses.replace(E.composition, tensors=tensors))


def test_envelope_tensor_families_match_plain_loops(monkeypatch):
    # these families run on integer tables; with the tensor product broken
    # on purpose, in the plain loops' E.tensor and in the entries of the
    # tensor table alike, they must report exactly the instances, in
    # order, that plain loops over the morphisms find
    E = envelope(endo_multicat("endo2", ("0", "1"), 2), 2)
    same_ends = {}
    for f in E.morphisms:
        same_ends.setdefault((f.dom, f.cod), []).append(f)
    tensor = EnvelopeCategory.tensor

    def bent(f, g):
        return len(f.dom) == 1 and g.cod and f.fibers != g.fibers[:1]

    def turned(fg):
        alts = same_ends[(fg.dom, fg.cod)]
        return alts[(alts.index(fg) + 1) % len(alts)]

    def broken(self, f, g):
        fg = tensor(self, f, g)
        return turned(fg) if bent(f, g) else fg

    t, mors = E.composition, E.morphisms
    tensors = t.tensors.copy()
    for (i, f), (j, g) in itertools.product(enumerate(mors), repeat=2):
        if len(f.dom) + len(g.dom) <= 2 and len(f.cod) + len(g.cod) <= 2 and bent(f, g):
            at = t.trow[i] + t.tcol[j]
            tensors[at] = t.index[turned(mors[tensors[at]])]
    monkeypatch.setattr(EnvelopeCategory, "tensor", broken)
    _with_tensors(monkeypatch, E, tensors)
    want = _plain_loop_findings(E)
    assert {check for check, _ in want} == {"env.tensor.functorial", "env.sym.natural"}
    rep = validate_envelope(E, assoc_full_len=2)
    got = [(f.check, f.witness) for f in rep.failures()
           if f.check in ("env.tensor.functorial", "env.sym.natural")]
    assert got == want


def test_validate_envelope_reads_the_tables_alone(monkeypatch):
    # with EnvMor-level composition and tensor out of reach, the report is
    # the same: every family reads E.composition
    bases = [(lambda: from_monoidal("z2mon", ("0", "1"), addz2, "0", 3), 3, 3),
             *[(lambda key=key: _broken_endo2(*key), 2, 2) for key in BROKEN_ENTRIES.items()]]

    def outcomes():
        return [_outcome(lambda E: validate_envelope(E, n), envelope(make(), cap))
                for make, cap, n in bases]

    want = outcomes()

    def unreachable(*args):
        raise AssertionError("validate_envelope left the tables")

    monkeypatch.setattr(EnvelopeCategory, "compose", unreachable)
    monkeypatch.setattr(EnvelopeCategory, "tensor", unreachable)
    assert outcomes() == want


def _plant_tensor(monkeypatch, E, f, g):
    """E reading its tensor table with the entry f x g swapped for the next
    morphism of the same (dom, cod)."""
    fg = E.tensor(E.morphisms[f], E.morphisms[g])
    other = next(i for i, m in enumerate(E.morphisms)
                 if (m.dom, m.cod) == (fg.dom, fg.cod) and m != fg)
    t = E.composition
    tensors = t.tensors.copy()
    tensors[t.trow[f] + t.tcol[g]] = other
    _with_tensors(monkeypatch, E, tensors)


def test_a_wrong_tensor_entry_is_named_by_each_tensor_family(monkeypatch):
    # terminal at cap 3 has one object, x; each family must name the
    # instance that reads the planted entry
    E = envelope(terminal_multicat(3), 3)
    at, x = E.composition.index, ("x",)
    e, ix, sx = at[E.identity(())], at[E.identity(x)], at[E.symmetry(x, x)]
    cases = [(e, sx, "env.tensor.unit", (sx,)),
             (ix, ix, "env.tensor.assoc", (ix, ix, ix)),
             (sx, ix, "env.sym.hexagon", (x, x, x))]
    for f, g, family, witness in cases:
        with monkeypatch.context() as mp:
            _plant_tensor(mp, E, f, g)
            rep = validate_envelope(E)
        assert witness in [w.witness for w in rep.failures() if w.check == family], family


def test_envelope_symmetry_involution(z2mon):
    E = envelope(z2mon, 3)
    s = E.symmetry(("0",), ("1",))
    s2 = E.symmetry(("1",), ("0",))
    assert E.compose(s2, s) == E.identity(("0", "1"))


def test_pronormal_identity(endo2):
    I = MultiFunctorData("1", endo2, endo2, {"x": "x"}, {m: m for m in endo2.sig})
    assert pronormal_check(I).ok


def test_pronormal_counterexample():
    # collapsing the two nullary morphisms of endo({0,1}) into endo({0})
    V = endo_multicat("endo2", ("0", "1"), 1)
    W = endo_multicat("endo1", ("0",), 1)

    def collapse(m):
        n = m[1]
        return ("f", n, tuple(["0"] * (1 ** n)))

    T = MultiFunctorData("collapse", V, W, {"x": "x"},
                         {m: collapse(m) for m in V.sig})
    assert check_multifunctor(T).ok
    rep = pronormal_check(T)
    assert not rep.ok
    assert any(f.check == "pronormal.injective" for f in rep.failures())


def test_identity_adjunction(endo2):
    assert adjunction_check(identity_adjunction(endo2)).ok


def test_conjugation_is_multifunctor(endo2):
    tau = {"0": "1", "1": "0"}
    C = conjugation_multifunctor(endo2, ("0", "1"), tau)
    assert check_multifunctor(C).ok
    assert pronormal_check(C).ok


def test_hypothesis_check_synthesises_adjunction(endo2):
    tau = {"0": "1", "1": "0"}
    T = conjugation_multifunctor(endo2, ("0", "1"), tau)
    rep, data = hypothesis_check(T, {"x": "x"}, {"x": endo2.ident("x")})
    assert rep.ok, rep.render()
    rep2 = adjunction_check(data)
    assert rep2.ok, rep2.render()


def test_hypothesis_check_rejects_bad_unit(endo2):
    # a non-invertible unit candidate breaks the bijection
    T = MultiFunctorData("1", endo2, endo2, {"x": "x"}, {m: m for m in endo2.sig})
    const0 = ("f", 1, ("0", "0"))
    rep, data = hypothesis_check(T, {"x": "x"}, {"x": const0})
    assert not rep.ok


def test_counit_characterisation(endo2):
    # the counit is the unique morphism with T(eps) . eta_T = 1
    data = identity_adjunction(endo2)
    V = endo2
    for X in V.objects:
        eps = data.counit.components[X]
        assert V.gamma(data.T.mm(eps), (data.unit.components[data.T.obj(X)],)) \
            == V.ident(data.T.obj(X))


def test_strictification_adjunction_small(tables):
    sub = {k: tables[k] for k in ("nonstrict", "sigma2")}
    rep = strictification_adjunction_report(sub, bound=2)
    assert rep.ok, rep.render()
    assert rep.params["unit_naturality_instances"] > 0
    assert rep.params["S_functoriality_instances"] > 0


def _mutate_eta_cell(F, A):
    # eta sends the identity cell ce of nonstrict to the unary cell over t
    c = F.cell_map["ce"]
    F.cell_map["ce"] = StCell(c.dom, c.cod, "t")


def _mutate_eta_phi2(F, A):
    # eta's comparison cell at (e, e) carries t instead of the identity ce
    c = F.phi2[("e", "e")]
    F.phi2[("e", "e")] = StCell(c.dom, c.cod, "t")


def _mutate_eta_objects(F, A):
    # eta sends both objects of quintet to the first
    F.obj_map = {a: A.objects[0] for a in A.objects}


def _mutate_counit_objects(E, B):
    # the counit of quintet swaps its two objects
    a, b = B.objects
    E.F.obj_map = {a: b, b: a}


# each mutant is planted in eta or the counit of one member; the named
# family must report it
ADJUNCTION_MUTANTS = [
    ("sadj.unit.natural", "eta", "nonstrict", _mutate_eta_cell, ("nonstrict", "sigma2")),
    ("sadj.S.functorial", "eta", "nonstrict", _mutate_eta_phi2, ("nonstrict", "sigmaM")),
    ("sadj.counit.natural", "eta", "quintet", _mutate_eta_objects, ("quintet", "sigma2")),
    ("sadj.pronormal.identity", "eta", "quintet", _mutate_eta_objects, ("quintet",)),
    ("sadj.pronormal.identity", "counit", "quintet", _mutate_counit_objects, ("quintet",)),
]


@pytest.mark.parametrize("family,target,member,mutate,members", ADJUNCTION_MUTANTS,
                         ids=[f"{m[0]}-{m[1]}" for m in ADJUNCTION_MUTANTS])
def test_strictification_adjunction_names_a_planted_mutant(
        tables, monkeypatch, family, target, member, mutate, members):
    real = getattr(strictify, target)

    def planted(X, *rest):
        out = real(X, *rest)
        if X.name == member:
            mutate(out, X)
        return out

    monkeypatch.setattr(strictify, target, planted)
    rep = strictification_adjunction_report({k: tables[k] for k in members}, bound=2)
    assert family in {f.check for f in rep.failures()}, rep.render()


def test_strictification_adjunction_names_a_composite_that_is_not_enumerated(
        tables, monkeypatch):
    # g f between corpus members gets one phi2 value that is not a cell, so
    # no enumerated functor has its key and st(g f) has no extension
    real = homs.compose_functors

    def planted(G, F):
        out = real(G, F)
        tabled = (F.dom, F.cod, G.dom, G.cod)
        if out.phi2 and all(isinstance(X, TableDouble) for X in tabled):
            out.phi2[next(iter(out.phi2))] = "not-a-cell"
        return out

    monkeypatch.setattr(homs, "compose_functors", planted)
    rep = strictification_adjunction_report(
        {k: tables[k] for k in ("nonstrict", "sigmaM")}, bound=2)
    assert "sadj.S.functorial" in {f.check for f in rep.failures()}, rep.render()


# terminal at word cap 5: its morphisms and instance counts; structural
# associativity and tensor functoriality as recorded before the strata ran
# in batches
CAP5_COUNTS = {"morphisms": 5_705,
               "assoc_instances_small": 50_018,
               "assoc_instances_structural": 92_018_316,
               "tensor_functoriality_instances": 54_530_401,
               "symmetry_naturality_instances": 18_645}
SCALE = "STRAWCAT_SCALE"


@pytest.mark.skipif(not os.environ.get(SCALE), reason=f"a scale point; set {SCALE}=1 to run it")
def test_envelope_of_terminal_at_word_cap_5_within_30_s_and_200_mib():
    # a fresh process, so that its ru_maxrss is the peak of this run alone
    script = ("import json, resource\n"
              "from strawcat.multicat import envelope, terminal_multicat, validate_envelope\n"
              "rep = validate_envelope(envelope(terminal_multicat(5), 5))\n"
              "print(json.dumps({'ok': rep.ok, 'params': rep.params,\n"
              "                  'kb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))\n")
    src = str(pathlib.Path(strawcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=600)
    seconds = time.perf_counter() - t0
    run = json.loads(out.stdout.splitlines()[-1])
    assert run["ok"]
    assert {k: run["params"][k] for k in CAP5_COUNTS} == CAP5_COUNTS
    assert seconds <= 30, seconds
    assert run["kb"] <= 200 << 10, run["kb"]        # KiB: 200 MiB


# z2 at arity cap 5: every validate_multicat family's instance count, as the
# plain loops counted them (the two *.total families as counted here)
Z2_CAP5_COUNTS = {"mc.sig.cap": 63, "mc.sig.listed": 63, "mc.homs.sig": 63, "mc.ident.sig": 2,
                  "mc.gamma.sig": 9_472, "mc.gamma.total": 9_472, "mc.act.total": 4_283,
                  "mc.act.sig": 4_283, "mc.unit.left": 63, "mc.unit.right": 62,
                  "mc.act.id": 63, "mc.act.comp": 470_323,
                  "mc.assoc": 1_562_111, "mc.equivariance.outer": 728_667,
                  "mc.equivariance.inner": 157_681}


@pytest.mark.skipif(not os.environ.get(SCALE), reason=f"a scale point; set {SCALE}=1 to run it")
def test_validate_multicat_of_z2_at_arity_cap_5_within_5_s():
    # a fresh process, so that its ru_maxrss is the peak of this run alone
    script = ("import json, resource\n"
              "from strawcat.multicat import from_monoidal, validate_multicat\n"
              "V = from_monoidal('z2', ('0', '1'),\n"
              "                  lambda x, y: str((int(x) + int(y)) % 2), '0', 5)\n"
              "rep = validate_multicat(V)\n"
              "print(json.dumps({'ok': rep.ok, 'counts': rep.counts,\n"
              "                  'kb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))\n")
    src = str(pathlib.Path(strawcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=600)
    seconds = time.perf_counter() - t0
    run = json.loads(out.stdout.splitlines()[-1])
    assert run["ok"]
    assert run["counts"] == Z2_CAP5_COUNTS
    assert sum(Z2_CAP5_COUNTS.values()) == 2_946_671
    assert seconds <= 5, seconds
