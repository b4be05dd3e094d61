"""Tests of the benchmark's own independent checkers (oracles.py).

    python3 -m pytest perfbench
"""

import collections
import pathlib
import random
import sys

import pytest

import oracles

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from strawcat import validate  # noqa: E402
from strawcat.cli import elaborate, parse  # noqa: E402

CORPUS = sorted(p.stem for p in (ROOT / "corpus").glob("*.pdc"))


def corpus_rows(name):
    return oracles.read_rows((ROOT / "corpus" / f"{name}.pdc").read_text(), name)


def test_monoid_check_accepts_the_benchmark_monoids():
    for M in (oracles.cyclic(5), oracles.truncated(6), oracles.cyclic_product(2, 3)):
        assert M.check() == [], M.name


def test_monoid_check_rejects_a_non_associative_table():
    # x.y = x - y mod 3 has 0 as a right unit only and is not associative
    M = oracles.Monoid("sub3", range(3), 0, lambda g, f: (g - f) % 3)
    bad = M.check()
    assert ("unit", 1) in bad
    assert any(v[0] == "assoc" for v in bad)
    # one changed product breaks associativity of an otherwise cyclic group
    table = {(g, f): (g + f) % 4 for g in range(4) for f in range(4)}
    table[(2, 3)] = 0
    M = oracles.Monoid("Z4bad", range(4), 0, lambda g, f: table[(g, f)])
    assert [v for v in M.check() if v[0] == "assoc"]


def test_envelope_counter_matches_hand_counts():
    one = lambda inputs, out: 1                          # noqa: E731
    # terminal at cap 4: sum over m, n <= 4 of n^m index maps
    assert oracles.envelope_morphisms(range(1), one, 4) == 499
    assert sum(n ** m for m in range(5) for n in range(5)) == 499
    z2 = oracles.monoid_hom_size(lambda x, y: (x + y) % 2, 0)
    assert oracles.envelope_morphisms(range(2), z2, 4) == 6_609


def test_path_counts_match_brute_force_enumeration():
    for name in CORPUS:
        rows = corpus_rows(name)
        src = {r[0]: r[1] for r in rows.sections["HMORS"]}
        tgt = {r[0]: r[2] for r in rows.sections["HMORS"]}
        paths = [(a, ()) for (a,) in rows.sections["OBJECTS"]]
        frontier = list(paths)
        for _ in range(3):
            frontier = [(a, p + (f,)) for a, p in frontier for f in src
                        if src[f] == (tgt[p[-1]] if p else a)]
            paths += frontier
        end = {(a, p): tgt[p[-1]] if p else a for a, p in paths}
        pairs = [(p, q) for p in paths for q in paths
                 if end[p] == q[0] and len(p[1]) + len(q[1]) <= 3]
        triples = sum(1 for p, q in pairs for r in paths
                      if end[q] == r[0] and len(p[1]) + len(q[1]) + len(r[1]) <= 3)
        got = oracles.path_counts(rows, 3)
        assert (got["st.hmor.unit"], got["st.vid.mult"], got["st.hmor.assoc"]) == \
            (len(paths), len(pairs), triples), name


@pytest.mark.parametrize("name", CORPUS + ["Z6"])
def test_renaming_is_a_bijection_that_keeps_the_table_valid(name):
    rows = (oracles.monoid_rows(oracles.cyclic(6)) if name == "Z6"
            else corpus_rows(name))
    for seed in (1, 2):
        new = oracles.renamed(rows, random.Random(seed))
        to = oracles.renaming(rows.declared(), random.Random(seed))
        assert sorted(to) == sorted(rows.declared())
        assert len(set(to.values())) == len(to)
        assert len({len(x) for x in to.values()}) == 1
        for s in oracles.SECTIONS:
            keep = 1 if s == "UNITORS" else 0
            mapped = [r[:keep] + tuple(to[x] for x in r[keep:]) for r in rows.sections[s]]
            assert collections.Counter(mapped) == collections.Counter(new.sections[s]), s
        assert len(new.text()) == len(oracles.renamed(rows, random.Random(seed + 7)).text())
        A = elaborate(parse(new.text(), name))
        assert validate(A).ok
        assert len(A.hmors) == len(rows.sections["HMORS"])
        assert len(A.cells) == len(rows.sections["CELLS"])
        assert oracles.path_counts(new, 3) == oracles.path_counts(rows, 3)


@pytest.mark.parametrize("kind", sorted(oracles.MUTATION_KINDS))
def test_a_mutation_changes_one_row_and_is_rejected(kind):
    rows = oracles.monoid_rows(oracles.cyclic(5))
    label, mutant = oracles.mutation(rows, kind, random.Random(3))
    changed = [(s, a, b) for s in oracles.SECTIONS
               for a, b in zip(rows.sections[s], mutant.sections[s]) if a != b]
    assert len(changed) == 1 and label.startswith(kind)
    rep = validate(elaborate(parse(mutant.text(), "Z5"), allow_invalid=True))
    assert rep.failures()
    assert not [f for f in rep.failures() if f.check.startswith("structure.")]
