"""Inputs and the independent computations the benchmark checks against.

Nothing here imports strawcat.  The `.pdc` reader below reads only what the
benchmark needs (rows per section), the monoids and their presentations are
written out directly, and every expected count is computed from these rows
or from the monoid, never from the program's own tables.
"""

from __future__ import annotations

import itertools
import math
import random
import re

SECTIONS = ("OBJECTS", "VMORS", "HMORS", "CELLS", "VCOMP", "HCOMP",
            "VID", "HID", "ASSOC", "UNITORS")
DECLARING = ("OBJECTS", "VMORS", "HMORS", "CELLS")
NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
CELL_ROW = re.compile(r"(\w+)\s*:\s*(\w+)\s*=>\s*(\w+)\s*\[\s*(\w+)\s*,\s*(\w+)\s*\]$")


# ---------------------------------------------------------------------------
# presentations as rows
# ---------------------------------------------------------------------------

class Rows:
    """A presentation as name-token rows per section.

    OBJECTS rows are (name,); VMORS/HMORS rows (name, src, tgt) with
    src == tgt for an identity, whose object is kept in `identity_of`;
    CELLS rows (name, top, bottom, left, right); VCOMP/HCOMP rows
    (x, y, result); VID/HID rows (mor, cell); ASSOC rows (f, g, h, cell,
    inverse); UNITORS rows (side, hmor, cell, inverse).
    """

    def __init__(self, name: str, bicategory: bool = False):
        self.name = name
        self.bicategory = bicategory
        self.sections = {s: [] for s in SECTIONS}
        self.identity_of = {}       # identity vmor/hmor name -> object

    def declared(self) -> list:
        return [row[0] for s in DECLARING for row in self.sections[s]]

    def text(self) -> str:
        out = [f"# {self.name}"]
        if self.bicategory:
            out.append("BICATEGORY")
        for s in SECTIONS:
            out.append(s)
            for row in self.sections[s]:
                out.append("  " + self._row_text(s, row))
        return "\n".join(out) + "\n"

    def _row_text(self, s, row):
        if s == "OBJECTS":
            return row[0]
        if s in ("VMORS", "HMORS"):
            if row[0] in self.identity_of:
                return f"{row[0]} : id {self.identity_of[row[0]]}"
            return f"{row[0]} : {row[1]} -> {row[2]}"
        if s == "CELLS":
            return f"{row[0]} : {row[1]} => {row[2]} [{row[3]}, {row[4]}]"
        if s in ("VCOMP", "HCOMP"):
            op = "." if s == "VCOMP" else "*"
            return f"{row[0]} {op} {row[1]} = {row[2]}"
        if s in ("VID", "HID"):
            return f"{row[0]} = {row[1]}"
        if s == "ASSOC":
            return f"{row[0]} {row[1]} {row[2]} = {row[3]} {row[4]}"
        return f"{row[0]} {row[1]} = {row[2]} {row[3]}"


def read_rows(text: str, name: str) -> Rows:
    """Read a well-formed presentation; raises ValueError otherwise."""
    rows = Rows(name)
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "BICATEGORY":
            rows.bicategory = True
            continue
        if line in SECTIONS:
            section = line
            continue
        if section == "CELLS":
            m = CELL_ROW.match(line)
            if not m:
                raise ValueError(f"{name}: bad cell row {line!r}")
            rows.sections[section].append(m.groups())
            continue
        toks = [t for t in line.split() if NAME.fullmatch(t)]
        if section in ("VMORS", "HMORS") and len(toks) == 3 and toks[1] == "id":
            rows.identity_of[toks[0]] = toks[2]
            toks = [toks[0], toks[2], toks[2]]
        rows.sections[section].append(tuple(toks))
    return rows


def renaming(names: list, rng: random.Random) -> dict:
    """A bijection from `names` onto names of one fixed width, drawn from
    `rng`."""
    width = len(str(len(names)))
    perm = list(range(len(names)))
    rng.shuffle(perm)
    return {old: f"x{perm[i]:0{width}d}" for i, old in enumerate(names)}


def renamed(rows: Rows, rng: random.Random) -> Rows:
    """An isomorphic copy: every declared name goes through `renaming`, and
    the rows of every section are shuffled, both drawn from `rng`.  The
    text keeps its length for every seed."""
    to = renaming(rows.declared(), rng)
    out = Rows(rows.name, rows.bicategory)
    for s in SECTIONS:
        keep = 1 if s == "UNITORS" else 0       # the side marker l|r
        new = [row[:keep] + tuple(to[t] for t in row[keep:])
               for row in rows.sections[s]]
        rng.shuffle(new)
        out.sections[s] = new
    out.identity_of = {to[k]: to[v] for k, v in rows.identity_of.items()}
    return out


# ---------------------------------------------------------------------------
# path counts of st A
# ---------------------------------------------------------------------------

def path_counts(rows: Rows, bound: int) -> dict:
    """Expected path-indexed instance counts of the strictness oracle at
    `bound`, from the hom-source and hom-target maps alone.

    A composable path of length n is a walk of n horizontal morphisms; the
    number of ordered ways to cut a walk of length n into k consecutive
    (possibly empty) pieces is C(n + k - 1, k - 1).
    """
    objects = [r[0] for r in rows.sections["OBJECTS"]]
    vmors = {r[0] for r in rows.sections["VMORS"]}
    walks = {a: 1 for a in objects}          # walks of the current length ending at a
    per_len = []
    for _ in range(bound + 1):
        per_len.append(sum(walks.values()))
        nxt = dict.fromkeys(objects, 0)
        for (_f, src, tgt) in rows.sections["HMORS"]:
            nxt[tgt] += walks[src]
        walks = nxt
    paths = sum(per_len)
    pairs = sum(math.comb(n + 1, 1) * w for n, w in enumerate(per_len))
    triples = sum(math.comb(n + 2, 2) * w for n, w in enumerate(per_len))
    return {
        "st.hmor.unit": paths,
        "st.hmor.assoc": triples,
        "st.vid.mult": pairs,
        "st.constraint.identity": triples + paths,
        "st.hid.videntity": len(objects),
        "st.hid.functorial": sum(1 for r in rows.sections["VCOMP"] if r[0] in vmors),
    }


# ---------------------------------------------------------------------------
# finite monoids and their one-object 2-categories
# ---------------------------------------------------------------------------

class Monoid:
    def __init__(self, name, elems, unit, mult):
        self.name = name
        self.elems = list(elems)
        self.unit = unit
        self.mult = mult            # mult(g, f): g after f

    def check(self) -> list:
        """Violations of associativity and the unit laws, by the n^3 sweep."""
        bad = []
        for x in self.elems:
            if self.mult(self.unit, x) != x or self.mult(x, self.unit) != x:
                bad.append(("unit", x))
        for x, y, z in itertools.product(self.elems, repeat=3):
            if self.mult(self.mult(x, y), z) != self.mult(x, self.mult(y, z)):
                bad.append(("assoc", x, y, z))
        return bad


def cyclic(n: int) -> Monoid:
    return Monoid(f"Z{n}", range(n), 0, lambda g, f: (g + f) % n)


def truncated(n: int) -> Monoid:
    """{0..n-1} under addition capped at n-1."""
    return Monoid(f"T{n}", range(n), 0, lambda g, f: min(g + f, n - 1))


def cyclic_product(*ns: int) -> Monoid:
    return Monoid("Z" + "xZ".join(map(str, ns)),
                  itertools.product(*(range(n) for n in ns)),
                  (0,) * len(ns),
                  lambda g, f: tuple((a + b) % n for a, b, n in zip(g, f, ns)))


def monoid_rows(M: Monoid) -> Rows:
    """The strict one-object 2-category on M with identity cells only: one
    object, one vertical morphism, a horizontal morphism per element and
    its identity cell; every constraint is the identity cell of its
    composite."""
    idx = {x: i for i, x in enumerate(M.elems)}
    h = {x: f"h{idx[x]}" for x in M.elems}
    c = {x: f"c{idx[x]}" for x in M.elems}
    rows = Rows(M.name, bicategory=True)
    S = rows.sections
    S["OBJECTS"] = [("o",)]
    S["VMORS"] = [("v", "o", "o")]
    rows.identity_of["v"] = "o"
    rows.identity_of[h[M.unit]] = "o"
    S["HMORS"] = [(h[x], "o", "o") for x in M.elems]
    S["CELLS"] = [(c[x], h[x], h[x], "v", "v") for x in M.elems]
    S["VCOMP"] = [("v", "v", "v")] + [(c[x], c[x], c[x]) for x in M.elems]
    pairs = list(itertools.product(M.elems, repeat=2))
    S["HCOMP"] = ([(h[g], h[f], h[M.mult(g, f)]) for g, f in pairs]
                  + [(c[g], c[f], c[M.mult(g, f)]) for g, f in pairs])
    S["VID"] = [(h[x], c[x]) for x in M.elems]
    S["HID"] = [("v", c[M.unit])]
    S["ASSOC"] = [(h[f], h[g], h[k], c[M.mult(M.mult(k, g), f)],
                   c[M.mult(M.mult(k, g), f)])
                  for f, g, k in itertools.product(M.elems, repeat=3)]
    S["UNITORS"] = ([("l", h[x], c[x], c[x]) for x in M.elems]
                    + [("r", h[x], c[x], c[x]) for x in M.elems])
    return rows


# Single-row mutations of a monoid presentation: the section, which rows of
# it, and the slots that change.  A changed result is always another
# declared name of the same kind.
MUTATION_KINDS = {
    "hcomp.hmor": ("HCOMP", lambda n: range(n * n), (2,)),
    "hcomp.cell": ("HCOMP", lambda n: range(n * n, 2 * n * n), (2,)),
    "assoc": ("ASSOC", lambda n: range(n ** 3), (3, 4)),
    "unitor": ("UNITORS", lambda n: range(2 * n), (2, 3)),
}


def mutation(rows: Rows, kind: str, rng: random.Random):
    """(label, mutant) of a presentation from `monoid_rows`: one row of the
    kind drawn by `rng`, its result changed to another name drawn by it."""
    section, span, slots = MUTATION_KINDS[kind]
    n = len(rows.sections["HMORS"])
    i = rng.choice(span(n))
    row = list(rows.sections[section][i])
    pool = [r[0] for r in rows.sections["HMORS" if kind == "hcomp.hmor" else "CELLS"]]
    new = rng.choice([x for x in pool if x != row[slots[0]]])
    for s in slots:
        row[s] = new
    mutant = Rows(rows.name, rows.bicategory)
    mutant.identity_of = dict(rows.identity_of)
    mutant.sections = {s: list(v) for s, v in rows.sections.items()}
    mutant.sections[section][i] = tuple(row)
    return f"{kind}{i}", mutant


# ---------------------------------------------------------------------------
# envelope morphism counts
# ---------------------------------------------------------------------------

def envelope_morphisms(objects, hom_size, cap: int) -> int:
    """Morphisms of the symmetric monoidal envelope with words of length
    <= cap: a morphism (a_1..a_m) -> (b_1..b_n) is an index map
    i: [m] -> [n] with one multimorphism (a_i : i(k) = j) -> b_j for each j.
    `hom_size(inputs, output)` is the size of one multihom."""
    words = [w for m in range(cap + 1) for w in itertools.product(objects, repeat=m)]
    total = 0
    for dom in words:
        for cod in words:
            n = len(cod)
            for idx in itertools.product(range(n), repeat=len(dom)):
                prod = 1
                for j, b in enumerate(cod):
                    fiber = tuple(a for a, i in zip(dom, idx) if i == j)
                    prod *= hom_size(fiber, b)
                    if not prod:
                        break
                total += prod
    return total


def monoid_hom_size(add, zero):
    """Multihom sizes of the represented multicategory of a commutative
    monoid: one morphism exactly when the inputs sum to the output."""
    def size(inputs, out):
        y = zero
        for x in inputs:
            y = add(y, x)
        return 1 if y == out else 0
    return size
