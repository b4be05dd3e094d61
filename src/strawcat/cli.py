"""Presentation files, machine-readable reports, and the command surface.

A presentation (.pdc) is a newline-separated list of declarations grouped
under section headers; names match [A-Za-z][A-Za-z0-9_]* and must be unique
across namespaces; comments start with '#'.  Reports serialise as a single
JSON document with a fixed field order, so they are usable as golden files;
the exit status is 0 exactly when every check passed and nothing was
truncated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field
from functools import partial

from .core import Frame, TableDouble, is_strict, validate
from .homs import Truncated
from .report import Report, StructuralError

SCHEMA_VERSION = 1
SECTIONS = ("OBJECTS", "VMORS", "HMORS", "CELLS", "VCOMP", "HCOMP",
            "VID", "HID", "ASSOC", "UNITORS")
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


class ParseError(Exception):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


class ElaborationError(Exception):
    pass


@dataclass
class Presentation:
    name: str = "anonymous"
    bicategory: bool = False
    objects: list = field(default_factory=list)          # names
    vmors: list = field(default_factory=list)            # (name, src|None, tgt|None, id_of)
    hmors: list = field(default_factory=list)
    cells: list = field(default_factory=list)            # (name, top, bottom, left, right)
    vcomp: list = field(default_factory=list)            # (second, first, result)
    hcomp: list = field(default_factory=list)
    vid: list = field(default_factory=list)              # (hmor, cell)
    hid: list = field(default_factory=list)              # (vmor, cell)
    assoc: list = field(default_factory=list)            # (f, g, h, cell, inv)
    unitors: list = field(default_factory=list)          # (side, hmor, cell, inv)
    lines: dict = field(default_factory=dict)            # name -> line number


def _tokens(line: str):
    # A name recurs in thousands of rows (ASSOC has n**3 of them); one
    # interned string per name keeps a table's size in its row count alone.
    return [sys.intern(t) for t in line.split()]


def parse(text: str, name: str = "anonymous") -> Presentation:
    p = Presentation(name=name)
    section = None
    declared = set()
    well_formed = set()         # each distinct token is matched once

    def check_name(tok, lineno, col=1, declare=False):
        if tok not in well_formed:
            if not NAME_RE.match(tok):
                raise ParseError(lineno, col, f"bad name {tok!r}")
            well_formed.add(tok)
        if declare:
            if tok in declared:
                raise ParseError(lineno, col, f"duplicate name {tok!r}")
            declared.add(tok)
            p.lines[tok] = lineno

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "BICATEGORY":
            p.bicategory = True
            continue
        if line in SECTIONS:
            section = line
            continue
        if section is None:
            raise ParseError(lineno, 1, f"declaration before any section: {line!r}")
        toks = _tokens(line)
        if section == "OBJECTS":
            if len(toks) != 1:
                raise ParseError(lineno, 1, "object rows hold a single name")
            check_name(toks[0], lineno, declare=True)
            p.objects.append(toks[0])
        elif section in ("VMORS", "HMORS"):
            # name : src -> tgt   |   name : id obj
            if len(toks) == 4 and toks[1] == ":" and toks[2] == "id":
                check_name(toks[0], lineno, declare=True)
                check_name(toks[3], lineno)
                entry = (toks[0], None, None, toks[3])
            elif len(toks) == 5 and toks[1] == ":" and toks[3] == "->":
                check_name(toks[0], lineno, declare=True)
                check_name(toks[2], lineno)
                check_name(toks[4], lineno)
                entry = (toks[0], toks[2], toks[4], None)
            else:
                raise ParseError(lineno, 1,
                                 "expected 'name : a -> b' or 'name : id a'")
            (p.vmors if section == "VMORS" else p.hmors).append(entry)
        elif section == "CELLS":
            # name : top => bottom [ left , right ]
            m = re.match(r"(\w+)\s*:\s*(\w+)\s*=>\s*(\w+)\s*\[\s*(\w+)\s*,\s*(\w+)\s*\]$",
                         line)
            if not m:
                raise ParseError(lineno, 1,
                                 "expected 'name : top => bottom [left, right]'")
            check_name(m.group(1), lineno, declare=True)
            for g in m.groups()[1:]:
                check_name(g, lineno)
            p.cells.append(tuple(map(sys.intern, m.groups())))
        elif section in ("VCOMP", "HCOMP"):
            op = "." if section == "VCOMP" else "*"
            if len(toks) != 5 or toks[1] != op or toks[3] != "=":
                raise ParseError(lineno, 1, f"expected 'x {op} y = z'")
            for t in (toks[0], toks[2], toks[4]):
                check_name(t, lineno)
            (p.vcomp if section == "VCOMP" else p.hcomp).append(
                (toks[0], toks[2], toks[4]))
        elif section in ("VID", "HID"):
            if len(toks) != 3 or toks[1] != "=":
                raise ParseError(lineno, 1, "expected 'mor = cell'")
            check_name(toks[0], lineno)
            check_name(toks[2], lineno)
            (p.vid if section == "VID" else p.hid).append((toks[0], toks[2]))
        elif section == "ASSOC":
            if len(toks) != 6 or toks[3] != "=":
                raise ParseError(lineno, 1, "expected 'f g h = cell inverse'")
            for t in toks[:3] + toks[4:]:
                check_name(t, lineno)
            p.assoc.append((toks[0], toks[1], toks[2], toks[4], toks[5]))
        elif section == "UNITORS":
            if len(toks) != 5 or toks[0] not in ("l", "r") or toks[2] != "=":
                raise ParseError(lineno, 1, "expected 'l|r hmor = cell inverse'")
            for t in (toks[1], toks[3], toks[4]):
                check_name(t, lineno)
            p.unitors.append((toks[0], toks[1], toks[3], toks[4]))
    return p


def print_presentation(p: Presentation) -> str:
    out = [f"# {p.name}"]
    if p.bicategory:
        out.append("BICATEGORY")
    out.append("OBJECTS")
    out.extend(f"  {a}" for a in p.objects)
    for header, rows in (("VMORS", p.vmors), ("HMORS", p.hmors)):
        out.append(header)
        for (name, src, tgt, idof) in rows:
            if idof is not None:
                out.append(f"  {name} : id {idof}")
            else:
                out.append(f"  {name} : {src} -> {tgt}")
    out.append("CELLS")
    for (name, top, bottom, left, right) in p.cells:
        out.append(f"  {name} : {top} => {bottom} [{left}, {right}]")
    out.append("VCOMP")
    out.extend(f"  {a} . {b} = {c}" for (a, b, c) in p.vcomp)
    out.append("HCOMP")
    out.extend(f"  {a} * {b} = {c}" for (a, b, c) in p.hcomp)
    out.append("VID")
    out.extend(f"  {a} = {b}" for (a, b) in p.vid)
    out.append("HID")
    out.extend(f"  {a} = {b}" for (a, b) in p.hid)
    out.append("ASSOC")
    out.extend(f"  {f} {g} {h} = {c} {d}" for (f, g, h, c, d) in p.assoc)
    out.append("UNITORS")
    out.extend(f"  {s} {f} = {c} {d}" for (s, f, c, d) in p.unitors)
    return "\n".join(out) + "\n"


def elaborate(p: Presentation, allow_invalid: bool = False) -> TableDouble:
    objs = set(p.objects)

    def need_obj(x, ctx):
        if x not in objs:
            raise ElaborationError(f"{ctx}: undeclared object {x!r}"
                                   + _at(p, x))

    vmor_src, vmor_tgt, v_identity = {}, {}, {}
    for (name, src, tgt, idof) in p.vmors:
        if idof is not None:
            need_obj(idof, f"vmor {name}")
            vmor_src[name] = vmor_tgt[name] = idof
            if idof in v_identity:
                raise ElaborationError(f"two identity vmors for object {idof!r}")
            v_identity[idof] = name
        else:
            need_obj(src, f"vmor {name}")
            need_obj(tgt, f"vmor {name}")
            vmor_src[name], vmor_tgt[name] = src, tgt
    hmor_src, hmor_tgt, h_identity = {}, {}, {}
    for (name, src, tgt, idof) in p.hmors:
        if idof is not None:
            need_obj(idof, f"hmor {name}")
            hmor_src[name] = hmor_tgt[name] = idof
            if idof in h_identity:
                raise ElaborationError(f"two identity hmors for object {idof!r}")
            h_identity[idof] = name
        else:
            need_obj(src, f"hmor {name}")
            need_obj(tgt, f"hmor {name}")
            hmor_src[name], hmor_tgt[name] = src, tgt
    for a in p.objects:
        if a not in v_identity:
            raise ElaborationError(f"object {a!r} has no identity vmor")
        if a not in h_identity:
            raise ElaborationError(f"object {a!r} has no identity hmor")
    vmors = tuple(n for (n, *_rest) in p.vmors)
    hmors = tuple(n for (n, *_rest) in p.hmors)
    cellset = {c[0] for c in p.cells}

    def need(kind, x, pool, ctx):
        if x not in pool:
            raise ElaborationError(f"{ctx}: undeclared {kind} {x!r}" + _at(p, x))

    cell_frames = {}
    for (name, top, bottom, left, right) in p.cells:
        need("hmor", top, hmor_src, f"cell {name}")
        need("hmor", bottom, hmor_src, f"cell {name}")
        need("vmor", left, vmor_src, f"cell {name}")
        need("vmor", right, vmor_src, f"cell {name}")
        cell_frames[name] = Frame(top, bottom, left, right)
    vcomp_v, vcomp_c = {}, {}
    for (a, b, c) in p.vcomp:
        if a in vmor_src and b in vmor_src:
            need("vmor", c, vmor_src, "VCOMP")
            vcomp_v[(a, b)] = c
        elif a in cellset and b in cellset:
            need("cell", c, cellset, "VCOMP")
            vcomp_c[(a, b)] = c
        else:
            raise ElaborationError(f"VCOMP row mixes namespaces: {a} . {b} = {c}")
    hcomp_h, hcomp_c = {}, {}
    for (a, b, c) in p.hcomp:
        if a in hmor_src and b in hmor_src:
            need("hmor", c, hmor_src, "HCOMP")
            hcomp_h[(a, b)] = c
        elif a in cellset and b in cellset:
            need("cell", c, cellset, "HCOMP")
            hcomp_c[(a, b)] = c
        else:
            raise ElaborationError(f"HCOMP row mixes namespaces: {a} * {b} = {c}")
    vid_cell = {}
    for (f, c) in p.vid:
        need("hmor", f, hmor_src, "VID")
        need("cell", c, cellset, "VID")
        vid_cell[f] = c
    hid_cell = {}
    for (u, c) in p.hid:
        need("vmor", u, vmor_src, "HID")
        need("cell", c, cellset, "HID")
        hid_cell[u] = c
    assoc = {}
    for (f, g, h, c, d) in p.assoc:
        for x in (f, g, h):
            need("hmor", x, hmor_src, "ASSOC")
        need("cell", c, cellset, "ASSOC")
        need("cell", d, cellset, "ASSOC")
        assoc[(f, g, h)] = (c, d)
    lunit, runit = {}, {}
    for (side, f, c, d) in p.unitors:
        need("hmor", f, hmor_src, "UNITORS")
        need("cell", c, cellset, "UNITORS")
        need("cell", d, cellset, "UNITORS")
        (lunit if side == "l" else runit)[f] = (c, d)

    A = TableDouble(
        name=p.name, objects=tuple(p.objects),
        vmors=vmors, vmor_src=vmor_src, vmor_tgt=vmor_tgt,
        v_identity=v_identity, vcomp_vmor_table=vcomp_v,
        hmors=hmors, hmor_src=hmor_src, hmor_tgt=hmor_tgt,
        h_identity=h_identity, hcomp_hmor_table=hcomp_h,
        cells=tuple(c[0] for c in p.cells), cell_frames=cell_frames,
        vcomp_cell_table=vcomp_c, vid_cell=vid_cell,
        hcomp_cell_table=hcomp_c, hid_cell=hid_cell,
        assoc=assoc, lunit=lunit, runit=runit,
    )
    if p.bicategory:
        nonid = [u for u in vmors if u not in set(v_identity.values())]
        if nonid:
            raise ElaborationError(
                f"BICATEGORY flag but non-identity vmors present: {nonid}")
    if not allow_invalid:
        rep = validate(A)
        if not rep.ok:
            msgs = [f.render() for f in rep.failures()[:10]]
            raise ElaborationError("invalid table:\n  " + "\n  ".join(msgs))
    return A


def _at(p: Presentation, name):
    ln = p.lines.get(name)
    return f" (near line {ln})" if ln else ""


def presentation_of(A: TableDouble) -> Presentation:
    """Canonical presentation of a table; print-parse round trips exactly.
    Refuses a table with an id that is not a name."""
    for x in (*A.objects, *A.vmors, *A.hmors, *A.cells):
        if not NAME_RE.match(str(x)):
            raise StructuralError(f"{A.name}: id {x!r} is not a name, so it cannot be printed")
    p = Presentation(name=str(A.name))
    from .core import is_bicategory
    p.bicategory = is_bicategory(A)
    p.objects = [str(a) for a in A.objects]
    ids_v = {u: a for a, u in A.v_identity.items()}
    ids_h = {f: a for a, f in A.h_identity.items()}
    for u in A.vmors:
        if u in ids_v:
            p.vmors.append((str(u), None, None, str(ids_v[u])))
        else:
            p.vmors.append((str(u), str(A.vmor_src[u]), str(A.vmor_tgt[u]), None))
    for f in A.hmors:
        if f in ids_h:
            p.hmors.append((str(f), None, None, str(ids_h[f])))
        else:
            p.hmors.append((str(f), str(A.hmor_src[f]), str(A.hmor_tgt[f]), None))
    for c in A.cells:
        fr = A.cell_frames[c]
        p.cells.append((str(c), str(fr.top), str(fr.bottom), str(fr.left), str(fr.right)))
    p.vcomp = [(str(a), str(b), str(c)) for (a, b), c in sorted(
        A.vcomp_vmor_table.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))]
    p.vcomp += [(str(a), str(b), str(c)) for (a, b), c in sorted(
        A.vcomp_cell_table.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))]
    p.hcomp = [(str(a), str(b), str(c)) for (a, b), c in sorted(
        A.hcomp_hmor_table.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))]
    p.hcomp += [(str(a), str(b), str(c)) for (a, b), c in sorted(
        A.hcomp_cell_table.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))]
    p.vid = [(str(f), str(c)) for f, c in sorted(A.vid_cell.items(), key=lambda kv: str(kv[0]))]
    p.hid = [(str(u), str(c)) for u, c in sorted(A.hid_cell.items(), key=lambda kv: str(kv[0]))]
    p.assoc = [(str(f), str(g), str(h), str(c), str(d))
               for (f, g, h), (c, d) in sorted(A.assoc.items(), key=lambda kv: tuple(map(str, kv[0])))]
    p.unitors = [("l", str(f), str(c), str(d))
                 for f, (c, d) in sorted(A.lunit.items(), key=lambda kv: str(kv[0]))]
    p.unitors += [("r", str(f), str(c), str(d))
                  for f, (c, d) in sorted(A.runit.items(), key=lambda kv: str(kv[0]))]
    return p


# ---------------------------------------------------------------------------
# report serialisation
# ---------------------------------------------------------------------------

def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def serialize_report(command: str, inputs: list, rep: Report) -> str:
    families = {}
    order = []
    for f in rep.findings:
        if f.check not in families:
            families[f.check] = {"name": f.check, "pass": True, "witnesses": []}
            order.append(f.check)
        if not f.ok:
            families[f.check]["pass"] = False
            if len(families[f.check]["witnesses"]) < 20:
                families[f.check]["witnesses"].append(
                    [str(w) for w in f.witness] + ([f.detail] if f.detail else []))
    doc = {
        "artifact": "strawcat 0.1.0",
        "schema": SCHEMA_VERSION,
        "command": command,
        "equality": "on-the-nose table identity",
        "inputs": [{"path": pth, "sha256": _digest(pth)} for pth in inputs],
        "params": {k: rep.params[k] for k in sorted(rep.params, key=str)},
        "checks": [families[k] for k in sorted(order)],
        "truncated": bool(rep.truncated),
        "pass": bool(rep.ok),
    }
    return json.dumps(doc, indent=2, default=str) + "\n"


def _inputs(args) -> list:
    """The command's input files, in the order of its arguments."""
    return ([getattr(args, k) for k in ("file", "file_a", "file_b", "file_c") if hasattr(args, k)]
            + getattr(args, "files", []))


def _emit(args, rep: Report) -> int:
    text = serialize_report(args.command, _inputs(args), rep)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0 if rep.ok else 1


def _load(path: str, allow_invalid=False) -> TableDouble:
    with open(path) as f:
        text = f.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return elaborate(parse(text, name), allow_invalid)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _max_candidates():
    """The candidate budget STRAWCAT_MAX_CANDIDATES sets: unset or empty is
    the default (None), else an integer of at least 0."""
    v = os.environ.get("STRAWCAT_MAX_CANDIDATES")
    return _at_least(0, v) if v else None


def cmd_validate(args):
    rep = Report("validate")
    for path in args.files:
        try:
            A = _load(path, allow_invalid=True)
        except (ParseError, ElaborationError) as e:
            rep.add("parse", False, (path,), str(e))
            continue
        fails = validate(A).failures()
        rep.add(f"validate.{A.name}", not fails, tuple(str(f.witness) for f in fails[:5]),
                ", ".join(dict.fromkeys(f.check for f in fails)))
        if args.strict_expected and not fails and not is_strict(A):
            rep.add(f"strict.{A.name}", False, ())
    return _emit(args, rep)


def cmd_strictify(args):
    from .strictify import st, st_strict_report
    A = _load(args.file)
    rep = st_strict_report(st(A), args.bound)
    rep.params["hcomp_bracketing"] = "left-nested"
    return _emit(args, rep)


def cmd_universal_property(args):
    from .strictify import verify_3d_iso
    A = _load(args.file_a)
    B = _load(args.file_b)
    rep = verify_3d_iso(A, B, args.bound, _max_candidates())
    return _emit(args, rep)


def cmd_hom(args):
    from .homs import hom_double
    A = _load(args.file_a)
    B = _load(args.file_b)
    H = hom_double(A, B, _max_candidates())
    rep = validate(H.table)
    rep.params["functors"] = len(H.functors)
    rep.params["vertical_transformations"] = len(H.verticals)
    rep.params["horizontal_transformations"] = len(H.horizontals)
    rep.params["modifications"] = len(H.modifications)
    return _emit(args, rep)


def cmd_curry_check(args):
    from .homs import hom_double
    from .twovar import (check_twovar_functor, curry_functor,
                         enumerate_twovar_functors, skew_s, uncurry_functor)
    A, B, C = _load(args.file_a), _load(args.file_b), _load(args.file_c)
    mc = _max_candidates()
    hom = hom_double(B, C, mc)
    rep = Report("curry-check")
    two = enumerate_twovar_functors(A, B, C, hom, mc)
    rep.params["twovar_functors"] = len(two)
    for F in two:
        rep.require("curry.valid", check_twovar_functor(F).ok, (F.name,))
        P = curry_functor(F, hom)
        back = uncurry_functor(P, hom, B, C)
        rep.require("curry.roundtrip", back.key() == F.key(), (F.name,))
        rep.require("curry.s.involution", skew_s(skew_s(F)).key() == F.key(),
                    (F.name,))
    return _emit(args, rep)


def cmd_equivalence_check(args):
    from .twovar import verify_equivalence
    A, B, C = _load(args.file_a), _load(args.file_b), _load(args.file_c)
    rep = verify_equivalence(A, B, C, max_candidates=_max_candidates())
    return _emit(args, rep)


BUILTIN_MULTICATS = ("terminal", "z2", "truncadd", "endo2")
ENDO2_ARITY_CAP = 2


def _builtin_multicat(name: str, cap: int):
    from .multicat import endo_multicat, from_monoidal, terminal_multicat
    if name == "terminal":
        return terminal_multicat(cap)
    if name == "z2":
        return from_monoidal("z2", ("z0", "z1"),
                             lambda x, y: "z" + str((int(x[1]) + int(y[1])) % 2),
                             "z0", cap)
    if name == "truncadd":
        return from_monoidal("truncadd", ("m0", "m1", "m2"),
                             lambda x, y: "m" + str(min(int(x[1]) + int(y[1]), 2)),
                             "m0", cap)
    if name == "endo2":
        return endo_multicat("endo2", ("0", "1"), cap)
    raise SystemExit(f"unknown multicat {name!r}; choose from {BUILTIN_MULTICATS}")


def cmd_envelope(args):
    from .multicat import envelope, validate_envelope, validate_multicat
    if args.arity_cap is None:          # the builtin's own arity cap
        args.arity_cap = ENDO2_ARITY_CAP if args.multicat == "endo2" else 4
    cap = args.arity_cap
    if args.multicat == "endo2" and cap > ENDO2_ARITY_CAP:
        raise StructuralError(f"envelope word cap {cap} exceeds the arity cap "
                              f"{ENDO2_ARITY_CAP} of endo2, whose gamma is defined only "
                              f"up to that arity")
    V = _builtin_multicat(args.multicat, cap)
    rep = validate_multicat(V)
    rep.merge(validate_envelope(envelope(V, cap, _max_candidates())))
    rep.params["multicat"] = args.multicat
    return _emit(args, rep)


def cmd_adjunction_check(args):
    from .multicat import (adjunction_check, conjugation_multifunctor,
                           endo_multicat, hypothesis_check,
                           strictification_adjunction_report)
    if args.files:
        tables, paths = {}, {}
        for path in args.files:
            A = _load(path)
            if A.name in tables:
                raise StructuralError(f"two members named {A.name!r}: {paths[A.name]} and {path}")
            tables[A.name], paths[A.name] = A, path
        rep = strictification_adjunction_report(tables, args.bound, _max_candidates())
    else:
        V = endo_multicat("endo2", ("0", "1"), 2)
        T = conjugation_multifunctor(V, ("0", "1"), {"0": "1", "1": "0"})
        rep, data = hypothesis_check(T, {"x": "x"}, {"x": V.ident("x")})
        if data is not None:
            rep.merge(adjunction_check(data))
    return _emit(args, rep)


def cmd_interchange(args):
    from .gray import GridContext, interchange_grid, st_hom
    A = _load(args.file)
    sh = st_hom(A, A, _max_candidates())
    ctx = GridContext(sh, sh.hom, sh.hom)
    rep = Report(f"interchange({A.name})",
                 params={"n": args.n, "m": args.m})
    S = sh.S
    for alphas in S.paths(args.n):
        for betas in S.paths(args.m):
            g = interchange_grid(ctx, alphas, betas, "row")
            g2 = interchange_grid(ctx, alphas, betas, "col")
            rep.require("interchange.order", g == g2, (alphas, betas))
            rep.require("interchange.invertible", S.inverse_of(g) is not None,
                        (alphas, betas))
    rep.params["grids"] = rep.counts.get("interchange.order", 0)
    return _emit(args, rep)


def cmd_gray_check(args):
    from .gray import gray_axiom_check
    A, B, C = _load(args.file_a), _load(args.file_b), _load(args.file_c)
    rep = gray_axiom_check(A, B, C, args.bound, _max_candidates())
    return _emit(args, rep)


def cmd_biequivalence_check(args):
    from .gray import biequivalence_check
    A, B = _load(args.file_a), _load(args.file_b)
    rep = biequivalence_check(A, B, args.bound)
    return _emit(args, rep)


def _at_least(low: int, text: str) -> int:
    """text as an integer of at least low.  partial(_at_least, low) is the
    argparse type of a flag with that range; argparse names the flag in its
    message when this refuses a value."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, not {n}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="strawcat",
        description="finite pseudo double categories, strictification, and "
                    "exhaustive coherence checking")
    ap.add_argument("--out", help="write the report here instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate")
    sp.add_argument("files", nargs="+")
    sp.add_argument("--strict-expected", action="store_true", dest="strict_expected")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("strictify")
    sp.add_argument("file")
    sp.add_argument("--bound", type=partial(_at_least, 0), default=4)
    sp.set_defaults(fn=cmd_strictify)

    sp = sub.add_parser("universal-property")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--bound", type=partial(_at_least, 0), default=3)
    sp.set_defaults(fn=cmd_universal_property)

    sp = sub.add_parser("hom")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.set_defaults(fn=cmd_hom)

    sp = sub.add_parser("curry-check")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("file_c")
    sp.set_defaults(fn=cmd_curry_check)

    sp = sub.add_parser("equivalence-check")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("file_c")
    sp.set_defaults(fn=cmd_equivalence_check)

    sp = sub.add_parser("envelope")
    sp.add_argument("--multicat", default="terminal", choices=BUILTIN_MULTICATS)
    sp.add_argument("--arity-cap", type=partial(_at_least, 1), default=None, dest="arity_cap")
    sp.set_defaults(fn=cmd_envelope)

    sp = sub.add_parser("adjunction-check")
    sp.add_argument("files", nargs="*")
    sp.add_argument("--bound", type=partial(_at_least, 0), default=3)
    sp.set_defaults(fn=cmd_adjunction_check)

    sp = sub.add_parser("interchange")
    sp.add_argument("file")
    sp.add_argument("--n", type=partial(_at_least, 0), default=2)
    sp.add_argument("--m", type=partial(_at_least, 0), default=2)
    sp.set_defaults(fn=cmd_interchange)

    sp = sub.add_parser("gray-check")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("file_c")
    sp.add_argument("--bound", type=partial(_at_least, 0), default=2)
    sp.set_defaults(fn=cmd_gray_check)

    sp = sub.add_parser("biequivalence-check")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--bound", type=partial(_at_least, 0), default=3)
    sp.set_defaults(fn=cmd_biequivalence_check)

    args = ap.parse_args(argv)
    try:
        _max_candidates()
    except argparse.ArgumentTypeError as e:
        ap.error(f"STRAWCAT_MAX_CANDIDATES: {e}")
    try:
        return args.fn(args)
    except Truncated:
        kept = ("bound", "multicat", "arity_cap")
        rep = Report(args.command, params={k: getattr(args, k) for k in kept if hasattr(args, k)})
        rep.truncated = True
        rep.add("enumeration", False, (), "candidate cap exceeded")
        return _emit(args, rep)
    except (ParseError, ElaborationError, StructuralError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
