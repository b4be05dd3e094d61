import dataclasses
import hashlib
import json
import pathlib
import random
import re
import sys
import tracemalloc

import pytest

from strawcat import StructuralError, cli, product, validate
from strawcat.cli import (NAME_RE, SECTIONS, ElaborationError, ParseError, Presentation,
                          elaborate, main, parse, presentation_of, print_presentation)
from strawcat.core import Frame, TableDouble
from strawcat.corpus import sigma_z2, strict_from_monoid


def test_print_parse_roundtrip_on_corpus(tables):
    for name, A in tables.items():
        text = print_presentation(presentation_of(A))
        p = parse(text, A.name)
        assert print_presentation(p) == text, name
        B = elaborate(p)
        assert validate(B).ok


def test_print_parse_idempotent(tables):
    text = print_presentation(presentation_of(tables["quintet"]))
    once = print_presentation(parse(text, "quintet"))
    twice = print_presentation(parse(once, "quintet"))
    assert once == twice == text


def test_corpus_files_match_builders(tables, corpus_dir):
    for name, A in tables.items():
        on_disk = (corpus_dir / f"{name}.pdc").read_text()
        assert on_disk == print_presentation(presentation_of(A)), name


def _cyclic(n):
    """The one-object 2-category on Z/n, its elements z0 .. z{n-1}."""
    elems = tuple(f"z{i}" for i in range(n))
    return strict_from_monoid(f"z{n}", elems, "z0",
                              lambda g, f: elems[(elems.index(g) + elems.index(f)) % n])


def _assert_one_string_per_name(p):
    rows = (p.vmors + p.hmors + p.cells + p.vcomp + p.hcomp + p.vid + p.hid
            + p.assoc + p.unitors)
    first = {}
    for row in rows:
        for x in row:
            if x is not None:
                assert first.setdefault(x, x) is x, x
    A = elaborate(p)
    for (f, g, h), (c, d) in A.assoc.items():
        assert all(first[x] is x for x in (f, g, h, c, d))


def test_parse_keeps_one_string_per_name(corpus_dir):
    _assert_one_string_per_name(parse((corpus_dir / "sigmaM.pdc").read_text(), "sigmaM"))


def test_parse_keeps_one_string_per_name_on_a_24_element_table():
    # its table sections span many blocks, each checked as columns
    _assert_one_string_per_name(parse(print_presentation(presentation_of(_cyclic(24))), "z24"))


def test_parse_of_a_24_element_table_peaks_within_2_mib():
    # 15,136 lines.  Measured: 1.54 MiB, with the read blocks' lines let go;
    # 2.19 MiB while every line was held to the end, 8.6 MiB when each whole
    # table section was split at once
    text = print_presentation(presentation_of(_cyclic(24)))
    tracemalloc.start()
    try:
        p = parse(text, "z24")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(p.assoc) == 24 ** 3
    assert peak <= 2 << 20, peak / (1 << 20)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as e:
        parse("OBJECTS\n  a\nVMORS\n  ida : frobnicate\n")
    assert e.value.line == 4


@pytest.mark.parametrize("row", ["c_z0 . c_z0 = c_z0", "c_z1 . c_z1 = c_z1"])
def test_bad_reference_name_reports_its_row(corpus_dir, row):
    # the first VCOMP cell row and the last, whose good names the reader has
    # already seen on earlier rows
    text = (corpus_dir / "sigma2.pdc").read_text()
    assert text.count(row) == 1
    lineno = text[:text.index(row)].count("\n") + 1
    with pytest.raises(ParseError) as e:
        parse(text.replace(row, "1b" + row[4:]), "sigma2")
    assert e.value.line == lineno
    assert "'1b'" in str(e.value)


def test_declaration_before_section():
    with pytest.raises(ParseError):
        parse("  a\nOBJECTS\n")


def test_duplicate_name_rejected():
    with pytest.raises(ParseError):
        parse("OBJECTS\n  a\n  a\n")


def test_undeclared_name_diagnostic(tables):
    text = print_presentation(presentation_of(tables["terminal"]))
    broken = text.replace("cpt : hpt => hpt", "cpt : ghost => hpt")
    with pytest.raises(ElaborationError) as e:
        elaborate(parse(broken, "terminal"))
    assert "ghost" in str(e.value)


def test_missing_assoc_row_names_triple(tables):
    text = print_presentation(presentation_of(tables["nonstrict"]))
    lines = [l for l in text.splitlines() if l.strip() != "e j j = t t"]
    with pytest.raises(ElaborationError) as e:
        elaborate(parse("\n".join(lines), "nonstrict"))
    msg = str(e.value)
    assert "assoc.total" in msg and "e" in msg and "j" in msg


def test_allow_invalid_defers_to_validator(tables):
    text = print_presentation(presentation_of(tables["nonstrict"]))
    # swap one unitor to the identity: coherent no more
    broken = text.replace("l e = t t", "l e = ce ce")
    with pytest.raises(ElaborationError):
        elaborate(parse(broken, "nonstrict"))
    A = elaborate(parse(broken, "nonstrict"), allow_invalid=True)
    rep = validate(A)
    assert not rep.ok
    assert {f.check for f in rep.failures()} & {"triangle", "lunit.natural"}


def test_each_command_validates_a_file_once_and_interns_it_once(corpus_dir, monkeypatch):
    from strawcat import cli, core, strictify
    calls, forms = [], []

    def counted(A):
        calls.append(A.name)
        return core.validate(A)

    interned = core.Interned
    monkeypatch.setattr(cli, "validate", counted)
    monkeypatch.setattr(strictify, "validate", counted)
    monkeypatch.setattr(core, "Interned", lambda A: forms.append(A.name) or interned(A))
    code, _ = run_cli("validate", *(str(corpus_dir / f"{m}.pdc") for m in ("nonstrict", "quintet")))
    assert code == 0 and calls == forms == ["nonstrict", "quintet"]
    calls.clear()
    forms.clear()
    # elaborate's validate and st_strict_report's entry validate share one form
    code, _ = run_cli("strictify", "--bound", "2", str(corpus_dir / "nonstrict.pdc"))
    assert code == 0 and calls == ["nonstrict", "nonstrict"] and forms == ["nonstrict"]


def run_cli(*argv):
    from io import StringIO
    import contextlib
    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_cli_validate_exit_status(corpus_dir):
    code, out = run_cli("validate", str(corpus_dir / "terminal.pdc"))
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert doc["schema"] == 1
    assert doc["inputs"][0]["sha256"]


def test_cli_validate_strict_expected_reports_an_invalid_table(corpus_dir, tmp_path):
    # strictness is read off a valid table only; the invalid one fails validate
    path = tmp_path / "nonstrict.pdc"
    text = (corpus_dir / "nonstrict.pdc").read_text()
    assert "  j * j = j\n" in text
    path.write_text(text.replace("  j * j = j\n", "", 1))
    code, out = run_cli("validate", "--strict-expected", str(path))
    doc = json.loads(out)
    assert code == 1 and doc["pass"] is False
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["validate.nonstrict"]


def test_cli_reports_are_deterministic(corpus_dir):
    a = run_cli("validate", str(corpus_dir / "nonstrict.pdc"))
    b = run_cli("validate", str(corpus_dir / "nonstrict.pdc"))
    assert a == b


def test_cli_strictify(corpus_dir):
    code, out = run_cli("strictify", str(corpus_dir / "nonstrict.pdc"), "--bound", "3")
    doc = json.loads(out)
    assert code == 0 and doc["pass"]
    assert doc["params"]["hcomp_bracketing"] == "left-nested"


def test_cli_universal_property(corpus_dir):
    code, out = run_cli("universal-property", str(corpus_dir / "nonstrict.pdc"),
                        str(corpus_dir / "sigmaM.pdc"), "--bound", "2")
    doc = json.loads(out)
    assert code == 0 and doc["pass"]
    assert doc["params"]["objects_each_side"] == 2


def test_cli_hom(corpus_dir):
    code, out = run_cli("hom", str(corpus_dir / "quintet.pdc"),
                        str(corpus_dir / "sigmaM.pdc"))
    doc = json.loads(out)
    assert code == 0 and doc["pass"]
    assert doc["params"]["functors"] >= 1


def test_cli_envelope_small():
    code, out = run_cli("envelope", "--multicat", "z2", "--arity-cap", "3")
    doc = json.loads(out)
    assert code == 0 and doc["pass"]
    # the envelope's own counts next to validate_multicat's assoc_instances
    want = {"morphisms": 360,
            "assoc_instances_small": 317_310,
            "assoc_instances_structural": 30_446,
            "tensor_functoriality_instances": 29_953,
            "symmetry_naturality_instances": 1_078,
            "assoc_instances": 2_248}
    assert {k: doc["params"][k] for k in want} == want


def _assert_truncated_keeping(out, paths, bound):
    # a truncated report still names its inputs, with their digests, and bound
    doc = json.loads(out)
    assert doc["truncated"] is True and doc["pass"] is False
    assert [i["path"] for i in doc["inputs"]] == paths
    for i, path in zip(doc["inputs"], paths):
        assert i["sha256"] == hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    assert doc["params"] == {"bound": bound}


def test_cli_universal_property_honours_the_candidate_budget(corpus_dir, monkeypatch):
    monkeypatch.setenv("STRAWCAT_MAX_CANDIDATES", "2")
    paths = [str(corpus_dir / "terminal.pdc"), str(corpus_dir / "sigmaM.pdc")]
    code, out = run_cli("universal-property", *paths, "--bound", "2")
    assert code == 1
    _assert_truncated_keeping(out, paths, 2)


def test_cli_adjunction_check_honours_the_candidate_budget(corpus_dir, monkeypatch):
    monkeypatch.setenv("STRAWCAT_MAX_CANDIDATES", "2")
    paths = [str(corpus_dir / f"{m}.pdc") for m in ("nonstrict", "sigmaM", "quintet")]
    code, out = run_cli("adjunction-check", *paths)
    assert code == 1
    _assert_truncated_keeping(out, paths, 3)


def test_cli_envelope_honours_the_candidate_budget(monkeypatch):
    # the envelope's morphisms count against the budget; the truncated
    # report keeps the command's parameters
    monkeypatch.setenv("STRAWCAT_MAX_CANDIDATES", "2")
    code, out = run_cli("envelope", "--multicat", "z2", "--arity-cap", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["truncated"] is True and doc["pass"] is False
    assert doc["params"] == {"arity_cap": 2, "multicat": "z2"}


def test_cli_envelope_refuses_a_word_cap_above_the_arity_cap(capsys):
    assert main(["envelope", "--multicat", "endo2", "--arity-cap", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "word cap 3" in captured.err and "arity cap 2" in captured.err


def test_cli_envelope_defaults_to_the_arity_cap_of_endo2():
    assert main(["envelope", "--multicat", "endo2"]) == 0


@pytest.mark.parametrize("argv, flag, low", [
    (["strictify", "sigma2.pdc", "--bound", "-1"], "--bound", 0),
    (["interchange", "nonstrict.pdc", "--n", "-1"], "--n", 0),
    (["interchange", "nonstrict.pdc", "--m", "-1"], "--m", 0),
    (["envelope", "--multicat", "z2", "--arity-cap", "0"], "--arity-cap", 1),
], ids=["bound", "n", "m", "arity-cap"])
def test_cli_refuses_a_flag_below_its_range(argv, flag, low, corpus_dir, capsys):
    argv = [str(corpus_dir / a) if a.endswith(".pdc") else a for a in argv]
    with pytest.raises(SystemExit) as e:
        main(argv)
    captured = capsys.readouterr()
    assert e.value.code == 2 and captured.out == ""
    assert f"argument {flag}: must be at least {low}, not {argv[-1]}" in captured.err


@pytest.mark.parametrize("value, message", [
    ("abc", "not an integer: 'abc'"),
    ("-3", "must be at least 0, not -3"),
], ids=["not-an-integer", "negative"])
def test_cli_refuses_a_candidate_budget_out_of_range(value, message, corpus_dir,
                                                     monkeypatch, capsys):
    monkeypatch.setenv("STRAWCAT_MAX_CANDIDATES", value)
    with pytest.raises(SystemExit) as e:
        main(["hom", str(corpus_dir / "quintet.pdc"), str(corpus_dir / "sigmaM.pdc")])
    captured = capsys.readouterr()
    assert e.value.code == 2 and captured.out == ""
    assert f"STRAWCAT_MAX_CANDIDATES: {message}" in captured.err


def test_cli_keeps_the_least_value_of_each_range(corpus_dir):
    assert main(["strictify", str(corpus_dir / "sigma2.pdc"), "--bound", "0"]) == 0
    assert main(["interchange", str(corpus_dir / "nonstrict.pdc"), "--n", "0", "--m", "0"]) == 0
    assert main(["envelope", "--multicat", "z2", "--arity-cap", "1"]) == 0


def test_presentation_of_refuses_an_id_that_is_not_a_name():
    A = product(sigma_z2(), sigma_z2())
    with pytest.raises(StructuralError, match=re.escape(repr(A.objects[0]))):
        presentation_of(A)


def test_cli_adjunction_builtin():
    code, out = run_cli("adjunction-check")
    doc = json.loads(out)
    assert code == 0 and doc["pass"]


def test_cli_interchange(corpus_dir):
    code, out = run_cli("interchange", str(corpus_dir / "nonstrict.pdc"),
                        "--n", "1", "--m", "1")
    doc = json.loads(out)
    assert code == 0 and doc["pass"]


def test_cli_biequivalence(corpus_dir):
    code, out = run_cli("biequivalence-check", str(corpus_dir / "nonstrict.pdc"),
                        str(corpus_dir / "sigma2.pdc"), "--bound", "2")
    doc = json.loads(out)
    assert code == 0 and doc["pass"]


def test_cli_out_flag(tmp_path, corpus_dir):
    dest = tmp_path / "report.json"
    code, out = run_cli("--out", str(dest), "validate", str(corpus_dir / "unit.pdc"))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["pass"]


def test_cli_invalid_input_fails(tmp_path, corpus_dir):
    bad = (corpus_dir / "nonstrict.pdc").read_text().replace("l e = t t", "l e = ce ce")
    path = tmp_path / "bad.pdc"
    path.write_text(bad)
    code, out = run_cli("validate", str(path))
    doc = json.loads(out)
    assert code == 1 and doc["pass"] is False


@pytest.mark.parametrize("argv, path", [
    (["validate", "nosuch.pdc"], "nosuch.pdc"),
    (["hom", "{corpus}/sigmaM.pdc", "nosuch.pdc"], "nosuch.pdc"),
    (["strictify", "{corpus}"], "{corpus}"),
    (["--out", "{corpus}", "validate", "{corpus}/unit.pdc"], "{corpus}")])
def test_cli_refuses_a_path_it_cannot_read_or_write(argv, path, corpus_dir, capsys):
    # a missing input, a directory as input and a directory as --out
    corpus = str(corpus_dir)
    assert main([a.format(corpus=corpus) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path.format(corpus=corpus)}: ")


def test_cli_adjunction_check_refuses_a_repeated_member_name(corpus_dir, tmp_path, capsys):
    # two different files with the same stem would key the same member
    other = tmp_path / "sigma2.pdc"
    other.write_text((corpus_dir / "sigmaM.pdc").read_text())
    first = str(corpus_dir / "sigma2.pdc")
    assert main(["adjunction-check", first, str(other), "--bound", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'sigma2': {first} and {other}" in captured.err


def test_cli_validate_names_a_non_composable_key(tmp_path, corpus_dir):
    # ca lives over a, cb over b: the row keys VCOMP by cells that do not stack
    text = (corpus_dir / "vertfree.pdc").read_text()
    path = tmp_path / "vertfree.pdc"
    path.write_text(text.replace("  cu . ca = cu\n", "  cu . ca = cu\n  ca . cb = ca\n"))
    code, out = run_cli("validate", str(path))
    (check,) = json.loads(out)["checks"]
    assert code == 1 and check["pass"] is False
    assert check["witnesses"] == [["('ca', 'cb')", "structure.vcomp.cell.composable"]]


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# Each row is a command line, run from the repository root; its exact output
# is tests/golden/<name>.json, where the name joins the command, the stems of
# its input files and its flags ("--bound 3" -> "b3").
GOLDEN_COMMANDS = (
    [("strictify", f"corpus/{m}.pdc", "--bound", "3")
     for m in ("nonstrict", "quintet", "quintetP", "sigma2", "sigmaM",
               "terminal", "unit", "vertfree")]
    + [("strictify", "corpus/nonstrict.pdc", "--bound", "4"),
       ("universal-property", "corpus/nonstrict.pdc", "corpus/sigmaM.pdc", "--bound", "3"),
       ("universal-property", "corpus/quintet.pdc", "corpus/quintetP.pdc", "--bound", "3"),
       ("hom", "corpus/quintet.pdc", "corpus/sigmaM.pdc"),
       ("hom", "corpus/nonstrict.pdc", "corpus/sigmaM.pdc"),
       ("curry-check", "corpus/quintet.pdc", "corpus/quintet.pdc", "corpus/sigmaM.pdc"),
       ("equivalence-check", "corpus/quintet.pdc", "corpus/quintet.pdc",
        "corpus/sigmaM.pdc"),
       ("equivalence-check", "corpus/nonstrict.pdc", "corpus/nonstrict.pdc",
        "corpus/sigmaM.pdc"),
       ("gray-check", "corpus/sigma2.pdc", "corpus/sigma2.pdc", "corpus/sigma2.pdc"),
       ("gray-check", "corpus/nonstrict.pdc", "corpus/sigmaM.pdc", "corpus/sigmaM.pdc"),
       ("interchange", "corpus/nonstrict.pdc", "--n", "1", "--m", "1"),
       ("interchange", "corpus/nonstrict.pdc", "--n", "2", "--m", "2"),
       ("envelope", "--multicat", "z2", "--arity-cap", "3"),
       ("envelope", "--multicat", "endo2", "--arity-cap", "2"),
       ("envelope", "--multicat", "truncadd", "--arity-cap", "3"),
       ("adjunction-check", "corpus/nonstrict.pdc", "corpus/sigmaM.pdc",
        "corpus/quintet.pdc"),
       ("adjunction-check", "corpus/nonstrict.pdc", "corpus/sigma2.pdc", "--bound", "2"),
       ("adjunction-check", "corpus/sigma2.pdc", "corpus/quintetP.pdc",
        "corpus/terminal.pdc", "--bound", "1"),
       ("biequivalence-check", "corpus/nonstrict.pdc", "corpus/sigmaM.pdc"),
       ("validate", *(f"corpus/{m}.pdc" for m in ("nonstrict", "quintet", "quintetP", "sigma2",
                                                  "sigmaM", "terminal", "unit", "vertfree")))])


def golden_name(argv):
    words = []
    for i, a in enumerate(argv):
        if a.startswith("--"):
            continue
        prev = argv[i - 1] if i else ""
        words.append(prev[2] + a if prev.startswith("--") else pathlib.Path(a).stem)
    return "-".join(words) + ".json"


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=golden_name)
def test_cli_strictify_matches_golden(argv, corpus_dir, monkeypatch):
    # compares every row of GOLDEN_COMMANDS, not only the strictify ones
    monkeypatch.chdir(corpus_dir.parent)
    code, out = run_cli(*argv)
    assert code == 0
    assert out == (GOLDEN / golden_name(argv)).read_text()


# ---------------------------------------------------------------------------
# the reader against a row-by-row copy of it
# ---------------------------------------------------------------------------

def _plain_parse(text: str, name: str = "anonymous") -> Presentation:
    """parse as one loop over the lines, every table row checked on its own."""
    p = Presentation(name=name)
    section = None
    declared = set()
    well_formed = set()

    def check_name(tok, lineno, col, declare=False):
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
        code = raw.split("#", 1)[0]
        line = code.strip()
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
        toks = [sys.intern(t) for t in line.split()]
        col = [m.start() + 1 for m in re.finditer(r"\S+", code)]    # of each token
        if section == "OBJECTS":
            if len(toks) != 1:
                raise ParseError(lineno, 1, "object rows hold a single name")
            check_name(toks[0], lineno, col[0], declare=True)
            p.objects.append(toks[0])
        elif section in ("VMORS", "HMORS"):
            if len(toks) == 4 and toks[1] == ":" and toks[2] == "id":
                check_name(toks[0], lineno, col[0], declare=True)
                check_name(toks[3], lineno, col[3])
                entry = (toks[0], None, None, toks[3])
            elif len(toks) == 5 and toks[1] == ":" and toks[3] == "->":
                check_name(toks[0], lineno, col[0], declare=True)
                check_name(toks[2], lineno, col[2])
                check_name(toks[4], lineno, col[4])
                entry = (toks[0], toks[2], toks[4], None)
            else:
                raise ParseError(lineno, 1, "expected 'name : a -> b' or 'name : id a'")
            (p.vmors if section == "VMORS" else p.hmors).append(entry)
        elif section == "CELLS":
            m = re.match(r"(\w+)\s*:\s*(\w+)\s*=>\s*(\w+)\s*\[\s*(\w+)\s*,\s*(\w+)\s*\]$",
                         line)
            if not m:
                raise ParseError(lineno, 1, "expected 'name : top => bottom [left, right]'")
            lead = len(code) - len(code.lstrip()) + 1
            check_name(m.group(1), lineno, lead + m.start(1), declare=True)
            for g in range(2, 6):
                check_name(m.group(g), lineno, lead + m.start(g))
            p.cells.append(tuple(map(sys.intern, m.groups())))
        elif section in ("VCOMP", "HCOMP"):
            op = "." if section == "VCOMP" else "*"
            if len(toks) != 5 or toks[1] != op or toks[3] != "=":
                raise ParseError(lineno, 1, f"expected 'x {op} y = z'")
            for k in (0, 2, 4):
                check_name(toks[k], lineno, col[k])
            (p.vcomp if section == "VCOMP" else p.hcomp).append((toks[0], toks[2], toks[4]))
        elif section in ("VID", "HID"):
            if len(toks) != 3 or toks[1] != "=":
                raise ParseError(lineno, 1, "expected 'mor = cell'")
            check_name(toks[0], lineno, col[0])
            check_name(toks[2], lineno, col[2])
            (p.vid if section == "VID" else p.hid).append((toks[0], toks[2]))
        elif section == "ASSOC":
            if len(toks) != 6 or toks[3] != "=":
                raise ParseError(lineno, 1, "expected 'f g h = cell inverse'")
            for k in (0, 1, 2, 4, 5):
                check_name(toks[k], lineno, col[k])
            p.assoc.append((toks[0], toks[1], toks[2], toks[4], toks[5]))
        elif section == "UNITORS":
            if len(toks) != 5 or toks[0] not in ("l", "r") or toks[2] != "=":
                raise ParseError(lineno, 1, "expected 'l|r hmor = cell inverse'")
            for k in (1, 3, 4):
                check_name(toks[k], lineno, col[k])
            p.unitors.append((toks[0], toks[1], toks[3], toks[4]))
    return p


def _plain_elaborate(p: Presentation, allow_invalid: bool = False) -> TableDouble:
    """elaborate as a loop over each section's rows."""
    objs = set(p.objects)

    def need_obj(x, ctx):
        if x not in objs:
            raise ElaborationError(f"{ctx}: undeclared object {x!r}" + cli._at(p, x))

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
            raise ElaborationError(f"{ctx}: undeclared {kind} {x!r}" + cli._at(p, x))

    def put(table, key, value, section, written):
        if key in table:
            raise ElaborationError(f"{section}: repeated key {written}")
        table[key] = value

    cell_frames = {}
    for (name, top, bottom, left, right) in p.cells:
        need("hmor", top, hmor_src, f"cell {name}")
        need("hmor", bottom, hmor_src, f"cell {name}")
        need("vmor", left, vmor_src, f"cell {name}")
        need("vmor", right, vmor_src, f"cell {name}")
        cell_frames[name] = Frame(top, bottom, left, right)
    tables = {}
    for section, rows, mors, kind, op in (("VCOMP", p.vcomp, vmor_src, "vmor", "."),
                                          ("HCOMP", p.hcomp, hmor_src, "hmor", "*")):
        on_mors, on_cells = tables[section] = {}, {}
        for (a, b, c) in rows:
            if a in mors and b in mors:
                need(kind, c, mors, section)
                put(on_mors, (a, b), c, section, f"{a} {b}")
            elif a in cellset and b in cellset:
                need("cell", c, cellset, section)
                put(on_cells, (a, b), c, section, f"{a} {b}")
            else:
                raise ElaborationError(f"{section} row mixes namespaces: {a} {op} {b} = {c}")
    vid_cell = {}
    for (f, c) in p.vid:
        need("hmor", f, hmor_src, "VID")
        need("cell", c, cellset, "VID")
        put(vid_cell, f, c, "VID", f)
    hid_cell = {}
    for (u, c) in p.hid:
        need("vmor", u, vmor_src, "HID")
        need("cell", c, cellset, "HID")
        put(hid_cell, u, c, "HID", u)
    assoc = {}
    for (f, g, h, c, d) in p.assoc:
        for x in (f, g, h):
            need("hmor", x, hmor_src, "ASSOC")
        need("cell", c, cellset, "ASSOC")
        need("cell", d, cellset, "ASSOC")
        put(assoc, (f, g, h), (c, d), "ASSOC", f"{f} {g} {h}")
    lunit, runit = {}, {}
    for (side, f, c, d) in p.unitors:
        need("hmor", f, hmor_src, "UNITORS")
        need("cell", c, cellset, "UNITORS")
        need("cell", d, cellset, "UNITORS")
        put(lunit if side == "l" else runit, f, (c, d), "UNITORS", f"{side} {f}")

    A = TableDouble(
        name=p.name, objects=tuple(p.objects),
        vmors=vmors, vmor_src=vmor_src, vmor_tgt=vmor_tgt,
        v_identity=v_identity, vcomp_vmor_table=tables["VCOMP"][0],
        hmors=hmors, hmor_src=hmor_src, hmor_tgt=hmor_tgt,
        h_identity=h_identity, hcomp_hmor_table=tables["HCOMP"][0],
        cells=tuple(c[0] for c in p.cells), cell_frames=cell_frames,
        vcomp_cell_table=tables["VCOMP"][1], vid_cell=vid_cell,
        hcomp_cell_table=tables["HCOMP"][1], hid_cell=hid_cell,
        assoc=assoc, lunit=lunit, runit=runit,
    )
    if p.bicategory:
        nonid = [u for u in vmors if u not in set(v_identity.values())]
        if nonid:
            raise ElaborationError(f"BICATEGORY flag but non-identity vmors present: {nonid}")
    if not allow_invalid:
        rep = validate(A)
        if not rep.ok:
            msgs = [f.render() for f in rep.failures()[:10]]
            raise ElaborationError("invalid table:\n  " + "\n  ".join(msgs))
    return A


def _read(reader, text):
    """What reading text gives: the presentation and its table, each field as
    a list of items where it is a dict, so that order counts; or the error."""
    parse_, elaborate_ = reader
    try:
        p = parse_(text, "t")
        A = elaborate_(p, allow_invalid=True)
    except ParseError as e:
        return ParseError, e.line, e.col, str(e)
    except ElaborationError as e:
        return ElaborationError, str(e)
    return ([(f.name, getattr(p, f.name)) for f in dataclasses.fields(p)],
            [(f.name, list(v.items()) if isinstance(v, dict) else v)
             for f in dataclasses.fields(A) if f.init for v in [getattr(A, f.name)]])


READERS = (parse, elaborate), (_plain_parse, _plain_elaborate)


def _noisy(text: str, seed: int) -> str:
    """text with the rows of each section shuffled and with comments, blank
    lines and tabs put in, all drawn from seed."""
    rng = random.Random(seed)
    out, rows = [], []
    for line in text.splitlines() + ["UNITORS"]:
        if line.strip() not in SECTIONS:
            rows.append(line)
            continue
        rng.shuffle(rows)
        for row in rows:
            r = rng.random()
            if r < 0.05:
                out.append(rng.choice(["", " \t ", "# a comment", "\t# an indented one"]))
            if r < 0.1:
                row = "\t" + row.lstrip()
            elif r < 0.15:
                row = row.replace(" ", " \t", 2)
            elif r < 0.2:
                row += rng.choice(["  # a note", "#no space", "\t#"])
            out.append(row)
        out.append(line)
        rows = []
    return "\n".join(out[:-1]) + "\n"


def test_reader_matches_the_plain_reader_on_the_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.pdc")):
        text = path.read_text()
        got = _read(READERS[0], text)
        assert got[0] != ParseError and got[0] != ElaborationError, path
        assert got == _read(READERS[1], text), path


@pytest.mark.parametrize("end", ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_reader_ends_a_comment_where_the_line_ends(corpus_dir, end):
    # every line end that str.splitlines knows; a comment on each row
    text = (corpus_dir / "nonstrict.pdc").read_text()
    text = text.replace("\n", f" #c{end}") + f"e j j = ce ce{end}"
    got = _read(READERS[0], text)
    assert got == _read(READERS[1], text)
    assert got[0] is ParseError and got[1] == len(text.splitlines()) == 54, got


@pytest.mark.parametrize("n", [16, 24])
def test_reader_matches_the_plain_reader_on_a_shuffled_noisy_table(n):
    text = _noisy(print_presentation(presentation_of(_cyclic(n))), seed=n)
    assert "\t" in text and "# a comment" in text and "\n\n" in text
    got = _read(READERS[0], text)
    assert len(dict(got[1])["assoc"]) == n ** 3
    assert got == _read(READERS[1], text)


def _put(line, k, tok):
    """line with its k-th token replaced by tok."""
    a, b = [m.span() for m in re.finditer(r"\S+", line.split("#", 1)[0])][k]
    return line[:a] + tok + line[b:]


def _corruptions(lines):
    """(label, text) of corruptions of a table's text, in every table
    section, each reader must refuse alike: one line at a time, and two
    offenders in one section, of which the first is named."""
    section, where = None, {}
    for i, line in enumerate(lines):
        if line.strip() in SECTIONS:
            section = line.strip()
        elif line.split("#", 1)[0].strip():
            where.setdefault(section, []).append(i)
    names = {s: [lines[i].split()[0] for i in where[s]] for s in ("HMORS", "CELLS")}
    # each table section's first and middle rows, and those at lines 250 and
    # 1000 +- 1, one and four blocks in
    picks = {s: [rows[0], rows[len(rows) // 2]] for s, rows in where.items() if s in cli._TABLES}
    for s in picks:
        picks[s] += [i for i in where[s] for edge in (cli._BLOCK, 4 * cli._BLOCK)
                     if abs(i + 1 - edge) <= 1]

    def text(i, *new):
        return "\n".join(lines[:i] + list(new) + lines[i + 1:]) + "\n"

    for s, rows in picks.items():
        width, _, _, keep, _ = cli._TABLES[s]
        for tok in ("1x", "ghost"):
            two = list(lines)
            i, j = where[s][0], where[s][-1]
            two[i], two[j] = _put(lines[i], keep[-1], tok), _put(lines[j], keep[1], tok + "2")
            yield f"{s} two offenders {tok}", "\n".join(two) + "\n"
        for i in rows:
            line, code = lines[i], lines[i].split("#", 1)[0]
            for k in keep:
                yield f"{s}@{i} bad name at {k}", text(i, _put(line, k, "1x"))
                yield f"{s}@{i} undeclared at {k}", text(i, _put(line, k, "ghost"))
            for k in keep[s == "UNITORS":]:
                other = names["HMORS" if code.split()[k] in names["CELLS"] else "CELLS"]
                yield f"{s}@{i} other namespace at {k}", text(i, _put(line, k, other[0]))
            for k in [k for k in range(width) if k not in keep] + [0] * (s == "UNITORS"):
                yield f"{s}@{i} wrong token at {k}", text(i, _put(line, k, "?"))
            yield f"{s}@{i} short", text(i, code[:code.rstrip().rindex(" ")])
            yield f"{s}@{i} long", text(i, code.rstrip() + " extra")
            cell = names["CELLS"][code.split()[-1] == names["CELLS"][0]]
            yield f"{s}@{i} repeated key", text(i, line, _put(line, width - 1, cell))
            yield f"{s}@{i} repeated row", text(i, line, line)


@pytest.mark.parametrize("base", ["z12", "nonstrict"])
def test_reader_refuses_what_the_plain_reader_refuses_alike(corpus_dir, base):
    # z12's table sections have 12 to 1,728 rows, nonstrict's 1 to 13: the
    # checks as columns and the reads row by row both refuse
    text = (print_presentation(presentation_of(_cyclic(12))) if base == "z12"
            else (corpus_dir / f"{base}.pdc").read_text())
    lines = _noisy(text, seed=3).splitlines()
    messages = []
    for label, corrupt in _corruptions(lines):
        got = _read(READERS[0], corrupt)
        assert got[0] in (ParseError, ElaborationError), label
        assert got == _read(READERS[1], corrupt), label
        messages.append(got[-1])
    for kind in ("bad name", "expected", "undeclared", "mixes namespaces", "repeated key"):
        assert any(kind in m for m in messages), kind


def test_parse_error_gives_the_column_of_a_bad_token(corpus_dir):
    text = (corpus_dir / "nonstrict.pdc").read_text()
    for row, bad, col in (("  e j j = t t", "  e j 1x = t t", 7),
                          ("  t : e => e [idv, idv]", "  t : e => 1y [idv, idv]", 12),
                          ("  t : e => e [idv, idv]", "  \tce : e => e [idv, idv]", 4)):
        assert text.count(row) == 1, row
        with pytest.raises(ParseError) as e:
            parse(text.replace(row, bad), "nonstrict")
        assert (e.value.line, e.value.col) == (text[:text.index(row)].count("\n") + 1, col)
        word = "duplicate" if "ce" in bad else "bad"
        assert f"col {col}: {word} name" in str(e.value)


@pytest.mark.parametrize("row, again, key", [
    ("  z1 * z1 = z0", "  z1 * z1 = z1", "HCOMP: repeated key z1 z1"),
    ("  z1 z1 z1 = c_z1 c_z1", "  z1 z1 z1 = c_z0 c_z0", "ASSOC: repeated key z1 z1 z1"),
    ("  l z1 = c_z1 c_z1", "  l z1 = c_z0 c_z0", "UNITORS: repeated key l z1")])
def test_a_repeated_table_key_is_refused(corpus_dir, row, again, key):
    # the wrong entry first: were the last one kept, the table would validate
    text = (corpus_dir / "sigma2.pdc").read_text()
    assert text.count(row + "\n") == 1
    elaborate(parse(text, "sigma2"))
    with pytest.raises(ElaborationError, match=re.escape(key)):
        elaborate(parse(text.replace(row + "\n", f"{again}\n{row}\n"), "sigma2"))


def test_cli_refuses_a_repeated_table_key(corpus_dir, tmp_path, capsys):
    path = tmp_path / "sigma2.pdc"
    path.write_text((corpus_dir / "sigma2.pdc").read_text()
                    .replace("  z1 * z1 = z0\n", "  z1 * z1 = z1\n  z1 * z1 = z0\n"))
    assert main(["strictify", "--bound", "1", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: HCOMP: repeated key z1 z1\n"


def test_bicategory_flag_refuses_a_non_identity_vmor(corpus_dir):
    text = (corpus_dir / "terminal.pdc").read_text()
    assert "BICATEGORY\n" in text
    text = text.replace("  idpt : id pt\n", "  idpt : id pt\n  u : pt -> pt\n")
    for reader in READERS:
        with pytest.raises(ElaborationError, match=re.escape("non-identity vmors present: ['u']")):
            reader[1](reader[0](text, "terminal"), allow_invalid=True)
