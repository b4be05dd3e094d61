import hashlib
import json
import pathlib
import re

import pytest

from strawcat import StructuralError, product, validate
from strawcat.cli import (ElaborationError, ParseError, elaborate, main, parse,
                          presentation_of, print_presentation)
from strawcat.corpus import sigma_z2


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


def test_parse_keeps_one_string_per_name(corpus_dir):
    p = parse((corpus_dir / "sigmaM.pdc").read_text(), "sigmaM")
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
