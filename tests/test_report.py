from strawcat.report import Report


def test_require_counts_every_instance_per_family_in_first_seen_order():
    rep = Report("r")
    rep.require("b", True)
    rep.require("a", False, ("x",))
    rep.require("b", False, ("y",))
    rep.require("a", True)
    rep.require("b", True)
    assert list(rep.counts.items()) == [("b", 3), ("a", 2)]
    assert [(f.check, f.witness) for f in rep.failures()] == [("a", ("x",)), ("b", ("y",))]


def test_add_records_a_finding_and_counts_nothing():
    rep = Report("r")
    rep.add("a", True)
    rep.add("a", False)
    assert rep.counts == {}
    assert len(rep.findings) == 2


def test_merge_adds_counts():
    rep, other = Report("r"), Report("s")
    rep.require("a", True)
    other.require("b", True)
    other.require("a", False)
    other.require("a", True)
    rep.merge(other)
    assert list(rep.counts.items()) == [("a", 3), ("b", 1)]
    assert other.counts == {"b": 1, "a": 2}


def test_a_family_with_no_instances_is_absent():
    rep = Report("r")
    rep.require("once", True)
    rep.add("found", False)
    assert list(rep.counts) == ["once"]
