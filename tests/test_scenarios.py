import json
import re
from pathlib import Path

import pytest

import gpcoh
from gpcoh import (
    RankHint,
    UsedHint,
    build_koszul,
    bundle_cohomology,
    chase,
    load_scenario,
    report,
)
from gpcoh.scenarios import REPORTS
from gpcoh.schur import parse_bundle, sum_to_weights

from conftest import deny_reading, shipped_scenario


def test_load_builtin_scenarios():
    # load_scenario reads the zero-locus files; each audit reads its own file kind when it runs
    for name in ("cayley", "adjunction"):
        assert load_scenario(name).name == name
    for name in ("vmrt", "theorem1"):
        assert report(name).name == name
    sc = load_scenario("cayley.json")
    assert sc.name == "cayley"
    assert sc.space is not None
    assert str(sc.space) == "A6/P(4)"
    assert list(sc.twists) == ["trivial", "normal", "tangent"]
    assert [i for i, _, _ in sc.twists.values()] == [0, 1, 2]


def test_load_scenario_from_path(tmp_path):
    src = shipped_scenario("cayley")
    p = tmp_path / "copy.json"
    p.write_text(json.dumps(src))
    assert load_scenario(p).name == "cayley"


def test_unknown_scenario_rejected(tmp_path, monkeypatch):
    # the file names of the two dimension audits are no longer aliases
    for name in ("nonexistent", "vmrt_audit", "theorem1_audit"):
        with pytest.raises(FileNotFoundError, match="no builtin scenario"):
            load_scenario(name)
    # a Path is always a path, never the name of a shipped file
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError, match="no scenario file 'cayley' and no builtin scenario"):
        report(Path("cayley"))


@pytest.mark.parametrize("method", ["is_file", "read_text"])
@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_a_runner_called_on_an_unreadable_path_raises_one_value_error_naming_it(
    monkeypatch, tmp_path, kind, method
):
    p = tmp_path / f"{kind}.json"
    p.write_text(json.dumps(shipped_scenario(kind)))
    reason = deny_reading(monkeypatch, p, method)
    with pytest.raises(ValueError) as exc:
        report(p)
    assert str(exc.value) == f"scenario file {str(p)!r} cannot be read: {reason}"


def test_every_report_has_its_shipped_file_and_nothing_else_ships():
    stems = sorted(p.stem for p in (Path(gpcoh.__file__).parent / "data").glob("*.json"))
    assert sorted(REPORTS) == stems
    # each shipped file names its own report
    assert [shipped_scenario(stem)["report"] for stem in stems] == stems


def test_scenario_without_provenance_fails_closed(tmp_path):
    data = shipped_scenario("cayley")
    data["external_constants"] = [{"name": "h0_tangent_subvariety", "value": 14}]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="provenance"):
        load_scenario(p)


def test_case_constants_without_provenance_fail_closed(tmp_path):
    data = shipped_scenario("theorem1")
    data["cases"][0]["external_constants"][0]["provenance"] = "  "
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="provenance"):
        report(p)


def test_a_file_holding_a_json_list_fails_naming_the_file(tmp_path):
    p = tmp_path / "list.json"
    p.write_text(json.dumps([shipped_scenario("cayley")]))
    with pytest.raises(ValueError, match="does not hold a JSON object") as exc:
        load_scenario(p)
    assert repr(str(p)) in str(exc.value)


# a Schur functor with more rows than its tautological bundle's rank: U has rank 2 and Q rank 3
@pytest.mark.parametrize(
    "label,reason",
    [("W[1,1,1]U", "u-side partition (1,1,1) exceeds rank 2"),
     ("W[1,1,1,1]Q", "q-side partition (1,1,1,1) exceeds rank 3")],
    ids=["u-side", "q-side"],
)
def test_a_twist_label_too_tall_for_its_bundle_names_the_file_the_block_and_the_key(tmp_path, label, reason):
    data = {
        "schema_version": 1,
        "report": "adjunction",
        "ambient": {"type": "A", "rank": 4, "crossed": [2]},
        "section_bundle": "L2 U*",
        "twists": [{"name": "tall", "label": label}],
    }
    p = tmp_path / "gr25.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError) as exc:
        load_scenario(p)
    assert str(exc.value) == f"scenario file {str(p)!r}: block 'twists[0]' key 'label': {reason}"


def test_unknown_twist_rejected():
    sc = load_scenario("cayley")
    with pytest.raises(ValueError) as exc:
        sc.chase_twist("nonsense")
    known = "trivial, normal, tangent"
    assert str(exc.value) == f"scenario file 'cayley': block 'twists' has no twist 'nonsense'; known: {known}"


# ---------------------------------------------------------------------------
# cayley report


def test_cayley_report_final_values():
    rep = report("cayley")
    assert rep.passed
    v = rep.values()
    assert v["h0_tangent_subvariety"] == 14
    assert v["h1_tangent_subvariety"] == 0
    assert v["normal_ambient_h0"] == 35
    assert v["normal_restricted_h0"] == 34
    assert v["tangent_ambient_h0"] == 48
    assert v["tangent_ambient_h1"] == 0
    assert v["tangent_restricted_h0"] == 48
    assert v["tangent_restricted_h1"] == 0
    assert v["structure_sheaf_h0"] == 1
    assert v["locally_rigid"] is True
    with pytest.raises(KeyError, match="report 'cayley' has no line 'nope'"):
        rep.line("nope")


def test_cayley_checks_the_two_values_its_expect_block_names(tmp_path):
    # without the block the two lines are informational; with a wrong value the line fails
    plain = report(_edited_copy(tmp_path, "cayley", lambda d: d.pop("expect")))
    keys = ("normal_ambient_h0", "normal_restricted_h0")
    assert [plain.line(key).passed for key in keys] == [None, None]
    assert plain.passed and plain.values() == report("cayley").values()
    wrong = report(_edited_copy(tmp_path, "cayley", lambda d: d["expect"].update(normal_restricted_h0=35)))
    assert [wrong.line(key).passed for key in keys] == [True, False]
    assert wrong.failures() == [wrong.line("normal_restricted_h0")]


def test_report_runs_the_runner_bound_on_the_module_when_it_runs(monkeypatch):
    # a tracing wrapper rebinds a runner on the module, and report must run the wrapper
    runner, files = gpcoh.scenarios.run_vmrt_audit, []
    monkeypatch.setattr(
        gpcoh.scenarios, "run_vmrt_audit", lambda ledger, file, data: files.append(file) or runner(ledger, file, data)
    )
    assert report("vmrt").name == "vmrt"
    assert files == ["vmrt"]


_DATA = Path(__file__).parent / "data"


# every file that ships with the package or the tests and has a report; non_regular.json fails at load
@pytest.mark.parametrize("source", [*REPORTS, _DATA / "g2p2.json", _DATA / "lg36.json"], ids=str)
def test_report_names_each_report_by_the_files_report_key(source):
    data = json.loads(Path(source).read_text()) if isinstance(source, Path) else shipped_scenario(source)
    assert report(source).name == data["report"]


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_a_reports_title_is_the_files_title_else_its_name_else_empty(tmp_path, kind):
    data = shipped_scenario(kind)
    assert report(kind).title == data["title"]
    assert report(_edited_copy(tmp_path, kind, lambda d: d.pop("title"))).title == data["name"]
    assert report(_edited_copy(tmp_path, kind, lambda d: (d.pop("title"), d.pop("name")))).title == ""


def test_cayley_report_is_deterministic():
    assert report("cayley").to_dict() == report("cayley").to_dict()


def test_cayley_report_records_the_rank_that_left_exactness_forces():
    rep = report("cayley")
    line = rep.line("normal_hint_0_0")
    assert line.value == 1
    assert "H^0(A_1) -> H^0(C_0)" in line.text
    assert (line.source, line.provenance) == ("computed", "left exactness of global sections")
    assert "assumed" not in line.text
    # the one rank of the three chases is forced, so the report assumes nothing
    assert [ln.key for ln in rep.lines() if "_hint_" in ln.key] == ["normal_hint_0_0"]
    assert not [ln for ln in rep.lines() if ln.source == "assumed"]


def _cayley_with_hints(tmp_path, **hints_by_twist):
    data = shipped_scenario("cayley")
    for tw in data["twists"]:
        if tw["name"] in hints_by_twist:
            tw["rank_hints"] = [dict(zip(RankHint._fields, h)) for h in hints_by_twist[tw["name"]]]
    p = tmp_path / "hinted.json"
    p.write_text(json.dumps(data))
    return p


def test_a_rank_hint_applies_to_its_own_twist_only(tmp_path):
    # H^0(C_0) is 0 on no twist but the normal one, so (0, 0, 1) would exceed the rank
    # bound of the trivial and tangent chases if it reached them
    plain = load_scenario("cayley")
    hinted = load_scenario(_cayley_with_hints(tmp_path, normal=[(0, 0, 1)]))
    hints = {name: twist_hints for name, (_, _, twist_hints) in hinted.twists.items()}
    assert hints == {"trivial": (), "normal": (RankHint(0, 0, 1),), "tangent": ()}
    for twist in ("trivial", "tangent"):
        assert hinted.chase_twist(twist)[1] == plain.chase_twist(twist)[1]
    normal = hinted.chase_twist("normal")[1]
    assert normal.hints_used == (UsedHint(0, 0, 1, "provided"),)
    assert normal.table == plain.chase_twist("normal")[1].table


def test_a_provided_rank_on_any_twist_is_reported_as_assumed(tmp_path):
    # the tangent page is H^0(C_0) = 48 alone, so (0, 0) is a cell of capacity 0
    rep = report(_cayley_with_hints(tmp_path, tangent=[(0, 0, 0)]))
    assert rep.passed
    assert rep.line("h1_tangent_subvariety").value == 0
    hinted = [ln for ln in rep.lines() if ln.key.startswith("tangent_hint_")]
    assert len(hinted) == 1
    line = hinted[0]
    assert (line.key, line.value, line.source) == ("tangent_hint_0_0", 0, "assumed")
    assert line.text == "assumed rank: H^0(A_1) -> H^0(C_0) rank 0"
    assert line.provenance == "rank hint of twist 'tangent'"


def test_cayley_report_carries_resolutions_and_pages():
    rep = report("cayley")
    terms = rep.line("resolution_trivial").value
    assert terms == [
        "C_4 = O(-3)",
        "C_3 = U (-2)",
        "C_2 = L2 U (-1)",
        "C_1 = L3 U",
        "C_0 = O",
    ]
    assert rep.line("page_normal").value == {"H^0(C_1)": 1, "H^0(C_0)": 35}
    assert rep.line("page_tangent").value == {"H^0(C_0)": 48}


def test_cayley_intermediates_match_standalone_engine_runs():
    # the report must not shortcut the engines: rerun them directly
    sc = load_scenario("cayley")
    space = sc.space
    rep = report("cayley")
    for twist_name, keys in (
        ("normal", ("normal_ambient_h0", "normal_restricted_h0")),
        ("tangent", ("tangent_ambient_h0", "tangent_restricted_h0")),
    ):
        _, twist, hints = sc.twists[twist_name]
        cx = build_koszul(space, sc.section_bundle, twist)
        ambient = bundle_cohomology(space, sum_to_weights(cx.terms[0], space))
        res = chase(cx, hints)
        assert rep.values()[keys[0]] == ambient.dims().get(0, 0)
        assert rep.values()[keys[1]] == res.table.dims().get(0, 0)


def test_cayley_external_constants_are_labelled():
    rep = report("cayley")
    externals = [ln for ln in rep.lines() if ln.source == "external"]
    assert externals
    for ln in externals:
        assert ln.provenance.strip()
    assert rep.line("h0_tangent_subvariety").source == "external"


def test_cayley_engine_failures_name_the_file_and_the_twist(tmp_path):
    data = shipped_scenario("cayley")
    # sabotage the pipeline with an impossible rank hint
    data["twists"][1]["rank_hints"] = [{"target_term": 0, "degree": 0, "rank": 0}]
    p = tmp_path / "sabotaged.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"scenario file {str(p)!r}: block 'twists[1]' key 'rank_hints': ")):
        report(p)


@pytest.mark.parametrize("twist", ["trivial", "normal", "tangent"])
def test_cayley_without_a_twist_it_reads_fails_before_any_chase(tmp_path, monkeypatch, twist):
    p = _edited_copy(tmp_path, "cayley", lambda d: d.__setitem__("twists", [
        t for t in d["twists"] if t["name"] != twist
    ]))
    monkeypatch.setattr(gpcoh.scenarios.Scenario, "chase_twist", lambda *args: pytest.fail("a chase ran"))
    with pytest.raises(ValueError) as exc:
        report(p)
    assert str(exc.value) == f"scenario file {str(p)!r}: block 'twists' lacks twist {twist!r}"


@pytest.mark.parametrize("i,twist,reads", [(0, "trivial", "O"), (1, "normal", "L3 U*"), (2, "tangent", "T")])
def test_a_cayley_twist_that_is_not_the_bundle_the_normal_sequence_reads_fails_before_any_chase(
    tmp_path, monkeypatch, i, twist, reads
):
    p = _edited_copy(tmp_path, "cayley", lambda d: d["twists"][i].update(label="O(1)"))
    monkeypatch.setattr(gpcoh.scenarios.Scenario, "chase_twist", lambda *args: pytest.fail("a chase ran"))
    with pytest.raises(ValueError) as exc:
        report(p)
    assert str(exc.value) == (
        f"scenario file {str(p)!r}: block 'twists[{i}]' key 'label': "
        f"the normal sequence reads {twist!r} as {reads!r}, got 'O(1)'"
    )


def test_a_cayley_twist_is_compared_as_a_bundle_not_as_text(tmp_path):
    # on Gr(4,7), L3 U* = U (x) det U* = U (1)
    rep = report(_edited_copy(tmp_path, "cayley", lambda d: d["twists"][1].update(label="U (1)")))
    assert rep.to_dict() == report("cayley").to_dict()


def _chasing_as(monkeypatch, **labels):
    """Have ``Scenario.chase_twist`` chase each twist that ``labels`` names as the bundle of its label
    there, with no rank hint: a fail-closed branch that no twist of the right bundle reaches."""
    chase_twist = gpcoh.scenarios.Scenario.chase_twist

    def chase_as(sc, name):
        if name not in labels:
            return chase_twist(sc, name)
        complex_ = build_koszul(sc.space, sc.section_bundle, parse_bundle(sc.section_bundle.ambient, labels[name]))
        return complex_, chase(complex_, ())

    monkeypatch.setattr(gpcoh.scenarios.Scenario, "chase_twist", chase_as)


def test_cayley_with_an_indeterminate_chase_fails_naming_the_file_and_the_twist(monkeypatch):
    _chasing_as(monkeypatch, normal="S5 U* (-4)")
    with pytest.raises(ValueError) as exc:
        report("cayley")
    assert str(exc.value) == "scenario file 'cayley': block 'twists[1]' leaves the chase indeterminate at ((3, 9),)"


def test_cayley_with_a_nonzero_h1_does_not_claim_rigidity(tmp_path):
    # h^0(S, T_S) = 15 leaves h^1(S, T_S) = 1: the criterion does not apply, and the line says so
    p = _edited_copy(tmp_path, "cayley", lambda d: d["external_constants"][0].__setitem__("value", 15))
    rep = report(p)
    assert rep.line("h1_tangent_subvariety").value == 1
    line = rep.line("locally_rigid")
    assert (line.value, line.passed) == (False, None)
    assert line.text == "h^1(S, T_S) = 1, so the Kodaira-Spencer criterion does not apply"
    assert "rigid" not in line.text
    assert not rep.passed


def test_cayley_with_a_constant_that_contradicts_the_normal_sequence_fails_naming_it(tmp_path):
    p = _edited_copy(tmp_path, "cayley", lambda d: d["external_constants"][0].__setitem__("value", 60))
    with pytest.raises(ValueError) as exc:
        report(p)
    assert str(exc.value) == (
        f"scenario file {str(p)!r}: block 'external_constants' key 'h0_tangent_subvariety': "
        "the provided values contradict exactness: dim H^0 = 60 of the unknown end"
    )


def test_cayley_with_a_normal_sequence_left_open_fails_naming_the_open_ranks(tmp_path, monkeypatch):
    # T (-4) restricts to H^7 = 1 alone, so as both ends of the normal sequence it leaves the one
    # rank H^7(T|_S) -> H^7(N|_S) anywhere in 0..1
    _chasing_as(monkeypatch, normal="T (-4)", tangent="T (-4)")
    p = _edited_copy(tmp_path, "cayley", lambda d: d["external_constants"][0].__setitem__("value", 0))
    with pytest.raises(ValueError) as exc:
        report(p)
    assert str(exc.value) == (
        f"scenario file {str(p)!r}: block 'external_constants' key 'h0_tangent_subvariety': "
        "the normal sequence leaves ranks open at [(0, 7)]"
    )


# ---------------------------------------------------------------------------
# the constant rule: a report reads exactly the constants it names, and gpcoh koszul none


def _edited_copy(tmp_path, report, edit):
    data = shipped_scenario(report)
    edit(data)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(data))
    return p


_UNREAD = {"name": "h1_tangent_subvariety", "value": 7, "provenance": "a constant no report reads"}


@pytest.mark.parametrize(
    "kind,known", [("cayley", "h0_tangent_subvariety"), ("adjunction", "none")], ids=["cayley", "adjunction"]
)
def test_a_constant_the_report_does_not_read_fails_naming_the_file_and_the_constant(tmp_path, kind, known):
    p = _edited_copy(tmp_path, kind, lambda d: d["external_constants"].append(_UNREAD))
    with pytest.raises(ValueError) as exc:
        report(p)
    assert str(exc.value) == (
        f"scenario file {str(p)!r}: block 'external_constants' has unknown constant "
        f"'h1_tangent_subvariety'; known: {known}"
    )


def test_a_cayley_file_without_its_constant_fails_naming_the_file_and_the_constant(tmp_path):
    p = _edited_copy(tmp_path, "cayley", lambda d: d.pop("external_constants"))
    with pytest.raises(ValueError) as exc:
        report(p)
    assert str(exc.value) == (
        f"scenario file {str(p)!r}: block 'external_constants' lacks key 'h0_tangent_subvariety'"
    )


def test_a_chase_reads_no_constant_and_checks_none(tmp_path):
    p = _edited_copy(tmp_path, "cayley", lambda d: d["external_constants"].append(_UNREAD))
    assert load_scenario(p).chase_twist("tangent")[1].determined


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["cases"][0]["external_constants"].pop(0), "lacks key 'cone_aut_dim'"),
        (
            lambda d: d["cases"][0]["external_constants"].append(dict(_UNREAD, name="cone_aut_dimm")),
            "has unknown constant 'cone_aut_dimm'; known: cone_aut_dim, h1_general_fiber",
        ),
    ],
    ids=["missing", "unknown"],
)
def test_a_theorem1_case_reads_exactly_its_two_constants(tmp_path, edit, message):
    p = _edited_copy(tmp_path, "theorem1", edit)
    with pytest.raises(ValueError) as exc:
        report(p)
    assert str(exc.value) == f"scenario file {str(p)!r}: block 'cases[0].external_constants' {message}"


# ---------------------------------------------------------------------------
# audits


def test_vmrt_audit_values():
    rep = report("vmrt")
    assert rep.passed
    v = rep.values()
    assert v["dim_C3_P2"] == 7
    assert v["dim_F4_P4"] == 15
    assert v["dim_A6_P4"] == 12
    assert v["dim_D6_P6"] == 15
    assert v["dim_E6_P6"] == 16
    assert v["dim_E7_P7"] == 27
    assert v["dim_sl6_mod_sp6"] == 14
    assert v["dim_e6_mod_f4"] == 26
    assert v["bound_sl6_mod_sp6"] == 6
    assert v["bound_e6_mod_f4"] == 12
    assert v["nondegeneracy_sl6_mod_sp6"] is True
    assert v["nondegeneracy_e6_mod_f4"] is True
    assert v["ambient_proj_dim_sl6_mod_sp6"] == 13
    assert v["ambient_proj_dim_e6_mod_f4"] == 25
    assert v["ambient_rep_dim_sl6_mod_sp6"] == 15
    assert v["ambient_rep_dim_e6_mod_f4"] == 27


def test_vmrt_audit_with_an_odd_dimensional_space_serializes_its_bound(tmp_path):
    data = shipped_scenario("vmrt")
    data["cases"][0]["symmetric_space"]["subgroup_root_system"] = {"type": "B", "rank": 2}
    p = tmp_path / "odd.json"
    p.write_text(json.dumps(data))
    rep = report(p)
    v = rep.values()
    assert v["dim_sl6_mod_sp6"] == 35 - 10
    assert v["bound_sl6_mod_sp6"] == "23/2"
    assert "half-dimension bound = 23/2" in rep.line("bound_sl6_mod_sp6").text
    assert v["bound_e6_mod_f4"] == 12
    assert json.loads(json.dumps(rep.to_dict())) == rep.to_dict()


def _drop_case_constant(d):
    consts = d["cases"][0]["external_constants"]
    consts[:] = [c for c in consts if c["name"] != "cone_aut_dim"]


# malformed audit case blocks: (id, report, edit, block, key) with the block
# and the key each error must name besides the file
AUDIT_CASE_PROBES = [
    ("vmrt-missing", "vmrt", lambda d: d["cases"][0].pop("vmrt"), "cases[0]", "vmrt"),
    ("crossed-int", "vmrt", lambda d: d["cases"][0]["vmrt"].update(crossed=2), "cases[0].vmrt", "crossed"),
    ("case-not-object", "vmrt", lambda d: d.update(cases=[5]), "top level", "cases[0]"),
    ("extra-space-int", "vmrt", lambda d: d.update(extra_spaces=[5]), "top level", "extra_spaces[0]"),
    ("rank-string", "vmrt", lambda d: d["cases"][0]["vmrt"].update(rank="6"), "cases[0].vmrt", "rank"),
    ("rank-float", "vmrt", lambda d: d["cases"][0]["vmrt"].update(rank=3.0), "cases[0].vmrt", "rank"),
    ("name-int", "vmrt", lambda d: d["cases"][0]["vmrt"].update(name=7), "cases[0].vmrt", "name"),
    (
        "weight-float", "vmrt", lambda d: d["cases"][0]["vmrt_ambient_rep"]["weight"].__setitem__(1, 1.0),
        "cases[0].vmrt_ambient_rep", "weight[1]",
    ),
    (
        "weight-short", "vmrt", lambda d: d["cases"][0]["vmrt_ambient_rep"]["weight"].pop(),
        "cases[0].vmrt_ambient_rep", "weight",
    ),
    ("aut-missing", "theorem1", lambda d: d["cases"][0].pop("aut_root_system"), "cases[0]", "aut_root_system"),
    (
        "subgroup-missing", "theorem1", lambda d: d["cases"][0]["space_dim"].pop("subgroup_root_system"),
        "cases[0].space_dim", "subgroup_root_system",
    ),
    ("constant-missing", "theorem1", _drop_case_constant, "cases[0].external_constants", "cone_aut_dim"),
    (
        "constant-unknown", "theorem1",
        lambda d: d["cases"][0]["external_constants"].append(
            {"name": "cone_aut_dimm", "value": 99, "provenance": "a misspelled name"}
        ),
        "cases[0].external_constants", "cone_aut_dimm",
    ),
    (
        "constant-repeated", "theorem1",
        lambda d: (consts := d["cases"][0]["external_constants"]).append(consts[0]),
        "cases[0].external_constants[2]", "name",
    ),
    # a name repeated in a list of blocks
    (
        "case-name-repeated", "vmrt", lambda d: d["cases"][1].update(name=d["cases"][0]["name"]),
        "cases[1]", "name",
    ),
    (
        "theorem1-case-name-repeated", "theorem1", lambda d: d["cases"][1].update(name=d["cases"][0]["name"]),
        "cases[1]", "name",
    ),
    (
        "extra-space-name-repeated", "vmrt", lambda d: d["extra_spaces"].append(d["extra_spaces"][0]),
        "extra_spaces[2]", "name",
    ),
    (
        "aut-rank-bool", "theorem1", lambda d: d["cases"][0]["aut_root_system"].update(rank=True),
        "cases[0].aut_root_system", "rank",
    ),
    # well-typed values that build_root_system or ParabolicSpace rejects
    ("type-unknown", "vmrt", lambda d: d["cases"][0]["vmrt"].update(type="Z"), "cases[0].vmrt", "type"),
    ("rank-invalid", "vmrt", lambda d: d["cases"][0]["vmrt"].update(rank=2), "cases[0].vmrt", "rank"),
    ("crossed-empty", "vmrt", lambda d: d["cases"][0]["vmrt"].update(crossed=[]), "cases[0].vmrt", "crossed"),
    (
        "crossed-out-of-range", "vmrt", lambda d: d["cases"][0]["vmrt"].update(crossed=[9]),
        "cases[0].vmrt", "crossed",
    ),
    # a space block names a maximal parabolic, so it crosses exactly one node
    (
        "crossed-two-nodes", "vmrt", lambda d: d["cases"][0]["vmrt"].update(crossed=[2, 3]),
        "cases[0].vmrt", "crossed",
    ),
    (
        "extra-space-crossed-two-nodes", "vmrt", lambda d: d["extra_spaces"][0].update(crossed=[4, 1]),
        "extra_spaces[0]", "crossed",
    ),
    (
        "rep-type-unknown", "vmrt", lambda d: d["cases"][0]["vmrt_ambient_rep"].update(type="Z"),
        "cases[0].vmrt_ambient_rep", "type",
    ),
    (
        "aut-rank-invalid", "theorem1", lambda d: d["cases"][0]["aut_root_system"].update(type="E", rank=5),
        "cases[0].aut_root_system", "rank",
    ),
    # zero-locus keys, which no audit file kind declares
    ("section-without-ambient", "vmrt", lambda d: d.update(section_bundle=5), "top level", "section_bundle"),
    ("twists-without-section", "vmrt", lambda d: d.update(twists=5), "top level", "twists"),
]


@pytest.mark.parametrize(
    "kind,edit,block,key", [p[1:] for p in AUDIT_CASE_PROBES], ids=[p[0] for p in AUDIT_CASE_PROBES]
)
def test_a_malformed_audit_case_names_the_file_the_block_and_the_key(
    tmp_path, monkeypatch, kind, edit, block, key
):
    data = shipped_scenario(kind)
    edit(data)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").write_text(json.dumps(data))
    with pytest.raises(ValueError) as exc:
        report("./x.json")
    message = str(exc.value)
    assert "'./x.json'" in message and repr(block) in message and repr(key) in message


@pytest.mark.parametrize("kind", ["cayley", "adjunction"])
def test_runners_needing_a_zero_locus_reject_a_scenario_without_one(tmp_path, kind):
    # an audit file that names a zero-locus report is read against that report's file kind
    p = _edited_copy(tmp_path, "vmrt", lambda d: d.update(report=kind))
    with pytest.raises(ValueError) as exc:
        report(p)
    assert str(exc.value).startswith(f"scenario file {str(p)!r}: block 'top level' has unknown key 'cases'; known: ")
    # the zero-locus loader reads an audit file as a zero-locus file
    with pytest.raises(ValueError) as exc:
        load_scenario("vmrt")
    assert str(exc.value).startswith("scenario file 'vmrt': block 'top level' has unknown key 'cases'; known: ")


def test_theorem1_audit_values():
    rep = report("theorem1")
    assert rep.passed
    v = rep.values()
    assert v["aut_dim_sl6_mod_sp6"] == 35
    assert v["balance_lhs_sl6_mod_sp6"] == 36
    assert v["balance_rhs_sl6_mod_sp6"] == 36
    assert v["aut_dim_e6_mod_f4"] == 78
    assert v["balance_lhs_e6_mod_f4"] == 79
    assert v["balance_rhs_e6_mod_f4"] == 79
    assert v["cone_aut_semisimple_dim_sl6_mod_sp6"] == 21
    assert v["cone_aut_semisimple_dim_e6_mod_f4"] == 52
    assert v["cone_aut_dim_sl6_mod_sp6"] == 22
    assert v["cone_aut_dim_e6_mod_f4"] == 53
    assert v["h1_upper_bound_sl6_mod_sp6"] == 1
    assert v["h1_upper_bound_e6_mod_f4"] == 1


def test_theorem1_constants_are_external_with_provenance():
    rep = report("theorem1")
    for key in ("cone_aut_dim_sl6_mod_sp6", "cone_aut_dim_e6_mod_f4"):
        line = rep.line(key)
        assert line.source == "external"
        assert "Fu-Hwang" in line.provenance


def test_the_h0_bound_is_an_imported_theorem_labelled_external():
    # the value dim aut(S) + 1 is computed, but that it bounds h^0(X_0, T) is Fu-Hwang's theorem
    rep = report("theorem1")
    for key, value in (("h0_bound_sl6_mod_sp6", 36), ("h0_bound_e6_mod_f4", 79)):
        line = rep.line(key)
        assert (line.value, line.source, line.passed) == (value, "external", None)
        assert "Fu-Hwang 2018" in line.provenance


def test_adjunction_audit_values():
    rep = report("adjunction")
    assert rep.passed
    v = rep.values()
    assert v["ambient_canonical_twist"] == -7
    assert v["section_det_twist"] == 3
    assert v["subvariety_canonical_twist"] == -4
    assert v["ambient_dim"] == 12
    assert v["subvariety_dim"] == 8
    assert v["fano_index"] == 4


@pytest.mark.parametrize("name,index,dim", [("g2p2", 3, 5), ("lg36", 4, 6)])
def test_the_adjunction_report_of_a_file_that_ships_with_the_tests(name, index, dim):
    # G2/P2, the adjoint G2-variety, has Fano index 3, and LG(3,6) index 3 + 1
    v = report(Path(__file__).parent / "data" / f"{name}.json").values()
    assert (v["fano_index"], v["subvariety_dim"]) == (index, dim)


def test_reports_render_text():
    for name in REPORTS:
        text = report(name).to_text()
        assert "== result: PASS ==" in text


def test_report_json_round_trip():
    doc = report("cayley").to_dict()
    assert json.loads(json.dumps(doc)) == doc


def test_lines_that_cannot_fail_are_informational():
    # h1_upper_bound is (aut_dim + 1) - aut_dim, sub_twist is set to the sum it was checked
    # against, and locally_rigid repeats the h1_sub == 0 check of h1_tangent_subvariety
    t, a, c = report("theorem1"), report("adjunction"), report("cayley")
    for line in (
        t.line("h1_upper_bound_sl6_mod_sp6"),
        t.line("h1_upper_bound_e6_mod_f4"),
        a.line("subvariety_canonical_twist"),
        c.line("locally_rigid"),
    ):
        assert line.passed is None, line.key


def test_the_scope_section_holds_the_non_claims_and_only_when_a_constant_was_read(tmp_path):
    # each constant is said once, on the line that reads it; the scope section adds no repeat
    data = shipped_scenario("theorem1")
    data["cases"] = [case for case in data["cases"] if case["name"] == "e6_mod_f4"]
    p = tmp_path / "one_case.json"
    p.write_text(json.dumps(data))
    rep = report(p)
    scope = rep.sections[-1]
    assert scope.title == "Scope: externally sourced inputs and non-claims"
    assert [ln.key for ln in scope.lines] == ["non_claim_global_rigidity", "non_claim_prolongation"]
    assert all(ln.source == "external" and ln.provenance.strip() for ln in scope.lines)
    external = [ln for ln in rep.lines() if ln.source == "external" and ln not in scope.lines]
    # the case's two constants, and the value of the imported prolongation bound
    assert sorted(ln.value for ln in external) == [0, 53, 79]
    data["cases"] = []
    p.write_text(json.dumps(data))
    assert report(p).sections == ()
    # the dimension audit and the adjunction report read no constant, so they have no scope section
    for rep in (report("vmrt"), report("adjunction")):
        assert all(not sec.title.startswith("Scope") for sec in rep.sections)
