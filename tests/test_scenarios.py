import json
from pathlib import Path

import pytest

import gpcoh
from gpcoh import (
    build_koszul,
    bundle_cohomology,
    chase,
    load_scenario,
    run_adjunction_audit,
    run_cayley,
    run_theorem1_audit,
    run_vmrt_audit,
)
from gpcoh.scenarios import REPORTS
from gpcoh.schur import sum_to_weights


def test_load_builtin_scenarios():
    for name in ("cayley", "vmrt", "theorem1", "adjunction"):
        sc = load_scenario(name)
        assert sc.name
    sc = load_scenario("cayley.json")
    assert sc.name == "cayley"
    assert sc.space is not None
    assert str(sc.space) == "A6/P(4)"
    assert [n for n, _ in sc.twists] == ["trivial", "normal", "tangent"]
    assert sc.constant("h0_tangent_subvariety").value == 14


def test_load_scenario_from_path(tmp_path):
    src = load_scenario("cayley").raw
    p = tmp_path / "copy.json"
    p.write_text(json.dumps(src))
    assert load_scenario(p).name == "cayley"


def test_unknown_scenario_rejected():
    # the file names of the two dimension audits are no longer aliases
    for name in ("nonexistent", "vmrt_audit", "theorem1_audit"):
        with pytest.raises(FileNotFoundError, match="no builtin scenario"):
            load_scenario(name)


def test_every_report_has_its_shipped_file_and_nothing_else_ships():
    stems = sorted(p.stem for p in (Path(gpcoh.__file__).parent / "data").glob("*.json"))
    assert sorted(REPORTS) == stems


def test_scenario_without_provenance_fails_closed(tmp_path):
    data = load_scenario("cayley").raw.copy()
    data["external_constants"] = [{"name": "h0_tangent_subvariety", "value": 14}]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="provenance"):
        load_scenario(p)


def test_case_constants_without_provenance_fail_closed(tmp_path):
    data = json.loads(json.dumps(load_scenario("theorem1").raw))
    data["cases"][0]["external_constants"][0]["provenance"] = "  "
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="provenance"):
        load_scenario(p)


def test_unknown_twist_rejected():
    sc = load_scenario("cayley")
    with pytest.raises(KeyError, match="no twist"):
        sc.twist_named("nonsense")


# ---------------------------------------------------------------------------
# cayley report


def test_cayley_report_final_values():
    rep = run_cayley()
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


def test_cayley_report_is_deterministic():
    assert run_cayley().to_dict() == run_cayley().to_dict()


def test_cayley_report_records_the_generic_section_assumption():
    rep = run_cayley()
    line = rep.line("normal_hint_0_0")
    assert line.value == 1
    assert "H^0(C_1) -> H^0(C_0)" in line.text


def test_cayley_report_carries_resolutions_and_pages():
    rep = run_cayley()
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
    rep = run_cayley()
    for twist_name, keys in (
        ("normal", ("normal_ambient_h0", "normal_restricted_h0")),
        ("tangent", ("tangent_ambient_h0", "tangent_restricted_h0")),
    ):
        cx = build_koszul(space, sc.section_bundle, sc.twist_named(twist_name))
        ambient = bundle_cohomology(space, sum_to_weights(cx.term(0), space))
        res = chase(cx, sc.rank_hints)
        assert rep.values()[keys[0]] == ambient.total_dimension(0)
        assert rep.values()[keys[1]] == res.table.total_dimension(0)


def test_cayley_external_constants_are_labelled():
    rep = run_cayley()
    externals = [ln for ln in rep.lines() if ln.source == "external"]
    assert externals
    for ln in externals:
        assert ln.provenance.strip()
    assert rep.line("h0_tangent_subvariety").source == "external"


def test_cayley_engine_failures_name_the_step(tmp_path):
    data = json.loads(json.dumps(load_scenario("cayley").raw))
    # sabotage the pipeline with an impossible rank hint
    data["rank_hints"] = [{"target_term": 0, "degree": 0, "rank": 0}]
    p = tmp_path / "sabotaged.json"
    p.write_text(json.dumps(data))
    with pytest.raises(RuntimeError, match="step"):
        run_cayley(load_scenario(p))


# ---------------------------------------------------------------------------
# audits


def test_vmrt_audit_values():
    rep = run_vmrt_audit()
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
    data = load_scenario("vmrt").raw
    data["cases"][0]["symmetric_space"]["subgroup_root_system"] = {"type": "B", "rank": 2}
    p = tmp_path / "odd.json"
    p.write_text(json.dumps(data))
    rep = run_vmrt_audit(load_scenario(p))
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
    (
        "rep-type-unknown", "vmrt", lambda d: d["cases"][0]["vmrt_ambient_rep"].update(type="Z"),
        "cases[0].vmrt_ambient_rep", "type",
    ),
    (
        "aut-rank-invalid", "theorem1", lambda d: d["cases"][0]["aut_root_system"].update(type="E", rank=5),
        "cases[0].aut_root_system", "rank",
    ),
]


@pytest.mark.parametrize(
    "report,edit,block,key", [p[1:] for p in AUDIT_CASE_PROBES], ids=[p[0] for p in AUDIT_CASE_PROBES]
)
def test_a_malformed_audit_case_names_the_file_the_block_and_the_key(
    tmp_path, monkeypatch, report, edit, block, key
):
    data = json.loads(json.dumps(load_scenario(report).raw))
    edit(data)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").write_text(json.dumps(data))
    with pytest.raises(ValueError) as exc:
        REPORTS[report](load_scenario("./x.json"))
    message = str(exc.value)
    assert "'./x.json'" in message and repr(block) in message and repr(key) in message


def test_audit_case_constants_are_kept_from_the_load():
    sc = load_scenario("theorem1")
    assert [sorted(c) for c in sc.case_constants] == [["cone_aut_dim", "h1_general_fiber"]] * 2
    assert sc.case_constants[1]["cone_aut_dim"].value == 53


@pytest.mark.parametrize("runner", [run_cayley, run_adjunction_audit])
def test_runners_needing_a_zero_locus_reject_a_scenario_without_one(runner):
    with pytest.raises(ValueError, match="scenario 'vmrt' defines no zero locus"):
        runner(load_scenario("vmrt"))


def test_theorem1_audit_values():
    rep = run_theorem1_audit()
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
    rep = run_theorem1_audit()
    for key in ("cone_aut_dim_sl6_mod_sp6", "cone_aut_dim_e6_mod_f4"):
        line = rep.line(key)
        assert line.source == "external"
        assert "Fu-Hwang" in line.provenance


def test_adjunction_audit_values():
    rep = run_adjunction_audit()
    assert rep.passed
    v = rep.values()
    assert v["ambient_canonical_twist"] == -7
    assert v["section_det_twist"] == 3
    assert v["subvariety_canonical_twist"] == -4
    assert v["ambient_dim"] == 12
    assert v["subvariety_dim"] == 8
    assert v["fano_index"] == 4


def test_reports_render_text():
    for runner in (run_cayley, run_vmrt_audit, run_theorem1_audit, run_adjunction_audit):
        text = runner().to_text()
        assert "== result: PASS ==" in text


def test_report_json_round_trip():
    doc = run_cayley().to_dict()
    assert json.loads(json.dumps(doc)) == doc


def test_lines_that_cannot_fail_are_informational():
    # h1_upper_bound is (aut_dim + 1) - aut_dim, and sub_twist is set to the sum it was checked against
    t, a = run_theorem1_audit(), run_adjunction_audit()
    for line in (
        t.line("h1_upper_bound_sl6_mod_sp6"),
        t.line("h1_upper_bound_e6_mod_f4"),
        a.line("subvariety_canonical_twist"),
    ):
        assert line.passed is None, line.key


def test_the_scope_section_lists_each_constant_read_and_only_when_one_was_read(tmp_path):
    data = json.loads(json.dumps(load_scenario("theorem1").raw))
    data["cases"] = [case for case in data["cases"] if case["name"] == "e6_mod_f4"]
    p = tmp_path / "one_case.json"
    p.write_text(json.dumps(data))
    rep = run_theorem1_audit(load_scenario(p))
    scope = rep.sections[-1]
    assert scope.title == "Scope: externally sourced inputs and non-claims"
    assert [ln.key for ln in scope.lines] == [
        "non_claim_global_rigidity",
        "non_claim_prolongation",
        "input_0_cone_aut_dim",
        "input_1_h1_general_fiber",
    ]
    assert rep.line("input_0_cone_aut_dim").value == 53
    assert all(ln.source == "external" and ln.provenance.strip() for ln in scope.lines)
    data["cases"] = []
    p.write_text(json.dumps(data))
    assert run_theorem1_audit(load_scenario(p)).sections == ()
    # the dimension audit and the adjunction report read no constant, so they have no scope section
    for rep in (run_vmrt_audit(), run_adjunction_audit()):
        assert all(not sec.title.startswith("Scope") for sec in rep.sections)
