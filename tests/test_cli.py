import json
import re

import pytest

from gpcoh.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, json.loads(out), err


def test_roots_command(capsys):
    code, doc, _ = run_json(capsys, "roots", "A", "6")
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["result"]["num_positive_roots"] == 21
    assert doc["result"]["adjoint_dimension"] == 48
    assert doc["failures"] == []


def test_roots_g2(capsys):
    code, doc, _ = run_json(capsys, "roots", "G", "2")
    assert code == 0
    assert doc["result"]["num_positive_roots"] == 6
    assert doc["result"]["adjoint_dimension"] == 14


def test_roots_invalid_type_exits_nonzero_with_diagnostic(capsys):
    code, out, err = run(capsys, "roots", "Z", "9")
    assert code == 2
    assert "valid types" in err


def test_roots_invalid_type_json_error(capsys):
    code, doc, _ = run_json(capsys, "roots", "Z", "9")
    assert code == 2
    assert "valid types" in doc["error"]


def test_bwb_singular_weight(capsys):
    code, doc, _ = run_json(
        capsys, "bwb", "A", "6", "--crossed", "4", "--weight", "0,0,1,-3,0,0"
    )
    assert code == 0
    assert doc["result"]["outcome"] == "all_vanish"


def test_bwb_tangent_weight(capsys):
    code, doc, _ = run_json(
        capsys, "bwb", "A", "6", "--crossed", "4", "--weight", "1,0,0,0,0,1"
    )
    assert code == 0
    assert doc["result"]["degree"] == 0
    assert doc["result"]["dimension"] == 48


def test_bwb_negative_line_bundle_on_p1(capsys):
    code, doc, _ = run_json(capsys, "bwb", "A", "1", "--crossed", "1", "--weight", "-1")
    assert code == 0
    assert doc["result"]["outcome"] == "all_vanish"


def test_bwb_bad_weight_length(capsys):
    code, doc, _ = run_json(capsys, "bwb", "A", "6", "--crossed", "4", "--weight", "1,2")
    assert code == 2
    assert "coefficients" in doc["error"]


def test_lr_pieri(capsys):
    code, doc, _ = run_json(capsys, "lr", "1,1,1", "1", "--rows", "4")
    assert code == 0
    table = {tuple(e["partition"]): e["coefficient"] for e in doc["result"]["coefficients"]}
    assert table == {(2, 1, 1): 1, (1, 1, 1, 1): 1}


def test_lr_dimension_sum(capsys):
    code, doc, _ = run_json(capsys, "lr", "2,1", "2,1", "--rows", "3")
    assert code == 0
    assert doc["result"]["gl_dimension_sum"] == 64


def test_koszul_normal_twist(capsys):
    code, doc, _ = run_json(capsys, "koszul", "--scenario", "cayley.json", "--twist", "normal")
    assert code == 0
    assert doc["result"]["determined"] is True
    assert doc["result"]["table"]["degrees"]["0"]["total"] == 34
    assert doc["result"]["hints_used"] == [
        {"target_term": 0, "degree": 0, "rank": 1, "origin": "default_maximal"}
    ]


def test_koszul_tangent_twist(capsys):
    code, doc, _ = run_json(capsys, "koszul", "--scenario", "cayley", "--twist", "tangent")
    assert code == 0
    degrees = doc["result"]["table"]["degrees"]
    assert degrees == {"0": {"total": 48}}
    assert doc["result"]["hints_used"] == []


def test_koszul_trivial_twist(capsys):
    code, doc, _ = run_json(capsys, "koszul", "--scenario", "cayley", "--twist", "trivial")
    assert code == 0
    assert doc["result"]["table"]["degrees"]["0"]["total"] == 1


def test_koszul_unknown_twist(capsys):
    code, doc, _ = run_json(capsys, "koszul", "--scenario", "cayley", "--twist", "bogus")
    assert code == 2
    assert "no twist" in doc["error"]


def test_koszul_on_a_scenario_without_a_zero_locus_exits_2_naming_it(capsys):
    code, out, err = run(capsys, "koszul", "--scenario", "vmrt", "--twist", "normal")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "'vmrt'" in err and "zero locus" in err


def test_a_key_error_prints_its_message_unquoted_in_both_formats(capsys):
    expected = "scenario 'adjunction' has no twist 'normal'; known: none"
    code, out, err = run(capsys, "koszul", "--scenario", "adjunction", "--twist", "normal")
    assert (code, out, err) == (2, "", f"error: {expected}\n")
    code, doc, err = run_json(capsys, "koszul", "--scenario", "adjunction", "--twist", "normal")
    assert (code, doc["error"], err) == (2, expected, "")


def test_indeterminate_koszul_exits_nonzero_with_failure_list(capsys, tmp_path):
    from gpcoh import load_scenario

    data = json.loads(json.dumps(load_scenario("cayley").raw))
    data["rank_hints"] = [{"target_term": 0, "degree": 0, "rank": 0}]
    p = tmp_path / "sabotaged.json"
    p.write_text(json.dumps(data))
    code, doc, _ = run_json(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 1
    assert doc["failures"][0]["kind"] == "indeterminate_chase"
    assert doc["failures"][0]["blocking_positions"] == [[0, 0]]


@pytest.mark.parametrize("name", ["cayley", "vmrt", "theorem1", "adjunction"])
def test_reports_exit_zero(capsys, name):
    code, doc, _ = run_json(capsys, "report", name)
    assert code == 0
    assert doc["result"]["passed"] is True
    assert doc["failures"] == []


def test_report_text_and_json_carry_the_same_numbers(capsys):
    code, doc, _ = run_json(capsys, "report", "cayley")
    assert code == 0
    code2, text, _ = run(capsys, "report", "cayley")
    assert code2 == 0
    for line in doc["result"]["sections"][1]["lines"]:
        if isinstance(line["value"], int):
            assert re.search(rf"\b{line['value']}\b", line["text"])
            assert line["text"] in text


def test_bwb_text_and_json_numbers_agree(capsys):
    _, doc, _ = run_json(capsys, "bwb", "A", "6", "--crossed", "4", "--weight", "1,0,0,0,0,1")
    _, text, _ = run(capsys, "bwb", "A", "6", "--crossed", "4", "--weight", "1,0,0,0,0,1")
    assert f"H^{doc['result']['degree']}" in text
    assert str(doc["result"]["dimension"]) in text


def test_json_documents_echo_the_command(capsys):
    _, doc, _ = run_json(capsys, "lr", "1", "1", "--rows", "2")
    assert doc["command"] == {"name": "lr", "args": {"mu": "1", "nu": "1", "rows": 2}}


def test_bare_builtin_name_ignores_a_local_file_of_that_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cayley").write_text("not a scenario")
    code, doc, _ = run_json(capsys, "report", "cayley")
    assert code == 0
    code, doc, _ = run_json(capsys, "koszul", "--scenario", "cayley", "--twist", "normal")
    assert code == 0
    assert doc["result"]["table"]["degrees"]["0"]["total"] == 34


def test_local_file_named_like_a_builtin_is_reached_with_a_directory_part(
    capsys, tmp_path, monkeypatch
):
    from gpcoh import load_scenario

    data = json.loads(json.dumps(load_scenario("cayley").raw))
    data["name"] = "local copy"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cayley").write_text(json.dumps(data))
    code, doc, _ = run_json(capsys, "koszul", "--scenario", "./cayley", "--twist", "normal")
    assert code == 0
    assert doc["result"]["scenario"] == "local copy"


def test_unparsable_scenario_file_is_named_in_the_error(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("not a scenario")
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(p) in err
    assert "Expecting value" in err


def _cayley_copy(tmp_path, edit):
    from gpcoh import load_scenario

    data = json.loads(json.dumps(load_scenario("cayley").raw))
    edit(data)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(data))
    return p


def test_a_provided_hint_at_capacity_zero_is_listed(capsys, tmp_path):
    p = _cayley_copy(
        tmp_path, lambda d: d.update(rank_hints=[{"target_term": 2, "degree": 3, "rank": 0}])
    )
    code, doc, _ = run_json(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 0
    assert {"target_term": 2, "degree": 3, "rank": 0, "origin": "provided"} in doc["result"][
        "hints_used"
    ]


def test_a_missing_ambient_key_names_the_file_the_block_and_the_key(capsys, tmp_path):
    p = _cayley_copy(tmp_path, lambda d: d["ambient"].pop("type"))
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert str(p) in err and "'ambient'" in err and "'type'" in err


def test_a_missing_hint_key_names_the_file_the_block_and_the_key(capsys, tmp_path):
    p = _cayley_copy(tmp_path, lambda d: d.update(rank_hints=[{"target_term": 0, "degree": 0}]))
    code, doc, _ = run_json(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert str(p) in doc["error"] and "rank_hints[0]" in doc["error"] and "'rank'" in doc["error"]


def _set_constant(d, **kv):
    d["external_constants"][0].update(kv)


def _drop_constant_name(d):
    d["external_constants"][0].pop("name")


# JSON values of the wrong type, and the block and key each error must name
@pytest.mark.parametrize(
    "edit,block,key",
    [
        (lambda d: d["ambient"].update(crossed=4), "ambient", "crossed"),
        (lambda d: d["ambient"].update(crossed=[4.0]), "ambient", "crossed[0]"),
        (lambda d: d["ambient"].update(rank=6.5), "ambient", "rank"),
        (lambda d: d["ambient"].update(rank=True), "ambient", "rank"),
        (lambda d: d.update(external_constants=["x"]), "top level", "external_constants[0]"),
        (lambda d: _set_constant(d, value=None), "external_constants[0]", "value"),
        (lambda d: _set_constant(d, value=14.9), "external_constants[0]", "value"),
        (_drop_constant_name, "external_constants[0]", "name"),
        (lambda d: _set_constant(d, name=""), "external_constants[0]", "name"),
        (
            lambda d: d.update(rank_hints=[{"target_term": None, "degree": 0, "rank": 0}]),
            "rank_hints[0]",
            "target_term",
        ),
        (lambda d: d.update(section_bundle=5), "top level", "section_bundle"),
        (lambda d: d.update(rank_hints=[5]), "top level", "rank_hints[0]"),
        (lambda d: d.update(cases=[5]), "top level", "cases[0]"),
    ],
    ids=[
        "crossed-int", "crossed-float-item", "rank-float", "rank-bool", "constant-not-object",
        "value-null", "value-float", "name-missing", "name-empty", "hint-term-null",
        "section-int", "hint-not-object", "case-not-object",
    ],
)
def test_a_wrongly_typed_value_names_the_file_the_block_and_the_key(
    capsys, tmp_path, edit, block, key
):
    p = _cayley_copy(tmp_path, edit)
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(p) in err and f"block '{block}'" in err and f"key '{key}'" in err


def test_an_unknown_top_level_key_is_rejected(capsys, tmp_path):
    # a misspelled rank_hints would silently drop a hint that blocks the chase
    def rename(d):
        d.pop("rank_hints")
        d["rank_hint"] = [{"target_term": 0, "degree": 0, "rank": 0}]

    p = _cayley_copy(tmp_path, rename)
    code, doc, _ = run_json(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert str(p) in doc["error"] and "'rank_hint'" in doc["error"]


@pytest.mark.parametrize(
    "edit,found",
    [(lambda d: d.update(schema_version=99), "99"), (lambda d: d.pop("schema_version"), "missing")],
    ids=["unsupported", "missing"],
)
def test_an_unsupported_or_missing_schema_version_is_rejected(capsys, tmp_path, edit, found):
    p = _cayley_copy(tmp_path, edit)
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert str(p) in err and f"schema_version {found} is not supported" in err


def test_a_blocked_chase_shows_its_unreached_hints(capsys, tmp_path):
    def edit(d):
        d["twists"] = [{"name": "o2", "label": "O(2)"}]
        d["rank_hints"] = [
            {"target_term": 1, "degree": 0, "rank": 0},
            {"target_term": 0, "degree": 0, "rank": 1},
        ]

    p = _cayley_copy(tmp_path, edit)
    code, doc, _ = run_json(capsys, "koszul", "--scenario", str(p), "--twist", "o2")
    assert code == 1
    assert doc["result"]["hints_unreached"] == [{"target_term": 0, "degree": 0, "rank": 1}]
    code, text, _ = run(capsys, "koszul", "--scenario", str(p), "--twist", "o2")
    assert "not reached: provided hint at term 0 degree 0 rank 1" in text
