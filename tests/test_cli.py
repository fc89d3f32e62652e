import json
import math
import re
from pathlib import Path

import pytest

from gpcoh import cli
from gpcoh.cli import main

from conftest import a_type_positive_roots, hook_content_dimension, run_python, shipped_scenario


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


def test_bwb_an_unparsable_crossed_node_exits_2_with_one_line(capsys):
    code, out, err = run(capsys, "bwb", "A", "2", "--crossed", "1,x", "--weight", "0,0")
    assert code == 2
    assert out == ""
    assert err == "error: cannot parse crossed nodes from '1,x'\n"


def test_bwb_a_crossed_node_given_twice_exits_2_with_one_line(capsys):
    code, out, err = run(capsys, "bwb", "A", "6", "--crossed", "4,4", "--weight", "0,0,0,1,0,0")
    assert code == 2
    assert out == ""
    assert err == "error: crossed node 4 is given twice in (4, 4)\n"


def test_bwb_a_fractional_weight_coefficient_exits_2_with_one_line(capsys):
    code, out, err = run(capsys, "bwb", "A", "2", "--crossed", "1", "--weight", "1.5,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1.5,0" in err


def test_lr_pieri(capsys):
    code, doc, _ = run_json(capsys, "lr", "1,1,1", "1", "--rows", "4")
    assert code == 0
    table = {tuple(e["partition"]): e["coefficient"] for e in doc["result"]["coefficients"]}
    assert table == {(2, 1, 1): 1, (1, 1, 1, 1): 1}


def test_lr_dimension_sum(capsys):
    code, doc, _ = run_json(capsys, "lr", "2,1", "2,1", "--rows", "3")
    assert code == 0
    assert doc["result"]["gl_dimension_sum"] == 64


def test_lr_json_of_the_five_staircase_squared_on_ten_rows(capsys):
    code, doc, _ = run_json(capsys, "lr", "5,4,3,2,1", "5,4,3,2,1", "--rows", "10")
    assert code == 0
    entries = doc["result"]["coefficients"]
    assert len(entries) == 1433
    assert sum(e["coefficient"] for e in entries) == 26704
    assert doc["result"]["gl_dimension_sum"] == hook_content_dimension((5, 4, 3, 2, 1), 10) ** 2


def _gpcoh(*argv):
    """``gpcoh argv`` in a fresh process, bounded by 10 s."""
    return run_python("-m", "gpcoh.cli", *argv)


def test_lr_on_150_rows_finishes_in_seconds_with_the_hook_content_dimensions():
    # in a fresh process, so that no earlier test has warmed a memo
    proc = _gpcoh("--format", "json", "lr", "2,1", "2,1", "--rows", "150")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert len(result["coefficients"]) == 7
    for entry in result["coefficients"]:
        assert entry["gl_dimension"] == hook_content_dimension(entry["partition"], 150)
    assert result["gl_dimension_sum"] == hook_content_dimension((2, 1), 150) ** 2


def test_lr_on_a_twenty_digit_row_bound_finishes_with_its_dimensions():
    # a GL(r) dimension needs no root system, so the row bound does not set the work
    r = 99999999999999999999
    proc = _gpcoh("--format", "json", "lr", "1", "1", "--rows", str(r))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    dims = {tuple(e["partition"]): e["gl_dimension"] for e in result["coefficients"]}
    assert dims == {(2,): r * (r + 1) // 2, (1, 1): r * (r - 1) // 2}
    assert result["gl_dimension_sum"] == r * r


def test_lr_of_a_million_box_row_finishes_with_its_dimensions():
    # a GL(r) dimension is a product over pairs of nonzero rows, so a long row does not set the work
    proc = _gpcoh("--format", "json", "lr", "1000000", "1", "--rows", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    dims = {tuple(e["partition"]): e["gl_dimension"] for e in result["coefficients"]}
    assert dims[(1000001,)] == math.comb(1000003, 2)
    assert result["gl_dimension_sum"] == 3 * math.comb(1000002, 2)


def test_a_twenty_digit_rank_exits_2_with_one_line_at_once():
    # the rank is bounded where it enters, before any Cartan matrix is built
    proc = _gpcoh("roots", "A", "99999999999999999999")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: invalid rank 99999999999999999999 for type A; valid range: 1 <= n <= 100\n"
    )


def test_roots_of_a100_are_its_5050_intervals_and_a101_exits_2_naming_the_range():
    # the largest system any check builds; the 10 s bound fails a builder that grows as rank^4 again
    proc = _gpcoh("--format", "json", "roots", "A", "100")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["num_positive_roots"] == 5050
    assert set(map(tuple, result["positive_roots"])) == a_type_positive_roots(100)
    proc = _gpcoh("roots", "A", "101")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: invalid rank 101 for type A; valid range: 1 <= n <= 100\n"


def test_bwb_of_o_minus_150_on_p100_walks_every_reflection_to_h100():
    # O(-150) on P^100 = A100/P(1): Serre duality gives H^100 = H^0(O(49))^*, of dimension C(149, 100);
    # the rho-shifted weight needs all 100 reflections, where -50 omega_1 meets a wall
    weight = ",".join(["-150"] + ["0"] * 99)
    proc = _gpcoh("--format", "json", "bwb", "A", "100", "--crossed", "1", f"--weight={weight}")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert (result["outcome"], result["degree"]) == ("cohomology", 100)
    assert result["dimension"] == math.comb(149, 100) == 6709553636577310764746744793643105249380
    assert result["cohomology_weight"] == [49] + [0] * 99


def test_a_scenario_ambient_of_rank_2_to_the_70_exits_2_naming_the_block_and_the_key(tmp_path):
    p = _cayley_copy(tmp_path, lambda d: d["ambient"].update(rank=2**70))
    proc = _gpcoh("koszul", "--scenario", str(p), "--twist", "normal")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert str(p) in proc.stderr and "block 'ambient'" in proc.stderr and "key 'rank'" in proc.stderr


def test_koszul_normal_twist(capsys):
    code, doc, _ = run_json(capsys, "koszul", "--scenario", "cayley.json", "--twist", "normal")
    assert code == 0
    assert doc["result"]["determined"] is True
    assert doc["result"]["table"]["degrees"]["0"]["total"] == 34
    assert doc["result"]["hints_used"] == [
        {"target_term": 0, "degree": 0, "rank": 1, "origin": "forced"}
    ]
    code, text, _ = run(capsys, "koszul", "--scenario", "cayley", "--twist", "normal")
    assert "  forced H^0(A_1) -> H^0(C_0) rank 1" in text.splitlines()
    assert "assumed" not in text


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


def test_koszul_on_an_acyclic_twist_says_every_term_and_the_restriction_vanish(capsys, tmp_path):
    # O(-1) on the Cayley Grassmannian S, Fano of index 4: Kodaira vanishing and Serre duality
    # (K_S = O(-4)) kill all of H^*(O(-1)|_S), and each term Lambda^(4-j) U (x) O(-j) is acyclic
    p = _cayley_copy(tmp_path, lambda d: d.update(twists=[{"name": "minus", "label": "O(-1)"}]))
    code, out, _ = run(capsys, "koszul", "--scenario", str(p), "--twist", "minus")
    assert code == 0
    assert "every term of the resolution is acyclic" in out.splitlines()
    assert out.splitlines()[-1] == "all cohomology of the restriction vanishes"


def test_koszul_unknown_twist(capsys):
    code, doc, _ = run_json(capsys, "koszul", "--scenario", "cayley", "--twist", "bogus")
    assert code == 2
    assert "no twist" in doc["error"]


def test_koszul_on_a_scenario_without_a_zero_locus_exits_2_naming_it(capsys):
    # an audit file is read against the zero-locus file kind, which declares no cases
    code, out, err = run(capsys, "koszul", "--scenario", "vmrt", "--twist", "normal")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: scenario file 'vmrt': block 'top level' has unknown key 'cases'; known: ")


def test_an_unknown_twist_names_the_file_in_both_formats(capsys):
    expected = "scenario file 'adjunction': block 'twists' has no twist 'normal'; known: none"
    code, out, err = run(capsys, "koszul", "--scenario", "adjunction", "--twist", "normal")
    assert (code, out, err) == (2, "", f"error: {expected}\n")
    code, doc, err = run_json(capsys, "koszul", "--scenario", "adjunction", "--twist", "normal")
    assert (code, doc["error"], err) == (2, expected, "")


def test_indeterminate_koszul_exits_nonzero_with_failure_list(capsys):
    # LG(3,6) twisted by S5 U* (-4): the bounds leave the ranks at (2, 6) and (1, 6) open
    code, doc, _ = run_json(capsys, "koszul", "--scenario", str(LG36), "--twist", "s5")
    assert code == 1
    assert doc["failures"] == [{"kind": "indeterminate_chase", "blocking_positions": [[2, 6], [1, 6]]}]
    code, text, _ = run(capsys, "koszul", "--scenario", str(LG36), "--twist", "s5")
    assert "chase is indeterminate; blocking positions: (2, 6), (1, 6)" in text.splitlines()


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


@pytest.mark.parametrize(
    "argv,args",
    [
        (("roots", "A", "3"), {"type": "A", "rank": 3}),
        (
            ("bwb", "A", "3", "--crossed", "2", "--weight=1,0,0"),
            {"type": "A", "rank": 3, "crossed": "2", "weight": "1,0,0"},
        ),
        (("lr", "1", "1", "--rows", "2"), {"mu": "1", "nu": "1", "rows": 2}),
        (
            ("koszul", "--scenario", "cayley", "--twist", "normal"),
            {"scenario": "cayley", "twist": "normal"},
        ),
        (("report", "vmrt"), {"name": "vmrt"}),
    ],
    ids=["roots", "bwb", "lr", "koszul", "report"],
)
def test_json_documents_echo_the_command(capsys, argv, args):
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert doc["command"] == {"name": argv[0], "args": args}


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
    data = shipped_scenario("cayley")
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


@pytest.mark.parametrize(
    "text", ["[" * 100_000 + "]" * 100_000, '{"schema_version": 1, "x": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["array", "object"],
)
def test_a_scenario_nested_past_the_decoder_depth_exits_2_naming_the_file(capsys, tmp_path, text):
    p = tmp_path / "deep.json"
    p.write_text(text)
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: scenario file {str(p)!r} is not valid JSON: ") and err.count("\n") == 1
    assert "recursion" in err


@pytest.mark.parametrize(
    "once,twice,key",
    [
        ('"section_bundle": "L3 U*"', '"section_bundle": "O(1)", "section_bundle": "L3 U*"', "section_bundle"),
        ('"name": "normal", "label": "L3 U*"', '"name": "normal", "label": "O(1)", "label": "L3 U*"', "label"),
    ],
    ids=["top-level", "twists[1]"],
)
def test_a_key_given_twice_in_one_object_exits_2_naming_the_file_and_the_key(capsys, tmp_path, once, twice, key):
    # JSON alone keeps the last value, so either copy would run on L3 U* without a word
    text = json.dumps(shipped_scenario("cayley"))
    assert text.count(once) == 1
    p = tmp_path / "repeated.json"
    p.write_text(text.replace(once, twice))
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert (code, out) == (2, "")
    assert err == f"error: scenario file {str(p)!r}: key {key!r} is given twice in one object\n"


def _cayley_copy(tmp_path, edit):
    data = shipped_scenario("cayley")
    edit(data)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(data))
    return p


LG36 = Path(__file__).resolve().parent / "data" / "lg36.json"


@pytest.mark.parametrize(
    "base,edit,twist,reason",
    [
        (
            "cayley",
            lambda d: d.update(section_bundle="L3 U* * L3 U*"),
            "normal",
            "rank 16 section bundle on a 12-dimensional space violates the expected codimension condition",
        ),
        (
            "lg36",
            lambda d: d["ambient"].update(crossed=[4]),
            "s5",
            "unsupported plethysm shape: Lambda^1 of L2 U",
        ),
    ],
    ids=["rank-above-dimension", "plethysm"],
)
def test_a_section_the_engine_rejects_names_the_file_and_the_keys(capsys, tmp_path, base, edit, twist, reason):
    data = shipped_scenario("cayley") if base == "cayley" else json.loads(LG36.read_text())
    edit(data)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", twist)
    assert (code, out) == (2, "")
    assert err == f"error: scenario file {str(p)!r}: block 'top level' key 'section_bundle': {reason}\n"


# a summand with no global sections makes every section non-regular: the loader rejects it, in
# Borel-Weil-Bott degree 0 and not merely for vanishing (O(-8) has only H^12), before any chase
@pytest.mark.parametrize(
    "section,summand",
    [("O(-1)", "O(-1)"), ("U", "U"), ("O(-8)", "O(-8)"), ("U * U*", "W[2,1,1] U (1)")],
    ids=["O(-1)", "U", "O(-8)", "one-summand-of-two"],
)
def test_a_section_with_no_global_sections_exits_2_naming_the_file_and_the_key(
    capsys, tmp_path, section, summand
):
    p = _cayley_copy(tmp_path, lambda d: d.update(section_bundle=section, twists=[{"name": "o", "label": "O"}]))
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "o")
    assert (code, out) == (2, "")
    assert err == (
        f"error: scenario file {str(p)!r}: block 'top level' key 'section_bundle': "
        f"summand {summand} has no global sections, so no section is regular\n"
    )


def test_a_provided_hint_at_capacity_zero_is_listed(capsys, tmp_path):
    p = _cayley_copy(
        tmp_path, lambda d: d["twists"][1].update(rank_hints=[{"target_term": 2, "degree": 3, "rank": 0}])
    )
    code, doc, _ = run_json(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 0
    assert {"target_term": 2, "degree": 3, "rank": 0, "origin": "provided"} in doc["result"][
        "hints_used"
    ]
    code, text, _ = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert "  assumed H^3(A_3) -> H^3(C_2) rank 0" in text.splitlines()


def test_a_missing_ambient_key_names_the_file_the_block_and_the_key(capsys, tmp_path):
    p = _cayley_copy(tmp_path, lambda d: d["ambient"].pop("type"))
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert str(p) in err and "'ambient'" in err and "'type'" in err


def test_a_missing_hint_key_names_the_file_the_block_and_the_key(capsys, tmp_path):
    p = _cayley_copy(tmp_path, lambda d: d["twists"][1].update(rank_hints=[{"target_term": 0, "degree": 0}]))
    code, doc, _ = run_json(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert str(p) in doc["error"] and "'twists[1].rank_hints[0]'" in doc["error"] and "'rank'" in doc["error"]


def _set_constant(d, **kv):
    d["external_constants"][0].update(kv)


def _drop_constant_name(d):
    d["external_constants"][0].pop("name")


def _set_twist_label(d, label):
    d["twists"][1]["label"] = label


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
        (lambda d: _set_constant(d, name="  "), "external_constants[0]", "name"),
        (
            lambda d: d["twists"][1].update(rank_hints=[{"target_term": None, "degree": 0, "rank": 0}]),
            "twists[1].rank_hints[0]",
            "target_term",
        ),
        (lambda d: d.update(section_bundle=5), "top level", "section_bundle"),
        (lambda d: d["twists"][1].update(rank_hints=[5]), "twists[1]", "rank_hints[0]"),
        # an empty section bundle, or none
        (lambda d: d.update(section_bundle=""), "top level", "section_bundle"),
        (lambda d: d.update(section_bundle=" "), "top level", "section_bundle"),
        (lambda d: d.pop("section_bundle"), "top level", "section_bundle"),
        # labels the grammar rejects, and names that repeat an earlier one
        (lambda d: _set_twist_label(d, "garbage"), "twists[1]", "label"),
        (lambda d: d.update(section_bundle="S2 U*x"), "top level", "section_bundle"),
        (lambda d: _set_twist_label(d, "L5 U*"), "twists[1]", "label"),
        (lambda d: d["twists"].append({"name": "normal", "label": "O"}), "twists[3]", "name"),
        (
            lambda d: d["external_constants"].append(dict(d["external_constants"][0], value=15)),
            "external_constants[1]",
            "name",
        ),
        # a constant must say where its value comes from
        (lambda d: _set_constant(d, provenance=""), "external_constants[0]", "provenance"),
        (lambda d: _set_constant(d, provenance="  "), "external_constants[0]", "provenance"),
        (lambda d: d["external_constants"][0].pop("provenance"), "external_constants[0]", "provenance"),
        (lambda d: _set_constant(d, provenance=7), "external_constants[0]", "provenance"),
    ],
    ids=[
        "crossed-int", "crossed-float-item", "rank-float", "rank-bool", "constant-not-object",
        "value-null", "value-float", "name-missing", "name-empty", "name-blank", "hint-term-null",
        "section-int", "hint-not-object",
        "section-empty", "section-blank", "section-missing",
        "twist-label-garbage", "section-unparsable", "twist-exterior-power-too-large",
        "twist-name-repeated", "constant-name-repeated",
        "provenance-empty", "provenance-blank", "provenance-missing", "provenance-int",
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


# bundle labels live on Gr(k, n) = A(n-1)/P(k) only; schur alone checks it, and the loader
# prefixes the file, the block and the key to its one message
@pytest.mark.parametrize("ambient", [{"type": "D", "rank": 6, "crossed": [6]},
                                     {"type": "A", "rank": 6, "crossed": [3, 4]}], ids=["D6-P6", "A6-P34"])
def test_a_scenario_off_a_grassmannian_exits_2_with_the_schur_message(capsys, tmp_path, ambient):
    p = _cayley_copy(tmp_path, lambda d: d.update(ambient=ambient))
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert out == ""
    space = "D6/P(6)" if ambient["type"] == "D" else "A6/P(3,4)"
    assert err == (
        f"error: scenario file {str(p)!r}: block 'top level' key 'ambient': "
        f"label on Gr(k,n) needs the space A(n-1)/P(k), got {space}\n"
    )


# well-typed values that the engine rejects, and the key each error must name
@pytest.mark.parametrize(
    "edit,key,reason",
    [
        (lambda d: d["ambient"].update(type="Z"), "type", "unknown type 'Z'"),
        (lambda d: d["ambient"].update(rank=0), "rank", "invalid rank 0 for type A"),
        (lambda d: d["ambient"].update(crossed=[]), "crossed", "at least one crossed node"),
        (lambda d: d["ambient"].update(crossed=[9]), "crossed", "crossed nodes [9] out of range 1..6"),
        (lambda d: d["ambient"].update(crossed=[4, 4]), "crossed", "crossed node 4 is given twice in (4, 4)"),
    ],
    ids=["type", "rank", "crossed-empty", "crossed-out-of-range", "crossed-repeated"],
)
def test_an_invalid_root_system_block_names_the_file_the_block_and_the_key(
    capsys, tmp_path, edit, key, reason
):
    p = _cayley_copy(tmp_path, edit)
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"scenario file {str(p)!r}: block 'ambient' key {key!r}: " in err and reason in err


@pytest.mark.parametrize("key,value", [("name", 7), ("title", 7), ("description", ["a"])])
def test_a_top_level_string_of_another_type_names_the_file_and_the_key(
    capsys, tmp_path, key, value
):
    p = _cayley_copy(tmp_path, lambda d: d.update({key: value}))
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(p) in err and "block 'top level'" in err and f"key {key!r} must be a string" in err


def test_an_unknown_top_level_key_is_rejected(capsys, tmp_path):
    # rank hints belong to a twist: a top-level list would be read for no chase
    p = _cayley_copy(tmp_path, lambda d: d.update(rank_hints=[{"target_term": 0, "degree": 0, "rank": 0}]))
    code, doc, _ = run_json(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert code == 2
    assert str(p) in doc["error"] and "unknown key 'rank_hints'" in doc["error"]


# an unknown key in each block kind: (report whose shipped file is copied, path to the block,
# the block name the error must give, the key put in); the misspellings are typical ones, and
# a top-level key of another file kind is unknown too
UNKNOWN_KEY_PROBES = [
    ("cayley", (), "top level", "rank_hints"),
    ("cayley", (), "top level", "cases"),
    ("cayley", (), "top level", "extra_spaces"),
    ("vmrt", (), "top level", "external_constants"),
    ("theorem1", (), "top level", "ambient"),
    ("cayley", ("ambient",), "ambient", "crosed"),
    ("cayley", ("twists", 1), "twists[1]", "rank_hint"),
    ("cayley", ("twists", 1, "rank_hints", 0), "twists[1].rank_hints[0]", "degre"),
    ("cayley", ("external_constants", 0), "external_constants[0]", "provenence"),
    ("adjunction", ("ambient",), "ambient", "weight"),
    ("vmrt", ("cases", 0), "cases[0]", "hyperplane_section"),
    ("vmrt", ("cases", 0, "vmrt"), "cases[0].vmrt", "crosed"),
    ("vmrt", ("cases", 0, "symmetric_space"), "cases[0].symmetric_space", "fixed_group"),
    (
        "vmrt", ("cases", 0, "symmetric_space", "group_root_system"),
        "cases[0].symmetric_space.group_root_system", "crossed",
    ),
    (
        "vmrt", ("cases", 1, "symmetric_space", "subgroup_root_system"),
        "cases[1].symmetric_space.subgroup_root_system", "name",
    ),
    ("vmrt", ("cases", 1, "vmrt_ambient_rep"), "cases[1].vmrt_ambient_rep", "weights"),
    ("vmrt", ("cases", 0, "hyperplane_section_of"), "cases[0].hyperplane_section_of", "weight"),
    ("vmrt", ("extra_spaces", 1), "extra_spaces[1]", "crosed"),
    ("theorem1", ("cases", 0), "cases[0]", "aut_root_sytem"),
    ("theorem1", ("cases", 0, "aut_root_system"), "cases[0].aut_root_system", "crossed"),
    ("theorem1", ("cases", 1, "space_dim"), "cases[1].space_dim", "group"),
    ("theorem1", ("cases", 0, "space_dim", "group_root_system"), "cases[0].space_dim.group_root_system", "nme"),
    (
        "theorem1", ("cases", 1, "space_dim", "subgroup_root_system"),
        "cases[1].space_dim.subgroup_root_system", "crossed",
    ),
    ("theorem1", ("cases", 0, "cone_aut_semisimple"), "cases[0].cone_aut_semisimple", "weight"),
    (
        "theorem1", ("cases", 1, "external_constants", 1),
        "cases[1].external_constants[1]", "provenence",
    ),
]


@pytest.mark.parametrize(
    "report,path,block,key",
    UNKNOWN_KEY_PROBES,
    ids=[f"{r}:{b}" if path else f"{r}:{b}:{k}" for r, path, b, k in UNKNOWN_KEY_PROBES],
)
def test_an_unknown_key_in_any_block_exits_2_naming_the_file_the_block_and_the_key(
    capsys, tmp_path, monkeypatch, report, path, block, key
):
    from gpcoh import scenarios

    data = shipped_scenario(report)
    if report == "cayley":  # a hint the chase accepts, so the hint block exists
        data["twists"][1]["rank_hints"] = [{"target_term": 2, "degree": 3, "rank": 0}]
    target = data
    for step in path:
        target = target[step]
    target[key] = 0
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(data))
    # gpcoh report looks its runner up on the module, so the rebound one reads the edited copy
    runner = scenarios.REPORTS[report]
    monkeypatch.setattr(scenarios, runner.__name__, lambda: runner(str(p)))
    code, out, err = run(capsys, "report", report)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"scenario file {str(p)!r}: block {block!r} has unknown key {key!r}; known: " in err


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


def test_hints_that_contradict_exactness_exit_2_naming_the_file_and_the_twist(capsys, tmp_path):
    # rank 0 at (1, 0) breaks left exactness on O(2), so the two hints have no solution
    def edit(d):
        d["twists"] = [{"name": "o2", "label": "O(2)", "rank_hints": [
            {"target_term": 1, "degree": 0, "rank": 0},
            {"target_term": 0, "degree": 0, "rank": 1},
        ]}]

    p = _cayley_copy(tmp_path, edit)
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "o2")
    assert (code, out) == (2, "")
    assert err == (
        f"error: scenario file {str(p)!r}: block 'twists[0]' key 'rank_hints': the provided values "
        "contradict exactness: RankHint(target_term=1, degree=0, rank=0), RankHint(target_term=0, degree=0, rank=1)\n"
    )


def test_a_hint_above_its_term_dimension_exits_2_naming_the_file_and_the_twist(capsys, tmp_path):
    p = _cayley_copy(tmp_path, lambda d: d["twists"][1].update(
        rank_hints=[{"target_term": 0, "degree": 0, "rank": 100000}]
    ))
    code, out, err = run(capsys, "koszul", "--scenario", str(p), "--twist", "normal")
    assert (code, out) == (2, "")
    assert err == (
        f"error: scenario file {str(p)!r}: block 'twists[1]' key 'rank_hints': hint "
        "RankHint(target_term=0, degree=0, rank=100000) exceeds the maximal possible rank 35 = dim H^0(E_0)\n"
    )


# every kind of fault in the arguments, with the one line it prints
ARGUMENT_FAULTS = [
    ((), "no subcommand given; known: roots, bwb, lr, koszul, report"),
    (("nope",), "unknown subcommand 'nope'; known: roots, bwb, lr, koszul, report"),
    (("report", "cayley", "--bogus", "1"), "unknown option '--bogus' for subcommand 'report'; known: none"),
    (("--form", "json", "report", "cayley"), "unknown option '--form' before the subcommand; known: --format"),
    (("lr", "1", "1", "--rows"), "option --rows needs a value"),
    (("lr", "1", "1", "--rows", "--rows", "2"), "option --rows needs a value"),
    (("lr", "1", "1", "--rows", "2", "--rows=3"), "option --rows is given twice"),
    (("bwb", "A", "2", "--crossed", "1"), "subcommand 'bwb' lacks option --weight"),
    (("lr", "1", "1"), "subcommand 'lr' lacks option --rows"),
    (("koszul", "--twist", "normal"), "subcommand 'koszul' lacks option --scenario"),
    (("koszul", "--scenario", "cayley"), "subcommand 'koszul' lacks option --twist"),
    (("roots", "A", "2", "3"), "subcommand 'roots' got an extra argument '3'; it takes: type, rank"),
    (("roots", "A"), "subcommand 'roots' lacks argument 'rank'"),
    (("report",), "subcommand 'report' lacks argument 'name'"),
    (("koszul", "cayley", "--scenario", "cayley", "--twist", "normal"),
     "subcommand 'koszul' got an extra argument 'cayley'; it takes: none"),
    (("roots", "A", "x"), "argument 'rank' must be an integer, got 'x'"),
    (("lr", "1", "1", "--rows", "x"), "option --rows must be an integer, got 'x'"),
    (("report", "nope"), "argument 'name' must be one of cayley, vmrt, theorem1, adjunction, got 'nope'"),
    (("--format", "yaml", "report", "cayley"), "option --format must be one of text, json, got 'yaml'"),
    # an integer is an optional minus and ASCII digits: int() alone takes these
    (("roots", "A", "\u0663"), "argument 'rank' must be an integer, got '\u0663'"),
    (("roots", "A", "+3"), "argument 'rank' must be an integer, got '+3'"),
    (("lr", "2,1", "1", "--rows", "1_0"), "option --rows must be an integer, got '1_0'"),
    (("lr", "2,1", "\u0661", "--rows", "1"), "cannot parse partition from '\u0661'"),
    (("bwb", "A", "2", "--crossed", "1", "--weight", "\u0663,0"), "cannot parse weight from '\u0663,0'"),
    (("bwb", "A", "2", "--crossed", "\uff11", "--weight", "1,0"), "cannot parse crossed nodes from '\uff11'"),
]


@pytest.mark.parametrize("argv,message", ARGUMENT_FAULTS, ids=[" ".join(a) or "empty" for a, _ in ARGUMENT_FAULTS])
def test_an_argument_fault_exits_2_with_one_line_in_text_and_one_document_in_json(capsys, argv, message):
    # main returns the 2 itself: a SystemExit would escape and fail the test
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    code, out, err = run(capsys, "--format", "json", *argv)
    assert (code, err, out.count("\n")) == (2, "", 1)
    doc = json.loads(out)
    assert set(doc) == {"schema_version", "error"} and doc["schema_version"] == 1
    # under --format json the format is read first, so "--format yaml" is then a second one
    assert doc["error"] == ("option --format is given twice" if "--format" in argv else message)


def test_a_weight_that_starts_with_a_minus_is_read_as_the_value(capsys):
    code, doc, _ = run_json(capsys, "bwb", "A", "2", "--crossed", "1", "--weight", "-3,0")
    assert code == 0
    assert doc["command"]["args"]["weight"] == "-3,0"
    assert doc["result"]["weight"] == [-3, 0]


@pytest.mark.parametrize(
    "argv", [("--help",), ("-h",), ("--format", "json", "-h"), ("roots", "--help")], ids=" ".join
)
def test_help_prints_the_usage_block_naming_every_subcommand_and_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: gpcoh ")
    assert [line.split()[0] for line in out.splitlines()[2:]] == list(cli._COMMANDS)
