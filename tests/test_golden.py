"""Byte-for-byte CLI output of the shipped reports and Cayley chases.

The files under ``tests/golden/`` are the stdout of ``gpcoh`` for each
command below; any change to a number, a label or the formatting of these
outputs shows up here.
"""

from pathlib import Path

import pytest

from gpcoh.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (f"report_{name}.{ext}", ["--format", fmt, "report", name])
    for fmt, ext in (("text", "txt"), ("json", "json"))
    for name in ("cayley", "vmrt", "theorem1", "adjunction")
] + [
    (
        f"koszul_cayley_{twist}.json",
        ["--format", "json", "koszul", "--scenario", "cayley", "--twist", twist],
    )
    for twist in ("trivial", "normal", "tangent")
]


@pytest.mark.parametrize("filename,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden_file(capsys, filename, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / filename).read_text()


def test_report_script_writes_the_golden_results(tmp_path, capsys):
    import importlib.util
    import json

    script = Path(__file__).resolve().parents[1] / "scripts" / "run_rigidity_reports.py"
    spec = importlib.util.spec_from_file_location("run_rigidity_reports", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--json-dir", str(tmp_path)]) == 0
    for name in ("cayley", "vmrt", "theorem1", "adjunction"):
        golden = json.loads((GOLDEN / f"report_{name}.json").read_text())
        assert json.loads((tmp_path / f"{name}.json").read_text()) == golden["result"]
