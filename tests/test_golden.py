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

