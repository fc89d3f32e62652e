"""Byte-for-byte CLI output of the shipped reports, the Cayley chases, three
Borel-Weil-Bott runs (a walk of length 77 on E8/P(1), a weight whose rho-shift
lies on a wall with no zero coefficient, and H^1 of O(-2) on P^1) and one chase
that blocks (LG(3,6) twisted by S5 U* (-4), from ``tests/data/lg36.json``).

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
] + [
    (f"bwb_{name}.json", ["--format", "json", "bwb", *args])
    for name, args in (
        ("e8_p1_nonvanishing", ["E", "8", "--crossed", "1", "--weight=-26,1,0,0,0,0,0,2"]),
        ("e8_p1_vanishing", ["E", "8", "--crossed", "1", "--weight=-10,0,0,0,0,0,0,0"]),
        ("a1_h1", ["A", "1", "--crossed", "1", "--weight", "-2"]),
    )
]
LG36 = (
    "koszul_lg36_blocked.json",
    ["--format", "json", "koszul", "--scenario", "tests/data/lg36.json", "--twist", "s5"],
)
# every golden command with the exit status it must give, run from the repository root; the CI
# "Shipped reports" step reads this list and runs each command as a fresh process
COMMANDS = [(filename, argv, 0) for filename, argv in CASES] + [(*LG36, 1)]


@pytest.mark.parametrize("filename,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden_file(capsys, filename, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / filename).read_text()



def test_a_chase_that_nothing_forces_blocks_as_in_its_golden_file(capsys, monkeypatch):
    # the JSON echoes the scenario path, so it is given relative to the repository root
    monkeypatch.chdir(GOLDEN.parents[1])
    filename, argv = LG36
    assert main(argv) == 1
    assert capsys.readouterr().out == (GOLDEN / filename).read_text()
