"""Byte-for-byte CLI output of the shipped reports, the Cayley chases, one chase
only the integer rank bounds solve (G2/P2 twisted by O(-7), from ``tests/data/g2p2.json``), three
Borel-Weil-Bott runs (a walk of length 77 on E8/P(1), a weight whose rho-shift
lies on a wall with no zero coefficient, and H^1 of O(-2) on P^1), one chase
that blocks (LG(3,6) twisted by S5 U* (-4), from ``tests/data/lg36.json``), one
chase refused because its file is an audit file, not a zero-locus one, and one refused
because its section bundle has no regular section (O(-1) on Gr(4,7), from
``tests/data/non_regular.json``). The text mode of every subcommand is pinned too: the reports,
one LR product and the positive roots of G2 in both formats, the Cayley normal chase, the E8
walk and the blocked chase with its ``failures:`` block.

The files under ``tests/golden/`` are the stdout of ``gpcoh`` for each
command below; any change to a number, a label or the formatting of these
outputs shows up here. Each command runs as a fresh ``python -m gpcoh.cli`` process from the
repository root, so its exit status passes through ``sys.exit`` and no memo is warm. Warnings are
errors in it, and a command that succeeds must write nothing to stderr.
"""

from pathlib import Path

import pytest

from conftest import run_python

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
    (
        "koszul_g2p2.json",
        ["--format", "json", "koszul", "--scenario", "tests/data/g2p2.json", "--twist", "o_minus_7"],
    )
] + [
    (f"bwb_{name}.json", ["--format", "json", "bwb", *args])
    for name, args in (
        ("e8_p1_nonvanishing", ["E", "8", "--crossed", "1", "--weight=-26,1,0,0,0,0,0,2"]),
        ("e8_p1_vanishing", ["E", "8", "--crossed", "1", "--weight=-10,0,0,0,0,0,0,0"]),
        ("a1_h1", ["A", "1", "--crossed", "1", "--weight", "-2"]),
    )
] + [
    (f"{name}.{ext}", ["--format", fmt, *args])
    for fmt, ext in (("text", "txt"), ("json", "json"))
    for name, args in (
        ("lr_21_21_rows3", ["lr", "2,1", "2,1", "--rows", "3"]),
        ("roots_g2", ["roots", "G", "2"]),
    )
] + [
    ("koszul_cayley_normal.txt", ["koszul", "--scenario", "cayley", "--twist", "normal"]),
    ("bwb_e8_p1_nonvanishing.txt", ["bwb", "E", "8", "--crossed", "1", "--weight=-26,1,0,0,0,0,0,2"]),
]
# commands that must fail, each with its exit status: a chase that nothing forces blocks, a chase
# on an audit file is refused because that file is not of the zero-locus kind, and a section with
# no global sections is refused at load
FAILING = [
    (
        "koszul_lg36_blocked.json",
        ["--format", "json", "koszul", "--scenario", "tests/data/lg36.json", "--twist", "s5"],
        1,
    ),
    (
        "koszul_lg36_blocked.txt",
        ["koszul", "--scenario", "tests/data/lg36.json", "--twist", "s5"],
        1,
    ),
    (
        "koszul_vmrt_not_a_zero_locus.json",
        ["--format", "json", "koszul", "--scenario", "vmrt", "--twist", "normal"],
        2,
    ),
    (
        "koszul_non_regular.json",
        ["--format", "json", "koszul", "--scenario", "tests/data/non_regular.json", "--twist", "o"],
        2,
    ),
]
# every golden command with the exit status it must give, run from the repository root
COMMANDS = [(filename, argv, 0) for filename, argv in CASES] + FAILING


@pytest.mark.parametrize("filename,argv,status", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_cli_output_matches_golden_file(filename, argv, status):
    # the g2p2, lg36 and non_regular JSON echo their scenario paths, given relative to the root
    proc = run_python("-m", "gpcoh.cli", *argv)
    assert proc.returncode == status, proc.stderr
    assert proc.stdout == (GOLDEN / filename).read_text()
    if status == 0:
        assert proc.stderr == ""  # a warning printed on the way, a ResourceWarning at exit included
