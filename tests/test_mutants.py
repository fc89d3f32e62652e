"""The mutation gate's table stays applicable: the gate itself (``python tests/mutants.py``) runs
outside tier 1, so a source edit that moves an old text, or a renamed test, shows here first."""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, SRC


def test_the_gate_holds_at_least_twelve_distinct_mutants():
    assert len(MUTANTS) >= 12
    assert len({(file, old) for file, old, _, _ in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("file,old,new,test", MUTANTS, ids=[f"{k}-{m[0]}" for k, m in enumerate(MUTANTS)])
def test_each_mutant_changes_one_text_that_occurs_once_and_names_a_test_that_exists(file, old, new, test):
    assert (SRC / "gpcoh" / file).read_text(encoding="utf-8").count(old) == 1
    assert new != old
    path, _, name = test.partition("::")
    assert f"\ndef {name}(" in Path(ROOT, path).read_text(encoding="utf-8")
