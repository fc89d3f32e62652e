"""The mutation gate's table stays applicable: the gate itself (``python tests/mutants.py``) runs
outside tier 1, so a source edit that moves an old text, or a renamed test, shows here first."""

import hashlib
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, SRC

# each case by its file and a digest of its old text, so that adding or removing a mutant renames no other;
# a first line would not do, as the two _MAX_RANK = 100 mutants share theirs
IDS = [f"{file}-{hashlib.sha256(old.encode()).hexdigest()[:8]}" for file, old, _, _ in MUTANTS]


def test_the_gate_holds_at_least_twelve_distinct_mutants():
    assert len(MUTANTS) >= 12
    assert len({(file, old) for file, old, _, _ in MUTANTS}) == len(MUTANTS)
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("file,old,new,test", MUTANTS, ids=IDS)
def test_each_mutant_changes_one_text_that_occurs_once_and_names_a_test_that_exists(file, old, new, test):
    assert (SRC / "gpcoh" / file).read_text(encoding="utf-8").count(old) == 1
    assert new != old
    path, _, name = test.partition("::")
    assert f"\ndef {name}(" in Path(ROOT, path).read_text(encoding="utf-8")
