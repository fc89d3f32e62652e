"""What the record types promise: a cold import without ``dataclasses``, copies and pickles
equal to the original, no public construction that skips validation, and no assignment."""

import ast
import copy
import functools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from gpcoh import bott, koszul, root_system, scenarios, schur
from gpcoh import (
    BundleLabel,
    BundleSum,
    Partition,
    ParabolicSpace,
    RankHint,
    Weight,
    build_root_system,
    bwb,
    load_scenario,
    run_cayley,
)

SRC = Path(__file__).resolve().parents[1] / "src"

VALIDATING = (Weight, Partition, BundleLabel, BundleSum, ParabolicSpace)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh process, since the test suite imports inspect itself; under -S no site hook
    # loads modules first, so the shipped data must be found without importlib.resources
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for flags, banned in (
        ((), {"dataclasses", "inspect"}),
        (("-S",), {"dataclasses", "inspect", "importlib.resources", "zipfile", "tempfile"}),
    ):
        code = f"import sys, gpcoh.cli; print(sorted({banned!r} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", flags


@functools.cache
def _samples() -> dict:
    """One instance of every record type, taken from a real run where one exists."""
    sc = load_scenario("cayley")
    complex_, result = sc.chase_twist("normal")
    report = run_cayley()
    label = complex_.terms[1].summands[0][0]
    records = [
        Weight((1, 0, -2)), label.u_part, label, sc.space, sc.space.rs,
        bwb(sc.space, Weight((0, 0, 0, 1, 0, 0))), result.term_tables[0],
        complex_, RankHint(0, 0, 1), result.hints_used[0], result, complex_.terms[1],
        sc.external_constants["h0_tangent_subvariety"], sc, report.sections[0].lines[0],
        report.sections[0], report,
    ]
    return {type(r): r for r in records}


def test_the_samples_cover_every_record_type():
    modules = (root_system, bott, schur, koszul, scenarios)
    records = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, tuple) and not value.__name__.startswith("_")
    }
    assert set(_samples()) == records
    assert len(records) == 17


@pytest.mark.parametrize(
    "record",
    [
        Weight((3, -1, 0)),
        Partition((2, 1, 1)),
        BundleLabel((4, 7), Partition((2, 1)), Partition((1,)), -2),
        BundleSum((4, 7), [(BundleLabel((4, 7), twist=1), 2), (BundleLabel((4, 7), Partition((1,))), 1)]),
        BundleSum((2, 5)),
        ParabolicSpace(build_root_system("E", 6), frozenset({2, 5})),
        build_root_system("F", 4),
    ],
    ids=lambda r: type(r).__name__,
)
def test_copy_deepcopy_and_pickle_give_an_equal_record(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record
        assert hash(twin) == hash(record)


@pytest.mark.parametrize("cls", VALIDATING, ids=lambda c: c.__name__)
def test_a_validating_record_offers_no_unchecked_constructor(cls):
    assert not hasattr(cls, "_make") and not hasattr(cls, "_replace")


# every function of the package that builds a record through ``_trusted``, ``_canonical`` or ``_merged``
UNCHECKED_PATHS = {
    "root_system.Weight.__add__",
    "root_system.Weight.__sub__",
    "root_system.Weight.__neg__",
    "root_system._walk",
    "root_system.dual_weight",
    "bott.bwb",
    "schur._reversed_complement",
    "schur.BundleLabel.__new__",
    "schur.BundleLabel._canonical",
    "schur.BundleSum.__new__",
    "schur.BundleSum._merged",
    "schur.lr_coefficients",
    "schur._vertical_strips",
    "schur.dual_label",
    "schur.dual_sum",
    "schur._product_pairs",
    "schur.tensor",
    "schur._column_powers",
    "schur.exterior_power_sum",
    "schur._label_weight",
    "schur._parse_atom",
    "schur.parse_bundle",
}


def _unchecked_paths() -> set[str]:
    """``module.qualname`` of every function in ``src/gpcoh`` that names ``_trusted``,
    ``_canonical`` or ``_merged`` as an attribute; a module-level use is listed as the module."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Attribute) and child.attr in ("_trusted", "_canonical", "_merged"):
                found.add(scope)
            visit(child, inner)

    for path in sorted((SRC / "gpcoh").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_the_unchecked_construction_paths_are_the_pinned_set():
    """A record built through ``_trusted``, ``_canonical`` or ``_merged`` skips its constructor's
    checks, so each function doing so must derive its fields from records already checked. A new unchecked
    path is added both to ``UNCHECKED_PATHS`` and to the README paragraph on ``_trusted``, which
    says why its fields need no check; a path that no longer skips the checks leaves both."""
    assert _unchecked_paths() == UNCHECKED_PATHS


def test_copy_and_pickle_rebuild_a_parabolic_space_from_its_two_arguments():
    space = ParabolicSpace(build_root_system("A", 6), frozenset({4}))
    assert space.__getnewargs__() == (space.rs, space.crossed)


@pytest.mark.parametrize("cls", sorted(_samples(), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_assigning_an_attribute_raises_on_every_record_type(cls):
    record = _samples()[cls]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_print_their_fields_by_name():
    assert repr(Weight((1, -2))) == "Weight(coeffs=(1, -2))"
    assert repr(Partition((2, 1))) == "Partition(parts=(2, 1))"
    assert repr(RankHint(0, 1, 2)) == "RankHint(target_term=0, degree=1, rank=2)"
