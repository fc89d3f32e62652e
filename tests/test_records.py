"""What the record types promise: a cold import without ``dataclasses`` or ``typing``, the
namedtuple protocol on every result record, copies and pickles equal to the original, no public
construction that skips validation, and no assignment."""

import ast
import copy
import functools
import pickle
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
    report,
)

from conftest import run_python, shipped_scenario

VALIDATING = (Weight, Partition, BundleLabel, BundleSum, ParabolicSpace)


def test_importing_the_cli_loads_neither_argparse_typing_textwrap_nor_dataclasses():
    # a fresh process, since the test suite imports inspect itself; under -S no site hook
    # loads modules first, so the shipped data must be found without importlib.resources, and
    # typing, which a site hook (a .pth file) may load before gpcoh, is banned there only
    unused = {"dataclasses", "inspect", "argparse", "gettext", "locale", "textwrap"}
    for flags, banned in (
        ((), unused),
        (("-S",), unused | {"typing", "importlib.resources", "zipfile", "tempfile"}),
    ):
        code = f"import sys, gpcoh.cli; print(sorted({sorted(banned)!r} & sys.modules.keys()))"
        proc = run_python(*flags, "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", flags


@functools.cache
def _samples() -> dict:
    """One instance of every record type, taken from a real run where one exists."""
    sc = load_scenario("cayley")
    complex_, result = sc.chase_twist("normal")
    rep = report("cayley")
    label = complex_.terms[1].summands[0][0]
    (constant,) = scenarios._read_constants(
        shipped_scenario("cayley")["external_constants"], ("h0_tangent_subvariety",), "cayley", "external_constants"
    )
    records = [
        Weight((1, 0, -2)), label.u_part, label, sc.space, sc.space.rs,
        bwb(sc.space, Weight((0, 0, 0, 1, 0, 0))), result.term_tables[0],
        complex_, RankHint(0, 0, 1), result.hints_used[0], result, complex_.terms[1],
        constant, sc, rep.sections[0].lines[0],
        rep.sections[0], rep,
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
    pickled = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(record), copy.deepcopy(record), *pickled):
        assert type(twin) is type(record)
        assert twin == record
        assert hash(twin) == hash(record)


@pytest.mark.parametrize("cls,ints", [(Weight, (3, -1)), (Partition, (3, 1))], ids=["Weight", "Partition"])
def test_a_weight_and_a_partition_are_the_tuple_of_their_ints(cls, ints):
    flat = cls(ints)
    assert flat[0] == 3 and len(flat) == 2 and list(flat) == [3, ints[1]]
    assert flat == ints and hash(flat) == hash(ints)
    assert (flat.coeffs if cls is Weight else flat.parts) == ints


def test_copy_and_pickle_revalidate_a_partition():
    # as test_root_system.py::test_copy_and_pickle_revalidate_a_weight does for a Weight: a tuple
    # built around the checks is refused when copy, deepcopy or pickle at any protocol calls the
    # constructor again
    bad = tuple.__new__(Partition, (1, 3))
    pickles = [lambda r, p=p: pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for rebuild in (copy.copy, copy.deepcopy, *pickles):
        with pytest.raises(ValueError, match="weakly decreasing"):
            rebuild(bad)


@pytest.mark.parametrize("cls", VALIDATING, ids=lambda c: c.__name__)
def test_a_validating_record_offers_no_unchecked_constructor(cls):
    assert not hasattr(cls, "_make") and not hasattr(cls, "_replace")


# every function of the package that builds a record through ``_trusted``, ``_canonical`` or ``_merged``
UNCHECKED_PATHS = {
    "root_system._walk",
    "root_system.dominantize",
    "bott.bwb",
    "bott.bundle_cohomology",
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

    for path in sorted(Path(scenarios.__file__).parent.glob("*.py")):
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
    assert space.__reduce__() == (ParabolicSpace, (space.rs, space.crossed))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(space, protocol)) is space


@pytest.mark.parametrize("cls", sorted(_samples(), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_assigning_an_attribute_raises_on_every_record_type(cls):
    record = _samples()[cls]
    field = {Weight: "coeffs", Partition: "parts"}.get(cls) or record._fields[0]  # the int tuples: one name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


# each collections.namedtuple record: its fields, and the defaults of its trailing fields
NAMEDTUPLES = {
    root_system.RootSystem: (
        "type_letter rank cartan positive_roots rho symmetrizer root_chain rho_product neighbours minus_w0", ()
    ),
    bott.BWBResult: ("degree weight dimension predual_weight", (None, None, None, None)),
    bott.CohomologyTable: ("total_dims entries", (None,)),
    koszul.KoszulComplex: ("ambient terms", ()),
    koszul.RankHint: ("target_term degree rank", ()),
    koszul.UsedHint: ("target_term degree rank origin", ()),
    koszul.ChaseResult: ("term_tables hints_used table blocking_positions", (None, ())),
    scenarios.ExternalConstant: ("name value provenance", ()),
    scenarios.Scenario: ("file name space section_bundle twists", ()),
    scenarios.ReportLine: ("key text value source provenance passed", (None,)),
    scenarios.ReportSection: ("title lines", ()),
    scenarios.RigidityReport: ("name title sections", ()),
}


@pytest.mark.parametrize("cls", NAMEDTUPLES, ids=lambda c: c.__name__)
def test_a_namedtuple_record_keeps_its_fields_defaults_and_tuple_protocol(cls):
    names, defaults = NAMEDTUPLES[cls]
    fields = tuple(names.split())
    assert cls._fields == fields
    assert cls._field_defaults == dict(zip(fields[len(fields) - len(defaults):], defaults))
    required = fields[: len(fields) - len(defaults)]
    assert tuple(cls(*range(len(required)))) == (*range(len(required)), *defaults)
    values = {name: f"<{name}>" for name in fields}
    record = cls(**values)
    assert tuple(record) == tuple(values.values())
    assert record._asdict() == values
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    changed = record._replace(**{fields[-1]: 0})
    assert type(changed) is cls and changed[:-1] == record[:-1] and changed[-1] == 0
    if cls is not root_system.RootSystem:  # a root system is equal only to itself
        assert record == cls(**values) and hash(record) == hash(cls(**values))
    sample = _samples()[cls]
    for twin in (copy.copy(sample), copy.deepcopy(sample), pickle.loads(pickle.dumps(sample))):
        assert type(twin) is cls and twin == sample


def test_a_root_system_is_equal_only_to_itself_and_copies_to_the_cached_object():
    rs = build_root_system("B", 3)
    twin = rs._replace()
    assert twin is not rs and tuple(twin) == tuple(rs)
    assert twin != rs
    assert rs.__reduce__() == (build_root_system, ("B", 3))
    for copied in (copy.copy(rs), copy.deepcopy(rs), pickle.loads(pickle.dumps(rs)), copy.copy(twin)):
        assert copied is rs


def test_records_print_their_fields_by_name():
    assert str(build_root_system("E", 8)) == "E8"
    assert repr(Weight((1, -2))) == "Weight(coeffs=(1, -2))"
    assert repr(Partition((2, 1))) == "Partition(parts=(2, 1))"
    assert repr(RankHint(0, 1, 2)) == "RankHint(target_term=0, degree=1, rank=2)"
