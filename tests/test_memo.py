"""The kernel memos are invisible: ``dominantize`` and ``weyl_dimension`` cache by (root
system, coefficients) after their checks, ``ParabolicSpace`` by (root system, crossed set)
after its checks, ``exterior_power_sum`` by (sum, j), the sum checked when it was built, and
a label's weight and dual by the label alone; each memo is bounded. A root system is one
object per type and rank, whatever the spelling of its letter, and copy and pickle return
that object; it keys a memo as that object, so an unequal system of the same type and rank
is a separate key. A parabolic space is one object per key while the memo holds it. A warm
memo gives what a cold one gives, an error is never stored, and no memo outgrows its bound.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from gpcoh import (
    BundleLabel,
    BundleSum,
    ParabolicSpace,
    Partition,
    Weight,
    build_root_system,
    bundle_cohomology,
    bwb,
    build_koszul,
    chase,
    dominantize,
    exterior_power_sum,
    lr_coefficients,
    tensor,
    weyl_dimension,
)
from gpcoh import root_system, schur

from test_chase_oracle import FAMILIES

MEMOS = (
    root_system._dominantize,
    root_system._weyl_dimension,
    root_system._parabolic_space,
    schur.exterior_power_sum,
    schur._label_weight,
    schur.dual_label,
)
LABEL_MEMOS = (schur._label_weight, schur.dual_label)
SRC = Path(__file__).resolve().parents[1] / "src" / "gpcoh"


def clear_memos() -> None:
    for memo in MEMOS:
        memo.cache_clear()


def test_a_pickled_root_system_is_equal_hashes_equal_and_gets_equal_results():
    e8 = build_root_system("E", 8)
    pickled = pickle.loads(pickle.dumps(e8))
    assert pickled is e8 and copy.copy(e8) is e8 and copy.deepcopy(e8) is e8
    assert pickled == e8 and hash(pickled) == hash(e8)
    for coeffs in [(1,) * 8, (-1, 2, 0, 1, -3, 1, 1, 2), (3, -1, 1, 1, -2, 1, 1, -1)]:
        w = Weight(coeffs)
        assert dominantize(pickled, w) == dominantize(e8, w)
    assert weyl_dimension(pickled, Weight((0,) * 7 + (1,))) == weyl_dimension(e8, Weight((0,) * 7 + (1,))) == 248


def test_every_spelling_of_a_letter_builds_the_one_system_of_its_type_and_rank():
    assert build_root_system("a", 3) is build_root_system("A", 3)
    assert build_root_system(" e ", 6) is build_root_system("E", 6) is build_root_system("e", 6)


def test_an_unequal_system_of_the_same_type_and_rank_is_never_served_the_canonical_entries():
    b3, c3 = build_root_system("B", 3), build_root_system("C", 3)
    impostor = c3._replace(type_letter="B")  # C3's Cartan matrix and roots under B3's name
    assert impostor != b3
    walked, omega1 = Weight((2, 1, -5)), Weight((1, 0, 0))
    assert dominantize(b3, walked) != dominantize(c3, walked)
    assert weyl_dimension(b3, omega1) == 7 and weyl_dimension(c3, omega1) == 6
    # both B3 entries are warm now; the impostor still gets the answers of its own fields
    assert dominantize(impostor, walked) == dominantize(c3, walked)
    assert weyl_dimension(impostor, omega1) == 6


def test_a_parabolic_space_is_one_object_per_root_system_and_crossed_set():
    rs = build_root_system("A", 6)
    space = ParabolicSpace(rs, {4})
    assert space is ParabolicSpace(rs=rs, crossed=[4]) is ParabolicSpace(rs, frozenset({4}))
    assert copy.copy(space) is space and copy.deepcopy(space) is space
    assert pickle.loads(pickle.dumps(space)) is space
    assert ParabolicSpace(rs, [4, 2]) is ParabolicSpace(rs, (2, 4)) is not space


def test_an_evicted_space_built_again_equals_the_old_one():
    rs = build_root_system("E", 7)
    old = ParabolicSpace(rs, {7})
    root_system._parabolic_space.cache_clear()
    new = ParabolicSpace(rs, {7})
    assert new is not old and new == old and hash(new) == hash(old) and new.dimension == 27


@pytest.mark.parametrize(
    "crossed,message",
    [
        ([], "^a parabolic space needs at least one crossed node"),
        ([1, 2, 2], r"^crossed node 2 is given twice in \(1, 2, 2\)$"),
        ([9], r"^crossed nodes \[9\] out of range 1\.\.6$"),
        ([1.0], r"^crossed node 1\.0 in \(1\.0,\) is not an integer$"),
        ([True], r"^crossed node True in \(True,\) is not an integer$"),
    ],
    ids=["empty", "repeated", "out-of-range", "float", "bool"],
)
def test_a_bad_crossed_set_raises_on_every_call_and_adds_no_space(crossed, message):
    rs = build_root_system("A", 6)
    assert ParabolicSpace(rs, [1]).dimension == 6  # the int node's space is held
    size = root_system._parabolic_space.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            ParabolicSpace(rs, crossed)
    assert root_system._parabolic_space.cache_info().currsize == size


def test_an_unequal_system_of_the_same_type_and_rank_gets_its_own_space():
    b3, c3 = build_root_system("B", 3), build_root_system("C", 3)
    impostor = c3._replace(type_letter="B")
    canonical = ParabolicSpace(b3, {1})
    own = ParabolicSpace(impostor, {1})
    assert own is not canonical and own != canonical and own.rs is impostor
    assert own.nilradical == ParabolicSpace(c3, {1}).nilradical != canonical.nilradical


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_chase_is_the_same_cold_and_warm(family):
    cases = FAMILIES[family][0]
    warm = [chase(cx) for _, cx, _ in cases()]
    clear_memos()
    cold = [chase(cx) for _, cx, _ in cases()]
    assert cold == warm


def test_the_plethysm_error_raises_again_on_an_identical_second_call():
    ambient = (2, 5)
    section = BundleSum(ambient, [(BundleLabel(ambient, u_part=Partition((2,))), 1)])
    before = schur.exterior_power_sum.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="unsupported plethysm shape"):
            exterior_power_sum(section, 2)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            exterior_power_sum(section, -1)
    assert schur.exterior_power_sum.cache_info().currsize == before


def test_a_float_or_bool_degree_is_not_served_the_int_degree_entry():
    line = BundleSum((2, 5), [(BundleLabel((2, 5), twist=1), 2)])
    assert len(exterior_power_sum(line, 1)) == 2
    size = schur.exterior_power_sum.cache_info().currsize
    for j in (1.0, True):  # each is rejected on every call, never served the entry of 1
        for _ in range(2):
            with pytest.raises(ValueError, match=f"must be nonnegative and an int, got {j!r}"):
                exterior_power_sum(line, j)
    assert schur.exterior_power_sum.cache_info().currsize == size


def test_no_memo_holds_more_than_its_bound():
    a1 = build_root_system("A", 1)
    size = root_system._MEMO_SIZE
    for c in range(1, size + 11):
        dominantize(a1, Weight((-c,)))
        weyl_dimension(a1, Weight((c,)))
    assert root_system._dominantize.cache_info().currsize == size
    assert root_system._weyl_dimension.cache_info().currsize == size
    fold_size = schur._FOLD_MEMO_SIZE
    for t in range(1, fold_size + 11):
        exterior_power_sum(BundleSum((1, 2), [(BundleLabel((1, 2), twist=t), 1)]), 1)
    assert schur.exterior_power_sum.cache_info().currsize == fold_size
    label_size = schur._LABEL_MEMO_SIZE
    for t in range(1, label_size + 11):
        for memo in LABEL_MEMOS:
            memo(BundleLabel((2, 5), u_part=Partition((1,)), twist=t))
    assert [memo.cache_info().currsize for memo in LABEL_MEMOS] == [label_size] * 2
    a9, space_size = build_root_system("A", 9), root_system._SPACE_MEMO_SIZE
    for mask in range(1, space_size + 11):  # each a distinct nonempty subset of the 9 nodes
        ParabolicSpace(a9, [i for i in range(1, 10) if mask >> (i - 1) & 1])
    assert root_system._parabolic_space.cache_info().currsize == space_size
    clear_memos()


@pytest.mark.parametrize(
    "fn", [lr_coefficients, bwb, bundle_cohomology, tensor, build_koszul, schur.sum_to_weights, chase]
)
def test_the_traced_layers_and_the_lr_rule_hold_no_memo(fn):
    assert not hasattr(fn, "cache_info") and not hasattr(fn, "__wrapped__")


def test_every_memo_but_the_one_keyed_by_type_and_rank_is_bounded_by_an_int():
    # a memo keyed by anything but (type, rank) grows with its inputs: its lru_cache must be
    # given an integer maxsize, a literal or a module constant bound to one
    unbounded, memos = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        ints = {
            target.id
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                name = ast.unparse(call.func if call else dec).rsplit(".", 1)[-1]
                if name not in ("lru_cache", "cache"):
                    continue
                memos += 1
                bound = None  # functools.cache and a bare lru_cache have none
                if call and name == "lru_cache":
                    given = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                    bound = given[0] if given else None
                if not (
                    isinstance(bound, ast.Constant) and type(bound.value) is int
                    or isinstance(bound, ast.Name) and bound.id in ints
                ):
                    unbounded.append(f"{path.stem}.{node.name}")
    assert memos >= 6
    assert unbounded == ["root_system.build_root_system"]
