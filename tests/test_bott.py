import random

import pytest

from gpcoh import (
    CohomologyTable,
    ParabolicSpace,
    Weight,
    build_root_system,
    bundle_cohomology,
    bwb,
    canonical_twist_weight,
    euler_characteristic,
    homogeneous_dimension,
    levi_dimension,
    serre_dual_weight,
)
from gpcoh.bott import levi_dual_weight
from gpcoh.schur import BundleSum, line_bundle


def gr47():
    return ParabolicSpace(rs=build_root_system("A", 6), crossed=frozenset({4}))


def p1():
    return ParabolicSpace(rs=build_root_system("A", 1), crossed=frozenset({1}))


def test_space_validation():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError, match="at least one crossed node"):
        ParabolicSpace(rs=rs, crossed=frozenset())
    with pytest.raises(ValueError, match="out of range"):
        ParabolicSpace(rs=rs, crossed=frozenset({9}))
    assert ParabolicSpace(rs=rs, crossed=frozenset({1, 3})).dimension == 5


def test_crossed_nodes_that_are_not_integers_are_rejected():
    a3 = build_root_system("A", 3)
    with pytest.raises(ValueError, match=r"crossed node 1\.9 in \(1\.9,\) is not an integer"):
        homogeneous_dimension(a3, [1.9])
    with pytest.raises(ValueError, match="crossed node True in"):
        levi_dimension(a3, [True], Weight.of(0, 1, 0))
    with pytest.raises(ValueError, match="crossed node 2.0 in"):
        ParabolicSpace(rs=a3, crossed=frozenset({1, 2.0}))


def test_bwb_triple_twist_bundle_vanishes():
    assert bwb(gr47(), Weight.of(0, 0, 1, -3, 0, 0)).all_vanish


def test_bwb_tangent_bundle_sections():
    res = bwb(gr47(), Weight.of(1, 0, 0, 0, 0, 1))
    assert not res.all_vanish
    assert res.degree == 0
    assert res.dimension == 48
    assert res.weight == Weight.of(1, 0, 0, 0, 0, 1)


def test_bwb_degree_three_line_bundle_on_p1():
    res = bwb(p1(), Weight.of(3))
    assert (res.degree, res.dimension) == (0, 4)


def test_bwb_negative_line_bundle_on_p1_lands_in_degree_one():
    # Serre duality on P1: h^1(O(-3)) = h^0(O(1)) = 2
    res = bwb(p1(), Weight.of(-3))
    assert (res.degree, res.dimension) == (1, 2)


def test_bwb_rejects_non_p_dominant_weight_naming_the_node():
    with pytest.raises(ValueError, match="uncrossed node 2"):
        bwb(gr47(), Weight.of(0, -1, 0, 0, 0, 0))


def test_bwb_degree_zero_iff_dominant():
    rng = random.Random(11)
    space = gr47()
    for _ in range(200):
        coeffs = tuple(
            rng.randint(0, 3) if i != 3 else rng.randint(-4, 4) for i in range(6)
        )
        w = Weight(coeffs)
        res = bwb(space, w)
        if res.all_vanish:
            continue
        assert (res.degree == 0) == w.is_dominant()
        if res.degree == 0:
            assert res.predual_weight == w


def test_bundle_cohomology_of_two_singular_summands_is_empty():
    table = bundle_cohomology(
        gr47(), [(Weight.of(0, 1, 0, -2, 0, 0), 1), (Weight.of(0, 0, 2, -3, 0, 0), 1)]
    )
    assert table.is_zero


def test_bundle_cohomology_endomorphism_style_sum():
    table = bundle_cohomology(
        gr47(), [(Weight.of(1, 0, 1, -1, 0, 0), 1), (Weight.zero(6), 1)]
    )
    assert table.dims() == {0: 1}


def test_bundle_cohomology_empty_sum():
    assert bundle_cohomology(gr47(), []).is_zero


def test_bundle_cohomology_accumulates_multiplicity():
    table = bundle_cohomology(gr47(), [(Weight.zero(6), 2), (Weight.zero(6), 1)])
    assert table.dims() == {0: 3}
    assert table.weights_at(0) == ((Weight.zero(6), 3),)


@pytest.mark.parametrize("mult", [1.5, 2.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize(
    "build",
    [
        lambda m: bundle_cohomology(gr47(), [(Weight.of(1, 0, 0, 0, 0, 1), m)]),
        lambda m: BundleSum.of(line_bundle((4, 7), 1), m),
    ],
    ids=["bundle_cohomology", "BundleSum.from_pairs"],
)
def test_a_multiplicity_that_is_not_an_int_is_rejected(build, mult):
    # exact arithmetic: 1.5 would give a float h^0, 2.0 a rank of 2.0, True would count as 1
    with pytest.raises(ValueError, match="multiplicity must be a positive int"):
        build(mult)


def test_bundle_cohomology_over_several_degrees_matches_separate_bwb_calls():
    # E6/P2: nonzero cohomology in degrees 0, 1, 10, 11, 13 and 18; the trivial
    # representation comes from several weights, and one weight is listed twice
    space = ParabolicSpace(rs=build_root_system("E", 6), crossed=frozenset({2}))
    summands = [
        (Weight.of(0, -12, 1, 2, 0, 2), 1),
        (Weight.of(1, -12, 0, 0, 2, 0), 2),
        (Weight.of(0, -12, 2, 0, 0, 1), 1),
        (Weight.of(0, -2, 0, 1, 0, 1), 3),
        (Weight.of(2, -10, 0, 2, 0, 2), 1),
        (Weight.of(0, -1, 0, 0, 0, 0), 2),
        (Weight.zero(6), 1),
        (Weight.of(1, -12, 0, 0, 2, 0), 1),
        (Weight.of(2, -11, 0, 2, 0, 2), 2),
        (Weight.of(0, -2, 0, 1, 0, 1), 1),
        (Weight.of(1, -3, 0, 2, 1, 2), 1),
        (Weight.of(2, -3, 1, 2, 0, 0), 1),
    ]
    totals: dict[int, int] = {}
    weights: dict[int, dict[Weight, int]] = {}
    for omega, mult in summands:
        res = bwb(space, omega)
        if not res.all_vanish:
            totals[res.degree] = totals.get(res.degree, 0) + mult * res.dimension
            at = weights.setdefault(res.degree, {})
            at[res.weight] = at.get(res.weight, 0) + mult
    table = bundle_cohomology(space, summands)
    assert table.degrees() == (0, 1, 10, 11, 13, 18)
    assert table.dims() == totals
    assert table.weights_at(18) == ((Weight.zero(6), 4),)
    for d in table.degrees():
        want = sorted(weights[d].items(), key=lambda kv: kv[0].coeffs)
        assert table.weights_at(d) == tuple(want)
    assert [w for w, _ in table.weights_at(1)] == [
        Weight.of(0, 1, 0, 0, 1, 2), Weight.of(1, 0, 0, 0, 0, 0), Weight.of(2, 1, 1, 0, 0, 1)
    ]
    assert bundle_cohomology(space, summands[::-1]) == table


def test_table_totals_are_multiplicity_weighted_weyl_dimensions():
    from gpcoh import weyl_dimension

    space = gr47()
    table = bundle_cohomology(
        space,
        [(Weight.fundamental(6, 3), 2), (Weight.of(1, 0, 0, 0, 0, 1), 1), (Weight.zero(6), 3)],
    )
    for degree in table.degrees():
        expected = sum(
            m * weyl_dimension(space.rs, w) for w, m in table.weights_at(degree)
        )
        assert table.total_dimension(degree) == expected


def test_tables_keep_distinct_weights_of_equal_dimension_apart():
    a6 = build_root_system("A", 6)
    space = ParabolicSpace(rs=a6, crossed=frozenset({4}))
    # w3 and w4 both have dimension 35
    table = bundle_cohomology(
        space, [(Weight.fundamental(6, 3), 1), (Weight.fundamental(6, 4), 1)]
    )
    assert table.dims() == {0: 70}
    assert len(table.weights_at(0)) == 2


def test_euler_characteristic_examples():
    t48 = CohomologyTable.from_dimensions({0: 48})
    assert euler_characteristic(t48) == 48
    assert euler_characteristic(CohomologyTable.from_dimensions({})) == 0
    assert euler_characteristic(CohomologyTable.from_dimensions({0: 35, 1: 35})) == 0


def test_classical_line_bundle_table_on_p1():
    space = p1()
    for a in range(-10, 11):
        res = bwb(space, Weight.of(a))
        if a >= 0:
            assert (res.degree, res.dimension) == (0, a + 1)
        elif a == -1:
            assert res.all_vanish
        else:
            assert (res.degree, res.dimension) == (1, -a - 1)


def test_canonical_twist_weights():
    assert canonical_twist_weight(gr47()) == Weight.of(0, 0, 0, -7, 0, 0)
    p2 = ParabolicSpace(rs=build_root_system("A", 2), crossed=frozenset({1}))
    assert canonical_twist_weight(p2) == Weight.of(-3, 0)


def _fano_index(letter: str, n: int, k: int) -> int:
    """Fano index of G/P_k for maximal parabolics, from the standard table."""
    if letter == "A":
        return n + 1
    if letter == "B":
        return 2 * n - k if k < n else 2 * n
    if letter == "C":
        return 2 * n - k + 1
    if letter == "D":
        return 2 * n - k - 1 if k <= n - 2 else 2 * n - 2
    return {
        "E6": (12, 11, 9, 7, 9, 12),
        "E7": (17, 14, 11, 8, 10, 13, 18),
        "E8": (23, 17, 13, 9, 11, 14, 19, 29),
        "F4": (8, 5, 7, 11),
        "G2": (5, 3),
    }[f"{letter}{n}"][k - 1]


def test_canonical_twist_is_minus_the_fano_index_on_every_maximal_parabolic():
    types = (
        [("A", n) for n in range(1, 9)]
        + [("B", n) for n in range(2, 9)]
        + [("C", n) for n in range(3, 9)]
        + [("D", n) for n in range(4, 9)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    )
    checked = 0
    for letter, n in types:
        rs = build_root_system(letter, n)
        for k in range(1, n + 1):
            space = ParabolicSpace(rs=rs, crossed=frozenset({k}))
            index = _fano_index(letter, n, k)
            assert canonical_twist_weight(space) == -index * Weight.fundamental(n, k), (letter, n, k)
            checked += 1
    assert checked == 161


def test_tangent_sections_and_canonical_cohomology_across_grassmannians():
    from gpcoh.schur import label_to_weight, tangent_label

    for k, n in [(1, 3), (2, 4), (2, 5), (3, 6), (4, 7)]:
        rs = build_root_system("A", n - 1)
        space = ParabolicSpace(rs=rs, crossed=frozenset({k}))
        tangent = bwb(space, label_to_weight(tangent_label((k, n)), space))
        assert (tangent.degree, tangent.dimension) == (0, n * n - 1)
        canonical = bwb(space, canonical_twist_weight(space))
        assert (canonical.degree, canonical.dimension) == (space.dimension, 1)


def test_serre_duality_consistency_on_random_a_type_spaces():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(2, 6)
        rs = build_root_system("A", n)
        crossed = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        space = ParabolicSpace(rs=rs, crossed=crossed)
        coeffs = tuple(
            rng.randint(0, 3) if i + 1 not in crossed else rng.randint(-4, 4)
            for i in range(n)
        )
        w = Weight(coeffs)
        a = bwb(space, w)
        b = bwb(space, serre_dual_weight(space, w))
        assert a.all_vanish == b.all_vanish
        if not a.all_vanish:
            assert a.degree + b.degree == space.dimension
            assert a.dimension == b.dimension
        # the Levi dual has the same rank as the bundle it dualizes
        assert levi_dimension(rs, crossed, w) == levi_dimension(
            rs, crossed, levi_dual_weight(space, w)
        )
