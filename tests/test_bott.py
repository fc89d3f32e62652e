import random
import re
from typing import NamedTuple

import pytest

from gpcoh import (
    BWBResult,
    CohomologyTable,
    ParabolicSpace,
    Weight,
    build_root_system,
    bundle_cohomology,
    bwb,
    canonical_twist_weight,
    euler_characteristic,
)
from gpcoh.schur import BundleLabel, BundleSum

from conftest import (
    ALL_TYPES,
    is_dominant,
    levi_dual_weight,
    levi_roots,
    reflection_walk_oracle,
    serre_dual_weight,
    weights_at,
    weyl_product_oracle,
)


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
    with pytest.raises(ValueError, match=r"^crossed node 2 is given twice in \(1, 2, 2\)$"):
        ParabolicSpace(rs=rs, crossed=[1, 2, 2])
    assert ParabolicSpace(rs=rs, crossed=frozenset({1, 3})).dimension == 5


def test_crossed_nodes_that_are_not_integers_are_rejected():
    a3 = build_root_system("A", 3)
    with pytest.raises(ValueError, match=r"crossed node 1\.9 in \(1\.9,\) is not an integer"):
        ParabolicSpace(a3, [1.9]).dimension
    with pytest.raises(ValueError, match="crossed node True in"):
        ParabolicSpace(a3, [True])
    with pytest.raises(ValueError, match="crossed node 2.0 in"):
        ParabolicSpace(rs=a3, crossed=frozenset({1, 2.0}))
    with pytest.raises(ValueError, match="^crossed nodes 2 are not a collection of ints$"):
        ParabolicSpace(a3, 2)


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
        assert (res.degree == 0) == is_dominant(w)
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
    assert weights_at(table, 0) == ((Weight.zero(6), 3),)


@pytest.mark.parametrize("mult", [1.5, 2.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize(
    "build",
    [
        lambda m: bundle_cohomology(gr47(), [(Weight.of(1, 0, 0, 0, 0, 1), m)]),
        lambda m: BundleSum((4, 7), [(BundleLabel((4, 7), twist=1), m)]),
        lambda m: BundleSum.from_pairs((4, 7), [(BundleLabel((4, 7)), 1), (BundleLabel((4, 7), twist=1), m)]),
    ],
    ids=["bundle_cohomology", "BundleSum.from_pairs", "BundleSum.from_pairs-two-summands"],
)
def test_a_multiplicity_that_is_not_an_int_is_rejected(build, mult):
    # exact arithmetic: 1.5 would give a float h^0, 2.0 a rank of 2.0, True would count as 1
    with pytest.raises(ValueError, match="multiplicity must be a positive int"):
        build(mult)


@pytest.mark.parametrize("mult", [0, -1], ids=["zero", "negative"])
def test_a_multiplicity_that_is_not_positive_is_rejected(mult):
    with pytest.raises(ValueError, match=rf"multiplicity must be a positive int, got {mult}$"):
        bundle_cohomology(gr47(), [(Weight.zero(6), 1), (Weight.of(1, 0, 0, 0, 0, 1), mult)])


@pytest.mark.parametrize("coeffs", [(1, 0), (0,) * 7], ids=["short", "long"])
def test_bwb_rejects_a_weight_of_the_wrong_rank(coeffs):
    w = Weight(coeffs)
    message = f"rank mismatch: weight {w} has rank {len(coeffs)}, root system is A6"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bwb(gr47(), w)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bundle_cohomology(gr47(), [(Weight.zero(6), 1), (w, 1)])


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
    assert weights_at(table, 18) == ((Weight.zero(6), 4),)
    for d in table.degrees():
        want = sorted(weights[d].items(), key=lambda kv: kv[0].coeffs)
        assert weights_at(table, d) == tuple(want)
    assert [w for w, _ in weights_at(table, 1)] == [
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
            m * weyl_dimension(space.rs, w) for w, m in weights_at(table, degree)
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
    assert len(weights_at(table, 0)) == 2


def test_euler_characteristic_examples():
    t48 = CohomologyTable.from_dimensions({0: 48})
    assert euler_characteristic(t48) == 48
    assert euler_characteristic(CohomologyTable.from_dimensions({})) == 0
    assert euler_characteristic(CohomologyTable.from_dimensions({0: 35, 1: 35})) == 0
    with pytest.raises(ValueError, match=re.escape("H^0 = -1: need an int degree >= 0 and an int dimension >= 0")):
        CohomologyTable.from_dimensions({0: -1})
    with pytest.raises(ValueError, match=re.escape("H^-1 = 1: need an int degree >= 0 and an int dimension >= 0")):
        CohomologyTable.from_dimensions({-1: 1})


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
    checked = 0
    for letter, n in ALL_TYPES:
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


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_serre_duality_consistency_on_random_parabolics(letter, rank):
    # H^i(E) = H^(dim - i)(E^* (x) K)^*, with E^* from the oracle walk at the uncrossed nodes;
    # the Levi dual has the same rank, by the oracle product over the Levi roots
    rs = build_root_system(letter, rank)
    rng = random.Random(f"serre {letter}{rank}")
    for _ in range(40):
        crossed = frozenset(rng.sample(range(1, rank + 1), rng.randint(1, rank)))
        space = ParabolicSpace(rs, crossed)
        w = Weight(tuple(rng.randint(-6, 6) if i in crossed else rng.randint(0, 3) for i in range(1, rank + 1)))
        a, b = bwb(space, w), bwb(space, serre_dual_weight(space, w))
        assert a.all_vanish == b.all_vanish
        if not a.all_vanish:
            assert (a.degree + b.degree, a.dimension) == (space.dimension, b.dimension)
        levi = levi_roots(space)
        assert weyl_product_oracle(rs, w, levi) == weyl_product_oracle(rs, levi_dual_weight(space, w), levi)


class _OracleWeight(NamedTuple):
    """Coefficients for the oracles, built with no package code."""

    coeffs: tuple[int, ...]


def _bwb_oracle(rs, coeffs):
    """(degree, weight, dimension, predual weight) of Borel-Weil-Bott for ``coeffs``, or None
    on a wall: the oracle walk of omega + rho, the Weyl product over every positive root, and
    -w0 mu as the end of the oracle walk of -mu."""
    nodes = range(1, rs.rank + 1)
    dominant, length = reflection_walk_oracle(rs, _OracleWeight(tuple(c + 1 for c in coeffs)), nodes)
    if 0 in dominant.coeffs:
        return None
    mu = tuple(c - 1 for c in dominant.coeffs)
    dual = reflection_walk_oracle(rs, _OracleWeight(tuple(-c for c in mu)), nodes)[0].coeffs
    return length, dual, weyl_product_oracle(rs, _OracleWeight(mu), rs.positive_roots), mu


def _draw_weights(rs, k, rng):
    """Four P-dominant weights off the walls and two on one: omega_k coefficient -1 (omega + rho
    is zero at node k up front), and one with no zero coefficient, when a bounded search finds it."""
    draw = lambda crossed: tuple(crossed if i == k else rng.randint(0, 3) for i in range(1, rs.rank + 1))
    regular, hidden = [], []
    for _ in range(300):
        coeffs = draw(rng.choice((rng.randint(-30, -2), rng.randint(0, 3))))
        if _bwb_oracle(rs, coeffs) is not None:
            regular.append(coeffs)
        elif not hidden:
            hidden.append(coeffs)
        if len(regular) >= 4 and hidden:
            break
    return regular[:4] + [draw(-1)] + hidden


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_bwb_and_tables_match_an_oracle_on_every_maximal_parabolic(letter, rank):
    rs = build_root_system(letter, rank)
    rng = random.Random(f"bwb oracle {letter}{rank}")
    regular = walls = hidden_walls = 0
    for k in range(1, rank + 1):
        space = ParabolicSpace(rs=rs, crossed=frozenset({k}))
        totals: dict[int, int] = {}
        by_degree: dict[int, dict[tuple, int]] = {}
        summands = []
        for coeffs in _draw_weights(rs, k, rng):
            want = _bwb_oracle(rs, coeffs)
            got = bwb(space, Weight(coeffs))
            mult = rng.randint(1, 3)
            summands.append((Weight(coeffs), mult))
            if want is None:
                assert got == BWBResult() and got.all_vanish, (space, coeffs)
                walls += 1
                hidden_walls += -1 not in coeffs
                continue
            assert (got.degree, got.weight.coeffs, got.dimension, got.predual_weight.coeffs) == want
            regular += 1
            degree, dual, dimension, _ = want
            totals[degree] = totals.get(degree, 0) + mult * dimension
            at = by_degree.setdefault(degree, {})
            at[dual] = at.get(dual, 0) + mult
        table = bundle_cohomology(space, summands)
        assert table.total_dims == tuple(sorted(totals.items()))
        assert [(d, [(w.coeffs, m) for w, m in pairs]) for d, pairs in table.entries] == [
            (d, sorted(by_degree[d].items())) for d in sorted(by_degree)
        ]
    # on A1 the only wall is omega + rho = 0; every larger space has one off the front too
    assert (regular, walls, hidden_walls) == ((4, 1, 0) if rank == 1 else (4 * rank, 2 * rank, rank))
