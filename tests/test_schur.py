import copy
import json
import random
import re
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

from gpcoh import (
    BundleLabel,
    BundleSum,
    CohomologyTable,
    ParabolicSpace,
    Partition,
    Weight,
    build_koszul,
    build_root_system,
    dual_label,
    exterior_power_sum,
    format_label,
    gl_dimension,
    label_rank,
    label_to_weight,
    lr_coefficients,
    parse_bundle,
    parse_partition,
    tangent_label,
    tensor,
    weyl_dimension,
)
from gpcoh.schur import _reversed_complement, dual_sum, format_sum, sum_to_weights

from conftest import (
    KOSZUL_POOL,
    _canonical,
    exterior_character,
    general_schur_oracle,
    koszul_pool_sample,
    levi_roots,
    section_atom_weights,
    ssyt_count,
    torus_character,
    weyl_product_oracle,
)

AMB = (4, 7)


def gr47():
    return ParabolicSpace(rs=build_root_system("A", 6), crossed=frozenset({4}))


# ---------------------------------------------------------------------------
# Partition


def test_partition_normalizes_trailing_zeros():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition(()).parts == ()


def test_partition_rejects_bad_shapes():
    with pytest.raises(ValueError, match="decreasing"):
        Partition((1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        Partition((2, -1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Partition((1.9,)),
        lambda: BundleLabel((2.5, 4)),
        lambda: BundleLabel((2, 4), twist=1.5),
        lambda: CohomologyTable.from_dimensions({0.5: 3.9}),
        lambda: CohomologyTable.from_dimensions({0: 1.5}),
        lambda: CohomologyTable.from_dimensions({True: 1}),
    ],
    ids=["partition", "ambient", "twist", "from_dimensions", "from_dimensions-float-dimension",
         "from_dimensions-bool-degree"],
)
def test_a_value_that_is_not_an_int_is_rejected_not_truncated(build):
    with pytest.raises(ValueError, match="integer|int degree"):
        build()


def test_parse_partition():
    assert parse_partition("2,1,1") == Partition((2, 1, 1))
    assert parse_partition("") == Partition(())
    assert parse_partition("  ") == Partition(())
    with pytest.raises(ValueError, match="parse"):
        parse_partition("2,x")


# ---------------------------------------------------------------------------
# canonical labels


def test_top_exterior_power_of_u_is_the_negative_line_bundle():
    assert BundleLabel(AMB, u_part=Partition((1, 1, 1, 1))) == BundleLabel(AMB, twist=-1)


def test_third_exterior_power_of_u_equals_twisted_dual():
    # the same bundle built two ways lands on one canonical form
    via_dual = parse_bundle(AMB, "U* (-1)")
    assert BundleSum(AMB, [(BundleLabel(AMB, u_part=Partition((1, 1, 1))), 1)]) == via_dual


def test_full_column_on_the_quotient_side_adds_a_positive_twist():
    assert BundleLabel(AMB, q_part=Partition((1, 1, 1))) == BundleLabel(AMB, twist=1)


def test_equal_bundles_are_equal_labels():
    full = BundleLabel(AMB, u_part=Partition((2, 1, 1, 1)))
    reduced = BundleLabel(AMB, u_part=Partition((1,)), twist=-1)
    assert full == reduced
    assert hash(full) == hash(reduced)
    assert BundleSum.from_pairs(AMB, [(full, 1), (reduced, 1)]).summands == ((reduced, 2),)


def test_constructed_labels_are_canonical_and_rank_preserving():
    # every u of 4 parts and q of 3 parts in 0..3, trailing zeros and full columns included
    us, qs = (combinations_with_replacement(range(3, -1, -1), rows) for rows in (4, 3))
    for u, q, t in product(us, qs, range(-3, 4)):
        label = BundleLabel(AMB, u_part=Partition(u), q_part=Partition(q), twist=t)
        assert (label.u_part.parts, label.q_part.parts, label.twist) == _canonical(AMB, u, q, t)
        assert label_rank(label) == ssyt_count(u, 4) * ssyt_count(q, 3)
        assert label.u_part.length < 4
        assert label.q_part.length < 3


# ---------------------------------------------------------------------------
# Littlewood-Richardson


def test_pieri_one_box():
    out = lr_coefficients(Partition((1, 1, 1)), Partition((1,)), 4)
    assert out == {Partition((2, 1, 1)): 1, Partition((1, 1, 1, 1)): 1}


def test_two_boxes():
    out = lr_coefficients(Partition((1,)), Partition((1,)), 2)
    assert out == {Partition((2,)): 1, Partition((1, 1)): 1}


def test_two_two_one_squared_in_three_rows():
    out = lr_coefficients(Partition((2, 1)), Partition((2, 1)), 3)
    assert out == {
        Partition((2, 2, 2)): 1,
        Partition((3, 2, 1)): 2,
        Partition((3, 3)): 1,
        Partition((4, 1, 1)): 1,
        Partition((4, 2)): 1,
    }
    assert sum(c * gl_dimension(lam, 3) for lam, c in out.items()) == 64


def test_truncation_drops_tall_shapes():
    full = lr_coefficients(Partition((1,)), Partition((1,)), 2)
    flat = lr_coefficients(Partition((1,)), Partition((1,)), 1)
    assert Partition((1, 1)) in full
    assert flat == {Partition((2,)): 1}


def test_lr_rejects_nonpositive_row_bound():
    with pytest.raises(ValueError, match="max_rows"):
        lr_coefficients(Partition((1,)), Partition((1,)), 0)


def test_lr_rejects_a_bool_row_bound():
    with pytest.raises(ValueError, match="max_rows must be an int"):
        lr_coefficients((1,), (1,), True)


def test_lr_rejects_a_float_row_bound():
    with pytest.raises(ValueError, match="max_rows must be an int"):
        lr_coefficients((1,), (1,), 2.0)


def test_gl_dimension_rejects_a_float_rank_by_its_own_name():
    with pytest.raises(ValueError, match=r"rank r must be a nonnegative int, got 2\.5"):
        gl_dimension((1,), 2.5)


def test_gl_dimension_rejects_a_bool_rank():
    with pytest.raises(ValueError, match="rank r must be a nonnegative int, got True"):
        gl_dimension((1,), True)


def test_gl_dimension_rejects_a_negative_rank_and_a_partition_that_is_not_one():
    with pytest.raises(ValueError, match="rank r must be a nonnegative int, got -1"):
        gl_dimension((), -1)
    with pytest.raises(ValueError, match="weakly decreasing"):
        gl_dimension((1, 2), 3)


def test_lr_symmetry_on_random_small_pairs():
    small = [Partition(p) for p in _box_partitions(3, 3)]
    for mu, nu in product(small, repeat=2):
        assert lr_coefficients(mu, nu, 4) == lr_coefficients(nu, mu, 4)


def test_gl_dimension_matches_tableau_count():
    rng = random.Random(3)
    for _ in range(30):
        r = rng.randint(1, 4)
        shape = tuple(sorted((rng.randint(0, 4) for _ in range(r)), reverse=True))
        assert gl_dimension(Partition(shape), r) == ssyt_count(shape, r)


def test_gl_dimension_matches_the_weyl_product_over_the_roots_of_a():
    # the hook-content product and the Weyl product over A(r - 1) share no code path
    checked = 0
    for r in range(2, 9):
        rs = build_root_system("A", r - 1)
        for parts in (p for p in _box_partitions(6, 6) if sum(p) <= 6):
            if len(parts) > r:
                assert gl_dimension(parts, r) == 0
                continue
            padded = parts + (0,) * (r - len(parts))
            weight = Weight(tuple(padded[i] - padded[i + 1] for i in range(r - 1)))
            assert gl_dimension(parts, r) == weyl_dimension(rs, weight)
            checked += 1
    assert checked == 185  # of the 7 * 30 pairs, 25 have more rows than r
    assert gl_dimension((), 0) == gl_dimension((), 5) == 1


def test_gl_dimension_and_label_rank_build_no_root_system():
    misses = build_root_system.cache_info().misses
    assert gl_dimension((2, 1), 97) == 97 * 98 * 96 // 3
    assert build_root_system.cache_info().misses == misses
    label = BundleLabel((40, 97), u_part=Partition((5, 3, 3)), q_part=Partition((4, 1)), twist=-11)
    assert label_rank(label) > 0
    assert build_root_system.cache_info().misses == misses


# ---------------------------------------------------------------------------
# tensor


def test_tensor_u_twisted_with_dual_column():
    left = parse_bundle(AMB, "U (-2)")
    right = parse_bundle(AMB, "L3 U*")
    out = tensor(left, right)
    assert out.summands == (
        (BundleLabel(AMB, u_part=Partition((1, 1)), twist=-1), 1),
        (BundleLabel(AMB, u_part=Partition((2,)), twist=-1), 1),
    )


def test_tensor_second_exterior_with_dual_column():
    left = parse_bundle(AMB, "L2 U (-1)")
    right = parse_bundle(AMB, "L3 U*")
    out = tensor(left, right)
    assert out.summands == (
        (BundleLabel(AMB, u_part=Partition((1, 1, 1))), 1),
        (BundleLabel(AMB, u_part=Partition((2, 1))), 1),
    )


def test_tensor_column_with_its_dual_contains_the_trivial_bundle():
    left = BundleSum(AMB, [(BundleLabel(AMB, u_part=Partition((1, 1, 1))), 1)])
    right = parse_bundle(AMB, "L3 U*")
    out = tensor(left, right)
    assert out.summands == (
        (BundleLabel(AMB), 1),
        (BundleLabel(AMB, u_part=Partition((2, 1, 1)), twist=1), 1),
    )


def test_tensor_rejects_ambient_mismatch():
    a = BundleSum((4, 7), [(BundleLabel((4, 7)), 1)])
    b = BundleSum((2, 5), [(BundleLabel((2, 5)), 1)])
    with pytest.raises(ValueError, match="ambient mismatch"):
        tensor(a, b)


@pytest.mark.parametrize("mult", [0, -1, 1.5, True], ids=["zero", "negative", "float", "bool"])
@pytest.mark.parametrize("label", [BundleLabel(AMB, twist=1), BundleLabel(AMB, Partition((1,)))],
                         ids=["line", "column"])
def test_a_sum_with_a_bad_multiplicity_is_rejected_by_its_constructor(label, mult):
    # the constructor is the one way to build a sum, so no product is ever handed such a summand
    good = (BundleLabel(AMB, Partition((1, 1))), 1)
    message = re.escape(f"multiplicity must be a positive int, got {mult!r}")
    for make in (lambda: BundleSum(AMB, [(label, mult)]), lambda: BundleSum(AMB, [good, (label, mult)]),
                 lambda: BundleSum.from_pairs(AMB, [(label, mult), good])):
        with pytest.raises(ValueError, match=message):
            make()


@pytest.mark.parametrize("label", [BundleLabel(AMB, twist=1), BundleLabel(AMB, Partition((1,)))],
                         ids=["line", "column"])
def test_a_sum_with_a_label_from_another_grassmannian_is_rejected_by_its_constructor(label):
    # the products build labels unchecked on the sum's ambient: no foreign label may get there
    good = (BundleLabel((3, 7), Partition((1, 1))), 1)
    message = re.escape("label on Gr(4, 7) cannot join a sum on Gr(3, 7)")
    for make in (lambda: BundleSum((3, 7), [(label, 1)]), lambda: BundleSum((3, 7), [good, (label, 1)]),
                 lambda: BundleSum.from_pairs((3, 7), [(label, 1), good])):
        with pytest.raises(ValueError, match=message):
            make()


@pytest.mark.parametrize("ambient", [(9, 3), ("a", 3), (0, 7), (4, 4)], ids=["k>n", "str", "k=0", "k=n"])
def test_an_empty_sum_on_a_bad_ambient_is_rejected_with_the_label_message(ambient):
    with pytest.raises(ValueError) as expected:
        BundleLabel(ambient)
    for make in (lambda: BundleSum(ambient), lambda: BundleSum.from_pairs(ambient, [])):
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            make()


@pytest.mark.parametrize("make,message", [
    (lambda: BundleLabel((3, 7), (1, 1), (), 0), "u-side partition (1, 1) is a tuple, not a Partition"),
    (lambda: BundleLabel((3, 7), [1, 1]), "u-side partition [1, 1] is a list, not a Partition"),
    (lambda: BundleLabel((3, 7), Partition((1,)), (2,)), "q-side partition (2,) is a tuple, not a Partition"),
    (lambda: BundleLabel(5), "ambient 5 is not a pair (k, n)"),
    (lambda: BundleLabel((3, 7, 1)), "ambient (3, 7, 1) is not a pair (k, n)"),
    (lambda: BundleSum((3, 7), [((1, 2), 1)]),
     "summand ((1, 2), 1) is not a pair of a BundleLabel and a multiplicity"),
    (lambda: BundleSum((3, 7), [BundleLabel((3, 7))]),
     f"summand {BundleLabel((3, 7))!r} is not a pair of a BundleLabel and a multiplicity"),
    (lambda: BundleSum((3, 7), [5]), "summand 5 is not a pair of a BundleLabel and a multiplicity"),
    (lambda: BundleSum(5), "ambient 5 is not a pair (k, n)"),
], ids=["tuple-part", "list-part", "tuple-q-part", "int-ambient", "triple-ambient", "tuple-label",
        "bare-label", "int-summand", "int-sum-ambient"])
def test_a_record_field_of_the_wrong_type_is_rejected_naming_it(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_tensor_preserves_rank():
    columns = product(range(5), range(4), range(-2, 3))
    for (ua, qa, ta), (ub, qb, tb) in product(columns, repeat=2):
        a = parse_bundle(AMB, f"L{ua} U ({ta})") if qa == 0 else BundleSum(
            AMB, [(BundleLabel(AMB, Partition((1,) * ua), Partition((1,) * qa), ta), 1)]
        )
        b = BundleSum(AMB, [(BundleLabel(AMB, Partition((1,) * ub), Partition((1,) * qb), tb), 1)])
        assert tensor(a, b).rank() == a.rank() * b.rank()


def _lr_product(a, b):
    """a (x) b with the LR rule on every pair of summands, line bundles included."""
    k, n = a.ambient
    pairs = [
        (BundleLabel(a.ambient, pu, pq, la.twist + lb.twist), ma * mb * cu * cq)
        for la, ma in a.summands
        for lb, mb in b.summands
        for pu, cu in lr_coefficients(la.u_part, lb.u_part, k).items()
        for pq, cq in lr_coefficients(la.q_part, lb.q_part, n - k).items()
    ]
    return BundleSum.from_pairs(a.ambient, pairs)


def _ambient(rng, most):
    """Gr(k, n) with 2 <= n <= ``most`` and 1 <= k < n."""
    n = rng.randint(2, most)
    return rng.randint(1, n - 1), n


def _sums(rng, ambient):
    """A sum of 1-3 labels on ``ambient``; partitions may be empty, so line bundles occur."""
    k, n = ambient

    def part(rows):
        return Partition(sorted((rng.randint(0, 3) for _ in range(rng.randint(0, rows))), reverse=True))

    return BundleSum.from_pairs(ambient, [
        (BundleLabel(ambient, part(k), part(n - k), rng.randint(-4, 4)), rng.randint(1, 3))
        for _ in range(rng.randint(1, 3))
    ])


def test_tensor_with_a_line_bundle_is_the_lr_product():
    # O(t) (x) E = E(t) takes no LR product, on either side and inside a mixed sum
    rng = random.Random("test_tensor_with_a_line_bundle_is_the_lr_product")
    for _ in range(200):
        ambient = _ambient(rng, 6)
        e = _sums(rng, ambient)
        line = BundleSum(ambient, [(BundleLabel(ambient, twist=rng.randint(-5, 5)), rng.randint(1, 3))])
        mixed = BundleSum.from_pairs(ambient, line.summands + _sums(rng, ambient).summands)
        for a, b in ((e, line), (line, e), (e, mixed), (mixed, e)):
            assert tensor(a, b) == _lr_product(a, b)


def test_tensor_rank_matches_the_levi_weyl_product():
    space = gr47()
    rs = space.rs
    a = BundleSum(AMB, [(BundleLabel(AMB, u_part=Partition((2, 1)), twist=-1), 1)])
    b = BundleSum(AMB, [(BundleLabel(AMB, u_part=Partition((1,)), q_part=Partition((1, 1))), 1)])
    prod = tensor(a, b)
    total = sum(
        m * weyl_product_oracle(rs, label_to_weight(lab, space), levi_roots(space))
        for lab, m in prod.summands
    )
    assert total == a.rank() * b.rank()


# ---------------------------------------------------------------------------
# exterior powers


def _label_powers(label, j):
    """(Lambda^0, ..., Lambda^j) of one label, through the fold of its one-summand sum."""
    return exterior_power_sum(BundleSum(label.ambient, [(label, 1)]), j)


def test_exterior_powers_of_the_dual_column_bundle():
    l3u = BundleLabel(AMB, u_part=Partition((1, 1, 1)))
    out = _label_powers(l3u, 4)
    assert out[0].summands == ((BundleLabel(AMB), 1),)
    assert out[1].summands == ((l3u, 1),)
    assert out[2].summands == (
        (BundleLabel(AMB, u_part=Partition((1, 1)), twist=-1), 1),
    )
    assert out[3].summands == (
        (BundleLabel(AMB, u_part=Partition((1,)), twist=-2), 1),
    )
    assert out[4].summands == ((BundleLabel(AMB, twist=-3), 1),)


def test_exterior_power_rank_is_binomial():
    space = gr47()
    l3u = BundleLabel(AMB, u_part=Partition((1, 1, 1)))
    for out, expected in zip(_label_powers(l3u, 4), (1, 4, 6, 4, 1), strict=True):
        total = sum(
            m * weyl_product_oracle(space.rs, label_to_weight(lab, space), levi_roots(space))
            for lab, m in out.summands
        )
        assert total == expected


def test_exterior_power_of_a_quotient_column():
    # Lambda^2(Q) on Gr(4,7) has rank 3 and equals Q^*(1)
    q = BundleLabel(AMB, q_part=Partition((1,)))
    out = _label_powers(q, 3)
    assert out[2].summands == ((BundleLabel(AMB, q_part=Partition((1, 1))), 1),)
    assert out[3].summands == ((BundleLabel(AMB, twist=1), 1),)


def test_exterior_power_rejects_general_plethysm():
    with pytest.raises(ValueError, match="unsupported plethysm"):
        _label_powers(BundleLabel(AMB, u_part=Partition((2, 1))), 2)
    with pytest.raises(ValueError, match="unsupported plethysm"):
        _label_powers(BundleLabel(AMB, u_part=Partition((1,)), q_part=Partition((1,))), 2)
    # Lambda^2 of a genuine 2-column on Gr(4,7) is plethysm too
    with pytest.raises(ValueError, match="unsupported plethysm"):
        _label_powers(BundleLabel(AMB, u_part=Partition((1, 1))), 2)
    # on Gr(4,8) L2 U is no closed-form column: Lambda^0 is O, and it is rejected from Lambda^1 on
    column = BundleLabel((4, 8), u_part=Partition((1, 1)))
    assert _label_powers(column, 0) == (parse_bundle((4, 8), "O"),)
    with pytest.raises(ValueError, match=re.escape("unsupported plethysm shape: Lambda^1 of L2 U")):
        _label_powers(column, 1)


def test_exterior_power_of_line_bundles():
    o2 = BundleLabel(AMB, twist=2)
    out = _label_powers(o2, 1)
    assert out[1].summands == ((o2, 1),)
    assert out[0].summands == ((BundleLabel(AMB), 1),)


def test_exterior_power_sum_of_repeated_line_bundles():
    # Lambda^2 of O(1) + O(1) is O(2)
    two = BundleSum.from_pairs(AMB, [(BundleLabel(AMB, twist=1), 2)])
    out = exterior_power_sum(two, 2)
    assert len(out) == 3
    assert out[2].summands == ((BundleLabel(AMB, twist=2), 1),)
    out = exterior_power_sum(two, 3)
    assert len(out) == 4
    assert out[3].is_zero


def test_exterior_power_sum_rank_is_binomial_of_total_rank():
    mixed = BundleSum.from_pairs(
        AMB, [(BundleLabel(AMB, Partition((1,))), 1), (BundleLabel(AMB, twist=1), 1)]
    )  # rank 5
    for j, expected in enumerate((1, 5, 10, 10, 5, 1)):
        out = exterior_power_sum(mixed, j)
        assert len(out) == j + 1
        assert out[j].rank() == expected


def test_exterior_power_sum_matches_the_character_oracle():
    # every section of 1-3 summands from U*, L(k-1) U*, O(1), O(2) on Gr(k, n), n <= 6
    for n in range(2, 7):
        for k in range(1, n):
            amb = (k, n)
            for size in (1, 2, 3):
                for atoms in combinations_with_replacement(
                    ("U*", f"L{k - 1} U*", "O(1)", "O(2)"), size
                ):
                    section = BundleSum.from_pairs(
                        amb, [p for atom in atoms for p in parse_bundle(amb, atom).summands]
                    )
                    weights = [w for atom in atoms for w in section_atom_weights(amb, atom)]
                    rank = section.rank()
                    powers = exterior_power_sum(section, rank)
                    assert len(powers) == rank + 1 == len(weights) + 1
                    for d, power in enumerate(powers):
                        character = Counter()
                        for lab, m in power.summands:
                            for w, c in torus_character(
                                amb, lab.u_part.parts, lab.q_part.parts, lab.twist
                            ).items():
                                character[w] += m * c
                        assert character == exterior_character(n, weights, d), (amb, atoms, d)


def _two_merge_fold(bsum, j):
    """(Lambda^0, ..., Lambda^j) by folding one copy of one summand at a time, each
    product merged on its own and then each degree merged again."""
    ambient = bsum.ambient
    graded = [BundleSum(ambient, [(BundleLabel(ambient), 1)])]
    for lab, m in bsum.summands:
        powers = _label_powers(lab, min(label_rank(lab), j))
        for _ in range(m):
            graded = [
                BundleSum.from_pairs(ambient, [
                    pair
                    for p, power in enumerate(powers)
                    if 0 <= d - p < len(graded)
                    for pair in _lr_product(graded[d - p], power).summands
                ])
                for d in range(min(j, len(graded) + len(powers) - 2) + 1)
            ]
    return tuple(graded) + (BundleSum(ambient),) * (j + 1 - len(graded))


def test_exterior_power_sum_matches_a_two_merge_fold_on_the_koszul_pool():
    for k, n, atoms, _ in koszul_pool_sample(19, 60):
        amb = (k, n)
        section = BundleSum.from_pairs(
            amb, [p for atom in atoms for p in parse_bundle(amb, atom).summands]
        )
        dual = dual_sum(section)
        rank = dual.rank()
        assert exterior_power_sum(dual, rank) == _two_merge_fold(dual, rank), (amb, atoms)
        assert exterior_power_sum(dual, 2) == _two_merge_fold(dual, 2), (amb, atoms)


# ---------------------------------------------------------------------------
# derived labels: tensor, the exterior-power fold and build_koszul build them unchecked


def _assert_labels_revalidate(bsum):
    """Every label of ``bsum`` is what the checked constructors build from its fields."""
    for label, _ in bsum.summands:
        assert type(label) is BundleLabel and BundleLabel(*label) == label, label
        for p in (label.u_part, label.q_part):
            assert type(p) is Partition and Partition(p.parts) == p, label


def _column_sums(rng, ambient):
    """A sum of 1-3 twisted columns Lambda^a U or Lambda^a Q, a in {0, 1, rank - 1, rank}."""
    k, n = ambient
    pairs = []
    for _ in range(rng.randint(1, 3)):
        on_u = rng.random() < 0.5
        rank = k if on_u else n - k
        column = Partition((1,) * rng.choice((0, 1, rank - 1, rank)))
        sides = (column, Partition()) if on_u else (Partition(), column)
        pairs.append((BundleLabel(ambient, *sides, rng.randint(-3, 3)), rng.randint(1, 2)))
    return BundleSum.from_pairs(ambient, pairs)


def test_tensor_and_exterior_power_labels_revalidate_to_themselves():
    rng = random.Random("test_tensor_and_exterior_power_labels_revalidate_to_themselves")
    for _ in range(200):
        ambient = _ambient(rng, 7)
        _assert_labels_revalidate(tensor(_sums(rng, ambient), _sums(rng, ambient)))
        for power in exterior_power_sum(_column_sums(rng, ambient), 4):
            _assert_labels_revalidate(power)


def test_koszul_labels_revalidate_to_themselves_on_the_koszul_pool():
    for k, n, atoms, twist in koszul_pool_sample(21, 60):
        amb = (k, n)
        section = BundleSum.from_pairs(
            amb, [p for atom in atoms for p in parse_bundle(amb, atom).summands]
        )
        space = ParabolicSpace(rs=build_root_system("A", n - 1), crossed=frozenset({k}))
        dual = dual_sum(section)
        complex_ = build_koszul(space, section, parse_bundle(amb, twist))
        for bsum in (*exterior_power_sum(dual, dual.rank()), *complex_.terms):
            _assert_labels_revalidate(bsum)


# ---------------------------------------------------------------------------
# weights


def test_label_to_weight_pinned_generators():
    space = gr47()
    ((l3_twisted, _),) = parse_bundle(AMB, "L3 U* (-3)").summands
    ((l3, _),) = parse_bundle(AMB, "L3 U*").summands
    assert label_to_weight(l3_twisted, space) == Weight.of(0, 0, 1, -3, 0, 0)
    assert label_to_weight(BundleLabel(AMB, twist=1), space) == Weight.fundamental(6, 4)
    assert label_to_weight(tangent_label(AMB), space) == Weight.of(1, 0, 0, 0, 0, 1)
    assert label_to_weight(l3, space) == Weight.of(0, 0, 1, 0, 0, 0)


def test_label_to_weight_output_is_p_dominant():
    rng = random.Random(13)
    space = gr47()
    for _ in range(100):
        u = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
        q = tuple(sorted((rng.randint(0, 3) for _ in range(2)), reverse=True))
        label = BundleLabel(AMB, u_part=Partition(u), q_part=Partition(q), twist=rng.randint(-3, 3))
        w = label_to_weight(label, space)
        assert all(w.coeffs[i - 1] >= 0 for i in space.uncrossed)
        assert weyl_product_oracle(space.rs, w, levi_roots(space)) == label_rank(label)


def test_label_to_weight_rejects_the_wrong_space():
    wrong = ParabolicSpace(rs=build_root_system("A", 6), crossed=frozenset({3}))
    with pytest.raises(ValueError, match="needs the space"):
        label_to_weight(BundleLabel(AMB, twist=1), wrong)


def test_sum_to_weights_checks_the_space_once_and_fails_closed_on_an_empty_sum():
    wrong = ParabolicSpace(rs=build_root_system("A", 6), crossed=frozenset({3}))
    terms = build_koszul(gr47(), parse_bundle(AMB, "L3 U*"), parse_bundle(AMB, "T")).terms
    for term in terms:
        assert sum_to_weights(term, gr47()) == tuple(
            (label_to_weight(lab, gr47()), m) for lab, m in term.summands
        )
    for bsum in (BundleSum.from_pairs(AMB, []), terms[1]):
        with pytest.raises(ValueError, match=re.escape("label on Gr(4,7) needs the space A6/P(4)")):
            sum_to_weights(bsum, wrong)


def test_a_sum_on_the_space_holds_no_label_from_another_grassmannian():
    # sum_to_weights checks the space against the sum's ambient only: the constructor has
    # checked every label's ambient against it, in every way a sum is built or rebuilt
    stray = [(BundleLabel((3, 7), twist=1), 1)]
    message = re.escape("label on Gr(3, 7) cannot join a sum on Gr(4, 7)")
    for make in (lambda: BundleSum(AMB, stray), lambda: BundleSum.from_pairs(AMB, stray),
                 lambda: copy.copy(BundleSum._trusted((AMB, tuple(stray))))):
        with pytest.raises(ValueError, match=message):
            make()


def test_rank_of_the_tangent_bundle():
    assert label_rank(tangent_label(AMB)) == 12
    ((l3, _),) = parse_bundle(AMB, "L3 U*").summands
    assert label_rank(l3) == 4


# ---------------------------------------------------------------------------
# duals, parsing, formatting


def test_second_exterior_of_dual_is_twist_of_second_exterior():
    assert parse_bundle(AMB, "L2 U*") == BundleSum(AMB, [(BundleLabel(AMB, Partition((1, 1)), twist=1), 1)])


def test_dual_label_is_an_involution():
    rng = random.Random(23)
    for _ in range(50):
        u = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
        q = tuple(sorted((rng.randint(0, 2) for _ in range(2)), reverse=True))
        label = BundleLabel(AMB, u_part=Partition(u), q_part=Partition(q), twist=rng.randint(-3, 3))
        assert dual_label(dual_label(label)) == label
        assert label_rank(dual_label(label)) == label_rank(label)


def test_dual_labels_revalidate_to_themselves_and_dualize_back():
    rng = random.Random("test_dual_labels_revalidate_to_themselves_and_dualize_back")
    for _ in range(200):
        k, n = _ambient(rng, 7)
        bsum = _sums(rng, (k, n))
        _assert_labels_revalidate(dual_sum(bsum))
        for label, _ in bsum.summands:
            assert dual_label(dual_label(label)) == label
            # each side's complement is canonical itself, not only once the label is built
            for p, rows in ((label.u_part, k), (label.q_part, n - k)):
                complement = _reversed_complement(p, rows)
                assert Partition(complement.parts) == complement and complement.length < rows
        assert dual_sum(dual_sum(bsum)) == bsum


def test_a_one_summand_sum_is_the_checked_sum_of_that_summand():
    label = BundleLabel(AMB, Partition((2, 1)), Partition((1,)), -2)
    assert BundleSum(AMB, [(label, 3)]) == BundleSum.from_pairs(AMB, [(label, 3)])
    assert BundleSum(AMB, [(label, 3)]).summands == ((label, 3),)
    assert type(BundleSum(list(AMB), [(label, 1)]).ambient) is tuple
    for mult in (0, -1):
        with pytest.raises(ValueError, match=re.escape(f"positive int, got {mult}")):
            BundleSum(AMB, [(label, mult)])


def test_dual_of_line_bundle_flips_the_twist():
    assert dual_label(BundleLabel(AMB, twist=3)) == BundleLabel(AMB, twist=-3)


def test_parse_bundle_goldens():
    assert parse_bundle(AMB, "O(-3)").summands == ((BundleLabel(AMB, twist=-3), 1),)
    assert parse_bundle(AMB, "L3 U*").summands == (
        (BundleLabel(AMB, u_part=Partition((1,)), twist=1), 1),
    )
    assert parse_bundle(AMB, "T").summands == ((tangent_label(AMB), 1),)
    assert parse_bundle(AMB, "L3 U* (-3)").summands == (
        (BundleLabel(AMB, u_part=Partition((1,)), twist=-2), 1),
    )
    assert parse_bundle(AMB, "W[2,1]U * Q").summands == (
        (BundleLabel(AMB, u_part=Partition((2, 1)), q_part=Partition((1,))), 1),
    )
    # a dual star glued to the generator is not a product separator
    assert parse_bundle(AMB, "U* * Q*") == tensor(parse_bundle(AMB, "U*"), parse_bundle(AMB, "Q*"))
    # an ambient given as a list is read as its tuple
    assert parse_bundle([4, 7], "L3 U*") == parse_bundle(AMB, "L3 U*")


def test_parse_bundle_rejects_garbage():
    with pytest.raises(ValueError, match="parse"):
        parse_bundle(AMB, "L3 X")
    with pytest.raises(ValueError, match="parse"):
        parse_bundle(AMB, "")
    # an integer of the grammar is ASCII digits (\d took the Arabic-Indic 3 and 2); "_" and "+" stay out
    for text in ("O(-\u0663)", "L\u0663 U*", "S\u0662 U", "W[\u0662,1]U", "O(1_0)", "O(+1)"):
        with pytest.raises(ValueError, match="cannot parse bundle atom"):
            parse_bundle(AMB, text)
    with pytest.raises(ValueError, match="cannot parse partition"):
        parse_partition("2,\u0661")


@pytest.mark.parametrize("ambient,text,reason", [
    ((0, 3), "garbage", "requires 1 <= k < n"),
    ((4, 4), "L9 U", "requires 1 <= k < n"),
    ((4.0, 7), "T", "must be integers"),
    ((4, "7"), "Q*", "must be integers"),
    (5, "O", "ambient 5 is not a pair (k, n)"),
])
def test_parse_bundle_reports_a_bad_ambient_before_any_atom(ambient, text, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        parse_bundle(ambient, text)


# every atom form on every kind of ambient, against the checked constructors
SWEEP_AMBIENTS = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (2, 6), (5, 6), (4, 9),
                  (0, 3), (4, 4), (3, 2), (2.0, 4), (True, 3), (1, "3"), (1, 2, 3)]
SWEEP_TWISTS = {"": 0, "(1)": 1, "(-2)": -2, "(0)": 0, "( 3 )": 3, "(+1)": None, "(x)": None}
# a W[...] list: every row count from 0 to 6, two lists that are not weakly decreasing, trailing
# zeros and a leading zero digit
SWEEP_SCHUR = ["0", "2", "2,1", "1,1", "3,3,1", "2,2,2,2", "3,1,1,1,1", "1,1,1,1,1,1",
               "1,2", "2,0,1", "1,0,0", "01,1"]


REASONS = ("ambient", "atom", "Lambda", "decreasing", "exceeds")


def _sweep_forms():
    """(text, kind, generator, degree or parts) of each atom form but its twist: O, T, and each
    generator bare, as L_d and S_d for d in 0..5, and as W[...]."""
    yield "O", "line", None, None
    yield "T", "tangent", None, None
    for gen in ("U", "U*", "Q", "Q*"):
        yield gen, "ext", gen, 1
        for d in range(6):
            yield f"L{d} {gen}", "ext", gen, d
            yield f"S{d}{gen}", "sym", gen, d
        for parts in SWEEP_SCHUR:
            yield f"W[{parts}] {gen}", "schur", gen, tuple(map(int, parts.split(",")))


def _checked_atom(ambient, kind, gen, value, twist):
    """The label of one atom built by the checked constructors alone."""
    if kind == "line":
        return BundleLabel(ambient, twist=twist)
    if kind == "tangent":
        tangent = tangent_label(ambient)
        return BundleLabel(ambient, tangent.u_part, tangent.q_part, tangent.twist + twist)
    k, n = ambient
    rank = k if gen[0] == "U" else n - k
    if kind == "ext" and value > rank:
        raise ValueError(f"Lambda^{value} of a rank-{rank} generator vanishes or is undefined")
    p = Partition((1,) * value if kind == "ext" else (value,) if kind == "sym" else value)
    side = (p, Partition()) if gen[0] == "U" else (Partition(), p)
    if gen.endswith("*"):
        return dual_label(BundleLabel(ambient, *side, -twist))
    return BundleLabel(ambient, *side, twist)


def _outcome(build):
    """What ``build`` returns, or the message of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def test_every_atom_form_parses_to_the_label_the_checked_constructors_give():
    # the grammar builds each label from the pieces it matched: on a valid ambient each atom is
    # the checked label and each rejected atom keeps its message; on an invalid one every text
    # fails with the ambient's own message, before any atom
    outcomes = Counter()
    for ambient in SWEEP_AMBIENTS:
        empty = _outcome(lambda: BundleLabel(ambient))  # the message of a bad ambient
        for head, kind, gen, value in _sweep_forms():
            for twist_text, twist in SWEEP_TWISTS.items():
                text = head + twist_text
                if type(empty) is str:
                    want = empty
                elif twist is None:
                    want = f"cannot parse bundle atom {text!r}"
                else:
                    want = _outcome(lambda: ((_checked_atom(ambient, kind, gen, value, twist), 1),))
                got = _outcome(lambda: parse_bundle(ambient, text).summands)
                assert got == want, (ambient, text)
                outcomes[next(w for w in REASONS if w in want) if type(want) is str else "label"] += 1
    # each reason a text is rejected for, on a valid ambient and before any atom on an invalid one
    assert outcomes == {
        "label": 2_660, "atom": 1_632, "Lambda": 420, "decreasing": 320, "exceeds": 680, "ambient": 4_998,
    }


def _parse_bundle_fold_oracle(ambient, text):
    """The sum ``text`` names, as the fold from the trivial bundle O: each atom, parsed alone,
    is tensored in with ``tensor``, every sum built by ``from_pairs``."""
    out = BundleSum.from_pairs(ambient, [(BundleLabel(ambient), 1)])
    for atom in re.split(r"(?<![UQ])\*", text):
        if atom.strip():
            ((label, mult),) = parse_bundle(ambient, atom.strip()).summands
            out = tensor(out, BundleSum.from_pairs(ambient, [(label, mult)]))
    return out


def test_parse_bundle_equals_the_fold_from_o_on_the_koszul_pool_and_the_goldens():
    texts = {
        (AMB, text)
        for text in ("O(-3)", "L3 U*", "T", "L3 U* (-3)", "W[2,1]U * Q", "U* * Q*", "T(2) * S2 Q*")
    }
    for k, n, atoms, twist in json.loads(KOSZUL_POOL.read_text())["cases"]:
        texts.update(((k, n), text) for text in (*atoms, twist, " * ".join(atoms)))
    assert len(texts) > 1_000
    for ambient, text in sorted(texts):
        parsed = parse_bundle(ambient, text)
        assert parsed == _parse_bundle_fold_oracle(ambient, text), (ambient, text)
        _assert_labels_revalidate(parsed)


def test_format_parse_round_trip():
    for u, q, t in product(_box_partitions(3, 3), _box_partitions(2, 2), range(-3, 4)):
        label = BundleLabel(AMB, Partition(u), Partition(q), t)
        parsed = parse_bundle(AMB, format_label(label))
        assert parsed.summands == ((label, 1),)


def _box_partitions(rows: int, width: int):
    """Every partition with at most ``rows`` rows and parts at most ``width``."""
    for parts in combinations_with_replacement(range(width, -1, -1), rows):
        yield tuple(p for p in parts if p)


def test_dual_generators_match_the_reversed_complement_oracle():
    checked = 0
    for n in range(2, 8):
        for k in range(1, n):
            amb = (k, n)
            for gen, rank in (("U*", k), ("Q*", n - k)):
                for p in _box_partitions(rank, 3):
                    for t in range(-2, 3):
                        want = general_schur_oracle(amb, gen, p, t)
                        texts = [f"W[{','.join(map(str, p)) or 0}] {gen} ({t})"]
                        if all(x == 1 for x in p):
                            texts.append(f"L{len(p)} {gen} ({t})")
                        if len(p) <= 1:
                            texts.append(f"S{sum(p)} {gen} ({t})")
                        for text in texts:
                            ((lab, mult),) = parse_bundle(amb, text).summands
                            assert mult == 1
                            assert (lab.u_part.parts, lab.q_part.parts, lab.twist) == want
                        checked += 1
    assert checked == 4_550


def test_exterior_power_sum_rejects_a_negative_degree():
    for j in (-1, True, 1.0, 1.5):
        with pytest.raises(ValueError, match=f"exterior power degree must be nonnegative and an int, got {j!r}"):
            exterior_power_sum(parse_bundle(AMB, "U"), j)


def test_padding_a_partition_past_its_rows_is_rejected():
    assert Partition((2, 1)).padded(3) == (2, 1, 0)
    with pytest.raises(ValueError, match=r"partition \(2, 1, 1\) has more than 2 rows"):
        Partition((2, 1, 1)).padded(2)


def test_the_zero_sum_prints_as_0():
    assert format_sum(BundleSum(AMB)) == "0"
    assert format_sum(parse_bundle(AMB, "O")) == "O"
