import random
from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from gpcoh import (
    BundleSum,
    ParabolicSpace,
    Partition,
    Weight,
    build_root_system,
    dual_label,
    exterior_power,
    exterior_power_sum,
    format_label,
    generator_power,
    gl_dimension,
    label_rank,
    label_to_weight,
    levi_dimension,
    line_bundle,
    lr_coefficients,
    parse_bundle,
    parse_partition,
    schur_label,
    tangent_label,
    tensor,
)
from gpcoh.schur import _general_schur

from conftest import (
    _canonical,
    exterior_character,
    general_schur_oracle,
    section_atom_weights,
    ssyt_count,
    torus_character,
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


def test_parse_partition():
    assert parse_partition("2,1,1") == Partition((2, 1, 1))
    assert parse_partition("") == Partition(())
    with pytest.raises(ValueError, match="parse"):
        parse_partition("2,x")


# ---------------------------------------------------------------------------
# canonical labels


def test_top_exterior_power_of_u_is_the_negative_line_bundle():
    assert schur_label(AMB, u_part=(1, 1, 1, 1)) == line_bundle(AMB, -1)


def test_third_exterior_power_of_u_equals_twisted_dual():
    # the same bundle built two ways lands on one canonical form
    via_dual = generator_power(AMB, "U*", "ext", 1, twist=-1)
    assert schur_label(AMB, u_part=(1, 1, 1)) == via_dual


def test_full_column_on_the_quotient_side_adds_a_positive_twist():
    assert schur_label(AMB, q_part=(1, 1, 1)) == line_bundle(AMB, 1)


def test_equal_bundles_are_equal_labels():
    full = schur_label(AMB, u_part=(2, 1, 1, 1))
    reduced = schur_label(AMB, u_part=(1,), twist=-1)
    assert full == reduced
    assert hash(full) == hash(reduced)
    assert BundleSum.from_pairs(AMB, [(full, 1), (reduced, 1)]).summands == ((reduced, 2),)


@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(-3, 3),
)
def test_constructed_labels_are_canonical_and_rank_preserving(u, q, t):
    u = tuple(sorted(u, reverse=True))
    q = tuple(sorted(q, reverse=True))
    label = schur_label(AMB, u_part=u, q_part=q, twist=t)
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


@given(
    st.lists(st.integers(1, 3), min_size=0, max_size=3),
    st.lists(st.integers(1, 3), min_size=0, max_size=3),
)
def test_lr_symmetry_on_random_small_pairs(a, b):
    mu = Partition(tuple(sorted(a, reverse=True)))
    nu = Partition(tuple(sorted(b, reverse=True)))
    assert lr_coefficients(mu, nu, 4) == lr_coefficients(nu, mu, 4)


def test_gl_dimension_matches_tableau_count():
    rng = random.Random(3)
    for _ in range(30):
        r = rng.randint(1, 4)
        shape = tuple(sorted((rng.randint(0, 4) for _ in range(r)), reverse=True))
        assert gl_dimension(Partition(shape), r) == ssyt_count(shape, r)


# ---------------------------------------------------------------------------
# tensor


def test_tensor_u_twisted_with_dual_column():
    left = BundleSum.of(generator_power(AMB, "U", "ext", 1, twist=-2))
    right = BundleSum.of(generator_power(AMB, "U*", "ext", 3))
    out = tensor(left, right)
    assert out.summands == (
        (schur_label(AMB, u_part=(1, 1), twist=-1), 1),
        (schur_label(AMB, u_part=(2,), twist=-1), 1),
    )


def test_tensor_second_exterior_with_dual_column():
    left = BundleSum.of(generator_power(AMB, "U", "ext", 2, twist=-1))
    right = BundleSum.of(generator_power(AMB, "U*", "ext", 3))
    out = tensor(left, right)
    assert out.summands == (
        (schur_label(AMB, u_part=(1, 1, 1)), 1),
        (schur_label(AMB, u_part=(2, 1)), 1),
    )


def test_tensor_column_with_its_dual_contains_the_trivial_bundle():
    left = BundleSum.of(schur_label(AMB, u_part=(1, 1, 1)))
    right = BundleSum.of(generator_power(AMB, "U*", "ext", 3))
    out = tensor(left, right)
    assert out.summands == (
        (line_bundle(AMB, 0), 1),
        (schur_label(AMB, u_part=(2, 1, 1), twist=1), 1),
    )


def test_tensor_rejects_ambient_mismatch():
    a = BundleSum.of(line_bundle((4, 7), 0))
    b = BundleSum.of(line_bundle((2, 5), 0))
    with pytest.raises(ValueError, match="ambient mismatch"):
        tensor(a, b)


@given(
    st.integers(0, 4),
    st.integers(0, 3),
    st.integers(-2, 2),
    st.integers(0, 4),
    st.integers(0, 3),
    st.integers(-2, 2),
)
def test_tensor_preserves_rank(ua, qa, ta, ub, qb, tb):
    a = BundleSum.of(generator_power(AMB, "U", "ext", ua, ta)) if qa == 0 else BundleSum.of(
        schur_label(AMB, u_part=(1,) * ua, q_part=(1,) * qa, twist=ta)
    )
    b = BundleSum.of(schur_label(AMB, u_part=(1,) * ub, q_part=(1,) * qb, twist=tb))
    assert tensor(a, b).rank() == a.rank() * b.rank()


def test_tensor_rank_matches_levi_dimension():
    space = gr47()
    rs = space.rs
    a = BundleSum.of(schur_label(AMB, u_part=(2, 1), twist=-1))
    b = BundleSum.of(schur_label(AMB, u_part=(1,), q_part=(1, 1)))
    prod = tensor(a, b)
    total = sum(
        m * levi_dimension(rs, space.crossed, label_to_weight(lab, space))
        for lab, m in prod.summands
    )
    assert total == a.rank() * b.rank()


# ---------------------------------------------------------------------------
# exterior powers


def test_exterior_powers_of_the_dual_column_bundle():
    l3u = schur_label(AMB, u_part=(1, 1, 1))
    assert exterior_power(l3u, 0).summands == ((line_bundle(AMB, 0), 1),)
    assert exterior_power(l3u, 1).summands == ((l3u, 1),)
    assert exterior_power(l3u, 2).summands == (
        (schur_label(AMB, u_part=(1, 1), twist=-1), 1),
    )
    assert exterior_power(l3u, 3).summands == (
        (schur_label(AMB, u_part=(1,), twist=-2), 1),
    )
    assert exterior_power(l3u, 4).summands == ((line_bundle(AMB, -3), 1),)


def test_exterior_power_rank_is_binomial():
    space = gr47()
    l3u = schur_label(AMB, u_part=(1, 1, 1))
    for j, expected in enumerate((1, 4, 6, 4, 1)):
        out = exterior_power(l3u, j)
        total = sum(
            m * levi_dimension(space.rs, space.crossed, label_to_weight(lab, space))
            for lab, m in out.summands
        )
        assert total == expected


def test_exterior_power_of_a_quotient_column():
    # Lambda^2(Q) on Gr(4,7) has rank 3 and equals Q^*(1)
    q = schur_label(AMB, q_part=(1,))
    out = exterior_power(q, 2)
    assert out.summands == ((schur_label(AMB, q_part=(1, 1)), 1),)
    out3 = exterior_power(q, 3)
    assert out3.summands == ((line_bundle(AMB, 1), 1),)


def test_exterior_power_rejects_out_of_range_degree():
    with pytest.raises(ValueError, match="out of range"):
        exterior_power(schur_label(AMB, u_part=(1, 1, 1)), 5)


def test_exterior_power_rejects_general_plethysm():
    with pytest.raises(ValueError, match="unsupported plethysm"):
        exterior_power(schur_label(AMB, u_part=(2, 1)), 2)
    with pytest.raises(ValueError, match="unsupported plethysm"):
        exterior_power(schur_label(AMB, u_part=(1,), q_part=(1,)), 2)
    # Lambda^2 of a genuine 2-column on Gr(4,7) is plethysm too
    with pytest.raises(ValueError, match="unsupported plethysm"):
        exterior_power(schur_label(AMB, u_part=(1, 1)), 2)


def test_exterior_power_of_line_bundles():
    o2 = line_bundle(AMB, 2)
    assert exterior_power(o2, 1).summands == ((o2, 1),)
    assert exterior_power(o2, 0).summands == ((line_bundle(AMB, 0), 1),)


def test_exterior_power_sum_of_repeated_line_bundles():
    # Lambda^2 of O(1) + O(1) is O(2)
    two = BundleSum.from_pairs(AMB, [(line_bundle(AMB, 1), 2)])
    out = exterior_power_sum(two, 2)
    assert len(out) == 3
    assert out[2].summands == ((line_bundle(AMB, 2), 1),)
    out = exterior_power_sum(two, 3)
    assert len(out) == 4
    assert out[3].is_zero


def test_exterior_power_sum_rank_is_binomial_of_total_rank():
    mixed = BundleSum.from_pairs(
        AMB, [(generator_power(AMB, "U", "ext", 1), 1), (line_bundle(AMB, 1), 1)]
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


# ---------------------------------------------------------------------------
# weights


def test_label_to_weight_pinned_generators():
    space = gr47()
    assert label_to_weight(
        generator_power(AMB, "U*", "ext", 3, twist=-3), space
    ) == Weight.of(0, 0, 1, -3, 0, 0)
    assert label_to_weight(line_bundle(AMB, 1), space) == Weight.fundamental(6, 4)
    assert label_to_weight(tangent_label(AMB), space) == Weight.of(1, 0, 0, 0, 0, 1)
    assert label_to_weight(generator_power(AMB, "U*", "ext", 3), space) == Weight.of(
        0, 0, 1, 0, 0, 0
    )


def test_label_to_weight_output_is_p_dominant():
    rng = random.Random(13)
    space = gr47()
    for _ in range(100):
        u = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
        q = tuple(sorted((rng.randint(0, 3) for _ in range(2)), reverse=True))
        label = schur_label(AMB, u_part=u, q_part=q, twist=rng.randint(-3, 3))
        w = label_to_weight(label, space)
        assert all(w.coeffs[i - 1] >= 0 for i in space.uncrossed)
        assert levi_dimension(space.rs, space.crossed, w) == label_rank(label)


def test_label_to_weight_rejects_the_wrong_space():
    wrong = ParabolicSpace(rs=build_root_system("A", 6), crossed=frozenset({3}))
    with pytest.raises(ValueError, match="needs the space"):
        label_to_weight(line_bundle(AMB, 1), wrong)


def test_rank_of_the_tangent_bundle():
    assert label_rank(tangent_label(AMB)) == 12
    assert label_rank(generator_power(AMB, "U*", "ext", 3)) == 4


# ---------------------------------------------------------------------------
# duals, parsing, formatting


def test_second_exterior_of_dual_is_twist_of_second_exterior():
    assert generator_power(AMB, "U*", "ext", 2) == schur_label(AMB, u_part=(1, 1), twist=1)


def test_dual_label_is_an_involution():
    rng = random.Random(23)
    for _ in range(50):
        u = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
        q = tuple(sorted((rng.randint(0, 2) for _ in range(2)), reverse=True))
        label = schur_label(AMB, u_part=u, q_part=q, twist=rng.randint(-3, 3))
        assert dual_label(dual_label(label)) == label
        assert label_rank(dual_label(label)) == label_rank(label)


def test_dual_of_line_bundle_flips_the_twist():
    assert dual_label(line_bundle(AMB, 3)) == line_bundle(AMB, -3)


def test_parse_bundle_goldens():
    assert parse_bundle(AMB, "O(-3)").summands == ((line_bundle(AMB, -3), 1),)
    assert parse_bundle(AMB, "L3 U*").summands == (
        (schur_label(AMB, u_part=(1,), twist=1), 1),
    )
    assert parse_bundle(AMB, "T").summands == ((tangent_label(AMB), 1),)
    assert parse_bundle(AMB, "L3 U* (-3)").summands == (
        (schur_label(AMB, u_part=(1,), twist=-2), 1),
    )
    assert parse_bundle(AMB, "W[2,1]U * Q").summands == (
        (schur_label(AMB, u_part=(2, 1), q_part=(1,)), 1),
    )
    # a dual star glued to the generator is not a product separator
    assert parse_bundle(AMB, "U* * Q*") == tensor(
        BundleSum.of(generator_power(AMB, "U*", "ext", 1)),
        BundleSum.of(generator_power(AMB, "Q*", "ext", 1)),
    )


def test_parse_bundle_rejects_garbage():
    with pytest.raises(ValueError, match="parse"):
        parse_bundle(AMB, "L3 X")
    with pytest.raises(ValueError, match="parse"):
        parse_bundle(AMB, "")


@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3),
)
def test_format_parse_round_trip(u, q, t):
    label = schur_label(
        AMB, u_part=tuple(sorted(u, reverse=True)), q_part=tuple(sorted(q, reverse=True)), twist=t
    )
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
                        got = [_general_schur(amb, gen, Partition(p), t)]
                        if all(x == 1 for x in p):
                            got.append(generator_power(amb, gen, "ext", len(p), t))
                        if len(p) <= 1:
                            got.append(generator_power(amb, gen, "sym", sum(p), t))
                        for lab in got:
                            assert (lab.u_part.parts, lab.q_part.parts, lab.twist) == want
                        checked += 1
    assert checked == 4_550
