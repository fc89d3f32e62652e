import copy
import math
import pickle
import random
import re
import time
from itertools import product

import pytest

from gpcoh import (
    ParabolicSpace,
    Weight,
    adjoint_dimension,
    build_root_system,
    bundle_cohomology,
    bwb,
    dominantize,
    weyl_dimension,
)
from gpcoh import root_system
from gpcoh.root_system import _positive_roots

from conftest import (
    ALL_TYPES,
    a_type_positive_roots,
    is_dominant,
    is_strictly_dominant,
    levi_roots,
    positive_roots_oracle,
    reflection_walk_oracle,
    ssyt_count,
    weyl_product_oracle,
)



def closed_form_count(letter: str, n: int) -> int:
    return {
        "A": n * (n + 1) // 2,
        "B": n * n,
        "C": n * n,
        "D": n * (n - 1),
        "E": {6: 36, 7: 63, 8: 120}.get(n, 0),
        "F": 24,
        "G": 6,
    }[letter]


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_positive_root_counts_match_closed_forms(letter, rank):
    rs = build_root_system(letter, rank)
    assert len(rs.positive_roots) == closed_form_count(letter, rank)


def test_the_root_builder_stops_past_the_closed_form_count():
    # the affine A1 matrix has roots at every height; as a rank-2 matrix it is held to A2's 3
    start = time.perf_counter()
    message = r"^root builder passed \|Phi\+\| = 3: the Cartan matrix is not of finite type$"
    with pytest.raises(AssertionError, match=message):
        _positive_roots(((2, -2), (-2, 2)), 2, closed_form_count("A", 2))
    assert time.perf_counter() - start < 1
    a2 = build_root_system("A", 2).cartan
    with pytest.raises(AssertionError, match=r"^root builder found 3 positive roots, not \|Phi\+\| = 4$"):
        _positive_roots(a2, 2, 4)


@pytest.mark.parametrize("n", range(1, 8))
def test_a_type_positive_roots_are_interval_vectors(n):
    rs = build_root_system("A", n)
    assert set(rs.positive_roots) == a_type_positive_roots(n)


def test_named_adjoint_dimensions():
    assert adjoint_dimension(build_root_system("A", 6)) == 48
    assert adjoint_dimension(build_root_system("G", 2)) == 14
    assert adjoint_dimension(build_root_system("F", 4)) == 52
    assert adjoint_dimension(build_root_system("E", 6)) == 78
    assert adjoint_dimension(build_root_system("E", 7)) == 133
    assert adjoint_dimension(build_root_system("C", 3)) == 21
    assert adjoint_dimension(build_root_system("A", 5)) == 35


@pytest.mark.parametrize(
    "letter,rank",
    [("Z", 9), ("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3)],
)
def test_invalid_type_rank_pairs_rejected(letter, rank):
    with pytest.raises(ValueError, match="valid"):
        build_root_system(letter, rank)


@pytest.mark.parametrize("cached,probe", [(3, 3.7), (3, 3.0), (1, True)])
def test_a_rank_that_is_not_an_int_is_rejected_even_when_an_equal_int_is_cached(cached, probe):
    assert build_root_system("A", cached).rank == cached
    with pytest.raises(ValueError, match=f"^invalid rank {probe!r} for type A"):
        build_root_system("A", probe)


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_cartan_matrix_shape(letter, rank):
    rs = build_root_system(letter, rank)
    for i in range(rank):
        assert rs.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert rs.cartan[i][j] <= 0


def test_cartan_matrices_of_the_small_exceptional_types():
    assert build_root_system("G", 2).cartan == ((2, -1), (-3, 2))
    assert build_root_system("F", 4).cartan == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_rho_pairs_to_one_with_every_simple_coroot(letter, rank):
    rs = build_root_system(letter, rank)
    assert rs.rho.coeffs == (1,) * rank


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_positive_roots_have_nonnegative_coordinates(letter, rank):
    rs = build_root_system(letter, rank)
    for root in rs.positive_roots:
        assert all(c >= 0 for c in root)
        assert sum(root) >= 1


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_positive_roots_in_graded_lex_order(letter, rank):
    rs = build_root_system(letter, rank)
    keys = [(sum(r), r) for r in rs.positive_roots]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# dominantize


def test_dominantize_zero_weight_on_p1_is_singular():
    # lambda = -rho: lambda + rho is the zero weight
    rs = build_root_system("A", 1)
    assert dominantize(rs, Weight((-1,))) is None


def test_dominantize_shifted_triple_twist_weight_is_singular():
    # w3 - 3 w4 on A6: lambda + rho = (1, 1, 2, -2, 1, 1) is singular
    rs = build_root_system("A", 6)
    assert dominantize(rs, Weight((0, 0, 1, -3, 0, 0))) is None


def test_dominantize_shifted_adjoint_weight_is_regular_of_length_zero():
    # w1 + w6, the adjoint weight of A6: lambda + rho = (2, 1, 1, 1, 1, 2) is already dominant
    rs = build_root_system("A", 6)
    assert dominantize(rs, Weight((1, 0, 0, 0, 0, 1))) == (Weight((1, 0, 0, 0, 0, 1)), 0)


def test_dominantize_rank_mismatch_rejected():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError, match="rank mismatch"):
        dominantize(rs, Weight((0, 0)))


def test_dominantize_regular_output_is_strictly_dominant_and_stable():
    rs = build_root_system("C", 4)
    for coeffs in product(range(-7, 6), repeat=4):
        res = dominantize(rs, Weight(coeffs))
        if res is not None:
            mu, length = res
            assert is_strictly_dominant(Weight([c + 1 for c in mu]))
            assert length <= len(rs.positive_roots)
            assert dominantize(rs, mu) == (mu, 0)


def test_dominantize_of_a_weight_with_a_minus_one_is_none_with_no_walk(monkeypatch):
    # a coefficient -1 puts lambda + rho on a wall: the kernel behind the memo makes no walk
    def no_walk(*args):
        raise AssertionError("walked a weight with a coefficient -1")

    rs = build_root_system("E", 8)
    w = Weight((3, -1, 2, 5, -7, 1, 4, 2))  # no zero coefficient, and a walk would be long
    monkeypatch.setattr(root_system, "_walk", no_walk)
    assert dominantize.__wrapped__(rs, w) is None
    assert dominantize(rs, w) is None


def _negative_root_count(rs, coeffs):
    """Positive roots with sum_i c_i d_i w_i < 0, that is, those pairing negatively
    with the weight w; from the roots and d alone."""
    d = rs.symmetrizer
    return sum(1 for root in rs.positive_roots if sum(c * d[i] * coeffs[i] for i, c in enumerate(root)) < 0)


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_dominantize_matches_the_oracle_walk_and_counts_the_negative_roots(letter, rank):
    rs = build_root_system(letter, rank)
    rng = random.Random(f"walk {letter}{rank}")
    singular = 0
    for trial in range(40):
        coeffs = [rng.randint(-40, 40) for _ in range(rank)]
        if trial % 4 == 0:
            coeffs[rng.randrange(rank)] = 0  # orthogonal to a simple root: singular
        # the oracle walks lambda + rho, the coefficients drawn; dominantize is given lambda
        walked, length = reflection_walk_oracle(rs, Weight(tuple(coeffs)), range(1, rank + 1))
        assert is_dominant(walked)
        w = Weight([c - 1 for c in coeffs])
        if 0 in walked.coeffs:
            assert dominantize(rs, w) is None
            singular += 1
        else:
            assert dominantize(rs, w) == (Weight([c - 1 for c in walked]), length)
            assert length == _negative_root_count(rs, coeffs)
    assert singular >= 10


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_symmetrizer_is_the_coprime_positive_solution(letter, rank):
    # a connected diagram fixes d up to a scalar, and coprime positive fixes the scalar
    rs = build_root_system(letter, rank)
    a, d = rs.cartan, rs.symmetrizer
    assert all(x > 0 for x in d) and math.gcd(*d) == 1
    assert all(a[i][j] * d[j] == a[j][i] * d[i] for i in range(rank) for j in range(rank))


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_neighbours_are_the_off_diagonal_cartan_nonzeros(letter, rank):
    rs = build_root_system(letter, rank)
    a = rs.cartan
    expected = tuple(
        tuple((j, a[i][j]) for j in range(rank) if j != i and a[i][j] != 0) for i in range(rank)
    )
    assert rs.neighbours == expected
    assert max(len(row) for row in rs.neighbours) <= 3


# ---------------------------------------------------------------------------
# Weight


@pytest.mark.parametrize(
    "make,coefficient",
    [
        (lambda: Weight((1.9, 0)), "1.9"),
        (lambda: Weight((True, 0)), "True"),
        (lambda: Weight(("3", 0)), "'3'"),
        (lambda: weyl_dimension(build_root_system("A", 3), Weight((1.9, 0, 0))), "1.9"),
    ],
    ids=["float", "bool", "string", "weyl-dimension-float"],
)
def test_a_coefficient_that_is_not_an_int_is_rejected_by_name(make, coefficient):
    with pytest.raises(ValueError, match=re.escape(f"weight coefficient {coefficient} in ")):
        make()


def test_a_weight_keeps_a_tuple_and_converts_a_list():
    t = (1, 2)
    assert Weight(t).coeffs == t == Weight(t)
    assert Weight([1, 2]).coeffs == (1, 2)
    assert type(Weight([1, 2]).coeffs) is tuple


def _is_validated_weight(w, coeffs):
    """``w`` is exactly a Weight of ints and equals what the validating constructor builds."""
    return (
        type(w) is Weight
        and type(w.coeffs) is tuple
        and all(type(c) is int for c in w.coeffs)
        and w == Weight(coeffs)
        and hash(w) == hash(Weight(coeffs))
    )


def test_dominantize_gives_the_validated_weight():
    rng = random.Random(29)
    walks = 0
    for letter, rank in (("A", 6), ("E", 8), ("G", 2)):
        rs = build_root_system(letter, rank)
        for _ in range(20):
            found = dominantize(rs, Weight(tuple(rng.randint(-7, 5) for _ in range(rank))))
            if found is not None:
                walks += 1
                assert _is_validated_weight(found[0], found[0].coeffs)
    assert walks >= 10


# each public entry of a weight, on A4 and its space with node 2 crossed
PUBLIC_WEIGHT_CALLS = {
    "dominantize": lambda rs, space, w: dominantize(rs, w),
    "weyl_dimension": lambda rs, space, w: weyl_dimension(rs, w),
    "bwb": lambda rs, space, w: bwb(space, w),
    "bundle_cohomology": lambda rs, space, w: bundle_cohomology(space, [(w, 1)]),
}


@pytest.mark.parametrize("leftover", ["sum", "repeat"])
@pytest.mark.parametrize("call", sorted(PUBLIC_WEIGHT_CALLS))
def test_a_tuple_sum_or_repeat_of_weights_is_rejected_by_every_public_function(call, leftover):
    # a Weight has no arithmetic: + and * are the tuple's, and give a plain tuple of the system's
    # rank here, so the type test alone rejects it
    w, rs = Weight((1, 2)), build_root_system("A", 4)
    value = w + w if leftover == "sum" else w * 2
    assert type(value) is tuple and value == (1, 2, 1, 2)
    with pytest.raises(ValueError, match=re.escape("weight (1, 2, 1, 2) is a tuple, not a Weight of rank 4")):
        PUBLIC_WEIGHT_CALLS[call](rs, ParabolicSpace(rs, {2}), value)


def test_copy_and_pickle_revalidate_a_weight():
    # a tuple built around the checks stands for a record the checks would refuse
    bad = tuple.__new__(Weight, (1.5, 0))
    pickles = [lambda w, p=p: pickle.loads(pickle.dumps(w, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for rebuild in (copy.copy, copy.deepcopy, *pickles):
        with pytest.raises(ValueError, match=re.escape("weight coefficient 1.5 in ")):
            rebuild(bad)


# ---------------------------------------------------------------------------
# weyl_dimension


def test_weyl_dimension_examples():
    a6 = build_root_system("A", 6)
    assert weyl_dimension(a6, Weight((0, 0, 1, 0, 0, 0))) == 35  # binomial(7, 3)
    assert weyl_dimension(a6, Weight((1, 0, 0, 0, 0, 1))) == 48  # 7^2 - 1
    c3 = build_root_system("C", 3)
    assert weyl_dimension(c3, Weight((0, 0, 0))) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_weyl_dimension_of_the_vector_representation(n):
    rs = build_root_system("A", n)
    assert weyl_dimension(rs, Weight((1,) + (0,) * (n - 1))) == n + 1


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_weyl_dimension_of_zero_weight_is_one(letter, rank):
    rs = build_root_system(letter, rank)
    assert weyl_dimension(rs, Weight((0,) * rank)) == 1


def test_weyl_dimension_matches_tableau_count_on_small_partitions():
    rng = random.Random(5)
    for r in (3, 4):
        rs = build_root_system("A", r - 1)
        for _ in range(25):
            parts = sorted((rng.randint(0, 4) for _ in range(r - 1)), reverse=True)
            shape = tuple(p for p in parts if p)
            coeffs = tuple(
                (shape[i] if i < len(shape) else 0) - (shape[i + 1] if i + 1 < len(shape) else 0)
                for i in range(r - 1)
            )
            assert weyl_dimension(rs, Weight(coeffs)) == ssyt_count(shape, r)


def test_weyl_dimension_rejects_nondominant_weight():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError, match="node 2"):
        weyl_dimension(rs, Weight((1, -1, 0)))


def test_exceptional_fundamental_dimensions():
    assert weyl_dimension(build_root_system("E", 6), Weight((0, 0, 0, 0, 0, 1))) == 27
    assert weyl_dimension(build_root_system("G", 2), Weight((1, 0))) == 7
    assert weyl_dimension(build_root_system("G", 2), Weight((0, 1))) == 14


@pytest.mark.parametrize(
    "letter,rank,coeffs,expected",
    [
        # vector, adjoint and spin representations of so(7)
        ("B", 3, (1, 0, 0), 7),
        ("B", 3, (0, 1, 0), 21),
        ("B", 3, (0, 0, 1), 8),
        ("B", 4, (0, 0, 0, 1), 16),
        # sp(6): vector, the two 14-dimensional fundamentals, adjoint
        ("C", 3, (1, 0, 0), 6),
        ("C", 3, (0, 1, 0), 14),
        ("C", 3, (0, 0, 1), 14),
        ("C", 3, (2, 0, 0), 21),
        # so(8) triality triple and adjoint
        ("D", 4, (1, 0, 0, 0), 8),
        ("D", 4, (0, 0, 1, 0), 8),
        ("D", 4, (0, 0, 0, 1), 8),
        ("D", 4, (0, 1, 0, 0), 28),
        ("D", 6, (0, 0, 0, 0, 0, 1), 32),
        ("E", 7, (0, 0, 0, 0, 0, 0, 1), 56),
        ("E", 7, (1, 0, 0, 0, 0, 0, 0), 133),
        ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1), 248),
        ("F", 4, (0, 0, 0, 1), 26),
        ("F", 4, (1, 0, 0, 0), 52),
        ("E", 6, (1, 0, 0, 0, 0, 0), 27),
        ("E", 6, (0, 1, 0, 0, 0, 0), 78),
    ],
)
def test_classical_representation_dimensions(letter, rank, coeffs, expected):
    rs = build_root_system(letter, rank)
    assert weyl_dimension(rs, Weight(coeffs)) == expected


# ---------------------------------------------------------------------------
# -w0: the dual that bwb reports


def _h0(rs, dominant):
    """``bwb`` of a dominant weight on G/P_1: H^0, whose highest weight is the dual of the one the
    weight names, -w0 applied through ``rs.minus_w0``."""
    res = bwb(ParabolicSpace(rs, {1}), dominant)
    assert (res.degree, res.predual_weight) == (0, dominant)
    return res


def test_bwb_reports_the_dual_through_minus_w0_on_a6_and_f4():
    a6 = build_root_system("A", 6)
    assert a6.minus_w0 == (5, 4, 3, 2, 1, 0)
    assert _h0(a6, Weight((0, 0, 1, 0, 0, 0))).weight == Weight((0, 0, 0, 1, 0, 0))
    assert _h0(a6, Weight((1, 0, 0, 0, 0, 1))).weight == Weight((1, 0, 0, 0, 0, 1))
    f4 = build_root_system("F", 4)
    assert f4.minus_w0 is None
    assert _h0(f4, Weight((1, 2, 0, 3))).weight == Weight((1, 2, 0, 3))


@pytest.mark.parametrize("letter,rank", [("A", 5), ("D", 5), ("D", 6), ("E", 6), ("B", 4)])
def test_the_dual_through_minus_w0_is_a_dimension_preserving_involution(letter, rank):
    rs = build_root_system(letter, rank)
    sigma = rs.minus_w0 or range(rank)
    assert sorted(sigma) == list(range(rank)) and all(sigma[sigma[j]] == j for j in range(rank))
    for coeffs in product(range(4), repeat=rank):
        w = Weight(coeffs)
        res = _h0(rs, w)
        assert res.weight == Weight([coeffs[j] for j in sigma])
        assert _h0(rs, res.weight).weight == w
        assert res.dimension == weyl_dimension(rs, res.weight) == weyl_dimension(rs, w)


def _minus_w0_moves_a_node(letter, rank):
    """-w0 is not the identity exactly on A_n (n >= 2), D_n (n odd) and E6 (Bourbaki, Lie VI, plates)."""
    return (letter == "A" and rank >= 2) or (letter == "D" and rank % 2) or (letter, rank) == ("E", 6)


def test_the_sweep_has_types_with_and_without_an_identity_minus_w0():
    moved = [t for t in ALL_TYPES if _minus_w0_moves_a_node(*t)]
    assert 0 < len(moved) < len(ALL_TYPES)
    assert {letter for letter, _ in moved} == {"A", "D", "E"}


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_the_reported_dual_is_the_dominant_end_of_the_walk_of_the_negative(letter, rank):
    rs = build_root_system(letter, rank)
    assert (rs.minus_w0 is not None) == _minus_w0_moves_a_node(letter, rank)
    rng = random.Random(f"dual {letter}{rank}")
    moved = 0
    for _ in range(6):
        w = Weight(tuple(rng.randint(0, 9) for _ in range(rank)))
        res = _h0(rs, w)
        dual = res.weight
        assert dual == reflection_walk_oracle(rs, Weight([-c for c in w]), range(1, rank + 1))[0]
        assert type(dual) is Weight and type(dual.coeffs) is tuple
        if not _minus_w0_moves_a_node(letter, rank):
            assert dual is res.predual_weight  # no permutation to apply: mu itself comes back
        moved += dual != w
    # where -w0 is the identity the dual is the weight itself; elsewhere some draw moves
    assert bool(moved) == _minus_w0_moves_a_node(letter, rank)


def test_e6_dual_exchanges_the_two_minimal_representations():
    e6 = build_root_system("E", 6)
    assert _h0(e6, Weight((1, 0, 0, 0, 0, 0))).weight == Weight((0, 0, 0, 0, 0, 1))
    assert _h0(e6, Weight((0, 1, 0, 0, 0, 0))).weight == Weight((0, 1, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# ParabolicSpace.dimension and P-dominance


def test_homogeneous_dimension_examples():
    assert ParabolicSpace(build_root_system("C", 3), {2}).dimension == 7
    assert ParabolicSpace(build_root_system("F", 4), {4}).dimension == 15
    assert ParabolicSpace(build_root_system("A", 6), {4}).dimension == 12
    assert ParabolicSpace(build_root_system("D", 6), {6}).dimension == 15


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_full_flag_dimension_is_the_positive_root_count(letter, rank):
    rs = build_root_system(letter, rank)
    assert ParabolicSpace(rs, set(range(1, rank + 1))).dimension == len(rs.positive_roots)


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_parabolic_space_splits_the_roots_as_the_per_root_oracle(letter, rank):
    rs = build_root_system(letter, rank)
    roots = rs.positive_roots
    rng = random.Random(f"split {letter}{rank}")
    samples = [rng.sample(range(1, rank + 1), rng.randint(1, rank)) for _ in range(6)]
    for crossed in [[i] for i in range(1, rank + 1)] + samples:
        meets = [any(root[i - 1] for i in crossed) for root in roots]
        space = ParabolicSpace(rs, crossed)
        assert space.crossed == frozenset(crossed)
        assert space.uncrossed == tuple(i for i in range(1, rank + 1) if i not in crossed)
        assert space.nilradical == tuple(r for r, m in zip(roots, meets) if m)
        assert type(space.nilradical) is tuple


def test_homogeneous_dimension_rejects_bad_crossings():
    rs = build_root_system("A", 4)
    with pytest.raises(ValueError, match="nonempty"):
        ParabolicSpace(rs, set()).dimension
    with pytest.raises(ValueError, match="out of range"):
        ParabolicSpace(rs, {0, 5}).dimension


def test_a_weight_negative_at_an_uncrossed_node_is_not_p_dominant():
    space = ParabolicSpace(build_root_system("A", 6), {4})
    with pytest.raises(ValueError, match="uncrossed node 3"):
        bwb(space, Weight((0, 0, -1, 0, 0, 0)))


def test_p_dominance_reads_only_the_uncrossed_nodes_and_names_the_first_negative_one():
    space = ParabolicSpace(build_root_system("A", 6), {2, 4})
    assert bwb(space, Weight((0, -3, 0, -1, 0, 0))).all_vanish  # a -1 at crossed node 4: a wall
    with pytest.raises(ValueError) as exc:
        bwb(space, Weight((0, -3, 0, -1, -2, -1)))
    assert str(exc.value) == (
        "weight (0,-3,0,-1,-2,-1) is not P-dominant on A6/P(2,4): negative coefficient at uncrossed node 5"
    )


def test_every_public_kernel_rejects_a_wrong_rank_with_one_message():
    rs = build_root_system("A", 3)
    w = Weight((1, 1))
    message = "rank mismatch: weight (1,1) has rank 2, root system is A3"
    for call in (
        lambda: dominantize(rs, w),
        lambda: weyl_dimension(rs, w),
        lambda: bwb(ParabolicSpace(rs, {1}), w),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


@pytest.mark.parametrize("w", [(1, 2), ((1.5, 2.0),)], ids=["int-tuple", "wrapped-floats"])
def test_every_public_kernel_rejects_what_is_not_a_weight_with_one_message(w):
    # a tuple equals the Weight of its ints, but only a Weight has had its coefficients checked
    rs = build_root_system("A", 2)
    space = ParabolicSpace(rs, {1})
    message = f"weight {w!r} is a tuple, not a Weight of rank 2"
    memos = (dominantize, weyl_dimension)
    if w == (1, 2):  # the memos are typed: the Weight's entries are never served to the tuple
        assert [memo(rs, Weight(w)) for memo in memos] == [(Weight(w), 0), 15]
    sizes = [memo.cache_info().currsize for memo in memos]
    for call in (
        lambda: dominantize(rs, w),
        lambda: weyl_dimension(rs, w),
        lambda: bwb(space, w),
    ):
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message
    assert [memo.cache_info().currsize for memo in memos] == sizes


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_weyl_dimension_matches_the_oracle_on_random_dominant_weights(letter, rank):
    rs = build_root_system(letter, rank)
    rng = random.Random(f"weyl {letter}{rank}")
    for _ in range(6):
        w = Weight(tuple(rng.randint(0, 40) for _ in range(rank)))
        assert weyl_dimension(rs, w) == weyl_product_oracle(rs, w, rs.positive_roots)


BUILDER_TYPES = ALL_TYPES + [("A", n) for n in range(9, 21)] + [(t, n) for t in "BCD" for n in range(9, 13)]


@pytest.mark.parametrize("letter,rank", BUILDER_TYPES)
def test_root_chain_rebuilds_the_positive_roots(letter, rank):
    rs = build_root_system(letter, rank)
    assert len(rs.root_chain) == len(rs.positive_roots)
    below = set(rs.positive_roots) | {(0,) * rank}
    for k, (parent, i) in enumerate(rs.root_chain):
        root = [0] * rank if parent < 0 else list(rs.positive_roots[parent])
        assert parent < k
        root[i] += 1
        assert tuple(root) == rs.positive_roots[k]
        # the documented rule: i is the least node whose simple root leaves a positive root or zero
        lowered = (root[:j] + [root[j] - 1] + root[j + 1 :] for j in range(rank))
        assert i == next(j for j, r in enumerate(lowered) if tuple(r) in below)


@pytest.mark.parametrize("letter,rank", BUILDER_TYPES)
def test_positive_roots_match_the_reflection_closure_oracle(letter, rank):
    rs = build_root_system(letter, rank)
    assert rs.positive_roots == positive_roots_oracle(rs.cartan, rs.rank)
