import hashlib
import random
import re
import time

import pytest

import gpcoh.koszul
import gpcoh.schur
from gpcoh import (
    BundleLabel,
    BundleSum,
    CohomologyTable,
    ParabolicSpace,
    RankHint,
    build_koszul,
    build_root_system,
    bundle_cohomology,
    chase,
    euler_characteristic,
    exterior_power_sum,
    lr_coefficients,
    parse_bundle,
    solve_sequence,
    tangent_label,
)
from gpcoh.schur import format_sum, sum_to_weights

from conftest import dense_peel_oracle, koszul_pool_sample

AMB = (4, 7)


def gr47():
    return ParabolicSpace(rs=build_root_system("A", 6), crossed=frozenset({4}))


def section_bundle():
    return parse_bundle(AMB, "L3 U*")


def trivial():
    return BundleSum(AMB, [(BundleLabel(AMB), 1)])


def tangent():
    return BundleSum(AMB, [(tangent_label(AMB), 1)])


# ---------------------------------------------------------------------------
# build_koszul


def test_untwisted_koszul_terms_match_the_classical_display():
    cx = build_koszul(gr47(), section_bundle(), trivial())
    got = [format_sum(cx.term(j)) for j in range(4, -1, -1)]
    assert got == ["O(-3)", "U (-2)", "L2 U (-1)", "L3 U", "O"]
    assert cx.term(0) == trivial()
    for j in (-1, 5):
        with pytest.raises(ValueError, match=f"^term index {j} out of range 0..4$"):
            cx.term(j)


def test_twisted_koszul_ends_with_the_twisting_bundle():
    cx = build_koszul(gr47(), section_bundle(), section_bundle())
    assert cx.term(0) == section_bundle()
    assert cx.section_rank == 4
    # the middle term is the endomorphism-style product
    assert len(cx.term(1).summands) == 2


def test_hypersurface_koszul_is_two_terms():
    p1 = ParabolicSpace(rs=build_root_system("A", 1), crossed=frozenset({1}))
    amb = (1, 2)
    cx = build_koszul(p1, BundleSum(amb, [(BundleLabel(amb, twist=1), 1)]))
    assert [format_sum(cx.term(j)) for j in (1, 0)] == ["O(-1)", "O"]


def test_koszul_folds_the_exterior_powers_once_per_complex(monkeypatch):
    calls = []

    def counted(bsum, j):
        calls.append(j)
        return exterior_power_sum(bsum, j)

    monkeypatch.setattr(gpcoh.koszul, "exterior_power_sum", counted)
    mixed = BundleSum.from_pairs(AMB, [(BundleLabel(AMB, twist=t), m) for t, m in ((1, 2), (2, 1))])
    for section in (section_bundle(), mixed):
        calls.clear()
        cx = build_koszul(gr47(), section, tangent())
        assert calls == [cx.section_rank]


def test_the_cayley_complexes_skip_lr_where_a_factor_is_a_line_bundle(monkeypatch):
    # section L3 U* = U(1): its exterior powers are columns, so the fold only twists, and
    # a twist O(t) shifts every term; L3 U* and T meet the three middle terms on both sides
    calls = []

    def counted(mu, nu, max_rows):
        calls.append((mu, nu, max_rows))
        return lr_coefficients(mu, nu, max_rows)

    twists = {name: parse_bundle(AMB, name) for name in ("O", "L3 U*", "T")}
    section = section_bundle()
    monkeypatch.setattr(gpcoh.schur, "lr_coefficients", counted)
    counts = {}
    for name, twist in twists.items():
        calls.clear()
        build_koszul(gr47(), section, twist)
        counts[name] = len(calls)
    assert counts == {"O": 0, "L3 U*": 6, "T": 6}


def test_koszul_rejects_codimension_violation():
    p1 = ParabolicSpace(rs=build_root_system("A", 1), crossed=frozenset({1}))
    amb = (1, 2)
    too_big = BundleSum.from_pairs(amb, [(BundleLabel(amb, twist=1), 2)])
    with pytest.raises(ValueError, match="codimension"):
        build_koszul(p1, too_big)


@pytest.mark.parametrize("letter,rank,node", [("D", 6, 6), ("A", 6, 3), ("A", 6, 2)])
def test_koszul_rejects_a_space_that_is_not_the_bundles_grassmannian(letter, rank, node):
    space = ParabolicSpace(rs=build_root_system(letter, rank), crossed=frozenset({node}))
    with pytest.raises(ValueError, match=rf"Gr\(4,7\).*{letter}{rank}/P\({node}\)"):
        build_koszul(space, section_bundle())


def test_koszul_rejects_a_twist_on_another_grassmannian():
    # tensor makes this check; build_koszul does not repeat it
    with pytest.raises(ValueError, match=r"Gr\(4, 7\).*Gr\(3, 7\)"):
        build_koszul(gr47(), section_bundle(), parse_bundle((3, 7), "O(1)"))


# sections that need Lambda^j of a label no closed form covers; each is rejected at its first
# such label, the column shape before any degree. Rank 6 of L2 U passes the codimension check
@pytest.mark.parametrize(
    "ambient,section,reason",
    [
        ((4, 7), "L2 U", "Lambda^1 of L2 U (1)"),
        ((4, 8), "L2 U*", "Lambda^1 of L2 U"),
        ((3, 7), "S2 U*", "S2 U is not a column power of U or Q up to twist"),
        ((2, 5), "S2 U*", "S2 U is not a column power of U or Q up to twist"),
        ((2, 5), "S2 Q*", "S2 Q is not a column power of U or Q up to twist"),
        ((4, 7), "U * Q", "L3 U * L2 Q is not a column power of U or Q up to twist"),
    ],
)
def test_koszul_rejects_unsupported_section_bundles(ambient, section, reason):
    k, n = ambient
    space = ParabolicSpace(rs=build_root_system("A", n - 1), crossed=frozenset({k}))
    with pytest.raises(ValueError, match=f"^{re.escape('unsupported plethysm shape: ' + reason)}$"):
        build_koszul(space, parse_bundle(ambient, section))


# ---------------------------------------------------------------------------
# chase


def test_trivial_twist_chase_gives_the_structure_sheaf():
    res = chase(build_koszul(gr47(), section_bundle(), trivial()))
    assert res.determined
    assert res.table.dims() == {0: 1}
    assert res.hints_used == ()


def test_normal_twist_chase_records_one_rank_forced_by_left_exactness():
    # H^0(A_1) = H^0(C_1) = 1 must inject into H^0(C_0) = 35: the rank is 1 by force
    res = chase(build_koszul(gr47(), section_bundle(), section_bundle()))
    assert res.determined
    assert res.table.dims() == {0: 34}
    assert len(res.hints_used) == 1
    hint = res.hints_used[0]
    assert (hint.target_term, hint.degree, hint.rank) == (0, 0, 1)
    assert hint.origin == "forced"
    assert hint.describe() == "H^0(A_1) -> H^0(C_0) rank 1"
    # the page shows exactly the two nonzero groups
    assert dict(res.grid) == {(1, 0): 1, (0, 0): 35}


def test_tangent_twist_chase_needs_no_assumptions():
    res = chase(build_koszul(gr47(), section_bundle(), tangent()))
    assert res.determined
    assert res.table.dims() == {0: 48}
    assert res.hints_used == ()
    assert dict(res.grid) == {(0, 0): 48}


def test_point_in_p1_chase():
    p1 = ParabolicSpace(rs=build_root_system("A", 1), crossed=frozenset({1}))
    amb = (1, 2)
    res = chase(build_koszul(p1, BundleSum(amb, [(BundleLabel(amb, twist=1), 1)])))
    assert res.determined
    assert res.table.dims() == {0: 1}


def test_negative_twists_reproduce_kodaira_vanishing_on_the_zero_locus():
    # the zero locus is Fano of index 4, so O(-1), O(-2), O(-3) restricted
    # to it have no cohomology at all
    for t in (-1, -2, -3):
        res = chase(build_koszul(gr47(), section_bundle(), BundleSum(AMB, [(BundleLabel(AMB, twist=t), 1)])))
        assert res.determined
        assert res.table.dims() == {}
        assert res.hints_used == ()


def test_canonical_twist_chase_reproduces_serre_duality_in_top_degree():
    # O(-4) is the canonical bundle of the eightfold zero locus, so its only
    # cohomology is H^8 = C; the chase must carry this through all five terms
    res = chase(build_koszul(gr47(), section_bundle(), BundleSum(AMB, [(BundleLabel(AMB, twist=-4), 1)])))
    assert res.determined
    assert res.table.dims() == {8: 1}
    assert res.hints_used == ()


def test_identity_chase_returns_the_bottom_table():
    # every interior term of the tangent-twisted resolution is acyclic
    cx = build_koszul(gr47(), section_bundle(), tangent())
    res = chase(cx)
    bottom = bundle_cohomology(gr47(), sum_to_weights(cx.term(0), gr47()))
    assert res.table.dims() == bottom.dims()


def test_chase_is_monotone_in_hints():
    cx = build_koszul(gr47(), section_bundle(), section_bundle())
    default = chase(cx)
    explicit = chase(cx, [RankHint(target_term=0, degree=0, rank=1)])
    assert explicit.determined
    assert explicit.table.dims() == default.table.dims()
    assert explicit.hints_used[0].origin == "provided"


def test_a_hint_that_contradicts_left_exactness_raises_naming_it():
    # H^0(C_1) = 1 must inject into H^0(C_0) = 35, so rank 0 there has no solution
    cx = build_koszul(gr47(), section_bundle(), section_bundle())
    assert dict(chase(cx).grid) == {(1, 0): 1, (0, 0): 35}
    with pytest.raises(ValueError) as exc:
        chase(cx, [RankHint(target_term=0, degree=0, rank=0)])
    assert str(exc.value) == (
        "the provided values contradict exactness: RankHint(target_term=0, degree=0, rank=0)"
    )


def test_chase_euler_consistency():
    for twist in (trivial(), section_bundle(), tangent()):
        cx = build_koszul(gr47(), section_bundle(), twist)
        res = chase(cx)
        assert res.determined
        space = gr47()
        expected = sum(
            (-1) ** j
            * euler_characteristic(bundle_cohomology(space, sum_to_weights(cx.term(j), space)))
            for j in range(cx.section_rank + 1)
        )
        assert euler_characteristic(res.table) == expected


def test_chase_rejects_malformed_hints():
    cx = build_koszul(gr47(), section_bundle(), section_bundle())
    with pytest.raises(ValueError, match="malformed hint position"):
        chase(cx, [RankHint(target_term=4, degree=0, rank=1)])
    with pytest.raises(ValueError, match="malformed hint position"):
        chase(cx, [RankHint(target_term=0, degree=99, rank=1)])
    with pytest.raises(ValueError, match="malformed hint position: degree 13 not in 0..12"):
        chase(cx, [RankHint(target_term=0, degree=13, rank=0)])  # the first degree past dim Gr(4,7)
    with pytest.raises(ValueError, match="nonnegative"):
        chase(cx, [RankHint(target_term=0, degree=0, rank=-1)])
    with pytest.raises(ValueError, match="contradict exactness"):  # H^0(C_1) = 1 has no rank 5
        chase(cx, [RankHint(target_term=0, degree=0, rank=5)])
    with pytest.raises(ValueError, match="exceeds the maximal possible rank"):
        chase(cx, [RankHint(target_term=2, degree=3, rank=1)])
    with pytest.raises(ValueError, match="duplicate"):
        chase(cx, [RankHint(0, 0, 1), RankHint(0, 0, 1)])
    # a str degree would fail the comparison with dim G/P unnamed: the chase names it first
    for hint in (RankHint(0, 0, True), RankHint(0.0, 0, 1), RankHint(0, 0, 1.0), RankHint(0, 0.0, 1),
                 RankHint(0, "1", 1)):
        with pytest.raises(ValueError, match=re.escape(f"hint {hint!r} has a field that is not an int")):
            chase(cx, [hint])


def test_chase_grid_matches_standalone_tables():
    space = gr47()
    cx = build_koszul(space, section_bundle(), section_bundle())
    res = chase(cx)
    for j in range(cx.section_rank + 1):
        standalone = bundle_cohomology(space, sum_to_weights(cx.term(j), space))
        assert res.term_tables[j].dims() == standalone.dims()
        for q, dim in standalone.dims().items():
            assert dict(res.grid)[(j, q)] == dim


# ---------------------------------------------------------------------------
# solve_sequence on a sequence with the unknown at the kernel end


def test_the_normal_sequence_closes_the_rigidity_computation():
    # 0 -> T_S -> T|_S -> N|_S -> 0 on the Cayley Grassmannian: H^*(T|_S) = {0: 48},
    # H^*(N|_S) = {0: 34} and h^0(T_S) = 14 pin the one rank at 34, so h^1(T_S) = 0
    bounds, dims = solve_sequence(({0: 34}, {0: 48}), 8, values={0: 14}, kernel=True)
    assert bounds == [((0, 0), 34, 34, 48)]
    assert dims == {0: 14}


def test_a_kernel_end_is_not_left_exact_and_stays_open_without_a_value():
    # with no h^0 given, rank 0..34 each fit: h^0(T_S) = 48 - rank and h^1 = 34 - rank
    bounds, dims = solve_sequence(({0: 34}, {0: 48}), 8, kernel=True)
    assert (bounds, dims) == ([((0, 0), 0, 34, 48)], None)


def test_a_value_the_sequence_cannot_carry_raises_naming_it():
    # h^0(T_S) injects into H^0(T|_S) = 48
    with pytest.raises(ValueError, match=r"contradict exactness: dim H\^0 = 49 of the unknown end"):
        solve_sequence(({0: 34}, {0: 48}), 8, values={0: 49}, kernel=True)
    # and h^1(T_S) = 0 with H^1(T|_S) = 1 forces H^1(N|_S) != 0
    with pytest.raises(ValueError, match="contradict exactness"):
        solve_sequence(({0: 34}, {0: 48, 1: 1}), 8, values={0: 14, 1: 0}, kernel=True)
    # a one-term sequence has no rank to bound: only the row check can see the contradiction
    with pytest.raises(ValueError) as exc:
        solve_sequence([{0: 1}], 0, values={0: 2})
    assert str(exc.value) == "the provided values contradict exactness: dim H^0 = 2 of the unknown end"


@pytest.mark.parametrize(
    "tables,top,hints,values,kernel,message",
    [
        # at rank 3 the kernel end would have h^0 = 2 and h^1 = -2, whose Euler characteristic
        # still balances, so only the rank bound dim H^0(E_0) = 1 catches it
        (({0: 1}, {0: 5}), 8, {(0, 0): 3}, {}, True,
         "hint RankHint(target_term=0, degree=0, rank=3) exceeds the maximal possible rank 1 = dim H^0(E_0)"),
        # a two-term sequence has one map, E_1 -> E_0, so no hint at term 7
        (({0: 1}, {0: 1}), 5, {(7, 0): 1}, {}, False,
         "malformed hint position: RankHint(target_term=7, degree=0, rank=1) needs 0 <= target_term < 1 "
         "and degree >= 0"),
        (({0: 1}, {0: 1}), 5, {(0, -3): 0}, {}, False,
         "malformed hint position: RankHint(target_term=0, degree=-3, rank=0) needs 0 <= target_term < 1 "
         "and degree >= 0"),
        (({0: 1}, {0: 1}), 5, {(0, 0): -1}, {}, False,
         "hint RankHint(target_term=0, degree=0, rank=-1): rank must be nonnegative"),
        # a float or a bool would run through the propagation and come back as a "determined" float
        (({1: 5}, {1: 2}, {}), 8, {(0, 1): 1.0}, {}, False,
         "hint RankHint(target_term=0, degree=1, rank=1.0) has a field that is not an int"),
        (({1: 5}, {1: 2}, {}), 8, {(0, 1): True}, {}, False,
         "hint RankHint(target_term=0, degree=1, rank=True) has a field that is not an int"),
        (({1: 5}, {1: 2}, {}), 8, {(0.0, 1): 1}, {}, False,
         "hint RankHint(target_term=0.0, degree=1, rank=1) has a field that is not an int"),
        (({1: 5}, {1: 2}, {}), 8, {(0, True): 1}, {}, False,
         "hint RankHint(target_term=0, degree=True, rank=1) has a field that is not an int"),
        (({1: 5}, {1: 2}, {}), 8, {}, {1: 3.0}, False,
         "value dim H^1 = 3.0 of the unknown end: its degree and dimension must be ints"),
        (({1: 5}, {1: 2}, {}), 8, {}, {True: 3}, False,
         "value dim H^True = 3 of the unknown end: its degree and dimension must be ints"),
        # a key that is not a pair is named before it is unpacked
        (({0: 1}, {0: 1}), 5, {5: 1}, {}, False,
         "hint key 5 of rank 1 is not a pair (target_term, degree)"),
        (({0: 1}, {0: 1}), 5, {(0,): 1}, {}, False,
         "hint key (0,) of rank 1 is not a pair (target_term, degree)"),
        (({0: 1}, {0: 1}), 5, {(0, 1, 2): 1}, {}, False,
         "hint key (0, 1, 2) of rank 1 is not a pair (target_term, degree)"),
        # a table entry that is not an int >= 0 would come back as a determined end
        ([{0: -2}], 5, {}, {}, False, "table 0: H^0 = -2: need an int degree >= 0 and an int dimension >= 0"),
        ([{0: 1.5}], 5, {}, {}, False, "table 0: H^0 = 1.5: need an int degree >= 0 and an int dimension >= 0"),
        ([{0: 2}, {1.0: 1}], 5, {}, {}, False,
         "table 1: H^1.0 = 1: need an int degree >= 0 and an int dimension >= 0"),
        ([{-1: 1}], 5, {}, {}, False, "table 0: H^-1 = 1: need an int degree >= 0 and an int dimension >= 0"),
        ([{0: True}], 5, {}, {}, False,
         "table 0: H^0 = True: need an int degree >= 0 and an int dimension >= 0"),
    ],
    ids=["rank-above-its-term", "term-off-the-sequence", "negative-degree", "negative-rank", "float-rank",
         "bool-rank", "float-term", "bool-degree", "float-value", "bool-value-degree", "int-key", "one-key",
         "triple-key", "negative-table-dimension", "float-table-dimension", "float-table-degree",
         "negative-table-degree", "bool-table-dimension"],
)
def test_the_solver_rejects_a_hint_off_its_maps_or_its_ranks_naming_it(tables, top, hints, values, kernel, message):
    with pytest.raises(ValueError) as exc:
        solve_sequence(tables, top, hints, values, kernel)
    assert str(exc.value) == message


def test_an_empty_interval_with_nothing_provided_is_an_engine_fault():
    # a resolution whose H^0(E_1) = 2 cannot inject into H^0(E_0) = 1
    with pytest.raises(AssertionError, match="admit no ranks of an exact sequence"):
        solve_sequence(({0: 1}, {0: 2}), 3)


def test_chase_blocks_cohomology_above_the_zero_locus_dimension():
    # two linear forms on P^3 cut out a line. Nothing in H^3 may reach the output, as no
    # sheaf on a curve has H^3, so the ranks H^3(C_2) = 10 -> H^3(C_1) = 8 and on to
    # H^3(C_0) = 1 are pinned at 7 and 1, and the answer is H^1(P^1, O(-4)) = 3. The
    # maximal rank 8 would leave H^3 = 1 on the curve, so that hint has no solution
    p3 = ParabolicSpace(rs=build_root_system("A", 3), crossed=frozenset({1}))
    amb = (1, 4)
    section = BundleSum.from_pairs(amb, [(BundleLabel(amb, twist=1), 2)])
    cx = build_koszul(p3, section, BundleSum(amb, [(BundleLabel(amb, twist=-4), 1)]))
    res = chase(cx)
    assert res.table.dims() == {1: 3}
    assert [tuple(h) for h in res.hints_used] == [(1, 3, 7, "forced"), (0, 3, 1, "forced")]
    with pytest.raises(ValueError, match=r"contradict exactness: RankHint\(target_term=1, degree=3, rank=8\)"):
        chase(cx, [RankHint(1, 3, 8)])


def test_a_blocked_chase_lists_every_rank_whose_bounds_stay_open():
    # on Gr(3,6) cut by L2 U* (so S = LG(3,6)), S5 U* (-4) alone leaves (2, 6) and (1, 6)
    # open and W[8,8] U* (-7) alone (2, 3), (1, 3) and (0, 3); their sum leaves all five,
    # j descending then q ascending, and a hint at (2, 3) or (2, 6) closes that cell only
    amb = (3, 6)
    space = ParabolicSpace(rs=build_root_system("A", 5), crossed=frozenset({3}))
    pairs = [p for label in ("S5 U* (-4)", "W[8,8] U* (-7)") for p in parse_bundle(amb, label).summands]
    cx = build_koszul(space, parse_bundle(amb, "L2 U*"), BundleSum.from_pairs(amb, pairs))
    res = chase(cx)
    assert res.blocking_positions == ((2, 3), (2, 6), (1, 3), (1, 6), (0, 3))
    assert res.hints_used == ()
    for hinted, left in (((2, 3), (2, 6)), ((2, 6), (2, 3))):
        res = chase(cx, [RankHint(*hinted, 0)])
        assert res.blocking_positions == (left, (1, 3), (1, 6), (0, 3))
        assert [tuple(h) for h in res.hints_used] == [(*hinted, 0, "provided")]


def test_a_provided_hint_at_capacity_zero_is_recorded():
    # nothing maps into H^3(C_2) of the normal-twisted resolution, so rank 0 is forced
    cx = build_koszul(gr47(), section_bundle(), section_bundle())
    res = chase(cx, [RankHint(target_term=2, degree=3, rank=0)])
    assert res.determined
    assert res.table.dims() == chase(cx).table.dims()
    provided = [h for h in res.hints_used if h.origin == "provided"]
    assert [(h.target_term, h.degree, h.rank) for h in provided] == [(2, 3, 0)]


@pytest.mark.parametrize(
    "hint", [(0, 0, 1), {"target_term": 0, "degree": 0, "rank": 1}], ids=["tuple", "dict"]
)
def test_chase_rejects_a_hint_that_is_not_a_rank_hint(hint):
    cx = build_koszul(gr47(), section_bundle(), section_bundle())
    with pytest.raises(ValueError, match=f"a rank hint is a RankHint, got {type(hint).__name__}"):
        chase(cx, [hint])


def test_a_hint_below_a_block_is_checked_against_the_term_dimension():
    # the chase blocks at (1, 0) before it reaches (0, 0), so the rank bound
    # dim H^0(C_0) = 490 must be checked before the walk starts
    cx = build_koszul(gr47(), section_bundle(), BundleSum(AMB, [(BundleLabel(AMB, twist=2), 1)]))
    hints = [RankHint(1, 0, 0), RankHint(0, 0, 99999)]
    with pytest.raises(ValueError, match=r"rank=99999\) exceeds the maximal possible rank 490"):
        chase(cx, hints)


def test_hints_that_contradict_exactness_together_raise_naming_every_hint():
    # rank 0 at (1, 0) breaks left exactness there, wherever the other hint sits
    cx = build_koszul(gr47(), section_bundle(), BundleSum(AMB, [(BundleLabel(AMB, twist=2), 1)]))
    with pytest.raises(ValueError) as exc:
        chase(cx, [RankHint(1, 0, 0), RankHint(0, 0, 1)])
    assert str(exc.value) == (
        "the provided values contradict exactness: RankHint(target_term=1, degree=0, rank=0), "
        "RankHint(target_term=0, degree=0, rank=1)"
    )


# ---------------------------------------------------------------------------
# the solver is sound on random exact sequences with known ranks

_DEGREES = range(4)


def _random_exact_sequence(rng, terms, kernel=False):
    """A random exact sequence of ``terms`` terms E_r, ..., E_0, each H^q(E_j) of dimension at
    most 3 in degrees 0..3: the resolution 0 -> E_r -> ... -> E_0 -> U -> 0, or with ``kernel``
    0 -> U -> E_r -> ... -> E_0 -> 0. It is built from the top by the long exact sequences of
    A_{j+1} -> E_j -> A_j with A_r = E_r: each step draws dim H^q(E_j) and the rank rho_q of
    H^q(A_{j+1}) -> H^q(E_j) in 0..min of the two, then
    dim H^q(A_j) = (dim H^q(E_j) - rho_q) + (dim H^{q+1}(A_{j+1}) - rho_{q+1}).
    For the resolution A_j is the image sheaf and A_0 = U, and left exactness makes
    rho_0 = dim H^0(A_{j+1}). With ``kernel`` A_j is the complex E_r -> ... -> E_j, whose
    hypercohomology may sit in negative degrees; nothing binds rho_0, and A_0 is U[r], so
    H^q(U) = H^{q-r}(A_0). Returns (tables, rho by (j, q), H^*(U)) with zero entries dropped,
    or None when a resolution's H^0(A_{j+1}) is too large to inject into an H^0(E_j) of
    dimension 3."""
    r = terms - 1
    above = {q: rng.randint(0, 3) for q in _DEGREES}  # dim H^q(A_{j+1}), first of A_r = E_r
    tables, ranks = [above], {}
    for j in range(r - 1, -1, -1):
        if kernel:
            dims = [rng.randint(0, 3) for _ in _DEGREES]
            rho = [rng.randint(0, min(above[q], dims[q])) for q in _DEGREES]
        elif above[0] > 3:
            return None
        else:
            dims = [rng.randint(above[0], 3)] + [rng.randint(0, 3) for _ in _DEGREES[1:]]
            rho = [above[0]] + [rng.randint(0, min(above[q], dims[q])) for q in _DEGREES[1:]]
        ranks.update({(j, q): rho[q] for q in _DEGREES})
        dims, rho = dict(zip(_DEGREES, dims)), dict(zip(_DEGREES, rho))
        above = {
            q: dims.get(q, 0) - rho.get(q, 0) + above.get(q + 1, 0) - rho.get(q + 1, 0)
            for q in range(min(above) - 1, 4)
        }
        tables.insert(0, dims)
    # the Euler characteristics alternate along the long exact sequences: chi(A_0) is the
    # alternating sum over the terms, which is chi(U), or (-1)^r chi(U) with ``kernel``
    assert sum((-1) ** q * d for q, d in above.items()) == sum(
        (-1) ** (i + q) * d for i, dims in enumerate(tables) for q, d in dims.items()
    )
    shift = r if kernel else 0
    return (
        [{q: d for q, d in dims.items() if d} for dims in tables],
        ranks,
        {q + shift: d for q, d in above.items() if d},
    )


@pytest.mark.parametrize("kernel", [False, True], ids=["resolution", "kernel"])
def test_the_solver_is_sound_on_random_exact_sequences_with_known_ranks(kernel):
    # every true rank lies in its interval, a rank the solver does not list is 0, and a
    # determined output is the true H^*(U); some sequences also get true ranks as hints or
    # a true dim H^q(U) as a value, each one more equality the true ranks meet
    rng = random.Random(17)
    seen = dict.fromkeys(("sequences", "determined", "hinted", "valued"), 0)
    while seen["sequences"] < 600:
        made = _random_exact_sequence(rng, rng.randint(1, 4), kernel)
        if made is None:
            continue
        tables, ranks, out = made
        top = max(out, default=0) + rng.randint(0, 1)
        hints = dict(rng.sample(sorted(ranks.items()), min(len(ranks), rng.randint(0, 2))))
        q = rng.randint(0, 3)
        values = {q: out.get(q, 0)} if rng.random() < 0.25 else {}
        bounds, dims = solve_sequence(tables, top, hints, values, kernel)
        listed = {cell: (low, high) for cell, low, high, _ in bounds}
        for cell, rank in ranks.items():
            low, high = listed.get(cell, (0, 0))
            assert low <= rank <= high, (tables, cell, rank, low, high)
        if dims is not None:
            assert dims == out, (tables, dims, out)
        seen["sequences"] += 1
        seen["determined"] += dims is not None
        seen["hinted"] += bool(hints)
        seen["valued"] += bool(values)
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# the solver answers wherever the peel of rule (a) answers


def _pool_complex(k, n, atoms, twist):
    amb = (k, n)
    section = BundleSum.from_pairs(
        amb, [p for atom in atoms for p in parse_bundle(amb, atom).summands]
    )
    space = ParabolicSpace(rs=build_root_system("A", n - 1), crossed=frozenset({k}))
    return build_koszul(space, section, parse_bundle(amb, twist))


CAYLEY_CASES = [[4, 7, ["L3 U*"], twist] for twist in ("O", "L3 U*", "T")]


def _peel(tables, hints, top):
    """The oracle's outcome: (dims or None, blocking positions, ranks used), or the message
    of the ValueError it raised."""
    try:
        return dense_peel_oracle(tables, {(h.target_term, h.degree): h.rank for h in hints}, top)[:3]
    except ValueError as exc:
        return str(exc)


def _zeroed_through(tables, top, peeled):
    """Rank-0 hints at each position where the peel blocks in turn, until it stops blocking
    at a position it was not already given or rejects a hint."""
    hints = []
    while not isinstance(peeled, str) and peeled[0] is None:
        fresh = [RankHint(j, q, 0) for j, q in peeled[1] if RankHint(j, q, 0) not in hints]
        if not fresh:
            break
        hints += fresh
        peeled = _peel(tables, hints, top)
    return hints


def test_the_solver_answers_wherever_the_peel_answers_with_and_without_hints():
    # the hint sets: none, every rank the peel forces given back as provided, one forced rank
    # lowered by 1, one raised by 1 below dim H^q(C_j), rank 0 at every position where the peel
    # blocks in turn, and a rank-0 hint at a cell of capacity 0, at a nonzero H^q(C_j) if any.
    # Where the peel determines a chase, the solver gives the same table and the same ranks in
    # the same order; where the peel rejects a hint, the solver rejects the hints too
    rng = random.Random(2103)
    seen = dict.fromkeys(
        ("lowered", "raised", "blocked", "rejected", "zeroed", "zero_capacity_nonzero_target", "answered"), 0
    )
    for case in koszul_pool_sample(2103, 300) + CAYLEY_CASES:
        cx = _pool_complex(*case)
        top = cx.ambient.dimension
        tables = chase(cx).term_tables
        base = _peel(tables, [], top)
        forced = [RankHint(j, q, rank) for j, q, rank, _ in base[2]]
        hint_sets = [[], forced]
        lowered = [h for h in forced if h.rank > 0]
        if lowered:
            h = rng.choice(lowered)
            hint_sets.append([h._replace(rank=h.rank - 1)])
            seen["lowered"] += 1
        raised = [h for h in forced if h.rank < tables[h.target_term].total_dimension(h.degree)]
        if raised:
            h = rng.choice(raised)
            hint_sets.append([h._replace(rank=h.rank + 1)])
            seen["raised"] += 1
        zeroed = _zeroed_through(tables, top, base)
        if zeroed:
            hint_sets.append(zeroed)
            seen["zeroed"] += 1
        taken = {(h.target_term, h.degree) for h in forced} | set(base[1])
        free = [
            (j, q) for j in range(cx.section_rank) for q in range(top + 1) if (j, q) not in taken
        ]
        targeted = [(j, q) for j, q in free if tables[j].total_dimension(q)]
        seen["zero_capacity_nonzero_target"] += bool(targeted)
        j, q = rng.choice(targeted or free)
        hint_sets.append([RankHint(j, q, 0)])
        for hints in hint_sets:
            expected = _peel(tables, hints, top)
            if isinstance(expected, str):
                with pytest.raises(ValueError, match="contradict exactness"):
                    chase(cx, hints)
                seen["rejected"] += 1
            elif expected[0] is None:
                seen["blocked"] += 1
            else:
                res = chase(cx, hints)
                assert res.determined, (case, hints)
                assert (res.table.dims(), [tuple(h) for h in res.hints_used]) == (expected[0], expected[2])
                seen["answered"] += 1
    assert min(seen.values()) >= 20, seen


def test_named_chases_the_peel_left_blocked_are_solved_quickly():
    # each Serre partner pair agrees: O_S and O_S(2) = K_S^* on the eightfold in Gr(2,12)
    cases = [
        ((2, 12, ["O(1)"] * 10 + ["O(2)"] * 2, "O"), {0: 1, 8: 1099}),
        ((2, 12, ["O(1)"] * 10 + ["O(2)"] * 2, "O(2)"), {0: 1099, 8: 1}),
        ((6, 13, ["L5 U*"] * 3, "O"), {0: 1, 24: 675129}),
        ((3, 12, ["L2 U*"] * 5 + ["O(1)"] * 6, "O"), {0: 1, 6: 752053}),
    ]
    for case, expected in cases:
        cx = _pool_complex(*case)
        res = chase(cx)
        assert res.table.dims() == expected, case
        tables = [t.dims() for t in res.term_tables]
        start = time.perf_counter()
        bounds, dims = solve_sequence(tables, cx.ambient.dimension - cx.section_rank)
        assert time.perf_counter() - start < 0.1, case
        assert dims == expected


# seeded sample of the Koszul pool: format_sum of every term, then determined, the table,
# the blocking positions, the ranks used in order and the page of each chase
CHASE_PIN = "5f2cfdede9faeff6f25b5271d1e35cbd45e49d773b2acda619eb859a57809b4f"


def test_chase_answers_on_a_pool_sample_match_the_pinned_digest():
    """An equivalence pin for speed work on the Koszul path: the digest must not move.

    A change that alters chase answers on purpose (the sound chase of ROADMAP item 1)
    updates ``CHASE_PIN`` and lists the changed cases in CHANGES.md.
    """
    digest = hashlib.sha256()
    for case in koszul_pool_sample(300, 300):
        cx = _pool_complex(*case)
        res = chase(cx)
        record = (
            [format_sum(term) for term in cx.terms],
            res.determined,
            res.table.total_dims if res.determined else None,
            res.blocking_positions,
            [tuple(h) for h in res.hints_used],
            res.grid,
        )
        digest.update(f"{record!r}\n".encode())
    assert digest.hexdigest() == CHASE_PIN


def test_build_koszul_rejects_an_empty_section_sum():
    space = ParabolicSpace(rs=build_root_system("A", 6), crossed=frozenset({4}))
    with pytest.raises(ValueError, match="section bundle must have positive rank"):
        build_koszul(space, BundleSum(AMB))
