import hashlib
import random

import pytest

import gpcoh.koszul
import gpcoh.schur
from gpcoh import (
    BundleLabel,
    BundleSum,
    CohomologyTable,
    ParabolicSpace,
    Partition,
    RankHint,
    build_koszul,
    build_root_system,
    bundle_cohomology,
    chase,
    euler_characteristic,
    exterior_power_sum,
    lr_coefficients,
    parse_bundle,
    restriction_sequence,
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
    return BundleSum.of(BundleLabel(AMB))


def tangent():
    return BundleSum.of(tangent_label(AMB))


# ---------------------------------------------------------------------------
# build_koszul


def test_untwisted_koszul_terms_match_the_classical_display():
    cx = build_koszul(gr47(), section_bundle(), trivial())
    got = [format_sum(cx.term(j)) for j in range(4, -1, -1)]
    assert got == ["O(-3)", "U (-2)", "L2 U (-1)", "L3 U", "O"]
    assert cx.term(0) == trivial()


def test_twisted_koszul_ends_with_the_twisting_bundle():
    cx = build_koszul(gr47(), section_bundle(), section_bundle())
    assert cx.term(0) == section_bundle()
    assert cx.section_rank == 4
    # the middle term is the endomorphism-style product
    assert len(cx.term(1).summands) == 2


def test_hypersurface_koszul_is_two_terms():
    p1 = ParabolicSpace(rs=build_root_system("A", 1), crossed=frozenset({1}))
    amb = (1, 2)
    cx = build_koszul(p1, BundleSum.of(BundleLabel(amb, twist=1)))
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


def test_koszul_rejects_unsupported_section_bundles():
    # rank 6 passes the codimension check but Lambda^2 of a two-column
    # bundle is genuine plethysm
    bad = BundleSum.of(BundleLabel(AMB, u_part=Partition((1, 1))))
    with pytest.raises(ValueError, match="unsupported plethysm"):
        build_koszul(gr47(), bad)


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
    assert hint.describe() == "H^0(C_1) -> H^0(C_0) rank 1 [forced]"
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
    res = chase(build_koszul(p1, BundleSum.of(BundleLabel(amb, twist=1))))
    assert res.determined
    assert res.table.dims() == {0: 1}


def test_negative_twists_reproduce_kodaira_vanishing_on_the_zero_locus():
    # the zero locus is Fano of index 4, so O(-1), O(-2), O(-3) restricted
    # to it have no cohomology at all
    for t in (-1, -2, -3):
        res = chase(build_koszul(gr47(), section_bundle(), BundleSum.of(BundleLabel(AMB, twist=t))))
        assert res.determined
        assert res.table.dims() == {}
        assert res.hints_used == ()


def test_canonical_twist_chase_reproduces_serre_duality_in_top_degree():
    # O(-4) is the canonical bundle of the eightfold zero locus, so its only
    # cohomology is H^8 = C; the chase must carry this through all five terms
    res = chase(build_koszul(gr47(), section_bundle(), BundleSum.of(BundleLabel(AMB, twist=-4))))
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


def test_contradicting_hint_makes_the_chase_indeterminate():
    cx = build_koszul(gr47(), section_bundle(), section_bundle())
    res = chase(cx, [RankHint(target_term=0, degree=0, rank=0)])
    assert not res.determined
    assert res.table is None
    assert res.blocking_positions == ((0, 0),)
    assert dict(res.grid) == {(1, 0): 1, (0, 0): 35}


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
    with pytest.raises(ValueError, match="nonnegative"):
        chase(cx, [RankHint(target_term=0, degree=0, rank=-1)])
    with pytest.raises(ValueError, match="exceeds the maximal possible rank"):
        chase(cx, [RankHint(target_term=0, degree=0, rank=5)])
    with pytest.raises(ValueError, match="exceeds the maximal possible rank"):
        chase(cx, [RankHint(target_term=2, degree=3, rank=1)])
    with pytest.raises(ValueError, match="duplicate"):
        chase(cx, [RankHint(0, 0, 1), RankHint(0, 0, 1)])


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
# restriction_sequence


def test_restriction_sequence_closes_the_rigidity_computation():
    ambient = CohomologyTable.from_dimensions({0: 48})
    normal = CohomologyTable.from_dimensions({0: 34})
    assert restriction_sequence(14, ambient, normal) == (14, 0)


def test_restriction_sequence_balanced():
    ambient = CohomologyTable.from_dimensions({0: 5})
    normal = CohomologyTable.from_dimensions({0: 5})
    assert restriction_sequence(0, ambient, normal) == (0, 0)


def test_restriction_sequence_rejects_h0_larger_than_the_ambient_sections():
    empty = CohomologyTable.from_dimensions({})
    with pytest.raises(ValueError, match="cannot inject"):
        restriction_sequence(3, empty, empty)


def test_restriction_sequence_rejects_positive_degree_ambient_cohomology():
    ambient = CohomologyTable.from_dimensions({0: 5, 1: 1})
    normal = CohomologyTable.from_dimensions({0: 5})
    with pytest.raises(ValueError, match="positive degrees"):
        restriction_sequence(0, ambient, normal)


def test_restriction_sequence_rejects_high_degree_normal_cohomology():
    ambient = CohomologyTable.from_dimensions({0: 5})
    normal = CohomologyTable.from_dimensions({0: 5, 2: 1})
    with pytest.raises(ValueError, match="degrees >= 2"):
        restriction_sequence(0, ambient, normal)


def test_restriction_sequence_rejects_negative_h1():
    ambient = CohomologyTable.from_dimensions({0: 5})
    normal = CohomologyTable.from_dimensions({0: 3})
    with pytest.raises(ValueError, match="h1 = -2 < 0"):
        restriction_sequence(0, ambient, normal)


def test_chase_blocks_cohomology_above_the_zero_locus_dimension():
    # two linear forms on P^3 cut out a line; nothing forces the rank of
    # H^3(C_2) = 10 -> H^3(C_1) = 8, so the chase blocks there. Given the maximal
    # rank 8, term 0 has no cell left to visit and the output would be {1: 2, 3: 1},
    # but H^3 cannot live on a curve (the truth is H^1(P^1, O(-4)) = 3), so the
    # guard above dim S must refuse to answer
    p3 = ParabolicSpace(rs=build_root_system("A", 3), crossed=frozenset({1}))
    amb = (1, 4)
    section = BundleSum.from_pairs(amb, [(BundleLabel(amb, twist=1), 2)])
    cx = build_koszul(p3, section, BundleSum.of(BundleLabel(amb, twist=-4)))
    res = chase(cx)
    assert not res.determined
    assert res.blocking_positions == ((1, 3),)
    assert res.hints_used == ()
    res = chase(cx, [RankHint(1, 3, 8)])
    assert not res.determined
    assert res.table is None
    assert res.blocking_positions == ((0, 3),)
    assert [tuple(h) for h in res.hints_used] == [(1, 3, 8, "provided")]


def test_a_blocked_term_lists_every_rank_that_nothing_forces():
    # on Gr(3,6) cut by L2 U* (so S = LG(3,6)), S5 U* (-4) alone blocks at (2, 6) and
    # W[8,8] U* (-7) alone at (2, 3); their sum blocks at both cells of term 2, and a hint
    # at one of them leaves the other
    amb = (3, 6)
    space = ParabolicSpace(rs=build_root_system("A", 5), crossed=frozenset({3}))
    pairs = [p for label in ("S5 U* (-4)", "W[8,8] U* (-7)") for p in parse_bundle(amb, label).summands]
    cx = build_koszul(space, parse_bundle(amb, "L2 U*"), BundleSum.from_pairs(amb, pairs))
    res = chase(cx)
    assert res.blocking_positions == ((2, 3), (2, 6))
    assert res.hints_used == ()
    for hinted, left in (((2, 3), (2, 6)), ((2, 6), (2, 3))):
        res = chase(cx, [RankHint(*hinted, 0)])
        assert res.blocking_positions == (left,)
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
    cx = build_koszul(gr47(), section_bundle(), BundleSum.of(BundleLabel(AMB, twist=2)))
    hints = [RankHint(1, 0, 0), RankHint(0, 0, 99999)]
    with pytest.raises(ValueError, match=r"rank=99999\) exceeds the maximal possible rank 490"):
        chase(cx, hints)


def test_a_blocked_chase_lists_the_hints_it_never_reached():
    cx = build_koszul(gr47(), section_bundle(), BundleSum.of(BundleLabel(AMB, twist=2)))
    res = chase(cx, [RankHint(1, 0, 0), RankHint(0, 0, 1)])
    assert not res.determined
    assert res.blocking_positions == ((1, 0),)
    assert [(h.target_term, h.degree, h.rank) for h in res.hints_used] == [(1, 0, 0)]
    assert res.hints_unreached == (RankHint(0, 0, 1),)


# ---------------------------------------------------------------------------
# the peel visits only the cells that can carry a rank


def _pool_complex(k, n, atoms, twist):
    amb = (k, n)
    section = BundleSum.from_pairs(
        amb, [p for atom in atoms for p in parse_bundle(amb, atom).summands]
    )
    space = ParabolicSpace(rs=build_root_system("A", n - 1), crossed=frozenset({k}))
    return build_koszul(space, section, parse_bundle(amb, twist))


CAYLEY_CASES = [[4, 7, ["L3 U*"], twist] for twist in ("O", "L3 U*", "T")]


def _plain(res):
    """A chase result in the oracle's form."""
    return (
        res.table.dims() if res.determined else None,
        list(res.blocking_positions),
        [tuple(h) for h in res.hints_used],
        [tuple(h) for h in res.hints_unreached],
    )


def _outcome(run):
    try:
        return run()
    except ValueError as exc:
        return str(exc)


def _zeroed_through(cx, res):
    """Rank-0 hints at each blocking position in turn, until the chase stops blocking
    at a position it was not already given."""
    hints = []
    while not res.determined:
        fresh = [RankHint(j, q, 0) for j, q in res.blocking_positions if RankHint(j, q, 0) not in hints]
        if not fresh:
            break
        hints += fresh
        res = chase(cx, hints)
    return hints


def test_the_sparse_peel_matches_the_dense_peel_on_the_pool_with_and_without_hints():
    # hints: none, every forced rank given back as provided, one forced rank lowered by 1,
    # rank 0 at every blocking position in turn, and a rank-0 hint at a cell of capacity 0,
    # at a nonzero H^q(C_j) if any
    rng = random.Random(2103)
    seen = {"lowered": 0, "blocked": 0, "zeroed": 0, "zero_capacity_nonzero_target": 0}
    for case in koszul_pool_sample(2103, 300) + CAYLEY_CASES:
        cx = _pool_complex(*case)
        top = cx.ambient.dimension
        base = chase(cx)
        tables = base.term_tables
        forced = [RankHint(h.target_term, h.degree, h.rank) for h in base.hints_used]
        hint_sets = [[], forced]
        lowered = [h for h in forced if h.rank > 0]
        if lowered:
            h = rng.choice(lowered)
            hint_sets.append([h._replace(rank=h.rank - 1)])
            seen["lowered"] += 1
        zeroed = _zeroed_through(cx, base)
        if zeroed:
            hint_sets.append(zeroed)
            seen["zeroed"] += 1
        taken = {(h.target_term, h.degree) for h in forced} | set(base.blocking_positions)
        free = [
            (j, q) for j in range(cx.section_rank) for q in range(top + 1) if (j, q) not in taken
        ]
        targeted = [(j, q) for j, q in free if tables[j].total_dimension(q)]
        seen["zero_capacity_nonzero_target"] += bool(targeted)
        j, q = rng.choice(targeted or free)
        hint_sets.append([RankHint(j, q, 0)])
        for hints in hint_sets:
            given = {(h.target_term, h.degree): h.rank for h in hints}
            expected = _outcome(lambda: dense_peel_oracle(tables, given, top))
            got = _outcome(lambda: _plain(chase(cx, hints)))
            assert got == expected, (case, hints)
            seen["blocked"] += got[0] is None
    assert min(seen.values()) >= 20, seen


# seeded sample of the Koszul pool: format_sum of every term, then determined, the table,
# the blocking positions, the ranks used in order and the page of each chase
CHASE_PIN = "491520b7ab133fa5dcdfa88fdf93ca1954bcf4ae9a62f5e8ab62fb62f06c3f3a"


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
