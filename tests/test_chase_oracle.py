"""The chase against Borel-Weil-Bott on zero loci that are homogeneous themselves.

IGr(3, 2n) = C_n/P(3) is the zero locus of a general section of L2 U* on
Gr(3, 2n), and G2/P(2) that of Q*(1) on Gr(2, 7). On them a twist restricts to
an irreducible bundle: S^alpha U* to the weight (a1 - a2, a2 - a3, a3, 0, ...)
on C_n/P(3), and S^a U* (b) to the weight (a, b) on G2/P(2). So the engine's
Borel-Weil-Bott on the small space gives H^*(F|_S) directly, with no LR
product, no Koszul term and no chase. Every chase the engine calls determined
must equal it, and the number of determined chases per family is pinned, so a
loss of coverage shows as well as a wrong answer.
"""

from pathlib import Path

import pytest

from gpcoh import ParabolicSpace, Weight, build_koszul, build_root_system, bwb, chase, load_scenario, parse_bundle

from conftest import dense_peel_oracle

DATA = Path(__file__).resolve().parent / "data"


def _bwb_dims(space, coeffs):
    res = bwb(space, Weight(tuple(coeffs)))
    return {} if res.all_vanish else {res.degree: res.dimension}


def _schur_u_dual(alpha):
    """S^alpha U* for a weakly decreasing alpha, as S^(alpha - a_last) U* (a_last)."""
    *head, last = alpha
    parts = [a - last for a in head if a > last]
    if not parts:
        return f"O({last})"
    body = f"S{parts[0]} U*" if len(parts) == 1 else f"W[{','.join(map(str, parts))}] U*"
    return f"{body} ({last})"


def igr_cases(n):
    """(twist, Koszul complex on Gr(3, 2n), BWB on C_n/P(3)) for every dominant alpha in [-7, 5]^3."""
    amb = (3, 2 * n)
    gr = ParabolicSpace(build_root_system("A", 2 * n - 1), frozenset({3}))
    cn = ParabolicSpace(build_root_system("C", n), frozenset({3}))
    section = parse_bundle(amb, "L2 U*")
    span = range(-7, 6)
    for a1 in span:
        for a2 in (a for a in span if a <= a1):
            for a3 in (a for a in span if a <= a2):
                twist = _schur_u_dual((a1, a2, a3))
                weight = (a1 - a2, a2 - a3, a3) + (0,) * (n - 3)
                yield twist, build_koszul(gr, section, parse_bundle(amb, twist)), _bwb_dims(cn, weight)


def g2_cases():
    """(twist, Koszul complex on Gr(2, 7), BWB on G2/P(2)) for S^a U* (b), 0 <= a <= 12, -10 <= b <= 5."""
    amb = (2, 7)
    gr = ParabolicSpace(build_root_system("A", 6), frozenset({2}))
    g2 = ParabolicSpace(build_root_system("G", 2), frozenset({2}))
    section = parse_bundle(amb, "Q*(1)")
    for a in range(13):
        for b in range(-10, 6):
            twist = _schur_u_dual((a + b, b))
            yield twist, build_koszul(gr, section, parse_bundle(amb, twist)), _bwb_dims(g2, (a, b))


FAMILIES = {
    "IGr(3,6)": (lambda: igr_cases(3), 455, 211),
    "IGr(3,8)": (lambda: igr_cases(4), 455, 331),
    "G2/P(2)": (g2_cases, 208, 148),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_determined_chase_on_a_homogeneous_zero_locus_equals_bwb(family):
    cases, size, pinned = FAMILIES[family]
    seen = determined = 0
    for twist, cx, expected in cases():
        seen += 1
        res = chase(cx)
        if res.determined:
            determined += 1
            assert res.table.dims() == expected, (family, twist)
    assert (seen, determined) == (size, pinned)


@pytest.mark.parametrize(
    "cases,twist,blocked_at",
    [(lambda: igr_cases(3), "S5 U* (-4)", ((2, 6), (1, 6))), (g2_cases, "S7 U* (-6)", ((2, 5), (1, 5), (0, 5)))],
    ids=["LG(3,6)", "G2/P(2)"],
)
def test_a_chase_with_an_unforced_rank_blocks_instead_of_answering(cases, twist, blocked_at):
    # maximal ranks at the open cells would answer {5: 14}; BWB on the zero locus says H^3
    (cx, expected), = [(cx, want) for name, cx, want in cases() if name == twist]
    assert expected == {3: 14}
    res = chase(cx)
    assert not res.determined
    assert res.blocking_positions == blocked_at
    assert res.hints_used == ()


def test_the_shipped_g2_scenario_is_solved_where_the_peel_blocks():
    # tests/data/g2p2.json: G2/P(2) in Gr(2,7), twisted by O(-7), the weight (0, -7). The
    # peel of rule (a) blocks at (4, 10); the solver pins every rank and equals BWB
    sc = load_scenario(DATA / "g2p2.json")
    _, res = sc.chase_twist("o_minus_7")
    g2 = ParabolicSpace(build_root_system("G", 2), frozenset({2}))
    assert res.table.dims() == _bwb_dims(g2, (0, -7)) == {5: 748}
    peel = dense_peel_oracle(res.term_tables, {}, sc.space.dimension)
    assert peel[:2] == (None, [(4, 10)])
