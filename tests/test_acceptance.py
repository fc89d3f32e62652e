"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every assertion is exact integer equality.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

from gpcoh import (
    BundleLabel,
    BundleSum,
    ParabolicSpace,
    Partition,
    Weight,
    build_koszul,
    build_root_system,
    bwb,
    chase,
    euler_characteristic,
    label_to_weight,
    lr_coefficients,
    parse_bundle,
    run_adjunction_audit,
    run_cayley,
    run_theorem1_audit,
    run_vmrt_audit,
    tangent_label,
    tensor,
)
from gpcoh.schur import format_sum

from conftest import ssyt_count

AMB = (4, 7)


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def gr47():
    return ParabolicSpace(rs=build_root_system("A", 6), crossed=frozenset({4}))


def test_criterion_1_cayley_local_rigidity():
    with criterion("1 cayley local rigidity"):
        start = time.perf_counter()
        rep = run_cayley()
        elapsed = time.perf_counter() - start
        v = rep.values()
        assert rep.passed
        assert v["h0_tangent_subvariety"] == 14
        assert v["h1_tangent_subvariety"] == 0
        assert v["normal_ambient_h0"] == 35
        assert v["normal_restricted_h0"] == 34
        assert v["tangent_ambient_h0"] == 48
        assert v["tangent_ambient_h1"] == 0
        assert v["tangent_restricted_h0"] == 48
        assert v["tangent_restricted_h1"] == 0
        assert v["locally_rigid"] is True
        assert elapsed < 5.0, f"report took {elapsed:.2f}s"


SINGULAR_WEIGHTS = [
    # the six untwisted labels
    (0, 0, 1, -3, 0, 0),
    (0, 1, 0, -2, 0, 0),
    (0, 0, 2, -3, 0, 0),
    (1, 0, 0, -1, 0, 0),
    (0, 1, 1, -2, 0, 0),
    (1, 0, 1, -1, 0, 0),
    # the tangent-twisted resolution labels away from the bottom term
    (1, 0, 0, -3, 0, 1),
    (1, 0, 1, -3, 0, 1),
    (0, 0, 0, -2, 0, 1),
    (1, 1, 0, -2, 0, 1),
    (0, 0, 1, -2, 0, 1),
    (2, 0, 0, -1, 0, 1),
    (0, 1, 0, -1, 0, 1),
]


def test_criterion_2_singularity_ledger():
    with criterion("2 singularity ledger"):
        space = gr47()
        for coeffs in SINGULAR_WEIGHTS:
            assert bwb(space, Weight(coeffs)).all_vanish, coeffs
        res = bwb(space, Weight.of(1, 0, 0, 0, 0, 1))
        assert res.degree == 0
        assert res.dimension == 48


def test_criterion_3_decomposition_golden_files():
    with criterion("3 decomposition golden files"):
        space = gr47()

        def weights(bsum):
            return [(label_to_weight(lab, space).coeffs, m) for lab, m in bsum.summands]

        # 1. top exterior power of U is O(-1)
        assert BundleLabel(AMB, u_part=Partition((1, 1, 1, 1))) == BundleLabel(AMB, twist=-1)
        # 2. Lambda^3 U is U^*(-1)
        assert parse_bundle(AMB, "U* (-1)") == BundleSum(AMB, [(BundleLabel(AMB, Partition((1, 1, 1))), 1)])
        # 3. the untwisted resolution of the structure sheaf
        E = parse_bundle(AMB, "L3 U*")
        cx = build_koszul(space, E)
        assert [format_sum(cx.term(j)) for j in range(4, -1, -1)] == [
            "O(-3)",
            "U (-2)",
            "L2 U (-1)",
            "L3 U",
            "O",
        ]
        # 4. U(-2) (x) Lambda^3 U^*
        got = tensor(parse_bundle(AMB, "U (-2)"), E)
        assert weights(got) == [((0, 1, 0, -2, 0, 0), 1), ((0, 0, 2, -3, 0, 0), 1)]
        # 5. Lambda^2 U(-1) (x) Lambda^3 U^*
        got = tensor(parse_bundle(AMB, "L2 U (-1)"), E)
        assert weights(got) == [((1, 0, 0, -1, 0, 0), 1), ((0, 1, 1, -2, 0, 0), 1)]
        # 6. Lambda^3 U (x) Lambda^3 U^* contains exactly the trivial bundle
        got = tensor(BundleSum(AMB, [(BundleLabel(AMB, u_part=Partition((1, 1, 1))), 1)]), E)
        assert weights(got) == [((0, 0, 0, 0, 0, 0), 1), ((1, 0, 1, -1, 0, 0), 1)]
        # 7. the tangent-twisted resolution, label for label
        T = BundleSum(AMB, [(tangent_label(AMB), 1)])
        cxt = build_koszul(space, E, T)
        expected = {
            4: [((1, 0, 0, -3, 0, 1), 1)],
            3: [((0, 0, 0, -2, 0, 1), 1), ((1, 0, 1, -3, 0, 1), 1)],
            2: [((0, 0, 1, -2, 0, 1), 1), ((1, 1, 0, -2, 0, 1), 1)],
            1: [((0, 1, 0, -1, 0, 1), 1), ((2, 0, 0, -1, 0, 1), 1)],
            0: [((1, 0, 0, 0, 0, 1), 1)],
        }
        for j, want in expected.items():
            assert sorted(weights(cxt.term(j))) == sorted(want), f"term {j}"


def test_criterion_4_dimension_audits():
    with criterion("4 dimension audits"):
        v = run_vmrt_audit().values()
        assert v["dim_C3_P2"] == 7
        assert v["dim_F4_P4"] == 15
        assert v["dim_A6_P4"] == 12
        assert v["dim_D6_P6"] == 15
        assert v["dim_E6_P6"] == 16
        assert v["dim_E7_P7"] == 27
        assert v["dim_sl6_mod_sp6"] == 14
        assert v["dim_e6_mod_f4"] == 26
        assert v["nondegeneracy_sl6_mod_sp6"] is True and v["bound_sl6_mod_sp6"] == 6
        assert v["nondegeneracy_e6_mod_f4"] is True and v["bound_e6_mod_f4"] == 12
        t = run_theorem1_audit().values()
        assert t["balance_lhs_sl6_mod_sp6"] == 36 == t["balance_rhs_sl6_mod_sp6"]
        assert t["balance_lhs_e6_mod_f4"] == 79 == t["balance_rhs_e6_mod_f4"]
        assert t["h1_upper_bound_sl6_mod_sp6"] == 1
        assert t["h1_upper_bound_e6_mod_f4"] == 1
        a = run_adjunction_audit().values()
        assert a["ambient_canonical_twist"] == -7
        assert a["section_det_twist"] == 3
        assert a["subvariety_canonical_twist"] == -4
        assert a["subvariety_dim"] == 8
        assert a["fano_index"] == 4


def _partitions_up_to(size: int, rows: int):
    out = [Partition(())]
    def rec(prefix, remaining, cap):
        for v in range(min(cap, remaining), 0, -1):
            p = prefix + (v,)
            if len(p) <= rows:
                out.append(Partition(p))
                rec(p, remaining - v, v)
    rec((), size, size)
    return out


def test_criterion_5_property_suites():
    with criterion("5 property suites"):
        # LR symmetry and dimension multiplicativity, all pairs |mu|+|nu| <= 8
        parts = _partitions_up_to(8, 4)
        pairs = [
            (mu, nu)
            for mu, nu in product(parts, parts)
            if mu.size + nu.size <= 8
        ]
        for mu, nu in pairs:
            assert lr_coefficients(mu, nu, 4) == lr_coefficients(nu, mu, 4)
        for r in (1, 2, 3, 4):
            for mu, nu in pairs:
                table = lr_coefficients(mu, nu, r)
                total = sum(c * ssyt_count(lam.parts, r) for lam, c in table.items())
                assert total == ssyt_count(mu.parts, r) * ssyt_count(nu.parts, r)

        # Serre duality consistency on 500 random A-type inputs
        from conftest import serre_dual_weight

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

        # the classical line bundle table on the projective line
        p1 = ParabolicSpace(rs=build_root_system("A", 1), crossed=frozenset({1}))
        for a in range(-10, 11):
            res = bwb(p1, Weight.of(a))
            if a >= 0:
                assert (res.degree, res.dimension) == (0, a + 1)
            elif a == -1:
                assert res.all_vanish
            else:
                assert (res.degree, res.dimension) == (1, -a - 1)

        # Euler consistency on every determined chase of the shipped scenario
        space = gr47()
        E = parse_bundle(AMB, "L3 U*")
        for twist in (
            BundleSum(AMB, [(BundleLabel(AMB), 1)]),
            E,
            BundleSum(AMB, [(tangent_label(AMB), 1)]),
        ):
            cx = build_koszul(space, E, twist)
            res = chase(cx)
            assert res.determined
            expected = sum(
                (-1) ** j * euler_characteristic(res.term_tables[j])
                for j in range(cx.section_rank + 1)
            )
            assert euler_characteristic(res.table) == expected


def test_criterion_6_external_inputs_are_labelled_non_claims():
    with criterion("6 externally sourced constants and non-claims"):
        for rep in (run_cayley(), run_theorem1_audit()):
            v = rep.values()
            assert v["non_claim_global_rigidity"] == "not claimed"
            assert v["non_claim_prolongation"] == "input only"
            externals = [ln for ln in rep.lines() if ln.source == "external"]
            assert externals, rep.name
            for ln in externals:
                assert ln.provenance.strip(), ln.key
        # the imported constants are labelled external, never computed
        rep = run_cayley()
        assert rep.line("h0_tangent_subvariety").source == "external"
        t = run_theorem1_audit()
        assert t.line("cone_aut_dim_sl6_mod_sp6").source == "external"
        assert t.line("cone_aut_dim_e6_mod_f4").source == "external"
        assert t.line("h1_general_fiber_sl6_mod_sp6").source == "external"
