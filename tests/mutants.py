"""Mutation gate: each mutant is one small fault put into a copy of ``src``, and the test named
with it must fail on that copy.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py

A mutant is (file under ``src/gpcoh``, exact old text, new text, pytest node id). The runner first
runs every named test once on an unmutated copy of ``src``, where each must pass. Then, for each
mutant, it copies ``src`` to a temporary directory, replaces the old text, which must occur there
exactly once, by the new, and runs the named test with ``pytest -x`` in a subprocess, under
``TIMEOUT_S`` and with the copy alone on ``PYTHONPATH``. The mutant is killed when pytest reports a
failed test (exit status 1). A passing test, any other status or a timeout fails the gate, which
exits 1 after listing every mutant that was not killed. Standard library only; tier 1 checks
(``tests/test_mutants.py``) that each old text occurs exactly once and each named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIMEOUT_S = 120  # one pytest run; the slowest named test takes about 3 s

# (file, old text, new text, the test that must fail once old is replaced by new)
MUTANTS = [
    # root_system: the builder, the walk, the Weyl product, duals and P-dominance
    # the alpha_i-string length of a new root: beta's plus one (Humphreys 8.4)
    ("root_system.py", "carried[2][i] = p[i] + 1", "carried[2][i] = p[i]",
     "tests/test_root_system.py::test_positive_roots_match_the_reflection_closure_oracle"),
    # the symmetrizer step along the Dynkin tree
    ("root_system.py", "d_j = -d[i] * cartan[j][i]", "d_j = d[i]",
     "tests/test_root_system.py::test_symmetrizer_is_the_coprime_positive_solution"),
    # the neighbour update of one reflection in the dominantization walk
    ("root_system.py", "cj = coeffs[j] = coeffs[j] - ci * a", "cj = coeffs[j] = coeffs[j] + ci * a",
     "tests/test_root_system.py::test_dominantize_matches_the_oracle_walk_and_counts_the_negative_roots"),
    # one root-chain step of the Weyl product: beta + alpha_i pairs as beta plus node i's term
    ("root_system.py", "values[parent] + s[i])", "values[parent] + s[0])",
     "tests/test_root_system.py::test_weyl_dimension_matches_the_oracle_on_random_dominant_weights"),
    # a root dropped from the Weyl product, numerator and denominator alike
    ("root_system.py", "for parent, i in chain:", "for parent, i in chain[:-1]:",
     "tests/test_root_system.py::test_weyl_dimension_examples"),
    # -w0 on the nodes: the dual of a weight is the weight itself
    ("root_system.py", "return dominant if sigma is None else Weight._trusted(map(dominant.__getitem__, sigma))",
     "return dominant", "tests/test_root_system.py::test_dual_weight_examples"),
    # the entry type test: a plain tuple of the right length passes as a weight
    ("root_system.py", "    if type(w) is not Weight or len(w) != rs.rank:\n        _check_weight(rs, w)\n    return None",
     "    if len(w) != rs.rank:\n        _check_weight(rs, w)\n    return None",
     "tests/test_root_system.py::test_every_public_kernel_rejects_what_is_not_a_weight_with_one_message"),
    # the nilradical: roots whose support meets some crossed node, not every one
    ("root_system.py", "meets = tuple(map(any,", "meets = tuple(map(all,",
     "tests/test_root_system.py::test_parabolic_space_splits_the_roots_as_the_per_root_oracle"),
    # P-dominance: a coefficient of -1 at an uncrossed node passes
    ("root_system.py", "            if omega[i - 1] < 0:", "            if omega[i - 1] < -1:",
     "tests/test_root_system.py::test_a_weight_negative_at_an_uncrossed_node_is_not_p_dominant"),
    # bott: the rho shift, the degree, multiplicities, the Euler characteristic, the canonical twist
    ("bott.py", "Weight._trusted([c + 1 for c in omega])", "Weight._trusted([c for c in omega])",
     "tests/test_bott.py::test_bwb_tangent_bundle_sections"),
    ("bott.py", "return BWBResult(degree, dual_weight(rs, mu)", "return BWBResult(degree + 1, dual_weight(rs, mu)",
     "tests/test_bott.py::test_bwb_negative_line_bundle_on_p1_lands_in_degree_one"),
    ("bott.py", "totals[degree] = totals.get(degree, 0) + mult * dimension",
     "totals[degree] = totals.get(degree, 0) + dimension",
     "tests/test_bott.py::test_bundle_cohomology_accumulates_multiplicity"),
    ("bott.py", "sum((-1) ** d * t for d, t in table.total_dims)", "sum(t for d, t in table.total_dims)",
     "tests/test_bott.py::test_euler_characteristic_examples"),
    ("bott.py", "return Weight(tuple(-_coroot_pairing(", "return Weight(tuple(_coroot_pairing(",
     "tests/test_bott.py::test_canonical_twist_weights"),
    # schur: labels, duals, LR and Pieri, dimensions, powers, weights and the integer grammar
    # a full U column moves into the twist as det U = O(-1)
    ("schur.py", "t - c  # det U = O(-1)", "t + c  # det U = O(-1)",
     "tests/test_schur.py::test_top_exterior_power_of_u_is_the_negative_line_bundle"),
    # the dual partition is the complement read in reverse
    ("schur.py", "tuple(first - x for x in reversed(p))", "tuple(first - x for x in p)",
     "tests/test_schur.py::test_dual_generators_match_the_reversed_complement_oracle"),
    # the twist of a dual label
    ("schur.py", "u.part(0) - q.part(0) - t", "u.part(0) + q.part(0) - t",
     "tests/test_schur.py::test_dual_generators_match_the_reversed_complement_oracle"),
    # the LR row clamp: no product shape has more than l(mu) + l(nu) rows, and none fewer is cut
    ("schur.py", "max_rows = min(max_rows, len(mu) + len(nu))", "max_rows = min(max_rows, len(mu) + len(nu) - 1)",
     "tests/test_lr.py::test_lr_matches_the_tableau_oracle_on_every_small_pair"),
    # the LR row width: one bit short when mu_1 + nu_1 is a power of two
    ("schur.py", "width = (mu[0] + nu[0]).bit_length()", "width = (mu[0] + nu[0] - 1).bit_length()",
     "tests/test_lr.py::test_the_packed_pass_matches_the_tableau_oracle_across_row_widths"),
    # the lattice-word room one cell too large
    ("schur.py", "room += gain", "room += gain + 1",
     "tests/test_lr.py::test_lr_matches_the_tableau_oracle_on_every_small_pair"),
    # the Pieri row clamp: a block takes what the rows below it cannot hold
    ("schur.py", "lo = left - max_rows + end", "lo = left - max_rows + end - 1",
     "tests/test_lr.py::test_pieri_past_the_sweep_matches_the_tableau_oracle"),
    # the hook-content product: the zero rows' factor of a nonzero row
    ("schur.py", "num *= comb(row + r - 1 - i, row)", "num *= comb(row + r - i, row)",
     "tests/test_schur.py::test_gl_dimension_matches_tableau_count"),
    # the twist of Lambda^j of Lambda^(r-1) G through G^* (x) det G
    ("schur.py", "j * t + det * (j - 1)", "j * t + det * j",
     "tests/test_schur.py::test_exterior_powers_of_the_dual_column_bundle"),
    # Lambda^d(L^m) = C(m, d) L^d
    ("schur.py", "comb(m, d)),)))", "1),)))",
     "tests/test_schur.py::test_exterior_power_sum_matches_the_character_oracle"),
    # the twist's coefficient at the crossed node of a label's weight
    ("schur.py", "label.twist - r[-1] + s[0]", "label.twist + r[-1] + s[0]",
     "tests/test_schur.py::test_label_to_weight_pinned_generators"),
    # an integer read from text is ASCII digits
    ("schur.py", "digits.isascii() and ", "",
     "tests/test_cli.py::test_an_argument_fault_exits_2_with_one_line_in_text_and_one_document_in_json"),
    # koszul: the complex and the solver
    # the first term left untwisted: C_0 = O instead of F
    ("koszul.py", "terms = tuple(tensor(power, twist) for power in powers)",
     "terms = powers[:1] + tuple(tensor(power, twist) for power in powers[1:])",
     "tests/test_koszul.py::test_canonical_twist_chase_reproduces_serre_duality_in_top_degree"),
    # a hint one degree above dim G/P accepted
    ("koszul.py", "if h.degree > space.dimension:", "if h.degree > space.dimension + 1:",
     "tests/test_koszul.py::test_chase_rejects_malformed_hints"),
    # the solver's left-exactness row: the kernel in degree 0 vanishes
    ("koszul.py", "            c, xs = forms.pop(s)\n            rows.append((xs, c, c))",
     "            c, xs = forms.pop(s)\n            rows.append((xs, 0, c))",
     "tests/test_koszul.py::test_normal_twist_chase_records_one_rank_forced_by_left_exactness"),
    # scenarios: the loader and the reports
    # the loader's unknown-key check
    ("scenarios.py", "        if key not in keys:\n", "        if False:\n",
     "tests/test_scenarios.py::test_runners_needing_a_zero_locus_reject_a_scenario_without_one"),
    # a ledger line's passed forced to true: h^1(S, T_S) = 0 whatever it is
    ("scenarios.py", "        h1_sub == 0,\n    )\n    ledger.add(\n        \"locally_rigid\",",
     "        True,\n    )\n    ledger.add(\n        \"locally_rigid\",",
     "tests/test_scenarios.py::test_cayley_with_a_nonzero_h1_does_not_claim_rigidity"),
    # the VMRT's projective space: a hyperplane section of P^(dim - 1)
    ("scenarios.py", "proj_dim = rep_dim - 2", "proj_dim = rep_dim - 1",
     "tests/test_scenarios.py::test_vmrt_audit_values"),
    # the Fano index of the zero locus
    ("scenarios.py", "index = -sub_twist", "index = sub_twist",
     "tests/test_scenarios.py::test_adjunction_audit_values"),
]


def _pytest(src: Path, node_ids: list[str]) -> tuple[int | None, str]:
    """pytest on ``node_ids`` with ``src`` alone on the path: (exit status or None on timeout, output)."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout + proc.stderr


def _copy(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="gpcoh-mutants-") as tmp:
        src = _copy(Path(tmp) / "clean")
        found = subprocess.run(
            [sys.executable, "-c", "import gpcoh; print(gpcoh.__file__)"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
        ).stdout.strip()
        if not found.startswith(str(src)):
            print(f"the copy is not what imports: gpcoh comes from {found!r}")
            return 1
        status, out = _pytest(src, sorted({m[3] for m in MUTANTS}))
        if status != 0:
            print(f"the named tests do not pass unmutated (status {status}):\n{out}")
            return 1
        alive = []
        for k, (file, old, new, test) in enumerate(MUTANTS):
            src = _copy(Path(tmp) / f"m{k}")
            path = src / "gpcoh" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                alive.append((file, old, f"old text occurs {text.count(old)} times"))
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            status, _ = _pytest(src, [test])
            verdict = {1: "killed", None: f"timeout after {TIMEOUT_S} s"}.get(status, f"pytest status {status}")
            print(f"{verdict:>18}  {file}: {old.strip().splitlines()[0][:60]!r}  <- {test}")
            if status != 1:
                alive.append((file, old, verdict))
    print(f"{len(MUTANTS) - len(alive)} of {len(MUTANTS)} mutants killed in {time.monotonic() - start:.0f} s")
    for file, old, verdict in alive:
        print(f"NOT KILLED ({verdict}): {file}: {old!r}")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
