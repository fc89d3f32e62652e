"""Mutation gate: each mutant is one small fault put into a copy of ``src``, and the test named
with it must fail on that copy.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py

A mutant is (file under ``src/gpcoh``, exact old text, new text, pytest node id). The runner first
runs every named test once on an unmutated copy of ``src``, where each must pass. Then, for each
mutant, it copies ``src`` to a temporary directory, replaces the old text, which must occur there
exactly once, by the new, and runs the named test with ``pytest -x`` in a subprocess, under
``TIMEOUT_S``, with its address space capped at ``MEMORY_CAP`` and the copy alone on
``PYTHONPATH``: a mutant that allocates without bound fails with ``MemoryError`` in seconds, not
when the host runs out. The mutant is killed when pytest reports a failed test (exit status 1).
A passing test, any other status or a timeout fails the gate, which exits 1 after listing every
mutant that was not killed. Standard library only, on a system with ``resource`` (Unix); tier 1
checks (``tests/test_mutants.py``) that each old text occurs exactly once and each named test
exists.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIMEOUT_S = 120  # one pytest run; the slowest named test takes about 3 s
MEMORY_CAP = 1 << 30  # bytes of address space per pytest run; every named test passes under 400 MiB

# (file, old text, new text, the test that must fail once old is replaced by new)
MUTANTS = [
    # root_system: the builder, the walk and the Weyl product
    # G2's Cartan matrix of affine type: without the |Phi+| bound the builder runs without end
    ("root_system.py", "edge(0, 1, aij=-1, aji=-3)", "edge(0, 1, aij=-1, aji=-4)",
     "tests/test_root_system.py::test_positive_root_counts_match_closed_forms"),
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
    # the entry type test: a plain tuple of the right length passes as a weight
    ("root_system.py", "    if type(w) is not Weight or len(w) != rs.rank:\n        _check_weight(rs, w)\n    if -1 in w:",
     "    if len(w) != rs.rank:\n        _check_weight(rs, w)\n    if -1 in w:",
     "tests/test_root_system.py::test_every_public_kernel_rejects_what_is_not_a_weight_with_one_message"),
    # the nilradical: roots whose support meets some crossed node, not every one
    ("root_system.py", "meets = tuple(map(any,", "meets = tuple(map(all,",
     "tests/test_root_system.py::test_parabolic_space_splits_the_roots_as_the_per_root_oracle"),
    # the dot action's rho shift, on a miss of the dominantize memo
    ("root_system.py", "_walk(rs, [c + 1 for c in w])", "_walk(rs, [c for c in w])",
     "tests/test_bott.py::test_bwb_tangent_bundle_sections"),
    # bott: P-dominance, -w0, the degree, multiplicities, the Euler characteristic, the canonical twist
    # any 4-item iterable unpacked as the space: a plain tuple skips the P-dominance check
    ("bott.py", "    if type(space) is not ParabolicSpace:\n", "    if False:\n",
     "tests/test_bott.py::test_bwb_takes_only_a_parabolic_space_naming_what_it_got"),
    # P-dominance: a coefficient of -1 at an uncrossed node passes
    ("bott.py", "            if omega[i - 1] < 0:", "            if omega[i - 1] < -1:",
     "tests/test_root_system.py::test_a_weight_negative_at_an_uncrossed_node_is_not_p_dominant"),
    # P-dominance unchecked: the uncrossed nodes are never read
    ("bott.py", "    if min(omega) < 0:\n        for i in uncrossed:", "    if False:\n        for i in uncrossed:",
     "tests/test_bott.py::test_bwb_rejects_non_p_dominant_weight_naming_the_node"),
    # -w0 on the nodes: the cohomology weight is mu itself, not its dual
    ("bott.py", "dual = mu if sigma is None else Weight._trusted(map(mu.__getitem__, sigma))", "dual = mu",
     "tests/test_root_system.py::test_e6_dual_exchanges_the_two_minimal_representations"),
    ("bott.py", "return BWBResult._trusted((degree, dual,", "return BWBResult._trusted((degree + 1, dual,",
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
    # the LR row width in bytes: one byte short when mu_1 + nu_1 is 256
    ("schur.py", "nbytes = (mu[0] + nu[0]).bit_length() + 7 >> 3", "nbytes = (mu[0] + nu[0] - 1).bit_length() + 7 >> 3",
     "tests/test_lr.py::test_the_packed_pass_matches_the_tableau_oracle_across_row_widths"),
    # the inlined last row: its lattice room one cell too large, so a state whose last strip has
    # one cell too few above it still closes strips there
    ("schur.py", "if end_slack < 0:", "if end_slack < -1:",
     "tests/test_lr.py::test_lr_matches_the_tableau_oracle_on_every_small_pair"),
    # the lattice-word room one cell too large
    ("schur.py", "room += left", "room += left + 1",
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
    ("schur.py", "label.twist - r[-1]", "label.twist + r[-1]",
     "tests/test_schur.py::test_label_to_weight_pinned_generators"),
    # an integer read from text is ASCII digits
    ("schur.py", "digits.isascii() and ", "",
     "tests/test_cli.py::test_an_argument_fault_exits_2_with_one_line_in_text_and_one_document_in_json"),
    # koszul: the complex and the solver
    # the first term left untwisted: C_0 = O instead of F
    ("koszul.py", "terms = tuple(tensor(power, twist) for power in powers)",
     "terms = powers[:1] + tuple(tensor(power, twist) for power in powers[1:])",
     "tests/test_koszul.py::test_canonical_twist_chase_reproduces_serre_duality_in_top_degree"),
    # a hint one degree above top + r, dim G/P for a chase, accepted by the solver
    ("koszul.py", "0 <= q <= top + r):", "0 <= q <= top + r + 1):",
     "tests/test_koszul.py::test_chase_rejects_malformed_hints"),
    # the solver's left-exactness row: the kernel in degree 0 vanishes
    ("koszul.py", "            c, xs = forms.pop(s)\n            _meet(sets, xs, c, c)",
     "            c, xs = forms.pop(s)\n            _meet(sets, xs, 0, c)",
     "tests/test_koszul.py::test_normal_twist_chase_records_one_rank_forced_by_left_exactness"),
    # scenarios: the loader and the reports
    # the loader's unknown-key check
    ("scenarios.py", "        if key not in keys:\n", "        if False:\n",
     "tests/test_scenarios.py::test_runners_needing_a_zero_locus_reject_a_scenario_without_one"),
    # the loader's report-kind check: a report key that names no report escapes as a KeyError
    ("scenarios.py", "    if type(kind) is not str or kind not in REPORTS:\n", "    if False:\n",
     "tests/test_cli.py::test_a_file_whose_report_key_names_no_report_it_fits_exits_2_naming_the_file_and_the_key"),
    # a ledger line's passed forced to true: h^1(S, T_S) = 0 whatever it is
    ("scenarios.py", "        h1_sub == 0,\n    )\n    ledger.add(\n        \"locally_rigid\",",
     "        True,\n    )\n    ledger.add(\n        \"locally_rigid\",",
     "tests/test_scenarios.py::test_cayley_with_a_nonzero_h1_does_not_claim_rigidity"),
    # the VMRT's projective space: a hyperplane section of P^(dim - 1)
    ("scenarios.py", "proj_dim = rep_dim - 2", "proj_dim = rep_dim - 1",
     "tests/test_scenarios.py::test_vmrt_audit_values"),
    # theorem1: the automorphism balance's pass/fail comparison flipped
    ("scenarios.py", "\"automorphism balance identity\",\n            aut_dim + 1 == space_dim + cone_dim,",
     "\"automorphism balance identity\",\n            aut_dim + 1 != space_dim + cone_dim,",
     "tests/test_scenarios.py::test_theorem1_audit_values"),
    # theorem1: the cone's constant checked against the semisimple part alone, without the scalars
    ("scenarios.py", "cone_dim == cone_ss + 1,", "cone_dim == cone_ss,",
     "tests/test_scenarios.py::test_theorem1_audit_values"),
    # theorem1: the imported prolongation bound labelled as computed
    ("scenarios.py", "not proved here\",\n            source=\"external\",",
     "not proved here\",\n            source=\"computed\",",
     "tests/test_scenarios.py::test_the_h0_bound_is_an_imported_theorem_labelled_external"),
    # the report frame: the scope section read off a computed line, not an external one
    ("scenarios.py", 'if any(ln.source == "external" for', 'if any(ln.source == "computed" for',
     "tests/test_scenarios.py::test_the_scope_section_holds_the_non_claims_and_only_when_a_constant_was_read"),
    # the report frame: the ledger opened without the file's expect block
    ("scenarios.py", 'ledger = _Ledger(data.get("expect", {}))', "ledger = _Ledger({})",
     "tests/test_scenarios.py::test_cayley_checks_the_two_values_its_expect_block_names"),
    # cayley: a twist chased as whatever bundle its label names
    ("scenarios.py", "        if bundle != parse_bundle(bundle.ambient, text):\n", "        if False:\n",
     "tests/test_scenarios.py::test_a_cayley_twist_that_is_not_the_bundle_the_normal_sequence_reads_fails_before_any_chase"),
    # the Fano index of the zero locus
    ("scenarios.py", "index = -sub_twist", "index = sub_twist",
     "tests/test_scenarios.py::test_adjunction_audit_values"),
    # the grammar builds each atom's label from the pieces it matched, with the checks it cannot make
    # a W[...] list of more rows than its generator's rank accepted
    ("schur.py", "        if len(p) > rank:\n", "        if False:\n",
     "tests/test_schur.py::test_every_atom_form_parses_to_the_label_the_checked_constructors_give"),
    # an exterior degree one above its generator's rank accepted
    ("schur.py", "        if degree > rank:  #", "        if degree > rank + 1:  #",
     "tests/test_schur.py::test_every_atom_form_parses_to_the_label_the_checked_constructors_give"),
    # a dual generator read as the dual of S_p(W) (x) O(t), not of S_p(W) (x) O(-t)
    ("schur.py", "BundleLabel._canonical(ambient, u, q, -twist))", "BundleLabel._canonical(ambient, u, q, twist))",
     "tests/test_schur.py::test_every_atom_form_parses_to_the_label_the_checked_constructors_give"),
    # the tangent bundle's twist shifted by one
    ("schur.py", "Partition._trusted((1,)), twist + 1)", "Partition._trusted((1,)), twist + 2)",
     "tests/test_schur.py::test_every_atom_form_parses_to_the_label_the_checked_constructors_give"),
    # a repeated hint position accepted by the solver: the later rank silently replaces the earlier
    ("koszul.py", "        if (j, q) in given:\n", "        if False:\n",
     "tests/test_koszul.py::test_the_solver_rejects_a_hint_off_its_maps_or_its_ranks_naming_it"),
    # the solver's one contradiction check, before a rank set tightens; a sequence with no rank has
    # no other way to fail
    ("koszul.py", "            if ceiling < least or floor > most or least > most:\n", "            if False:\n",
     "tests/test_koszul.py::test_a_value_the_sequence_cannot_carry_raises_naming_it"),
    # |Phi+| of E7 one short in the table of type facts
    ("root_system.py", "{6: 36, 7: 63, 8: 120}.get", "{6: 36, 7: 62, 8: 120}.get",
     "tests/test_root_system.py::test_positive_root_counts_match_closed_forms"),
    # the Q side of the column test weakened: S2 Q would fold as if it were a column
    ("schur.py", "elif not u and all(p == 1 for p in q):", "elif not u:",
     "tests/test_koszul.py::test_koszul_rejects_unsupported_section_bundles"),
    # an ambient or a crossed set that is a bare int reaches tuple() unnamed
    ("schur.py", "        if not isinstance(ambient, Iterable):\n            BundleLabel(ambient)",
     "        if False:\n            BundleLabel(ambient)",
     "tests/test_schur.py::test_a_record_field_of_the_wrong_type_is_rejected_naming_it"),
    ("schur.py", "BundleLabel(tuple(ambient) if isinstance(ambient, Iterable) else ambient)",
     "BundleLabel(tuple(ambient))",
     "tests/test_schur.py::test_parse_bundle_reports_a_bad_ambient_before_any_atom"),
    ("root_system.py", "    if not isinstance(nodes, Iterable):\n", "    if False:\n",
     "tests/test_bott.py::test_crossed_nodes_that_are_not_integers_are_rejected"),
    # Lambda^0 of a label no closed form covers is O: it is rejected only from Lambda^1 on
    ("schur.py", "    if top and a > 1 and a != r - 1:", "    if a > 1 and a != r - 1:",
     "tests/test_schur.py::test_exterior_power_rejects_general_plethysm"),
    # a negative dimension accepted into a cohomology table
    ("bott.py", "type(d) is not int or q < 0 or d < 0:", "type(d) is not int or q < 0:",
     "tests/test_bott.py::test_euler_characteristic_examples"),
    # a report line that does not exist read as None
    ("scenarios.py", "        raise KeyError(f\"report {self.name!r} has no line {key!r}\")",
     "        return None",
     "tests/test_scenarios.py::test_cayley_report_final_values"),
    # the solver's int check on a hint: a str degree then fails the position comparison unnamed
    ("koszul.py", "        if any([type(field) is not int for field in h]):\n", "        if False:\n",
     "tests/test_koszul.py::test_chase_rejects_malformed_hints"),
    # gl_dimension on a negative rank, and on a sequence that is no partition
    ("schur.py", "    if type(r) is not int or r < 0:", "    if type(r) is not int:",
     "tests/test_schur.py::test_gl_dimension_rejects_a_negative_rank_and_a_partition_that_is_not_one"),
    ("schur.py", "p = p if isinstance(p, Partition) else Partition(tuple(p))", "p = tuple(p)",
     "tests/test_schur.py::test_gl_dimension_rejects_a_negative_rank_and_a_partition_that_is_not_one"),
    # a blank partition read as its digits
    ("schur.py", "    text = text.strip()\n    return Partition(_int_list", "    return Partition(_int_list",
     "tests/test_schur.py::test_parse_partition"),
    # an ambient list kept as a list in the parsed sum
    ("schur.py", "        ambient = BundleLabel(tuple(ambient)", "        BundleLabel(tuple(ambient)",
     "tests/test_schur.py::test_parse_bundle_goldens"),
    # a Path named like a report read as the shipped file
    ("scenarios.py", "builtin = isinstance(name_or_path, str) and not os.path.dirname(text)",
     "builtin = not os.path.dirname(text)",
     "tests/test_scenarios.py::test_unknown_scenario_rejected"),
    # a root system printed as its record, not its name
    ("root_system.py", "    def __str__(self) -> str:\n        return self.name\n",
     "    def __str__(self) -> str:\n        return repr(self)\n",
     "tests/test_records.py::test_records_print_their_fields_by_name"),
    # a normal sequence left open read as solved
    ("scenarios.py", "        if dims is None:\n            open_cells",
     "        if False:\n            open_cells",
     "tests/test_scenarios.py::test_cayley_with_a_normal_sequence_left_open_fails_naming_the_open_ranks"),
    # cli: each text line that only the text goldens read
    ("cli.py", 'lines.append(f"dimension sum over GL({ns.rows}): {dim_sum}")',
     'lines.append(f"dimension sum over GL({ns.rows}) = {dim_sum}")',
     "tests/test_golden.py::test_cli_output_matches_golden_file"),
    ("cli.py", '        f"dim g = {adjoint_dimension(rs)}",\n', "",
     "tests/test_golden.py::test_cli_output_matches_golden_file"),
    ("cli.py", "{'assumed' if h.assumed else 'forced'}", "{'forced' if h.assumed else 'assumed'}",
     "tests/test_golden.py::test_cli_output_matches_golden_file"),
    ("cli.py", 'f" (pre-dual {res.predual_weight})"', '""',
     "tests/test_golden.py::test_cli_output_matches_golden_file"),
    ("cli.py", '            print("failures:")\n', "",
     "tests/test_golden.py::test_cli_output_matches_golden_file"),
    # the process entry point drops main's status: the commands that must exit 1 or 2 exit 0
    ("cli.py", "    os._exit(status)\n", "    os._exit(0)\n",
     "tests/test_golden.py::test_cli_output_matches_golden_file"),
    # the process entry point ends without flushing stdout: the tail of its output is lost
    ("cli.py", "        sys.stdout.flush()", "        pass",
     "tests/test_cli.py::test_a_process_ends_only_once_all_of_mains_output_is_written"),
    # the rank bound of types A-D: gone, a twenty-digit rank runs the builder; one short, A100 is refused.
    # The second old text keeps its line end, so each (file, old) pair names one mutant
    ("root_system.py", "_MAX_RANK = 100", "_MAX_RANK = 10**30",
     "tests/test_cli.py::test_a_twenty_digit_rank_exits_2_with_one_line_at_once"),
    ("root_system.py", "_MAX_RANK = 100\n", "_MAX_RANK = 99\n",
     "tests/test_cli.py::test_roots_of_a100_are_its_5050_intervals_and_a101_exits_2_naming_the_range"),
    # the solver's tables unchecked: a negative dimension comes back as a determined end
    ("koszul.py", "            check_dims(table)\n", "            pass\n",
     "tests/test_koszul.py::test_the_solver_rejects_a_hint_off_its_maps_or_its_ranks_naming_it"),
    # the contradiction check without its empty-interval arm: two equalities on a set of three
    # ranks that each rank's bounds can meet apart leave the bounds open
    ("koszul.py", " or least > most:", ":",
     "tests/test_koszul.py::test_two_constraints_on_one_rank_set_that_disagree_raise_naming_what_was_provided"),
    # the dot action's wall test read as the linear one: a weight with a zero coefficient vanishes
    ("root_system.py", "    if -1 in w:\n", "    if 0 in w:\n",
     "tests/test_root_system.py::test_dominantize_shifted_adjoint_weight_is_regular_of_length_zero"),
    # the wall test gone: a coefficient -1 is still None, but only after a walk
    ("root_system.py", "    if -1 in w:\n        return None\n", "",
     "tests/test_root_system.py::test_dominantize_of_a_weight_with_a_minus_one_is_none_with_no_walk"),
    # an untyped memo: a plain tuple equal to a warm Weight is served its entry, never checked
    ("root_system.py", "@lru_cache(maxsize=_MEMO_SIZE, typed=True)  # typed: a plain tuple is no Weight\ndef dominantize(",
     "@lru_cache(maxsize=_MEMO_SIZE, typed=False)\ndef dominantize(",
     "tests/test_root_system.py::test_every_public_kernel_rejects_what_is_not_a_weight_with_one_message"),
    ("root_system.py", "@lru_cache(maxsize=_MEMO_SIZE, typed=True)  # typed: a plain tuple is no Weight\ndef weyl_dimension(",
     "@lru_cache(maxsize=_MEMO_SIZE, typed=False)\ndef weyl_dimension(",
     "tests/test_root_system.py::test_every_public_kernel_rejects_what_is_not_a_weight_with_one_message"),
    # a scenario file that cannot be read, unwrapped: its PermissionError escapes main as a traceback
    ("scenarios.py",
     "    except OSError as exc:\n        raise ValueError(f\"scenario file {text!r} cannot be read: {exc}\") from exc\n",
     "",
     "tests/test_cli.py::test_an_unreadable_scenario_file_exits_2_with_one_line_naming_it_in_both_formats"),
    # the values of the unknown end unchecked: a 0 at a negative degree comes back as a determined end
    ("koszul.py", "        check_dims(values)\n", "        pass\n",
     "tests/test_koszul.py::test_the_solver_rejects_a_hint_off_its_maps_or_its_ranks_naming_it"),
]


def _cap_memory() -> None:
    """Run in the pytest child before it starts: cap its address space."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _pytest(src: Path, node_ids: list[str]) -> tuple[int | None, str]:
    """pytest on ``node_ids`` with ``src`` alone on the path: (exit status or None on timeout, output)."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=_cap_memory
        )
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
