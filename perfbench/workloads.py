"""The benchmark's workloads: seeded case lists, one operation each, and the
check every output must pass.

Case lists are plain data drawn from ``--seed``; only ``prepare`` turns
them into ``gpcoh`` objects, so the program receives nothing but the
generated inputs. ``lr_products`` draws one case from each consecutive bin
of a cost-ordered pool (see ``make_data.py``), which keeps the cost profile
of every seed the same. ``koszul_chase`` runs its whole pool, in an order
drawn from the seed: the chase gets some generated cases wrong, and only a
case list that holds each of them for every seed fails the same number of
operations on every run.

``pass_s`` is the wall time of one pass over a case list on the reference
host (2 cores, Python 3.11.7); ``run.py`` sizes a run from it.

``check`` returns None when an output is right and the reason when it is
not. ``pinned`` says whether a case has a known answer (a committed
digest, an identity, a fixed value of the paper): a failure there is a
regression and makes the run incorrect. Generated Koszul cases are checked
against oracles instead and are not pinned: a wrong answer there is the
open chase defect, and it counts as a failed operation.
"""

from __future__ import annotations

import functools
import importlib
import json
import random
from pathlib import Path
from types import SimpleNamespace

import oracles

DATA = Path(__file__).resolve().parent / "data"

BWB_SPACES = (
    ("E", 6, (2,)),
    ("E", 7, (7,)),
    ("E", 8, (1,)),
    ("F", 4, (4,)),
    ("G", 2, (1,)),
    ("B", 7, (3,)),
    ("D", 8, (5,)),
)
LR_ANCHOR = ((4, 3, 2, 1), (4, 3, 2, 1), 8)
# the three Cayley chases on Gr(4,7): section L3 U*, twist -> H^*(F|_S)
CAYLEY_CHASES = (("O", {0: 1}), ("L3 U*", {0: 34}), ("T", {0: 48}))


LAYERS = ("root_system", "bott", "schur", "koszul", "scenarios")


def gpcoh_namespace() -> SimpleNamespace:
    """The engine modules as currently importable, one attribute per layer."""
    return SimpleNamespace(**{m: importlib.import_module(f"gpcoh.{m}") for m in LAYERS})


def _load(name: str) -> dict:
    return json.loads((DATA / name).read_text())


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def stratified(pool: list, rng: random.Random, per_bin: int) -> list:
    """One draw from each consecutive bin of a cost-ordered pool."""
    return [rng.choice(pool[i : i + per_bin]) for i in range(0, len(pool), per_bin)]


def section_rank(atoms, k: int) -> int:
    """Rank of a sum of U*, L(k-1) U* (both rank k) and line bundles O(d)."""
    return sum(1 if atom.startswith("O") else k for atom in atoms)


def koszul_inputs(g, spec) -> tuple:
    k, n, atoms, twist = spec[:4]
    kn = (k, n)
    schur = g.schur
    pairs = [p for atom in atoms for p in schur.parse_bundle(kn, atom).summands]
    section = schur.BundleSum.from_pairs(kn, pairs)
    space = g.bott.ParabolicSpace(g.root_system.build_root_system("A", n - 1), frozenset({k}))
    return space, section, schur.parse_bundle(kn, twist)


class KoszulChase:
    name = "koszul_chase"
    pass_s = 10.0
    why = (
        "the paper's flagship computation: Koszul assembly made of many small column LR "
        "products, then short type-A Borel-Weil-Bott walks and the chase"
    )
    spans = (
        "koszul.build_koszul", "koszul.chase", "schur.exterior_power_sum", "schur.tensor",
        "schur.lr_coefficients", "schur.sum_to_weights", "bott.bundle_cohomology", "bott.bwb",
        "root_system.dominantize", "root_system.weyl_dimension",
    )

    def cases(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        picks = _load("koszul_pool.json")["cases"]
        picks += [[4, 7, ["L3 U*"], twist, expect] for twist, expect in CAYLEY_CHASES]
        rng.shuffle(picks)
        return picks

    def prepare(self, g, spec):
        return koszul_inputs(g, spec)

    def op(self, g, prepared):
        space, section, twist = prepared
        return g.koszul.chase(g.koszul.build_koszul(space, section, twist))

    def pinned(self, spec) -> bool:
        return len(spec) > 4

    def warmup(self, cases: list) -> list:
        return [c for c in cases if self.pinned(c)]

    def check(self, spec, result) -> str | None:
        k, n, atoms, twist = spec[:4]
        where = f"Gr({k},{n}) section {'+'.join(atoms)} twist {twist}"
        if self.pinned(spec):
            dims = result.table.dims() if result.determined else None
            return None if dims == spec[4] else f"Cayley chase, twist {twist}: {dims}"
        if not result.determined:
            return None
        dims = {q: v for q, v in result.table.dims().items() if v}
        dim_s = k * (n - k) - section_rank(atoms, k)
        if any(q > dim_s for q in dims):
            return f"{where}: cohomology {dims} above dim S = {dim_s}"
        alpha = oracles.twist_alpha(twist, k)
        if alpha is not None and set(atoms) == {"U*"}:
            expected = oracles.grassmannian_bott(alpha, n - len(atoms))
            if dims != expected:
                return f"{where}: chase {dims}, BWB on Gr({k},{n - len(atoms)}) {expected}"
        return None


class LRProducts:
    name = "lr_products"
    pass_s = 1.7
    why = (
        "the schur layer used differently: few deep LR tableau searches with large outputs, "
        "partitions of 6-11 boxes on 5-9 rows"
    )
    spans = ("schur.lr_coefficients",)

    def cases(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        pool = _load("lr_pool.json")
        picks = stratified(pool["cases"], rng, per_bin=2) + [pool["anchor"]]
        rng.shuffle(picks)
        return picks

    def prepare(self, g, spec):
        mu, nu, rows = spec[:3]
        return g.schur.Partition(tuple(mu)), g.schur.Partition(tuple(nu)), rows

    def op(self, g, prepared):
        return g.schur.lr_coefficients(*prepared)

    def pinned(self, spec) -> bool:
        return True

    def warmup(self, cases: list) -> list:
        return [c for c in cases if (tuple(c[0]), tuple(c[1]), c[2]) == LR_ANCHOR]

    def check(self, spec, result) -> str | None:
        mu, nu, rows, want = spec
        table = [(lam.parts, c) for lam, c in result.items()]
        lhs = sum(c * oracles.gl_dimension(lam, rows) for lam, c in table)
        rhs = oracles.gl_dimension(mu, rows) * oracles.gl_dimension(nu, rows)
        if lhs != rhs:
            return f"{mu} x {nu} on {rows} rows: sum c*dim = {lhs}, dim(mu)*dim(nu) = {rhs}"
        if oracles.lr_digest(table) != want:
            return f"{mu} x {nu} on {rows} rows: table differs from the committed digest"
        return None


class BWBTables:
    name = "bwb_tables"
    pass_s = 0.85
    why = (
        "root_system and bott do all the work (long rho-shifted walks, Weyl products over up to "
        "120 roots) and schur and koszul none: the opposite of koszul_chase"
    )
    spans = ("bott.bundle_cohomology", "bott.bwb", "root_system.dominantize", "root_system.weyl_dimension")
    ops_per_space = 16
    summands = 64

    def cases(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        pool = _load("bwb_pool.json")["spaces"]
        picks = []
        for s, space in enumerate(pool):
            for _ in range(self.ops_per_space):
                chosen = rng.sample(range(len(space["weights"])), self.summands)
                picks.append([s, [[i, rng.randint(1, 3)] for i in chosen]])
        rng.shuffle(picks)
        return picks

    def prepare(self, g, spec):
        s, items = spec
        block = _bwb_spaces()[s]
        space = g.bott.ParabolicSpace(
            g.root_system.build_root_system(block["type"], block["rank"]), frozenset(block["crossed"])
        )
        Weight = g.root_system.Weight
        return space, [(Weight(tuple(block["weights"][i])), m) for i, m in items]

    def op(self, g, prepared):
        return g.bott.bundle_cohomology(*prepared)

    def pinned(self, spec) -> bool:
        return True

    def warmup(self, cases: list) -> list:
        return list({c[0]: c for c in cases}.values())  # one op per space

    def check(self, spec, result) -> str | None:
        s, items = spec
        results = _bwb_spaces()[s]["results"]
        totals: dict[int, int] = {}
        by_degree: dict[int, dict[tuple, int]] = {}
        for i, mult in items:
            if results[i] is None:
                continue
            degree, weight, dim = results[i]
            totals[degree] = totals.get(degree, 0) + mult * dim
            entry = by_degree.setdefault(degree, {})
            entry[tuple(weight)] = entry.get(tuple(weight), 0) + mult
        expected = (
            tuple(sorted(totals.items())),
            [(d, sorted(by_degree[d].items())) for d in sorted(by_degree)],
        )
        got = (
            result.total_dims,
            [(d, sorted((w.coeffs, m) for w, m in pairs)) for d, pairs in result.entries],
        )
        return None if got == expected else f"space {s}: table differs from the committed BWB results"


@functools.cache
def _bwb_spaces() -> list:
    return _load("bwb_pool.json")["spaces"]


def _report_values(doc: dict) -> dict:
    return {
        line["key"]: line["value"]
        for section in doc["result"]["sections"]
        for line in section["lines"]
    }


# key values of each report; facts of the paper or of the root systems
REPORT_FACTS = {
    "cayley": {
        "structure_sheaf_h0": 1, "normal_restricted_h0": 34, "tangent_restricted_h0": 48,
        "tangent_restricted_h1": 0, "h0_tangent_subvariety": 14, "h1_tangent_subvariety": 0,
    },
    "vmrt": {"dim_sl6_mod_sp6": 14, "dim_e6_mod_f4": 26},
    "theorem1": {"aut_dim_sl6_mod_sp6": 35, "aut_dim_e6_mod_f4": 78},
    "adjunction": {"ambient_canonical_twist": -7, "subvariety_dim": 8, "fano_index": 4},
}
E8_SPACE = 2  # index of E8/P1 in BWB_SPACES


class CliCold:
    name = "cli_cold"
    pass_s = 1.0
    why = (
        "fresh gpcoh processes: interpreter start, imports, load_scenario and report assembly "
        "dominate; the only workload that measures the cli and scenarios layers"
    )
    spans = (
        "cli.main", "scenarios.load_scenario", "scenarios.report", "koszul.build_koszul",
        "koszul.chase", "schur.exterior_power_sum", "schur.tensor", "schur.lr_coefficients",
        "schur.sum_to_weights", "bott.bundle_cohomology", "bott.bwb", "root_system.dominantize",
        "root_system.weyl_dimension",
    )

    def cases(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        weights = _bwb_spaces()[E8_SPACE]["weights"]
        i = rng.randrange(len(weights))
        picks = [["report", name] for name in REPORT_FACTS]
        picks.append(["koszul", "--scenario", "cayley", "--twist", "tangent"])
        picks.append(["bwb", "E", "8", "--crossed", "1", "--weight=" + ",".join(map(str, weights[i])), i])
        rng.shuffle(picks)
        return picks

    def prepare(self, g, spec):
        return ["--format", "json", *(a for a in spec if isinstance(a, str))]

    def pinned(self, spec) -> bool:
        return True

    def warmup(self, cases: list) -> list:
        return [c for c in cases if c == ["report", "cayley"]]

    def check(self, spec, result) -> str | None:
        code, stdout = result
        command = " ".join(a for a in spec if isinstance(a, str))
        if code != 0:
            return f"{command}: exit status {code}"
        doc = json.loads(stdout)
        if doc.get("failures"):
            return f"{command}: failures {doc['failures']}"
        if spec[0] == "report":
            values = _report_values(doc)
            wrong = {k: values.get(k) for k, v in REPORT_FACTS[spec[1]].items() if values.get(k) != v}
            return f"{command}: values {wrong}" if wrong else None
        res = doc["result"]
        if spec[0] == "koszul":
            ok = res.get("determined") is True and res["table"]["degrees"] == {"0": {"total": 48}}
            return None if ok else f"{command}: not H^0 = 48 alone"
        want = _bwb_spaces()[E8_SPACE]["results"][spec[-1]]
        got = None if res["outcome"] == "all_vanish" else [res["degree"], res["cohomology_weight"], res["dimension"]]
        return None if got == want else f"{command}: gave {got}, committed {want}"


WORKLOADS = {w.name: w for w in (KoszulChase(), LRProducts(), BWBTables(), CliCold())}
