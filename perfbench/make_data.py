"""Regenerate the committed case pools under ``data/``.

Usage: ``python3 perfbench/make_data.py`` from the repository root.

Every pool is drawn from a fixed pool seed. The LR pool is then sorted by
the host-normalized cost of one operation, measured here (best of three). An
``lr_products`` run's ``--seed`` takes one case from each consecutive bin of
that order, so every seed gets the same cost profile and figures from
different seeds stay comparable; ``koszul_chase`` runs its whole pool, in
an order drawn from the seed. The LR digests and Borel-Weil-Bott results
stored here are what the benchmark checks outputs against; regenerate them
only from a commit whose outputs have been verified. Sorting depends on
timings, so a regenerated pool differs from the committed one and rebases
every reported number.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gpcoh.bott import ParabolicSpace, bwb  # noqa: E402
from gpcoh.root_system import Weight, build_root_system  # noqa: E402
from gpcoh.schur import lr_coefficients  # noqa: E402

import oracles  # noqa: E402
from kernel import time_kernel  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 20190515


def _cost(fn) -> float:
    """Best of three runs, each relative to a reference-kernel run just
    before it, so that drift in host speed does not scramble the order."""
    best = float("inf")
    for _ in range(3):
        k = time_kernel()
        t0 = perf_counter()
        fn()
        best = min(best, (perf_counter() - t0) * 1000.0 / k)
    return best


def _partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for p in range(min(n, cap), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def lr_pool(rng: random.Random, size: int = 600) -> dict:
    seen = set()
    while len(seen) < size:
        rows = rng.randint(5, 9)
        mu, nu = (
            rng.choice([p for p in _partitions(rng.randint(6, 11)) if len(p) <= rows])
            for _ in range(2)
        )
        seen.add((mu, nu, rows))
    cases = []
    for mu, nu, rows in sorted(seen):
        table = lr_coefficients(mu, nu, rows)
        cost = _cost(lambda: lr_coefficients(mu, nu, rows))
        cases.append((cost, [list(mu), list(nu), rows, oracles.lr_digest((lam.parts, c) for lam, c in table.items())]))
    anchor = workloads.LR_ANCHOR
    table = lr_coefficients(anchor[0], anchor[1], anchor[2])
    return {
        "anchor": [list(anchor[0]), list(anchor[1]), anchor[2], oracles.lr_digest((lam.parts, c) for lam, c in table.items())],
        "cases": [spec for _, spec in sorted(cases, key=lambda cs: cs[0])],
    }


def _koszul_case(rng: random.Random) -> tuple:
    while True:
        n = rng.randint(3, 10)
        k = rng.randint(1, n - 1)
        if rng.random() < 0.5:
            # U*^m cuts out Gr(k, n - m): the oracle-checked family
            top = min(n - k - 1, 6 // k)
            if top < 1:
                continue
            atoms = ["U*"] * rng.randint(1, top)
        else:
            choices = ["U*", "O(1)", "O(2)"] + ([f"L{k - 1} U*"] if k >= 3 else [])
            target = rng.randint(2, 6)
            atoms, rank = [], 0
            while True:
                atom = rng.choice(choices)
                step = 1 if atom.startswith("O") else k
                if rank + step > target:
                    break
                atoms.append(atom)
                rank += step
            if not atoms:
                continue
        if workloads.section_rank(atoms, k) >= k * (n - k):
            continue
        kind = rng.choice("OLT")
        t = rng.randint(-4, 3)
        if kind == "T":
            twist = "T"
        elif kind == "L" and k > 1:
            twist = f"L{rng.randint(1, k - 1)} U({t})"
        else:
            twist = f"O({t})"
        return (k, n, tuple(sorted(atoms)), twist)


def koszul_pool(rng: random.Random, size: int = 1500) -> dict:
    seen = set()
    while len(seen) < size:
        seen.add(_koszul_case(rng))
    return {"cases": [[k, n, list(atoms), twist] for k, n, atoms, twist in sorted(seen)]}


def bwb_pool(rng: random.Random, per_space: int = 96, width: int = 40) -> dict:
    spaces = []
    for letter, rank, crossed in workloads.BWB_SPACES:
        space = ParabolicSpace(build_root_system(letter, rank), frozenset(crossed))
        weights, results = [], []
        for _ in range(per_space):
            coeffs = [
                rng.randint(-width, width) if i + 1 in crossed else rng.randint(0, 2)
                for i in range(rank)
            ]
            res = bwb(space, Weight(tuple(coeffs)))
            weights.append(coeffs)
            results.append(None if res.all_vanish else [res.degree, list(res.weight.coeffs), res.dimension])
        spaces.append({"type": letter, "rank": rank, "crossed": list(crossed), "weights": weights, "results": results})
    return {"width": width, "spaces": spaces}


def _write(name: str, data: dict) -> None:
    # one pool entry per line keeps diffs of regenerated pools readable
    lines = []
    for key, value in data.items():
        if isinstance(value, list) and len(value) > 4:
            body = ",\n".join(json.dumps(v, separators=(",", ":")) for v in value)
            lines.append(f'"{key}": [\n{body}\n]')
        else:
            lines.append(f'"{key}": {json.dumps(value, separators=(",", ":"))}')
    (HERE / "data" / name).write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> None:
    (HERE / "data").mkdir(exist_ok=True)
    rng = random.Random(POOL_SEED)
    _write("lr_pool.json", lr_pool(rng))
    _write("koszul_pool.json", koszul_pool(rng))
    _write("bwb_pool.json", bwb_pool(rng))


if __name__ == "__main__":
    main()
