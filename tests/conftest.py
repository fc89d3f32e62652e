"""Shared independent oracles for the test suite.

These deliberately avoid the package's own code paths: dimensions come from
brute-force semistandard tableau enumeration (on many rows, from the
hook-content formula) and A-type roots from their interval description, so
the main engines are checked against something that cannot share their bugs.
The positive roots of every type also come from the reflection closure of
the simple roots, with no root strings or heights. The reflection walk is
checked against the engine's earlier one, which rescans the nodes in order
and subtracts whole Cartan rows.
Littlewood-Richardson coefficients come from listing every candidate shape
and backtracking over the fillings of each, cell by cell, a search unrelated
to the engine's strip pass. Weyl products pair each root's coordinates with
the weight directly, without the engine's root chain or stored denominator.
Schur functors of the dual generators U* and Q* apply the reversed-complement
rule with its determinant twist directly, without the engine's
``dual_label``. Bundles on Gr(k, n) are also compared by their formal
characters on the maximal torus of SL(n): Schur polynomials from enumerated
tableaux, and exterior powers from the subsets of a weight multiset, with no
use of the label calculus. The chase's solver is checked against the peel of
rule (a), a loop that visits every degree of every term and takes each rank
forced in degree 0 or provided, else blocks: wherever the peel answers, the
solver must give the same answer. Dominance tests, Levi roots, the Levi and
Serre duals of a weight and the weights of a cohomology degree, which only
tests read, are small functions here too.

Tests that edit a shipped scenario file start from ``shipped_scenario``, a fresh copy of its
JSON object read straight from the source tree. Every test that starts a fresh ``gpcoh`` process
does so through ``run_python``, which runs the package this suite imports: the checkout's ``src``,
or the mutation gate's copy of it.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import prod
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
KOSZUL_POOL = ROOT / "perfbench" / "data" / "koszul_pool.json"
SCENARIO_DATA = ROOT / "src" / "gpcoh" / "data"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process run from the repository root, with its text output
    captured, bounded by 10 s. As in the suite, every warning is an error there, and the process
    runs in development mode when the suite does. ``PYTHONPATH`` is the directory that holds the
    ``gpcoh`` package this suite imports; ``find_spec`` locates it without running it."""
    package = Path(importlib.util.find_spec("gpcoh").origin).parent
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    flags = ["-W", "error", *(["-X", "dev"] if sys.flags.dev_mode else [])]
    return subprocess.run(
        [sys.executable, *flags, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
    )


def shipped_scenario(report: str) -> dict:
    """A fresh copy of the JSON object of the scenario file shipped for ``report``."""
    return json.loads((SCENARIO_DATA / f"{report}.json").read_text())


def koszul_pool_sample(seed: int, size: int) -> list:
    """A seeded sample of the benchmark's Koszul cases, each [k, n, section atoms, twist]."""
    return random.Random(seed).sample(json.loads(KOSZUL_POOL.read_text())["cases"], size)


# every simple type up to rank 8 that the engine builds, E, F and G included
ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@lru_cache(maxsize=None)
def ssyt_contents(shape: tuple[int, ...], max_entry: int) -> tuple[tuple[int, ...], ...]:
    """Content of every semistandard Young tableau of the given shape with
    entries in 1..max_entry (how many entries equal 1, 2, ...), one vector per
    tableau, enumerated by direct backtracking."""
    shape = tuple(p for p in shape if p)
    if len(shape) > max_entry:
        return ()
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    values: dict[tuple[int, int], int] = {}
    content = [0] * max_entry
    out = []

    def place(idx: int) -> None:
        if idx == len(cells):
            out.append(tuple(content))
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, values[(r, c - 1)])  # rows weakly increase
        if r > 0:
            lo = max(lo, values[(r - 1, c)] + 1)  # columns strictly increase
        for v in range(lo, max_entry + 1):
            values[(r, c)] = v
            content[v - 1] += 1
            place(idx + 1)
            content[v - 1] -= 1
        values.pop((r, c), None)

    place(0)
    return tuple(out)


def ssyt_count(shape: tuple[int, ...], max_entry: int) -> int:
    """Number of semistandard Young tableaux of the given shape with entries
    in 1..max_entry."""
    return len(ssyt_contents(tuple(shape), max_entry))


def _mod_diagonal(v: tuple[int, ...]) -> tuple[int, ...]:
    """Exponent vector modulo (1, ..., 1): a weight of the torus of SL(n)."""
    return tuple(c - v[-1] for c in v)


def torus_character(
    ambient: tuple[int, int], u: tuple[int, ...], q: tuple[int, ...], twist: int
) -> Counter:
    """Character of S_u(U) (x) S_q(Q) (x) O(twist) on Gr(k, n).

    U carries the torus weights x_1..x_k and Q the weights y_1..y_{n-k}, and
    O(1) = det U^*, so the character is s_u(x) s_q(y) (x_1...x_k)^(-twist).
    Exponent vectors are taken modulo (1, ..., 1), where det U (x) det Q = O.
    """
    k, n = ambient
    out: Counter = Counter()
    for cx in ssyt_contents(tuple(u), k):
        for cy in ssyt_contents(tuple(q), n - k):
            out[_mod_diagonal(tuple(c - twist for c in cx) + cy)] += 1
    return out


def exterior_character(n: int, weights: list[tuple[int, ...]], d: int) -> Counter:
    """Character of Lambda^d of a bundle whose torus weights, with repeats,
    are ``weights``: one weight per d-subset of the multiset."""
    out: Counter = Counter()
    for subset in combinations(weights, d):
        out[_mod_diagonal(tuple(map(sum, zip(*subset))) if subset else (0,) * n)] += 1
    return out


def section_atom_weights(ambient: tuple[int, int], atom: str) -> list[tuple[int, ...]]:
    """Torus weights of U*, L(k-1) U*, O(1) or O(2) on Gr(k, n), with repeats."""
    k, n = ambient
    u_dual = [tuple(-1 if i == j else 0 for i in range(n)) for j in range(k)]
    if atom == "U*":
        return u_dual
    if atom == f"L{k - 1} U*":
        return list(exterior_character(n, u_dual, k - 1).elements())
    degree = {"O(1)": 1, "O(2)": 2}[atom]
    return [tuple(-degree if i < k else 0 for i in range(n))]


def is_dominant(w) -> bool:
    """Every coefficient of the weight ``w`` is nonnegative."""
    return all(c >= 0 for c in w.coeffs)


def is_strictly_dominant(w) -> bool:
    """Every coefficient of the weight ``w`` is positive."""
    return all(c > 0 for c in w.coeffs)


def levi_roots(space) -> tuple[tuple[int, ...], ...]:
    """The positive roots of the Levi of ``space``: those whose support misses every crossed
    node, read off the coordinates rather than the engine's split by column."""
    return tuple(r for r in space.rs.positive_roots if not any(r[i - 1] for i in space.crossed))


def levi_dual_weight(space, omega):
    """Highest weight of the dual irreducible P-representation: the Levi-dominant
    representative of -omega, walked by the oracle at the uncrossed nodes."""
    return reflection_walk_oracle(space.rs, -omega, space.uncrossed)[0]


def serre_dual_weight(space, omega):
    """Weight of the Serre-dual bundle E^* tensored with the canonical bundle."""
    from gpcoh import canonical_twist_weight

    return canonical_twist_weight(space) + levi_dual_weight(space, omega)


def weights_at(table, degree: int) -> tuple:
    """The (weight, multiplicity) pairs a Borel-Weil-Bott table holds in ``degree``."""
    return dict(table.entries).get(degree, ())


def a_type_positive_roots(n: int) -> set[tuple[int, ...]]:
    """Positive roots of A_n in simple-root coordinates: interval indicators."""
    out = set()
    for i in range(n):
        for j in range(i, n):
            out.add(tuple(1 if i <= p <= j else 0 for p in range(n)))
    return out


def hook_content_dimension(parts, r: int) -> int:
    """dim S_lambda(C^r) by the hook-content formula: the product over the cells (i, j) of
    (r + j - i) / hook(i, j), with no root system."""
    cells = [(i, j) for i, p in enumerate(parts) for j in range(p)]
    num = prod(r + j - i for i, j in cells)
    den = prod(parts[i] - j + sum(1 for p in parts if p > j) - i - 1 for i, j in cells)
    assert num % den == 0
    return num // den


def positive_roots_oracle(
    cartan: tuple[tuple[int, ...], ...], rank: int
) -> tuple[tuple[int, ...], ...]:
    """Positive roots in graded lexicographic order: the closure of the simple
    roots under the simple reflections, keeping the nonnegative vectors."""
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen: set[tuple[int, ...]] = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(rank):
                p = sum(c * row[i] for c, row in zip(beta, cartan))  # <beta, alpha_i^vee>
                img = list(beta)
                img[i] -= p
                timg = tuple(img)
                if timg not in seen:
                    seen.add(timg)
                    nxt.append(timg)
        frontier = nxt
    positives = []
    for root in seen:
        if all(c >= 0 for c in root):
            positives.append(root)
        elif not all(c <= 0 for c in root):
            raise AssertionError(f"mixed-sign root generated: {root}")
    positives.sort(key=lambda c: (sum(c), c))
    return tuple(positives)


def reflection_walk_oracle(rs, w, nodes):
    """Reflect at the first node of ``nodes`` with a negative coefficient until none is left.

    The engine's earlier walk, kept as it was apart from building its result
    with ``type(w)``: each step rescans ``nodes`` in order and subtracts a whole
    Cartan row. Returns the final weight and the number of reflections.
    """
    coeffs = list(w.coeffs)
    bound = len(rs.positive_roots)
    length = 0
    while True:
        i = next((i - 1 for i in nodes if coeffs[i - 1] < 0), None)
        if i is None:
            return type(w)(tuple(coeffs)), length
        ci = coeffs[i]
        row = rs.cartan[i]
        for k in range(rs.rank):
            coeffs[k] -= ci * row[k]
        length += 1
        if length > bound:
            raise AssertionError("reflection walk exceeded the longest-element bound")


class Partition:
    """The few partition accessors the LR oracle reads; no package code."""

    def __init__(self, parts: tuple[int, ...]) -> None:
        self.parts = tuple(p for p in parts if p)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        return self.parts[i] if i < len(self.parts) else 0


def _candidate_shapes(mu: Partition, nu: Partition, max_rows: int) -> Iterator[Partition]:
    total = mu.size + nu.size
    cap_first = mu.part(0) + nu.part(0)

    def rec(prefix: list[int], remaining: int, row: int) -> Iterator[Partition]:
        if row == max_rows:
            if remaining == 0:
                yield Partition(tuple(prefix))
            return
        hi = min(prefix[-1] if prefix else cap_first, remaining)
        lo = mu.part(row)
        # rows below still need at least mu's parts
        needed_below = sum(mu.part(r) for r in range(row + 1, max_rows))
        for val in range(hi, lo - 1, -1):
            if remaining - val < needed_below:
                continue
            prefix.append(val)
            yield from rec(prefix, remaining - val, row + 1)
            prefix.pop()

    yield from rec([], total, 0)


def _count_lr_tableaux(lam: Partition, mu: Partition, nu: Partition) -> int:
    """LR skew tableaux of shape lam/mu and content nu.

    Cells are filled in reverse reading order (top row to bottom, right to
    left) so the lattice-word condition is a running check on value counts.
    """
    rows = lam.length
    cells = []
    for r in range(rows):
        for c in range(lam.part(r) - 1, mu.part(r) - 1, -1):
            cells.append((r, c))
    if len(cells) != nu.size:
        return 0
    nvals = nu.length
    counts = [0] * (nvals + 1)
    values: dict[tuple[int, int], int] = {}
    total = 0

    def place(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        right = values.get((r, c + 1))
        above = values.get((r - 1, c))
        for v in range(1, nvals + 1):
            if counts[v] >= nu.part(v - 1):
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice word
            if right is not None and v > right:
                continue  # rows weakly increase
            if above is not None and v <= above:
                continue  # columns strictly increase
            counts[v] += 1
            values[(r, c)] = v
            place(idx + 1)
            del values[(r, c)]
            counts[v] -= 1

    place(0)
    return total


def lr_tableau_oracle(
    mu: tuple[int, ...], nu: tuple[int, ...], rows: int
) -> dict[tuple[int, ...], int]:
    """Nonzero c^lam_{mu,nu} with at most ``rows`` rows, keyed by lam's parts."""
    mu, nu = Partition(mu), Partition(nu)
    if mu.length > rows or nu.length > rows:
        return {}
    out = {}
    for lam in _candidate_shapes(mu, nu, rows):
        count = _count_lr_tableaux(lam, mu, nu)
        if count:
            out[lam.parts] = count
    return out


def weyl_product_oracle(rs, weight, roots) -> int:
    """Product over ``roots`` of <weight + rho, alpha^vee> / <rho, alpha^vee>, exactly."""
    d = rs.symmetrizer
    num = 1
    den = 1
    for root in roots:
        num *= sum(c * (weight.coeffs[i] + 1) * d[i] for i, c in enumerate(root) if c)
        den *= sum(c * d[i] for i, c in enumerate(root) if c)
    value, remainder = divmod(num, den)
    if remainder:
        raise AssertionError("Weyl dimension product failed to be integral")
    return value


def _reversed_complement(parts: tuple[int, ...], rows: int) -> tuple[int, ...]:
    padded = tuple(parts) + (0,) * (rows - len(parts))
    first = padded[0] if padded else 0
    return tuple(first - padded[rows - 1 - i] for i in range(rows))


def _canonical(
    ambient: tuple[int, int], u: tuple[int, ...], q: tuple[int, ...], twist: int
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(u, q, twist) with full columns moved into the twist, zeros dropped."""
    k, n = ambient
    if len(u) == k and u[-1] > 0:
        c = u[-1]
        u, twist = tuple(p - c for p in u), twist - c  # det U = O(-1)
    if len(q) == n - k and q[-1] > 0:
        c = q[-1]
        q, twist = tuple(p - c for p in q), twist + c  # det Q = O(+1)
    return tuple(p for p in u if p), tuple(p for p in q if p), twist


def general_schur_oracle(
    ambient: tuple[int, int], gen: str, p: tuple[int, ...], twist: int
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """S_p(U*) or S_p(Q*) tensored with O(twist) on Gr(k, n), as canonical
    (u parts, q parts, twist)."""
    k, n = ambient
    m = n - k
    first = p[0] if p else 0
    if gen == "U*":
        # S_p(U^*) = S_rc(U) (x) (det U)^{-p_1} = S_rc(U) (x) O(+p_1)
        return _canonical(ambient, _reversed_complement(p, k), (), twist + first)
    # S_p(Q^*) = S_rc(Q) (x) (det Q)^{-p_1} = S_rc(Q) (x) O(-p_1)
    return _canonical(ambient, (), _reversed_complement(p, m), twist - first)


def dense_peel_oracle(term_tables, hints: dict, max_degree: int):
    """Rule (a), the chase's peel before the integer solver, over every cell: for each term
    j from r - 1 down to 0, every degree 0..max_degree + 1.

    ``term_tables[j]`` is H^*(C_j) (only its ``total_dims`` are read) and ``hints`` maps
    (j, q) to a provided rank. A cell takes its provided rank; else 0 when its source or
    target is zero; else in degree 0 the forced rank dim H^0(A_{j+1}) when it fits; any
    other cell blocks. Returns the dims of H^*(F|_S) or None, the blocking positions, the
    ranks used as (j, q, rank, origin) and the unreached hints as (j, q, rank). A provided
    rank above its cell's capacity raises ValueError.
    """
    hints = dict(hints)
    r = len(term_tables) - 1
    used = []
    current = dict(term_tables[r].total_dims)
    for j in range(r - 1, -1, -1):
        below = dict(term_tables[j].total_dims)
        rho = [0] * (max_degree + 2)
        blocking = []
        for q in range(max_degree + 2):
            source, target = current.get(q, 0), below.get(q, 0)
            provided = hints.pop((j, q), None)
            if provided is not None:
                if provided > min(source, target):
                    raise ValueError(
                        f"hint rank {provided} at term {j} degree {q} exceeds the "
                        f"maximal possible rank {min(source, target)}"
                    )
                rho[q] = provided
                used.append((j, q, provided, "provided"))
            elif not source or not target:
                pass  # rank 0 by force
            elif q > 0:
                blocking.append((j, q))
            elif source <= target:
                rho[0] = source
                used.append((j, 0, source, "forced"))
        if rho[0] < current.get(0, 0):
            blocking = [(j, 0)] + blocking
        if blocking:
            break
        current = {
            q: val
            for q in range(max_degree + 1)
            if (val := below.get(q, 0) - rho[q] + current.get(q + 1, 0) - rho[q + 1])
        }
    else:
        blocking = [(0, q) for q in current if q > max_degree - r]
    unreached = [(j, q, rank) for (j, q), rank in hints.items()]
    return (None if blocking else current), blocking, used, unreached
