"""Koszul resolutions of zero loci, and one solver for the exact sequences on them.

A regular section of a bundle E on G/P resolves the structure sheaf of its
zero locus S by 0 -> Lambda^r E^* -> ... -> E^* -> O -> O_S -> 0. Twisting by
a bundle F and feeding each term through Borel-Weil-Bott gives a grid of
dimensions; the chase solves it for H^*(F|_S).

``solve_sequence`` serves every exact sequence on S: the Koszul resolution and
the normal sequence of the ``cayley`` report. It reads dimension tables, never
maps. Split 0 -> E_r -> ... -> E_0 into short exact sequences
0 -> A_{j+1} -> E_j -> A_j -> 0 with A_r = E_r. The unknowns are the ranks
rho(j, q) of H^q(A_{j+1}) -> H^q(E_j), one for each cell where both sides can
be nonzero; dim H^q(A_j) is the cokernel dim H^q(E_j) - rho(j, q) plus the
kernel dim H^{q+1}(A_{j+1}) - rho(j, q + 1), a constant minus a sum of distinct
ranks. The constraints: 0 <= rho <= dim H^q(E_j); every kernel >= 0; the
kernel in degree 0 is 0, as global sections are left exact (Weyman,
Cohomology of Vector Bundles and Syzygies, ch. 5); nothing above dim S; and a
provided value, a ``RankHint`` or a known dimension, is an equality. Each
constraint bounds the sum of one set of ranks, and the solver keeps one
interval per rank set, the intersection of every constraint that lands on it
(a kernel >= 0, left exactness, nothing above dim S, a provided dimension).
Integer bounds on the ranks tighten until nothing changes. Each tightening
shrinks a finite integer interval, so this ends, and the true ranks meet
every constraint, so no rank it pins can be wrong.

A chase is determined when every rank is pinned; each pinned rank between
nonzero groups is recorded as ``forced``, each hint as ``provided``. A chase
whose bounds stay open is blocked at each open rank. The solver checks every
hint's position and rank, and the Euler characteristic of every sequence it
closes, as one alternating sum over the solved end and the tables; ``chase``
only what needs its hint list or its space. A contradiction is found by one
check, on each rank set before it tightens: an empty interval, or a sum the
current bounds cannot reach, means the provided values contradict exactness, a
ValueError naming them; with nothing provided it is an engine fault, an
AssertionError. A rank set that passes it leaves every interval nonempty.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence

from .bott import CohomologyTable, ParabolicSpace, bundle_cohomology, check_dims
from .schur import BundleSum, dual_sum, exterior_power_sum, grassmannian_kn, sum_to_weights
from .schur import BundleLabel, tensor

__all__ = [
    "KoszulComplex",
    "RankHint",
    "UsedHint",
    "ChaseResult",
    "build_koszul",
    "chase",
    "solve_sequence",
]


class KoszulComplex(namedtuple("KoszulComplex", "ambient terms")):
    """Terms C_j = Lambda^j(E^*) (x) F for j = 0 up to rank E.

    ``ambient`` is the ``ParabolicSpace`` and ``terms[j]`` the ``BundleSum`` C_j, so
    ``terms[0]`` is C_0 = F and ``terms[-1]`` is the top term C_r. The expected
    codimension condition rank E <= dim G/P is enforced.
    """

    __slots__ = ()

    @property
    def section_rank(self) -> int:
        return len(self.terms) - 1

    def term(self, j: int) -> BundleSum:
        """C_j for 0 <= j <= rank E."""
        if not 0 <= j <= self.section_rank:
            raise ValueError(f"term index {j} out of range 0..{self.section_rank}")
        return self.terms[j]


RankHint = namedtuple("RankHint", "target_term degree rank")
RankHint.__doc__ = """Caller-supplied rank for the map H^degree(A) -> H^degree(C_target_term),
where A is the image sheaf coming from term target_term + 1; all three are ints."""


class UsedHint(namedtuple("UsedHint", "target_term degree rank origin")):
    """A rank the chase used, as in ``RankHint``, and its ``origin``: "forced" (pinned by the
    exactness constraints) or "provided"."""

    __slots__ = ()

    @property
    def assumed(self) -> bool:  # the one rule: a provided rank is assumed, a forced one computed
        return self.origin == "provided"

    def describe(self) -> str:
        return (
            f"H^{self.degree}(A_{self.target_term + 1}) -> "
            f"H^{self.degree}(C_{self.target_term}) rank {self.rank}"
        )


class ChaseResult(
    namedtuple("ChaseResult", "term_tables hints_used table blocking_positions", defaults=(None, ()))
):
    """A chase's first page and its outcome.

    ``term_tables[j]`` is H^*(C_j). ``grid`` lists them as ((term j, degree q), dim)
    cells, j from r down to 0 and q ascending. ``hints_used`` records, in that cell order,
    every provided hint and every pinned rank between nonzero groups. ``table`` is
    H^*(F|_S) when the chase is ``determined``; otherwise it is None and
    ``blocking_positions`` lists each rank whose bounds stay open.
    """

    __slots__ = ()

    @property
    def grid(self) -> tuple[tuple[tuple[int, int], int], ...]:
        return tuple(
            ((j, q), dim)
            for j in range(len(self.term_tables) - 1, -1, -1)
            for q, dim in self.term_tables[j].total_dims
        )

    @property
    def determined(self) -> bool:
        return self.table is not None


def build_koszul(ambient: ParabolicSpace, section: BundleSum, twist: BundleSum | None = None) -> KoszulComplex:
    """Assemble the Koszul complex of a section of E, twisted by F: one
    exterior-power fold of E^* gives every Lambda^j E^*, each tensored with F.
    ``ambient`` must be the Grassmannian the bundles live on."""
    grassmannian_kn(ambient, section.ambient)
    if twist is None:
        twist = BundleSum(section.ambient, [(BundleLabel(section.ambient), 1)])
    rank = section.rank()
    if rank < 1:
        raise ValueError("section bundle must have positive rank")
    if rank > ambient.dimension:
        raise ValueError(
            f"rank {rank} section bundle on a {ambient.dimension}-dimensional space "
            "violates the expected codimension condition"
        )
    powers = exterior_power_sum(dual_sum(section), rank)
    terms = tuple(tensor(power, twist) for power in powers)
    return KoszulComplex(ambient=ambient, terms=terms)


def solve_sequence(
    tables: Sequence[Mapping[int, int]], top: int, hints: Mapping = {}, values: Mapping = {}, kernel: bool = False
):
    """Bound the ranks of the exact sequence 0 -> E_r -> ... -> E_0 -> U -> 0, or with
    ``kernel`` of 0 -> U -> E_r -> ... -> E_0 -> 0, where ``tables[j]`` maps each degree q
    to dim H^q(E_j) and U has no cohomology above degree ``top``.

    ``hints[(j, q)]`` is the rank of H^q(A_{j+1}) -> H^q(E_j) and ``values[q]`` is
    dim H^q(U), each one more equality. Every constraint bounds the sum of a set of ranks, and
    the constraints on one set are kept as one interval, their intersection, so each sweep of
    the bounds-consistency fixpoint visits each set once. Returns the ranks as
    ((j, q), low, high, source) with j descending, then q ascending, where source is
    dim H^q(A_{j+1}) once pinned and None while open; then H^*(U) by degree, or None while a
    rank is open. Left exactness binds each A_j only for the resolution: with ``kernel`` the
    cones of the chase are complexes, and H^q(U) is the chased degree q - r. A table entry whose
    degree or dimension is not exactly an int >= 0, a hint whose key is not a tuple (j, q), a
    hint or a value with a position, rank, degree or dimension that is not exactly an int (a bool
    or a float included), a hint at no map (0 <= j < r, q >= 0) or of a rank outside
    0..dim H^q(E_j) is a ValueError naming it, before any propagation; a determined chi(U)
    other than (-1)^(r if ``kernel``) sum_j (-1)^j chi(E_j), checked as one alternating sum
    over U and the tables that must vanish, raises AssertionError.
    """
    r = len(tables) - 1
    for j, table in enumerate(tables):
        try:
            check_dims(table)
        except ValueError as exc:  # the prefix is formatted only for the table that fails
            raise ValueError(f"table {j}: {exc}") from None
    for key, rank in hints.items():
        if type(key) is not tuple or len(key) != 2:
            raise ValueError(f"hint key {key!r} of rank {rank!r} is not a pair (target_term, degree)")
        j, q = key
        hint = RankHint(j, q, rank)
        if any([type(field) is not int for field in hint]):
            raise ValueError(f"hint {hint!r} has a field that is not an int")
        if not (0 <= j < r and q >= 0):
            raise ValueError(f"malformed hint position: {hint!r} needs 0 <= target_term < {r} and degree >= 0")
        if rank < 0:
            raise ValueError(f"hint {hint!r}: rank must be nonnegative")
        if rank > (bound := tables[j].get(q, 0)):
            raise ValueError(f"hint {hint!r} exceeds the maximal possible rank {bound} = dim H^{q}(E_{j})")
    for q, v in values.items():
        if type(q) is not int or type(v) is not int:
            raise ValueError(f"value dim H^{q!r} = {v!r} of the unknown end: its degree and dimension must be ints")
    low: list[int] = []
    high: list[int] = []
    cells = []  # ((j, q), x, the form of H^q(A_{j+1})) for each rank rho[x]
    sets = {}  # xs -> (least, most): least <= the sum of rho[xs] <= most, every constraint on xs met
    # after s steps, forms[q + s] = (c, xs) holds dim H^q(A_j) = c - the sum of rho[xs]; a kernel
    # moves one degree down per step, so it keeps its key
    forms = {q: (d, ()) for q, d in tables[r].items()}
    for s, j in enumerate(range(r - 1, -1, -1)):
        below = tables[j]
        if below or hints:  # an acyclic term with no hint adds no rank
            cokernels = []
            for q in sorted(below.keys() | {q for i, q in hints if i == j}) if hints else below:
                c, xs = forms.get(q + s, (0, ()))
                rank = ()
                if (j, q) in hints or c or xs:
                    x = len(low)
                    fixed = hints.get((j, q))
                    low.append(0 if fixed is None else fixed)
                    high.append(below.get(q, 0) if fixed is None else fixed)
                    cells.append(((j, q), x, c, xs))
                    rank = (x,)
                    forms[q + s] = (c, xs + rank)  # the kernel in degree q, part of H^{q-1}(A_j)
                    sets[xs + rank] = (0, c)  # and never negative; no other set holds rho[x] yet
                if q in below:  # the cokernel in degree q, part of H^q(A_j)
                    cokernels.append((q + s + 1, below[q], rank))
            for key, d, rank in cokernels:
                c, xs = forms.get(key, (0, ()))
                forms[key] = (c + d, xs + rank)
        if s in forms and not kernel:  # left exactness: the kernel in degree 0 vanishes
            c, xs = forms.pop(s)
            _meet(sets, xs, c, c)
    shift = 0 if kernel else r  # H^q(U) is at key q + shift: a kernel's is the chased degree q - r
    for key, (c, xs) in forms.items():
        if key - shift > top:
            _meet(sets, xs, c, c)
    for q, v in values.items():
        c, xs = forms.get(q + shift, (0, ()))
        _meet(sets, xs, c - v, c - v)
    changed = bool(sets)
    while changed:
        changed = False
        for xs, (least, most) in sets.items():
            floor = ceiling = 0  # one loop, not two comprehensions: most sets hold one or two ranks
            for x in xs:
                floor += low[x]
                ceiling += high[x]
            # the one contradiction check: a sum the bounds cannot reach, or an empty interval
            if ceiling < least or floor > most or least > most:
                _contradiction(hints, values)
            for x in xs:
                lo = least - ceiling + high[x]
                hi = most - floor + low[x]
                if lo > low[x] or hi < high[x]:
                    low[x], high[x] = max(lo, low[x]), min(hi, high[x])
                    changed = True
    bounds = []
    for cell, x, c, xs in cells:
        source = c  # dim H^q(A_{j+1}) = c - the sum of rho[xs], once each of them is pinned
        for y in xs:
            if low[y] < high[y]:
                source = None
                break
            source -= low[y]
        bounds.append((cell, low[x], high[x], source))
    if low != high:
        return bounds, None
    dims = {key - shift: d for key, (c, xs) in forms.items() if (d := c - sum([low[x] for x in xs]))}
    # chi(U) = (-1)^(r if kernel) sum_j (-1)^j chi(E_j) as one alternating sum that vanishes: each
    # dimension is signed by the parity of its degree plus i, which is 0 for U and
    # j + 1 (+ r with kernel) for E_j
    ends = ((0, dims), *enumerate(tables, 1 + r * kernel))
    if sum([-d if (i + q) & 1 else d for i, table in ends for q, d in table.items()]):
        raise AssertionError("the Euler characteristic of the solved end disagrees with the alternating sum over the sequence")
    return bounds, dims


def _meet(sets: dict, xs: tuple, least: int, most: int) -> None:
    """Intersect the constraint least <= the sum of rho[xs] <= most with the one already on xs."""
    was_least, was_most = sets.get(xs, (least, most))
    sets[xs] = (max(least, was_least), min(most, was_most))


def _contradiction(hints: Mapping, values: Mapping):
    """Fail on a rank set the bounds cannot meet: the provided values contradict exactness, or with
    none provided the tables are not those of an exact sequence, an engine fault."""
    given = [repr(RankHint(j, q, rank)) for (j, q), rank in hints.items()]
    given += [f"dim H^{q} = {v} of the unknown end" for q, v in values.items()]
    if not given:
        raise AssertionError(
            "the tables admit no ranks of an exact sequence; with no value provided, the engine is at "
            "fault or the section is not regular"
        )
    raise ValueError("the provided values contradict exactness: " + ", ".join(given))


def chase(complex_: KoszulComplex, rank_hints: Iterable[RankHint] = ()) -> ChaseResult:
    """Solve the term tables of the resolution for H^*(F|_S) with ``solve_sequence``, which
    admits no cohomology above dim S = dim G/P - rank E and checks each hint's position and
    rank. A hint that is not a ``RankHint``, has a field that is not an int (a bool included),
    sits above degree dim G/P or repeats a position is rejected with ValueError here first.
    """
    space = complex_.ambient
    hints = {}
    for h in rank_hints:
        if not isinstance(h, RankHint):
            raise ValueError(f"a rank hint is a RankHint, got {type(h).__name__}")
        if any([type(field) is not int for field in h]):
            raise ValueError(f"hint {h} has a field that is not an int")
        if h.degree > space.dimension:
            raise ValueError(f"malformed hint position: degree {h.degree} not in 0..{space.dimension}")
        key = (h.target_term, h.degree)
        if key in hints:
            raise ValueError(f"duplicate hint for position {key}")
        hints[key] = h.rank
    tables = [bundle_cohomology(space, sum_to_weights(term, space)) for term in complex_.terms]
    bounds, dims = solve_sequence([t.dims() for t in tables], space.dimension - complex_.section_rank, hints)
    used = tuple([
        UsedHint(j, q, low, "provided" if (j, q) in hints else "forced")
        for (j, q), low, high, source in bounds
        if (j, q) in hints or (low == high and source)
    ])
    if dims is None:
        blocking = tuple(cell for cell, low, high, _ in bounds if low < high)
        return ChaseResult(tuple(tables), used, blocking_positions=blocking)
    return ChaseResult(tuple(tables), used, table=CohomologyTable.from_dimensions(dims))
