"""Koszul resolutions of zero loci and the cohomology chase along them.

A regular section of a bundle E on G/P resolves the structure sheaf of its
zero locus S by 0 -> Lambda^r E^* -> ... -> E^* -> O -> O_S -> 0. Twisting by
a bundle F and feeding each term through Borel-Weil-Bott gives a grid of
dimensions; the chase peels the resolution into short exact sequences of
image sheaves and propagates dimensions down to H^*(F|_S).

The chase works on dimension tables, never on actual maps, so it takes the
rank of each induced map H^q(A_{j+1}) -> H^q(C_j) from one of two sources
and never guesses. A rank is forced: 0 when its source or target is zero,
and in degree 0 the whole of H^0(A_{j+1}), since global sections are left
exact (Weyman, Cohomology of Vector Bundles and Syzygies, ch. 5). Or it is
provided by the caller as a ``RankHint``; the scenario loader is the one
place that builds them from JSON. Every rank between nonzero groups is
recorded with its origin, and so is every provided hint the chase reaches.
A hint whose rank exceeds dim H^q(C_j) is rejected before the chase starts,
and a blocked chase lists the provided hints it never reached. A chase
blocks instead of answering: at every (j, q) of term j whose rank nothing
forces or provides; at (j, 0) when H^0(A_{j+1}) cannot inject into
H^0(C_j); and at (0, q) for each degree q above dim S = dim G/P - rank E,
which no sheaf on S can have, where a wrong provided rank shows. No rank
exceeds its source or its target, so no dimension downstream turns negative.

The peel visits, for each term, only the cells that can carry a rank: the
degrees where both H^q(A_{j+1}) and H^q(C_j) are nonzero, and the cells with
a provided hint. The next image sheaf's dimensions come from the degrees of
C_j and of A_{j+1} shifted down by one.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .bott import (
    CohomologyTable,
    ParabolicSpace,
    bundle_cohomology,
    euler_characteristic,
)
from .schur import BundleSum, dual_sum, exterior_power_sum, grassmannian_kn, sum_to_weights
from .schur import BundleLabel, tensor

__all__ = [
    "KoszulComplex",
    "RankHint",
    "UsedHint",
    "ChaseResult",
    "build_koszul",
    "chase",
    "restriction_sequence",
]


class KoszulComplex(NamedTuple):
    """Terms C_j = Lambda^j(E^*) (x) F for j = 0 up to rank E.

    ``terms[j]`` is C_j, so ``terms[0]`` is C_0 = F and ``terms[-1]`` is the
    top term C_r. The expected codimension condition rank E <= dim G/P is
    enforced.
    """

    ambient: ParabolicSpace
    section_bundle: BundleSum
    twist: BundleSum
    terms: tuple[BundleSum, ...]

    @property
    def section_rank(self) -> int:
        return len(self.terms) - 1

    def term(self, j: int) -> BundleSum:
        """C_j for 0 <= j <= rank E."""
        if not 0 <= j <= self.section_rank:
            raise ValueError(f"term index {j} out of range 0..{self.section_rank}")
        return self.terms[j]


class RankHint(NamedTuple):
    """Caller-supplied rank for the map H^degree(A) -> H^degree(C_target_term),
    where A is the image sheaf coming from term target_term + 1."""

    target_term: int
    degree: int
    rank: int


class UsedHint(NamedTuple):
    target_term: int
    degree: int
    rank: int
    origin: str  # "forced" (left exactness in degree 0) | "provided"

    @property
    def assumed(self) -> bool:  # the one rule: a provided rank is assumed, a forced one computed
        return self.origin == "provided"

    def describe(self) -> str:
        return (
            f"H^{self.degree}(C_{self.target_term + 1}) -> "
            f"H^{self.degree}(C_{self.target_term}) rank {self.rank} [{self.origin}]"
        )


class ChaseResult(NamedTuple):
    """A chase's first page and its outcome.

    ``term_tables[j]`` is H^*(C_j). ``grid`` lists them as ((term j, degree q), dim)
    cells, j from r down to 0 and q ascending. ``hints_used`` records every rank forced
    or provided between nonzero groups, and every provided hint reached. ``table`` is
    H^*(F|_S) when the chase is ``determined``; otherwise it is None,
    ``blocking_positions`` says where the chase stopped, and ``hints_unreached``
    holds the provided hints at terms below that point.
    """

    term_tables: tuple[CohomologyTable, ...]
    hints_used: tuple[UsedHint, ...]
    hints_unreached: tuple[RankHint, ...] = ()
    table: CohomologyTable | None = None
    blocking_positions: tuple[tuple[int, int], ...] = ()

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
        twist = BundleSum.of(BundleLabel(section.ambient))
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
    return KoszulComplex(ambient=ambient, section_bundle=section, twist=twist, terms=terms)


def chase(complex_: KoszulComplex, rank_hints: Iterable[RankHint] = ()) -> ChaseResult:
    """Propagate the term tables down the resolution to H^*(F|_S).

    Peels the exact complex into short exact sequences
    0 -> A_{j+1} -> C_j -> A_j -> 0 with A_j the image sheaves, A_r = C_r and
    A_0 = F|_S. A visited cell takes its provided rank, else in degree 0 the
    forced rank dim H^0(A_{j+1}); any other cell blocks at (j, q), and the
    chase stops after term j with every such cell listed. A hint that is not
    a ``RankHint`` is rejected with ValueError. An output with cohomology
    above dim S is blocked at (0, q) instead of returned.
    """
    space = complex_.ambient
    r = complex_.section_rank
    max_degree = space.dimension
    tables = [bundle_cohomology(space, sum_to_weights(term, space)) for term in complex_.terms]
    hints = {}
    for h in rank_hints:
        if not isinstance(h, RankHint):
            raise ValueError(f"a rank hint is a RankHint, got {type(h).__name__}")
        if not 0 <= h.target_term < r:
            raise ValueError(
                f"malformed hint position: target_term {h.target_term} not in 0..{r - 1}"
            )
        if h.degree < 0 or h.degree > max_degree:
            raise ValueError(
                f"malformed hint position: degree {h.degree} not in 0..{max_degree}"
            )
        if h.rank < 0:
            raise ValueError(f"hint rank must be nonnegative, got {h.rank}")
        bound = tables[h.target_term].total_dimension(h.degree)
        if h.rank > bound:
            raise ValueError(
                f"hint {h} exceeds the maximal possible rank {bound} = "
                f"dim H^{h.degree}(C_{h.target_term})"
            )
        key = (h.target_term, h.degree)
        if key in hints:
            raise ValueError(f"duplicate hint for position {key}")
        hints[key] = h.rank
    used: list[UsedHint] = []
    current = tables[r].dims()  # dims of A_r = C_r
    for j in range(r - 1, -1, -1):
        below = tables[j].dims()
        # a rank needs a nonzero source and target, or a provided hint; every other cell is 0
        cells = current.keys() & below.keys()
        if hints:
            cells |= {q for i, q in hints if i == j}
        rho: dict[int, int] = {}
        blocking = []
        for q in sorted(cells):
            cap = min(current.get(q, 0), below.get(q, 0))
            provided = hints.pop((j, q), None)
            if provided is not None:
                if provided > cap:
                    raise ValueError(
                        f"hint rank {provided} at term {j} degree {q} exceeds the "
                        f"maximal possible rank {cap}"
                    )
                rho[q] = provided
                used.append(UsedHint(j, q, provided, "provided"))
            elif q:
                blocking.append((j, q))  # a rank between nonzero groups that nothing forces
            elif current[0] <= below[0]:  # left exactness: H^0(A_{j+1}) injects into H^0(C_j)
                rho[0] = current[0]
                used.append(UsedHint(j, 0, current[0], "forced"))
        if rho.get(0, 0) < current.get(0, 0):  # H^0(A_{j+1}) does not inject into H^0(C_j)
            blocking.insert(0, (j, 0))
        if blocking:
            break
        # H^q(A_j) = coker in degree q + ker in degree q + 1, never negative as rho <= cap;
        # the kernel in degree 0 is empty once the check above passed
        dims = {q: v - rho.get(q, 0) for q, v in below.items()}
        for q, v in current.items():
            if q:
                dims[q - 1] = dims.get(q - 1, 0) + v - rho.get(q, 0)
        current = {q: dims[q] for q in sorted(dims) if dims[q]}
    else:
        # no sheaf on S has cohomology above dim S = dim G/P - rank E
        blocking = [(0, q) for q in current if q > max_degree - r]

    page = dict(
        term_tables=tuple(tables),
        hints_used=tuple(used),
        hints_unreached=tuple(RankHint(j, q, rank) for (j, q), rank in hints.items()),
    )
    if blocking:
        return ChaseResult(**page, blocking_positions=tuple(blocking))
    table = CohomologyTable.from_dimensions(current)
    expected = sum(
        (-1) ** j * euler_characteristic(tables[j]) for j in range(r + 1)
    )
    if euler_characteristic(table) != expected:
        raise AssertionError(
            "Euler characteristic of the chase output disagrees with the "
            "alternating sum over the resolution"
        )
    return ChaseResult(**page, table=table)


def restriction_sequence(
    h0_sub: int, ambient_table: CohomologyTable, normal_table: CohomologyTable
) -> tuple[int, int]:
    """Four-term exact-sequence arithmetic for the tangent bundle of a zero locus.

    From 0 -> T_S -> T_amb|_S -> N|_S -> 0 with the ambient restricted tangent
    cohomology vanishing above degree zero:

        0 -> H^0(T_S) -> H^0(T_amb|_S) -> H^0(N|_S) -> H^1(T_S) -> 0.

    ``h0_sub`` is H^0(T_S), supplied externally; returns (h0, h1).
    """
    if h0_sub < 0:
        raise ValueError("h0_sub must be nonnegative")
    amb = ambient_table.dims()
    nor = normal_table.dims()
    high_amb = {d: v for d, v in amb.items() if d >= 1 and v}
    if high_amb:
        raise ValueError(
            "restriction sequence needs the ambient tangent cohomology to vanish "
            f"in positive degrees, got {high_amb}"
        )
    high_nor = {d: v for d, v in nor.items() if d >= 2 and v}
    if high_nor:
        raise ValueError(
            f"restriction sequence needs the normal cohomology to vanish in degrees >= 2, got {high_nor}"
        )
    amb0 = amb.get(0, 0)
    nor0 = nor.get(0, 0)
    if h0_sub > amb0:
        raise ValueError(
            f"inconsistent inputs: h0 = {h0_sub} cannot inject into an ambient "
            f"H^0 of dimension {amb0}"
        )
    h1 = nor0 - amb0 + h0_sub
    if h1 < 0:
        raise ValueError(
            f"inconsistent inputs: the exact sequence forces h1 = {h1} < 0"
        )
    return (h0_sub, h1)
