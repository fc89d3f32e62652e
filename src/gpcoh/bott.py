"""Borel-Weil-Bott cohomology of irreducible equivariant bundles on G/P.

The single-bundle computation shifts the bundle weight by rho and
dominantizes: a singular shift kills all cohomology, a regular shift puts
everything in one degree (the Weyl length), with the group representation
read off from the dominant representative. Cohomology of the theorem lands
in the dual representation; results here always report the highest weight of
the cohomology itself, keeping the pre-dual weight as provenance.

Direct sums aggregate into :class:`CohomologyTable` objects, the common
output currency for the Koszul chase and the reports. Everything is pure and
immutable; summands of a sum may be evaluated in any order (accumulation is
commutative), so the tables are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .root_system import (
    ParabolicSpace,
    Weight,
    _coroot_pairing,
    dominantize,
    dual_weight,
    reflection_walk,
    weyl_dimension,
)

__all__ = [
    "ParabolicSpace",
    "BWBResult",
    "CohomologyTable",
    "bwb",
    "bundle_cohomology",
    "euler_characteristic",
    "canonical_twist_weight",
    "levi_dual_weight",
    "serre_dual_weight",
]


@dataclass(frozen=True)
class BWBResult:
    """Either total vanishing or a single nonzero cohomology degree.

    ``weight`` is the highest weight of the cohomology as a G-representation
    (already dualized); ``predual_weight`` records the dominant weight
    produced by the rho-shifted Weyl walk before dualization. The two have
    the same dimension.
    """

    all_vanish: bool
    degree: int | None = None
    weight: Weight | None = None
    dimension: int | None = None
    predual_weight: Weight | None = None

    @classmethod
    def vanishing(cls) -> "BWBResult":
        return cls(all_vanish=True)


@dataclass(frozen=True)
class CohomologyTable:
    """Map from cohomology degree to dimensions, with weight multiplicities.

    ``entries`` lists per degree the (dominant weight, multiplicity) pairs
    when the table came from Borel-Weil-Bott on a G-space; tables produced by
    a restriction chase carry dimensions only and have ``entries = None``.
    Absent degrees mean zero. Distinct weights are never collapsed, even when
    their dimensions coincide.
    """

    total_dims: tuple[tuple[int, int], ...]
    entries: tuple[tuple[int, tuple[tuple[Weight, int], ...]], ...] | None = None

    @classmethod
    def from_contributions(
        cls, contributions: Iterable[tuple[int, Weight, int, int]]
    ) -> "CohomologyTable":
        """Build from (degree, weight, multiplicity, dimension-per-copy) tuples."""
        by_degree: dict[int, dict[Weight, int]] = {}
        totals: dict[int, int] = {}
        for degree, weight, mult, dim in contributions:
            if mult <= 0:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            by_degree.setdefault(degree, {})
            by_degree[degree][weight] = by_degree[degree].get(weight, 0) + mult
            totals[degree] = totals.get(degree, 0) + mult * dim
        entries = tuple(
            (d, tuple(sorted(by_degree[d].items(), key=lambda kv: kv[0].coeffs)))
            for d in sorted(by_degree)
        )
        total_dims = tuple(sorted(totals.items()))
        return cls(total_dims=total_dims, entries=entries)

    @classmethod
    def from_dimensions(cls, dims: Mapping[int, int]) -> "CohomologyTable":
        cleaned = {int(d): int(v) for d, v in dims.items() if v}
        if any(v < 0 for v in cleaned.values()):
            raise ValueError("cohomology dimensions cannot be negative")
        return cls(total_dims=tuple(sorted(cleaned.items())), entries=None)

    def dims(self) -> dict[int, int]:
        return dict(self.total_dims)

    def total_dimension(self, degree: int) -> int:
        return dict(self.total_dims).get(degree, 0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.total_dims)

    @property
    def is_zero(self) -> bool:
        return not self.total_dims

    def weights_at(self, degree: int) -> tuple[tuple[Weight, int], ...]:
        if self.entries is None:
            raise ValueError("this table carries dimensions only")
        for d, pairs in self.entries:
            if d == degree:
                return pairs
        return ()


def bwb(space: ParabolicSpace, omega: Weight) -> BWBResult:
    """Cohomology of the irreducible equivariant bundle with weight ``omega``.

    ``omega`` must be P-dominant (nonnegative at every uncrossed node); the
    crossed-node coefficients are unrestricted.
    """
    space.check_p_dominant(omega)
    rs = space.rs
    res = dominantize(rs, omega + rs.rho)
    if res.is_singular:
        return BWBResult.vanishing()
    assert res.dominant_weight is not None and res.length is not None
    mu = res.dominant_weight - rs.rho
    degree = res.length
    if degree > space.dimension:
        raise AssertionError(
            f"cohomology degree {degree} exceeds dim {space} = {space.dimension}"
        )
    return BWBResult(
        all_vanish=False,
        degree=degree,
        weight=dual_weight(rs, mu),
        dimension=weyl_dimension(rs, mu),
        predual_weight=mu,
    )


def bundle_cohomology(
    space: ParabolicSpace, summands: Iterable[tuple[Weight, int]]
) -> CohomologyTable:
    """Union of bwb results over a direct sum, multiplicities accumulated."""
    contributions = []
    for omega, mult in summands:
        if mult <= 0:
            raise ValueError(f"multiplicity must be positive, got {mult}")
        res = bwb(space, omega)
        if res.all_vanish:
            continue
        assert res.degree is not None and res.weight is not None
        assert res.dimension is not None
        contributions.append((res.degree, res.weight, mult, res.dimension))
    return CohomologyTable.from_contributions(contributions)


def euler_characteristic(table: CohomologyTable) -> int:
    """Alternating sum of total dimensions over the degrees."""
    return sum((-1) ** d * t for d, t in table.total_dims)


def canonical_twist_weight(space: ParabolicSpace) -> Weight:
    """Weight of the canonical bundle of G/P: minus the sum of nilradical roots."""
    rs = space.rs
    total = [sum(coords) for coords in zip(*space.nilradical)]
    return Weight(tuple(-_coroot_pairing(rs.cartan, total, k) for k in range(rs.rank)))


def levi_dual_weight(space: ParabolicSpace, omega: Weight) -> Weight:
    """Highest weight of the dual irreducible P-representation.

    Computed as the Levi-dominant representative of ``-omega``: reflect at
    uncrossed nodes while a coefficient there is negative.
    """
    space.check_p_dominant(omega)
    return reflection_walk(space.rs, -omega, space.uncrossed)[0]


def serre_dual_weight(space: ParabolicSpace, omega: Weight) -> Weight:
    """Weight of the Serre-dual bundle E^* tensored with the canonical bundle."""
    return canonical_twist_weight(space) + levi_dual_weight(space, omega)
