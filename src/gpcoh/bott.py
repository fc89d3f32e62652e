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

    Total vanishing leaves every field None; otherwise ``degree`` is the
    nonzero degree, ``weight`` the highest weight of the cohomology as a
    G-representation (already dualized) and ``predual_weight`` the dominant
    weight produced by the rho-shifted Weyl walk before dualization. The two
    weights have the same dimension.
    """

    degree: int | None = None
    weight: Weight | None = None
    dimension: int | None = None
    predual_weight: Weight | None = None

    @property
    def all_vanish(self) -> bool:
        return self.degree is None


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
    def from_dimensions(cls, dims: Mapping[int, int]) -> "CohomologyTable":
        for d, v in dims.items():
            if type(d) is not int or type(v) is not int or v < 0:
                raise ValueError(f"H^{d!r} = {v!r}: need an int degree and an int dimension >= 0")
        return cls(total_dims=tuple(sorted((d, v) for d, v in dims.items() if v)), entries=None)

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
    found = dominantize(rs, omega + rs.rho)
    if found is None:
        return BWBResult()
    dominant, degree = found
    mu = dominant - rs.rho
    if degree > space.dimension:
        raise AssertionError(
            f"cohomology degree {degree} exceeds dim {space} = {space.dimension}"
        )
    return BWBResult(
        degree=degree,
        weight=dual_weight(rs, mu),
        dimension=weyl_dimension(rs, mu),
        predual_weight=mu,
    )


def bundle_cohomology(
    space: ParabolicSpace, summands: Iterable[tuple[Weight, int]]
) -> CohomologyTable:
    """Union of bwb results over a direct sum, multiplicities accumulated."""
    weights: dict[int, dict[Weight, int]] = {}
    totals: dict[int, int] = {}
    for omega, mult in summands:
        if type(mult) is not int or mult <= 0:  # a float or a bool is no multiplicity
            raise ValueError(f"multiplicity must be a positive int, got {mult!r}")
        res = bwb(space, omega)
        if res.all_vanish:
            continue
        at = weights.setdefault(res.degree, {})
        at[res.weight] = at.get(res.weight, 0) + mult
        totals[res.degree] = totals.get(res.degree, 0) + mult * res.dimension
    entries = tuple(
        (d, tuple(sorted(weights[d].items(), key=lambda kv: kv[0].coeffs))) for d in sorted(weights)
    )
    return CohomologyTable(total_dims=tuple(sorted(totals.items())), entries=entries)


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
