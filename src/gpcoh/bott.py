"""Borel-Weil-Bott cohomology of irreducible equivariant bundles on G/P.

The single-bundle computation shifts the bundle weight by rho and
dominantizes: a singular shift kills all cohomology, a regular shift puts
everything in one degree (the Weyl length), with the group representation
read off from the dominant representative. Cohomology of the theorem lands
in the dual representation; results here always report the highest weight of
the cohomology itself, keeping the pre-dual weight as provenance.

``bwb`` checks its weight once (type, rank, P-dominance) and derives the rest unchecked: rho is
all ones, so it shifts and unshifts the coefficients, a weight being the tuple of them, and
builds each weight from its list of ints with ``Weight._trusted``; each public ``root_system``
call it makes tests the type and the rank once more. A
rho-shift with a zero coefficient is on a wall: it vanishes with no walk, as the one shared
``BWBResult()``. ``bundle_cohomology`` reads ``bwb`` from this module once per call, so a
rebinding of it (a traced run) sees every summand.

Direct sums aggregate into :class:`CohomologyTable` objects, the common
output currency for the Koszul chase and the reports. Everything is pure and
immutable; summands of a sum may be evaluated in any order (accumulation is
commutative), so the tables are deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping

from .root_system import (
    ParabolicSpace,
    Weight,
    _check_positive,
    _coroot_pairing,
    dominantize,
    dual_weight,
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
]


class BWBResult(namedtuple("BWBResult", "degree weight dimension predual_weight", defaults=(None,) * 4)):
    """Either total vanishing or a single nonzero cohomology degree.

    Total vanishing leaves every field None; otherwise ``degree`` is the
    nonzero degree, ``dimension`` its dimension, ``weight`` the highest weight
    of the cohomology as a G-representation (already dualized) and
    ``predual_weight`` the dominant weight produced by the rho-shifted Weyl
    walk before dualization. The two weights have the same dimension.
    """

    __slots__ = ()

    @property
    def all_vanish(self) -> bool:
        return self.degree is None


_VANISHING = BWBResult()  # every vanishing result: a tuple of Nones, immutable


def check_dims(dims: Mapping[int, int], where: str = "") -> None:
    """The one rule for the entries of a cohomology table: each degree and each dimension is
    exactly an int >= 0, a bool or a float being neither. A ValueError names the first entry that
    breaks it, after ``where``."""
    for q, d in dims.items():
        if type(q) is not int or type(d) is not int or q < 0 or d < 0:
            raise ValueError(f"{where}H^{q!r} = {d!r}: need an int degree >= 0 and an int dimension >= 0")


class CohomologyTable(namedtuple("CohomologyTable", "total_dims entries", defaults=(None,))):
    """Map from cohomology degree to dimensions, with weight multiplicities.

    ``total_dims`` holds the (degree, dimension) pairs of the nonzero degrees in
    ascending order. ``entries`` lists per degree the (dominant weight,
    multiplicity) pairs when the table came from Borel-Weil-Bott on a G-space;
    tables produced by a restriction chase carry dimensions only and have
    ``entries = None``. Absent degrees mean zero. Distinct weights are never collapsed, even when
    their dimensions coincide.
    """

    __slots__ = ()

    @classmethod
    def from_dimensions(cls, dims: Mapping[int, int]) -> "CohomologyTable":
        check_dims(dims)
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


def bwb(space: ParabolicSpace, omega: Weight) -> BWBResult:
    """Cohomology of the irreducible equivariant bundle with weight ``omega``.

    ``omega`` must be P-dominant (nonnegative at every uncrossed node); the
    crossed-node coefficients are unrestricted.
    """
    space.check_p_dominant(omega)
    rs = space.rs
    # rho is all ones: shift and unshift on the checked coefficients
    found = dominantize(rs, Weight._trusted([c + 1 for c in omega]))
    if found is None:
        return _VANISHING
    dominant, degree = found
    if degree > len(space.nilradical):  # dim G/P, without a property call per summand
        raise AssertionError(
            f"cohomology degree {degree} exceeds dim {space} = {space.dimension}"
        )
    mu = Weight._trusted([c - 1 for c in dominant])
    return BWBResult(degree, dual_weight(rs, mu), weyl_dimension(rs, mu), mu)


def bundle_cohomology(
    space: ParabolicSpace, summands: Iterable[tuple[Weight, int]]
) -> CohomologyTable:
    """Union of bwb results over a direct sum, multiplicities accumulated."""
    weights: dict[int, dict[Weight, int]] = {}
    totals: dict[int, int] = {}
    bwb_ = bwb  # read from the module once per call, so a rebinding (a traced run) still applies
    for omega, mult in summands:
        if type(mult) is not int or mult <= 0:
            _check_positive(mult)
        degree, weight, dimension, _ = bwb_(space, omega)
        if degree is None:
            continue
        at = weights.setdefault(degree, {})
        at[weight] = at.get(weight, 0) + mult
        totals[degree] = totals.get(degree, 0) + mult * dimension
    # the weights of one space compare as their coefficients, and no two of one degree are equal
    entries = tuple((d, tuple(sorted(weights[d].items()))) for d in sorted(weights))
    return CohomologyTable(total_dims=tuple(sorted(totals.items())), entries=entries)


def euler_characteristic(table: CohomologyTable) -> int:
    """Alternating sum of total dimensions over the degrees."""
    return sum((-1) ** d * t for d, t in table.total_dims)


def canonical_twist_weight(space: ParabolicSpace) -> Weight:
    """Weight of the canonical bundle of G/P: minus the sum of nilradical roots."""
    rs = space.rs
    total = [sum(coords) for coords in zip(*space.nilradical)]
    return Weight(tuple(-_coroot_pairing(rs.cartan, total, k) for k in range(rs.rank)))
