"""Canonical labels and exact tensor calculus for bundles on Gr(k, n).

An irreducible equivariant bundle on the Grassmannian is written as
``S_mu(U) (x) S_nu(Q) (x) O(t)`` with U the rank-k tautological subbundle, Q
the rank-(n-k) quotient and O(1) = det U^*. Every label is canonical once
constructed: the ``BundleLabel`` constructor keeps both partitions strictly
shorter than the rank of their side by moving a full column on the U side,
det U = O(-1), into the twist (and symmetrically det Q = O(+1) on the
quotient side), so two labels are equal exactly when they name the same
bundle and nothing canonicalizes later. Duals never appear in stored labels:
``S_mu(W^*)`` is rewritten as the reversed-complement partition on W with a
determinant twist before anything else happens.

Tensor products distribute over direct sums and apply the
Littlewood-Richardson rule independently on the two sides, truncated to the
side's rank. The rule is evaluated in one pass that grows the LR tableaux a
value at a time, each value a horizontal strip, and merges tableaux that
agree on their shape and their last strip.

Exterior powers of a direct sum come from one fold over its summands that
keeps every degree at once. A line bundle L of multiplicity m folds in one
step as Lambda^d(L^m) = C(m, d) L^d; any other summand folds once per copy
and is restricted to the closed-form cases a Koszul complex of a column
bundle requires: powers of (possibly dual, possibly twisted) single
columns. General plethysm is out of scope and rejected.

Conversion to fundamental-weight coordinates sends a label to the highest
weight of the dual of its fiber, which is exactly the convention making
``O(1) -> omega_k`` and ``Lambda^j U^* -> omega_j``; with it the tangent
bundle U^* (x) Q of Gr(k, n) carries the weight omega_1 + omega_{n-1}.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import comb
from operator import add
from typing import Iterable, Iterator

from .root_system import ParabolicSpace, Weight, build_root_system, weyl_dimension

__all__ = [
    "Partition",
    "BundleLabel",
    "BundleSum",
    "lr_coefficients",
    "tensor",
    "exterior_power",
    "exterior_power_sum",
    "label_to_weight",
    "label_rank",
    "gl_dimension",
    "dual_label",
    "schur_label",
    "line_bundle",
    "generator_power",
    "tangent_label",
    "parse_bundle",
    "parse_partition",
    "format_label",
    "format_sum",
]


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing tuple of nonnegative integers, trailing zeros dropped."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        for p in parts:
            if type(p) is not int or p < 0:
                raise ValueError(f"partition parts must be nonnegative integers: {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """0-based row length, zero beyond the last row."""
        return self.parts[i] if i < len(self.parts) else 0

    def padded(self, rows: int) -> tuple[int, ...]:
        if len(self.parts) > rows:
            raise ValueError(f"partition {self.parts} has more than {rows} rows")
        return self.parts + (0,) * (rows - len(self.parts))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")" if self.parts else "()"


def _reversed_complement(p: Partition, rows: int) -> Partition:
    """Partition of the dual GL(rows)-representation, before the det twist."""
    padded = p.padded(rows)
    first = padded[0] if padded else 0
    return Partition(tuple(first - padded[rows - 1 - i] for i in range(rows)))


@dataclass(frozen=True)
class BundleLabel:
    """One irreducible bundle on Gr(k, n): partitions on U and Q plus a twist.

    Canonical once constructed: full columns move into the twist, so equal
    bundles are equal labels with equal hashes.
    """

    ambient: tuple[int, int]
    u_part: Partition = Partition()
    q_part: Partition = Partition()
    twist: int = 0

    def __post_init__(self) -> None:
        k, n = self.ambient
        u, q, t = self.u_part, self.q_part, self.twist
        if type(k) is not int or type(n) is not int or type(t) is not int:
            raise ValueError(f"ambient Gr({k!r},{n!r}) and twist {t!r} must be integers")
        if not 1 <= k < n:
            raise ValueError(f"ambient Gr({k},{n}) requires 1 <= k < n")
        if u.length > k:
            raise ValueError(f"u-side partition {u} exceeds rank {k}")
        if q.length > n - k:
            raise ValueError(f"q-side partition {q} exceeds rank {n - k}")
        if u.length == k:
            c = u.parts[-1]
            u, t = Partition(tuple(p - c for p in u.parts)), t - c  # det U = O(-1)
        if q.length == n - k:
            c = q.parts[-1]
            q, t = Partition(tuple(p - c for p in q.parts)), t + c  # det Q = O(+1)
        object.__setattr__(self, "ambient", (k, n))
        object.__setattr__(self, "u_part", u)
        object.__setattr__(self, "q_part", q)
        object.__setattr__(self, "twist", t)

    def sort_key(self) -> tuple:
        return (self.u_part.parts, self.q_part.parts, self.twist)

    def __str__(self) -> str:
        return format_label(self)


@dataclass(frozen=True)
class BundleSum:
    """Formal direct sum of canonical labels with positive multiplicities,
    equal labels merged and summands in ``sort_key`` order."""

    ambient: tuple[int, int]
    summands: tuple[tuple[BundleLabel, int], ...] = field(default=())

    @classmethod
    def from_pairs(
        cls, ambient: tuple[int, int], pairs: Iterable[tuple[BundleLabel, int]]
    ) -> "BundleSum":
        acc: dict[BundleLabel, int] = {}
        for label, mult in pairs:
            if label.ambient != tuple(ambient):
                raise ValueError(
                    f"label on Gr{label.ambient} cannot join a sum on Gr{tuple(ambient)}"
                )
            if type(mult) is not int or mult <= 0:  # a float or a bool is no multiplicity
                raise ValueError(f"multiplicity must be a positive int, got {mult!r}")
            acc[label] = acc.get(label, 0) + mult
        ordered = tuple(sorted(acc.items(), key=lambda kv: kv[0].sort_key()))
        return cls(ambient=tuple(ambient), summands=ordered)

    @classmethod
    def of(cls, label: BundleLabel, mult: int = 1) -> "BundleSum":
        return cls.from_pairs(label.ambient, [(label, mult)])

    @property
    def is_zero(self) -> bool:
        return not self.summands

    def rank(self) -> int:
        return sum(m * label_rank(lab) for lab, m in self.summands)

    def __str__(self) -> str:
        return format_sum(self)


# ---------------------------------------------------------------------------
# Littlewood-Richardson by a horizontal-strip pass


def _strips(
    shape: tuple[int, ...], size: int, prev: tuple[int, ...], room: int
) -> Iterator[tuple[int, ...]]:
    """Horizontal strips of ``size`` cells on ``shape``, as cells per row.

    Row r >= 1 takes at most shape[r-1] - shape[r] cells. The lattice-word
    rule bounds the strip's cells in rows <= r by ``prev``'s cells in rows < r,
    plus ``room``: 0 for a value after the first, ``size`` for the first.
    """
    strip = [0] * len(shape)

    def rec(r: int, remaining: int, room: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(strip)
            return
        if r == len(shape):
            return
        cap = remaining if r == 0 else shape[r - 1] - shape[r]
        for a in range(min(cap, remaining, room), -1, -1):
            strip[r] = a
            yield from rec(r + 1, remaining - a, room - a + prev[r])

    yield from rec(0, size, room)


def lr_coefficients(
    mu: Partition | Iterable[int], nu: Partition | Iterable[int], max_rows: int
) -> dict[Partition, int]:
    """All Littlewood-Richardson coefficients c^lam_{mu,nu} with at most
    ``max_rows`` rows; shapes needing more rows are discarded (GL truncation).

    LR tableaux of shape lam/mu and content nu are grown one value at a time:
    nu_1 ones, then nu_2 twos, and so on, each value a horizontal strip
    obeying the lattice-word rule. Tableaux with the same shape and the same
    last strip extend alike, so each such state carries only its count.
    """
    if max_rows < 1:
        raise ValueError(f"max_rows must be at least 1, got {max_rows}")
    mu = mu if isinstance(mu, Partition) else Partition(tuple(mu))
    nu = nu if isinstance(nu, Partition) else Partition(tuple(nu))
    if mu.length > max_rows or nu.length > max_rows:
        return {}
    if not mu.parts:
        return {nu: 1}  # c^lam_{(),nu} = delta_{lam,nu}
    # state (shape, previous strip) -> number of tableaux reaching it
    states = {(mu.padded(max_rows), (0,) * max_rows): 1}
    for value, size in enumerate(nu.parts):
        grown: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (shape, prev), count in states.items():
            for strip in _strips(shape, size, prev, size if value == 0 else 0):
                key = (tuple(map(add, shape, strip)), strip)
                grown[key] = grown.get(key, 0) + count
        states = grown
    totals: dict[tuple[int, ...], int] = {}
    for (shape, _), count in states.items():
        totals[shape] = totals.get(shape, 0) + count
    return {Partition(shape): totals[shape] for shape in sorted(totals, reverse=True)}


def gl_dimension(p: Partition | Iterable[int], r: int) -> int:
    """Dimension of the Schur functor S_p applied to a rank-r space."""
    p = p if isinstance(p, Partition) else Partition(tuple(p))
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if p.length > r:
        return 0
    if r <= 1 or p.size == 0:
        return 1
    rs = build_root_system("A", r - 1)
    padded = p.padded(r)
    coeffs = tuple(padded[i] - padded[i + 1] for i in range(r - 1))
    return weyl_dimension(rs, Weight(coeffs))


def label_rank(label: BundleLabel) -> int:
    k, n = label.ambient
    return gl_dimension(label.u_part, k) * gl_dimension(label.q_part, n - k)


# ---------------------------------------------------------------------------
# Constructors


def schur_label(
    ambient: tuple[int, int],
    u_part: Iterable[int] = (),
    q_part: Iterable[int] = (),
    twist: int = 0,
) -> BundleLabel:
    return BundleLabel(
        ambient=tuple(ambient),
        u_part=Partition(tuple(u_part)),
        q_part=Partition(tuple(q_part)),
        twist=twist,
    )


def line_bundle(ambient: tuple[int, int], twist: int) -> BundleLabel:
    return schur_label(ambient, twist=twist)


def trivial_label(ambient: tuple[int, int]) -> BundleLabel:
    return line_bundle(ambient, 0)


_GENERATORS = ("U", "U*", "Q", "Q*")


def _general_schur(ambient: tuple[int, int], gen: str, p: Partition, twist: int) -> BundleLabel:
    """S_p applied to a generator; S_p(W^*) (x) O(t) is the dual of S_p(W) (x) O(-t)."""
    if gen not in _GENERATORS:
        raise ValueError(f"unknown generator {gen!r}; expected one of {_GENERATORS}")
    if gen.endswith("*"):
        return dual_label(_general_schur(ambient, gen[:-1], p, -twist))
    if gen == "U":
        return BundleLabel(ambient, u_part=p, twist=twist)
    return BundleLabel(ambient, q_part=p, twist=twist)


def generator_power(
    ambient: tuple[int, int],
    gen: str,
    kind: str,
    degree: int,
    twist: int = 0,
) -> BundleLabel:
    """Lambda^degree or Sym^degree of a tautological generator.

    ``kind`` is "ext" or "sym". Degrees beyond the generator rank give the
    zero functor and are rejected.
    """
    k, n = ambient
    rank = k if gen in ("U", "U*") else n - k
    if kind == "ext":
        if not 0 <= degree <= rank:
            raise ValueError(
                f"Lambda^{degree} of a rank-{rank} generator vanishes or is undefined"
            )
        p = Partition((1,) * degree)
    elif kind == "sym":
        if degree < 0:
            raise ValueError("symmetric power degree must be nonnegative")
        p = Partition((degree,)) if degree else Partition()
    else:
        raise ValueError(f"kind must be 'ext' or 'sym', got {kind!r}")
    return _general_schur(tuple(ambient), gen, p, twist)


def tangent_label(ambient: tuple[int, int]) -> BundleLabel:
    """Tangent bundle U^* (x) Q of Gr(k, n)."""
    k, n = ambient
    return BundleLabel(
        tuple(ambient), u_part=Partition((1,) * (k - 1)), q_part=Partition((1,)), twist=1
    )


def dual_label(label: BundleLabel) -> BundleLabel:
    k, n = label.ambient
    m = n - k
    u1 = label.u_part.part(0)
    q1 = label.q_part.part(0)
    return BundleLabel(
        label.ambient,
        u_part=_reversed_complement(label.u_part, k),
        q_part=_reversed_complement(label.q_part, m),
        twist=u1 - q1 - label.twist,
    )


def dual_sum(bsum: BundleSum) -> BundleSum:
    return BundleSum.from_pairs(
        bsum.ambient, [(dual_label(lab), m) for lab, m in bsum.summands]
    )


# ---------------------------------------------------------------------------
# Tensor products and exterior powers


def tensor(a: BundleSum, b: BundleSum) -> BundleSum:
    """Exact tensor product of two sums: the LR rule on each side of every
    pair of summands, each product label canonical as built, merged once."""
    if a.ambient != b.ambient:
        raise ValueError(f"ambient mismatch: Gr{a.ambient} vs Gr{b.ambient}")
    k, n = a.ambient
    pairs: list[tuple[BundleLabel, int]] = []
    for la, ma in a.summands:
        for lb, mb in b.summands:
            twist = la.twist + lb.twist
            u_products = lr_coefficients(la.u_part, lb.u_part, k)
            q_products = lr_coefficients(la.q_part, lb.q_part, n - k)
            for pu, cu in u_products.items():
                for pq, cq in q_products.items():
                    pairs.append((BundleLabel(a.ambient, pu, pq, twist), ma * mb * cu * cq))
    return BundleSum.from_pairs(a.ambient, pairs)


def _column_form(label: BundleLabel) -> tuple[str, int, int]:
    """Decompose a label as Lambda^a(side) (x) O(t), or fail."""
    u, q, t = label.u_part, label.q_part, label.twist
    if not q.parts and all(p == 1 for p in u.parts):
        return ("U", u.length, t)
    if not u.parts and all(p == 1 for p in q.parts):
        return ("Q", q.length, t)
    raise ValueError(
        f"unsupported plethysm shape: {format_label(label)} is not a column power "
        "of U or Q up to twist"
    )


def _column_sum(ambient: tuple[int, int], side: str, a: int, twist: int) -> BundleSum:
    if side == "U":
        label = BundleLabel(ambient, u_part=Partition((1,) * a), twist=twist)
    else:
        label = BundleLabel(ambient, q_part=Partition((1,) * a), twist=twist)
    return BundleSum.of(label)


def exterior_power(label: BundleLabel, j: int) -> BundleSum:
    """Lambda^j of a column bundle, by the closed-form rules.

    Supported: O(t), G (x) O(t) and Lambda^(rank-1) G (x) O(t) for a
    generator G; the last case runs through the dual rewrite
    Lambda^(r-1) G = G^* (x) det G. The label is canonical as constructed, so
    a full column Lambda^rank G is already the line bundle det G. Anything
    else is a genuine plethysm and is rejected.
    """
    side, a, t = _column_form(label)
    k, n = label.ambient
    gen_rank = k if side == "U" else n - k
    det_twist = -1 if side == "U" else 1
    rank = comb(gen_rank, a)
    if not 0 <= j <= rank:
        raise ValueError(f"Lambda^{j} of a rank-{rank} bundle is out of range")
    ambient = label.ambient
    if j == 0:
        return BundleSum.of(trivial_label(ambient))
    # Lambda^j(W (x) L) = Lambda^j(W) (x) L^j for a line bundle L
    line_part = j * t
    if a == 0:
        # pure line bundle, so j = 1 here
        return BundleSum.of(line_bundle(ambient, line_part))
    if a == 1:
        return _column_sum(ambient, side, j, line_part)
    if a == gen_rank - 1:
        # Lambda^(r-1) G = G^* (x) det G, so
        # Lambda^j = Lambda^(r-j) G (x) (det G)^(j-1)
        return _column_sum(ambient, side, gen_rank - j, line_part + det_twist * (j - 1))
    raise ValueError(f"unsupported plethysm shape: Lambda^{j} of {format_label(label)}")


def exterior_power_sum(bsum: BundleSum, j: int) -> tuple[BundleSum, ...]:
    """(Lambda^0, ..., Lambda^j) of a direct sum, in one fold of its summands
    by Lambda(A + B) = Lambda(A) (x) Lambda(B); entries past the rank are zero.

    A line bundle L of multiplicity m folds in one step as
    Lambda^d(L^m) = C(m, d) L^d; any other summand folds once per copy.
    """
    if j < 0:
        raise ValueError("exterior power degree must be nonnegative")
    ambient = bsum.ambient
    # graded[d] = Lambda^d of the summands folded so far
    graded: list[BundleSum] = [BundleSum.of(trivial_label(ambient))]
    for lab, m in bsum.summands:
        if lab.u_part.parts or lab.q_part.parts:
            blocks = [[exterior_power(lab, d) for d in range(min(label_rank(lab), j) + 1)]] * m
        else:
            blocks = [[BundleSum.of(line_bundle(ambient, d * lab.twist), comb(m, d))
                       for d in range(min(m, j) + 1)]]
        for powers in blocks:
            top = min(j, len(graded) + len(powers) - 2)
            graded = [
                BundleSum.from_pairs(ambient, [
                    pair
                    for p in range(max(0, d - len(graded) + 1), min(d, len(powers) - 1) + 1)
                    for pair in tensor(graded[d - p], powers[p]).summands
                ])
                for d in range(top + 1)
            ]
    return tuple(graded) + (BundleSum.from_pairs(ambient, []),) * (j + 1 - len(graded))


# ---------------------------------------------------------------------------
# Conversion to weights


def label_to_weight(label: BundleLabel, space: ParabolicSpace) -> Weight:
    """Fundamental-weight coordinates of a label.

    ``space`` must be the A-type space Gr(k, n) = SL(n)/P_k matching the
    label's ambient. Every label is canonical once constructed, so the
    result is P-dominant without a further check.
    """
    k, n = label.ambient
    if space.rs.type_letter != "A" or space.rs.rank != n - 1 or space.crossed != {k}:
        raise ValueError(
            f"label on Gr({k},{n}) needs the space A{n - 1}/P{k}, got {space}"
        )
    m = n - k
    mu = label.u_part.padded(k)
    nu = label.q_part.padded(m)
    t = label.twist
    # highest weight of the dual fiber, in the standard torus basis
    lam = [t - mu[k - 1 - i] for i in range(k)] + [-nu[m - 1 - i] for i in range(m)]
    coeffs = tuple(lam[i] - lam[i + 1] for i in range(n - 1))
    return Weight(coeffs)


def sum_to_weights(bsum: BundleSum, space: ParabolicSpace) -> tuple[tuple[Weight, int], ...]:
    return tuple((label_to_weight(lab, space), m) for lab, m in bsum.summands)


# ---------------------------------------------------------------------------
# Compact string syntax, shared by the CLI and scenario files
#
#   bundle := atom ("*" atom)*
#   atom   := base ["(" INT ")"]
#   base   := "O" | "T" | GEN | ("L" INT | "S" INT | "W[" INT {"," INT} "]") GEN
#   GEN    := "U" | "U*" | "Q" | "Q*"
#
# Examples: "O(-3)", "L3 U*", "S2 U (-1)", "W[2,1]U * Q", "T".


_ATOM_RE = re.compile(
    r"""
    \s*
    (?:
        (?P<line>O)
      | (?P<tangent>T)
      | (?: (?: L(?P<ext>\d+) | S(?P<sym>\d+) | W\[(?P<schur>\d+(?:,\d+)*)\] )? \s*
            (?P<gen>U\*|U|Q\*|Q) )
    )
    \s*
    (?: \( \s* (?P<twist>-?\d+) \s* \) )?
    \s*
    """,
    re.VERBOSE,
)


def parse_partition(text: str) -> Partition:
    """Comma list such as "2,1,1"; an empty string is the empty partition."""
    text = text.strip()
    if not text:
        return Partition()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse partition from {text!r}") from exc
    return Partition(parts)


def _parse_atom(ambient: tuple[int, int], text: str) -> BundleLabel:
    match = _ATOM_RE.fullmatch(text)
    if not match:
        raise ValueError(f"cannot parse bundle atom {text!r}")
    twist = int(match.group("twist") or 0)
    if match.group("line"):
        return line_bundle(ambient, twist)
    if match.group("tangent"):
        lab = tangent_label(ambient)
        return BundleLabel(ambient, lab.u_part, lab.q_part, lab.twist + twist)
    gen = match.group("gen")
    if match.group("ext") is not None:
        return generator_power(ambient, gen, "ext", int(match.group("ext")), twist)
    if match.group("sym") is not None:
        return generator_power(ambient, gen, "sym", int(match.group("sym")), twist)
    if match.group("schur") is not None:
        p = parse_partition(match.group("schur"))
        return _general_schur(ambient, gen, p, twist)
    return generator_power(ambient, gen, "ext", 1, twist)


def parse_bundle(ambient: tuple[int, int], text: str) -> BundleSum:
    """Parse the compact bundle syntax into a canonical sum."""
    ambient = tuple(ambient)
    # a star glued to U or Q marks a dual; any other star separates atoms
    protected = text.replace("U*", "U\x00").replace("Q*", "Q\x00")
    atoms = [
        piece.replace("\x00", "*").strip()
        for piece in protected.split("*")
        if piece.strip()
    ]
    if not atoms:
        raise ValueError(f"cannot parse bundle {text!r}")
    out = BundleSum.of(trivial_label(ambient))
    for atom in atoms:
        out = tensor(out, BundleSum.of(_parse_atom(ambient, atom)))
    return out


def _format_side(p: Partition, gen: str) -> str:
    if not p.parts:
        return ""
    if all(x == 1 for x in p.parts):
        return f"L{p.length} {gen}" if p.length > 1 else gen
    if p.length == 1:
        return f"S{p.parts[0]} {gen}"
    return f"W[{','.join(str(x) for x in p.parts)}] {gen}"


def format_label(label: BundleLabel) -> str:
    """Render a label in the compact syntax; parse_bundle round-trips it."""
    pieces = [s for s in (_format_side(label.u_part, "U"), _format_side(label.q_part, "Q")) if s]
    if not pieces:
        return f"O({label.twist})" if label.twist else "O"
    body = " * ".join(pieces)
    return f"{body} ({label.twist})" if label.twist else body


def format_sum(bsum: BundleSum) -> str:
    if bsum.is_zero:
        return "0"
    parts = []
    for lab, m in bsum.summands:
        text = format_label(lab)
        parts.append(text if m == 1 else f"{m}x {text}")
    return " + ".join(parts)
