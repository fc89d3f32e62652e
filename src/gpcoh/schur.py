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

Tensor products distribute over direct sums. A pair of summands with a line
bundle factor is the other summand with the twists added, O(t) (x) E = E(t);
any other pair applies the Littlewood-Richardson rule independently on the
two sides, truncated to the side's rank. The rule is evaluated in one pass
that grows LR tableaux whose content is the factor with fewer rows, a value
at a time, each value a horizontal strip laid top down with every row taking
at least what the rows below it cannot hold, and merges tableaux that agree
on shape and last strip. A content that is a single column (1^a) takes
Pieri's rule instead: c^lam_{mu,(1^a)} is 1 when lam/mu is a vertical strip of
a cells, at most one per row, and 0 otherwise (Macdonald I (5.17)), so its
shapes are listed directly, keyed and ordered as the pass orders them.

Exterior powers of a direct sum come from one fold over its summands that
keeps every degree at once and merges each degree once per step. A line
bundle L of multiplicity m folds in one step as Lambda^d(L^m) = C(m, d) L^d;
any other summand folds once per copy and is restricted to the closed-form
cases a Koszul complex of a column bundle requires: powers of (possibly
dual, possibly twisted) single columns. General plethysm is out of scope and
rejected. The fold is memoized on ``exterior_power_sum``, keyed by (sum, j), in a thread-safe
``lru_cache`` of ``_FOLD_MEMO_SIZE``; ``lr_coefficients`` is not, as it returns a mutable dict.

Three label-level helpers are memoized, each keyed by the label alone in a thread-safe
``lru_cache`` of ``_LABEL_MEMO_SIZE``: ``_label_weight`` (``sum_to_weights`` has checked the
space against the sum's ambient, and every summand lies on it), ``label_rank`` and
``dual_label``. On one cold pass of the Koszul benchmark pool the first serves 75% of its
calls from the memo (2,888 distinct labels in 11,360 calls), the other two 94% each (129 in
2,084). The traced layers (``sum_to_weights``, ``tensor``, ``lr_coefficients`` here) hold
none: a traced benchmark pass follows a warm one, so a memo in front of a span would hide it
and change its call counts.

A label or a sum is checked once, by its constructor: ``BundleLabel`` checks its fields and
``BundleSum`` (``from_pairs`` is the same) the ambient and multiplicity of each summand, so no
consumer of a sum checks it again. Labels and sums derived from checked ones are trusted: a
twist shift of a canonical label (a line-bundle factor, a power of a line bundle, a twisted
``T``) is built as it is, an LR product, a column power and a dual only have their full columns
moved (``BundleLabel._canonical``), the sums of ``tensor``, ``dual_sum`` and the fold are merged
unchecked (``BundleSum._merged``), and a sum of one checked summand is built as it is.

Conversion to fundamental-weight coordinates sends a label to the highest
weight of the dual of its fiber, which is exactly the convention making
``O(1) -> omega_k`` and ``Lambda^j U^* -> omega_j``; with it the tangent
bundle U^* (x) Q of Gr(k, n) carries the weight omega_1 + omega_{n-1}.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb
from operator import sub
from typing import Iterable, Iterator

from .root_system import (
    ParabolicSpace,
    Weight,
    _check_multiplicity,
    _Record,
    build_root_system,
    weyl_dimension,
)

_FOLD_MEMO_SIZE = 1024  # sections held by the exterior-power memo
_LABEL_MEMO_SIZE = 4096  # labels held by each label memo: weight, rank and dual

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
    "tangent_label",
    "parse_bundle",
    "parse_partition",
    "format_label",
    "format_sum",
]


class Partition(_Record):
    """Weakly decreasing nonnegative integers, trailing zeros dropped; ordered as ``parts``."""

    __slots__ = ()
    parts: tuple[int, ...]

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(parts)
        for p in parts:
            if type(p) is not int or p < 0:
                raise ValueError(f"partition parts must be nonnegative integers: {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        return tuple.__new__(cls, (parts,))

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

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")" if self.parts else "()"


_EMPTY = Partition()


def _reversed_complement(p: Partition, rows: int) -> Partition:
    """Partition of the dual GL(rows)-representation, before the det twist, of a canonical
    label's side (fewer than ``rows`` rows): the complement ends in 0, so it has fewer too."""
    parts = p[0]
    first = parts[0] if parts else 0
    dual = (first,) * (rows - len(parts)) + tuple(first - x for x in reversed(parts))
    return Partition._trusted(dual[: rows - dual.count(0)])


class BundleLabel(_Record):
    """One irreducible bundle on Gr(k, n): partitions on U and Q plus a twist.

    Canonical once constructed: full columns move into the twist, so equal
    bundles are equal labels with equal hashes.
    """

    __slots__ = ()
    ambient: tuple[int, int]
    u_part: Partition
    q_part: Partition
    twist: int

    def __new__(cls, ambient: tuple[int, int], u_part: Partition = _EMPTY,
                q_part: Partition = _EMPTY, twist: int = 0) -> "BundleLabel":
        k, n = ambient
        u, q, t = u_part, q_part, twist
        if type(k) is not int or type(n) is not int or type(t) is not int:
            raise ValueError(f"ambient Gr({k!r},{n!r}) and twist {t!r} must be integers")
        if not 1 <= k < n:
            raise ValueError(f"ambient Gr({k},{n}) requires 1 <= k < n")
        if u.length > k:
            raise ValueError(f"u-side partition {u} exceeds rank {k}")
        if q.length > n - k:
            raise ValueError(f"q-side partition {q} exceeds rank {n - k}")
        return cls._canonical((k, n), u, q, t)

    @classmethod
    def _canonical(
        cls, ambient: tuple[int, int], u: Partition, q: Partition, t: int
    ) -> "BundleLabel":
        """The label of fields already checked, with at most rank-many rows per side: a full
        column moves into the twist, and the zeros the move leaves at the end are dropped."""
        k, n = ambient
        parts = u[0]
        if len(parts) == k:
            c = parts[-1]
            parts = tuple(p - c for p in parts)
            u, t = Partition._trusted(parts[: k - parts.count(0)]), t - c  # det U = O(-1)
        parts = q[0]
        if len(parts) == n - k:
            c = parts[-1]
            parts = tuple(p - c for p in parts)
            q, t = Partition._trusted(parts[: n - k - parts.count(0)]), t + c  # det Q = O(+1)
        return tuple.__new__(cls, (ambient, u, q, t))

    def __str__(self) -> str:
        return format_label(self)


class BundleSum(_Record):
    """Formal direct sum of canonical labels with positive multiplicities, equal labels merged
    and summands ordered by u parts, q parts and twist. The constructor checks that each label
    lies on ``ambient`` and each multiplicity is a positive int, and an empty sum's ambient by
    the ``BundleLabel`` rule (a label's own ambient was checked when the label was built)."""

    __slots__ = ()
    ambient: tuple[int, int]
    summands: tuple[tuple[BundleLabel, int], ...]

    def __new__(cls, ambient: tuple[int, int], pairs: Iterable[tuple[BundleLabel, int]] = ()) -> "BundleSum":
        ambient, pairs = tuple(ambient), list(pairs)
        for label, mult in pairs:
            if label.ambient != ambient:
                raise ValueError(f"label on Gr{label.ambient} cannot join a sum on Gr{ambient}")
            _check_multiplicity(mult)
        if not pairs:
            BundleLabel(ambient)
        return cls._merged(ambient, pairs)

    from_pairs = classmethod(__new__)

    @classmethod
    def _merged(cls, ambient: tuple[int, int], pairs: Iterable[tuple[BundleLabel, int]]) -> "BundleSum":
        """``pairs`` on ``ambient`` merged and ordered, unchecked: checked pairs or ones derived from them."""
        acc: dict[BundleLabel, int] = {}
        for label, mult in pairs:
            acc[label] = acc.get(label, 0) + mult
        # labels of one sum share the ambient and are unique: the tuple order is u, q, twist
        return cls._trusted(ambient, tuple(sorted(acc.items())))

    @property
    def is_zero(self) -> bool:
        return not self.summands

    def rank(self) -> int:
        return sum(m * label_rank(lab) for lab, m in self.summands)

    def __str__(self) -> str:
        return format_sum(self)


# ---------------------------------------------------------------------------
# Littlewood-Richardson by a horizontal-strip pass


def lr_coefficients(
    mu: Partition | Iterable[int], nu: Partition | Iterable[int], max_rows: int
) -> dict[Partition, int]:
    """All Littlewood-Richardson coefficients c^lam_{mu,nu} with at most
    ``max_rows`` rows; shapes needing more rows are discarded (GL truncation).

    As c^lam_{mu,nu} = c^lam_{nu,mu}, the factor with fewer rows is the
    content (``nu`` on a tie), so the pass runs one round per row of it: LR
    tableaux of shape lam/(the other factor) grow a value at a time, each
    value a horizontal strip of its row's length obeying the lattice-word
    rule, and tableaux with the same shape and the same last strip extend
    alike, so each such state carries only its count. A strip fills rows top
    down, each row taking at least what the rows below it cannot hold, so a
    partial strip dies only where the lattice-word rule leaves it no room.
    A content that is a single column (1^a) skips the pass: Pieri's rule
    gives its products in closed form (``_vertical_strips``).
    """
    if type(max_rows) is not int or max_rows < 1:
        raise ValueError(f"max_rows must be an int of at least 1, got {max_rows!r}")
    mu = mu if isinstance(mu, Partition) else Partition(tuple(mu))
    nu = nu if isinstance(nu, Partition) else Partition(tuple(nu))
    if mu.length > max_rows or nu.length > max_rows:
        return {}
    if nu.length > mu.length:
        mu, nu = nu, mu
    if not nu.parts:
        return {mu: 1}  # c^lam_{mu,()} = delta_{lam,mu}
    if nu.parts[0] == 1:
        return _vertical_strips(mu, nu.length, max_rows)
    # state (shape, shape before the last strip) -> number of tableaux reaching it
    states = {(mu.padded(max_rows),) * 2: 1}
    for value, size in enumerate(nu.parts):
        grown: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (shape, before), count in states.items():
            prev = tuple(map(sub, shape, before))
            # row r >= 1 holds at most shape[r-1] - shape[r] cells, row 0 none
            # after the first value; tail[r] is what rows r and below hold. The
            # lattice-word rule bounds the cells in rows <= r by prev's cells in
            # rows < r plus caps[0]: that bound less the cells placed is the room
            caps = (size if value == 0 else 0,) + tuple(map(sub, shape, shape[1:]))
            tail = [0] * (max_rows + 1)
            for r in range(max_rows - 1, -1, -1):
                tail[r] = tail[r + 1] + caps[r]
            # partial strip: next row, cells left, lattice room, rows grown so far
            stack = [(0, size, caps[0], ())]
            while stack:
                r, left, room, top = stack.pop()
                lo, hi = left - tail[r + 1], caps[r]  # inline: min() and max() cost a fifth
                if hi > room:
                    hi = room
                if hi >= left:  # row r can take every cell left: the strip ends here
                    key = (top + (shape[r] + left,) + shape[r + 1:], shape)
                    grown[key] = grown.get(key, 0) + count
                    hi = left - 1
                for a in range(lo if lo > 0 else 0, hi + 1):
                    stack.append((r + 1, left - a, room - a + prev[r], top + (shape[r] + a,)))
        states = grown
    totals: dict[tuple[int, ...], int] = {}
    for (shape, _), count in states.items():
        totals[shape] = totals.get(shape, 0) + count
    # a shape is a partition by construction: strip its padding zeros and check nothing
    return {
        Partition._trusted(s[: max_rows - s.count(0)]): totals[s] for s in sorted(totals, reverse=True)
    }


def _vertical_strips(mu: Partition, a: int, max_rows: int) -> dict[Partition, int]:
    """Pieri's rule for a single-column factor: c^lam_{mu,(1^a)} is 1 when lam/mu is a vertical
    strip of a cells and 0 otherwise (Macdonald I (5.17)). Every such lam of at most ``max_rows``
    rows, keyed and ordered as the strip pass keys and orders them. A strip takes a top run of
    each block of equal rows of mu, the padding zeros the last block, so the counts of the
    blocks, each largest first, give the shapes in decreasing order."""
    parts = mu[0]
    shape = parts + (0,) * (max_rows - len(parts))
    out: dict[Partition, int] = {}
    # partial strip: first row of the next block, cells left, rows grown so far
    stack = [(0, a, ())]
    while stack:
        start, left, top = stack.pop()
        v, end = shape[start], start + 1
        while end < max_rows and shape[end] == v:
            end += 1
        hi = end - start
        if left <= hi:  # the block takes every cell left: the strip ends here
            lam = top + (v + 1,) * left + shape[start + left:]
            out[Partition._trusted(lam[: max_rows - lam.count(0)])] = 1
            hi = left - 1
        # the rows below the block take at most one cell each; pushed smallest first, popped largest
        lo = left - max_rows + end
        for c in range(lo if lo > 0 else 0, hi + 1):
            stack.append((end, left - c, top + (v + 1,) * c + (v,) * (end - start - c)))
    return out


def gl_dimension(p: Partition | Iterable[int], r: int) -> int:
    """Dimension of the Schur functor S_p applied to a rank-r space."""
    p = p if isinstance(p, Partition) else Partition(tuple(p))
    if type(r) is not int or r < 0:
        raise ValueError(f"rank r must be a nonnegative int, got {r!r}")
    if p.length > r:
        return 0
    if r <= 1 or p.size == 0:
        return 1
    rs = build_root_system("A", r - 1)
    padded = p.padded(r)
    coeffs = tuple(padded[i] - padded[i + 1] for i in range(r - 1))
    return weyl_dimension(rs, Weight(coeffs))


@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def label_rank(label: BundleLabel) -> int:
    k, n = label.ambient
    return gl_dimension(label.u_part, k) * gl_dimension(label.q_part, n - k)


# ---------------------------------------------------------------------------
# Constructors


def tangent_label(ambient: tuple[int, int]) -> BundleLabel:
    """Tangent bundle U^* (x) Q of Gr(k, n)."""
    k, n = ambient
    return BundleLabel(
        tuple(ambient), u_part=Partition((1,) * (k - 1)), q_part=Partition((1,)), twist=1
    )


@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def dual_label(label: BundleLabel) -> BundleLabel:
    """The dual bundle, derived from the checked label unchecked."""
    ambient, u, q, t = label
    k, n = ambient
    u_dual, q_dual = _reversed_complement(u, k), _reversed_complement(q, n - k)
    return BundleLabel._canonical(ambient, u_dual, q_dual, u.part(0) - q.part(0) - t)


def dual_sum(bsum: BundleSum) -> BundleSum:
    return BundleSum._merged(bsum.ambient, [(dual_label(lab), m) for lab, m in bsum.summands])


# ---------------------------------------------------------------------------
# Tensor products and exterior powers


def _product_pairs(a: BundleSum, b: BundleSum) -> Iterator[tuple[BundleLabel, int]]:
    """The summands of ``tensor(a, b)``, unmerged, each label canonical on ``a``'s ambient
    and derived unchecked from the checked labels of ``a`` and ``b``."""
    ambient = a.ambient
    k, n = ambient
    for (_, ua, qa, ta), ma in a.summands:
        for (_, ub, qb, tb), mb in b.summands:
            twist = ta + tb
            if not ub[0] and not qb[0]:
                yield BundleLabel._trusted(ambient, ua, qa, twist), ma * mb
            elif not ua[0] and not qa[0]:
                yield BundleLabel._trusted(ambient, ub, qb, twist), ma * mb
            else:
                u_products = lr_coefficients(ua, ub, k)
                q_products = lr_coefficients(qa, qb, n - k)
                for pu, cu in u_products.items():
                    for pq, cq in q_products.items():
                        yield BundleLabel._canonical(ambient, pu, pq, twist), ma * mb * cu * cq


def tensor(a: BundleSum, b: BundleSum) -> BundleSum:
    """Exact tensor product of two sums, merged once: a pair of summands with a line bundle
    is the other with the twists added, O(t) (x) E = E(t); any other pair takes the LR rule."""
    if a.ambient != b.ambient:
        raise ValueError(f"ambient mismatch: Gr{a.ambient} vs Gr{b.ambient}")
    return BundleSum._merged(a.ambient, _product_pairs(a, b))


def _column_form(label: BundleLabel) -> tuple[str, int, int, int]:
    """Decompose a label as Lambda^a(side) (x) O(t), side of rank r: (side, a, t, r), or fail."""
    (k, n), u, q, t = label
    if not q.parts and all(p == 1 for p in u.parts):
        return ("U", u.length, t, k)
    if not u.parts and all(p == 1 for p in q.parts):
        return ("Q", q.length, t, n - k)
    raise ValueError(
        f"unsupported plethysm shape: {format_label(label)} is not a column power "
        "of U or Q up to twist"
    )


def exterior_power(label: BundleLabel, j: int) -> BundleSum:
    """Lambda^j of a column bundle, by the closed-form rules.

    Supported: O(t), G (x) O(t) and Lambda^(rank-1) G (x) O(t) for a
    generator G; the last case runs through the dual rewrite
    Lambda^(r-1) G = G^* (x) det G. The label is canonical as constructed, so
    a full column Lambda^rank G is already the line bundle det G. Anything
    else is a genuine plethysm and is rejected.
    """
    side, a, t, gen_rank = _column_form(label)
    det_twist = -1 if side == "U" else 1
    rank = comb(gen_rank, a)
    if not 0 <= j <= rank:
        raise ValueError(f"Lambda^{j} of a rank-{rank} bundle is out of range")
    if j == 0:
        return BundleSum._trusted(label.ambient, ((BundleLabel._trusted(label.ambient, _EMPTY, _EMPTY, 0), 1),))
    # Lambda^j(W (x) L) = Lambda^j(W) (x) L^j for a line bundle L
    if a <= 1:  # a pure line bundle (a = 0) has j = 1 here
        height, twist = j * a, j * t
    elif a == gen_rank - 1:
        # Lambda^(r-1) G = G^* (x) det G, so
        # Lambda^j = Lambda^(r-j) G (x) (det G)^(j-1)
        height, twist = gen_rank - j, j * t + det_twist * (j - 1)
    else:
        raise ValueError(f"unsupported plethysm shape: Lambda^{j} of {format_label(label)}")
    column = Partition._trusted((1,) * height)
    u, q = (column, _EMPTY) if side == "U" else (_EMPTY, column)
    return BundleSum._trusted(label.ambient, ((BundleLabel._canonical(label.ambient, u, q, twist), 1),))


@lru_cache(maxsize=_FOLD_MEMO_SIZE, typed=True)  # typed: a float or bool j is no int j
def exterior_power_sum(bsum: BundleSum, j: int) -> tuple[BundleSum, ...]:
    """(Lambda^0, ..., Lambda^j) of a direct sum, in one fold of its summands
    by Lambda(A + B) = Lambda(A) (x) Lambda(B); entries past the rank are zero.

    A line bundle L of multiplicity m folds in one step as
    Lambda^d(L^m) = C(m, d) L^d; any other summand folds once per copy. Each
    step merges each degree once, over the unmerged products ``tensor`` builds.
    """
    if j < 0:
        raise ValueError("exterior power degree must be nonnegative")
    ambient = bsum.ambient
    # graded[d] = Lambda^d of the summands folded so far, from O on the checked ambient
    graded = [BundleSum._trusted(ambient, ((BundleLabel._trusted(ambient, _EMPTY, _EMPTY, 0), 1),))]
    for lab, m in bsum.summands:
        if lab.u_part.parts or lab.q_part.parts:
            _, a, _, r = _column_form(lab)  # Lambda^a of a rank-r generator has rank C(r, a)
            blocks = [[exterior_power(lab, d) for d in range(min(comb(r, a), j) + 1)]] * m
        else:
            _, u, q, t = lab  # L^d is the checked line bundle L with its twist times d
            blocks = [[
                BundleSum._trusted(ambient, ((BundleLabel._trusted(ambient, u, q, d * t), comb(m, d)),))
                for d in range(min(m, j) + 1)
            ]]
        for powers in blocks:
            top = min(j, len(graded) + len(powers) - 2)
            graded = [
                BundleSum._merged(ambient, [
                    pair
                    for p in range(max(0, d - len(graded) + 1), min(d, len(powers) - 1) + 1)
                    for pair in _product_pairs(graded[d - p], powers[p])
                ])
                for d in range(top + 1)
            ]
    return tuple(graded) + (BundleSum._trusted(ambient, ()),) * (j + 1 - len(graded))


# ---------------------------------------------------------------------------
# Conversion to weights


def grassmannian_kn(space: ParabolicSpace, ambient: tuple[int, int] | None = None) -> tuple[int, int]:
    """(k, n) of a ``space`` that is Gr(k, n) = SL(n)/P_k, the one kind of space bundle labels
    live on. Any other space is rejected, and so is a Gr(k, n) other than ``ambient`` when given."""
    rs, crossed = space.rs, space.crossed
    kn = (min(crossed), rs.rank + 1)  # a parabolic space crosses at least one node
    if rs.type_letter != "A" or len(crossed) != 1 or ambient is not None and tuple(ambient) != kn:
        k, n, n1 = ("k", "n", "(n-1)") if ambient is None else (*ambient, ambient[1] - 1)
        raise ValueError(f"label on Gr({k},{n}) needs the space A{n1}/P({k}), got {space}")
    return kn


@lru_cache(maxsize=_LABEL_MEMO_SIZE)
def _label_weight(label: BundleLabel) -> Weight:
    """``label_to_weight`` on the label's own Gr(k, n), once ``grassmannian_kn`` has checked it."""
    k, n = label.ambient
    # the dual fiber's highest weight is (t - mu reversed, -nu reversed) in the standard torus
    # basis; its coefficients are the differences of neighbours there, ints from ints
    r, s = label.u_part.padded(k)[::-1], label.q_part.padded(n - k)[::-1]
    return Weight._trusted((*map(sub, r[1:], r), label.twist - r[-1] + s[0], *map(sub, s[1:], s)))


def label_to_weight(label: BundleLabel, space: ParabolicSpace) -> Weight:
    """Fundamental-weight coordinates of a label.

    ``space`` must be the A-type space Gr(k, n) = SL(n)/P_k matching the
    label's ambient. Every label is canonical once constructed, so the
    result is P-dominant without a further check.
    """
    grassmannian_kn(space, label.ambient)
    return _label_weight(label)


def sum_to_weights(bsum: BundleSum, space: ParabolicSpace) -> tuple[tuple[Weight, int], ...]:
    """``label_to_weight`` of each summand; the space is checked once, against the sum's ambient."""
    grassmannian_kn(space, bsum.ambient)  # each summand lies on the sum's ambient
    return tuple((_label_weight(lab), m) for lab, m in bsum.summands)


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
_ATOM_SEP = re.compile(r"(?<![UQ])\*")  # a star glued to U or Q marks a dual, any other separates


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
        return BundleLabel(ambient, twist=twist)
    if match.group("tangent"):
        _, u, q, t = tangent_label(ambient)  # a twist shift of a canonical label is canonical
        return BundleLabel._trusted(ambient, u, q, t + twist)
    gen, ext, sym, schur = match.group("gen", "ext", "sym", "schur")
    if schur is not None:
        p = parse_partition(schur)
    elif sym is not None:
        p = Partition((int(sym),))
    else:
        degree, rank = int(ext or 1), ambient[0] if gen[0] == "U" else ambient[1] - ambient[0]
        if degree > rank:  # checked before the column is built: a degree from text may be huge
            raise ValueError(f"Lambda^{degree} of a rank-{rank} generator vanishes or is undefined")
        p = Partition((1,) * degree)
    side = (p, Partition()) if gen[0] == "U" else (Partition(), p)
    if gen.endswith("*"):  # S_p(W^*) (x) O(t) is the dual of S_p(W) (x) O(-t)
        return dual_label(BundleLabel(ambient, *side, -twist))
    return BundleLabel(ambient, *side, twist)


def parse_bundle(ambient: tuple[int, int], text: str) -> BundleSum:
    """Parse the compact bundle syntax into a canonical sum: the first atom's label, times each
    further atom by ``tensor``. An atom's label is checked once, by ``BundleLabel``, not its sum."""
    ambient = tuple(ambient)
    atoms = [piece.strip() for piece in _ATOM_SEP.split(text) if piece.strip()]
    if not atoms:
        raise ValueError(f"cannot parse bundle {text!r}")
    k, n = ambient
    if type(k) is not int or type(n) is not int or not 1 <= k < n:
        BundleLabel(ambient)  # a bad ambient fails before any atom, with the constructor's reason
    out = BundleSum._trusted(ambient, ((_parse_atom(ambient, atoms[0]), 1),))
    for atom in atoms[1:]:
        out = tensor(out, BundleSum._trusted(ambient, ((_parse_atom(ambient, atom), 1),)))
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
