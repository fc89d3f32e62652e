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
at a time, each value a horizontal strip laid top down over the rows that can
take a cell, every row taking at least what the rows below it cannot hold, and
merges tableaux that agree on shape and last strip. Each row is a whole
number of bytes, one whenever mu_1 + nu_1 < 256, row 0 the most significant,
and a state is one int, the shape's rows and then the strip's, so one
``int.to_bytes`` gives all of them and the shape ints in decreasing order are
the shapes in decreasing padded order. The last row that can take a cell takes
every cell left or the strip dies there, so it is closed inline, with no push.
A factor that is a single column (1^a), shorter or longer, takes Pieri's rule
instead: c^lam_{mu,(1^a)} is 1 when lam/mu is a vertical strip of a cells, at
most one per row, and 0 otherwise (Macdonald I (5.17)), so its shapes are
listed directly, keyed and ordered as the pass orders them.

Exterior powers of a direct sum come from one fold over its summands that
keeps every degree at once and merges each degree once per step. A line
bundle L of multiplicity m folds in one step as Lambda^d(L^m) = C(m, d) L^d;
any other summand folds once per copy, every power it needs taken in one call
of ``_column_powers``, which checks the column shape once and covers the
closed-form cases a Koszul complex of a column bundle requires: powers of
(possibly dual, possibly twisted) single columns. General plethysm is out of
scope and rejected. The fold is memoized on ``exterior_power_sum``, keyed by (sum, j), in a thread-safe
``lru_cache`` of ``_FOLD_MEMO_SIZE``; ``lr_coefficients`` is not, as it returns a mutable dict.

Two label-level memos, each keyed by the label alone in a thread-safe ``lru_cache`` of
``_LABEL_MEMO_SIZE``, serve 75% (2,888 distinct labels in 11,360 calls) and 94% (129 in 2,084)
of their calls on one cold pass of the Koszul benchmark pool: ``dual_label`` on itself, and a
label's weight in ``_label_weight``, which ``sum_to_weights``, the one public way to it, looks up
per summand once it has checked the space against the sum's ambient. ``label_rank``, two
``gl_dimension`` products, has none. A span that calls another span (``tensor`` here) holds no
memo: a traced benchmark pass follows a warm one, so such a memo would hide the spans behind it
and change their call counts; ``exterior_power_sum`` is the one exception, whose hits skip the
LR products behind it.

A ``Partition`` is the tuple of its parts, so the kernels index, measure and test it as one.
A label or a sum is checked once, by its constructor: ``BundleLabel`` checks its fields and
``BundleSum`` (``from_pairs`` is the same) that each summand is a pair of a label and a
multiplicity, and the ambient and multiplicity of each, so no consumer of a sum checks it again.
Labels and sums derived from checked ones are trusted: a twist shift of a canonical label (a
line-bundle factor, a power of a line bundle) is built as it is, an LR product, a column power
and a dual only have their full columns moved (``BundleLabel._canonical``), the sums of
``tensor``, ``dual_sum`` and the fold are merged unchecked (``BundleSum._merged``), and a sum of
one checked summand is built as it is. The grammar builds each atom's label from the ASCII
digits it matched on an ambient checked first, the same way (``_parse_atom``); it checks only
what it cannot match: an exterior degree and the rows of a ``W[...]`` list against the rank,
and that list's order.

Conversion to fundamental-weight coordinates sends a label to the highest
weight of the dual of its fiber, which is exactly the convention making
``O(1) -> omega_k`` and ``Lambda^j U^* -> omega_j``; with it the tangent
bundle U^* (x) Q of Gr(k, n) carries the weight omega_1 + omega_{n-1}.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from functools import lru_cache
from math import comb
from operator import sub

from .root_system import ParabolicSpace, Weight, _Record, _check_positive

_FOLD_MEMO_SIZE = 1024  # sections held by the exterior-power memo
_LABEL_MEMO_SIZE = 4096  # labels held by each label memo: weight and dual

__all__ = [
    "Partition",
    "BundleLabel",
    "BundleSum",
    "lr_coefficients",
    "tensor",
    "exterior_power_sum",
    "label_rank",
    "gl_dimension",
    "dual_label",
    "parse_bundle",
    "parse_partition",
    "format_label",
    "format_sum",
]


class Partition(tuple):
    """Weakly decreasing nonnegative integers, trailing zeros dropped: the tuple of its parts, so
    ordered as ``parts``. Copy and pickle, at every protocol, call the constructor again through
    ``__reduce__``; only ``_trusted`` (``tuple.__new__`` bound to the class) skips its checks, for
    parts derived from checked ones."""

    __slots__ = ()
    parts = property(tuple)  # the plain tuple of the parts
    _trusted = classmethod(tuple.__new__)

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
        return tuple.__new__(cls, parts)

    def __reduce__(self):
        return type(self), (tuple(self),)

    def part(self, i: int) -> int:
        """0-based row length, zero beyond the last row."""
        return self[i] if i < len(self) else 0

    def padded(self, rows: int) -> tuple[int, ...]:
        if len(self) > rows:
            raise ValueError(f"partition {tuple(self)} has more than {rows} rows")
        return tuple(self) + (0,) * (rows - len(self))

    def __repr__(self) -> str:
        return f"Partition(parts={tuple(self)!r})"

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self)) + ")"


_EMPTY = Partition()


def _reversed_complement(p: Partition, rows: int) -> Partition:
    """Partition of the dual GL(rows)-representation, before the det twist, of a canonical
    label's side (fewer than ``rows`` rows): the complement ends in 0, so it has fewer too."""
    first = p[0] if p else 0
    dual = (first,) * (rows - len(p)) + tuple(first - x for x in reversed(p))
    return Partition._trusted(dual[: rows - dual.count(0)])


class BundleLabel(_Record):
    """One irreducible bundle on Gr(k, n): partitions on U and Q plus a twist.

    Canonical once constructed: full columns move into the twist, so equal
    bundles are equal labels with equal hashes. The constructor takes a pair (k, n) of ints
    with 1 <= k < n, a ``Partition`` of at most rank-many rows on each side and an int twist;
    any other field is a ValueError naming it.
    """

    __slots__ = ()
    ambient: tuple[int, int]
    u_part: Partition
    q_part: Partition
    twist: int

    def __new__(cls, ambient: tuple[int, int], u_part: Partition = _EMPTY,
                q_part: Partition = _EMPTY, twist: int = 0) -> "BundleLabel":
        try:
            k, n = ambient
        except (TypeError, ValueError):
            raise ValueError(f"ambient {ambient!r} is not a pair (k, n)") from None
        u, q, t = u_part, q_part, twist
        if type(k) is not int or type(n) is not int or type(t) is not int:
            raise ValueError(f"ambient Gr({k!r},{n!r}) and twist {t!r} must be integers")
        if not 1 <= k < n:
            raise ValueError(f"ambient Gr({k},{n}) requires 1 <= k < n")
        for side, p in (("u", u), ("q", q)):
            if type(p) is not Partition:
                raise ValueError(f"{side}-side partition {p!r} is a {type(p).__name__}, not a Partition")
        if len(u) > k:
            raise ValueError(f"u-side partition {u} exceeds rank {k}")
        if len(q) > n - k:
            raise ValueError(f"q-side partition {q} exceeds rank {n - k}")
        return cls._canonical((k, n), u, q, t)

    @classmethod
    def _canonical(
        cls, ambient: tuple[int, int], u: Partition, q: Partition, t: int
    ) -> "BundleLabel":
        """The label of fields already checked, with at most rank-many rows per side: a full
        column moves into the twist, and the rows equal to the last, which it empties, are dropped."""
        k, n = ambient
        if len(u) == k:
            c = u[-1]
            u, t = Partition._trusted([p - c for p in u[: k - u.count(c)]]), t - c  # det U = O(-1)
        if len(q) == n - k:
            c = q[-1]
            q, t = Partition._trusted([p - c for p in q[: n - k - q.count(c)]]), t + c  # det Q = O(+1)
        return tuple.__new__(cls, (ambient, u, q, t))

    def __str__(self) -> str:
        return format_label(self)


class BundleSum(_Record):
    """Formal direct sum of canonical labels with positive multiplicities, equal labels merged
    and summands ordered by u parts, q parts and twist. The constructor checks that each summand
    is a pair of a ``BundleLabel`` on ``ambient`` and a positive int, and an empty sum's ambient
    by the ``BundleLabel`` rule (a label's own ambient was checked when the label was built)."""

    __slots__ = ()
    ambient: tuple[int, int]
    summands: tuple[tuple[BundleLabel, int], ...]

    def __new__(cls, ambient: tuple[int, int], pairs: Iterable[tuple[BundleLabel, int]] = ()) -> "BundleSum":
        if not isinstance(ambient, Iterable):
            BundleLabel(ambient)  # fails naming the value, before tuple() can fail unnamed
        ambient, pairs = tuple(ambient), list(pairs)
        for pair in pairs:
            try:
                label, mult = pair
            except (TypeError, ValueError):
                label = None
            if type(label) is not BundleLabel:
                raise ValueError(f"summand {pair!r} is not a pair of a BundleLabel and a multiplicity")
            if label[0] != ambient:
                raise ValueError(f"label on Gr{label.ambient} cannot join a sum on Gr{ambient}")
            if type(mult) is not int or mult <= 0:
                _check_positive(mult)
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
        return cls._trusted((ambient, tuple(sorted(acc.items()))))

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

    No product has a shape of more than l(mu) + l(nu) rows, so a larger
    ``max_rows`` is lowered to that first. As c^lam_{mu,nu} = c^lam_{nu,mu},
    the factor with fewer rows is the content (``nu`` on a tie), so the pass
    runs one round per row of it: LR tableaux of shape lam/(the other factor)
    grow a value at a time, each value a horizontal strip of its row's length
    obeying the lattice-word rule, and tableaux with the same shape and the
    same last strip extend alike, so each such state carries only its count.
    A row takes as many whole bytes as mu_1 + nu_1 needs, one below 256, row 0
    the most significant, and a state is one int: the shape's rows, then its
    last strip's counts, all read by one ``int.to_bytes``. The shapes decode
    once, in decreasing order, each as its bytes with the zero rows stripped. A
    strip fills the rows that can take a cell top down, each taking at least
    what the rows below it cannot hold, so a partial strip dies only where the
    lattice-word rule leaves it no room; the last such row takes every cell
    left or none, so the row above it closes each strip inline, with no push
    and no pop. A factor that is a single column
    (1^a), the content or the other one, skips the pass: Pieri's rule gives
    its products in closed form (``_vertical_strips``).
    """
    if type(max_rows) is not int or max_rows < 1:
        raise ValueError(f"max_rows must be an int of at least 1, got {max_rows!r}")
    mu = mu if isinstance(mu, Partition) else Partition(tuple(mu))
    nu = nu if isinstance(nu, Partition) else Partition(tuple(nu))
    if len(mu) > max_rows or len(nu) > max_rows:
        return {}
    max_rows = min(max_rows, len(mu) + len(nu))  # no shape of the product has more rows
    if len(nu) > len(mu):
        mu, nu = nu, mu
    if not nu:
        return {mu: 1}  # c^lam_{mu,()} = delta_{lam,mu}
    if nu[0] == 1:
        return _vertical_strips(mu, len(nu), max_rows)
    if mu[0] == 1:  # the longer factor is the column
        return _vertical_strips(nu, len(mu), max_rows)
    nbytes = (mu[0] + nu[0]).bit_length() + 7 >> 3  # bytes per row: no part of the product is longer
    span = 8 * nbytes * max_rows  # bits of a shape, and of a strip
    plain = [1 << s for s in range(span - 8 * nbytes, -1, -8 * nbytes)]  # one cell in row r
    both = [w << span | w for w in plain]  # one cell in row r of the shape and of its strip
    wide, size_of = nbytes > 1, 2 * nbytes * max_rows
    # state: shape << span | its last strip -> number of tableaux reaching it; the shape alone at the end
    states = {sum(p * w for p, w in zip(mu, plain)) << span: 1}
    for value, size in enumerate(nu):
        grown, last = {}, value == len(nu) - 1
        weights = plain if last else both
        lift, drop = (size, 0) if value == 0 else (0, size)
        for key, count in states.items():
            data = key.to_bytes(size_of, "big")  # the shape's rows, then its last strip's counts
            if wide:
                data = _byte_rows(data, nbytes)
            above, tail = data[0] + lift, data[max_rows - 1]
            if above - tail < size:  # the caps telescope to above - tail: too few cells in all
                continue
            base = key >> span if last else key >> span << span
            # (cell weight, cap, slack, cells the rows below can hold) of each row that can take a
            # cell, top down: row r >= 1 holds at most shape[r-1] - shape[r] cells, row 0 none after
            # the first value, so the rows below row r hold shape[r] - shape[-1]. The lattice-word
            # rule bounds the cells in rows <= r by prev's cells in rows < r (by size in the first
            # round): the slack is that bound less size, and the room of a row the slack plus the
            # cells left
            rows, slack = [], -drop
            for part, got, weight in zip(data, data[max_rows:], weights):
                if above > part:
                    rows.append((weight, above - part, slack, part - tail))
                    if not part:  # no row below a zero row takes a cell
                        break
                slack += got
                above = part
            # the last row that can take a cell takes every cell left, which its lattice room always
            # admits: all size cells lie in rows up to it, so prev must have size cells above it
            end_weight, _, end_slack, _ = rows.pop()
            if end_slack < 0:
                continue
            if not rows:
                key = base + size * end_weight
                grown[key] = grown.get(key, 0) + count
                continue
            penult = len(rows) - 1
            # partial strip: its next row, cells left, cells placed; the fewest cells a row may
            # take go on at once, every larger count waits on the stack
            i, left, strip, stack = 0, size, 0, []
            while True:
                weight, hi, room, lo = rows[i]  # room and lo are offsets from the cells left
                room += left  # the lattice room
                lo = left - lo  # each row takes at least what the rows below it cannot hold
                if lo < 0:  # inline: min() and max() cost a fifth
                    lo = 0
                if hi > room:
                    hi = room
                if i == penult:  # a cells here, left - a in the last row: no push
                    if hi > left:
                        hi = left
                    start, step = base + strip + left * end_weight, weight - end_weight
                    for key in range(start + lo * step, start + hi * step + 1, step):
                        grown[key] = grown.get(key, 0) + count
                else:
                    if hi >= left:  # row i can take every cell left: the strip ends here
                        key = base + strip + left * weight
                        grown[key] = grown.get(key, 0) + count
                        hi = left - 1
                    if lo <= hi:
                        i += 1
                        for a in range(lo + 1, hi + 1):
                            stack.append((i, left - a, strip + a * weight))
                        left, strip = left - lo, strip + lo * weight
                        continue
                if not stack:
                    break
                i, left, strip = stack.pop()
        states = grown
    # a shape is a partition by construction: its nonzero rows are its parts, and nothing checks them
    if wide:
        return {
            Partition._trusted([p for p in _byte_rows(shape.to_bytes(size_of >> 1, "big"), nbytes) if p]):
                states[shape]
            for shape in sorted(states, reverse=True)
        }
    return {
        Partition._trusted(shape.to_bytes(max_rows, "big").rstrip(b"\0")): states[shape]
        for shape in sorted(states, reverse=True)
    }


def _byte_rows(data: bytes, nbytes: int) -> list[int]:
    """The rows of a packed shape or state of ``nbytes`` big-endian bytes per row."""
    return [int.from_bytes(data[j:j + nbytes], "big") for j in range(0, len(data), nbytes)]


def _vertical_strips(mu: Partition, a: int, max_rows: int) -> dict[Partition, int]:
    """Pieri's rule for a single-column factor: c^lam_{mu,(1^a)} is 1 when lam/mu is a vertical
    strip of a cells and 0 otherwise (Macdonald I (5.17)). Every such lam of at most ``max_rows``
    rows, keyed and ordered as the strip pass keys and orders them. A strip takes a top run of
    each block of equal rows of mu, the padding zeros the last block, so the counts of the
    blocks, each largest first, give the shapes in decreasing order."""
    shape = tuple(mu) + (0,) * (max_rows - len(mu))
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
    """Dimension of the Schur functor S_p applied to a rank-r space, by the Weyl product over
    the pairs i < j <= r of rows, prod (p_i - p_j + j - i) / (j - i) (Fulton-Harris, Thm. 6.3).
    Pairs of two of the l nonzero rows are taken one by one; the pairs of a nonzero row i with
    the zero rows l < j <= r telescope to C(p_i + r - i, p_i) / C(p_i + l - i, p_i). So the work
    grows with l, not with |p| or r; a p of more than r rows has dimension 0, and the empty p
    has the empty product 1. No root system is built."""
    p = p if isinstance(p, Partition) else Partition(tuple(p))
    if type(r) is not int or r < 0:
        raise ValueError(f"rank r must be a nonnegative int, got {r!r}")
    length = len(p)
    if length > r:
        return 0
    num = den = 1
    for i, row in enumerate(p):  # row i + 1, 1-based
        num *= comb(row + r - 1 - i, row)
        den *= comb(row + length - 1 - i, row)
        for j in range(i + 1, length):
            num *= row - p[j] + j - i
            den *= j - i
    return num // den


def label_rank(label: BundleLabel) -> int:
    k, n = label.ambient
    return gl_dimension(label.u_part, k) * gl_dimension(label.q_part, n - k)


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
            if not ub and not qb:
                yield BundleLabel._trusted((ambient, ua, qa, twist)), ma * mb
            elif not ua and not qa:
                yield BundleLabel._trusted((ambient, ub, qb, twist)), ma * mb
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


def _column_powers(label: BundleLabel, top: int) -> list[BundleSum]:
    """Lambda^0, ..., Lambda^min(top, rank) of a column bundle Lambda^a(G) (x) O(t), G = U or Q
    of rank r, each derived unchecked from the checked label by a closed form: a <= 1 gives
    Lambda^(ja) G (x) O(jt), as Lambda^j(W (x) L) = Lambda^j(W) (x) L^j for a line bundle L, and
    a = r - 1 gives Lambda^(r-j) G (x) (det G)^(j-1) (x) O(jt) through Lambda^(r-1) G =
    G^* (x) det G (its full column at j = 0 is O once canonical). Any other label is rejected
    whatever ``top`` is, and any other a from Lambda^1 on: both are genuine plethysm."""
    ambient, u, q, t = label
    k, n = ambient
    if not q and all(p == 1 for p in u):
        a, r, det = len(u), k, -1
    elif not u and all(p == 1 for p in q):
        a, r, det = len(q), n - k, 1
    else:
        raise ValueError(
            f"unsupported plethysm shape: {format_label(label)} is not a column power "
            "of U or Q up to twist"
        )
    top = min(top, comb(r, a))
    if top and a > 1 and a != r - 1:
        raise ValueError(f"unsupported plethysm shape: Lambda^1 of {format_label(label)}")
    powers = []
    for j in range(top + 1):
        height, twist = (j * a, j * t) if a <= 1 else (r - j, j * t + det * (j - 1))
        column = Partition._trusted([1] * height)
        sides = (column, _EMPTY) if det < 0 else (_EMPTY, column)  # det U = O(-1), det Q = O(1)
        powers.append(BundleSum._trusted((ambient, ((BundleLabel._canonical(ambient, *sides, twist), 1),))))
    return powers


@lru_cache(maxsize=_FOLD_MEMO_SIZE, typed=True)  # typed: a float or bool j is no int j
def exterior_power_sum(bsum: BundleSum, j: int) -> tuple[BundleSum, ...]:
    """(Lambda^0, ..., Lambda^j) of a direct sum, in one fold of its summands
    by Lambda(A + B) = Lambda(A) (x) Lambda(B); entries past the rank are zero.

    A line bundle L of multiplicity m folds in one step as
    Lambda^d(L^m) = C(m, d) L^d; any other summand folds once per copy. Each
    step merges each degree once, over the unmerged products ``tensor`` builds.
    """
    if type(j) is not int or j < 0:
        raise ValueError(f"exterior power degree must be nonnegative and an int, got {j!r}")
    ambient = bsum.ambient
    # graded[d] = Lambda^d of the summands folded so far, from O on the checked ambient
    graded = [BundleSum._trusted((ambient, ((BundleLabel._trusted((ambient, _EMPTY, _EMPTY, 0)), 1),)))]
    for lab, m in bsum.summands:
        if lab.u_part or lab.q_part:
            blocks = [_column_powers(lab, j)] * m
        else:
            _, u, q, t = lab  # L^d is the checked line bundle L with its twist times d
            blocks = [[
                BundleSum._trusted((ambient, ((BundleLabel._trusted((ambient, u, q, d * t)), comb(m, d)),)))
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
    return tuple(graded) + (BundleSum._trusted((ambient, ())),) * (j + 1 - len(graded))


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
    """Fundamental-weight coordinates of a label on its own Gr(k, n), once ``grassmannian_kn``
    has checked the space; a canonical label gives a P-dominant weight with no further check."""
    k, n = label.ambient
    # the dual fiber's highest weight is (t - mu reversed, -nu reversed) in the standard torus
    # basis; its coefficients are the differences of neighbours there, ints from ints. At the
    # crossed node that is t - mu_1 + s[0], and s[0], the last of n - k parts of nu, is 0: a
    # canonical label has fewer than n - k rows on Q
    r, s = label.u_part.padded(k)[::-1], label.q_part.padded(n - k)[::-1]
    return Weight._trusted([*map(sub, r[1:], r), label.twist - r[-1], *map(sub, s[1:], s)])


def sum_to_weights(bsum: BundleSum, space: ParabolicSpace) -> tuple[tuple[Weight, int], ...]:
    """(weight, multiplicity) of each summand, the space checked once against the sum's ambient."""
    grassmannian_kn(space, bsum.ambient)  # each summand lies on the sum's ambient
    return tuple([(_label_weight(lab), m) for lab, m in bsum.summands])


# ---------------------------------------------------------------------------
# Compact string syntax, shared by the CLI and scenario files
#
#   bundle := atom ("*" atom)*
#   atom   := base ["(" INT ")"]
#   base   := "O" | "T" | GEN | ("L" INT | "S" INT | "W[" INT {"," INT} "]") GEN
#   GEN    := "U" | "U*" | "Q" | "Q*"
#   INT    := ASCII digits, after a "-" in a twist (int() also reads other digits, "+" and "_")
#
# Examples: "O(-3)", "L3 U*", "S2 U (-1)", "W[2,1]U * Q", "T".
#
# Both patterns are compiled on the first parse, by ``_grammar``, so a process that parses no bundle
# compiles neither, and a parse pays no lookup in ``re``'s pattern cache.

_ATOM_RE = r"""(?x)
    \s*
    (?:
        (?P<line>O)
      | (?P<tangent>T)
      | (?: (?: L(?P<ext>[0-9]+) | S(?P<sym>[0-9]+) | W\[(?P<schur>[0-9]+(?:,[0-9]+)*)\] )? \s*
            (?P<gen>U\*|U|Q\*|Q) )
    )
    \s*
    (?: \( \s* (?P<twist>-?[0-9]+) \s* \) )?
    \s*
"""
_ATOM_SEP = r"(?<![UQ])\*"  # a star glued to U or Q marks a dual, any other separates


@lru_cache(maxsize=1)
def _grammar() -> tuple[re.Pattern, re.Pattern]:
    """The compiled atom and separator patterns."""
    return re.compile(_ATOM_RE), re.compile(_ATOM_SEP)


def _parse_int(text: str) -> int:
    """An optional minus and ASCII digits, spaces around allowed: every integer read from text
    (``int`` alone also takes any other Unicode digit, a plus and underscores)."""
    digits = text.strip()
    if not (digits.isascii() and digits.removeprefix("-").isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(digits)


def _int_list(text: str, what: str) -> tuple[int, ...]:
    """The integers of a comma list, for ``parse_partition`` and the CLI; anything else fails
    naming ``what`` and the text."""
    try:
        return tuple(_parse_int(t) for t in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} from {text!r}") from exc


def parse_partition(text: str) -> Partition:
    """Comma list such as "2,1,1"; an empty string is the empty partition."""
    text = text.strip()
    return Partition(_int_list(text, "partition") if text else ())


def _parse_atom(ambient: tuple[int, int], text: str) -> BundleLabel:
    """The label of one atom on a checked ``ambient``, built from the pieces the grammar matched.
    Its integers are ASCII digits, so a twist, a degree and the parts of ``S_d`` need no check;
    what the grammar cannot check is checked here: an exterior degree above its generator's rank,
    and a ``W[...]`` partition that is not weakly decreasing or has more rows than that rank."""
    match = _grammar()[0].fullmatch(text)
    if not match:
        raise ValueError(f"cannot parse bundle atom {text!r}")
    line, tangent, ext, sym, schur, gen, twist = match.groups()
    twist = int(twist) if twist else 0
    if line:
        return BundleLabel._trusted((ambient, _EMPTY, _EMPTY, twist))
    k, n = ambient
    if tangent:  # U^* (x) Q = L(k-1) U (x) Q (1), whose Q column is full on a projective space
        column = Partition._trusted((1,) * (k - 1))
        return BundleLabel._canonical(ambient, column, Partition._trusted((1,)), twist + 1)
    on_u = gen[0] == "U"
    rank = k if on_u else n - k
    if schur is not None:
        p = Partition(map(int, schur.split(",")))  # checked: weakly decreasing, trailing zeros dropped
        if len(p) > rank:
            raise ValueError(f"{'u' if on_u else 'q'}-side partition {p} exceeds rank {rank}")
    elif sym is not None:
        degree = int(sym)
        p = Partition._trusted((degree,) if degree else ())
    else:
        degree = int(ext) if ext else 1
        if degree > rank:  # checked before the column is built: a degree from text may be huge
            raise ValueError(f"Lambda^{degree} of a rank-{rank} generator vanishes or is undefined")
        p = Partition._trusted((1,) * degree)
    u, q = (p, _EMPTY) if on_u else (_EMPTY, p)
    if gen[-1] == "*":  # S_p(W^*) (x) O(t) is the dual of S_p(W) (x) O(-t)
        return dual_label(BundleLabel._canonical(ambient, u, q, -twist))
    return BundleLabel._canonical(ambient, u, q, twist)


def parse_bundle(ambient: tuple[int, int], text: str) -> BundleSum:
    """Parse the compact bundle syntax into a canonical sum: the first atom's label, times each
    further atom by ``tensor``. The ambient is checked once, before any atom, and each atom's
    label is built from what the grammar matched (``_parse_atom``)."""
    atoms = list(filter(None, map(str.strip, _grammar()[1].split(text))))
    if not atoms:
        raise ValueError(f"cannot parse bundle {text!r}")
    k, n = ambient if type(ambient) is tuple and len(ambient) == 2 else (None, None)
    if type(k) is not int or type(n) is not int or not 1 <= k < n:
        # any other ambient takes the constructor's rule before any atom, read as its tuple where
        # it has one: a bad one fails with the rule's reason, a good one becomes that tuple
        ambient = BundleLabel(tuple(ambient) if isinstance(ambient, Iterable) else ambient)[0]
    out = BundleSum._trusted((ambient, ((_parse_atom(ambient, atoms[0]), 1),)))
    for atom in atoms[1:]:
        out = tensor(out, BundleSum._trusted((ambient, ((_parse_atom(ambient, atom), 1),))))
    return out


def _format_side(p: Partition, gen: str) -> str:
    if not p:
        return ""
    if all(x == 1 for x in p):
        return f"L{len(p)} {gen}" if len(p) > 1 else gen
    if len(p) == 1:
        return f"S{p[0]} {gen}"
    return f"W[{','.join(map(str, p))}] {gen}"


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
