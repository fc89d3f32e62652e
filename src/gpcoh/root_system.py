"""Simple root systems of types A-G and the weight arithmetic built on them.

Everything downstream (Borel-Weil-Bott, bundle calculus, rigidity audits)
reduces to exact integer computations done here. A weight is the tuple of its
coefficients over the fundamental weights, so the pairing of a weight with
the i-th simple coroot is a direct coefficient read, and a simple reflection
subtracts an integer multiple of a Cartan-matrix row.

Node numbering follows Bourbaki throughout::

    A_n   1 - 2 - ... - n
    B_n   1 - 2 - ... - (n-1) => n            (node n short)
    C_n   1 - 2 - ... - (n-1) <= n            (node n long)
    D_n   1 - 2 - ... - (n-2) < {n-1, n}      (fork at node n-2)
    E_n   1 - 3 - 4 - 5 - 6 [- 7 [- 8]]       (node 2 hangs off node 4)
    F_4   1 - 2 => 3 - 4                      (nodes 1, 2 long)
    G_2   1 <<= 2                             (node 1 short)

What else a type letter fixes, the ranks it takes and its number of positive roots |Phi+|, is
one entry of one table, ``_TYPES``: the rank check and the root builder's bound read it alike.

The Cartan matrix convention is ``cartan[i][j] = <alpha_i, alpha_j^vee>``, so
row i is the i-th simple root written in fundamental-weight coordinates. The
symmetrizer and -w0 on the nodes are derived from it when the root system is built, -w0 by
one reflection walk, and stored as the node permutation ``minus_w0`` that ``bott.bwb`` applies
to each cohomology weight; where -w0 fixes every node (all types but A_n for n >= 2, D_n for n
odd and E6) that field is None and a dual is the weight itself.

Bott's dot action w . lambda = w(lambda + rho) - rho is the one walk the engine makes per
weight: ``dominantize`` takes lambda, and on a memo miss shifts it by rho (all ones), walks and
unshifts, so a hit costs one lookup and no Python frame; a coefficient -1 of lambda puts
lambda + rho on a wall, found with no walk.

Weyl dimensions walk a root chain: each non-simple positive root is a
positive root beta plus a simple root (Humphreys, Lie Algebras, 10.2), so its
pairing with lambda + rho is beta's plus one integer; the denominator is stored.

Inputs are checked once, where they enter: ``Weight`` its coefficients, ``ParabolicSpace`` its
nodes, each public function (and ``bott.bwb``, which also checks P-dominance) the type and rank of
its weight, in one comparison (``_check_weight`` runs only to raise): a plain tuple equals the
``Weight`` of its ints but was never checked. Weights derived here (walks) skip the check.

All values are immutable after construction and every operation is a pure
function; concurrent reads from multiple threads are safe. A memo (a thread-safe, typed
``lru_cache``, so a plain tuple never gets a ``Weight``'s entry) sits on the checked public
function whose work it saves: a miss runs the check, a hit needs none, a raise stores nothing.
``dominantize`` and ``weyl_dimension`` key by (root system, weight as given), ``_MEMO_SIZE``
each; ``ParabolicSpace``, its nodes checked and made a frozenset, by (root system, crossed set)
in ``_parabolic_space``, ``_SPACE_MEMO_SIZE``; a root system is one object per type and rank,
equal only to itself. ``bott.bwb``, a traced layer, has none. Every other record is a tuple of
its fields (a ``collections.namedtuple``, or a ``_Record`` where construction validates), so
records of two types compare equal when their fields do.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache, partial
from math import gcd, prod
from itertools import compress
from operator import add, gt, itemgetter

__all__ = [
    "Weight",
    "RootSystem",
    "ParabolicSpace",
    "build_root_system",
    "dominantize",
    "weyl_dimension",
    "adjoint_dimension",
]

_MEMO_SIZE = 4096  # entries per kernel memo, above the distinct weights of one Koszul pass
_SPACE_MEMO_SIZE = 256  # parabolic spaces held, above the 44 distinct spaces of one Koszul pass
# the largest rank of types A-D, that of the largest system any check builds (A100, 5,050
# positive roots, in about 0.15 s); without it a twenty-digit rank runs the builder without end
_MAX_RANK = 100
# per type letter: the valid ranks as a caller is told them, and |Phi+| at a valid rank n
# (Bourbaki, Plates I-IX), falsy at any other; the builder stops past |Phi+|, so a Cartan matrix
# of non-finite type fails at once instead of building heights without end
_TYPES = {
    "A": (f"1 <= n <= {_MAX_RANK}", lambda n: 1 <= n <= _MAX_RANK and n * (n + 1) // 2),
    "B": (f"2 <= n <= {_MAX_RANK}", lambda n: 2 <= n <= _MAX_RANK and n * n),
    "C": (f"3 <= n <= {_MAX_RANK}", lambda n: 3 <= n <= _MAX_RANK and n * n),
    "D": (f"4 <= n <= {_MAX_RANK}", lambda n: 4 <= n <= _MAX_RANK and n * (n - 1)),
    "E": ("n in {6, 7, 8}", {6: 36, 7: 63, 8: 120}.get),
    "F": ("n = 4", lambda n: n == 4 and 24),
    "G": ("n = 2", lambda n: n == 2 and 6),
}


class _Record(tuple):
    """A record of several fields whose constructor validates (``ParabolicSpace``, ``BundleLabel``,
    ``BundleSum``; a ``Weight`` or a ``Partition`` is the tuple of its ints instead): a tuple of
    the fields its subclass annotates, in order, each read by name. The subclass ``__new__`` runs
    the checks and ends in ``tuple.__new__``; copy and pickle, at every protocol, call it again
    on the fields through ``__reduce__``, so they re-run the checks, and there is no ``_make`` or
    ``_replace`` to skip them. Only ``_trusted`` skips them, for fields computed from already
    validated records in this package: it takes the tuple of fields and is ``tuple.__new__`` bound
    to the subclass, with no Python frame."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        setattr(cls, "_trusted", partial(tuple.__new__, cls))
        cls._fields = tuple(cls.__annotations__)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __reduce__(self):
        return type(self), self[:]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


class Weight(tuple):
    """Integral weight in fundamental-weight coordinates: the tuple of its int coefficients.

    ``coeffs[i]`` is the pairing with the (i+1)-th simple coroot (1-based
    Bourbaki node i+1). A coefficient that is not an ``int`` is rejected, never truncated.
    It has no arithmetic of its own: ``+`` and ``*`` are the tuple's and return a plain tuple,
    which every public function rejects.
    Copy and pickle, at every protocol, call the constructor again through ``__reduce__``, so
    they re-run the check; only ``_trusted`` (``tuple.__new__`` bound to the class) skips it,
    for ints derived from checked ones.
    """

    __slots__ = ()
    coeffs = property(tuple)  # the plain tuple of the coefficients
    _trusted = classmethod(tuple.__new__)

    def __new__(cls, coeffs: Iterable[int]) -> "Weight":
        coeffs = tuple(coeffs)
        for c in coeffs:
            if type(c) is not int:
                raise ValueError(f"weight coefficient {c!r} in {coeffs!r} is not an integer")
        return tuple.__new__(cls, coeffs)

    def __reduce__(self):
        return type(self), (tuple(self),)

    def __repr__(self) -> str:
        return f"Weight(coeffs={tuple(self)!r})"

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self)) + ")"


class RootSystem(
    namedtuple(
        "RootSystem",
        "type_letter rank cartan positive_roots rho symmetrizer root_chain rho_product neighbours minus_w0",
    )
):
    """Cartan data of one simple type, with its positive roots precomputed.

    ``type_letter`` and ``rank`` name the type; ``cartan`` is the Cartan matrix as a tuple
    of int rows and ``rho`` the ``Weight`` with every coefficient 1.
    ``positive_roots`` are integer coordinate vectors over the simple roots,
    in graded lexicographic order (so golden outputs are stable).
    ``symmetrizer`` holds the coprime positive integers d_j with
    <alpha_i, alpha_j^vee> * d_j symmetric, derived from the Cartan matrix; these
    carry the root-length data used by the Weyl dimension formula.
    ``root_chain[k]`` is (-1, i) if ``positive_roots[k]`` is alpha_i (0-based i),
    else (p, i) with p < k, positive_roots[k] = positive_roots[p] + alpha_i and i
    the least such index; each entry is recorded as its root is found.
    ``rho_product`` is the Weyl product's denominator over them all.
    ``neighbours[i]`` holds the off-diagonal nonzeros of Cartan row i as 0-based
    (j, cartan[i][j]) pairs: the Dynkin neighbours of node i + 1.
    ``minus_w0`` is -w0 on the 0-based nodes: the dual of a weight has at index j
    the weight's coefficient at index ``minus_w0[j]``; it is None when -w0 fixes
    every node.
    These last four are derived from the others, and like them take part in
    ``repr``; equality is identity (one object per type and rank).
    """

    __slots__ = ()

    # build_root_system makes one object per type and rank, so a system is equal only to itself
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __reduce__(self):  # copy, deepcopy and pickle return that object
        return build_root_system, (self.type_letter, self.rank)

    @property
    def name(self) -> str:
        return f"{self.type_letter}{self.rank}"

    def __str__(self) -> str:
        return self.name


def _cartan_matrix(type_letter: str, rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if type_letter in ("A", "B", "C"):
        for i in range(rank - 1):
            edge(i, i + 1)
        if type_letter == "B":  # row n-1 reads -2 against the short node n
            a[rank - 2][rank - 1] = -2
        elif type_letter == "C":  # row n reads -2 against the short node n-1
            a[rank - 1][rank - 2] = -2
    elif type_letter == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif type_letter == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
            edge(i, j)
        if rank >= 7:
            edge(5, 6)
        if rank == 8:
            edge(6, 7)
    elif type_letter == "F":
        edge(0, 1)
        edge(1, 2, aij=-2, aji=-1)
        edge(2, 3)
    elif type_letter == "G":
        edge(0, 1, aij=-1, aji=-3)
    return a


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The coprime positive d with a_ij d_j = a_ji d_i, so that a_ij d_j is symmetric.

    Propagated from node 1 along the Dynkin tree as d_j = d_i a_ji / a_ij; every
    value found so far is scaled by -a_ij first, which keeps them integers.
    """
    d = [1] + [0] * (len(cartan) - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j, a_ij in enumerate(cartan[i]):
            if a_ij and not d[j]:
                d_j = -d[i] * cartan[j][i]
                d = [-a_ij * x for x in d]
                d[j] = d_j
                stack.append(j)
    g = gcd(*d)
    return tuple(x // g for x in d)


def _coroot_pairing(cartan: tuple[tuple[int, ...], ...], coords: Iterable[int], i: int) -> int:
    """<beta, alpha_i^vee> for beta given in simple-root coordinates."""
    return sum(c * row[i] for c, row in zip(coords, cartan))


def _positive_roots(
    cartan: tuple[tuple[int, ...], ...], rank: int, count: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]:
    """The positive roots in graded lexicographic order and their root chain, in one pass by height.

    Each root of the current height carries its chain entry, its pairings <beta, alpha_j^vee>
    and its alpha_j-string lengths p_j, the number of roots beta - alpha_j, beta - 2 alpha_j, ...
    beta + alpha_i is a root exactly when p_i > <beta, alpha_i^vee> (Humphreys, 8.4); the new
    root pairs as beta plus Cartan row i, and its p_i is beta's plus one (its p_j stays 0 when no
    root of this height reaches it through alpha_j). A height is listed in lexicographic order,
    so a root's index is known before the next height is built; and gamma - alpha_i precedes
    gamma - alpha_j for i < j, so the least simple root that reaches a root reaches it first and
    is kept. ``count`` is |Phi+| of the type: a root past it, or a total short of it, raises
    ``AssertionError``, so a Cartan matrix of non-finite type stops the builder at once.
    """
    roots, chain = [], []
    level = {tuple(int(j == i) for j in range(rank)): ((-1, i), cartan[i], [0] * rank) for i in range(rank)}
    while level:
        nxt: dict[tuple[int, ...], tuple] = {}
        for k, beta in enumerate(sorted(level), len(roots)):
            if k == count:
                raise AssertionError(
                    f"root builder passed |Phi+| = {count}: the Cartan matrix is not of finite type"
                )
            link, pairs, p = level[beta]
            roots.append(beta)
            chain.append(link)
            for i in compress(range(rank), map(gt, p, pairs)):
                gamma = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                carried = nxt.setdefault(gamma, ((k, i), tuple(map(add, pairs, cartan[i])), [0] * rank))
                carried[2][i] = p[i] + 1
        level = nxt
    if len(roots) != count:
        raise AssertionError(f"root builder found {len(roots)} positive roots, not |Phi+| = {count}")
    return tuple(roots), tuple(chain)


def _pairings(chain, symmetrizer: tuple[int, ...], coeffs: tuple[int, ...]) -> list[int]:
    """<lambda + rho, alpha^vee> for each positive root in chain order, times a per-root factor."""
    s = [(c + 1) * d for c, d in zip(coeffs, symmetrizer)]
    values: list[int] = []
    for parent, i in chain:
        values.append(s[i] if parent < 0 else values[parent] + s[i])
    return values


@lru_cache(maxsize=None, typed=True)
def build_root_system(type_letter: str, rank: int) -> RootSystem:
    """Construct the simple root system of the given type and rank.

    Positive roots are built by height together with their root chain; the
    ordering is graded lexicographic in simple-root coordinates.
    """
    letter = str(type_letter).strip().upper()
    if letter not in _TYPES:
        valid = ", ".join(f"{t} ({r[0]})" for t, r in _TYPES.items())
        raise ValueError(f"unknown type {type_letter!r}; valid types: {valid}")
    rule_text, rule = _TYPES[letter]
    if type(rank) is not int or not (count := rule(rank)):
        raise ValueError(f"invalid rank {rank!r} for type {letter}; valid range: {rule_text}")
    if letter != type_letter:  # any other spelling of the letter gets the canonical object
        return build_root_system(letter, rank)
    cartan = tuple(tuple(row) for row in _cartan_matrix(letter, rank))
    sym = _symmetrizer(cartan)
    roots, chain = _positive_roots(cartan, rank, count)
    rs = RootSystem(
        type_letter=letter,
        rank=rank,
        cartan=cartan,
        positive_roots=roots,
        rho=Weight((1,) * rank),
        symmetrizer=sym,
        root_chain=chain,
        rho_product=prod(_pairings(chain, sym, (0,) * rank)),
        neighbours=tuple(
            tuple((j, a) for j, a in enumerate(row) if a and j != i) for i, row in enumerate(cartan)
        ),
        minus_w0=None,
    )
    # -w0 maps omega_i to omega_sigma(i), so the walk of the antidominant
    # -(omega_1 + 2 omega_2 + ... + n omega_n) ends at the weight whose coefficient at node
    # sigma(i) is i (Humphreys, 10.3)
    sigma = tuple(i - 1 for i in _walk(rs, range(-1, -rank - 1, -1))[0])
    return rs if sigma == tuple(range(rank)) else rs._replace(minus_w0=sigma)


def adjoint_dimension(rs: RootSystem) -> int:
    """Dimension of the simple Lie algebra: root spaces plus the Cartan."""
    return 2 * len(rs.positive_roots) + rs.rank


def _check_weight(rs: RootSystem, w: Weight) -> None:
    if type(w) is not Weight:
        raise ValueError(f"weight {w!r} is a {type(w).__name__}, not a Weight of rank {rs.rank}")
    raise ValueError(f"rank mismatch: weight {w} has rank {len(w)}, root system is {rs.name}")


def _check_nodes(rs: RootSystem, nodes: Iterable[int]) -> frozenset[int]:
    """The set of the 1-based crossed ``nodes``, once each is known to be a distinct int in
    1..rank: ``nodes`` is named whole if it is not iterable, else the first node that is not an
    int or repeats one before it, else every node out of range."""
    if not isinstance(nodes, Iterable):
        raise ValueError(f"crossed nodes {nodes!r} are not a collection of ints")
    nodes, seen = tuple(nodes), set()
    for i in nodes:
        if type(i) is not int:
            raise ValueError(f"crossed node {i!r} in {nodes!r} is not an integer")
        if i in seen:
            raise ValueError(f"crossed node {i} is given twice in {nodes!r}")
        seen.add(i)
    if seen and (min(seen) < 1 or max(seen) > rs.rank):
        bad = sorted(i for i in seen if not 1 <= i <= rs.rank)
        raise ValueError(f"crossed nodes {bad} out of range 1..{rs.rank}")
    return frozenset(seen)


def _check_positive(value: int) -> None:
    """A positive int: a summand's multiplicity in a direct sum, in ``bott`` and ``schur`` alike."""
    if type(value) is not int or value <= 0:  # a float or a bool is no count
        raise ValueError(f"multiplicity must be a positive int, got {value!r}")


def _walk(rs: RootSystem, coeffs: Iterable[int]) -> tuple[Weight, int]:
    """Reflect at a node with a negative coefficient while there is one, for checked ints of
    rank ``rs.rank``.

    A stack holds the nodes that may be negative, and a reflection lowers, and may push, only
    its Dynkin neighbours (``rs.neighbours``). Returns the dominant weight and the number of
    reflections, both independent of the order: each reflection removes exactly one positive
    root from those pairing negatively with the weight (Humphreys, 10.3), so the count never
    exceeds the number of positive roots.
    """
    coeffs = list(coeffs)
    stack = [i for i, c in enumerate(coeffs) if c < 0]
    bound = len(rs.positive_roots)
    neighbours = rs.neighbours
    length = 0
    while stack:
        i = stack.pop()
        ci = coeffs[i]
        if ci >= 0:
            continue
        coeffs[i] = -ci
        for j, a in neighbours[i]:
            cj = coeffs[j] = coeffs[j] - ci * a
            if cj < 0:
                stack.append(j)
        length += 1
        if length > bound:
            raise AssertionError("reflection walk exceeded the longest-element bound")
    return Weight._trusted(coeffs), length  # int steps from checked ints


@lru_cache(maxsize=_MEMO_SIZE, typed=True)  # typed: a plain tuple is no Weight
def dominantize(rs: RootSystem, w: Weight) -> tuple[Weight, int] | None:
    """Bott's dot action on lambda = ``w``: x . lambda = x(lambda + rho) - rho, for the Weyl
    element x that makes it dominant.

    Returns None when lambda + rho is singular: its dominant representative has a
    zero coefficient (lambda + rho is then orthogonal to a root, a Weyl-invariant
    property). Otherwise returns (mu, length): mu + rho = x(lambda + rho) is strictly
    dominant, so every coefficient of mu is >= 0, and the reflection count is the length of the
    unique x. A coefficient -1 of lambda puts lambda + rho on a wall already, so no walk is made.
    """
    if type(w) is not Weight or len(w) != rs.rank:
        _check_weight(rs, w)
    if -1 in w:
        return None
    # rho is all ones: the shift and the unshift run on a miss only
    dominant, length = _walk(rs, [c + 1 for c in w])
    return None if 0 in dominant else (Weight._trusted([c - 1 for c in dominant]), length)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)  # typed: a plain tuple is no Weight
def weyl_dimension(rs: RootSystem, dominant: Weight) -> int:
    """Exact dimension of the irreducible representation with this highest weight.

    Product over positive roots of <lambda + rho, alpha^vee> / <rho, alpha^vee>,
    exact: one addition per root along ``rs.root_chain``, over ``rs.rho_product``.
    """
    if type(dominant) is not Weight or len(dominant) != rs.rank:
        _check_weight(rs, dominant)
    if min(dominant) < 0:
        i, c = next((i, c) for i, c in enumerate(dominant) if c < 0)
        raise ValueError(f"weight {dominant} is not dominant: coefficient {c} at node {i + 1}")
    value, remainder = divmod(prod(_pairings(rs.root_chain, rs.symmetrizer, dominant)), rs.rho_product)
    if remainder:
        raise AssertionError("Weyl dimension product failed to be integral")
    return value


class ParabolicSpace(_Record):
    """A rational homogeneous space G/P, P given by crossed Dynkin nodes.

    Construction validates the crossed set on every call, then returns the one space of
    (``rs``, crossed set) from a memo of ``_SPACE_MEMO_SIZE`` spaces, which splits the positive
    roots once per key, by the crossed nodes' columns: ``nilradical`` holds those whose
    simple-root support meets a crossed node, one per dimension of G/P. ``uncrossed`` and
    ``nilradical`` are derived from ``rs`` and ``crossed`` and take part in equality and
    ``repr``, so a space the memo has evicted and built again equals the old one; copy and
    pickle call the constructor on ``rs`` and ``crossed``, so they return the memo's object.
    """

    __slots__ = ()
    rs: RootSystem
    crossed: frozenset[int]
    uncrossed: tuple[int, ...]
    nilradical: tuple[tuple[int, ...], ...]

    def __new__(cls, rs: RootSystem, crossed: Iterable[int]) -> "ParabolicSpace":
        crossed = _check_nodes(rs, crossed)
        if not crossed:
            raise ValueError(
                "a parabolic space needs at least one crossed node; the crossed node set "
                "must be nonempty"
            )
        return _parabolic_space(rs, crossed)

    def __reduce__(self):
        return ParabolicSpace, self[:2]

    @property
    def dimension(self) -> int:
        return len(self.nilradical)

    def __str__(self) -> str:
        nodes = ",".join(str(i) for i in sorted(self.crossed))
        return f"{self.rs.name}/P({nodes})"


@lru_cache(maxsize=_SPACE_MEMO_SIZE)
def _parabolic_space(rs: RootSystem, crossed: frozenset[int]) -> ParabolicSpace:
    """The space of checked nodes: a root system keys by identity, a frozenset by its cached hash."""
    roots = rs.positive_roots
    columns = tuple(zip(*roots))  # columns[i - 1]: every root's coefficient at node i
    meets = tuple(map(any, zip(*[columns[i - 1] for i in crossed])))
    uncrossed = tuple(i for i in range(1, rs.rank + 1) if i not in crossed)
    nilradical = tuple(compress(roots, meets))
    return tuple.__new__(ParabolicSpace, (rs, crossed, uncrossed, nilradical))
