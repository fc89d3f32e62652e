"""Facts the benchmark checks outputs against, computed without ``gpcoh``.

Nothing here imports the program under test: each oracle is a short,
independent derivation, so an engine defect cannot hide in shared code.
"""

from __future__ import annotations

import hashlib
import json
from math import prod


def gl_dimension(parts, r: int) -> int:
    """dim S_lambda(C^r) by the hook-content formula; 0 beyond r rows."""
    parts = [p for p in parts if p]
    if len(parts) > r:
        return 0
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    num = den = 1
    for i, p in enumerate(parts):
        for j in range(p):
            num *= r + j - i
            den *= (p - j - 1) + (cols[j] - i - 1) + 1
    return num // den


def grassmannian_bott(alpha, n: int) -> dict[int, int]:
    """H^*(Gr(k, n), S^alpha U*) for a weakly decreasing alpha of length k.

    Bott's algorithm for GL_n: add rho = (n, ..., 1) to (alpha, 0^(n-k)); a
    repeated entry means total vanishing, otherwise the number of
    inversions is the degree and the sorted vector minus rho is the highest
    weight of the cohomology, whose dimension is the Weyl product.
    """
    w = list(alpha) + [0] * (n - len(alpha))
    v = [w[i] + n - i for i in range(n)]
    if len(set(v)) < n:
        return {}
    degree = sum(1 for i in range(n) for j in range(i + 1, n) if v[i] < v[j])
    s = sorted(v, reverse=True)
    lam = [s[i] - (n - i) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    num = prod(lam[i] - lam[j] + j - i for i, j in pairs)
    den = prod(j - i for i, j in pairs)
    return {degree: num // den}


def twist_alpha(twist: str, k: int) -> list[int] | None:
    """S^alpha U* form of a twist written "O(t)" or "L<j> U(<t>)", else None.

    O(1) = det U*, and Lambda^j U = Lambda^(k-j) U* (x) O(-1).
    """
    if twist.startswith("O(") and twist.endswith(")"):
        t = int(twist[2:-1])
        return [t] * k
    if twist.startswith("L") and " U(" in twist and twist.endswith(")"):
        j_text, t_text = twist[1:-1].split(" U(")
        j, t = int(j_text), int(t_text)
        return [t] * (k - j) + [t - 1] * j
    return None


def digest(obj) -> str:
    """Short stable digest of a JSON-serializable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def lr_digest(table) -> str:
    """Digest of an LR table {shape: coefficient}, independent of dict order."""
    return digest(sorted([list(shape), c] for shape, c in table))
