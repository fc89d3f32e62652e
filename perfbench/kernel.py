"""Fixed reference kernel that measures how fast this host is right now.

Every timing the benchmark reports is rescaled to host speed as
``t * K_NOM_MS / k_local``, where ``k_local`` is the wall time of one
``reference_kernel()`` call made immediately before the timed interval. The
kernel is pure Python with exact integers, like the program under test, and
shares no code with ``gpcoh``. On a host whose speed drifts between windows
the ratio stays steady where raw wall time does not.

Workloads whose operations are whole processes are normalized the same way
by ``time_kernel_process``: a fresh interpreter that runs the kernel once.
Interpreter start-up does not track in-process speed on a shared host, but a
reference process does (see ``run.py``).

Changing this kernel, ``K_NOM_MS`` or ``PROCESS_NOM_MS`` rebases every
number the benchmark has ever reported: runs made before and after such a
change cannot be compared.
"""

from __future__ import annotations

import subprocess
import sys
import time

# Nominal kernel times in milliseconds, in-process and as a fresh process.
# Gains compare ratios, so they cancel; they only keep normalized figures
# near raw milliseconds on a typical host.
K_NOM_MS = 2.0
PROCESS_NOM_MS = 50.0
KERNEL_CHECKSUM = 10214486041

_MATRIX = tuple(
    tuple(((7 * i + 3) * (5 * j + 1) + i * i - 2 * j) % 23 - 11 for j in range(9))
    for i in range(9)
)


def _bareiss_det(rows: tuple[tuple[int, ...], ...]) -> int:
    """Fraction-free Gaussian elimination: big-integer arithmetic."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _partitions(n: int, cap: int, prefix: tuple[int, ...], out: dict) -> None:
    """Enumerate partitions into tuples and hash them: allocation and dicts."""
    if n == 0:
        key = prefix[: 3]
        out[key] = out.get(key, 0) + len(prefix)
        return
    for part in range(min(n, cap), 0, -1):
        _partitions(n - part, part, prefix + (part,), out)


def _walk(coeffs: list[int], rows: tuple[tuple[int, ...], ...]) -> int:
    """Reflection-style walk on an integer vector: small loops and branches."""
    steps = 0
    for _ in range(200):
        neg = [i for i, c in enumerate(coeffs) if c < 0]
        if not neg:
            break
        i = neg[0]
        ci = coeffs[i]
        for k, x in enumerate(rows[i]):
            coeffs[k] -= ci * x
        steps += 1
    return steps + sum(coeffs)


_CARTAN = tuple(
    tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(7)) for i in range(7)
)


def reference_kernel() -> int:
    """The fixed unit of work; returns a checksum so nothing is optimized away."""
    acc = _bareiss_det(_MATRIX)
    parts: dict = {}
    _partitions(22, 22, (), parts)
    acc += sum(parts.values())
    for s in range(40):
        acc += _walk([(s * (i + 3)) % 9 - 6 for i in range(7)], _CARTAN)
    return acc


def time_kernel() -> float:
    """Wall time of one kernel call, in milliseconds."""
    t0 = time.perf_counter()
    value = reference_kernel()
    elapsed = (time.perf_counter() - t0) * 1000.0
    if value != KERNEL_CHECKSUM:
        raise AssertionError("reference kernel returned a different checksum")
    return elapsed


def time_kernel_process(env: dict) -> float:
    """Wall time of a fresh interpreter that runs the kernel once, in ms."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=60)
    elapsed = (time.perf_counter() - t0) * 1000.0
    if proc.returncode != 0 or proc.stdout.strip() != str(KERNEL_CHECKSUM):
        raise AssertionError(f"reference kernel process failed: {proc.stderr.strip()}")
    return elapsed


if __name__ == "__main__":
    print(reference_kernel())
