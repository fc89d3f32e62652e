"""The Littlewood-Richardson strip pass against an independent tableau search."""

import json
from pathlib import Path

import pytest

from gpcoh import Partition, lr_coefficients, schur

from conftest import lr_tableau_oracle

LR_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "lr_pool.json"


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_lr_matches_the_tableau_oracle_on_every_small_pair():
    # rows 1-9 span the row counts of the lr_products benchmark pool; swapping the
    # factors must give the same shapes in the same order, whichever factor is shorter
    for total in range(10):
        for size in range(total + 1):
            for mu in _partitions(size):
                for nu in _partitions(total - size):
                    for rows in range(1, 10):
                        out = lr_coefficients(mu, nu, rows)
                        got = {lam.parts: c for lam, c in out.items()}
                        assert got == lr_tableau_oracle(mu, nu, rows), (mu, nu, rows)
                        assert list(lr_coefficients(nu, mu, rows).items()) == list(out.items())


def test_lr_with_an_empty_first_factor_is_the_identity():
    # c^lam_{(),nu} = delta_{lam,nu}, and a nu longer than the row bound gives nothing;
    # the same holds with the empty partition as the second factor
    seen = set()
    for size in range(10):
        for nu in _partitions(size):
            for rows in range(1, 7):
                for got in (lr_coefficients((), nu, rows), lr_coefficients(nu, (), rows)):
                    assert {lam.parts: c for lam, c in got.items()} == lr_tableau_oracle((), nu, rows)
                    assert got == ({} if len(nu) > rows else {Partition(nu): 1})
                seen.add(len(nu) > rows)
    assert seen == {False, True}


def test_lr_of_a_long_column_needs_no_recursion_per_value():
    out = lr_coefficients((1,), (1,) * 60, 61)
    assert {lam.parts: c for lam, c in out.items()} == {(2,) + (1,) * 59: 1, (1,) * 61: 1}


def test_lr_of_a_box_times_a_long_column_grows_by_the_box():
    # the mirror of the test above: the one-row factor is the content either way
    out = lr_coefficients((1,) * 60, (1,), 61)
    assert {lam.parts: c for lam, c in out.items()} == {(2,) + (1,) * 59: 1, (1,) * 61: 1}


def test_lr_square_of_the_five_staircase():
    staircase = (5, 4, 3, 2, 1)
    out = lr_coefficients(staircase, staircase, 10)
    assert len(out) == 1433
    assert sum(out.values()) == 26704


def test_every_key_over_the_lr_pool_is_the_partition_the_constructor_builds():
    # the pass builds its keys without the Partition checks: each must be a partition as built
    pool = json.loads(LR_POOL.read_text())
    keys = 0
    for mu, nu, rows, _ in pool["cases"] + [pool["anchor"]]:
        for key in lr_coefficients(mu, nu, rows):
            assert type(key) is Partition and type(key.parts) is tuple
            assert key == Partition(key.parts) and hash(key) == hash(Partition(key.parts))
            assert len(key.parts) <= rows
            keys += 1
    assert keys > 10_000


PIERI_CASES = [
    # a single-column content on a longer factor, where the row bound cuts strips
    ((4, 3, 3, 1), (1,) * 3, 4),
    ((4, 3, 3, 1), (1,) * 3, 5),
    ((4, 3, 3, 1), (1,) * 3, 12),
    ((4, 3, 3, 2, 1, 1), (1,) * 6, 6),
    ((4, 3, 3, 2, 1, 1), (1,) * 6, 7),
    ((4, 3, 3, 2, 1, 1), (1,) * 6, 12),
    # a column times a column
    ((1,) * 5, (1,) * 5, 12),
    ((1,) * 6, (1,) * 4, 7),
]


@pytest.mark.parametrize("mu,nu,rows", PIERI_CASES)
def test_pieri_past_the_sweep_matches_the_tableau_oracle(monkeypatch, mu, nu, rows):
    calls = []
    strips = schur._vertical_strips
    monkeypatch.setattr(schur, "_vertical_strips", lambda *a: calls.append(a) or strips(*a))
    out = lr_coefficients(mu, nu, rows)
    assert len(calls) == 1  # the content is a single column: Pieri's rule, not the strip pass
    assert {lam.parts: c for lam, c in out.items()} == lr_tableau_oracle(mu, nu, rows)
    # the strip pass orders its keys by their padded rows, largest first
    assert list(out) == sorted(out, key=lambda lam: lam.padded(rows), reverse=True)
    for key in out:
        assert type(key) is Partition and type(key.parts) is tuple
        assert key == Partition(key.parts) and hash(key) == hash(Partition(key.parts))

