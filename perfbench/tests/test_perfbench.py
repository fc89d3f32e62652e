"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``.

They sit outside the repository's ``tests/`` so the main suite never
collects them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

import oracles
import run
import spans
import workloads
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def g():
    return run.fresh_gpcoh()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_case_list(name):
    w = WORKLOADS[name]
    assert w.cases(7) == w.cases(7)
    assert w.cases(7) != w.cases(8)


def test_koszul_seeds_order_the_same_cases():
    w = WORKLOADS["koszul_chase"]
    assert sorted(map(json.dumps, w.cases(7))) == sorted(map(json.dumps, w.cases(8)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pass_count_is_fixed(name):
    w = WORKLOADS[name]
    cases = len(w.cases(1))
    least = -(-run.MIN_OPS // cases)
    assert run.pass_count(w, cases, 0.0, False) == least
    assert run.pass_count(w, cases, 0.0, True) == least + least % 2
    assert run.pass_count(w, cases, (least + 3) * w.pass_s, False) == least + 3
    assert run.pass_count(w, cases, (least + 2) * w.pass_s, True) == least + 2 + least % 2


@pytest.mark.parametrize("name", ["koszul_chase", "lr_products", "bwb_tables"])
def test_same_seed_same_per_op_counts(name):
    def counts():
        res = run.run_in_process(WORKLOADS[name], 3, 2, True)
        metrics = run.layer_metrics(res)
        return {k: v["value"] for k, v in metrics.items() if k.endswith((".calls", ".shapes_out", "_ratio"))
                and not k.startswith("trace.")}

    assert counts() == counts()


def test_oracles_known_values():
    # P^3 cut by two linear forms is a line: H^1(O(-4)|_P^1) = 3
    assert oracles.grassmannian_bott([-4], 2) == {1: 3}
    # the canonical bundle of Gr(2,5) is O(-5): H^6 = 1
    assert oracles.grassmannian_bott([-5, -5], 5) == {6: 1}
    assert oracles.grassmannian_bott(oracles.twist_alpha("O(1)", 2), 5) == {0: 10}
    assert oracles.gl_dimension((2, 1), 3) == 8
    assert oracles.gl_dimension((1, 1, 1, 1), 3) == 0


def _koszul_result(g, w, spec):
    return w.op(g, w.prepare(g, spec))


def _fake_chase(dims):
    return SimpleNamespace(determined=True, table=SimpleNamespace(dims=lambda: dict(dims)))


def test_koszul_check_rejects_corruption(g):
    w = WORKLOADS["koszul_chase"]
    anchor = [4, 7, ["L3 U*"], "L3 U*", {0: 34}]
    assert w.check(anchor, _koszul_result(g, w, anchor)) is None
    assert w.check(anchor, _fake_chase({0: 35})) is not None
    # Gr(2,6) cut by U* is Gr(2,5); O(1) there has 10 sections
    case = [2, 6, ["U*"], "O(1)"]
    assert w.check(case, _koszul_result(g, w, case)) is None
    assert w.check(case, _fake_chase({0: 11})) is not None
    # on a mixed section nothing may sit above dim S = 8 - 3 = 5
    mixed = [2, 6, ["O(1)", "U*"], "T"]
    assert w.check(mixed, _fake_chase({5: 1})) is None
    assert w.check(mixed, _fake_chase({6: 1})) is not None


def test_lr_check_rejects_corruption(g):
    w = WORKLOADS["lr_products"]
    spec = workloads._load("lr_pool.json")["anchor"]
    result = w.op(g, w.prepare(g, spec))
    assert w.check(spec, result) is None
    lam = next(iter(result))
    assert w.check(spec, {**result, lam: result[lam] + 1}) is not None
    assert w.check(spec[:3] + ["0" * 16], result) is not None


def test_bwb_check_rejects_corruption(g):
    w = WORKLOADS["bwb_tables"]
    spec = w.cases(1)[0]
    table = w.op(g, w.prepare(g, spec))
    assert w.check(spec, table) is None
    (d, total), *rest = table.total_dims
    bad = g.bott.CohomologyTable(total_dims=((d, total + 1), *rest), entries=table.entries)
    assert w.check(spec, bad) is not None


def test_cli_check_rejects_corruption():
    w = WORKLOADS["cli_cold"]
    spec = ["report", "cayley"]
    proc = subprocess.run(
        [sys.executable, "-m", "gpcoh.cli", *w.prepare(None, spec)],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True, timeout=60,
    )
    assert w.check(spec, (proc.returncode, proc.stdout)) is None
    assert w.check(spec, (1, proc.stdout)) is not None
    doc = json.loads(proc.stdout)
    for section in doc["result"]["sections"]:
        for line in section["lines"]:
            if line["key"] == "h1_tangent_subvariety":
                line["value"] = 1
    assert w.check(spec, (0, json.dumps(doc))) is not None


@pytest.mark.parametrize("name", ["koszul_chase", "lr_products", "bwb_tables"])
def test_wrappers_reach_every_span(g, name):
    w = WORKLOADS[name]
    items = [w.prepare(g, spec) for spec in w.cases(1)[:40]]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for prepared in items:
            w.op(g, prepared)
    finally:
        tracer.uninstall()
    assert {s for s in w.spans if tracer.calls[s] == 0} == set()


def test_wrappers_rebind_every_namespace_and_restore(g):
    originals = {
        (mod, name): getattr(mod, name)
        for mod in spans.gpcoh_modules()
        for _, names, _ in spans.SPANS.values()
        for name in names
        if hasattr(mod, name)
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod, name), fn in originals.items():
            assert getattr(mod, name) is not fn, f"{mod.__name__}.{name} was not rebound"
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn


def test_cli_child_reaches_every_span(tmp_path):
    w = WORKLOADS["cli_cold"]
    calls = {}
    for spec in w.cases(1):
        stats = tmp_path / "stats.json"
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "cli_child.py"), str(stats), *w.prepare(None, spec)],
            env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True, timeout=60,
        )
        assert w.check(spec, (proc.returncode, proc.stdout)) is None
        for span, n in json.loads(stats.read_text())["calls"].items():
            calls[span] = calls.get(span, 0) + n
    assert [s for s in w.spans if not calls.get(s)] == []


def test_benchmark_json_matches_spec():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.benchmark_spec()
