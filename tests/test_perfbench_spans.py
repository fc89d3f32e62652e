"""A warm traced pass of the benchmark still reaches every span of its workload.

The benchmark's traced passes (``perfbench/spans.py``) rebind each layer's public function
and fail a run whose traced passes never reach one of the workload's spans. A traced pass
follows a warm untraced one, so a memo put in front of a spanned function would hide that
span: this test runs the first cases of two workloads once untraced and once traced, with
the benchmark's own modules, and so catches such a memo in the suite. The same warm pass pins
the per-op call counts that the benchmark's per-layer metrics compare: one walk per ``bwb``
call and one Weyl product per nonvanishing one. It reads ``perfbench/`` and changes nothing
there.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
CASES = 40


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return spans, workloads


def _warm_traced_pass(bench, name):
    """The workload's first cases, run once untraced and then once traced: (workload, items, tracer)."""
    spans, workloads = bench
    w = workloads.WORKLOADS[name]
    g = workloads.gpcoh_namespace()
    items = [w.prepare(g, spec) for spec in w.cases(0)[:CASES]]
    for prepared in items:
        w.op(g, prepared)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for prepared in items:
            w.op(g, prepared)
    finally:
        tracer.uninstall()
    return w, items, tracer


@pytest.mark.parametrize("name", ["koszul_chase", "bwb_tables"])
def test_a_warm_traced_pass_reaches_every_span_of_the_workload(bench, name):
    w, items, tracer = _warm_traced_pass(bench, name)
    assert [span for span in w.spans if tracer.calls[span] == 0] == []
    assert sum(tracer.calls.values()) > len(items)


def test_bwb_makes_one_walk_per_summand_and_one_weyl_product_per_nonvanishing_one(bench):
    # bwb_tables: each op is one bundle_cohomology call over a list of (weight, multiplicity)
    _, items, tracer = _warm_traced_pass(bench, "bwb_tables")
    calls = tracer.calls
    summands = sum(len(pairs) for _, pairs in items)
    assert calls["root_system.dominantize"] == calls["bott.bwb"] == summands
    assert calls["root_system.weyl_dimension"] == tracer.counters["bott.bwb:nonvanishing"] > 0
    assert calls["bott.bundle_cohomology"] == len(items)


def test_the_koszul_chase_walks_only_inside_bwb(bench):
    _, _, tracer = _warm_traced_pass(bench, "koszul_chase")
    assert tracer.calls["root_system.dominantize"] == tracer.calls["bott.bwb"] > 0
