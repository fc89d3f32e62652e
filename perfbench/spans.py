"""Span tracing around the public functions of each ``gpcoh`` layer.

A traced run rebinds each wrapped function in every loaded ``gpcoh`` module
namespace that holds it by name (``koszul`` imported its own
``bundle_cohomology``, ``cli`` its own ``bwb``, and so on), so calls between
layers pass through the wrappers too. Spans are aggregated per name in
memory: calls, self time (duration minus the wrapped spans nested in it)
and the result counters the per-layer metrics need.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# span name -> (home module, function names, result counter or None)
SPANS = {
    "root_system.dominantize": ("root_system", ("dominantize",), None),
    "root_system.weyl_dimension": ("root_system", ("weyl_dimension",), None),
    "bott.bwb": ("bott", ("bwb",), lambda r: ("nonvanishing", 0 if r.all_vanish else 1)),
    "bott.bundle_cohomology": ("bott", ("bundle_cohomology",), None),
    "schur.lr_coefficients": ("schur", ("lr_coefficients",), lambda r: ("shapes_out", len(r))),
    "schur.tensor": ("schur", ("tensor",), None),
    "schur.exterior_power_sum": ("schur", ("exterior_power_sum",), None),
    "schur.sum_to_weights": ("schur", ("sum_to_weights",), None),
    "koszul.build_koszul": ("koszul", ("build_koszul",), None),
    "koszul.chase": ("koszul", ("chase",), lambda r: ("determined", 1 if r.determined else 0)),
    "scenarios.load_scenario": ("scenarios", ("load_scenario",), None),
    "scenarios.report": (
        "scenarios",
        ("run_cayley", "run_vmrt_audit", "run_theorem1_audit", "run_adjunction_audit"),
        None,
    ),
    "cli.main": ("cli", ("main",), None),
}


def gpcoh_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "gpcoh" or name.startswith("gpcoh.")]


class Tracer:
    """Aggregated spans; ``install`` rebinds, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()  # "span:counter" -> sum
        self._open: list[float] = []  # per open span: time covered by its children
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = self._open.pop()
                self.calls[span] += 1
                self.self_s[span] += dt - children
                if self._open:
                    self._open[-1] += dt
            if counter is not None:
                key, value = counter(result)
                self.counters[f"{span}:{key}"] += value
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = gpcoh_modules()
        for span, (home, names, counter) in SPANS.items():
            home_module = sys.modules.get(f"gpcoh.{home}")
            if home_module is None:
                continue
            for name in names:
                original = getattr(home_module, name)
                wrapper = self._wrap(span, original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Plain-data copy of the aggregates, for deltas and for export."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counters": dict(self.counters)}
