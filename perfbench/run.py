"""End-to-end benchmark of gpcoh, with a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-benchmark-json

Each workload (see ``workloads.py``) runs as a closed loop with one client in
one process: the next operation starts when the previous one has finished.
The case list comes from ``--seed``. A run makes a fixed number of whole
passes over it, ``round(seconds / pass_s)``, where ``pass_s`` is the wall
time of one pass that each workload states for the reference host (2 cores,
Python 3.11), and at least enough for ``MIN_OPS`` operations: the run
measures for about ``--seconds`` there, and the same code and seed attempt
the same operations, and fail the same ones, on every run. On a slower host
a run takes longer. Every output is checked.

Host normalization: every timing is taken on the wall clock and rescaled to
``t * K_NOM_MS / k_local``. The fixed reference kernel in ``kernel.py`` is
timed immediately before a timed interval whenever 25 ms have passed since
it last ran (up to three times after a longer gap), and ``k_local`` is the
mean of up to three kernel timings on either side of the interval.
``cli_cold`` times whole processes, and interpreter start-up does not track
in-process speed on a shared host (a fresh ``gpcoh`` process varied by 8%
between windows against the kernel and by 2% against a bare interpreter),
so there the reference is the kernel run in a fresh interpreter, sampled
every 250 ms, with ``PROCESS_NOM_MS``; its raw times are then what
``host.kernel_ms`` reports. Changing the kernel rebases every number.

``setup_s`` is the median of ``SETUP_REPEATS`` set-ups, each a fresh import
of ``gpcoh``, input generation and warm-up; for ``cli_cold`` each empties
the children's bytecode cache and warms it with one child.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` the run alternates untraced and traced passes; traced passes
rebind the public functions of each layer (``spans.py``) and the last line
reports the per-layer metrics, per operation and host-normalized, plus the
tracing overhead against the untraced passes. The spans are also written to
``.perfbench/trace-<workload>-<seed>.json``.

The last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``failed`` counts operations that raised or failed their
check, ``failed_frac`` (printed on the line before) is ``failed /
attempted``. ``correct`` is false when a case with a known answer failed,
which is a regression; wrong answers that the Koszul oracles find on
generated cases are the open chase defect and count only as failures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from kernel import K_NOM_MS, PROCESS_NOM_MS, time_kernel, time_kernel_process
from spans import Tracer
from workloads import WORKLOADS, gpcoh_namespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
PYCACHE = STATE / "pycache"

RUN_SECONDS = 14
MIN_OPS = 100  # op_p90_ms needs this many timed operations
KERNEL_EVERY_S = 0.025
PROCESS_EVERY_S = 0.25
KERNEL_WINDOW = 3
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 60

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_p90_ms", "ms", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
# failed_frac is printed with the others but is no BENCHMARK.json metric:
# it is 0 on most workloads, and the result line carries attempted and failed.
PER_LAYER = (
    ("root_system.dominantize.calls", "count", "lower"),
    ("root_system.dominantize.self_ms", "ms", "lower"),
    ("root_system.weyl_dimension.calls", "count", "lower"),
    ("root_system.weyl_dimension.self_ms", "ms", "lower"),
    ("root_system.build_root_system.hit_ratio", "ratio", "higher"),
    ("bott.bwb.calls", "count", "lower"),
    ("bott.bwb.self_ms", "ms", "lower"),
    ("bott.bwb.nonvanishing_ratio", "ratio", "higher"),
    ("bott.bundle_cohomology.calls", "count", "lower"),
    ("bott.bundle_cohomology.self_ms", "ms", "lower"),
    ("schur.lr_coefficients.calls", "count", "lower"),
    ("schur.lr_coefficients.self_ms", "ms", "lower"),
    ("schur.lr_coefficients.shapes_out", "count", "higher"),
    ("schur.tensor.calls", "count", "lower"),
    ("schur.tensor.self_ms", "ms", "lower"),
    ("schur.exterior_power_sum.calls", "count", "lower"),
    ("schur.exterior_power_sum.self_ms", "ms", "lower"),
    ("schur.sum_to_weights.self_ms", "ms", "lower"),
    ("koszul.build_koszul.self_ms", "ms", "lower"),
    ("koszul.chase.self_ms", "ms", "lower"),
    ("koszul.chase.determined_ratio", "ratio", "higher"),
    ("scenarios.load_scenario.self_ms", "ms", "lower"),
    ("scenarios.report.self_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.process_ms", "ms", "lower"),
    ("host.kernel_ms.p25", "ms", "lower"),
    ("host.kernel_ms.p50", "ms", "lower"),
    ("host.kernel_ms.p75", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
# result counters behind the ratio metrics: metric -> (span, counter, per)
RATIOS = {
    "bott.bwb.nonvanishing_ratio": ("bott.bwb", "nonvanishing", "calls"),
    "schur.lr_coefficients.shapes_out": ("schur.lr_coefficients", "shapes_out", "ops"),
    "koszul.chase.determined_ratio": ("koszul.chase", "determined", "calls"),
}


class HostClock:
    """Reference-kernel samples. ``mark`` takes the samples that are due
    before a timed interval; ``factor`` turns the mark into the interval's
    normalization factor once the samples after it exist too."""

    def __init__(self, sample=time_kernel, nominal_ms: float = K_NOM_MS, every_s: float = KERNEL_EVERY_S) -> None:
        self.sample, self.nominal_ms, self.every_s = sample, nominal_ms, every_s
        self.samples: list[float] = []
        self._last = float("-inf")

    def mark(self) -> int:
        due = int(min(KERNEL_WINDOW, (perf_counter() - self._last) / self.every_s))
        for _ in range(due):
            self.samples.append(self.sample())
        if due:
            self._last = perf_counter()
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """Nominal time over the mean of the samples on either side of the mark."""
        window = self.samples[max(0, mark - KERNEL_WINDOW) : mark + KERNEL_WINDOW]
        return self.nominal_ms / statistics.fmean(window)


class Tally:
    """Raw latencies, their clock marks and check outcomes of one kind of pass."""

    def __init__(self) -> None:
        self.timed: list[tuple[float, int]] = []
        self.failed = 0
        self.regressions = 0
        self.reasons: Counter = Counter()

    def record(self, raw_ms: float, mark: int, reason: str | None, pinned: bool) -> None:
        self.timed.append((raw_ms, mark))
        if reason is not None:
            self.failed += 1
            self.regressions += pinned
            self.reasons[reason] += 1

    def latencies(self, clock: HostClock) -> list[float]:
        return [ms * clock.factor(mark) for ms, mark in self.timed]


class LayerTotals:
    """Per-layer sums over the traced operations. Counts add up directly;
    times are kept per op with its clock mark and normalized at the end."""

    def __init__(self) -> None:
        self.ops = 0
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()  # "span:counter" -> sum
        self.cache: Counter = Counter()  # build_root_system hits and misses
        self.timed: list[tuple[int, dict]] = []  # (mark, {span or metric: raw ms})

    def add(self, mark: int, calls: dict, self_s: dict, counters: dict, extra_ms: dict | None = None) -> None:
        self.ops += 1
        self.calls.update(calls)
        self.counters.update(counters)
        self.timed.append((mark, {**{k: v * 1000.0 for k, v in self_s.items()}, **(extra_ms or {})}))

    def normalized_ms(self, clock: HostClock) -> Counter:
        total: Counter = Counter()
        for mark, times in self.timed:
            factor = clock.factor(mark)
            for name, ms in times.items():
                total[name] += ms * factor
        return total


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


class SpanDeltas:
    """Adds each traced in-process op's span deltas to the layer totals."""

    def __init__(self, tracer: Tracer, layers: LayerTotals) -> None:
        self.tracer, self.layers = tracer, layers

    def before(self):
        return self.tracer.snapshot()

    def after(self, before, mark: int, elapsed_s: float) -> None:
        after = self.tracer.snapshot()
        self.layers.add(mark, *(_delta(after[k], before[k]) for k in ("calls", "self_s", "counters")))


class ChildStats:
    """Adds the spans a traced cli_cold child wrote to the layer totals."""

    def __init__(self, path: Path, layers: LayerTotals) -> None:
        self.path, self.layers = path, layers

    def before(self):
        self.path.unlink(missing_ok=True)

    def after(self, _, mark: int, elapsed_s: float) -> None:
        if not self.path.exists():
            return  # the child failed before writing; its check counts the failure
        stats = json.loads(self.path.read_text())
        self.path.unlink()
        extra = {"cli.import_ms": stats["import_s"] * 1000.0, "cli.process_ms": elapsed_s * 1000.0}
        self.layers.add(mark, stats["calls"], stats["self_s"], stats["counters"], extra)
        self.layers.cache.update(hits=stats["cache_hits"], misses=stats["cache_misses"])


def run_pass(w, items, op, clock: HostClock, tally: Tally, observe=None) -> None:
    for spec, prepared in items:
        mark = clock.mark()
        state = observe.before() if observe else None
        t0 = perf_counter()
        try:
            result, reason = op(prepared), None
        except Exception as exc:  # an op that raises is a failed op
            reason = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if observe:
            observe.after(state, mark, elapsed)
        if reason is None:
            try:
                reason = w.check(spec, result)
            except Exception as exc:  # malformed output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        tally.record(elapsed * 1000.0, mark, reason, w.pinned(spec))


def pass_count(w, cases: int, seconds: float, trace: bool) -> int:
    """Whole passes of one run over ``cases`` cases: about ``seconds`` on the
    reference host, at least ``MIN_OPS`` operations, and with ``trace`` an
    even number, half of them traced."""
    passes = max(-(-MIN_OPS // cases), round(seconds / w.pass_s))
    return passes + passes % 2 if trace else passes


def measure(w, items, op, clock: HostClock, passes: int, traced_pass=None) -> tuple[Tally, Tally]:
    """``passes`` whole passes. With ``traced_pass``, a context manager
    giving (op, observer), untraced and traced passes alternate. Returns the
    untraced and the traced tally."""
    plain, traced = Tally(), Tally()
    for i in range(passes):
        if traced_pass is None or i % 2 == 0:
            run_pass(w, items, op, clock, plain)
        else:
            with traced_pass() as (traced_op, observe):
                run_pass(w, items, traced_op, clock, traced, observe)
    clock.mark()  # samples after the last op
    return plain, traced


def fresh_gpcoh():
    """Import gpcoh from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "gpcoh" or n.startswith("gpcoh.")]:
        del sys.modules[name]
    pkg = importlib.import_module("gpcoh")
    if Path(pkg.__file__).resolve().parent != SRC / "gpcoh":
        raise RuntimeError(f"imported gpcoh from {pkg.__file__}, not from {SRC}")
    return gpcoh_namespace()


def run_in_process(w, seed: int, passes: int, trace: bool) -> dict:
    clock = HostClock()
    setup = Tally()
    for _ in range(SETUP_REPEATS):
        mark = clock.mark()
        t0 = perf_counter()
        g = fresh_gpcoh()
        cases = w.cases(seed)
        items = [(spec, w.prepare(g, spec)) for spec in cases]
        for spec in w.warmup(cases):
            w.op(g, w.prepare(g, spec))
        setup.record((perf_counter() - t0) * 1000.0, mark, None, False)
    layers = LayerTotals()
    cache_info = g.root_system.build_root_system.cache_info

    def op(prepared):
        return w.op(g, prepared)

    @contextmanager
    def traced_pass():
        tracer, start = Tracer(), cache_info()
        tracer.install()
        try:
            yield op, SpanDeltas(tracer, layers)
        finally:
            tracer.uninstall()
            end = cache_info()
            layers.cache.update(hits=end.hits - start.hits, misses=end.misses - start.misses)

    plain, traced = measure(w, items, op, clock, passes, traced_pass if trace else None)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return dict(clock=clock, setup=setup, plain=plain, traced=traced, layers=layers, rss_mb=rss_mb)


def child_env() -> dict:
    """Environment of cli_cold children: bytecode cached in a benchmark-owned
    prefix (this unsets PYTHONDONTWRITEBYTECODE), gpcoh from src/, and no
    GPCOH_WIDTH."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("GPCOH_WIDTH", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def _spawn(cmd: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_cli(w, seed: int, passes: int, trace: bool) -> dict:
    env = child_env()
    clock = HostClock(lambda: time_kernel_process(env), PROCESS_NOM_MS, PROCESS_EVERY_S)
    STATE.mkdir(exist_ok=True)
    stats_path = STATE / "child-stats.json"
    setup = Tally()
    for _ in range(SETUP_REPEATS):
        mark = clock.mark()
        t0 = perf_counter()
        shutil.rmtree(PYCACHE, ignore_errors=True)
        cases = w.cases(seed)
        items = [(spec, w.prepare(None, spec)) for spec in cases]
        for spec in w.warmup(cases):
            code, _ = _spawn([sys.executable, "-m", "gpcoh.cli", *w.prepare(None, spec)], env)
            if code != 0:
                raise RuntimeError(f"warm-up child exited with status {code}")
        setup.record((perf_counter() - t0) * 1000.0, mark, None, False)
    layers = LayerTotals()

    def op(argv):
        return _spawn([sys.executable, "-m", "gpcoh.cli", *argv], env)

    def traced_op(argv):
        return _spawn([sys.executable, str(HERE / "cli_child.py"), str(stats_path), *argv], env)

    @contextmanager
    def traced_pass():
        yield traced_op, ChildStats(stats_path, layers)

    plain, traced = measure(w, items, op, clock, passes, traced_pass if trace else None)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return dict(clock=clock, setup=setup, plain=plain, traced=traced, layers=layers, rss_mb=rss_mb)


def end_to_end_metrics(res: dict) -> dict:
    lat = res["plain"].latencies(res["clock"])
    values = {
        "ops_per_s": len(lat) / (sum(lat) / 1000.0),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(res["setup"].latencies(res["clock"])) / 1000.0,
        "peak_rss_mb": res["rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def layer_metrics(res: dict) -> dict:
    layers: LayerTotals = res["layers"]
    clock: HostClock = res["clock"]
    ops = layers.ops
    times = layers.normalized_ms(clock)
    q1, q2, q3 = statistics.quantiles(clock.samples, n=4)
    values = {
        "host.kernel_ms.p25": q1,
        "host.kernel_ms.p50": q2,
        "host.kernel_ms.p75": q3,
        "trace.overhead_frac": statistics.fmean(res["traced"].latencies(clock)) / statistics.fmean(res["plain"].latencies(clock)) - 1.0,
        "root_system.build_root_system.hit_ratio": _ratio(layers.cache["hits"], layers.cache["hits"] + layers.cache["misses"]),
    }
    for name, (span, counter, per) in RATIOS.items():
        values[name] = _ratio(layers.counters[f"{span}:{counter}"], layers.calls[span] if per == "calls" else ops)
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = layers.calls[name.removesuffix(".calls")] / ops
        else:
            value = times[name.removesuffix(".self_ms")] / ops
        out[name] = {"value": value, "unit": unit}
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gpcoh").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(w) -> dict:
    if w.name == "cli_cold":
        pyc = sum(1 for p in PYCACHE.rglob("*.pyc") if "gpcoh" in p.parts)
        bytecode = f"children cache bytecode under {PYCACHE.relative_to(ROOT)}, warmed in set-up ({pyc} gpcoh .pyc)"
    else:
        cached = (SRC / "gpcoh" / "__pycache__").is_dir()
        bytecode = (
            f"in-process imports; PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}, "
            f"src/gpcoh/__pycache__ {'present' if cached else 'absent'}"
        )
    return {
        "python": sys.version.split()[0],
        "commit": git_commit(),
        "source_digest": source_digest(),
        "bytecode": bytecode,
        "nproc": os.cpu_count(),
    }


def write_trace(w, seed: int, res: dict) -> None:
    layers: LayerTotals = res["layers"]
    times = layers.normalized_ms(res["clock"])
    doc = {
        "workload": w.name,
        "seed": seed,
        "traced_ops": layers.ops,
        "spans": {
            span: {"calls": layers.calls[span], "self_ms": times[span]}
            for span in sorted(set(layers.calls) | set(times))
        },
        "counters": dict(layers.counters),
        "traced_op_ms": res["traced"].latencies(res["clock"]),
    }
    STATE.mkdir(exist_ok=True)
    (STATE / f"trace-{w.name}-{seed}.json").write_text(json.dumps(doc, indent=1))


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true", help="regenerate BENCHMARK.json and exit")
    ns = parser.parse_args(argv)
    if ns.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if ns.workload is None:
        parser.error("--workload is required")
    if not (SRC / "gpcoh" / "__init__.py").is_file():
        print(f"error: no gpcoh sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[ns.workload]
    trace = bool(ns.trace)
    passes = pass_count(w, len(w.cases(ns.seed)), ns.seconds, trace)
    start = perf_counter()
    res = (run_cli if w.name == "cli_cold" else run_in_process)(w, ns.seed, passes, trace)
    wall_s = perf_counter() - start
    plain, traced = res["plain"], res["traced"]
    attempted = len(plain.timed) + len(traced.timed)
    failed = plain.failed + traced.failed
    print("# env " + json.dumps(environment(w), sort_keys=True))
    e2e = end_to_end_metrics(res)
    shown = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in e2e.items()]
    shown.append(f"failed_frac={failed / attempted:.4g} ratio")
    kernel_q = statistics.quantiles(res["clock"].samples, n=4)
    shown.append("host.kernel_ms=" + "/".join(f"{q:.3g}" for q in kernel_q) + " ms (raw p25/p50/p75)")
    print(f"# {w.name} seed={ns.seed} passes={passes} ops={len(plain.timed)} wall={wall_s:.1f} s " + " ".join(shown))
    for reason, count in (plain.reasons + traced.reasons).most_common(8):
        print(f"# failed x{count}: {reason}")
    if trace:
        missing = [span for span in w.spans if res["layers"].calls[span] == 0]
        if missing:
            print(f"error: the traced run never reached {missing}; a wrapper was not rebound", file=sys.stderr)
            return 1
        write_trace(w, ns.seed, res)
        metrics = layer_metrics(res)
    else:
        metrics = e2e
    result = {
        "correct": plain.regressions + traced.regressions == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
