"""Traced child process of the ``cli_cold`` workload.

Usage: ``python cli_child.py STATS_PATH CLI_ARGS...``

Times the import of ``gpcoh.cli``, installs the span wrappers the in-process
runs use, calls ``gpcoh.cli.main(CLI_ARGS)`` and writes the spans, the
import time and the ``build_root_system`` cache counters to STATS_PATH as
JSON. The exit status is the one ``main`` returned.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from spans import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import gpcoh.cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = gpcoh.cli.main(argv)
    finally:
        tracer.uninstall()
    cache = sys.modules["gpcoh.root_system"].build_root_system.cache_info()
    stats = tracer.snapshot()
    stats.update(import_s=import_s, cache_hits=cache.hits, cache_misses=cache.misses)
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
