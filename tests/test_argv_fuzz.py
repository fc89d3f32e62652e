"""A fixed mutation fuzz of the ``gpcoh`` command line, run in process.

Each case is one argv of ``test_golden.COMMANDS`` with one token dropped, repeated, swapped
with its right neighbour, or replaced by one of ``TOKENS``. However the argv is broken,
``cli.main`` fails closed: no exception escapes, the exit status is 0, 1 or 2, and an exit 2
prints exactly one line (an ``error:`` line, or the JSON error document). The test lists every
case that breaks one of these rules, so one run shows them all.

The mutations are listed in a fixed order and all of them run: 1,289 cases, which take under
2 s together, so no random sample is drawn and every run sees the same cases.
"""

import contextlib
import io
from pathlib import Path

from gpcoh.cli import main

from test_golden import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
TOKENS = ("", "-1", "x", "--format", "--rows", "99999999999999999999")


def _mutations(argv: list[str]):
    """Each one-token mutation of ``argv``, in a fixed order."""
    for i in range(len(argv)):
        yield argv[:i] + argv[i + 1:]
        yield argv[:i + 1] + argv[i:]
        if i + 1 < len(argv):
            yield argv[:i] + [argv[i + 1], argv[i]] + argv[i + 2:]
        yield from (argv[:i] + [token] + argv[i + 1:] for token in TOKENS)


def _fault(argv: list[str]) -> str | None:
    """How ``gpcoh`` with ``argv`` breaks a rule of the fuzz, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # a SystemExit too: main must return its status
        return f"{type(exc).__name__} escaped: {exc}"
    if code not in (0, 1, 2):
        return f"exit {code}"
    printed = out.getvalue() + err.getvalue()
    if code == 2 and printed.count("\n") != 1:
        return f"exit 2 printed {printed!r}"
    return None


def test_every_one_token_mutation_of_a_golden_command_fails_closed(monkeypatch):
    monkeypatch.chdir(ROOT)  # the golden commands name tests/data files relative to the root
    cases = [mutated for _, argv, _ in COMMANDS for mutated in _mutations(argv)]
    assert len(cases) == 1289
    faults = [f"{' '.join(argv)}: {fault}" for argv in cases if (fault := _fault(argv))]
    assert faults == []
