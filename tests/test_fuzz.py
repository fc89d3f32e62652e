"""A seeded mutation fuzz of the scenario reader and ``gpcoh koszul``, run in process.

Each case is a copy of one zero-locus file with one mutation, chased through
``cli.main(["koszul", "--scenario", path, "--twist", name])``. However the file is broken,
the command fails closed: no exception escapes, the exit status is 0, 1 or 2, and an exit 2
prints exactly one line, which names the file. Each file's test lists every case that breaks
one of these rules, so one run shows them all.

The files are ``cayley.json`` (its normal twist given one rank hint the chase accepts, so a
hint block exists to mutate), ``tests/data/lg36.json`` and ``tests/data/g2p2.json``. The
mutation classes:

- a leaf or a block retyped, deleted, or set to an edge value: an integer to one of
  ``EDGE_INTS``, except ``ambient.rank``, which takes ``RANK_EDGES``: small ranks, 8, and the
  ranks of ``PAST_CAP`` above the cap of 100 that types A-D allow, which must exit 2 before a
  root system is built (a valid rank of 9 to 100 only builds a larger system and costs time);
- an unknown key put into a block;
- a list emptied, or given a repeat of its first entry;
- a bundle label swapped for one of ``LABELS``, valid or not, with or without global sections.

The mutations of a file are listed in a fixed order and all of them run: 678 cases over the
three files, which take under 2 s together, so no random sample is drawn and every run sees the
same cases.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

from gpcoh.cli import main

from conftest import shipped_scenario

DATA = Path(__file__).resolve().parent / "data"
EDGE_INTS = (0, -1, 1, 2, 10**6)
PAST_CAP = (101, 2**70)
RANK_EDGES = (0, -1, 1, 2, 8, *PAST_CAP)
RETYPED = ("7", 1.5, True, None, [], {})
STRINGS = ("", " ", "x")
LABELS = (
    "O", "O(-1)", "O(2)", "O(-8)", "U", "U*", "Q", "Q*(1)", "L2 U*", "L3 U*", "S2 U*", "T",
    "U * U*", "L3 U* * L3 U*", "W[2,1]U * Q", "", "garbage", "L9 U*", "S2 U*x", "W[1,1,1,1,1]Q",
)
DELETE = object()  # the value of a mutation that removes its entry


def _base(name: str) -> dict:
    """The JSON object of the file ``name`` before any mutation."""
    if name != "cayley":
        return json.loads((DATA / f"{name}.json").read_text())
    cayley = shipped_scenario("cayley")
    cayley["twists"][1]["rank_hints"] = [{"target_term": 2, "degree": 3, "rank": 0}]
    return cayley


def _mutations(node, path=()):
    """(path, value) of each mutation of the JSON tree ``node``; the value ``DELETE`` removes
    the entry at ``path``, and a path ending in a new key inserts that key."""
    if type(node) is dict:
        yield path + ("unknown_key",), 0
        for key, value in node.items():
            yield from _mutations(value, path + (key,))
    elif type(node) is list:
        yield path, []
        if node:
            yield path, node + node[:1]
        for i, value in enumerate(node):
            yield from _mutations(value, path + (i,))
    elif type(node) is int:
        yield from ((path, v) for v in (RANK_EDGES if path == ("ambient", "rank") else EDGE_INTS))
    elif path[-1] in ("label", "section_bundle"):
        yield from ((path, label) for label in LABELS)
    else:
        yield from ((path, text) for text in STRINGS)
    if path:
        yield path, DELETE
        yield from ((path, other) for other in RETYPED if type(other) is not type(node))


def _mutated(data: dict, path: tuple, value) -> dict:
    data = copy.deepcopy(data)
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return data


def _fault(path: str, twist: str, refused: bool) -> str | None:
    """How ``gpcoh koszul`` on the file ``path`` breaks a rule of the fuzz, or None; a file
    that must be ``refused`` breaks one unless it exits 2."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["koszul", "--scenario", path, "--twist", twist])
    except Exception as exc:
        return f"{type(exc).__name__} escaped: {exc}"
    if code not in (0, 1, 2) or refused and code != 2:
        return f"exit {code}"
    printed = out.getvalue() + err.getvalue()
    if code == 2 and (printed.count("\n") != 1 or not err.getvalue().startswith(f"error: scenario file {path!r}")):
        return f"exit 2 printed {printed!r}"
    return None


@pytest.mark.parametrize("name,twist", [("cayley", "normal"), ("lg36", "s5"), ("g2p2", "o_minus_7")])
def test_every_mutation_of_a_scenario_file_fails_closed(tmp_path, name, twist):
    data, file, faults = _base(name), str(tmp_path / f"{name}.json"), []
    for path, value in _mutations(data):
        Path(file).write_text(json.dumps(_mutated(data, path, value)))
        if fault := _fault(file, twist, path == ("ambient", "rank") and value in PAST_CAP):
            where = ".".join(map(str, path))
            faults.append(f"{where} = {'deleted' if value is DELETE else json.dumps(value)}: {fault}")
    assert faults == []
