"""Tier 1 runs on pytest and the standard library alone.

The ``test`` extra in pyproject.toml installs pytest and nothing else. So every module that a
file in ``tests/`` imports, at any depth of its syntax tree, must be in the standard library, be
``pytest`` or ``gpcoh``, or be a module of ``tests/`` or ``perfbench/``, whose own imports are
followed in turn. This reads the files and imports none of them, so a name that is handed to
``importlib`` at run time is not seen.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LOCAL = {path.stem: path for top in ("tests", "perfbench") for path in (ROOT / top).glob("*.py")}
ALLOWED = {"pytest", "gpcoh", *sys.stdlib_module_names}


def _imported(path):
    """The top-level name of each absolute import in ``path``, in functions and blocks included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_tests_import_only_pytest_gpcoh_the_standard_library_and_their_own_modules():
    todo = sorted((ROOT / "tests").glob("*.py"))
    seen, foreign = set(todo), []
    while todo:
        path = todo.pop()
        for name in _imported(path):
            if name in LOCAL:
                if LOCAL[name] not in seen:
                    seen.add(LOCAL[name])
                    todo.append(LOCAL[name])
            elif name not in ALLOWED:
                foreign.append(f"{path.relative_to(ROOT)}: {name}")
    # the benchmark modules that tests load are followed too, and so are theirs
    assert {"spans", "workloads", "oracles"} <= {path.stem for path in seen if path.parent.name == "perfbench"}
    assert not foreign, "\n".join(foreign)
