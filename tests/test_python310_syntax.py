"""Every Python file of the project parses under the Python 3.10 grammar.

The project supports Python 3.10 and up. This is a syntax check only, run by
whatever interpreter runs the suite: ``ast.parse`` with ``feature_version``
rejects grammar newer than 3.10 (``except*``, PEP 695 type parameters, ...),
but it neither imports the files nor catches a library call, a standard
library module or an f-string form that 3.10 lacks at run time.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_python_file_parses_with_the_python_3_10_grammar():
    files = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert any(p.name == "schur.py" for p in files) and any(p.parent.name == "perfbench" for p in files)
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, "\n".join(failures)
