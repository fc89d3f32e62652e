"""Every exported name exists: each module's ``__all__`` and the package's re-exports. Every
imported name is used: no module of the package keeps an import that a deletion left behind."""

import ast
import inspect
from pathlib import Path

import pytest

import gpcoh
from gpcoh import bott, koszul, root_system, scenarios, schur

MODULES = (root_system, bott, schur, koszul, scenarios)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_the_package_reexports_only_names_its_modules_export():
    # equality: no module name is missing from the package and nothing else is added
    exported = {name for module in MODULES for name in module.__all__}
    public = {
        name
        for name, value in vars(gpcoh).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(public ^ exported) == []


def _unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import (``__future__`` and ``*`` aside) and never
    reads: not as a name, not as the base of an attribute and not as a string in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    src = Path(gpcoh.__file__).parent
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os, re\nfrom typing import Any, NamedTuple\n"
    source += "__all__ = ['Any']\nprint(re.escape(''))\n"
    assert _unused_imports(source) == ["line 2: os", "line 3: NamedTuple"]
