"""Every exported name exists: each module's ``__all__`` and the package's re-exports."""

import inspect

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
