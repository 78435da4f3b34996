"""A deleted name must leave every export list: each name in a module's
__all__ resolves, and the package exports exactly the library modules'
__all__.  The package resolves its names on first use, so its namespace is
read through __all__, dir and getattr, never through vars."""

import importlib
import pkgutil

import pytest

import pbcones

LIBRARY = ("bundles", "cohomology", "cones", "blowdown")


def test_public_surface_resolves():
    modules = {m.name: importlib.import_module(f"pbcones.{m.name}")
               for m in pkgutil.iter_modules(pbcones.__path__) if m.name != "__main__"}
    for name, module in modules.items():
        for export in module.__all__:
            assert hasattr(module, export), f"pbcones.{name}.{export}"
    exports = {export: modules[name] for name in LIBRARY for export in modules[name].__all__}
    assert set(pbcones.__all__) == exports.keys()
    assert len(pbcones.__all__) == len(exports)  # no name exported by two modules
    assert exports.keys() <= set(dir(pbcones))
    for export, module in exports.items():
        assert getattr(pbcones, export) is getattr(module, export), export


@pytest.mark.parametrize("name", ["no_such_name", "_Record", "__wrapped__"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(pbcones, name)
