"""A deleted name must leave every export list: each name in a module's
__all__ resolves, and the package exports exactly the library modules'
__all__."""

import importlib
import pkgutil
from types import ModuleType

import pbcones

LIBRARY = ("bundles", "cohomology", "cones", "blowdown")


def test_public_surface_resolves():
    modules = {m.name: importlib.import_module(f"pbcones.{m.name}")
               for m in pkgutil.iter_modules(pbcones.__path__) if m.name != "__main__"}
    for name, module in modules.items():
        for export in module.__all__:
            assert hasattr(module, export), f"pbcones.{name}.{export}"
    public = {name for name, value in vars(pbcones).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == {export for name in LIBRARY for export in modules[name].__all__}
