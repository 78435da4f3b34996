"""A deleted name must leave every export list: each name in a module's
__all__ resolves, and the package re-exports only names so listed."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pbcones


def test_public_surface_resolves():
    modules = {m.name: importlib.import_module(f"pbcones.{m.name}")
               for m in pkgutil.iter_modules(pbcones.__path__) if m.name != "__main__"}
    for name, module in modules.items():
        for export in module.__all__:
            assert hasattr(module, export), f"pbcones.{name}.{export}"
    tree = ast.parse(Path(pbcones.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in modules, ast.dump(node)
        for alias in node.names:
            assert alias.name in modules[node.module].__all__, \
                f"pbcones.{node.module}.{alias.name}"
