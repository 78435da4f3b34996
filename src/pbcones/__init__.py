"""Exact intersection rings, curve/Kahler cones and blow-down certificates
for projective bundles over curves."""

# Exports the library modules' __all__, each module loaded on the first use of
# one of its names (PEP 562).  In import order: each imports only those before
# it, so resolving a name loads only what its own module imports.
_LIBRARY = ("bundles", "cohomology", "cones", "blowdown")

__version__ = "0.1.0"


def __getattr__(name: str):
    # The import system looks a submodule up here before it imports it
    # (`from pbcones import cli`); that lookup must load no library module.
    if name == "__all__" or not (name.startswith("_") or name in ("cli", "oracle", *_LIBRARY)):
        from importlib import import_module

        modules = (import_module(f"{__name__}.{m}") for m in _LIBRARY)
        if name == "__all__":
            return [export for module in modules for export in module.__all__]
        for module in modules:
            if name in module.__all__:
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return {*globals(), *__getattr__("__all__")}
