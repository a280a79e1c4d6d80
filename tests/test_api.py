"""The public surface: every export resolves, and every public definition
of the library modules is exported."""

import ast
import importlib
import inspect

import heightcount

MODULES = ["rootdata", "heights", "enumeration", "zeta", "mixing"]


def test_exports_resolve_and_cover_public_definitions():
    for name in MODULES:
        mod = importlib.import_module(f"heightcount.{name}")
        missing = [e for e in mod.__all__ if not hasattr(mod, e)]
        assert not missing, f"{name}.__all__ names {missing}"
        defined = {
            attr
            for attr, obj in vars(mod).items()
            if not attr.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
        }
        assert defined <= set(mod.__all__), f"{name}: {sorted(defined - set(mod.__all__))} not in __all__"
    # the package re-exports names its modules export
    for node in ast.parse(inspect.getsource(heightcount)).body:
        if isinstance(node, ast.ImportFrom):
            mod = importlib.import_module(f"heightcount.{node.module}")
            for alias in node.names:
                assert alias.name in mod.__all__, f"{node.module}.{alias.name}"
                assert getattr(heightcount, alias.name) is getattr(mod, alias.name)
