"""The public surface: every export resolves, every public definition of
the library modules is exported, and the package exports the modules
themselves, each name once."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

MODULES = ["rootdata", "heights", "enumeration", "zeta", "mixing"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def test_package_namespace_is_the_library_modules():
    # a fresh interpreter: importing heightcount.cli elsewhere in the
    # session would add the cli submodule to the package namespace
    code = (
        "import heightcount\n"
        "print(sorted(n for n in vars(heightcount) if not n.startswith('__')))\n"
        "print(heightcount.__version__)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout.splitlines()
    assert out[0] == str(sorted(MODULES))
    assert out[1] == importlib.import_module("heightcount").__version__
