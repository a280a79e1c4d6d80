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
    # session would add the cli submodule to the package namespace.  The
    # modules load on first access, each as the module of its own name.
    code = (
        "import heightcount\n"
        "print(dir(heightcount))\n"
        "print(heightcount.__version__)\n"
        f"print(all(getattr(heightcount, m).__name__ == 'heightcount.' + m for m in {MODULES!r}))\n"
        "print(dir(heightcount))\n"
        "print(hasattr(heightcount, 'cli'), hasattr(heightcount, 'scan_pgl2_adjoint'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout.splitlines()
    namespace = str(sorted(MODULES + ["__version__"]))
    assert out[0] == namespace
    assert out[1] == importlib.import_module("heightcount").__version__
    assert out[2] == "True"
    assert out[3] == namespace
    assert out[4] == "False False"
