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


def test_names_the_benchmark_reads():
    # perfbench/ reads these names and values of the library: a deletion
    # that would break the benchmark fails here as well as in its own job
    from heightcount import cli, enumeration, heights, mixing, zeta

    scan = enumeration.scan_pgl2_adjoint(64, (2, 3), threads=1)
    assert scan.height_counts.shape == (64,) and set(scan.joint) == {2, 3}
    assert scan.spectrum().total == int(scan.height_counts.sum())
    assert int(scan.histogram(2).sum()) == scan.spectrum(64).total
    assert enumeration.count_projective(1, 2).total == 4
    for cls, name in ((zeta.LocalFactor, "evaluate"), (cli.ResultCache, "lookup"), (cli.ResultCache, "append")):
        assert callable(getattr(cls, name))
    evs = mixing.evaluate_point(heights.PrimitiveMatrix(((2, 1), (0, 3))))
    levels = {(ev.place.p, ev.radial.exponents[-1]) for ev in evs if ev.place.is_finite}
    assert levels == {(2, 1), (3, 1)} and sum(not ev.place.is_finite for ev in evs) == 1
    assert [str(p) for p in zeta.primes_below(50)] == "2 3 5 7 11 13 17 19 23 29 31 37 41 43 47".split()


def test_one_resource_guard_error():
    # enumeration re-exports zeta's guard, so the CLI maps one class to exit 3
    from heightcount import enumeration, zeta

    assert enumeration.ResourceGuardError is zeta.ResourceGuardError
