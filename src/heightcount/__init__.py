"""heightcount: rational points of bounded height on P^n and PGL_2.

Exact enumeration of height balls, growth-exponent invariants from root
data, local height-zeta factors and their residues, and the spherical
decay kernels controlling equidistribution.  Each name is exported by its
module: ``heightcount.enumeration.scan_pgl2_adjoint`` and so on.

The five modules load on first access (PEP 562), so ``import heightcount``
alone imports neither numpy nor mpmath, and a CLI call answered from the
results cache never does.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("enumeration", "heights", "mixing", "rootdata", "zeta")


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(("__version__",) + _MODULES)
