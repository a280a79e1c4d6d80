"""heightcount: rational points of bounded height on P^n and PGL_2.

Exact enumeration of height balls, growth-exponent invariants from root
data, local height-zeta factors and their residues, and the spherical
decay kernels controlling equidistribution.  Each name is exported by its
module: ``heightcount.enumeration.scan_pgl2_adjoint`` and so on.
"""

__version__ = "0.1.0"

from . import enumeration, heights, mixing, rootdata, zeta
