"""heightcount: rational points of bounded height on P^n and PGL_2.

Exact enumeration of height balls, growth-exponent invariants from root
data, local height-zeta factors and their residues, and the spherical
decay kernels controlling equidistribution.
"""

__version__ = "0.1.0"

from .rootdata import (
    GaloisOrbits,
    ManinInvariants,
    RootSystem,
    manin_invariants,
    named_root_system,
    two_rho_coeffs,
    weight_to_root_basis,
    is_saturated,
)
from .heights import (
    CartanCoordinates,
    MeasureConvention,
    Place,
    PrimitiveMatrix,
    adjoint_rep,
    cartan_radial_real,
    global_height,
    local_height,
    primitive_vector,
    smith_exponents,
)
from .enumeration import (
    CartanHistogram,
    HeightSpectrum,
    PGL2Scan,
    cartan_statistics,
    convolve_counts,
    count_projective,
    scan_pgl2_adjoint,
)
from .zeta import (
    FitResult,
    LocalFactor,
    archimedean_factor,
    calibrate_archimedean_scale,
    cell_volume,
    cell_volume_oracle,
    local_factor_pgl2_adjoint,
    model_cell_probabilities,
    residue_estimate,
    tauberian_fit,
)
from .mixing import (
    MixingReport,
    XiEvaluation,
    eta,
    hecke_recursion_residual,
    verify_bounds,
    xi_global,
    xi_padic,
    xi_real,
)
