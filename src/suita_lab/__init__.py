"""suita-lab: planar potential theory with self-verifying numerics.

Green functions, logarithmic capacity and higher-order Bergman kernels on
model domains (discs, annuli, their Moebius images), sublevel-set geometry
of the Green function, and a verification suite that checks every
inequality and identity the package claims, with Monte Carlo oracles
guarding each analytic path.
"""

from .geometry import (
    Annulus,
    Disc,
    Domain,
    MoebiusImage,
    Point,
    PolarComplement,
    Polygon,
    boundary_distance,
    boundary_sample,
    contains,
    domain_literal,
    parse_domain,
)
from .green import (
    CapacityResult,
    CriticalPoint,
    GreenValue,
    boundary_flux,
    critical_points,
    disc_max_green,
    green_eval,
    robin_capacity,
)
from .bergman import KernelResult, kernel_j, laplacian_identity_check, suita_defect
from .sublevel import (
    AreaEstimate,
    ConvexityReport,
    LevelField,
    SublevelProfile,
    convexity_report,
    monotonicity_check,
    profile_scan,
)
from .oracles import McEstimate, counter_uniform, grid_min_gradient, mc_area, robin_extrapolate, wos_green
from .weights import WeightValues, eval_weights, identity_residual, war_probe
from .verify import (
    Check,
    Pole,
    SuiteConfig,
    VerificationReport,
    blb_check,
    characterization_probe,
    default_plan,
    poisson_step_check,
    run_suite,
    suita_check,
    thm1_check,
    thm2_check,
    thm4_scan,
    thm4_witness,
)

__version__ = "0.1.0"
