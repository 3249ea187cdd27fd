"""Numerical machinery for the quadratic (double dispersion) term of the
fixed-angle Born series: frequency chart, Ewald-sphere operators,
principal-value integration, radial counterexample potentials, and the
sharp-regularity bound calculators."""

from .analysis import (
    DecayFit,
    RefinementScan,
    Verdict,
    fit_decay,
    gain_scan,
    lemma52_check,
)
from .bounds import BoundReport, alpha0, alpha_j, m_threshold, thm_limits
from .dispersion import (
    CutoffSpec,
    DispersionSample,
    PVParams,
    b_theta2,
    cutoff_chi,
    dispersion_batch,
    principal_value_op,
    q_full2_hat,
    spherical_op,
)
from .geometry import (
    Chart,
    Direction,
    NotInHalfSpace,
    SphereRule,
    chart,
    ewald_nodes,
    in_cone,
    in_half_space,
    sphere_rule,
)
from .potentials import (
    GBetaSpec,
    GridTooCoarseError,
    Potential,
    gaussian_potential,
    make_gbeta,
)
from .spectral import (
    Domain,
    Field,
    Grid,
    RadialProfile,
    TransformDirection,
    field_from_function,
    fourier,
    make_grid,
)

__version__ = "0.1.0"
