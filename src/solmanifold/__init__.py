"""Numerical laboratory for the centre-stable manifold of the quintic wave
equation around the ground-state soliton: spectrum, propagators, mixed
norms, modulation dynamics, and a config-driven experiment runner."""

from .grid import (
    GridUsageError,
    RadialField,
    RadialGrid,
    h1_seminorm,
    inner_product,
    l2_norm,
    laplacian,
    pair_w,
    weighted_norm,
)
from .modulation import (
    BracketError,
    LeftModulationWindow,
    ManifoldQuery,
    NonlinearRun,
    evolve_nonlinear,
    extract_modulation,
    h_fixed_point,
    make_query,
    modulation_rate_series,
    picard_map,
    picard_transport,
    shoot_h,
    x_norm,
    xpm_evolution,
)
from .norms import (
    NormReport,
    energy,
    lorentz_norm,
    mixed_norm,
)
from .propagators import (
    SpaceTimeField,
    evolve_linear_perturbed,
    free_cosine,
    free_sine,
    secular_decomposition_C,
    secular_decomposition_S,
)
from .soliton import dphi_da, phi, potential, resonance_defect_profile
from .spectral import (
    SpectralData,
    SpectralError,
    ground_state,
    project_continuous,
    resonance_pairing,
    x_pm,
)

__version__ = "0.1.0"
