"""Standing waves of the 1D Schrodinger-Kirchhoff equation.

Construction of the solitary and periodic wave families, spectral
analysis of the linearized operators, the Vakhitov-Kolokolov slope,
orbital-stability verdicts, and split-step time evolution.
"""

from .kernel import (
    Grid,
    dft,
    find_root_bracketed,
    idft,
    line_grid,
    quadrature,
    symmetric_eigen,
    torus_grid,
)
from .elliptic import (
    complete_E,
    complete_K,
    complete_Pi,
    jacobi,
)
from .waves import (
    PERIODIC_DN,
    PERIODIC_DNQ,
    SOLITARY,
    Profile,
    WaveParams,
    ode_residual,
    sample_profile,
    shape_constants,
    solitary_threshold,
    solve_family,
    solve_periodic_r1,
    solve_periodic_r2,
    solve_solitary,
)
from .functionals import (
    VkSlopeResult,
    closed_form_tau,
    energy,
    mass,
    mass_closed_form,
    quadratic_form_LRe,
    vk_slope,
)
from .spectral import (
    FloquetResult,
    OperatorMatrix,
    SpectrumSummary,
    assemble,
    block_summary,
    eta_equation_check,
    floquet_theta,
    isoinertia_sweep,
    spectrum,
    spectrum_even,
)
from .evolution import (
    EvolutionState,
    OrbitalDistanceResult,
    evolve,
    kirchhoff_coefficient,
    orbital_distance,
    stability_experiment,
    step_strang,
)
from .report import StabilityVerdict, reproduce_figures, spectrum_report, verdict

__version__ = "0.1.0"
