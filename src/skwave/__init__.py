"""Standing waves of the 1D Schrodinger-Kirchhoff equation.

Construction of the solitary and periodic wave families, spectral
analysis of the linearized operators, the Vakhitov-Kolokolov slope,
orbital-stability verdicts, and split-step time evolution.  The package
namespace holds the entry points of the demos; everything else is
imported from its submodule.
"""

from .kernel import symmetric_eigen
from .waves import (
    ode_residual,
    sample_profile,
    solitary_threshold,
    solve_periodic_r1,
    solve_periodic_r2,
    solve_solitary,
)
from .functionals import vk_slope
from .spectral import (
    assemble,
    block_summary,
    floquet_theta,
    spectrum,
)
from .evolution import evolve, orbital_distance, stability_experiment
from .report import reproduce_figures, verdict

__version__ = "0.1.0"
