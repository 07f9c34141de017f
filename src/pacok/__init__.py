"""Simulation and sharp-interface analysis of amphiphile self-assembly.

The package evolves a two-phase penalized Allen-Cahn-Ohta-Kawasaki gradient
flow on periodic grids with a Fourier spectral method, and independently
evaluates the sharp-interface radial (liposome/micelle) theory: energies,
stationarity conditions, large-mass asymptotics, morphology thresholds,
curvature moduli and the transport-distance sibling model. Each side serves
as the oracle for the other.
"""

from .grid import Field, GridSpec, dirichlet_energy, integrate, laplacian, poisson_solve
from .energy import (
    EnergyBreakdown,
    PhysParams,
    interpolant,
    interpolant_deriv,
    total_energy,
    variational_derivatives,
)
from .dynamics import (
    RunResult,
    RunState,
    StepperConfig,
    run,
    screening_check,
)
from .radial import (
    AsymptoticPrediction,
    HelfrichModuli,
    MorphologyBranches,
    RadialCandidate,
    ZETA0,
    asymptotic_liposome,
    helfrich_moduli,
    liposome_energy,
    micelle_energy,
    micelle_optimal,
    morphology,
    optimize_liposome,
    stationarity_residual,
    thresholds,
    wasserstein_thickness,
)
from .initcond import (
    Ball,
    BilayerSpec,
    CurveBilayer,
    Gyroid,
    Shell,
    Slab,
    Torus,
    build_bilayer,
    mass_rescale,
    perforate,
    tanh_profile,
)
from .analysis import FitResult, fit_energy_mass, zero_dipole_shift
from .storage import (
    RunConfig,
    load_config,
    read_checkpoint,
    render_cross_section,
    save_config,
    write_checkpoint,
)

__version__ = "0.1.0"
