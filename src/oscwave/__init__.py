"""Heat and wave propagators for the 1-D harmonic oscillator and the
first-order derivative generator, tied together by a substitution-type
spectral transform, with independent oracles for every closed form.

The package keeps three deliberately separate routes to the oscillator
heat flow (kernel quadrature, Fourier multiplier with resampling, and
conjugation through the transform) so each one can check the others.
"""

from .grids import (
    Grid1D,
    SampledFunction,
    VerificationReport,
    fd_residual,
    make_grid,
    make_report,
    quadrature,
    quadrature_weights,
    rel_l2_error,
    residual_convergence_order,
)
from .fourier import (
    EdgeDecayWarning,
    SpectralFunction,
    forward_ft,
    inverse_ft,
    spectral_resample,
)
from .special import erfc_paper, tricomi_u, tricomi_u_deriv
from .hermite import (
    SpectralCoefficients,
    eigenvalue,
    expand,
    heat_oracle,
    hermite_fn,
    hermite_table,
    reconstruct,
    wave_energy,
    wave_oracle,
    wave_oracle_velocity,
)
from .dirac import (
    ShiftCoverageWarning,
    heat_dirac,
    spectral_wave_oracle_dirac,
    wave_dirac,
    wave_kernel_forms,
)
from .intertwine import (
    BranchPair,
    IntertwineParams,
    apply_T,
    apply_T_inverse,
    branch_spectra,
    derive_params,
    intertwine_residual,
    intertwine_residuals,
    oscillator_apply,
    weight,
)
from .oscillator import (
    HEAT_KERNEL_VARIANTS,
    KernelTailWarning,
    OscillatorParams,
    heat_kernel,
    heat_ho_kernel_route,
    heat_ho_spectral_route,
    heat_via_intertwining,
    wave_ho,
)
from .grushin import (
    GrushinPoint,
    grushin_heat_kernel,
    grushin_heat_matrix,
    oscillator_kernel_in_coupling,
)
from .verify import CHECKS, run_suite, suite_failed
from .csvio import (
    read_function_csv,
    write_function_csv,
    write_kernel_csv,
    write_report_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BranchPair",
    "CHECKS",
    "EdgeDecayWarning",
    "Grid1D",
    "GrushinPoint",
    "HEAT_KERNEL_VARIANTS",
    "IntertwineParams",
    "KernelTailWarning",
    "ShiftCoverageWarning",
    "OscillatorParams",
    "SampledFunction",
    "SpectralCoefficients",
    "SpectralFunction",
    "VerificationReport",
    "apply_T",
    "apply_T_inverse",
    "branch_spectra",
    "derive_params",
    "eigenvalue",
    "erfc_paper",
    "expand",
    "fd_residual",
    "forward_ft",
    "grushin_heat_kernel",
    "grushin_heat_matrix",
    "heat_dirac",
    "heat_ho_kernel_route",
    "heat_ho_spectral_route",
    "heat_kernel",
    "heat_oracle",
    "heat_via_intertwining",
    "hermite_fn",
    "hermite_table",
    "intertwine_residual",
    "intertwine_residuals",
    "inverse_ft",
    "make_grid",
    "make_report",
    "oscillator_apply",
    "oscillator_kernel_in_coupling",
    "quadrature",
    "quadrature_weights",
    "read_function_csv",
    "reconstruct",
    "rel_l2_error",
    "residual_convergence_order",
    "run_suite",
    "spectral_resample",
    "spectral_wave_oracle_dirac",
    "suite_failed",
    "tricomi_u",
    "tricomi_u_deriv",
    "wave_dirac",
    "wave_energy",
    "wave_kernel_forms",
    "wave_ho",
    "wave_oracle",
    "wave_oracle_velocity",
    "weight",
    "write_function_csv",
    "write_kernel_csv",
    "write_report_csv",
]
