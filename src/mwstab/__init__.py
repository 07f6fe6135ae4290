"""Periodic traveling waves of two extended Hunter-Saxton models and the
numerical / exact machinery deciding their modulational stability."""

from .fourier import TrigSeries
from .waves import (
    Model, WaveBranch, ConvergenceError, ValidityError,
    analytic_wave, residual, solve_wave, branch_derivative,
)
from .bloch import (
    BlochPencil, SpectrumSample, CollisionRecord,
    assemble_pencil, dispersion, find_collisions, spectrum_slice,
    symmetry_check,
)
from .modulation import (
    CriticalBasis, QuadraticDet, StabilityReport,
    critical_basis, projected_det, discriminant_sweep, critical_growth,
    threshold_bisect,
)

__version__ = "0.1.0"

__all__ = [
    "TrigSeries",
    "Model", "WaveBranch", "ConvergenceError", "ValidityError",
    "analytic_wave", "residual", "solve_wave", "branch_derivative",
    "BlochPencil", "SpectrumSample", "CollisionRecord",
    "assemble_pencil", "dispersion", "find_collisions", "spectrum_slice",
    "symmetry_check",
    "CriticalBasis", "QuadraticDet", "StabilityReport",
    "critical_basis", "projected_det", "discriminant_sweep",
    "critical_growth", "threshold_bisect",
    "__version__",
]
