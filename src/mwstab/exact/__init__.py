"""Exact-arithmetic operator-series engine (the oracle side of the
modulational-stability computation)."""

from .ring import Coeff
from .series import (ScalarSeries, TrigPolySeries, OperatorSeries,
                     ExactEngineError)
from .expansions import (
    StokesSeries, ExactModulation, stokes_series, build_T0a, bch_assemble,
    projected_matrix_series, det_and_discriminant, build_dump, load_golden,
    check_against_golden,
)

__all__ = [
    "Coeff", "ScalarSeries", "TrigPolySeries", "OperatorSeries",
    "ExactEngineError", "StokesSeries", "ExactModulation", "stokes_series",
    "build_T0a", "bch_assemble", "projected_matrix_series",
    "det_and_discriminant", "build_dump", "load_golden",
    "check_against_golden",
]
