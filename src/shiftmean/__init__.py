"""Mean values of shifted multiplicative functions and curve-order constants."""

from .arith import (
    PrimePowerFn,
    eval_multiplicative,
    factorize_trial,
    jordan_totient,
    multiplicative_table,
    primes_up_to,
    quad_symbol,
    totient,
)
from .curveconst import (
    SymbolConvention,
    mean_order_grid,
    substitution_gap,
    twin_prime_constant,
)
from .curvelab import CurveDensityRecord, expected_m
from .euler import (
    DegenerateLocalFactor,
    EulerProductValue,
    MonomialBaseline,
    ShiftedPairSpec,
    paired_power_sum,
    shift_local_factor,
    shifted_mean_constant,
)
from .harness import run_grid, shifted_sum, tabulate
from .presets import get_preset
from .reports import MeanValueReport, MeanValueRow

__version__ = "0.1.0"
