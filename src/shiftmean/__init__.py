"""Mean values of shifted multiplicative functions and curve-order constants."""

from .arith import (
    PrimePowerFn,
    eval_divisor_sum,
    eval_multiplicative,
    factorize_trial,
    jordan_totient,
    mobius_invert_local,
    multiplicative_table,
    primes_up_to,
    quad_symbol,
    totient,
)
from .curveconst import (
    SymbolConvention,
    cached_twin_prime_constant,
    mean_order_grid,
    order_constant,
    order_constant_direct,
    order_constant_original,
    substitution_gap,
    twin_prime_constant,
    twin_prime_oracle,
)
from .curvelab import CurveDensityRecord, count_points, density, expected_m
from .euler import (
    DegenerateLocalFactor,
    EulerProductValue,
    MonomialBaseline,
    ShiftedPairSpec,
    double_sum_oracle,
    local_factor,
    paired_power_sum,
    predicted_main,
    shift_local_factor,
    shifted_mean_constant,
)
from .harness import fit_error_exponent, run_grid, shifted_sum, tabulate
from .presets import get_preset
from .reports import ExponentFit, MeanValueReport, MeanValueRow

__version__ = "0.1.0"
