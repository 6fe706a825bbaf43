"""Mean values of shifted multiplicative functions and curve-order constants."""

import os

# No shiftmean call reaches BLAS (its only np.dot takes int64 or object
# arrays), yet OpenBLAS starts a pool of worker threads when numpy loads, and
# they cost CPU time in every process.  OpenBLAS reads this variable once, at
# load, so it is set before the first import of numpy; a value the user has
# set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
