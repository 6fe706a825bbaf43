"""Empirical side: tabulate, sum exactly, compare against prediction.

Shifted sums start at n = shift + 1 so the shifted argument stays >= 1.
Every empirical sum goes through prefix_dots, one blockwise pass that is
exact: integer arrays (totient family) give Python ints, and float products
are accumulated into one integer and rounded once per requested prefix, so
each result is the exactly rounded sum (what math.fsum returns) no matter
how many terms enter.  Both kinds are cut into limbs small enough that a
block of SUM_BLOCK = 2^16 terms sums exactly in one numpy reduction: float
mantissas into 18-bit limbs (per-exponent sums below 2^16 * 2^18 = 2^34,
exact in float64), int64 values into 21-bit limbs (limb products below
2^42, so block sums stay below 2^16 * 2^42 = 2^58 in int64).

A grid of x is summed in one such pass too: shifted_sum takes the grid and
returns the sum at every point from one prefix_dots call, so run_grid
(`meanvalue`) and curveconst.mean_order_grid (`verify t2a|t2b|t3`) cost
O(largest x) however many points the grid has.  shifted_sum is also where
the library checks a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .arith import (
    PrimePowerFn,
    jordan_table,
    multiplicative_table,
    partial_sum_fn,
    totient_table,
)
from .euler import shifted_mean_constant
from .reports import MeanValueReport


@dataclass(frozen=True)
class NamedFn:
    """Exact-integer tabulation target: 'totient' or 'jordan' of order k."""

    name: str
    k: int = 1


@dataclass(frozen=True)
class DivisorSumFn:
    """Tabulation target sum_{d|n} fn(d)."""

    fn: PrimePowerFn


TabSpec = Union[NamedFn, DivisorSumFn]


def tabulate(spec: TabSpec, limit: int) -> np.ndarray:
    """Values over [0, limit] in one sieve pass; index n holds the value at n."""
    if isinstance(spec, NamedFn):
        if spec.name == "totient":
            return totient_table(limit)
        if spec.name == "jordan":
            return jordan_table(limit, spec.k)
        raise ValueError(f"unknown named function {spec.name!r}")
    return multiplicative_table(partial_sum_fn(spec.fn), limit)


# Terms per block of prefix_dots: bounds its working memory, and keeps every
# limb sum exact: float limbs below 2^16 * 2^18 = 2^34 (exact in float64),
# integer limb products below 2^16 * 2^42 = 2^58 (no int64 overflow).
SUM_BLOCK = 2**16

# A finite float64 is m * 2^(e - 53) with |m| < 2^53 an integer and
# e >= -1073 (np.frexp), so every one is an integer multiple of 2^-1126.
_EXP_BIAS = 1073
_SCALE = 1 << 1126


_LIMB = 21
_LIMB_MASK = (1 << _LIMB) - 1


def _int_limbs(v: np.ndarray) -> tuple:
    """v = lo + mid * 2^21 + top * 2^42, lo and mid in [0, 2^21), top signed."""
    v = v.astype(np.int64, copy=False)
    return v & _LIMB_MASK, (v >> _LIMB) & _LIMB_MASK, v >> 2 * _LIMB


def _exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """The exact integer sum of a*b.

    Arrays that fit int64 are split into three 21-bit limbs, so each of the
    nine limb dots is exact in int64 (every limb lies in [-2^21, 2^21)).
    Object arrays (Python ints past int64) and uint64, which an int64 cast
    could wrap, take Python-int dots.
    """
    if not (np.can_cast(a.dtype, np.int64) and np.can_cast(b.dtype, np.int64)):
        return int(np.dot(a.astype(object), b.astype(object)))
    b_limbs = _int_limbs(b)
    total = 0
    for i, u in enumerate(_int_limbs(a)):
        for j, v in enumerate(b_limbs):
            total += int(np.dot(u, v)) << _LIMB * (i + j)
    return total


def _scaled_float_dot(a: np.ndarray, b: np.ndarray) -> int:
    """The exact sum of the float64 products a*b, times 2^1126."""
    terms = np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)
    if not np.isfinite(terms).all():
        raise ValueError("non-finite term in sum")
    frac, exp = np.frexp(terms)
    exp += _EXP_BIAS
    # Cut the 53-bit integer mantissa into three 18-bit limbs, the top one
    # signed.  Every step is exact in float64: scaling by powers of two,
    # floor, and differences of integers below 2^53.
    mant = frac * 2.0**53
    top = np.floor(mant * 2.0**-36)
    rest = mant - top * 2.0**36
    mid = np.floor(rest * 2.0**-18)
    limbs = (rest - mid * 2.0**18, mid, top)
    total = 0
    for k, limb in enumerate(limbs):
        sums = np.bincount(exp, weights=limb)
        nonzero = np.flatnonzero(sums)
        for e, s in zip(nonzero.tolist(), sums[nonzero].tolist()):
            total += int(s) << (e + 18 * k)
    return total


def prefix_dots(a, b, ends) -> list:
    """sum(a[:e] * b[:e]) for each e in ends (ascending), in one pass.

    Integer arrays (int64 or object) give exact ints.  Otherwise the float64
    products are summed exactly and each prefix is rounded once, so every
    result equals math.fsum of that prefix's products.  A non-finite product
    raises ValueError.  Work runs in blocks of at most SUM_BLOCK terms.
    """
    a, b = np.asarray(a), np.asarray(b)
    ends = [int(e) for e in ends]
    if any(hi < lo for lo, hi in zip([0, *ends], [*ends, min(len(a), len(b))])):
        raise ValueError(f"prefix ends must ascend within [0, {min(len(a), len(b))}]")
    exact = all(v.dtype == object or v.dtype.kind in "iu" for v in (a, b))
    dot = _exact_dot if exact else _scaled_float_dot
    out, total, lo = [], 0, 0
    for end in ends:
        while lo < end:
            hi = min(end, lo + SUM_BLOCK)
            total += dot(a[lo:hi], b[lo:hi])
            lo = hi
        out.append(total if exact else total / _SCALE)
    return out


def shifted_sum(f_vals, g_vals, shift: int, x: int, *, grid=None):
    """sum_{n=shift+1..y} F(n-shift) G(n), exactly (see prefix_dots).

    Without a grid, y = x and the one sum is returned.  With a grid (points
    strictly ascending in (shift, x], the last equal to x), the list of sums
    at every point comes from one prefix_dots pass over n <= x.  Arrays are
    indexed by n and must cover [0, x].  Integer arrays give exact ints;
    otherwise each sum is the exactly rounded float.
    """
    if shift < 1:
        raise ValueError(f"shift must be >= 1, got {shift}")
    if x > len(f_vals) - 1 or x > len(g_vals) - 1:
        raise ValueError(f"arrays do not cover [0, {x}]")
    ys = [x] if grid is None else [int(y) for y in grid]
    if grid is not None and (not ys or ys[0] <= shift or ys[-1] != x
                             or any(b <= a for a, b in zip(ys, ys[1:]))):
        raise ValueError(f"grid must strictly ascend within ({shift}, {x}] "
                         f"and end at x = {x}")
    terms = max(0, x - shift)
    sums = prefix_dots(f_vals[1 : terms + 1], g_vals[shift + 1 : shift + 1 + terms],
                       [max(0, y - shift) for y in ys])
    return sums[0] if grid is None else sums


# ---------------------------------------------------------------------------
# Grid runs

def run_grid(preset, x_grid, *, prime_cutoff: int) -> MeanValueReport:
    """Empirical sums of a presets.Preset against its predicted main term.

    One row per x in the ascending grid; the constant is the preset pair's
    Euler product at the given prime cutoff, and the normalized column
    divides each residual by the preset's error function.
    """
    pair = preset.pair
    xs = [int(v) for v in x_grid]
    xmax = max(xs, default=1)  # shifted_sum checks the grid

    constant = shifted_mean_constant(pair, prime_cutoff)
    f_vals = tabulate(preset.f_tab, xmax)
    g_vals = f_vals if preset.g_tab == preset.f_tab else tabulate(preset.g_tab, xmax)
    sums = shifted_sum(f_vals, g_vals, pair.shift, xmax, grid=xs)
    return MeanValueReport.from_sums(
        xs, [float(s) for s in sums], [constant.value * pair.baseline.main_term(x) for x in xs],
        preset.error_fn, label=preset.name, error_label=preset.error_label)
