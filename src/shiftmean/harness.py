"""Empirical side: tabulate, sum exactly, compare against prediction.

A table is an exact named function (totient, Jordan) or a PrimePowerFn,
tabulated by arith.multiplicative_table.

Shifted sums start at n = shift + 1 so the shifted argument stays >= 1.
Every empirical sum goes through prefix_dots, one blockwise pass that is
exact: integer arrays (totient family) give Python ints, and float products
are accumulated into one integer and rounded once per requested prefix, so
each result is the exactly rounded sum (what math.fsum returns) no matter
how many terms enter.  Both kinds are cut into limbs small enough that a
block of SUM_BLOCK = 2^16 terms sums exactly in one numpy reduction, and
each block takes as few as the magnitudes it holds allow: integers into
one to three limbs a side whose limb dots stay within 2^62 in int64, and
floats into two fixed-point limbs below 2^37 (block sums below 2^53) when
their nonzero products span at most 21 binades, else per exponent into
27-bit mantissa limbs (per-exponent sums below 2^43).

A grid of x is summed in one such pass too: shifted_sum takes the grid and
returns the sum at every point from one prefix_dots call, so run_grid
(`meanvalue`) and curveconst.mean_order_grid (`verify t2a|t2b|t3`) cost
O(largest x) however many points the grid has.  shifted_sum is also where
the library checks a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import PrimePowerFn, jordan_table, multiplicative_table, totient_table
from .euler import shifted_mean_constant
from .reports import MeanValueReport


@dataclass(frozen=True)
class NamedFn:
    """Exact-integer tabulation target: 'totient' or 'jordan' of order k."""

    name: str
    k: int = 1


def tabulate(spec: NamedFn | PrimePowerFn, limit: int) -> np.ndarray:
    """Values over [0, limit] in one sieve pass; index n holds the value at n."""
    if isinstance(spec, PrimePowerFn):
        return multiplicative_table(spec, limit)
    if spec.name == "totient":
        return totient_table(limit)
    if spec.name == "jordan":
        return jordan_table(limit, spec.k)
    raise ValueError(f"unknown named function {spec.name!r}")


# Terms per block of prefix_dots: bounds its working memory, and fixes how
# wide a limb may be for its block sum to be exact (see _limb_layout and
# _FIXED_LIMB).
SUM_BLOCK = 2**16

# A finite float64 is m * 2^(e - 53) with |m| < 2^53 an integer and
# e >= -1073 (np.frexp), so every one is an integer multiple of 2^-1126.
_EXP_BIAS = 1073
_SCALE_BITS = 1126
_SCALE = 1 << _SCALE_BITS


def _value_bits(v: np.ndarray) -> int:
    """The least B with -2^B <= x < 2^B for every x in the integer block v."""
    return max(int(v.max()).bit_length(), (~int(v.min())).bit_length())


def _limb_layout(bits_a: int, bits_b: int, n: int) -> tuple:
    """Limbs per side for an exact block dot of n terms: the pair with the
    fewest limb dots (then the fewest limbs) whose limb products, times n,
    stay within 2^62 in int64.

    A side of B bits cut into L limbs of w = ceil(B / L) bits has its lower
    limbs in [0, 2^w) and its signed top limb in [-2^w, 2^w).
    """
    room = 62 - (n - 1).bit_length()
    return min(((la, lb) for la in (1, 2, 3) for lb in (1, 2, 3)
                if -(-bits_a // la) - (-bits_b // lb) <= room),
               key=lambda p: (p[0] * p[1], p[0] + p[1]))


def _exact_dot(a: np.ndarray, b: np.ndarray, limbs) -> int:
    """The exact integer sum of a*b.

    With limbs (6 x at least len(a) int64 scratch), for arrays that cast to
    int64, each side is cut into as few limbs as its block's range allows
    (_limb_layout): totients below 2^23 take one plain dot, Jordan-2 values
    below 2^42 two 21-bit limbs a side, and full int64 three.  Without, for
    object arrays (Python ints past int64) and uint64, which an int64 cast
    could wrap, it takes a Python-int dot.
    """
    if limbs is None:
        return int(np.dot(a.astype(object), b.astype(object)))
    n = len(a)
    bits = (_value_bits(a), _value_bits(b))
    sides = []  # (limb rows, limb width) of a and of b
    for side, (v, count) in enumerate(zip((a, b), _limb_layout(*bits, n))):
        width = -(-bits[side] // count)
        rows = limbs[3 * side : 3 * side + count, :n]
        if count == 1 and v.dtype == np.int64:
            rows = [v]
        elif count == 1:  # an int32 dot would wrap
            np.copyto(rows[0], v)
        else:
            for i, row in enumerate(rows):
                np.right_shift(v, width * i, out=row)
                if i < count - 1:
                    row &= (1 << width) - 1
        sides.append((rows, width))
    (rows_a, width_a), (rows_b, width_b) = sides
    total = 0
    for i, ra in enumerate(rows_a):
        for j, rb in enumerate(rows_b):
            total += int(np.dot(ra, rb)) << (width_a * i + width_b * j)
    return total


# The fixed-point path of the float sum cuts each product into two limbs of
# at most _FIXED_LIMB bits: 2^16 integers below 2^37 in magnitude sum below
# 2^53, so np.sum adds a block's limb exactly in any order.  Two limbs hold
# the 53-bit mantissas of a block whose nonzero products span at most
# _FIXED_SPAN = 21 binades; a wider block (verify gap's differences span
# 26-45) is summed per exponent through np.frexp.
_FIXED_LIMB = 53 - (SUM_BLOCK - 1).bit_length()
_FIXED_SPAN = 2 * _FIXED_LIMB - 53
# Least binary exponent (np.frexp) of a nonzero product on the fixed-point
# path, so every such product is normal and its limb unit a normal power of two.
_FIXED_MIN_EXP = -1000


def _float_scratch(n: int) -> tuple:
    """Block scratch of _scaled_float_dot: terms, a limb, a nonzero mask,
    and the frexp outputs."""
    return (np.empty(n), np.empty(n), np.empty(n, dtype=bool),
            np.empty(n), np.empty(n, dtype=np.int64))


def _scaled_float_dot(a: np.ndarray, b: np.ndarray, scratch: tuple) -> int:
    """The exact sum of the float64 products a*b, times 2^1126.

    scratch is _float_scratch of at least len(a) entries.  A block whose
    nonzero products span at most _FIXED_SPAN binades is summed in two
    fixed-point limbs on the grid of its smallest ulp; any other per exponent.
    """
    terms, top, nonzero, frac, exp = (v[: len(a)] for v in scratch)
    np.multiply(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), out=terms)
    np.abs(terms, out=top)
    big = float(top.max())  # NaN propagates
    if not math.isfinite(big):
        raise ValueError("non-finite term in sum")
    if big == 0.0:
        return 0
    small = float(top.min())
    if small == 0.0:
        np.not_equal(top, 0.0, out=nonzero)
        small = float(np.min(top, where=nonzero, initial=math.inf))
    e_lo = math.frexp(small)[1]
    if math.frexp(big)[1] - e_lo <= _FIXED_SPAN and e_lo >= _FIXED_MIN_EXP:
        return _fixed_point_sum(terms, top, e_lo - 53)
    return _frexp_sum(terms, top, frac, exp)


def _fixed_point_sum(terms: np.ndarray, top: np.ndarray, grid: int) -> int:
    """The exact sum of terms, times 2^1126, given that every term is an
    integer multiple of 2^grid below 2^(grid + 2 * _FIXED_LIMB) in magnitude.

    The top limb is trunc(terms / 2^unit), unit = grid + _FIXED_LIMB, and
    what is left of terms once it is taken out is the low limb times 2^grid.
    Scaling by powers of two, trunc, and clearing a term's leading bits are
    all exact, so both limbs are integers below 2^_FIXED_LIMB in magnitude.
    """
    unit = grid + _FIXED_LIMB
    np.multiply(terms, 2.0**-unit, out=top)
    np.trunc(top, out=top)
    total = int(top.sum()) << (unit + _SCALE_BITS)
    top *= 2.0**unit
    terms -= top
    return total + (int(math.ldexp(terms.sum(), -grid)) << (grid + _SCALE_BITS))


def _frexp_sum(terms: np.ndarray, top: np.ndarray, frac: np.ndarray, exp: np.ndarray) -> int:
    """The exact sum of the finite terms, times 2^1126, per binary exponent;
    int64 exponents reach np.bincount without a cast."""
    np.frexp(terms, out=(frac, exp))
    exp += _EXP_BIAS
    # Cut the 53-bit integer mantissa frac * 2^53 into two 27-bit limbs, the
    # top one signed.  Every step is exact in float64: scaling by powers of
    # two, floor, and the difference of frac and its own leading bits.  Each
    # per-exponent sum of 2^16 limbs stays below 2^43.
    np.multiply(frac, 2.0**26, out=top)
    np.floor(top, out=top)
    np.multiply(top, 2.0**-26, out=terms)
    frac -= terms
    frac *= 2.0**53
    total = 0
    for k, limb in enumerate((frac, top)):
        sums = np.bincount(exp, weights=limb)
        nonzero = np.flatnonzero(sums)
        for e, s in zip(nonzero.tolist(), sums[nonzero].tolist()):
            total += int(s) << (e + 27 * k)
    return total


def prefix_dots(a, b, ends) -> list:
    """sum(a[:e] * b[:e]) for each e in ends (ascending), in one pass.

    Integer arrays (int32, int64 or object) give exact ints.  Otherwise the float64
    products are summed exactly and each prefix is rounded once, so every
    result equals math.fsum of that prefix's products.  A non-finite product
    raises ValueError.  Work runs in blocks of at most SUM_BLOCK terms, whose
    scratch arrays are allocated once per call.
    """
    a, b = np.asarray(a), np.asarray(b)
    ends = [int(e) for e in ends]
    if any(hi < lo for lo, hi in zip([0, *ends], [*ends, min(len(a), len(b))])):
        raise ValueError(f"prefix ends must ascend within [0, {min(len(a), len(b))}]")
    exact = all(v.dtype == object or v.dtype.kind in "iu" for v in (a, b))
    size = min(SUM_BLOCK, ends[-1]) if ends else 0
    if not exact:
        dot, scratch = _scaled_float_dot, _float_scratch(size)
    else:
        dot, scratch = _exact_dot, None
        if all(np.can_cast(v.dtype, np.int64) for v in (a, b)):
            scratch = np.empty((6, size), dtype=np.int64)
    out, total, lo = [], 0, 0
    for end in ends:
        while lo < end:
            hi = min(end, lo + SUM_BLOCK)
            total += dot(a[lo:hi], b[lo:hi], scratch)
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
