"""Empirical side: tabulate, sum exactly, compare against prediction.

A table is an exact named function (totient, Jordan) or a PrimePowerFn,
tabulated by arith.multiplicative_table; tabulate reads any segment of it.

Shifted sums start at n = shift + 1 so the shifted argument stays >= 1.
Every empirical sum goes through prefix_dots, one blockwise pass that is
exact: integer arrays (totient family) give Python ints, and float products
are accumulated into one integer and rounded once per requested prefix, so
each result is the exactly rounded sum (what math.fsum returns) no matter
how many terms enter.  Both kinds are cut into limbs small enough that a
block of SUM_BLOCK = 2^16 terms sums exactly in one numpy reduction, and
each block takes as few as the magnitudes it holds allow: integers into
one to three limbs a side whose limb dots stay within 2^62 in int64, and
float products, on the grid of the block's smallest ulp, into fixed-point
limbs below 2^37 (block sums below 2^53) taken from the top binade down,
as many as the span of its nonzero products needs: two up to 21 binades,
three up to 58.

A grid of x is summed in one such pass too: shifted_sum takes the grid and
returns the sum at every point, so run_grid (`meanvalue`) and
curveconst.mean_order_grid (`verify t2a|t2b|t3`) cost O(largest x) however
many points the grid has.  Both hand it table segment readers, read a
segment at a time into one running sum that prefix_dots carries from call
to call, so no whole table is held.  shifted_sum is also where the library
checks a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (TABLE_SPAN, PrimePowerFn, jordan_dtype, jordan_table, multiplicative_table,
                    totient_table)
from .euler import shifted_mean_constant
from .reports import MeanValueReport


@dataclass(frozen=True)
class NamedFn:
    """Exact-integer tabulation target: 'totient' or 'jordan' of order k."""

    name: str
    k: int = 1


def tabulate(spec: NamedFn | PrimePowerFn, limit: int, lo: int = 0, hi: int | None = None,
             *, out: np.ndarray | None = None) -> np.ndarray:
    """Values over [0, limit]; index n holds the value at n.  Given lo and hi,
    only the entries lo <= n < hi of that table (index n - lo), bit for bit;
    given out, they are written to its head, which is returned."""
    if isinstance(spec, PrimePowerFn):
        return multiplicative_table(spec, limit, lo, hi, out=out)
    if spec.name == "totient":
        return totient_table(limit, lo, hi, out=out)
    if spec.name == "jordan":
        return jordan_table(limit, spec.k, lo, hi, out=out)
    raise ValueError(f"unknown named function {spec.name!r}")


def _table_dtype(spec: NamedFn | PrimePowerFn, limit: int):
    """The dtype tabulate gives spec's table at limit."""
    return np.float64 if isinstance(spec, PrimePowerFn) else jordan_dtype(limit, spec.k)


# Terms per block of prefix_dots: bounds its working memory, and fixes how
# wide a limb may be for its block sum to be exact (see _limb_layout and
# _FIXED_LIMB).
SUM_BLOCK = 2**16

# A finite float64 is m * 2^(e - 53) with |m| < 2^53 an integer and
# e >= -1073 (math.frexp), so every one is an integer multiple of 2^-1126.
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


# Bits per fixed-point limb of the float sum: 2^16 integers below 2^37 in
# magnitude sum below 2^53, so np.sum adds a block's limb exactly in any
# order.  kstar and t3 blocks span 1-3 binades and take two limbs; verify
# gap's differences span 30-38 at x = 4e6 and take three.
_FIXED_LIMB = 53 - (SUM_BLOCK - 1).bit_length()


def _float_scratch(n: int) -> tuple:
    """Block scratch of _scaled_float_dot: terms, a limb and a zero mask."""
    return np.empty(n), np.empty(n), np.empty(n, dtype=bool)


def _scale(v: np.ndarray, k: int, out: np.ndarray) -> None:
    """out = v * 2^k, correctly rounded: a multiply while 2^k is a normal
    float, which is faster, else np.ldexp, which takes any exponent."""
    if -1022 <= k <= 1023:
        np.multiply(v, 2.0**k, out=out)
    else:
        np.ldexp(v, k, out=out)


def _scaled_float_dot(a: np.ndarray, b: np.ndarray, scratch: tuple) -> int:
    """The exact sum of the float64 products a*b, times 2^1126.

    scratch is _float_scratch of at least len(a) entries.  Every product is
    an integer multiple of 2^grid, grid = e_lo - 53 with e_lo the binary
    exponent (math.frexp) of the least nonzero one, and below 2^e_hi in
    magnitude, e_hi that of the largest.  Limbs are taken from the top: for
    unit = e_hi - _FIXED_LIMB, e_hi - 2 * _FIXED_LIMB, ... while unit > grid,
    the limb is trunc(terms / 2^unit), and taking it out of terms leaves them
    below 2^unit.  So the remainder is a multiple of 2^grid below
    2^(grid + _FIXED_LIMB), and is the last limb.  Every step is exact: a
    scaled term can round only where it underflows, below 1, which trunc
    takes to 0 anyway; a limb times 2^unit is the term's leading bits; and
    clearing them leaves its trailing bits.
    """
    terms, top, zero = (v[: len(a)] for v in scratch)
    np.multiply(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), out=terms)
    np.abs(terms, out=top)
    big = float(top.max())  # NaN propagates
    if not math.isfinite(big):
        raise ValueError("non-finite term in sum")
    if big == 0.0:
        return 0
    small = float(top.min())
    if small == 0.0:  # the least nonzero |product|; the first limb overwrites top
        np.equal(top, 0.0, out=zero)
        np.copyto(top, math.inf, where=zero)
        small = float(top.min())
    grid = math.frexp(small)[1] - 53
    total = 0
    for unit in range(math.frexp(big)[1] - _FIXED_LIMB, grid, -_FIXED_LIMB):
        _scale(terms, -unit, top)
        np.trunc(top, out=top)
        total += int(top.sum()) << (unit + _SCALE_BITS)
        _scale(top, unit, top)
        terms -= top
    return total + (int(math.ldexp(terms.sum(), -grid)) << (grid + _SCALE_BITS))


@dataclass
class RunningSum:
    """The exact total of every product prefix_dots has summed into it (an
    integer, scaled by 2^1126 when the products are floats), and the block
    scratch it keeps for the next call, which sums products of one kind."""

    total: int = 0
    scratch: object = None


def prefix_dots(a, b, ends, running: RunningSum | None = None) -> list:
    """sum(a[:e] * b[:e]) for each e in ends (ascending), in one pass.

    Integer arrays (int32, int64 or object) give exact ints.  Otherwise the float64
    products are summed exactly and each prefix is rounded once, so every
    result equals math.fsum of that prefix's products.  A non-finite product
    raises ValueError.  Work runs in blocks of at most SUM_BLOCK terms, whose
    scratch arrays are allocated once per call.  Given a running sum, the
    products are added to its total, each result counts every product
    summed into it before, and the scratch is the running sum's, so
    consecutive slices of two long arrays give the prefix sums of the whole.
    """
    a, b = np.asarray(a), np.asarray(b)
    ends = [int(e) for e in ends]
    if any(hi < lo for lo, hi in zip([0, *ends], [*ends, min(len(a), len(b))])):
        raise ValueError(f"prefix ends must ascend within [0, {min(len(a), len(b))}]")
    exact = all(v.dtype == object or v.dtype.kind in "iu" for v in (a, b))
    size = min(SUM_BLOCK, ends[-1]) if ends else 0
    running = running or RunningSum()
    scratch = running.scratch
    if not exact:
        dot = _scaled_float_dot
        if scratch is None or len(scratch[0]) < size:
            scratch = _float_scratch(size)
    else:
        dot = _exact_dot
        if not all(np.can_cast(v.dtype, np.int64) for v in (a, b)):
            scratch = None
        elif scratch is None or scratch.shape[1] < size:
            scratch = np.empty((6, size), dtype=np.int64)
    running.scratch = scratch
    out, lo = [], 0
    for end in ends:
        while lo < end:
            hi = min(end, lo + SUM_BLOCK)
            running.total += dot(a[lo:hi], b[lo:hi], scratch)
            lo = hi
        out.append(running.total if exact else running.total / _SCALE)
    return out


def shifted_sum(f_read, g_read, shift: int, x: int, *, grid=None):
    """sum_{n=shift+1..y} F(n-shift) G(n), exactly (see prefix_dots).

    Without a grid, y = x and the one sum is returned.  With a grid (points
    strictly ascending in (shift, x], the last equal to x), the list of sums
    at every point comes from one pass over n <= x.  F and G come as table
    segments: callables (lo, hi) giving the values at lo <= n < hi, read
    arith.TABLE_SPAN terms at a time into one running sum, so no whole
    table is held.  Each step reads F's segment before G's, so G's reader
    may hand out values that F's reader has just written.  Integer values
    give exact ints; otherwise each sum is the exactly rounded float.
    """
    if shift < 1:
        raise ValueError(f"shift must be >= 1, got {shift}")
    ys = [x] if grid is None else [int(y) for y in grid]
    if grid is not None and (not ys or ys[0] <= shift or ys[-1] != x
                             or any(b <= a for a, b in zip(ys, ys[1:]))):
        raise ValueError(f"grid must strictly ascend within ({shift}, {x}] "
                         f"and end at x = {x}")
    terms = max(0, x - shift)
    ends = [max(0, y - shift) for y in ys]
    running, sums, i = RunningSum(), [], 0
    for lo in range(0, max(terms, 1), TABLE_SPAN):  # term t is F(t + 1) G(t + 1 + shift)
        hi = min(lo + TABLE_SPAN, terms)
        j = i
        while j < len(ends) and ends[j] <= hi:
            j += 1
        f = f_read(lo + 1, hi + 1)
        part = prefix_dots(f, g_read(lo + 1 + shift, hi + 1 + shift),
                           [e - lo for e in ends[i:j]] + [hi - lo], running)
        sums += part[:-1]
        i = j
    return sums[0] if grid is None else sums


# ---------------------------------------------------------------------------
# Grid runs

def run_grid(preset, x_grid, *, prime_cutoff: int) -> MeanValueReport:
    """Empirical sums of a presets.Preset against its predicted main term.

    One row per x in the ascending grid; the constant is the preset pair's
    Euler product at the given prime cutoff, and the normalized column
    divides each residual by the preset's error function.  The sums stream
    the tables a segment at a time into buffers written over each step.
    When F and G are one table and the shift is below TABLE_SPAN, each step
    tabulates one window, n from lo to hi + shift, and G is the view of it
    shift entries on, so that table is sieved once.
    """
    pair = preset.pair
    shift = pair.shift
    xs = [int(v) for v in x_grid]
    xmax = max(xs, default=1)  # shifted_sum checks the grid

    constant = shifted_mean_constant(pair, prime_cutoff)
    span = min(TABLE_SPAN, max(xmax - shift, 1))
    shared = preset.g_tab == preset.f_tab and shift < TABLE_SPAN
    reach = shift if shared else 0  # entries f_read tabulates past its segment, for G
    f_buf = np.empty(span + reach, dtype=_table_dtype(preset.f_tab, xmax))
    g_buf = f_buf if shared else np.empty(span, dtype=_table_dtype(preset.g_tab, xmax))

    def f_read(lo, hi):
        return tabulate(preset.f_tab, xmax, lo, hi + reach, out=f_buf)[: hi - lo]

    def g_read(lo, hi):
        if shared:  # the window f_read filled from lo - shift on
            return g_buf[shift : shift + hi - lo]
        return tabulate(preset.g_tab, xmax, lo, hi, out=g_buf)

    sums = shifted_sum(f_read, g_read, shift, xmax, grid=xs)
    return MeanValueReport.from_sums(
        xs, [float(s) for s in sums], [constant.value * pair.baseline.main_term(x) for x in xs],
        preset.error_fn, label=preset.name, error_label=preset.error_label)
