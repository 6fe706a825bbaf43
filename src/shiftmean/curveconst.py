"""Elliptic-curve order constants and their mean-value verification runs.

The constant attached to a target group order N factors as

    twin_prime_constant * F(N-1) * G(N)

with F = shift_part_fn and G = order_part_fn both multiplicative.  Each
factor is defined once, by its values on prime powers; scalar values and
whole tables are both read off that one definition.  The original
(unnormalized) variant swaps G for a product that is not multiplicative at
squares: its factor at primes with even valuation carries a quadratic-residue
symbol of the p-free part of N.  Substituting that symbol by its mean value
changes each congruence-restricted sum only by O(1), which is what
substitution_gap measures directly.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .arith import (
    Factorization,
    PrimePowerFn,
    eval_multiplicative,
    factorize_trial,
    multiplicative_table,
    prime_segments,
    primes_up_to,
    quad_symbol,
)
from .euler import EulerProductValue
from .harness import prefix_dots, shifted_sum
from .reports import MeanValueReport

ORIGINAL_MEAN = 31.0 / 30.0  # mean value of the unnormalized constant


class SymbolConvention(enum.Enum):
    """Reading of the residue symbol of the odd part at p = 2.

    UNIT takes it to be 1 (the substitution the 31/30 mean is derived under);
    KRONECKER uses the standard Kronecker extension.  Exactly one is active
    per evaluation.
    """

    UNIT = "unit"
    KRONECKER = "kronecker"


def _symbol_at_two(odd_part: int, conv: SymbolConvention) -> int:
    if conv is SymbolConvention.UNIT:
        return 1
    r = (-odd_part) % 8
    return 1 if r in (1, 7) else -1


# ---------------------------------------------------------------------------
# Prime-power kernels (Moebius inverses of the factor functions)

def _shift_kernel_rule(p, k):
    return 1.0 / ((p + 1.0) * (p - 2.0)) if k == 1 else 0.0 * p


shift_kernel = PrimePowerFn(
    _shift_kernel_rule,
    two_rule=lambda k: -1.0 / 3.0 if k == 1 else 0.0,
    name="shift_kernel",
)


def _order_kernel_rule(p, k):
    return (p - 1.0) / (p**k * (p - 2.0))


order_kernel = PrimePowerFn(
    _order_kernel_rule,
    two_rule=lambda k: 0.0 if k == 1 else 2.0 ** (1 - k),
    name="order_kernel",
)

order_kernel_odd = PrimePowerFn(
    _order_kernel_rule,
    two_rule=lambda k: -1.0 if k == 1 else 0.0,
    name="order_kernel_odd",
)


averaged_order_kernel = PrimePowerFn(
    _order_kernel_rule,
    two_rule=lambda k: 3.0 / 2.0**k if k % 2 == 0 else 0.0,
    name="averaged_order_kernel",
)

# ---------------------------------------------------------------------------
# Factor functions, each defined once by its values on prime powers

# F: the factor attached to the shifted argument N-1.  Its second factor,
# 1 / (1 - 1/(p-1)^2), cancels the twin-prime constant's factor at p.
def _shift_part_rule(p, k):
    return (1.0 - 1.0 / ((p - 1.0) ** 2 * (p + 1.0))) * ((p - 1.0) ** 2 / (p * (p - 2.0)))


shift_part_fn = PrimePowerFn(
    _shift_part_rule, two_rule=lambda k: 2.0 / 3.0, name="shift_part"
)


# G: the factor attached to the order N itself.
def _order_part_rule(p, k):
    return (p - 1.0) / (p - 2.0) * (1.0 - 1.0 / (p**k * (p - 1.0)))


order_part_fn = PrimePowerFn(
    _order_part_rule, two_rule=lambda k: 2.0 - 2.0 ** (1 - k), name="order_part"
)

# G restricted to odd N: zero at every even N.
order_part_odd_fn = PrimePowerFn(_order_part_rule, two_rule=lambda k: 0.0, name="order_part_odd")


# G2: like G, but with the (1 - 1/(p^e (p-1))) factor only at odd valuations.
def _odd_val_part_rule(p, k):
    base = (p - 1.0) / (p - 2.0)
    if k % 2 == 1:
        return base * (1.0 - 1.0 / (p**k * (p - 1.0)))
    return base + 0.0 * p


odd_val_part_fn = PrimePowerFn(
    _odd_val_part_rule,
    two_rule=lambda k: 2.0 * (1.0 - 2.0 ** (-k)) if k % 2 == 1 else 2.0,
    name="odd_val_part",
)


# G4: the symbol-free (mean-substituted) counterpart of even_val_symbol_part.
def _even_val_mean_rule(p, k):
    if k % 2 == 1:
        return 1.0 + 0.0 * p
    return 1.0 - 1.0 / (p**k * (p - 1.0))


even_val_mean_fn = PrimePowerFn(
    _even_val_mean_rule,
    two_rule=lambda k: 1.0 - 2.0 ** (-(k + 1)) if k % 2 == 0 else 1.0,
    name="even_val_mean",
)


# G2 G4: the order-side factor of the mean-substituted constant.  At odd p the
# G4 factor fills in the (1 - 1/(p^e (p-1))) that G2 drops at even e, giving G.
def _averaged_order_part_two(k):
    return odd_val_part_fn(2, k) * even_val_mean_fn(2, k)


averaged_order_part_fn = PrimePowerFn(
    _order_part_rule, two_rule=_averaged_order_part_two, name="averaged_order_part"
)


# G3's factor at p^e, e even, for the symbol chi of the p-free part (int or array).
def _even_val_factor(p, e, chi):
    return 1.0 - (p - chi) / (float(p) ** (e + 1) * (p - 1.0))


def even_val_symbol_part(n: int, conv: SymbolConvention = SymbolConvention.UNIT,
                         fac: Optional[Factorization] = None) -> float:
    """Product over primes with even positive valuation, carrying the symbol
    of the p-free part; not multiplicative."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = 1.0
    for p, e in fac if fac is not None else factorize_trial(n):
        if e % 2 != 0:
            continue
        free_part = n // p**e
        chi = _symbol_at_two(free_part, conv) if p == 2 else quad_symbol(-free_part, p)
        out *= _even_val_factor(p, e, chi)
    return out


def even_val_symbol_table(limit: int,
                          conv: SymbolConvention = SymbolConvention.UNIT) -> np.ndarray:
    """Tabulate even_val_symbol_part over [0, limit].

    Not multiplicative, so it gets its own pass.  For each prime power
    base = p^(2a), the factor at base*m depends only on m mod p (mod 8 at
    p = 2, where the symbol is read off -m mod 8), so it is built for one
    period, set to exactly 1.0 where p divides m, and multiplied into the
    strided view res[::base] through rows of whole periods.  Multiplying by
    1.0 leaves an entry's bits as they are, and keeps entry 0 at 0.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    res = np.ones(limit + 1)
    res[0] = 0.0
    for p in primes_up_to(math.isqrt(limit)).tolist():
        t = np.arange(8 if p == 2 else p)  # m mod the period
        if p > 2:
            chi = _qr_table(p)[-t % p].astype(np.float64)
        else:
            chi = np.array([_symbol_at_two(m, conv) for m in range(8)], dtype=np.float64)
        e = 2
        while (base := p**e) <= limit:
            fac = _even_val_factor(p, e, chi)
            fac[t % p == 0] = 1.0
            _multiply_periodic(res[::base], fac)
            e += 2
    return res


# Entries per row when a periodic factor is multiplied into a strided view:
# long enough that the rows, not the periods, set the loop count.
PERIODIC_ROW = 2**12


def _multiply_periodic(view: np.ndarray, period: np.ndarray) -> None:
    """view[m] *= period[m % len(period)] for every m, in place and without a
    full-length copy of the factor: the view is cut into rows of whole periods."""
    row = np.tile(period, max(1, min(PERIODIC_ROW, len(view)) // len(period)))
    full = len(view) - len(view) % len(row)
    if full:
        rows = view[:full].reshape(-1, len(row), copy=False)
        np.multiply(rows, row, out=rows)
    view[full:] *= row[: len(view) - full]


@lru_cache(maxsize=128)
def _qr_table(p: int) -> np.ndarray:
    """chi[t] for t mod p: 0 at 0, +1 at nonzero squares, -1 otherwise."""
    table = np.full(p, -1, dtype=np.int8)
    table[(np.arange(1, p, dtype=np.int64) ** 2) % p] = 1
    table[0] = 0
    return table


# ---------------------------------------------------------------------------
# Constants

def twin_prime_constant(prime_cutoff: int) -> EulerProductValue:
    """prod_{2 < p <= cutoff} (1 - 1/(p-1)^2), with certified crude tail 2/(P-1)
    and a sharper prime-density estimate alongside."""
    if prime_cutoff < 3:
        raise ValueError(f"prime cutoff must be >= 3, got {prime_cutoff}")
    log_sum = 0.0
    for primes in prime_segments(prime_cutoff):
        x = np.subtract(primes[1:] if primes[0] == 2 else primes, 1.0)  # p - 1 as float64
        x *= x
        np.divide(-1.0, x, out=x)
        log_sum += np.sum(np.log1p(x, out=x))
        del x, primes  # so the next segment is sieved without this one held
    value = float(np.exp(log_sum))
    crude = 2.0 / (prime_cutoff - 1)
    sharp = abs(value) / (prime_cutoff * (math.log(prime_cutoff) - 1.0))
    return EulerProductValue(
        value=value,
        prime_cutoff=prime_cutoff,
        power_depth=1,
        tail_bound=crude,
        tail_bound_sharp=sharp,
    )


def eval_point(n: int, conv: SymbolConvention = SymbolConvention.UNIT,
               *, c2: EulerProductValue) -> dict:
    """All factor values at a single order n, for the JSON eval interface.

    Kstar = c2 * F(n-1) * G(n) and Khat = c2 * F(n-1) * G1(n), with
    G1 = G2 * G3 the order-side factor of the unnormalized constant.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    fac = factorize_trial(n)
    f_star = eval_multiplicative(shift_part_fn, factorize_trial(n - 1))
    g_star = eval_multiplicative(order_part_fn, fac)
    g2 = eval_multiplicative(odd_val_part_fn, fac)
    g3 = even_val_symbol_part(n, conv, fac)
    g1 = g2 * g3
    return {
        "N": n,
        "Kstar": c2.value * f_star * g_star,
        "Khat": c2.value * f_star * g1,
        "F_star": f_star,
        "G_star": g_star,
        "G1": g1,
        "G2": g2,
        "G3": g3,
        "G4": eval_multiplicative(even_val_mean_fn, fac),
        "convention": conv.value,
    }


# ---------------------------------------------------------------------------
# Mean-value verification runs

# Each mean-value target and the slope of its main term.
MEAN_TARGETS = {"t2a": 1.0, "t2b": 1.0 / 3.0, "t3": ORIGINAL_MEAN}


def mean_order_grid(which: str, x_grid, conv: SymbolConvention = SymbolConvention.UNIT,
                    *, c2: EulerProductValue) -> MeanValueReport:
    """Empirical sum of the order constant over N <= x against its main term.

    t2a: all N, main term x.  t2b: odd N only, main term x/3.  t3: the
    unnormalized constant, main term 31x/30.  Each is c2 times the shifted
    sum of F(N-1) G(N) with shift 1, so it starts at N = 2 (the shifted
    factor is undefined at 0; the omission is absorbed by the O(log x) error
    scale) and the whole grid comes from one harness.shifted_sum pass, which
    also checks the grid.  Normalized residual divides by log x.
    """
    slope = MEAN_TARGETS.get(which)
    if slope is None:
        raise ValueError(f"unknown mean-value target {which!r}; options: {tuple(MEAN_TARGETS)}")
    xs = [int(v) for v in x_grid]
    xmax = max(xs, default=1)

    # The order side is finished before the shift side is built, so at most
    # two full tables are alive at once.
    if which == "t3":
        order_vals = multiplicative_table(odd_val_part_fn, xmax)
        order_vals *= even_val_symbol_table(xmax, conv)
    else:
        order_fn = order_part_fn if which == "t2a" else order_part_odd_fn
        order_vals = multiplicative_table(order_fn, xmax)
    shift_vals = multiplicative_table(shift_part_fn, xmax)

    sums = shifted_sum(shift_vals, order_vals, 1, xmax, grid=xs)
    return MeanValueReport.from_sums(
        xs, [c2.value * s for s in sums], [slope * x for x in xs], math.log,
        label=which, error_label="log x")


def substitution_gap(x_grid, d: int = 1, modulus: int = 1,
                     conv: SymbolConvention = SymbolConvention.UNIT) -> list:
    """Congruence-restricted sums of (even_val_symbol_part - even_val_mean_fn).

    One sum per x in the ascending grid, over N <= x with N = 1 (mod d) and
    N = 0 (mod modulus).  For coprime (d, modulus) those N form one residue
    class mod d * modulus, so each table is built once, at the largest x,
    and one at a time: the symbol table gives the class entries that can
    differ and their values, and is freed before the mean table is built
    and subtracted at them.  The nonzero differences are summed in one
    pass.  The symbol substitution claims each sum stays O(1) in x;
    incompatible congruences give the empty sum, 0.
    """
    xs = [int(x) for x in x_grid]
    if not xs or xs[0] < 1 or d < 1 or modulus < 1:
        raise ValueError("x, d, modulus must all be >= 1")
    if math.gcd(d, modulus) > 1:
        return [0.0] * len(xs)
    step = d * modulus
    start = modulus * pow(modulus, -1, d) % step or step  # least N >= 1 in the class
    kept, diff = _entries_below_one(even_val_symbol_table(xs[-1], conv)[start::step])
    view = multiplicative_table(even_val_mean_fn, xs[-1])[start::step]
    # About half the differences are exactly 0 (under UNIT, every one whose
    # only even valuation is at p = 2, where the factors agree), so only the
    # others are kept, moved down in place a block at a time.
    n = 0
    for j in range(0, len(kept), GAP_BLOCK):
        at, block = kept[j : j + GAP_BLOCK], diff[j : j + GAP_BLOCK]
        block -= view[at.astype(np.intp)]  # numpy gathers faster by intp than by int32
        nonzero = np.flatnonzero(block != 0)
        diff[n : n + len(nonzero)] = block[nonzero]
        kept[n : n + len(nonzero)] = at[nonzero]
        n += len(nonzero)
    del view
    # each grid end is mapped to the count of kept entries before it
    ends = np.searchsorted(kept[:n], np.array([len(range(start, x + 1, step)) for x in xs],
                                              dtype=kept.dtype))
    return prefix_dots(diff[:n], np.broadcast_to(1.0, n), ends)


# Class entries per block when the gap gathers and subtracts: the
# temporaries stay block-sized beside the one full table.
GAP_BLOCK = 2**16


def _entries_below_one(view: np.ndarray) -> tuple:
    """Positions (int32) and values of the entries of view that are not 1.0.

    These are the N where some prime has an even valuation >= 2: each
    factor there is at most 1 - x^-1.5, which rounds below 1 up to
    cli.MAX_X, so the product is below 1 too, in the symbol table and the
    mean table alike, and both are exactly 1.0 everywhere else.  A class
    holds at most MAX_X < 2^31 entries.  They are counted first, then
    gathered, a block at a time.
    """
    blocks = range(0, len(view), GAP_BLOCK)
    count = sum(int(np.count_nonzero(view[j : j + GAP_BLOCK] != 1.0)) for j in blocks)
    kept, vals = np.empty(count, dtype=np.int32), np.empty(count)
    n = 0
    for j in blocks:
        block = view[j : j + GAP_BLOCK]
        at = np.flatnonzero(block != 1.0)
        vals[n : n + len(at)] = block[at]
        at += j
        kept[n : n + len(at)] = at
        n += len(at)
    return kept, vals
