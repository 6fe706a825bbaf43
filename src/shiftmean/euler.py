"""Euler-product constants for mean values of shifted multiplicative products.

Computes the constant in front of the main term of sums
sum_{n<=x} F(n-h) G(n) where F(n) = A(n) sum_{d|n} f(d) and
G(n) = B(n) sum_{d|n} g(d) with f, g multiplicative and A(n) = n^a,
B(n) = n^b monomials.  The constant is a product of per-prime local factors
with a correction factor at each prime dividing the shift h.  The
independent checks of it (the rearranged double sum, prime-zeta values)
live with the tests, in tests/oracles.py.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import PrimePowerFn, count_up_to, factorize_trial, prime_segments

# Power-series truncation: stop once p^k passes the ceiling or the summand
# magnitude falls below the floor; both are beyond double resolution for the
# geometrically decaying tables used here.  The ceiling alone ends every
# series by k = 60, since 2^60 > 10^18.
POWER_CEILING = 10**18
TERM_FLOOR = 1e-20

# local factors smaller than this are treated as degenerate (division by
# near-zero in the shift correction)
DEGENERATE_FLOOR = 1e-12

# Primes per chunk of the power-series fold: its few float64 temporaries
# (128 KiB each) stay in cache and set the fold's peak beside the segment's
# arrays.  Each term is computed elementwise, so the chunk size moves no bit.
FOLD_CHUNK = 2**14


class DegenerateLocalFactor(ArithmeticError):
    """The exponent-zero local sum vanished; the shift correction divides by it."""


@dataclass(frozen=True)
class MonomialBaseline:
    """Smooth parts A(n) = n^deg_shifted, B(n) = n^deg_direct.

    The progression sums sum_{n<=x, n=r mod m} A(n-h)B(n) are x^(a+b+1)/(m(a+b+1))
    up to an error O(x^(a+b)), which fixes the main term and error scale below.
    """

    deg_shifted: int
    deg_direct: int

    def __post_init__(self):
        if self.deg_shifted < 0 or self.deg_direct < 0:
            raise ValueError("degrees must be non-negative")

    def main_term(self, x: float) -> float:
        d = self.deg_shifted + self.deg_direct + 1
        return float(x) ** d / d


@dataclass(frozen=True)
class ShiftedPairSpec:
    """One full shifted-mean-value problem instance.

    The absolute convergence of sum |f(d)|/d and sum |g(d)|/d, and the
    doubling bounds on the partial-sum envelopes, are the caller's
    responsibility; they hold for every built-in preset.
    """

    f: PrimePowerFn
    g: PrimePowerFn
    shift: int
    baseline: MonomialBaseline

    def __post_init__(self):
        if self.shift < 1:
            raise ValueError(f"shift must be >= 1, got {self.shift}")


@dataclass(frozen=True)
class EulerProductValue:
    """A truncated Euler product together with its truncation accounting.

    tail_bound estimates the effect of primes beyond prime_cutoff using the
    measured envelope max_p p*|f(p)+g(p)| extended past the cutoff; it is a
    heuristic bound (the convergence hypotheses carry no effective rate), and
    tail_bound_sharp, when present, is a prime-density refinement of it.
    """

    value: float
    prime_cutoff: int
    power_depth: int
    tail_bound: float
    tail_bound_sharp: Optional[float] = None


def _max_depth(p: int) -> int:
    """Largest usable exponent at p: floor(log_p POWER_CEILING)."""
    k, pk = 0, 1
    while pk <= POWER_CEILING // p:
        pk *= p
        k += 1
    return max(k, 1)


def paired_power_sum(f: PrimePowerFn, g: PrimePowerFn, p: int, min_exp: int,
                     depth: int) -> float:
    """Sum of f(p^e1) g(p^e2) / p^(e1+e2) over pairs with min(e1,e2) = min_exp.

    Exponents beyond depth are dropped.
    """
    if depth < min_exp:
        raise ValueError(f"depth {depth} smaller than min exponent {min_exp}")
    i = min_exp
    total = f(p, i) * g(p, i) / float(p) ** (2 * i)
    for e in range(i + 1, depth + 1):
        w = float(p) ** (e + i)
        total += (f(p, e) * g(p, i) + f(p, i) * g(p, e)) / w
    return total


def shift_local_factor(f: PrimePowerFn, g: PrimePowerFn, p: int, valuation: int,
                       depth: int) -> float:
    """Correction factor at a prime p dividing the shift to the given valuation.

    Returns 1 + (sum_{i=1..valuation} p^i S_i) / S_0 where S_i is
    paired_power_sum at minimum exponent i.  Raises DegenerateLocalFactor when
    |S_0| falls below DEGENERATE_FLOOR.
    """
    if valuation < 1:
        raise ValueError(f"valuation must be >= 1, got {valuation}")
    s0 = paired_power_sum(f, g, p, 0, depth)
    if abs(s0) < DEGENERATE_FLOOR:
        raise DegenerateLocalFactor(
            f"local sum at p={p} is {s0:.3e}, below floor {DEGENERATE_FLOOR}"
        )
    num = math.fsum(
        p**i * paired_power_sum(f, g, p, i, depth) for i in range(1, valuation + 1)
    )
    return 1.0 + num / s0


def _local_sums(pair: ShiftedPairSpec, primes: np.ndarray, sums: np.ndarray) -> tuple:
    """Per-prime sums over k >= 1 of (f(p^k) + g(p^k)) / p^k on ascending
    primes, written into sums (float64, one entry per prime, zeroed here).

    Also returns the k = 1 envelope max p^2 |term| and the depth: the last k
    once p^k passes POWER_CEILING for every prime, else the first of two k in a
    row whose terms all fall below TERM_FLOOR (khat's vanish at odd k at p = 2).
    Each k walks the primes FOLD_CHUNK at a time; the envelope (NaN if any term
    is) and the stop test reduce over the chunks as over one array, and each
    chunk's primes become float64 alone, so no float copy of the segment is held.
    """
    sums.fill(0.0)
    envelope = 0.0
    depth_used = 0
    dead = False
    for k in itertools.count(1):
        hi = len(primes)
        if int(primes[-1]) ** k > POWER_CEILING:
            hi = count_up_to(primes, int(POWER_CEILING ** (1.0 / k)))
        if hi == 0:
            break
        live = False
        for a in range(0, hi, FOLD_CHUNK):
            sub = primes[a : min(a + FOLD_CHUNK, hi)].astype(np.float64)
            with np.errstate(over="ignore"):
                terms = pair.f.on_primes(sub, k)
                terms += pair.g.on_primes(sub, k)
                terms /= sub**k
            if k == 1:
                envelope = float(np.maximum(envelope, np.max(np.abs(terms) * sub * sub)))
            sums[a : a + len(sub)] += terms
            live = live or bool(np.any(np.abs(terms) >= TERM_FLOOR))
        if dead and not live:
            break
        depth_used, dead = k, not live
    return sums, envelope, depth_used


def fold_local_factors(prime_cutoff: int, local) -> tuple:
    """(product of 1 + s_p over primes p <= prime_cutoff, max envelope, max depth).

    Per sieve segment, local(primes, out) writes s_p into a prefix of out and
    returns (that prefix, envelope, depth).  Primes fold in ascending order, as
    a sum of log|1 + s_p| and a count of negative factors, so it is deterministic.
    """
    log_sum, negative = 0.0, False
    envelope = 0.0
    depth_used = 0
    # one sums buffer serves every segment (the first holds the most primes):
    # a fresh array per segment came back from the allocator as new pages,
    # faulted in again each time
    scratch = np.empty(0)
    for primes in prime_segments(prime_cutoff):
        if len(scratch) < len(primes):
            scratch = np.empty(len(primes))
        sums, segment_envelope, segment_depth = local(primes, scratch[: len(primes)])
        envelope = max(envelope, segment_envelope)
        depth_used = max(depth_used, segment_depth)
        below = sums < -1.0
        n_below = np.count_nonzero(below)
        negative ^= bool(n_below % 2)
        # log|1 + s|, with |1 + s| = 1 + (-2 - s) below -1; a zero factor gives -inf
        if n_below:
            sums = np.where(below, -2.0 - sums, sums)
        with np.errstate(divide="ignore"):
            log_sum += np.sum(np.log1p(sums, out=sums))
        del sums, below, primes  # so the next segment is sieved without this one held
    value = float(-np.exp(log_sum) if negative else np.exp(log_sum))
    return value, envelope, depth_used


def shifted_mean_constant(pair: ShiftedPairSpec, prime_cutoff: int) -> EulerProductValue:
    """The constant multiplying the main term of the shifted mean value: the fold
    of _local_sums over primes p <= prime_cutoff, times the shift correction
    at each prime dividing the shift; power_depth is the largest depth."""
    h_fac = factorize_trial(pair.shift) if pair.shift > 1 else []
    if h_fac and h_fac[-1][0] > prime_cutoff:
        raise ValueError(
            f"prime cutoff {prime_cutoff} below largest prime {h_fac[-1][0]} of shift"
        )
    if prime_cutoff < 2:
        raise ValueError(f"prime cutoff {prime_cutoff} admits no primes")
    value, envelope, depth = fold_local_factors(prime_cutoff, functools.partial(_local_sums, pair))

    for p, nu in h_fac:
        value *= shift_local_factor(pair.f, pair.g, p, nu, _max_depth(p))

    cutoff = float(prime_cutoff)
    tail_rel = envelope / (cutoff * math.log(cutoff)) if cutoff > 2 else envelope
    tail = abs(value) * math.expm1(tail_rel) if tail_rel < 700 else math.inf
    return EulerProductValue(
        value=value,
        prime_cutoff=prime_cutoff,
        power_depth=depth,
        tail_bound=tail,
    )
