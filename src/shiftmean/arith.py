"""Sieve-backed integer arithmetic.

One prime sieve, trial-division factorization, Jacobi symbols,
multiplicative functions defined by their values on prime powers, and one
prime-power sieve that tabulates them (float or exact) over an interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable, Optional

import numpy as np

# Exact-integer evaluation refuses results that would exceed 128 bits.
INT128_CEILING = 1 << 127

Factorization = list[tuple[int, int]]


def factorize_trial(n: int) -> Factorization:
    """Return [(p, e), ...] with strictly increasing p and prod p^e == n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    out: Factorization = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def quad_symbol(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m >= 1; the Legendre symbol for prime m."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got {m}")
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


# ---------------------------------------------------------------------------
# Multiplicative functions given on prime powers


@dataclass(frozen=True)
class PrimePowerFn:
    """A multiplicative function determined by its values on prime powers.

    rule(p, k) gives the value at p^k for k >= 1 and must accept either a
    scalar prime or an ndarray of primes (k is always a scalar).  The value
    at k = 0 is implicitly 1.  two_rule, when given, overrides the values at
    p = 2 (several of the built-in tables are irregular there).
    """

    rule: Callable
    two_rule: Optional[Callable[[int], float]] = None
    name: str = ""

    def __call__(self, p: int, k: int) -> float:
        if k == 0:
            return 1.0
        if p == 2 and self.two_rule is not None:
            return float(self.two_rule(k))
        return float(self.rule(p, k))

    def on_primes(self, primes: np.ndarray, k: int) -> np.ndarray:
        """Vectorized values at p^k over an ascending array of primes."""
        if k == 0:
            return np.ones(len(primes))
        # rules may divide by zero at p = 2 before the override lands
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.asarray(self.rule(primes.astype(np.float64), k), dtype=np.float64)
        if vals.shape == ():  # rule returned a scalar constant
            vals = np.full(len(primes), float(vals))
        if self.two_rule is not None and len(primes) and primes[0] == 2:
            vals[0] = float(self.two_rule(k))
        return vals


def eval_multiplicative(fn: PrimePowerFn, fac: Factorization) -> float:
    """Value of the induced multiplicative function at n = prod p^e."""
    out = 1.0
    for p, e in fac:
        out *= fn(p, e)
    return out


def partial_sum_fn(fn: PrimePowerFn, name: str = "") -> PrimePowerFn:
    """Prime-power table of the divisor sums 1 + fn(p) + ... + fn(p^k)."""

    def rule(p, k):
        acc = fn.rule(p, 1)
        for j in range(2, k + 1):
            acc = acc + fn.rule(p, j)
        return 1.0 + acc

    two = None
    if fn.two_rule is not None:
        def two(k, _f=fn):
            return 1.0 + sum(_f(2, j) for j in range(1, k + 1))

    return PrimePowerFn(rule, two_rule=two, name=name or f"1*{fn.name}")


# ---------------------------------------------------------------------------
# Exact-integer named functions


def totient(n: int) -> int:
    """Euler totient, exact."""
    return jordan_totient(n, 1)


def _power_exceeds_128_bits(n: int, k: int) -> bool:
    """n^k >= 2^127, decided without computing n^k when k >= 127."""
    return n > 1 and (k >= 127 or n**k >= INT128_CEILING)


def jordan_totient(n: int, k: int) -> int:
    """Jordan totient J_k(n) = n^k prod_{p|n} (1 - p^-k), exact.

    Rejects arguments whose value would exceed 128 bits.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if _power_exceeds_128_bits(n, k):
        raise ValueError(f"J_{k}({n}) exceeds the 128-bit range")
    out = 1
    for p, e in factorize_trial(n):
        out *= p ** (k * e) - p ** (k * (e - 1))
    return out


# ---------------------------------------------------------------------------
# Prime lists and bulk tabulation

# (limit, primes <= limit); replaced in one assignment so a reader never
# pairs a limit with a prime list sieved for another.
_prime_cache: tuple = (0, np.empty(0, dtype=np.int64))


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending int64 array of primes <= limit (cached across calls)."""
    global _prime_cache
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    cached_limit, primes = _prime_cache
    if cached_limit < limit:
        composite = np.zeros(limit + 1, dtype=bool)
        composite[:2] = True
        for p in range(2, isqrt(limit) + 1):
            if not composite[p]:
                composite[p * p :: p] = True
        cached_limit, primes = limit, np.flatnonzero(~composite).astype(np.int64)
        _prime_cache = (cached_limit, primes)
    if cached_limit == limit:
        return primes
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


def _prime_power_sieve(limit: int, dtype, local: Callable, on_big: Callable) -> np.ndarray:
    """Table over 0 <= n <= limit of the multiplicative function local(p, e).

    on_big(primes) gives the values at primes above sqrt(limit).  Entry n is
    the product of its prime-power values in ascending prime order.
    """
    res = np.ones(limit + 1, dtype=dtype)
    res[0] = 0
    primes = primes_up_to(limit)
    n_small = int(np.searchsorted(primes, isqrt(limit), side="right"))
    buf = np.empty(limit // 2, dtype=dtype)  # buf[j]: the factor of p at n = (j + 1) p
    for p in primes[:n_small].tolist():
        s, e = 1, 1  # multiples of p^e sit every s = p^(e-1) slots; higher powers overwrite
        while s * p <= limit:
            buf[s - 1 : limit // p : s] = local(p, e)
            s, e = s * p, e + 1
        res[p::p] *= buf[: limit // p]
    # p > sqrt(limit) divides each multiple p*q <= limit once (q <= sqrt(limit)): scatter per q
    big = primes[n_small:]
    vals = on_big(big)
    for q in range(1, isqrt(limit) + 1):
        hi = int(np.searchsorted(big, limit // q, side="right"))
        res[big[:hi] * q] *= vals[:hi]
    return res


def multiplicative_table(fn: PrimePowerFn, limit: int) -> np.ndarray:
    """Tabulate the multiplicative function with local values fn(p, e).

    Returns a float64 array indexed by n for 0 <= n <= limit, with entry 0
    set to 0 and entry n >= 1 equal to eval_multiplicative at n.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return _prime_power_sieve(limit, np.float64, fn, lambda big: fn.on_primes(big, 1))


def totient_table(limit: int) -> np.ndarray:
    """Exact int64 array of totient values for 0 <= n <= limit."""
    return jordan_table(limit, 1)


def jordan_dtype(limit: int, k: int):
    """int64 when limit^k < 2^62, so every J_k(n <= limit) fits; else object."""
    return object if limit > 1 and (k >= 62 or limit**k >= 2**62) else np.int64


def jordan_table(limit: int, k: int) -> np.ndarray:
    """Exact array of J_k values for 0 <= n <= limit.

    Uses int64 when limit^k fits, Python integers (object dtype) up to the
    128-bit ceiling, and rejects anything larger.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if _power_exceeds_128_bits(limit, k):
        raise ValueError(f"J_{k} values up to {limit} exceed the 128-bit range")
    dtype = jordan_dtype(limit, k)

    def local(p, e):  # J_k(p^e)
        return p ** (k * (e - 1)) * (p**k - 1)

    return _prime_power_sieve(limit, dtype, local, lambda big: big.astype(dtype) ** k - 1)
