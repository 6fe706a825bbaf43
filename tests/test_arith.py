import functools
import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from shiftmean import arith, cli, curvelab
from shiftmean.arith import (
    PrimePowerFn,
    eval_multiplicative,
    factorize_trial,
    jordan_table,
    jordan_totient,
    multiplicative_table,
    prime_segments,
    primes_up_to,
    quad_symbol,
    totient,
    totient_table,
)

from oracles import (
    eval_divisor_sum,
    even_val_symbol_table_by_tile,
    factorize_by_trial_division,
    is_prime_miller_rabin,
    plain_sieve,
    prime_power_sieve_by_buffer,
)

PHI_RATIO = PrimePowerFn(lambda p, k: -1.0 / p if k == 1 else 0.0 * p, name="phi_ratio")
ZERO_FN = PrimePowerFn(lambda p, k: 0.0 * p, name="zero")


# ---------------------------------------------------------------------------
# sieve and factorization


def test_spf_small_table():
    # the first prime of a factorization is the smallest prime factor
    spf = [factorize_trial(n)[0][0] for n in range(2, 11)]
    assert spf == [2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_spf_smallest_case():
    assert factorize_trial(2) == [(2, 1)]


def test_spf_prime_square():
    assert factorize_trial(49) == [(7, 2)]


def test_spf_entries_are_prime_divisors():
    primes = set(primes_up_to(10**4).tolist())
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 10**4 + 1)
        p = factorize_trial(n)[0][0]
        assert n % p == 0
        assert p in primes
        # smallest: no prime below p divides n
        for q in range(2, p):
            assert n % q != 0 or q not in primes


def test_factorize_examples():
    assert factorize_trial(12) == [(2, 2), (3, 1)]
    assert factorize_trial(1) == []
    assert factorize_trial(97) == [(97, 1)]


def test_factorize_rejects_out_of_range():
    with pytest.raises(ValueError):
        factorize_trial(0)
    with pytest.raises(ValueError):
        factorize_trial(-5)


def test_factorize_reconstructs_and_valuations():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randrange(1, 10**4 + 1)
        fac = factorize_trial(n)
        prod = 1
        for p, e in fac:
            prod *= p**e
            # e is the p-adic valuation, recomputed by plain division
            m, v = n, 0
            while m % p == 0:
                m //= p
                v += 1
            assert v == e
        assert prod == n
        assert all(a < b for (a, _), (b, _) in zip(fac, fac[1:]))


# primes on both sides of TRIAL_BOUND (251, 257), of SIEVE_SPAN = 2^22
# (4194301, 4194319) and of 2^26 and 10^8; safe primes n = 2q + 1 from 1019 to
# 1000000000547
TRIAL_EDGE_PRIMES = (251, 257, 4194301, 4194319)
SAFE_PRIMES = (1019, 1000667, 1000000007, 1000000000547)
# offsets from 2^53 and 10^16 whose trial division by every odd number ends
# within about 10^6 divisions (the others run to 10^7 and past)
NEAR_2_53 = (-11, -10, -9, -8, -5, -4, -3, -2, -1, 0, 2, 3, 4, 7, 8, 10, 12)
NEAR_10_16 = (-11, -10, -9, -4, -3, -2, -1, 0, 1, 2, 4, 5, 7, 9, 10, 11, 12)


def test_factorize_trial_equals_trial_division_by_every_odd_number():
    p, q = TRIAL_EDGE_PRIMES[2:]
    ns = [1, 2, 3, 4, 255, 256, 257, 65521, 65537, *TRIAL_EDGE_PRIMES,
          *(p * p for p in (3, 251, 257, 65521, 65537)),
          251 * 257, 257 * 263, 65521 * 65537, p * q, 251 * q, 257 * p * q,
          *(2**k for k in range(64)), *(2**k * 257 for k in (1, 40, 60)),
          # at and past 2^63, so the remainders are Python ints
          257**6 * 32027, 257**8, 257**7 * 263,
          *SAFE_PRIMES, *(n - 1 for n in SAFE_PRIMES),
          *(2**53 + d for d in NEAR_2_53), *(10**16 + d for d in NEAR_10_16)]
    for n in ns:
        assert factorize_trial(n) == factorize_by_trial_division(n), n
    for n in SAFE_PRIMES:
        assert factorize_by_trial_division(n // 2) == [(n // 2, 1)], n


def test_factorize_trial_products_of_two_primes_near_the_square_root():
    # p just below sqrt(n) and q just above, near 2^52 and 10^16, and a pair
    # across the first sieve segment's end: the primes past that segment are
    # tested a segment at a time
    for p, q in ((67108859, 67108879), (99999989, 100000007), (4194301, 99999989)):
        assert factorize_by_trial_division(p) == [(p, 1)]
        assert factorize_by_trial_division(q) == [(q, 1)]
        assert factorize_trial(p * q) == [(p, 1), (q, 1)]
    # past 2^63 until the first factor is out
    assert factorize_trial(4194301**2 * 99999989) == [(4194301, 2), (99999989, 1)]


def test_factorize_trial_of_a_large_n_caches_only_base_primes(cold_primes):
    # the primes to 10^8 are tested a segment at a time; none is kept, only
    # the base primes that sieve them, up to 10^4
    n = 99999989 * 100000007
    assert factorize_trial(n) == [(99999989, 1), (100000007, 1)]
    assert arith._prime_cache[0] <= isqrt(isqrt(n))


# ---------------------------------------------------------------------------
# Jacobi symbol


def _euler_criterion(a, p):
    """Legendre symbol by modular exponentiation; independent oracle."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_quad_symbol_identity_at_one():
    for m in (1, 3, 7, 9, 15, 1001):
        assert quad_symbol(1, m) == 1


def test_quad_symbol_against_euler_criterion():
    primes = [p for p in primes_up_to(200).tolist() if p > 2]
    for p in primes:
        for a in range(0, 2 * p, 7):
            assert quad_symbol(a, p) == _euler_criterion(a, p)
    assert quad_symbol(2, 7) == 1  # 2^3 = 1 mod 7


def test_quad_symbol_shared_factor():
    assert quad_symbol(3, 9) == 0


def test_quad_symbol_rejects_even_modulus():
    with pytest.raises(ValueError):
        quad_symbol(3, 8)
    with pytest.raises(ValueError):
        quad_symbol(3, 0)


def test_quad_symbol_multiplicative_in_modulus():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randrange(-50, 200)
        m1 = 2 * rng.randrange(1, 60) + 1
        m2 = 2 * rng.randrange(1, 60) + 1
        assert quad_symbol(a, m1 * m2) == quad_symbol(a, m1) * quad_symbol(a, m2)


def test_quad_symbol_completely_multiplicative_in_argument():
    rng = random.Random(19)
    for _ in range(200):
        m = 2 * rng.randrange(1, 200) + 1
        a, b = rng.randrange(0, 3 * m), rng.randrange(0, 3 * m)
        assert quad_symbol(a * b, m) == quad_symbol(a, m) * quad_symbol(b, m)


def test_quad_symbol_cancellation_nonsquare_odd():
    for m in (3, 5, 7, 15, 21, 27, 33, 45, 99, 105):
        assert isqrt(m) ** 2 != m
        assert sum(quad_symbol(a, m) for a in range(1, m + 1)) == 0


# ---------------------------------------------------------------------------
# divisor sums and local Moebius inversion


def _divisor_sum_brute(fn, n):
    """Direct enumeration over divisors; the oracle eval_divisor_sum must match."""
    total = 0.0
    for d in range(1, n + 1):
        if n % d == 0:
            total += eval_multiplicative(fn, factorize_trial(d))
    return total


def test_eval_divisor_sum_phi_ratio():
    val = eval_divisor_sum(PHI_RATIO, factorize_trial(6))
    assert val == pytest.approx(Fraction(1, 3), abs=1e-15)  # (1-1/2)(1-1/3)


def test_eval_divisor_sum_trivial():
    assert eval_divisor_sum(PHI_RATIO, factorize_trial(1)) == 1.0
    assert eval_divisor_sum(ZERO_FN, factorize_trial(360)) == 1.0


def test_eval_divisor_sum_matches_brute_force():
    rng = random.Random(5)
    bumpy = PrimePowerFn(lambda p, k: (-1.0) ** k / (p + k), name="bumpy")
    for fn in (PHI_RATIO, bumpy):
        for n in list(range(1, 200)) + [rng.randrange(1, 10**4) for _ in range(100)]:
            fac = factorize_trial(n)
            assert eval_divisor_sum(fn, fac) == pytest.approx(
                _divisor_sum_brute(fn, n), rel=1e-12, abs=1e-12
            )


def test_eval_divisor_sum_full_range():
    # every n <= 1e4, against divisor enumeration done by sieve accumulation
    limit = 10**4
    point_vals = np.array(
        [0.0] + [eval_multiplicative(PHI_RATIO, factorize_trial(d)) for d in range(1, limit + 1)]
    )
    divsums = np.zeros(limit + 1)
    for d in range(1, limit + 1):
        divsums[d::d] += point_vals[d]
    for n in range(1, limit + 1):
        got = eval_divisor_sum(PHI_RATIO, factorize_trial(n))
        assert got == pytest.approx(divsums[n], rel=1e-12, abs=1e-12), n


def _local_differences(r):
    """f(p^k) = r(p^k) - r(p^(k-1)): the local Moebius inverse of partial sums r."""
    return [r[k] - r[k - 1] for k in range(1, len(r))]


def test_mobius_invert_phi_case():
    p = 5.0
    r = [1.0] + [1.0 - 1.0 / p] * 6
    f = _local_differences(r)
    assert f[0] == pytest.approx(-1.0 / p, abs=1e-16)
    assert all(v == 0.0 for v in f[1:])


def test_mobius_invert_identity_function():
    assert _local_differences([1.0, 1.0, 1.0, 1.0]) == [0.0, 0.0, 0.0]


def test_mobius_invert_requires_unit_start():
    # the inversion reads r(p^0) = 1: every table of divisor sums starts there
    bumpy = PrimePowerFn(lambda p, k: (-1.0) ** k / (p + k), name="bumpy")
    for fn in (PHI_RATIO, ZERO_FN, bumpy):
        for p in (2, 3, 7):
            r = [eval_divisor_sum(fn, [(p, k)]) for k in range(6)]
            assert r[0] == 1.0
            assert _local_differences(r) == pytest.approx(
                [fn(p, k) for k in range(1, 6)], abs=1e-15
            )


def test_mobius_round_trip_random_sequences():
    rng = random.Random(13)
    for _ in range(50):
        k = rng.randrange(1, 9)
        f = [rng.uniform(-2, 2) for _ in range(k)]
        r = [1.0]
        for v in f:
            r.append(r[-1] + v)
        back = _local_differences(r)
        assert back == pytest.approx(f, abs=1e-12)


def test_mobius_invert_recovers_shift_kernel_on_primes():
    # partial sums constant in k >= 1 invert to a weight at k=1 only,
    # equal to 1/((p+1)(p-2))
    from shiftmean.curveconst import shift_part_fn

    for p in (3, 5, 7, 11, 101):
        r = [1.0] + [shift_part_fn(p, k) for k in range(1, 6)]
        f = _local_differences(r)
        assert f[0] == pytest.approx(1.0 / ((p + 1) * (p - 2)), rel=1e-14)
        assert f[1:] == pytest.approx([0.0] * 4, abs=1e-16)


# ---------------------------------------------------------------------------
# named exact functions


def _jordan_brute(n, k):
    """Count k-tuples mod n with gcd(a_1, ..., a_k, n) = 1; exponential, tiny n only."""
    count = 0
    for tup in range(n**k):
        g, t = n, tup
        for _ in range(k):
            g = gcd(g, t % n)
            t //= n
        if g == 1:
            count += 1
    return count


def test_eval_named_examples():
    assert totient(10) == 4
    assert totient(1) == 1
    assert jordan_totient(6, 2) == 24
    with pytest.raises(ValueError):
        totient(0)


def test_jordan_matches_tuple_count_oracle():
    for n in range(1, 13):
        for k in (1, 2):
            assert jordan_totient(n, k) == _jordan_brute(n, k)


def test_jordan_overflow_rejected():
    with pytest.raises(ValueError):
        jordan_totient(10**6, 22)


def test_jordan_huge_order_rejected_before_the_power():
    # n^k is never built: for n >= 2 and k >= 127 it is already >= 2^127
    with pytest.raises(ValueError):
        jordan_totient(6, 10**9)
    with pytest.raises(ValueError):
        jordan_table(2000, 10**9)
    assert jordan_totient(1, 10**9) == 1


def test_totient_with_table():
    table = totient_table(10**4)
    assert totient(9973) == int(table[9973]) == 9972  # prime
    assert totient(10**4) == int(table[10**4]) == 4000


# ---------------------------------------------------------------------------
# multiplicativity of induced functions


def test_induced_function_multiplicative_on_random_coprime_pairs():
    rng = random.Random(17)
    fns = [
        PHI_RATIO,
        PrimePowerFn(lambda p, k: 1.0 / (p + 1.0) ** k, name="smooth"),
    ]
    done = 0
    while done < 1000:
        m = rng.randrange(2, 1000)
        n = rng.randrange(2, 10**6 // m)
        if gcd(m, n) != 1:
            continue
        fm = factorize_trial(m)
        fn_ = factorize_trial(n)
        fmn = factorize_trial(m * n)
        for fn in fns:
            lhs = eval_multiplicative(fn, fmn)
            rhs = eval_multiplicative(fn, fm) * eval_multiplicative(fn, fn_)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)
        done += 1


# ---------------------------------------------------------------------------
# tabulation


# limits on both sides of the sqrt(limit) split between strided and scattered primes
TABLE_LIMITS = (1, 2, 3, 4, 8, 9, 24, 25, 26, 48, 49, 10**4)


def _cli_tabulated_fns():
    from shiftmean import curveconst as cc

    return [cc.shift_part_fn, cc.order_part_fn, cc.order_part_odd_fn, cc.averaged_order_part_fn,
            cc.odd_val_part_fn, cc.even_val_mean_fn]


def test_multiplicative_table_matches_pointwise_eval():
    facs = [None] + [factorize_trial(n) for n in range(1, max(TABLE_LIMITS) + 1)]
    for fn in _cli_tabulated_fns():
        for limit in TABLE_LIMITS:
            table = multiplicative_table(fn, limit)
            assert table.dtype == np.float64 and len(table) == limit + 1
            assert table[0] == 0.0
            bad = [n for n in range(1, limit + 1) if table[n] != eval_multiplicative(fn, facs[n])]
            assert bad == [], (fn.name, limit, bad[:5])


def test_jordan_table_matches_pointwise_jordan_totient():
    # the narrowest dtype that holds limit^k: k = 3 at limit 10^4 takes int64
    # and k = 9 the object-dtype path (limit^k >= 2^62)
    for k in (1, 2, 3, 9):
        expect = [0] + [jordan_totient(n, k) for n in range(1, max(TABLE_LIMITS) + 1)]
        for limit in TABLE_LIMITS:
            table = jordan_table(limit, k)
            assert table.dtype == (np.int32 if limit**k < 2**31 else
                                   np.int64 if limit**k < 2**62 else object)
            assert table.tolist() == expect[: limit + 1], (k, limit)


# limits 1..10, limits on both sides of the first and second TABLE_SPAN
# edges, and 10^6
SEGMENT_LIMITS = (*range(1, 11), *(arith.TABLE_SPAN * j + d for j in (1, 2) for d in (-1, 0, 1)),
                  3 * arith.TABLE_SPAN + 7, 10**6)


def _jordan_by_buffer(limit, k):
    dtype = arith.jordan_dtype(limit, k)
    return prime_power_sieve_by_buffer(limit, dtype, lambda p, e: p ** (k * (e - 1)) * (p**k - 1),
                                       lambda big: big.astype(dtype) ** k - 1)


def _float_by_buffer(fn, limit):
    return prime_power_sieve_by_buffer(limit, np.float64, fn, lambda big: fn.on_primes(big, 1))


def _assert_same_table(table, expect, label):
    assert table.dtype == expect.dtype, label
    if table.dtype == object:
        assert np.array_equal(table, expect), label
    else:
        assert table.tobytes() == expect.tobytes(), label  # bit for bit, -0.0 included


def test_prime_power_sieve_equals_the_buffer_oracle():
    # the table is filled one TABLE_SPAN segment at a time, its big primes
    # multiplied in per (prime, cofactor) pair, against one buffer of
    # limit // 2 entries per small prime and one scatter per cofactor over
    # the whole table; each table keeps its bits
    for limit in SEGMENT_LIMITS:
        for fn in _cli_tabulated_fns():
            _assert_same_table(multiplicative_table(fn, limit), _float_by_buffer(fn, limit),
                               (fn.name, limit))
        for k in (1, 2):
            _assert_same_table(jordan_table(limit, k), _jordan_by_buffer(limit, k), (k, limit))
    table = jordan_table(10**5, 4)
    assert table.dtype == object
    _assert_same_table(table, _jordan_by_buffer(10**5, 4), (4, 10**5))


@pytest.mark.parametrize("limit", [10**6 + 7, 5 * 10**6])
def test_prime_power_sieve_equals_the_buffer_oracle_over_many_blocks(limit):
    # the big primes' pairs with their cofactors fill many PAIR_BLOCKs in
    # each segment, each block valued and scattered on its own, against one
    # array of all big primes' values; even_val_mean is 1 at every big
    # prime, so none is scattered.  Python ints (jordan-4) only at the
    # smaller limit: at 5e6 the two object tables would hold some 0.4 GB
    from shiftmean.curveconst import even_val_mean_fn, shift_part_fn

    assert len(primes_up_to(limit)) - len(primes_up_to(isqrt(limit))) > 2 * arith.PAIR_BLOCK
    for fn in (shift_part_fn, even_val_mean_fn):
        _assert_same_table(multiplicative_table(fn, limit), _float_by_buffer(fn, limit),
                           (fn.name, limit))
    for k, dtype in ((1, np.int32), (2, np.int64), (4, object)):
        if dtype is object and limit > 10**6 + 7:
            continue
        table = jordan_table(limit, k)
        assert table.dtype == dtype
        _assert_same_table(table, _jordan_by_buffer(limit, k), (k, limit))


def _unit_mixed_rule(p, k):
    # exactly 1 at every power of p = 3 (mod 8) and at the odd powers of p = 1 (mod 4)
    unit = (p % 8 == 3) | ((p % 4 == 1) & (k % 2 == 1))
    return np.where(unit, 1.0, 1.0 + 1.0 / p**k)


UNIT_MIXED_FN = PrimePowerFn(_unit_mixed_rule, name="unit_mixed")
# exactly 1 below 100, so runs of big primes valued 1 are scattered among others
UNIT_BELOW_100_FN = PrimePowerFn(lambda p, k: np.where(p < 100, 1.0, 1.0 + 1.0 / p**k),
                                 name="unit_below_100")
# exactly 1 at every big prime of any table past 10^4, so their scatter is left out
UNIT_PAST_100_FN = PrimePowerFn(lambda p, k: np.where(p > 100, 1.0, 1.0 + 1.0 / p**k),
                                name="unit_past_100")
# 0.0 at p and -0.0 at the higher powers: equal values whose bits differ
SIGNED_ZERO_FN = PrimePowerFn(lambda p, k: (1.0 if k == 1 else -1.0) * 0.0 * p, name="signed_zero")


def test_prime_power_sieve_chunk_edges_at_a_small_chunk(monkeypatch):
    # 7-entry segments put many segment edges, and powers longer than a
    # segment, inside small tables, and 6-pair blocks many block edges among
    # the (big prime, cofactor) pairs.
    # even_val_mean (1 at odd powers), the totient (1 at p = 2), unit_mixed,
    # unit_below_100 and unit_past_100 leave out factors of exactly 1, at
    # small and at big primes; shift_part's powers share one value, and
    # signed_zero's only seem to
    monkeypatch.setattr(arith, "TABLE_SPAN", 7)
    monkeypatch.setattr(arith, "PAIR_BLOCK", 6)
    fns = _cli_tabulated_fns()
    for limit in range(1, 300):
        for fn in (*fns[:2], fns[5], UNIT_MIXED_FN, UNIT_BELOW_100_FN, UNIT_PAST_100_FN,
                   SIGNED_ZERO_FN):
            _assert_same_table(multiplicative_table(fn, limit), _float_by_buffer(fn, limit),
                               (fn.name, limit))
        for k in (1, 2):
            _assert_same_table(jordan_table(limit, k), _jordan_by_buffer(limit, k), (k, limit))


# a span whose third edge, 3 * 2^14 + 7, lies past the 4.6e4 where Jordan-4
# values need Python ints
SMALL_SPAN = 2**14


@pytest.mark.parametrize("limit", [SMALL_SPAN - 1, SMALL_SPAN, SMALL_SPAN + 1, 3 * SMALL_SPAN + 7])
def test_table_sieve_at_a_small_span_equals_the_oracles(limit, monkeypatch):
    # whole tables and segments cut at and across the span edges keep the
    # oracles' bits: every CLI table, Jordan k = 1, 2 and 4, and the symbol
    # table under both conventions (its primes past 2^7 have at most one
    # multiple of each power in a segment)
    from shiftmean.curveconst import SymbolConvention, even_val_symbol_table

    monkeypatch.setattr(arith, "TABLE_SPAN", SMALL_SPAN)
    ranges = [(0, 1), (1, 2), (SMALL_SPAN - 1, SMALL_SPAN + 1), (limit // 3, limit // 2 + 5),
              (limit, limit + 1), (limit + 1, limit + 1)]
    cases = [(fn.name, functools.partial(multiplicative_table, fn, limit), _float_by_buffer(fn, limit))
             for fn in _cli_tabulated_fns()]
    cases += [(conv.value, functools.partial(even_val_symbol_table, limit, conv),
               even_val_symbol_table_by_tile(limit, conv)) for conv in SymbolConvention]
    for name, table, expect in cases:
        _assert_same_table(table(), expect, (name, limit))
        for lo, hi in ranges:
            hi = min(hi, limit + 1)
            _assert_same_table(table(lo, hi), expect[lo:hi], (name, limit, lo, hi))
    for k in (1, 2, 4):
        table = jordan_table(limit, k)
        assert (table.dtype == object) == (k == 4 and limit > 46340), (k, limit)
        _assert_same_table(table, _jordan_by_buffer(limit, k), (k, limit))


def test_table_segment_bounds():
    from shiftmean.curveconst import SymbolConvention, even_val_symbol_table, shift_part_fn

    for table in (functools.partial(multiplicative_table, shift_part_fn, 100),
                  functools.partial(even_val_symbol_table, 100, SymbolConvention.UNIT)):
        assert table(40).tobytes() == table()[40:].tobytes()
        assert len(table(101, 101)) == 0
        for lo, hi in ((-1, 5), (5, 4), (0, 102)):
            with pytest.raises(ValueError, match="within"):
                table(lo, hi)


def test_shift_table_memory():
    # beside the float64 table, the sieve holds one segment's scratch: no
    # factor buffer (shift_part's powers share one value), then the big
    # primes' values and positions, about PAIR_BLOCK pairs at a time: 1.43
    # and 1.46 MiB over the table, measured; 1.54 MiB when the big primes
    # went in a PRIME_BLOCK at a time over the whole table
    from shiftmean.curveconst import shift_part_fn

    for limit in (2 * 10**6, 4 * 10**6):
        primes_up_to(limit)  # warm the prime cache so only the table's arrays count
        tracemalloc.start()
        try:
            table = multiplicative_table(shift_part_fn, limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + 8 * 8 * arith.PRIME_BLOCK, limit  # 8 float64 blocks
        del table


def test_multiplicative_table_memory():
    # the float64 table is 7.6 MiB; beside it one segment's factor buffer
    # (1 MiB), released before the big primes' values are computed about
    # PAIR_BLOCK pairs at a time: 9.08 MiB measured; one strided buffer of
    # limit // 2 entries peaked at 11.45 MiB
    from shiftmean.curveconst import odd_val_part_fn

    primes_up_to(10**6)  # warm the prime cache so only the table's arrays count
    tracemalloc.start()
    try:
        multiplicative_table(odd_val_part_fn, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.5 * 2**20


def test_multiplicative_table_handles_zero_values():
    # odd-support table: zero at p = 2 wipes all even entries
    from shiftmean.curveconst import order_kernel_odd, order_part_odd_fn

    table = multiplicative_table(order_part_odd_fn, 2000)
    assert np.all(table[2::2] == 0.0)
    for n in range(1, 2000, 2):
        expect = eval_divisor_sum(order_kernel_odd, factorize_trial(n))
        assert table[n] == pytest.approx(expect, rel=1e-12)


def test_totient_table_exact():
    table = totient_table(5000)
    assert table[1:7].tolist() == [1, 1, 2, 2, 4, 2]
    for n in range(1, 5001, 97):
        assert int(table[n]) == totient(n)


def test_jordan_table_exact_and_wide():
    t2 = jordan_table(3000, 2)
    for n in range(1, 3001, 53):
        assert int(t2[n]) == jordan_totient(n, 2)
    # object-dtype path for wide values
    t9 = jordan_table(300, 9)
    assert t9.dtype == object
    for n in (1, 2, 128, 255, 300):
        assert t9[n] == jordan_totient(n, 9)
    with pytest.raises(ValueError):
        jordan_table(10**6, 22)


def test_primes_up_to_cache_consistency():
    big = primes_up_to(10**4)
    small = primes_up_to(100)
    assert small.tolist() == [p for p in big.tolist() if p <= 100]
    assert primes_up_to(1).size == 0
    limit, primes = arith._prime_cache
    assert limit >= 10**4 and primes[-1] <= limit
    assert primes_up_to(limit) is primes


SPAN = arith.SIEVE_SPAN


@pytest.fixture
def cold_primes(monkeypatch):
    """An empty prime cache, restored after the test."""
    monkeypatch.setattr(arith, "_prime_cache", (0, np.empty(0, dtype=np.int32)))


@pytest.fixture(scope="module")
def plain_primes():
    return plain_sieve(10**7)


def extended_primes(lo, hi):
    """primes_up_to(hi) from a cache cold but for the primes below lo, so
    that the primes in [lo, hi] are sieved by _sieve_range(lo, hi, ...)
    (from 1 when lo <= 2, where the cache stays empty; the same primes)."""
    arith._prime_cache = (0, np.empty(0, dtype=np.int32))
    primes_up_to(lo - 1)
    return primes_up_to(hi)


@pytest.mark.parametrize("limit", [SPAN - 1, SPAN, SPAN + 1, 10**7])
def test_primes_up_to_equals_plain_sieve(limit, plain_primes, cold_primes):
    got = primes_up_to(limit)
    assert got.dtype == np.int32
    assert np.array_equal(got, plain_primes[plain_primes <= limit])


def test_primes_up_to_ranges_equal_plain_sieve(plain_primes, cold_primes):
    ranges = [(lo, hi) for lo in range(5) for hi in (lo, 1, 2, 3, 4, 5, 9, 10**4)]
    ranges += [(SPAN - 9, SPAN + 9), (SPAN - 1, SPAN), (SPAN, SPAN), (SPAN + 1, 2 * SPAN + 1),
               (1000, 2 * SPAN + 7), (SPAN // 2, SPAN + 10**5)]
    for lo, hi in ranges:
        got = extended_primes(lo, hi)
        assert np.array_equal(got, plain_primes[plain_primes <= hi]), (lo, hi)


@pytest.mark.parametrize("order", ["ascending", "descending", "mixed"])
def test_primes_up_to_after_call_sequences(order, plain_primes, cold_primes):
    limits = [2, 3, 100, 9973, SPAN - 1, SPAN, SPAN + 1, 5 * 10**6, 10**7]
    if order == "descending":
        limits.reverse()
    elif order == "mixed":
        random.Random(3).shuffle(limits)
    for limit in limits:
        assert np.array_equal(primes_up_to(limit), plain_primes[plain_primes <= limit]), limit
    cached_limit, cached = arith._prime_cache
    assert cached_limit == 10**7 and np.array_equal(cached, plain_primes)


def test_prime_segments_cover_the_primes_once(plain_primes, cold_primes):
    segments = [s.copy() for s in prime_segments(10**7)]  # each is valid until the next
    assert len(segments) == -(-(10**7 + 1) // SPAN)
    for i, seg in enumerate(segments):
        assert seg[0] >= i * SPAN and seg[-1] < (i + 1) * SPAN
    assert np.array_equal(np.concatenate(segments), plain_primes)
    # every segment is sieved; only the base primes up to sqrt(10^7) are cached
    assert arith._prime_cache[0] == isqrt(10**7)
    assert [s.tolist() for s in prime_segments(10)] == [[2, 3, 5, 7]]
    # a segment without primes is skipped: [SPAN, SPAN + 14] holds none
    assert list(prime_segments(1)) == []
    assert [s[-1] for s in prime_segments(SPAN + 14)] == [plain_primes[plain_primes < SPAN][-1]]


def test_prime_segments_over_a_warm_cache(plain_primes, cold_primes):
    # the cache covers the first two segments and the start of the third;
    # every segment is sieved all the same, and the cache neither grows nor
    # shrinks
    primes_up_to(2 * SPAN + 5)
    segments = [s.copy() for s in prime_segments(10**7)]
    assert len(segments) == -(-(10**7 + 1) // SPAN)
    for i, seg in enumerate(segments):
        assert seg[0] >= i * SPAN and seg[-1] < (i + 1) * SPAN
    assert np.array_equal(np.concatenate(segments), plain_primes)
    assert arith._prime_cache[0] == 2 * SPAN + 5


def test_prime_segments_past_the_cache_share_one_array(plain_primes, cold_primes, monkeypatch):
    # 2,442 segments of 2^12, the first included: no later segment leaves
    # more wheel flags than the first, so none allocates; sized by Dusart's
    # bounds, whose slack grows with x, 896 of them did
    monkeypatch.setattr(arith, "SIEVE_SPAN", 2**12)
    bases, segments = [], []
    for seg in prime_segments(10**7):
        if not any(seg.base is b for b in bases):
            bases.append(seg.base)
        segments.append(seg.copy())
    assert len(bases) == 1
    assert np.array_equal(np.concatenate(segments), plain_primes)


def test_primes_up_to_every_small_range(cold_primes):
    expected = plain_sieve(200)
    for lo in range(201):
        for hi in range(lo, 201):
            got = extended_primes(lo, hi)
            assert got.dtype == np.int32
            assert np.array_equal(got, expected[expected <= hi]), (lo, hi)


def test_primes_up_to_ranges_ending_around_the_wheel(plain_primes, cold_primes):
    # ends at 6k - 1, 6k, 6k + 1 and 6k + 5 next to the first two segment ends
    ends = [6 * k + d for b in (SPAN, 2 * SPAN) for k in (b // 6, b // 6 + 1) for d in (-1, 0, 1, 5)]
    for lo in [0] + ends:
        for hi in ends:
            if lo <= hi:
                expect = plain_primes[plain_primes <= hi]
                assert np.array_equal(extended_primes(lo, hi), expect), (lo, hi)


def test_primes_up_to_range_starting_at_a_base_prime_square(plain_primes, cold_primes):
    # the first multiple a base prime p marks is p^2 itself
    for p in (5, 7, 11, 13, 1009, 3001):
        for hi in (p * p, p * p + 1, p * p + 5000):
            expect = plain_primes[plain_primes <= hi]
            assert np.array_equal(extended_primes(p * p, hi), expect), (p, hi)


def test_cold_primes_up_to_holds_its_primes_once(cold_primes):
    # the 1,270,607 int32 primes (4.8 MiB) are sieved straight into one
    # array sized by a bound on their count, next to 1.4 MiB of flags: 6.32
    # MiB measured; int64 primes peaked at 11.18 MiB, and joining
    # per-segment arrays at 20.73 MiB
    tracemalloc.start()
    try:
        primes = primes_up_to(2 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 1270607
    assert peak <= 7 * 2**20


def test_prime_count_bound_holds_at_every_prime(plain_primes):
    # pi(x) jumps at the primes, so the bound holds for x <= 10^7 when it
    # holds at each of them; the second bound takes over at 355,991
    bounds = [arith._prime_count_bound(p) for p in plain_primes.tolist()]
    assert all(b >= k for k, b in enumerate(bounds, start=1))


@pytest.mark.parametrize("block", [2, 6])
def test_primes_up_to_at_a_small_block(block, monkeypatch, plain_primes, cold_primes):
    # flags turned into primes a few at a time, so block edges fall
    # everywhere, against segment ends and the bounds of a range
    monkeypatch.setattr(arith, "PRIME_BLOCK", block)
    for limit in range(2, 400):
        arith._prime_cache = (0, np.empty(0, dtype=np.int32))
        assert np.array_equal(primes_up_to(limit), plain_primes[plain_primes <= limit]), limit
    for lo in range(0, 60):
        for hi in (lo, lo + 1, lo + 7, 400):
            if lo <= hi:
                expect = plain_primes[plain_primes <= hi]
                assert np.array_equal(extended_primes(lo, hi), expect), (lo, hi)


def test_sieve_segment_memory(cold_primes):
    # beside the output, the wheel keeps 1.4 MiB of flags for the 4,194,304
    # integers, and their 228,778 primes are written PRIME_BLOCK flags at a
    # time: 1.50 MiB measured (an int64 temporary as long as the output
    # would add 1.75 MiB)
    lo, hi = 9 * 10**7, 9 * 10**7 + SPAN - 1
    primes_up_to(isqrt(hi))  # warm the base primes so only the segment counts
    out = np.empty(len(arith._sieve_flags(SPAN)), dtype=np.int32)  # room for a prime per flag
    tracemalloc.start()
    try:
        got = arith._sieve_range(lo, hi, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 228778
    assert peak < 1.75 * 2**20


def test_cli_ceilings_fit_the_int32_primes():
    # every prime list is int32: the largest prime any CLI call sieves, for
    # an Euler product, a table to x, the factors of n or a Hasse window,
    # fits, and so does the wheel's base up to its square root
    assert arith.PRIME_DTYPE is np.int32 and arith.PRIME_MAX == np.iinfo(np.int32).max
    cap = curvelab.MAX_ORDER_CAP
    for ceiling in (cli.MAX_PRIME_CUTOFF, cli.MAX_X, isqrt(cli.MAX_EVAL_N),
                    cap + 2 * isqrt(cap) + 4):
        assert ceiling <= arith.PRIME_MAX


@pytest.mark.parametrize("hi", [2 * 10**9, arith.PRIME_MAX], ids=["cutoff-ceiling", "int32-max"])
def test_sieve_window_at_the_top_of_the_int32_primes(hi):
    # about the last 10^5 integers up to the --prime-cutoff ceiling and up
    # to 2^31 - 1 (a prime), where the wheel's first multiples pass 2^31.
    # The window starts at a prime 6k + 1, the number of the first flag,
    # which an int32 first multiple that wrapped round would clear
    lo = next(n for n in range(hi - 10**5 + 1, 0, -1) if n % 6 == 1 and is_prime_miller_rabin(n))
    primes_up_to(isqrt(hi))  # the base primes
    out = np.empty(len(arith._sieve_flags(hi - lo + 1)), dtype=arith.PRIME_DTYPE)
    got = arith._sieve_range(lo, hi, out)
    assert got.tolist() == [n for n in range(lo, hi + 1) if is_prime_miller_rabin(n)]


def test_primes_past_prime_max_raise(plain_primes, cold_primes, monkeypatch):
    with pytest.raises(ValueError, match="sieved up to"):
        primes_up_to(arith.PRIME_MAX + 1)
    # the stream yields every segment up to PRIME_MAX first
    monkeypatch.setattr(arith, "PRIME_MAX", 10**5)
    segments = []
    with pytest.raises(ValueError, match="sieved up to"):
        for seg in prime_segments(10**6):
            segments.append(seg.copy())
    assert np.array_equal(np.concatenate(segments), plain_primes[plain_primes <= 10**5])


def test_table_segment_over_a_warm_cache_copies_no_primes():
    # the top segment of a table to 5e6 reads its big primes from the cache
    # of 348,513 int32 primes with keys of their dtype: the 2 MiB segment and
    # 1 MiB of scratch, 3.00 MiB measured; searchsorted keys of another
    # dtype copy the primes they search to int64 (4.66 MiB with the cache's
    # keys, 4.73 with _big_pairs')
    from shiftmean.curveconst import shift_part_fn

    limit = 5 * 10**6
    lo = limit + 1 - arith.TABLE_SPAN
    multiplicative_table(shift_part_fn, limit, lo)  # warm the prime cache and the sieve
    tracemalloc.start()
    try:
        table = multiplicative_table(shift_part_fn, limit, lo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 1.5 * 2**20
