import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from shiftmean import arith
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
    factorize_by_trial_division,
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


def test_factorize_trial_of_a_large_n_caches_one_segment(cold_primes):
    # the primes to 10^8 are tested a segment at a time; only the first is kept
    assert factorize_trial(99999989 * 100000007) == [(99999989, 1), (100000007, 1)]
    assert arith._prime_cache[0] < SPAN


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


# limits 1..10, limits on both sides of a POWER_CHUNK edge of p = 2, 3, 5
# (limit // p one below, at and one past the chunk), and 10^6
CHUNK_LIMITS = (*range(1, 11),
                *(p * arith.POWER_CHUNK + d for p in (2, 3, 5) for d in (-1, 0, 1, p)), 10**6)


def _jordan_by_buffer(limit, k):
    dtype = arith.jordan_dtype(limit, k)
    return prime_power_sieve_by_buffer(limit, dtype, lambda p, e: p ** (k * (e - 1)) * (p**k - 1),
                                       lambda big: big.astype(dtype) ** k - 1)


def _assert_same_table(table, expect, label):
    assert table.dtype == expect.dtype, label
    if table.dtype == object:
        assert np.array_equal(table, expect), label
    else:
        assert table.tobytes() == expect.tobytes(), label  # bit for bit, -0.0 included


def test_prime_power_sieve_equals_the_buffer_oracle():
    # every factor goes through the POWER_CHUNK scratch instead of one buffer
    # of limit // 2 entries, and the big-prime products land in two reused
    # buffers; each table keeps its bits
    for limit in CHUNK_LIMITS:
        for fn in _cli_tabulated_fns():
            expect = prime_power_sieve_by_buffer(limit, np.float64, fn,
                                                 lambda big: fn.on_primes(big, 1))
            _assert_same_table(multiplicative_table(fn, limit), expect, (fn.name, limit))
        for k in (1, 2):
            _assert_same_table(jordan_table(limit, k), _jordan_by_buffer(limit, k), (k, limit))
    table = jordan_table(10**5, 4)
    assert table.dtype == object
    _assert_same_table(table, _jordan_by_buffer(10**5, 4), (4, 10**5))


@pytest.mark.parametrize("limit", [10**6 + 7, 5 * 10**6])
def test_prime_power_sieve_equals_the_buffer_oracle_over_many_blocks(limit):
    # the big primes fill 3 and 11 PRIME_BLOCKs, each valued and scattered on
    # its own, against one array of them all; even_val_mean is 1 at every
    # big prime, so none is scattered.  Python ints (jordan-4) only at the
    # smaller limit: at 5e6 the two object tables would hold some 0.4 GB
    from shiftmean.curveconst import even_val_mean_fn, shift_part_fn

    assert len(primes_up_to(limit)) - len(primes_up_to(isqrt(limit))) > 2 * arith.PRIME_BLOCK
    for fn in (shift_part_fn, even_val_mean_fn):
        expect = prime_power_sieve_by_buffer(limit, np.float64, fn,
                                             lambda big: fn.on_primes(big, 1))
        _assert_same_table(multiplicative_table(fn, limit), expect, (fn.name, limit))
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
# exactly 1 below 100, so whole blocks of big primes go unscattered before others
UNIT_BELOW_100_FN = PrimePowerFn(lambda p, k: np.where(p < 100, 1.0, 1.0 + 1.0 / p**k),
                                 name="unit_below_100")


def test_prime_power_sieve_chunk_edges_at_a_small_chunk(monkeypatch):
    # a 7-entry chunk puts many chunk edges, and powers longer than a chunk,
    # inside small tables, and a 6-entry block many edges among the big
    # primes; even_val_mean (1 at odd powers), the totient (1 at p = 2),
    # unit_mixed and unit_below_100 leave out factors of exactly 1, at small
    # and at big primes
    monkeypatch.setattr(arith, "POWER_CHUNK", 7)
    monkeypatch.setattr(arith, "PRIME_BLOCK", 6)
    fns = _cli_tabulated_fns()
    for limit in range(1, 300):
        for fn in (*fns[:2], fns[5], UNIT_MIXED_FN, UNIT_BELOW_100_FN):
            expect = prime_power_sieve_by_buffer(limit, np.float64, fn,
                                                 lambda big: fn.on_primes(big, 1))
            _assert_same_table(multiplicative_table(fn, limit), expect, (fn.name, limit))
        for k in (1, 2):
            _assert_same_table(jordan_table(limit, k), _jordan_by_buffer(limit, k), (k, limit))


def test_shift_table_memory():
    # beside the float64 table, the small primes' factors pass through one
    # 1 MiB chunk, and the big primes are valued and scattered a PRIME_BLOCK
    # at a time through two block-sized arrays: 1.54 MiB over the table at
    # both limits, measured; one array of values and one of products over
    # all big primes (148,710 and 282,843 of them) gave 2.27 and 4.44 MiB
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
    # the float64 table is 7.6 MiB, the factors of the primes up to 1000 pass
    # through one 1 MiB chunk, released before the values at the 78,330
    # primes above 1000 are computed PRIME_BLOCK at a time: 9.23 MiB
    # measured; one strided buffer of limit // 2 entries peaked at 11.45 MiB
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
    monkeypatch.setattr(arith, "_prime_cache", (0, np.empty(0, dtype=np.int64)))


@pytest.fixture(scope="module")
def plain_primes():
    return plain_sieve(10**7)


@pytest.mark.parametrize("limit", [SPAN - 1, SPAN, SPAN + 1, 10**7])
def test_primes_up_to_equals_plain_sieve(limit, plain_primes, cold_primes):
    got = primes_up_to(limit)
    assert got.dtype == np.int64
    assert np.array_equal(got, plain_primes[plain_primes <= limit])


def test_primes_up_to_ranges_equal_plain_sieve(plain_primes, cold_primes):
    def expect(lo, hi):
        return plain_primes[(plain_primes >= lo) & (plain_primes <= hi)]

    ranges = [(lo, hi) for lo in range(5) for hi in (lo, 1, 2, 3, 4, 5, 9, 10**4)]
    ranges += [(SPAN - 9, SPAN + 9), (SPAN - 1, SPAN), (SPAN, SPAN), (SPAN + 1, 2 * SPAN + 1),
               (1000, 2 * SPAN + 7), (SPAN // 2, SPAN + 10**5)]
    for warm in (0, 100, SPAN + 5):  # empty, short and longer cache than the range
        arith._prime_cache = (0, np.empty(0, dtype=np.int64))
        primes_up_to(warm)
        for lo, hi in ranges:
            assert np.array_equal(primes_up_to(hi, lo), expect(lo, hi)), (warm, lo, hi)
    # a range past the cache does not grow it
    assert arith._prime_cache[0] == SPAN + 5


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
    segments = list(prime_segments(10**7))
    assert len(segments) == -(-(10**7 + 1) // SPAN)
    for i, seg in enumerate(segments):
        assert seg[0] >= i * SPAN and seg[-1] < (i + 1) * SPAN
    assert np.array_equal(np.concatenate(segments), plain_primes)
    # only the first segment, which starts at 0, is cached
    assert arith._prime_cache[0] == SPAN - 1
    assert [s.tolist() for s in prime_segments(10)] == [[2, 3, 5, 7]]
    # a segment without primes is skipped: [SPAN, SPAN + 14] holds none
    assert list(prime_segments(1)) == []
    assert [s[-1] for s in prime_segments(SPAN + 14)] == [plain_primes[plain_primes < SPAN][-1]]


def test_primes_up_to_every_small_range(cold_primes):
    expected = plain_sieve(200)
    for lo in range(201):
        for hi in range(lo, 201):
            arith._prime_cache = (0, np.empty(0, dtype=np.int64))
            got = primes_up_to(hi, lo)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected[(expected >= lo) & (expected <= hi)]), (lo, hi)


def test_primes_up_to_ranges_ending_around_the_wheel(plain_primes, cold_primes):
    # ends at 6k - 1, 6k, 6k + 1 and 6k + 5 next to the first two segment ends
    ends = [6 * k + d for b in (SPAN, 2 * SPAN) for k in (b // 6, b // 6 + 1) for d in (-1, 0, 1, 5)]
    for lo in [0] + ends:
        for hi in ends:
            if lo <= hi:
                arith._prime_cache = (0, np.empty(0, dtype=np.int64))
                expect = plain_primes[(plain_primes >= lo) & (plain_primes <= hi)]
                assert np.array_equal(primes_up_to(hi, lo), expect), (lo, hi)


def test_primes_up_to_range_starting_at_a_base_prime_square(plain_primes, cold_primes):
    # the first multiple a base prime p marks is p^2 itself
    for p in (5, 7, 11, 13, 1009, 3001):
        for hi in (p * p, p * p + 1, p * p + 5000):
            arith._prime_cache = (0, np.empty(0, dtype=np.int64))
            expect = plain_primes[(plain_primes >= p * p) & (plain_primes <= hi)]
            assert np.array_equal(primes_up_to(hi, p * p), expect), (p, hi)


def test_cold_primes_up_to_holds_its_primes_once(cold_primes):
    # the 1,270,607 primes (9.7 MiB) are sieved straight into one array
    # sized by a bound on their count, next to 1.4 MiB of flags: 11.18 MiB
    # measured; joining per-segment arrays peaked at 20.73 MiB
    tracemalloc.start()
    try:
        primes = primes_up_to(2 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 1270607
    assert peak <= 12 * 2**20


def test_prime_count_bound_holds_at_every_prime(plain_primes):
    # pi(x) jumps at the primes, so the bound holds for x <= 10^7 when it
    # holds at each of them; the second bound takes over at 355,991
    bounds = [arith._prime_count_bound(p) for p in plain_primes.tolist()]
    assert all(b >= k for k, b in enumerate(bounds, start=1))


def test_prime_count_bound_of_a_range_holds_at_every_prime(plain_primes):
    # the bound on [lo, 10^7] is the one on [0, 10^7] less a lower bound on
    # pi(lo - 1), which is k - 1 at the k-th prime lo, so it holds for every
    # lo - 1 < 10^7 when it holds there; the second bound takes over at 88,783
    top = arith._prime_count_bound(10**7)
    lows = [top - arith._prime_count_bound(10**7, p) for p in plain_primes.tolist()]
    assert all(low <= k for k, low in enumerate(lows))
    assert top - arith._prime_count_bound(10**7, 10**7 + 1) <= len(plain_primes)


def test_primes_up_to_range_past_the_cache_holds_its_primes_once(cold_primes):
    # the 5,096,876 primes of (10^7, 10^8] (38.9 MiB) are sieved straight
    # into one array sized by bounds on pi, next to 1.4 MiB of flags: 40.4
    # MiB measured; joining per-segment arrays peaked at 79.1 MiB
    primes_up_to(10**4)  # the base primes, so only the range counts
    tracemalloc.start()
    try:
        got = primes_up_to(10**8, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * got.nbytes
    everything = primes_up_to(10**8)
    assert np.array_equal(got, everything[np.searchsorted(everything, 10**7):])


@pytest.mark.parametrize("block", [2, 6])
def test_primes_up_to_at_a_small_block(block, monkeypatch, plain_primes, cold_primes):
    # flags turned into primes a few at a time, so block edges fall
    # everywhere, against segment ends and the bounds of a range
    monkeypatch.setattr(arith, "PRIME_BLOCK", block)
    for limit in range(2, 400):
        arith._prime_cache = (0, np.empty(0, dtype=np.int64))
        assert np.array_equal(primes_up_to(limit), plain_primes[plain_primes <= limit]), limit
    for lo in range(0, 60):
        for hi in (lo, lo + 1, lo + 7, 400):
            if lo <= hi:
                arith._prime_cache = (0, np.empty(0, dtype=np.int64))
                expect = plain_primes[(plain_primes >= lo) & (plain_primes <= hi)]
                assert np.array_equal(primes_up_to(hi, lo), expect), (lo, hi)


def test_sieve_segment_memory(cold_primes):
    # the wheel keeps 1.4 MiB of flags for the 4,194,304 integers, and the
    # 228,778 primes need an int64 array, filled PRIME_BLOCK flags at a
    # time: 3.19 MiB measured (4.85 MiB with one int64 temporary as long)
    lo, hi = 9 * 10**7, 9 * 10**7 + SPAN - 1
    primes_up_to(isqrt(hi))  # warm the base primes so only the segment counts
    tracemalloc.start()
    try:
        primes_up_to(hi, lo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20
