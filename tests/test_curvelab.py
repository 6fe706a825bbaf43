import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from shiftmean.curveconst import _qr_table, twin_prime_constant
from shiftmean import arith, curvelab
from shiftmean.arith import primes_up_to
from shiftmean.cli import main
from shiftmean.reports import dumps_json
from shiftmean.curvelab import (
    MAX_ORDER_CAP,
    CurveDensityRecord,
    class_number_table,
    expected_m,
    hasse_window_primes,
    order_histogram,
    records_to_csv,
    records_to_json,
)

from oracles import (
    class_number_table_by_bincount,
    count_points,
    count_points_naive,
    expected_m_by_fractions,
)

SMALL_PRIMES = (5, 7, 11, 13)


def _nonsingular_pairs(p):
    return [(a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b**2) % p != 0]


def _lowest_order(p):
    """p + 1 - isqrt(4p): the order that order_histogram(p)[0] counts."""
    return p + 1 - math.isqrt(4 * p)


def _hasse_slice(full, p):
    """The Hasse range of a histogram indexed by order; asserts zeros elsewhere."""
    lo, hi = _lowest_order(p), p + 1 + math.isqrt(4 * p)
    assert not full[:lo].any() and not full[hi + 1:].any()
    return full[lo:hi + 1]


def test_count_points_example_curve():
    # y^2 = x^3 + 1 over the 5-element field: affine points plus infinity
    assert count_points_naive(0, 1, 5) == 6
    assert count_points(0, 1, 5) == 6


def test_count_points_rejects_singular_and_bad_p():
    with pytest.raises(ValueError):
        count_points(0, 0, 5)
    with pytest.raises(ValueError):
        count_points(1, 1, 9)
    with pytest.raises(ValueError):
        count_points(1, 1, 3)


def test_character_sum_equals_naive_everywhere():
    for p in SMALL_PRIMES:
        for a, b in _nonsingular_pairs(p):
            assert count_points(a, b, p) == count_points_naive(a, b, p), (a, b, p)


def test_hasse_bound_holds_for_every_curve():
    for p in SMALL_PRIMES + (17, 19):
        for a, b in _nonsingular_pairs(p):
            n = count_points(a, b, p)
            assert (p + 1 - n) ** 2 <= 4 * p


def test_zero_mean_trace():
    # summed over all (a, b), singular included, the character-sum deviation
    # from p+1 cancels exactly: for fixed a and x, b sweeps every residue
    for p in SMALL_PRIMES:
        chi = _qr_table(p).astype(np.int64)
        xs = np.arange(p, dtype=np.int64)
        total = 0
        for a in range(p):
            for b in range(p):
                total += int(chi[(xs**3 + a * xs + b) % p].sum())
        assert total == 0


def test_histogram_partition_and_singular_count():
    # nonsingular pairs number exactly p^2 - p, and the histogram partitions them
    for p in SMALL_PRIMES + (37,):
        hist = order_histogram(p)
        assert int(hist.sum()) == p * p - p
        assert len(_nonsingular_pairs(p)) == p * p - p
    # Kronecker-Hurwitz, sum over t of H(4p - t^2) = 2p, at every window prime
    # curvelab can read, far past the enumeration oracles
    top = MAX_ORDER_CAP + 2 * math.isqrt(MAX_ORDER_CAP) + 4
    for p in primes_up_to(top)[2:].tolist():
        assert int(order_histogram(p).sum()) == p * p - p


def test_histogram_against_direct_counts():
    for p in SMALL_PRIMES:
        hist = order_histogram(p)
        direct = {}
        for a, b in _nonsingular_pairs(p):
            n = count_points_naive(a, b, p)
            direct[n] = direct.get(n, 0) + 1
        for n, cnt in direct.items():
            assert hist[n - _lowest_order(p)] == cnt
        assert int(hist.sum()) == sum(direct.values())


def _histogram_by_every_a(p):
    """Reference: one vectorized row per coefficient a, all p of them."""
    chi = _qr_table(p).astype(np.int64)
    hist = np.zeros(2 * p + 3, dtype=np.int64)
    bs = np.arange(p, dtype=np.int64)
    xs = np.arange(p, dtype=np.int64)
    x_cubed = (xs * xs % p) * xs % p
    for a in range(p):
        t = (x_cubed + a * xs) % p
        counts = p + 1 + chi[(t[None, :] + bs[:, None]) % p].sum(axis=1)
        nonsingular = (4 * a * a * a + 27 * bs * bs) % p != 0
        np.add.at(hist, counts[nonsingular], 1)
    return hist


def _quartic_coset_reps(p):
    """One a from each coset of F_p^* / (F_p^*)^4; a -> a^((p-1)/g) labels them."""
    g = math.gcd(4, p - 1)
    reps = {}
    a = 1
    while len(reps) < g:
        reps.setdefault(pow(a, (p - 1) // g, p), a)
        a += 1
    return list(reps.values())


def _coset_histogram(p):
    """Reference: rows for a = 0 and one a per quartic coset, weighted by coset size.

    (a, b) -> (u^4 a, u^6 b) is an isomorphism and b -> u^6 b permutes F_p, so
    the orders over b depend only on the coset of a in F_p^* / (F_p^*)^4.
    """
    chi2 = np.tile(_qr_table(p).astype(np.int64), 2)  # t + b < 2p needs no reduction
    xs = np.arange(p, dtype=np.int64)
    bs = np.arange(p, dtype=np.int64)

    def row(a):
        t = ((xs * xs % p) * xs + a * xs) % p
        counts = p + 1 + chi2[t[None, :] + bs[:, None]].sum(axis=1)
        nonsingular = (4 * a**3 + 27 * bs * bs) % p != 0
        return np.bincount(counts[nonsingular], minlength=2 * p + 3)

    coset_size = (p - 1) // math.gcd(4, p - 1)
    return row(0) + sum(coset_size * row(a) for a in _quartic_coset_reps(p))


def _reset_tables(monkeypatch):
    curvelab.order_histogram.cache_clear()
    monkeypatch.setattr(curvelab, "_h6_cache", np.zeros(1, dtype=np.int64))


@pytest.mark.parametrize("p", [17, 19, 101, 103, 229])
def test_coset_histogram_equals_enumeration_over_every_a(p, monkeypatch):
    # 17, 101, 229 are 1 mod 4 (four quartic cosets); 19, 103 are 3 mod 4 (two)
    _reset_tables(monkeypatch)
    every_a = _histogram_by_every_a(p)
    assert np.array_equal(_coset_histogram(p), every_a)
    hist = order_histogram(p)
    assert hist.dtype == np.int64 and len(hist) == 2 * math.isqrt(4 * p) + 1
    assert np.array_equal(hist, _hasse_slice(every_a, p))


def test_class_number_histogram_equals_coset_oracle_to_599(monkeypatch):
    # the table grows from empty as p rises, through every rebuild up to 4 * 599
    _reset_tables(monkeypatch)
    primes = [p for p in range(5, 600) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    assert len(primes) == 107
    for p in primes:
        hist = order_histogram(p)
        assert hist.dtype == np.int64 and len(hist) == 2 * math.isqrt(4 * p) + 1
        assert np.array_equal(hist, _hasse_slice(_coset_histogram(p), p)), p


def test_class_number_table_known_values(monkeypatch):
    monkeypatch.setattr(curvelab, "_h6_cache", np.zeros(1, dtype=np.int64))
    h6 = class_number_table(23)
    known = {3: 2, 4: 3, 7: 6, 8: 6, 11: 6, 12: 8, 15: 12, 16: 9, 19: 6, 20: 12, 23: 18}
    assert {d: int(h6[d]) for d in known} == known
    assert len(class_number_table(len(h6))) > len(h6)  # grown to cover the limit itself
    h6 = class_number_table(4000)
    d = np.arange(len(h6))
    assert not h6[(d % 4 == 1) | (d % 4 == 2)].any()
    assert (h6[1:][(d[1:] % 4 == 0) | (d[1:] % 4 == 3)] > 0).all()


def test_class_number_table_equals_bincount_oracle(monkeypatch):
    # from an empty cache, and rebuilt after growing from 23 (24 -> 47 -> 80001)
    for warm in ((), (23, 24)):
        monkeypatch.setattr(curvelab, "_h6_cache", np.zeros(1, dtype=np.int64))
        for limit in warm:
            class_number_table(limit)
        h6 = class_number_table(80000)
        assert h6.dtype == np.int64 and len(h6) == 80001
        assert np.array_equal(h6, class_number_table_by_bincount(80000)), warm


def test_histogram_memory_bounded_at_large_p(monkeypatch):
    _reset_tables(monkeypatch)
    tracemalloc.start()
    try:
        hist = order_histogram(2003)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(hist.sum()) == 2003 * 2003 - 2003
    assert peak < 16 * 2**20


def test_expected_m_memory_bounded_at_the_ceiling(monkeypatch):
    c2 = twin_prime_constant(10**5)
    _reset_tables(monkeypatch)
    monkeypatch.setattr(arith, "_prime_cache", (0, np.empty(0, dtype=np.int32)))
    tracemalloc.start()
    try:
        rec = expected_m(MAX_ORDER_CAP, c2=c2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # 6.4 MiB measured
    for p in rec.rho:
        assert order_histogram(p).nbytes == 8 * (2 * math.isqrt(4 * p) + 1)


def test_curvelab_csv_streams_records(monkeypatch, capsys):
    # records reach the CSV writer one at a time, so no rho dict outlives its row
    twin_prime_constant(10**6)  # the primes the run's c2 folds are cached
    _reset_tables(monkeypatch)
    tracemalloc.start()
    try:
        code = main(["curvelab", "--n-min", "20", "--n-max", "5000", "--cap", "5000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4981
    assert peak < 5 * 2**20  # 1.99 MiB measured; 2.43 MiB with the CSV text built whole


def test_density_exact_fraction():
    # full enumeration oracle at p = 5, target orders 6 and 7
    direct = {n: sum(1 for a, b in _nonsingular_pairs(5) if count_points_naive(a, b, 5) == n)
              for n in (6, 7)}
    hist = order_histogram(5)
    assert [hist[n - _lowest_order(5)] for n in (6, 7)] == [direct[6], direct[7]]
    rho = expected_m(7, c2=twin_prime_constant(10**5)).rho[5]
    assert rho == direct[7] / 25
    assert 0 <= rho <= 1


def test_density_outside_window_is_zero():
    # the histogram spans the Hasse range only, and expected_m skips primes outside it
    for order, p in ((200, 5), (1, 13)):
        assert not 0 <= order - _lowest_order(p) < len(order_histogram(p))
    assert 5 not in expected_m(200, c2=twin_prime_constant(10**5)).rho


def test_density_partition_at_fixed_prime():
    # every order p + 1 - s .. p + 1 + s at p = 13 is >= 7, so expected_m covers them all
    p = 13
    c2 = twin_prime_constant(10**5)
    orders = range(_lowest_order(p), p + 2 + math.isqrt(4 * p))
    counts = [round(expected_m(n, c2=c2).rho[p] * p * p) for n in orders]
    assert counts == order_histogram(p).tolist()
    assert sum(counts) == p * p - p


def test_expected_m_equals_fraction_oracle_to_2000():
    # rho and expected_m are the correctly rounded exact values, not float sums
    c2 = twin_prime_constant(10**5)
    for n in range(7, 2001):
        rec = expected_m(n, c2=c2)
        rho, total = expected_m_by_fractions(n)
        assert rec.rho == {p: float(f) for p, f in rho.items()}, n
        assert rec.expected_m == total, n


def test_hasse_window_primes_explicit():
    assert hasse_window_primes(20) == [13, 17, 19, 23, 29]
    for p in hasse_window_primes(100):
        assert (p + 1 - 100) ** 2 <= 4 * p
        assert p >= 5


def test_hasse_window_primes_equal_definition_to_3000():
    primes = [p for p in range(5, 3200) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for n in range(1, 3001):
        assert hasse_window_primes(n) == [p for p in primes if (p + 1 - n) ** 2 <= 4 * p], n


def test_rising_windows_grow_the_prime_cache_log_times(monkeypatch):
    # each window asks for the next power of two past its top, so orders
    # 20..5000 over a cache warmed to 1000 sieve a few times, not per order
    monkeypatch.setattr(arith, "_prime_cache", (0, np.empty(0, dtype=np.int32)))
    primes_up_to(1000)
    mark, calls = arith._mark_wheel, []

    def counted(*args):
        calls.append(args[:2])
        return mark(*args)

    monkeypatch.setattr(arith, "_mark_wheel", counted)
    for n in range(20, 5001):
        hasse_window_primes(n)
    assert len(calls) <= math.log2(5000 / 1000) + 2, calls


def test_expected_m_record_invariants():
    c2 = twin_prime_constant(10**5)
    rec = expected_m(20, c2=c2)
    assert rec.order == 20
    assert tuple(rec.rho) == (13, 17, 19, 23, 29)
    for p, r in rec.rho.items():
        assert 0 <= r <= 1
        assert (p + 1 - 20) ** 2 <= 4 * p
    assert rec.expected_m == pytest.approx(float(sum(rec.rho.values())))
    assert rec.predicted > 0
    assert "excluded" in json.loads(_json_text([rec]))[0]["note"]


def test_expected_m_domain_errors():
    c2 = twin_prime_constant(10**5)
    with pytest.raises(ValueError):
        expected_m(6, c2=c2)
    with pytest.raises(ValueError):
        expected_m(MAX_ORDER_CAP + 1, c2=c2)
    for n in (1, 3, 4, 9, 25, 1001):  # below 5, prime squares, 7 * 11 * 13
        with pytest.raises(ValueError):
            order_histogram(n)
    assert int(order_histogram(7919).sum()) == 7919 * 7919 - 7919


def test_record_serialization():
    c2 = twin_prime_constant(10**5)
    recs = [expected_m(n, c2=c2) for n in (20, 21)]
    fh = io.StringIO()
    assert records_to_csv(recs, fh) is None
    lines = fh.getvalue().strip().split("\n")
    assert lines[0] == "N,expected_m,predicted,ratio"
    assert len(lines) == 3
    payload = json.loads(_json_text(recs))
    assert payload[0]["N"] == 20
    assert "rho" in payload[0] and "hasse_primes" in payload[0]


def _json_text(records):
    fh = io.StringIO()
    assert records_to_json(records, fh) is None
    return fh.getvalue()


def _payload(r):
    return {"N": r.order, "hasse_primes": list(r.rho), "rho": {str(p): v for p, v in r.rho.items()},
            "expected_m": r.expected_m, "predicted": r.predicted,
            "note": curvelab.EXCLUDED_PRIMES_NOTE}


@pytest.mark.parametrize("orders", [range(20, 61), range(20, 21), range(0)],
                         ids=["20-60", "one", "none"])
def test_streamed_json_equals_whole_array_encoding(orders):
    # records_to_json writes one record at a time; its text is what one
    # dumps_json of the whole payload list writes, and a newline
    c2 = twin_prime_constant(10**5)
    recs = [expected_m(n, c2=c2) for n in orders]
    assert _json_text(iter(recs)) == dumps_json([_payload(r) for r in recs]) + "\n"


class _Discard:
    """A text sink that counts what it is given and keeps none of it."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


def _written_and_peak(write):
    """Characters write(records, sink) gives a sink that keeps nothing, over
    a generator of N = 20..3000, and its tracemalloc peak."""
    c2 = twin_prime_constant(10**6)
    for n in range(20, 3001):  # the tables and histograms the run reads are cached
        expected_m(n, c2=c2)
    sink = _Discard()
    tracemalloc.start()
    try:
        write((expected_m(n, c2=c2) for n in range(20, 3001)), sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return sink.chars, peak


def test_json_writer_holds_one_record_at_a_time():
    # the writer holds one record's text of the 3.3 MiB (a list of every
    # text and its join peaked at 6.9 MiB)
    chars, peak = _written_and_peak(records_to_json)
    assert chars > 3 * 2**20
    assert peak < 2**20


def test_csv_writer_holds_one_row_at_a_time():
    # the writer holds one row's line of the 144 KiB: 8 KiB peak, against
    # 585 KiB when every line was kept in a list and joined
    chars, peak = _written_and_peak(records_to_csv)
    assert chars > 2**17
    assert peak < 2**18
