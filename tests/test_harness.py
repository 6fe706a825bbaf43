import io
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftmean import arith, curveconst, harness, presets

from shiftmean.arith import factorize_trial, jordan_totient, totient
from shiftmean.curveconst import (
    averaged_order_part_fn,
    order_part_fn,
    order_part_odd_fn,
    shift_part_fn,
)
from shiftmean.euler import MonomialBaseline, PrimePowerFn, ShiftedPairSpec, shifted_mean_constant
from shiftmean.harness import (
    SUM_BLOCK,
    NamedFn,
    prefix_dots,
    run_grid,
    shifted_sum,
    tabulate,
)
from shiftmean.presets import get_preset
from shiftmean.reports import MeanValueReport, MeanValueRow

from oracles import (
    eval_divisor_sum,
    fit_error_exponent,
    order_factor_sum_mp,
    run_grid_sums_by_whole_tables,
    segments,
)


# ---------------------------------------------------------------------------
# tabulate


def test_tabulate_totient_prefix():
    vals = tabulate(NamedFn("totient"), 6)
    assert vals[1:7].tolist() == [1, 1, 2, 2, 4, 2]


def test_tabulate_divisor_sum_of_shift_kernel():
    # F = shift_part_fn is the divisor sum of shift_kernel
    vals = tabulate(shift_part_fn, 10)
    assert vals[3] == pytest.approx(5 / 4, rel=1e-15)  # 1 + 1/((3+1)(3-2))
    assert vals[1] == 1.0
    assert vals[2] == pytest.approx(2 / 3, rel=1e-15)


def test_tabulate_zero_table_gives_ones():
    # the divisor sums of the zero kernel: 1 at every prime power
    one = PrimePowerFn(lambda p, k: 1.0 + 0.0 * p, name="one")
    vals = tabulate(one, 50)
    assert np.all(vals[1:] == 1.0)


def test_tabulate_with_degree_factor():
    # the totient is n times prod_{p | n} (1 - 1/p)
    phi_ratio = PrimePowerFn(lambda p, k: 1.0 - 1.0 / p, name="phi_ratio")
    phi_float = tabulate(phi_ratio, 500) * np.arange(501.0)
    phi_exact = tabulate(NamedFn("totient"), 500)
    assert phi_float[1:] == pytest.approx(phi_exact[1:].astype(float), rel=1e-12)


def test_tabulate_jordan_overflow_signals():
    with pytest.raises(ValueError):
        tabulate(NamedFn("jordan", 22), 10**6)


def test_tabulate_unknown_name():
    with pytest.raises(ValueError):
        tabulate(NamedFn("sigma"), 100)


# ---------------------------------------------------------------------------
# shifted sums


def test_shifted_sum_phi_hand_value():
    vals = tabulate(NamedFn("totient"), 5)
    assert shifted_sum(segments(vals), segments(vals), 1, 5) == 15  # 1*1 + 1*2 + 2*2 + 2*4


def test_shifted_sum_empty_range():
    vals = tabulate(NamedFn("totient"), 10)
    assert shifted_sum(segments(vals), segments(vals), 10, 10) == 0
    fvals = vals.astype(np.float64)
    assert shifted_sum(segments(fvals), segments(fvals), 10, 10) == 0.0


def test_shifted_sum_constant_functions():
    ones = np.ones(101, dtype=np.int64)
    assert shifted_sum(segments(ones), segments(ones), 1, 100) == 99


def test_shifted_sum_validates_arguments():
    ones = np.ones(11, dtype=np.int64)
    with pytest.raises(ValueError):
        shifted_sum(segments(ones), segments(ones), 0, 5)
    with pytest.raises(ValueError):
        shifted_sum(segments(ones), segments(ones), 1, 11)


def test_shifted_sum_exact_against_per_point_oracle():
    # exact-path sums equal a wide-integer recomputation from per-point
    # factorizations, term by term
    x = 10**4
    phi_vals = tabulate(NamedFn("totient"), x)
    j2_vals = tabulate(NamedFn("jordan", 2), x)
    for vals, fn in ((phi_vals, totient),
                     (j2_vals, lambda n: jordan_totient(n, 2))):
        for h in (1, 2):
            got = shifted_sum(segments(vals), segments(vals), h, x)
            expect = sum(fn(n - h) * fn(n) for n in range(h + 1, x + 1))
            assert got == expect
            assert isinstance(got, int)


def test_compensated_sum_alternating_millions():
    # 10^7 values of magnitude ~1 with alternating signs; every value is a
    # dyadic rational so the exact total is an integer computation
    n = np.arange(10**7, dtype=np.int64)
    sign = 1 - 2 * (n % 2)
    vals = sign * (1.0 + (n % 1000) * 2.0**-30)
    exact_scaled = int(np.sum(sign * (2**30 + (n % 1000))))  # scale 2^30
    exact = exact_scaled * 2.0**-30
    # shift 1 pairs F(n-1) = 1 with G(n) = vals[n-2] for n = 2 .. len(vals)+1
    g_vals = np.concatenate(([0.0, 0.0], vals))
    f_vals = np.ones(len(g_vals))
    got = shifted_sum(segments(f_vals), segments(g_vals), 1, len(g_vals) - 1)
    assert isinstance(got, float)
    assert abs(got - exact) <= 1e-10


# Prefix lengths y - shift on both sides of the SUM_BLOCK edges.
_GRID_ENDS = [1, 1000, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 2 * SUM_BLOCK]


@pytest.mark.parametrize("f_spec, g_spec, shift, dtype", [
    # J_2 past 46340 needs int64; totients fit in int32 (arith.jordan_dtype)
    (NamedFn("jordan", 2), NamedFn("jordan", 2), 3, np.int64),
    (shift_part_fn, order_part_fn, 6, np.float64),
    # a shift this large puts G = J_3 past 2^62, so the table is object dtype
    (NamedFn("jordan", 3), NamedFn("jordan", 3), 1_600_000, object),
    (NamedFn("totient"), NamedFn("totient"), 3, np.int32),
])
def test_shifted_sum_grid_equals_scalar_sums(f_spec, g_spec, shift, dtype):
    grid = [shift + e for e in _GRID_ENDS]
    f_vals = tabulate(f_spec, grid[-1])
    g_vals = f_vals if g_spec == f_spec else tabulate(g_spec, grid[-1])
    assert g_vals.dtype == dtype
    assert dtype is not object or max(g_vals) >= 2**62
    got = shifted_sum(segments(f_vals), segments(g_vals), shift, grid[-1], grid=grid)
    expect = [shifted_sum(segments(f_vals), segments(g_vals), shift, y) for y in grid]
    assert got == expect
    assert [type(v) for v in got] == [type(v) for v in expect]


def test_shifted_sum_grid_validates():
    ones = np.ones(101, dtype=np.int64)
    for grid in ([50, 40, 100], [2, 50, 100], [3, 50, 99], [], [3, 50, 50, 100]):
        with pytest.raises(ValueError):
            shifted_sum(segments(ones), segments(ones), 2, 100, grid=grid)
    assert shifted_sum(segments(ones), segments(ones), 2, 100, grid=[3, 50, 100]) == [1, 48, 98]


# ---------------------------------------------------------------------------
# prefix_dots: the one summation path

# mixed signs, signed zeros, subnormals and decimal exponents across +-300
_wide_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
)
_factors = st.one_of(st.sampled_from([1.0, -1.0, 0.5, 3.0]), st.floats(-4.0, 4.0))


def _ends(n):
    return st.lists(st.integers(0, n), max_size=6).map(sorted)


@st.composite
def _float_case(draw):
    a = draw(st.lists(_wide_floats, max_size=60))
    b = draw(st.lists(_factors, min_size=len(a), max_size=len(a)))
    return np.array(a), np.array(b), draw(_ends(len(a)))


@st.composite
def _int_case(draw):
    n = draw(st.integers(0, 40))
    near = st.integers(2**62 - 1000, 2**62).flatmap(lambda v: st.sampled_from([v, -v]))
    wide = st.integers(-(2**126), 2**126)
    if draw(st.booleans()):
        a = np.array(draw(st.lists(near, min_size=n, max_size=n)), dtype=np.int64)
        b = np.array(draw(st.lists(near, min_size=n, max_size=n)), dtype=np.int64)
    else:
        a = np.array(draw(st.lists(wide, min_size=n, max_size=n)), dtype=object)
        b = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64)
    return a, b, draw(_ends(n))


@settings(deadline=None)
@given(_float_case())
def test_prefix_dots_floats_equal_fsum_of_every_prefix(case):
    a, b, ends = case
    terms = (a * b).tolist()
    got = prefix_dots(a, b, ends)
    assert got == [math.fsum(terms[:e]) for e in ends]
    assert got == [float(sum(map(Fraction, terms[:e]), Fraction(0))) for e in ends]
    assert all(isinstance(v, float) for v in got)


@settings(deadline=None)
@given(_int_case())
def test_prefix_dots_integers_are_exact(case):
    a, b, ends = case
    got = prefix_dots(a, b, ends)
    assert got == [sum(int(u) * int(v) for u, v in zip(a[:e], b[:e])) for e in ends]
    assert all(isinstance(v, int) for v in got)


_INT64_EDGES = [-(2**63), 2**63 - 1, 2**62, -(2**62)]
_LIMB_DTYPES = [
    (np.int8, np.int64),
    (np.int32, np.int64),
    (np.uint32, np.int64),
    (np.int64, np.int64),
    (np.int64, object),
]


def _values_of(dtype):
    if dtype is object:  # Python ints on both sides of the int64 range
        return st.one_of(st.sampled_from(_INT64_EDGES), st.integers(-(2**100), 2**100))
    info = np.iinfo(dtype)
    edges = [v for v in [info.min, info.max, *_INT64_EDGES] if info.min <= v <= info.max]
    return st.one_of(st.sampled_from(edges), st.integers(int(info.min), int(info.max)))


@st.composite
def _limb_case(draw):
    a_dtype, b_dtype = draw(st.sampled_from(_LIMB_DTYPES))
    if draw(st.booleans()):
        a_dtype, b_dtype = b_dtype, a_dtype
    long = [SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1]
    n = draw(st.one_of(st.integers(0, 40), st.sampled_from(long)))
    # long arrays repeat a short drawn pattern, so every block is full of edge values
    k = max(1, min(n, 40))

    def pattern(dtype):
        values = draw(st.lists(_values_of(dtype), min_size=k, max_size=k))
        return np.resize(np.array(values, dtype=dtype), n)

    a, b = pattern(a_dtype), pattern(b_dtype)
    if n <= 40:
        return a, b, draw(_ends(n))
    ends = draw(st.lists(st.sampled_from([0, *long]), max_size=4).map(sorted))
    return a, b, [e for e in ends if e <= n]


@settings(deadline=None, max_examples=60)
@given(_limb_case())
def test_prefix_dots_limb_dot_equals_python_ints(case):
    a, b, ends = case
    prods = [u * v for u, v in zip(a.tolist(), b.tolist())]
    got = prefix_dots(a, b, ends)
    assert got == [sum(prods[:e]) for e in ends]
    assert all(isinstance(v, int) for v in got)


@pytest.mark.parametrize("v", [-(2**63), 2**63 - 1])
def test_prefix_dots_int64_extremes_fill_a_block(v):
    # the largest limb sums a block can hold: 2^16 products of 2^42 each
    a = np.full(SUM_BLOCK + 1, v, dtype=np.int64)
    ends = [SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1]
    assert prefix_dots(a, a, ends) == [e * v * v for e in ends]
    b = np.full(SUM_BLOCK + 1, -v - 1, dtype=np.int64)
    assert prefix_dots(a, b, ends) == [e * v * (-v - 1) for e in ends]


@pytest.mark.parametrize("pattern", [
    [1 - 2**-53],                  # mantissa 2^53 - 1: top limb at its largest, 2^37 - 1
    [-(1 - 2**-53)],               # top limb at its most negative, -(2^37 - 1)
    [-(0.5 + 2**-53)],             # negative, one ulp past the top limb's 2^36
    [1 - 2**-53, -(0.5 + 2**-53)],  # mixed signs, every other top limb negative
], ids=["positive", "negative", "negative-low", "mixed"])
def test_prefix_dots_float_extremes_fill_a_block(pattern):
    # the largest limb sums a block can hold: 2^16 terms in one binade, whose
    # top limbs reach 2^37 - 1, so a block's limb sum nears 2^53
    a = np.resize(np.array(pattern), SUM_BLOCK + 1)
    ends = [SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1]
    exact = [sum(Fraction(v) * len(range(j, e, len(pattern))) for j, v in enumerate(pattern))
             for e in ends]
    assert prefix_dots(a, np.ones_like(a), ends) == [float(s) for s in exact]


# Block values at the edges of the limb layouts: one limb a side holds
# magnitudes below 2^23 (2 x 23 bits + 16 for the block length = 62), two
# 21-bit limbs below 2^42, and wider values take three.
_LAYOUT_EDGES = [2**22 - 1, 2**22, 2**23 - 1, 2**23, 2**42 - 1, 2**42,
                 2**45, 2**46, 2**62, 2**63 - 1]


def _periodic_sums(prods, ends):
    """Prefix sums of the products repeated with period len(prods)."""
    return [sum(p * len(range(j, e, len(prods))) for j, p in enumerate(prods)) for e in ends]


@pytest.mark.parametrize("u", _LAYOUT_EDGES)
def test_prefix_dots_blocks_at_limb_layout_edges(u):
    # blocks filled with +-u and its neighbours against the same at each
    # other edge, so each layout sums its largest blocks
    n = SUM_BLOCK + 3
    ends = [SUM_BLOCK - 1, SUM_BLOCK, n]
    a = [u, -u, u - 1, -u - 1]
    for v in _LAYOUT_EDGES:
        b = [v, v, -v - 1, 1 - v]
        got = prefix_dots(np.resize(np.array(a), n), np.resize(np.array(b), n), ends)
        assert got == _periodic_sums([x * y for x, y in zip(a, b)], ends), (u, v)


def test_prefix_dots_mixed_sign_int32_near_2_31():
    rng = np.random.default_rng(8)
    n = SUM_BLOCK + 5
    edges = np.array([2**31 - 1, -(2**31), 2**31 - 2, -(2**31) + 1], dtype=np.int32)
    for a in (np.resize(edges, n), rng.integers(-(2**31), 2**31, n, dtype=np.int32)):
        for b in (np.resize(edges[::-1], n), rng.integers(-(2**31), 2**31, n, dtype=np.int32),
                  rng.integers(0, 2**22, n, dtype=np.int32)):
            prods = [x * y for x, y in zip(a.tolist(), b.tolist())]
            ends = [1, SUM_BLOCK, n]
            assert prefix_dots(a, b, ends) == [sum(prods[:e]) for e in ends]


@pytest.mark.parametrize("dtype, bound, dots", [
    (np.int32, 2**23, 1), (np.int64, 2**23, 1),  # totient-sized: one plain dot
    (np.int32, 2**31, 3),  # one side whole, the other in three 11-bit limbs
    (np.int64, 2**42, 4),  # Jordan-2-sized: two 21-bit limbs a side
    (np.int64, 2**63, 9),
], ids=["int32-totient-sized", "totient-sized", "int32", "jordan-2-sized", "int64"])
def test_exact_dot_count_per_block(dtype, bound, dots, monkeypatch):
    calls = []
    real_dot = np.dot

    def counting_dot(a, b):
        calls.append(len(a))
        return real_dot(a, b)

    rng = np.random.default_rng(9)
    n = 4 * SUM_BLOCK  # whole blocks: a shorter block may take fewer limbs
    a = rng.integers(-bound + 1, bound, n).astype(dtype)
    a[:2] = [bound - 1, -bound + 1]  # the largest magnitudes in the first block
    b = rng.integers(0, bound, n).astype(dtype)
    monkeypatch.setattr(np, "dot", counting_dot)
    got = prefix_dots(a, b, [n])
    monkeypatch.undo()
    assert got == [sum(x * y for x, y in zip(a.tolist(), b.tolist()))]
    assert len(calls) == 4 * dots  # four blocks


def _exact_float_sums(pattern, ends):
    return [sum(Fraction(v) * len(range(j, e, len(pattern))) for j, v in enumerate(pattern))
            for e in ends]


# The widest span, in binades, that a block sums in two 37-bit limbs: the
# 53-bit mantissas of its least products on the grid, and 37 bits above it.
_SPAN = 21
_M = 1 - 2**-53  # the largest mantissa, 2^53 - 1 ulps


@pytest.mark.parametrize("pattern, truncs", [
    # binary exponents (math.frexp) 0 and -_SPAN: at the two-limb limit
    ([_M, -_M, 2.0**-_SPAN * _M, -(2.0**-_SPAN) * (0.5 + 2**-53), _M], 1),
    # one binade past it
    ([_M, -_M, 2.0**-(_SPAN + 1) * _M, -(2.0**-(_SPAN + 1)) * (0.5 + 2**-53), _M], 2),
    # all positive and near the top, so a block's top limbs sum to nearly
    # 2^53, and odd: one binade more would need a 54th bit
    ([1 - 2**-38, 1 - 3 * 2**-38, 1 - 5 * 2**-38, 2.0**-_SPAN * 0.75, 1 - 7 * 2**-38], 1),
    ([1 - 2**-38, 1 - 3 * 2**-38, 1 - 5 * 2**-38, 2.0**-(_SPAN + 1) * 0.75, 1 - 7 * 2**-38],
     2),
    ([0.0, _M, -0.0, 2.0**-_SPAN * _M, 0.0], 1),  # zeros take no binade
    ([0.0, -0.0], 0),
    ([5e-324, -2.3e-308, 1e-310], 2),  # subnormals, 52 binades
    ([2.0**-1000 * _M, -(2.0**-1001), 2.0**-990], 1),
    ([2.0**-1001 * _M, -(2.0**-1001), 2.0**-990], 1),
    ([2.0**1023 * _M, -(2.0**1023) * _M, 2.0**1004 * _M, -(2.0**1003)], 1),  # +-huge
    ([1.7976931348623157e308, -1.7976931348623157e308, 1.0], 29),  # 1023 binades
    # at the three-limb limit, 58 binades, and one past it
    ([_M, -_M, 2.0**-58 * _M, -(2.0**-58) * (0.5 + 2**-53), _M], 2),
    ([_M, -_M, 2.0**-59 * _M, -(2.0**-59) * (0.5 + 2**-53), _M], 3),
], ids=["at-limit", "past-limit", "positive-at-limit", "positive-past-limit", "zeros",
        "all-zero", "subnormal", "least-exponent", "below-least-exponent", "huge", "huge-and-one",
        "at-three-limb-limit", "past-three-limb-limit"])
def test_prefix_dots_float_blocks_at_the_fixed_point_limits(pattern, truncs, monkeypatch):
    # blocks full of each pattern: the limbs at their largest sums, and each
    # block cut into as few limbs as its span allows, one np.trunc pass per
    # limb above the grid's
    calls = []
    real_trunc = np.trunc
    monkeypatch.setattr(np, "trunc", lambda *args, **kw: calls.append(1) or real_trunc(*args, **kw))
    a = np.resize(np.array(pattern), 2 * SUM_BLOCK)
    ends = [SUM_BLOCK, 2 * SUM_BLOCK]  # two whole blocks, each holding the pattern
    got = prefix_dots(a, np.ones_like(a), ends)
    monkeypatch.undo()
    assert len(calls) == 2 * truncs
    assert got == [float(s) for s in _exact_float_sums(pattern, ends)]
    terms = a.tolist()
    assert got == [math.fsum(terms[:e]) for e in ends]
    # and a block's exact sum itself, before any rounding
    block = a[:SUM_BLOCK]
    scaled = harness._scaled_float_dot(block, np.ones_like(block), harness._float_scratch(SUM_BLOCK))
    assert scaled == _exact_float_sums(pattern, [SUM_BLOCK])[0] * 2**1126


def test_scaled_float_dot_equals_fractions_at_any_span():
    # random blocks whose exponents (math.frexp, -1073..1024) cover up to all
    # 2098 binades of float64, with zeros, subnormals and +-DBL_MAX: each
    # exact block sum, before rounding
    rng = np.random.default_rng(29)
    n = 512
    scratch = harness._float_scratch(n)
    for trial in range(200):
        span = int(rng.integers(0, 2098))  # largest exponent less least
        e_hi = int(rng.integers(span - 1073, 1025))
        a = np.ldexp(rng.uniform(0.5, 1, n) * rng.choice([-1.0, 1.0], n),
                     rng.integers(e_hi - span, e_hi + 1, n))
        a[rng.random(n) < 0.3] = 0.0
        if trial % 4 == 0:
            a[:3] = [np.finfo(float).max, -np.finfo(float).max, 5e-324]
        b = np.where(rng.random(n) < 0.5, 1.0, -0.5)
        exact = sum(Fraction(t) for t in (a * b).tolist())  # of the float64 products
        assert harness._scaled_float_dot(a, b, scratch) == exact * 2**1126, (trial, span)


def test_prefix_dots_uint64_above_int64_is_exact():
    a = np.array([2**64 - 1, 3, 2**63], dtype=np.uint64)
    assert prefix_dots(a, a, [1, 3]) == [(2**64 - 1) ** 2, (2**64 - 1) ** 2 + 9 + 2**126]


def test_prefix_dots_across_block_edges():
    n = 2 * SUM_BLOCK + 10
    ends = [0, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 2 * SUM_BLOCK, n]
    rng = np.random.default_rng(5)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    b = rng.standard_normal(n)
    terms = (a * b).tolist()
    assert prefix_dots(a, b, ends) == [math.fsum(terms[:e]) for e in ends]
    ai = rng.integers(-(2**40), 2**40, n)
    bi = rng.integers(-(2**20), 2**20, n)
    prods = [int(u) * int(v) for u, v in zip(ai.tolist(), bi.tolist())]
    assert prefix_dots(ai, bi, ends) == [sum(prods[:e]) for e in ends]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_prefix_dots_rejects_non_finite_terms(bad):
    a = np.ones(SUM_BLOCK + 5)
    a[SUM_BLOCK + 2] = bad
    with pytest.raises(ValueError):
        prefix_dots(a, np.ones_like(a), [len(a)])


def test_prefix_dots_rejects_bad_ends():
    ones = np.ones(10)
    for ends in ([5, 4], [-1], [11]):
        with pytest.raises(ValueError):
            prefix_dots(ones, ones, ends)


def test_prefix_dots_memory_bounded():
    # the blockwise pass holds three block arrays (the products, a limb and a
    # mask: 1.06 MiB) whatever the length; a tolist of the products would
    # hold 4e6 Python floats (> 150 MB)
    a = np.random.default_rng(3).standard_normal(4 * 10**6)
    b = np.full_like(a, 1.5)
    tracemalloc.start()
    try:
        prefix_dots(a, b, [10**6, len(a)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_prefix_dots_integer_memory_bounded():
    # the limb dot holds six int64 limb arrays of one block whatever the
    # length; a tolist of the products would hold 4e6 Python ints (> 100 MB)
    rng = np.random.default_rng(4)
    a = rng.integers(-(2**62) + 1, 2**62, 4 * 10**6, dtype=np.int64)
    b = rng.integers(-(2**62) + 1, 2**62, 4 * 10**6, dtype=np.int64)
    tracemalloc.start()
    try:
        prefix_dots(a, b, [10**6, len(a)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# grids and reports


def test_run_grid_tabulates_a_shared_table_once(monkeypatch):
    # one tabulate call per segment of the shared table: F's segment and the
    # shift entries past it, with G the view of that window shift entries on
    calls = []

    def counting(spec, limit, lo=0, hi=None, *, out=None):
        calls.append((spec, lo, hi))
        return tabulate(spec, limit, lo, hi, out=out)

    monkeypatch.setattr(harness, "tabulate", counting)
    monkeypatch.setattr(harness, "TABLE_SPAN", 512)
    rep = run_grid(get_preset("phi", shift=3), [1000, 2000], prime_cutoff=10**4)
    assert calls == [(NamedFn("totient"), t + 1, min(t + 512, 1997) + 1 + 3)
                     for t in range(0, 1997, 512)]
    phi = tabulate(NamedFn("totient"), 2000)
    assert rep.rows[-1].empirical == float(shifted_sum(segments(phi), segments(phi), 3, 2000))


# A small table span, so a few thousand terms cross several segment edges.
_SPAN = 256
_EDGE_ENDS = (1, _SPAN - 1, _SPAN, _SPAN + 1, 2 * _SPAN, 2 * _SPAN + 1, 3 * _SPAN + 7)


def _small_spans(monkeypatch):
    for module in (arith, curveconst, harness):
        monkeypatch.setattr(module, "TABLE_SPAN", _SPAN)


@pytest.mark.parametrize("shift", [3, _SPAN - 1, _SPAN, 2 * _SPAN + 5])
@pytest.mark.parametrize("name", ["phi", "jordan-2", "kstar", "khat"])
def test_streamed_run_grid_equals_whole_tables(name, shift, monkeypatch):
    # grid points y - shift at the segment edges of the terms, for a shared
    # window (shift below the span), the widest one (span - 1), and two
    # readers (shift at or past the span): every sum bit for bit
    _small_spans(monkeypatch)
    preset = get_preset(name, shift=shift)
    grid = [shift + e for e in _EDGE_ENDS]
    rows = run_grid(preset, grid, prime_cutoff=10**3).rows
    assert [row.empirical for row in rows] == [
        float(s) for s in run_grid_sums_by_whole_tables(preset, grid)]


@pytest.mark.parametrize("name, shift, more", [
    ("jordan-3", 1_680_000, []),  # two readers
    ("jordan-5", 3, [6000]),  # a shared window
    ("jordan-5", _SPAN - 1, [6000]),
])
def test_streamed_run_grid_equals_whole_tables_in_python_ints(name, shift, more, monkeypatch):
    # past 2^62 the tables hold Python ints (J_3 from x ~ 1.66e6, J_5 from ~5405)
    _small_spans(monkeypatch)
    preset = get_preset(name, shift=shift)
    grid = [shift + e for e in _EDGE_ENDS] + more
    assert harness._table_dtype(preset.f_tab, grid[-1]) is object
    rows = run_grid(preset, grid, prime_cutoff=10**3).rows
    assert [row.empirical for row in rows] == [
        float(s) for s in run_grid_sums_by_whole_tables(preset, grid)]


# 4 bytes per prime below x: the prime cache the table sieve reads its big
# primes from grows with x, and the tables' segments and sums do not
_PRIME_BYTES = 4 * 664_579  # pi(10^7) int32 primes
_STREAM_SLACK = 2**20


@pytest.mark.parametrize("run", ["phi", "jordan-2", "gap"])
def test_streamed_runs_hold_no_whole_table(run, monkeypatch):
    # peak from 10^6 to 10^7 grows by the prime cache alone (within 1 MiB):
    # 4.96 -> 7.35 MiB (phi), 6.34 -> 8.64 (jordan-2), 6.44 -> 8.72 (gap)
    # measured; with int64 primes 5.3 -> 9.9, 6.6 -> 11.2 and 7.9 -> 12.4;
    # one whole table at 10^7 would add 40-80 MB
    def peak(x):
        monkeypatch.setattr(arith, "_prime_cache", (0, np.empty(0, dtype=np.int32)))
        arith._float_sieve.cache_clear()
        arith._jordan_sieve.cache_clear()
        curveconst._symbol_sieve.cache_clear()
        tracemalloc.start()
        try:
            if run == "gap":
                curveconst.substitution_gap([x])
            else:
                run_grid(get_preset(run), [x], prime_cutoff=10**3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10**7) <= peak(10**6) + _PRIME_BYTES + _STREAM_SLACK


def test_run_grid_sums_the_whole_grid_in_one_call(monkeypatch):
    calls = []

    def counting(f_vals, g_vals, shift, x, **kwargs):
        calls.append(x)
        return shifted_sum(f_vals, g_vals, shift, x, **kwargs)

    monkeypatch.setattr(harness, "shifted_sum", counting)
    grid = [1000 * i for i in range(1, 21)]
    rep = run_grid(get_preset("kstar", shift=3), grid, prime_cutoff=10**4)
    assert calls == [grid[-1]]
    f_vals = tabulate(shift_part_fn, grid[-1])
    g_vals = tabulate(order_part_fn, grid[-1])
    assert [row.empirical for row in rep.rows] == [
        shifted_sum(segments(f_vals), segments(g_vals), 3, x) for x in grid]


@pytest.mark.parametrize("name, order_side", [
    ("kstar", "all"), ("kstar-odd", "odd"), ("khat", "averaged")])
def test_float_preset_sum_within_2_ulp_of_mpmath(name, order_side):
    # measured: -0.63, -0.33 and -0.59 ulp
    got = run_grid(get_preset(name, shift=6), [5000], prime_cutoff=10**3).rows[0].empirical
    assert abs(mpmath.mpf(got) - order_factor_sum_mp(order_side, 6, 5000)) <= 2 * math.ulp(got)


def test_run_grid_phi_small():
    rep = run_grid(get_preset("phi"), [10**3, 10**4], prime_cutoff=10**6)
    assert rep.error_label == "x^2 log^2 x"
    for row in rep.rows:
        assert row.residual == row.empirical - row.predicted
        assert abs(row.normalized) < 1.0  # measured: ~4e-3 at this scale
    assert rep.rows[0].x == 10**3


def test_run_grid_kstar_residual_scale():
    rep = run_grid(get_preset("kstar"), [10**3, 10**4], prime_cutoff=10**6)
    for row in rep.rows:
        # residual/log x bounded; measured magnitude ~0.9 at small x
        assert abs(row.normalized) < 2.0


def _text(write):
    """What a report writer writes to a fresh handle."""
    fh = io.StringIO()
    assert write(fh) is None
    return fh.getvalue()


def test_run_grid_deterministic():
    a = run_grid(get_preset("phi"), [100, 1000], prime_cutoff=10**4)
    b = run_grid(get_preset("phi"), [100, 1000], prime_cutoff=10**4)
    assert a == b
    assert _text(a.to_csv) == _text(b.to_csv)


def test_run_grid_accepts_preset_object_and_shift():
    rep = run_grid(get_preset("phi", shift=2), [500], prime_cutoff=10**4)
    assert rep.rows[0].x == 500


def test_run_grid_mu_like_pair_zero_constant():
    # tables equal to -1 at every prime: the divisor sums vanish for n >= 2
    # and the constant's factor at p = 2 is exactly 0, so residual is 0
    mu_like = PrimePowerFn(lambda p, k: -1.0 + 0.0 * p if k == 1 else 0.0 * p, name="mu_like")
    pair = ShiftedPairSpec(f=mu_like, g=mu_like, shift=1, baseline=MonomialBaseline(0, 0))
    assert shifted_mean_constant(pair, 10**4).value == 0.0
    vals = tabulate(PrimePowerFn(lambda p, k: 0.0 * p, name="mu_like_sums"), 1000)
    assert [eval_divisor_sum(mu_like, factorize_trial(n)) for n in range(1, 1001)] == \
        vals[1:].tolist()
    assert np.all(vals[2:] == 0.0)
    assert shifted_sum(segments(vals), segments(vals), 1, 1000) == 0.0


@pytest.mark.parametrize("name, f_tab, g_tab, deg, label, error_at_e", [
    ("phi", NamedFn("totient"), NamedFn("totient"), 1, "x^2 log^2 x", math.e**2),
    ("jordan-3", NamedFn("jordan", 3), NamedFn("jordan", 3), 3, "x^6", math.e**6),
    ("kstar", shift_part_fn, order_part_fn, 0, "log x", 1.0),
    ("kstar-odd", shift_part_fn, order_part_odd_fn, 0, "log x", 1.0),
    ("khat", shift_part_fn, averaged_order_part_fn, 0, "log x", 1.0),
])
def test_preset_table(name, f_tab, g_tab, deg, label, error_at_e):
    preset = get_preset(name, shift=6)
    assert (preset.name, preset.f_tab, preset.g_tab) == (name, f_tab, g_tab)
    assert preset.pair.shift == 6
    assert preset.pair.baseline == MonomialBaseline(deg, deg)
    assert preset.error_label == label
    assert preset.error_fn(math.e) == pytest.approx(error_at_e, rel=1e-15)
    if deg:  # the Jordan kernel of order k: -p^-k at p, 0 at higher powers
        primes = np.array([2, 3, 5, 999983])
        for fn in (preset.pair.f, preset.pair.g):
            assert np.array_equal(fn.on_primes(primes, 1), -1.0 / primes.astype(float) ** deg)
            assert not fn.on_primes(primes, 2).any()


def test_preset_float_tables_are_curveconst_factor_functions():
    # one definition per factor: no preset tabulates a second formula for F or G
    factor_fns = [v for k, v in vars(curveconst).items()
                  if k.endswith("_fn") and isinstance(v, PrimePowerFn)]
    for name, (_, _, f_tab, g_tab, *_) in presets._table(2).items():
        for tab in (f_tab, g_tab):
            assert isinstance(tab, NamedFn) or any(tab is fn for fn in factor_fns), (name, tab)


def test_get_preset_rejects_unknown_names():
    for name in ("sigma", "jordan-k", "jordan-0", "jordan-", "Phi"):
        with pytest.raises(ValueError):
            get_preset(name)
    assert get_preset("jordan-02").name == "jordan-2"


def test_run_grid_validates_grid():
    with pytest.raises(ValueError):
        run_grid(get_preset("phi"), [1000, 100], prime_cutoff=10**4)
    with pytest.raises(ValueError):
        run_grid(get_preset("phi"), [], prime_cutoff=10**4)
    with pytest.raises(ValueError):
        run_grid(get_preset("phi", shift=10), [5], prime_cutoff=10**4)


def test_corollary_ratio_reproduction_small_scale():
    # ratio -> 1 within 10 log^2(x)/x for the totient pair at x = 1e4, 1e5
    for h in (1, 2, 6):
        rep = run_grid(get_preset("phi", shift=h), [10**4, 10**5], prime_cutoff=10**6)
        for row in rep.rows:
            bound = 10 * math.log(row.x) ** 2 / row.x
            assert abs(row.empirical / row.predicted - 1) <= bound


def test_jordan2_grid_ratio():
    rep = run_grid(get_preset("jordan-2"), [10**4], prime_cutoff=10**6)
    row = rep.rows[0]
    assert row.empirical / row.predicted == pytest.approx(1.0, abs=1e-2)


# ---------------------------------------------------------------------------
# exponent fit


def _report_from_residuals(xs, residuals):
    rows = tuple(
        MeanValueRow(x=x, empirical=float(r), predicted=0.0, residual=float(r), normalized=float(r))
        for x, r in zip(xs, residuals)
    )
    return MeanValueReport(rows=rows, error_label="synthetic")


def test_fit_exact_power_law():
    xs = [10**3, 10**4, 10**5, 10**6]
    fit = fit_error_exponent(_report_from_residuals(xs, [x**2 for x in xs]))
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.n_samples == 4


def test_fit_log_growth_has_small_slope():
    xs = [10**3, 10**4, 10**5, 10**6]
    fit = fit_error_exponent(_report_from_residuals(xs, [math.log(x) for x in xs]))
    assert fit.slope < 0.2


def test_fit_requires_three_usable_rows():
    with pytest.raises(ValueError):
        fit_error_exponent(_report_from_residuals([10, 100], [1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_error_exponent(_report_from_residuals([10, 100, 1000], [1.0, 0.0, 2.0]))


def test_fit_least_squares_orthogonality():
    xs = [10**k for k in range(2, 7)]
    res = [x**1.3 * (1 + 0.1 * ((i % 3) - 1)) for i, x in enumerate(xs)]
    fit = fit_error_exponent(_report_from_residuals(xs, res))
    lx = np.log(xs)
    errs = np.log(np.abs(res)) - (fit.slope * lx + fit.intercept)
    assert abs(errs.sum()) < 1e-9
    assert abs((errs * lx).sum()) < 1e-9


# ---------------------------------------------------------------------------
# report containers


def test_report_requires_increasing_x():
    rows = (
        MeanValueRow(x=100, empirical=1.0, predicted=1.0, residual=0.0, normalized=0.0),
        MeanValueRow(x=100, empirical=1.0, predicted=1.0, residual=0.0, normalized=0.0),
    )
    with pytest.raises(ValueError):
        MeanValueReport(rows=rows, error_label="log x")


def test_report_csv_and_json_shape():
    rep = run_grid(get_preset("phi"), [100, 1000], prime_cutoff=10**4)
    lines = _text(rep.to_csv).strip().split("\n")
    assert lines[0] == "x,empirical,predicted,residual,normalized"
    assert len(lines) == 3
    assert lines[1].startswith("100,")
    import json

    payload = json.loads(_text(rep.to_json))
    assert payload["candidate_error"] == "x^2 log^2 x"
    assert [r["x"] for r in payload["rows"]] == [100, 1000]
