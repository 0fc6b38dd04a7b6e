import cmath
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuscond.cyclotomic import (Cyc, _unit_factors, as_complex, as_mpc,
                                cyclotomic_polynomial)
from fuscond.serialize import _parse_scalar, emit_scalar


def test_cyclotomic_polynomials():
    # frozen textbook polynomials, little-endian
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(8) == tuple(Fraction(c) for c in (1, 0, 0, 0, 1))
    assert cyclotomic_polynomial(12) == tuple(Fraction(c) for c in (1, 0, -1, 0, 1))


def test_roots_of_unity_relations():
    assert Cyc.zeta(4) ** 2 == Cyc.rational(-1)
    assert Cyc.zeta(3) ** 3 == 1
    z3 = Cyc.zeta(3)
    assert z3 * z3 + z3 + 1 == 0
    # mixed orders lift to the lcm
    assert Cyc.zeta(3) * Cyc.zeta(4) == Cyc.zeta(12, 7)
    assert Cyc.zeta(6) == -Cyc.zeta(3, 2)


@pytest.mark.parametrize("m,expect", [(0, 0), (1, 1), (4, 2), (9, 3), (144, 12)])
def test_sqrt_perfect_squares(m, expect):
    s = Cyc.sqrt_int(m)
    assert s.is_rational() and s.as_fraction() == expect


@pytest.mark.parametrize("m", [2, 3, 5, 6, 7, 11, 12, 13, 15])
@mp.workdps(64)
def test_sqrt_squares_back(m):
    s = Cyc.sqrt_int(m)
    assert s * s == m
    # and the positive square root numerically
    assert abs(s.to_mpc() - mp.sqrt(m)) < mp.mpf("1e-50")


def test_conjugation():
    z = Cyc.zeta(5)
    assert z * z.conj() == 1
    s3 = Cyc.sqrt_int(3)
    assert s3.conj() == s3


def test_inverse_and_division():
    x = Cyc.rational(1) + Cyc.zeta(5)
    assert x * x.inverse() == 1
    assert (x / x) == 1
    with pytest.raises(ZeroDivisionError):
        Cyc.rational(0).inverse()


def test_rational_collapse_keeps_orders_small():
    x = Cyc.zeta(8) * Cyc.zeta(8, 7)  # = 1
    assert x.order == 1 and x.as_fraction() == 1


def test_float_fallback_above_order_cap():
    a = Cyc.zeta(1024)
    b = Cyc.zeta(9)
    out = a * b  # lcm 9216 > 2400 -> numeric
    assert isinstance(out, mp.mpc)
    want = mp.e ** (2j * mp.pi * (mp.mpf(1) / 1024 + mp.mpf(1) / 9))
    assert abs(out - want) < mp.mpf("1e-50")


@mp.workdps(64)
def test_as_mpc_coercions():
    assert abs(as_mpc(Fraction(1, 3)) - mp.mpf(1) / 3) < mp.mpf("1e-60")
    assert abs(as_mpc(2) - 2) == 0
    assert abs(as_mpc(Cyc.zeta(4)) - mp.mpc(0, 1)) < mp.mpf("1e-60")
    # an mpf at the working precision, not through float64
    assert abs(as_mpc(mp.mpf(1) / 3) - mp.mpf(1) / 3) < mp.mpf("1e-60")


def test_numpy_integers_stay_exact():
    np = pytest.importorskip("numpy")
    x = Cyc.sqrt_int(3) * np.int64(2)
    assert isinstance(x, Cyc)
    assert x * x == 12


# -- reference: the Fraction-coefficient kernel the integer one replaced ------
# An element is (order, coeffs) with coeffs a tuple of Fractions, reduced
# modulo Phi_order, trimmed, and of order 1 when rational.

def _ref_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _ref_mod(a, b):
    # remainder of a modulo b over Q
    a = [Fraction(x) for x in a]
    while True:
        _ref_trim(a)
        if len(a) < len(b):
            return a
        d = len(a) - len(b)
        c = a[-1] / b[-1]
        for i, y in enumerate(b):
            a[d + i] -= c * y


@lru_cache(maxsize=None)
def _ref_phi(n):
    # x^n - 1 divided by the monic Phi_d of every proper divisor d of n
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi = _ref_phi(d)
            quot = [0] * (len(poly) - len(phi) + 1)
            for e in range(len(quot) - 1, -1, -1):
                c = quot[e] = poly[e + len(phi) - 1]
                for i, y in enumerate(phi):
                    poly[e + i] -= c * y
            assert not any(poly)
            poly = quot
    return tuple(poly)


def _ref_canon(order, coeffs):
    c = _ref_mod(coeffs, _ref_phi(order))
    if len(c) <= 1:
        return 1, tuple(c)
    return order, tuple(c)


def _ref_lift(x, n):
    order, coeffs = x
    step = n // order
    poly = [Fraction(0)] * (len(coeffs) * step)
    for k, c in enumerate(coeffs):
        poly[k * step] = c
    return _ref_mod(poly, _ref_phi(n))


def _ref_add(x, y):
    n = math.lcm(x[0], y[0])
    a, b = _ref_lift(x, n), _ref_lift(y, n)
    size = max(len(a), len(b))
    a += [Fraction(0)] * (size - len(a))
    b += [Fraction(0)] * (size - len(b))
    return _ref_canon(n, [u + v for u, v in zip(a, b)])


def _ref_neg(x):
    return x[0], tuple(-c for c in x[1])


def _ref_mul(x, y):
    n = math.lcm(x[0], y[0])
    a, b = _ref_lift(x, n), _ref_lift(y, n)
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return _ref_canon(n, out)


def _ref_conj(x):
    order, coeffs = x
    poly = [Fraction(0)] * order
    for k, c in enumerate(coeffs):
        poly[-k % order] += c
    return _ref_canon(order, poly)


def _ref_eq(x, y):
    n = math.lcm(x[0], y[0])
    return _ref_lift(x, n) == _ref_lift(y, n)


def _ref_mpc(x):
    order, coeffs = x
    z = mp.e ** (2j * mp.pi / order)
    total = mp.mpc(0)
    for k, c in enumerate(coeffs):
        if c:
            total += mp.mpf(c.numerator) / c.denominator * z**k
    return total


def _ref_complex(x):
    order, coeffs = x
    z = [cmath.exp(2j * cmath.pi * k / order) for k in range(order)]
    return sum([c.numerator / c.denominator * z[k]
                for k, c in enumerate(coeffs) if c], 0j)


_ONE_REF = (1, (Fraction(1),))
ORDERS = (1, 2, 3, 4, 5, 8, 12, 13, 24, 28, 44, 60)
_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def _elements(draw):
    order = draw(st.sampled_from(ORDERS))
    # up to order coefficients, so the input is often unreduced
    coeffs = draw(st.lists(_fractions, max_size=order))
    return Cyc(order, coeffs), _ref_canon(order, coeffs)


def _assert_matches(got, ref):
    """got is the Cyc whose value the reference element ref holds."""
    assert (got.order, got.coeffs) == ref
    assert got.den > 0 and math.gcd(got.den, *got.num) == 1
    assert got == Cyc(*ref)
    for dps in (15, 64):
        with mp.workdps(dps):
            assert got.to_mpc() == _ref_mpc(ref)
    assert as_complex(got) == _ref_complex(ref)
    emitted = emit_scalar(got)
    assert emitted == {"cyclotomic": {"order": ref[0],
                                      "coeffs": [str(c) for c in ref[1]]}}
    back = _parse_scalar(emitted, "scalar", {})
    assert (back.order, back.coeffs) == ref


@settings(max_examples=60, deadline=None)
@given(_elements(), _elements(), st.integers(-2, 3))
def test_kernel_matches_the_fraction_reference(xr, yr, k):
    (x, xref), (y, yref) = xr, yr
    _assert_matches(x, xref)
    _assert_matches(x + y, _ref_add(xref, yref))
    _assert_matches(x - y, _ref_add(xref, _ref_neg(yref)))
    _assert_matches(x * y, _ref_mul(xref, yref))
    _assert_matches(x.conj(), _ref_conj(xref))
    assert (x == y) is _ref_eq(xref, yref)
    if x.is_zero():
        return
    inv = x.inverse()
    # the inverse is unique and the reduced form canonical, so a canonical
    # element whose reference product with x is 1 is the reference inverse
    assert _ref_canon(inv.order, list(inv.coeffs)) == (inv.order, inv.coeffs)
    assert inv.order in (1, x.order)
    assert _ref_mul(xref, (inv.order, inv.coeffs)) == _ONE_REF
    _assert_matches(inv, (inv.order, inv.coeffs))
    power = _ONE_REF
    for _ in range(abs(k)):
        power = _ref_mul(power, xref)
    got = x ** k
    if k >= 0:
        _assert_matches(got, power)
    else:
        assert _ref_mul(power, (got.order, got.coeffs)) == _ONE_REF
        _assert_matches(got, (got.order, got.coeffs))


def _units(n):
    return [k for k in range(1, n + 1) if math.gcd(k, n) == 1]


@settings(max_examples=60, deadline=None)
@given(_elements(), st.data())
def test_galois_composes_and_conjugates(xr, data):
    x, xref = xr
    n = x.order
    _assert_matches(x.galois(-1), _ref_conj(xref))
    assert x.galois(1) == x and x.galois(n + 1) == x
    j = data.draw(st.sampled_from(_units(n)))
    k = data.draw(st.sampled_from(_units(n)))
    assert x.galois(k).galois(j) == x.galois(j * k)


def test_galois_needs_a_unit():
    x = Cyc.zeta(12) + 2
    for k in (0, 2, 3, 4, 6, 12, -9):
        with pytest.raises(ValueError):
            x.galois(k)
    assert Cyc.rational(Fraction(3, 7)).galois(5) == Fraction(3, 7)


# the orders that divide ORDER_CAP = 2400, up to 240
_DIVISOR_ORDERS = [n for n in range(1, 241) if 2400 % n == 0]


@st.composite
def _sparse_elements(draw):
    order = draw(st.sampled_from(_DIVISOR_ORDERS))
    terms = draw(st.dictionaries(st.integers(0, order - 1), _fractions,
                                 min_size=1, max_size=5))
    coeffs = [0] * order
    for k, c in terms.items():
        coeffs[k] = c
    return Cyc(order, coeffs)


@settings(max_examples=60, deadline=None)
@given(_sparse_elements())
def test_inverse_over_orders_dividing_the_cap(x):
    assume(not x.is_zero())
    inv = x.inverse()
    assert x * inv == 1 and inv * x == 1
    assert inv.order in (1, x.order)
    assert inv.inverse() == x


def test_inverse_at_order_1200():
    x = 2 + 3 * Cyc.zeta(1200, 7) - Cyc.zeta(1200, 400) + 5 * Cyc.zeta(1200, 1111)
    assert x.order == 1200
    inv = x.inverse()
    assert x * inv == 1
    assert inv.order == 1200


def _sequential_inverse(x):
    """Cyc.inverse as one product per Galois conjugate, k = 2, 3, ... in
    turn: the cofactor prod_{k != 1} sigma_k(x) over the rational norm."""
    n = x.order
    cof = Cyc.rational(1)
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            cof = cof * x.galois(k)
    norm = x * cof
    assert norm.is_rational()
    return cof * Cyc.rational(1 / norm.as_fraction())


@pytest.mark.parametrize("order", [7, 15, 24, 60, 105])
def test_doubled_cofactor_equals_the_sequential_product(order):
    elements = [Cyc.zeta(order) + 2,
                Fraction(1, 3) - 2 * Cyc.zeta(order, order - 1)
                + 5 * Cyc.zeta(order, 2),
                Cyc(order, [Fraction(k % 5 - 2, k + 1) for k in range(order)])]
    for x in elements:
        assert x.order == order
        inv = x.inverse()
        ref = _sequential_inverse(x)
        assert (inv.order, inv.num, inv.den) == (ref.order, ref.num, ref.den)
        assert x * inv == 1


def test_unit_factors_generate_the_units():
    # each g has order exactly o, and the products of their powers are
    # every unit modulo n, each once
    for n in range(1, 301):
        units = {k % n for k in _units(n)}
        reached = {1 % n}
        for g, o in _unit_factors(n):
            powers = [pow(g, j, n) for j in range(o)]
            assert o > 1 and len(set(powers)) == o, n
            reached = {a * b % n for a in reached for b in powers}
        assert reached == units, n
        assert math.prod(o for _, o in _unit_factors(n)) == len(units), n


# numerators up to 2**40 over denominators of about 2**31: the common
# denominator passes 2**53, so the scaled numerators are wider than a
# float64 mantissa while each reduced Fraction's numerator is not
_wide_fractions = st.builds(Fraction, st.integers(-2**40, 2**40),
                            st.integers(2**30, 2**31))


@st.composite
def _wide_elements(draw):
    order = draw(st.sampled_from(ORDERS[1:]))
    coeffs = draw(st.lists(_wide_fractions, min_size=2, max_size=order))
    return Cyc(order, coeffs), _ref_canon(order, coeffs)


@settings(max_examples=60, deadline=None)
@given(_wide_elements(), _wide_elements())
def test_numerics_over_a_wide_common_denominator(xr, yr):
    (x, xref), (y, yref) = xr, yr
    assume(x.den > 2**53)
    _assert_matches(x, xref)
    _assert_matches(x + y, _ref_add(xref, yref))
    _assert_matches(x * y, _ref_mul(xref, yref))


def test_cyclotomic_polynomials_match_the_reference():
    for n in range(1, 301):
        assert cyclotomic_polynomial(n) == _ref_phi(n), n


def _bits(z):
    return z.real._mpf_, z.imag._mpf_


@pytest.mark.parametrize("coeffs", [
    [Fraction(1, 3), 2, Fraction(-5, 7), 0, Fraction(11, 13)],
    [Fraction(1, 2**80 + 1), 1], [Fraction(-7, 4)]])
def test_to_mpc_cache_follows_the_precision(coeffs):
    # one Cyc converted at 15, 64 and 15 digits again (and at 128) gives
    # the bits a fresh equal Cyc gives at each precision
    x = Cyc(12, coeffs)
    for digits in (15, 64, 15, 128, 64):
        with mp.workdps(digits):
            got = x.to_mpc()
            assert _bits(got) == _bits(Cyc(12, coeffs).to_mpc()), digits
            assert _bits(as_mpc(x)) == _bits(got)
            assert x.to_mpc() is got
