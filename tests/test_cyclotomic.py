import mpmath as mp
import pytest
from fractions import Fraction

from fuscond.cyclotomic import Cyc, as_mpc, cyclotomic_polynomial


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


def test_numpy_integers_stay_exact():
    np = pytest.importorskip("numpy")
    x = Cyc.sqrt_int(3) * np.int64(2)
    assert isinstance(x, Cyc)
    assert x * x == 12
