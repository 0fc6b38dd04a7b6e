"""Exact cyclotomic arithmetic over integer numerators.

Elements of Q(zeta_N) are stored as integer polynomials in zeta_N, reduced
modulo the N-th cyclotomic polynomial, over one positive denominator, in
lowest terms.  Products are integer convolutions folded modulo x^N - 1 and
then reduced by long division by the monic integer Phi_N, so no fraction
is built on the arithmetic paths.  Cyc.galois applies sigma_k: zeta_N ->
zeta_N^k by permuting exponents, and Cyc.inverse divides the product of
the other Galois conjugates by the rational norm, on the same integer
kernel.  Binary operations lift both operands to the lcm order; when
that order would exceed ORDER_CAP the operation falls back to
high-precision complex floats at the caller's working precision
(``mp.mp.dps``), which nothing in the package sets.  The package's
tolerances are defined here: TOL for residual checks, ROUND_TOL for values
read off as integers, working_tol() and tol_floor().  Every float64
reading of a real value is as_float, at a fixed precision; as_complex is
the complex128 view the S-matrix checks read.
"""
from __future__ import annotations

import cmath
import math
import numbers
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

ORDER_CAP = 2400
TOL = 1e-9
# Absolute, not derived from mp.dps: float64-encoded inputs carry about
# 1e-15 of error whatever the working precision.
ROUND_TOL = 1e-6
# Absolute: fp_dims is a float64 power iteration stopped at ring.FP_TOL.
FP_DIM_TOL = 1e-8
# Bits at which as_float reads a value before rounding it to float64.
FLOAT_PREC = 113

# Little-endian integer coefficients: cyclotomic polynomials and Cyc
# numerators.
Poly = tuple


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


# -- integer kernel -----------------------------------------------------------
@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Poly:
    """Integer coefficients of the n-th cyclotomic polynomial,
    little-endian."""
    if n == 1:
        return (-1, 1)
    # Phi_n = prod over d | n of (1 - x^d)^mu(n/d) for n > 1.  Each factor
    # is a unit of Z[[x]], so the product is computed exactly in power
    # series cut off past the degree phi(n); only squarefree n/d count.
    primes = _prime_factors(n)
    size = n * math.prod(p - 1 for p in primes) // math.prod(primes) + 1
    poly = [1] + [0] * (size - 1)
    for mask in range(1 << len(primes)):
        sub = [p for i, p in enumerate(primes) if mask >> i & 1]
        d = n // math.prod(sub)
        if len(sub) % 2:  # divide by 1 - x^d
            for i in range(d, size):
                poly[i] += poly[i - d]
        else:  # multiply by 1 - x^d
            for i in range(size - 1, d - 1, -1):
                poly[i] -= poly[i - d]
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_terms(n: int):
    # degree of Phi_n and its nonzero terms below the leading one
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple((i, c) for i, c in enumerate(phi[:-1]) if c)


def _reduce(c: list, n: int) -> list:
    """The integer polynomial c modulo Phi_n, in place and trimmed.  Phi_n is
    monic, so the long division never leaves the integers."""
    deg, terms = _phi_terms(n)
    for k in range(len(c) - 1, deg - 1, -1):
        q = c[k]
        if q:
            base = k - deg
            for i, p in terms:
                c[base + i] -= q * p
    del c[deg:]
    return _trim(c)


def _cyclic_product(a, b, n: int) -> list:
    """Product of two integer polynomials modulo x^n - 1, which Phi_n
    divides."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    for k in range(len(out) - 1, n - 1, -1):
        out[k - n] += out.pop()
    return out


@lru_cache(maxsize=64)
def _zeta_powers(order: int, prec: int):
    # numeric zeta powers at the working precision, which prec keys
    z = mp.e ** (2j * mp.pi / order)
    return tuple(z**k for k in range(order))


@lru_cache(maxsize=None)
def _zeta_floats(order: int) -> tuple:
    # complex128 zeta powers; unlike _zeta_powers they ignore mp.dps
    return tuple(cmath.exp(2j * cmath.pi * k / order) for k in range(order))


def working_tol():
    """Tolerance at the working precision: eight digits short of mp.dps."""
    return mp.mpf(10) ** (8 - mp.mp.dps)


def tol_floor() -> float:
    """The finest tolerance the working precision resolves, 10^(3 - mp.dps),
    as the float nearest to it, which is what --tol 1e-k parses to."""
    return float(Fraction(10) ** (3 - mp.mp.dps))


class Cyc:
    """An element of the cyclotomic field Q(zeta_order): the numerators num
    (ints, reduced modulo Phi_order and trimmed) over the denominator den,
    with den > 0 and gcd(den, *num) == 1, so equal values at one order have
    equal fields.  to_mpc keeps its last value, with the precision it was
    summed at, in _mpc."""

    __slots__ = ("order", "num", "den", "_mpc")
    __hash__ = None

    def __init__(self, order: int, coeffs):
        c = [Fraction(x) for x in coeffs]
        den = math.lcm(*(x.denominator for x in c))
        num = [x.numerator * (den // x.denominator) for x in c]
        self._set_numerators(order, num, den)

    def _set_numerators(self, order: int, num: list, den: int) -> None:
        # the one path from ints num over den > 0 to the reduced fields
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        self._set(order, _reduce(num, order), den)

    def _set(self, order: int, num: list, den: int) -> None:
        _trim(num)
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        # collapse rational values to order 1 so lcm growth stays small
        self.order = order if len(num) > 1 else 1
        self.num = tuple(num)
        self.den = den
        self._mpc = None

    @staticmethod
    def _make(order: int, num: list, den: int) -> "Cyc":
        # the internal constructor: num is reduced, den positive
        out = object.__new__(Cyc)
        out._set(order, num, den)
        return out

    # -- constructors ----------------------------------------------------
    @staticmethod
    def rational(q) -> "Cyc":
        q = Fraction(q)
        return Cyc._make(1, [q.numerator], q.denominator)

    @staticmethod
    def from_numerators(order: int, num, den: int) -> "Cyc":
        """sum_k num[k] zeta_order^k / den for ints num and an int den > 0;
        Cyc(order, coeffs) is this over the lcm of the coefficients'
        denominators."""
        out = object.__new__(Cyc)
        out._set_numerators(order, list(num), den)
        return out

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyc":
        k %= n
        return Cyc._make(n, _reduce([0] * k + [1], n), 1)

    @staticmethod
    def sqrt_int(m: int) -> "Cyc":
        """Exact square root of a nonnegative integer."""
        if m < 0:
            raise ValueError("sqrt_int needs a nonnegative integer")
        if m == 0:
            return Cyc.rational(0)
        square, free = 1, 1
        rest = m
        p = 2
        while p * p <= rest:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            square *= p ** (e // 2)
            if e % 2:
                free *= p
            p += 1
        if rest > 1:
            free *= rest
        out = Cyc.rational(square)
        for p in _prime_factors(free):
            out = out * _sqrt_prime(p)
        return out

    # -- queries ----------------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        """The reduced coefficients as Fractions, little-endian."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0] if self.num else 0, self.den)

    def to_mpc(self) -> mp.mpc:
        prec = mp.mp.prec
        cached = self._mpc
        if cached is not None and cached[0] == prec:
            return cached[1]
        zp = _zeta_powers(self.order, prec)
        total = mp.mpc(0)
        for k, c in enumerate(self.num):
            if c:
                # divide the reduced pair: mpf(c) alone rounds once c is
                # wider than the working precision
                g = math.gcd(c, self.den)
                total += mp.mpf(c // g) / (self.den // g) * zp[k]
        self._mpc = (prec, total)
        return total

    def __complex__(self) -> complex:
        return complex(self.to_mpc())

    # -- structure --------------------------------------------------------
    def _lift(self, order: int) -> list:
        """Reduced numerators of this element viewed in Q(zeta_order), over
        the same denominator."""
        if order == self.order or not self.num:
            return list(self.num)
        step = order // self.order
        c = [0] * ((len(self.num) - 1) * step + 1)
        c[::step] = self.num
        return _reduce(c, order)

    def galois(self, k: int) -> "Cyc":
        """The automorphism sigma_k: zeta_order -> zeta_order^k of
        Q(zeta_order), for k a unit modulo the order."""
        n = self.order
        if math.gcd(k, n) != 1:
            raise ValueError(f"{k} is not a unit modulo the order {n}")
        if n == 1:
            return self
        c = [0] * n
        for e, x in enumerate(self.num):
            c[e * k % n] = x
        return Cyc._make(n, _reduce(_trim(c), n), self.den)

    def conj(self) -> "Cyc":
        return self.galois(-1)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        o = exact_scalar(other)
        if o is None:
            return self.to_mpc() + other
        n = math.lcm(self.order, o.order)
        if n > ORDER_CAP:
            return self.to_mpc() + o.to_mpc()
        a, b = self._lift(n), o._lift(n)
        den = self.den
        if o.den != den:
            g = math.gcd(den, o.den)
            a = [x * (o.den // g) for x in a]
            b = [y * (den // g) for y in b]
            den = den // g * o.den
        if len(a) < len(b):
            a, b = b, a
        for i, y in enumerate(b):
            a[i] += y
        return Cyc._make(n, a, den)

    __radd__ = __add__

    def __neg__(self):
        return Cyc._make(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        o = exact_scalar(other)
        if o is None:
            return self.to_mpc() - other
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = exact_scalar(other)
        if o is None:
            return self.to_mpc() * other
        n = math.lcm(self.order, o.order)
        if n > ORDER_CAP:
            return self.to_mpc() * o.to_mpc()
        return Cyc._make(n, _reduce(_cyclic_product(
            self._lift(n), o._lift(n), n), n), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """1/alpha = prod_{k != 1} sigma_k(alpha) / N(alpha), where the norm
        N(alpha) = alpha prod_{k != 1} sigma_k(alpha) is rational; k runs
        over the units modulo the order.

        The cofactor prod_{k != 1} sigma_k(alpha) is taken one cyclic
        factor <g> of order o of the unit group at a time: with beta =
        alpha times the cofactor over the factors before, which is the
        product of the conjugates over them, it gains
        sigma_g(prod_{j < o - 1} sigma_g^j(beta)), formed by doubling in
        O(log o) products."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.order == 1:
            q = self.num[0]
            return Cyc._make(1, [self.den if q > 0 else -self.den], abs(q))
        n = self.order
        cof = Cyc.rational(1)
        for g, o in _unit_factors(n):
            beta = self * cof
            # orbit = prod_{j < t} sigma_g^j(beta), doubled up to t = o - 1
            orbit, t = beta, 1
            for bit in bin(o - 1)[3:]:
                orbit = orbit * orbit.galois(pow(g, t, n))
                t *= 2
                if bit == "1":
                    orbit = beta * orbit.galois(g)
                    t += 1
            cof = cof * orbit.galois(g)
        norm = self * cof
        if not norm.is_rational():
            raise ArithmeticError(f"the norm of {self!r} is not rational")
        return cof * norm.inverse()

    def __truediv__(self, other):
        o = exact_scalar(other)
        if o is None:
            return self.to_mpc() / other
        if o.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = exact_scalar(other)
        if o is None:
            return NotImplemented
        n = math.lcm(self.order, o.order)
        if n > ORDER_CAP:
            return abs(self.to_mpc() - o.to_mpc()) < working_tol()
        # both sides are in lowest terms, and lifting keeps them so
        return self.den == o.den and self._lift(n) == o._lift(n)

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.as_fraction()})"
        terms = [
            f"{c}*z{self.order}^{k}" for k, c in enumerate(self.coeffs) if c
        ]
        return "Cyc(" + " + ".join(terms) + ")"


@lru_cache(maxsize=None)
def _sqrt_prime(p: int) -> Cyc:
    if p == 2:
        return Cyc.zeta(8, 1) + Cyc.zeta(8, 7)
    # quadratic Gauss sum: sum of legendre(a,p) zeta_p^a squares to (-1)^((p-1)/2) p
    g = Cyc.rational(0)
    for a in range(1, p):
        leg = pow(a, (p - 1) // 2, p)
        g = g + (Cyc.zeta(p, a) if leg == 1 else -Cyc.zeta(p, a))
    if p % 4 == 1:
        return g
    return Cyc.zeta(4, 3) * g  # -i * (i sqrt(p))


def _prime_factors(n: int):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _unit_factors(n: int) -> tuple:
    """Pairs (g, o) such that the units modulo n are the direct product of
    the cyclic groups generated by g, of order o > 1: one per odd prime
    power (a primitive root), and -1 and 5 for 2**a (a >= 3), each lifted
    to the unit congruent to 1 modulo the rest of n."""
    out = []
    for p in _prime_factors(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        if p == 2:
            local = ([(q - 1, 2)] if q >= 4 else []) + ([(5, q // 4)]
                                                        if q >= 8 else [])
        else:
            g = next(g for g in range(2, p) if all(
                pow(g, (p - 1) // r, p) != 1 for r in _prime_factors(p - 1)))
            # a primitive root modulo p is one modulo every p**a unless
            # g**(p - 1) = 1 modulo p**2, when g + p is
            if pow(g, p - 1, p * p) == 1:
                g += p
            local = [(g, q // p * (p - 1))]
        rest = n // q
        for g, o in local:
            out.append((1 + rest * ((g - 1) * pow(rest, -1, q) % q), o))
    return tuple(out)


def as_mpc(x) -> mp.mpc:
    """Coerce any supported scalar to an mpmath complex number."""
    if isinstance(x, Cyc):
        return x.to_mpc()
    if isinstance(x, Fraction):
        return mp.mpc(mp.mpf(x.numerator) / x.denominator)
    if isinstance(x, numbers.Integral):
        return mp.mpc(int(x))
    # an mpf registers as numbers.Real; read it at the working precision,
    # not through float64 as the numpy floats below
    if isinstance(x, mp.mpf):
        return mp.mpc(x)
    if isinstance(x, numbers.Real) and not isinstance(x, float):
        return mp.mpc(float(x))
    return mp.mpc(x)


def as_float(x) -> float:
    """The real part of any supported scalar as a float64, read at a fixed
    FLOAT_PREC bits and then rounded, so the same at every mp.dps.  A
    float is returned as it is."""
    if isinstance(x, float):
        return x
    with mp.workprec(FLOAT_PREC):
        return float(as_mpc(x).real)


def as_complex(x) -> complex:
    """Any supported scalar as a complex128; a Cyc sums its rational
    coefficients over float64 roots of unity, at no mpmath precision."""
    if isinstance(x, Cyc):
        z = _zeta_floats(x.order)
        return sum([c / x.den * z[k] for k, c in enumerate(x.num) if c], 0j)
    return complex(x)


def exact_scalar(x):
    """View of x as a Cyc when exactly representable, else None."""
    if isinstance(x, Cyc):
        return x
    if isinstance(x, numbers.Integral):  # int and numpy ints
        return Cyc._make(1, [int(x)], 1)
    if isinstance(x, numbers.Rational):
        return Cyc.rational(Fraction(x))
    return None


def value_key(x) -> tuple:
    """The package's one key for telling scalars apart: equal keys mean
    equal values of one type; a Cyc by its reduced fields, floats by repr,
    which tells 0.0 from -0.0."""
    if isinstance(x, Cyc):
        return (Cyc, x.order, x.num, x.den)
    return (type(x), repr(x) if isinstance(x, (float, complex)) else x)


def distinct(values) -> tuple:
    """(firsts, index): the first value of each distinct value_key in
    values, in order, and for each value the position of its key in
    firsts, so that a per-value step runs once per distinct value."""
    where, firsts, index = {}, [], []
    for v in values:
        k = value_key(v)
        i = where.get(k)
        if i is None:
            i = where[k] = len(firsts)
            firsts.append(v)
        index.append(i)
    return firsts, index


def pair_products(xs, ys) -> list:
    """The rows [x * y for y in ys] for each x in xs.

    Each distinct pair of values is multiplied once, and equal products
    are one shared object, so a Cyc among them converts to mpmath once.
    """
    fx, ix = distinct(xs)
    fy, iy = distinct(ys)
    shared = {}
    table = [[shared.setdefault(value_key(p), p) for p in (x * y for y in fy)]
             for x in fx]
    return [[table[a][b] for b in iy] for a in ix]


def exact_vector(values):
    """Every value as a Cyc, or None unless all of them are exact.

    This is the one scalar policy of the package: a computation over a
    vector of scalars runs in exact cyclotomic arithmetic when this returns
    a tuple, and in mpmath at the working precision otherwise.
    """
    out = []
    for v in values:
        e = exact_scalar(v)
        if e is None:
            return None
        out.append(e)
    return tuple(out)
