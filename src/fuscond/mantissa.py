"""Fixed-point arithmetic on exact integer mantissas.

A vector is integer mantissas over one exponent, (re, im, exp) with
v[i] = (re[i] + 1j im[i]) 2**exp, mp.prec bits below its largest entry.
Vectors computed together are a stack: numpy object arrays of Python ints,
one row per vector, with one exponent per row.  Products and commutators
are array passes over the ring's term plan (``BasedRing._plan``, read
through ``ring._bilinear`` and ``ring._summed``); their sums are exact, and
``rescale`` rounds back to a fixed exponent once per entry, through
``shifted``, one pass over a whole part.  A real stack computes with
``parts``, which leaves out its imaginary half of zeros.  ``cmp_tol``,
elementwise over object arrays, is the one tolerance test.

The lattice pass puts a float64 filter in front of it: ``floats`` rounds
mantissas to float64 once each, a caller bounds its float64 value's
distance E from the exact one, and only a value that ``band_limit`` cannot
decide goes through the exact test.
"""
from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

from .cyclotomic import ROUND_TOL, as_mpc
from .errors import NumericalDegeneracyError
from .ring import BasedRing, _bilinear, _summed


def stack(vectors) -> tuple:
    """Mantissa vectors (re, im, exp) as one stack (re, im, exps): row r of
    the object arrays re and im holds the Python-int mantissas of vector r,
    over the exponent exps[r]."""
    def rows(part):
        return np.array([v[part] for v in vectors], dtype=object)
    return rows(0), rows(1), [v[2] for v in vectors]


def parts(re, im) -> list:
    """The parts of a stack to compute with: [re, im], or [re] when every
    imaginary mantissa is 0, as on a real ring."""
    return [re, im] if im.any() else [re]


def product(terms, a, b) -> tuple:
    """The exact row-wise products of two stacks over terms, which is
    ring._plan.product, or ring._plan.square when a is b.  Row r is over
    the exponent ea[r] + eb[r].  An all-real pair of stacks takes one real
    product; otherwise Gauss's three real products give the real and
    imaginary parts."""
    (ar, ai, ea), (br, bi, eb) = a, b
    exps = [x + y for x, y in zip(ea, eb)]
    if not (ai.any() or bi.any()):
        return _bilinear(terms, ar, br), np.zeros(ar.shape, dtype=object), exps
    m = len(ar)
    p = _bilinear(terms, np.vstack([ar, ai, ar + ai]),
                  np.vstack([br, bi, br + bi]))
    rr, ii = p[:m], p[m:2 * m]
    return rr - ii, p[2 * m:] - rr - ii, exps


def commutators(ring: BasedRing, a) -> np.ndarray:
    """max_k |(v b_i - b_i v)_k|^2 for every row v of the stack a and every
    basis element b_i: exact integers, row r over the exponent 2 exps[r],
    from one pass over the nonzeros of N[j, i, k] - N[i, j, k]."""
    re, im, _ = a
    t = ring._plan.commutator
    out = np.zeros(re.shape, dtype=object)
    if len(t.basis):
        m = len(re)
        D = _summed(t.sums, np.vstack([re, im]) if im.any() else re)
        W = D[:m] * D[:m]
        if len(D) > m:
            W += D[m:] * D[m:]
        out[:, t.basis] = np.maximum.reduceat(W, t.basis_starts, axis=1)
    return out


def mantissas(v):
    """A coefficient vector as integer mantissas over one exponent, mp.prec
    bits below its largest entry, each part truncated toward zero onto that
    grid: v[i] = (re[i] + 1j * im[i]) * 2**exp."""
    parts = [(x if isinstance(x, mp.mpc) else as_mpc(x))._mpc_ for x in v]
    exp = max((p[2] + p[3] for z in parts for p in z if p[1]),
              default=0) - mp.mp.prec

    def scaled(p):
        sign, man, e, _ = p
        x = man << (e - exp) if e >= exp else man >> (exp - e)
        return -x if sign else x
    return [scaled(z[0]) for z in parts], [scaled(z[1]) for z in parts], exp


def aligned(a) -> tuple:
    """The stack a shifted exactly to its smallest row exponent, or to 0
    when that is smaller: (re, im, exp) over one exponent exp <= 0, where
    1 is 1 << -exp."""
    exp = min(a[2] + [0])
    re, im, _ = rescale(a, [exp] * len(a[2]))
    return re, im, exp


_bit_length = np.frompyfunc(int.bit_length, 1, 1)


def rounded_on_grid(re, im, exps) -> tuple:
    """The exact values (re + 1j im) 2**exps[r] of row r of the object
    arrays re and im as a stack (re, im, exps) on each row's own grid:
    every part rounded to mp.prec bits, half to even, as from_man_exp
    rounds it, then mantissas of the row.  With n = |N| for a part N,
    sh = max(bitlen(n) - mp.prec, 0) and q = n / 2**sh rounded (a carry
    may reach 2**mp.prec), the grid of a row is
    max(exps[r] + sh + bitlen(q)) - mp.prec over its nonzero parts (0 -
    mp.prec without one), and each part is q 2**(exps[r] + sh) truncated
    toward zero onto it."""
    prec = mp.mp.prec
    N = np.stack([re, im])
    n = abs(N)
    sh = np.maximum(_bit_length(n) - prec, 0)
    # half to even over t = 2n, whose low sh + 1 bits are dropped: adding
    # 2**sh - 1, and 1 more when the last kept bit is set, carries into
    # the kept bits exactly when the dropped part is above half, or is
    # half with an odd kept part
    t = n << 1
    q = (t + (1 << sh) - 1 + ((t >> (sh + 1)) & 1)) >> (sh + 1)
    low = np.asarray(exps, dtype=np.int64)[:, None] + sh.astype(np.int64)
    none = np.iinfo(np.int64).min
    top = np.where(q != 0, low + _bit_length(q).astype(np.int64),
                   none).max(axis=(0, 2), initial=none)
    grid = np.where(top > none, top, 0) - prec
    s = low - grid[:, None]
    x = np.where(s >= 0, q << np.maximum(s, 0).astype(object),
                 q >> np.maximum(-s, 0).astype(object))
    x = np.where(N < 0, -x, x)
    return x[0], x[1], grid.tolist()


def float_stack(G) -> tuple:
    """The rows of a float64 or complex128 array as a stack on their own
    grids, and the grid of each row: one bit finer than mp.prec bits below
    its largest entry.  The guard bit keeps the step no coarser than that
    if Newton moves the largest entry just below a power of two.  Each
    part is rounded onto its row's grid, half up, and row r of the stack
    (re, im, exps) holds those values exactly over the largest exponent
    exps[r] >= grid[r] that does: the grid with the trailing zero bits
    every part of the row shares taken off."""
    G = np.asarray(G)
    frac, ex = np.frexp(np.hstack([G.real, G.imag]).astype(np.float64))
    m, ex = np.ldexp(frac, 53).astype(np.int64), ex.astype(np.int64)
    nz, rows = m != 0, (m != 0).any(axis=1)
    top = np.where(nz, ex, np.iinfo(np.int64).min).max(axis=1)
    grid = np.where(rows, top, 0) - mp.mp.prec - 1
    # the part over the grid is m 2**s; below it, m is rounded, and 62
    # bits down leave 0 of any 53-bit m, as every longer shift does
    s = ex - 53 - grid[:, None]
    t = np.clip(-s, 0, 62)
    v = (m + np.where(t > 0, np.left_shift(1, np.maximum(t - 1, 0)), 0)) >> t
    sh = np.maximum(s, 0)
    # the row's common trailing zero bits: v 2**sh has those of v, plus sh
    tz = np.frexp((v & -v).astype(np.float64))[1] - 1 + sh
    low = np.where(v != 0, tz, np.iinfo(np.int64).max).min(axis=1)
    low = np.where(rows, low, 0)[:, None]
    x = (v >> np.clip(low - sh, 0, 63)).astype(object) << np.maximum(
        sh - low, 0).astype(object)
    n = x.shape[1] // 2
    return x[:, :n], x[:, n:], (grid + low[:, 0]).tolist(), grid.tolist()


def shifted(x, s) -> np.ndarray:
    """Row r of the object array x times 2**s[r], rounded to the nearest
    integer, half up, where s[r] < 0: one pass over the whole array per
    direction, and x itself when no shift is needed."""
    if not any(s):
        return x

    def column(v):
        return np.array(v, dtype=object).reshape(-1, 1)
    up, down = [max(v, 0) for v in s], [max(-v, 0) for v in s]
    if any(up):
        x = x << column(up)
    if any(down):
        x = (x + column([(1 << d) >> 1 for d in down])) >> column(down)
    return x


def rescale(a, exps) -> tuple:
    """The stack a over the row exponents exps, each entry times
    2**(exp - exps[r]) rounded to the nearest integer, half up."""
    re, im, e = a
    s = [x - y for x, y in zip(e, exps)]
    return shifted(re, s), shifted(im, s), list(exps)


def sups(a) -> tuple:
    """max_i |v_i|^2 for every row v of the stack a, as the object array w
    and the exponents wexp with max_i |v_i|^2 = w[r] * 2**wexp[r]."""
    re, im, exps = a
    return (re * re + im * im).max(axis=1), [2 * x for x in exps]


@lru_cache
def tol_parts(tol, prec: int) -> tuple:
    """The mantissa and exponent of mpf(tol) at precision prec."""
    _, man, texp, _ = mp.mpf(tol)._mpf_
    return man, texp


def _sign(w: int, d: int, t2: int) -> int:
    """The sign of w * 2**d - t2."""
    lhs, rhs = (w << d, t2) if d >= 0 else (w, t2 << -d)
    return (lhs > rhs) - (lhs < rhs)


_signs = np.frompyfunc(_sign, 3, 1)


def cmp_tol(w, wexp, tol, den=1):
    """The sign of w * 2**wexp - (tol * den)**2, from exact integers, for
    w >= 0, an mpmath or float tolerance tol >= 0 and an integer den.  On
    object arrays w it is elementwise, with wexp and den broadcast; a
    Python int w, with int wexp and den, skips the ufunc call."""
    man, texp = tol_parts(tol, mp.mp.prec)
    if type(w) is int:
        return _sign(w, wexp - 2 * texp, (man * den) ** 2)
    return _signs(w, np.subtract(wexp, 2 * texp), (man * den) ** 2)


# float64's unit roundoff
U = 2.0 ** -53


def floats(n, exp: int, den=1) -> np.ndarray:
    """n 2**exp / den as float64, for an object array n of Python ints and
    integers den > 0 broadcast against it: one correctly rounded integer
    division per entry, off by at most U relative, or 2**-1075 below
    float64's normal range."""
    s = max(exp, 0)
    n, den = np.asarray(n, dtype=object), np.asarray(den, dtype=object)
    return ((n << s) / (den << (s - exp))).astype(float)


def band_limit(tol) -> float:
    """The threshold cmp_tol reads, mpf(tol) at the working precision, as a
    float64 shrunk by 2**-40 relative.  A float64 bound at most this proves
    the exact value within tol: the shrink covers the few roundings, each
    at most U relative, of forming the bound itself."""
    man, texp = tol_parts(tol, mp.mp.prec)
    return math.ldexp(man, texp) * (1 - 2.0 ** -40)


def quotient(num: int, exp: int, den: int) -> mp.mpf:
    """num * 2**exp / den, rounded once at the working precision."""
    return mp.mp.make_mpf(mpf_div(from_man_exp(num, exp), from_int(den),
                                  mp.mp.prec, round_nearest))


def nearest(re, im, exp: int, den, err=None) -> tuple:
    """(n, far): the integer n nearest to v = (re + 1j im) 2**exp / den, for
    den > 0, and whether v lies farther than ROUND_TOL from n, tested as one
    exact integer comparison.  On object arrays re, im and den it is
    elementwise; on Python ints it returns an int and a bool.

    Given err = (err_re, err_im), it is the float64 filter instead: re and
    im are float64 arrays (exp 0, den 1), each part within err of the
    matching part of an exact value v; n is int64, and far is False only
    where every value in that box is within ROUND_TOL of n, which is then
    the exact test's n.  A far entry is for the exact test to decide."""
    if err is not None:
        with np.errstate(all="ignore"):
            n = np.rint(re)
            a, b = np.abs(re - n) + err[0], np.abs(im) + err[1]
            near = a * a + b * b <= band_limit(ROUND_TOL) ** 2
        return np.where(near, n, 0).astype(np.int64), ~near
    s = max(exp, 0)
    re, im, den = re << s, im << s, den << (s - exp)
    n = (2 * re + den) // (2 * den)
    return n, cmp_tol((re - n * den) ** 2 + im * im, 0, ROUND_TOL, den) > 0


def round_quotient(re: int, im: int, exp: int, den: int, what: str) -> int:
    """The integer nearest to v = (re + 1j im) 2**exp / den, for den > 0,
    which must lie within ROUND_TOL of it; what names the value in the
    error."""
    n, far = nearest(re, im, exp, den)
    if far:
        val = mp.mpc(quotient(re, exp, den), quotient(im, exp, den))
        raise NumericalDegeneracyError(
            f"{what} = {complex(val)} is not within {ROUND_TOL} of an integer")
    return n
