import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fuscond.cyclotomic import ROUND_TOL, TOL
from fuscond.mantissa import aligned, cmp_tol, mantissas, stack


def _cmp_reference(w, wexp, tol, den):
    """The sign of w 2**wexp - (tol den)**2 in exact rationals, with tol
    rounded to the working precision."""
    t = mp.mpf(tol)
    lhs = Fraction(w) * Fraction(2) ** wexp
    rhs = (Fraction(int(t.man)) * Fraction(2) ** int(t.exp) * den) ** 2
    return (lhs > rhs) - (lhs < rhs)


@pytest.mark.parametrize("dps", [15, 64])
@pytest.mark.parametrize("tol", [TOL, ROUND_TOL, 0.5])
def test_cmp_tol_is_elementwise(tol, dps):
    rng = random.Random(7)
    with mp.workdps(dps):
        man, texp = mp.mpf(tol).man, mp.mpf(tol).exp
        # around (tol den)^2: below, at and above it, over many exponents
        w, wexp, den = [], [], []
        for _ in range(200):
            d = rng.randint(1, 10 ** 6)
            e = rng.randint(-300, 40)
            t2 = (man * d) ** 2
            s = 2 * texp - e
            base = t2 << s if s >= 0 else t2 >> -s
            w.append(max(base + rng.choice((-1, 0, 1, rng.randint(-9, 9))), 0))
            wexp.append(e)
            den.append(d)
        W, D = np.array(w, dtype=object), np.array(den, dtype=object)
        got = cmp_tol(W, wexp, tol, D)
        want = [_cmp_reference(*z, tol, d) for *z, d in zip(w, wexp, den)]
        assert got.tolist() == want
        assert [cmp_tol(*z, tol, d) for *z, d in zip(w, wexp, den)] == want
        assert {-1, 0, 1} <= set(want)
        # a scalar wexp and den broadcast over the array
        assert (cmp_tol(W, wexp[0], tol, den[0]).tolist()
                == [_cmp_reference(x, wexp[0], tol, den[0]) for x in w])


def test_aligned_is_exact_and_at_most_unit_exponent():
    with mp.workdps(30):
        vectors = [[mp.mpf(3) / 7, 5], [mp.mpc(1e20, -2), 0],
                   [mp.mpf(2) ** -90, 1]]
        rows = [mantissas(v) for v in vectors]
        re, im, exp = aligned(stack(rows))
        assert exp == min(e for _, _, e in rows) < 0
        for r, (vr, vi, e) in enumerate(rows):
            assert re[r].tolist() == [x << (e - exp) for x in vr]
            assert im[r].tolist() == [x << (e - exp) for x in vi]
        # a row above 2**mp.prec is shifted up to the exponent 0
        re, im, exp = aligned(stack([mantissas([mp.mpf(2) ** 200])]))
        assert exp == 0 and re.tolist() == [[2 ** 200]]
        assert aligned(stack([]))[2] == 0
