"""Modular data: an unnormalized S-matrix plus ribbon twists.

Conventions: basis index 0 is the unit, the S-matrix is stored unnormalized
so that row 0 consists of the (positive) quantum dimensions with S[0][0] = 1,
and twists are roots of unity.  Entries are exact cyclotomics whenever the
caller has them; plain complex floats work too and all checks then run at
the numeric tolerance.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import mpmath as mp
import numpy as np

from .cyclotomic import (ROUND_TOL, TOL, Cyc, as_complex, as_mpc, distinct,
                         exact_scalar as _exact, exact_vector, pair_products)
from .errors import NumericalDegeneracyError, SchemaError, ValidationReport
from .ring import BasedRing, DimVector, check_basis, product_basis

TWIST_ORDER_CAP = 10000


def _conj(v):
    if isinstance(v, Cyc):
        return v.conj()
    if isinstance(v, (int, Fraction)):
        return v
    return as_mpc(v).conjugate()


@dataclass(frozen=True, eq=False)
class ModularData:
    labels: tuple[str, ...]
    dual: tuple[int, ...]
    s: tuple[tuple[object, ...], ...]
    twists: tuple[object, ...]

    def __post_init__(self):
        labels, dual = check_basis(self.labels, self.dual)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dual", dual)
        r = len(labels)
        s = tuple(tuple(row) for row in self.s)
        object.__setattr__(self, "s", s)
        if len(s) != r or any(len(row) != r for row in s):
            raise SchemaError(f"s matrix must be {r} x {r}")
        twists = tuple(self.twists)
        object.__setattr__(self, "twists", twists)
        if len(twists) != r:
            raise SchemaError(f"need {r} twists, got {len(twists)}")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def s_numeric(self):
        return [[as_mpc(v) for v in row] for row in self.s]

    def s_complex(self) -> np.ndarray:
        """The S-matrix as one complex128 array, whatever mp.dps is; each
        distinct entry is converted once."""
        firsts, index = distinct(chain.from_iterable(self.s))
        z = np.array([as_complex(v) for v in firsts], dtype=complex)
        return z[index].reshape(self.rank, self.rank)

    def reverse(self) -> "ModularData":
        """Same fusion with the braiding reversed: conjugate S and twists."""
        s = tuple(tuple(_conj(v) for v in row) for row in self.s)
        tw = tuple(_conj(t) for t in self.twists)
        return ModularData(labels=self.labels, dual=self.dual, s=s, twists=tw)

    def __repr__(self):
        return f"ModularData(rank={self.rank}, labels={list(self.labels)})"


def dims(md: ModularData) -> DimVector:
    return DimVector(values=tuple(md.s[0]))


def _is_root_of_unity(t, tol):
    te = _exact(t)
    if te is not None:
        # The roots of unity of Q(zeta_n) are the zeta_m^j, m = lcm(2, n).
        # The float64 phase names the one j that te can be, and one exact
        # comparison decides.  The candidate is built at te's own order n:
        # for odd n, zeta_2n = -zeta_n^((n + 1) / 2), and an order 2n above
        # ORDER_CAP would leave Cyc.__eq__ to its float path.
        n = te.order
        m = n if n % 2 == 0 else 2 * n
        j = round(m * cmath.phase(as_complex(te)) / (2 * math.pi))
        if m == n:
            return te == Cyc.zeta(n, j)
        cand = Cyc.zeta(n, j * (n + 1) // 2)
        return te == (-cand if j % 2 else cand)
    tn = as_mpc(t)
    if abs(abs(tn) - 1) > tol:
        return False
    p = tn
    for _ in range(TWIST_ORDER_CAP):
        if abs(p - 1) < tol:
            return True
        p = p * tn
    return False


def check_twists(twists, tol=TOL) -> ValidationReport:
    """A problem for each twist that is not a root of unity, each distinct
    value tested once: one exact comparison for an exact twist, powers at
    tol for a float one.  Every ambient's twists are held to this."""
    firsts, index = distinct(twists)
    roots = [_is_root_of_unity(t, tol) for t in firsts]
    return ValidationReport([f"twist {j} is not a root of unity (order cap "
                             f"{TWIST_ORDER_CAP})"
                             for j, i in enumerate(index) if not roots[i]])


def _bad_pairs(mask) -> list:
    """The first five True positions of mask, row-major, as int pairs."""
    return [(int(i), int(j)) for i, j in np.argwhere(mask)[:5]]


def validate(md: ModularData, tol=TOL) -> ValidationReport:
    """Axioms for unnormalized pseudounitary modular data.

    The unit and dimension checks touch R values and run at the working
    precision.  The twists are held to check_twists.  Symmetry, unitarity
    (S conj(S)^T = dim I) and duality (S^2 = dim C) run in float64 on
    s_complex(); the last two are bounded by max(tol, 16 R eps) *
    max(1, dim), so a tol below the float64 rounding error does not fail
    exact data.  The comparisons are NaN-safe, so a NaN entry fails them.
    The last check is Verlinde integrality: the coefficient verlinde
    refuses is one more problem.
    """
    rep = ValidationReport()
    r = md.rank
    row0 = [as_mpc(v) for v in md.s[0]]

    u = row0[0]
    if abs(u - 1) > tol:
        rep.add(f"unit dimension S[0][0] must be 1, got {complex(u)}")
    for j in range(r):
        v = row0[j]
        if abs(mp.im(v)) > tol or mp.re(v) <= tol:
            rep.add(f"dimension S[0][{j}] must be positive real, got {complex(v)}")
            if len(rep.problems) > 8:
                break

    S = md.s_complex()
    bad = _bad_pairs(np.triu(~(np.abs(S - S.T) <= tol), 1))
    if bad:
        rep.add(f"s matrix is not symmetric at {bad}")

    dim = float(np.sum(np.abs(S[0]) ** 2))
    if not dim <= tol:
        # Each entry sums R products, and for unitary S Cauchy-Schwarz
        # gives sum_t |S_it||S_tj| <= dim.  Rounding the entries, the
        # products, the sums and dim itself then moves an entry of
        # S conj(S)^T - dim I or of S^2 - dim C by at most about
        # (R + 4) eps dim <= 5 R eps dim; 16 R eps leaves a factor of three.
        bound = max(tol, 16 * r * np.finfo(float).eps) * max(1, dim)
        idx = np.arange(r)
        gram = S @ S.conj().T
        gram[idx, idx] -= dim
        bad = _bad_pairs(~(np.abs(gram) <= bound))
        if bad:
            rep.add(f"S * conj(S)^T is not dim * identity at {bad}")

        gram = S @ S
        gram[idx, md.dual] -= dim
        bad = _bad_pairs(~(np.abs(gram) <= bound))
        if bad:
            rep.add(f"S^2 does not implement the declared duality at {bad}")

    rep.extend(check_twists(md.twists, tol))

    try:
        _verlinde_tensor(S)
    except NumericalDegeneracyError as err:
        rep.add(str(err))
    return rep


def verlinde(md: ModularData) -> BasedRing:
    """Fusion ring recovered from the S-matrix.

    N[i][j][k] = (1/dim) sum_t S[i][t] S[j][t] conj(S[k][t]) / S[0][t],
    dim = sum_t |S[0][t]|^2, as one float64 (rank^2, rank) @ (rank, rank)
    product.  The outputs are integers, so float64 suffices at any working
    precision: the first coefficient, in (i, j, k) order, that lies beyond
    ROUND_TOL of an integer or rounds below 0 is refused, since then the
    data was not modular to begin with.
    """
    return BasedRing(labels=md.labels, fusion=_verlinde_tensor(md.s_complex()),
                     dual=md.dual)


def _verlinde_tensor(S: np.ndarray) -> np.ndarray:
    """verlinde's integer tensor from the complex128 S-matrix."""
    r = len(S)
    dim = np.sum(np.abs(S[0]) ** 2)
    # a zero dimension gives inf or nan, which the residual test rejects
    with np.errstate(divide="ignore", invalid="ignore"):
        pairs = (S[:, None, :] * S[None, :, :]).reshape(r * r, r)
        N = (pairs @ (S.conj() / S[0]).T / dim).reshape(r, r, r)
    F = np.rint(N.real)
    off = ~(np.abs(N - F) <= ROUND_TOL)
    bad = np.argwhere(off | (F < 0))
    if len(bad):
        i, j, k = bad[0]
        what = f"verlinde coefficient ({i},{j},{k})"
        if off[i, j, k]:
            raise NumericalDegeneracyError(
                f"{what} = {complex(N[i, j, k])} is not within {ROUND_TOL} "
                f"of an integer")
        raise NumericalDegeneracyError(f"{what} rounds to {int(F[i, j, k])} < 0")
    return F.astype(np.int64)


def _s_matrix(md: ModularData) -> list:
    """The S-matrix rows as exact Cyc when every entry is exact, else as
    mpmath numbers at the working precision."""
    r = md.rank
    exact = exact_vector(v for row in md.s for v in row)
    if exact is None:
        return md.s_numeric()
    return [exact[i * r:(i + 1) * r] for i in range(r)]


def characters(md: ModularData) -> list:
    """Character table of the fusion ring: chi[x][y] = S[x][y] / S[0][x].

    Exact cyclotomic values when every S entry is exact; numeric otherwise.
    Each divisor is inverted once.
    """
    S = _s_matrix(md)
    out = []
    for x in range(md.rank):
        inv = 1 / S[0][x]
        out.append([v * inv for v in S[x]])
    return out


def central_idempotent(md: ModularData, x: int) -> list:
    """Coefficients of the central idempotent attached to character x,
    c[z] = d(x) / dim * S[x][dual(z)]."""
    S = _s_matrix(md)
    scale = S[0][x] / dims(md).total()
    return [scale * S[x][md.dual[z]] for z in range(md.rank)]


def deligne(a: ModularData, b: ModularData) -> ModularData:
    """Product theory: labels pair up, S entries and twists multiply, each
    distinct pair of factor values once."""
    labels, dual = product_basis(a, b)
    ra, rb = a.rank, b.rank
    # P[i ra + k][j rb + l] = S_a[i][k] S_b[j][l]
    P = pair_products([v for row in a.s for v in row],
                      [v for row in b.s for v in row])
    s = tuple(
        tuple(P[i * ra + k][j * rb + l] for k in range(ra) for l in range(rb))
        for i in range(ra) for j in range(rb))
    twists = tuple(chain.from_iterable(pair_products(a.twists, b.twists)))
    return ModularData(labels=labels, dual=dual, s=s, twists=twists)
