"""Wedderburn decomposition of a based ring over C.

The ring is a ``BasedRing``: nonnegative integer structure constants
N[i, j, k], read from its fusion tensor and its term plan,
with the unit at basis index 0.  The primitive central idempotents are
found float first and certified at the working precision (``mp.mp.dps``):

- the center is the float64 nullspace of the stacked commutator
  constraints, from a thin SVD;
- a random central element with continuous coefficients acts on the
  center with k = dim Z distinct eigenvalues, one per block; its
  eigenvectors, scaled so that they sum to the unit, are the idempotents
  to float64 accuracy (randomized central-element splitting, after
  Eberly and Giesbrecht);
- the Newton step e <- 3e^2 - 2e^3 refines them at the working
  precision;
- certification checks e^2 = e, e != 0, sum e = 1 and that every e
  commutes with every basis element.  With k = dim Z idempotents these
  imply that they are orthogonal and primitive.

A split whose eigenvalues are not separated, or whose idempotents fail
certification, uses up one seeded attempt; a non-semisimple ring fails
every attempt.

From the float64 guess on, each idempotent is held as integer mantissas
over one fixed exponent, (re, im, exp) with e[i] = (re[i] + 1j im[i]) 2**exp,
one bit finer than mp.prec bits below its largest entry.  The idempotents
of one split attempt are refined and certified together as a stack: numpy
object arrays of Python ints, one row per idempotent, with one exponent per
row.  Every product is a few array passes over the ring's term plan
(``BasedRing._plan``, the one sparse form of the ring, read through
``ring._bilinear`` and ``ring._summed`` as ``element_product`` and the
averaging check read it): one multiplication per distinct pair of basis
elements, a gather of the terms sorted by target and one np.add.reduceat.
A square runs over the unordered pairs only, and the commutators with
every basis element are one pass over the nonzeros of N[i, j, k] -
N[j, i, k].  The sums are exact integers, and each Newton step rounds
back to the fixed exponent once per entry.  The refinement's stopping
rule, every certification check and the block traces compare exact
integers against the tolerance.  A ``BlockProfile`` holds only the
mantissas; its mpmath ``idempotent`` is built on first read, and nothing
on the verdict path reads it.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

import mpmath as mp
import numpy as np
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

from .cyclotomic import ROUND_TOL, TOL, as_mpc, working_tol
from .errors import NotSemisimpleError, NumericalDegeneracyError, SchemaError
from .ring import BasedRing, _bilinear, _dot, _summed

SPLIT_SEED = 0xC0FFEE
_MAX_SPLIT_ATTEMPTS = 8
# Eigenvalues of the split closer than this, relative to their size, cannot
# be told apart in float64 from a defective (non-semisimple) eigenvalue,
# which a perturbation of eps splits by about sqrt(eps).
_FLOAT_GAP = float(np.sqrt(np.finfo(np.float64).eps))


def _stack(vectors) -> tuple:
    """Mantissa vectors (re, im, exp) as one stack (re, im, exps): row r of
    the object arrays re and im holds the Python-int mantissas of vector r,
    over the exponent exps[r]."""
    def rows(part):
        return np.array([v[part] for v in vectors], dtype=object)
    return rows(0), rows(1), [v[2] for v in vectors]


def _take(a, rows) -> tuple:
    """The stack of the rows of the stack a at the indices rows."""
    re, im, exps = a
    return re[rows], im[rows], [exps[r] for r in rows]


def _product(terms, a, b) -> tuple:
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


def _commutators(ring: BasedRing, a) -> np.ndarray:
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


def _mantissas(v):
    """A coefficient vector as integer mantissas over one exponent, mp.prec
    bits below its largest entry: v[i] = (re[i] + 1j * im[i]) * 2**exp."""
    return _on_grid([(x if isinstance(x, mp.mpc) else as_mpc(x))._mpc_
                     for x in v])


def _on_grid(parts):
    """Pairs (re, im) of mpf tuples as _mantissas gives them: integer
    mantissas over one exponent, mp.prec bits below the largest part, each
    part truncated toward zero onto that grid."""
    exp = max((p[2] + p[3] for z in parts for p in z if p[1]),
              default=0) - mp.mp.prec

    def scaled(p):
        sign, man, e, _ = p
        x = man << (e - exp) if e >= exp else man >> (exp - e)
        return -x if sign else x
    return [scaled(z[0]) for z in parts], [scaled(z[1]) for z in parts], exp


_bit_length = np.frompyfunc(int.bit_length, 1, 1)


def _rounded_on_grid(re, im, exps) -> tuple:
    """The exact values (re + 1j im) 2**exps[r] of row r of the object
    arrays re and im as a stack (re, im, exps) on each row's own grid:
    every part rounded to mp.prec bits, half to even, as from_man_exp
    rounds it, then _on_grid of the row.  With n = |N| for a part N,
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


def _shift(x: int, s: int) -> int:
    """x * 2**s rounded to the nearest integer."""
    return x << s if s >= 0 else (x + (1 << (-s - 1))) >> -s


def _float_mantissas(v) -> tuple:
    """A float64 or complex128 vector as mantissas over one exponent, one
    bit finer than mp.prec bits below its largest entry.  The guard bit
    keeps the step no coarser than that if Newton moves the largest entry
    just below a power of two."""
    parts = [(z.real, z.imag) for z in map(complex, v)]
    top = max((math.frexp(x)[1] for z in parts for x in z if x), default=0)
    exp = top - mp.mp.prec - 1

    def scaled(x):
        num, den = x.as_integer_ratio()
        return _shift(num, -exp - (den.bit_length() - 1))
    return ([scaled(x) for x, _ in parts], [scaled(y) for _, y in parts], exp)


def _shifted(X, shifts) -> np.ndarray:
    """Row r of X times 2**shifts[r], rounded to the nearest integer as
    _shift rounds."""
    out = X.copy()
    for r, s in enumerate(shifts):
        if s > 0:
            out[r] = X[r] << s
        elif s < 0:
            out[r] = (X[r] + (1 << (-s - 1))) >> -s
    return out


def _rescale(a, exps) -> tuple:
    """The stack a over the row exponents exps, each entry rounded to the
    nearest once."""
    re, im, e = a
    s = [x - y for x, y in zip(e, exps)]
    return _shifted(re, s), _shifted(im, s), list(exps)


def _combine(a, ca: int, b, cb: int) -> tuple:
    """ca * a + cb * b for stacks a and b, row by row and exactly, over the
    smaller of the two row exponents."""
    (ar, ai, ea), (br, bi, eb) = a, b
    e = [min(x, y) for x, y in zip(ea, eb)]
    sa = [x - y for x, y in zip(ea, e)]
    sb = [x - y for x, y in zip(eb, e)]
    return (ca * _shifted(ar, sa) + cb * _shifted(br, sb),
            ca * _shifted(ai, sa) + cb * _shifted(bi, sb), e)


def _sups(a) -> list:
    """max_i |v_i|^2 for every row v of the stack a, as the integer w and
    exponent wexp with max_i |v_i|^2 = w * 2**wexp."""
    re, im, exps = a
    return list(zip((re * re + im * im).max(axis=1).tolist(),
                    [2 * x for x in exps]))


@lru_cache
def _tol_parts(tol, prec: int) -> tuple:
    """The mantissa and exponent of mpf(tol) at precision prec."""
    _, man, texp, _ = mp.mpf(tol)._mpf_
    return man, texp


def _cmp_tol(w: int, wexp: int, tol, den: int = 1) -> int:
    """The sign of w * 2**wexp - (tol * den)**2, from exact integers, for
    w >= 0, an mpmath or float tolerance tol >= 0 and an integer den."""
    man, texp = _tol_parts(tol, mp.mp.prec)
    d = wexp - 2 * texp
    t2 = (man * den) ** 2
    lhs, rhs = (w << d, t2) if d >= 0 else (w, t2 << -d)
    return (lhs > rhs) - (lhs < rhs)


def _quotient(num: int, exp: int, den: int) -> mp.mpf:
    """num * 2**exp / den, rounded once at the working precision."""
    return mp.mp.make_mpf(mpf_div(from_man_exp(num, exp), from_int(den),
                                  mp.mp.prec, round_nearest))


def _round_quotient(re: int, im: int, exp: int, den: int, what: str) -> int:
    """The integer nearest to v = (re + 1j im) 2**exp / den, for den > 0,
    which must lie within ROUND_TOL of it, tested as one exact integer
    comparison; what names the value in the error."""
    s = max(exp, 0)
    re, im, den = re << s, im << s, den << (s - exp)
    n = (2 * re + den) // (2 * den)
    if _cmp_tol((re - n * den) ** 2 + im * im, 0, ROUND_TOL, den) > 0:
        val = mp.mpc(_quotient(re, 0, den), _quotient(im, 0, den))
        raise NumericalDegeneracyError(
            f"{what} = {complex(val)} is not within {ROUND_TOL} of an integer")
    return n


def center_basis(ring: BasedRing) -> np.ndarray:
    """Orthonormal float64 basis of the center, one vector per row: the
    nullspace of the stacked commutator constraints z * b_i - b_i * z = 0."""
    F = ring.fusion
    # rows (i, k), columns (j): coefficient of z_j in (z b_i - b_i z)_k
    C = (F.transpose(1, 2, 0) - F.transpose(0, 2, 1)).reshape(-1, ring.rank)
    _, S, Vh = np.linalg.svd(C.astype(np.float64), full_matrices=False)
    cut = S.max(initial=0.0) * max(C.shape) * np.finfo(np.float64).eps
    return Vh[int(np.count_nonzero(S > cut)):]


def _float_split(ring: BasedRing, Z, rng):
    """Float64 guesses for the primitive central idempotents, or None when
    the random central element does not separate the blocks."""
    k = len(Z)
    w = np.array([rng.uniform(-1.0, 1.0) for _ in range(k)]) @ Z
    # L_w[k, j] = sum_i w_i N[i, j, k]; M is L_w restricted to the center
    L = np.tensordot(w, ring.fusion, axes=(0, 0)).T
    M = Z @ L @ Z.T
    lam, V = np.linalg.eig(M)
    scale = max(1.0, float(np.max(np.abs(lam))))
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(k) * scale
    if gaps.min() <= _FLOAT_GAP * scale:
        return None
    # the unit is the sum of the idempotents: solve for the eigenvector scales
    try:
        c = np.linalg.solve(V, Z[:, 0])
    except np.linalg.LinAlgError:
        return None
    guesses = [(V[:, b] * c[b]) @ Z for b in range(k)]
    # scales that overflowed float64 are a failed split
    return guesses if np.isfinite(guesses).all() else None


def _newton(ring: BasedRing, guesses, tol):
    """Newton's e <- 3e^2 - 2e^3 at the working precision from float64
    guesses, all refined together as one stack, as a list of mantissa
    vectors, or None if some guess does not converge.  Once
    |e^2 - e| <= tol, one more step takes e from there to round-off and e
    leaves the stack.  Convergence is quadratic, so log2(mp.dps) steps
    reach tol from any float64 start."""
    plan = ring._plan
    e = _stack([_float_mantissas(g) for g in guesses])
    out = [None] * len(guesses)
    live = list(range(len(guesses)))
    for _ in range(mp.mp.dps.bit_length() + 1):
        exps = e[2]
        sq = _product(plan.square, e, e)
        done = [_cmp_tol(*w, tol) <= 0 for w in _sups(_combine(sq, 1, e, -1))]
        sq = _rescale(sq, exps)
        e = _rescale(_combine(sq, 3, _product(plan.product, sq, e), -2), exps)
        for r, d in enumerate(done):
            if d:
                out[live[r]] = (e[0][r].tolist(), e[1][r].tolist(), exps[r])
        rest = [r for r, d in enumerate(done) if not d]
        if not rest:
            return out
        live = [live[r] for r in rest]
        e = _take(e, rest)
    return None


def _certified(ring: BasedRing, idems, dim_z, tol) -> bool:
    """dim Z idempotents (e^2 = e is checked by _newton), each nonzero and
    central, that sum to the unit."""
    if len(idems) != dim_z:
        return False
    e = _stack(idems)
    if any(_cmp_tol(*w, tol) <= 0 for w in _sups(e)):
        return False
    lo = min(e[2] + [0])
    s = [x - lo for x in e[2]]
    re, im = _shifted(e[0], s).sum(axis=0), _shifted(e[1], s).sum(axis=0)
    re[0] -= 1 << -lo
    if _cmp_tol(*_sups(_stack([(re, im, lo)]))[0], tol) > 0:
        return False
    return all(_cmp_tol(w, 2 * x, tol) <= 0 for w, x in
               zip(_commutators(ring, e).max(axis=1).tolist(), e[2]))


def _split(ring: BasedRing, seed) -> list:
    """The certified primitive central idempotents as mantissa vectors."""
    Z = center_basis(ring)
    # refinement and certification tolerance, never looser than TOL
    tol = min(mp.mpf(TOL), working_tol())
    for attempt in range(_MAX_SPLIT_ATTEMPTS):
        guesses = _float_split(ring, Z, random.Random(seed + attempt))
        if guesses is None:
            continue
        idems = _newton(ring, guesses, tol)
        if idems is not None and _certified(ring, idems, len(Z), tol):
            return idems
    raise NumericalDegeneracyError(
        "failed to split the center after "
        f"{_MAX_SPLIT_ATTEMPTS} seeded attempts; the algebra is "
        "degenerate or not semisimple")


@dataclass(frozen=True)
class BlockProfile:
    """One matrix block of the Wedderburn decomposition: the idempotent as
    its exact mantissa vector (re, im, exp), the dimension of its ideal and
    the matrix size m."""
    mantissas: tuple
    block_dim: int
    m: int

    @cached_property
    def idempotent(self) -> tuple:
        """The idempotent as mpmath numbers at the working precision of
        the first read, each entry rounded once."""
        re, im, exp = self.mantissas
        return tuple(mp.mpc(mp.mpf((r, exp)), mp.mpf((i, exp)))
                     for r, i in zip(re, im))


def _profile_key(b: BlockProfile):
    """The matrix size, then each coefficient of the idempotent as float64,
    rounded once from the mantissas, and then to 9 decimals."""
    re, im, exp = b.mantissas

    def rounded(x):
        return round(x / 2 ** -exp if exp < 0 else float(x << exp), 9) + 0.0
    return (b.m, tuple((rounded(r), rounded(i)) for r, i in zip(re, im)))


def block_profiles(ring: BasedRing, seed=SPLIT_SEED) -> list:
    """Sorted block profiles: each primitive central idempotent with the
    dimension of its ideal and the matrix size m.

    Raises SchemaError unless basis element 0 is a two-sided unit, and
    NumericalDegeneracyError when no random central element gives a
    certified split, which is also what happens when the ring is not
    semisimple.
    """
    F = ring.fusion
    eye = np.eye(ring.rank)
    if not (np.array_equal(F[0], eye) and np.array_equal(F[:, 0, :], eye)):
        raise SchemaError("basis element 0 must be a two-sided unit")
    # tr(L_i) = sum_k N[i, k, k]
    tr = [(i, int(t)) for i, t in enumerate(np.einsum("ijj->i", F)) if t]
    out = []
    for re, im, exp in _split(ring, seed):
        bd = _round_quotient(sum(re[i] * t for i, t in tr),
                             sum(im[i] * t for i, t in tr), exp, 1,
                             "block dimension trace")
        m = int(round(bd ** 0.5))
        if m * m != bd:
            raise NotSemisimpleError(
                f"block dimension {bd} is not a perfect square")
        out.append(BlockProfile(mantissas=(tuple(re), tuple(im), exp),
                                block_dim=bd, m=m))
    out.sort(key=_profile_key)
    return out


def character_table(ring: BasedRing, blocks) -> tuple:
    """Irreducible character of every block at every basis element, as
    exact integer mantissas over one exponent: (re, im, exp), with re and
    im object arrays of one row per block, and
    m chi_b(z) = (re[b, z] + 1j * im[b, z]) * 2**exp.  Here
    chi_b(z) = (1/m) sum_i e_b[i] W[i, z], with the integer matrix
    W[i, z] = sum_k N[i, z, k] tr(L_k) = tr(L_{b_i b_z}): the idempotents,
    shifted exactly to their smallest exponent, times W."""
    F = ring.fusion
    W = np.einsum("izk,k->iz", F, np.einsum("ijj->i", F))
    exp = min((bp.mantissas[2] for bp in blocks), default=0)
    re, im, _ = _rescale(_stack([bp.mantissas for bp in blocks]),
                         [exp] * len(blocks))
    X = _dot(np.vstack([re, im]), W)
    return X[:len(blocks)], X[len(blocks):], exp
