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
  precision, as exact integers on a fixed grid per idempotent; the cube
  is q e = e e + r e with q = round(e^2), so besides the square it
  multiplies only by the residual r = q - e, which shrinks every step;
- certification checks e^2 = e, e != 0, sum e = 1 and that every e
  commutes with every basis element.  With k = dim Z idempotents these
  imply that they are orthogonal and primitive.

A split whose eigenvalues are not separated, or whose idempotents fail
certification, uses up one seeded attempt; a non-semisimple ring fails
every attempt.

From the float64 guess on, the idempotents of an attempt are one stack of
exact mantissas (``mantissa``), refined and certified together.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .cyclotomic import TOL, working_tol
from .errors import NotSemisimpleError, NumericalDegeneracyError, SchemaError
from .mantissa import (aligned, cmp_tol, commutators, float_stack, floats,
                       parts, product, round_quotient, shifted, stack)
from .ring import BasedRing, _bilinear, _dot

SPLIT_SEED = 0xC0FFEE
_MAX_SPLIT_ATTEMPTS = 8
# Eigenvalues of the split closer than this, relative to their size, cannot
# be told apart in float64 from a defective (non-semisimple) eigenvalue,
# which a perturbation of eps splits by about sqrt(eps).
_FLOAT_GAP = float(np.sqrt(np.finfo(np.float64).eps))


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
    reach tol from any float64 start.

    Each row has a grid, the exponent float_stack gives its guess, and
    every step is round(3 q - 2 q e) on that grid, half up, with
    q = round(e^2) there.  The cube goes through the residual r = q - e,
    exact on the grid: q e = e e + r e, where e e is the square of the
    stopping test, so the second product multiplies by r, whose mantissas
    shrink every step.  The first step multiplies the guesses on their
    own grid, and a real stack carries no imaginary part; neither changes
    an integer of any iterate."""
    plan = ring._plan
    re, im, exps, grid = float_stack(guesses)
    e = parts(re, im)

    def mul(terms, a, b):
        """The exact row-wise product of the parts a and b."""
        if len(a) == 1:
            return [_bilinear(terms, a[0], b[0])]
        return product(terms, (*a, ()), (*b, ()))[:2]

    def at(x, src, dst):
        """x over the row exponents src as mantissas over dst."""
        return shifted(x, [s - d for s, d in zip(src, dst)])

    out = [None] * len(guesses)
    live = list(range(len(guesses)))
    for _ in range(mp.mp.dps.bit_length() + 1):
        sq, e2 = mul(plan.square, e, e), [2 * x for x in exps]
        # the stopping test, |e^2 - e|^2 exactly over m
        m = [min(x, y) for x, y in zip(e2, exps)]
        d = [at(s, e2, m) - at(p, exps, m) for s, p in zip(sq, e)]
        done = cmp_tol(sum(x * x for x in d).max(axis=1),
                       [2 * x for x in m], tol) <= 0
        # q = round(e^2) and r = q - e on the grid, and r e
        q = [at(s, e2, grid) for s in sq]
        rp = mul(plan.product, [x - at(p, exps, grid) for x, p in zip(q, e)],
                 e)
        # 3 q - 2 q e = q + 2 (q - e e - r e): the second term is exact
        # over n, and rounding it onto the grid rounds the sum, as q lies
        # on the grid
        ge = [g + x for g, x in zip(grid, exps)]
        n = [min(x, y, z) for x, y, z in zip(grid, e2, ge)]
        e = [x + at(at(x, grid, n) - at(s, e2, n) - at(t, ge, n),
                    [y + 1 for y in n], grid) for x, s, t in zip(q, sq, rp)]
        exps = list(grid)
        im = e[1] if len(e) > 1 else np.zeros_like(e[0])
        for i in np.flatnonzero(done).tolist():
            out[live[i]] = (e[0][i].tolist(), im[i].tolist(), grid[i])
        rest = np.flatnonzero(~done).tolist()
        if not rest:
            return out
        live = [live[i] for i in rest]
        e = [p[rest] for p in e]
        grid = exps = [grid[i] for i in rest]
    return None


def _certified(ring: BasedRing, idems, dim_z, tol) -> bool:
    """dim Z idempotents (e^2 = e is checked by _newton), each nonzero and
    central, that sum to the unit."""
    if len(idems) != dim_z:
        return False
    e = stack(idems)
    ps, wexp = parts(*e[:2]), [2 * x for x in e[2]]
    if (cmp_tol(sum(p * p for p in ps).max(axis=1), wexp, tol) <= 0).any():
        return False
    lo = min(e[2] + [0])
    total = [shifted(p, [x - lo for x in e[2]]).sum(axis=0) for p in ps]
    total[0][0] -= 1 << -lo
    if cmp_tol(sum(t * t for t in total).max(), 2 * lo, tol) > 0:
        return False
    return bool((cmp_tol(commutators(ring, e).max(axis=1), wexp, tol)
                 <= 0).all())


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


def _profile_key(b: BlockProfile):
    """The matrix size, then each coefficient of the idempotent as float64,
    rounded once from the mantissas, and then to 9 decimals."""
    re, im, exp = b.mantissas
    return (b.m, tuple((round(r, 9) + 0.0, round(i, 9) + 0.0)
                       for r, i in floats([re, im], exp).T.tolist()))


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
        bd = round_quotient(sum(re[i] * t for i, t in tr),
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
    aligned exactly, times W."""
    F = ring.fusion
    W = np.einsum("izk,k->iz", F, np.einsum("ijj->i", F))
    re, im, exp = aligned(stack([bp.mantissas for bp in blocks]))
    X = _dot(np.vstack(parts(re, im)), W)
    k = len(blocks)
    return X[:k], X[k:] if len(X) > k else np.zeros_like(X), exp
