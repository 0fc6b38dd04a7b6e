"""Wedderburn decomposition of a finite dimensional associative algebra.

The algebra is given by integer (or rational) structure constants with the
unit at basis index 0.  The primitive central idempotents are found float
first and certified at the working precision (``mp.mp.dps``):

- the center is the float64 nullspace of the stacked commutator
  constraints, from a thin SVD;
- a random central element with continuous coefficients acts on the
  center with k = dim Z distinct eigenvalues, one per block; its
  eigenvectors, scaled so that they sum to the unit, are the idempotents
  to float64 accuracy (randomized central-element splitting, after
  Eberly and Giesbrecht);
- the Newton step e <- 3e^2 - 2e^3 refines each one at the working
  precision;
- certification checks e^2 = e, e != 0, sum e = 1 and that every e
  commutes with every basis element.  With k = dim Z idempotents these
  imply that they are orthogonal and primitive.

A split whose eigenvalues are not separated, or whose idempotents fail
certification, uses up one seeded attempt; a non-semisimple algebra fails
every attempt.  Products at the working precision go through the same
sparse kernel as ``ring.element_product``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

from .cyclotomic import TOL, as_mpc, round_int, working_tol
from .errors import NotSemisimpleError, NumericalDegeneracyError, SchemaError
from .ring import _nonzero_rows, _sparse_product

SPLIT_SEED = 0xC0FFEE
_MAX_SPLIT_ATTEMPTS = 8
# Eigenvalues of the split closer than this, relative to their size, cannot
# be told apart in float64 from a defective (non-semisimple) eigenvalue,
# which a perturbation of eps splits by about sqrt(eps).
_FLOAT_GAP = float(np.sqrt(np.finfo(np.float64).eps))


class AssocAlgebra:
    """Structure constants T[i, j, k]: coefficient of k in basis_i * basis_j."""

    def __init__(self, tensor):
        T = np.asarray(tensor)
        if T.ndim != 3 or T.shape[0] != T.shape[1] or T.shape[0] != T.shape[2]:
            raise SchemaError(f"structure tensor must be cubic, got {T.shape}")
        n = T.shape[0]
        eye = np.eye(n)
        if not (np.allclose(T[0], eye) and np.allclose(T[:, 0, :], eye)):
            raise SchemaError("basis element 0 must be a two-sided unit")
        self.tensor = T
        self.n = n
        self._rows = _nonzero_rows(T)
        # tr(L_a) = sum_i a_i * sum_k T[i, k, k]
        self._trace_vec = np.einsum("ijj->i", T)

    @classmethod
    def from_based_ring(cls, ring):
        return cls(ring.fusion)

    def mult(self, a, b):
        """The product a * b at the working precision: the sparse kernel
        sums exact integer products of the mantissas, and each entry is
        rounded once."""
        ar, ai, ea = _mantissas(a)
        br, bi, eb = _mantissas(b)
        rr, ii, ri, ir = (_sparse_product(self._rows, x, y) for x, y in
                          ((ar, br), (ai, bi), (ar, bi), (ai, br)))
        e = ea + eb
        return [mp.mpc(mp.mpf((r - i, e)), mp.mpf((x + y, e)))
                for r, i, x, y in zip(rr, ii, ri, ir)]

    def trace_left_mult(self, a):
        return sum(a[i] * int(t) for i, t in enumerate(self._trace_vec) if a[i] != 0)

    def commutator_residuals(self, a) -> list:
        """max_k |(a b_i - b_i a)_k| for every basis element b_i, from one
        exact pass over the nonzero structure constants."""
        n = self.n
        re, im, exp = _mantissas(a)
        dre = [[0] * n for _ in range(n)]
        dim = [[0] * n for _ in range(n)]
        for i, row in enumerate(self._rows):
            for j, targets in row:
                for k, c in targets:
                    # T[i, j, k] = c: a_i b_i b_j is a term of a b_j,
                    # and a_j b_i b_j one of b_i a
                    dre[j][k] += re[i] * c
                    dre[i][k] -= re[j] * c
                    dim[j][k] += im[i] * c
                    dim[i][k] -= im[j] * c
        worst = [max(x * x + y * y for x, y in zip(r, s))
                 for r, s in zip(dre, dim)]
        return [mp.sqrt(mp.mpf((w, 2 * exp))) for w in worst]


def _mantissas(v):
    """A coefficient vector as integer mantissas over one exponent, mp.prec
    bits below its largest entry: v[i] = (re[i] + 1j * im[i]) * 2**exp."""
    parts = [(x if isinstance(x, mp.mpc) else as_mpc(x))._mpc_ for x in v]
    exp = max((p[2] + p[3] for z in parts for p in z if p[1]),
              default=0) - mp.mp.prec

    def scaled(p):
        sign, man, e, _ = p
        x = man << (e - exp) if e >= exp else man >> (exp - e)
        return -x if sign else x
    return [scaled(z[0]) for z in parts], [scaled(z[1]) for z in parts], exp


def _quotient(num: int, exp: int, den: int) -> mp.mpf:
    """num * 2**exp / den, rounded once at the working precision."""
    return mp.mp.make_mpf(mpf_div(from_man_exp(num, exp), from_int(den),
                                  mp.mp.prec, round_nearest))


def center_basis(alg: AssocAlgebra) -> np.ndarray:
    """Orthonormal float64 basis of the center, one vector per row: the
    nullspace of the stacked commutator constraints z * b_i - b_i * z = 0."""
    T = alg.tensor
    # rows (i, k), columns (j): coefficient of z_j in (z b_i - b_i z)_k
    C = (T.transpose(1, 2, 0) - T.transpose(0, 2, 1)).reshape(-1, alg.n)
    _, S, Vh = np.linalg.svd(C.astype(np.result_type(C, np.float64)),
                             full_matrices=False)
    cut = S.max(initial=0.0) * max(C.shape) * np.finfo(np.float64).eps
    return Vh[int(np.count_nonzero(S > cut)):].conj()


def _float_split(alg: AssocAlgebra, Z, rng):
    """Float64 guesses for the primitive central idempotents, or None when
    the random central element does not separate the blocks."""
    k = len(Z)
    w = np.array([rng.uniform(-1.0, 1.0) for _ in range(k)]) @ Z
    # L_w[k, j] = sum_i w_i T[i, j, k]; M is L_w restricted to the center
    L = np.tensordot(w, alg.tensor, axes=(0, 0)).T
    M = Z.conj() @ L @ Z.T
    lam, V = np.linalg.eig(M)
    scale = max(1.0, float(np.max(np.abs(lam))))
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(k) * scale
    if gaps.min() <= _FLOAT_GAP * scale:
        return None
    # the unit is the sum of the idempotents: solve for the eigenvector scales
    try:
        c = np.linalg.solve(V, Z.conj()[:, 0])
    except np.linalg.LinAlgError:
        return None
    return [(V[:, b] * c[b]) @ Z for b in range(k)]


def _refine(alg: AssocAlgebra, guess, tol):
    """Newton's e <- 3e^2 - 2e^3 at the working precision from a float64
    guess; the idempotent with |e^2 - e| <= tol, or None.  Convergence is
    quadratic, so log2(mp.dps) steps reach tol from any float64 start."""
    e = [mp.mpc(complex(x)) for x in guess]
    for _ in range(mp.mp.dps.bit_length() + 1):
        sq = alg.mult(e, e)
        if max(abs(s - x) for s, x in zip(sq, e)) <= tol:
            return e
        cube = alg.mult(sq, e)
        e = [3 * s - 2 * c for s, c in zip(sq, cube)]
    return None


def _certified(alg: AssocAlgebra, idems, dim_z, tol) -> bool:
    """dim Z idempotents (e^2 = e is checked by _refine), each nonzero and
    central, that sum to the unit."""
    if len(idems) != dim_z or None in idems:
        return False
    if any(max(abs(x) for x in e) <= tol for e in idems):
        return False
    total = [sum(col) for col in zip(*idems)]
    if max(abs(t - (i == 0)) for i, t in enumerate(total)) > tol:
        return False
    return all(max(alg.commutator_residuals(e)) <= tol for e in idems)


def central_idempotents(alg: AssocAlgebra, seed=SPLIT_SEED) -> list:
    """Primitive central idempotents as coefficient vectors.

    Raises NumericalDegeneracyError when no random central element gives a
    certified split, which is also what happens when the input algebra is
    not semisimple.
    """
    Z = center_basis(alg)
    # refinement and certification tolerance, never looser than TOL
    tol = min(mp.mpf(TOL), working_tol())
    for attempt in range(_MAX_SPLIT_ATTEMPTS):
        guesses = _float_split(alg, Z, random.Random(seed + attempt))
        if guesses is None:
            continue
        idems = [_refine(alg, g, tol) for g in guesses]
        if _certified(alg, idems, len(Z), tol):
            return idems
    raise NumericalDegeneracyError(
        "failed to split the center after "
        f"{_MAX_SPLIT_ATTEMPTS} seeded attempts; the algebra is "
        "degenerate or not semisimple")


@dataclass(frozen=True)
class BlockProfile:
    """One matrix block of the Wedderburn decomposition."""
    idempotent: tuple
    block_dim: int
    m: int


def _profile_key(b: BlockProfile):
    coeffs = tuple(
        (round(float(mp.re(c)), 9) + 0.0, round(float(mp.im(c)), 9) + 0.0)
        for c in b.idempotent)
    return (b.m, coeffs)


def block_profiles(alg: AssocAlgebra, seed=SPLIT_SEED) -> list:
    """Sorted block profiles: each primitive central idempotent with the
    dimension of its ideal and the matrix size m."""
    out = []
    for e in central_idempotents(alg, seed=seed):
        bd = round_int(alg.trace_left_mult(e), "block dimension trace")
        m = int(round(bd ** 0.5))
        if m * m != bd:
            raise NotSemisimpleError(
                f"block dimension {bd} is not a perfect square")
        out.append(BlockProfile(idempotent=tuple(e), block_dim=bd, m=m))
    out.sort(key=_profile_key)
    return out


def character_table(alg: AssocAlgebra, blocks) -> tuple:
    """Irreducible character of every block at every basis element, as
    exact integer mantissas over one exponent: (re, im, exp) with
    m chi_b(z) = (re[b][z] + 1j * im[b][z]) * 2**exp.  Here
    chi_b(z) = (1/m) sum_i e_b[i] W[i, z], with the integer matrix
    W[i, z] = sum_k T[i, z, k] tr(L_k) = tr(L_{b_i b_z}), and the sums run
    over the mantissas of each idempotent, so they are exact."""
    W = np.einsum("izk,k->iz", alg.tensor, alg._trace_vec)
    cols = [[(int(i), int(W[i, z])) for i in np.nonzero(W[:, z])[0]]
            for z in range(alg.n)]
    rows = []
    for bp in blocks:
        re, im, exp = _mantissas(bp.idempotent)
        rows.append((exp, [sum(re[i] * w for i, w in col) for col in cols],
                     [sum(im[i] * w for i, w in col) for col in cols]))
    exp = min((e for e, _, _ in rows), default=0)
    return (tuple(tuple(x << (e - exp) for x in re) for e, re, _ in rows),
            tuple(tuple(x << (e - exp) for x in im) for e, _, im in rows),
            exp)


def character_values(table, blocks) -> tuple:
    """The characters of character_table as mpmath numbers:
    chi_b(z) = mpc(re 2**exp, im 2**exp) / m."""
    re, im, exp = table
    return tuple(
        tuple(mp.mpc(mp.mpf((r, exp)), mp.mpf((i, exp))) / bp.m
              for r, i in zip(rr, ii))
        for rr, ii, bp in zip(re, im, blocks))


def normalized_block_trace(alg: AssocAlgebra, block: BlockProfile, a):
    """Character of the block: (1/m) tr(L_{e a}) equals the irreducible
    trace of a in the m x m matrix factor."""
    ea = alg.mult(block.idempotent, a)
    return alg.trace_left_mult(ea) / block.m
