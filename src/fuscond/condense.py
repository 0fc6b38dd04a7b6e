"""Condensable algebras and the commutant (Schur-Weyl) verification.

A condensation bundle packages everything we can know about condensing an
algebra A inside an ambient braided category C as finite data: the ambient
labels with dims and twists (and S-matrix or fusion ring when available),
the multiplicity vector n_x = [x, A], the fusion ring of the module
category C_A, its dimensions, the induction matrix, and which simples of
C_A are local.

The central verification: the ideal cut out by the local vacuum idempotent
e1 decomposes into matrix blocks whose sizes are exactly the nonzero n_x,
the complement is the kernel of the action on A, and each block is
identified by its character against the ambient S-matrix row of x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import mul, truediv

import mpmath as mp
import numpy as np

from .cyclotomic import FP_DIM_TOL, TOL, as_mpc, pair_products
from .errors import (
    CapabilityError,
    NumericalDegeneracyError,
    SchemaError,
    TheoremViolationError,
    ValidationReport,
)
from .modular import (ModularData, dims as modular_dims,
                      validate as validate_modular)
from .ring import (BasedRing, DimVector, _bilinear, _dot, _summed, _sums,
                   basis_indices, check_basis, fp_dims, is_closed,
                   product_basis, validate)
from .mantissa import (U, aligned, band_limit, cmp_tol, commutators, floats,
                       mantissas, parts, quotient, rounded_on_grid, stack)
from .wedderburn import SPLIT_SEED, block_profiles, character_table

MATCH_ACCEPT = 1e-6
MATCH_REJECT = 1e-3


@dataclass(frozen=True, eq=False)
class Ambient:
    """What we know about the ambient category, at one of three levels:
    full modular data, fusion ring plus dims and twists, or a bare table of
    labels, dims and twists.  A modular ambient holds no fusion ring:
    nothing reads one, and modular.validate checks Verlinde integrality.

    A product ambient (from_product) keeps its two ring or table factors
    in factors and no flat ring; its labels, dual, dims and twists are the
    flat tuples of the product, index (a, b) at a * rank_b + b.  A flat
    ambient is its own one factor to rings, which reads both kinds alike."""
    labels: tuple
    dual: tuple
    dims: DimVector
    twists: tuple | None = None
    ring: BasedRing | None = None
    modular: ModularData | None = None
    factors: tuple | None = None

    def __post_init__(self):
        labels, dual = check_basis(self.labels, self.dual)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dual", dual)
        r = len(labels)
        d = self.dims
        if not isinstance(d, DimVector):
            d = DimVector(values=tuple(d))
        object.__setattr__(self, "dims", d)
        if len(d) != r:
            raise SchemaError(f"need {r} ambient dims, got {len(d)}")
        if self.twists is not None:
            tw = tuple(self.twists)
            object.__setattr__(self, "twists", tw)
            if len(tw) != r:
                raise SchemaError(f"need {r} ambient twists, got {len(tw)}")
        if self.ring is not None and (self.ring.labels != labels
                                      or self.ring.dual != dual):
            raise SchemaError("ambient ring labels/dual disagree with the table")

    @classmethod
    def from_modular(cls, md: ModularData) -> "Ambient":
        return cls(labels=md.labels, dual=md.dual, dims=modular_dims(md),
                   twists=md.twists, modular=md)

    @classmethod
    def from_ring(cls, ring: BasedRing, dims, twists=None) -> "Ambient":
        return cls(labels=ring.labels, dual=ring.dual, dims=dims,
                   twists=twists, ring=ring)

    @classmethod
    def from_table(cls, labels, dual, dims, twists) -> "Ambient":
        return cls(labels=tuple(labels), dual=tuple(dual), dims=dims,
                   twists=tuple(twists))

    @classmethod
    def from_product(cls, a: "Ambient", b: "Ambient") -> "Ambient":
        """The product of two ring or table ambients: labels la.lb, duals
        and values paired, each distinct pair of factor values multiplied
        once.  Twists only when both factors have them."""
        for i, f in enumerate((a, b)):
            if f.modular is not None or f.factors is not None:
                raise SchemaError(f"ambient factor {i} must be a ring or "
                                  "a table")
        labels, dual = product_basis(a, b)
        twists = None
        if a.twists is not None and b.twists is not None:
            twists = chain.from_iterable(pair_products(a.twists, b.twists))
        dims = chain.from_iterable(pair_products(a.dims.values, b.dims.values))
        return cls(labels=labels, dual=dual, dims=DimVector(values=tuple(dims)),
                   twists=twists, factors=(a, b))

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if label not in self.labels:
            raise SchemaError(f"no ambient label {label!r}")
        return self.labels.index(label)

    def global_dim(self):
        """dim(C) = sum_x d_x^2.  Exact dims are summed once per ambient;
        numeric ones at each call, at the working precision."""
        if self.dims.exact is None:
            return self.dims.total()
        return self._exact_global_dim

    @cached_property
    def _exact_global_dim(self):
        return self.dims.total()

    @property
    def rings(self) -> tuple:
        """The ring of each factor, None for a table factor: (ring,) for a
        flat ambient, () with modular data."""
        return () if self.modular is not None else tuple(
            f.ring for f in self.factors or (self,))

    @property
    def has_characters(self) -> bool:
        """Twists, and no table factor in rings: character_row's inputs."""
        return self.twists is not None and None not in self.rings

    def character_row(self, xs):
        """The patterns y -> S(x*, y)/d(x) of the ambient indices xs as
        mantissas (re, im, exp): object arrays, one row per x, each row on
        its own grid as mantissas puts it, then aligned.

        With full modular data this is an S-matrix row.  With only a fusion
        ring, dims and twists it is recovered through the balancing
        identity S(a,b) = (1/(theta_a theta_b)) sum_c N[a,b,c] theta_c d_c,
        which is what the ribbon structure forces, summed exactly and each
        entry rounded once.  Returns None without character rows.  Each
        slice N[x*] is formed on its own, the Kronecker product of its
        factors' slices in the order of rings, and the nonzeros of all
        slices are summed in one pass: no (rows, rank, rank) array.
        """
        if not self.has_characters:
            return None
        duals = np.array([self.dual[x] for x in xs], dtype=np.int64)
        if self.modular is not None:
            s = self.modular.s
            re, im, exps = stack([mantissas([as_mpc(v) / as_mpc(s[0][x])
                                             for v in s[x]]) for x in duals])
            # shaped (0, rank) also without rows, as the other paths are
            rows = re.reshape(-1, self.rank), im.reshape(-1, self.rank), exps
        else:
            # each distinct value object converted, multiplied and
            # inverted once; a product ambient shares equal values
            memo = {}

            def once(f, *values):
                key = (f, *map(id, values))
                if key not in memo:
                    memo[key] = f(*map(as_mpc, values))
                return memo[key]

            td = [once(mul, t, d) for t, d in zip(self.twists, self.dims)]
            tre, tim, texp = mantissas(td)
            ire, iim, iexp = mantissas([once(truediv, 1, t)
                                        for t in self.twists])
            ire, iim = np.array(ire, dtype=object), np.array(iim, dtype=object)
            sre, sim, sexp = stack([mantissas([once(truediv, 1, td[x])])
                                    for x in duals])
            # one column, also without rows
            sre, sim = sre.reshape(-1, 1), sim.reshape(-1, 1)
            # sum_z N[x*, y, z] theta_z d_z slice by slice, then times
            # 1/theta_y and 1/(theta_x* d_x*), one rounding per part
            r, rings = self.rank, self.rings
            terms = [np.zeros((3, 0), dtype=np.int64)]
            for k, ix in enumerate(zip(*np.unravel_index(
                    duals, [g.rank for g in rings]))):
                N = reduce(np.kron, [g.fusion[i] for g, i in zip(rings, ix)])
                y, z = np.nonzero(N)
                terms.append((k * r + y, z, N[y, z]))
            t, z, c = np.hstack(terms)
            sums = _sums(z, c, t, r)
            n = np.zeros((2, len(duals) * r), dtype=object)
            n[:, sums.targets] = _summed(sums, np.array([tre, tim],
                                                        dtype=object))
            nre, nim = n.reshape(2, -1, r)
            are, aim = nre * ire - nim * iim, nre * iim + nim * ire
            rows = rounded_on_grid(are * sre - aim * sim, are * sim + aim * sre,
                                   [texp + iexp + e for e in sexp])
        return aligned(rows)

    def __repr__(self):
        kind = ("modular" if self.modular is not None
                else "product" if self.factors is not None
                else "ring" if self.ring is not None else "table")
        return f"Ambient(rank={self.rank}, kind={kind})"


@dataclass(frozen=True, eq=False)
class CondensableAlgebra:
    ambient: Ambient
    mult: tuple

    def __post_init__(self):
        mult = tuple(int(n) for n in self.mult)
        object.__setattr__(self, "mult", mult)
        if len(mult) != self.ambient.rank:
            raise SchemaError(
                f"mult vector has length {len(mult)}, ambient rank is "
                f"{self.ambient.rank}")

    def dim(self):
        """d(A) = sum_x n_x d_x.  Exact dims are summed once per algebra;
        numeric ones at each call, at the working precision."""
        if self.ambient.dims.exact is None:
            return self.ambient.dims.dot(self.mult)
        return self._exact_dim

    @cached_property
    def _exact_dim(self):
        return self.ambient.dims.dot(self.mult)


@dataclass(frozen=True, eq=False)
class CondensationBundle:
    algebra: CondensableAlgebra
    module_ring: BasedRing
    dA: DimVector
    induction: np.ndarray | None
    local: tuple

    def __post_init__(self):
        d = self.dA
        if not isinstance(d, DimVector):
            d = DimVector(values=tuple(d))
        object.__setattr__(self, "dA", d)
        s = self.module_ring.rank
        if len(d) != s:
            raise SchemaError(f"need {s} module dims, got {len(d)}")
        if self.induction is not None:
            M = np.asarray(self.induction)
            if M.shape != (self.ambient.rank, s):
                raise SchemaError(
                    f"induction matrix must be {self.ambient.rank} x {s}, "
                    f"got {M.shape}")
            if not np.issubdtype(M.dtype, np.integer) or (M < 0).any():
                raise SchemaError("induction multiplicities must be nonnegative integers")
            M = M.astype(np.int64)
            M.setflags(write=False)
            object.__setattr__(self, "induction", M)
        loc = tuple(sorted(int(i) for i in self.local))
        object.__setattr__(self, "local", loc)
        if len(set(loc)) != len(loc) or any(i < 0 or i >= s for i in loc):
            raise SchemaError("local must be a set of module-ring indices")

    @property
    def ambient(self) -> Ambient:
        return self.algebra.ambient

    @property
    def mult(self) -> tuple:
        return self.algebra.mult


def check_bundle(b: CondensationBundle, tol=TOL) -> ValidationReport:
    """Every necessary condition that finite data can see, as a report.

    The based-ring axioms are checked on the module ring, on a flat
    ambient ring and on each ring factor of a product ambient.  The
    Perron-Frobenius comparison needs a module ring that satisfies the
    axioms, and is skipped when it does not.  Each tolerance decision is
    (X - Y)^2 <= (tol S)^2 over exact mantissas (cmp_tol); a failing check
    prints its numbers from mpmath."""
    rep = ValidationReport()
    amb = b.ambient
    ring = b.module_ring
    ring_rep = validate(ring)
    rep.extend(ring_rep, prefix="module ring: ")
    if amb.modular is not None:
        rep.extend(validate_modular(amb.modular, tol), prefix="ambient: ")
    for i, g in enumerate(amb.rings):
        if g is not None:
            rep.extend(validate(g), prefix="ambient: " if amb.factors is None
                       else f"ambient factor {i}: ")

    mult = b.mult
    if any(n < 0 for n in mult):
        rep.add("algebra multiplicities must be nonnegative")
    if mult[0] != 1:
        rep.add(f"algebra is not connected: n_unit = {mult[0]}, need 1")
    for x, n in enumerate(mult):
        if n and mult[amb.dual[x]] != n:
            rep.add(f"algebra is not self-dual at {amb.labels[x]}: "
                    f"n = {n} but n_dual = {mult[amb.dual[x]]}")
    # d(A), dim(C), dim(C_A), dim(local) (real parts), the module unit and
    # the twists of A over 2**f; |v - 1| <= tol for the unit and the twists
    xs = [x for x, n in enumerate(mult) if n and amb.twists is not None]
    vals = [b.algebra.dim(), amb.global_dim(), b.dA.total(),
            b.dA.total(b.local), b.dA[0]] + [amb.twists[x] for x in xs]
    re, im, f = aligned(stack([mantissas([v]) for v in vals]))
    (a, c, ca, loc), one = re[:4, 0], 1 << -f
    off = cmp_tol((re[4:, 0] - one) ** 2 + im[4:, 0] ** 2, 0, tol, one) > 0
    for x, o in zip(xs, off[1:]):
        if o:
            rep.add(f"twist of {amb.labels[x]} is not 1 but "
                    f"n_x = {mult[x]} > 0")

    def real(i):
        return as_mpc(vals[i]).real
    if a <= 0 or cmp_tol(a * a, 0, tol, one) <= 0:
        rep.add(f"algebra dimension {float(real(0))} is not positive")
        return rep
    # dim(C_A) d(A) = dim(C) over 2**(2f), dim(local) d(A)^2 = dim(C) over
    # 2**(3f)
    if cmp_tol((ca * a - c * one) ** 2, 0, tol, max(a, abs(c)) * one) > 0:
        rep.add(f"dim(C_A) = {float(real(2))} but dim(C)/d(A) = "
                f"{float(real(1) / real(0))}")
    if cmp_tol((loc * a * a - c * one * one) ** 2, 0, tol,
               max(a * a, abs(c) * one) * one) > 0:
        rep.add(f"dim(local) = {float(real(3))} but dim(C)/d(A)^2 = "
                f"{float(real(1) / real(0) ** 2)}")
    if off[0]:
        rep.add(f"module unit must have dimension 1, got {b.dA[0]}")
    if ring_rep.ok and np.max(np.abs(b.dA.as_floats()
                                    - fp_dims(ring).as_floats())) > FP_DIM_TOL:
        rep.add("module dims deviate from the Perron-Frobenius dimensions")

    if 0 not in b.local:
        rep.add("local part must contain the unit")
    if not is_closed(ring, b.local):
        rep.add("local part is not closed under fusion and duals")

    if b.induction is not None:
        M = b.induction
        if not np.array_equal(M[:, 0], np.asarray(mult)):
            rep.add("unit column of the induction matrix must equal the "
                    "algebra multiplicities")
        # L = M d_A against R = d(x), real parts over 2**f:
        # |L - R| <= tol max(1, |R|)
        w, _, we = mantissas(b.dA.values)
        d, _, de = mantissas(amb.dims.values)
        f = min(we, de, 0)
        L = _dot(np.array([w], dtype=object) << (we - f), M.T)[0]
        R = np.array(d, dtype=object) << (de - f)
        failing = np.flatnonzero(cmp_tol((L - R) ** 2, 0, tol,
                                         np.maximum(1 << -f, abs(R))) > 0)
        da = [as_mpc(v).real for v in b.dA.values] if len(failing) else None
        for x in failing.tolist():
            lhs = sum(int(M[x, y]) * da[y] for y in np.nonzero(M[x])[0])
            rhs = as_mpc(amb.dims[x]).real
            rep.add(f"induction adjunction fails at {amb.labels[x]}: "
                    f"sum M d_A = {float(lhs)}, d(x) = {float(rhs)}")
    return rep


# weights x_y outside [2**-100, 2**100] could take a float64 step below
# float64's normal range; their rows go to the exact test
_SCALE = 2.0 ** 100


def _averaging(ring: BasedRing, subs, dims) -> tuple:
    """Check that each sub in subs is a subring whose averaging idempotent
    e_B = sum_{y in B} d_y y / sum_{y in B} d_y^2 satisfies e_B^2 = e_B
    within TOL, given the mantissas dims = mantissas(d) = (w, _, f) of
    the real d.  Returns the weight rows W, an object array with row
    w_B (w on sub, 0 elsewhere) for each sub, the list of
    D = sum_{y in B} w_y^2, the float64 rows e of e_B, and whether each
    row is tame (below).

    The exact test: with P = w_B * w_B, exactly, (e_B^2 - e_B)_k D^2 =
    P_k 2**(-2f) - w_k D 2**(-f), and max_k of its square is compared with
    (TOL D^2)^2 by cmp_tol.  The weight rows are squared in one pass over
    ring._plan.square.

    The float64 filter in front of it reads the same values.  Each weight
    x_y = w_y 2**f is rounded once from its mantissa, so the truncation of
    d at mp.prec is part of the value the exact test reads, not an error;
    x_y is off by at most u = 2**-53 relative.  A row is tame when its x_y
    lie in [2**-100, 2**100]: then no step below leaves float64's normal
    range.  With r the rank and g_n = n u / (1 - n u), S = sum x_y^2 (r
    terms) is off by g_{r+2} relative, each e_y = x_y / S by g_{r+4}, and
    (e_B^2)_k = sum_j e_j (sum_i e_i N[i, j, k]), two dot products of
    length r over nonnegative terms, by g_{4r+8}.  So the float64 entry
    res_k = (e_B^2)_k - e_k is within g_{4r+8} (e_B^2)_k + g_{r+4} e_k + u
    |res_k|, at most (5r + 10) u ((e_B^2)_k + e_k) in the computed values,
    of the exact one.  The filter takes E_k = (8r + 16) u ((e_B^2)_k + e_k),
    whose excess covers the roundings of forming it, and passes a tame row
    when every |res_k| + E_k is at most band_limit(TOL).  On a tame row
    (e_B^2)_k > 0 exactly where P_k != 0, which decides its closure
    support.  Every other row goes through the exact test unchanged, so
    each verdict and each error text is the exact test's."""
    w, _, f = dims
    r = ring.rank
    inside = np.zeros((len(subs), r), dtype=bool)
    for i, sub in enumerate(subs):
        inside[i, basis_indices(ring, sub)] = True
        if np.count_nonzero(inside[i]) != len(sub):
            raise SchemaError(f"{sub} repeats a basis index")
    W = np.where(inside, np.array(w, dtype=object), 0)
    D = (W * W).sum(axis=1)
    x = np.where(inside, floats(w, f), 0.0)
    tame = (~inside | ((x >= 1 / _SCALE) & (x <= _SCALE))).all(axis=1)
    with np.errstate(all="ignore"):
        e = x / (x * x).sum(axis=1)[:, None]
        sq = np.einsum("sj,sjk->sk", e,
                       (e @ ring.fusion.reshape(r, r * r)).reshape(-1, r, r))
        bound = np.abs(sq - e) + (8 * r + 16) * U * (sq + e)
    exact = np.flatnonzero(~(tame & (bound <= band_limit(TOL)).all(axis=1)))
    support = sq > 0
    if len(exact):
        P = _bilinear(ring._plan.square, W[exact], W[exact])
        support[exact] = P != 0
    # with every weight of sub positive and F >= 0, P_k != 0 exactly when
    # k is in the support of a product of two members
    positive = ~(inside & (x <= 0)).any(axis=1)
    closed = (inside[:, 0] & (inside == inside[:, list(ring.dual)]).all(axis=1)
              & ~(support & ~inside).any(axis=1))
    for sub, pos, c in zip(subs, positive, closed):
        if not (c if pos else is_closed(ring, sub)):
            raise SchemaError(f"{sub} is not a subring of the module ring")
    if len(exact):
        # max_k of the square of that difference, exactly over the
        # exponent ex
        We, De = W[exact], D[exact]
        ex = min(-2 * f, -f)
        R = (P << (-2 * f - ex)) - De[:, None] * (We << (-f - ex))
        resid = (R * R).max(axis=1)
        bad = np.flatnonzero(cmp_tol(resid, 2 * ex, TOL, De * De) > 0)
        if len(bad):
            value = mp.sqrt(quotient(resid[bad[0]], 2 * ex, De[bad[0]] ** 4))
            raise NumericalDegeneracyError(
                f"e_B for {subs[exact[bad[0]]]} failed the idempotent "
                f"check, residual {float(value)}")
    return W, D.tolist(), e, tame


@dataclass(frozen=True, eq=False)
class SchurWeylReport:
    bundle: CondensationBundle
    blocks: tuple
    in_ideal: tuple
    character_mantissas: tuple
    matched: tuple
    kernel_dim: int
    matching_skipped: bool
    notes: tuple

    def ideal_blocks(self):
        return [bp for bp, f in zip(self.blocks, self.in_ideal) if f]

    def matched_pairs(self):
        return [(i, x) for i, x in enumerate(self.matched) if x is not None]

    @cached_property
    def characters(self) -> np.ndarray:
        """The character table as a read-only complex128 array, blocks by
        rank: chi_b(z) = (re + 1j im)[b, z] 2**exp / m_b, each part one
        correctly rounded integer division (mantissa.floats)."""
        re, im, exp = self.character_mantissas
        m = np.array([[bp.m] for bp in self.blocks], dtype=object)
        chi = floats(re, exp, m) + 1j * floats(im, exp, m)
        chi.flags.writeable = False
        return chi

    def block_value(self, bi: int, a) -> complex:
        """Irreducible character of block bi at the element a, computed
        from the per-basis character table by linearity in float64."""
        rank = self.bundle.module_ring.rank
        if len(a) != rank:
            raise SchemaError(f"the element has {len(a)} coefficients, but "
                              f"the module ring has rank {rank}")
        return complex(self.characters[bi] @ [complex(c) for c in a])


def schur_weyl(b: CondensationBundle, tol=TOL, seed=SPLIT_SEED) -> SchurWeylReport:
    """Decompose K(C_A), cut out the ideal of the local vacuum idempotent,
    and verify the commutant picture: ideal dimension sum n_x^2, block size
    multiset {n_x}, and (with enough ambient data) the block-to-x matching.

    The local vacuum idempotent e1 is the averaging idempotent of the local
    part, checked central; then e_b e1 is e_b or 0 for each block, and the
    character table tells which: chi_b(e1) is m or 0, else the block is a
    numerical degeneracy."""
    ring = b.module_ring
    amb = b.ambient
    notes = []

    # e1 = w 2**-f / D from the averaging check's weight row w, so
    # [e1, b_i] = [w, b_i] 2**-f / D
    dims = mantissas(b.dA.values)
    W, (D,) = _averaging(ring, [b.local], dims)[:2]
    f = dims[2]
    bad = np.flatnonzero(cmp_tol(commutators(ring, (W, 0 * W, [f]))[0],
                                 -2 * f, tol, D) > 0)
    if len(bad):
        raise TheoremViolationError(
            f"local vacuum idempotent does not commute with basis element "
            f"{ring.labels[bad[0]]}")

    blocks = block_profiles(ring, seed=seed)
    # irreducible character of every block at every basis element, as exact
    # mantissas; all later trace computations are linear combinations of
    # these
    table = character_table(ring, blocks)
    re, im, exp = table
    # m chi_b(e1) = sum_y w_y (re + 1j im)[b, y] 2**g / D with g = exp - f,
    # compared with m^2 D and with 0 exactly over the exponent s = min(g, 0)
    loc = list(b.local)
    g = exp - f
    s = min(g, 0)
    sr, si = ((x[:, loc] * W[0, loc]).sum(axis=1) << (g - s) for x in (re, im))
    m = np.array([bp.m for bp in blocks], dtype=object)
    den = D * m
    in_ideal = cmp_tol((sr - (m * m * D << -s)) ** 2 + si * si, 2 * s, tol,
                       den) <= 0
    bad = np.flatnonzero(~in_ideal & (cmp_tol(sr * sr + si * si, 2 * s, tol,
                                              den) > 0))
    if len(bad):
        i = bad[0]
        chi = mp.mpc(quotient(sr[i], s, den[i]), quotient(si[i], s, den[i]))
        raise NumericalDegeneracyError(
            "a block idempotent is neither inside nor orthogonal to the "
            f"local ideal (chi(e1) = {complex(chi)}, m = {m[i]})")
    in_ideal = in_ideal.tolist()

    ideal_dim = sum(bp.block_dim for bp, f in zip(blocks, in_ideal) if f)
    kernel_dim = ring.rank - ideal_dim
    n_sq = sum(n * n for n in b.mult)
    if ideal_dim != n_sq:
        raise TheoremViolationError(
            f"ideal dimension {ideal_dim} != sum of n_x^2 = {n_sq}; "
            "the bundle is not a commutant decomposition")
    got = sorted(bp.m for bp, f in zip(blocks, in_ideal) if f)
    want = sorted(n for n in b.mult if n > 0)
    if got != want:
        raise TheoremViolationError(
            f"block size multiset {got} != algebra multiplicity multiset {want}")
    notes.append(f"kernel_dim = {kernel_dim} = rank - sum n_x^2")
    notes.append(f"block sizes {got} match multiplicities")

    matched = [None] * len(blocks)
    matching_skipped = b.induction is None or not amb.has_characters
    if matching_skipped:
        notes.append("matching skipped: needs induction plus ambient "
                     "S-matrix or fusion ring with twists")
    else:
        xs = [x for x, n in enumerate(b.mult) if n > 0]
        pre, pim, pexp = amb.character_row(xs)
        # the patterns and m M chi of every ideal block, whose entry y is
        # sum_z M[y, z] (re + 1j im)[z] 2**exp, over one exponent f; the
        # fit of x is sqrt(sum_y |(M chi)_y / m - row_y|^2 / rank), whose
        # terms are exact integers times 2**(2f) / m**4
        f = min(exp, pexp)
        pre, pim = pre << (pexp - f), pim << (pexp - f)
        ideal = [bi for bi, flag in enumerate(in_ideal) if flag]
        mchi = _dot(np.vstack(parts(re[ideal], im[ideal])),
                    b.induction.T) << (exp - f)
        mims = (mchi[len(ideal):] if len(mchi) > len(ideal)
                else np.zeros_like(mchi))
        for bi, mre, mim in zip(ideal, mchi, mims):
            bp = blocks[bi]
            m2 = bp.m * bp.m
            cand = [i for i, x in enumerate(xs) if b.mult[x] == bp.m]
            d2 = (((mre - m2 * pre[cand]) ** 2).sum(axis=1)
                  + ((mim - m2 * pim[cand]) ** 2).sum(axis=1))
            scored = sorted(
                (float(mp.sqrt(quotient(d, 2 * f, m2 * m2 * amb.rank))),
                 xs[i]) for d, i in zip(d2.tolist(), cand))
            # the multiset check above leaves every block a candidate
            best, x_best = scored[0]
            second = scored[1][0] if len(scored) > 1 else None
            if best > MATCH_REJECT:
                raise TheoremViolationError(
                    f"block m={bp.m} matches no ambient simple with n_x = "
                    f"{bp.m} (best fit {best:.2e} at "
                    f"{amb.labels[x_best]})")
            if best >= MATCH_ACCEPT or (second is not None
                                        and second <= MATCH_REJECT):
                runner = "" if second is None else f", runner-up {second:.2e}"
                raise NumericalDegeneracyError(
                    f"block m={bp.m} is matched ambiguously: best fit "
                    f"{best:.2e} at {amb.labels[x_best]}{runner}")
            matched[bi] = x_best
            notes.append(
                f"block m={bp.m} matched {amb.labels[x_best]} "
                f"(fit {best:.2e})")
        taken = [x for x in matched if x is not None]
        if len(set(taken)) != len(taken):
            raise TheoremViolationError(
                "two blocks matched the same ambient simple; "
                "Theorem blocks must be distinct")

    return SchurWeylReport(
        bundle=b, blocks=tuple(blocks),
        in_ideal=tuple(in_ideal), character_mantissas=table,
        matched=tuple(matched), kernel_dim=kernel_dim,
        matching_skipped=matching_skipped, notes=tuple(notes))


def indicator_refusal(b: CondensationBundle, xi: int):
    """The error indicator raises for the ambient index xi whatever the
    split, or None: xi does not occur in the algebra, or the bundle cannot
    match any block."""
    if b.mult[xi] == 0:
        return SchemaError(f"{b.ambient.labels[xi]} does not occur in the "
                           "algebra")
    if b.induction is None or not b.ambient.has_characters:
        return CapabilityError(
            f"no block is matched to {b.ambient.labels[xi]}; matching needs "
            "ambient S-matrix (or ring with twists) plus the induction matrix")
    return None


def indicator(swr: SchurWeylReport, x, a) -> complex:
    """Character of the multiplicity space W_x at the element a of K(C_A):
    the normalized trace of a in the block matched to x, as a complex
    (block_value).  At the unit this is n_x; on local elements it is
    n_x d_A; on an induction column alpha(y) it reproduces
    n_x S(x*, y)/d(x).  x is an ambient label or an index in [0, rank)."""
    amb = swr.bundle.ambient
    xi = amb.index(x) if isinstance(x, str) else int(x)
    if not 0 <= xi < amb.rank:
        raise SchemaError(f"no ambient index {xi}; the ambient has rank "
                          f"{amb.rank}")
    refusal = indicator_refusal(swr.bundle, xi)
    if refusal is not None:
        raise refusal
    return swr.block_value(swr.matched.index(xi), a)


def block_dims(swr: SchurWeylReport, tol: float) -> dict:
    """Ambient dimension of each ideal block, as an mpmath real at the
    working precision: the matched simple's dimension, or the common
    dimension of every x with n_x equal to the block size.  None marks a
    block whose candidates differ by more than tol relative to the
    largest.  The candidates are read once per matched simple or block
    size."""
    b = swr.bundle
    memo, out = {}, {}
    for bi, bp in enumerate(swr.blocks):
        if not swr.in_ideal[bi]:
            continue
        key = (swr.matched[bi], bp.m)
        if key not in memo:
            xs = ([swr.matched[bi]] if swr.matched[bi] is not None
                  else [x for x, n in enumerate(b.mult) if n == bp.m])
            re, _, f = mantissas([b.ambient.dims[x] for x in xs])
            d2 = (max(re) - min(re)) ** 2
            agree = (cmp_tol(d2, 2 * f, tol) <= 0
                     or cmp_tol(d2, 0, tol, max(re)) <= 0)
            memo[key] = as_mpc(b.ambient.dims[xs[0]]).real if agree else None
        out[bi] = memo[key]
    return out


@dataclass(frozen=True)
class CodegreeReport:
    entries: tuple
    residual: float
    report: ValidationReport

    @property
    def ok(self) -> bool:
        return self.report.ok


def _codegree_sums(swr: SchurWeylReport, rows) -> tuple:
    """The exact integers s = sum_z num_bi(z*) num_bj(z) of the blocks
    bi = rows[r] on every block bj, as the real and imaginary object
    arrays of shape (len(rows), blocks): one product of the table's rows
    at the duals with the table."""
    re, im, _ = swr.character_mantissas
    dual = list(swr.bundle.module_ring.dual)
    ar = re[rows][:, dual]
    if not im.any():
        sre = ar @ re.T
        return sre, np.zeros_like(sre)
    ai = im[rows][:, dual]
    return ar @ re.T - ai @ im.T, ar @ im.T + ai @ re.T


def _codegree_value(sre: int, sim: int, exp: int, den: int) -> mp.mpc:
    """(sre + 1j sim) 2**(2 exp) / den, each part rounded once."""
    return mp.mpc(quotient(sre, 2 * exp, den), quotient(sim, 2 * exp, den))


def codegree_check(swr: SchurWeylReport, tol=TOL) -> CodegreeReport:
    """Formal codegree identity: phi_x = sum_Y chi_x(Y) Y*, built from the
    trace chi_x on the simple block module W_x, acts on W_x as the scalar
    dim(C)/(d(x) d(A)) and as zero on every other block, including the
    kernel.

    Without a block matching the expected scalar still makes sense whenever
    all candidate x with n_x = m share one dimension; that covers every
    bundled family.

    The codegree element phi = sum_Y chi_bi(Y) Y* of block bi acts on
    block bj as sum_z chi_bi(z*) chi_bj(z) / m_bj.  Over the character
    mantissas each value v is exact as s 2**(2 exp) / den, with the integer
    s of _codegree_sums and den = m_bi m_bj^2, and only the entries that
    can show are rounded in mpmath: the diagonal, whose residual cancels,
    and each nonzero off-diagonal entry whose exact |v|^2 is within
    2**(8 - mp.prec) relative of the largest of its row or at least
    tol^2 / 2.  The two quotients, the modulus and float are monotone and
    each off by at most 2**(1 - mp.prec) relative, so no other entry can
    hold the largest residual or exceed tol; an exact zero has residual
    0.0.
    """
    b = swr.bundle
    rep = ValidationReport()
    dim_c = as_mpc(b.ambient.global_dim()).real
    d_alg = as_mpc(b.algebra.dim()).real
    dims = block_dims(swr, tol)
    rows = [bi for bi, dx in dims.items() if dx is not None]
    sre, sim = _codegree_sums(swr, rows)
    exp = swr.character_mantissas[2]
    m = np.array([bp.m for bp in swr.blocks], dtype=object)
    den = m[rows][:, None] * (m * m)
    # P 2**(4 exp) / den^2 = |v|^2, and V orders the entries of a row
    # exactly over its common denominator m_bi lcm(m_bj^2)
    P = sre * sre + sim * sim
    V = P * (math.lcm(*(m * m).tolist()) // (m * m)) ** 2
    off = ~np.eye(len(m), dtype=bool)[rows]
    top = np.where(off, V, 0).max(axis=1, initial=0)[:, None]
    k = mp.mp.prec - 8
    near = (top - V) << max(k, 0) <= top << max(-k, 0)
    # 2 P 2**(4 exp) >= (tol den)^2
    big = cmp_tol(2 * P, 4 * exp, tol, den) >= 0
    shown = ~off | ((P != 0) & (near | big))
    entries = []
    worst = 0.0
    for bi, dx in dims.items():
        if dx is None:
            rep.add(f"block {bi} (m={swr.blocks[bi].m}): candidate dimensions "
                    "differ, cannot fix the expected codegree scalar")
            continue
        r = rows.index(bi)
        xi = swr.matched[bi]
        name = b.ambient.labels[xi] if xi is not None else f"block[{bi}]"
        scalar = dim_c / (dx * d_alg)
        for bj in np.flatnonzero(shown[r]).tolist():
            val = _codegree_value(sre[r, bj], sim[r, bj], exp, den[r, bj])
            want = scalar if bj == bi else 0
            resid = float(abs(val - want))
            worst = max(worst, resid)
            if resid > tol:
                rep.add(
                    f"codegree of {name} acts on block {bj} as {complex(val)}, "
                    f"expected {complex(want)}")
        entries.append((name, float(scalar)))
    return CodegreeReport(entries=tuple(entries), residual=worst, report=rep)
