"""Fusion rings as integer structure tensors.

A based ring here is a free Z-module with a distinguished basis, the unit at
index 0, structure constants N[i, j, k] >= 0 giving the coefficient of basis
element k in the product i * j, and an involution ``dual`` on the basis.
Everything downstream (module categories, character theory, the invariant
lattice) consumes this shape.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cyclotomic import as_float, as_mpc, distinct, exact_vector
from .errors import CapabilityError, NumericalDegeneracyError, SchemaError, ValidationReport

SUBRING_BUDGET = 1000  # subrings enumerate_subrings finds before refusing
PRODUCT_SEP = "."  # joins the factor labels of a product basis
FP_TOL, FP_MAX_ITER = 1e-12, 10000  # fp_dims power iteration
_MAX_REPORTED = 5


def check_basis(labels, dual) -> tuple:
    """Labels as distinct nonempty strings and dual as an involutive
    permutation that fixes the unit at index 0, both returned as tuples."""
    labels = tuple(str(x) for x in labels)
    r = len(labels)
    if len(set(labels)) != r or any(not s for s in labels):
        raise SchemaError("labels must be distinct nonempty strings")
    dual = tuple(int(i) for i in dual)
    if sorted(dual) != list(range(r)) or any(dual[dual[i]] != i for i in range(r)):
        raise SchemaError("dual map must be an involutive permutation")
    if not dual or dual[0] != 0:
        raise SchemaError("the unit at index 0 must be self-dual")
    return labels, dual


@dataclass(frozen=True, eq=False)
class BasedRing:
    labels: tuple[str, ...]
    fusion: np.ndarray
    dual: tuple[int, ...]

    def __post_init__(self):
        labels, dual = check_basis(self.labels, self.dual)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dual", dual)
        fusion = np.asarray(self.fusion)
        r = len(labels)
        if fusion.ndim != 3 or fusion.shape != (r, r, r):
            raise SchemaError(
                f"fusion tensor must have shape ({r}, {r}, {r}), got {fusion.shape}")
        if not np.issubdtype(fusion.dtype, np.integer):
            if not np.all(fusion == np.round(fusion)):
                raise SchemaError("fusion multiplicities must be integers")
        fusion = fusion.astype(np.int64)
        if (fusion < 0).any():
            raise SchemaError("fusion multiplicities must be nonnegative")
        fusion.setflags(write=False)
        object.__setattr__(self, "fusion", fusion)

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def _plan(self) -> _Plan:
        return _term_plan(self.fusion)

    @cached_property
    def _closure_pairs(self) -> tuple:
        """(i, j, ks) for each unordered basis pair i <= j, with ks the union
        of the supports of i*j and j*i, read off the nonzero N[i, j, k] of
        the fusion tensor.  A pair whose ks lies inside {i, j} adds nothing
        to a closure and is left out."""
        S = self.fusion > 0
        S |= S.transpose(1, 0, 2)
        S &= np.triu(np.ones((self.rank,) * 2, dtype=bool))[:, :, None]
        pairs = {}
        for i, j, k in zip(*(a.tolist() for a in np.nonzero(S))):
            pairs.setdefault((i, j), []).append(k)
        return tuple((i, j, tuple(ks)) for (i, j), ks in pairs.items()
                     if not set(ks) <= {i, j})

    def __repr__(self):
        return f"BasedRing(rank={self.rank}, labels={list(self.labels)})"


@dataclass(frozen=True)
class DimVector:
    """Basis dimensions, as floats or exact scalars.

    total() and dot() are the dimension sums of the package.  Both follow
    one scalar policy: exact Cyc arithmetic when every value is exact, else
    mpmath reals at the working precision.
    """
    values: tuple

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    @cached_property
    def exact(self):
        """The values as Cyc, or None unless every value is exact."""
        return exact_vector(self.values)

    def scalars(self):
        """The values in the arithmetic of the sums: exact Cyc, or mpmath
        reals at the working precision."""
        if self.exact is not None:
            return self.exact
        return [as_mpc(v).real for v in self.values]

    @cached_property
    def _exact_squares(self) -> tuple:
        """The square of each distinct exact value, and for each index the
        position of its value's square."""
        firsts, index = distinct(self.exact)
        return [d * d for d in firsts], index

    def total(self, subset=None):
        """Sum of d_i^2 over the indices in subset (default: all).  Exact
        squares are formed once per distinct value, and each exact sum adds
        each distinct square once, times its count."""
        idx = range(len(self.values)) if subset is None else subset
        if self.exact is not None:
            squares, _ = self._exact_squares
            return sum(squares[k] if c == 1 else c * squares[k]
                       for k, c in self.total_key(idx))
        d = self.scalars()
        return sum(d[i] * d[i] for i in idx)

    def total_key(self, subset) -> tuple:
        """A key that fixes total(subset): with exact values, each distinct
        square's position and count, in the order total() adds them; else
        the subset itself.  Equal keys give the same sum."""
        if self.exact is None:
            return tuple(subset)
        _, which = self._exact_squares
        return tuple(Counter(which[i] for i in subset).items())

    def dot(self, weights):
        """Sum of w_i d_i over the nonzero weights."""
        return sum(w * d for w, d in zip(weights, self.scalars()) if w)

    @cached_property
    def _floats(self) -> np.ndarray:
        out = np.array([as_float(v) for v in self.values], dtype=np.float64)
        out.setflags(write=False)
        return out

    def as_floats(self) -> np.ndarray:
        """The values read by as_float, as a read-only float64 array."""
        return self._floats


def _listed(shown, count: int) -> str:
    """The offender positions shown, of count in all, as text."""
    out = ", ".join(str(tuple(int(x) for x in row))
                    for row in shown[:_MAX_REPORTED])
    if count > _MAX_REPORTED:
        out += f", and {count - _MAX_REPORTED} more"
    return out


def _offenders(mask) -> str:
    return _listed(np.argwhere(mask), np.count_nonzero(mask))


def _generators(F) -> list:
    """A set G of basis indices whose left-normed words ((1 g1) g2) ... gn
    span the ring over Q, found by peeling.  The unit is known.  A basis
    element is known once it is in G, or once it is the only unknown
    element in the support of x g for a known x and a g in G: x g lies in
    the span of the words, and its coefficients are positive integers, so
    that element does too.  When nothing more peels, the smallest unknown
    index joins G."""
    r = len(F)
    full = (1 << r) - 1
    known, gens, supports = 1, [], []
    while known != full:
        unknown = full & ~known
        gens.append((unknown & -unknown).bit_length() - 1)
        known |= unknown & -unknown
        # bit k of supports[t][x] when N[x, g_t, k] > 0
        supports.append([int.from_bytes(row.tobytes(), "little") for row in
                         np.packbits(F[:, gens[-1]] > 0, axis=1,
                                     bitorder="little")])
        grew = True
        while grew:
            grew = False
            for x in _members(known):
                for sup in supports:
                    u = sup[x] & ~known
                    if u and not u & (u - 1):
                        known |= u
                        grew = True
    return gens


def validate(ring: BasedRing) -> ValidationReport:
    """Check the based-ring axioms and report every violation found.

    Associativity is proved on a generating set (Light's test; Clifford
    and Preston, The Algebraic Theory of Semigroups I, 1961, 1.2).  The
    associator A(x, y, z) = (x y) z - x (y z) is linear over Q in x, and
    A(1, y, z) = 0 by the left unit axiom.  For any w and g the identity

        A(w g, y, z) = w A(g, y, z) + A(w, g, y) z + A(w, g y, z)
                       - A(w, g, y z)

    holds in every bilinear algebra, so A(w, ., .) = A(g, ., .) = 0 gives
    A(w g, ., .) = 0.  Hence A vanishes in its first argument on every
    left-normed word over G and on their span, which _generators makes the
    whole ring: the |G| slices (g j) k = g (j k) prove associativity.  Only
    when one of them differs, or an earlier axiom failed, are all rank
    slices compared, which lists the offenders and their count.
    """
    rep = ValidationReport()
    F = ring.fusion
    r = ring.rank
    eye = np.eye(r, dtype=np.int64)

    bad = F[0] != eye
    if bad.any():
        rep.add(f"unit axiom fails on the left at (j, k): {_offenders(bad)}")
    bad = F[:, 0, :] != eye
    if bad.any():
        rep.add(f"unit axiom fails on the right at (i, k): {_offenders(bad)}")

    target = np.zeros((r, r), dtype=np.int64)
    for i in range(r):
        target[i, ring.dual[i]] = 1
    bad = F[:, :, 0] != target
    if bad.any():
        rep.add(f"duality axiom fails at (i, j): {_offenders(bad)}")

    d = np.array(ring.dual)
    G = F[np.ix_(d, d, d)].transpose(1, 0, 2)
    bad = F != G
    if bad.any():
        rep.add("transpose-duality fails at (i, j, k): " + _offenders(bad))

    Ff = F.astype(np.float64)
    if rep.ok and not any(_associator(Ff, g).any() for g in _generators(F)):
        return rep
    listed = _every_associator(Ff)
    if listed:
        rep.add("associativity fails at (i, j, k, l): " + listed)
    return rep


def _associator(Ff, i) -> np.ndarray:
    """Where (i j) k and i (j k) differ, over (j, k, l), for the structure
    constants Ff as float64."""
    r = len(Ff)
    return ((Ff[i] @ Ff.reshape(r, r * r)).reshape(r, r, r)
            != (Ff.reshape(r * r, r) @ Ff[i]).reshape(r, r, r))


def _every_associator(Ff) -> str:
    """The offenders (i, j, k, l) of every slice i, the first few and their
    count, as validate lists them; empty when there are none."""
    shown, count = [], 0
    for i in range(len(Ff)):
        bad = _associator(Ff, i)
        n = np.count_nonzero(bad)
        if n and len(shown) < _MAX_REPORTED:
            shown += [(i, *row) for row in np.argwhere(bad)[:_MAX_REPORTED]]
        count += n
    return _listed(shown, count) if count else ""


def fp_dims(ring: BasedRing) -> DimVector:
    """Perron-Frobenius dimensions by power iteration on the summed left
    multiplication matrix.  The matrix is primitive for any based ring that
    satisfies the axioms, so the iteration converges to the unique positive
    eigenvector; we normalize the unit component to 1.
    """
    M = ring.fusion.sum(axis=0).T.astype(np.float64)
    v = np.ones(ring.rank)
    v /= np.linalg.norm(v)
    for _ in range(FP_MAX_ITER):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            raise NumericalDegeneracyError("power iteration collapsed to zero")
        w /= nw
        if np.max(np.abs(w - v)) < FP_TOL:
            v = w
            break
        v = w
    else:
        raise NumericalDegeneracyError(
            f"power iteration did not converge within {FP_MAX_ITER} steps")
    d = v / v[0]
    return DimVector(values=tuple(float(x) for x in d))


def _transpose(rows, width: int) -> list:
    """The bit matrix with row c the int rows[c], of width bits, as its
    width columns: bit c of column e is bit e of rows[c]."""
    nbytes = (width + 7) // 8
    raw = b"".join(x.to_bytes(nbytes, "little") for x in rows)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(
        len(rows), nbytes), axis=1, count=width, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little")
            for col in np.packbits(bits.T, axis=1, bitorder="little")]


def _close(ring: BasedRing, seeds) -> list:
    """The closure of each bitmask of seeds under fusion products and duals,
    all at once, bit-sliced: col[e] holds bit c when closure c holds basis
    element e.  Each sweep adds col[e] to col[e*], and col[i] & col[j] to
    col[k] for each k in the support of i*j or j*i, until a sweep changes
    nothing."""
    col = _transpose(seeds, ring.rank)
    duals = [(e, d) for e, d in enumerate(ring.dual) if e != d]
    pairs = ring._closure_pairs
    while True:
        before = col[:]
        for e, d in duals:
            col[d] |= col[e]
        for i, j, ks in pairs:
            v = col[i] & col[j]
            if v:
                for k in ks:
                    col[k] |= v
        if col == before:
            return _transpose(col, len(seeds))


def _mask(indices) -> int:
    return sum({1 << int(i) for i in indices})


def _members(mask: int) -> tuple:
    return tuple(i for i, c in enumerate(reversed(bin(mask))) if c == "1")


def basis_indices(ring: BasedRing, indices) -> list:
    """indices as ints, each of which must be a basis index of ring."""
    out = [int(i) for i in indices]
    rank = ring.rank
    for i in out:
        if not 0 <= i < rank:
            raise SchemaError(f"index {i} is not a basis index of a ring "
                              f"of rank {rank}")
    return out


def is_closed(ring: BasedRing, sub) -> bool:
    """Whether sub holds the unit and the dual of each member, and every
    product of two members is supported inside sub.  Builds no
    BasedRing._closure_pairs."""
    inside = np.zeros(ring.rank, dtype=bool)
    inside[basis_indices(ring, sub)] = True
    idx = np.flatnonzero(inside)
    return bool(inside[0] and inside[np.asarray(ring.dual)[idx]].all()
                and not ring.fusion[np.ix_(idx, idx, ~inside)].any())


def enumerate_subrings(ring: BasedRing, must_contain=()) -> list:
    """All based subrings containing ``must_contain``, as sorted index tuples.

    Works by breadth-first closure: each level grows every subring found
    at the level before by one extra basis element, and closes all of
    these candidates together.  Every subring of the given ring arises this
    way, so the enumeration is exhaustive.  A lattice of more than
    SUBRING_BUDGET subrings is refused rather than enumerated to the end.
    """
    base = _close(ring, [_mask(basis_indices(ring, must_contain)) | 1])[0]
    found = {base}
    level = [base]
    # a closed s holds x exactly when it holds x*, and s with x or with x*
    # closes to the same subring, so one of each dual pair is tried
    firsts = [1 << x for x, d in enumerate(ring.dual) if x <= d]
    while level:
        grown = list({s | x for s in level for x in firsts if not s & x}
                     - found)
        level = list(set(_close(ring, grown)) - found)
        found.update(level)
        if len(found) > SUBRING_BUDGET:
            raise CapabilityError(
                "subring enumeration stops at a budget of "
                f"{SUBRING_BUDGET} subrings; this ring has more")
    return sorted(map(_members, found), key=lambda t: (len(t), t))


class _Sums(NamedTuple):
    """Sums of scaled columns of an array X, as array passes.  X is
    extended by the columns X[:, scale_cols] * scale_coef, one per distinct
    (column, coefficient) with a coefficient other than 1; output s is then
    the sum of the extended columns pick[t] over the terms t in
    starts[s]:starts[s + 1], and targets[s] is its column."""
    scale_cols: np.ndarray
    scale_coef: np.ndarray
    pick: np.ndarray
    targets: np.ndarray
    starts: np.ndarray


def _sums(cols, coef, targets, width: int) -> _Sums:
    """The terms coef[t] * X[:, cols[t]] of output targets[t], given sorted
    by target, for an X of width columns.  Each distinct (column,
    coefficient) is one int64 key, column * span + coefficient - lo, whose
    order is theirs."""
    scaled = coef != 1
    c = coef[scaled]
    lo = int(c.min(initial=0))
    span = int(c.max(initial=0)) - lo + 1
    keys, inverse = np.unique(cols[scaled] * span + (c - lo),
                              return_inverse=True)
    pick = cols.copy()
    pick[scaled] = width + inverse.ravel()
    targets, starts = np.unique(targets, return_index=True)
    return _Sums(keys // span, np.array((keys % span + lo).tolist(),
                                        dtype=object), pick, targets, starts)


class _Terms(NamedTuple):
    """A bilinear map over the basis: the products a[left[p]] * b[right[p]]
    of its distinct pairs p, summed by sums into the output columns."""
    left: np.ndarray
    right: np.ndarray
    sums: _Sums


class _Commutators(NamedTuple):
    """The nonzero T[j, i, k] = N[j, i, k] - N[i, j, k], so that
    (a b_i - b_i a)_k = sum_j a_j T[j, i, k]: sums takes a to the nonzero
    positions (i, k), and the positions of basis element basis[u] run from
    basis_starts[u] to the next."""
    sums: _Sums
    basis: np.ndarray
    basis_starts: np.ndarray


class _Plan(NamedTuple):
    """The structure constants as array passes: product for a * b, square
    for a * a over the unordered pairs i <= j, and the commutators."""
    product: _Terms
    square: _Terms
    commutator: _Commutators


def _merged(keys, coef) -> tuple:
    """The distinct keys in sorted order, each with the sum of its
    coefficients, leaving out the keys whose sum is 0."""
    order = np.argsort(keys)
    keys, coef = keys[order], coef[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    keys, coef = keys[starts], np.add.reduceat(coef, starts)
    return keys[coef != 0], coef[coef != 0]


def _bilinear_terms(keys, coef, r: int) -> _Terms:
    """The terms coef[t] * a_i * b_j of output column k, for the sorted
    keys[t] = (k r + i) r + j."""
    k, pair = np.divmod(keys, r * r)
    pairs, at = np.unique(pair, return_inverse=True)
    return _Terms(pairs // r, pairs % r,
                  _sums(at.ravel(), coef, k, len(pairs)))


def _term_plan(F) -> _Plan:
    """The plan, from one list of the nonzero N[i, j, k]."""
    r = len(F)
    i, j, k = np.nonzero(F)
    c = F[i, j, k]
    # (a a)_k = sum_{i <= j} a_i a_j S[i, j, k] with S[i, j] = N[i, j] +
    # N[j, i] off the diagonal and N[i, i] on it
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # T[j, i, k] = N[j, i, k] - N[i, j, k], keyed (i r + k) r + j
    keys, coef = _merged(np.r_[(j * r + k) * r + i, (i * r + k) * r + j],
                         np.r_[c, -c])
    sums = _sums(keys % r, coef, keys // r, r)
    basis, basis_starts = np.unique(sums.targets // r, return_index=True)
    return _Plan(_bilinear_terms(*_merged((k * r + i) * r + j, c), r),
                 _bilinear_terms(*_merged((k * r + lo) * r + hi, c), r),
                 _Commutators(sums, basis, basis_starts))


def _summed(sums, X) -> np.ndarray:
    """The sums of the plan over the columns of X, row by row, in the
    arithmetic of X's entries."""
    if len(sums.scale_cols):
        X = np.hstack([X, X[:, sums.scale_cols] * sums.scale_coef])
    return np.add.reduceat(X[:, sums.pick], sums.starts, axis=1)


def _bilinear(terms, A, B) -> np.ndarray:
    """Row r is A[r] times B[r] through the terms of a ring's plan: one
    product per pair, then one reduceat over the output columns.  Columns
    that receive no term stay the int 0."""
    out = np.zeros(A.shape, dtype=object)
    if len(terms.left):
        out[:, terms.sums.targets] = _summed(
            terms.sums, A[:, terms.left] * B[:, terms.right])
    return out


def _dot(X, T) -> np.ndarray:
    """X @ T for an array X and an integer matrix T, as _summed sums over
    the nonzeros of T, in the arithmetic of X's entries.  Columns of T
    with no nonzero stay the int 0."""
    out = np.zeros((len(X), T.shape[1]), dtype=object)
    z, i = np.nonzero(T.T)
    sums = _sums(i, T[i, z], z, len(T))
    out[:, sums.targets] = _summed(sums, X)
    return out


def element_product(ring: BasedRing, a, b) -> list:
    """Product of two ring elements given as coefficient vectors.

    Coefficients may be ints, Fractions, exact cyclotomics, floats or
    mpmath numbers; the arithmetic stays in whatever the inputs support.
    Each output entry sums its terms a_i b_j N[i, j, k] in (i, j) order.
    A vector of another length than the rank raises SchemaError.
    """
    def row(v):
        if len(v) != ring.rank:
            raise SchemaError(f"the element has {len(v)} coefficients, but "
                              f"the ring has rank {ring.rank}")
        out = np.empty((1, ring.rank), dtype=object)
        out[0, :] = list(v)
        return out
    return _bilinear(ring._plan.product, row(a), row(b))[0].tolist()


def product_basis(a, b) -> tuple:
    """The labels la.lb and the dual map of the product of two bases, each
    given by its labels and dual.  Index (i, j) maps to i * rank_b + j."""
    rb = len(b.labels)
    labels = tuple(f"{la}{PRODUCT_SEP}{lb}" for la in a.labels for lb in b.labels)
    dual = tuple(da * rb + db for da in a.dual for db in b.dual)
    return labels, dual


def product_ring(a: BasedRing, b: BasedRing) -> BasedRing:
    """Tensor product of two based rings: pairs of labels, products of
    structure constants.  Index (i, j) maps to i*b.rank + j."""
    labels, dual = product_basis(a, b)
    n = a.rank * b.rank
    fusion = np.einsum("ijk,abc->iajbkc", a.fusion, b.fusion).reshape(n, n, n)
    return BasedRing(labels=labels, fusion=fusion, dual=dual)


def group_ring(table, inverse=None, labels=None) -> BasedRing:
    """Based ring of a finite group given as a Cayley table with identity 0."""
    table = np.asarray(table)
    n = len(table)
    idx = np.arange(n)
    if (table[0] != idx).any() or (table[:, 0] != idx).any():
        raise SchemaError("Cayley table must have the identity at index 0")
    F = np.zeros((n, n, n), dtype=np.int64)
    F[idx[:, None], idx, table] = 1
    if inverse is None:
        inverse = np.argmax(table == 0, axis=1).tolist()
    if labels is None:
        labels = tuple(f"g{i}" for i in range(n))
    return BasedRing(labels=tuple(labels), fusion=F, dual=tuple(inverse))
