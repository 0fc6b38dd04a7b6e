"""Correspondence between subrings of the condensed ring and invariant
subalgebras of the condensable algebra.

For each subring B of the module ring containing the local part, the
averaging idempotent e_B acts in every matrix block of the ideal cut out by
the condensation; its block ranks n'_b are the multiplicities of the
invariant subalgebra A^B as an ambient object.  The checks here are the
ones the correspondence forces: endpoints, strict order reversal, the
dimension formula dim(B) * d(A^B) * d(A) = dim(C), and self-duality of the
multiplicity vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import mpmath as mp
import numpy as np

from .condense import (CondensationBundle, SchurWeylReport, _averaging,
                       block_dims)
from .cyclotomic import FLOAT_PREC, TOL, as_float
from .errors import (NumericalDegeneracyError, SchemaError,
                     TheoremViolationError)
from .mantissa import U, mantissas, nearest, round_quotient
from .ring import enumerate_subrings


def lattice(b: CondensationBundle) -> list:
    """All subrings of the module ring that contain the local part, as
    sorted index tuples.  A lattice of more than ring.SUBRING_BUDGET
    subrings is refused with CapabilityError."""
    return enumerate_subrings(b.module_ring, must_contain=b.local)


def _invariants(swr: SchurWeylReport, subs, dims) -> list:
    """The list of (n', ambient vector) of A^B for each sorted sub B of
    subs, once _averaging has passed them all.  n'_b = chi_b(e_B) on each
    ideal block b: with d_y = w_y 2**f (dims = mantissas(b.dA.values)) and
    m chi_b(y) = (re + 1j im)_b[y] 2**exp from the character table,
    n'_b = sum_{y in B} w_y (re + 1j im)_b[y] 2**(exp - f)
    / (m sum_{y in B} w_y^2).

    A float64 filter reads n' first, as X = e chi^T with the rows e of
    _averaging and chi the ideal rows of swr.characters: one dot product
    of length r (the rank) per part.  On a tame row e_y is off by g_{r+4}
    relative (see _averaging), each part of chi by u, and the products
    and sums add g_r, so each part of X is within g_{2r+5}
    sum_y e_y |chi_b(y)| of the exact n' that the exact test reads, at
    most (3r + 6) u times that sum in float64.  Table entries below
    float64's normal range add at most r 2**-974, since e_y <= 2**100 on
    a tame row.  The filter takes
    E = (4r + 12) u sum_y e_y |chi_b(y)| + r 2**-960 for each part, and
    nearest passes an entry when every value within E of it is within
    ROUND_TOL of one integer.  A row with any entry not passed, or that is
    not tame, is summed exactly, one product of its weight row with the
    ideal rows of the table, and read by the exact nearest; so every n'
    is the exact test's.

    Each n'_b must round to an integer in [0, m]: a fuzzy value is a
    numerical failure, an out-of-range one contradicts the correspondence.
    When every ideal block is matched, n' is also an ambient multiplicity
    vector, which must be self-dual; else the vector is None.  The first
    failing sub raises: the first of its blocks that is fuzzy or out of
    range, else its self-duality."""
    b = swr.bundle
    r = b.module_ring.rank
    W, D, e, tame = _averaging(b.module_ring, subs, dims)
    ideal = np.flatnonzero(swr.in_ideal).tolist()
    k = len(ideal)
    chi = swr.characters[ideal]
    C = np.vstack([chi.real, chi.imag])
    with np.errstate(all="ignore"):
        X = e @ C.T
        err = (4 * r + 12) * U * (e @ np.abs(C).T) + r * 2.0 ** -960
    err[~tame] = np.inf
    N, far = nearest(X[:, :k], X[:, k:], 0, 1, (err[:, :k], err[:, k:]))
    N = N.astype(object)
    ms = np.array([swr.blocks[bi].m for bi in ideal], dtype=object)
    # the rows the filter left, summed and rounded exactly
    redo = np.flatnonzero(far.any(axis=1))
    if len(redo):
        re, im, exp = swr.character_mantissas
        sums = W[redo] @ np.vstack([re[ideal], im[ideal]]).T
        dens = np.array(D, dtype=object)[redo, None] * ms
        N[redo], far[redo] = nearest(sums[:, :k], sums[:, k:], exp - dims[2],
                                     dens)
    bad = far | (N < 0) | (N > ms)
    matched = [swr.matched[bi] for bi in ideal]
    V = None
    if None not in matched:
        V = np.zeros((len(subs), b.ambient.rank), dtype=object)
        V[:, matched] = N
        skew = V != V[:, list(b.ambient.dual)]
    out = []
    for i, sub in enumerate(subs):
        if bad[i].any():
            c = int(np.argmax(bad[i]))
            if far[i, c]:
                # the same rounding of that one value, which raises
                j = int(np.searchsorted(redo, i))
                round_quotient(sums[j, c], sums[j, k + c], exp - dims[2],
                               dens[j, c],
                               f"block multiplicity for subring {sub}")
            raise TheoremViolationError(
                f"block multiplicity {N[i, c]} outside [0, {ms[c]}] for "
                f"subring {sub}")
        vec = None
        if V is not None:
            if skew[i].any():
                x = int(np.argmax(skew[i]))
                v, labels, dual = V[i], b.ambient.labels, b.ambient.dual
                raise TheoremViolationError(
                    "invariant subalgebra is not self-dual: multiplicity "
                    f"{v[x]} at {labels[x]} vs {v[dual[x]]} at "
                    f"{labels[dual[x]]}")
            vec = tuple(V[i].tolist())
        out.append((tuple(N[i].tolist()), vec))
    return out


@dataclass(frozen=True)
class GaloisEntry:
    sub: tuple
    n_prime: tuple
    ambient_vector: tuple | None
    d_invariant: float
    dim_sub: float
    residual: float


@dataclass(frozen=True, eq=False)
class GaloisReport:
    """The correspondence checks over a lattice; below[i, j] says that
    entries[i].sub is a proper subset of entries[j].sub."""
    bundle: CondensationBundle
    entries: tuple
    below: np.ndarray
    trivial_block: int
    injective: bool
    collisions: tuple
    problems: tuple
    max_residual: float

    @property
    def ok(self) -> bool:
        return not self.problems

    @cached_property
    def invariant_names(self) -> tuple:
        """The name of each entry's invariant subalgebra, named once."""
        return tuple(_invariant_name(self.bundle, e) for e in self.entries)

    def entry(self, sub) -> GaloisEntry:
        key = tuple(sorted(int(i) for i in sub))
        for e in self.entries:
            if e.sub == key:
                return e
        raise KeyError(f"no lattice entry for {key}")


def _order_problems(entries, below, tol: float) -> list:
    """The order-reversal and monotonicity failures of the pairs
    below[i, j] whose entries both have a known dimension, row-major,
    with the reversal of a pair before its monotonicity."""
    known = np.array([e.d_invariant is not None for e in entries])
    small, big = np.nonzero(below & known[:, None] & known)
    d = np.array([e.d_invariant if k else 0.0
                  for e, k in zip(entries, known)])
    n = np.array([e.n_prime for e in entries])
    reversal = ~(d[big] < d[small] - tol)
    monotone = (n[big] > n[small]).any(axis=1)
    problems = []
    for p in np.flatnonzero(reversal | monotone):
        lo, hi = entries[small[p]], entries[big[p]]
        if reversal[p]:
            problems.append(
                f"order reversal fails: {lo.sub} < {hi.sub} but "
                f"d {lo.d_invariant:g} !> {hi.d_invariant:g}")
        if monotone[p]:
            problems.append(
                f"multiplicities not monotone: {lo.sub} < {hi.sub} "
                f"but {hi.n_prime} !<= {lo.n_prime}")
    return problems


def verify_correspondence(b: CondensationBundle, tol: float = TOL, *,
                          swr: SchurWeylReport) -> GaloisReport:
    """Run the correspondence checks over the whole subring lattice.

    Fails are collected in the report rather than raised, except for the
    hard ones, in this order: the errors the reading of the lattice's
    block multiplicities (_invariants) raises, a full module ring with
    n' = 1 on no block, and a non-positive invariant dimension.  A report
    of another bundle than b is refused with SchemaError.

    The dimension formula runs in float64.  dim(C), d(A), dim(B) and each
    block dimension are read by as_float, so on exact data every printed
    value is the same at every working precision.  With u = eps / 2, each reading is
    the value rounded once (its 113-bit sum adds an error far below u),
    each product n d_b is rounded once, and d(A^B) sums at most k such
    products (k ideal blocks), so d(A^B) is off by at most (k + 1) u
    relative.  dim(B) and d(A) add 2 u, the two products 2 u and dim(C) u,
    so on exact data, where dim(B) d(A^B) d(A) = dim(C), the residual is
    at most (k + 6) u to first order.  The check's bound
    max(tol, (k + 8) eps) leaves a factor of two above that, so a tol
    below the float64 rounding error does not fail exact data.

    The averaging check and n' of every subring are decided in float64
    behind the proven error bands of _averaging and _invariants; a row
    inside a band goes through the exact mantissa tests unchanged.  n' is
    read for the whole lattice first.  The trivial block is the ideal
    block where the full module ring, the last subring, has n' = 1: its
    e_B = sum_y d_y y / dim(B) satisfies y e_B = d_y e_B, so it is the
    idempotent of the block whose character is the dimension function,
    and n' is 1 there and 0 on every other block.  dim(B) is summed
    exactly once per DimVector.total_key.
    """
    if swr.bundle is not b:
        raise SchemaError("the Schur-Weyl report was built from another "
                          "bundle than the one given")
    subs = lattice(b)
    problems = []
    dims = mantissas(b.dA.values)
    invariants = _invariants(swr, subs, dims)
    ideal_idx = tuple(bi for bi, f in enumerate(swr.in_ideal) if f)
    full_n = invariants[-1][0]
    if 1 not in full_n:
        raise TheoremViolationError(
            "no block carries the dimension character; the ideal cut by the "
            "algebra idempotent must contain the trivial block")
    triv_pos = full_n.index(1)
    trivial = ideal_idx[triv_pos]
    if swr.matched[trivial] is not None and swr.matched[trivial] != 0:
        problems.append(
            "trivial block is matched to "
            f"{b.ambient.labels[swr.matched[trivial]]}, not the unit")

    # each dimension summed and read at as_float's precision, so that
    # numeric dims give the same sums at every mp.dps
    with mp.workprec(FLOAT_PREC):
        dim_c = as_float(b.ambient.global_dim())
        d_alg = as_float(b.algebra.dim())
        bdims = {bi: None if d is None else float(d)
                 for bi, d in block_dims(swr, tol).items()}
    bound = max(tol, (len(ideal_idx) + 8) * np.finfo(float).eps)

    entries = []
    dim_subs = {}
    for sub, (n_prime, vec) in zip(subs, invariants):
        if n_prime[triv_pos] != 1:
            problems.append(
                f"subring {sub}: trivial-block multiplicity is "
                f"{n_prime[triv_pos]}, not 1")
        d_inv = 0.0
        for bi, n in zip(ideal_idx, n_prime):
            if n == 0:
                continue
            if bdims[bi] is None:
                problems.append(
                    f"subring {sub}: no consistent ambient dimension for "
                    f"block {bi}; dimension formula skipped")
                d_inv = None
                break
            d_inv += n * bdims[bi]
        if d_inv is not None and d_inv <= tol:
            raise TheoremViolationError(
                f"invariant subalgebra of {sub} has non-positive "
                f"dimension {d_inv}")
        key = b.dA.total_key(sub)
        if key not in dim_subs:
            with mp.workprec(FLOAT_PREC):
                dim_subs[key] = as_float(b.dA.total(sub))
        dim_sub = dim_subs[key]
        if d_inv is None:
            residual = float("nan")
        else:
            residual = abs(dim_sub * d_inv * d_alg - dim_c) / max(1.0, dim_c)
            if residual > bound:
                problems.append(
                    f"subring {sub}: dimension formula residual {residual:.3e}")
        entries.append(GaloisEntry(sub=sub, n_prime=n_prime,
                                   ambient_vector=vec,
                                   d_invariant=d_inv, dim_sub=dim_sub,
                                   residual=residual))

    by_sub = {e.sub: e for e in entries}
    local = tuple(sorted(b.local))
    full = tuple(range(b.module_ring.rank))
    ms = tuple(swr.blocks[bi].m for bi in ideal_idx)
    e_local = by_sub.get(local)
    if e_local is None:
        problems.append("lattice does not contain the local part")
    elif e_local.n_prime != ms:
        problems.append(
            f"local subring multiplicities {e_local.n_prime} differ from "
            f"block sizes {ms}")
    # the full basis is a closed subring that holds the local part
    e_full = by_sub[full]
    want = tuple(1 if i == triv_pos else 0 for i in range(len(ms)))
    if e_full.n_prime != want:
        problems.append(
            f"full module ring gives multiplicities {e_full.n_prime}, "
            "expected the unit alone")

    member = np.zeros((len(subs), b.module_ring.rank), dtype=np.int64)
    for i, sub in enumerate(subs):
        member[i, list(sub)] = 1
    size = member.sum(axis=1)
    below = (member @ member.T == size[:, None]) & (size[:, None] < size)
    problems += _order_problems(entries, below, tol)

    groups = {}
    for e in entries:
        groups.setdefault(e.n_prime, []).append(e.sub)
    collisions = tuple(tuple(v) for v in groups.values() if len(v) > 1)

    residuals = [e.residual for e in entries if e.residual == e.residual]
    return GaloisReport(bundle=b, entries=tuple(entries), below=below,
                        trivial_block=trivial, injective=not collisions,
                        collisions=collisions, problems=tuple(problems),
                        max_residual=max(residuals) if residuals else 0.0)


# ---------------------------------------------------------------- quotients


@dataclass(frozen=True)
class GroupQuotient:
    """Cosets of the local part inside the module ring, with their
    normalized products.  ``table`` is a full group multiplication table
    when every product of normalized cosets is again a single normalized
    coset, else None; the pointed cosets always form a group."""
    cosets: tuple
    table: tuple | None
    pointed: tuple
    pointed_table: tuple
    residual: float


def group_quotient(swr: SchurWeylReport, tol: float = TOL) -> GroupQuotient:
    b = swr.bundle
    ring = b.module_ring
    F = ring.fusion
    r = ring.rank
    # the local part is a fusion subring, so the support of local * y is
    # the coset of y, and the cosets partition the basis
    cosets = sorted({tuple(np.flatnonzero(row).tolist())
                     for row in F[list(b.local)].sum(axis=0) > 0})
    if sum(len(c) for c in cosets) != r:
        raise TheoremViolationError(
            "local orbits overlap or miss basis elements; the cosets of the "
            "local part do not partition the module ring")
    k = len(cosets)
    coset_of = np.empty(r, dtype=int)
    for ci, c in enumerate(cosets):
        coset_of[list(c)] = ci
    reps = [c[0] for c in cosets]

    # normalized cosets e1 * rep / d(rep), with e1 = d / dim(local) on
    # the local part and 0 elsewhere, their products, and the projection
    # of each product onto the (disjointly supported) cosets
    d = b.dA.as_floats()
    e1 = np.zeros(r)
    e1[list(b.local)] = d[list(b.local)] / (d[list(b.local)] ** 2).sum()
    E = np.einsum("a,ack->ck", e1, F[:, reps, :]) / d[reps, None]
    prod = np.einsum("jb,ibc->ijc", E, np.tensordot(E, F, (1, 0)))
    coeffs = (prod @ E.T) / np.einsum("ck,ck->c", E, E)
    residual = float(np.max(np.abs(prod - coeffs @ E)))
    if residual > tol:
        raise NumericalDegeneracyError(
            f"coset products do not decompose over cosets (residual "
            f"{residual:.3e})")

    # target[i, j] is the one coset the product of i and j hits with
    # coefficient 1, or -1 when the product is not a single coset
    hit = np.abs(coeffs - 1.0) <= tol
    single = (hit.sum(axis=2) == 1) & (hit | (np.abs(coeffs) <= tol)).all(axis=2)
    target = np.where(single, hit.argmax(axis=2), -1)
    table = (tuple(tuple(row) for row in target.tolist())
             if single.all() else None)

    idual = coset_of[np.asarray(ring.dual)[reps]]
    pointed = np.flatnonzero(target[np.arange(k), idual] == coset_of[0])
    ptable = target[np.ix_(pointed, pointed)]
    if not np.isin(ptable, pointed).all():
        raise TheoremViolationError(
            "pointed cosets do not close under multiplication")
    return GroupQuotient(cosets=tuple(cosets), table=table,
                         pointed=tuple(pointed.tolist()),
                         pointed_table=tuple(tuple(row)
                                             for row in ptable.tolist()),
                         residual=residual)


# ------------------------------------------------------------------- output


def _sub_name(b: CondensationBundle, sub) -> str:
    return "{" + ",".join(b.module_ring.labels[y] for y in sub) + "}"


def _invariant_name(b: CondensationBundle, entry: GaloisEntry) -> str:
    if entry.ambient_vector is None:
        return "blocks " + ",".join(str(n) for n in entry.n_prime)
    parts = []
    for x, n in enumerate(entry.ambient_vector):
        if n == 1:
            parts.append(b.ambient.labels[x])
        elif n > 1:
            parts.append(f"{n}*{b.ambient.labels[x]}")
    return " + ".join(parts) if parts else "0"


def hasse_dot(report: GaloisReport) -> str:
    """Hasse diagram of the lattice in DOT form, one node per subring
    annotated with its dimension and its invariant subalgebra."""
    b = report.bundle
    entries = report.entries
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for i, (e, name) in enumerate(zip(entries, report.invariant_names)):
        d = "?" if e.d_invariant is None else f"{e.d_invariant:g}"
        label = (f"{_sub_name(b, e.sub)} (dim {e.dim_sub:g})"
                 f"\\ninv {name} (d {d})")
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in np.argwhere(report.below & ~(report.below @ report.below)):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def markdown_table(report: GaloisReport) -> str:
    b = report.bundle
    out = ["| subring | dim | invariant subalgebra | d | residual |",
           "|---|---|---|---|---|"]
    for e, name in zip(report.entries, report.invariant_names):
        d = "?" if e.d_invariant is None else f"{e.d_invariant:g}"
        res = "n/a" if e.residual != e.residual else f"{e.residual:.2e}"
        out.append(f"| {_sub_name(b, e.sub)} | {e.dim_sub:g} "
                   f"| {name} | {d} | {res} |")
    return "\n".join(out) + "\n"
