"""An independent reference for the verdict, from the paper's formulas
(fuscond, arXiv 2025): dense, slow, and sharing no code with the fast
path.  It reads the package's data types, converts scalars with as_mpc
and computes the rest itself:

- the center: the exact nullspace of sum_j z_j (N[j,i,k] - N[i,j,k]) = 0;
- the split: mp.eig of a random central element on the center, whose
  eigenvectors, scaled to sum to the unit, are the primitive central
  idempotents e_b, with tr(L_{e_b}) = m_b^2;
- the characters chi_b(z) = tr(L_{e_b z}) / m_b; block b is in the ideal
  of the local vacuum idempotent e_1 when chi_b(e_1) = m_b, else it is 0;
- the matching: the least-squares coefficients of v_b = M chi_b / m_b over
  the ambient rows S(x*, y) / d(x), n_x > 0, are the unit vector at x;
- the codegrees (Ostrik): sum_z chi_b(z) z* acts on block c as
  phi[b][c] = sum_z chi_b(z) chi_c(z*) / m_c, on b as dim(C)/(d_x d(A));
- n'_b = chi_b(e_B), e_B = sum_{y in B} d_y y / sum_{y in B} d_y^2,
  d(A^B) = sum_b n'_b d_b, dim(B) d(A^B) d(A) = dim(C), and for B < B'
  d(A^B') < d(A^B) and n'(B') <= n'(B);
- the cosets of the local part and the products of e_1 y / d_y.

The exact parts are cached per ring and the split per ring and
precision; the rest runs at the working precision plus GUARD digits.
Integers and labels must equal the fast path's, and a float v agrees with
the reference value r, computed at dps digits, when
|v - r| <= bound(v, dps) max(1, |r|): the fast path refines to round-off
and decides within 10**(8 - dps).  A scalar check whose excess over its
tolerance lies within 10**(2 - dps) relative of zero is a knife edge that
the rounding at the working precision decides either way, so the
comparisons of tests/test_reference.py leave it out.
"""
import math
import random
from collections import namedtuple

import mpmath as mp
import numpy as np

from fuscond.cyclotomic import as_mpc

GUARD = 20
TOL = 1e-9       # the default tolerance of the paper's checks
NEAR = 1e-6      # an integer, a unit coefficient or a match is this close


def bound(v, dps=math.inf):
    """10**(8 - d), with d = 15 for a float64 v, and for an mpmath v the
    lower of mp.dps and the precision dps of the reference value."""
    return mp.mpf(10) ** (8 - (15 if isinstance(v, float)
                               else min(mp.mp.dps, dps)))


def close(v, r, dps=math.inf) -> bool:
    return abs(v - r) <= bound(v, dps) * max(1, abs(r))


def _integer(x, what) -> int:
    n = int(mp.nint(mp.re(x)))
    assert abs(x - n) <= NEAR, f"{what} = {x} is not an integer"
    return n


def _reals(values) -> list:
    return [as_mpc(v).real for v in values]


def _dims(b) -> tuple:
    """d(x), d_A(y), dim(C) and d(A)."""
    d, da = _reals(b.ambient.dims.values), _reals(b.dA.values)
    return d, da, mp.fsum(x * x for x in d), mp.fdot(b.mult, d)


# terms (i, j) -> [(k, N[i, j, k]), ...] over N != 0, tr(L_i), W[i][z] =
# tr(L_{i z}), the free columns f of the center and the integer vector u_f
# of each (0 at the other f), seed -> [z u_f for each f], z central, and
# dps -> the blocks of the split at dps digits
Exact = namedtuple("Exact", "terms tr W free center actions splits")


def _nullspace(rows, n):
    """Integer vectors spanning {z : row . z = 0 for every row}."""
    pivots = {}     # column -> row, zero at every other pivot column
    for row in rows:
        for c, p in pivots.items():
            if row[c]:
                row = [p[c] * a - row[c] * b for a, b in zip(row, p)]
        if any(row):
            g = math.gcd(*row)
            row = [a // g for a in row]
            lead = next(c for c, a in enumerate(row) if a)
            for c, p in pivots.items():
                if p[lead]:
                    q = [row[lead] * a - p[lead] * b for a, b in zip(p, row)]
                    g = math.gcd(*q)
                    pivots[c] = [a // g for a in q]
            pivots[lead] = row
    free = [f for f in range(n) if f not in pivots]
    basis = []
    for f in free:
        scale = math.lcm(1, *(p[c] for c, p in pivots.items() if p[f]))
        basis.append([-pivots[c][f] * scale // pivots[c][c] if c in pivots
                      else scale * (c == f) for c in range(n)])
    return free, basis


_EXACT = {}


def exact(ring) -> Exact:
    F = ring.fusion
    key = (F.shape, F.tobytes())
    if key not in _EXACT:
        terms = {}
        for i, j, k in zip(*np.nonzero(F)):
            terms.setdefault((int(i), int(j)), []).append((int(k),
                                                          int(F[i, j, k])))
        tr = [int(np.trace(F[i])) for i in range(len(F))]
        C = (F.transpose(1, 2, 0) - F.transpose(0, 2, 1)).reshape(-1, len(F))
        rows = sorted({tuple(r) for r in C.tolist() if any(r)})
        _EXACT[key] = Exact(terms, tr, (F @ np.array(tr)).tolist(),
                            *_nullspace(rows, len(F)), {}, {})
    return _EXACT[key]


def product(terms, a, b) -> list:
    """a b in the arithmetic of the coefficients, term by term in (i, j, k)
    order over the nonzero coefficients."""
    out = [0] * len(a)
    nonzero = [j for j, y in enumerate(b) if y != 0]
    for i, x in enumerate(a):
        for j in nonzero if x != 0 else ():
            for k, c in terms.get((i, j), ()):
                out[k] += x * b[j] * c
    return out


# a primitive central idempotent e, its block size m and chi(z) at each z
Block = namedtuple("Block", "e m chi")


def split(ring) -> list:
    """The blocks of the ring, in no particular order."""
    ex = exact(ring)
    if mp.mp.dps not in ex.splits:
        ex.splits[mp.mp.dps] = _split(ring, ex)
    return ex.splits[mp.mp.dps]


def _split(ring, ex) -> list:
    with mp.workdps(mp.mp.dps + GUARD):
        for seed in range(1, 9):
            if seed not in ex.actions:
                rng = random.Random(seed)
                z = [rng.randint(-1000, 1000) for _ in ex.center]
                z = list(np.array(z) @ np.array(ex.center, dtype=object))
                ex.actions[seed] = [product(ex.terms, z, u) for u in ex.center]
            # z u_g = sum_f A[f, g] u_f, read off at the free columns
            lam, V = mp.eig(mp.matrix([[mp.mpf(zu[f]) / u[f]
                                        for zu in ex.actions[seed]]
                                       for f, u in zip(ex.free, ex.center)]))
            scale = max([1] + [abs(x) for x in lam])
            if all(abs(a - b) > NEAR * scale
                   for i, a in enumerate(lam) for b in lam[i + 1:]):
                break
        else:
            raise AssertionError("no central element separates the blocks")
        c = mp.lu_solve(V, [mp.mpf(int(f == 0)) / u[f]
                            for f, u in zip(ex.free, ex.center)])
        blocks = []
        for b in range(len(lam)):
            e = [mp.fsum(V[g, b] * c[b] * u[i] for g, u in enumerate(ex.center)
                         if u[i]) for i in range(ring.rank)]
            m = math.isqrt(d := _integer(mp.fdot(e, ex.tr), "tr(L_e)"))
            assert m * m == d, f"block dimension {d} is not a square"
            blocks.append(Block(e, m, [
                mp.fsum(e[i] * w[z] for i, w in enumerate(ex.W) if w[z]) / m
                for z in range(ring.rank)]))
        return blocks


def averaging(b, sub) -> list:
    """e_B = sum_{y in B} d_y y / sum_{y in B} d_y^2."""
    d = _reals(b.dA.values)
    total = mp.fsum(d[y] ** 2 for y in sub)
    return [d[y] / total if y in sub else 0 for y in range(len(d))]


def ambient_rows(amb, xs):
    """y -> S(x*, y) / d(x) of each x in xs, from the S-matrix or from the
    balancing identity sum_z N[x*, y, z] theta_z d_z / (theta_x* theta_y
    d_x*); None when the ambient has neither."""
    s = amb.modular.s if amb.modular is not None else None
    rings = [f.ring for f in amb.factors or [amb]]
    if s is None and (amb.twists is None or None in rings):
        return None
    th, d = [as_mpc(t) for t in amb.twists or ()], _reals(amb.dims.values)
    rows = []
    for x in (amb.dual[x] for x in xs):
        if s is not None:
            rows.append([as_mpc(v) / as_mpc(s[0][x]) for v in s[x]])
            continue
        N = rings[0].fusion[x] if len(rings) == 1 else np.kron(
            rings[0].fusion[x // rings[1].rank],
            rings[1].fusion[x % rings[1].rank])
        rows.append([mp.fsum(int(N[y, z]) * th[z] * d[z]
                             for z in np.flatnonzero(N[y]))
                     / (th[x] * th[y] * d[x]) for y in range(amb.rank)])
    return rows


# per block: in the ideal, the matched ambient index or None, the ambient
# dimension of an ideal block or None, phi[b][c] of an ideal b; the
# largest |phi[b][c] - delta_bc dim(C) / (d_b d(A))|; and the precision
Verdict = namedtuple("Verdict", "blocks in_ideal matched dims phi residual "
                                "problems dps")


def block_dims(b, blocks, ideal, matched, tol=TOL) -> list:
    """Per ideal block the matched simple's dimension, or the common one of
    every x with n_x = m when they agree within tol; else None."""
    d = _dims(b)[0]
    dims = []
    for bl, i, x in zip(blocks, ideal, matched):
        cand = ([d[x]] if x is not None
                else [d[y] for y, n in enumerate(b.mult) if n == bl.m])
        dims.append(cand[0] if i and max(cand) - min(cand)
                    <= tol * max(1, max(cand)) else None)
    return dims


def verdict(b, tol=TOL) -> Verdict:
    """The split, the ideal, the matching and the codegrees of bundle b."""
    blocks = split(b.module_ring)
    with mp.workdps(mp.mp.dps + GUARD):
        e1 = averaging(b, b.local)
        ideal = [_integer(mp.fdot(e1, bl.chi), "chi(e_1)") == bl.m
                 for bl in blocks]
        problems, xs = [], [x for x, n in enumerate(b.mult) if n]
        rows = ambient_rows(b.ambient, xs) if b.induction is not None else None
        matched = [None] * len(blocks)
        G = rows and [[mp.fdot(map(mp.conj, r), q) for q in rows] for r in rows]
        for i in (i for i, f in enumerate(ideal) if f and rows):
            v = [mp.fsum(int(c) * blocks[i].chi[z] for z, c in enumerate(row)
                         if c) / blocks[i].m for row in b.induction]
            a = mp.lu_solve(G, [mp.fdot(map(mp.conj, r), v) for r in rows])
            at = [k for k in range(len(xs)) if abs(a[k] - 1) <= NEAR]
            if len(at) != 1 or b.mult[xs[at[0]]] != blocks[i].m or max(
                    abs(a[k]) for k in range(len(xs)) if k != at[0]) > NEAR:
                problems.append(f"block {i} fits no ambient row")
                continue
            matched[i] = xs[at[0]]
        _, _, dim_c, d_alg = _dims(b)
        dims = block_dims(b, blocks, ideal, matched, tol)
        dual = b.module_ring.dual
        phi = [[mp.fsum(bl.chi[z] * c.chi[dual[z]] for z in range(len(dual)))
                / c.m for c in blocks] if i else None
               for bl, i in zip(blocks, ideal)]
        off = [abs(p - (dim_c / (d_alg * dims[i]) if i == j else 0))
               for i in range(len(blocks)) if dims[i] is not None
               for j, p in enumerate(phi[i])]
        if max(off, default=0) > tol:
            problems.append("a codegree is not dim(C) / (d_x d(A))")
    return Verdict(blocks, ideal, matched, dims, phi,
                   max(off, default=mp.mpf(0)), problems, mp.mp.dps)


def scalar_checks(b, tol=TOL) -> list:
    """The scalar checks of a bundle, each as a (kind, label) key and its
    excess |x - y| / max(1, |y|) - tol, which is positive when it fails:
    the twists of A, d(A) > 0, dim(C_A) = dim(C)/d(A), dim(local) =
    dim(C)/d(A)^2, the module unit and the induction adjunction
    sum_y M[x, y] d_y = d(x)."""
    def excess(x, y):
        return abs(x - y) / max(1, abs(y)) - tol
    amb = b.ambient
    with mp.workdps(mp.mp.dps + GUARD):
        out = [(("twist", amb.labels[x]), excess(as_mpc(amb.twists[x]), 1))
               for x, n in enumerate(b.mult) if n and amb.twists is not None]
        d, da, dim_c, d_alg = _dims(b)
        if d_alg <= tol:
            return out + [(("algebra dimension",), mp.inf)]
        checks = [("dim(C_A)", mp.fsum(y * y for y in da), dim_c / d_alg),
                  ("dim(local)", mp.fsum(da[y] ** 2 for y in b.local),
                   dim_c / d_alg ** 2), ("module unit", da[0], 1)]
        out += [((kind,), excess(x, y)) for kind, x, y in checks]
        M = b.induction if b.induction is not None else ()
        return out + [(("adjunction", amb.labels[x]),
                       excess(mp.fdot(map(int, row), da), d[x]))
                      for x, row in enumerate(M)]


def bundle_problems(b, tol=TOL) -> list:
    """The keys of the scalar checks that b fails."""
    return [key for key, e in scalar_checks(b, tol) if e > 0]


# a lattice entry: n' of each ideal block in block order, the ambient
# vector or None, d(A^B), dim(B) and the dimension formula's residual
Entry = namedtuple("Entry", "sub n_prime vector d_invariant dim_sub residual")


def correspondence(b, v: Verdict, subs, tol=TOL) -> tuple:
    """The entries of subs, each a subring holding the local part, and the
    problems of the correspondence as keys."""
    terms, dual = exact(b.module_ring).terms, b.module_ring.dual
    ideal = [i for i, f in enumerate(v.in_ideal) if f]
    problems, entries = [], []
    with mp.workdps(mp.mp.dps + GUARD):
        _, da, dim_c, d_alg = _dims(b)
        trivial = next(i for i in ideal if max(
            abs(c - y) for c, y in zip(v.blocks[i].chi, da)) <= NEAR)
        if v.matched[trivial] not in (None, 0):
            problems.append(("unit",))
        for sub in subs:
            inside = set(sub)
            assert set(b.local) | {dual[y] for y in sub} <= inside, sub
            assert all(k in inside for (i, j), t in terms.items()
                       if i in inside and j in inside for k, _ in t), sub
            e = averaging(b, sub)
            n = tuple(_integer(mp.fdot(e, v.blocks[i].chi), f"n' of {sub}")
                      for i in ideal)
            at = {v.matched[i]: k for i, k in zip(ideal, n)}
            vec = None if None in at else tuple(
                at.get(x, 0) for x in range(b.ambient.rank))
            if n[ideal.index(trivial)] != 1:
                problems.append(("trivial", str(sub)))
            dim_sub, d_inv, res = mp.fsum(da[y] ** 2 for y in sub), None, None
            if any(k and v.dims[i] is None for i, k in zip(ideal, n)):
                problems.append(("skipped", str(sub)))
            else:
                d_inv = mp.fsum(k * v.dims[i] for i, k in zip(ideal, n) if k)
                res = abs(dim_sub * d_inv * d_alg - dim_c) / max(1, dim_c)
                if res > tol:
                    problems.append(("formula", str(sub)))
            entries.append(Entry(tuple(sub), n, vec, d_inv, dim_sub, res))
    by_sub = {e.sub: e.n_prime for e in entries}
    if by_sub[b.local] != tuple(v.blocks[i].m for i in ideal):
        problems.append(("local",))
    if by_sub[tuple(range(len(dual)))] != tuple(int(i == trivial)
                                               for i in ideal):
        problems.append(("full",))
    return entries, problems + order_problems(
        [(lo, hi) for lo in entries for hi in entries
         if set(lo.sub) < set(hi.sub)], tol)


def order_problems(pairs, tol=TOL) -> list:
    """d(A^B') < d(A^B) and n'(B') <= n'(B) for each pair of entries B < B'
    with both d known."""
    problems = []
    for lo, hi in pairs:
        if None in (lo.d_invariant, hi.d_invariant):
            continue
        if not hi.d_invariant < lo.d_invariant - tol:
            problems.append(("reversal", str(lo.sub), str(hi.sub)))
        if any(p > q for p, q in zip(hi.n_prime, lo.n_prime)):
            problems.append(("monotone", str(lo.sub), str(hi.sub)))
    return problems


def group_quotient(b) -> tuple:
    """The cosets of the local part; the table of the normalized cosets,
    None unless every product is one coset; the pointed cosets, whose
    product with the coset of their dual is the local part; their table."""
    F, dual = b.module_ring.fusion, b.module_ring.dual
    r, terms = len(F), exact(b.module_ring).terms
    cosets = sorted({tuple(sorted({int(k) for l in b.local
                                   for k in np.flatnonzero(F[l, y])}))
                     for y in range(r)})
    assert sorted(y for c in cosets for y in c) == list(range(r))
    where = {y: i for i, c in enumerate(cosets) for y in c}
    with mp.workdps(mp.mp.dps + GUARD):
        e1, da = averaging(b, b.local), _reals(b.dA.values)
        bars = [product(terms, e1, [(y == c[0]) / da[y] for y in range(r)])
                for c in cosets]
        norms = [mp.fsum(q[y] ** 2 for y in c) for q, c in zip(bars, cosets)]

        def target(i, j):
            p = product(terms, bars[i], bars[j])
            coef = [mp.fsum(p[y] * q[y] for y in c) / n
                    for q, c, n in zip(bars, cosets, norms)]
            assert max(abs(p[y] - coef[where[y]] * bars[where[y]][y])
                       for y in range(r)) <= NEAR, "a product leaves the cosets"
            top = max(range(len(coef)), key=lambda k: abs(coef[k]))
            if max(abs(x - (k == top)) for k, x in enumerate(coef)) <= NEAR:
                return top
        table = [[target(i, j) for j in range(len(cosets))]
                 for i in range(len(cosets))]
    full = None if None in sum(table, []) else tuple(map(tuple, table))
    pointed = tuple(i for i, c in enumerate(cosets)
                    if table[i][where[dual[c[0]]]] == where[0])
    return (tuple(cosets), full, pointed,
            tuple(tuple(table[i][j] for j in pointed) for i in pointed))
