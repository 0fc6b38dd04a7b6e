"""Built-in condensation bundles.

Two infinite families coming from lattice VOAs fixed by a dihedral group
(the orbifolds of V_{A_m} for m even and odd), the small rank-5 orbifold
bundle, two exactly-solvable oracles (toric code, squared Ising), and the
diagonal coset construction over any modular datum, built in for SU(2)_k.
"""
from __future__ import annotations

import numpy as np

from .condense import Ambient, CondensableAlgebra, CondensationBundle
from .cyclotomic import Cyc
from .errors import CapabilityError
from .modular import ModularData, deligne, dims as modular_dims, verlinde
from .ring import BasedRing, DimVector, element_product

FAMILY_CAP = 12  # the largest n of the a2n and a2nplus1 families


def ty_ring(m: int) -> BasedRing:
    """Tambara-Yamagami ring over Z_m: the group plus one object T with
    gT = Tg = T and T^2 = sum of the group."""
    r = m + 1
    F = np.zeros((r, r, r), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            F[a, b, (a + b) % m] = 1
        F[a, m, m] = F[m, a, m] = 1
    for a in range(m):
        F[m, m, a] = 1
    dual = tuple((-a) % m for a in range(m)) + (m,)
    labels = ("1",) + tuple(f"g{a}" for a in range(1, m)) + ("T",)
    return BasedRing(labels=labels, fusion=F, dual=dual)


def _dihedral_indices(m: int):
    """Index layout used by the module rings: rotations 0..m-1 then
    reflections m..2m-1 (reflection a stands for rotation^a * flip)."""
    def rot(a):
        return a % m

    def refl(a):
        return m + (a % m)

    return rot, refl


def _fill_dihedral(F, m: int):
    rot, refl = _dihedral_indices(m)
    for a in range(m):
        for b in range(m):
            F[rot(a), rot(b), rot(a + b)] = 1
            F[rot(a), refl(b), refl(a + b)] = 1
            F[refl(a), rot(b), refl(a - b)] = 1
            F[refl(a), refl(b), rot(a - b)] = 1


def xy_module_ring(n: int) -> BasedRing:
    """Fusion ring with basis the dihedral group of order 2(2n+1) plus two
    central objects X, Y of dimension sqrt(2n+1): rotations fix X and Y,
    reflections swap them, X^2 = Y^2 = sum of rotations, XY = sum of
    reflections."""
    m = 2 * n + 1
    r = 2 * m + 2
    X, Y = 2 * m, 2 * m + 1
    rot, refl = _dihedral_indices(m)
    F = np.zeros((r, r, r), dtype=np.int64)
    _fill_dihedral(F, m)
    for a in range(m):
        F[rot(a), X, X] = F[X, rot(a), X] = 1
        F[rot(a), Y, Y] = F[Y, rot(a), Y] = 1
        F[refl(a), X, Y] = F[X, refl(a), Y] = 1
        F[refl(a), Y, X] = F[Y, refl(a), X] = 1
    for a in range(m):
        F[X, X, rot(a)] = F[Y, Y, rot(a)] = 1
        F[X, Y, refl(a)] = F[Y, X, refl(a)] = 1
    dual = tuple(rot(-a) for a in range(m)) + tuple(refl(a) for a in range(m)) + (X, Y)
    labels = (("1",) + tuple(f"r{a}" for a in range(1, m))
              + tuple(f"s{a}" for a in range(m)) + ("X", "Y"))
    return BasedRing(labels=labels, fusion=F, dual=dual)


def xy2_module_ring(n: int) -> BasedRing:
    """Fusion ring with basis the dihedral group of order 2(2n+2) plus four
    central objects X1, X2, Y1, Y2 of dimension sqrt(n+1).  Odd rotations
    swap X1, X2 (and Y1, Y2); reflections exchange the X and Y pairs with
    the same parity rule; Xi^2 = sum of even rotations."""
    p = 2 * n + 2
    r = 2 * p + 4
    rot, refl = _dihedral_indices(p)
    X = (2 * p, 2 * p + 1)
    Y = (2 * p + 2, 2 * p + 3)
    F = np.zeros((r, r, r), dtype=np.int64)
    _fill_dihedral(F, p)
    for a in range(p):
        for i in range(2):
            F[rot(a), X[i], X[(i + a) % 2]] = F[X[i], rot(a), X[(i + a) % 2]] = 1
            F[rot(a), Y[i], Y[(i + a) % 2]] = F[Y[i], rot(a), Y[(i + a) % 2]] = 1
            F[refl(a), X[i], Y[(i + a) % 2]] = F[X[i], refl(a), Y[(i + a) % 2]] = 1
            F[refl(a), Y[i], X[(i + a) % 2]] = F[Y[i], refl(a), X[(i + a) % 2]] = 1
    even = [rot(2 * t) for t in range(n + 1)]
    odd = [rot(2 * t + 1) for t in range(n + 1)]
    even_f = [refl(2 * t) for t in range(n + 1)]
    odd_f = [refl(2 * t + 1) for t in range(n + 1)]
    for i in range(2):
        for j in range(2):
            targets = even if i == j else odd
            for t in targets:
                F[X[i], X[j], t] = F[Y[i], Y[j], t] = 1
            ftargets = even_f if i == j else odd_f
            for t in ftargets:
                F[X[i], Y[j], t] = F[Y[i], X[j], t] = 1
    dual = (tuple(rot(-a) for a in range(p))
            + tuple(refl(a) for a in range(p)) + X + Y)
    labels = (("1",) + tuple(f"r{a}" for a in range(1, p))
              + tuple(f"s{a}" for a in range(p)) + ("X1", "X2", "Y1", "Y2"))
    return BasedRing(labels=labels, fusion=F, dual=dual)


def half_ring(n: int):
    """The rank n+4 fusion ring of the even part of the A_{2n} lattice VOA,
    with its exact dimensions and twists: unit, a simple current j, middle
    objects m_1..m_n of dimension 2, and two twisted objects s+, s- of
    dimension sqrt(2n+1).

    Returns (ring, dims, twists); conjugate the twists for the commutant
    side of the pairing.
    """
    m = 2 * n + 1
    r = n + 4
    one, jj = 0, 1
    sp, sm = n + 2, n + 3

    def mid(u):
        u = u % m
        if u == 0:
            raise ValueError("middle-object index collapsed to the unit")
        return 1 + min(u, m - u)

    F = np.zeros((r, r, r), dtype=np.int64)
    for a in range(r):
        F[one, a, a] = F[a, one, a] = 1
    F[jj, jj, one] = 1
    F[jj, sp, sm] = F[sp, jj, sm] = 1
    F[jj, sm, sp] = F[sm, jj, sp] = 1
    for i in range(1, n + 1):
        mi = 1 + i
        F[jj, mi, mi] = F[mi, jj, mi] = 1
        for j in range(1, n + 1):
            mj = 1 + j
            if i == j:
                F[mi, mi, one] += 1
                F[mi, mi, jj] += 1
                F[mi, mi, mid(2 * i)] += 1
            else:
                F[mi, mj, mid(i + j)] += 1
                F[mi, mj, mid(i - j)] += 1
        for t in (sp, sm):
            F[mi, t, sp] = F[mi, t, sm] = 1
            F[t, mi, sp] = F[t, mi, sm] = 1
    for t in (sp, sm):
        F[sp, t, one if t == sp else jj] = 1
        F[sm, t, one if t == sm else jj] = 1
        for i in range(1, n + 1):
            F[sp, t, 1 + i] = 1
            F[sm, t, 1 + i] = 1
    labels = ("1", "j") + tuple(f"m{i}" for i in range(1, n + 1)) + ("s+", "s-")
    ring = BasedRing(labels=labels, fusion=F, dual=tuple(range(r)))

    rt = Cyc.sqrt_int(m)
    dims = (Cyc.rational(1), Cyc.rational(1)) + (Cyc.rational(2),) * n + (rt, rt)
    ts = Cyc.zeta(8, n % 8)
    twists = ((Cyc.rational(1), Cyc.rational(1))
              + tuple(Cyc.zeta(2 * m, (i * (m - i)) % (2 * m))
                      for i in range(1, n + 1))
              + (ts, -ts))
    return ring, dims, twists


def half_table(n: int):
    """Label/dual/dims/twists table for the even part of the A_{2n+1}
    lattice VOA (rank n+8).  The full fusion ring of this side is not part
    of the bundled data, so only the table is produced."""
    p = 2 * n + 2
    labels = (("1", "j", "c+", "c-")
              + tuple(f"e{i}" for i in range(1, n + 1))
              + ("t1+", "t1-", "t2+", "t2-"))
    rt = Cyc.sqrt_int(n + 1)
    one = Cyc.rational(1)
    dims = (one, one, one, one) + (Cyc.rational(2),) * n + (rt,) * 4
    tc = Cyc.zeta(4, (n + 1) % 4)
    tt = Cyc.zeta(16, (2 * n + 1) % 16)
    twists = ((one, one, tc, tc)
              + tuple(Cyc.zeta(2 * p, (i * (p - i)) % (2 * p))
                      for i in range(1, n + 1))
              + (tt, -tt, tt, -tt))
    dual = tuple(range(n + 8))
    return labels, dual, dims, twists


def _conjugate_twists(twists):
    return tuple(t.conj() for t in twists)


def a2n(n: int) -> CondensationBundle:
    """Holomorphic extension bundle over the square of the A_{2n} half
    ring, kept as a product ambient of the half ring and its conjugate-twist
    copy.  The module ring is the dihedral group of order 2(2n+1) with two
    extra central objects; induction is built from the two half maps."""
    if not 1 <= n <= FAMILY_CAP:
        raise CapabilityError(f"family a2n is built for n = 1..{FAMILY_CAP}")
    ring, dims, twists = half_ring(n)
    dims = DimVector(values=dims)
    amb = Ambient.from_product(
        Ambient.from_ring(ring, dims, twists=twists),
        Ambient.from_ring(ring, dims, twists=_conjugate_twists(twists)))

    module = xy_module_ring(n)
    m = 2 * n + 1
    X, Y = 2 * m, 2 * m + 1
    rank_h = ring.rank

    def unit_vec():
        v = [0] * module.rank
        v[0] = 1
        return v

    def rot_pair(i):
        v = [0] * module.rank
        v[i % m] += 1
        v[(-i) % m] += 1
        return v

    img_L, img_K = [], []
    for i in range(rank_h):
        if i in (0, 1):
            img_L.append(unit_vec())
            img_K.append(unit_vec())
        elif i < 2 + n:
            img_L.append(rot_pair(i - 1))
            img_K.append(rot_pair(i - 1))
        else:
            vl = [0] * module.rank
            vl[Y] = 1
            img_L.append(vl)
            vk = [0] * module.rank
            vk[X] = 1
            img_K.append(vk)

    M = np.zeros((amb.rank, module.rank), dtype=np.int64)
    for a in range(rank_h):
        for b in range(rank_h):
            prod = element_product(module, img_L[a], img_K[b])
            M[a * rank_h + b] = [int(c) for c in prod]

    mult = tuple(int(M[x, 0]) for x in range(amb.rank))
    rt = Cyc.sqrt_int(m)
    dA = DimVector(values=(Cyc.rational(1),) * (2 * m) + (rt, rt))
    alg = CondensableAlgebra(ambient=amb, mult=mult)
    return CondensationBundle(algebra=alg, module_ring=module, dA=dA,
                              induction=M, local=(0,))


def a2nplus1(n: int) -> CondensationBundle:
    """Holomorphic extension bundle over the square of the A_{2n+1} half
    table, kept as a product ambient of two tables.  Only the ambient table
    is available, so the bundle carries no induction matrix and block
    matching is skipped downstream."""
    if not 1 <= n <= FAMILY_CAP:
        raise CapabilityError(
            f"family a2nplus1 is built for n = 1..{FAMILY_CAP}")
    labels, dual, dims, twists = half_table(n)
    r = len(labels)
    dims = DimVector(values=dims)
    amb = Ambient.from_product(
        Ambient.from_table(labels, dual, dims, twists),
        Ambient.from_table(labels, dual, dims, _conjugate_twists(twists)))

    mult = [0] * amb.rank
    for a in (0, 1):
        for b in (0, 1):
            mult[a * r + b] = 1
    for a in (2, 3):
        for b in (2, 3):
            mult[a * r + b] = 1
    for i in range(1, n + 1):
        e = 3 + i
        mult[e * r + e] = 2

    module = xy2_module_ring(n)
    p = 2 * n + 2
    rt = Cyc.sqrt_int(n + 1)
    dA = DimVector(values=(Cyc.rational(1),) * (2 * p) + (rt,) * 4)
    alg = CondensableAlgebra(ambient=amb, mult=tuple(mult))
    return CondensationBundle(algebra=alg, module_ring=module, dA=dA,
                              induction=None, local=(0,))


def vlplus_orbifold(n: int) -> CondensationBundle:
    """The full lattice VOA condensed inside the modules of its even part,
    for the A_2 root lattice.  The module category is a Tambara-Yamagami
    theory over Z_3 whose pointed part is the local one."""
    if n != 1:
        raise CapabilityError("family vlplus-orbifold is built for n = 1 only")
    ring, dims, twists = half_ring(1)
    amb = Ambient.from_ring(ring, DimVector(values=dims), twists=twists)
    module = ty_ring(3)
    M = np.array([[1, 0, 0, 0],
                  [1, 0, 0, 0],
                  [0, 1, 1, 0],
                  [0, 0, 0, 1],
                  [0, 0, 0, 1]], dtype=np.int64)
    dA = DimVector(values=(Cyc.rational(1),) * 3 + (Cyc.sqrt_int(3),))
    alg = CondensableAlgebra(ambient=amb, mult=(1, 1, 0, 0, 0))
    return CondensationBundle(algebra=alg, module_ring=module, dA=dA,
                              induction=M, local=(0, 1, 2))


def toric_modular() -> ModularData:
    s = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))
    return ModularData(labels=("1", "e", "m", "f"), dual=(0, 1, 2, 3),
                       s=s, twists=(1, 1, 1, -1))


def ising_modular() -> ModularData:
    rt2 = Cyc.sqrt_int(2)
    one = Cyc.rational(1)
    s = ((one, one, rt2), (one, one, -rt2), (rt2, -rt2, Cyc.rational(0)))
    return ModularData(labels=("1", "p", "s"), dual=(0, 1, 2),
                       s=s, twists=(one, -one, Cyc.zeta(16)))


def su2(k: int) -> ModularData:
    """SU(2)_k with simples j = 0..k, all self-dual, exact:
    S_ij = [(i+1)(j+1)]_q / [1]_q with [m]_q = z^m - z^-m, z = zeta_{2(k+2)},
    so S[0] holds the quantum dimensions; theta_j = zeta_{4(k+2)}^(j(j+2))."""
    if k < 1:
        raise CapabilityError(f"SU(2)_k needs k >= 1, got {k}")
    n = 2 * (k + 2)

    def q(m):
        return Cyc.zeta(n, m) - Cyc.zeta(n, -m)

    inv = 1 / q(1)
    s = tuple(tuple(q((i + 1) * (j + 1)) * inv for j in range(k + 1))
              for i in range(k + 1))
    twists = tuple(Cyc.zeta(2 * n, j * (j + 2)) for j in range(k + 1))
    return ModularData(labels=tuple(str(j) for j in range(k + 1)),
                       dual=tuple(range(k + 1)), s=s, twists=twists)


def toric_code() -> CondensationBundle:
    """The charge boson condensed in the toric-code double: two module
    simples, trivial local part beyond the vacuum."""
    md = toric_modular()
    amb = Ambient.from_modular(md)
    F = np.zeros((2, 2, 2), dtype=np.int64)
    F[0, 0, 0] = F[0, 1, 1] = F[1, 0, 1] = F[1, 1, 0] = 1
    module = BasedRing(labels=("1", "M"), fusion=F, dual=(0, 1))
    M = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.int64)
    dA = DimVector(values=(1, 1))
    alg = CondensableAlgebra(ambient=amb, mult=(1, 1, 0, 0))
    return CondensationBundle(algebra=alg, module_ring=module, dA=dA,
                              induction=M, local=(0,))


def coset_diagonal(md: ModularData) -> CondensationBundle:
    """Diagonal condensable algebra in U boxtimes U-reversed: the module
    ring is the fusion ring of U itself and every module simple is an
    induced diagonal object."""
    module = verlinde(md)
    amb = Ambient.from_modular(deligne(md, md.reverse()))
    r = md.rank
    mult = [0] * (r * r)
    for i in range(r):
        mult[i * r + i] = 1
    M = np.zeros((r * r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            M[i * r + j] = module.fusion[j, :, i]
    dA = modular_dims(md)
    alg = CondensableAlgebra(ambient=amb, mult=tuple(mult))
    return CondensationBundle(algebra=alg, module_ring=module, dA=dA,
                              induction=M, local=(0,))


def ising_square() -> CondensationBundle:
    return coset_diagonal(ising_modular())


def coset_su2(k: int) -> CondensationBundle:
    """Diagonal coset bundle of SU(2)_k, ambient rank (k+1)^2."""
    if not 1 <= k <= 10:
        raise CapabilityError("family coset-su2 is built for n = 1..10")
    return coset_diagonal(su2(k))


FAMILIES = {
    "a2n": {"build": a2n, "needs": "n"},
    "a2nplus1": {"build": a2nplus1, "needs": "n"},
    "vlplus-orbifold": {"build": vlplus_orbifold, "needs": "n"},
    "toric-code": {"build": toric_code, "needs": None},
    "ising-square": {"build": ising_square, "needs": None},
    "coset-diagonal": {"build": coset_diagonal, "needs": "mtc"},
    "coset-su2": {"build": coset_su2, "needs": "n"},
}


def build(family: str, n: int | None = None, mtc: ModularData | None = None):
    """Materialize a built-in bundle by family name."""
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise CapabilityError(f"unknown family {family!r}; known: {known}")
    entry = FAMILIES[family]
    if entry["needs"] == "n":
        if n is None:
            raise CapabilityError(f"family {family} needs a parameter n")
        return entry["build"](n)
    if entry["needs"] == "mtc":
        if mtc is None:
            raise CapabilityError(f"family {family} needs modular data")
        return entry["build"](mtc)
    return entry["build"]()
