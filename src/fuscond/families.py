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
from .ring import BasedRing, DimVector, group_ring

FAMILY_CAP = 12  # the largest n of the a2n and a2nplus1 families


def _coset_ring(table, cosets, labels) -> BasedRing:
    """The group ring of a Cayley table plus one object X_c per coset c of
    a normal subgroup H = cosets[0]: g X_c = X_{gc}, X_c g = X_{cg},
    X_c X_d = the sum of the coset cdH, and X_c* = X_{c^-1}."""
    group = group_ring(table)
    n, k = group.rank, len(cosets)
    table = np.asarray(table)
    coset_of = np.empty(n, dtype=np.int64)
    for c, members in enumerate(cosets):
        coset_of[list(members)] = c
    reps = np.array([members[0] for members in cosets])
    g, c = np.arange(n)[:, None], np.arange(k)[None, :]
    F = np.zeros((n + k,) * 3, dtype=np.int64)
    F[:n, :n, :n] = group.fusion
    F[g, n + c, n + coset_of[table[:, reps]]] = 1
    F[n + c.T, g.T, n + coset_of[table[reps]]] = 1
    F[n:, n:, :n] = coset_of[table[np.ix_(reps, reps)]][:, :, None] == coset_of
    dual = group.dual + tuple(n + int(coset_of[group.dual[r]]) for r in reps)
    return BasedRing(labels=labels, fusion=F, dual=dual)


def _dihedral(m: int) -> np.ndarray:
    """Cayley table of the dihedral group of order 2m: rotations 0..m-1,
    then m + a for rotation^a * flip."""
    rot, flip = np.arange(2 * m) % m, np.arange(2 * m) // m
    sign = 1 - 2 * flip[:, None]
    return (rot[:, None] + sign * rot) % m + m * (flip[:, None] ^ flip)


def _dihedral_labels(m: int) -> tuple:
    return (("1",) + tuple(f"r{a}" for a in range(1, m))
            + tuple(f"s{a}" for a in range(m)))


def ty_ring(m: int) -> BasedRing:
    """Tambara-Yamagami ring over Z_m: the group plus one object T with
    gT = Tg = T and T^2 = sum of the group."""
    table = np.add.outer(np.arange(m), np.arange(m)) % m
    labels = ("1",) + tuple(f"g{a}" for a in range(1, m)) + ("T",)
    return _coset_ring(table, [range(m)], labels)


def xy_module_ring(n: int) -> BasedRing:
    """Fusion ring with basis the dihedral group of order 2(2n+1) plus two
    central objects X, Y of dimension sqrt(2n+1), one per coset of the
    rotations: rotations fix X and Y, reflections swap them, X^2 = Y^2 =
    sum of rotations, XY = sum of reflections."""
    m = 2 * n + 1
    return _coset_ring(_dihedral(m), [range(m), range(m, 2 * m)],
                       _dihedral_labels(m) + ("X", "Y"))


def xy2_module_ring(n: int) -> BasedRing:
    """Fusion ring with basis the dihedral group of order 2(2n+2) plus four
    central objects X1, X2, Y1, Y2 of dimension sqrt(n+1), one per coset of
    the even rotations: the even rotations, the odd rotations, the even
    and the odd reflections.  Odd rotations swap X1, X2 (and Y1, Y2);
    reflections exchange the X and Y pairs with the same parity rule;
    Xi^2 = sum of even rotations."""
    p = 2 * n + 2
    cosets = [range(start, start + p, 2) for start in (0, 1, p, p + 1)]
    return _coset_ring(_dihedral(p), cosets,
                       _dihedral_labels(p) + ("X1", "X2", "Y1", "Y2"))


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
    mids, odd = slice(2, n + 2), slice(n + 2, r)
    # m_u for u mod m as a basis vector: m_0 = 1 + j and m_{-u} = m_u
    u = np.arange(1, m)
    M = np.zeros((m, r), dtype=np.int64)
    M[0, :2] = 1
    M[u, 1 + np.minimum(u, m - u)] = 1
    F = np.zeros((r, r, r), dtype=np.int64)
    every = np.arange(r)
    # j swaps 1 and j, fixes each m_u and swaps s+ and s-
    jx = np.r_[1, 0, every[mids], r - 1, r - 2]
    F[0, every, every] = F[every, 0, every] = 1
    F[1, every, jx] = F[every, 1, jx] = 1
    # the even part is Rep(D_m): m_a m_b = m_{a+b} + m_{a-b}
    a = np.arange(1, n + 1)
    F[mids, mids] = M[(a[:, None] + a) % m] + M[(a[:, None] - a) % m]
    # m_u s = s m_u = s+ + s-; s s' = 1 (s' = s) or j (s' != s) + sum m_u
    F[mids, odd, odd] = F[odd, mids, odd] = 1
    F[odd, odd, 0] = np.eye(2, dtype=np.int64)
    F[odd, odd, 1] = 1 - np.eye(2, dtype=np.int64)
    F[odd, odd, mids] = 1
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
    # the half maps: 1, j -> 1; m_i -> r_i + r_-i; s+, s- -> Y under L
    # and X under K
    L = np.zeros((ring.rank, module.rank), dtype=np.int64)
    L[[0, 1], 0] = 1
    i = np.arange(1, n + 1)
    L[1 + i, i] = L[1 + i, m - i] = 1
    K = L.copy()
    L[[n + 2, n + 3], Y] = 1
    K[[n + 2, n + 3], X] = 1
    # M[(a, b)] = L(a) K(b) in the module ring
    M = np.einsum("bj,ajk->abk", K, np.tensordot(L, module.fusion, 1))
    M = M.reshape(amb.rank, module.rank)

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
    module = group_ring([[0, 1], [1, 0]], labels=("1", "M"))
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


def check_parameters(family: str, n=None, mtc=None) -> dict:
    """The FAMILIES entry of family, once the given parameters fit it: an
    unknown family, an n or mtc that the family does not take, and a
    missing one it needs are refused with CapabilityError.  Only whether
    n and mtc are given is read."""
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise CapabilityError(f"unknown family {family!r}; known: {known}")
    entry = FAMILIES[family]
    for name, given in (("n", n), ("mtc", mtc)):
        if given is not None and entry["needs"] != name:
            raise CapabilityError(
                f"family {family} takes no parameter {name}")
    if entry["needs"] == "n" and n is None:
        raise CapabilityError(f"family {family} needs a parameter n")
    if entry["needs"] == "mtc" and mtc is None:
        raise CapabilityError(f"family {family} needs modular data")
    return entry


def build(family: str, n: int | None = None, mtc: ModularData | None = None):
    """Materialize a built-in bundle by family name.  An n or mtc that the
    family does not take is refused, not ignored (check_parameters)."""
    entry = check_parameters(family, n, mtc)
    if entry["needs"] == "n":
        return entry["build"](n)
    if entry["needs"] == "mtc":
        return entry["build"](mtc)
    return entry["build"]()
