"""Built-in family bundles: structure, axioms, and frozen small cases.

Expected numbers come from hand calculations on the defining data (fusion
rules, twists, dimension counts), not from the code under test.
"""
import hashlib

import numpy as np
import pytest

from fuscond.condense import check_bundle, codegree_check, indicator
from fuscond.cyclotomic import Cyc, as_mpc, exact_scalar
from fuscond.errors import CapabilityError
from fuscond.families import (
    FAMILIES,
    FAMILY_CAP,
    _dihedral,
    a2n,
    a2nplus1,
    build,
    half_ring,
    half_table,
    ising_modular,
    toric_code,
    toric_modular,
    ty_ring,
    vlplus_orbifold,
    xy2_module_ring,
    xy_module_ring,
)
from fuscond.ring import enumerate_subrings, fp_dims, validate
from fuscond.serialize import dumps, emit_any

from cached_bundles import bundle, swr
from grouptables import dihedral


def basis_vec(rank, i):
    v = [0] * rank
    v[i] = 1
    return v


# ---------------------------------------------------------------- half rings


@pytest.mark.parametrize("n", range(1, 7))
def test_half_ring_axioms(n):
    ring, dims, twists = half_ring(n)
    assert ring.rank == n + 4
    assert not validate(ring).problems
    expect = [1.0, 1.0] + [2.0] * n + [(2 * n + 1) ** 0.5] * 2
    assert np.allclose(fp_dims(ring), expect, atol=1e-9)
    for dv, fv in zip(dims, expect):
        assert abs(complex(as_mpc(dv)) - fv) < 1e-12
    for t in twists:
        assert t * t.conj() == Cyc.rational(1)


def test_half_ring_small_products():
    ring, dims, twists = half_ring(1)
    assert ring.labels == ("1", "j", "m1", "s+", "s-")
    one, j, m1, sp, sm = range(5)
    assert list(ring.fusion[m1, m1]) == [1, 1, 1, 0, 0]
    assert list(ring.fusion[sp, sp]) == [1, 0, 1, 0, 0]
    assert list(ring.fusion[sp, sm]) == [0, 1, 1, 0, 0]
    assert list(ring.fusion[j, sp]) == [0, 0, 0, 0, 1]
    assert twists[m1] == Cyc.zeta(3, 1)
    assert twists[sp] == Cyc.zeta(8, 1)
    assert twists[sm] == -Cyc.zeta(8, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_half_ring_twist_orders(n):
    # middle-object twists live in the 2(2n+1)-th roots, spinor twists in
    # the eighth roots; all are exact roots of unity
    ring, dims, twists = half_ring(n)
    m = 2 * n + 1
    for i in range(1, n + 1):
        assert twists[1 + i] == Cyc.zeta(2 * m, (i * (m - i)) % (2 * m))
    assert twists[n + 2] == Cyc.zeta(8, n % 8)


# --------------------------------------------------------------- module rings


@pytest.mark.parametrize("n", range(1, 7))
def test_xy_module_ring_axioms(n):
    ring = xy_module_ring(n)
    m = 2 * n + 1
    assert ring.rank == 4 * n + 4
    assert not validate(ring).problems
    X, Y = 2 * m, 2 * m + 1
    # X and Y are central
    for t in (X, Y):
        assert np.array_equal(ring.fusion[t, :, :], ring.fusion[:, t, :])
    assert list(ring.fusion[X, X, :m]) == [1] * m
    assert list(ring.fusion[X, X, m:]) == [0] * (m + 2)
    assert list(ring.fusion[X, Y, m:2 * m]) == [1] * m
    d = fp_dims(ring)
    assert np.allclose(d[:2 * m], 1.0, atol=1e-9)
    assert np.allclose(d[2 * m:], m ** 0.5, atol=1e-9)


@pytest.mark.parametrize("n", range(1, 7))
def test_xy2_module_ring_axioms(n):
    ring = xy2_module_ring(n)
    p = 2 * n + 2
    assert ring.rank == 4 * n + 8
    assert not validate(ring).problems
    X1, X2, Y1, Y2 = 2 * p, 2 * p + 1, 2 * p + 2, 2 * p + 3
    for t in (X1, X2, Y1, Y2):
        assert np.array_equal(ring.fusion[t, :, :], ring.fusion[:, t, :])
    # X1^2 hits even rotations, X1 X2 odd rotations, X1 Y2 odd reflections
    even = [2 * t for t in range(n + 1)]
    odd = [2 * t + 1 for t in range(n + 1)]
    assert sorted(np.nonzero(ring.fusion[X1, X1])[0]) == even
    assert sorted(np.nonzero(ring.fusion[X1, X2])[0]) == odd
    assert sorted(np.nonzero(ring.fusion[X1, Y2])[0]) == [p + a for a in odd]
    assert sorted(np.nonzero(ring.fusion[X2, Y2])[0]) == [p + a for a in even]
    # odd rotations swap the X pair
    assert ring.fusion[1, X1, X2] == 1 and ring.fusion[1, X2, X1] == 1


# ------------------------------------------------------------------ a2n family


@pytest.mark.parametrize("n", range(1, 5))
def test_a2n_bundle_checks(n):
    b = bundle("a2n", n)
    assert b.ambient.rank == (n + 4) ** 2
    assert b.module_ring.rank == 4 * n + 4
    assert not check_bundle(b).problems


@pytest.mark.parametrize("n", range(1, 5))
def test_a2n_algebra_decomposition(n):
    # A = 1.1 + 1.j + j.1 + j.j + 2 (m_r.m_r) and nothing else
    b = bundle("a2n", n)
    amb = b.ambient
    expected = {}
    for la in ("1", "j"):
        for lb in ("1", "j"):
            expected[f"{la}.{lb}"] = 1
    for r in range(1, n + 1):
        expected[f"m{r}.m{r}"] = 2
    got = {amb.labels[x]: v for x, v in enumerate(b.mult) if v}
    assert got == expected
    assert sum(v * v for v in b.mult) == b.module_ring.rank


@pytest.mark.parametrize("n", range(1, 5))
def test_a2n_condensed_dimension_exact(n):
    b = bundle("a2n", n)
    total = sum(exact_scalar(v) ** 2 for v in b.dA.values)
    assert total == Cyc.rational(8 * n + 4)
    # and the ambient global dimension over d(A) agrees
    d_alg = sum(m * exact_scalar(b.ambient.dims[x])
                for x, m in enumerate(b.mult) if m)
    assert b.ambient.global_dim() == d_alg * Cyc.rational(8 * n + 4)


@pytest.mark.parametrize("n", range(1, 5))
def test_a2n_schur_weyl(n):
    b = bundle("a2n", n)
    r = swr("a2n", n)
    assert r.kernel_dim == 0
    assert sorted(bp.m for bp in r.ideal_blocks()) == [1] * 4 + [2] * n
    matched = sorted(b.ambient.labels[x] for _, x in r.matched_pairs())
    assert matched == sorted(["1.1", "1.j", "j.1", "j.j"]
                             + [f"m{i}.m{i}" for i in range(1, n + 1)])
    assert not r.matching_skipped


def test_a2n_indicator_spot_values():
    # frozen linear characters of the rank-8 module ring: the block matched
    # to 1.j sends a reflection to -1, X to -sqrt(3), Y to +sqrt(3); the
    # two-dimensional block matched to m1.m1 sends a rotation to -1 and
    # kills reflections, X and Y
    b = bundle("a2n", 1)
    r = swr("a2n", 1)
    rank = b.module_ring.rank
    rt3 = 3 ** 0.5

    def ind(label, i):
        return complex(indicator(r, label, basis_vec(rank, i)))

    assert abs(ind("1.j", 3) - (-1)) < 1e-9
    assert abs(ind("1.j", 6) - (-rt3)) < 1e-9
    assert abs(ind("1.j", 7) - rt3) < 1e-9
    assert abs(ind("j.1", 6) - rt3) < 1e-9
    assert abs(ind("j.1", 7) - (-rt3)) < 1e-9
    assert abs(ind("j.j", 6) - (-rt3)) < 1e-9
    assert abs(ind("1.1", 6) - rt3) < 1e-9
    assert abs(ind("m1.m1", 1) - (-1)) < 1e-9
    for i in (3, 6, 7):
        assert abs(ind("m1.m1", i)) < 1e-9
    # unit values are the multiplicities
    assert abs(ind("m1.m1", 0) - 2) < 1e-9
    assert abs(ind("1.1", 0) - 1) < 1e-9


def test_a2n_builds_at_cap():
    for n in (FAMILY_CAP - 1, FAMILY_CAP):
        b = a2n(n)
        assert not check_bundle(b).problems


def test_a2n_range():
    with pytest.raises(CapabilityError):
        a2n(0)
    with pytest.raises(CapabilityError, match="built for n = 1..12"):
        a2n(FAMILY_CAP + 1)


# ------------------------------------------------------------ a2nplus1 family


@pytest.mark.parametrize("n", range(1, 5))
def test_a2nplus1_bundle_checks(n):
    b = bundle("a2nplus1", n)
    assert b.ambient.rank == (n + 8) ** 2
    assert b.module_ring.rank == 4 * n + 8
    assert not check_bundle(b).problems
    assert sum(v * v for v in b.mult) == b.module_ring.rank


@pytest.mark.parametrize("n", range(1, 5))
def test_a2nplus1_support_twists_exactly_one(n):
    b = bundle("a2nplus1", n)
    for x, m in enumerate(b.mult):
        if m:
            assert b.ambient.twists[x] == Cyc.rational(1)


@pytest.mark.parametrize("n", range(1, 5))
def test_a2nplus1_schur_weyl(n):
    r = swr("a2nplus1", n)
    assert r.kernel_dim == 0
    assert sorted(bp.m for bp in r.ideal_blocks()) == [1] * 8 + [2] * n
    assert r.matching_skipped
    assert r.matched == (None,) * len(r.blocks)


@pytest.mark.parametrize("n", range(1, 5))
def test_a2nplus1_ten_nongroup_subrings(n):
    # the subrings containing one of the dimension-sqrt(n+1) objects:
    # four single-object ones over the even rotations, two pair ones over
    # all rotations, four mixed ones over index-2 dihedral subgroups, plus
    # the full ring
    ring = bundle("a2nplus1", n).module_ring
    cut = 4 * n + 4
    found = enumerate_subrings(ring)
    full = tuple(range(ring.rank))
    nongroup = [s for s in found if s != full and any(i >= cut for i in s)]
    assert len(nongroup) == 10


def test_a2nplus1_n1_nongroup_inventory():
    ring = bundle("a2nplus1", 1).module_ring
    # p = 4: rotations 0..3, reflections 4..7, X1 X2 Y1 Y2 = 8 9 10 11
    found = set(enumerate_subrings(ring))
    assert (0, 2, 8) in found
    assert (0, 2, 9) in found
    assert (0, 2, 10) in found
    assert (0, 2, 11) in found
    assert (0, 1, 2, 3, 8, 9) in found
    assert (0, 1, 2, 3, 10, 11) in found
    assert (0, 2, 4, 6, 8, 10) in found
    assert (0, 2, 5, 7, 8, 11) in found
    assert (0, 2, 4, 6, 9, 11) in found
    assert (0, 2, 5, 7, 9, 10) in found


def test_a2nplus1_range():
    with pytest.raises(CapabilityError):
        a2nplus1(0)
    with pytest.raises(CapabilityError, match="built for n = 1..12"):
        a2nplus1(FAMILY_CAP + 1)


def test_half_table_shape():
    labels, dual, dims, twists = half_table(2)
    assert len(labels) == 10
    assert labels[:4] == ("1", "j", "c+", "c-")
    assert dual == tuple(range(10))
    assert dims[4] == Cyc.rational(2)
    assert twists[0] == Cyc.rational(1)


# ------------------------------------------------------------ small orbifold


def test_vlplus_orbifold_frozen_data():
    b = bundle("vlplus-orbifold", 1)
    amb = b.ambient
    assert amb.labels == ("1", "j", "m1", "s+", "s-")
    assert b.mult == (1, 1, 0, 0, 0)
    assert b.module_ring.labels == ("1", "g1", "g2", "T")
    assert b.local == (0, 1, 2)
    expect = np.array([[1, 0, 0, 0],
                       [1, 0, 0, 0],
                       [0, 1, 1, 0],
                       [0, 0, 0, 1],
                       [0, 0, 0, 1]])
    assert np.array_equal(np.asarray(b.induction), expect)
    assert exact_scalar(b.dA[3]) == Cyc.sqrt_int(3)
    assert not check_bundle(b).problems


def test_vlplus_orbifold_schur_weyl():
    b = bundle("vlplus-orbifold", 1)
    r = swr("vlplus-orbifold", 1)
    assert r.kernel_dim == 2
    assert sorted(bp.m for bp in r.ideal_blocks()) == [1, 1]
    matched = sorted(b.ambient.labels[x] for _, x in r.matched_pairs())
    assert matched == ["1", "j"]


def test_vlplus_orbifold_range():
    with pytest.raises(CapabilityError):
        vlplus_orbifold(2)


def test_ty_ring_structure():
    ring = ty_ring(4)
    assert ring.rank == 5
    assert not validate(ring).problems
    assert list(ring.fusion[4, 4]) == [1, 1, 1, 1, 0]
    assert ring.dual == (0, 3, 2, 1, 4)


# ------------------------------------------------------------------- oracles


def test_toric_code_bundle():
    b = bundle("toric-code")
    assert not check_bundle(b).problems
    r = swr("toric-code")
    assert r.kernel_dim == 0
    assert sorted(bp.m for bp in r.ideal_blocks()) == [1, 1]
    matched = sorted(b.ambient.labels[x] for _, x in r.matched_pairs())
    assert matched == ["1", "e"]
    cg = codegree_check(r)
    assert cg.ok and cg.residual < 1e-9
    assert sorted(v for _, v in cg.entries) == [2.0, 2.0]


def test_ising_square_bundle():
    b = bundle("ising-square")
    assert b.ambient.rank == 9
    assert b.module_ring.rank == 3
    assert not check_bundle(b).problems
    r = swr("ising-square")
    assert r.kernel_dim == 0
    assert sorted(bp.m for bp in r.ideal_blocks()) == [1, 1, 1]
    matched = sorted(b.ambient.labels[x] for _, x in r.matched_pairs())
    assert matched == ["1.1", "p.p", "s.s"]
    cg = codegree_check(r)
    assert cg.ok and cg.residual < 1e-9
    assert dict(cg.entries) == {"1.1": 4.0, "p.p": 4.0, "s.s": 2.0}


@pytest.mark.parametrize("mdname", ["ising", "toric"])
def test_coset_characters_are_s_matrix_rows(mdname):
    # the matched block for the diagonal object i.i evaluates on the module
    # basis as S[i][k] / S[0][i]
    md = ising_modular() if mdname == "ising" else toric_modular()
    key = "ising-square" if mdname == "ising" else "coset-toric"
    b = bundle(key)
    assert not check_bundle(b).problems
    r = swr(key)
    assert r.kernel_dim == 0
    rank = md.rank
    for bi, x in r.matched_pairs():
        i, i2 = divmod(x, rank)
        assert i == i2
        di = as_mpc(md.s[0][i])
        for k in range(rank):
            got = r.block_value(bi, basis_vec(rank, k))
            want = as_mpc(md.s[i][k]) / di
            assert abs(complex(got - want)) < 1e-9
    assert len(r.matched_pairs()) == rank


def test_coset_induction_unit_column():
    md = ising_modular()
    b = bundle("ising-square")
    # alpha(U^j box V^0) is the single module simple j
    M = np.asarray(b.induction)
    for j in range(md.rank):
        assert list(M[j * md.rank + 0]) == basis_vec(md.rank, j)


# ------------------------------------------------------------- pinned bytes


def _ring_digest(rings):
    h = hashlib.sha256()
    for r in rings:
        h.update(repr((r.labels, r.dual, r.fusion.shape)).encode())
        h.update(np.ascontiguousarray(r.fusion, dtype=np.int64).tobytes())
    return h.hexdigest()


def _bundle_digest(bundles):
    h = hashlib.sha256()
    for b in bundles:
        h.update(dumps(emit_any(b)).encode())
    return h.hexdigest()


# sha256 of the labels, dual and fusion bytes of each module ring, and of
# the emitted bundle bytes, over the sizes named; recorded when every
# module ring was still filled entry by entry
BUILT_SHA256 = {
    "ty_ring": ("58e8f40c40737839ba3d4f8fe23f51e5"
                "4fcde9eacbde4cc200d3aa8a0e6ea7ef"),
    "xy_module_ring": ("cf5fbf399e3014b3f4aad02b08e03c5a"
                       "d341d56abc11f32f5989ffe6dd73b962"),
    "xy2_module_ring": ("a4a3fa1d5208dbf401fe6f4ca5885abe"
                        "2dc389b6f8026a6d4a18c2bb91b8f907"),
    "toric module ring": ("c9d03cac340f59e6461a4d5fcbf161dd"
                          "ae2cfde5706fcd3723e95b67a1c4c0bf"),
    "a2n": ("63787b8a036e800b13d59efa63628faf"
            "44d560df5d4b14b4d9fad6421b927797"),
    "a2nplus1": ("3714301896791cafc151b1766b5190e2"
                 "e8a70a38b835c09629e0be3d34763f30"),
    "vlplus-orbifold": ("d8db8f21da16eb1f1322d761375dfb5a"
                        "4ed14886f6db57f48219c64fc7374235"),
    "toric-code": ("453260808f461ed3f75fc793dbae0ca1"
                   "dd2847e135ca817aad81714c0b1131db"),
}

BUILT = {
    "ty_ring": lambda: _ring_digest(ty_ring(m) for m in range(1, 13)),
    "xy_module_ring": lambda: _ring_digest(
        xy_module_ring(n) for n in range(13)),
    "xy2_module_ring": lambda: _ring_digest(
        xy2_module_ring(n) for n in range(13)),
    "toric module ring": lambda: _ring_digest([toric_code().module_ring]),
    "a2n": lambda: _bundle_digest(a2n(n) for n in range(1, 13)),
    "a2nplus1": lambda: _bundle_digest(a2nplus1(n) for n in range(1, 13)),
    "vlplus-orbifold": lambda: _bundle_digest([vlplus_orbifold(1)]),
    "toric-code": lambda: _bundle_digest([toric_code()]),
}


@pytest.mark.parametrize("name", sorted(BUILT_SHA256))
def test_built_rings_and_bundles_are_pinned(name):
    assert BUILT[name]() == BUILT_SHA256[name]


@pytest.mark.parametrize("m", range(1, 13))
def test_dihedral_table_matches_the_independent_one(m):
    table, _ = dihedral(m)
    assert np.array_equal(_dihedral(m), np.array(table))


# ------------------------------------------------------------------ registry


def test_registry_names():
    assert set(FAMILIES) == {"a2n", "a2nplus1", "vlplus-orbifold",
                             "toric-code", "ising-square", "coset-diagonal",
                             "coset-su2"}


def test_build_dispatch():
    assert build("toric-code").ambient.rank == 4
    assert build("a2n", n=2).module_ring.rank == 12
    assert build("coset-diagonal", mtc=ising_modular()).ambient.rank == 9
    assert build("coset-su2", n=2).ambient.rank == 9
    with pytest.raises(CapabilityError):
        build("nope")
    for k in (0, 11):
        with pytest.raises(CapabilityError, match="built for n = 1..10"):
            build("coset-su2", n=k)
    with pytest.raises(CapabilityError):
        build("a2n")
    with pytest.raises(CapabilityError):
        build("coset-diagonal")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_build_refuses_a_parameter_the_family_does_not_take(family):
    # each parameter the family does not need is refused, even when the
    # one it needs is given too
    needs = FAMILIES[family]["needs"]
    given = {"n": 1, "mtc": ising_modular()}
    for name in set(given) - {needs}:
        kwargs = {name: given[name]}
        if needs is not None:
            kwargs[needs] = given[needs]
        with pytest.raises(CapabilityError,
                           match=f"family {family} takes no parameter "
                                 f"{name}$"):
            build(family, **kwargs)
