import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuscond import families
from fuscond.cyclotomic import ROUND_TOL, TOL, working_tol
from fuscond.errors import NumericalDegeneracyError, SchemaError
from fuscond.families import ty_ring
from fuscond.ring import group_ring, product_ring
from fuscond.wedderburn import (
    SPLIT_SEED,
    AssocAlgebra,
    BlockProfile,
    _certified,
    _float_split,
    _mantissas,
    _profile_key,
    _split,
    block_profiles,
    center_basis,
)

from grouptables import alternating, cyclic, dihedral, quaternion, symmetric
from test_ring import _relabel, d3_xy_ring, ising_ring

# Irreducible degrees of small groups, from the standard character tables.
GROUP_DEGREES = [
    (cyclic(2), [1, 1]),
    (cyclic(3), [1, 1, 1]),
    (cyclic(5), [1] * 5),
    (symmetric(3), [1, 1, 2]),
    (dihedral(4), [1, 1, 1, 1, 2]),
    (quaternion(), [1, 1, 1, 1, 2]),
    (dihedral(6), [1, 1, 1, 1, 2, 2]),
    (alternating(4), [1, 1, 1, 3]),
    (symmetric(4), [1, 1, 2, 3, 3]),
]


def mpc_product(alg, a, b):
    """a * b in mpmath numbers, term by term over the nonzero structure
    constants of the tensor: a reference apart from the sparse kernel."""
    out = [mp.mpc(0)] * alg.n
    for i, j, k in np.argwhere(alg.tensor).tolist():
        out[k] += a[i] * b[j] * int(alg.tensor[i, j, k])
    return out


def round_int(val, what):
    """The integer nearest to the mpmath value val, which must lie within
    ROUND_TOL of it: the rounding rule in mpmath numbers, a reference apart
    from the exact integer comparison of the package."""
    n = int(mp.nint(mp.re(val)))
    if abs(val - n) > ROUND_TOL:
        raise NumericalDegeneracyError(
            f"{what} = {complex(val)} is not within {ROUND_TOL} of an integer")
    return n


def block_trace(alg, block, a):
    """(1/m) tr(L_{e a}): the irreducible trace of a in the block's m x m
    matrix factor."""
    return alg.trace_left_mult(mpc_product(alg, block.idempotent, a)) / block.m


@pytest.mark.parametrize("grp,degrees", GROUP_DEGREES,
                         ids=[f"g{i}" for i in range(len(GROUP_DEGREES))])
def test_group_algebra_block_degrees(grp, degrees):
    table, inverse = grp
    alg = AssocAlgebra.from_based_ring(group_ring(table, inverse))
    blocks = block_profiles(alg)
    assert sorted(b.m for b in blocks) == sorted(degrees)
    assert sum(b.block_dim for b in blocks) == len(table)


def test_center_dimension_counts_conjugacy_classes():
    cases = [(symmetric(3), 3), (quaternion(), 5), (alternating(4), 4)]
    for (table, inverse), classes in cases:
        alg = AssocAlgebra.from_based_ring(group_ring(table, inverse))
        assert len(center_basis(alg)) == classes


@mp.workdps(64)
def test_idempotents_orthogonal_and_complete():
    alg = AssocAlgebra.from_based_ring(group_ring(*symmetric(3)))
    idems = [b.idempotent for b in block_profiles(alg)]
    total = [sum(col) for col in zip(*idems)]
    assert abs(total[0] - 1) < 1e-20
    assert all(abs(total[k]) < 1e-20 for k in range(1, alg.n))
    for i, e in enumerate(idems):
        for j, f in enumerate(idems):
            prod = mpc_product(alg, e, f)
            want = e if i == j else [0] * alg.n
            assert max(abs(prod[k] - want[k]) for k in range(alg.n)) < 1e-20


@mp.workdps(64)
def test_trace_identity():
    rng = random.Random(11)
    for ring in (group_ring(*symmetric(3)), d3_xy_ring()):
        alg = AssocAlgebra.from_based_ring(ring)
        blocks = block_profiles(alg)
        a = [rng.randint(-5, 5) for _ in range(alg.n)]
        lhs = sum(b.m * block_trace(alg, b, a) for b in blocks)
        rhs = alg.trace_left_mult(a)
        assert abs(lhs - rhs) < 1e-20


def test_determinism():
    alg = AssocAlgebra.from_based_ring(group_ring(*dihedral(6)))
    runs = []
    for _ in range(2):
        blocks = block_profiles(alg)
        runs.append([
            (b.m, tuple(round(float(mp.re(c)), 9) for c in b.idempotent))
            for b in blocks
        ])
    assert runs[0] == runs[1]


@mp.workdps(64)
def test_d3_xy_blocks():
    ring = d3_xy_ring()
    alg = AssocAlgebra.from_based_ring(ring)
    blocks = block_profiles(alg)
    assert sorted(b.m for b in blocks) == [1, 1, 1, 1, 2]
    x = [0] * 8
    x[6] = 1
    vals = []
    for b in blocks:
        tr = block_trace(alg, b, x)
        assert abs(mp.im(tr)) < 1e-15
        vals.append(float(mp.re(tr)))
    two_dim = [v for b, v in zip(blocks, vals) if b.m == 2]
    assert len(two_dim) == 1 and abs(two_dim[0]) < 1e-15
    linear = sorted(v for b, v in zip(blocks, vals) if b.m == 1)
    r3 = 3 ** 0.5
    assert np.allclose(linear, [-r3, -r3, r3, r3], atol=1e-12)
    # reflections are traceless in the 2-dim block too
    s0 = [0] * 8
    s0[3] = 1
    b2 = next(b for b in blocks if b.m == 2)
    assert abs(block_trace(alg, b2, s0)) < 1e-15


def test_ising_ring_blocks():
    alg = AssocAlgebra.from_based_ring(ising_ring())
    blocks = block_profiles(alg)
    assert [b.m for b in blocks] == [1, 1, 1]
    s = [0, 0, 1]
    vals = sorted(float(mp.re(block_trace(alg, b, s))) for b in blocks)
    assert np.allclose(vals, [-(2 ** 0.5), 0.0, 2 ** 0.5], atol=1e-12)


@pytest.mark.parametrize("m", range(2, 13))
def test_ty_ring_splits_into_linear_blocks(m):
    # K(TY(Z_m)) is commutative of rank m + 1: the m - 1 nontrivial
    # characters of Z_m kill T, and the trivial one extends by T = +-sqrt(m)
    alg = AssocAlgebra.from_based_ring(ty_ring(m))
    for digits in (15, 64):
        with mp.workdps(digits):
            assert [b.m for b in block_profiles(alg)] == [1] * (m + 1)


def test_nilpotent_algebra_fails_to_split():
    # C[x] / x^2: commutative but not semisimple
    T = np.zeros((2, 2, 2), dtype=np.int64)
    T[0, 0, 0] = T[0, 1, 1] = T[1, 0, 1] = 1
    alg = AssocAlgebra(T)
    assert len(center_basis(alg)) == 2
    with pytest.raises(NumericalDegeneracyError):
        block_profiles(alg)


def test_unit_required():
    T = np.zeros((2, 2, 2), dtype=np.int64)
    with pytest.raises(SchemaError):
        AssocAlgebra(T)


def test_rank_one():
    T = np.ones((1, 1, 1), dtype=np.int64)
    alg = AssocAlgebra(T)
    blocks = block_profiles(alg)
    assert len(blocks) == 1 and blocks[0].m == 1


# Small groups with their irreducible degrees; a product ring's degrees are
# the pairwise products.
PROPERTY_GROUPS = [
    (cyclic(1), [1]),
    (cyclic(2), [1, 1]),
    (cyclic(3), [1, 1, 1]),
    (cyclic(4), [1] * 4),
    (cyclic(5), [1] * 5),
    (symmetric(3), [1, 1, 2]),
    (dihedral(4), [1, 1, 1, 1, 2]),
    (dihedral(5), [1, 1, 2, 2]),
    (quaternion(), [1, 1, 1, 1, 2]),
    (alternating(4), [1, 1, 1, 3]),
]
_PROPERTY_RANK_CAP = 40


@st.composite
def group_rings(draw):
    """A group ring or a product of two, with its basis shuffled (the unit
    stays at index 0), and its irreducible degrees."""
    parts = draw(st.lists(st.sampled_from(PROPERTY_GROUPS), min_size=1,
                          max_size=2).filter(
        lambda ps: np.prod([len(g[0][0]) for g in ps]) <= _PROPERTY_RANK_CAP))
    ring = group_ring(*parts[0][0])
    degrees = list(parts[0][1])
    for grp, degs in parts[1:]:
        ring = product_ring(ring, group_ring(*grp))
        degrees = [a * b for a in degrees for b in degs]
    rest = draw(st.permutations(range(1, ring.rank)))
    return _relabel(ring, [0] + list(rest)), degrees


@settings(max_examples=25, deadline=None)
@given(group_rings(), st.integers(min_value=0, max_value=2 ** 32))
def test_group_ring_split_properties(case, seed):
    ring, degrees = case
    with mp.workdps(64):
        alg = AssocAlgebra.from_based_ring(ring)
        blocks = block_profiles(alg, seed=seed)
        assert sorted(b.m for b in blocks) == sorted(degrees)
        assert sum(b.m * b.m for b in blocks) == ring.rank
        tol = mp.mpf(10) ** -56
        for b in blocks:
            e = list(b.idempotent)
            sq = mpc_product(alg, e, e)
            assert max(abs(x - y) for x, y in zip(sq, e)) <= tol


# The refinement loop as it ran over mpmath numbers: Newton over the mpc
# product, stopped by the entrywise abs of e^2 - e.
def _mpc_refine(alg, guess, tol):
    e = [mp.mpc(complex(x)) for x in guess]
    for _ in range(mp.mp.dps.bit_length() + 1):
        sq = mpc_product(alg, e, e)
        if max(abs(s - x) for s, x in zip(sq, e)) <= tol:
            return e
        cube = mpc_product(alg, sq, e)
        e = [3 * s - 2 * c for s, c in zip(sq, cube)]
    return None


REFINE_RINGS = {
    "z3": lambda: group_ring(*cyclic(3)),
    "s3": lambda: group_ring(*symmetric(3)),
    "d4": lambda: group_ring(*dihedral(4)),
    "a4": lambda: group_ring(*alternating(4)),
    "ty5": lambda: ty_ring(5),
    "vlplus": lambda: families.build("vlplus-orbifold", n=1).module_ring,
}


@pytest.mark.parametrize("digits", [15, 64, 128])
@pytest.mark.parametrize("name", sorted(REFINE_RINGS))
def test_integer_refinement_matches_the_mpc_loop(name, digits):
    alg = AssocAlgebra.from_based_ring(REFINE_RINGS[name]())
    with mp.workdps(digits):
        tol = min(mp.mpf(TOL), working_tol())
        guesses = _float_split(alg, center_basis(alg),
                               random.Random(SPLIT_SEED))
        want = [_mpc_refine(alg, g, tol) for g in guesses]
        assert None not in want
        ref = []
        for e in want:
            bd = round_int(alg.trace_left_mult(e), "block dimension trace")
            ref.append(BlockProfile(idempotent=tuple(e), block_dim=bd,
                                    m=int(round(bd ** 0.5)), mantissas=None))
        ref.sort(key=_profile_key)
        blocks = block_profiles(alg)
        assert [_profile_key(b) for b in blocks] == [_profile_key(b) for b in ref]
        for b, r in zip(blocks, ref):
            assert (b.m, b.block_dim) == (r.m, r.block_dim)
            assert max(abs(x - y) for x, y in
                       zip(b.idempotent, r.idempotent)) <= working_tol()
            e = list(b.idempotent)
            assert max(abs(s - x) for s, x in zip(mpc_product(alg, e, e), e)) <= tol


def _s3_and_involution():
    table, inverse = symmetric(3)
    s = next(g for g in range(1, len(table)) if inverse[g] == g)
    return AssocAlgebra.from_based_ring(group_ring(table, inverse)), s


def test_certification_refuses_a_noncentral_idempotent():
    # (1 + s)/2 and (1 - s)/2 are nonzero idempotents summing to the unit,
    # so only the commutator check can refuse them
    alg, s = _s3_and_involution()
    half = Fraction(1, 2)
    plus, minus = [0] * alg.n, [0] * alg.n
    plus[0] = minus[0] = half
    plus[s], minus[s] = half, -half
    idems = [_mantissas(plus), _mantissas(minus)]
    tol = min(mp.mpf(TOL), working_tol())
    assert not _certified(alg, idems, 2, tol)


def test_certification_refuses_a_partial_set_and_a_zero_vector():
    alg, _ = _s3_and_involution()
    tol = min(mp.mpf(TOL), working_tol())
    idems = _split(alg, SPLIT_SEED)
    assert _certified(alg, idems, len(idems), tol)
    # one idempotent dropped: the rest do not sum to the unit
    assert not _certified(alg, idems[1:], len(idems) - 1, tol)
    # a zero vector added: idempotent, central, the sum unchanged
    zero = ([0] * alg.n, [0] * alg.n, idems[0][2])
    assert not _certified(alg, idems + [zero], len(idems) + 1, tol)
