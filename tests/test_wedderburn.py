import dataclasses
import hashlib
import math
import random
from fractions import Fraction
from functools import reduce
from operator import or_

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, round_nearest

from fuscond import families, wedderburn
from fuscond.condense import _averaging
from fuscond.cyclotomic import TOL, Cyc, working_tol
from fuscond.errors import NumericalDegeneracyError, SchemaError
from fuscond.families import ty_ring
from fuscond.ring import (BasedRing, _bilinear, element_product,
                          enumerate_subrings, fp_dims, group_ring,
                          product_ring)
from fuscond.mantissa import (cmp_tol, float_stack, mantissas, product,
                              rescale, rounded_on_grid, stack)
from fuscond.wedderburn import (SPLIT_SEED, _certified, _float_split, _split,
                                block_profiles, center_basis,
                                character_table)

import reference as ref
from cached_bundles import bundle
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


def mpc_values(mantissas) -> list:
    """Exact mantissas (re, im, exp) as mpmath numbers at the working
    precision, each part rounded once."""
    re_, im, exp = mantissas
    return [mp.mpc(mp.mpf((int(a), exp)), mp.mpf((int(c), exp)))
            for a, c in zip(re_, im)]


def mpc_product(ring, a, b):
    return ref.product(ref.exact(ring).terms, a, b)


def left_trace(ring, a):
    """tr(L_a) = sum_i a_i tr(L_i)."""
    return mp.fdot(a, ref.exact(ring).tr)


def block_trace(ring, block, a):
    """(1/m) tr(L_{e a}): the trace of a in the block's m x m factor."""
    e = mpc_values(block.mantissas)
    return left_trace(ring, mpc_product(ring, e, a)) / block.m


@pytest.mark.parametrize("grp,degrees", GROUP_DEGREES,
                         ids=[f"g{i}" for i in range(len(GROUP_DEGREES))])
def test_group_algebra_block_degrees(grp, degrees):
    table, inverse = grp
    blocks = block_profiles(group_ring(table, inverse))
    assert sorted(b.m for b in blocks) == sorted(degrees)
    assert sum(b.block_dim for b in blocks) == len(table)


def test_center_dimension_counts_conjugacy_classes():
    cases = [(symmetric(3), 3), (quaternion(), 5), (alternating(4), 4)]
    for (table, inverse), classes in cases:
        assert len(center_basis(group_ring(table, inverse))) == classes


@mp.workdps(64)
def test_idempotents_orthogonal_and_complete():
    ring = group_ring(*symmetric(3))
    n = ring.rank
    idems = [mpc_values(b.mantissas) for b in block_profiles(ring)]
    total = [sum(col) for col in zip(*idems)]
    assert abs(total[0] - 1) < 1e-20
    assert all(abs(total[k]) < 1e-20 for k in range(1, n))
    for i, e in enumerate(idems):
        for j, f in enumerate(idems):
            prod = mpc_product(ring, e, f)
            want = e if i == j else [0] * n
            assert max(abs(prod[k] - want[k]) for k in range(n)) < 1e-20


@mp.workdps(64)
def test_trace_identity():
    rng = random.Random(11)
    for ring in (group_ring(*symmetric(3)), d3_xy_ring()):
        blocks = block_profiles(ring)
        a = [rng.randint(-5, 5) for _ in range(ring.rank)]
        lhs = sum(b.m * block_trace(ring, b, a) for b in blocks)
        rhs = left_trace(ring, a)
        assert abs(lhs - rhs) < 1e-20


def test_determinism():
    ring = group_ring(*dihedral(6))
    runs = []
    for _ in range(2):
        blocks = block_profiles(ring)
        runs.append([
            (b.m, tuple(round(float(mp.re(c)), 9)
                        for c in mpc_values(b.mantissas)))
            for b in blocks
        ])
    assert runs[0] == runs[1]


@mp.workdps(64)
def test_d3_xy_blocks():
    ring = d3_xy_ring()
    blocks = block_profiles(ring)
    assert sorted(b.m for b in blocks) == [1, 1, 1, 1, 2]
    x = [0] * 8
    x[6] = 1
    vals = []
    for b in blocks:
        tr = block_trace(ring, b, x)
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
    assert abs(block_trace(ring, b2, s0)) < 1e-15


def test_ising_ring_blocks():
    ring = ising_ring()
    blocks = block_profiles(ring)
    assert [b.m for b in blocks] == [1, 1, 1]
    s = [0, 0, 1]
    vals = sorted(float(mp.re(block_trace(ring, b, s))) for b in blocks)
    assert np.allclose(vals, [-(2 ** 0.5), 0.0, 2 ** 0.5], atol=1e-12)


@pytest.mark.parametrize("m", range(2, 13))
def test_ty_ring_splits_into_linear_blocks(m):
    # K(TY(Z_m)) is commutative of rank m + 1: the m - 1 nontrivial
    # characters of Z_m kill T, and the trivial one extends by T = +-sqrt(m)
    ring = ty_ring(m)
    for digits in (15, 64):
        with mp.workdps(digits):
            assert [b.m for b in block_profiles(ring)] == [1] * (m + 1)


def _unit_and_x(x_squared):
    """The structure constants of C[x] / (x^2 - x_squared * 1) on the
    basis (1, x)."""
    T = np.zeros((2, 2, 2), dtype=np.result_type(x_squared, np.int64))
    T[0, 0, 0] = T[0, 1, 1] = T[1, 0, 1] = 1
    T[1, 1, 0] = x_squared
    return T


def test_nilpotent_algebra_fails_to_split():
    # C[x] / x^2: commutative but not semisimple
    ring = BasedRing(("1", "x"), _unit_and_x(0), (0, 1))
    assert len(center_basis(ring)) == 2
    with pytest.raises(NumericalDegeneracyError):
        block_profiles(ring)


def test_unit_required():
    ring = BasedRing(("a", "b"), np.zeros((2, 2, 2), dtype=np.int64), (0, 1))
    with pytest.raises(SchemaError, match="two-sided unit"):
        block_profiles(ring)


def test_rank_one():
    ring = BasedRing(("1",), np.ones((1, 1, 1), dtype=np.int64), (0,))
    blocks = block_profiles(ring)
    assert len(blocks) == 1 and blocks[0].m == 1


def test_non_integer_structure_constants_are_refused():
    # C[x] / (x^2 - 1/2) is semisimple, but a constant of 1/2 is no fusion
    # multiplicity; it is refused rather than truncated to 0
    with pytest.raises(SchemaError, match="must be integers"):
        BasedRing(("1", "x"), _unit_and_x(0.5), (0, 1))


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
        blocks = block_profiles(ring, seed=seed)
        assert sorted(b.m for b in blocks) == sorted(degrees)
        assert sum(b.m * b.m for b in blocks) == ring.rank
        tol = mp.mpf(10) ** -56
        for b in blocks:
            e = mpc_values(b.mantissas)
            sq = mpc_product(ring, e, e)
            assert max(abs(x - y) for x, y in zip(sq, e)) <= tol


def a4_character_ring():
    """The representation ring of A4: 1' 1' = 1'', 1' 1'' = 1, 1' 3 = 3 and
    3 3 = 1 + 1' + 1'' + 2 * 3."""
    F = np.zeros((4, 4, 4), dtype=np.int64)
    for a in range(3):
        for b in range(3):
            F[a, b, (a + b) % 3] = 1
        F[a, 3, 3] = F[3, a, 3] = 1
    F[3, 3] = [1, 1, 1, 2]
    return BasedRing(labels=("1", "1p", "1pp", "3"), fusion=F, dual=(0, 2, 1, 3))


BATCH_RINGS = dict(
    z3=lambda: group_ring(*cyclic(3)),
    s3=lambda: group_ring(*symmetric(3)),
    d4=lambda: group_ring(*dihedral(4)),
    a4=lambda: group_ring(*alternating(4)),
    ty5=lambda: ty_ring(5),
    vlplus=lambda: families.build("vlplus-orbifold", n=1).module_ring,
    a4char=a4_character_ring,
    # noncommutative, with structure constants 2 and commutator terms +-2
    a4char_s3=lambda: product_ring(a4_character_ring(),
                                   group_ring(*symmetric(3))),
    **{f"{family}-{n}": (lambda f=family, n=n: bundle(f, n).module_ring)
       for family in ("a2n", "a2nplus1") for n in range(1, 7)})

# The rings the Newton refinement of the split was first checked on.  This
# test and test_batched_split_matches_the_per_idempotent_loop keep the names
# of the comparisons with earlier implementations that they replace, so
# that their ids stay the same.
REFINE_RINGS = ["z3", "s3", "d4", "a4", "ty5", "vlplus"]


@pytest.mark.parametrize("digits", [15, 64, 128])
@pytest.mark.parametrize("name", sorted(REFINE_RINGS))
def test_integer_refinement_matches_the_mpc_loop(name, digits):
    # the refined idempotents square to themselves within the stopping
    # tolerance and sum to the unit in the reference's arithmetic, and
    # give the block sizes by tr(L_e) = m^2
    ring = BATCH_RINGS[name]()
    with mp.workdps(digits):
        tol = min(mp.mpf(TOL), working_tol())
        blocks = block_profiles(ring)
        idems = [mpc_values(b.mantissas) for b in blocks]
        for b, e in zip(blocks, idems):
            assert max(abs(s - x) for s, x in
                       zip(mpc_product(ring, e, e), e)) <= tol
            assert b.block_dim == b.m ** 2
            assert abs(left_trace(ring, e) - b.block_dim) <= ref.NEAR
        unit = [mp.fsum(e[i] for e in idems) for i in range(ring.rank)]
        assert max(abs(u - (i == 0)) for i, u in enumerate(unit)) <= tol


# Coefficient draws for the products against the reference kernel, each
# zero about one time in four so that the skipped terms show.
SCALARS = {
    "int": lambda rng: rng.choice([0, rng.randint(-3, 3)]),
    "fraction": lambda rng: rng.choice(
        [0, Fraction(rng.randint(-3, 3), rng.randint(1, 4))]),
    "cyc": lambda rng: rng.choice([Cyc.rational(0), rng.randint(-2, 2)
                                   * Cyc.zeta(8, rng.randrange(8))]),
    "float": lambda rng: rng.choice([0.0, rng.uniform(-1.0, 1.0)]),
    "mpf": lambda rng: rng.choice([mp.mpf(0), mp.mpf(rng.uniform(-1, 1))]),
}


@pytest.mark.parametrize("kind", sorted(SCALARS))
@pytest.mark.parametrize("name", sorted(BATCH_RINGS))
def test_element_product_matches_the_reference_kernel(name, kind):
    ring = BATCH_RINGS[name]()
    terms = ref.exact(ring).terms
    rng = random.Random(f"{name}-{kind}")
    draw = SCALARS[kind]
    for _ in range(3):
        a = [draw(rng) for _ in range(ring.rank)]
        b = [draw(rng) for _ in range(ring.rank)]
        got = element_product(ring, a, b)
        want = ref.product(terms, a, b)
        # the same values, summed in the same (i, j) order, so equal
        # floats too, in the arithmetic of the inputs
        assert got == want
        assert all(type(g) is type(w)
                   for g, w in zip(got, want) if w != 0)


@pytest.mark.parametrize("name", sorted(BATCH_RINGS))
def test_batched_averaging_squares_match_the_reference_kernel(name):
    ring = BATCH_RINGS[name]()
    terms = ref.exact(ring).terms
    dims = mantissas(fp_dims(ring).values)
    w = dims[0]
    subs = enumerate_subrings(ring)
    W = np.zeros((len(subs), ring.rank), dtype=object)
    for r, sub in enumerate(subs):
        W[r, list(sub)] = [w[y] for y in sub]
    for X in (W, W * Fraction(1, 3)):
        got = _bilinear(ring._plan.square, X, X).tolist()
        assert got == [ref.product(terms, x, x) for x in X.tolist()]
    weights, D = _averaging(ring, subs, dims)[:2]
    assert D == [sum(w[y] * w[y] for y in sub) for sub in subs]
    assert weights.tolist() == W.tolist()


def test_plan_scales_the_structure_constants_above_one():
    assert a4_character_ring()._plan.product.sums.scale_coef.tolist() == [2]
    coef = BATCH_RINGS["a4char_s3"]()._plan.commutator.sums.scale_coef
    assert {-2, -1, 2} <= set(coef.tolist())


def _exact(x):
    """x with every mpmath number as its exact parts, and every array,
    dict and dataclass as a tuple."""
    if isinstance(x, mp.mpf):
        s, man, e, bc = x._mpf_
        return (s, int(man), e, bc)
    if isinstance(x, mp.mpc):
        return tuple(map(_exact, (x.real, x.imag)))
    if isinstance(x, dict):
        return tuple(sorted((k, _exact(v)) for k, v in x.items()))
    if dataclasses.is_dataclass(x):
        x = dataclasses.astuple(x)
    x = x.tolist() if isinstance(x, np.ndarray) else x
    return tuple(map(_exact, x)) if isinstance(x, (list, tuple)) else x


def digest(x) -> str:
    return hashlib.sha256(repr(_exact(x)).encode()).hexdigest()[:16]


# -- the split against the reference: the reference runs at the precision
# of the comparison on rings of rank at most SMALL_RANK, and at 64 digits
# on larger ones, compared within the bound of the lower precision

SMALL_RANK = 16


def reference_dps(ring, dps) -> int:
    return dps if ring.rank <= SMALL_RANK else 64


def check_split(blocks, table, rb, dps) -> list:
    """The reference block rb[j] of each block, found by its idempotent;
    sizes and characters must agree."""
    assert len(blocks) == len(rb), "number of blocks"
    pair = []
    for bp in blocks:
        e = mpc_values(bp.mantissas)
        pair.append(min(range(len(rb)), key=lambda j: max(
            abs(x - y) for x, y in zip(e, rb[j].e))))
        assert all(ref.close(x, y, dps) for x, y in zip(e, rb[pair[-1]].e)), \
            "idempotent"
    assert sorted(pair) == list(range(len(rb))), "pairing"
    for bp, j, re_, im in zip(blocks, pair, *table[:2]):
        assert (bp.m, bp.block_dim) == (rb[j].m, rb[j].m ** 2)
        chi = mpc_values((re_, im, table[2]))
        assert all(ref.close(x / bp.m, y, dps)
                   for x, y in zip(chi, rb[j].chi)), "character"
    return pair


def check_ring(ring):
    """The split and the characters of a ring at the working precision."""
    blocks, dps = block_profiles(ring), reference_dps(ring, mp.mp.dps)
    with mp.workdps(dps):
        rb = ref.split(ring)
    check_split(blocks, character_table(ring, blocks), rb, dps)


@pytest.mark.parametrize("digits", [15, 64, 128])
@pytest.mark.parametrize("name", sorted(BATCH_RINGS))
def test_batched_split_matches_the_per_idempotent_loop(name, digits):
    # the certified split of the seed: its idempotents, sizes and
    # characters against the reference's
    ring = BATCH_RINGS[name]()
    with mp.workdps(digits):
        tol = min(mp.mpf(TOL), working_tol())
        assert _certified(ring, _split(ring, SPLIT_SEED),
                          len(center_basis(ring)), tol)
        check_ring(ring)


# Digests of the block profiles (mantissas, size, dimension) of every ring
# of BATCH_RINGS, recorded when the batched split was checked against a
# copy of the per-idempotent split it replaced.
SPLIT_DIGESTS = {15: "1ba90af4ca401f04", 64: "19454001706bfe3b",
                 128: "6f87ca4eecdca908"}


@pytest.mark.parametrize("digits", [15, 64, 128])
def test_split_mantissas_are_pinned(digits):
    with mp.workdps(digits):
        values = [[(b.mantissas, b.m, b.block_dim)
                   for b in block_profiles(BATCH_RINGS[name]())]
                  for name in sorted(BATCH_RINGS)]
    assert digest(values) == SPLIT_DIGESTS[digits]


def per_entry_key(b):
    """The sort key of block_profiles, each coefficient converted alone:
    x / 2**-exp or float(x << exp), then round(., 9) + 0.0."""
    re, im, exp = b.mantissas

    def rounded(x):
        return round(x / 2 ** -exp if exp < 0 else float(x << exp), 9) + 0.0
    return (b.m, tuple((rounded(r), rounded(i)) for r, i in zip(re, im)))


@pytest.mark.parametrize("seed", range(6))
def test_profile_key_matches_the_per_entry_conversion(seed):
    # seeded signed mantissas of up to 300 bits with zeros, over negative
    # and positive exponents; below 2**-10 also odd multiples of 2**-10,
    # each exactly on a tie of the 9th decimal (k / 1024 has ten decimals,
    # the last a 5)
    rng = random.Random(seed)
    for exp in (-1100, -400, -200, -75, -60, -10, -1, 0, 1, 7, 40, 700):
        n = rng.randint(1, 12)

        def part():
            return tuple(rng.choice((0, 1, -1))
                         * rng.getrandbits(rng.randint(1, 300))
                         for _ in range(n))
        parts = [part(), part()]
        if exp <= -10:
            ties = [2 * rng.randrange(-2 ** 20, 2 ** 20) + 1
                    for _ in range(n)]
            assert all((Fraction(k, 1024) * 10 ** 9).denominator == 2
                       for k in ties)
            parts[rng.randrange(2)] = tuple(k << (-10 - exp) for k in ties)
        b = wedderburn.BlockProfile(mantissas=(*parts, exp), block_dim=4,
                                    m=2)
        assert repr(wedderburn._profile_key(b)) == repr(per_entry_key(b))


def _s3_and_involution():
    table, inverse = symmetric(3)
    s = next(g for g in range(1, len(table)) if inverse[g] == g)
    return group_ring(table, inverse), s


def test_certification_refuses_a_noncentral_idempotent():
    # (1 + s)/2 and (1 - s)/2 are nonzero idempotents summing to the unit,
    # so only the commutator check can refuse them
    ring, s = _s3_and_involution()
    half = Fraction(1, 2)
    plus, minus = [0] * ring.rank, [0] * ring.rank
    plus[0] = minus[0] = half
    plus[s], minus[s] = half, -half
    idems = [mantissas(plus), mantissas(minus)]
    tol = min(mp.mpf(TOL), working_tol())
    assert not _certified(ring, idems, 2, tol)


def test_certification_refuses_a_partial_set_and_a_zero_vector():
    ring, _ = _s3_and_involution()
    n = ring.rank
    tol = min(mp.mpf(TOL), working_tol())
    idems = _split(ring, SPLIT_SEED)
    assert _certified(ring, idems, len(idems), tol)
    # one idempotent dropped: the rest do not sum to the unit
    assert not _certified(ring, idems[1:], len(idems) - 1, tol)
    # a zero vector added: idempotent, central, the sum unchanged
    zero = ([0] * n, [0] * n, idems[0][2])
    assert not _certified(ring, idems + [zero], len(idems) + 1, tol)


# Digests of the mpmath idempotents as block_profiles once built them
# eagerly, at the working precision of the split: each block's
# (m, block_dim, entries as mpf tuples), in block order.  Converted from
# the mantissas at the same precision, they must give the same bits.
EAGER_IDEMPOTENT_DIGESTS = {
    ("a2n-2", 15): "3da02b98a4599b0f",
    ("a2n-2", 64): "0b82226580be9050",
    ("a2n-2", 128): "c34076adca9920ec",
    ("a2nplus1-2", 15): "25f787fd5dfdbcef",
    ("a2nplus1-2", 64): "426fab2236cd25b1",
    ("a2nplus1-2", 128): "469bbba80d112cb7",
    ("d3xy", 15): "7f82779b6ffaf959",
    ("d3xy", 64): "9af2b38fad6d5642",
    ("d3xy", 128): "18a5396893011c4e",
    ("d6", 15): "ff2ba83848c034ba",
    ("d6", 64): "3d38d5b242f04970",
    ("d6", 128): "8fa275a8e80eec71",
    ("ising", 15): "33aaaea88f5a9d64",
    ("ising", 64): "d761684945edd3aa",
    ("ising", 128): "cfba3008961db1f6",
    ("s3", 15): "1c6d2d8a120d0f87",
    ("s3", 64): "a39eb08923df1343",
    ("s3", 128): "22cc4ab8de324acc",
    ("ty5", 15): "8ed96960f20d55bc",
    ("ty5", 64): "cfb81b5869d9ba9e",
    ("ty5", 128): "35ee7971f009d0b8",
    ("vlplus", 15): "c3516e45162f6885",
    ("vlplus", 64): "1e8d1cfe2828b122",
    ("vlplus", 128): "d5ba3fd1b03869c1",
}
DIGEST_RINGS = {
    "a2n-2": lambda: families.build("a2n", n=2).module_ring,
    "a2nplus1-2": lambda: families.build("a2nplus1", n=2).module_ring,
    "d3xy": d3_xy_ring,
    "d6": lambda: group_ring(*dihedral(6)),
    "ising": ising_ring,
    "s3": lambda: group_ring(*symmetric(3)),
    "ty5": lambda: ty_ring(5),
    "vlplus": lambda: families.build("vlplus-orbifold", n=1).module_ring,
}


@pytest.mark.parametrize("name,digits", sorted(EAGER_IDEMPOTENT_DIGESTS))
def test_idempotent_read_on_demand_matches_the_eager_values(name, digits):
    with mp.workdps(digits):
        blocks = block_profiles(DIGEST_RINGS[name]())
        entries = [(b.m, b.block_dim,
                    [tuple((p[0], int(p[1]), p[2], p[3]) for p in c._mpc_)
                     for c in mpc_values(b.mantissas)]) for b in blocks]
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()[:16]
    assert digest == EAGER_IDEMPOTENT_DIGESTS[name, digits]


# -- the Newton refinement against the loop it replaces: the same mantissa
# lists and the same number of steps for every row


def _seed_float_mantissas(v) -> tuple:
    """A float64 or complex128 vector as mantissas over one exponent, one
    bit finer than mp.prec bits below its largest entry, each part
    rounded onto that grid, half up."""
    parts = [(z.real, z.imag) for z in map(complex, v)]
    top = max((math.frexp(x)[1] for z in parts for x in z if x), default=0)
    exp = top - mp.mp.prec - 1

    def scaled(x):
        num, den = x.as_integer_ratio()
        s = -exp - (den.bit_length() - 1)
        return num << s if s >= 0 else (num + (1 << (-s - 1))) >> -s
    return [scaled(x) for x, _ in parts], [scaled(y) for _, y in parts], exp


def sups(a) -> tuple:
    """max_i |v_i|^2 for every row v of the stack a, as the object array w
    and the exponents wexp with max_i |v_i|^2 = w[r] * 2**wexp[r]."""
    re, im, exps = a
    return (re * re + im * im).max(axis=1), [2 * x for x in exps]


def _seed_rescale(a, exps) -> tuple:
    re, im, e = a
    re, im = re.copy(), im.copy()
    for r, s in enumerate(x - y for x, y in zip(e, exps)):
        if s > 0:
            re[r], im[r] = re[r] << s, im[r] << s
        elif s < 0:
            h = 1 << (-s - 1)
            re[r], im[r] = (re[r] + h) >> -s, (im[r] + h) >> -s
    return re, im, list(exps)


def _seed_combine(a, ca, b, cb) -> tuple:
    e = [min(x, y) for x, y in zip(a[2], b[2])]
    (ar, ai, _), (br, bi, _) = _seed_rescale(a, e), _seed_rescale(b, e)
    return ca * ar + cb * br, ca * ai + cb * bi, e


def seed_newton(ring, guesses, tol):
    """The refinement as first written, from the guesses on the full grid:
    e <- round(3 s - 2 s e) with s = round(e^2), two full-width products a
    step.  The mantissa vectors and the number of steps of each row, or
    None."""
    plan = ring._plan
    e = stack([_seed_float_mantissas(g) for g in guesses])
    out, steps = [None] * len(guesses), [0] * len(guesses)
    live = list(range(len(guesses)))
    for step in range(1, mp.mp.dps.bit_length() + 2):
        exps = e[2]
        sq = product(plan.square, e, e)
        done = cmp_tol(*sups(_seed_combine(sq, 1, e, -1)), tol) <= 0
        sq = _seed_rescale(sq, exps)
        e = _seed_rescale(
            _seed_combine(sq, 3, product(plan.product, sq, e), -2), exps)
        for r in np.flatnonzero(done).tolist():
            out[live[r]], steps[live[r]] = (e[0][r].tolist(),
                                            e[1][r].tolist(), exps[r]), step
        rest = np.flatnonzero(~done).tolist()
        if not rest:
            return out, steps
        live = [live[r] for r in rest]
        e = e[0][rest], e[1][rest], [e[2][r] for r in rest]
    return None


def package_newton(monkeypatch, ring, guesses, tol):
    """wedderburn._newton's result and the number of steps of each row,
    read off the stopping test it makes once a step, or None."""
    tests = []

    def recorded(*args):
        signs = cmp_tol(*args)
        tests.append(signs <= 0)
        return signs
    monkeypatch.setattr(wedderburn, "cmp_tol", recorded)
    out = wedderburn._newton(ring, guesses, tol)
    monkeypatch.undo()
    if out is None:
        return None
    steps, live = [0] * len(guesses), list(range(len(guesses)))
    for step, done in enumerate(tests, 1):
        for r in np.flatnonzero(done).tolist():
            steps[live[r]] = step
        live = [x for x, d in zip(live, done) if not d]
    assert not live
    return out, steps


def _seeded_group_ring(grp, seed):
    """A group ring with its basis shuffled by seed, the unit kept at 0."""
    rest = list(range(1, len(grp[0])))
    random.Random(seed).shuffle(rest)
    return _relabel(group_ring(*grp), [0] + rest)


# every ring of both digest sets, seeded cyclic group rings, whose
# idempotents are complex, and seeded dihedral ones, each with the seed of
# its split
NEWTON_RINGS = {
    **{name: (f, SPLIT_SEED) for name, f in {**DIGEST_RINGS,
                                             **BATCH_RINGS}.items()},
    **{f"c{n}-{seed}": (lambda n=n, seed=seed: _seeded_group_ring(
        cyclic(n), seed), seed) for n, seed in ((4, 1), (5, 2), (7, 3),
                                                (8, 4))},
    **{f"d{n}-{seed}": (lambda n=n, seed=seed: _seeded_group_ring(
        dihedral(n), seed), seed) for n, seed in ((3, 5), (5, 6), (6, 7))}}


@pytest.mark.parametrize("digits", [15, 64, 128])
@pytest.mark.parametrize("name", sorted(NEWTON_RINGS))
def test_newton_matches_the_seed_loop(name, digits, monkeypatch):
    build, seed = NEWTON_RINGS[name]
    ring = build()
    with mp.workdps(digits):
        tol = min(mp.mpf(TOL), working_tol())
        Z = center_basis(ring)
        guesses = next(g for g in (_float_split(ring, Z, random.Random(
            seed + a)) for a in range(8)) if g is not None)
        want = seed_newton(ring, guesses, tol)
        assert want is not None
        assert package_newton(monkeypatch, ring, guesses, tol) == want
        assert wedderburn._newton(ring, guesses, tol) == want[0]


@pytest.mark.parametrize("prec", [10, 53, 216, 429])
def test_float_stack_is_the_full_grid_without_its_common_zero_bits(prec):
    # rows with zeros, subnormals, parts far below the grid (rounded half
    # up onto it, or to 0) and exact powers of two, real and complex
    rng = random.Random(prec)

    def value():
        return rng.choice([0.0, 1.0, -0.5, 3.0, 2.0 ** -1074, -2.0 ** -1070,
                           rng.uniform(-1, 1) * 2.0 ** rng.randint(-1074, 0),
                           rng.randint(-2 ** 20, 2 ** 20) * 2.0 ** -40,
                           rng.uniform(-1, 1) * 2.0 ** rng.randint(-60, 3)])
    with mp.workprec(prec):
        for complex_ in (False, True):
            for _ in range(60):
                G = np.array([[complex(value(), value()) if complex_
                               else value() for _ in range(5)]
                              for _ in range(3)])
                G[0] *= rng.random() < 0.2
                re, im, exps, grid = float_stack(G)
                for r, row in enumerate(G):
                    full = _seed_float_mantissas(row)
                    z = reduce(or_, full[0] + full[1], 0)
                    z = (z & -z).bit_length() - 1 if z else 0
                    assert (re[r].tolist(), im[r].tolist(), exps[r],
                            grid[r]) == ([x >> z for x in full[0]],
                                         [x >> z for x in full[1]],
                                         full[2] + z, full[2])


@pytest.mark.parametrize("complex_", [False, True])
def test_cube_through_the_residual_is_exact(complex_):
    # round(e^2) e = e e + r e with r = round(e^2) - e, as integers over
    # one exponent, on random integer stacks of widths up to 300 bits
    rng = random.Random(int(complex_))
    for name in ("s3", "a4char_s3", "a2n-3", "vlplus"):
        ring = BATCH_RINGS[name]()
        plan, n = ring._plan, ring.rank
        for _ in range(5):
            k = rng.randint(1, 4)

            def part(bits):
                return np.array([[rng.getrandbits(bits) - (1 << (bits - 1))
                                  for _ in range(n)] for _ in range(k)],
                                dtype=object)
            bits = rng.choice([1, 53, 217, 300])
            e = (part(bits), part(bits) if complex_ else
                 np.zeros((k, n), dtype=object),
                 [rng.randint(-300, 5) for _ in range(k)])
            sq = product(plan.square, e, e)
            q = rescale(sq, e[2])
            r = q[0] - e[0], q[1] - e[1], e[2]
            qe, re_ = product(plan.product, q, e), product(plan.product, r, e)
            assert qe[2] == sq[2] == re_[2]
            assert (qe[0] == sq[0] + re_[0]).all()
            assert (qe[1] == sq[1] + re_[1]).all()


def test_newton_gives_up_on_a_fixed_point_that_is_not_idempotent(
        monkeypatch):
    # e = unit / 2 is fixed by 3 e^2 - 2 e^3 = 3/4 - 1/4, with
    # |e^2 - e| = 1/4 at every step
    ring = group_ring(*symmetric(3))
    half = np.zeros(ring.rank)
    half[0] = 0.5
    tol = min(mp.mpf(TOL), working_tol())
    assert wedderburn._newton(ring, [half], tol) is None
    assert seed_newton(ring, [half], tol) is None
    # _split spends one attempt on it and goes on with the next seed, and
    # fails once every attempt starts there
    states, results = [], []
    split, newton = wedderburn._float_split, wedderburn._newton

    def float_split(ring, Z, rng):
        states.append(rng.getstate())
        return [half] * len(Z) if len(states) == 1 else split(ring, Z, rng)

    def recorded(*args):
        results.append(newton(*args))
        return results[-1]
    want = wedderburn._split(ring, SPLIT_SEED + 1)
    monkeypatch.setattr(wedderburn, "_float_split", float_split)
    monkeypatch.setattr(wedderburn, "_newton", recorded)
    assert wedderburn._split(ring, SPLIT_SEED) == want
    assert states == [random.Random(SPLIT_SEED + a).getstate()
                      for a in (0, 1)]
    assert results == [None, want]
    monkeypatch.setattr(wedderburn, "_float_split",
                        lambda ring, Z, rng: [half] * len(Z))
    with pytest.raises(NumericalDegeneracyError, match="8 seeded attempts"):
        wedderburn._split(ring, SPLIT_SEED)


# -- rounding exact parts to the working precision, as array passes --


def _rounded_rows_reference(re, im, exps):
    """rounded_on_grid as one from_man_exp(n, e, mp.prec, round_nearest)
    per part, then mantissas of each row."""
    prec = mp.mp.prec

    def part(n, e):
        return mp.mp.make_mpf(from_man_exp(n, e, prec, round_nearest))
    rows = [mantissas([mp.mpc(part(a, e), part(b, e))
                       for a, b in zip(ra, rb)])
            for ra, rb, e in zip(re, im, exps)]
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


def _rounding_cases(prec, rng):
    """Rows of parts that meet every branch of the rounding: random widths
    around prec, exact half-way ties with an even and with an odd kept
    part, all-ones parts that carry to 2**prec, zeros, negatives and a row
    that is all zero."""
    def tie(keep, sh):
        # keep * 2**sh + 2**(sh - 1): exactly half way
        return (keep << sh) | (1 << (sh - 1))
    top = 1 << (prec - 1)
    special = [tie(top + 2, 5), tie(top + 3, 5), tie(top, 1), tie(top + 1, 1),
               (1 << (prec + 3)) - 1, (1 << (prec + 1)) - 1, (1 << prec) - 1,
               (1 << prec) + 1, 0, 1, 3]
    cases = []
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)

        def part():
            if rng.random() < 0.4:
                x = rng.choice(special)
            else:
                x = rng.getrandbits(rng.choice(
                    [1, 7, prec - 1, prec, prec + 1, prec + 2, 2 * prec + 5]))
            return -x if rng.random() < 0.5 else x
        re = [[part() for _ in range(cols)] for _ in range(rows)]
        im = [[part() for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            re[-1], im[-1] = [0] * cols, [0] * cols
        cases.append((re, im, [rng.randint(-3 * prec, 40)
                               for _ in range(rows)]))
    cases.append(([[0, 0]], [[0, 0]], [7]))
    return cases


@pytest.mark.parametrize("prec", [53, 216, 429])
def test_rounded_on_grid_matches_from_man_exp(prec):
    rng = random.Random(prec)
    seen_carry = seen_even_tie = seen_odd_tie = False
    with mp.workprec(prec):
        for re, im, exps in _rounding_cases(prec, rng):
            got = rounded_on_grid(np.array(re, dtype=object),
                                  np.array(im, dtype=object), exps)
            assert ([r.tolist() for r in got[0]], [r.tolist() for r in got[1]],
                    got[2]) == _rounded_rows_reference(re, im, exps)
            for x in (abs(v) for row in re + im for v in row):
                sh = x.bit_length() - prec
                if sh > 0 and x & ((1 << sh) - 1) == 1 << (sh - 1):
                    if x >> sh & 1:
                        seen_odd_tie = True
                    else:
                        seen_even_tie = True
                if sh > 0 and (x + (1 << (sh - 1))) >> sh == 1 << prec:
                    seen_carry = True
    assert seen_carry and seen_even_tie and seen_odd_tie
