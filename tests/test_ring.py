import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuscond import ring as ring_module
from fuscond.cyclotomic import Cyc, working_tol
from fuscond.errors import CapabilityError, SchemaError
from fuscond.families import ty_ring, xy2_module_ring, xy_module_ring
from fuscond.ring import (
    BasedRing,
    DimVector,
    element_product,
    enumerate_subrings,
    fp_dims,
    group_ring,
    is_closed,
    product_ring,
    validate,
)

from cached_bundles import BUILT_INS, bundle
from grouptables import cyclic, dihedral, quaternion, symmetric


def fibonacci_ring():
    F = np.zeros((2, 2, 2), dtype=np.int64)
    F[0, 0, 0] = F[0, 1, 1] = F[1, 0, 1] = 1
    F[1, 1, 0] = F[1, 1, 1] = 1
    return BasedRing(labels=("1", "t"), fusion=F, dual=(0, 1))


def ising_ring():
    F = np.zeros((3, 3, 3), dtype=np.int64)
    for j in range(3):
        F[0, j, j] = F[j, 0, j] = 1
    F[1, 1, 0] = 1
    F[1, 2, 2] = F[2, 1, 2] = 1
    F[2, 2, 0] = F[2, 2, 1] = 1
    return BasedRing(labels=("1", "p", "s"), fusion=F, dual=(0, 1, 2))


def d3_xy_ring():
    """Dihedral group ring on 6 elements extended by two objects X, Y.

    Rotations fix X and Y, reflections swap them, X*X = Y*Y = sum of
    rotations, X*Y = sum of reflections.
    """
    m = 3
    r = 2 * m + 2
    X, Y = 2 * m, 2 * m + 1
    F = np.zeros((r, r, r), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            F[a, b, (a + b) % m] = 1
            F[a, m + b, m + (a + b) % m] = 1
            F[m + b, a, m + (b - a) % m] = 1
            F[m + a, m + b, (a - b) % m] = 1
    for a in range(m):
        F[a, X, X] = F[X, a, X] = 1
        F[a, Y, Y] = F[Y, a, Y] = 1
        F[m + a, X, Y] = F[X, m + a, Y] = 1
        F[m + a, Y, X] = F[Y, m + a, X] = 1
        F[X, X, a] = F[Y, Y, a] = 1
        F[X, Y, m + a] = F[Y, X, m + a] = 1
    labels = tuple(f"r{a}" for a in range(m)) + tuple(f"s{a}" for a in range(m)) + ("X", "Y")
    dual = (0, 2, 1, 3, 4, 5, 6, 7)
    return BasedRing(labels=labels, fusion=F, dual=dual)


def brute_force_subrings(ring):
    """Independent oracle: filter every subset containing the unit."""
    r = ring.rank
    out = []
    for bits in range(2 ** (r - 1)):
        s = {0} | {i + 1 for i in range(r - 1) if bits >> i & 1}
        if any(ring.dual[i] not in s for i in s):
            continue
        closed = True
        for i in s:
            for j in s:
                for k in range(r):
                    if ring.fusion[i, j, k] and k not in s:
                        closed = False
        if closed:
            out.append(tuple(sorted(s)))
    out.sort(key=lambda t: (len(t), t))
    return out


def test_validate_accepts_good_rings():
    for ring in (fibonacci_ring(), ising_ring(), d3_xy_ring(),
                 group_ring(*symmetric(3))):
        rep = validate(ring)
        assert rep.ok, str(rep)


def test_fibonacci_dims():
    d = fp_dims(fibonacci_ring())
    golden = (1 + 5 ** 0.5) / 2
    assert abs(d[0] - 1.0) < 1e-12
    assert abs(d[1] - golden) < 1e-10
    assert abs(d.total() - (1 + golden ** 2)) < 1e-9


def test_ising_ring_dims():
    d = fp_dims(ising_ring())
    assert np.allclose(d.as_floats(), [1.0, 1.0, 2 ** 0.5], atol=1e-10)


def test_group_ring_dims_are_ones():
    table, inverse = symmetric(3)
    ring = group_ring(table, inverse)
    d = fp_dims(ring)
    assert np.allclose(d.as_floats(), np.ones(6), atol=1e-12)
    assert abs(d.total() - 6.0) < 1e-9


def test_unit_axiom_violation_reported():
    ring = fibonacci_ring()
    F = ring.fusion.copy()
    F[0, 1, 1] = 0
    bad = BasedRing(labels=ring.labels, fusion=F, dual=ring.dual)
    rep = validate(bad)
    assert not rep.ok
    assert any("unit" in p for p in rep.problems)


def test_duality_violation_reported():
    table, inverse = cyclic(3)
    ring = group_ring(table, inverse)
    bad = BasedRing(labels=ring.labels, fusion=ring.fusion, dual=(0, 1, 2))
    rep = validate(bad)
    assert not rep.ok
    assert any("dual" in p for p in rep.problems)


def test_associativity_violation_reported():
    table, inverse = cyclic(3)
    ring = group_ring(table, inverse)
    F = ring.fusion.copy()
    F[1, 1, :] = 0
    F[1, 1, 1] = 1
    bad = BasedRing(labels=ring.labels, fusion=F, dual=ring.dual)
    rep = validate(bad)
    assert not rep.ok
    assert any("associativity" in p for p in rep.problems)


def _ref_associativity_offenders(F):
    # both bracketings as whole rank^4 tensors, and where they differ
    Ff = F.astype(np.float64)
    lhs = np.tensordot(Ff, Ff, axes=([2], [0]))
    rhs = np.tensordot(Ff, Ff, axes=([2], [1])).transpose(2, 0, 1, 3)
    return np.argwhere(lhs != rhs)


def _broken_z3():
    ring = group_ring(*cyclic(3))
    F = ring.fusion.copy()
    F[1, 1, :] = 0
    F[1, 1, 1] = 1
    return ring, F


def _broken_s3():
    ring = group_ring(*symmetric(3))
    F = ring.fusion.copy()
    F[1, 2, :] = F[2, 1, :]
    return ring, F


def _broken_d3_xy():
    ring = d3_xy_ring()
    F = ring.fusion.copy()
    F[2, 2, 3] += 1
    return ring, F


def _broken_xy2():
    ring = xy2_module_ring(3)
    F = ring.fusion.copy()
    F[3, 5, :] = F[5, 3, :] = F[3, 4, :]
    return ring, F


def _associativity_report(idx) -> list:
    """validate's associativity line for the offenders idx, if any."""
    if not len(idx):
        return []
    shown = ", ".join(str(tuple(int(x) for x in row)) for row in idx[:5])
    more = f", and {len(idx) - 5} more" if len(idx) > 5 else ""
    return [f"associativity fails at (i, j, k, l): {shown}{more}"]


def _built_in_rings():
    """name -> the module ring, the flat ambient ring and each ambient
    factor ring of the cached built-ins, and the group rings of the tables
    in tests/grouptables.py."""
    rings = {}
    for family, n in BUILT_INS:
        b = bundle(family, n)
        parts = {"module": b.module_ring, "ambient": b.ambient.ring,
                 **{f"factor{t}": f.ring
                    for t, f in enumerate(b.ambient.factors or ())}}
        rings.update({f"{family}-{n}-{part}": ring
                      for part, ring in parts.items() if ring is not None})
    tables = {**{f"z{n}": cyclic(n) for n in range(2, 7)},
              "d3": dihedral(3), "d4": dihedral(4), "q8": quaternion(),
              "s3": symmetric(3), "s4": symmetric(4)}
    rings.update({name: group_ring(*t) for name, t in tables.items()})
    return rings


BUILT_IN_RINGS = _built_in_rings()


def _mutant(name, seed):
    """1 added to N[i, j, k], for a seeded i, j, k != 0, and to its
    transpose-dual partner N[j*, i*, k*]: the unit, duality and
    transpose-duality axioms still hold."""
    ring = BUILT_IN_RINGS[name]
    i, j, k = np.random.default_rng(seed).integers(1, ring.rank, size=3)
    d = ring.dual
    F = ring.fusion.copy()
    F[i, j, k] += 1
    if (d[j], d[i], d[k]) != (i, j, k):
        F[d[j], d[i], d[k]] += 1
    return ring, F


BROKEN = [_broken_z3, _broken_s3, _broken_d3_xy, _broken_xy2]
MUTANTS = [pytest.param(lambda name=name, seed=seed: _mutant(name, seed),
                        id=f"{name}-mutant{seed}")
           for name in BUILT_IN_RINGS for seed in (0, 1)]


@pytest.mark.parametrize("broken", BROKEN + MUTANTS)
def test_associativity_report_lists_the_offenders(broken):
    ring, F = broken()
    idx = _ref_associativity_offenders(F)
    rep = validate(BasedRing(labels=ring.labels, fusion=F, dual=ring.dual))
    if broken in BROKEN:
        # each breaks another axiom too, and has more offenders than shown
        assert len(idx) > 5
        assert [p for p in rep.problems
                if p.startswith("associativity")] == _associativity_report(idx)
    else:
        assert rep.problems == _associativity_report(idx)


def _words_span(F, gens) -> int:
    """The rank over GF(p) of the left-normed words ((1 g1) g2) ... over
    gens; rank r there means the words span the ring over Q."""
    p, r = 32749, len(F)
    pivots = {}

    def reduce(v):
        for c in sorted(pivots):
            if v[c]:
                v = (v - v[c] * pivots[c]) % p
        return v
    todo = [np.eye(r, dtype=np.int64)[0]]
    while todo:
        v = reduce(todo.pop())
        nz = np.flatnonzero(v)
        if len(nz):
            v = v * pow(int(v[nz[0]]), -1, p) % p
            pivots[int(nz[0])] = v
            todo += [v @ F[:, g] % p for g in gens]
    return len(pivots)


@pytest.mark.parametrize("name", [*BUILT_IN_RINGS, "a2n1-x-a2n2"])
def test_generators_span_every_built_in_ring(name):
    if name == "a2n1-x-a2n2":
        ring = product_ring(bundle("a2n", 1).module_ring,
                            bundle("a2n", 2).module_ring)
    else:
        ring = BUILT_IN_RINGS[name]
    gens = ring_module._generators(ring.fusion)
    assert len(gens) <= (6 if name == "a2n1-x-a2n2" else 3)
    assert _words_span(ring.fusion, gens) == ring.rank


@pytest.mark.parametrize("seed", range(5))
def test_generators_span_a_random_left_unital_tensor(seed):
    # the peeling holds for any product with a left unit, associative or
    # not: sparse random tensors with 1 x = x
    rng = np.random.default_rng(seed)
    for _ in range(40):
        r = int(rng.integers(2, 9))
        F = rng.integers(0, 3, size=(r, r, r)) * (rng.random((r, r, r)) < 0.2)
        F[0] = np.eye(r, dtype=F.dtype)
        assert _words_span(F, ring_module._generators(F)) == r


@pytest.mark.parametrize("name", list(BUILT_IN_RINGS))
def test_a_ring_that_passes_every_axiom_checks_only_its_generators(
        monkeypatch, name):
    def every_slice(Ff):
        raise AssertionError("every slice compared")
    monkeypatch.setattr(ring_module, "_every_associator", every_slice)
    assert validate(BUILT_IN_RINGS[name]).ok


def test_a_ring_that_fails_the_unit_axiom_lists_every_associativity_offender():
    # 1 1 = 1 + t, 1 t = 1 and t x = 0: the unit axioms fail, and so does
    # associativity, but only on the slice of 1, which is in no generating
    # set; every slice is compared all the same
    F = np.zeros((2, 2, 2), dtype=np.int64)
    F[0, 0] = 1, 1
    F[0, 1, 0] = 1
    Ff = F.astype(np.float64)
    assert not any(ring_module._associator(Ff, g).any()
                   for g in ring_module._generators(F))
    rep = validate(BasedRing(labels=("1", "t"), fusion=F, dual=(0, 1)))
    assert rep.problems[0].startswith("unit axiom fails on the left")
    idx = _ref_associativity_offenders(F)
    assert len(idx)
    assert [p for p in rep.problems
            if p.startswith("associativity")] == _associativity_report(idx)


def test_transpose_duality_violation_reported():
    ring = ising_ring()
    F = ring.fusion.copy()
    F[1, 2, 2] = 0
    F[1, 2, 1] = 1
    bad = BasedRing(labels=ring.labels, fusion=F, dual=ring.dual)
    rep = validate(bad)
    assert not rep.ok
    assert any("transpose" in p or "dual" in p for p in rep.problems)


def test_structural_rejection():
    F = np.zeros((2, 2, 2), dtype=np.int64)
    with pytest.raises(SchemaError):
        BasedRing(labels=("1",), fusion=F, dual=(0, 1))
    with pytest.raises(SchemaError):
        BasedRing(labels=("1", "t"), fusion=F, dual=(1, 0))
    with pytest.raises(SchemaError):
        BasedRing(labels=("1", "t"), fusion=np.zeros((2, 2), dtype=np.int64),
                  dual=(0, 1))
    with pytest.raises(SchemaError):
        BasedRing(labels=("1", "t"), fusion=F - 1, dual=(0, 1))
    with pytest.raises(SchemaError):
        BasedRing(labels=("a", "a"), fusion=F, dual=(0, 1))
    ring = fibonacci_ring()
    with pytest.raises(SchemaError):
        BasedRing(labels=ring.labels, fusion=ring.fusion, dual=(1, 1))


def closure(ring, seed) -> frozenset:
    """The smallest subring containing the unit and the seed: the first
    subring enumerate_subrings finds, which also refuses a seed index
    outside the basis."""
    return frozenset(enumerate_subrings(ring, must_contain=seed)[0])


def test_closure_and_generated():
    ring = d3_xy_ring()
    assert closure(ring, (6,)) == frozenset({0, 1, 2, 6})
    assert closure(ring, ()) == frozenset({0})
    assert closure(ring, {3}) == frozenset({0, 3})
    assert closure(ring, (3, 4)) == frozenset(range(6))


@pytest.mark.parametrize("n", range(1, 9))
def test_cyclic_subrings_match_oracle(n):
    ring = group_ring(*cyclic(n))
    assert enumerate_subrings(ring) == brute_force_subrings(ring)


def test_s3_subrings_match_oracle():
    ring = group_ring(*symmetric(3))
    found = enumerate_subrings(ring)
    assert found == brute_force_subrings(ring)
    # trivial, three order-2, one order-3, full
    assert [len(s) for s in found] == [1, 2, 2, 2, 3, 6]


def test_z4_subring_list():
    ring = group_ring(*cyclic(4))
    assert enumerate_subrings(ring) == [(0,), (0, 2), (0, 1, 2, 3)]


def test_d3_xy_subrings_match_oracle():
    ring = d3_xy_ring()
    found = enumerate_subrings(ring)
    assert found == brute_force_subrings(ring)


def test_d3_xy_subring_inventory():
    ring = d3_xy_ring()
    found = enumerate_subrings(ring)
    expected = sorted(
        [
            (0,),
            (0, 3), (0, 4), (0, 5),
            (0, 1, 2),
            (0, 1, 2, 3, 4, 5),
            (0, 1, 2, 6),
            (0, 1, 2, 7),
            (0, 1, 2, 3, 4, 5, 6, 7),
        ],
        key=lambda t: (len(t), t),
    )
    assert found == expected
    assert len(found) == 9


def test_must_contain_filter():
    ring = d3_xy_ring()
    found = enumerate_subrings(ring, must_contain=(1,))
    assert all(1 in s for s in found)
    assert len(found) == 5


def test_subring_dim():
    d = fp_dims(d3_xy_ring())
    assert abs(d.total((0, 1, 2, 6)) - 6.0) < 1e-9
    assert abs(d.total((0, 1, 2)) - 3.0) < 1e-9
    assert abs(d.total(tuple(range(8))) - 12.0) < 1e-9


def test_lattice_over_the_budget_is_refused(monkeypatch):
    # (Z/2)^3 has 16 subgroups: refused under a budget of 15, not of 16
    z2 = group_ring(*cyclic(2))
    ring = product_ring(product_ring(z2, z2), z2)
    monkeypatch.setattr(ring_module, "SUBRING_BUDGET", 16)
    assert len(enumerate_subrings(ring)) == 16
    monkeypatch.setattr(ring_module, "SUBRING_BUDGET", 15)
    with pytest.raises(CapabilityError, match="budget of 15 subrings"):
        enumerate_subrings(ring)


# ------------------------------------ closure against an exhaustive search


def _relabel(ring, perm):
    """The same ring with basis element i moved to perm[i]."""
    n = ring.rank
    F = np.zeros_like(ring.fusion)
    p = np.array(perm)
    F[np.ix_(p, p, p)] = ring.fusion
    labels = [None] * n
    dual = [None] * n
    for i in range(n):
        labels[perm[i]] = ring.labels[i]
        dual[perm[i]] = perm[ring.dual[i]]
    return BasedRing(labels=tuple(labels), fusion=F, dual=tuple(dual))


_SMALL_RINGS = [
    lambda: group_ring(*cyclic(2)), lambda: group_ring(*cyclic(3)),
    lambda: group_ring(*cyclic(4)), lambda: group_ring(*cyclic(5)),
    lambda: group_ring(*symmetric(3)), lambda: group_ring(*dihedral(4)),
    lambda: group_ring(*quaternion()), lambda: ty_ring(2),
    lambda: ty_ring(3), lambda: ty_ring(4), fibonacci_ring, ising_ring,
    d3_xy_ring,
]


@st.composite
def small_rings(draw):
    """A group ring, a Tambara-Yamagami ring or a small fusion ring, or a
    product of two, of rank at most 10, with its basis shuffled (the unit
    stays at index 0)."""
    parts = draw(st.lists(st.sampled_from(_SMALL_RINGS), min_size=1,
                          max_size=2))
    ring = parts[0]()
    for make in parts[1:]:
        other = make()
        if ring.rank * other.rank <= 10:
            ring = product_ring(ring, other)
    rest = draw(st.permutations(range(1, ring.rank)))
    return _relabel(ring, [0] + list(rest))


def _closed_subsets(ring):
    """Every subset containing the unit that is closed under products and
    duals, found by testing all of them."""
    r = ring.rank
    out = []
    for bits in range(2 ** (r - 1)):
        member = np.array([True] + [bool(bits >> i & 1) for i in range(r - 1)])
        idx = np.flatnonzero(member)
        hit = ring.fusion[np.ix_(idx, idx)].any(axis=(0, 1))
        if member[np.array(ring.dual)[idx]].all() and not (hit & ~member).any():
            out.append(tuple(idx.tolist()))
    return sorted(out, key=lambda t: (len(t), t))


@settings(max_examples=40, deadline=None)
@given(small_rings(), st.sets(st.integers(min_value=0, max_value=9),
                              max_size=3))
def test_closure_and_subrings_match_exhaustive_search(ring, seed):
    seed = {i for i in seed if i < ring.rank}
    closed = _closed_subsets(ring)
    assert enumerate_subrings(ring) == closed
    assert enumerate_subrings(ring, must_contain=seed) == [
        s for s in closed if seed <= set(s)]
    # the closure is the smallest closed subset containing the seed
    assert closure(ring, seed) == min(
        (frozenset(s) for s in closed if seed <= set(s)), key=len)


@pytest.mark.parametrize("bad", [8, -1, 100])
def test_indices_outside_the_basis_are_refused(bad):
    ring = d3_xy_ring()
    for call in (lambda: closure(ring, (1, bad)),
                 lambda: enumerate_subrings(ring, must_contain=(bad,)),
                 lambda: is_closed(ring, (0, bad))):
        with pytest.raises(SchemaError, match=f"index {bad} is not a basis "
                           "index of a ring of rank 8"):
            call()


# ------------------------------------------------ closure past 64 bits


def _fixed_point_closure(ring, seed):
    """The unit and the seed, with duals and product supports added until
    nothing changes, as bool arrays over the whole basis."""
    member = np.zeros(ring.rank, dtype=bool)
    member[[0, *seed]] = True
    support = ring.fusion > 0
    dual = np.asarray(ring.dual)
    while True:
        idx = np.flatnonzero(member)
        grown = member | support[np.ix_(idx, idx)].any(axis=(0, 1))
        grown[dual[idx]] = True
        if (grown == member).all():
            return frozenset(idx.tolist())
        member = grown


_xy_module_ring_24 = xy_module_ring(24)


@st.composite
def larger_rings(draw):
    """A product of two or three of the small rings, of rank 11 to 100 and
    with its basis shuffled, or xy_module_ring(24) (rank 100)."""
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return _xy_module_ring_24
    parts = draw(st.lists(st.sampled_from(_SMALL_RINGS), min_size=2,
                          max_size=3))
    ring = parts[0]()
    for make in parts[1:]:
        other = make()
        if ring.rank * other.rank <= 100:
            ring = product_ring(ring, other)
    assume(ring.rank >= 11)
    rest = draw(st.permutations(range(1, ring.rank)))
    return _relabel(ring, [0] + list(rest))


@pytest.mark.parametrize("make", [
    lambda: product_ring(ty_ring(4), group_ring(*cyclic(3))),
    lambda: product_ring(group_ring(*symmetric(3)), ising_ring()),
    lambda: product_ring(ty_ring(4), group_ring(*cyclic(5))),
    lambda: product_ring(product_ring(ising_ring(), ising_ring()),
                         ising_ring()),
    lambda: _relabel(product_ring(d3_xy_ring(), ty_ring(3)),
                     [0] + list(range(31, 0, -1))),
    lambda: product_ring(d3_xy_ring(), d3_xy_ring()),
    lambda: product_ring(product_ring(ty_ring(4), ty_ring(4)), ising_ring()),
    lambda: _xy_module_ring_24,
], ids=["rank15", "rank18", "rank25", "rank27", "rank32-reversed", "rank64",
        "rank75", "xy24-rank100"])
def test_closure_of_each_basis_element_matches_a_fixed_point(make):
    ring = make()
    for x in range(ring.rank):
        got = closure(ring, (x,))
        assert got == _fixed_point_closure(ring, (x,)), x
        assert is_closed(ring, got)


@settings(max_examples=40, deadline=None)
@given(larger_rings(), st.data())
def test_closure_matches_a_fixed_point_closure(ring, data):
    seed = data.draw(st.sets(st.integers(min_value=0,
                                         max_value=ring.rank - 1),
                             max_size=3))
    got = closure(ring, seed)
    assert got == _fixed_point_closure(ring, seed)
    assert is_closed(ring, got)
    for s in (seed, got, got - {max(got)}, seed | {0}):
        assert is_closed(ring, s) == (closure(ring, s) == frozenset(s))


def _breadth_first_subrings(ring, seed, budget):
    """Every closed subset containing the seed, found by growing each one
    by every other basis element and closing with _fixed_point_closure,
    or None when there are more than budget of them."""
    base = _fixed_point_closure(ring, seed)
    found, todo = {base}, [base]
    while todo:
        s = todo.pop()
        for x in set(range(ring.rank)) - s:
            t = _fixed_point_closure(ring, s | {x})
            if t not in found:
                found.add(t)
                todo.append(t)
                if len(found) > budget:
                    return None
    return sorted((tuple(sorted(t)) for t in found),
                  key=lambda t: (len(t), t))


@settings(max_examples=15, deadline=None)
@given(larger_rings(), st.data())
def test_subrings_match_a_breadth_first_search(ring, data):
    seed = data.draw(st.sets(st.integers(min_value=0,
                                         max_value=ring.rank - 1),
                             max_size=2))
    budget = data.draw(st.integers(min_value=1, max_value=40))
    want = _breadth_first_subrings(ring, seed, budget)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring_module, "SUBRING_BUDGET", budget)
        if want is None:
            with pytest.raises(CapabilityError,
                               match=f"budget of {budget} subrings"):
                enumerate_subrings(ring, must_contain=seed)
        else:
            assert enumerate_subrings(ring, must_contain=seed) == want


def test_dim_vector_floats():
    dv = DimVector(values=(1.0, 2.0))
    assert dv.total() == 5.0
    assert list(dv) == [1.0, 2.0]
    assert dv.as_floats().dtype == np.float64


def test_dim_vector_sums_exact_when_every_value_is_exact():
    rt2 = Cyc.sqrt_int(2)
    dv = DimVector(values=(1, Cyc.rational(1), rt2))
    assert dv.exact == (Cyc.rational(1), Cyc.rational(1), rt2)
    assert isinstance(dv.total(), Cyc) and dv.total() == 4
    assert isinstance(dv.total((0, 2)), Cyc) and dv.total((0, 2)) == 3
    dot = dv.dot((1, 2, 3))
    assert isinstance(dot, Cyc) and dot == 3 + 3 * rt2


def test_dim_vector_sums_numeric_when_any_value_is_a_float():
    dv = DimVector(values=(Cyc.rational(1), 2.0, Cyc.sqrt_int(2)))
    assert dv.exact is None
    for value, want in [(dv.total(), 7), (dv.total((1, 2)), 6),
                        (dv.dot((1, 0, 2)), 1 + 2 * mp.sqrt(2))]:
        assert isinstance(value, mp.mpf)
        assert abs(value - want) < working_tol()


@pytest.mark.parametrize("a", [[1], [1, 0, 0, 0, 0, 0]], ids=["short", "long"])
def test_element_product_refuses_an_element_of_the_wrong_length(a):
    # a length-1 vector would otherwise broadcast over every coefficient
    ring = group_ring(*cyclic(2))
    for args in ((a, [1, 1]), ([1, 1], a)):
        with pytest.raises(SchemaError, match=f"the element has {len(a)} "
                           "coefficients, but the ring has rank 2"):
            element_product(ring, *args)
