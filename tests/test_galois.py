"""Correspondence checks: frozen small tables, lattice properties, and the
coset quotients.

The expected values were computed by hand from the defining fusion data:
averaging idempotents evaluated in explicit block characters, and dimension
counts via dim(B) * d(A^B) * d(A) = dim(C).
"""
import dataclasses
import functools

import mpmath as mp
import numpy as np
import pytest

from fuscond.condense import _check_averaging, e_sub, schur_weyl
from fuscond.cyclotomic import TOL, as_mpc
from fuscond.errors import (NumericalDegeneracyError, SchemaError,
                            TheoremViolationError)
from fuscond.galois import (
    GaloisEntry,
    GroupQuotient,
    InvariantSubalgebra,
    _invariant_name,
    _invariants,
    _order_problems,
    _sub_name,
    _trivial_block,
    group_quotient,
    hasse_dot,
    invariant_subalgebra,
    lattice,
    markdown_table,
    verify_correspondence,
)
from fuscond.ring import BasedRing, element_product
from fuscond.mantissa import mantissas, round_quotient

from cached_bundles import bundle, swr
from test_wedderburn import round_int


def named_vector(b, entry):
    assert entry.ambient_vector is not None
    return {b.ambient.labels[x]: n
            for x, n in enumerate(entry.ambient_vector) if n}


# ------------------------------------------------------- frozen small tables


def test_a2n1_full_table():
    b = bundle("a2n", 1)
    rep = verify_correspondence(b, swr=swr("a2n", 1))
    assert rep.problems == ()
    assert rep.max_residual < 1e-9
    assert [e.sub for e in rep.entries] == [
        (0,),
        (0, 3), (0, 4), (0, 5),
        (0, 1, 2),
        (0, 1, 2, 6), (0, 1, 2, 7),
        (0, 1, 2, 3, 4, 5),
        (0, 1, 2, 3, 4, 5, 6, 7),
    ]
    want = {
        (0,): ({"1.1": 1, "1.j": 1, "j.1": 1, "j.j": 1, "m1.m1": 2}, 12, 1),
        (0, 3): ({"1.1": 1, "j.j": 1, "m1.m1": 1}, 6, 2),
        (0, 4): ({"1.1": 1, "j.j": 1, "m1.m1": 1}, 6, 2),
        (0, 5): ({"1.1": 1, "j.j": 1, "m1.m1": 1}, 6, 2),
        (0, 1, 2): ({"1.1": 1, "1.j": 1, "j.1": 1, "j.j": 1}, 4, 3),
        (0, 1, 2, 6): ({"1.1": 1, "j.1": 1}, 2, 6),
        (0, 1, 2, 7): ({"1.1": 1, "1.j": 1}, 2, 6),
        (0, 1, 2, 3, 4, 5): ({"1.1": 1, "j.j": 1}, 2, 6),
        (0, 1, 2, 3, 4, 5, 6, 7): ({"1.1": 1}, 1, 12),
    }
    for e in rep.entries:
        vec, d, dim = want[e.sub]
        assert named_vector(b, e) == vec
        assert abs(e.d_invariant - d) < 1e-9
        assert abs(e.dim_sub - dim) < 1e-9
        assert e.residual < 1e-9


def test_a2n1_collision_is_the_three_reflections():
    # the three reflection subrings are genuinely distinct subalgebras with
    # one and the same multiplicity vector, so the map to vectors is not
    # injective; everything else about the correspondence still holds
    rep = verify_correspondence(bundle("a2n", 1), swr=swr("a2n", 1))
    assert not rep.injective
    assert rep.collisions == (((0, 3), (0, 4), (0, 5)),)


def test_toric_table():
    b = bundle("toric-code")
    rep = verify_correspondence(b, swr=swr("toric-code"))
    assert rep.problems == ()
    assert rep.injective
    got = {e.sub: (named_vector(b, e), e.d_invariant, e.dim_sub)
           for e in rep.entries}
    assert set(got) == {(0,), (0, 1)}
    assert got[(0,)][0] == {"1": 1, "e": 1}
    assert abs(got[(0,)][1] - 2) < 1e-9 and abs(got[(0,)][2] - 1) < 1e-9
    assert got[(0, 1)][0] == {"1": 1}
    assert abs(got[(0, 1)][1] - 1) < 1e-9 and abs(got[(0, 1)][2] - 2) < 1e-9


def test_vlplus_table():
    b = bundle("vlplus-orbifold", 1)
    rep = verify_correspondence(b, swr=swr("vlplus-orbifold", 1))
    assert rep.problems == ()
    assert rep.injective
    got = {e.sub: (named_vector(b, e), e.d_invariant, e.dim_sub)
           for e in rep.entries}
    assert set(got) == {(0, 1, 2), (0, 1, 2, 3)}
    assert got[(0, 1, 2)][0] == {"1": 1, "j": 1}
    assert abs(got[(0, 1, 2)][1] - 2) < 1e-9
    assert abs(got[(0, 1, 2)][2] - 3) < 1e-9
    assert got[(0, 1, 2, 3)][0] == {"1": 1}
    assert abs(got[(0, 1, 2, 3)][2] - 6) < 1e-9


def test_ising_square_table():
    b = bundle("ising-square")
    rep = verify_correspondence(b, swr=swr("ising-square"))
    assert rep.problems == ()
    got = {e.sub: named_vector(b, e) for e in rep.entries}
    assert got == {
        (0,): {"1.1": 1, "p.p": 1, "s.s": 1},
        (0, 1): {"1.1": 1, "p.p": 1},
        (0, 1, 2): {"1.1": 1},
    }
    # d(A) = d(1.1) + d(p.p) + d(s.s) = 1 + 1 + 2
    e = rep.entry((0,))
    assert abs(e.d_invariant - 4) < 1e-9


def test_a2nplus1_lattice_runs_without_matching():
    b = bundle("a2nplus1", 1)
    rep = verify_correspondence(b, swr=swr("a2nplus1", 1))
    assert rep.problems == ()
    assert len(rep.entries) == 21
    assert all(e.ambient_vector is None for e in rep.entries)
    # {1, r2, X1} has total squared dimension 4, so d(A^B) = 256/(4*16)
    e = rep.entry((0, 2, 8))
    assert abs(e.dim_sub - 4) < 1e-9
    assert abs(e.d_invariant - 4) < 1e-9
    assert not rep.injective


@pytest.mark.parametrize("family,n", [
    ("a2n", 1), ("a2n", 2), ("a2n", 6), ("a2nplus1", 1), ("a2nplus1", 2),
    ("a2nplus1", 5), ("a2nplus1", 6), ("vlplus-orbifold", 1),
    ("toric-code", None), ("ising-square", None),
])
def test_correspondence_clean_everywhere(family, n):
    rep = verify_correspondence(bundle(family, n), swr=swr(family, n))
    assert rep.problems == ()
    assert rep.max_residual < 1e-9


# ----------------------------------------------------------------- properties


def test_endpoints_are_forced():
    rep = verify_correspondence(bundle("a2n", 1), swr=swr("a2n", 1))
    ms = tuple(bp.m for bp in swr("a2n", 1).ideal_blocks())
    assert rep.entries[0].n_prime == ms
    assert sum(rep.entries[-1].n_prime) == 1


def test_order_reversal_strict_on_comparable_pairs():
    rep = verify_correspondence(bundle("a2n", 1), swr=swr("a2n", 1))
    for ei in rep.entries:
        for ej in rep.entries:
            if set(ei.sub) < set(ej.sub):
                assert ej.d_invariant < ei.d_invariant - 1e-9
                assert all(a <= b for a, b in zip(ej.n_prime, ei.n_prime))


@pytest.mark.parametrize("family,n", [("a2n", 1), ("vlplus-orbifold", 1)])
def test_averaging_idempotents_absorb(family, n):
    # e_B e_loc = e_B whenever B contains the local part
    b = bundle(family, n)
    e_loc = e_sub(b, tuple(sorted(b.local)))
    for sub in lattice(b):
        eb = e_sub(b, sub)
        prod = element_product(b.module_ring, list(eb), list(e_loc))
        for got, want in zip(prod, eb):
            assert abs(complex(as_mpc(got) - as_mpc(want))) < 1e-12


def test_invariant_subalgebra_rejects_non_closed_sets():
    with pytest.raises(SchemaError):
        invariant_subalgebra(swr("a2n", 1), (0, 3, 4))


def test_invariant_subalgebra_rejects_a_repeated_index():
    with pytest.raises(SchemaError, match=r"\(0, 0\) repeats a basis index"):
        invariant_subalgebra(swr("toric-code"), (0, 0))


def test_trivial_block_has_multiplicity_one_everywhere():
    rep = verify_correspondence(bundle("a2nplus1", 2), swr=swr("a2nplus1", 2))
    ideal_idx = [bi for bi, f in enumerate(swr("a2nplus1", 2).in_ideal) if f]
    pos = ideal_idx.index(rep.trivial_block)
    for e in rep.entries:
        assert e.n_prime[pos] == 1


# ------------------------------------------------------------------ quotients


def test_toric_quotient_is_z2():
    q = group_quotient(swr("toric-code"))
    assert q.is_group
    assert q.cosets == ((0,), (1,))
    assert q.table == ((0, 1), (1, 0))
    assert q.pointed == (0, 1)


def test_vlplus_quotient_is_z2():
    q = group_quotient(swr("vlplus-orbifold", 1))
    assert q.is_group
    assert q.cosets == ((0, 1, 2), (3,))
    assert q.table == ((0, 1), (1, 0))


def test_a2n1_quotient_not_group_pointed_dihedral():
    q = group_quotient(swr("a2n", 1))
    assert not q.is_group
    assert len(q.cosets) == 8
    assert q.pointed == (0, 1, 2, 3, 4, 5)
    t = q.pointed_table
    assert t[1][3] != t[3][1]  # nonabelian
    assert all(t[i][i] == 0 for i in (3, 4, 5))  # reflections square to 1
    assert t[1][2] == 0  # r1 r2 = 1


def test_ising_square_quotient():
    q = group_quotient(swr("ising-square"))
    assert not q.is_group
    assert q.pointed == (0, 1)
    assert q.pointed_table == ((0, 1), (1, 0))


def test_a2nplus1_quotient_pointed_order8():
    q = group_quotient(swr("a2nplus1", 1))
    assert not q.is_group
    assert len(q.cosets) == 12
    assert len(q.pointed) == 8
    t = q.pointed_table
    assert t[1][1] == 2 and t[2][2] == 0  # the rotation has order 4
    assert t[1][4] != t[4][1]  # dihedral, not abelian


# --------------------------------------------------------------------- output


def test_hasse_dot_shape():
    rep = verify_correspondence(bundle("a2n", 1), swr=swr("a2n", 1))
    dot = hasse_dot(rep)
    assert dot.startswith("digraph lattice {")
    assert dot.count("[label=") == 9
    assert dot.count(" -> ") == 13
    # covers of the trivial subring are the four minimal subrings only
    assert "n0 -> n1;" in dot and "n0 -> n4;" in dot
    assert "n0 -> n8;" not in dot
    assert "{1,r1,r2} (dim 3)" in dot


def test_markdown_table_contents():
    rep = verify_correspondence(bundle("a2n", 1), swr=swr("a2n", 1))
    md = markdown_table(rep)
    lines = md.strip().splitlines()
    assert lines[0].startswith("| subring | dim |")
    assert len(lines) == 2 + 9
    assert "| {1,r1,r2,X} | 6 | 1.1 + j.1 | 2 |" in md


# ------------------------------------------------------- loop reference pins
#
# The loop versions that group_quotient, _trivial_block and hasse_dot had
# before they became array operations, kept here as references.


def _loop_trivial_block(swr):
    b = swr.bundle
    dv = b.dA.as_floats()
    best, best_gap = None, None
    for bi, bp in enumerate(swr.blocks):
        if not swr.in_ideal[bi]:
            continue
        gap = sum(abs(complex(swr.characters[bi][y]) - dv[y])
                  for y in range(b.module_ring.rank))
        if best_gap is None or gap < best_gap:
            best, best_gap = bi, gap
    if best is None or best_gap > 1e-6 * b.module_ring.rank:
        raise TheoremViolationError("no block carries the dimension character")
    return best


def _loop_group_quotient(swr, tol=TOL):
    b = swr.bundle
    ring = b.module_ring
    r = ring.rank
    parent = list(range(r))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for l in b.local:
        for y in range(r):
            for z in np.nonzero(ring.fusion[l, y])[0]:
                parent[find(y)] = find(int(z))
    groups = {}
    for y in range(r):
        groups.setdefault(find(y), []).append(y)
    cosets = sorted((tuple(sorted(v)) for v in groups.values()),
                    key=lambda c: c[0])
    k = len(cosets)
    coset_of = {y: ci for ci, c in enumerate(cosets) for y in c}

    dv = b.dA.as_floats()
    e1 = [float(as_mpc(c).real) for c in swr.e1]
    ebar = []
    for c in cosets:
        vec = [0.0] * r
        vec[c[0]] = 1.0
        prod = element_product(ring, e1, vec)
        ebar.append(np.array([float(x) for x in prod]) / dv[c[0]])

    residual = 0.0
    coeffs = np.zeros((k, k, k))
    for i in range(k):
        for j in range(k):
            p = np.array([float(x) for x in
                          element_product(ring, list(ebar[i]), list(ebar[j]))])
            recon = np.zeros(r)
            for ci in range(k):
                c = float(p @ ebar[ci]) / float(ebar[ci] @ ebar[ci])
                coeffs[i, j, ci] = c
                recon += c * ebar[ci]
            residual = max(residual, float(np.max(np.abs(p - recon))))
    if residual > tol:
        raise NumericalDegeneracyError("coset products do not decompose")

    def single_target(i, j):
        row = coeffs[i, j]
        hits = [ci for ci in range(k) if abs(row[ci] - 1.0) <= TOL]
        if len(hits) == 1 and all(abs(row[ci]) <= TOL
                                  for ci in range(k) if ci != hits[0]):
            return hits[0]
        return None

    table = tuple(tuple(single_target(i, j) for j in range(k))
                  for i in range(k))
    if any(t is None for row in table for t in row):
        table = None
    pointed = tuple(i for i, c in enumerate(cosets)
                    if single_target(i, coset_of[ring.dual[c[0]]])
                    == coset_of[0])
    ptable = []
    for i in pointed:
        row = []
        for j in pointed:
            t = single_target(i, j)
            if t is None or t not in pointed:
                raise TheoremViolationError("pointed cosets do not close")
            row.append(t)
        ptable.append(tuple(row))
    return GroupQuotient(cosets=tuple(cosets), table=table, pointed=pointed,
                         pointed_table=tuple(ptable), residual=residual)


def _loop_hasse_dot(report):
    b = report.bundle
    entries = report.entries
    n = len(entries)
    below = [[set(entries[i].sub) < set(entries[j].sub) for j in range(n)]
             for i in range(n)]
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for i, e in enumerate(entries):
        d = "?" if e.d_invariant is None else f"{e.d_invariant:g}"
        label = (f"{_sub_name(b, e.sub)} (dim {e.dim_sub:g})"
                 f"\\ninv {_invariant_name(b, e)} (d {d})")
        lines.append(f'  n{i} [label="{label}"];')
    for i in range(n):
        for j in range(n):
            if not below[i][j]:
                continue
            if any(below[i][m] and below[m][j] for m in range(n)):
                continue
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# Every built-in bundle, and the diagonal cosets of SU(2)_1..6.
PINNED = ([("a2n", n) for n in range(1, 7)]
          + [("a2nplus1", n) for n in range(1, 7)]
          + [("vlplus-orbifold", 1), ("toric-code", None),
             ("ising-square", None)]
          + [("coset-su2", k) for k in range(1, 7)])


@functools.lru_cache(maxsize=None)
def _swr_at(family, n, dps):
    if dps == 15:
        return swr(family, n)
    with mp.workdps(dps):
        return schur_weyl(bundle(family, n))


def _python_ints(value):
    if isinstance(value, tuple):
        return all(_python_ints(v) for v in value)
    return type(value) is int


@pytest.mark.parametrize("dps", [15, 64])
@pytest.mark.parametrize("family,n", PINNED,
                         ids=[f"{f}-{n}" for f, n in PINNED])
def test_array_bookkeeping_matches_the_loops(family, n, dps):
    r = _swr_at(family, n, dps)
    with mp.workdps(dps):
        got, want = group_quotient(r), _loop_group_quotient(r)
        assert _trivial_block(r) == _loop_trivial_block(r)
        rep = verify_correspondence(r.bundle, swr=r)
    for field in ("cosets", "table", "pointed", "pointed_table"):
        assert getattr(got, field) == getattr(want, field), field
        assert getattr(got, field) is None or _python_ints(getattr(got, field))
    assert abs(got.residual - want.residual) <= 1e-12
    assert hasse_dot(rep).encode() == _loop_hasse_dot(rep).encode()


def test_overlapping_local_orbits_are_refused():
    # local (0, 1) with 1 * 1 = 0 + 2 and 1 * 2 = 0: the orbits {0, 1},
    # {0, 1, 2} and {2} overlap, which no based ring allows
    F = np.zeros((3, 3, 3), dtype=np.int64)
    for y in range(3):
        F[0, y, y] = F[y, 0, y] = 1
    F[1, 1, 0] = F[1, 1, 2] = 1
    ring = BasedRing(labels=("1", "a", "b"), fusion=F, dual=(0, 1, 2))
    base = swr("ising-square")
    b = dataclasses.replace(base.bundle, module_ring=ring, dA=(1, 1, 1),
                            induction=None, local=(0, 1))
    with pytest.raises(TheoremViolationError, match="partition"):
        group_quotient(dataclasses.replace(base, bundle=b))


# ------------------------------------------- n' from the character mantissas

# The members of the galois-lattice benchmark workload.
LATTICE_MEMBERS = ([("a2n", n) for n in range(1, 6)]
                   + [("a2nplus1", n) for n in range(1, 5)]
                   + [("vlplus-orbifold", 1), ("toric-code", None),
                      ("ising-square", None)])


def _mpmath_invariant(r, sub):
    """n' and the ambient vector as computed before the integer path: the
    exact averaging idempotent, converted to mpmath numbers and evaluated
    in each ideal block's character by block_value."""
    b = r.bundle
    d = b.dA.scalars()
    inv = 1 / b.dA.total(sub)
    evec = [as_mpc(d[y] * inv) if y in sub else 0
            for y in range(b.module_ring.rank)]
    ideal = [bi for bi, f in enumerate(r.in_ideal) if f]
    n_prime = tuple(round_int(r.block_value(bi, evec), "n'") for bi in ideal)
    vec = None
    if all(r.matched[bi] is not None for bi in ideal):
        v = [0] * b.ambient.rank
        for bi, n in zip(ideal, n_prime):
            v[r.matched[bi]] = n
        vec = tuple(v)
    return n_prime, vec


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", LATTICE_MEMBERS,
                         ids=[f"{f}-{n}" for f, n in LATTICE_MEMBERS])
def test_invariant_subalgebra_matches_the_mpmath_path(family, n, dps):
    r = _swr_at(family, n, dps)
    with mp.workdps(dps):
        for sub in lattice(r.bundle):
            inv = invariant_subalgebra(r, sub)
            assert (inv.n_prime, inv.ambient_vector) == \
                _mpmath_invariant(r, sub), sub
            assert all(type(x) is int for x in inv.n_prime)


def _parent_invariant(r, sub, dims, D):
    """n' and the ambient vector of one subring from per-entry sums over
    its members, as the reading was before one product served the whole
    lattice."""
    b = r.bundle
    w, _, f = dims
    re, im, exp = r.character_mantissas
    block_indices, n_prime = [], []
    for bi, bp in enumerate(r.blocks):
        if not r.in_ideal[bi]:
            continue
        n = round_quotient(sum(w[y] * re[bi][y] for y in sub),
                           sum(w[y] * im[bi][y] for y in sub), exp - f,
                           bp.m * D, f"block multiplicity for subring {sub}")
        block_indices.append(bi)
        n_prime.append(n)
    vec = None
    if all(r.matched[bi] is not None for bi in block_indices):
        v = [0] * b.ambient.rank
        for bi, n in zip(block_indices, n_prime):
            v[r.matched[bi]] = n
        vec = tuple(v)
    return InvariantSubalgebra(sub=sub, block_indices=tuple(block_indices),
                               n_prime=tuple(n_prime), ambient_vector=vec)


def _parent_trivial_block(r):
    """_trivial_block with one complex per entry, each part one correctly
    rounded integer division."""
    b = r.bundle
    re, im, exp = r.character_mantissas
    s = max(exp, 0)
    dens = [bp.m << (s - exp) for bp in r.blocks]
    chi = [[complex((x << s) / d, (y << s) / d) for x, y in zip(rr, ii)]
           for rr, ii, d in zip(re.tolist(), im.tolist(), dens)]
    gap = np.where(r.in_ideal,
                   np.abs(chi - b.dA.as_floats()).sum(axis=1), np.inf)
    best = int(np.argmin(gap))
    assert gap[best] <= 1e-6 * b.module_ring.rank
    return best


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", PINNED,
                         ids=[f"{f}-{n}" for f, n in PINNED])
def test_n_prime_reading_equals_the_parent_loops(family, n, dps):
    r = _swr_at(family, n, dps)
    b = r.bundle
    with mp.workdps(dps):
        assert _trivial_block(r) == _parent_trivial_block(r)
        subs = lattice(b)
        dims = mantissas(b.dA.values)
        _, D = _check_averaging(b.module_ring, subs, dims)
        want = [_parent_invariant(r, sub, dims, d) for sub, d in zip(subs, D)]
        assert [invariant_subalgebra(r, sub) for sub in subs] == want
        rep = verify_correspondence(b, swr=r)
    assert [(e.sub, e.n_prime, e.ambient_vector) for e in rep.entries] == [
        (w.sub, w.n_prime, w.ambient_vector) for w in want]
    assert all(type(n) is int for w in want for n in w.n_prime)


def test_perturbed_dims_fail_the_idempotent_check():
    r = swr("a2n", 1)
    values = list(r.bundle.dA.values)
    values[1] = float(as_mpc(values[1]).real) + 1e-6
    b = dataclasses.replace(r.bundle, dA=values)
    full = tuple(range(b.module_ring.rank))
    with pytest.raises(NumericalDegeneracyError,
                       match="failed the idempotent check"):
        invariant_subalgebra(dataclasses.replace(r, bundle=b), full)
    with pytest.raises(NumericalDegeneracyError,
                       match="failed the idempotent check"):
        e_sub(b, full)


def _scaled_block(r, bi, factor):
    """The report with block bi's character mantissas times factor."""
    re, im, exp = r.character_mantissas
    re, im = re.copy(), im.copy()
    re[bi] *= factor
    im[bi] *= factor
    return dataclasses.replace(r, character_mantissas=(re, im, exp))


def test_out_of_range_multiplicity_is_a_theorem_violation():
    # on the local subring n' is the block size; a negated character
    # makes it -m
    r = swr("a2n", 1)
    bi = r.in_ideal.index(True)
    with pytest.raises(TheoremViolationError, match=r"outside \[0, "):
        invariant_subalgebra(_scaled_block(r, bi, -1), r.bundle.local)


def test_fuzzy_multiplicity_is_a_numerical_failure():
    # a block of size 1 taken for one of size 2 gives n' = 1/2 on the
    # local subring
    r = swr("a2n", 1)
    bi = next(bi for bi, f in enumerate(r.in_ideal)
              if f and r.blocks[bi].m == 1)
    blocks = list(r.blocks)
    blocks[bi] = dataclasses.replace(blocks[bi], m=2)
    with pytest.raises(NumericalDegeneracyError,
                       match=r"= \(0\.5\+0j\) is not within 1e-06 of an "
                             "integer"):
        invariant_subalgebra(dataclasses.replace(r, blocks=tuple(blocks)),
                             r.bundle.local)


# ------------------------------------------ order reversal and monotonicity


def _loop_order_problems(entries, below, tol):
    """_order_problems as one test per pair of np.argwhere(below)."""
    problems = []
    for i, j in np.argwhere(below):
        small, big = entries[i], entries[j]
        if small.d_invariant is None or big.d_invariant is None:
            continue
        if not big.d_invariant < small.d_invariant - tol:
            problems.append(
                f"order reversal fails: {small.sub} < {big.sub} but "
                f"d {small.d_invariant:g} !> {big.d_invariant:g}")
        if any(nb > ns for nb, ns in zip(big.n_prime, small.n_prime)):
            problems.append(
                f"multiplicities not monotone: {small.sub} < {big.sub} "
                f"but {big.n_prime} !<= {small.n_prime}")
    return problems


@pytest.mark.parametrize("seed", range(20))
def test_order_problems_match_the_pair_loop(seed):
    # random strict orders over entries with random dimensions, some
    # unknown, and random multiplicities, so both checks fail on some
    # pairs and pass on others
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 12))
    entries = [GaloisEntry(sub=(0, i), n_prime=tuple(rng.integers(0, 3, 3)
                                                      .tolist()),
                           ambient_vector=None,
                           d_invariant=(None if rng.random() < 0.2
                                        else float(rng.integers(1, 6))),
                           dim_sub=1.0, residual=0.0)
               for i in range(size)]
    below = np.triu(rng.random((size, size)) < 0.5, k=1)
    tol = float(rng.choice([1e-9, 0.5, 2.0]))
    assert _order_problems(entries, below, tol) == \
        _loop_order_problems(entries, below, tol)


# ------------------------------ which error the batched n' pass raises first
#
# On a2n 1 the ideal blocks are 0..4, of sizes 1, 1, 1, 1, 2, and
# n' = (1, 1, 1, 1, 2) on the local subring (0,) and (0, 0, 1, 1, 1) on
# (0, 3).  TheoremViolationError is exit 1 and NumericalDegeneracyError
# exit 3 of the CLI.


def _sized_block(r, bi, m):
    """The report with block bi taken for one of size m."""
    blocks = list(r.blocks)
    blocks[bi] = dataclasses.replace(blocks[bi], m=m)
    return dataclasses.replace(r, blocks=tuple(blocks))


def _first_error(r, subs):
    with pytest.raises((TheoremViolationError,
                        NumericalDegeneracyError)) as err:
        list(_invariants(r, subs, mantissas(r.bundle.dA.values)))
    return err


def _range_then_fuzzy():
    """n'_0 = -1 on (0,) and 0 on (0, 3); n'_4 = 1 on (0,) and 1/2 on
    (0, 3)."""
    return _sized_block(_scaled_block(swr("a2n", 1), 0, -1), 4, 4)


def test_an_out_of_range_subring_before_a_fuzzy_one_is_a_violation():
    r = _range_then_fuzzy()
    err = _first_error(r, [(0,), (0, 3)])
    assert err.type is TheoremViolationError
    assert str(err.value) == ("block multiplicity -1 outside [0, 1] for "
                              "subring (0,)")
    # the lattice takes (0,) first too
    with pytest.raises(TheoremViolationError, match=r"for subring \(0,\)$"):
        verify_correspondence(r.bundle, swr=r)


def test_a_fuzzy_subring_before_an_out_of_range_one_is_numerical():
    err = _first_error(_range_then_fuzzy(), [(0, 3), (0,)])
    assert err.type is NumericalDegeneracyError
    # the module dims are floats, so n'_4 = 1/2 reads one ulp low
    assert str(err.value) == (
        "block multiplicity for subring (0, 3) = (0.49999999999999994+0j) "
        "is not within 1e-06 of an integer")


@pytest.mark.parametrize("edit,kind,text", [
    # a fuzzy block 4 after an out-of-range block 0
    (lambda r: _sized_block(_scaled_block(r, 0, -1), 4, 3),
     TheoremViolationError, "block multiplicity -1 outside [0, 1]"),
    # a fuzzy block 0 before an out-of-range block 4
    (lambda r: _scaled_block(_sized_block(r, 0, 2), 4, -1),
     NumericalDegeneracyError, "= (0.5+0j) is not within"),
    # block 0 both fuzzy and out of range: its rounding is checked first
    (lambda r: _scaled_block(_sized_block(r, 0, 2), 0, -1),
     NumericalDegeneracyError, "= (-0.5+0j) is not within"),
], ids=["range-then-fuzzy", "fuzzy-then-range", "both"])
def test_blocks_of_one_subring_are_checked_in_order(edit, kind, text):
    err = _first_error(edit(swr("a2n", 1)), [(0,)])
    assert err.type is kind
    assert text in str(err.value)


def _swapped_dual(r, x, y):
    """The report with ambient simples x and y taken for each other's
    duals."""
    dual = list(r.bundle.ambient.dual)
    dual[x], dual[y] = y, x
    ambient = dataclasses.replace(r.bundle.ambient, dual=tuple(dual))
    algebra = dataclasses.replace(r.bundle.algebra, ambient=ambient)
    return dataclasses.replace(
        r, bundle=dataclasses.replace(r.bundle, algebra=algebra))


def test_a_skew_ambient_vector_is_a_self_duality_violation():
    # blocks 0 and 4 sit at 1.j and m1.m1: n' 1 and 2 on (0,), 0 and 1 on
    # (0, 3)
    r = _swapped_dual(swr("a2n", 1), 1, 12)
    with pytest.raises(TheoremViolationError) as err:
        verify_correspondence(r.bundle, swr=r)
    assert str(err.value) == (
        "invariant subalgebra is not self-dual: multiplicity 1 at 1.j vs 2 "
        "at m1.m1")
    # the self-duality of a subring is checked before the blocks of a
    # later one, and after its own blocks
    r = _scaled_block(r, 0, -1)
    err = _first_error(r, [(0, 3), (0,)])
    assert str(err.value) == (
        "invariant subalgebra is not self-dual: multiplicity 0 at 1.j vs 1 "
        "at m1.m1")
    err = _first_error(r, [(0,)])
    assert str(err.value) == ("block multiplicity -1 outside [0, 1] for "
                              "subring (0,)")


# ----------------------------------------------------------- lattice sizes

LATTICE_SIZES = {
    "a2n": (9, 11, 13, 19, 17, 19, 31, 23, 25, 39, 29, 37),
    "a2nplus1": (21, 27, 30, 33, 45, 39, 47, 56, 59, 51, 79, 57),
}


@pytest.mark.parametrize("family,n", [(f, n) for f in LATTICE_SIZES
                                      for n in range(1, 13)])
def test_lattice_sizes_are_pinned(family, n):
    assert len(lattice(bundle(family, n))) == LATTICE_SIZES[family][n - 1]
