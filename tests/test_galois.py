"""Correspondence checks: frozen small tables, lattice properties, and the
coset quotients.

The expected values were computed by hand from the defining fusion data:
averaging idempotents evaluated in explicit block characters, and dimension
counts via dim(B) * d(A^B) * d(A) = dim(C).
"""
import dataclasses
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import reference as ref
from fuscond import condense, galois, mantissa
from fuscond.condense import _averaging
from fuscond.cyclotomic import ROUND_TOL, TOL, as_mpc
from fuscond.errors import (NumericalDegeneracyError, SchemaError,
                            TheoremViolationError)
from fuscond.galois import (
    GaloisEntry,
    _invariants,
    _order_problems,
    group_quotient,
    hasse_dot,
    lattice,
    markdown_table,
    verify_correspondence,
)
from fuscond.ring import BasedRing, element_product
from fuscond.mantissa import U, mantissas

from cached_bundles import BUILT_INS, FIXED_BUNDLES, bundle, swr, swr_at
from test_condense import check_averaging, exact_idempotent
from test_reference import (case, check_lattice, check_quotient, ideal_order,
                            kinds)


# every built-in family member
FILTER_MEMBERS = ([(f, n) for f in ("a2n", "a2nplus1") for n in range(1, 13)]
                  + [("coset-su2", k) for k in range(1, 11)] + FIXED_BUNDLES)
FILTER_IDS = [f"{f}-{n}" for f, n in FILTER_MEMBERS]


def named_vector(b, entry):
    assert entry.ambient_vector is not None
    return {b.ambient.labels[x]: n
            for x, n in enumerate(entry.ambient_vector) if n}


def invariants_of(r, subs) -> list:
    """(n', ambient vector) of each sorted sub, read as
    verify_correspondence reads them: one _invariants pass at the module
    dims of the bundle."""
    return list(_invariants(r, subs, mantissas(r.bundle.dA.values)))


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
    e_loc = exact_idempotent(b, b.local)
    for sub in lattice(b):
        eb = exact_idempotent(b, sub)
        prod = element_product(b.module_ring, list(eb), list(e_loc))
        for got, want in zip(prod, eb):
            assert abs(complex(as_mpc(got) - as_mpc(want))) < 1e-12


def test_invariant_subalgebra_rejects_non_closed_sets():
    with pytest.raises(SchemaError):
        invariants_of(swr("a2n", 1), [(0, 3, 4)])


def test_invariant_subalgebra_rejects_a_repeated_index():
    with pytest.raises(SchemaError, match=r"\(0, 0\) repeats a basis index"):
        invariants_of(swr("toric-code"), [(0, 0)])


def test_trivial_block_has_multiplicity_one_everywhere():
    rep = verify_correspondence(bundle("a2nplus1", 2), swr=swr("a2nplus1", 2))
    ideal_idx = [bi for bi, f in enumerate(swr("a2nplus1", 2).in_ideal) if f]
    pos = ideal_idx.index(rep.trivial_block)
    for e in rep.entries:
        assert e.n_prime[pos] == 1


@pytest.mark.parametrize("family,n", FILTER_MEMBERS, ids=FILTER_IDS)
def test_the_trivial_block_is_the_one_block_of_the_dimension_character(
        family, n):
    # an independent reading of the trivial block: the one ideal block of
    # size 1 whose character is within ROUND_TOL rank of d_A in L1
    b, r = bundle(family, n), swr(family, n)
    gap = np.abs(r.characters - b.dA.as_floats()).sum(axis=1)
    hits = [bi for bi, bp in enumerate(r.blocks) if r.in_ideal[bi]
            and bp.m == 1 and gap[bi] <= ROUND_TOL * b.module_ring.rank]
    assert hits == [verify_correspondence(b, swr=r).trivial_block]


@pytest.mark.parametrize("family,n", [("toric-code", None), ("a2n", 1),
                                      ("ising-square", None)])
def test_an_ideal_without_the_trivial_block_is_refused(family, n):
    b, r = bundle(family, n), swr(family, n)
    in_ideal = list(r.in_ideal)
    in_ideal[verify_correspondence(b, swr=r).trivial_block] = False
    cut = dataclasses.replace(r, in_ideal=tuple(in_ideal))
    with pytest.raises(TheoremViolationError,
                       match="no block carries the dimension character"):
        verify_correspondence(b, swr=cut)


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", FILTER_MEMBERS, ids=FILTER_IDS)
def test_the_character_table_is_a_read_only_float_view(family, n, dps):
    # each part within 2 ulp of the table's mantissas read in mpmath at
    # the report's precision
    r = swr_at(family, n, dps)
    chi = r.characters
    assert chi.dtype == np.complex128 and not chi.flags.writeable
    re, im, exp = r.character_mantissas
    with mp.workdps(dps):
        want = np.array([[complex(mp.mpc(mp.mpf((x, exp)), mp.mpf((y, exp)))
                                  / bp.m) for x, y in zip(xs, ys)]
                         for xs, ys, bp in zip(re, im, r.blocks)])
    for got, exact in ((chi.real, want.real), (chi.imag, want.imag)):
        assert (np.abs(got - exact) <= 2 * np.spacing(np.abs(exact))).all()


@pytest.mark.parametrize("given,built", [(("a2n", 1), ("toric-code",)),
                                         (("toric-code",), ("a2n", 1))])
def test_a_report_of_another_bundle_is_refused(given, built):
    with pytest.raises(SchemaError, match="built from another bundle"):
        verify_correspondence(bundle(*given), swr=swr(*built))


# ------------------------------------------------------------------ quotients


def test_toric_quotient_is_z2():
    q = group_quotient(swr("toric-code"))
    assert q.table is not None
    assert q.cosets == ((0,), (1,))
    assert q.table == ((0, 1), (1, 0))
    assert q.pointed == (0, 1)


def test_group_quotient_reads_coefficients_against_its_tol():
    # dA = (1, 1 + 1e-7): M M is 1 / (1 + 1e-7)^2 times the unit coset, a
    # coefficient 2e-7 away from 1, with a residual of 0
    r = swr("toric-code")
    r = dataclasses.replace(r, bundle=dataclasses.replace(
        r.bundle, dA=(1.0, 1.0 + 1e-7)))
    assert group_quotient(r).table is None
    q = group_quotient(r, tol=1e-6)
    assert q.residual == 0.0 and q.table == ((0, 1), (1, 0))


def test_vlplus_quotient_is_z2():
    q = group_quotient(swr("vlplus-orbifold", 1))
    assert q.table is not None
    assert q.cosets == ((0, 1, 2), (3,))
    assert q.table == ((0, 1), (1, 0))


def test_a2n1_quotient_not_group_pointed_dihedral():
    q = group_quotient(swr("a2n", 1))
    assert q.table is None
    assert len(q.cosets) == 8
    assert q.pointed == (0, 1, 2, 3, 4, 5)
    t = q.pointed_table
    assert t[1][3] != t[3][1]  # nonabelian
    assert all(t[i][i] == 0 for i in (3, 4, 5))  # reflections square to 1
    assert t[1][2] == 0  # r1 r2 = 1


def test_ising_square_quotient():
    q = group_quotient(swr("ising-square"))
    assert q.table is None
    assert q.pointed == (0, 1)
    assert q.pointed_table == ((0, 1), (1, 0))


def test_a2nplus1_quotient_pointed_order8():
    q = group_quotient(swr("a2nplus1", 1))
    assert q.table is None
    assert len(q.cosets) == 12
    assert len(q.pointed) == 8
    t = q.pointed_table
    assert t[1][1] == 2 and t[2][2] == 0  # the rotation has order 4
    assert t[1][4] != t[4][1]  # dihedral, not abelian


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


# ------------------------------------------------- the reference, case by case
# Each stage of tests/test_reference.py once per case and precision.  The
# test names here and below are those of the comparisons with earlier
# implementations that these replace, kept so that their ids stay the same.

PINNED_IDS = [f"{f}-{n}" for f, n in BUILT_INS]


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", BUILT_INS, ids=PINNED_IDS)
def test_array_bookkeeping_matches_the_loops(family, n, dps):
    # the cosets of the local part, their tables and the pointed part
    # against the reference, as Python ints
    c = case(family, n, dps)
    with mp.workdps(dps):
        check_quotient(c.r, c.ref)


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", BUILT_INS, ids=PINNED_IDS)
def test_n_prime_reading_equals_the_parent_loops(family, n, dps):
    # verify_correspondence: every entry and every problem
    c = case(family, n, dps)
    with mp.workdps(dps):
        check_lattice(c.b, c.r, c.ref, c.pair)


# The members of the galois-lattice benchmark workload.
LATTICE_MEMBERS = ([("a2n", n) for n in range(1, 6)]
                   + [("a2nplus1", n) for n in range(1, 5)] + FIXED_BUNDLES)


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", LATTICE_MEMBERS,
                         ids=[f"{f}-{n}" for f, n in LATTICE_MEMBERS])
def test_invariant_subalgebra_matches_the_mpmath_path(family, n, dps):
    # the n' pass on its own: n' = chi_b(e_B) and the ambient vector of
    # every subring
    c = case(family, n, dps)
    order = ideal_order(c.r, c.ref.v, c.pair)
    with mp.workdps(dps):
        got = invariants_of(c.r, [w.sub for w in c.ref.entries])
        for w, (n_prime, vec) in zip(c.ref.entries, got, strict=True):
            assert n_prime == tuple(w.n_prime[i] for i in order), w.sub
            assert vec == w.vector, w.sub
            assert all(type(x) is int for x in n_prime)


# -------------------------------------------------- n' of a broken report


def test_perturbed_dims_fail_the_idempotent_check():
    r = swr("a2n", 1)
    values = list(r.bundle.dA.values)
    values[1] = float(as_mpc(values[1]).real) + 1e-6
    b = dataclasses.replace(r.bundle, dA=values)
    full = tuple(range(b.module_ring.rank))
    with pytest.raises(NumericalDegeneracyError,
                       match="failed the idempotent check"):
        invariants_of(dataclasses.replace(r, bundle=b), [full])
    with pytest.raises(NumericalDegeneracyError,
                       match="failed the idempotent check"):
        check_averaging(b, full)


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
        invariants_of(_scaled_block(r, bi, -1), [r.bundle.local])


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
        invariants_of(dataclasses.replace(r, blocks=tuple(blocks)),
                      [r.bundle.local])


# ------------------------------------------ order reversal and monotonicity


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
    assert kinds(_order_problems(entries, below, tol)) == ref.order_problems(
        [(entries[i], entries[j]) for i, j in np.argwhere(below)], tol)


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
        invariants_of(r, subs)
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


# ------------------------------------------ the float64 filter of the lattice
#
# _averaging and _invariants decide each row in float64 when the bound E of
# their docstrings proves the exact verdict; the exact tests take the rest.


def _exact_calls(monkeypatch) -> list:
    """Record each call of the exact tests behind the filter: the exact
    square of _averaging and the exact nearest of _invariants, with their
    row counts."""
    calls = []
    square, near = condense._bilinear, galois.nearest

    def bilinear(terms, a, b):
        calls.append(("averaging", len(a)))
        return square(terms, a, b)

    def nearest(*args):
        if len(args) == 4:
            calls.append(("n'", len(args[0])))
        return near(*args)
    monkeypatch.setattr(condense, "_bilinear", bilinear)
    monkeypatch.setattr(galois, "nearest", nearest)
    return calls


def _no_filter(monkeypatch):
    """A float64 limit that no bound passes, NaN: every row takes the
    exact test."""
    monkeypatch.setattr(condense, "band_limit", lambda tol: float("nan"))
    monkeypatch.setattr(mantissa, "band_limit", lambda tol: float("nan"))


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", FILTER_MEMBERS, ids=FILTER_IDS)
def test_the_filter_decides_every_lattice_entry_as_the_exact_test(
        monkeypatch, family, n, dps):
    b, r = bundle(family, n), swr_at(family, n, dps)
    subs = lattice(b)
    with mp.workdps(dps):
        dims = mantissas(b.dA.values)
        calls = _exact_calls(monkeypatch)
        W, D = _averaging(b.module_ring, subs, dims)[:2]
        got = list(_invariants(r, subs, dims))
        assert calls == []
        _no_filter(monkeypatch)
        W_exact, D_exact = _averaging(b.module_ring, subs, dims)[:2]
        want = list(_invariants(r, subs, dims))
    assert calls == [("averaging", len(subs))] * 2 + [("n'", len(subs))]
    assert W.tolist() == W_exact.tolist() and D == D_exact
    for sub, g, w in zip(subs, got, want, strict=True):
        assert g == w, sub
        assert all(type(x) is int for x in g[0])


def _unit_character(r, value):
    """The report with the character of its first ideal block of size 1
    moved to value at the unit, and that block's ideal position."""
    bi = next(bi for bi, f in enumerate(r.in_ideal)
              if f and r.blocks[bi].m == 1)
    re, im, exp = r.character_mantissas
    re = re.copy()
    re[bi, 0] = round(value * 2 ** -exp)
    assert im[bi, 0] == 0
    return (dataclasses.replace(r, character_mantissas=(re, im, exp)),
            sum(r.in_ideal[:bi]))


@pytest.mark.parametrize("offset,decided_by", [
    (-2, "filter"), (-0.5, "exact"), (0.5, "exact")])
def test_an_n_prime_inside_the_band_is_decided_exactly(monkeypatch, offset,
                                                       decided_by):
    # on the unit subring e_B is the unit, so n'_b = chi_b(1); at
    # ROUND_TOL + offset E from 1, with the filter's E for that entry, the
    # filter passes it only from 2 E below, and the exact test decides
    # inside the band
    r = swr("toric-code")
    rank = r.bundle.module_ring.rank
    E = (4 * rank + 12) * U * (1 + ROUND_TOL) + rank * 2.0 ** -960
    value = Fraction(1) + Fraction(ROUND_TOL) + offset * Fraction(E)
    moved, pos = _unit_character(r, value)
    calls = _exact_calls(monkeypatch)
    if offset > 0:
        with pytest.raises(NumericalDegeneracyError,
                           match=r"for subring \(0,\) = \(1\.000001"):
            invariants_of(moved, [(0,)])
    else:
        [(n_prime, _)] = invariants_of(moved, [(0,)])
        assert n_prime[pos] == 1
    assert calls == ([] if decided_by == "filter" else [("n'", 1)])


def _unit_dims(ring, residual):
    """Mantissas (w, _, f) of module dims whose unit subring has
    e_B^2 - e_B = -residual at the unit: with x = w_0 2**f, e_B = 1 / x
    and the residual is (1 - x) / x^2, so x = 1 + t with
    t = residual (1 + t)^2."""
    f = -80
    with mp.workdps(60):
        t = mp.mpf(0)
        for _ in range(10):
            t = residual * (1 + t) ** 2
        w0 = int(mp.nint((1 + t) * 2 ** -f))
    return [w0] + [1 << -f] * (ring.rank - 1), [0] * ring.rank, f


@pytest.mark.parametrize("offset,decided_by", [
    (-2, "filter"), (-0.5, "exact"), (0.5, "exact")])
def test_a_residual_inside_the_band_is_decided_exactly(monkeypatch, offset,
                                                       decided_by):
    # the unit subring's residual at TOL + offset E, with the filter's
    # E = (8r + 16) u ((e_B^2)_0 + e_0) = (8r + 16) u (1/x^2 + 1/x)
    ring = bundle("toric-code").module_ring
    r = ring.rank
    E = (8 * r + 16) * U * 2
    dims = _unit_dims(ring, mp.mpf(TOL) + offset * mp.mpf(E))
    calls = _exact_calls(monkeypatch)
    if offset > 0:
        with pytest.raises(NumericalDegeneracyError,
                           match=r"e_B for \(0,\) failed the idempotent"):
            _averaging(ring, [(0,)], dims)
    else:
        _averaging(ring, [(0,)], dims)
    assert calls == ([] if decided_by == "filter" else [("averaging", 1)])


@pytest.mark.parametrize("edit", [
    # module dims moved off the Perron-Frobenius ones (the idempotent
    # check), and a block of size 1 taken for one of size 2 (n' = 1/2)
    lambda r: dataclasses.replace(r, bundle=dataclasses.replace(
        r.bundle, dA=[v if y != 1 else float(as_mpc(v).real) + 1e-6
                      for y, v in enumerate(r.bundle.dA.values)])),
    lambda r: _sized_block(r, next(bi for bi, f in enumerate(r.in_ideal)
                                   if f and r.blocks[bi].m == 1), 2),
], ids=["averaging", "n'"])
def test_a_row_the_filter_rejects_raises_the_exact_text(monkeypatch, edit):
    r = edit(swr("a2n", 1))
    full = [tuple(range(r.bundle.module_ring.rank)), r.bundle.local]
    calls = _exact_calls(monkeypatch)
    with pytest.raises(NumericalDegeneracyError) as filtered:
        invariants_of(r, full)
    assert calls
    _no_filter(monkeypatch)
    with pytest.raises(NumericalDegeneracyError) as exact:
        invariants_of(r, full)
    assert str(filtered.value) == str(exact.value)
