"""The fast path against the independent reference of tests/reference.py.

The stages of the comparison live here, for the test modules to call case
by case: every built-in at 15, 64 and 128 digits, each stage once per
case and precision.  The reference runs at the precision of the
comparison on rings of rank at most SMALL_RANK, and at 64 digits on
larger ones, whose 15- and 128-digit reports are compared with that
reference within the bound of the lower of the two precisions.  Here the
split is compared on drawn rings and check_bundle and the blocks on the
built-ins; a seeded defect in each stage must fail the comparison, and
digests pin the bit-exact values the reference compares only within its
bound.  A change to a fast path adds a case, or a digest pin, not a copy
of the code it replaces.
"""
import dataclasses
import functools
import re
from collections import namedtuple

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from cached_bundles import BUILT_INS, bundle, swr_at
from fuscond import condense, galois, wedderburn
from fuscond.condense import (block_dims, check_bundle, codegree_check,
                              schur_weyl)
from fuscond.cyclotomic import TOL, working_tol
from fuscond.families import ty_ring
from fuscond.galois import (group_quotient, hasse_dot, lattice,
                            verify_correspondence)
from fuscond.ring import group_ring, product_ring
from fuscond.wedderburn import character_table
from grouptables import cyclic, symmetric
from test_wedderburn import (BATCH_RINGS, check_ring, check_split, digest,
                             group_rings, mpc_values, reference_dps)


# the rings of the split digests, group rings and products of two,
# Tambara-Yamagami rings, and their products with a small group ring
RINGS = st.one_of(
    st.sampled_from(sorted(BATCH_RINGS)).map(lambda name: BATCH_RINGS[name]()),
    group_rings().map(lambda case: case[0]),
    st.builds(lambda m, g, p: product_ring(ty_ring(m), group_ring(*g)) if p
              else ty_ring(m), st.integers(min_value=2, max_value=6),
              st.sampled_from([cyclic(2), cyclic(3), symmetric(3)]),
              st.booleans()))


@settings(max_examples=12, deadline=None)
@given(RINGS, st.sampled_from([15, 64, 128]))
def test_split_agrees_with_the_reference(ring, dps):
    with mp.workdps(dps):
        check_ring(ring)


# -- every stage of a bundle against the reference, for the test modules
# to call case by case: test_condense.py compares the readers and the
# scalar checks, test_galois.py the lattice and the group quotient, each
# stage once per case and precision

# the verdict of a bundle, its lattice entries and their problems, and its
# group quotient, all from the reference
Reference = namedtuple("Reference", "v entries problems quotient")


def reference_of(b) -> Reference:
    v = ref.verdict(b)
    return Reference(v, *ref.correspondence(b, v, lattice(b)),
                     ref.group_quotient(b))


@functools.lru_cache(maxsize=None)
def _reference(family, n, dps) -> Reference:
    with mp.workdps(dps):
        return reference_of(bundle(family, n))


def reference(family, n, dps) -> Reference:
    """The reference of a built-in for a comparison at dps digits; a larger
    ring's three comparisons share its 64-digit reference."""
    return _reference(family, n,
                      reference_dps(bundle(family, n).module_ring, dps))


# the problems of check_bundle and verify_correspondence as the
# reference's keys: a kind and the labels or subrings it names
_KINDS = [(re.compile(p), k) for p, k in [
    (r"twist of (.+) is not 1", "twist"),
    (r"algebra dimension", "algebra dimension"), (r"dim\(C_A\)", "dim(C_A)"),
    (r"dim\(local\)", "dim(local)"), (r"module unit", "module unit"),
    (r"induction adjunction fails at (.+?): ", "adjunction"),
    (r"trivial block is matched", "unit"),
    (r"subring (\(.*?\)): trivial-block", "trivial"),
    (r"subring (\(.*?\)): no consistent", "skipped"),
    (r"subring (\(.*?\)): dimension formula", "formula"),
    (r"local subring multiplicities", "local"),
    (r"full module ring gives", "full"),
    (r"order reversal fails: (\(.*?\)) < (\(.*?\)) ", "reversal"),
    (r"multiplicities not monotone: (\(.*?\)) < (\(.*?\)) ", "monotone")]]


def kinds(problems) -> list:
    """Each problem's key, or None for one the reference does not check."""
    return [next(((k, *h.groups()) for r, k in _KINDS if (h := r.match(p))),
                 None) for p in problems]


def check_blocks(b, r, v) -> list:
    """The split, the characters, the ideal and the matching of report r
    against the reference verdict v; the reference block of each block."""
    assert v.problems == []
    pair = check_split(r.blocks, r.character_mantissas, v.blocks, v.dps)
    assert [v.in_ideal[j] for j in pair] == list(r.in_ideal), "ideal"
    assert [v.matched[j] for j in pair] == list(r.matched), "matching"
    return pair


# a built-in, its report at dps digits, its reference, and the reference
# block of each block of the report
Case = namedtuple("Case", "b r ref pair")


@functools.lru_cache(maxsize=None)
def case(family, n, dps) -> Case:
    """A built-in at dps digits, its blocks checked against the reference."""
    b, r = bundle(family, n), swr_at(family, n, dps)
    R = reference(family, n, dps)
    with mp.workdps(dps):
        return Case(b, r, R, check_blocks(b, r, R.v))


def check_ambient_rows(b, r, dps):
    """The ambient character rows of A against S(x*, y) / d(x) and every
    match fit below working_tol(); no matching without both."""
    # a2nplus1 has a table ambient and no induction, so no matching
    assert r.matching_skipped == (b.induction is None
                                  or not b.ambient.has_characters)
    if r.matching_skipped:
        return
    xs = [x for x, m in enumerate(b.mult) if m]
    with mp.workdps(dps):
        rows = ref.ambient_rows(b.ambient, xs)
    re_, im, exp = b.ambient.character_row(xs)
    for x, a, z, row in zip(xs, re_, im, rows):
        assert all(ref.close(u, w, dps) for u, w in
                   zip(mpc_values((a, z, exp)), row)), x
    fits = [float(note.rsplit("fit ", 1)[1][:-1])
            for note in r.notes if "(fit " in note]
    assert len(fits) == sum(r.in_ideal) and max(fits) < working_tol()


def codegree_row(r, bi) -> list:
    """phi of block bi on every block bj, by the two calls codegree_check
    makes: the exact sums of _codegree_sums, each rounded once by
    _codegree_value over m_bi m_bj^2, read off the module so that a
    seeded defect reaches them."""
    sre, sim = condense._codegree_sums(r, [bi])
    exp, m = r.character_mantissas[2], r.blocks[bi].m
    return [condense._codegree_value(a, c, exp, m * bp.m * bp.m)
            for a, c, bp in zip(sre[0].tolist(), sim[0].tolist(), r.blocks)]


def check_rows(r, v, pair):
    """block_dims and codegree_row of every ideal block: Ostrik's phi."""
    dims = block_dims(r, TOL)
    for k, j in ((k, j) for k, j in enumerate(pair) if r.in_ideal[k]):
        assert (dims[k] is None) == (v.dims[j] is None), f"dimension {k}"
        assert dims[k] is None or ref.close(dims[k], v.dims[j], v.dps)
        phi = [v.phi[j][i] for i in pair]
        assert all(ref.close(x, y, v.dps)
                   for x, y in zip(codegree_row(r, k), phi)), f"codegree {k}"


def check_codegrees(b, r, v, pair):
    """The entries and the residual of codegree_check: dim(C)/(d_x d(A))
    named by the matched label, or by the block."""
    cg, want = codegree_check(r), []
    for k, j in enumerate(pair):
        if r.in_ideal[k] and v.dims[j] is not None:
            x = r.matched[k]
            want.append((f"block[{k}]" if x is None else b.ambient.labels[x],
                         v.phi[j][j]))
    assert cg.ok and [n for n, _ in cg.entries] == [n for n, _ in want]
    assert all(ref.close(f, g, v.dps)
               for (_, f), (_, g) in zip(cg.entries, want))
    assert ref.close(cg.residual, v.residual, v.dps)


def ideal_order(r, v, pair) -> list:
    """The reference's ideal index of each ideal block of r, in order."""
    ideal = [j for j, f in enumerate(v.in_ideal) if f]
    return [ideal.index(j) for k, j in enumerate(pair) if r.in_ideal[k]]


def check_lattice(b, r, R, pair):
    """verify_correspondence: the problems, and n', the ambient vector,
    d(A^B), dim(B) and the dimension formula of every lattice entry."""
    rep, v = verify_correspondence(b, swr=r), R.v
    assert [e.sub for e in rep.entries] == [w.sub for w in R.entries]
    assert kinds(rep.problems) == R.problems
    order = ideal_order(r, v, pair)
    for e, w in zip(rep.entries, R.entries):
        assert e.n_prime == tuple(w.n_prime[i] for i in order), e.sub
        assert all(type(n) is int for n in e.n_prime)
        assert e.ambient_vector == w.vector, e.sub
        assert ref.close(e.dim_sub, w.dim_sub, v.dps), e.sub
        assert (e.d_invariant is None) == (w.d_invariant is None), e.sub
        if w.d_invariant is not None:
            assert ref.close(e.d_invariant, w.d_invariant, v.dps), e.sub
            assert ref.close(e.residual, w.residual, v.dps), e.sub


def _int_leaves(value):
    if isinstance(value, tuple):
        return all(map(_int_leaves, value))
    return type(value) is int


def check_quotient(r, R):
    """The cosets of the local part, their tables and the pointed part, as
    Python ints, and a residual within TOL."""
    gq = group_quotient(r)
    assert (gq.cosets, gq.table, gq.pointed, gq.pointed_table) == R.quotient
    assert _int_leaves((gq.cosets, gq.pointed, gq.pointed_table))
    assert gq.table is None or _int_leaves(gq.table)
    assert gq.residual <= TOL


def check_problems(b):
    """check_bundle's problems against the reference's."""
    assert [k for k in kinds(check_bundle(b).problems) if k] == \
        ref.bundle_problems(b)


def agree(b, r, R):
    """Every stage of the fast path on bundle b, with its Schur-Weyl report
    r, against the reference R of b, at the working precision."""
    check_problems(b)
    pair = check_blocks(b, r, R.v)
    check_ambient_rows(b, r, R.v.dps)
    check_rows(r, R.v, pair)
    check_codegrees(b, r, R.v, pair)
    check_lattice(b, r, R, pair)
    check_quotient(r, R)


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", BUILT_INS,
                         ids=[f"{f}-{n}" for f, n in BUILT_INS])
def test_problems_and_blocks_agree_with_the_reference(family, n, dps):
    # check_bundle, and the split, the characters, the ideal and the
    # matching; case() compares the blocks once per case and precision
    c = case(family, n, dps)
    with mp.workdps(dps):
        check_problems(c.b)


# -- mutants of the built-ins, for the comparisons of check_bundle and of
# block_dims in test_condense.py and the digests below

FACTORS = (1 + 1e-8, 1 + 1e-10)


def _with_ambient(b, **fields):
    amb = dataclasses.replace(b.ambient, **fields)
    return dataclasses.replace(
        b, algebra=dataclasses.replace(b.algebra, ambient=amb))


def _scaled(values, i, factor):
    return tuple(v * factor if j == i else v for j, v in enumerate(values))


def zero_induction_row(b, x):
    M = np.array(b.induction)
    M[x] = 0
    return dataclasses.replace(b, induction=M)


def mutations(b, factor):
    """The twist of the last x in A, d_A of the unit and of the largest
    module dim, and the ambient dim of that x, each times factor; with an
    induction matrix also one entry +1 and -1 and a zeroed row."""
    x = max(x for x, n in enumerate(b.mult) if n)
    big = int(np.argmax(b.dA.as_floats()))
    out = [_with_ambient(b, twists=_scaled(b.ambient.twists, x, factor)),
           dataclasses.replace(b, dA=_scaled(b.dA.values, 0, factor)),
           dataclasses.replace(b, dA=_scaled(b.dA.values, big, factor)),
           _with_ambient(b, dims=_scaled(b.ambient.dims.values, x, factor))]
    if b.induction is not None:
        y, z = (int(i) for i in np.argwhere(b.induction[:, 1:])[-1])
        for step in (1, -1):
            M = np.array(b.induction)
            M[y, z + 1] += step
            out.append(dataclasses.replace(b, induction=M))
        out.append(zero_induction_row(b, y))
    return out


def pulled_apart(r, factor):
    """r with no block matched and the ambient dims of the candidates x of
    one ideal block set to d, d factor, d, ..., with d the first one's;
    and that block's index."""
    b = r.bundle
    bi = next(bi for bi, bp in enumerate(r.blocks)
              if r.in_ideal[bi] and b.mult.count(bp.m) > 1)
    xs = [x for x, n in enumerate(b.mult) if n == r.blocks[bi].m]
    dims = [b.ambient.dims[xs[0]] if x in xs else d
            for x, d in enumerate(b.ambient.dims.values)]
    b = _with_ambient(b, dims=_scaled(dims, xs[1], factor))
    return dataclasses.replace(r, bundle=b, matched=(None,) * len(r.blocks)), bi


# -- a seeded defect in each stage must fail the differential test

DEFECTS = {
    # the center read as the span of the unit: Z/4 as one 2 x 2 block
    "center": (wedderburn, "center_basis", lambda r: np.eye(r.rank)[:1],
               None),
    # Newton stopped at TOL instead of 10**(8 - dps)
    "split": (wedderburn, "working_tol", lambda: mp.mpf(TOL), ("a2n", 2)),
    # the characters cut to their high bits
    "characters": (condense, "character_table",
                   lambda *a, f=character_table: tuple(
                       x >> 100 << 100 for x in f(*a)[:2]) + f(*a)[2:],
                   ("a2n", 2)),
    "matching": (condense.Ambient, "character_row",
                 lambda s, xs, f=condense.Ambient.character_row: f(s, xs[::-1]),
                 ("coset-su2", 2)),
    "codegree": (condense, "_codegree_value",
                 lambda *a, f=condense._codegree_value: mp.mpc(complex(f(*a))),
                 ("coset-su2", 3)),
    "n'": (galois, "nearest", lambda *a, f=galois.nearest: (
        f(*a)[0][:, ::-1], f(*a)[1]), ("coset-su2", 2)),
    "dimension formula": (galois, "block_dims", lambda *a, f=galois.block_dims:
                          {k: d and d * (1 + 1e-6) for k, d in f(*a).items()},
                          ("a2n", 1)),
    "order checks": (galois, "_order_problems",
                     lambda e, below, tol, f=galois._order_problems:
                     f(e, below.T, tol), ("a2n", 1)),
    # coset coefficients within 0.5 of 1 read as 1
    "group_quotient": (group_quotient, "__defaults__", (0.5,),
                       ("coset-su2", 3)),
}


@pytest.mark.parametrize("stage", list(DEFECTS))
def test_a_seeded_defect_fails_the_differential_test(monkeypatch, stage):
    where, name, defect, member = DEFECTS[stage]
    monkeypatch.setattr(where, name, defect)
    with mp.workdps(64), pytest.raises(AssertionError):
        if member is None:
            check_ring(group_ring(*cyclic(4)))
        else:
            b = bundle(*member)
            agree(b, schur_weyl(b), reference_of(b))


# -- digests of bit-exact values the reference compares within its bound,
# recorded before it replaced the copies of earlier implementations; at 64
# and 128 digits again once as_mpc read an mpf at the working precision,
# which changed only the problem text of the mutants; at 15 digits again
# once group_quotient read e1 off the 113-bit float64 view of dA, which
# changed only the coset-su2 6 residual, 2.78e-17 -> 5.55e-17; at all
# three again once check_bundle held ring ambient twists to the root test,
# which added only "ambient: twist 1 is not a root of unity" to the
# problems of the vlplus-orbifold twist mutant at 1 + 1e-8
READER_DIGESTS = {15: "3bdf81b26f5d63bd", 64: "c667ed363f1d8533",
                  128: "a320aceec9cf18e5"}


def reader_values(dps) -> list:
    values = []
    for family, n in BUILT_INS:
        b, r = bundle(family, n), swr_at(family, n, dps)
        with mp.workdps(dps):
            xs = [x for x, m in enumerate(b.mult) if m]
            values.append((
                r.character_mantissas,
                [codegree_row(r, bi) for bi in range(len(r.blocks))],
                None if r.matching_skipped else b.ambient.character_row(xs),
                r.notes, codegree_check(r), block_dims(r, TOL),
                # at 15 digits, residuals of about 1e-16 fail on and off
                # the diagonal
                codegree_check(r, tol=1e-20),
                group_quotient(r), hasse_dot(verify_correspondence(b, swr=r)),
                [check_bundle(m).problems for f in FACTORS
                 for m in mutations(b, f)],
                [block_dims(pulled_apart(r, f)[0], TOL) for f in FACTORS]))
    return values


@pytest.mark.parametrize("dps", [15, 64, 128])
def test_reader_values_are_pinned(dps):
    assert digest(reader_values(dps)) == READER_DIGESTS[dps]
