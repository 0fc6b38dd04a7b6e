"""The fast path against the independent reference of tests/reference.py,
stage by stage, for the test modules to call case by case.  A change to a
fast path adds a case that calls these, or a digest pin of a bit-exact
value, not a copy of the code it replaces.

The reference runs at the precision of the comparison on rings of rank at
most SMALL_RANK, and at 64 digits on larger ones, whose 15- and 128-digit
reports are compared with that reference within the bound of the lower
of the two precisions.  Each reference value and each split comparison
of a built-in runs once per precision.
"""
import functools
import re
from collections import namedtuple

import mpmath as mp

import reference as ref
from cached_bundles import bundle, swr_at
from fuscond.condense import (block_dims, check_bundle, codegree_check,
                              codegree_row)
from fuscond.cyclotomic import TOL
from fuscond.galois import group_quotient, lattice, verify_correspondence
from fuscond.wedderburn import block_profiles, character_table

SMALL_RANK = 16


def reference_dps(ring, dps) -> int:
    return dps if ring.rank <= SMALL_RANK else 64


def mpc_values(mantissas, m=1) -> list:
    re_, im, exp = mantissas
    return [mp.mpc(mp.mpf((int(a), exp)), mp.mpf((int(c), exp))) / m
            for a, c in zip(re_, im)]


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
    """The reference of a built-in for a comparison at dps digits."""
    return _reference(family, n,
                      reference_dps(bundle(family, n).module_ring, dps))


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
        chi = mpc_values((re_, im, table[2]), bp.m)
        assert all(ref.close(x, y, dps) for x, y in zip(chi, rb[j].chi)), \
            "character"
    return pair


def check_ring(ring):
    """The split and the characters of a ring at the working precision."""
    blocks, dps = block_profiles(ring), reference_dps(ring, mp.mp.dps)
    with mp.workdps(dps):
        rb = ref.split(ring)
    check_split(blocks, character_table(ring, blocks), rb, dps)


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


def same_checks(b):
    """check_bundle's scalar problems of b against the reference's, leaving
    out a check within 10**(2 - dps) relative of its tolerance: the
    rounding of its sums at the working precision decides it either way."""
    edge = mp.mpf(10) ** (2 - mp.mp.dps)
    checks = ref.scalar_checks(b)
    unsure = {key for key, e in checks if abs(e) <= edge}
    got = [k for k in kinds(check_bundle(b).problems) if k and k not in unsure]
    assert got == [key for key, e in checks if e > edge]


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


def check_quotient(r, R):
    gq = group_quotient(r)
    assert (gq.cosets, gq.table, gq.pointed, gq.pointed_table) == R.quotient


def agree(b, r):
    """Every stage of the fast path on bundle b, with its Schur-Weyl report
    r, against the reference, at the working precision."""
    assert [k for k in kinds(check_bundle(b).problems) if k] == \
        ref.bundle_problems(b)
    R = reference_of(b)
    pair = check_blocks(b, r, R.v)
    check_rows(r, R.v, pair)
    check_codegrees(b, r, R.v, pair)
    check_lattice(b, r, R, pair)
    check_quotient(r, R)
