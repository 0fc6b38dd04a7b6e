"""The split on drawn rings against tests/reference.py, a seeded defect
in each stage of the fast path against the comparisons of
tests/differential.py, and digests of the bit-exact values the reference
compares only within its bound.  The built-ins are compared case by case
in test_condense.py and test_galois.py.
"""
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cached_bundles import BUILT_INS, bundle, swr_at
from differential import agree, check_ring
from fuscond import condense, galois, wedderburn
from fuscond.condense import (block_dims, check_bundle, codegree_check,
                              codegree_row, schur_weyl)
from fuscond.cyclotomic import TOL
from fuscond.families import ty_ring
from fuscond.galois import group_quotient, hasse_dot, verify_correspondence
from fuscond.ring import group_ring, product_ring
from fuscond.wedderburn import character_table
from grouptables import cyclic, symmetric
from test_condense import FACTORS, _mutations, _pulled_apart
from test_wedderburn import BATCH_RINGS, digest, group_rings


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
    "group_quotient": (galois, "TOL", 0.5, ("coset-su2", 3)),
}


@pytest.mark.parametrize("stage", list(DEFECTS))
def test_a_seeded_defect_fails_the_differential_test(monkeypatch, stage):
    where, name, defect, case = DEFECTS[stage]
    monkeypatch.setattr(where, name, defect)
    with mp.workdps(64), pytest.raises(AssertionError):
        if case is None:
            check_ring(group_ring(*cyclic(4)))
        else:
            agree(bundle(*case), schur_weyl(bundle(*case)))


# -- digests of bit-exact values the reference compares within its bound,
# recorded before it replaced the copies of earlier implementations; at 64
# and 128 digits again once as_mpc read an mpf at the working precision,
# which changed only the problem text of the mutants
READER_DIGESTS = {15: "a07d02be55b0cb88", 64: "af481374616d943e",
                  128: "2eae8e188ef85fa7"}


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
                 for m in _mutations(b, f)],
                [block_dims(_pulled_apart(r, f)[0], TOL) for f in FACTORS]))
    return values


@pytest.mark.parametrize("dps", [15, 64, 128])
def test_reader_values_are_pinned(dps):
    assert digest(reader_values(dps)) == READER_DIGESTS[dps]
