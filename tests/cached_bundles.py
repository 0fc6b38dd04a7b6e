"""Shared, memoized family bundles and Schur-Weyl reports: they are
immutable, so the tests share one of each per family size and precision,
and the spectral work runs once across all test modules."""
import functools

import mpmath as mp

from fuscond import families
from fuscond.condense import schur_weyl


# The a2n and a2nplus1 members 1..6, the three bundles of fixed size, and
# the diagonal cosets of SU(2)_1..4 and of SU(2)_5..6.
FAMILY_MEMBERS = [(f, n) for f in ("a2n", "a2nplus1") for n in range(1, 7)]
FIXED_BUNDLES = [("vlplus-orbifold", 1), ("toric-code", None),
                 ("ising-square", None)]
SMALL_COSETS = [("coset-su2", k) for k in range(1, 5)]
LARGE_COSETS = [("coset-su2", k) for k in range(5, 7)]
BUILT_INS = FAMILY_MEMBERS + FIXED_BUNDLES + SMALL_COSETS + LARGE_COSETS


def bundle(family: str, n: int | None = None):
    # one cache key for bundle(f) and bundle(f, None), so that a report
    # from swr(f) is built from the very bundle bundle(f) returns
    return _bundle(family, n)


@functools.lru_cache(maxsize=None)
def _bundle(family: str, n: int | None):
    if family == "coset-toric":
        return families.coset_diagonal(families.toric_modular())
    return families.build(family, n=n)


def swr(family: str, n: int | None = None):
    return _swr(family, n)


@functools.lru_cache(maxsize=None)
def _swr(family: str, n: int | None):
    return schur_weyl(bundle(family, n))


@functools.lru_cache(maxsize=None)
def swr_at(family: str, n: int | None, dps: int):
    """swr at dps digits of working precision."""
    if dps == 15:
        return swr(family, n)
    with mp.workdps(dps):
        return schur_weyl(bundle(family, n))
