"""Acceptance gate: eight end-to-end checks, one pass/fail line each.

Each criterion is one test whose name carries its number, so `pytest -v`
shows a per-criterion verdict; `pytest -s` also prints the summary lines.
All tolerances are pinned here, not inherited from library defaults.
"""
import numpy as np

from cached_bundles import bundle, swr
from grouptables import alternating, cyclic, dihedral, quaternion, symmetric
from test_ring import brute_force_subrings

from fuscond.condense import codegree_check, indicator
from fuscond.cyclotomic import Cyc, as_mpc
from fuscond.families import ising_modular, toric_modular
from fuscond.galois import group_quotient, verify_correspondence
from fuscond.modular import central_idempotent, verlinde
from fuscond.ring import element_product, enumerate_subrings, fp_dims, \
    group_ring
from fuscond.wedderburn import block_profiles


def _conclude(num, problems, detail):
    verdict = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {num}: {verdict} - {detail}")
    assert not problems, "; ".join(problems)


def test_criterion_1_family_counts():
    """Rank, multiplicity sum, and dimensions of the a2n bundles, exactly."""
    problems = []
    for n in range(1, 5):
        b = bundle("a2n", n)
        if b.module_ring.rank != 4 * n + 4:
            problems.append(f"n={n}: module rank {b.module_ring.rank}")
        if sum(v * v for v in b.mult) != 4 * n + 4:
            problems.append(f"n={n}: sum n_x^2 != {4 * n + 4}")
        want = Cyc.rational(8 * n + 4)
        dim_ca = sum(d * d for d in b.dA)
        if dim_ca != want:
            problems.append(f"n={n}: dim of condensed ring is {dim_ca}")
        quot = b.ambient.global_dim() / b.algebra.dim()
        if quot != want:
            problems.append(f"n={n}: dim(C)/d(A) = {quot}")
    _conclude(1, problems,
              "a2n n=1..4: |Irr| = 4n+4, sum n_x^2 = 4n+4, "
              "dim = 8n+4 = dim(C)/d(A), all exact")


def test_criterion_2_block_profile():
    """Wedderburn blocks of the projected module ring match multiplicities."""
    problems = []
    for n in range(1, 5):
        b = bundle("a2n", n)
        r = swr("a2n", n)
        if r.kernel_dim != 0:
            problems.append(f"n={n}: kernel_dim {r.kernel_dim}")
        ms = sorted(bp.m for bp in r.ideal_blocks())
        if ms != [1, 1, 1, 1] + [2] * n:
            problems.append(f"n={n}: block sizes {ms}")
        if ms != sorted(v for v in b.mult if v):
            problems.append(f"n={n}: blocks differ from nonzero n_x")
    _conclude(2, problems,
              "a2n n=1..4: blocks are four 1s plus n 2s, kernel_dim 0")


def test_criterion_3_galois_names():
    """The n=1 lattice reproduces the named invariant subalgebras."""
    b = bundle("a2n", 1)
    rep = verify_correspondence(b, tol=1e-9, swr=swr("a2n", 1))
    problems = list(rep.problems)

    def vec(sub):
        e = rep.entry(sub)
        if e.ambient_vector is None:
            return None
        return {b.ambient.labels[i]: v
                for i, v in enumerate(e.ambient_vector) if v}

    named = {
        (0, 1, 2, 6): {"1.1": 1, "j.1": 1},
        (0, 1, 2, 7): {"1.1": 1, "1.j": 1},
        (0, 1, 2): {"1.1": 1, "1.j": 1, "j.1": 1, "j.j": 1},
        (0, 3): {"1.1": 1, "j.j": 1, "m1.m1": 1},
        tuple(range(8)): {"1.1": 1},
        (0,): {"1.1": 1, "1.j": 1, "j.1": 1, "j.j": 1, "m1.m1": 2},
    }
    for sub, want in named.items():
        got = vec(sub)
        if got != want:
            problems.append(f"sub {sub}: invariant {got}, expected {want}")
    if rep.entry((0,)).ambient_vector != tuple(b.mult):
        problems.append("trivial subring does not recover the full algebra")
    worst = max(e.residual for e in rep.entries)
    if not worst < 1e-9:
        problems.append(f"dimension formula residual {worst}")
    _conclude(3, problems,
              "a2n n=1: six named invariant subalgebras recovered, "
              f"max dimension residual {worst:.1e}")


def test_criterion_4_orbifold_quotients():
    """Both rank-aware quotient computations give the 2-element group."""
    problems = []
    z2 = ((0, 1), (1, 0))
    rv = swr("vlplus-orbifold", 1)
    qv = group_quotient(rv, tol=1e-9)
    if rv.kernel_dim != 2:
        problems.append(f"orbifold kernel_dim {rv.kernel_dim}")
    if qv.table != z2:
        problems.append(f"orbifold quotient table {qv.table}")
    rt = swr("toric-code")
    qt = group_quotient(rt, tol=1e-9)
    if rt.kernel_dim != 0:
        problems.append(f"toric kernel_dim {rt.kernel_dim}")
    if qt.table != z2:
        problems.append(f"toric quotient table {qt.table}")
    _conclude(4, problems,
              "orbifold quotient Z2 with kernel_dim 2; toric quotient Z2 "
              "with kernel_dim 0")


def test_criterion_5_codegrees():
    """Formal codegree scalars act diagonally on the block decomposition."""
    problems = []
    for fam in ("toric-code", "ising-square"):
        cg = codegree_check(swr(fam), tol=1e-9)
        if not cg.ok:
            problems.extend(f"{fam}: {p}" for p in cg.report.problems)
        if not cg.residual < 1e-9:
            problems.append(f"{fam}: residual {cg.residual}")
    _conclude(5, problems,
              "codegree identity on toric-code and ising-square, "
              "residual < 1e-9")


def test_criterion_6_verlinde_round_trip():
    """S-matrices reproduce fusion exactly; their idempotents resolve 1."""
    problems = []
    toric = toric_modular()
    xor = np.zeros((4, 4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            xor[i, j, i ^ j] = 1
    if not np.array_equal(verlinde(toric).fusion, xor):
        problems.append("toric verlinde differs from the xor table")

    ising = ising_modular()
    F = np.zeros((3, 3, 3), dtype=np.int64)
    F[0] = np.eye(3, dtype=np.int64)
    F[:, 0] = np.eye(3, dtype=np.int64)
    F[1, 1, 0] = F[1, 2, 2] = F[2, 1, 2] = 1
    F[2, 2, 0] = F[2, 2, 1] = 1
    if not np.array_equal(verlinde(ising).fusion, F):
        problems.append("ising verlinde differs from the frozen table")

    for name, md in (("toric", toric), ("ising", ising)):
        ring = verlinde(md)
        idems = [[complex(as_mpc(c)) for c in central_idempotent(md, x)]
                 for x in range(md.rank)]
        unit = [0.0] * md.rank
        unit[0] = 1.0
        worst = max(abs(a - b) for a, b in
                    zip(np.sum(idems, axis=0), unit))
        for x, ex in enumerate(idems):
            for y, ey in enumerate(idems):
                prod = element_product(ring, ex, ey)
                want = ex if x == y else [0.0] * md.rank
                worst = max(worst, max(abs(a - b)
                                       for a, b in zip(prod, want)))
        if not worst < 1e-9:
            problems.append(f"{name}: idempotent residual {worst}")
    _conclude(6, problems,
              "verlinde fusion exact for toric and ising; idempotents "
              "orthogonal and complete")


def test_criterion_7_oracles():
    """Closure enumeration and block splitting against independent oracles."""
    problems = []
    corpus = [group_ring(*cyclic(n)) for n in range(1, 9)]
    corpus.append(group_ring(*symmetric(3)))
    corpus.append(bundle("a2n", 1).module_ring)
    for ring in corpus:
        if enumerate_subrings(ring) != brute_force_subrings(ring):
            problems.append(f"subring mismatch at rank {ring.rank}")

    degrees = [
        (cyclic(6), [1] * 6),
        (symmetric(3), [1, 1, 2]),
        (dihedral(4), [1, 1, 1, 1, 2]),
        (quaternion(), [1, 1, 1, 1, 2]),
        (dihedral(6), [1, 1, 1, 1, 2, 2]),
        (alternating(4), [1, 1, 1, 3]),
        (symmetric(4), [1, 1, 2, 3, 3]),
    ]
    for (table, inverse), want in degrees:
        ms = sorted(b.m for b in block_profiles(group_ring(table, inverse)))
        if ms != want:
            problems.append(f"group of order {len(table)}: degrees {ms}")
    _conclude(7, problems,
              "subring enumeration matches 2^r filtering on 10 rings; "
              "group-ring blocks match character degrees up to order 24")


def test_criterion_8_property_suite():
    """Order reversal, local indicator values, and the dimension character."""
    problems = []
    cases = [("a2n", 1), ("a2n", 2), ("a2nplus1", 1), ("a2nplus1", 2),
             ("vlplus-orbifold", 1), ("toric-code", None),
             ("ising-square", None), ("coset-toric", None)]
    for fam, n in cases:
        b = bundle(fam, n)
        r = swr(fam, n)
        rep = verify_correspondence(b, tol=1e-9, swr=r)
        if not rep.ok:
            problems.extend(f"{fam} n={n}: {p}" for p in rep.problems)

        for bi, x in r.matched_pairs():
            for y in b.local:
                a = [0] * b.module_ring.rank
                a[y] = 1
                val = complex(indicator(r, x, a))
                want = b.mult[x] * complex(as_mpc(b.dA[y]))
                if not abs(val - want) < 1e-9:
                    problems.append(
                        f"{fam} n={n}: indicator({b.ambient.labels[x]}, "
                        f"{b.module_ring.labels[y]}) = {val}")

        dvals = fp_dims(b.module_ring).values
        hits = []
        for bi, bp in enumerate(r.blocks):
            if not r.in_ideal[bi] or bp.m != 1:
                continue
            dev = max(abs(complex(r.characters[bi][y]) - dvals[y])
                      for y in range(b.module_ring.rank))
            if dev < 1e-9:
                hits.append(bi)
        if len(hits) != 1:
            problems.append(f"{fam} n={n}: dimension character found "
                            f"{len(hits)} times")
    _conclude(8, problems,
              "order reversal on all comparable pairs, local indicators "
              "equal n_x d_A(Y), one block carries the dimension character")
