import dataclasses
import random
import re
from functools import reduce

import mpmath as mp
import numpy as np
import pytest

from fuscond import condense as condense_module
from fuscond.condense import (
    MATCH_ACCEPT,
    MATCH_REJECT,
    Ambient,
    CondensableAlgebra,
    CondensationBundle,
    _averaging,
    block_dims,
    check_bundle,
    codegree_check,
    indicator,
    schur_weyl,
)
from fuscond import families, serialize
from fuscond.cli import main
from fuscond.cyclotomic import TOL, Cyc, as_mpc, working_tol
from fuscond.errors import (CapabilityError, NumericalDegeneracyError,
                             SchemaError, TheoremViolationError)
from fuscond.modular import verlinde
from fuscond.families import ty_ring
from fuscond.ring import (BasedRing, DimVector, _bilinear_terms, _dot,
                          _merged, enumerate_subrings, group_ring, is_closed,
                          product_ring)
from fuscond.mantissa import (aligned, cmp_tol, mantissas, product, rescale,
                              rounded_on_grid, stack)

import reference as ref
from grouptables import cyclic, symmetric
from cached_bundles import (BUILT_INS, FAMILY_MEMBERS, FIXED_BUNDLES,
                            SMALL_COSETS, bundle, swr, swr_at)
from test_modular import toric_data
from test_reference import (FACTORS, case, check_ambient_rows,
                            check_codegrees, check_rows, codegree_row, kinds,
                            mutations, pulled_apart, zero_induction_row)
from test_wedderburn import block_trace, left_trace, mpc_product, sups


def toric_bundle(mult=(1, 1, 0, 0), ambient=None):
    if ambient is None:
        ambient = Ambient.from_modular(toric_data())
    module_ring = group_ring(*cyclic(2), labels=("1", "M"))
    induction = np.zeros((4, 2), dtype=np.int64)
    for x, y in ((0, 0), (1, 0), (2, 1), (3, 1)):
        induction[x, y] = 1
    return CondensationBundle(
        algebra=CondensableAlgebra(ambient=ambient, mult=tuple(mult)),
        module_ring=module_ring,
        dA=(1, 1),
        induction=induction,
        local=(0,),
    )


def trivial_toric_bundle():
    ambient = Ambient.from_modular(toric_data())
    return CondensationBundle(
        algebra=CondensableAlgebra(ambient=ambient, mult=(1, 0, 0, 0)),
        module_ring=verlinde(toric_data()),
        dA=(1, 1, 1, 1),
        induction=np.eye(4, dtype=np.int64),
        local=(0, 1, 2, 3),
    )


def vl_half_ambient():
    """Rank-5 orbifold-shaped ambient: invertibles 1, j, a 2-dim object m,
    and two twist sectors s+, s- of dimension sqrt(3)."""
    F = np.zeros((5, 5, 5), dtype=np.int64)
    one, j, m, sp, sm = range(5)
    for y in range(5):
        F[one, y, y] = F[y, one, y] = 1
    F[j, j, one] = 1
    F[j, m, m] = F[m, j, m] = 1
    F[j, sp, sm] = F[sp, j, sm] = 1
    F[j, sm, sp] = F[sm, j, sp] = 1
    F[m, m, one] = F[m, m, j] = F[m, m, m] = 1
    for s in (sp, sm):
        F[m, s, sp] = F[m, s, sm] = 1
        F[s, m, sp] = F[s, m, sm] = 1
    F[sp, sp, one] = F[sp, sp, m] = 1
    F[sm, sm, one] = F[sm, sm, m] = 1
    F[sp, sm, j] = F[sp, sm, m] = 1
    F[sm, sp, j] = F[sm, sp, m] = 1
    ring = BasedRing(labels=("1", "j", "m1", "s+", "s-"), fusion=F,
                     dual=(0, 1, 2, 3, 4))
    r3 = Cyc.sqrt_int(3)
    dims = (Cyc.rational(1), Cyc.rational(1), Cyc.rational(2), r3, r3)
    z8 = Cyc.zeta(8)
    twists = (Cyc.rational(1), Cyc.rational(1), Cyc.zeta(3), z8, -z8)
    return Ambient.from_ring(ring, dims, twists)


def ty_z3_ring():
    F = np.zeros((4, 4, 4), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            F[i, j, (i + j) % 3] = 1
    T = 3
    for i in range(3):
        F[i, T, T] = F[T, i, T] = 1
        F[T, T, i] = 1
    return BasedRing(labels=("1", "g", "g2", "T"), fusion=F, dual=(0, 2, 1, 3))


def ty_bundle():
    ambient = vl_half_ambient()
    r3 = Cyc.sqrt_int(3)
    induction = np.array(
        [[1, 0, 0, 0],
         [1, 0, 0, 0],
         [0, 1, 1, 0],
         [0, 0, 0, 1],
         [0, 0, 0, 1]], dtype=np.int64)
    return CondensationBundle(
        algebra=CondensableAlgebra(ambient=ambient, mult=(1, 1, 0, 0, 0)),
        module_ring=ty_z3_ring(),
        dA=(Cyc.rational(1), Cyc.rational(1), Cyc.rational(1), r3),
        induction=induction,
        local=(0, 1, 2),
    )


def test_toric_check_bundle_clean():
    rep = check_bundle(toric_bundle())
    assert rep.ok, str(rep)


def test_vl_ambient_validates():
    from fuscond.ring import validate
    amb = vl_half_ambient()
    assert validate(amb.ring).ok
    rep = check_bundle(ty_bundle())
    assert rep.ok, str(rep)


def test_toric_schur_weyl():
    swr = schur_weyl(toric_bundle())
    assert swr.kernel_dim == 0
    ideal = swr.ideal_blocks()
    assert sorted(b.m for b in ideal) == [1, 1]
    assert not swr.matching_skipped
    matched_labels = sorted(
        swr.bundle.ambient.labels[x] for x in swr.matched if x is not None)
    assert matched_labels == ["1", "e"]
    # the sign block is the one where M acts by -1
    for bi, x in swr.matched_pairs():
        val = block_trace(swr.bundle.module_ring, swr.blocks[bi], [0, 1])
        want = 1.0 if swr.bundle.ambient.labels[x] == "1" else -1.0
        assert abs(complex(val) - want) < 1e-12


def test_toric_indicators():
    swr = schur_weyl(toric_bundle())
    assert abs(complex(indicator(swr, "e", [0, 1])) + 1) < 1e-12
    assert abs(complex(indicator(swr, "e", [1, 0])) - 1) < 1e-12
    # induction column of m is M itself
    col = swr.bundle.induction[2]
    assert abs(complex(indicator(swr, "e", col)) + 1) < 1e-12
    # local elements scale by d_A
    assert abs(complex(indicator(swr, "1", [1, 0])) - 1) < 1e-12


@pytest.mark.parametrize("a", [[1], [1, 0, 0, 0, 0, 0]], ids=["short", "long"])
def test_indicator_refuses_an_element_of_the_wrong_length(a):
    swr = schur_weyl(toric_bundle())
    with pytest.raises(SchemaError, match="module ring has rank 2"):
        indicator(swr, 0, a)


@pytest.mark.parametrize("x", [99, -1, 4])
def test_indicator_refuses_an_ambient_index_out_of_range(x):
    r = swr("toric-code")
    with pytest.raises(SchemaError,
                       match=f"no ambient index {x}; the ambient has rank 4"):
        indicator(r, x, [1, 0])


def test_indicator_reads_an_ambient_index_in_range():
    r = swr("toric-code")
    value = indicator(r, 1, [0, 1])
    assert type(value) is complex
    assert value == indicator(r, "e", [0, 1]) == -1


@pytest.mark.parametrize("a", [[1], [1, 0, 0, 0, 0, 0]], ids=["short", "long"])
def test_block_value_refuses_an_element_of_the_wrong_length(a):
    swr = schur_weyl(toric_bundle())
    with pytest.raises(SchemaError, match="module ring has rank 2"):
        swr.block_value(0, a)


def test_ambient_index_refuses_an_unknown_label():
    amb = toric_bundle().ambient
    assert amb.index("e") == amb.labels.index("e")
    with pytest.raises(SchemaError, match="no ambient label 'x'"):
        amb.index("x")


def test_toric_codegrees():
    swr = schur_weyl(toric_bundle())
    cg = codegree_check(swr)
    assert cg.ok, str(cg.report)
    assert cg.residual < 1e-9
    assert sorted(v for _, v in cg.entries) == [2.0, 2.0]


def test_trivial_algebra_bundle():
    b = trivial_toric_bundle()
    rep = check_bundle(b)
    assert rep.ok, str(rep)
    swr = schur_weyl(b)
    assert swr.kernel_dim == 3
    ideal = swr.ideal_blocks()
    assert [x.m for x in ideal] == [1]
    (bi, x), = swr.matched_pairs()
    assert b.ambient.labels[x] == "1"
    cg = codegree_check(swr)
    assert cg.ok
    assert [round(v, 9) for _, v in cg.entries] == [4.0]


def check_averaging(b, sub) -> tuple:
    """condense._averaging on the one subring sub, with b's module dims."""
    return _averaging(b.module_ring, [sub], mantissas(b.dA.values))


def exact_idempotent(b, sub) -> list:
    """e_B = sum_{y in B} d_y y / sum_{y in B} d_y^2 with exact Cyc
    coefficients, once check_averaging has passed B."""
    check_averaging(b, sub)
    d, inv = b.dA.scalars(), 1 / b.dA.total(sub)
    return [d[y] * inv if y in sub else 0 for y in range(b.module_ring.rank)]


def test_ty_e_sub():
    b = ty_bundle()
    e1 = exact_idempotent(b, (0, 1, 2))
    third = Cyc.rational(1) / 3
    assert e1[0] == third and e1[1] == third and e1[2] == third
    assert e1[3] == 0 or (isinstance(e1[3], Cyc) and e1[3].is_zero())
    unit = exact_idempotent(b, (0,))
    assert unit[0] == 1 and all(
        c == 0 or (isinstance(c, Cyc) and c.is_zero()) for c in unit[1:])
    whole = exact_idempotent(b, (0, 1, 2, 3))
    assert whole[0] == Cyc.rational(1) / 6


def _recording_is_closed(monkeypatch):
    calls = []

    def record(ring, sub):
        calls.append(tuple(sub))
        return is_closed(ring, sub)
    monkeypatch.setattr(condense_module, "is_closed", record)
    return calls


@pytest.mark.parametrize("sub", [(0, 1), (0, 3), (1, 2), (0, 1, 3)])
def test_check_averaging_refuses_a_sub_that_is_not_closed(monkeypatch, sub):
    b = ty_bundle()
    calls = _recording_is_closed(monkeypatch)
    # positive dims: closedness is read off the support of w_B * w_B
    with pytest.raises(SchemaError, match="is not a subring"):
        _averaging(b.module_ring, [sub], mantissas(b.dA.values))
    assert calls == []
    # a module dim of 0 inside sub: is_closed decides
    dA = list(b.dA.values)
    dA[sub[-1]] = 0
    with pytest.raises(SchemaError, match="is not a subring"):
        check_averaging(dataclasses.replace(b, dA=dA), sub)
    assert calls == [sub]


def _batch_around(sub):
    """Every subring of the TY(Z/3) module ring, with sub in the middle."""
    return [(0,), (0, 1, 2), sub, (0, 1, 2, 3)]


@pytest.mark.parametrize("sub", [(0, 1), (0, 3), (1, 2), (0, 1, 3)])
def test_check_averaging_refuses_a_batch_with_one_sub_that_is_not_closed(
        sub):
    b = ty_bundle()
    dims = mantissas(b.dA.values)
    with pytest.raises(SchemaError,
                       match=re.escape(f"{sub} is not a subring")):
        _averaging(b.module_ring, _batch_around(sub), dims)


def test_check_averaging_refuses_a_batch_with_one_repeated_index():
    b = ty_bundle()
    with pytest.raises(SchemaError,
                       match=re.escape("(0, 0) repeats a basis index")):
        _averaging(b.module_ring, _batch_around((0, 0)),
                   mantissas(b.dA.values))


def test_check_averaging_batch_gives_each_sub_its_own_d():
    b = ty_bundle()
    dims = mantissas(b.dA.values)
    subs = [(0,), (0, 1, 2), (0, 1, 2, 3)]
    w = dims[0]
    want = [sum(w[y] * w[y] for y in sub) for sub in subs]
    rows = [[w[y] if y in sub else 0 for y in range(b.module_ring.rank)]
            for sub in subs]
    W, D = _averaging(b.module_ring, subs, dims)[:2]
    assert D == want and W.tolist() == rows
    assert [_averaging(b.module_ring, [sub], dims)[1][0]
            for sub in subs] == want
    assert [_averaging(b.module_ring, [sub], dims)[0].tolist()[0]
            for sub in subs] == rows


def test_check_averaging_with_a_non_positive_dim_passes_a_closed_sub(
        monkeypatch):
    b = ty_bundle()
    calls = _recording_is_closed(monkeypatch)
    dA = list(b.dA.values)
    dA[1] = 0
    # closed, so only the idempotent check can fail
    with pytest.raises(NumericalDegeneracyError, match="idempotent check"):
        check_averaging(dataclasses.replace(b, dA=dA), (0, 1, 2))
    assert calls == [(0, 1, 2)]


def test_e_sub_refuses_an_index_outside_the_basis():
    with pytest.raises(SchemaError, match="index 4 is not a basis index"):
        check_averaging(ty_bundle(), (0, 4))


def test_verdict_path_builds_no_closure_table():
    b = ty_bundle()
    assert check_bundle(b).ok
    schur_weyl(b)
    assert "_closure_pairs" not in vars(b.module_ring)
    # the name is the one the subring search builds and caches
    enumerate_subrings(b.module_ring)
    assert "_closure_pairs" in vars(b.module_ring)


def test_e_sub_refuses_a_repeated_index():
    # a repeated index would count its weight twice in sum w_y^2
    with pytest.raises(SchemaError, match=r"\(0, 0\) repeats a basis index"):
        check_averaging(toric_bundle(), (0, 0))


def test_ty_schur_weyl():
    swr = schur_weyl(ty_bundle())
    assert swr.kernel_dim == 2
    ideal = swr.ideal_blocks()
    assert sorted(x.m for x in ideal) == [1, 1]
    labels = sorted(
        swr.bundle.ambient.labels[x] for x in swr.matched if x is not None)
    assert labels == ["1", "j"]
    # block matched to the unit has chi(T) = +sqrt(3)
    for bi, x in swr.matched_pairs():
        val = block_trace(swr.bundle.module_ring, swr.blocks[bi], [0, 0, 0, 1])
        want = 3 ** 0.5 if swr.bundle.ambient.labels[x] == "1" else -(3 ** 0.5)
        assert abs(complex(val) - want) < 1e-10


def test_ty_codegrees():
    swr = schur_weyl(ty_bundle())
    cg = codegree_check(swr)
    assert cg.ok, str(cg.report)
    assert sorted(round(v, 9) for _, v in cg.entries) == [6.0, 6.0]


def test_indicator_trace_sum_identity():
    for bundle in (toric_bundle(), ty_bundle(), trivial_toric_bundle()):
        swr = schur_weyl(bundle)
        ring = bundle.module_ring
        e1 = [as_mpc(c) for c in exact_idempotent(bundle, bundle.local)]
        for i in range(ring.rank):
            a = [0] * ring.rank
            a[i] = 1
            total = mp.mpc(0)
            for bi, x in swr.matched_pairs():
                n_x = bundle.mult[x]
                total += n_x * indicator(swr, x, a)
            rhs = left_trace(ring, mpc_product(ring, e1, a))
            assert abs(total - rhs) < 1e-9


def test_indicator_multiplicative_on_linear_blocks():
    swr = schur_weyl(ty_bundle())
    ring = swr.bundle.module_ring
    from fuscond.ring import element_product
    for bi, x in swr.matched_pairs():
        if swr.blocks[bi].m != 1:
            continue
        for i in range(ring.rank):
            for j in range(ring.rank):
                a = [0] * ring.rank
                a[i] = 1
                b = [0] * ring.rank
                b[j] = 1
                ab = element_product(ring, a, b)
                lhs = indicator(swr, x, [as_mpc(c) for c in ab])
                rhs = indicator(swr, x, a) * indicator(swr, x, b)
                assert abs(lhs - rhs) < 1e-9


def test_table_only_ambient_skips_matching():
    md = toric_data()
    ambient = Ambient.from_table(md.labels, md.dual, (1, 1, 1, 1),
                                 md.twists)
    b = toric_bundle(ambient=ambient)
    assert check_bundle(b).ok
    swr = schur_weyl(b)
    assert swr.matching_skipped
    assert swr.kernel_dim == 0
    assert all(x is None for x in swr.matched)
    with pytest.raises(CapabilityError):
        indicator(swr, "e", [0, 1])
    cg = codegree_check(swr)
    assert cg.ok, str(cg.report)
    assert sorted(v for _, v in cg.entries) == [2.0, 2.0]


def test_bad_local_violates_theorem():
    b = toric_bundle()
    bad = CondensationBundle(
        algebra=b.algebra, module_ring=b.module_ring, dA=b.dA,
        induction=b.induction, local=(0, 1))
    rep = check_bundle(bad)
    assert not rep.ok
    with pytest.raises(TheoremViolationError):
        schur_weyl(bad)


def test_nonnormal_local_subgroup_does_not_commute():
    # In the S3 group ring the subgroup {1, s} of a transposition is closed
    # but not normal, so its averaging idempotent (1 + s)/2 is not central
    table, inverse = symmetric(3)
    s = next(g for g in range(1, len(table)) if inverse[g] == g)
    b = CondensationBundle(
        algebra=CondensableAlgebra(
            ambient=Ambient.from_table(("1",), (0,), (1,), (1,)), mult=(1,)),
        module_ring=group_ring(table, inverse), dA=(1,) * len(table),
        induction=None, local=(0, s))
    with pytest.raises(TheoremViolationError, match="does not commute"):
        schur_weyl(b)


def test_bad_mult_violates_theorem():
    b = toric_bundle(mult=(1, 1, 1, 0))
    rep = check_bundle(b)
    assert not rep.ok
    with pytest.raises(TheoremViolationError):
        schur_weyl(b)


def _mult(b, mult):
    return dataclasses.replace(
        b, algebra=CondensableAlgebra(ambient=b.ambient, mult=mult))


# One mutation of a valid bundle per failure branch of check_bundle, with
# the problems it must report.
CHECK_BUNDLE_FAILURES = [
    ("negative-mult", lambda: _mult(families.toric_code(), (1, -1, 0, 0)),
     ["algebra multiplicities must be nonnegative",
      "algebra dimension 0.0 is not positive"]),
    ("unit-dim", lambda: dataclasses.replace(families.toric_code(),
                                             dA=(2, 1)),
     ["module unit must have dimension 1, got 2"]),
    ("perron-frobenius", lambda: dataclasses.replace(families.toric_code(),
                                                     dA=(1, 2)),
     ["module dims deviate from the Perron-Frobenius dimensions"]),
    ("local-unit", lambda: dataclasses.replace(families.toric_code(),
                                               local=(1,)),
     ["local part must contain the unit",
      "local part is not closed under fusion and duals"]),
    ("adjunction", lambda: zero_induction_row(families.toric_code(), 2),
     ["induction adjunction fails at m: sum M d_A = 0.0, d(x) = 1.0"]),
    ("local-closure", lambda: dataclasses.replace(families.a2n(1),
                                                  local=(0, 6)),
     ["local part is not closed under fusion and duals"]),
]


@pytest.mark.parametrize("mutate,messages",
                         [case[1:] for case in CHECK_BUNDLE_FAILURES],
                         ids=[case[0] for case in CHECK_BUNDLE_FAILURES])
def test_check_bundle_failure_branches(mutate, messages):
    problems = check_bundle(mutate()).problems
    for message in messages:
        assert message in problems


def test_validate_exits_1_on_a_failed_adjunction(tmp_path, capsys):
    path = tmp_path / "bad.json"
    serialize.write_path(zero_induction_row(families.toric_code(), 2),
                         str(path))
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    assert ("- FAIL: induction adjunction fails at m: sum M d_A = 0.0, "
            "d(x) = 1.0") in capsys.readouterr().out.splitlines()


def _twisted_a2n_1():
    """a2n 1 with theta(s+) in ambient factor 0 set from zeta_8 to
    zeta_8^3.  The bundle passes check_bundle, but two m = 1 blocks fit no
    ambient row (best fits 2.40) and the m = 2 block fits none (0.600)."""
    obj = serialize.emit_any(bundle("a2n", 1))
    twists = obj["ambient"]["product"][0]["twists"]
    assert twists[3] == {"cyclotomic": {"order": 8, "coeffs": ["0", "1"]}}
    twists[3] = {"cyclotomic": {"order": 8, "coeffs": ["0", "0", "0", "1"]}}
    return serialize.parse_bundle(obj)


def test_a_block_that_fits_no_ambient_row_fails_the_check():
    b = _twisted_a2n_1()
    assert check_bundle(b).ok
    with pytest.raises(TheoremViolationError,
                       match=r"block m=1 matches no ambient simple with "
                             r"n_x = 1 \(best fit 2\.40e\+00"):
        schur_weyl(b)


@pytest.mark.parametrize("verb", [["analyze"], ["galois"],
                                  ["indicators", "--x", "1.1"]])
def test_reading_verbs_exit_1_on_a_block_that_fits_no_ambient_row(
        verb, tmp_path, capsys):
    path = str(tmp_path / "twisted.json")
    serialize.write_path(_twisted_a2n_1(), path)
    capsys.readouterr()
    assert main([verb[0], path] + verb[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: block m=1 matches no ambient simple")
    assert "Traceback" not in err


@pytest.mark.parametrize("accept,reject", [
    (0.0, MATCH_REJECT),  # every best fit lies in [accept, reject]
    (MATCH_ACCEPT, 10.0),  # a runner-up at or below reject
])
def test_an_ambiguous_block_fit_is_a_numerical_degeneracy(
        monkeypatch, accept, reject):
    monkeypatch.setattr(condense_module, "MATCH_ACCEPT", accept)
    monkeypatch.setattr(condense_module, "MATCH_REJECT", reject)
    with pytest.raises(NumericalDegeneracyError,
                       match="block m=1 is matched ambiguously"):
        schur_weyl(bundle("a2n", 1))


def test_twist_condition_checked():
    rep = check_bundle(toric_bundle(mult=(1, 0, 0, 1)))
    assert not rep.ok
    assert any("twist" in p for p in rep.problems)


def test_connectedness_checked():
    rep = check_bundle(toric_bundle(mult=(0, 1, 0, 0)))
    assert not rep.ok
    assert any("connected" in p for p in rep.problems)


def test_self_duality_checked():
    # Z_3 anyon data: dual(g) = g^2, so A = 1 + g alone cannot be an algebra
    z = Cyc.zeta(3)
    from fuscond.modular import ModularData
    md = ModularData(labels=("0", "1", "2"), dual=(0, 2, 1),
                     s=tuple(tuple(z ** (j * k) for k in range(3))
                             for j in range(3)),
                     twists=(z ** 0, z, z))
    ambient = Ambient.from_modular(md)
    b = CondensationBundle(
        algebra=CondensableAlgebra(ambient=ambient, mult=(1, 1, 0)),
        module_ring=verlinde(md), dA=(1, 1, 1), induction=None,
        local=(0, 1, 2))
    rep = check_bundle(b)
    assert not rep.ok
    assert any("self-dual" in p for p in rep.problems)


def test_table_ambient_needs_a_self_dual_unit():
    with pytest.raises(SchemaError, match="unit at index 0 must be self-dual"):
        Ambient.from_table(("1", "a"), (1, 0), (1, 1), (1, 1))


def test_character_row_follows_the_working_precision():
    # a2n's ambient has a fusion ring and twists but no S-matrix, so its
    # rows come from the balancing identity over the converted dims
    amb = families.build("a2n", n=2).ambient
    assert amb.modular is None and amb.twists is not None
    with mp.workdps(64):
        amb.character_row([1])
    with mp.workdps(30):
        fresh = families.build("a2n", n=2).ambient
        for x in range(amb.rank):
            assert (listed(amb.character_row([x]))
                    == listed(fresh.character_row([x])))


@pytest.mark.parametrize("family,n", [("a2n", 2), ("vlplus-orbifold", 1),
                                      ("toric-code", None)])
def test_character_row_of_no_index_is_the_empty_stack(family, n):
    # a product ambient (a2n), a ring ambient (the orbifold) and a modular
    # one (the toric code)
    amb = bundle(family, n).ambient
    re, im, exp = amb.character_row([])
    assert re.shape == im.shape == (0, amb.rank) and exp == 0


def listed(mantissas):
    """Mantissas (re, im, exp) with re and im arrays, as lists."""
    re, im, exp = mantissas
    return re.tolist(), im.tolist(), exp


# -- product ambients against their flat form --


def flat_ambient(amb):
    """The flat form of a product ambient: labels la.lb, duals and values
    paired, and the product_ring of two ring factors (else a table)."""
    a, b = amb.factors
    r = b.rank
    labels = tuple(f"{la}.{lb}" for la in a.labels for lb in b.labels)
    dual = tuple(a.dual[i] * r + b.dual[j]
                 for i in range(a.rank) for j in range(r))
    dims = DimVector(values=tuple(da * db for da in a.dims for db in b.dims))
    twists = tuple(ta * tb for ta in a.twists for tb in b.twists)
    if a.ring is not None and b.ring is not None:
        return Ambient.from_ring(product_ring(a.ring, b.ring), dims,
                                 twists=twists)
    return Ambient.from_table(labels, dual, dims, twists)


PRODUCT_CASES = FAMILY_MEMBERS


@pytest.mark.parametrize("family,n", PRODUCT_CASES,
                         ids=[f"{f}-{n}" for f, n in PRODUCT_CASES])
def test_product_ambient_matches_the_flat_form(family, n):
    amb = bundle(family, n).ambient
    assert amb.ring is None and amb.modular is None
    assert [f.rank ** 2 for f in amb.factors] == [amb.rank] * 2
    flat = flat_ambient(amb)
    assert (amb.labels, amb.dual) == (flat.labels, flat.dual)
    assert list(amb.dims) == list(flat.dims)
    assert list(amb.twists) == list(flat.twists)
    assert amb.global_dim() == flat.global_dim()
    assert amb.has_characters == flat.has_characters
    assert amb.has_characters == (family == "a2n")


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("n", range(1, 7))
def test_product_character_rows_equal_the_flat_rows(n, dps):
    amb = bundle("a2n", n).ambient
    flat = flat_ambient(amb)
    with mp.workdps(dps):
        for x in range(amb.rank):
            assert (listed(amb.character_row([x]))
                    == listed(flat.character_row([x]))), x
        xs = list(range(amb.rank))
        assert listed(amb.character_row(xs)) == listed(flat.character_row(xs))


def flat_formula_rows(amb, xs):
    """character_row through the flat fusion tensor F of the product_ring
    of the factor rings: sum_z F[x*, y, z] theta_z d_z for every x and y
    as one _dot over F[duals], then times 1/theta_y and 1/(theta_x* d_x*),
    each entry rounded once."""
    F = reduce(product_ring, amb.rings).fusion
    r, duals = amb.rank, [amb.dual[x] for x in xs]
    td = [as_mpc(t) * as_mpc(d) for t, d in zip(amb.twists, amb.dims)]
    tre, tim, texp = mantissas(td)
    ire, iim, iexp = mantissas([1 / as_mpc(t) for t in amb.twists])
    ire, iim = np.array(ire, dtype=object), np.array(iim, dtype=object)
    sre, sim, sexp = stack([mantissas([1 / td[x]]) for x in duals])
    sre, sim = sre.reshape(-1, 1), sim.reshape(-1, 1)
    T = np.array([tre, tim], dtype=object)
    nre, nim = _dot(T, F[duals].reshape(-1, r).T).reshape(2, -1, r)
    are, aim = nre * ire - nim * iim, nre * iim + nim * ire
    return aligned(rounded_on_grid(are * sre - aim * sim,
                                   are * sim + aim * sre,
                                   [texp + iexp + e for e in sexp]))


def ring_factor(rng):
    """A seeded ring ambient: a group ring or a Tambara-Yamagami ring with
    its exact dims and random root-of-unity twists, the unit's 1."""
    kind = rng.choice(["cyclic", "symmetric", "ty"])
    if kind == "ty":
        m = rng.randint(2, 4)
        ring = ty_ring(m)
        dims = (Cyc.rational(1),) * m + (Cyc.sqrt_int(m),)
    else:
        ring = group_ring(*(cyclic(rng.randint(2, 5)) if kind == "cyclic"
                            else symmetric(3)))
        dims = (Cyc.rational(1),) * ring.rank
    twists = (Cyc.rational(1),) + tuple(
        Cyc.zeta(o, rng.randrange(o))
        for o in (rng.choice([1, 2, 3, 4, 5, 8, 12])
                  for _ in range(ring.rank - 1)))
    return Ambient.from_ring(ring, dims, twists=twists)


def seeded_product(seed):
    rng = random.Random(seed)
    return Ambient.from_product(ring_factor(rng), ring_factor(rng))


ROW_AMBIENTS = ([(f"a2n-{n}", lambda n=n: bundle("a2n", n).ambient)
                 for n in range(1, 7)]
                + [("vlplus-orbifold",
                    lambda: bundle("vlplus-orbifold", 1).ambient)]
                + [(f"seed-{s}", lambda s=s: seeded_product(s))
                   for s in range(6)])


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("make", [make for _, make in ROW_AMBIENTS],
                         ids=[name for name, _ in ROW_AMBIENTS])
def test_character_rows_equal_the_flat_formula(make, dps):
    # each row alone, all rows at once, no row, a repeated index and the
    # x that are not self-dual, against one contraction over the flat
    # product tensor
    amb = make()
    r = amb.rank
    odd = [x for x in range(r) if amb.dual[x] != x]
    with mp.workdps(dps):
        for xs in ([[x] for x in range(r)]
                   + [list(range(r)), [], [r - 1, 0, r - 1], odd]):
            assert (listed(amb.character_row(xs))
                    == listed(flat_formula_rows(amb, xs))), xs


def test_rings_and_characters_of_each_ambient_kind():
    ring = families.half_ring(1)[0]
    dims = (1,) * ring.rank
    flat = Ambient.from_ring(ring, dims, twists=(1,) * ring.rank)
    bare = Ambient.from_ring(ring, dims)
    table = Ambient.from_table(ring.labels, ring.dual, dims, (1,) * ring.rank)
    a2n, a2nplus1 = bundle("a2n", 1).ambient, bundle("a2nplus1", 1).ambient
    kinds = [(Ambient.from_modular(toric_data()), (), True),
             (flat, (ring,), True), (bare, (ring,), False),
             (table, (None,), False),
             (a2n, tuple(f.ring for f in a2n.factors), True),
             (a2nplus1, (None, None), False)]
    for amb, rings, chars in kinds:
        assert amb.rings == rings and amb.has_characters == chars, amb
        assert (amb.character_row([0]) is None) == (not chars)
    assert all(isinstance(g, BasedRing) for g in a2n.rings)


def test_product_shares_equal_values():
    # each distinct value of the product is one object
    amb = bundle("a2n", 3).ambient
    for values in (amb.dims.values, amb.twists):
        by_value = {}
        for v in values:
            key = (v.order, v.num, v.den)
            assert by_value.setdefault(key, v) is v


def test_product_factors_are_rings_or_tables():
    ring = Ambient.from_ring(families.half_ring(1)[0], (1,) * 5)
    modular = Ambient.from_modular(toric_data())
    nested = Ambient.from_product(ring, ring)
    for bad in (modular, nested):
        with pytest.raises(SchemaError, match="ring or a table"):
            Ambient.from_product(ring, bad)
    # a factor without twists leaves the product without them
    assert Ambient.from_product(ring, ring).twists is None
    assert not Ambient.from_product(ring, ring).has_characters


@pytest.mark.parametrize("family,n", BUILT_INS + [("a2n", 12)],
                         ids=[f"{f}-{n}" for f, n in BUILT_INS] + ["a2n-12"])
def test_dimension_sums_equal_the_square_per_index_loop(family, n):
    # the same exact Cyc, field for field: order, numerators, denominator
    b = bundle(family, n)
    for dims, subsets in ((b.ambient.dims, [None]),
                          (b.dA, [None, b.local, b.local[:1], ()])):
        squares = [d * d for d in dims.exact]
        for sub in subsets:
            idx = range(len(dims)) if sub is None else sub
            ref = sum(squares[i] for i in idx)
            got = dims.total(sub)
            assert type(got) is type(ref)
            if isinstance(ref, Cyc):
                assert (got.order, got.num, got.den) == (
                    ref.order, ref.num, ref.den), sub
            else:
                assert got == ref


# -- the readers and the scalar checks against the reference, case by case
# (tests/test_reference.py), each stage once per case and precision.  The
# test names are those of the comparisons with earlier implementations
# that these replace, kept so that their ids stay the same.

CASE_IDS = [f"{f}-{n}" for f, n in BUILT_INS]


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", BUILT_INS, ids=CASE_IDS)
def test_exact_contractions_match_the_mpmath_loops(family, n, dps):
    # the ambient character rows of A against S(x*, y) / d(x) and the fit
    # notes; case() compares the split, the ideal and the matching
    c = case(family, n, dps)
    with mp.workdps(dps):
        check_ambient_rows(c.b, c.r, c.ref.v.dps)


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", BUILT_INS, ids=CASE_IDS)
def test_array_readers_equal_the_parent_loops(family, n, dps):
    # block_dims and every codegree_row
    c = case(family, n, dps)
    with mp.workdps(dps):
        check_rows(c.r, c.ref.v, c.pair)


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", BUILT_INS, ids=CASE_IDS)
def test_codegree_check_equals_every_entry_in_mpmath(family, n, dps):
    c = case(family, n, dps)
    with mp.workdps(dps):
        check_codegrees(c.b, c.r, c.ref.v, c.pair)


def local_pair_decision(r, tol=TOL) -> list:
    """Which blocks of the report r lie in the local ideal, decided by a
    second product: the term plan of the pairs (i, j) with j local, through
    mantissa.product against |blocks| copies of the exact e1, and
    e_b e1 - e_b over the smaller of the two row exponents.  No block may
    be neither inside nor orthogonal."""
    ring, local = r.bundle.module_ring, np.asarray(r.bundle.local)
    n = ring.rank
    i, j, k = np.nonzero(ring.fusion[:, local])
    j = local[j]
    terms = _bilinear_terms(*_merged((k * n + i) * n + j,
                                     ring.fusion[i, j, k]), n)
    eb = stack([bp.mantissas for bp in r.blocks])
    e1 = mantissas(exact_idempotent(r.bundle, r.bundle.local))
    prod = product(terms, eb, stack([e1] * len(r.blocks)))
    e = [min(x, y) for x, y in zip(prod[2], eb[2])]
    (pr, pi, _), (br, bi, _) = rescale(prod, e), rescale(eb, e)
    inside = cmp_tol(*sups((pr - br, pi - bi, e)), tol) < 0
    assert (inside | (cmp_tol(*sups(prod), tol) < 0)).all()
    return inside.tolist()


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", BUILT_INS, ids=CASE_IDS)
def test_in_ideal_equals_the_local_pair_product(family, n, dps):
    # schur_weyl reads chi_b(e1) off the character table, summing the
    # weight of every local label; vlplus-orbifold has three
    r = swr_at(family, n, dps)
    with mp.workdps(dps):
        inside = local_pair_decision(r)
    assert r.in_ideal == tuple(inside)
    ideal = [bp for bp, f in zip(r.blocks, inside) if f]
    assert r.ideal_blocks() == ideal
    assert r.kernel_dim == r.bundle.module_ring.rank - sum(
        bp.block_dim for bp in ideal)


def _halve_an_ideal_row(monkeypatch):
    """condense.character_table with the row of toric-code's first ideal
    block halved exactly, so that its chi(e1) is m / 2."""
    bi = swr("toric-code").in_ideal.index(True)
    table = condense_module.character_table

    def halved(ring, blocks):
        re, im, exp = table(ring, blocks)
        keep = np.arange(len(re)) != bi
        re, im = re.copy(), im.copy()
        re[keep], im[keep] = re[keep] << 1, im[keep] << 1
        return re, im, exp - 1
    monkeypatch.setattr(condense_module, "character_table", halved)


NEITHER = ("a block idempotent is neither inside nor orthogonal to the "
           "local ideal")


def test_a_block_neither_inside_nor_orthogonal_is_a_degeneracy(monkeypatch):
    _halve_an_ideal_row(monkeypatch)
    with pytest.raises(NumericalDegeneracyError,
                       match=re.escape(f"{NEITHER} (chi(e1) = (0.5+0j), "
                                       "m = 1)")):
        schur_weyl(bundle("toric-code"))


def test_analyze_exits_3_on_a_block_neither_inside_nor_orthogonal(
        monkeypatch, tmp_path, capsys):
    path = str(tmp_path / "toric.json")
    serialize.write_path(bundle("toric-code"), path)
    _halve_an_ideal_row(monkeypatch)
    capsys.readouterr()
    assert main(["analyze", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical degeneracy: {NEITHER}")
    assert "Traceback" not in err


def test_codegree_row_divides_by_the_block_size():
    # a2n n=1 has an ideal block of size m = 2, whose codegree scalar
    # needs the 1 / m_bj of sum_z chi_bi(z*) chi_bj(z) / m_bj
    r = swr("a2n", 1)
    b = r.bundle
    dim_c = as_mpc(b.ambient.global_dim()).real
    d_alg = as_mpc(b.algebra.dim()).real
    dims = block_dims(r, TOL)
    assert 2 in [r.blocks[bi].m for bi in dims]
    for bi, dx in dims.items():
        for bj, val in enumerate(codegree_row(r, bi)):
            want = dim_c / (dx * d_alg) if bj == bi else 0
            assert abs(val - want) < working_tol(), (bi, bj)


FAIL = re.compile(r"codegree of (.+) acts on block (\d+) as (.+), "
                  r"expected (.+)")


def test_codegree_failures_equal_every_entry_in_mpmath():
    # at 15 digits the residuals are about 1e-16: tol = 1e-20 fails
    # entries off and on the diagonal, and each FAIL line must name an
    # entry of codegree_row past it, with the reference's value
    c = case("a2n", 2, 15)
    r, v, pair = c.r, c.ref.v, c.pair
    with mp.workdps(15):
        cg = codegree_check(r, tol=1e-20)
        assert not cg.ok and cg.entries == codegree_check(r).entries
        named = [k for k, j in enumerate(pair)
                 if r.in_ideal[k] and v.dims[j] is not None]
        past = [(k, j) for k, (_, s) in zip(named, cg.entries)
                for j, val in enumerate(codegree_row(r, k))
                if abs(val - (s if j == k else 0)) > 1e-20]
        fails = [FAIL.fullmatch(p) for p in cg.report.problems]
        assert len(fails) == len(past) > 1
        for f, (k, j) in zip(fails, past):
            assert (f[1], int(f[2])) == (cg.entries[named.index(k)][0], j)
            val = codegree_row(r, k)[j]
            assert complex(f[3]) == complex(val)
            assert ref.close(val, v.phi[pair[k]][pair[j]])


def same_checks(b):
    """check_bundle's scalar problems of b against the reference's, leaving
    out a check within 10**(2 - dps) relative of its tolerance: the
    rounding of its sums at the working precision decides it either way."""
    edge = mp.mpf(10) ** (2 - mp.mp.dps)
    checks = ref.scalar_checks(b)
    unsure = {key for key, e in checks if abs(e) <= edge}
    got = [k for k in kinds(check_bundle(b).problems) if k and k not in unsure]
    assert got == [key for key, e in checks if e > edge]


MUTANT_CASES = FAMILY_MEMBERS + FIXED_BUNDLES + SMALL_COSETS
MUTANT_IDS = [f"{f}-{n}" for f, n in MUTANT_CASES]
# a2nplus1 has no induction matrix
ADJUNCTION_CASES = [c for c in MUTANT_CASES if c[0] != "a2nplus1"]


@pytest.mark.parametrize("dps", [15, 64])
@pytest.mark.parametrize("family,n", ADJUNCTION_CASES,
                         ids=[f"{f}-{n}" for f, n in ADJUNCTION_CASES])
def test_adjunction_decisions_equal_the_near_loop(family, n, dps):
    # a changed induction entry or row always fails the adjunction
    b = bundle(family, n)
    with mp.workdps(dps):
        for mutant in mutations(b, 1)[4:]:
            same_checks(mutant)
            assert any(k and k[0] == "adjunction"
                       for k in kinds(check_bundle(mutant).problems))


@pytest.mark.parametrize("dps", [15, 64])
@pytest.mark.parametrize("family,n", MUTANT_CASES, ids=MUTANT_IDS)
def test_scalar_decisions_equal_the_near_loop(family, n, dps):
    b = bundle(family, n)
    with mp.workdps(dps):
        same_checks(b)
        assert check_bundle(b).ok
        # 1 + 1e-8 is past TOL and must fail the check, 1 + 1e-10 is
        # within it and must pass
        for factor, ok in zip(FACTORS, (False, True)):
            for i, mutant in enumerate(mutations(b, factor)[:4]):
                same_checks(mutant)
                assert check_bundle(mutant).ok == ok, (factor, i)


@pytest.mark.parametrize("dps", [15, 64])
@pytest.mark.parametrize("family,n", MUTANT_CASES, ids=MUTANT_IDS)
def test_block_dims_agreement_equals_the_near_loop(family, n, dps):
    # unmatched, a block takes the common dimension of its candidates
    # when they agree within TOL; the reference's rule on the same blocks
    c = case(family, n, dps)
    v = c.ref.v
    with mp.workdps(dps):
        for factor, apart in zip(FACTORS, (True, False)):
            mutant, bi = pulled_apart(c.r, factor)
            got = block_dims(mutant, TOL)
            want = ref.block_dims(mutant.bundle, v.blocks, v.in_ideal,
                                  [None] * len(v.blocks))
            for k, d in got.items():
                w = want[c.pair[k]]
                assert (d is None) == (w is None), (factor, k)
                assert d is None or ref.close(d, w, v.dps), (factor, k)
            assert (got[bi] is None) == apart, factor
