import dataclasses
import functools
import re
from operator import mul

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
    _check_averaging,
    block_dims,
    check_bundle,
    codegree_check,
    codegree_row,
    e_sub,
    indicator,
    schur_weyl,
)
from fuscond import families, serialize
from fuscond.cli import main
from fuscond.cyclotomic import TOL, Cyc, as_mpc, working_tol
from fuscond.errors import (CapabilityError, NumericalDegeneracyError,
                             SchemaError, TheoremViolationError)
from fuscond.modular import verlinde
from fuscond.ring import (BasedRing, DimVector, enumerate_subrings,
                          group_ring, is_closed, product_ring)
from fuscond.mantissa import mantissas, quotient

from grouptables import cyclic, symmetric
from cached_bundles import bundle, swr
from test_modular import ising_data, toric_data
from test_wedderburn import block_trace, left_trace, mpc_product


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


def test_ty_e_sub():
    b = ty_bundle()
    e1 = e_sub(b, (0, 1, 2))
    third = Cyc.rational(1) / 3
    assert e1[0] == third and e1[1] == third and e1[2] == third
    assert e1[3] == 0 or (isinstance(e1[3], Cyc) and e1[3].is_zero())
    unit = e_sub(b, (0,))
    assert unit[0] == 1 and all(
        c == 0 or (isinstance(c, Cyc) and c.is_zero()) for c in unit[1:])
    whole = e_sub(b, (0, 1, 2, 3))
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
        _check_averaging(b.module_ring, [sub], mantissas(b.dA.values))
    assert calls == []
    # a module dim of 0 inside sub: is_closed decides
    dA = list(b.dA.values)
    dA[sub[-1]] = 0
    with pytest.raises(SchemaError, match="is not a subring"):
        e_sub(dataclasses.replace(b, dA=dA), sub)
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
        _check_averaging(b.module_ring, _batch_around(sub), dims)


def test_check_averaging_refuses_a_batch_with_one_repeated_index():
    b = ty_bundle()
    with pytest.raises(SchemaError,
                       match=re.escape("(0, 0) repeats a basis index")):
        _check_averaging(b.module_ring, _batch_around((0, 0)),
                         mantissas(b.dA.values))


def test_check_averaging_batch_gives_each_sub_its_own_d():
    b = ty_bundle()
    dims = mantissas(b.dA.values)
    subs = [(0,), (0, 1, 2), (0, 1, 2, 3)]
    w = dims[0]
    want = [sum(w[y] * w[y] for y in sub) for sub in subs]
    rows = [[w[y] if y in sub else 0 for y in range(b.module_ring.rank)]
            for sub in subs]
    W, D = _check_averaging(b.module_ring, subs, dims)
    assert D == want and W.tolist() == rows
    assert [_check_averaging(b.module_ring, [sub], dims)[1][0]
            for sub in subs] == want
    assert [_check_averaging(b.module_ring, [sub], dims)[0].tolist()[0]
            for sub in subs] == rows


def test_check_averaging_with_a_non_positive_dim_passes_a_closed_sub(
        monkeypatch):
    b = ty_bundle()
    calls = _recording_is_closed(monkeypatch)
    dA = list(b.dA.values)
    dA[1] = 0
    # closed, so only the idempotent check can fail
    with pytest.raises(NumericalDegeneracyError, match="idempotent check"):
        e_sub(dataclasses.replace(b, dA=dA), (0, 1, 2))
    assert calls == [(0, 1, 2)]


def test_e_sub_refuses_an_index_outside_the_basis():
    with pytest.raises(SchemaError, match="index 4 is not a basis index"):
        e_sub(ty_bundle(), (0, 4))


def test_verdict_path_builds_no_closure_table():
    b = ty_bundle()
    assert check_bundle(b).ok
    schur_weyl(b)
    assert "_closure_pairs" not in vars(b.module_ring)
    # the name is the one the subring search builds and caches
    enumerate_subrings(b.module_ring)
    assert "_closure_pairs" in vars(b.module_ring)


def test_schur_weyl_builds_no_mpmath_idempotent():
    swr = schur_weyl(ty_bundle())
    assert swr.blocks
    assert not any("idempotent" in vars(bp) for bp in swr.blocks)


def test_e_sub_refuses_a_repeated_index():
    # a repeated index would count its weight twice in sum w_y^2
    with pytest.raises(SchemaError, match=r"\(0, 0\) repeats a basis index"):
        e_sub(toric_bundle(), (0, 0))


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
        e1 = [as_mpc(c) for c in swr.e1]
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


def _zero_induction_row(b, x):
    M = np.array(b.induction)
    M[x] = 0
    return dataclasses.replace(b, induction=M)


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
    ("adjunction", lambda: _zero_induction_row(families.toric_code(), 2),
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
    serialize.write_path(_zero_induction_row(families.toric_code(), 2),
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
    return serialize.parse_any(obj)


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


def one_row(amb, x):
    """character_row of the one index x, as mantissas lays out a row."""
    (re,), (im,), exp = listed(amb.character_row([x]))
    return re, im, exp


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


PRODUCT_CASES = ([("a2n", n) for n in range(1, 7)]
                 + [("a2nplus1", n) for n in range(1, 7)])


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


# -- the exact contractions against the per-term mpmath loops they replace --


def _loop_character_row(amb, x):
    """Ambient.character_row as one rounded mpmath operation per term,
    over the flat form of a product ambient."""
    if amb.factors is not None:
        amb = flat_ambient(amb)
    xs = amb.dual[x]
    if amb.modular is not None:
        s = amb.modular.s
        dx = as_mpc(s[0][xs])
        return [as_mpc(s[xs][y]) / dx for y in range(amb.rank)]
    F = amb.ring.fusion
    th = [as_mpc(t) for t in amb.twists]
    dv = [as_mpc(v) for v in amb.dims.values]
    dx = dv[xs]
    row = []
    for y in range(amb.rank):
        tot = mp.mpc(0)
        for z in np.nonzero(F[xs, y])[0]:
            tot += int(F[xs, y, z]) * th[int(z)] * dv[int(z)]
        row.append(tot / (th[xs] * th[y] * dx))
    return row


def _loop_fits(r):
    """The sorted (fit, x) candidates of every ideal block, from v = M chi / m
    and the fit sqrt(sum_y |v_y - row_y|^2 / rank) in mpmath."""
    b = r.bundle
    amb = b.ambient
    patterns = {x: _loop_character_row(amb, x)
                for x, n in enumerate(b.mult) if n > 0}
    out = {}
    for bi, (bp, flag) in enumerate(zip(r.blocks, r.in_ideal)):
        if not flag:
            continue
        chi = r.characters[bi]
        v = []
        for y in range(amb.rank):
            tot = mp.mpc(0)
            for z in np.nonzero(b.induction[y])[0]:
                tot += int(b.induction[y, z]) * chi[int(z)]
            v.append(tot / bp.m)
        scored = []
        for x, row in patterns.items():
            if b.mult[x] != bp.m:
                continue
            d2 = sum(abs(a - p) ** 2 for a, p in zip(v, row))
            scored.append((float(mp.sqrt(d2 / amb.rank)), x))
        out[bi] = sorted(scored)
    return out


def _loop_matched(r, fits):
    matched = [None] * len(r.blocks)
    for bi, scored in fits.items():
        if not scored:
            continue
        best, x = scored[0]
        second = scored[1][0] if len(scored) > 1 else None
        if best < MATCH_ACCEPT and (second is None or second > MATCH_REJECT):
            matched[bi] = x
    return tuple(matched)


def _loop_codegree(r, tol=TOL):
    """The codegree entries, the value of each block's phi on every block
    and the residual, through one mpmath product per term."""
    b = r.bundle
    ring = b.module_ring
    dim_c = as_mpc(b.ambient.global_dim()).real
    d_alg = as_mpc(b.algebra.dim()).real
    entries, values, worst = [], {}, 0.0
    for bi, dx in block_dims(r, tol).items():
        xi = r.matched[bi]
        name = b.ambient.labels[xi] if xi is not None else f"block[{bi}]"
        scalar = dim_c / (dx * d_alg)
        chi = r.characters[bi]
        phi = [chi[ring.dual[z]] for z in range(ring.rank)]
        values[bi] = []
        for bj, bp in enumerate(r.blocks):
            tot = mp.mpc(0)
            for z, c in enumerate(phi):
                tot += as_mpc(c) * r.characters[bj][z]
            values[bi].append(tot / bp.m)
            worst = max(worst, float(abs(tot / bp.m
                                         - (scalar if bj == bi else 0))))
        entries.append((name, float(scalar)))
    return tuple(entries), values, worst


# Every built-in bundle, and the diagonal cosets of SU(2)_1..4.
CONTRACTION_CASES = ([("a2n", n) for n in range(1, 7)]
                     + [("a2nplus1", n) for n in range(1, 7)]
                     + [("vlplus-orbifold", 1), ("toric-code", None),
                        ("ising-square", None)]
                     + [("coset-su2", k) for k in range(1, 5)])


def _row_terms(amb, x, dv):
    """The size of the terms the reference sums for each entry of
    character_row(x), with dv the absolute ambient dimensions."""
    if amb.factors is not None:
        amb = flat_ambient(amb)
    xs = amb.dual[x]
    if amb.modular is not None:
        return [abs(as_mpc(v)) / dv[xs] for v in amb.modular.s[xs]]
    F = amb.ring.fusion[xs]
    return [sum(int(F[y, z]) * dv[z] for z in np.nonzero(F[y])[0]) / dv[xs]
            for y in range(amb.rank)]


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", CONTRACTION_CASES,
                         ids=[f"{f}-{n}" for f, n in CONTRACTION_CASES])
def test_exact_contractions_match_the_mpmath_loops(family, n, dps):
    # Each value moves from the loop's by a few ulps of the terms the loop
    # sums.  The idempotents are refined to round-off, so the fits and the
    # codegree residual lie below working_tol().
    r = _swr_at(family, n, dps)
    with mp.workdps(dps):
        ulp = mp.mpf(2) ** (1 - mp.mp.prec)
        tol = working_tol()
        b = r.bundle
        amb = b.ambient
        # a2nplus1 has a table ambient and no induction, so no matching
        assert r.matching_skipped == (b.induction is None
                                      or not amb.has_characters)
        if not r.matching_skipped:
            dv = [abs(as_mpc(d)) for d in amb.dims.values]
            row_terms = {x: _row_terms(amb, x, dv)
                         for x, m in enumerate(b.mult) if m}
            for x, terms in row_terms.items():
                row = _parent_character_row(amb, x)
                ref = _loop_character_row(amb, x)
                for y, t in enumerate(terms):
                    assert abs(row[y] - ref[y]) <= 8 * ulp * t, (x, y)
                assert one_row(amb, x) == mantissas(row), x

            fits = _loop_fits(r)
            assert r.matched == _loop_matched(r, fits)
            ideal = [bi for bi, f in enumerate(r.in_ideal) if f]
            shown = [float(note.rsplit("fit ", 1)[1][:-1]) for note in r.notes
                     if "(fit " in note]
            assert len(shown) == len(ideal)
            for bi, got in zip(ideal, shown):
                ref, x = fits[bi][0]
                chi = r.characters[bi]
                terms = max(sum(int(c) * abs(chi[z])
                                for z, c in enumerate(b.induction[y]))
                            / r.blocks[bi].m + row_terms[x][y]
                            for y in range(amb.rank))
                # the note shows three digits
                assert abs(got - ref) <= 8 * ulp * terms + 0.005 * got, bi
                assert got < tol, bi

        entries, values, ref_resid = _loop_codegree(r)
        cg = codegree_check(r)
        assert cg.ok and cg.entries == entries
        worst_terms = 0
        for bi, ref in values.items():
            got = codegree_row(r, bi)
            chi_i = r.characters[bi]
            for bj, (g, w) in enumerate(zip(got, ref)):
                terms = sum(abs(chi_i[d]) * abs(c) for d, c in
                            zip(b.module_ring.dual, r.characters[bj]))
                terms /= r.blocks[bj].m
                worst_terms = max(worst_terms, terms)
                assert abs(g - w) <= 4 * ulp * terms, (bi, bj)
        assert abs(cg.residual - ref_resid) <= 4 * ulp * worst_terms
        assert cg.residual < tol


# -- the array readers against the parent's per-entry loops --
#
# character_table, Ambient.character_row, the block matching, codegree_row
# as they were before they became array passes over the character layout,
# kept here as references: the readers must give the same integers, notes
# and values.


@functools.lru_cache(maxsize=None)
def _swr_at(family, n, dps):
    with mp.workdps(dps):
        return schur_weyl(bundle(family, n))


def _parent_character_table(ring, blocks):
    F = ring.fusion
    W = np.einsum("izk,k->iz", F, np.einsum("ijj->i", F))
    cols = [[(int(i), int(W[i, z])) for i in np.nonzero(W[:, z])[0]]
            for z in range(ring.rank)]
    rows = []
    for bp in blocks:
        re, im, exp = bp.mantissas
        rows.append((exp, [sum(re[i] * w for i, w in col) for col in cols],
                     [sum(im[i] * w for i, w in col) for col in cols]))
    exp = min((e for e, _, _ in rows), default=0)
    return (tuple(tuple(x << (e - exp) for x in re) for e, re, _ in rows),
            tuple(tuple(x << (e - exp) for x in im) for e, _, im in rows),
            exp)


def _parent_character_row(amb, x):
    """Ambient.character_row(x) as one mpmath row, each entry
    mpc(mpf((re, exp)), mpf((im, exp))) from exact mantissa sums."""
    xs = amb.dual[x]
    if amb.modular is not None:
        s = amb.modular.s
        dx = as_mpc(s[0][xs])
        return [as_mpc(s[xs][y]) / dx for y in range(amb.rank)]
    th = [as_mpc(t) for t in amb.twists]
    dv = [as_mpc(v) for v in amb.dims.values]
    tre, tim, texp = mantissas([t * d for t, d in zip(th, dv)])
    ire, iim, iexp = mantissas([1 / t for t in th])
    if amb.factors is None:
        F = amb.ring.fusion[xs]
    else:
        fa, fb = amb.factors
        F = np.kron(fa.ring.fusion[xs // fb.rank],
                    fb.ring.fusion[xs % fb.rank])
    ys, zs = np.nonzero(F)
    nre, nim = [0] * amb.rank, [0] * amb.rank
    for y, z, c in zip(ys.tolist(), zs.tolist(), F[ys, zs].tolist()):
        nre[y] += c * tre[z]
        nim[y] += c * tim[z]
    (sre,), (sim,), sexp = mantissas([1 / (th[xs] * dv[xs])])
    exp = texp + iexp + sexp
    row = []
    for a, b, c, d in zip(nre, nim, ire, iim):
        re, im = a * c - b * d, a * d + b * c
        row.append(mp.mpc(mp.mpf((re * sre - im * sim, exp)),
                          mp.mpf((re * sim + im * sre, exp))))
    return row


def _parent_matching(r):
    """The matched sectors and the fit notes of every ideal block."""
    b = r.bundle
    amb = b.ambient
    re, im, exp = _parent_character_table(b.module_ring, r.blocks)
    pat = {x: mantissas(_parent_character_row(amb, x))
           for x, n in enumerate(b.mult) if n > 0}
    f = min([exp] + [e for _, _, e in pat.values()])
    pat = {x: ([v << (e - f) for v in pr], [v << (e - f) for v in pi])
           for x, (pr, pi, e) in pat.items()}
    M = b.induction
    ind = [[(int(z), int(M[y, z])) for z in np.nonzero(M[y])[0]]
           for y in range(amb.rank)]
    matched, notes = [None] * len(r.blocks), []
    for bi, (bp, flag) in enumerate(zip(r.blocks, r.in_ideal)):
        if not flag:
            continue
        mre = [sum(c * re[bi][z] for z, c in row) << (exp - f) for row in ind]
        mim = [sum(c * im[bi][z] for z, c in row) << (exp - f) for row in ind]
        m2 = bp.m * bp.m
        scored = []
        for x, (pr, pi) in pat.items():
            if b.mult[x] != bp.m:
                continue
            d2 = (sum((a - m2 * p) ** 2 for a, p in zip(mre, pr))
                  + sum((a - m2 * p) ** 2 for a, p in zip(mim, pi)))
            fit = mp.sqrt(quotient(d2, 2 * f, m2 * m2 * amb.rank))
            scored.append((float(fit), x))
        scored.sort()
        best, matched[bi] = scored[0]
        notes.append(f"block m={bp.m} matched {amb.labels[matched[bi]]} "
                     f"(fit {best:.2e})")
    return tuple(matched), notes


def _parent_codegree_row(r, bi):
    re, im, exp = _parent_character_table(r.bundle.module_ring, r.blocks)
    dual = r.bundle.module_ring.dual
    ar = [re[bi][z] for z in dual]
    ai = [im[bi][z] for z in dual]
    m = r.blocks[bi].m
    out = []
    for br, bim, bp in zip(re, im, r.blocks):
        den = m * bp.m * bp.m
        sre = sum(map(mul, ar, br)) - sum(map(mul, ai, bim))
        sim = sum(map(mul, ar, bim)) + sum(map(mul, ai, br))
        out.append(mp.mpc(quotient(sre, 2 * exp, den),
                          quotient(sim, 2 * exp, den)))
    return out


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", CONTRACTION_CASES,
                         ids=[f"{f}-{n}" for f, n in CONTRACTION_CASES])
def test_array_readers_equal_the_parent_loops(family, n, dps):
    r = _swr_at(family, n, dps)
    b = r.bundle
    amb = b.ambient
    with mp.workdps(dps):
        re, im, exp = _parent_character_table(b.module_ring, r.blocks)
        assert listed(r.character_mantissas) == (
            [list(row) for row in re], [list(row) for row in im], exp)
        for bi in range(len(r.blocks)):
            assert codegree_row(r, bi) == _parent_codegree_row(r, bi), bi
        if not r.matching_skipped:
            xs = [x for x, m in enumerate(b.mult) if m]
            rows = [mantissas(_parent_character_row(amb, x)) for x in xs]
            for x, row in zip(xs, rows):
                assert one_row(amb, x) == row, x
            f = min(e for _, _, e in rows)
            assert listed(amb.character_row(xs)) == (
                [[v << (e - f) for v in pr] for pr, _, e in rows],
                [[v << (e - f) for v in pi] for _, pi, e in rows], f)
            matched, notes = _parent_matching(r)
            assert r.matched == matched
            assert [note for note in r.notes if "(fit " in note] == notes


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


# -- the analyze path's scalar checks against the per-entry loops they
# replace: the adjunction as one _near per ambient label, the dimension
# sums as one square per index, and every codegree entry rounded in mpmath


def _loop_adjunction(b, tol=TOL):
    """The adjunction problems of check_bundle as one mpmath _near per
    ambient label."""
    amb, M = b.ambient, b.induction
    da = [as_mpc(v).real for v in b.dA.values]
    out = []
    for x in range(amb.rank):
        lhs = sum(int(M[x, y]) * da[y] for y in np.nonzero(M[x])[0])
        rhs = as_mpc(amb.dims[x]).real
        if not (abs(as_mpc(lhs) - as_mpc(rhs))
                <= tol * max(1.0, abs(as_mpc(rhs)))):
            out.append(f"induction adjunction fails at {amb.labels[x]}: "
                       f"sum M d_A = {float(lhs)}, d(x) = {float(rhs)}")
    return out


def _adjunction_problems(b):
    return [p for p in check_bundle(b).problems
            if p.startswith("induction adjunction")]


def _induction_entry(b, x, y, step):
    M = np.array(b.induction)
    M[x, y] += step
    return dataclasses.replace(b, induction=M)


def _scaled_dim(b, y, factor):
    values = list(b.dA.values)
    values[y] = values[y] * factor
    return dataclasses.replace(b, dA=DimVector(values=tuple(values)))


def _adjunction_mutations(b):
    """A zeroed induction row, one entry +1 and one -1, and one d_A scaled
    by 1 + 1e-8 (past TOL) and by 1 + 1e-10 (within it)."""
    M = b.induction
    x, y = (int(i) for i in np.argwhere(M[:, 1:])[-1])
    y += 1
    return [_zero_induction_row(b, x), _induction_entry(b, x, y, 1),
            _induction_entry(b, x, y, -1), _scaled_dim(b, y, 1 + 1e-8),
            _scaled_dim(b, y, 1 + 1e-10)]


ADJUNCTION_CASES = [case for case in CONTRACTION_CASES
                    if bundle(*case).induction is not None]


@pytest.mark.parametrize("dps", [15, 64])
@pytest.mark.parametrize("family,n", ADJUNCTION_CASES,
                         ids=[f"{f}-{n}" for f, n in ADJUNCTION_CASES])
def test_adjunction_decisions_equal_the_near_loop(family, n, dps):
    b = bundle(family, n)
    with mp.workdps(dps):
        assert _adjunction_problems(b) == _loop_adjunction(b) == []
        mutants = _adjunction_mutations(b)
        for i, mutant in enumerate(mutants):
            got = _adjunction_problems(mutant)
            assert got == _loop_adjunction(mutant), i
        # a changed induction entry always fails, the scaling within TOL
        # never does; the 1e-8 scaling fails where d_y is large enough
        # against d(x)
        assert all(_adjunction_problems(m) for m in mutants[:3])
        assert not _adjunction_problems(mutants[4])


def _near(a, b, tol):
    return abs(as_mpc(a) - as_mpc(b)) <= tol * max(1.0, abs(as_mpc(b)))


def _loop_scalar_problems(b, tol=TOL):
    """The twist, d(A), dimension-identity and module-unit problems of
    check_bundle as one mpmath _near per decision."""
    amb, out = b.ambient, []
    if amb.twists is not None:
        for x, n in enumerate(b.mult):
            if n and not _near(amb.twists[x], 1, tol):
                out.append(f"twist of {amb.labels[x]} is not 1 but n_x = "
                           f"{n} > 0")
    dA_alg = as_mpc(b.algebra.dim()).real
    if dA_alg <= tol:
        return out + [f"algebra dimension {float(dA_alg)} is not positive"]
    dim_c = as_mpc(amb.global_dim()).real
    dim_ca = as_mpc(b.dA.total()).real
    if not _near(dim_ca, dim_c / dA_alg, tol):
        out.append(f"dim(C_A) = {float(dim_ca)} but dim(C)/d(A) = "
                   f"{float(dim_c / dA_alg)}")
    dim_local = as_mpc(b.dA.total(b.local)).real
    if not _near(dim_local, dim_c / dA_alg ** 2, tol):
        out.append(f"dim(local) = {float(dim_local)} but dim(C)/d(A)^2 = "
                   f"{float(dim_c / dA_alg ** 2)}")
    if not _near(b.dA[0], 1, tol):
        out.append(f"module unit must have dimension 1, got {b.dA[0]}")
    return out


def _scalar_problems(b):
    return [p for p in check_bundle(b).problems
            if p.startswith(("twist of ", "algebra dimension ", "dim(C_A) ",
                             "dim(local) ", "module unit "))]


def _with_ambient(b, **fields):
    amb = dataclasses.replace(b.ambient, **fields)
    return dataclasses.replace(
        b, algebra=dataclasses.replace(b.algebra, ambient=amb))


def _scaled_ambient_dim(b, x, factor):
    dims = list(b.ambient.dims.values)
    dims[x] = dims[x] * factor
    return _with_ambient(b, dims=DimVector(values=tuple(dims)))


def _scalar_mutations(b, factor):
    """The twist of the last x in A, d_A of the unit and of the largest
    module dim, and the ambient dim of that x, each times factor."""
    x = max(x for x, n in enumerate(b.mult) if n)
    twists = list(b.ambient.twists)
    twists[x] = twists[x] * factor
    big = max(range(len(b.dA)), key=lambda y: as_mpc(b.dA[y]).real)
    return [_with_ambient(b, twists=tuple(twists)),
            _scaled_dim(b, 0, factor), _scaled_dim(b, big, factor),
            _scaled_ambient_dim(b, x, factor)]


@pytest.mark.parametrize("dps", [15, 64])
@pytest.mark.parametrize("family,n", CONTRACTION_CASES,
                         ids=[f"{f}-{n}" for f, n in CONTRACTION_CASES])
def test_scalar_decisions_equal_the_near_loop(family, n, dps):
    b = bundle(family, n)
    with mp.workdps(dps):
        assert _scalar_problems(b) == _loop_scalar_problems(b) == []
        # 1 + 1e-8 is past TOL and must fail the check, 1 + 1e-10 is
        # within it and must pass
        for factor, ok in ((1 + 1e-8, False), (1 + 1e-10, True)):
            for i, mutant in enumerate(_scalar_mutations(b, factor)):
                got = _scalar_problems(mutant)
                assert got == _loop_scalar_problems(mutant), (factor, i)
                assert check_bundle(mutant).ok == ok, (factor, i)


def _loop_block_dims(r, tol=TOL):
    """block_dims as one mpmath candidate list per block."""
    b = r.bundle
    out = {}
    for bi, bp in enumerate(r.blocks):
        if not r.in_ideal[bi]:
            continue
        xs = ([r.matched[bi]] if r.matched[bi] is not None
              else [x for x, n in enumerate(b.mult) if n == bp.m])
        cand = [as_mpc(b.ambient.dims[x]).real for x in xs]
        agree = cand and max(cand) - min(cand) <= tol * max(1.0, max(cand))
        out[bi] = cand[0] if agree else None
    return out


def _pulled_apart(r, factor):
    """r with no block matched and the ambient dims of the candidates x of
    one ideal block set to d, d factor, d, ..., with d the first one's;
    and that block's index."""
    b = r.bundle
    bi = next(bi for bi, bp in enumerate(r.blocks)
              if r.in_ideal[bi] and b.mult.count(bp.m) > 1)
    xs = [x for x, n in enumerate(b.mult) if n == r.blocks[bi].m]
    dims = list(b.ambient.dims.values)
    for x in xs[1:]:
        dims[x] = dims[xs[0]]
    dims[xs[1]] = dims[xs[0]] * factor
    b = _with_ambient(b, dims=DimVector(values=tuple(dims)))
    return dataclasses.replace(r, bundle=b, matched=(None,) * len(r.blocks)), bi


@pytest.mark.parametrize("dps", [15, 64])
@pytest.mark.parametrize("family,n", CONTRACTION_CASES,
                         ids=[f"{f}-{n}" for f, n in CONTRACTION_CASES])
def test_block_dims_agreement_equals_the_near_loop(family, n, dps):
    r = swr(family, n)
    with mp.workdps(dps):
        assert block_dims(r, TOL) == _loop_block_dims(r)
        for factor, apart in ((1 + 1e-8, True), (1 + 1e-10, False)):
            mutant, bi = _pulled_apart(r, factor)
            got = block_dims(mutant, TOL)
            assert got == _loop_block_dims(mutant), factor
            assert (got[bi] is None) == apart, factor


@pytest.mark.parametrize("family,n", CONTRACTION_CASES + [("a2n", 12)],
                         ids=[f"{f}-{n}" for f, n in CONTRACTION_CASES]
                         + ["a2n-12"])
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


def _every_codegree_entry(r, tol=TOL):
    """codegree_check with every (block, block) entry rounded in mpmath,
    and block_dims as one candidate list per block: the entries, the
    residual and the problems."""
    b = r.bundle
    dim_c = as_mpc(b.ambient.global_dim()).real
    d_alg = as_mpc(b.algebra.dim()).real
    entries, problems, worst = [], [], 0.0
    for bi, bp in enumerate(r.blocks):
        if not r.in_ideal[bi]:
            continue
        xs = ([r.matched[bi]] if r.matched[bi] is not None
              else [x for x, n in enumerate(b.mult) if n == bp.m])
        cand = [as_mpc(b.ambient.dims[x]).real for x in xs]
        if not (cand and max(cand) - min(cand)
                <= tol * max(1.0, max(cand))):
            problems.append(f"block {bi} (m={bp.m}): candidate dimensions "
                            "differ, cannot fix the expected codegree scalar")
            continue
        xi = r.matched[bi]
        name = b.ambient.labels[xi] if xi is not None else f"block[{bi}]"
        scalar = dim_c / (cand[0] * d_alg)
        for bj, val in enumerate(codegree_row(r, bi)):
            want = scalar if bj == bi else 0
            resid = float(abs(val - want))
            worst = max(worst, resid)
            if resid > tol:
                problems.append(
                    f"codegree of {name} acts on block {bj} as "
                    f"{complex(val)}, expected {complex(want)}")
        entries.append((name, float(scalar)))
    return tuple(entries), worst, problems


@pytest.mark.parametrize("dps", [15, 64, 128])
@pytest.mark.parametrize("family,n", CONTRACTION_CASES,
                         ids=[f"{f}-{n}" for f, n in CONTRACTION_CASES])
def test_codegree_check_equals_every_entry_in_mpmath(family, n, dps):
    r = _swr_at(family, n, dps)
    with mp.workdps(dps):
        cg = codegree_check(r)
        assert (cg.entries, cg.residual, cg.report.problems) == \
            _every_codegree_entry(r)
        assert cg.ok


def test_codegree_failures_equal_every_entry_in_mpmath():
    # at 15 digits the residuals are about 1e-16: tol = 1e-20 fails
    # entries off and on the diagonal, and each FAIL line must be the one
    # the full evaluation prints
    r = _swr_at("a2n", 2, 15)
    with mp.workdps(15):
        cg = codegree_check(r, tol=1e-20)
        entries, worst, problems = _every_codegree_entry(r, tol=1e-20)
        assert (cg.entries, cg.residual) == (entries, worst)
        assert cg.report.problems == problems
        assert len(problems) > 1 and not cg.ok
