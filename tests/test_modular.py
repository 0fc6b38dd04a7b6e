import importlib.util
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fuscond import families
from fuscond.cyclotomic import TOL, Cyc, as_complex, as_mpc
from fuscond.errors import NumericalDegeneracyError, ValidationReport
from fuscond.modular import (
    TWIST_ORDER_CAP,
    ModularData,
    _is_root_of_unity,
    central_idempotent,
    characters,
    deligne,
    dims,
    validate,
    verlinde,
)
from fuscond.ring import element_product, fp_dims, group_ring, product_ring

from grouptables import cyclic


def toric_data(exact=True):
    one = Cyc.rational(1) if exact else 1.0
    s = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    if exact:
        s = [[Cyc.rational(v) for v in row] for row in s]
    else:
        s = [[float(v) for v in row] for row in s]
    tw = (one, one, one, -one)
    return ModularData(labels=("1", "e", "m", "f"), dual=(0, 1, 2, 3),
                       s=tuple(tuple(r) for r in s), twists=tw)


def ising_data():
    r2 = Cyc.sqrt_int(2)
    one = Cyc.rational(1)
    s = ((one, one, r2), (one, one, -r2), (r2, -r2, Cyc.rational(0)))
    tw = (one, -one, Cyc.zeta(16))
    return ModularData(labels=("1", "p", "s"), dual=(0, 1, 2), s=s, twists=tw)


def klein_table():
    # 1, e, m, f with e*m = f
    return [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def test_toric_validates():
    rep = validate(toric_data())
    assert rep.ok, str(rep)
    rep = validate(toric_data(exact=False))
    assert rep.ok, str(rep)


def test_ising_validates():
    rep = validate(ising_data())
    assert rep.ok, str(rep)


def test_toric_verlinde_matches_klein_group():
    ring = verlinde(toric_data())
    oracle = group_ring(klein_table())
    assert np.array_equal(ring.fusion, oracle.fusion)
    assert ring.dual == (0, 1, 2, 3)
    ring_f = verlinde(toric_data(exact=False))
    assert np.array_equal(ring_f.fusion, oracle.fusion)


def test_ising_verlinde_frozen():
    ring = verlinde(ising_data())
    expected = np.zeros((3, 3, 3), dtype=np.int64)
    for j in range(3):
        expected[0, j, j] = expected[j, 0, j] = 1
    expected[1, 1, 0] = 1
    expected[1, 2, 2] = expected[2, 1, 2] = 1
    expected[2, 2, 0] = expected[2, 2, 1] = 1
    assert np.array_equal(ring.fusion, expected)


def test_verlinde_rounding_is_absolute():
    # float64-encoded Ising data (sqrt 2 off by ~1e-16) still rounds at 64
    # digits; an S entry moved by 1e-2 puts coefficients off the integers
    exact = ising_data()
    floats = [[complex(v) for v in row] for row in exact.s]
    moved = [row[:] for row in floats]
    moved[1][1] += 0.01
    with mp.workdps(64):
        md = ModularData(labels=exact.labels, dual=exact.dual, s=floats,
                         twists=exact.twists)
        assert np.array_equal(verlinde(md).fusion, verlinde(exact).fusion)
        md = ModularData(labels=exact.labels, dual=exact.dual, s=moved,
                         twists=exact.twists)
        with pytest.raises(NumericalDegeneracyError,
                           match="not within 1e-06 of an integer"):
            verlinde(md)


def test_characters_are_ring_homs():
    md = ising_data()
    ring = verlinde(md)
    chi = characters(md)
    for x in range(3):
        for i in range(3):
            for j in range(3):
                lhs = chi[x][i] * chi[x][j]
                rhs = sum(
                    int(ring.fusion[i, j, k]) * chi[x][k] for k in range(3)
                )
                assert lhs == rhs


def test_character_row_zero_is_dims():
    md = ising_data()
    chi = characters(md)
    d = fp_dims(verlinde(md))
    for y in range(3):
        assert abs(complex(as_mpc(chi[0][y])) - d[y]) < 1e-10


def test_central_idempotent_values():
    e_vac = central_idempotent(toric_data(), 0)
    quarter = Cyc.rational(1) / 4
    assert all(c == quarter for c in e_vac)
    e_sigma = central_idempotent(ising_data(), 2)
    half = Cyc.rational(1) / 2
    assert e_sigma[0] == half
    assert e_sigma[1] == -half
    assert e_sigma[2].is_zero()


def test_idempotents_orthogonal_complete():
    for md in (toric_data(), ising_data()):
        ring = verlinde(md)
        idems = [central_idempotent(md, x) for x in range(md.rank)]
        total = [sum(col) for col in zip(*idems)]
        assert complex(as_mpc(total[0])) == pytest.approx(1.0, abs=1e-12)
        for k in range(1, md.rank):
            assert abs(complex(as_mpc(total[k]))) < 1e-12
        for x in range(md.rank):
            for y in range(md.rank):
                prod = element_product(ring, idems[x], idems[y])
                want = idems[x] if x == y else [0] * md.rank
                for k in range(md.rank):
                    assert abs(complex(as_mpc(prod[k] - want[k]))) < 1e-9


def test_twist_must_be_root_of_unity():
    bad = ModularData(
        labels=("1", "e", "m", "f"), dual=(0, 1, 2, 3),
        s=toric_data(exact=False).s,
        twists=(1.0, 1.0, 1.0, complex(0.6, 0.8)))
    rep = validate(bad)
    assert not rep.ok
    assert any("twist" in p for p in rep.problems)


# The roots of unity of Q(zeta_N) are the zeta_lcm(2, N)^a.  The orders
# run up to ORDER_CAP, with odd orders whose double passes it.
ROOT_ORDERS = (1, 2, 3, 5, 8, 12, 24, 1199, 2399, 2400)


def _exponents(n):
    return sorted({0, 1, 2 % n, n // 3, n // 2, n - 1, 7 % n, 5 * n // 7})


@pytest.mark.parametrize("n", ROOT_ORDERS)
def test_powers_of_zeta_are_roots_of_unity(n):
    for a in _exponents(n):
        assert _is_root_of_unity(Cyc.zeta(n, a), TOL), a
        assert _is_root_of_unity(-Cyc.zeta(n, a), TOL), a


@pytest.mark.parametrize("n", [1, 3, 5, 7, 1199, 2399])
def test_minus_zeta_of_odd_order_is_a_root_of_unity(n):
    # a root of unity of order 2n written at the odd order n
    assert _is_root_of_unity(-Cyc.zeta(n), TOL)


@pytest.mark.parametrize("n", ROOT_ORDERS)
def test_twice_a_root_of_unity_is_not_one(n):
    assert not _is_root_of_unity(2 * Cyc.zeta(n), TOL)


@pytest.mark.parametrize("dps", [15, 64])
def test_values_of_modulus_one_or_near_a_root_are_not_roots(dps):
    with mp.workdps(dps):
        # (3 + 4i)/5 has modulus 1 but no power of it is 1
        assert not _is_root_of_unity(Cyc(4, [Fraction(3, 5), Fraction(4, 5)]),
                                     TOL)
        # 1e-70 away from zeta_2399: only an exact comparison tells
        near = Cyc.zeta(2399) + Fraction(1, 10 ** 70)
        assert near.order == 2399
        assert not _is_root_of_unity(near, TOL)


def test_each_index_of_a_repeated_bad_twist_is_reported():
    bad = Cyc(4, [Fraction(3, 5), Fraction(4, 5)])
    one = Cyc.rational(1)
    md = ModularData(labels=("1", "e", "m", "f"), dual=(0, 1, 2, 3),
                     s=toric_data().s, twists=(one, bad, one, bad))
    assert validate(md).problems == [
        f"twist {j} is not a root of unity (order cap {TWIST_ORDER_CAP})"
        for j in (1, 3)]


def test_negative_dim_rejected():
    s = [[1.0, -1.0], [-1.0, 1.0]]
    bad = ModularData(labels=("1", "x"), dual=(0, 1),
                      s=tuple(tuple(r) for r in s), twists=(1.0, 1.0))
    rep = validate(bad)
    assert not rep.ok
    assert any("positive" in p for p in rep.problems)


def test_symmetry_violation_reported():
    s = ((1.0, 1.0), (2.0, 1.0))
    bad = ModularData(labels=("1", "x"), dual=(0, 1), s=s, twists=(1.0, 1.0))
    rep = validate(bad)
    assert not rep.ok
    assert any("symmetric" in p for p in rep.problems)


def test_reverse_conjugates():
    md = ising_data()
    rev = md.reverse()
    assert validate(rev).ok
    assert rev.twists[2] == Cyc.zeta(16) ** 15
    assert rev.s[0][2] == md.s[0][2]  # real entries are fixed
    assert np.array_equal(verlinde(rev).fusion, verlinde(md).fusion)


def test_deligne_product():
    md = deligne(toric_data(), ising_data())
    assert md.rank == 12
    rep = validate(md)
    assert rep.ok, str(rep)
    d = dims(md)
    assert abs(complex(as_mpc(d.total())) - 16.0) < 1e-9
    # dims multiply
    dt = dims(toric_data())
    di = dims(ising_data())
    got = sorted(float(as_mpc(v).real) for v in d)
    want = sorted(float(as_mpc(a).real * as_mpc(b).real) for a in dt for b in di)
    assert np.allclose(got, want)


def test_unnormalized_scaling_rejected():
    # normalized (unitary) S rows have dim 1/2 here, row0 no longer the dims
    s = tuple(tuple(v * 0.5 for v in row) for row in toric_data(exact=False).s)
    bad = ModularData(labels=("1", "e", "m", "f"), dual=(0, 1, 2, 3), s=s,
                      twists=(1.0, 1.0, 1.0, -1.0))
    rep = validate(bad)
    assert not rep.ok


def test_verlinde_on_cyclic_group_data():
    # Z_3 modular data: S[j][k] = zeta_3^(j*k), twists theta_j = zeta_3^(j*j)
    z = Cyc.zeta(3)
    s = tuple(tuple(z ** (j * k) for k in range(3)) for j in range(3))
    md = ModularData(labels=("0", "1", "2"), dual=(0, 2, 1), s=s,
                     twists=(z ** 0, z, z))
    assert validate(md).ok, str(validate(md))
    ring = verlinde(md)
    oracle = group_ring(*cyclic(3))
    assert np.array_equal(ring.fusion, oracle.fusion)


def su2_data(k):
    """SU(2)_k with simples j = 0..k, exact: S_ij = sin(pi (i+1)(j+1) / n)
    / sin(pi / n) and theta_j = zeta_{4n}^(j(j+2)), n = k + 2."""
    n = k + 2

    def sin(m):  # 2i sin(pi m / n); the 2i cancels in the ratio
        return Cyc.zeta(2 * n, m) - Cyc.zeta(2 * n, -m)

    s = tuple(tuple(sin((i + 1) * (j + 1)) / sin(1) for j in range(k + 1))
              for i in range(k + 1))
    tw = tuple(Cyc.zeta(4 * n, j * (j + 2)) for j in range(k + 1))
    return ModularData(labels=tuple(str(j) for j in range(k + 1)),
                       dual=tuple(range(k + 1)), s=s, twists=tw)


def clebsch_gordan(k):
    """Truncated Clebsch-Gordan rule of SU(2)_k: N_ij^l = 1 iff
    |i - j| <= l <= min(i + j, 2k - i - j) and i + j + l is even."""
    F = np.zeros((k + 1, k + 1, k + 1), dtype=np.int64)
    for i in range(k + 1):
        for j in range(k + 1):
            for l in range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2):
                F[i, j, l] = 1
    return F


@pytest.mark.parametrize("dps", [15, 64])
@pytest.mark.parametrize("k", range(1, 7))
def test_su2_verlinde_is_truncated_clebsch_gordan(k, dps):
    with mp.workdps(dps):
        md = su2_data(k)
        assert validate(md).ok, str(validate(md))
        assert np.array_equal(verlinde(md).fusion, clebsch_gordan(k))


PRODUCT_CASES = ([(f"su2-{k}", lambda k=k: su2_data(k)) for k in range(1, 6)]
                 + [("toric", toric_data), ("ising", ising_data)])


@pytest.mark.parametrize("dps", [15, 64])
@pytest.mark.parametrize("name,make", PRODUCT_CASES,
                         ids=[name for name, _ in PRODUCT_CASES])
def test_verlinde_of_deligne_product_is_product_ring(name, make, dps):
    # the coset ambient U x U-bar, up to rank 36 for SU(2)_5
    with mp.workdps(dps):
        md = make()
        ring = verlinde(deligne(md, md.reverse()))
        want = product_ring(verlinde(md), verlinde(md))
    assert ring.labels == want.labels and ring.dual == want.dual
    assert np.array_equal(ring.fusion, want.fusion)


# S-matrices that are not modular: a zero dimension (inf and nan in the
# product), and rows whose Verlinde coefficients are the integer -1
REFUSED = [
    ([[1.0, 0.0], [1.0, -1.0]], r"\(0,0,0\) = \(nan\+nanj\) is not within 1e-06"),
    ([[1.0, 1.0], [-1.0, -1.0]], r"\(0,0,1\) rounds to -1 < 0"),
]


@pytest.mark.parametrize("s,message", REFUSED, ids=["zero-dim", "negative"])
def test_verlinde_refuses_non_modular_s(s, message):
    md = ModularData(labels=("1", "x"), dual=(0, 1), s=s, twists=(1.0, 1.0))
    with pytest.raises(NumericalDegeneracyError,
                       match="verlinde coefficient " + message):
        verlinde(md)


def test_families_su2_matches_both_generators():
    # the benchmark keeps its own copy; all three must give the same Cyc
    path = Path(__file__).resolve().parents[1] / "perfbench" / "su2.py"
    spec = importlib.util.spec_from_file_location("perfbench_su2", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for k in range(1, 9):
        got, mine, theirs = families.su2(k), su2_data(k), bench.su2(k)
        for other in (mine, theirs):
            assert got.labels == other.labels and got.dual == other.dual
            for row, want in zip(got.s, other.s):
                assert all(a.order == b.order and a.coeffs == b.coeffs
                           for a, b in zip(row, want))
            assert all(a.order == b.order and a.coeffs == b.coeffs
                       for a, b in zip(got.twists, other.twists))


def reference_validate(md, tol=TOL):
    """modular.validate as it was with its mpmath Gram loops at the working
    precision, the reference for the float64 products.  The comparisons are
    written NaN-safe (not x <= bound), as the float64 checks are.  The
    Verlinde integrality check is the package's own."""
    rep = ValidationReport()
    r = md.rank
    S = md.s_numeric()
    u = S[0][0]
    if abs(u - 1) > tol:
        rep.add(f"unit dimension S[0][0] must be 1, got {complex(u)}")
    for j in range(r):
        v = S[0][j]
        if abs(mp.im(v)) > tol or mp.re(v) <= tol:
            rep.add(f"dimension S[0][{j}] must be positive real, got {complex(v)}")
            if len(rep.problems) > 8:
                break
    bad = [(i, j) for i in range(r) for j in range(i + 1, r)
           if not abs(S[i][j] - S[j][i]) <= tol]
    if bad:
        rep.add(f"s matrix is not symmetric at {bad[:5]}")
    dim = sum(abs(v) ** 2 for v in S[0])
    if not dim <= tol:
        bad = []
        for i in range(r):
            for j in range(r):
                g = sum(S[i][t] * S[j][t].conjugate() for t in range(r))
                want = dim if i == j else 0
                if not abs(g - want) <= tol * max(1, dim):
                    bad.append((i, j))
        if bad:
            rep.add(f"S * conj(S)^T is not dim * identity at {bad[:5]}")
        bad = []
        for i in range(r):
            for j in range(r):
                g = sum(S[i][t] * S[t][j] for t in range(r))
                want = dim if md.dual[i] == j else 0
                if not abs(g - want) <= tol * max(1, dim):
                    bad.append((i, j))
        if bad:
            rep.add(f"S^2 does not implement the declared duality at {bad[:5]}")
    for j, t in enumerate(md.twists):
        if not _is_root_of_unity(t, tol):
            rep.add(f"twist {j} is not a root of unity (order cap {TWIST_ORDER_CAP})")
    try:
        verlinde(md)
    except NumericalDegeneracyError as err:
        rep.add(str(err))
    return rep


def _with_s(md, s, dual=None):
    return ModularData(labels=md.labels, dual=md.dual if dual is None else dual,
                       s=s, twists=md.twists)


def _moved(md, i, j, by):
    s = [list(row) for row in md.s]
    s[i][j] = as_complex(s[i][j]) + by
    return _with_s(md, s)


def _z3(dual):
    z = Cyc.zeta(3)
    s = tuple(tuple(z ** (j * k) for k in range(3)) for j in range(3))
    return ModularData(labels=("0", "1", "2"), dual=dual, s=s,
                       twists=(z ** 0, z, z))


THEORIES = ([("toric", toric_data), ("ising", ising_data)]
            + [(f"su2-{k}", lambda k=k: su2_data(k)) for k in range(1, 7)])


def _pinning_cases():
    out = []
    for name, make in THEORIES:
        md = make()
        for tag, m in ((name, md), (f"{name}-product",
                                    deligne(md, md.reverse()))):
            r = m.rank
            out.append((tag, m, True))
            if r <= 25:  # the reference loops are O(r^3) in mpmath
                out.append((f"{tag}-moved", _moved(m, r - 1, 1, 1e-3), False))
    asym = ((1.0, 1.0), (2.0, 1.0))
    pair = ModularData(labels=("1", "x"), dual=(0, 1), s=asym,
                       twists=(1.0, 1.0))
    # passes every check but Verlinde integrality: N_xx^x = 5/6
    fake = ModularData(labels=("1", "x"), dual=(0, 1),
                       s=((1.0, 1.5), (1.5, -1.0)), twists=(1.0, -1.0))
    out += [("asymmetric", pair, False),
            ("non-integral-verlinde", fake, False),
            ("asymmetric-transposed", _with_s(pair, tuple(zip(*asym))), False),
            ("z3", _z3((0, 2, 1)), True),
            ("z3-wrong-dual", _z3((0, 1, 2)), False),
            ("su2-3-wrong-dual", _with_s(su2_data(3), su2_data(3).s,
                                         dual=(0, 3, 2, 1)), False)]
    for i, j in ((1, 2), (0, 1), (0, 0)):
        s = [list(row) for row in su2_data(2).s]
        s[i][j] = float("nan")
        out.append((f"nan-at-{i}{j}", _with_s(su2_data(2), s), False))
    return out


PINNING = _pinning_cases()


@pytest.mark.parametrize("dps", [15, 64])
@pytest.mark.parametrize("name,md,ok", PINNING, ids=[c[0] for c in PINNING])
def test_float64_validate_matches_mpmath_reference(name, md, ok, dps):
    with mp.workdps(dps):
        got = validate(md).problems
        want = reference_validate(md).problems
    assert got == want
    assert (not got) == ok, got


@pytest.mark.parametrize("dps", [15, 64])
def test_s_complex_matches_s_numeric(dps):
    with mp.workdps(dps):
        for name, md, _ in PINNING:
            if name.startswith("nan"):
                continue
            want = np.array(md.s_numeric(), dtype=complex)
            got = md.s_complex()
            assert got.dtype == np.complex128
            assert np.max(np.abs(got - want)) <= 1e-12, name


@pytest.mark.parametrize("dps", [15, 64])
def test_s_complex_is_the_per_entry_conversion_bit_for_bit(dps):
    # one conversion per distinct entry fills the same array
    cases = [(name, md) for name, md, _ in PINNING]
    cases.append(("coset-su2-10", families.coset_su2(10).ambient.modular))
    with mp.workdps(dps):
        for name, md in cases:
            want = np.array([[as_complex(v) for v in row] for row in md.s],
                            dtype=complex)
            assert md.s_complex().tobytes() == want.tobytes(), name


@pytest.mark.parametrize("md", [families.su2(k) for k in range(1, 7)]
                         + [toric_data(), ising_data()],
                         ids=[f"su2-{k}" for k in range(1, 7)]
                         + ["toric", "ising"])
def test_divisors_inverted_once_give_the_quotients(md):
    # characters and central_idempotent multiply by one inverse per
    # divisor; exact arithmetic makes that the per-entry quotient
    r = md.rank
    dim = dims(md).total()
    chi = characters(md)
    for x in range(r):
        assert chi[x] == [md.s[x][y] / md.s[0][x] for y in range(r)]
        assert central_idempotent(md, x) == [
            md.s[0][x] * md.s[x][md.dual[z]] / dim for z in range(r)]
