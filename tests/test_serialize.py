"""Schema emit/parse: canonical form, byte-identical round trips, and
rejection of malformed input."""
import json
from fractions import Fraction

import numpy as np
import pytest

from fuscond.condense import check_bundle
from fuscond.cyclotomic import Cyc
from fuscond.errors import SchemaError
from fuscond.families import ising_modular, toric_modular
from fuscond.ring import group_ring
from fuscond.serialize import (
    detect,
    dumps,
    emit_bundle,
    emit_modular,
    emit_ring,
    emit_scalar,
    loads,
    parse_bundle,
    parse_modular,
    parse_ring,
    parse_scalar,
    read_path,
    write_path,
)

from grouptables import cyclic
from cached_bundles import bundle


# ------------------------------------------------------------------ scalars


def test_scalar_exact_form():
    enc = emit_scalar(Cyc.zeta(8))
    assert enc == {"cyclotomic": {"order": 8, "coeffs": ["0", "1"]}}
    back = parse_scalar(enc)
    assert back == Cyc.zeta(8)


def test_scalar_rational_and_zero():
    assert emit_scalar(1) == {"cyclotomic": {"order": 1, "coeffs": ["1"]}}
    assert emit_scalar(Cyc.rational(0)) == {
        "cyclotomic": {"order": 1, "coeffs": []}}
    half = parse_scalar({"cyclotomic": {"order": 1, "coeffs": ["1/2"]}})
    assert half == Cyc.rational("1/2")


def test_scalar_float_form():
    enc = emit_scalar(0.1 + 0.2j)
    assert set(enc) == {"re", "im"}
    z = parse_scalar(enc)
    assert z == 0.1 + 0.2j
    # pure real floats come back as floats
    assert parse_scalar({"re": 2.5, "im": 0.0}) == 2.5


def test_scalar_rejects_garbage():
    for bad in ("x", True, {"cyclotomic": {"order": 4}}, {"re": 1.0},
                {"cyclotomic": {"order": 4, "coeffs": ["1/0"]}}):
        with pytest.raises(SchemaError):
            parse_scalar(bad)


@pytest.mark.parametrize("coeffs", [
    ["1/2", "-3/4", "0", "5"], ["0.5", "-0.75", " 3 ", "+2"],
    ["1e-3", "1_000", "-0", "6/4"], ["007", "-12/36"], []])
@pytest.mark.parametrize("order", [1, 4, 5, 12])
def test_cyclotomic_coefficients_parse_as_fractions(order, coeffs):
    # every string Fraction reads gives the Cyc built from the Fractions
    got = parse_scalar({"cyclotomic": {"order": order, "coeffs": coeffs}})
    want = Cyc(order, [Fraction(c) for c in coeffs])
    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)


@pytest.mark.parametrize("bad", ["1/0", "3/-4", "1/ 2", "0x10", "", "x",
                                 "1/00", True])
def test_bad_cyclotomic_coefficients_keep_the_fraction_message(bad):
    try:
        Fraction(str(bad))
    except (ValueError, ZeroDivisionError) as err:
        message = f"scalar: bad cyclotomic value ({err})"
    with pytest.raises(SchemaError) as info:
        parse_scalar({"cyclotomic": {"order": 4, "coeffs": ["1", bad]}})
    assert str(info.value) == message


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_scalar_rejects_non_finite(x):
    for bad in (x, {"re": x, "im": 0.0}, {"re": 0.0, "im": x}):
        with pytest.raises(SchemaError, match="scalar must be finite"):
            parse_scalar(bad)


def test_canonical_float_formatting():
    text = dumps({"x": 0.1})
    assert text == '{"x": 0.10000000000000001}\n'
    assert json.loads(text)["x"] == 0.1


# ------------------------------------------------------------------- rings


def test_ring_round_trip():
    ring = group_ring(*cyclic(3))
    obj = emit_ring(ring)
    assert obj["schema"] == "ring.v1"
    assert obj["unit"] == 0
    assert len(obj["fusion"]) == 27
    back = parse_ring(obj)
    assert back.labels == ring.labels
    assert back.dual == ring.dual
    assert np.array_equal(back.fusion, ring.fusion)
    assert dumps(emit_ring(back)) == dumps(obj)


def test_ring_rejects_bad_shapes():
    ring = group_ring(*cyclic(2))
    good = emit_ring(ring)
    bad = dict(good)
    bad["fusion"] = good["fusion"][:-1]
    with pytest.raises(SchemaError):
        parse_ring(bad)
    bad = dict(good)
    bad["unit"] = 1
    with pytest.raises(SchemaError):
        parse_ring(bad)
    bad = dict(good)
    bad["dual"] = [0]
    with pytest.raises(SchemaError):
        parse_ring(bad)


# --------------------------------------------------------------------- mtcs


@pytest.mark.parametrize("make", [toric_modular, ising_modular])
def test_modular_round_trip(make):
    md = make()
    obj = emit_modular(md)
    assert obj["schema"] == "mtc.v1"
    back = parse_modular(obj)
    assert back.labels == md.labels
    first = dumps(obj)
    assert dumps(emit_modular(back)) == first


def test_modular_rejects_ragged_s():
    obj = emit_modular(toric_modular())
    obj["s_matrix"] = obj["s_matrix"][:2]
    with pytest.raises(SchemaError):
        parse_modular(obj)


# ------------------------------------------------------------------ bundles


@pytest.mark.parametrize("family,n", [
    ("toric-code", None),      # mtc ambient
    ("a2n", 1),                # ring + dims + twists ambient
    ("a2nplus1", 1),           # bare table ambient
    ("vlplus-orbifold", 1),
    ("ising-square", None),
])
def test_bundle_round_trip_byte_identical(family, n):
    b = bundle(family, n)
    obj = emit_bundle(b)
    first = dumps(obj)
    back = parse_bundle(obj)
    assert dumps(emit_bundle(back)) == first
    assert not check_bundle(back).problems
    assert back.mult == b.mult
    assert back.local == b.local
    if b.induction is None:
        assert back.induction is None
    else:
        assert np.array_equal(np.asarray(back.induction),
                              np.asarray(b.induction))


def test_bundle_ambient_forms():
    assert set(emit_bundle(bundle("toric-code"))["ambient"]) == {"mtc"}
    assert set(emit_bundle(bundle("a2n", 1))["ambient"]) == {
        "ring", "dims", "twists"}
    assert set(emit_bundle(bundle("a2nplus1", 1))["ambient"]) == {"table"}


def test_bundle_computes_missing_dims():
    obj = emit_bundle(bundle("toric-code"))
    obj["dA"] = None
    back = parse_bundle(obj)
    assert np.allclose([float(v) for v in back.dA.values], [1.0, 1.0])


def test_bundle_rejects_bad_induction():
    obj = emit_bundle(bundle("toric-code"))
    obj["induction"] = [[1, 0], [1, 0], [0, "x"], [0, 1]]
    with pytest.raises(SchemaError):
        parse_bundle(obj)
    obj["induction"] = [[1, 0], [1, 0], [0, 1.5], [0, 1]]
    with pytest.raises(SchemaError):
        parse_bundle(obj)


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("field", ["fusion", "dual", "local", "mult"])
def test_integer_fields_reject_other_types(field, bad):
    obj = json.loads(dumps(emit_bundle(bundle("toric-code"))))
    holder = obj["module_ring"] if field in ("fusion", "dual") else obj
    holder[field][-1] = bad
    with pytest.raises(SchemaError, match=f"{field!r} must hold integers"):
        parse_bundle(obj)


# ------------------------------------------------------------------ generic


def test_detect_by_tag_and_shape():
    ring_obj = emit_ring(group_ring(*cyclic(2)))
    assert detect(ring_obj) == "ring.v1"
    untagged = {k: v for k, v in ring_obj.items() if k != "schema"}
    assert detect(untagged) == "ring.v1"
    assert detect(emit_modular(toric_modular())) == "mtc.v1"
    assert detect(emit_bundle(bundle("toric-code"))) == "bundle.v1"
    with pytest.raises(SchemaError):
        detect({"schema": "nope.v9"})
    with pytest.raises(SchemaError):
        detect({"hello": 1})
    with pytest.raises(SchemaError):
        detect([1, 2])


def test_loads_rejects_non_json():
    with pytest.raises(SchemaError):
        loads("{not json")


def test_file_round_trip(tmp_path):
    p = tmp_path / "b.json"
    write_path(bundle("a2n", 1), p)
    back = read_path(p)
    assert back.module_ring.rank == 8
    text = p.read_text()
    assert text.endswith("\n")
    write_path(back, tmp_path / "b2.json")
    assert (tmp_path / "b2.json").read_text() == text
