"""Schema emit/parse: canonical form, byte-identical round trips, and
rejection of malformed input."""
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuscond.cli import main
from fuscond.condense import check_bundle
from fuscond.cyclotomic import Cyc
from fuscond.errors import SchemaError
from fuscond import families
from fuscond.families import FAMILY_CAP, ising_modular, su2, toric_modular
from fuscond.modular import verlinde
from fuscond.ring import BasedRing, group_ring, product_ring
from fuscond.serialize import (
    FUSION_ENTRY_CAP,
    detect,
    dumps,
    emit_any,
    emit_bundle,
    emit_modular,
    emit_ring,
    emit_scalar,
    loads,
    parse_bundle,
    parse_modular,
    parse_ring,
    read_path,
    write_path,
    _parse_scalar,
    _ratio,
    _scalars,
)

from grouptables import cyclic
from cached_bundles import bundle


# ------------------------------------------------------------------ scalars


def test_scalar_exact_form():
    enc = emit_scalar(Cyc.zeta(8))
    assert enc == {"cyclotomic": {"order": 8, "coeffs": ["0", "1"]}}
    back = _parse_scalar(enc, "scalar", {})
    assert back == Cyc.zeta(8)


def test_scalar_rational_and_zero():
    assert emit_scalar(1) == {"cyclotomic": {"order": 1, "coeffs": ["1"]}}
    assert emit_scalar(Cyc.rational(0)) == {
        "cyclotomic": {"order": 1, "coeffs": []}}
    half = _parse_scalar({"cyclotomic": {"order": 1, "coeffs": ["1/2"]}},
                         "scalar", {})
    assert half == Cyc.rational("1/2")


def test_scalar_float_form():
    enc = emit_scalar(0.1 + 0.2j)
    assert set(enc) == {"re", "im"}
    z = _parse_scalar(enc, "scalar", {})
    assert z == 0.1 + 0.2j
    # pure real floats come back as floats
    assert _parse_scalar({"re": 2.5, "im": 0.0}, "scalar", {}) == 2.5


def test_scalar_rejects_garbage():
    for bad in ("x", True, {"cyclotomic": {"order": 4}}, {"re": 1.0},
                {"cyclotomic": {"order": 4, "coeffs": ["1/0"]}}):
        with pytest.raises(SchemaError):
            _parse_scalar(bad, "scalar", {})


@pytest.mark.parametrize("coeffs", [
    ["1/2", "-3/4", "0", "5"], ["0.5", "-0.75", " 3 ", "+2"],
    ["1e-3", "1_000", "-0", "6/4"], ["007", "-12/36"], []])
@pytest.mark.parametrize("order", [1, 4, 5, 12])
def test_cyclotomic_coefficients_parse_as_fractions(order, coeffs):
    # every string Fraction reads gives the Cyc built from the Fractions
    got = _parse_scalar({"cyclotomic": {"order": order, "coeffs": coeffs}},
                        "scalar", {})
    want = Cyc(order, [Fraction(c) for c in coeffs])
    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)


_BAD_COEFFS = ["1/0", "3/-4", "1/ 2", "0x10", "", "x", "1/00", True]


def _fraction_message(bad, where="scalar"):
    try:
        Fraction(str(bad))
    except (ValueError, ZeroDivisionError) as err:
        return f"{where}: bad cyclotomic value ({err})"


def _cyc(order, coeffs):
    return {"cyclotomic": {"order": order, "coeffs": coeffs}}


@pytest.mark.parametrize("bad", _BAD_COEFFS)
def test_bad_cyclotomic_coefficients_keep_the_fraction_message(bad):
    with pytest.raises(SchemaError) as info:
        _parse_scalar({"cyclotomic": {"order": 4, "coeffs": ["1", bad]}},
                      "scalar", {})
    assert str(info.value) == _fraction_message(bad)


@pytest.mark.parametrize("bad", _BAD_COEFFS)
def test_bad_coefficient_after_a_valid_duplicate_keeps_the_message(bad):
    # ["1", 1] == ["1", True] as JSON values; the memo keys on strings
    raw = [_cyc(4, ["1", 1]), _cyc(4, ["1", 1]), _cyc(4, ["1", bad])]
    with pytest.raises(SchemaError) as info:
        _scalars(raw, "scalar", {})
    assert str(info.value) == _fraction_message(bad)


def test_memo_does_not_confuse_one_with_true():
    with pytest.raises(SchemaError) as info:
        _scalars([_cyc(1, ["1", 1]), _cyc(1, ["1", True])], "scalar", {})
    assert str(info.value) == _fraction_message(True)


def test_equal_encodings_in_one_call_share_one_cyc():
    raw = json.loads(json.dumps([_cyc(8, ["0", "1"]), _cyc(8, ["0", "1/2"]),
                                 _cyc(8, ["0", "1"]), 3, _cyc(8, ["0", "1"]),
                                 _cyc(8, ["0", "2/4"])]))
    got = _scalars(raw, "x", {})
    assert got[0] is got[2] is got[4]
    assert got[0] == Cyc.zeta(8) and got[1] == Cyc.zeta(8) / 2
    # equal values under different strings are read apart
    assert got[5] == got[1] and got[5] is not got[1]
    assert got[3] == 3


def test_one_cyc_per_distinct_encoding_of_a_document():
    obj = json.loads(dumps(emit_modular(su2(4))))
    md = parse_modular(obj)
    encodings = {json.dumps(v) for row in obj["s_matrix"] for v in row}
    assert len({id(v) for row in md.s for v in row}) == len(encodings)


def test_two_loads_share_no_cyc():
    text = dumps(emit_modular(su2(4)))
    a, b = loads(text), loads(text)
    ids = [{id(v) for row in md.s for v in row} | set(map(id, md.twists))
           for md in (a, b)]
    assert not ids[0] & ids[1]
    assert dumps(emit_modular(a)) == dumps(emit_modular(b)) == text


_MALFORMED_CYC = {
    "coeffs-int": {"order": 1, "coeffs": 5},
    "coeffs-str": {"order": 1, "coeffs": "12"},
    "coeffs-object": {"order": 1, "coeffs": {"1": 1}},
    "order-list": {"order": [1], "coeffs": ["1"]},
    "order-float": {"order": 1.5, "coeffs": ["1"]},
    "order-bool": {"order": True, "coeffs": ["1"]},
    "order-str": {"order": "1", "coeffs": ["1"]},
    "order-null": {"order": None, "coeffs": ["1"]},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_CYC))
def test_malformed_cyclotomic_fields_are_refused(case, tmp_path, capsys):
    # the unit's twist of the toric code is 1; order 1.5 or true was read
    # as order 1 and passed, a list order or an int coeffs crashed
    obj = json.loads(dumps(emit_modular(toric_modular())))
    obj["twists"][0] = {"cyclotomic": _MALFORMED_CYC[case]}
    message = "order must be an integer and coeffs a list"
    with pytest.raises(SchemaError, match=message):
        parse_modular(obj)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field", ["dA", "twists"])
def test_scalar_lists_must_be_lists(field):
    obj = json.loads(dumps(emit_bundle(bundle("a2n", 1))))
    holder = obj if field == "dA" else obj["ambient"]["product"][0]
    holder[field] = 5
    with pytest.raises(SchemaError, match="expected a list of scalars"):
        parse_bundle(obj)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**40, 10**40), st.integers(1, 10**25))
@example(0, 1)
@example(0, 7)
@example(-6, 4)
@example(5, 1)
def test_coefficient_strings_are_the_fraction_strings(c, den):
    assert _ratio(c, den) == str(Fraction(c, den))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 3, 4, 8, 12]),
       st.lists(st.integers(-10**20, 10**20), max_size=12),
       st.integers(1, 10**12))
def test_emitted_coefficients_are_the_fraction_strings(order, num, den):
    x = Cyc.from_numerators(order, num, den)
    coeffs = emit_scalar(x)["cyclotomic"]["coeffs"]
    assert coeffs == [str(q) for q in x.coeffs]
    assert _parse_scalar(emit_scalar(x), "scalar", {}) == x


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_scalar_rejects_non_finite(x):
    for bad in (x, {"re": x, "im": 0.0}, {"re": 0.0, "im": x}):
        with pytest.raises(SchemaError, match="scalar must be finite"):
            _parse_scalar(bad, "scalar", {})


def test_canonical_float_formatting():
    text = dumps({"x": 0.1})
    assert text == '{"x": 0.10000000000000001}\n'
    assert json.loads(text)["x"] == 0.1


def _reference_canon(obj) -> str:
    """The isinstance chain _canon was before it dispatched on exact
    types."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_reference_canon(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_reference_canon(v) for v in obj) + "]"
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


class _Str(str):
    pass


class _Int(int):
    pass


_JSON_LEAVES = (st.none() | st.booleans() | st.integers()
                | st.floats() | st.text()
                | st.integers(-2**63, 2**63 - 1).map(np.int64))


@settings(max_examples=150, deadline=None)
@given(st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text() | st.integers(), inner,
                                     max_size=4)),
    max_leaves=20))
def test_dumps_matches_the_isinstance_chain(value):
    assert dumps(value) == _reference_canon(value) + "\n"


def test_dumps_matches_the_isinstance_chain_on_nested_values():
    value = {"ascii": "plain", "zeta": "ζ₈ é \u2028 \"q\" \\ \n\t\x00",
             3: [1, -2, 2**70, True, False, None, 0.1, -0.0, 1e300,
                 np.int64(-7), np.int32(5), (1, "x", (2.5, [])), {}],
             np.int64(4): {"nested": [[], [[]], ("", {5: "five"})]},
             _Str("sub"): [_Str("str subclass"), _Int(9), np.uint8(200)]}
    assert dumps(value) == _reference_canon(value) + "\n"
    for bad in (object(), {1, 2}, [1, b"x"]):
        with pytest.raises(SchemaError) as got:
            dumps(bad)
        with pytest.raises(SchemaError) as want:
            _reference_canon(bad)
        assert str(got.value) == str(want.value)


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


def _dense(ring):
    """The ring as a ring.v1 object, whatever emit_ring would choose."""
    return {"schema": "ring.v1", "rank": ring.rank,
            "labels": list(ring.labels), "unit": 0, "dual": list(ring.dual),
            "fusion": np.asarray(ring.fusion).reshape(-1).tolist()}


@st.composite
def random_rings(draw):
    """A rank 1..7 tensor with random support and multiplicities 1..3, and
    a random involution fixing the unit; no ring axiom is imposed."""
    r = draw(st.integers(1, 7))
    cells = draw(st.dictionaries(st.tuples(*[st.integers(0, r - 1)] * 3),
                                 st.integers(1, 3), max_size=r ** 3))
    fusion = np.zeros((r, r, r), dtype=np.int64)
    for ijk, n in cells.items():
        fusion[ijk] = n
    rest = draw(st.permutations(range(1, r)))
    dual = list(range(r))
    for t in range(draw(st.integers(0, (r - 1) // 2))):
        a, b = rest[2 * t], rest[2 * t + 1]
        dual[a], dual[b] = b, a
    return BasedRing(labels=tuple(f"x{i}" for i in range(r)), fusion=fusion,
                     dual=tuple(dual))


_MEMBERS = ([("a2n", n) for n in (1, 3, 6)] + [("a2nplus1", n) for n in (1, 6)]
            + [("vlplus-orbifold", 1), ("ising-square", None)]
            + [("coset-su2", k) for k in (1, 5, 6, 10)])


def _check_both_encodings(ring):
    # dense v1 -> parse -> emit -> parse gives the same tensor
    back = parse_ring(_dense(ring))
    obj = emit_ring(back)
    again = parse_ring(json.loads(dumps(obj)))
    assert np.array_equal(again.fusion, ring.fusion)
    assert (again.labels, again.dual) == (ring.labels, ring.dual)
    # the emitted encoding is the one with fewer integers
    nnz = int(np.count_nonzero(ring.fusion))
    sparse = 4 * nnz < ring.rank ** 3
    assert obj["schema"] == ("ring.v2" if sparse else "ring.v1")
    assert len(obj["fusion"]) == (nnz if sparse else ring.rank ** 3)
    # emit -> parse -> emit is byte-identical in both encodings
    for text in (dumps(_dense(ring)), dumps(obj)):
        assert dumps(emit_ring(loads(text))) == dumps(obj)
        assert dumps(_dense(loads(text))) == dumps(_dense(ring))


@settings(max_examples=80, deadline=None)
@given(random_rings())
def test_random_rings_round_trip_in_both_encodings(ring):
    _check_both_encodings(ring)


@pytest.mark.parametrize("family,n", _MEMBERS)
def test_builtin_rings_round_trip_in_both_encodings(family, n):
    # the module ring, the ambient ring or the ring factors of a product
    # ambient, and the flat product_ring of those factors
    b = bundle(family, n)
    amb = b.ambient
    factors = [f.ring for f in amb.factors or () if f.ring is not None]
    if len(factors) == 2:
        factors.append(product_ring(*factors))
    for ring in [b.module_ring, amb.ring] + factors:
        if ring is not None:
            _check_both_encodings(ring)


def test_sparse_ring_form():
    # Z5: 25 nonzero entries, 4 * 25 < 125
    obj = emit_ring(group_ring(*cyclic(5)))
    assert obj["schema"] == "ring.v2"
    rows = obj["fusion"]
    assert len(rows) == 25 and rows[0] == [0, 0, 0, 1]
    assert rows == sorted(rows)
    assert detect(obj) == "ring.v2"
    _check_both_encodings(group_ring(*cyclic(5)))


def test_toric_ring_on_the_boundary_stays_dense():
    ring = verlinde(toric_modular())
    assert 4 * np.count_nonzero(ring.fusion) == ring.rank ** 3 == 64
    obj = emit_ring(ring)
    assert obj["schema"] == "ring.v1"
    assert len(obj["fusion"]) == 64
    _check_both_encodings(ring)


def _sparse_z5():
    return json.loads(dumps(emit_ring(group_ring(*cyclic(5)))))


_MALFORMED_V2 = {
    "row-too-short": (lambda rows: rows.__setitem__(3, [0, 3, 3]),
                      "rows must be"),
    "row-too-long": (lambda rows: rows.__setitem__(3, [0, 3, 3, 1, 0]),
                     "rows must be"),
    "row-not-a-list": (lambda rows: rows.__setitem__(3, 7), "rows must be"),
    "float-entry": (lambda rows: rows[3].__setitem__(3, 1.5),
                    "must hold integers"),
    "bool-entry": (lambda rows: rows[3].__setitem__(3, True),
                   "must hold integers"),
    "str-index": (lambda rows: rows[3].__setitem__(0, "0"),
                  "must hold integers"),
    "index-negative": (lambda rows: rows[-1].__setitem__(2, -1),
                       "outside"),
    "index-at-rank": (lambda rows: rows[-1].__setitem__(2, 5), "outside"),
    "N-zero": (lambda rows: rows[3].__setitem__(3, 0), "N <= 0"),
    "N-negative": (lambda rows: rows[3].__setitem__(3, -2), "N <= 0"),
    "duplicate": (lambda rows: rows.insert(4, list(rows[3])), "repeats"),
    "unsorted": (lambda rows: rows.insert(0, rows.pop(3)), "repeats"),
    "overflow": (lambda rows: rows[3].__setitem__(3, 2 ** 63), "64 bits"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_V2))
def test_sparse_ring_rejects_malformed_rows(case, tmp_path, capsys):
    obj = _sparse_z5()
    spoil, message = _MALFORMED_V2[case]
    spoil(obj["fusion"])
    with pytest.raises(SchemaError, match=message):
        parse_ring(obj)
    path = tmp_path / "ring.json"
    path.write_text(dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("where", ["fusion", "induction"])
def test_dense_integers_beyond_64_bits_are_refused(where, tmp_path, capsys):
    obj = json.loads(dumps(emit_bundle(bundle("toric-code"))))
    if where == "fusion":
        obj["module_ring"]["fusion"][1] = 2 ** 63
    else:
        obj["induction"][0][0] = 2 ** 63
    with pytest.raises(SchemaError, match="must fit in 64 bits"):
        parse_bundle(obj)
    path = tmp_path / "b.json"
    path.write_text(dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert "must fit in 64 bits" in capsys.readouterr().err


def test_sparse_ring_refuses_a_rank_beyond_the_entry_cap():
    r = round(FUSION_ENTRY_CAP ** (1 / 3)) + 1
    assert r ** 3 > FUSION_ENTRY_CAP
    obj = {"schema": "ring.v2", "rank": r,
           "labels": [str(i) for i in range(r)], "unit": 0,
           "dual": list(range(r)), "fusion": [[0, 0, 0, 1]]}
    with pytest.raises(SchemaError, match="exceeds the cap"):
        parse_ring(obj)


def test_nested_ring_with_an_unknown_tag_is_refused():
    obj = emit_bundle(bundle("toric-code"))
    obj["module_ring"]["schema"] = "ring.v9"
    with pytest.raises(SchemaError, match="unknown ring schema"):
        parse_bundle(obj)


def test_validate_prints_the_schema_read(tmp_path, capsys):
    for name, ring, tag in [("z5", group_ring(*cyclic(5)), "ring.v2"),
                            ("z3", group_ring(*cyclic(3)), "ring.v1")]:
        path = tmp_path / f"{name}.json"
        write_path(ring, path)
        capsys.readouterr()
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"## validate {path} ({tag})"


# Recorded before ring.v2 existed: every coset module ring has
# 4 * nnz >= rank**3, so these bundles keep their ring.v1 bytes.
_COSET_SHA256 = {
    "su2-1": "5fd9709dca899e5927f5d155c5b98214b8f2b803c1c863193dac0ad303dccf40",
    "su2-2": "cfd8a3a9b626138bb337caf57a33784f8a75c59e038e87beb28b6e640626735e",
    "su2-3": "dd63d9ce30edb324395af30d286add0ebdb17bf2a4a93b4a6bef6e2655c2b9dd",
    "su2-4": "4bac2b4cbabcd93d66309793fcb9d3ac9785b5802c7fb576b439ace92ad78e8c",
    "toric": "2e799da9c9b2ed3adf75e6e7b618dcf2267c10b870a9c03a63761cb31041e695",
    "ising": "3b7938c44d40012ad24d4b97320bb80b0fb2d4b51f53727b8efac6017950d64d",
}


def _coset_mtc(name):
    if name == "toric":
        return toric_modular()
    if name == "ising":
        return ising_modular()
    return su2(int(name.split("-")[1]))


@pytest.mark.parametrize("name", sorted(_COSET_SHA256))
def test_coset_diagonal_emits_pinned_bytes(name, tmp_path, capsys):
    mtc, out = tmp_path / "m.json", tmp_path / "b.json"
    write_path(_coset_mtc(name), mtc)
    assert main(["example", "coset-diagonal", "--mtc", str(mtc),
                 "--emit", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _COSET_SHA256[name]


def test_coset_diagonal_refuses_invalid_modular_data(tmp_path, capsys):
    obj = emit_modular(toric_modular())
    obj["twists"][2] = emit_scalar(0.5)
    mtc, out = tmp_path / "m.json", tmp_path / "b.json"
    mtc.write_text(dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(mtc)]) == 1
    problems = capsys.readouterr().out.splitlines()[1:]
    assert problems == [
        "- FAIL: twist 2 is not a root of unity (order cap 10000)"]
    assert main(["example", "coset-diagonal", "--mtc", str(mtc),
                 "--emit", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "## example coset-diagonal"] + problems
    assert not out.exists()


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


def _built_ins():
    out = [(f"{family}-{n}", (family, n)) for family in ("a2n", "a2nplus1")
           for n in range(1, FAMILY_CAP + 1)]
    out += [(f"coset-su2-{k}", ("coset-su2", k)) for k in range(1, 11)]
    out += [(name, (name, None)) for name in ("toric-code", "ising-square")]
    return out + [("vlplus-orbifold-1", ("vlplus-orbifold", 1)),
                  ("toric-mtc", toric_modular), ("ising-mtc", ising_modular)]


_BUILT_INS = _built_ins()


@pytest.mark.parametrize("make", [m for _, m in _BUILT_INS],
                         ids=[name for name, _ in _BUILT_INS])
def test_shared_scalar_encodings_do_not_show_in_the_bytes(make):
    value = bundle(*make) if isinstance(make, tuple) else make()
    obj = emit_any(value)
    plain = json.loads(json.dumps(obj))
    assert plain == obj
    assert dumps(obj) == dumps(plain)


def test_equal_scalars_of_one_document_share_one_encoding():
    obj = emit_bundle(bundle("coset-su2", 4))
    mtc = obj["ambient"]["mtc"]
    entries = [e for row in mtc["s_matrix"] for e in row]
    entries += mtc["twists"] + obj["dA"]
    assert len({id(e) for e in entries}) == len({dumps(e) for e in entries})
    # the unit entry of S and the dA of the unit are one object
    assert mtc["s_matrix"][0][0] is obj["dA"][0]


def test_float_and_re_im_scalars_parse_and_emit_as_before():
    # equal floats and complex values, and 0.0 beside -0.0, as the
    # emission read them before equal scalars shared one encoding
    mtc = {"schema": "mtc.v1", "rank": 2, "labels": ["1", "s"],
           "dual": [0, 1],
           "s_matrix": [[1.0, {"re": 1.0, "im": 0.0}], [1, -1.0]],
           "twists": [{"re": -0.0, "im": 1.0}, {"re": 0.0, "im": 1.0}]}
    table = {"schema": "bundle.v1",
             "ambient": {"table": {
                 "labels": ["1", "a"], "dual": [0, 1], "dims": [1, 1.0],
                 "twists": [{"re": 1.0, "im": 0.0},
                            {"re": -1.0, "im": 0.0}]}},
             "mult": [1, 1],
             "module_ring": {"schema": "ring.v1", "rank": 1, "labels": ["1"],
                             "unit": 0, "dual": [0], "fusion": [1]},
             "dA": [2.0], "induction": None, "local": [0]}
    one = '{"cyclotomic": {"order": 1, "coeffs": ["1"]}}'
    assert dumps(emit_any(loads(json.dumps(mtc)))) == (
        '{"schema": "mtc.v1", "rank": 2, "labels": ["1", "s"], '
        '"dual": [0, 1], "s_matrix": [[{"re": 1, "im": 0}, '
        '{"re": 1, "im": 0}], [' + one + ', {"re": -1, "im": 0}]], '
        '"twists": [{"re": 0, "im": 1}, {"re": 0, "im": 1}]}\n')
    assert dumps(emit_any(loads(json.dumps(table)))) == (
        '{"schema": "bundle.v1", "ambient": {"table": {"labels": ["1", "a"], '
        '"dual": [0, 1], "dims": [' + one + ', {"re": 1, "im": 0}], '
        '"twists": [{"re": 1, "im": 0}, {"re": -1, "im": 0}]}}, '
        '"mult": [1, 1], "module_ring": {"schema": "ring.v1", "rank": 1, '
        '"labels": ["1"], "unit": 0, "dual": [0], "fusion": [1]}, '
        '"dA": [{"re": 2, "im": 0}], "induction": null, "local": [0]}\n')


def test_one_document_reads_each_encoding_once():
    # the S-matrix, the twists and dA of one bundle share the memo
    back = loads(dumps(emit_bundle(bundle("coset-su2", 2))))
    s = back.ambient.modular.s
    assert s[0][0] is back.ambient.modular.twists[0] is back.dA.values[0]


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
    assert set(emit_bundle(bundle("ising-square"))["ambient"]) == {"mtc"}
    amb = emit_bundle(bundle("a2n", 1))["ambient"]
    assert set(amb) == {"product"}
    assert [set(f) for f in amb["product"]] == [{"ring", "dims", "twists"}] * 2
    amb = emit_bundle(bundle("a2nplus1", 1))["ambient"]
    assert set(amb) == {"product"}
    assert [set(f) for f in amb["product"]] == [{"table"}] * 2


@pytest.mark.parametrize("n", range(1, FAMILY_CAP + 1))
@pytest.mark.parametrize("family", ["a2n", "a2nplus1"])
def test_product_bundles_round_trip_byte_identical(family, n):
    text = dumps(emit_bundle(families.build(family, n=n)))
    assert dumps(emit_bundle(loads(text))) == text


_MALFORMED_PRODUCT = {
    "not-a-list": (lambda amb: amb.__setitem__("product", {"a": 1}),
                   "list of two factors"),
    "one-factor": (lambda amb: amb["product"].pop(), "list of two factors"),
    "three-factors": (lambda amb: amb["product"].append(amb["product"][0]),
                      "list of two factors"),
    "modular-factor": (lambda amb: amb["product"].__setitem__(
        1, {"mtc": emit_modular(toric_modular())}),
        "ambient factor 1 must be a ring or a table"),
    "nested-product": (lambda amb: amb["product"].__setitem__(
        1, {"product": list(amb["product"])}),
        "ambient factor 1 must be a ring or a table"),
    "factor-not-an-object": (lambda amb: amb["product"].__setitem__(0, 5),
                             "expected an object"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_PRODUCT) + ["collision"])
def test_malformed_product_ambient_is_exit_2(case, tmp_path, capsys):
    obj = json.loads(dumps(emit_bundle(bundle("a2nplus1", 1))))
    if case == "collision":
        # x . y.z and x.y . z both join to x.y.z
        a, b = (f["table"]["labels"] for f in obj["ambient"]["product"])
        a[1], a[2], b[1], b[2] = "x", "x.y", "y.z", "z"
        message = "labels must be distinct"
    else:
        edit, message = _MALFORMED_PRODUCT[case]
        edit(obj["ambient"])
    with pytest.raises(SchemaError, match=message):
        parse_bundle(obj)
    path = tmp_path / "b.json"
    path.write_text(dumps(obj), encoding="utf-8")
    for verb in ("validate", "analyze"):
        capsys.readouterr()
        assert main([verb, str(path)]) == 2
        assert message in capsys.readouterr().err


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


INDUCTION_SPOILS = {
    "bool": lambda obj: obj["induction"][-1].__setitem__(-1, True),
    "float": lambda obj: obj["induction"][-1].__setitem__(-1, 1.0),
    "str": lambda obj: obj["induction"][-1].__setitem__(-1, "1"),
    "row-not-a-list": lambda obj: obj["induction"].__setitem__(-1, 1),
    "ragged": lambda obj: obj["induction"][-1].pop(),
    "not-a-list": lambda obj: obj.__setitem__("induction", {"0": [1]}),
}


@pytest.mark.parametrize("case", list(INDUCTION_SPOILS))
def test_induction_must_be_an_integer_matrix(case, tmp_path, capsys):
    obj = json.loads(dumps(emit_bundle(bundle("toric-code"))))
    INDUCTION_SPOILS[case](obj)
    message = "bundle.v1: induction must be an integer matrix"
    with pytest.raises(SchemaError) as err:
        parse_bundle(obj)
    assert str(err.value) == message
    path = tmp_path / "b.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
    assert detect(emit_ring(group_ring(*cyclic(5)))) == "ring.v2"
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
