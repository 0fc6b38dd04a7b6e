"""Structured-text schemas ring.v1, ring.v2, mtc.v1 and bundle.v1.

Emission is canonical: fixed key order, floats printed with 17 significant
digits, exact scalars as cyclotomic coefficient vectors.  emit -> parse ->
emit is byte-identical.  Equal scalars of one emitted tree may be one
shared encoding object, which dumps renders once; the tree is still plain
JSON.  Reading a document reads each distinct cyclotomic encoding once.

A bundle's ambient is written in one of four forms: {"mtc": ...},
{"ring": ..., "dims": ..., "twists": ...}, {"table": ...}, or
{"product": [A, B]} with A and B each a ring or table form.

A ring's fusion tensor is written in whichever encoding holds fewer
integers.  ring.v1 lists all rank**3 entries row-major; ring.v2 lists the
nonzero entries as [i, j, k, N] quadruples in strictly increasing (i, j, k)
order, and is written exactly when 4 * nnz < rank**3.  A ring nested in a
bundle carries its own tag, so bundle.v1 holds either.
"""
from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .condense import Ambient, CondensableAlgebra, CondensationBundle
from .cyclotomic import (ORDER_CAP, Cyc, as_complex, as_mpc, exact_scalar,
                         value_key)
from .errors import SchemaError
from .modular import ModularData
from .ring import BasedRing, DimVector, fp_dims

SCHEMAS = ("ring.v1", "ring.v2", "mtc.v1", "bundle.v1")
FUSION_ENTRY_CAP = 1 << 26  # rank**3 a ring.v2 file may ask to allocate


# ------------------------------------------------------------------ scalars


def _ratio(c: int, den: int) -> str:
    # str(Fraction(c, den)) for den > 0, without building the Fraction
    g = math.gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


def emit_scalar(x) -> dict:
    ex = exact_scalar(x)
    if ex is not None:
        return {"cyclotomic": {"order": ex.order,
                               "coeffs": [_ratio(c, ex.den) for c in ex.num]}}
    z = as_mpc(x)
    return {"re": float(z.real), "im": float(z.imag)}


def _encodings(values, memo: dict) -> list:
    """emit_scalar of each value, where equal values (value_key) share the
    one encoding in memo, which lives for one emitted document."""
    out = []
    for v in values:
        k = value_key(v)
        enc = memo.get(k)
        if enc is None:
            enc = memo[k] = emit_scalar(v)
        out.append(enc)
    return out


def _read_cyclotomic(body, where: str, memo: dict) -> Cyc:
    if not (isinstance(body, dict) and len(body) == 2 and "order" in body
            and "coeffs" in body):
        raise SchemaError(f"{where}: cyclotomic needs order and coeffs")
    order, coeffs = body["order"], body["coeffs"]
    # the exact type test also rejects bool, a subclass of int
    if type(order) is not int or type(coeffs) is not list:
        raise SchemaError(f"{where}: cyclotomic order must be an integer "
                          f"and coeffs a list")
    # a larger order could only ever take the float fallback
    if order > ORDER_CAP:
        raise SchemaError(f"{where}: cyclotomic order {order} "
                          f"exceeds the cap {ORDER_CAP}")
    # keyed on the strings, not the JSON values: ("1", True) == ("1", 1)
    key = (order, tuple(map(str, coeffs)))
    out = memo.get(key)
    if out is None:
        try:
            # each coefficient string is read once, as one Fraction
            qs = [Fraction(c) for c in key[1]]
            den = math.lcm(*(q.denominator for q in qs))
            out = Cyc.from_numerators(
                order, [q.numerator * (den // q.denominator) for q in qs], den)
            # the S-matrix checks read every value in complex128
            if not cmath.isfinite(as_complex(out)):
                raise OverflowError("past the float64 range")
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            raise SchemaError(f"{where}: bad cyclotomic value ({err})")
        memo[key] = out
    return out


def _parse_scalar(obj, where: str, memo: dict):
    # the encoding an emitted document holds throughout comes first
    if isinstance(obj, dict):
        if len(obj) == 1 and "cyclotomic" in obj:
            return _read_cyclotomic(obj["cyclotomic"], where, memo)
        if len(obj) == 2 and "re" in obj and "im" in obj:
            try:
                z = complex(float(obj["re"]), float(obj["im"]))
            except (TypeError, ValueError):
                raise SchemaError(f"{where}: re/im must be numbers")
            if not cmath.isfinite(z):
                raise SchemaError(f"{where}: scalar must be finite, got {z}")
            return z.real if z.imag == 0.0 else z
    elif isinstance(obj, bool):
        raise SchemaError(f"{where}: booleans are not scalars")
    elif isinstance(obj, int):
        # the order-1 cyclotomic, read and range-checked as one
        return _read_cyclotomic({"order": 1, "coeffs": [obj]}, where, memo)
    elif isinstance(obj, float):
        if not cmath.isfinite(obj):
            raise SchemaError(f"{where}: scalar must be finite, got {obj}")
        return obj
    raise SchemaError(f"{where}: not a recognized scalar encoding")


def _scalars(raw, where: str, memo: dict) -> list:
    """The scalars of a list of encodings.  Equal cyclotomic encodings are
    read once and give one shared Cyc, so its to_mpc cache serves them all;
    memo lives for one document."""
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: expected a list of scalars")
    return [_parse_scalar(v, where, memo) for v in raw]


# ---------------------------------------------------------------- canonical


def _canon(obj, memo: dict) -> str:
    t = type(obj)
    # the exact JSON types first; None, bool, numpy ints, floats and
    # subclasses take the isinstance chain below
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return str(obj)
    if t is not list and t is not tuple and t is not dict:
        if obj is None:
            return "null"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, float):
            return f"{obj:.17g}"
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if not isinstance(obj, (dict, list, tuple)):
            raise SchemaError(f"cannot serialize {type(obj).__name__}")
    if isinstance(obj, dict):
        # a dict that occurs more than once, as a shared scalar encoding
        # does, is rendered once
        out = memo.get(id(obj))
        if out is None:
            inner = ", ".join(
                f"{encode_basestring_ascii(str(k))}: {_canon(v, memo)}"
                for k, v in obj.items())
            out = memo[id(obj)] = "{" + inner + "}"
        return out
    return "[" + ", ".join([_canon(v, memo) for v in obj]) + "]"


def dumps(obj) -> str:
    """Canonical single-line JSON with a trailing newline.  The memo on
    the identity of each dict lives for this one call, while obj keeps
    every dict in it alive."""
    return _canon(obj, {}) + "\n"


# ------------------------------------------------------------------ helpers


def _need(obj, key, kind, where):
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(f"{where}: field {key!r} has the wrong type")
    return val


def _int_list(obj, key, where):
    val = _need(obj, key, list, where)
    # json.loads yields exactly int for integers; the exact type test also
    # rejects bool, a subclass of int
    if not set(map(type, val)) <= {int}:
        raise SchemaError(f"{where}: field {key!r} must hold integers")
    return val


def _int64(values, where) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise SchemaError(f"{where}: integers must fit in 64 bits")


# ---------------------------------------------------------- ring.v1, ring.v2


def emit_ring(ring: BasedRing) -> dict:
    r = ring.rank
    flat = np.asarray(ring.fusion).reshape(r * r * r)
    nz = np.flatnonzero(flat)
    if 4 * len(nz) < r * r * r:
        i, j, k = np.unravel_index(nz, (r, r, r))
        schema, fusion = "ring.v2", np.stack([i, j, k, flat[nz]], 1).tolist()
    else:
        schema, fusion = "ring.v1", flat.tolist()
    return {"schema": schema, "rank": r, "labels": list(ring.labels),
            "unit": 0, "dual": list(ring.dual), "fusion": fusion}


def _sparse_fusion(rows, r, where) -> np.ndarray:
    """The flat rank**3 tensor of ring.v2 quadruples, each check one
    C-level or array pass over all of them."""
    if r ** 3 > FUSION_ENTRY_CAP:
        raise SchemaError(f"{where}: rank {r} exceeds the cap of "
                          f"{FUSION_ENTRY_CAP} fusion entries")
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {4}):
        raise SchemaError(f"{where}: fusion rows must be [i, j, k, N] lists")
    # the exact type test also rejects bool, a subclass of int
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        raise SchemaError(f"{where}: field 'fusion' must hold integers")
    try:
        q = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                        count=4 * len(rows)).reshape(len(rows), 4)
    except OverflowError:
        raise SchemaError(f"{where}: integers must fit in 64 bits")
    idx, n = q[:, :3], q[:, 3]
    bad = np.flatnonzero(((idx < 0) | (idx >= r)).any(axis=1))
    if len(bad):
        raise SchemaError(f"{where}: fusion row {bad[0]} has an index "
                          f"outside [0, {r})")
    bad = np.flatnonzero(n <= 0)
    if len(bad):
        raise SchemaError(f"{where}: fusion row {bad[0]} has N <= 0")
    key = (idx[:, 0] * r + idx[:, 1]) * r + idx[:, 2]
    bad = np.flatnonzero(np.diff(key) <= 0)
    if len(bad):
        raise SchemaError(f"{where}: fusion row {bad[0] + 1} repeats or "
                          f"precedes the (i, j, k) before it")
    flat = np.zeros(r * r * r, dtype=np.int64)
    flat[key] = n
    return flat


def parse_ring(obj) -> BasedRing:
    if not isinstance(obj, dict):
        raise SchemaError("ring.v1: expected an object")
    # a ring without a tag is ring.v1
    where = obj.get("schema", "ring.v1")
    if where not in ("ring.v1", "ring.v2"):
        raise SchemaError(f"unknown ring schema {where!r}")
    r = _need(obj, "rank", int, where)
    labels = _need(obj, "labels", list, where)
    if obj.get("unit", 0) != 0:
        raise SchemaError(f"{where}: unit must be index 0")
    dual = _int_list(obj, "dual", where)
    sparse = where == "ring.v2"
    flat = (_need(obj, "fusion", list, where) if sparse
            else _int_list(obj, "fusion", where))
    if len(labels) != r or len(dual) != r:
        raise SchemaError(f"{where}: labels/dual length disagrees with rank")
    if sparse:
        flat = _sparse_fusion(flat, r, where)
    elif len(flat) != r * r * r:
        raise SchemaError(f"{where}: fusion needs rank^3 entries, got "
                          f"{len(flat)}")
    fusion = _int64(flat, where).reshape(r, r, r)
    return BasedRing(labels=tuple(str(x) for x in labels), fusion=fusion,
                     dual=tuple(dual))


# ------------------------------------------------------------------- mtc.v1


def emit_modular(md: ModularData) -> dict:
    return _emit_modular(md, {})


def _emit_modular(md: ModularData, memo: dict) -> dict:
    return {"schema": "mtc.v1", "rank": md.rank, "labels": list(md.labels),
            "dual": list(md.dual),
            "s_matrix": [_encodings(row, memo) for row in md.s],
            "twists": _encodings(md.twists, memo)}


def parse_modular(obj) -> ModularData:
    return _parse_modular(obj, {})


def _parse_modular(obj, memo: dict) -> ModularData:
    where = "mtc.v1"
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    r = _need(obj, "rank", int, where)
    labels = _need(obj, "labels", list, where)
    dual = _int_list(obj, "dual", where)
    s_lists = _need(obj, "s_matrix", list, where)
    twists = _need(obj, "twists", list, where)
    if len(labels) != r or len(dual) != r:
        raise SchemaError(f"{where}: labels/dual length disagrees with rank")
    if len(s_lists) != r or any(not isinstance(row, list) or len(row) != r
                                for row in s_lists):
        raise SchemaError(f"{where}: s_matrix must be rank x rank")
    if len(twists) != r:
        raise SchemaError(f"{where}: need one twist per label")
    flat = _scalars([v for row in s_lists for v in row], f"{where}: s_matrix",
                    memo)
    s = tuple(tuple(flat[i:i + r]) for i in range(0, r * r, r))
    tw = tuple(_scalars(twists, f"{where}: twists", memo))
    return ModularData(labels=tuple(str(x) for x in labels),
                       dual=tuple(dual), s=s, twists=tw)


# ----------------------------------------------------------------- bundle.v1


def _emit_ambient(amb: Ambient, memo: dict) -> dict:
    if amb.modular is not None:
        return {"mtc": _emit_modular(amb.modular, memo)}
    if amb.factors is not None:
        return {"product": [_emit_ambient(f, memo) for f in amb.factors]}
    dims = _encodings(amb.dims.values, memo)
    twists = _encodings(amb.twists, memo)
    if amb.ring is not None:
        return {"ring": emit_ring(amb.ring), "dims": dims, "twists": twists}
    return {"table": {"labels": list(amb.labels), "dual": list(amb.dual),
                      "dims": dims, "twists": twists}}


def _parse_dims(raw, where, memo: dict) -> DimVector:
    return DimVector(values=tuple(_scalars(raw, where, memo)))


def _dims_and_twists(obj, where, memo: dict) -> tuple:
    """A ring or table ambient's dims and twists, both required lists."""
    return (_parse_dims(_need(obj, "dims", list, where), where, memo),
            _scalars(_need(obj, "twists", None, where), f"{where}: twists",
                     memo))


def _parse_ambient(obj, memo: dict) -> Ambient:
    where = "bundle.v1: ambient"
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if set(obj) == {"product"}:
        pair = obj["product"]
        if type(pair) is not list or len(pair) != 2:
            raise SchemaError(f"{where}: product must be a list of two "
                              "factors")
        return Ambient.from_product(*(_parse_ambient(f, memo) for f in pair))
    if set(obj) == {"mtc"}:
        return Ambient.from_modular(_parse_modular(obj["mtc"], memo))
    if set(obj) == {"ring", "dims", "twists"}:
        return Ambient.from_ring(parse_ring(obj["ring"]),
                                 *_dims_and_twists(obj, where, memo))
    if set(obj) == {"table"}:
        t = obj["table"]
        if not isinstance(t, dict):
            raise SchemaError(f"{where}: table must be an object")
        labels = _need(t, "labels", list, where)
        dual = _int_list(t, "dual", where)
        return Ambient(labels, dual, *_dims_and_twists(t, where, memo))
    raise SchemaError(f"{where}: expected mtc, ring, table or product form")


def emit_bundle(b: CondensationBundle) -> dict:
    induction = (None if b.induction is None
                 else [[int(v) for v in row] for row in np.asarray(b.induction)])
    memo = {}
    return {"schema": "bundle.v1",
            "ambient": _emit_ambient(b.ambient, memo),
            "mult": [int(v) for v in b.mult],
            "module_ring": emit_ring(b.module_ring),
            "dA": _encodings(b.dA.values, memo),
            "induction": induction,
            "local": [int(v) for v in b.local]}


def parse_bundle(obj) -> CondensationBundle:
    where = "bundle.v1"
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    memo = {}
    amb = _parse_ambient(_need(obj, "ambient", dict, where), memo)
    mult = tuple(_int_list(obj, "mult", where))
    module = parse_ring(_need(obj, "module_ring", dict, where))
    raw_da = obj.get("dA")
    if raw_da is None:
        dA = fp_dims(module)
    else:
        dA = _parse_dims(raw_da, f"{where}: dA", memo)
    raw_m = obj.get("induction")
    if raw_m is None:
        induction = None
    else:
        # the exact type tests also reject bool, a subclass of int
        if not (type(raw_m) is list and set(map(type, raw_m)) <= {list}
                and len(set(map(len, raw_m))) <= 1
                and set(map(type, chain.from_iterable(raw_m))) <= {int}):
            raise SchemaError(f"{where}: induction must be an integer matrix")
        induction = _int64(raw_m, where)
    local = tuple(_int_list(obj, "local", where))
    alg = CondensableAlgebra(ambient=amb, mult=mult)
    return CondensationBundle(algebra=alg, module_ring=module, dA=dA,
                              induction=induction, local=local)


# ------------------------------------------------------------------ generic


def detect(obj) -> str:
    """Schema name for a parsed JSON object, by tag or by shape."""
    if not isinstance(obj, dict):
        raise SchemaError("top level must be a JSON object")
    tag = obj.get("schema")
    if tag is not None:
        if tag not in SCHEMAS:
            raise SchemaError(f"unknown schema {tag!r}")
        return tag
    if "fusion" in obj:
        return "ring.v1"
    if "s_matrix" in obj:
        return "mtc.v1"
    if "mult" in obj and "module_ring" in obj:
        return "bundle.v1"
    raise SchemaError("object matches no known schema")


_PARSERS = {"ring.v1": parse_ring, "ring.v2": parse_ring,
            "mtc.v1": parse_modular,
            "bundle.v1": parse_bundle}
_EMITTERS = {BasedRing: emit_ring, ModularData: emit_modular,
             CondensationBundle: emit_bundle}


def emit_any(value) -> dict:
    for cls, fn in _EMITTERS.items():
        if isinstance(value, cls):
            return fn(value)
    raise SchemaError(f"cannot emit {type(value).__name__}")


def _loads_tagged(text: str) -> tuple:
    """(schema tag, value): the tag is the one the text was read as."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"not valid JSON: {err}")
    tag = detect(obj)
    return tag, _PARSERS[tag](obj)


def loads(text: str):
    return _loads_tagged(text)[1]


def read_tagged(path) -> tuple:
    """(schema tag, value) of a file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise SchemaError(f"{path} is not UTF-8 text: {err}")
    return _loads_tagged(text)


def read_path(path):
    return read_tagged(path)[1]


def write_path(value, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(emit_any(value)))
