"""A seeded mutation sweep over the input checks.

Six emitted bundles each have one field changed at a time, in six
classes: a non-unit twist set to another root of unity, the sign of a
symmetric pair of nonzero S entries flipped, one n_x moved by 1, one unit
of an induction row moved between two non-unit columns of equal d_A, one
non-unit label of the local part toggled, and two unequal d_A entries
swapped.  At most PER_CLASS mutants per bundle and class are drawn with
random.Random(1) from every change of the class that differs in value
from the original, and each mutant goes through validate, analyze and
galois in process.  The pinned table records, per bundle and class, the
number of mutants and how often each verb exits with each code; an exit
outside 0-3 or a traceback fails the sweep.
"""
import contextlib
import copy
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction

from fuscond.cli import main
from fuscond.serialize import _parse_scalar

BUNDLES = {
    "toric-code": ["toric-code"],
    "ising-square": ["ising-square"],
    "vlplus-orbifold": ["vlplus-orbifold", "--n", "1"],
    "a2n-1": ["a2n", "--n", "1"],
    "coset-su2-3": ["coset-su2", "--n", "3"],
    "a2nplus1-1": ["a2nplus1", "--n", "1"],
}
CLASSES = ("twist", "s-sign", "mult", "induction", "local", "dA")
VERBS = ("validate", "analyze", "galois")
PER_CLASS = 5
# the new twists: the primitive roots of unity of these orders, each value
# once
ROOTS = [{"cyclotomic": {"order": n, "coeffs": ["0"] * k + ["1"]}}
         for n in (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20)
         for k in range(n) if math.gcd(k, n) == 1]

# (bundle, class): (mutants, exit counts of validate, analyze, galois).
# The exit-0 twist mutants on modular and ring ambients are ROADMAP item
# 2's, the exit-0 induction moves item 3's; a2nplus1 1 has a table ambient
# and no induction matrix.
PINNED = {
    ("toric-code", "twist"): (5, {0: 4, 1: 1}, {0: 4, 1: 1}, {0: 4, 1: 1}),
    ("toric-code", "s-sign"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("toric-code", "mult"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("toric-code", "local"): (1, {1: 1}, {1: 1}, {1: 1}),
    ("ising-square", "twist"): (5, {0: 4, 1: 1}, {0: 4, 1: 1}, {0: 4, 1: 1}),
    ("ising-square", "s-sign"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("ising-square", "mult"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("ising-square", "local"): (2, {1: 2}, {1: 2}, {1: 2}),
    ("ising-square", "dA"): (2, {1: 2}, {1: 2}, {1: 2}),
    ("vlplus-orbifold", "twist"): (5, {0: 4, 1: 1}, {0: 1, 1: 4},
                                   {0: 1, 1: 4}),
    ("vlplus-orbifold", "mult"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("vlplus-orbifold", "induction"): (2, {0: 2}, {0: 2}, {0: 2}),
    ("vlplus-orbifold", "local"): (3, {1: 3}, {1: 3}, {1: 3}),
    ("vlplus-orbifold", "dA"): (3, {1: 3}, {1: 3}, {1: 3}),
    ("a2n-1", "twist"): (5, {0: 2, 1: 3}, {1: 5}, {1: 5}),
    ("a2n-1", "mult"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("a2n-1", "induction"): (5, {0: 5}, {0: 3, 1: 2}, {0: 3, 1: 2}),
    ("a2n-1", "local"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("a2n-1", "dA"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("coset-su2-3", "twist"): (5, {0: 3, 1: 2}, {0: 3, 1: 2}, {0: 3, 1: 2}),
    ("coset-su2-3", "s-sign"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("coset-su2-3", "mult"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("coset-su2-3", "induction"): (5, {0: 5}, {1: 5}, {1: 5}),
    ("coset-su2-3", "local"): (3, {1: 3}, {1: 3}, {1: 3}),
    ("coset-su2-3", "dA"): (4, {1: 4}, {1: 4}, {1: 4}),
    ("a2nplus1-1", "twist"): (5, {0: 3, 1: 2}, {0: 3, 1: 2}, {0: 3, 1: 2}),
    ("a2nplus1-1", "mult"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("a2nplus1-1", "local"): (5, {1: 5}, {1: 5}, {1: 5}),
    ("a2nplus1-1", "dA"): (5, {1: 5}, {1: 5}, {1: 5}),
}


def value(encoding):
    return _parse_scalar(encoding, "mutant", {})


def negated(encoding):
    if isinstance(encoding, int):
        return -encoding
    c = encoding["cyclotomic"]
    return {"cyclotomic": {"order": c["order"],
                           "coeffs": [str(-Fraction(q)) for q in c["coeffs"]]}}


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def twist_paths(doc) -> list:
    """The path of every list of ambient twists in doc."""
    amb = doc["ambient"]
    if "mtc" in amb:
        return [("ambient", "mtc", "twists")]
    if "product" in amb:
        return [("ambient", "product", f)
                + (("table",) if "table" in factor else ()) + ("twists",)
                for f, factor in enumerate(amb["product"])]
    return [("ambient", "twists")]


def changes(doc, cls):
    """Every change of class cls to doc that differs in value from it, each
    as a list of (path, new encoding)."""
    if cls == "twist":
        for path in twist_paths(doc):
            twists = at(doc, path)
            for i in range(1, len(twists)):
                old = value(twists[i])
                for root in ROOTS:
                    if value(root) != old:
                        yield [(path + (i,), root)]
    elif cls == "s-sign" and "mtc" in doc["ambient"]:
        path = ("ambient", "mtc", "s_matrix")
        S = at(doc, path)
        for i in range(len(S)):
            for j in range(i + 1, len(S)):
                if value(S[i][j]) != 0:
                    yield [(path + (i, j), negated(S[i][j])),
                           (path + (j, i), negated(S[j][i]))]
    elif cls == "mult":
        for x, n in enumerate(doc["mult"]):
            for d in (-1, 1):
                if n + d >= 0:
                    yield [(("mult", x), n + d)]
    elif cls == "induction" and doc["induction"] is not None:
        dA = [value(v) for v in doc["dA"]]
        for x, row in enumerate(doc["induction"]):
            for a in range(1, len(row)):
                for b in range(1, len(row)):
                    if a != b and row[a] > 0 and dA[a] == dA[b]:
                        yield [(("induction", x, a), row[a] - 1),
                               (("induction", x, b), row[b] + 1)]
    elif cls == "local":
        for y in range(1, doc["module_ring"]["rank"]):
            yield [(("local",), sorted(set(doc["local"]) ^ {y}))]
    elif cls == "dA":
        dA = doc["dA"]
        values = [value(v) for v in dA]
        for i in range(len(dA)):
            for j in range(i + 1, len(dA)):
                if values[i] != values[j]:
                    yield [(("dA", i), dA[j]), (("dA", j), dA[i])]


def mutant(doc, edits):
    out = copy.deepcopy(doc)
    for path, new in edits:
        at(out, path[:-1])[path[-1]] = new
    return out


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def sweep(tmp_path) -> dict:
    rng = random.Random(1)
    table = {}
    for name, spec in BUNDLES.items():
        path = str(tmp_path / f"{name}.json")
        assert run(["example", *spec, "--emit", path])[0] == 0
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for cls in CLASSES:
            found = list(changes(doc, cls))
            picked = rng.sample(found, min(PER_CLASS, len(found)))
            if not picked:
                continue
            exits = {verb: Counter() for verb in VERBS}
            for k, edits in enumerate(picked):
                target = str(tmp_path / f"{name}-{cls}-{k}.json")
                with open(target, "w", encoding="utf-8") as fh:
                    json.dump(mutant(doc, edits), fh)
                for verb in VERBS:
                    code, err = run([verb, target])
                    assert code in (0, 1, 2, 3), (name, cls, edits, verb)
                    assert "Traceback" not in err, (name, cls, edits, verb)
                    exits[verb][code] += 1
            table[name, cls] = (len(picked), *(dict(sorted(exits[v].items()))
                                               for v in VERBS))
    return table


def test_mutation_sweep_exit_codes(tmp_path):
    assert sweep(tmp_path) == PINNED
