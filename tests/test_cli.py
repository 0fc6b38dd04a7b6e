"""End-to-end tests of the fuscond command line, run in-process."""
import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import mpmath as mp
import pytest

import fuscond
from fuscond import families, serialize
from fuscond import cli as cli_module
from fuscond import condense as condense_module
from fuscond import ring as ring_module
from fuscond.cli import DIGITS_FLOOR, _parser, main
from fuscond.condense import (CondensableAlgebra, CondensationBundle,
                              schur_weyl)
from fuscond.cyclotomic import working_tol
from fuscond.modular import ModularData
from fuscond.ring import BasedRing, DimVector
from fuscond.wedderburn import SPLIT_SEED, _profile_key, block_profiles

from cached_bundles import FAMILY_MEMBERS, FIXED_BUNDLES, SMALL_COSETS
from test_condense import flat_ambient


@pytest.fixture
def a2n1_path(tmp_path):
    p = tmp_path / "b.json"
    assert main(["example", "a2n", "--n", "1", "--emit", str(p)]) == 0
    return str(p)


def test_example_then_analyze(a2n1_path, capsys):
    capsys.readouterr()
    assert main(["analyze", a2n1_path]) == 0
    out = capsys.readouterr().out
    assert "kernel_dim: 0" in out
    assert "m=1 -> 1.1" in out
    assert "m=2 -> m1.m1" in out
    assert out.count("m=1 ->") == 4
    assert "codegree residual" in out
    assert "FAIL" not in out


def test_galois_writes_dot(a2n1_path, tmp_path, capsys):
    dot = tmp_path / "lattice.dot"
    capsys.readouterr()
    assert main(["galois", a2n1_path, "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "| {1,r1,r2,X} | 6 | 1.1 + j.1 | 2 |" in out
    assert "collisions" in out
    text = dot.read_text()
    assert text.count("label=") == 9
    assert "->" in text


def test_validate_bundle_and_parts(a2n1_path, tmp_path, capsys):
    assert main(["validate", a2n1_path]) == 0

    ring, dims, twists = families.half_ring(1)
    rp = tmp_path / "ring.json"
    serialize.write_path(ring, str(rp))
    assert main(["validate", str(rp)]) == 0

    mp_ = tmp_path / "mtc.json"
    serialize.write_path(families.toric_modular(), str(mp_))
    capsys.readouterr()
    assert main(["validate", str(mp_)]) == 0
    out = capsys.readouterr().out
    assert "(mtc.v1)" in out
    assert "all checks passed" in out


def test_validate_corrupted_ring_fails(tmp_path, capsys):
    ring, _, _ = families.half_ring(1)
    data = serialize.emit_any(ring)
    data["fusion"][0] = 0  # break the unit axiom
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_garbage_json_is_exit_2(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("not json{")
    assert main(["validate", str(p)]) == 2
    assert main(["analyze", str(p)]) == 2


def test_analyze_wants_a_bundle(tmp_path):
    p = tmp_path / "ring.json"
    serialize.write_path(families.ty_ring(3), str(p))
    assert main(["analyze", str(p)]) == 2
    assert main(["galois", str(p)]) == 2


READING_VERBS = [["validate"], ["analyze"], ["galois"],
                 ["indicators", "--x", "1"]]


def _unreadable(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "missing.json"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "ring.v1", "labels": ["\xe9"]}')
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
@pytest.mark.parametrize("argv", READING_VERBS, ids=lambda a: a[0])
def test_unreadable_path_is_exit_2(tmp_path, capsys, argv, kind):
    path = str(_unreadable(tmp_path, kind))
    capsys.readouterr()
    assert main([argv[0], path] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if kind == "non-utf8":
        assert "is not UTF-8 text" in err


def test_unreadable_mtc_is_exit_2(tmp_path, capsys):
    path = str(_unreadable(tmp_path, "non-utf8"))
    capsys.readouterr()
    assert main(["example", "coset-diagonal", "--mtc", path]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


def _count_calls(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends name to calls."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("argv", [
    ["example", "toric-code", "--emit"],
    ["galois", "--dot"],
], ids=["example-emit", "galois-dot"])
def test_unwritable_path_is_exit_2(tmp_path, monkeypatch, capsys, argv):
    # the target is opened before anything is built, split or printed
    bundle = _emit(tmp_path, "toric-code", None)
    target = str(tmp_path / "no-such-dir" / "out")
    if argv[0] == "galois":
        argv = ["galois", bundle, "--dot"]
    calls = []
    _count_calls(monkeypatch, condense_module, "block_profiles", calls)
    _count_calls(monkeypatch, families, "build", calls)
    capsys.readouterr()
    assert main(argv + [target]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory" in err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["example", "a2n", "--n", "13", "--emit"],
    ["example", "toric-code", "--n", "5", "--emit"],
    ["galois", "--dot"],
], ids=["example-past-the-cap", "example-unused-n", "galois-bad-seed"])
def test_a_refused_verb_keeps_the_bytes_of_its_target(tmp_path, monkeypatch,
                                                      argv):
    # the writability probe truncates nothing, so a refusal after it (the
    # family's cap, a parameter the family does not take, an unparsable
    # FUSCOND_SEED) leaves an existing target as it was
    target = tmp_path / "old"
    target.write_bytes(b"old bytes\n")
    if argv[0] == "galois":
        argv = ["galois", _emit(tmp_path, "toric-code", None), "--dot"]
        monkeypatch.setenv("FUSCOND_SEED", "x")
    assert main(argv + [str(target)]) == 2
    assert target.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("argv", [
    ["example", "a2n", "--n", "13", "--emit"],
    ["galois", "--dot"],
], ids=["example-past-the-cap", "galois-bad-seed"])
def test_a_refused_verb_leaves_no_file_on_a_fresh_path(tmp_path, monkeypatch,
                                                      capsys, argv):
    # the probe creates a target that did not exist, and a refusal after
    # it removes that target again; an unparsable FUSCOND_SEED is refused
    # before the header is printed
    target = tmp_path / "fresh"
    if argv[0] == "galois":
        argv = ["galois", _emit(tmp_path, "toric-code", None), "--dot"]
        monkeypatch.setenv("FUSCOND_SEED", "abc")
    capsys.readouterr()
    assert main(argv + [str(target)]) == 2
    assert capsys.readouterr().out == ""
    assert not target.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("verb", ["validate", "analyze", "galois",
                                  "indicators", "example"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, verb, tol):
    path = _emit(tmp_path, "toric-code", None)
    argv = {"indicators": ["indicators", path, "--x", "1"],
            "example": ["example", "toric-code"]}.get(verb, [verb, path])
    capsys.readouterr()
    assert main(argv + [f"--tol={tol}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: --tol must be a finite number above 0, got "
                   f"{float(tol)}\n")


@pytest.mark.parametrize("family,n", [("a2n", 2), ("vlplus-orbifold", 1)])
def test_tol_finer_than_the_digits_resolve_is_unusable(tmp_path, capsys,
                                                       family, n):
    # taken at its word, this tol failed exact data: a2n 2 exited 1 on
    # codegree residuals of 2.4e-15, vlplus-orbifold 3 in the in-ideal test
    path = _emit(tmp_path, family, n)
    capsys.readouterr()
    assert main(["analyze", path, "--digits", "15", "--tol", "1e-20"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: --tol must be at least 1e-12 at --digits 15, "
                   "got 1e-20\n")


@pytest.mark.parametrize("digits", [15, 16, 20])
@pytest.mark.parametrize("family,n", [("toric-code", None), ("a2n", 2)])
def test_tol_at_the_floor_passes(tmp_path, capsys, family, n, digits):
    path = _emit(tmp_path, family, n)
    for verb in ("analyze", "galois"):
        capsys.readouterr()
        assert main([verb, path, "--digits", str(digits),
                     "--tol", f"1e{3 - digits}"]) == 0, verb
        assert "FAIL" not in capsys.readouterr().out


def test_example_missing_n_is_exit_2(capsys):
    assert main(["example", "a2n"]) == 2
    assert "error" in capsys.readouterr().err


def test_example_unknown_name_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["example", "no-such-family"])
    assert exc.value.code == 2


# every verb declares -h, --tol and --digits first, then its own arguments
COMMON_USAGE = "[-h] [--tol TOL] [--digits DIGITS]"
USAGE = {
    "validate": f"{COMMON_USAGE} input",
    "analyze": f"{COMMON_USAGE} input",
    "galois": f"{COMMON_USAGE} [--dot DOT] input",
    "example": f"{COMMON_USAGE} [--n N] [--mtc MTC] [--emit EMIT] "
               "{" + ",".join(sorted(families.FAMILIES)) + "}",
    "indicators": f"{COMMON_USAGE} --x X input",
}


@pytest.mark.parametrize("verb", sorted(USAGE))
def test_each_verb_usage_line(verb, monkeypatch, capsys):
    # wide enough that argparse keeps the usage on one line
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main([verb, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"usage: fuscond {verb} {USAGE[verb]}"
    for option in ("--tol TOL  ", "--digits DIGITS  "):
        assert out.count(option) == 1


# One parser serves every main call of a process; no call may leave state
# in it that a later call reads.
def test_a_repeated_example_writes_only_when_asked(tmp_path, capsys):
    p = tmp_path / "p.json"
    assert main(["example", "toric-code", "--emit", str(p)]) == 0
    assert f"- wrote {p}\n" in capsys.readouterr().out
    written = p.read_bytes()
    assert main(["example", "toric-code"]) == 0
    assert "- wrote" not in capsys.readouterr().out
    assert p.read_bytes() == written


def test_a_repeated_galois_draws_only_when_asked(tmp_path, capsys):
    path = _emit(tmp_path, "toric-code", None)
    dot = tmp_path / "d.dot"
    assert main(["galois", path, "--dot", str(dot)]) == 0
    assert "- wrote Hasse diagram" in capsys.readouterr().out
    drawn = dot.read_bytes()
    assert main(["galois", path]) == 0
    assert "Hasse" not in capsys.readouterr().out
    assert dot.read_bytes() == drawn


def test_a_repeated_indicators_still_requires_x(tmp_path, capsys):
    path = _emit(tmp_path, "toric-code", None)
    assert main(["indicators", path, "--x", "1"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["indicators", path])
    assert exc.value.code == 2
    assert "the following arguments are required: --x" in \
        capsys.readouterr().err


def test_a_usage_error_leaves_the_next_call_alone(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FUSCOND_SEED", raising=False)
    serialize.write_path(families.build("toric-code"), "b.json")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "b.json", "--digits", "abc"])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    assert main(["analyze", "b.json"]) == 0
    out, err = capsys.readouterr()
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (err, digest) == ("", ANALYZE_GOLDEN["toric-code", None][1])


def _help(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-h"])
    assert exc.value.code == 0
    return capsys.readouterr()


def test_help_follows_the_width_of_each_call(monkeypatch, capsys):
    # argparse reads COLUMNS when it formats, so a parser built at one
    # width prints at the width of the call
    argvs = [[]] + [[verb] for verb in sorted(USAGE)]
    fresh = {}
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in argvs:
            _parser.cache_clear()
            fresh[columns, tuple(argv)] = _help(argv, capsys)
    assert fresh["60", ("example",)] != fresh["200", ("example",)]
    _parser.cache_clear()
    for columns in ("60", "200", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in argvs:
            assert _help(argv, capsys) == fresh[columns, tuple(argv)], \
                (columns, argv)


def test_a_command_patched_in_after_a_first_call_is_the_one_run(
        tmp_path, monkeypatch, capsys):
    path = _emit(tmp_path, "toric-code", None)
    _parser.cache_clear()
    assert main(["analyze", path]) == 0
    seen = []

    def patched(args):
        seen.append(args.input)
        return 1
    monkeypatch.setattr(cli_module, "cmd_analyze", patched)
    assert main(["analyze", path]) == 1
    assert seen == [path]


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch):
    path = _emit(tmp_path, "toric-code", None)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    _parser.cache_clear()
    assert main(["validate", path]) == 0
    verbs = ["validate", "analyze", "galois", "example", "indicators"]
    assert built == ["fuscond"] + [f"fuscond {verb}" for verb in verbs]
    assert main(["validate", path]) == 0
    assert len(built) == 6


def test_example_coset_needs_and_takes_mtc(tmp_path, capsys):
    mp_ = tmp_path / "toric.json"
    serialize.write_path(families.toric_modular(), str(mp_))
    assert main(["example", "coset-diagonal"]) == 2
    out = tmp_path / "coset.json"
    assert main(["example", "coset-diagonal", "--mtc", str(mp_),
                 "--emit", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 0
    assert "kernel_dim: 0" in capsys.readouterr().out


def test_example_refuses_a_parameter_the_family_does_not_take(tmp_path,
                                                              capsys):
    mtc = tmp_path / "toric.mtc.json"
    serialize.write_path(families.toric_modular(), str(mtc))
    for argv, name in ((["toric-code", "--n", "5"], "n"),
                       (["a2n", "--n", "1", "--mtc", str(mtc)], "mtc")):
        capsys.readouterr()
        assert main(["example"] + argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: family {argv[0]} takes no parameter "
                       f"{name}\n")


def test_example_refuses_an_mtc_it_does_not_take_before_reading_it(tmp_path,
                                                                   capsys):
    # the file's twist (3 + 4i)/5 is no root of unity, so reading it would
    # fail validation (exit 1); the parameter is refused first
    mtc = tmp_path / "bad.mtc.json"
    serialize.write_path(families.toric_modular(), str(mtc))
    obj = json.loads(mtc.read_text(encoding="utf-8"))
    obj["twists"][-1] = {"cyclotomic": {"order": 4, "coeffs": ["3/5", "4/5"]}}
    mtc.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["example", "a2n", "--n", "1", "--mtc", str(mtc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: family a2n takes no parameter mtc\n"


def test_indicators_row(tmp_path, capsys):
    p = tmp_path / "toric.json"
    serialize.write_path(families.toric_code(), str(p))
    capsys.readouterr()
    assert main(["indicators", str(p), "--x", "1"]) == 0
    out = capsys.readouterr().out
    # chi_1 is the trivial character of Z2: 1 on both basis elements
    assert "- 1: 1" in out
    assert "- M: 1" in out
    assert main(["indicators", str(p), "--x", "nope"]) == 2


def test_seed_env_override(a2n1_path, monkeypatch, capsys):
    monkeypatch.setenv("FUSCOND_SEED", "12345")
    capsys.readouterr()
    assert main(["analyze", a2n1_path]) == 0
    assert "kernel_dim: 0" in capsys.readouterr().out
    monkeypatch.setenv("FUSCOND_SEED", "pancake")
    assert main(["analyze", a2n1_path]) == 2


def _emit(tmp_path, family, n):
    p = tmp_path / f"{family}-{n}.json"
    serialize.write_path(families.build(family, n=n), str(p))
    return str(p)


# --digits below the floor is a usage error on any bundle; from the floor
# up the verdict on valid data is a pass.
DIGITS_EXIT = [(-5, 2), (0, 2), (8, 2), (15, 0), (20, 0), (30, 0), (64, 0)]


@pytest.mark.parametrize("family,n", [("a2n", 2), ("toric-code", None)])
@pytest.mark.parametrize("digits,code", DIGITS_EXIT)
def test_digits_exit_code_table(tmp_path, capsys, family, n, digits, code):
    assert DIGITS_FLOOR == 15
    path = _emit(tmp_path, family, n)
    before = mp.mp.dps
    assert main(["analyze", path, "--digits", str(digits)]) == code
    assert mp.mp.dps == before
    err = capsys.readouterr().err
    if code == 2:
        assert f"at least {DIGITS_FLOOR}" in err


def _verdict_lines(out):
    return [line for line in out.splitlines()
            if line.startswith(("- kernel_dim:", "- blocks:", "- codegree "))
            and not line.startswith("- codegree residual:")]


SEEDS = (None, 1, 7, 12345)
# Every built-in bundle with module rank <= 20.
SMALL_MEMBERS = ([("a2n", n) for n in range(1, 5)]
                 + [("a2nplus1", n) for n in range(1, 4)]
                 + [("vlplus-orbifold", 1), ("toric-code", None),
                    ("ising-square", None)])


@pytest.mark.parametrize("family,n", SMALL_MEMBERS,
                         ids=[f"{f}-{n}" for f, n in SMALL_MEMBERS])
def test_verdict_is_seed_independent(tmp_path, monkeypatch, capsys,
                                     family, n):
    b = families.build(family, n=n)
    assert b.module_ring.rank <= 20
    path = _emit(tmp_path, family, n)
    seen = []
    for seed in SEEDS:
        if seed is None:
            monkeypatch.delenv("FUSCOND_SEED", raising=False)
        else:
            monkeypatch.setenv("FUSCOND_SEED", str(seed))
        capsys.readouterr()
        code = main(["analyze", path])
        lines = _verdict_lines(capsys.readouterr().out)
        profile = [_profile_key(bp) for bp in
                   block_profiles(b.module_ring,
                                  seed=SPLIT_SEED if seed is None else seed)]
        seen.append((code, lines, profile))
    assert seen[0][0] == 0 and seen[0][1]
    assert all(s == seen[0] for s in seen[1:])


@pytest.mark.parametrize("verb", ["analyze", "galois"])
def test_each_global_dimension_is_summed_once(tmp_path, monkeypatch, capsys,
                                              verb):
    # check_bundle, codegree_check and verify_correspondence all need the
    # ambient's exact sum of d_x^2; it is formed once per bundle
    summed = []
    total = DimVector.total

    def counted(self, subset=None):
        if subset is None:
            summed.append(self)
        return total(self, subset)
    monkeypatch.setattr(DimVector, "total", counted)
    assert main([verb, _emit(tmp_path, "a2n", 1)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # one sum for the ambient's dims and one for the module's
    assert len(summed) == len({id(d) for d in summed}) == 2


@pytest.mark.parametrize("verb", ["analyze", "galois"])
def test_the_algebra_dimension_is_summed_once(tmp_path, monkeypatch, capsys,
                                              verb):
    # check_bundle, codegree_check and verify_correspondence all need the
    # exact d(A) = sum_x n_x d_x; it is formed once per algebra
    summed = []
    dot = DimVector.dot

    def counted(self, weights):
        summed.append(self)
        return dot(self, weights)
    monkeypatch.setattr(DimVector, "dot", counted)
    assert main([verb, _emit(tmp_path, "a2n", 1)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(summed) == 1


def test_indicators_bad_label_splits_nothing(tmp_path, monkeypatch, capsys):
    calls = []
    _count_calls(monkeypatch, condense_module, "block_profiles", calls)
    path = _emit(tmp_path, "a2n", 1)
    capsys.readouterr()
    assert main(["indicators", path, "--x", "nope"]) == 2
    assert "error: no ambient label 'nope'" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("x,message", [
    ("1.1", "error: no block is matched to 1.1; matching needs ambient "
            "S-matrix (or ring with twists) plus the induction matrix"),
    ("j.c+", "error: j.c+ does not occur in the algebra"),
], ids=["unmatchable", "not-in-algebra"])
def test_indicators_refusal_splits_nothing(tmp_path, monkeypatch, capsys, x,
                                           message):
    # a2nplus1 has a table ambient and no induction matrix, so no block
    # can be matched to any x; n_x = 0 for j.c+
    calls = []
    _count_calls(monkeypatch, condense_module, "block_profiles", calls)
    path = _emit(tmp_path, "a2nplus1", 1)
    capsys.readouterr()
    assert main(["indicators", path, "--x", x]) == 2
    out, err = capsys.readouterr()
    assert out == f"## indicators {path} x={x}\n"
    assert err == message + "\n"
    assert calls == []


def _floats(obj):
    """The JSON object with every exact cyclotomic scalar re-encoded as
    {"re", "im"} floats."""
    if isinstance(obj, dict):
        if set(obj) == {"cyclotomic"}:
            return serialize.emit_scalar(
                complex(serialize._parse_scalar(obj, "scalar", {})))
        return {k: _floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_floats(v) for v in obj]
    return obj


def _stable_lines(out):
    """Output lines without the header, residual magnitudes and match
    fits, which depend on the arithmetic."""
    keep = []
    for line in out.splitlines()[1:]:
        if line.startswith("- ") and "residual" in line:
            continue
        if line.startswith("|"):  # galois table: drop the residual column
            line = line.rsplit("|", 2)[0]
        keep.append(line.split(" (fit ")[0].split(" (best fit ")[0])
    return keep


@pytest.mark.parametrize("family,n", SMALL_MEMBERS,
                         ids=[f"{f}-{n}" for f, n in SMALL_MEMBERS])
def test_float_encoding_gives_the_exact_verdict(tmp_path, capsys, family, n):
    exact = _emit(tmp_path, family, n)
    with open(exact, encoding="utf-8") as fh:
        obj = _floats(json.load(fh))
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(obj), encoding="utf-8")
    assert "cyclotomic" not in floats.read_text(encoding="utf-8")
    for verb in ("analyze", "galois"):
        capsys.readouterr()
        code = main([verb, exact])
        want = _stable_lines(capsys.readouterr().out)
        assert main([verb, str(floats)]) == code
        assert _stable_lines(capsys.readouterr().out) == want


@pytest.mark.parametrize("family,n", SMALL_MEMBERS,
                         ids=[f"{f}-{n}" for f, n in SMALL_MEMBERS])
def test_float_encoded_galois_bytes_are_the_same_at_every_digits(
        tmp_path, monkeypatch, capsys, family, n):
    # numeric dims are summed at as_float's precision, so the residuals
    # galois prints cannot depend on --digits either
    monkeypatch.chdir(tmp_path)
    with open(_emit(tmp_path, family, n), encoding="utf-8") as fh:
        obj = _floats(json.load(fh))
    (tmp_path / "f.json").write_text(json.dumps(obj), encoding="utf-8")
    seen = []
    for digits in (DIGITS_FLOOR, 64, 128):
        capsys.readouterr()
        code = main(["galois", "f.json", "--digits", str(digits),
                     "--dot", "l.dot"])
        out, err = capsys.readouterr()
        seen.append((code, err, out + (tmp_path / "l.dot").read_text()))
    assert seen[0][:2] == (0, "")
    assert seen[1] == seen[0] and seen[2] == seen[0]


@pytest.mark.parametrize("verb", ["validate", "analyze"])
def test_table_ambient_rejects_bad_labels(tmp_path, capsys, verb):
    # a2nplus1's ambient is a product of two tables
    obj = serialize.emit_bundle(families.build("a2nplus1", n=1))
    labels = obj["ambient"]["product"][0]["table"]["labels"]
    labels[5], labels[6] = "1.1", ""
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(obj), encoding="utf-8")
    assert main([verb, str(path)]) == 2
    assert "labels must be distinct" in capsys.readouterr().err


@pytest.mark.parametrize("family,n", [("a2n", 1), ("a2n", 6),
                                      ("a2nplus1", 1)])
def test_flat_ambient_file_gives_the_same_analysis(tmp_path, capsys, family,
                                                   n):
    # the flat form a product ambient had before it was kept factored
    # still reads, and gives the factored file's analysis line for line
    b = families.build(family, n=n)
    flat = CondensationBundle(
        algebra=CondensableAlgebra(ambient=flat_ambient(b.ambient),
                                   mult=b.mult),
        module_ring=b.module_ring, dA=b.dA, induction=b.induction,
        local=b.local)
    path = str(tmp_path / "b.json")
    seen = []
    for value in (flat, b):
        serialize.write_path(value, path)
        capsys.readouterr()
        code = main(["analyze", path])
        seen.append((code, capsys.readouterr()))
    form = json.loads(serialize.dumps(serialize.emit_bundle(flat)))["ambient"]
    assert set(form) == ({"ring", "dims", "twists"} if family == "a2n"
                         else {"table"})
    assert seen[0] == seen[1] and seen[0][0] == 0


def test_broken_factor_ring_fails_the_checks(tmp_path, capsys):
    # m1 m1 = 1 + j + 2 m1 in the first factor of a2n n=1 keeps the unit
    # and duality axioms but breaks associativity: (m1 m1) s+ = 3 s+ + 3 s-
    # while m1 (m1 s+) = 2 s+ + 2 s-
    obj = serialize.emit_bundle(families.build("a2n", n=1))
    factor = obj["ambient"]["product"][0]
    ring = serialize.parse_ring(factor["ring"])
    F = ring.fusion.copy()
    F[2, 2, 2] = 2
    factor["ring"] = serialize.emit_ring(
        BasedRing(labels=ring.labels, fusion=F, dual=ring.dual))
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(obj), encoding="utf-8")
    for verb in ("validate", "analyze", "galois"):
        capsys.readouterr()
        assert main([verb, str(path)]) == 1
        out, err = capsys.readouterr()
        assert "- FAIL: ambient factor 0: associativity fails at " in out
        assert "ambient factor 1" not in out and err == ""


def test_broken_module_ring_fails_every_verb(tmp_path, capsys):
    # r1 r1 = 2 r2 and r2 r2 = 2 r1 in the module ring of a2n n=1 keep the
    # unit, duality and transpose-duality axioms but break associativity
    obj = serialize.emit_bundle(families.build("a2n", n=1))
    ring = serialize.parse_ring(obj["module_ring"])
    assert ring.labels[1:3] == ("r1", "r2")
    F = ring.fusion.copy()
    F[1, 1, 2] += 1
    F[2, 2, 1] += 1
    broken = BasedRing(labels=ring.labels, fusion=F, dual=ring.dual)
    obj["module_ring"] = serialize.emit_ring(broken)
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(obj), encoding="utf-8")
    problems = ring_module.validate(broken).problems
    assert len(problems) == 1 and problems[0].startswith("associativity")
    for verb in ("validate", "analyze", "galois"):
        capsys.readouterr()
        assert main([verb, str(path)]) == 1
        out, err = capsys.readouterr()
        assert f"- FAIL: module ring: {problems[0]}" in out.splitlines()
        assert err == ""


# N[i, j, k] += 1 in the flat ambient ring of vlplus-orbifold: each breaks
# associativity, and (2, 3, 2), (3, 4, 1) and (2, 3, 4) transpose-duality
AMBIENT_MUTANTS = [(2, 2, 3), (3, 3, 2), (2, 3, 2), (3, 4, 1), (4, 4, 4),
                   (2, 3, 4)]


@pytest.mark.parametrize("i,j,k", AMBIENT_MUTANTS)
def test_broken_flat_ambient_ring_fails_every_verb(tmp_path, capsys, i, j,
                                                   k):
    obj = serialize.emit_bundle(families.build("vlplus-orbifold", n=1))
    ring = serialize.parse_ring(obj["ambient"]["ring"])
    F = ring.fusion.copy()
    F[i, j, k] += 1
    broken = BasedRing(labels=ring.labels, fusion=F, dual=ring.dual)
    obj["ambient"]["ring"] = serialize.emit_ring(broken)
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(obj), encoding="utf-8")
    want = [f"- FAIL: ambient: {p}"
            for p in ring_module.validate(broken).problems]
    assert "- FAIL: ambient: associativity fails at " in want[-1]
    for verb in ("validate", "analyze", "galois"):
        capsys.readouterr()
        assert main([verb, str(path)]) == 1
        out, err = capsys.readouterr()
        assert [line for line in out.splitlines()
                if line.startswith("- FAIL")] == want
        assert err == ""


def test_zero_module_ring_fails_the_checks(tmp_path, capsys):
    # an all-zero module ring breaks the unit and duality axioms; the
    # Perron-Frobenius comparison, whose power iteration would collapse to
    # zero on it, is skipped
    obj = serialize.emit_bundle(families.toric_code())
    obj["module_ring"]["fusion"] = [0] * len(obj["module_ring"]["fusion"])
    path = tmp_path / "zero.json"
    path.write_text(serialize.dumps(obj), encoding="utf-8")
    for verb in ("validate", "analyze"):
        capsys.readouterr()
        assert main([verb, str(path)]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("- FAIL")]
        assert fails == [
            "- FAIL: module ring: unit axiom fails on the left at (j, k): "
            "(0, 0), (1, 1)",
            "- FAIL: module ring: unit axiom fails on the right at (i, k): "
            "(0, 0), (1, 1)",
            "- FAIL: module ring: duality axiom fails at (i, j): "
            "(0, 0), (1, 1)"]


def test_analyze_builds_no_flat_ambient_ring(tmp_path, monkeypatch):
    # the rings analyze builds for a2n n=6: two rank-10 factors and the
    # rank-28 module ring, never the rank-100 product
    path = _emit(tmp_path, "a2n", 6)
    ranks = []
    init = ring_module.BasedRing.__post_init__

    def record(self):
        ranks.append(len(self.labels))
        init(self)
    monkeypatch.setattr(ring_module.BasedRing, "__post_init__", record)
    assert main(["analyze", path]) == 0
    assert sorted(set(ranks)) == [10, 28]


@pytest.mark.parametrize("family", ["a2n", "a2nplus1"])
def test_family_cap_member_runs_and_the_next_is_refused(tmp_path, capsys,
                                                        family):
    n = families.FAMILY_CAP
    path = _emit(tmp_path, family, n)
    for verb in ("analyze", "galois"):
        assert main([verb, path]) == 0
    capsys.readouterr()
    assert main(["example", family, "--n", str(n + 1)]) == 2
    assert f"built for n = 1..{n}" in capsys.readouterr().err


# Integer coefficients (randint(-9, 9)) for the random central element
# can make eigenvalues coincide exactly on the Z[sqrt 2] centers of
# a2nplus1: with them n=1 fails to split at seed 7, and n=3 failed at seed
# 12345 with another choice of center basis.  Continuous coefficients must
# split both.
@pytest.mark.parametrize("n,seed", [(1, 7), (3, 12345)])
def test_a2nplus1_splits_at_collision_prone_seeds(tmp_path, monkeypatch,
                                                  capsys, n, seed):
    path = _emit(tmp_path, "a2nplus1", n)
    capsys.readouterr()
    assert main(["analyze", path]) == 0
    want = _verdict_lines(capsys.readouterr().out)
    monkeypatch.setenv("FUSCOND_SEED", str(seed))
    assert main(["analyze", path]) == 0
    assert _verdict_lines(capsys.readouterr().out) == want


# Every built-in bundle but the cosets.
ALL_MEMBERS = FAMILY_MEMBERS + FIXED_BUNDLES
ALL_IDS = [f"{f}-{n}" for f, n in ALL_MEMBERS]


@pytest.fixture(scope="module")
def analyze_at(tmp_path_factory):
    """(exit code, stdout, stderr) of `analyze b.json --digits D` on a
    built-in at the default split seed, run once per member and precision
    in the directory of b.json and shared by the tests that read it."""
    @functools.cache
    def written(family, n):
        where = tmp_path_factory.mktemp(f"{family}-{n}")
        serialize.write_path(families.build(family, n=n), str(where / "b.json"))
        return where

    @functools.cache
    def run(family, n, digits):
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(written(family, n))
            patch.delenv("FUSCOND_SEED", raising=False)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["analyze", "b.json", "--digits", str(digits)])
        return code, out.getvalue(), err.getvalue()
    return run


def test_every_public_name_resolves():
    assert [n for n in fuscond.__all__ if not hasattr(fuscond, n)] == []


def test_import_leaves_the_callers_precision_alone():
    src = os.path.dirname(os.path.dirname(fuscond.__file__))
    code = ("import mpmath; d = mpmath.mp.dps; import fuscond; "
            "assert mpmath.mp.dps == d, mpmath.mp.dps")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("family,n", ALL_MEMBERS, ids=ALL_IDS)
def test_schur_weyl_is_precision_independent(family, n):
    b = families.build(family, n=n)
    seen = []
    for digits in (DIGITS_FLOOR, 64):
        with mp.workdps(digits):
            swr = schur_weyl(b)
            seen.append(([_profile_key(bp) for bp in swr.blocks],
                         swr.in_ideal, swr.matched))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("family,n", ALL_MEMBERS, ids=ALL_IDS)
def test_analyze_is_precision_independent(analyze_at, family, n):
    seen = []
    for digits in (DIGITS_FLOOR, 64, 128):
        code, out, _ = analyze_at(family, n, digits)
        seen.append((code, _stable_lines(out)))
    assert seen[0][0] == 0 and seen[0][1]
    assert seen[1] == seen[0] and seen[2] == seen[0]


# The 15 built-in bundles and coset SU(2)_1..4.
RESIDUAL_MEMBERS = FAMILY_MEMBERS + FIXED_BUNDLES + SMALL_COSETS


@pytest.mark.parametrize("family,n", RESIDUAL_MEMBERS,
                         ids=[f"{f}-{n}" for f, n in RESIDUAL_MEMBERS])
def test_printed_residuals_are_below_working_tol(analyze_at, family, n):
    # the idempotents are refined to round-off, so no printed match fit or
    # codegree residual carries the refinement's stopping tolerance
    for digits in (DIGITS_FLOOR, 64, 128):
        code, out, _ = analyze_at(family, n, digits)
        assert code == 0
        shown = re.findall(r"fit ([^)]+)\)", out) + re.findall(
            r"^- codegree residual: (\S+)$", out, re.M)
        assert shown
        with mp.workdps(digits):
            tol = working_tol()
            assert all(mp.mpf(v) < tol for v in shown), (digits, shown)


# sha256 of `galois b.json --digits D --dot l.dot` stdout followed by the
# bytes of l.dot, the same at D = 15, 64 and 128.  The members whose
# lattice the old subring rank cap of 24 allowed were recorded before
# closure moved onto bitmasks and n' onto the character mantissas; a2n 6
# and a2nplus1 5 and 6 before closure moved onto 4-bit chunk tables.
GALOIS_GOLDEN = {
    ("a2n", 1): "d51703bc2a58a79b0de6cb109c404f428a8a7002ee759bc57c5222c15b08904a",
    ("a2n", 2): "d06a9ce952e2547ed0bc35a22d85f7e3fc0778d7ba808606c170786253840e9a",
    ("a2n", 3): "6c93d6d045f11767a915511af70319f4e3ec1dad23af0ee2d88b3d9607d2726c",
    ("a2n", 4): "1ce5b5ff6895c669708003aa0bfc3707e99a98bba4e2e671198b6901fe5107ea",
    ("a2n", 5): "86e74967a71097c88925842f6dc031756950591763847f769882eb6dc1de22ff",
    ("a2n", 6): "cc73c674e41e30886228a13d1a573f9c5610d00b72ce001f410d1d75516e3285",
    ("a2nplus1", 1): "6d3035db84eefc949417060a3e25f223a8ee65a32ba5e5ce22f8e4206515c2d2",
    ("a2nplus1", 2): "358ba8523b27f99f1e8cbe3602323b8426c8d2778f3350da81b6559f8d39c61e",
    ("a2nplus1", 3): "3b57980b54d61635766ddd442c2014a5507901ad2edd059e3d5d343ffd2ef952",
    ("a2nplus1", 4): "5c9fcf2a7f7ff661301b09d57d26a38c991e0173067e094d75b8d8fb75108d91",
    ("a2nplus1", 5): "c39f2720821ea61a5f55ab62ae7b2659c95253d4a59160efaeb0ba3281d0f315",
    ("a2nplus1", 6): "2cb8cad3d66f2e60122bcbe0c565857b32aa884d9d43923bcb86096d82aa8a55",
    ("vlplus-orbifold", 1): "747e637f649998f2699aa65df6ef2c96d8c0823971c2299311d3561ad2df8b33",
    ("toric-code", None): "a2300627172d1d8d357582c1ce8575a15fc8b54f4aea1ca413354709c5e8ac0b",
    ("ising-square", None): "a3ccaae2c4804b87c3f632d734c3bd4d0c78dc58d5567599ef629c6a34f50f27",
}


@pytest.mark.parametrize("family,n", list(GALOIS_GOLDEN),
                         ids=[f"{f}-{n}" for f, n in GALOIS_GOLDEN])
def test_galois_bytes_are_pinned(tmp_path, monkeypatch, capsys, family, n):
    monkeypatch.chdir(tmp_path)
    serialize.write_path(families.build(family, n=n), "b.json")
    for digits in (DIGITS_FLOOR, 64, 128):
        capsys.readouterr()
        code = main(["galois", "b.json", "--digits", str(digits),
                     "--dot", "l.dot"])
        out, err = capsys.readouterr()
        digest = hashlib.sha256(out.encode("utf-8")
                                + (tmp_path / "l.dot").read_bytes())
        assert (code, err, digest.hexdigest()) == \
            (0, "", GALOIS_GOLDEN[family, n]), digits


# sha256 of `analyze b.json --digits D` stdout at D = 15, 64 and 128, for
# each built-in bundle.  Recorded before equal scalars of one document
# shared one Cyc and its cached to_mpc value.
ANALYZE_GOLDEN = {
    ('a2n', 1): (
        "519268de2471ca46b51b0754909b2b3734076ecefb36a0cfc38215496d34e3c7",
        "2f63a2b21376dade5cba684a5ab9753763d2d70b38d9ccd9f1e7176e9ae67566",
        "adcf298062901aff43e0588df8aeafa8ece4d9bc4fb7e0b6812c6580b02f22ee",
    ),
    ('a2n', 2): (
        "2c0adde0bbd3d160d08aebc17674e242094ccb8e9c692730f507793902260679",
        "cfbb18eded2988b4289eaf70ad341ab751df588f51164f9591a4046cb645ca2d",
        "4ea0c9348b440528991fde72b6ad1f285f49696f341ee2471676b69ab68abfa3",
    ),
    ('a2n', 3): (
        "e7b35278f55c47e2221083ad75ec321222addbbf9d8a15d5dee7f2e55138be9b",
        "7750b18ca6823173e46607e7192ab9c6239542eb7d0eef8b3c315c11068e2fee",
        "1f54e98b43f079cc62e9d943aaaab4847e5bedbb61a9229cbb1229d81c973dc4",
    ),
    ('a2n', 4): (
        "15835969a3a2cc591d95020fb26856db695642f3cee6f63b4cae3ef62fb61dea",
        "6581d81d6a06e2a4844b92ea1acdc70777149c1f52a720c268d470e1ff83a7ec",
        "9ccd9129791ea6775947dc43b06f9be8ac445c804805e322edcd3081339cf858",
    ),
    ('a2n', 5): (
        "29b329ac568688a2d7c243c4f5685210b71a5c93f5917cf1548c6548c76341a7",
        "88210a603eebe75645b6e16ee473465eff2aa8a6b3cfe205fde89da7e35a66ac",
        "9a73e6016b08ec49efcd16013039e7e1f214b05aa5bc5af5347ca4910ba39e9f",
    ),
    ('a2n', 6): (
        "b32b06b349ad9a862ab8dc11b4396264ca2787f5860732550596a643cbcf026c",
        "e6e09ccc89e7ab3d2170126fe1257181b9c230453cc0c3dc564fa6efc0a11d45",
        "19b6b373ec12efc74a27bc7b9d93498b92b4e4a4a6370231d29f4e153fe92a8d",
    ),
    ('a2nplus1', 1): (
        "6346b3adaa5bfc2830f63da95bb51d7dae536f55fff98ae99b748298e0ef9190",
        "2c5c1a433bb947f72dd27e4e44efcdbb9ac2802025403940f5b9c1f634951e2a",
        "7f9b2cbcdb4d7b166cc35107e0aa31ee201da0518c16a1fc6b267d8bcfe0ea5c",
    ),
    ('a2nplus1', 2): (
        "44e189360fe3752901d77fcea2bc83ce8a37006c65ce303c2210f766b534188b",
        "bb11127e862a1f20670db884b40dbc1fc2199d583281e12306390f3347eb6628",
        "7dec4ec90dedbd5a6b48402209364ce35323b68be157985692f870424585c6a1",
    ),
    ('a2nplus1', 3): (
        "3521ec5392aaa0e83a888b9c5b9b8337b662eaa0b18099e6fde98d341e9a86c4",
        "eb1aa7ab81e0164cdc61bcdedacc4d800672ad144171ea7252d02beb3e3facdd",
        "c5c41f77a05388eac7a60c84dd882c4cfeab1d0477c94fc09a199b90df9dc7df",
    ),
    ('a2nplus1', 4): (
        "7973b739ff1c47944e0930d00b9e60311b223d0fb34a81f1ef77b27d0e7f1060",
        "5e81b7fafa1a5431a8b04b9fb686265acf789a416bcf41c3a154655de45514c6",
        "e63421a3c7f8594c4e62e97492d4181bd018cf6ccd31b17e7dc79068c0e337c9",
    ),
    ('a2nplus1', 5): (
        "1205c36bf01135e824154c6bd643036323e5e2839a127074856a00995c921b9b",
        "eb3f042f2169385a2f6ccf7bed05dd577e4d5eac55730c65a35b22711300c306",
        "0c2d83fa24f917ab4b348d65c7a8049efb370515b8d011b31fa86693e6d55265",
    ),
    ('a2nplus1', 6): (
        "deb400772dac461f5d687bbee871e7b903edfa54d632a64ec61f4617a7ddf7ba",
        "c71b95f4e779c4db2ff171f1a67cbde91d596697d1f6a17bcf2dd1b3f0cb00da",
        "f272147098b39a2dc6ea755139990455fd61c47de1e7de02b8bdad03bc4214c4",
    ),
    ('vlplus-orbifold', 1): (
        "853e3d7d8b9afd7e7e88324a56e5448ff7db6a9ccf0d9474760a335b953903e2",
        "cf1ef1295a6c9072667d275bf5149031f8f8babbfbc1809b771f77231b054e38",
        "59930cc7c24dfde990a91a64f1cdddc434ca5e7eb59520a0ed168c5966ca239a",
    ),
    ('toric-code', None): (
        "52142a60fbcf6195a8d3dd395519a355b8097d6e80f8781dcfefd4f51fb6ac30",
        "52142a60fbcf6195a8d3dd395519a355b8097d6e80f8781dcfefd4f51fb6ac30",
        "52142a60fbcf6195a8d3dd395519a355b8097d6e80f8781dcfefd4f51fb6ac30",
    ),
    ('ising-square', None): (
        "050ebe9be241ce3d3649851c32a441698599e44ff0f69c4b47f6ae0052d79697",
        "f553636800b9ce8bf3accb3c4d522b9b50b609812fdeea4aedbf86a9c3b241e6",
        "9d776557c1589e46669dad086b0d331a9247f515412ad197a637707260b764b9",
    ),
}


# coset SU(2)_1..10: every value galois prints is read at one fixed
# precision, so its bytes cannot depend on --digits
COSETS = [("coset-su2", k) for k in range(1, 11)]


@pytest.mark.parametrize("family,n", COSETS,
                         ids=[f"{f}-{n}" for f, n in COSETS])
def test_galois_bytes_are_the_same_at_every_digits(tmp_path, monkeypatch,
                                                   capsys, family, n):
    monkeypatch.chdir(tmp_path)
    serialize.write_path(families.build(family, n=n), "b.json")
    seen = []
    for digits in (DIGITS_FLOOR, 64, 128):
        capsys.readouterr()
        code = main(["galois", "b.json", "--digits", str(digits),
                     "--dot", "l.dot"])
        out, err = capsys.readouterr()
        seen.append((code, err, out + (tmp_path / "l.dot").read_text()))
    assert seen[0][:2] == (0, "")
    assert seen[1] == seen[0] and seen[2] == seen[0]


@pytest.mark.parametrize("family,n", ALL_MEMBERS, ids=ALL_IDS)
def test_analyze_bytes_are_pinned(analyze_at, family, n):
    for digits, want in zip((DIGITS_FLOOR, 64, 128),
                            ANALYZE_GOLDEN[family, n]):
        code, out, err = analyze_at(family, n, digits)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, err, digest) == (0, "", want), digits


# sha256 of `indicators b.json --x X --digits D` stdout at D = 15, 64 and
# 128 (the same at each), for one matched x per block size m.  Recorded
# before the reading verbs shared one load-check-split gate.
INDICATORS_GOLDEN = {
    ("toric-code", None, "e"):
        "0d3b77d2315e92ab3a5ff0a9aa7010c80010a2259ec07233257f1450648d4f8d",
    ("ising-square", None, "p.p"):
        "7e263ae83e7f8d6e8c7f97201327db81b0afedbc86635ade999f9aa94525f267",
    ("vlplus-orbifold", 1, "j"):
        "fbe3f1603d3dc61d69aa9d60e0e393242d11ff1d1a027ec7e5df0a4df53cb78c",
    ("a2n", 1, "1.j"):
        "19d6db519fff4c760509e66ee51ea122fef9ab78a8f5fc97642ed3b9b63d43f2",
    ("a2n", 1, "m1.m1"):
        "1f85874cc548b89b583541519857685d4a55119e9884ff0a860841a7dafc17ec",
    ("a2n", 2, "1.j"):
        "c07565c8d9f2c8a1e144160e5ee081da328565bf081e317634591a6c0805d67b",
    ("a2n", 2, "m2.m2"):
        "490b3e26709ab9921faa3ff4a44dbfc067f58cfe76675e20f6a98d7461f1c345",
    ("coset-su2", 1, "1.1"):
        "a5c852d0883bb9e9672aa7a8d1931d5ba78bfa7cfa44698763c63b266947b78b",
    ("coset-su2", 2, "2.2"):
        "e63001b29ba39e20c66fb892eeeda86a1bcf74c9ad6460fb6240f6beb2adcb23",
    ("coset-su2", 3, "3.3"):
        "4e1e80efbb3cabdcc9bb2bf3b4953bc617a4957e7399f76ad58fe9631651d543",
}


@pytest.mark.parametrize("family,n,x", list(INDICATORS_GOLDEN),
                         ids=[f"{f}-{n}-{x}" for f, n, x in INDICATORS_GOLDEN])
def test_indicators_bytes_are_pinned(tmp_path, monkeypatch, capsys, family,
                                     n, x):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FUSCOND_SEED", raising=False)
    serialize.write_path(families.build(family, n=n), "b.json")
    for digits in (DIGITS_FLOOR, 64, 128):
        capsys.readouterr()
        code = main(["indicators", "b.json", "--x", x,
                     "--digits", str(digits)])
        out, err = capsys.readouterr()
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        want = INDICATORS_GOLDEN[family, n, x]
        assert (code, err, digest) == (0, "", want), digits


def test_galois_refuses_a_lattice_over_the_budget(a2n1_path, monkeypatch,
                                                  capsys):
    # a2n n=1 has 9 subrings over its local part
    monkeypatch.setattr(ring_module, "SUBRING_BUDGET", 8)
    assert main(["galois", a2n1_path]) == 2
    assert "budget of 8 subrings" in capsys.readouterr().err


def _twist_m(mtc):
    mtc["twists"][2] = serialize.emit_scalar(0.5)


def _move_s(mtc):
    mtc["s_matrix"][1][1] = serialize.emit_scalar(1.01)


_VERLINDE_FAIL = ("- FAIL: ambient: verlinde coefficient (0,0,1) = "
                  "(0.0024999999999999467+0j) is not within 1e-06 of an "
                  "integer")

# A broken modular ambient in a toric-code bundle.  A twist off the roots
# of unity (n_m = 0, so only the ambient's own axioms see it) is a failed
# check; so is an S entry moved by 0.01, whose Verlinde coefficients are
# not integers.
BROKEN_AMBIENT = [
    (_twist_m, "validate", 1,
     "- FAIL: ambient: twist 2 is not a root of unity (order cap 10000)"),
    (_twist_m, "analyze", 1,
     "- FAIL: ambient: twist 2 is not a root of unity (order cap 10000)"),
    (_move_s, "validate", 1, _VERLINDE_FAIL),
    (_move_s, "analyze", 1, _VERLINDE_FAIL),
    (_move_s, "galois", 1, _VERLINDE_FAIL),
    (_move_s, "indicators", 1, _VERLINDE_FAIL),
]


@pytest.mark.parametrize("edit,verb,code,text", BROKEN_AMBIENT,
                         ids=[f"{e.__name__[1:]}-{v}"
                              for e, v, _, _ in BROKEN_AMBIENT])
def test_broken_modular_ambient_exit_codes(tmp_path, capsys, edit, verb,
                                           code, text):
    obj = serialize.emit_bundle(families.toric_code())
    edit(obj["ambient"]["mtc"])
    path = tmp_path / "broken.json"
    path.write_text(serialize.dumps(obj), encoding="utf-8")
    extra = ["--x", "1"] if verb == "indicators" else []
    # a tol below float64 resolution must not hide the broken data
    for tol in ([], ["--tol", "1e-16"]):
        capsys.readouterr()
        assert main([verb, str(path)] + extra + tol) == code
        captured = capsys.readouterr()
        assert text in captured.out.splitlines()
        assert captured.err == ""


@pytest.mark.parametrize("tol", ["1e-16", "1e-20"])
@pytest.mark.parametrize("verb", ["validate", "analyze", "galois"])
@pytest.mark.parametrize("family,n", [("ising-square", None),
                                      ("coset-su2", 3), ("coset-su2", 5),
                                      ("coset-su2", 10)])
def test_tol_below_float64_rounding_passes_exact_data(tmp_path, capsys,
                                                      family, n, verb, tol):
    # the float64 unitarity and S^2 residuals of this exact data are
    # 2.2e-15 (Ising) to 1.5e-11 (SU(2)_10), and the dimension formula's
    # of SU(2)_5 1.6e-16; no bound goes below the rounding error they can
    # carry
    path = _emit(tmp_path, family, n)
    capsys.readouterr()
    assert main([verb, path, "--tol", tol]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_non_integral_verlinde_fails_validate(tmp_path, capsys):
    # unit, symmetry, unitarity, S^2 and the twists all pass; only the
    # Verlinde coefficient N_xx^x = 5/6 shows the data is not modular
    md = ModularData(labels=("1", "x"), dual=(0, 1),
                     s=((1.0, 1.5), (1.5, -1.0)), twists=(1.0, -1.0))
    path = str(tmp_path / "mtc.json")
    serialize.write_path(md, path)
    capsys.readouterr()
    assert main(["validate", path]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "- FAIL: verlinde coefficient (1,1,1) = (0.8333333333333334+0j) is "
        "not within 1e-06 of an integer"]
    # example coset-diagonal validates its --mtc input first: the same
    # problem, exit 1, and no bundle written
    out = tmp_path / "b.json"
    assert main(["example", "coset-diagonal", "--mtc", path,
                 "--emit", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "- FAIL: verlinde coefficient (1,1,1) = (0.8333333333333334+0j) is "
        "not within 1e-06 of an integer"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [["galois"], ["indicators", "--x", "1"]],
                         ids=["galois", "indicators"])
def test_galois_and_indicators_run_check_bundle(tmp_path, capsys, argv):
    obj = serialize.emit_bundle(families.toric_code())
    _twist_m(obj["ambient"]["mtc"])
    path = tmp_path / "broken.json"
    path.write_text(serialize.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main([argv[0], str(path)] + argv[1:]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "- FAIL: ambient: twist 2 is not a root of unity (order cap 10000)"]


@pytest.mark.parametrize("verb", ["validate", "analyze", "galois"])
def test_non_finite_dimension_is_exit_2(tmp_path, capsys, verb):
    # json reads NaN; the parser refuses it before any check sees it
    obj = serialize.emit_bundle(families.a2n(1))
    obj["dA"][1] = {"re": float("nan"), "im": 0.0}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main([verb, str(path)]) == 2
    assert "scalar must be finite, got (nan+0j)" in capsys.readouterr().err


_NO_ROOT = {"cyclotomic": {"order": 4, "coeffs": ["3/5", "4/5"]}}

# A twist of a ring or table ambient off the roots of unity, each on a
# label outside A, so that no check of A reads it: the zero twist of s+
# in a2n's factor 1, on which Ambient.character_row would divide; (3 + 4i)/5,
# of modulus 1, on s+ of the flat vlplus-orbifold ring and on the first
# spinor of a2nplus1's table factor 0.
BROKEN_TWISTS = [
    ("a2n", ("product", 1), 3,
     {"cyclotomic": {"order": 8, "coeffs": ["0", "0", "0"]}},
     "ambient factor 1: twist 3"),
    ("vlplus-orbifold", (), 3, _NO_ROOT, "ambient: twist 3"),
    ("a2nplus1", ("product", 0, "table"), 5, _NO_ROOT,
     "ambient factor 0: twist 5"),
]


def _holder(obj, path):
    """The ambient object at path in the bundle object obj."""
    out = obj["ambient"]
    for key in path:
        out = out[key]
    return out


@pytest.mark.parametrize("verb", ["validate", "analyze", "galois"])
@pytest.mark.parametrize("family,path,j,twist,where", BROKEN_TWISTS,
                         ids=[c[0] for c in BROKEN_TWISTS])
def test_ring_and_table_twists_must_be_roots_of_unity(
        tmp_path, capsys, family, path, j, twist, where, verb):
    obj = serialize.emit_bundle(families.build(family, n=1))
    _holder(obj, path)["twists"][j] = twist
    p = tmp_path / "twisted.json"
    p.write_text(serialize.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main([verb, str(p)]) == 1
    out, err = capsys.readouterr()
    assert (f"- FAIL: {where} is not a root of unity (order cap 10000)"
            in out.splitlines())
    assert err == ""


@pytest.mark.parametrize("verb", ["validate", "analyze", "galois",
                                  "indicators"])
@pytest.mark.parametrize("family,path", [
    ("a2n", ("product", 0)), ("vlplus-orbifold", ()),
    ("a2nplus1", ("product", 1, "table"))],
    ids=["ring-factor", "flat-ring", "table-factor"])
def test_an_ambient_without_twists_is_exit_2(tmp_path, capsys, family, path,
                                             verb):
    obj = serialize.emit_bundle(families.build(family, n=1))
    _holder(obj, path)["twists"] = None
    p = tmp_path / "bare.json"
    p.write_text(serialize.dumps(obj), encoding="utf-8")
    extra = ["--x", "1"] if verb == "indicators" else []
    capsys.readouterr()
    assert main([verb, str(p)] + extra) == 2
    assert capsys.readouterr() == (
        "", "error: bundle.v1: ambient: twists: expected a list of "
        "scalars\n")


_HUGE = "15" + "0" * 307

# Values that complex128 cannot hold: a coefficient of 401 digits, as a
# cyclotomic or a JSON integer, and 1.5e308 (1 + zeta_6), whose
# coefficients fit but whose real part, 2.25e308, does not.
PAST_FLOAT64 = [
    ({"cyclotomic": {"order": 1, "coeffs": ["1" + "0" * 400]}},
     "integer division result too large for a float"),
    (10 ** 400, "integer division result too large for a float"),
    ({"cyclotomic": {"order": 6, "coeffs": [_HUGE, _HUGE]}},
     "past the float64 range")]


@pytest.mark.parametrize("verb", ["validate", "analyze", "galois"])
@pytest.mark.parametrize("value,why", PAST_FLOAT64,
                         ids=["cyclotomic", "integer", "sum"])
def test_a_value_past_the_float64_range_is_exit_2(tmp_path, capsys, value,
                                                  why, verb):
    # the S-matrix checks read every entry in complex128
    obj = serialize.emit_bundle(families.build("coset-su2", n=2))
    obj["ambient"]["mtc"]["s_matrix"][1][1] = value
    p = tmp_path / "huge.json"
    p.write_text(serialize.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main([verb, str(p)]) == 2
    assert capsys.readouterr() == (
        "", f"error: mtc.v1: s_matrix: bad cyclotomic value ({why})\n")


@pytest.mark.parametrize("k", range(1, 11))
def test_coset_su2_runs_every_verb(tmp_path, capsys, k):
    path = str(tmp_path / "coset.json")
    assert main(["example", "coset-su2", "--n", str(k), "--emit", path]) == 0
    for verb in ("validate", "analyze", "galois"):
        capsys.readouterr()
        assert main([verb, path]) == 0, capsys.readouterr()


@pytest.mark.parametrize("order,code", [(4, 0), (2401, 2)])
def test_cyclotomic_order_is_capped_at_parse(tmp_path, capsys, order, code):
    # the value is 1 at any order; an order above the cap is refused
    # before any arithmetic at that order
    obj = serialize.emit_modular(families.toric_modular())
    obj["twists"][1] = {"cyclotomic": {"order": order, "coeffs": [1]}}
    path = tmp_path / "mtc.json"
    path.write_text(serialize.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["validate", str(path)]) == code
    assert time.perf_counter() - start < 1.0
    if code == 2:
        assert "cyclotomic order 2401 exceeds the cap 2400" in \
            capsys.readouterr().err
