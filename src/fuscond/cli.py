"""fuscond command line: validate inputs, run the condensation analysis,
verify the subring correspondence, and materialize built-in examples.

Exit codes: 0 all checks pass, 1 a check failed, 2 unusable input,
3 numerical degeneracy.  ``--digits`` below DIGITS_FLOOR, the float64
precision the Wedderburn split starts from, is unusable input: the
residual checks at the default ``--tol`` cannot pass honestly below it.
So is a ``--tol`` that is not finite or is below ``cyclotomic.tol_floor()``
at ``--digits``, and a path that cannot be read or written.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

import mpmath as mp

from . import families
from .condense import (CondensationBundle, check_bundle, codegree_check,
                       indicator, indicator_refusal, schur_weyl)
from .cyclotomic import TOL, tol_floor
from .errors import (CapabilityError, NumericalDegeneracyError, SchemaError,
                     TheoremViolationError)
from .galois import hasse_dot, markdown_table, verify_correspondence
from .modular import ModularData
from .modular import validate as validate_modular
from .ring import BasedRing
from .ring import validate as validate_ring
from .serialize import read_path, read_tagged, write_path
from .wedderburn import SPLIT_SEED

DIGITS_FLOOR = 15


def _seed() -> int:
    raw = os.environ.get("FUSCOND_SEED")
    if raw is None:
        return SPLIT_SEED
    try:
        return int(raw, 0)
    except ValueError:
        raise SchemaError(f"FUSCOND_SEED must be an integer, got {raw!r}")


def _fmt(z) -> str:
    z = complex(z)
    re = 0.0 if abs(z.real) < 1e-12 else z.real
    if abs(z.imag) < 1e-12:
        return f"{re:.10g}"
    return f"{re:.10g}{z.imag:+.10g}i"


def _print_problems(problems) -> None:
    for p in problems:
        print(f"- FAIL: {p}")
    if not problems:
        print("- all checks passed")


def cmd_validate(args) -> int:
    kind, value = read_tagged(args.input)
    if isinstance(value, BasedRing):
        problems = validate_ring(value).problems
    elif isinstance(value, ModularData):
        problems = validate_modular(value, tol=args.tol).problems
    else:
        problems = check_bundle(value, tol=args.tol).problems
    print(f"## validate {args.input} ({kind})")
    _print_problems(problems)
    return 1 if problems else 0


def _probe(args, target) -> None:
    """Refuse an unwritable target before any work.  The probe writes
    nothing, so a later refusal keeps an existing target's bytes; a target
    it creates is kept in args.created, which _run removes again if the
    verb refuses."""
    fresh = not os.path.exists(target)
    open(target, "a", encoding="utf-8").close()
    if fresh:
        args.created = target


def _gate(args, target=None, summary=False):
    """Read, check, refuse and split a reading verb's bundle.  Prints the
    header (with summary, the ranks and a passing verdict too); returns
    None after failed checks (exit 1), else the bundle and its
    SchurWeylReport.  FUSCOND_SEED is read first; once the checks pass,
    an unknown --x and an unwritable target are refused before anything
    is printed or split."""
    seed = _seed()
    b = read_path(args.input)
    if not isinstance(b, CondensationBundle):
        raise SchemaError(f"{args.input} does not hold a bundle.v1 object")
    problems = check_bundle(b, tol=args.tol).problems
    x = getattr(args, "x", None)
    xi = None if x is None or problems else b.ambient.index(x)
    if target and not problems:
        _probe(args, target)
    print(f"## {args.verb} {args.input}" + ("" if x is None else f" x={x}"))
    if summary:
        print(f"- ambient rank {b.ambient.rank}, module rank "
              f"{b.module_ring.rank}, |local| {len(b.local)}")
    if problems or summary:
        _print_problems(problems)
    if problems:
        return None
    refusal = xi is not None and indicator_refusal(b, xi)
    if refusal:
        raise refusal
    return b, schur_weyl(b, tol=args.tol, seed=seed)


def cmd_analyze(args) -> int:
    gate = _gate(args, summary=True)
    if gate is None:
        return 1
    b, swr = gate
    print(f"- kernel_dim: {swr.kernel_dim}")
    blocks = [f"m={bp.m} -> " + ("(unmatched)" if x is None
                                  else b.ambient.labels[x])
              for bp, x, ideal in zip(swr.blocks, swr.matched, swr.in_ideal)
              if ideal]
    print(f"- blocks: {', '.join(blocks)}")
    for note in swr.notes:
        print(f"- note: {note}")
    cg = codegree_check(swr, tol=args.tol)
    for name, scalar in cg.entries:
        print(f"- codegree {name}: {_fmt(scalar)}")
    print(f"- codegree residual: {cg.residual:.2e}")
    if not cg.ok:
        _print_problems(cg.report.problems)
        return 1
    return 0


def cmd_galois(args) -> int:
    gate = _gate(args, target=args.dot)
    if gate is None:
        return 1
    b, swr = gate
    rep = verify_correspondence(b, tol=args.tol, swr=swr)
    print(markdown_table(rep), end="")
    if rep.injective:
        print("- subring -> multiplicity map is injective here")
    else:
        groups = "; ".join(str(list(c)) for c in rep.collisions)
        print(f"- multiplicity collisions (distinct subrings, equal "
              f"invariants): {groups}")
    print(f"- max dimension-formula residual: {rep.max_residual:.2e}")
    _print_problems(rep.problems)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(hasse_dot(rep))
        print(f"- wrote Hasse diagram to {args.dot}")
    return 1 if rep.problems else 0


def cmd_example(args) -> int:
    header = f"## example {args.name}" + (f" n={args.n}" if args.n else "")
    # a parameter the family does not take is refused before --mtc is read
    families.check_parameters(args.name, args.n, args.mtc)
    mtc = None
    if args.mtc is not None:
        value = read_path(args.mtc)
        if not isinstance(value, ModularData):
            raise SchemaError(f"{args.mtc} does not hold an mtc.v1 object")
        # invalid modular data is refused before anything is built or written
        problems = validate_modular(value, tol=args.tol).problems
        if problems:
            print(header)
            _print_problems(problems)
            return 1
        mtc = value
    if args.emit:
        # an unwritable path is refused before anything is built or printed
        _probe(args, args.emit)
    b = families.build(args.name, n=args.n, mtc=mtc)
    print(header)
    print(f"- ambient rank {b.ambient.rank}, module rank "
          f"{b.module_ring.rank}, |local| {len(b.local)}")
    if args.emit:
        write_path(b, args.emit)
        print(f"- wrote {args.emit}")
    return 0


def cmd_indicators(args) -> int:
    gate = _gate(args)
    if gate is None:
        return 1
    b, swr = gate
    labels = b.module_ring.labels
    for y, label in enumerate(labels):
        vec = [0] * len(labels)
        vec[y] = 1
        print(f"- {label}: {_fmt(indicator(swr, args.x, vec))}")
    return 0


def _run(args) -> int:
    """The verb at --digits, once --tol passes its floor.  A target that
    the verb's probe created is removed again if the verb raises."""
    args.created = None
    try:
        with mp.workdps(args.digits):
            if args.tol < tol_floor():
                raise SchemaError(
                    f"--tol must be at least {tol_floor():g} at --digits "
                    f"{args.digits}, got {args.tol}")
            # looked up per call, so a wrapped or patched command runs
            return {"validate": cmd_validate, "analyze": cmd_analyze,
                    "galois": cmd_galois, "example": cmd_example,
                    "indicators": cmd_indicators}[args.verb](args)
    except BaseException:
        if args.created is not None:
            with contextlib.suppress(OSError):
                os.remove(args.created)
        raise


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and kept for the
    life of the process.  It holds no command: _run picks the verb's."""
    parser = argparse.ArgumentParser(
        prog="fuscond",
        description="fusion rings, modular data, and condensable algebras")
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}
    for name, text in (
            ("validate", "check a ring/mtc/bundle file against its axioms"),
            ("analyze", "run the condensation analysis on a bundle file"),
            ("galois", "verify the subring correspondence"),
            ("example", "materialize a built-in bundle"),
            ("indicators", "print the character row of one ambient sector")):
        p = verbs[name] = sub.add_parser(name, help=text)
        p.add_argument("--tol", type=float, default=TOL,
                       help="residual tolerance (default %(default)g)")
        p.add_argument("--digits", type=int, default=64,
                       help="working precision in decimal digits "
                            f"(default 64, at least {DIGITS_FLOOR})")
    for name in ("validate", "analyze", "galois", "indicators"):
        verbs[name].add_argument("input")
    verbs["galois"].add_argument("--dot",
                                 help="write the lattice Hasse diagram here")
    p = verbs["example"]
    p.add_argument("name", choices=sorted(families.FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--mtc", help="mtc.v1 file for coset-diagonal")
    p.add_argument("--emit", help="write the bundle.v1 file here")
    verbs["indicators"].add_argument(
        "--x", required=True, help="ambient label with n_x > 0")
    return parser


def main(argv=None) -> int:
    """Run one verb of the command line on argv (sys.argv[1:] if None) and
    return its exit code; a usage error raises SystemExit(2) from argparse.
    It may be called any number of times in one process: each call prints
    and writes what a cold `python -m fuscond.cli` run of argv would."""
    args = _parser().parse_args(argv)
    if args.digits < DIGITS_FLOOR:
        print(f"error: --digits must be at least {DIGITS_FLOOR}, got "
              f"{args.digits}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.tol) and args.tol > 0):
        print(f"error: --tol must be a finite number above 0, got "
              f"{args.tol}", file=sys.stderr)
        return 2
    try:
        return _run(args)
    except (SchemaError, CapabilityError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TheoremViolationError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1
    except NumericalDegeneracyError as err:
        print(f"numerical degeneracy: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
