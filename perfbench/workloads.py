"""The three workloads: their set-up, their ops and what each op observes.

Every op returns an observation built only from precision-independent
parts of the verdict; ``run.py`` compares it with the pinned oracle.
Functions of the program are always reached through their module
(``cli.main``, ``galois.verify_correspondence``), so the tracer's patches
of those module attributes see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os

from fuscond import cli, condense, families, galois, modular, serialize

from su2 import su2

# Built-in members at every size the family builders accept.
ANALYZE_MEMBERS = ([("a2n", n) for n in range(1, 7)]
                   + [("a2nplus1", n) for n in range(1, 7)]
                   + [("vlplus-orbifold", 1), ("toric-code", None),
                      ("ising-square", None)])

# Members whose module rank the subring enumeration accepts.
GALOIS_MEMBERS = ([("a2n", n) for n in range(1, 6)]
                  + [("a2nplus1", n) for n in range(1, 5)]
                  + [("vlplus-orbifold", 1), ("toric-code", None),
                     ("ising-square", None)])

SU2_LEVELS = (1, 2, 3, 4)


def _key(family, n):
    return family if family in ("vlplus-orbifold", "toric-code",
                                "ising-square") else f"{family}-{n}"


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ------------------------------------------------------------ analyze-sweep


def _analyze_op(path):
    def op():
        code, out, _ = _run_cli(["analyze", path])
        obs = {"exit": code, "kernel_dim": None, "blocks": None,
               "codegree": []}
        for line in out.splitlines():
            if line.startswith("- kernel_dim:"):
                obs["kernel_dim"] = line
            elif line.startswith("- blocks:"):
                obs["blocks"] = line
            elif (line.startswith("- codegree ")
                  and not line.startswith("- codegree residual:")):
                obs["codegree"].append(line)
        return obs
    return op


def analyze_setup(work):
    """Emit one bundle.v1 file per built-in member and size."""
    ops = {}
    for family, n in ANALYZE_MEMBERS:
        key = _key(family, n)
        path = os.path.join(work, f"analyze-{key}.json")
        serialize.write_path(families.build(family, n=n), path)
        ops[key] = _analyze_op(path)
    return ops


# ----------------------------------------------------------- galois-lattice


def _galois_op(b, swr):
    def op():
        rep = galois.verify_correspondence(b, swr=swr)
        table = galois.markdown_table(rep)
        dot = galois.hasse_dot(rep)
        gq = galois.group_quotient(swr)
        if not table or not dot:
            raise RuntimeError("empty correspondence table or Hasse diagram")
        return {"ok": rep.ok,
                "lattice_size": len(rep.entries),
                "subrings": [[list(e.sub), list(e.n_prime),
                              None if e.ambient_vector is None
                              else list(e.ambient_vector)]
                             for e in rep.entries],
                "cosets": len(gq.cosets)}
    return op


def galois_setup(work):
    """Build each bundle and its Schur-Weyl report; the ops reuse both."""
    ops = {}
    for family, n in GALOIS_MEMBERS:
        b = families.build(family, n=n)
        ops[_key(family, n)] = _galois_op(b, condense.schur_weyl(b))
    return ops


# -------------------------------------------------------------- coset-ingest


def _coset_op(md, mtc_path, bundle_path):
    def op():
        serialize.write_path(md, mtc_path)
        codes = [_run_cli(["validate", mtc_path])[0],
                 _run_cli(["example", "coset-diagonal", "--mtc", mtc_path,
                           "--emit", bundle_path])[0],
                 _run_cli(["validate", bundle_path])[0]]
        return {"exit": codes, "bundle_sha256": _sha256(bundle_path)}
    return op


def coset_data():
    """Exact modular data for the coset bundles, each gated on validate."""
    data = [(f"su2-{k}", su2(k)) for k in SU2_LEVELS]
    data += [("toric-code", families.toric_modular()),
             ("ising", families.ising_modular())]
    for name, md in data:
        rep = modular.validate(md)
        if not rep.ok:
            raise RuntimeError(f"generated modular data {name} is invalid: "
                               f"{rep.problems}")
    return data


def coset_setup(work):
    ops = {}
    for name, md in coset_data():
        ops[name] = _coset_op(md, os.path.join(work, f"coset-{name}.mtc.json"),
                              os.path.join(work, f"coset-{name}.bundle.json"))
    return ops


# Per workload: set-up, the op on the largest input, and the op used to
# warm caches after set-up.
WORKLOADS = {
    "analyze-sweep": {"setup": analyze_setup, "largest": "a2nplus1-6",
                      "warmup": "toric-code"},
    "galois-lattice": {"setup": galois_setup, "largest": "a2nplus1-4",
                       "warmup": "toric-code"},
    "coset-ingest": {"setup": coset_setup, "largest": "su2-4",
                     "warmup": "su2-1"},
}
