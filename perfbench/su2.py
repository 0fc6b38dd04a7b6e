"""Exact SU(2)_k modular data, generated inside the benchmark.

The benchmark keeps its own generator so that the coset-ingest workload
stays the same input even if the package later ships an SU(2)_k family.

Unnormalized S-matrix with S[0][0] = 1 (so row 0 holds the quantum
dimensions) and twists, for simples j = 0..k:

    S_ij / S_00 = (z^((i+1)(j+1)) - z^(-(i+1)(j+1))) / (z - z^-1),
    z = zeta_{2(k+2)},
    theta_j = zeta_{4(k+2)}^(j(j+2)).

Every simple is self-dual.
"""
from fuscond.cyclotomic import Cyc
from fuscond.modular import ModularData


def su2(k: int) -> ModularData:
    if k < 1:
        raise ValueError(f"SU(2)_k needs k >= 1, got {k}")
    n = 2 * (k + 2)
    denom = Cyc.zeta(n, 1) - Cyc.zeta(n, -1)
    s = tuple(
        tuple((Cyc.zeta(n, (i + 1) * (j + 1)) - Cyc.zeta(n, -(i + 1) * (j + 1)))
              / denom for j in range(k + 1))
        for i in range(k + 1))
    twists = tuple(Cyc.zeta(4 * (k + 2), j * (j + 2)) for j in range(k + 1))
    return ModularData(labels=tuple(str(j) for j in range(k + 1)),
                       dual=tuple(range(k + 1)), s=s, twists=twists)
