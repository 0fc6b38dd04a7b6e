"""Fusion rings, modular data, and condensable algebras as finite exact
data, plus the checks built on them: Wedderburn splitting of the condensed
ring, the multiplicity-space matching, and the subring correspondence.
"""
from .condense import (Ambient, CondensableAlgebra, CondensationBundle,
                       SchurWeylReport, check_bundle, codegree_check,
                       indicator, schur_weyl)
from .cyclotomic import Cyc, as_mpc, exact_scalar
from .errors import (CapabilityError, NotSemisimpleError,
                     NumericalDegeneracyError, SchemaError,
                     TheoremViolationError, ValidationReport)
from .families import FAMILIES, build
from .galois import (GaloisReport, group_quotient, hasse_dot, lattice,
                     markdown_table, verify_correspondence)
from .modular import ModularData, deligne, verlinde
from .modular import dims as modular_dims
from .modular import validate as validate_modular
from .ring import (BasedRing, DimVector, element_product, enumerate_subrings,
                   fp_dims, group_ring, product_ring)
from .ring import validate as validate_ring
from .serialize import dumps, read_path, write_path
from .wedderburn import SPLIT_SEED, block_profiles

__all__ = [
    "Ambient", "BasedRing", "CapabilityError",
    "CondensableAlgebra", "CondensationBundle", "Cyc", "DimVector",
    "FAMILIES", "GaloisReport", "ModularData", "NotSemisimpleError",
    "NumericalDegeneracyError", "SPLIT_SEED", "SchemaError",
    "SchurWeylReport", "TheoremViolationError", "ValidationReport",
    "as_mpc", "block_profiles", "build", "check_bundle", "codegree_check",
    "deligne", "dumps", "element_product", "enumerate_subrings",
    "exact_scalar", "fp_dims", "group_quotient", "group_ring", "hasse_dot",
    "indicator", "lattice", "markdown_table", "modular_dims", "product_ring",
    "read_path", "schur_weyl", "validate_modular", "validate_ring",
    "verify_correspondence", "verlinde", "write_path",
]
