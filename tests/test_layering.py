"""Module boundaries, read from the source with ast."""
import ast
import pathlib
import re

import pytest

import fuscond

SOURCES = sorted(pathlib.Path(fuscond.__file__).parent.glob("*.py"))
WEDDERBURN_INTERFACE = {"SPLIT_SEED", "block_profiles", "character_table",
                        "BlockProfile"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_modules_import_only_the_splitter_interface(path):
    # the fixed-point arithmetic is mantissa's; wedderburn exports the split
    for node in ast.walk(_tree(path)):
        if (isinstance(node, ast.ImportFrom)
                and node.module in ("wedderburn", "fuscond.wedderburn")):
            names = {a.name for a in node.names}
            assert names <= WEDDERBURN_INTERFACE, names - WEDDERBURN_INTERFACE


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_defines_near(path):
    # every tolerance decision goes through mantissa.cmp_tol
    names = {node.name for node in ast.walk(_tree(path))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "_near" not in names


ROOT = pathlib.Path(__file__).parent.parent
# the users of the package besides the package itself: the demos, the
# benchmark ops, the acceptance gate and the reference, read with ast,
# and the inline Python of the CI steps, read as words
USERS = [*sorted((ROOT / "demos").glob("*.py")),
         *sorted((ROOT / "perfbench").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py",
         ROOT / "tests" / "reference.py"]
CI = ROOT / ".github" / "workflows" / "tier1.yml"


def _named(nodes) -> set:
    """Every identifier the nodes name: bare names, attributes, imports."""
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_public_name_has_a_user(path):
    # a public function or class is named by package code outside its own
    # definition (cli.py holds the verbs; __init__.py only re-exports), by
    # a demo, a benchmark op, a CI step, the acceptance gate or the
    # reference; code no user reaches is deleted, not kept for the tests
    users = set(re.findall(r"\w+", CI.read_text(encoding="utf-8")))
    users |= _named(_tree(p) for p in USERS)
    users |= _named(_tree(p) for p in SOURCES
                    if p.name not in (path.name, "__init__.py"))
    body = _tree(path).body
    defs = [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    assert not [node.name for node in defs
                if node.name not in users
                | _named(n for n in body if n is not node)]


TESTS = sorted(pathlib.Path(__file__).parent.glob("test_*.py"))
# what the reference may import from the package: data types and scalars
REFERENCE_READS = {"Cyc", "as_mpc", "as_complex", "BasedRing", "DimVector",
                   "Ambient", "CondensableAlgebra", "CondensationBundle",
                   "ModularData"}


def test_the_reference_reads_only_data_types_and_scalars():
    for node in ast.walk(_tree(pathlib.Path(__file__).parent / "reference.py")):
        names = {a.name for a in getattr(node, "names", ())}
        if "fuscond" in str(getattr(node, "module", names)):
            assert names <= REFERENCE_READS, names - REFERENCE_READS
        # no private member of the package, such as ring._plan
        assert not getattr(node, "attr", "x").startswith("_"), node.attr


@pytest.mark.parametrize("path", TESTS, ids=[p.name for p in TESTS])
def test_no_copy_of_an_earlier_implementation(path):
    # a fast path is checked against tests/reference.py or a digest, not
    # against a copy of the code it replaced
    assert not [node.name for node in ast.walk(_tree(path))
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith(("_old_", "_parent_", "_loop_"))]


# parts of the names of comparisons with code that is deleted, and the
# tests that keep such a name so that their ids stay the same
DELETED_CODE_NAMES = ("parent", "near_loop", "mpc_loop", "mpmath_loop")
KEPT_NAMES = {
    "test_exact_contractions_match_the_mpmath_loops",
    "test_array_readers_equal_the_parent_loops",
    "test_adjunction_decisions_equal_the_near_loop",
    "test_scalar_decisions_equal_the_near_loop",
    "test_block_dims_agreement_equals_the_near_loop",
    "test_n_prime_reading_equals_the_parent_loops",
    "test_integer_refinement_matches_the_mpc_loop",
}


@pytest.mark.parametrize("path", TESTS, ids=[p.name for p in TESTS])
def test_no_test_is_named_after_deleted_code(path):
    # a new test says what it checks, not which old code it compared with
    assert not [node.name for node in ast.walk(_tree(path))
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("test_")
                and node.name not in KEPT_NAMES
                and any(part in node.name for part in DELETED_CODE_NAMES)]


MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    # __init__.py only re-exports; in any other module a name that is
    # imported and never read is deleted
    tree = _tree(path)
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not sorted(imported - read)
