"""Module boundaries, read from the source with ast."""
import ast
import pathlib

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
