"""Every module-level import in driftlab's modules is used by its module.

The package's `__init__.py` imports names to re-export them, so it is left out
of that check; instead its `__all__` must list exactly the names it imports.
"""

import ast
from pathlib import Path

import pytest

import driftlab

SRC = Path(__file__).resolve().parent.parent / "src" / "driftlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports, other than from __future__."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    return imported


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no other line reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported_names(tree) if name not in used]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nfrom typing import Union\n\nx = np.pi\n"
    assert unused_imports(source) == ["math", "Union"]


def test_all_lists_exactly_the_imported_names():
    imported = imported_names(ast.parse((SRC / "__init__.py").read_text()))
    assert sorted(driftlab.__all__) == sorted(imported)
