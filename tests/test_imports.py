"""Every import in driftlab's modules is used where it binds its name.

A module-level import must be read somewhere in its module; an import inside a
function, such as a dependency loaded only on the path that needs it, must be
read inside that function. The package's `__init__.py` imports names to
re-export them, so it is left out of that check; instead its `__all__` must
list exactly the names it imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftlab

SRC = Path(__file__).resolve().parent.parent / "src" / "driftlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def bound_names(node: ast.AST) -> list[str]:
    """Names an import statement binds, other than from __future__; [] for any other node."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports, other than from __future__."""
    return [name for node in tree.body for name in bound_names(node)]


def scope_imports(scope: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for each name bound by an import in `scope`, a module or a
    function, but not in a function nested in it."""
    found, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        found += [(node.lineno, name) for name in bound_names(node)]
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return found


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no line of the module or function holding it reads,
    in source order."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]:
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += [(line, name) for line, name in scope_imports(scope) if name not in used]
    return [name for _, name in sorted(unused)]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nfrom typing import Union\n\nx = np.pi\n"
    assert unused_imports(source) == ["math", "Union"]


def test_unused_function_level_import_is_reported():
    # math is read in g but imported in f, which never reads it; f's nested
    # function reads stdtrit, which counts as a use in f
    source = (
        "import numpy as np\n\n"
        "def f(df):\n    import math\n    from scipy.special import stdtrit\n\n"
        "    def quantile():\n        return stdtrit(df, 0.975)\n\n    return quantile\n\n"
        "def g():\n    if np.pi > 3:\n        import os\n    return math.pi\n"
    )
    assert unused_imports(source) == ["math", "os"]


def test_all_lists_exactly_the_imported_names():
    imported = imported_names(ast.parse((SRC / "__init__.py").read_text()))
    assert sorted(driftlab.__all__) == sorted(imported)


def test_the_cli_import_leaves_numpy_random_unloaded():
    """numpy loads numpy.random on first access, so an annotation that names
    np.random.Generator at import time would load it; every module defers its
    annotations. A fresh interpreter imports this checkout's driftlab."""
    code = "import sys, driftlab.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
