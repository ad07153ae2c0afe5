"""Every name a powergame module imports is used in that module.

No linter is a dependency, so this stdlib-ast check stands in for one.
``__init__.py`` is skipped (its imports are the package's re-exports), and so
are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "powergame"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by imports in source but never loaded, with line numbers."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_modules_found():
    assert {"cli.py", "game.py", "system.py"} <= {p.name for p in MODULES}


def test_checker_flags_unused_and_ignores_used():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import fsum, sqrt as root\n"
              "x = np.zeros(root(4.0))\n")
    assert unused_imports(source) == [(2, "os"), (4, "fsum")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
