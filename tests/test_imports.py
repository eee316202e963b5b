"""Every name that a module of the package or of `scripts/` imports is used
in that module.  CI runs no linter, and a change that removes the last use
of a helper would otherwise leave its import behind.  The package's
`__init__.py` is exempt: its imports are the public names it re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [path for path in sorted((ROOT / "src" / "gradix").glob("*.py"))
           if path.name != "__init__.py"] + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of `source` that no expression reads,
    in order of their import statements; `import a.b` binds a."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import gcd, lcm\n"
              "def f(x: np.ndarray) -> int:\n    return gcd(len(x), 2)\n")
    assert unused_imports(source) == ["os", "lcm"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
