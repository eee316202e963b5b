"""Every name that a module of the package or of `scripts/` imports is used
in that module, every private name that a module of the package defines
is read by the package, and every public function or class that it defines
is read by the package, `scripts/` or `perfbench/`, re-exported by the
package's `__init__.py`, or one of `catalog`'s stock constructions.  CI
runs no linter, and a change that removes the last use of a helper would
otherwise leave its import, or the helper itself, behind; code that only
tests use belongs in `tests/helpers.py`.  The package's `__init__.py` is
exempt from the first check: its imports are the public names it
re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gradix").glob("*.py"))
MODULES = [path for path in PACKAGE
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class, or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign) else
               [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _read(node: ast.AST) -> set[str]:
    """The names a statement reads: loaded names, attributes, and the names
    a `from` import takes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def unread_privates(sources: dict[str, str]) -> list[str]:
    """The private names ("_x", not dunders) defined at the top level of a
    module of `sources`, as "module.name", that no module reads outside
    the definition itself; a function that only calls itself is unread."""
    trees = {name: ast.parse(text).body for name, text in sources.items()}
    reads = {name: [_read(node) for node in body]
             for name, body in trees.items()}
    unread = []
    for module, body in trees.items():
        for i, node in enumerate(body):
            for name in filter(_is_private, _defined(node)):
                if not any(name in r for m, rs in reads.items()
                           for j, r in enumerate(rs) if (m, j) != (module, i)):
                    unread.append(f"{module}.{name}")
    return unread


def test_the_checker_finds_an_unread_private_name():
    sources = {"a": ("_LIMIT = 3\n_SPARE = 4\n__version__ = '1'\n"
                     "def _grow(n):\n    return _grow(n - 1) if n else 0\n"
                     "def _shrink(n):\n    return n - _LIMIT\n"
                     "class _Box:\n    pass\n"),
               "b": ("from .a import _Box\nfrom . import a\n"
                     "def f():\n    return a._shrink(1), _Box\n")}
    assert unread_privates(sources) == ["a._SPARE", "a._grow"]


def test_every_private_name_is_read_by_the_package():
    assert unread_privates({p.stem: p.read_text() for p in PACKAGE}) == []


def _module_reads(tree: ast.Module, module: str) -> set[str]:
    """The names of `module` that the tree takes by a `from` import or
    reads as an attribute of the module itself (`module.name`, also
    `package.module.name`): an attribute of any other value, such as a
    field of the same name, does not count."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[-1] == module):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == module
                    or isinstance(owner, ast.Attribute) and owner.attr == module):
                out.add(node.attr)
    return out


def unused_publics(package: dict[str, str], readers: dict[str, str],
                   exempt: set[str]) -> list[str]:
    """The public functions and classes defined at the top level of a
    module of `package`, as "module.name", that no module of `package` or
    `readers` imports or reads as an attribute of that module, that their
    own module reads nowhere outside the definition itself, and that are
    not in `exempt`."""
    trees = {name: ast.parse(text)
             for name, text in {**readers, **package}.items()}
    unused = []
    for module in package:
        body = trees[module].body
        taken = set().union(*(_module_reads(tree, module)
                              for name, tree in trees.items() if name != module))
        for i, node in enumerate(body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if _is_private(name) or name in exempt or name in taken:
                continue
            if not any(name in _read(other)
                       for j, other in enumerate(body) if j != i):
                unused.append(f"{module}.{name}")
    return unused


def test_the_checker_finds_an_unused_public_name():
    package = {"a": ("def inner():\n    pass\n"
                     "def outer():\n    return inner()\n"
                     "def grow(n):\n    return grow(n - 1) if n else 0\n"
                     "class Box:\n    pass\n"
                     "def spare():\n    pass\n"
                     "def shipped():\n    pass\n"
                     "def _hidden():\n    pass\n"),
               "b": "from .a import outer\n"}
    readers = {"script": ("from gradix import a\n"
                          "box = a.Box\nfield = record.spare\n")}
    assert unused_publics(package, readers, {"shipped"}) == ["a.grow",
                                                             "a.spare"]


def test_every_public_name_is_used_outside_the_tests():
    init = ast.parse((ROOT / "src" / "gradix" / "__init__.py").read_text())
    exported = {a.asname or a.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    package = {p.stem: p.read_text() for p in PACKAGE
               if p.stem not in ("__init__", "catalog")}
    readers = {str(p.relative_to(ROOT)): p.read_text()
               for p in [ROOT / "src" / "gradix" / "__init__.py",
                         ROOT / "src" / "gradix" / "catalog.py",
                         *sorted((ROOT / "scripts").glob("*.py")),
                         *sorted((ROOT / "perfbench").rglob("*.py"))]}
    assert unused_publics(package, readers, exported) == []
