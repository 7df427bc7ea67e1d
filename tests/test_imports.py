"""Source hygiene.

Claims checked:
  * no module of the package imports a name it never uses; the package
    __init__, whose imports are re-exports, and __future__ imports are
    exempt
  * the scan flags an unused import and passes a used one
  * every module-level private function or class (one leading
    underscore) is read somewhere in the package outside its own body
  * that scan flags an unread or self-read private helper and passes a
    read one
  * tests/oracles.py imports only the standard library, so the
    independent route shares no code with the package (and loads
    without numpy); the scan flags third-party, package and relative
    imports
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import dgexcess

PACKAGE = Path(dgexcess.__file__).parent
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def unused_imports(source: str) -> list:
    """'line N: name' for each imported name no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_import_scan_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from functools import cache, cached_property\n"
              "@cache\n"
              "def f():\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["line 3: cached_property"]


def _reads(tree) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def unread_private_helpers(sources: dict) -> list:
    """'module: name' for each module-level _private function or class
    that no code in sources (module name -> source) reads outside its
    own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and reads[node.name] == _reads(node)[node.name]):
                unread.append(f"{module}: {node.name}")
    return unread


def test_no_unread_private_helpers():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 5
    assert unread_private_helpers(sources) == []


def test_private_helper_scan_flags_only_unread_helpers():
    sources = {"a.py": ("def _used():\n    return 1\n"
                        "def _unused():\n    return _used()\n"
                        "def _recursive(k):\n    return _recursive(k - 1)\n"
                        "class _Kept:\n    pass\n"),
               "b.py": "from .a import _Kept\nx = _Kept()\n"}
    assert unread_private_helpers(sources) == ["a.py: _unused", "a.py: _recursive"]


def non_stdlib_imports(source: str) -> list:
    """'line N: module' for each imported module outside the standard
    library; a relative import is never in it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [f"line {node.lineno}: {module}" for module in modules
                  if module.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_oracles_import_only_the_standard_library():
    assert non_stdlib_imports(ORACLES.read_text()) == []


def test_stdlib_scan_flags_package_and_third_party_imports():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy as np\n"
              "from fractions import Fraction\n"
              "from dgexcess.linalg import exact_matmul\n"
              "def f():\n"
              "    from . import digraph\n")
    assert non_stdlib_imports(source) == ["line 2: numpy", "line 4: dgexcess.linalg",
                                          "line 6: ."]
