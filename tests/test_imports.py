"""Source hygiene.

Claims checked:
  * no module of the package imports a name it never uses; the package
    __init__, whose imports are re-exports, and __future__ imports are
    exempt
  * the scan flags an unused import and passes a used one
"""

import ast
from pathlib import Path

import dgexcess

PACKAGE = Path(dgexcess.__file__).parent


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
