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
  * every parameter of every package function is read in its body,
    but for the perfbench-pinned set UNREAD_PARAMETERS_ALLOWED (ROADMAP
    item 10); dunder protocol methods are exempt, __init__ is not
  * that scan flags an unread parameter, reads a closure's use as a
    read, and exempts protocol methods only
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


# Accepted and never read; perfbench's replay (perfbench/tracing.py and
# run.py) passes them, so they go when that replay retires.
UNREAD_PARAMETERS_ALLOWED = [
    "classify.py: AnalysisContext.__init__.tol",
    "excess.py: projection_tables.powers",
    "excess.py: weighted_layers.powers",
    "excess.py: wdr_projection_sum.powers",
    "excess.py: wdr_projection_sum.profile",
    "excess.py: upper_projection_sum.powers",
    "excess.py: upper_projection_sum.profile",
    "harness.py: family_suite.tol",
    "orthopoly.py: predistance_polynomials.powers",
    "orthopoly.py: hoffman_polynomial.powers",
]


def unread_parameters(module: str, source: str) -> list:
    """'module: qualified.name.param' for each parameter of a function
    or method that its body never reads; methods named __x__ other than
    __init__ keep a protocol's signature and are exempt."""
    unread = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                protocol = (child.name.startswith("__") and child.name.endswith("__")
                            and child.name != "__init__")
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                if not protocol:
                    unread.extend(f"{module}: {name}.{p}" for p in params
                                  if p not in read)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)
    visit(ast.parse(source), "")
    return unread


def test_no_unread_parameters():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    unread = [found for p in modules
              for found in unread_parameters(p.name, p.read_text())]
    assert unread == UNREAD_PARAMETERS_ALLOWED


def test_unread_parameter_scan_flags_only_unread_parameters():
    source = ("def f(a, b, *rest, c=1, **extra):\n"
              "    b = a\n"
              "    return rest, extra\n"
              "def outer(x, y):\n"
              "    def inner(z):\n"
              "        return x\n"
              "    return inner\n"
              "class K:\n"
              "    def __init__(self, t):\n"
              "        self.u = 0\n"
              "    def __eq__(self, other):\n"
              "        return True\n"
              "    @property\n"
              "    def v(self):\n"
              "        return self.u\n")
    assert unread_parameters("m.py", source) == [
        "m.py: f.b", "m.py: f.c", "m.py: outer.y", "m.py: outer.inner.z",
        "m.py: K.__init__.t"]


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
