"""Every imported name in the package and the tests is used, and every
function, class and method of the package is used by the package or by
perfbench.

Static scans of the sources.  The import scan collects the names each module
binds by ``import`` and fails on those that no expression of the module reads;
``__init__.py`` files are exempt, because their imports are re-exports.  The
definition scan fails on a top-level ``def`` or ``class`` of ``src/esfem``
that no code in ``src/`` or ``perfbench/`` names outside the definition
itself, as a name, an attribute or a whole string (perfbench's tracer binds
functions by their names as strings), and on a method other than a dunder
that no attribute read in ``src/`` or ``perfbench/`` and no whole string in
``perfbench/`` names outside the method itself (a string in the package is
often a dict key that only shares the method's name).  Imports and re-exports
are not uses, and neither is code in ``tests/``: what only the tests reach
belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for p in [*(ROOT / "src" / "esfem").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _attributes(tree):
    """How often each name is read as an attribute in the tree."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _strings(tree):
    """How often each whole string constant appears in the tree."""
    return Counter(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str))


def _uses(tree):
    """How often each name is read in the tree: as a name, an attribute or a
    whole string constant."""
    names = Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    return names + _attributes(tree) + _strings(tree)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def dead_definitions(package, others=()):
    """(module, name) of the top-level functions and classes, and (module,
    "Class.method") of the methods other than dunders, of the package sources
    (a dict of module name -> source) that no code names outside their own
    definition; the sources in others count as users only."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    users = [*trees.values(), *(ast.parse(source) for source in others)]
    uses = sum((_uses(tree) for tree in users), Counter())
    method_uses = sum((_attributes(tree) for tree in users), Counter())
    method_uses += sum((_strings(tree) for tree in users[len(trees):]), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if uses[node.name] == _uses(node)[node.name]:
                dead.append((module, node.name))
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(method, ast.FunctionDef) and not _is_dunder(method.name)
                        and method_uses[method.name] == _attributes(method)[method.name]):
                    dead.append((module, f"{node.name}.{method.name}"))
    return sorted(dead)


def test_scan_flags_a_dead_definition():
    package = {
        "a": "def used():\n    return helper()\n\n"
             "def helper():\n    return 1\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\n"
             "class Dead:\n    def method(self):\n        return Dead()\n",
        "b": "def by_name():\n    pass\n\n"
             "def imported_only():\n    pass\n",
        # a method named only by a dict key of the package is dead; so is
        # one that only calls itself; the tracer names a method by a string
        "c": "class Shape:\n"
             "    def __init__(self):\n        self.side = 1.0\n\n"
             "    def area(self):\n        return self.side ** 2\n\n"
             "    def measure(self):\n        return self.area()\n\n"
             "    def shrink(self):\n        return self.shrink()\n\n"
             "    def traced(self):\n        pass\n\n"
             "def report(shape):\n    return {'measure': shape.area()}\n",
    }
    others = ["import a\na.used()\n", "TARGETS = [('b', 'by_name')]\n",
              "from b import imported_only\n",
              "import c\nc.report(c.Shape())\nMETHODS = {'x': ('c', 'Shape', 'traced')}\n"]
    assert dead_definitions(package, others) == [
        ("a", "Dead"), ("a", "Dead.method"), ("a", "recursive"), ("b", "imported_only"),
        ("c", "Shape.measure"), ("c", "Shape.shrink"),
    ]


def test_no_dead_definitions():
    package = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "esfem").glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert dead_definitions(package, others) == []
