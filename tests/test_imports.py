"""Every imported name in the package and the tests is used, and so is every
top-level function and class of the package.

Static scans of the sources.  The import scan collects the names each module
binds by ``import`` and fails on those that no expression of the module reads;
``__init__.py`` files are exempt, because their imports are re-exports.  The
definition scan fails on a top-level ``def`` or ``class`` of ``src/esfem``
that no code in ``src/``, ``tests/`` or ``perfbench/`` names outside the
definition itself, as a name, an attribute or a whole string (perfbench's
tracer binds functions by their names as strings).  Imports and re-exports
are not uses.
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


def _uses(tree):
    """How often each name is read in the tree: as a name, an attribute or a
    whole string constant."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses[node.value] += 1
    return uses


def dead_definitions(package, others=()):
    """(module, name) of the top-level functions and classes of the package
    sources (a dict of module name -> source) that no code names outside
    their own definition; the sources in others count as users only."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    for source in others:
        uses += _uses(ast.parse(source))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if uses[node.name] == _uses(node)[node.name]:
                    dead.append((module, node.name))
    return sorted(dead)


def test_scan_flags_a_dead_definition():
    package = {
        "a": "def used():\n    return helper()\n\n"
             "def helper():\n    return 1\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\n"
             "class Dead:\n    def method(self):\n        return Dead()\n",
        "b": "def by_name():\n    pass\n\n"
             "def imported_only():\n    pass\n",
    }
    others = ["import a\na.used()\n", "TARGETS = [('b', 'by_name')]\n",
              "from b import imported_only\n"]
    assert dead_definitions(package, others) == [
        ("a", "Dead"), ("a", "recursive"), ("b", "imported_only"),
    ]


def test_no_dead_definitions():
    package = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "esfem").glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for directory in ("tests", "perfbench")
              for p in sorted((ROOT / directory).glob("*.py"))]
    assert dead_definitions(package, others) == []
