"""Every imported name in the package and the tests is used.

A static scan of the sources: it collects the names each module binds by
``import`` and fails on those that no expression of the module reads.
``__init__.py`` files are exempt, because their imports are re-exports.
"""

import ast
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
