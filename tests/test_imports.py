"""Every imported name in the package and the tests is used, every
function, class and method of the package is used by the package or by
perfbench, and every defaulted parameter of the package is set by some call
in the package or in perfbench.

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

The parameter scan fails on a parameter with a default, of any function or
method of ``src/esfem``, that no call in ``src/`` or ``perfbench/`` passes,
by keyword or by position (after self or cls for a method).  Calls are
matched to definitions by name; a call that expands ``*args`` or
``**kwargs`` sets every parameter, and a call of a class or a
``super().__init__(...)`` calls the ``__init__`` that the class, or the
first of its bases in turn, defines.  A default that nothing overrides is a
configuration nobody runs: it belongs in the body as a constant.  Calls in
``tests/`` do not count here either: a parameter that only a test sets is a
knob for the tests, which set a module constant with monkeypatch or build
what they need in ``tests/oracles.py`` instead.
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


def package_and_users(root):
    """The sources of the package under root by module name, and those of
    the code outside it whose uses and calls count: perfbench's, not the
    tests'."""
    package = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((root / "src" / "esfem").glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for p in sorted((root / "perfbench").glob("*.py"))]
    return package, others


def test_no_dead_definitions():
    assert dead_definitions(*package_and_users(ROOT)) == []


def _defaulted(fn, method):
    """The parameters of a def that have defaults, as (name, position among
    the positional parameters after self or cls, or None if keyword-only)."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args][1 if method else 0:]
    out = [(a.arg, i) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _callee(call, classes, enclosing):
    """The key of what a call names: a function or method name, or
    ("__init__", class) for a call of a class or a super().__init__ in the
    body of class ``enclosing``; None for anything else."""
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name) and func.value.func.id == "super"):
        owner = enclosing and _init_owner(classes, classes[enclosing]["bases"])
        return owner and ("__init__", owner)
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in classes:
        owner = _init_owner(classes, [name])
        return owner and ("__init__", owner)
    return name


def _init_owner(classes, names):
    """The first of the named classes, or of their bases in turn, that
    defines ``__init__``."""
    for name in names:
        if name in classes:
            if classes[name]["init"]:
                return name
            owner = _init_owner(classes, classes[name]["bases"])
            if owner:
                return owner
    return None


def unset_parameters(package, others=()):
    """(module, "function" or "Class.method", parameter) of every defaulted
    parameter of a top-level function or method in the package sources that
    no call in the package or in others sets, by keyword or by position.  A call is matched to a def
    by name; a call that expands *args or **kwargs sets every parameter, and
    a call of a class or a super().__init__(...) is a call of the __init__
    it reaches."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    users = [*trees.values(), *(ast.parse(source) for source in others)]
    classes = {}
    for tree in users:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = {
                    "bases": [b.id for b in node.bases if isinstance(b, ast.Name)],
                    "init": any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                                for f in node.body),
                }
    set_by = {}  # callee key -> keyword names and positional count it passes
    for tree in users:
        stack = [(tree, None)]
        while stack:
            node, enclosing = stack.pop()
            if isinstance(node, ast.ClassDef):
                enclosing = node.name
            if isinstance(node, ast.Call):
                key = _callee(node, classes, enclosing)
                if key is not None:
                    passed = set_by.setdefault(key, [set(), 0, False])
                    passed[0].update(k.arg for k in node.keywords)
                    passed[1] = max(passed[1], len(node.args))
                    passed[2] |= (any(isinstance(a, ast.Starred) for a in node.args)
                                  or any(k.arg is None for k in node.keywords))
            stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    unset = []
    for module, tree in trees.items():
        defs = [(node, None) for node in tree.body]
        defs += [(f, node.name) for node in tree.body if isinstance(node, ast.ClassDef)
                 for f in node.body]
        for fn, cls in defs:
            if not isinstance(fn, ast.FunctionDef):
                continue
            method = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            key = ("__init__", cls) if fn.name == "__init__" and cls else fn.name
            keywords, count, expands = set_by.get(key, (set(), 0, False))
            for name, position in _defaulted(fn, method):
                if not (expands or name in keywords
                        or (position is not None and position < count)):
                    qualname = f"{cls}.{fn.name}" if cls else fn.name
                    unset.append((module, qualname, name))
    return sorted(unset)


def test_scan_flags_a_parameter_nothing_sets():
    package = {
        "a": "def f(x, y=1, z=2, *, w=3):\n    return x\n\n"
             "def g(x, y=1):\n    return x\n\n"
             "def h(x=0, y=1):\n    return x\n\n"
             "class Base:\n    def __init__(self, n, scale=1.0, shift=0.0):\n        pass\n\n"
             "class Child(Base):\n    def __init__(self, n, tag=None):\n"
             "        super().__init__(n, shift=1.0)\n\n"
             "    def run(self, steps=10, log=False):\n        return self\n\n"
             "class Leaf(Child):\n    pass\n",
        "b": "import a\na.f(0, 5)\na.g(*[0, 1])\na.h(**{})\n"
             "a.Child(3).run(20)\n",
    }
    # positions count after self; Leaf(...) reaches Child.__init__
    others = ["from a import f, Leaf\nf(0, w=4)\nLeaf(1, tag='x')\n"]
    assert unset_parameters(package, others) == [
        ("a", "Base.__init__", "scale"), ("a", "Child.run", "log"), ("a", "f", "z"),
    ]


def test_scan_flags_a_parameter_only_a_test_sets(tmp_path):
    # perfbench's calls count, a test's do not
    files = {
        "src/esfem/a.py": "def f(x, y=1, z=2):\n    return x\n",
        "perfbench/run.py": "from esfem import a\na.f(0, y=5)\n",
        "tests/test_a.py": "from esfem import a\n\ndef test_f():\n    a.f(0, z=3)\n",
    }
    for name, source in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source, encoding="utf-8")
    assert unset_parameters(*package_and_users(tmp_path)) == [("a", "f", "z")]


def test_no_parameter_is_left_unset():
    assert unset_parameters(*package_and_users(ROOT)) == []
