"""Every module-level import is read by its module, and every name a reader.

The import check covers the package, the tests and the demos.  Each
private name of the package is read by the package, and each name
`ptdyson` exports by the package, a demo or the benchmark.
"""

import ast
from pathlib import Path

import pytest

import ptdyson

MODULES = sorted(
    p for p in Path(ptdyson.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source):
    """Names that the module's top-level imports bind but the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = (name for name in bound if name not in read)
    return sorted(f"{name} (line {bound[name]})" for name in unused)


def test_the_check_sees_an_unused_import():
    source = (
        "import math\nimport numpy as np\nfrom os import path, sep\n"
        "x = np.pi + path.sep\n"
    )
    assert unused_imports(source) == ["math (line 1)", "sep (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources):
    """Private top-level names of the package that no module reads."""
    return unread_names(sources, _private)


def unread_names(sources, wanted):
    """Top-level names, those `wanted` holds true for, that no module reads.

    `sources` maps each module's name to its text.  A name counts as read
    when its own module loads it outside its own definitions, or another
    module imports it by name or reads it as an attribute.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined, foreign = {}, set()
    for module, tree in trees.items():
        for node in tree.body:
            targets = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = (n for t in nodes for n in ast.walk(t))
                targets = [n.id for n in names if isinstance(n, ast.Name)]
            for name in filter(wanted, targets):
                defined.setdefault((module, name), []).append(node)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                foreign.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                foreign.add(node.attr)
    unread = []
    for (module, name), definitions in defined.items():
        inside = {id(n) for d in definitions for n in ast.walk(d)}
        own = any(
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id == name
            and id(node) not in inside
            for node in ast.walk(trees[module])
        )
        if not own and name not in foreign:
            unread.append(f"{module}.{name}")
    return sorted(unread)


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a": (
            "_LIMIT = 3\n_SCALE = _LIMIT * 2\n"
            "def _used(x):\n    return x < _LIMIT\n"
            "def _dead():\n    return 0\n"
            "def _looping(n):\n    return _looping(n - 1)\n"
            "class _Spare:\n    pass\n"
            "def public():\n    return _SCALE\n"
        ),
        "b": "from .a import _used\nimport a\nx = _used(1) + a._LIMIT\n",
    }
    assert unread_private_names(sources) == ["a._Spare", "a._dead", "a._looping"]


def test_every_private_name_has_a_reader():
    package = Path(ptdyson.__file__).parent.glob("*.py")
    sources = {p.stem: p.read_text(encoding="utf-8") for p in package}
    assert unread_private_names(sources) == []


def exported_names(source):
    """The names an `__init__` module imports from its package's modules."""
    return {
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_the_check_sees_an_unread_export():
    sources = {
        "a": "def used():\n    return 0\ndef spare():\n    return spare()\nLIMIT = 3\n",
        "b": "from .a import LIMIT\n",
        "demo": "from pkg import a\na.used()\n",
    }
    exports = exported_names("from .a import LIMIT, spare, used\n")
    assert unread_names(sources, exports.__contains__) == ["a.spare"]


def test_every_export_has_a_reader():
    package = Path(ptdyson.__file__).parent
    exports = exported_names((package / "__init__.py").read_text(encoding="utf-8"))
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    for folder in ("demos", "bench"):
        for p in sorted((ROOT / folder).glob("*.py")):
            sources[f"{folder}/{p.stem}"] = p.read_text(encoding="utf-8")
    assert unread_names(sources, exports.__contains__) == []
