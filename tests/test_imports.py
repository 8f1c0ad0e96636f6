"""Every module-level import is read by its module.

The check covers the package, the tests and the demos.
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
