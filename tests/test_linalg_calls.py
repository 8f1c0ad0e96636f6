"""No module of the package calls an SVD or a determinant.

Spectral norms come from the top eigenvalue of a Gram product, the smallest
metric eigenvalue from the exact inverse block, and the spin ladder's bottom
end from |det eta_1| = |eta_0|^4, so neither solver has a caller.
"""

import ast
from pathlib import Path

import pytest

import ptdyson

MODULES = sorted(Path(ptdyson.__file__).parent.glob("*.py"))

BARRED = ("svd", "det")


def barred_calls(source):
    """Calls of linalg.svd or linalg.det in a module, with their lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        # np.linalg.svd has an attribute as its owner, linalg.svd a name
        value = node.func.value
        owner = getattr(value, "attr", getattr(value, "id", ""))
        if owner == "linalg" and node.func.attr in BARRED:
            found.append((node.lineno, node.func.attr))
    return [f"linalg.{name} (line {line})" for line, name in sorted(found)]


def test_the_check_sees_an_svd_and_a_determinant():
    source = (
        "import numpy as np\nfrom numpy import linalg\n"
        "s = np.linalg.svd(a, compute_uv=False)\n"
        "d = linalg.det(a) + np.linalg.eigvalsh(a)[-1]\n"
    )
    assert barred_calls(source) == ["linalg.svd (line 3)", "linalg.det (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_calls_no_svd_or_determinant(path):
    assert barred_calls(path.read_text(encoding="utf-8")) == []
