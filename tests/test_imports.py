"""Every name a module of the package or of the tests imports is used in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "hopgeo").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list:
    """The names that `source` imports (outside __future__) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.e(d)\n"
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
