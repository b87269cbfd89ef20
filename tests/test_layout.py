"""Source layout checks: every name a codecomp module imports is used there."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "codecomp"

# __init__.py is exempt: its imports are the public API. codec imports
# matmul without calling it because bench/tracing.py patches codec.matmul
# by name, and bench/tests fails if it is missing.
ALLOWED = {("codec", "matmul")}

MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    """Names bound by import statements in path that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)  # also the root of an attribute, as in np.zeros
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path) if (path.stem, name) not in ALLOWED]
    assert unused == [], f"{path.name} imports {unused} but never uses them"


def test_unused_import_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nimport numpy as np\nfrom math import inf, pi\n"
                    "x = np.zeros(1) + pi\n")
    assert unused_imports(path) == ["inf", "os"]
