"""Source layout checks on src/codecomp.

Every name a module imports is used there, a function that takes params
reads the scheme from params.scheme rather than taking it again, no
module-level function is there only for the tests to call, only cli.main
writes to stdout, and only embeddings sizes row blocks.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "codecomp"

# __init__.py is exempt: its imports are the public API. codec imports
# numpy's matmul without calling it because bench/tracing.py patches
# codec.matmul by name, and bench/tests fails if it is missing.
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


# forward keeps its cfg argument (checked against params.scheme) because
# bench/checks.py passes it positionally.
SCHEME_ARG_ALLOWED = {("model", "forward")}


def functions_taking_params_and_scheme(path):
    """Names of functions in path with a params argument and a cfg or scheme one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if "params" in names and names & {"cfg", "scheme"}:
                found.append(node.name)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_params_carry_their_scheme(path):
    doubled = [name for name in functions_taking_params_and_scheme(path)
               if (path.stem, name) not in SCHEME_ARG_ALLOWED]
    assert doubled == [], (
        f"{path.name}: {doubled} take params and a scheme; read params.scheme"
    )


def test_scheme_next_to_params_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def a(params, x, cfg):\n    pass\n"
                    "def b(path, params, *, scheme=None):\n    pass\n"
                    "def c(cfg, rng):\n    pass\n"
                    "def d(params, x):\n    pass\n")
    assert functions_taking_params_and_scheme(path) == ["a", "b"]


# Public functions that no src module calls: the README quickstart's
# fixture generator. Exporting a function from __init__ does not give it
# a caller, so each such entry point is named here.
ENTRY_POINTS = [("synthetic", "synthetic_embeddings")]


def orphaned_functions(paths):
    """(module, name) of module-level functions that no module in paths reads.

    A name counts as used where an expression reads it, as a bare name or
    as an attribute. An import does not count: an unused import fails
    test_no_unused_imports, and an __init__ export is not a caller.
    """
    defined = []
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [item for item in defined if item[1] not in used]


def test_every_function_has_a_caller_in_src():
    orphans = orphaned_functions(sorted(SRC.glob("*.py")))
    assert orphans == ENTRY_POINTS, (
        f"{orphans} are called from no src module; a helper only tests call "
        f"belongs in the tests, and a public entry point in ENTRY_POINTS"
    )


def test_orphaned_function_is_caught(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return _helper()\n"
                                   "def _helper():\n    pass\n"
                                   "def exported():\n    pass\n"
                                   "def orphan():\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\nx = a.used()\n")
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert orphaned_functions(paths) == [("a", "exported"), ("a", "orphan")]


def writes_stdout(node):
    """Whether node reads sys.stdout, imports it, or prints without file=."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "stdout" and isinstance(node.value, ast.Name)
                and node.value.id == "sys")
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(a.name == "stdout" for a in node.names)
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "print"
                and not any(kw.arg == "file" for kw in node.keywords))
    return False


def stdout_writers(paths):
    """(module, top-level name or None) of each node that writes_stdout."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = getattr(top, "name", None)
            found += [(path.stem, owner) for node in ast.walk(top) if writes_stdout(node)]
    return found


def test_only_cli_main_writes_stdout():
    # Commands return their reports and main writes them: one output path.
    assert stdout_writers(sorted(SRC.glob("*.py"))) == [("cli", "main")]


def test_stdout_writer_is_caught(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import sys\nfrom sys import stdout\n"
        "def main():\n    sys.stdout.write('x')\n"
        "def helper():\n    print('y')\n    print('z', file=sys.stderr)\n"
        "class Report:\n    def show(self):\n        sys.stdout.flush()\n"
        "x = sys.stderr\n")
    assert stdout_writers([tmp_path / "mod.py"]) == [
        ("mod", None), ("mod", "main"), ("mod", "helper"), ("mod", "Report")]


# The one block rule: every other module walks the vocabulary through
# embeddings.row_blocks and never sizes a block itself.
BLOCK_NAMES = {"BLOCK_BYTES"}


def block_size_readers(paths):
    """Modules in paths that name BLOCK_NAMES, as a name, attribute or import."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.split(".")[-1] for alias in node.names}
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if names & BLOCK_NAMES:
                found.add(path.stem)
    return sorted(found)


def test_only_embeddings_sizes_row_blocks():
    assert block_size_readers(sorted(SRC.glob("*.py"))) == ["embeddings"]


def test_block_size_reader_is_caught(tmp_path):
    (tmp_path / "a.py").write_text("from .embeddings import BLOCK_BYTES\n")
    (tmp_path / "b.py").write_text("from . import embeddings\n"
                                   "n = embeddings.BLOCK_BYTES // 8\n")
    (tmp_path / "c.py").write_text("from .embeddings import row_blocks\n"
                                   "blocks = row_blocks(10, 3)\n")
    assert block_size_readers(sorted(tmp_path.glob("*.py"))) == ["a", "b"]
