"""The library's modules import only downward, in the order below."""

import ast
from pathlib import Path

import nhmorse

PACKAGE = Path(nhmorse.__file__).resolve().parent
# Lowest first; a module may import only modules before it. errors,
# riccati and specfun are the kernel and import nothing above it.
ORDER = ("errors", "riccati", "specfun", "susy", "morse", "verify", "checks", "cli")
# Upward imports still allowed, as (importer, imported).
ALLOWED: set[tuple[str, str]] = set()


def relative_imports(path: Path) -> set[str]:
    """The package modules that the file imports with a relative import,
    at module level or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_every_module_is_ordered():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


def test_imports_go_down_the_order():
    upward = set()
    for name in ORDER:
        for imported in relative_imports(PACKAGE / f"{name}.py"):
            if ORDER.index(imported) >= ORDER.index(name):
                upward.add((name, imported))
    assert upward == ALLOWED
