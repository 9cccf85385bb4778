"""The library's modules import only downward, in the order below, and
specfun holds none of the paths it dropped."""

import ast
from pathlib import Path

import nhmorse
from nhmorse import specfun

PACKAGE = Path(nhmorse.__file__).resolve().parent
# Lowest first; a module may import only modules before it. verify holds
# the oracles and sits just above errors, so it shares no code with the
# closed forms it checks; riccati and specfun are the kernel and import
# nothing above it.
ORDER = ("errors", "verify", "riccati", "specfun", "susy", "morse", "checks", "cli")
# Upward imports still allowed, as (importer, imported).
ALLOWED: set[tuple[str, str]] = set()
# Text that specfun no longer holds: the gamma-normalized Laguerre function
# (no caller), WhittakerIndices.check (a second pole rule beside
# _check_kummer_b) and the Kummer transformation's z < 0 branch (outside
# 1F1's domain z >= 0).
GONE_FROM_SPECFUN = ("laguerre_function", "def check(", "Kummer transformation", "M(b - a, b, -z)")


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


def test_removed_specfun_paths_stay_out():
    text = (PACKAGE / "specfun.py").read_text()
    assert [gone for gone in GONE_FROM_SPECFUN if gone in text] == []
    assert not hasattr(specfun.WhittakerIndices, "check")
