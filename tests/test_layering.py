"""The library's modules import only downward, in the order below, and
specfun holds none of the paths it dropped."""

import ast
import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import nhmorse
from nhmorse import checks, morse, specfun

PACKAGE = Path(nhmorse.__file__).resolve().parent
# Lowest first; a module may import only modules before it. verify holds
# the oracles and sits just above errors, so it shares no code with the
# closed forms it checks; riccati and specfun are the kernel and import
# nothing above it.
ORDER = ("errors", "verify", "riccati", "specfun", "susy", "morse", "checks", "cli", "__main__")
# Upward imports still allowed, as (importer, imported).
ALLOWED: set[tuple[str, str]] = set()
# Text that specfun no longer holds: the gamma-normalized Laguerre function
# (no caller), WhittakerIndices.check (a second pole rule beside
# _check_kummer_b), the Kummer transformation's z < 0 branch (outside
# 1F1's domain z >= 0), the per-term array loops that _kummer_block
# replaced, the float helpers of the pole rule that _degree replaced,
# tricomi_u, which was tricomi_u_derivs(...)[0], and laguerre_poly, whose
# recurrence _kummer_poly runs for every terminating 1F1 row.
GONE_FROM_SPECFUN = (
    "laguerre_function", "def check(", "Kummer transformation", "M(b - a, b, -z)",
    "_kummer_series_row", "_kummer_pass_row", "_integer_near", "_terminating_degree",
    "def tricomi_u(", "def laguerre_poly(",
)

# Names that left the SUSY layer when it came to take the values R and R'
# rather than a closure bundle, and the real-case API that no module called.
GONE_FROM_SUSY_LAYER = (
    "RiccatiSolution", "from_superpotential", "morse_riccati", "riccati_residual",
    "RealCaseParams", "real_partner_potential", "ExtensionParams",
)

# Names that left verify: the grid and callables its grid oracles took before
# they came to take the arrays their callers evaluate, the chunked array loop
# of reference_kummer, which now sums each element by the one-element loop,
# and fd_derivs, which had no caller.
GONE_FROM_VERIFY = ("Grid1D", "GridMap", "GridDerivs", "_REF_CHUNK", "_term_ratios", "_BELOW", "fd_derivs")


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
    assert not hasattr(morse.WhittakerIndices, "check")


def _specfun_calls(name: str) -> set:
    """The names that the body of specfun's function `name` calls."""
    tree = ast.parse((PACKAGE / "specfun.py").read_text())
    body = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    return {getattr(node.func, "id", None) for node in ast.walk(body) if isinstance(node, ast.Call)}


def test_one_1f1_value_path():
    # kummer_m sums every z, a float one too, through the router
    # _kummer_sums: _kummer_poly for a terminating row, else _kummer_block;
    # the float loop _kummer_pass serves the float triple alone
    assert "_kummer_sums" in _specfun_calls("kummer_m")
    assert {"_kummer_block", "_kummer_poly"} <= _specfun_calls("_kummer_sums")
    reached = _specfun_calls("kummer_m") | _specfun_calls("_kummer_sums")
    assert "_kummer_pass" not in reached


def test_one_morse_record():
    # MorseParameters is the MorseRiccati it extends: the shape() copy is
    # gone, and only bound_state_wave_derivs, which takes A, B and a as
    # numbers, builds a MorseRiccati; WhittakerIndices, which only morse
    # builds and reads, lives there
    text = (PACKAGE / "morse.py").read_text()
    assert "def shape(" not in text
    tree = ast.parse(text)
    builders = {
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "MorseRiccati"
    }
    assert builders == {"bound_state_wave_derivs"}
    assert not re.search(r"\bclass WhittakerIndices\b", (PACKAGE / "specfun.py").read_text())


def test_laguerre_identity_helpers_stay_out():
    # laguerre-identity compares the kernels' blocks: its float helpers are gone
    text = "".join(p.read_text() for p in PACKAGE.glob("*.py"))
    assert [gone for gone in ("pochhammer", "whittaker_laguerre_identity") if gone in text] == []


# Names of the second wavefunction path: the triple grid and the Whittaker
# triples in y, with their chain rule to x, that wavefunction_grid(derivs=True)
# and the core triples replaced.
GONE_SECOND_PATH = (
    "wavefunction_derivs_row", "wavefunction_derivs_grid", "_chain_rule", "_core_derivs",
    "whittaker_m_derivs", "whittaker_w_derivs",
)


def test_one_triple_grid_entry_point():
    # wavefunction_derivs_grid replaced the one-row wavefunction_derivs_row,
    # and wavefunction_grid(derivs=True) replaced it
    text = "".join(p.read_text() for p in PACKAGE.glob("*.py"))
    assert [gone for gone in GONE_SECOND_PATH if re.search(rf"\b{gone}\b", text)] == []


def test_one_wavefunction_prefactor():
    # morse forms the prefactor y^mu e^{-y/2} (an exp or log of y) in one
    # function, which every value and triple path goes through
    tree = ast.parse((PACKAGE / "morse.py").read_text())
    forming = set()
    for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        for node in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
            if getattr(node.func, "attr", getattr(node.func, "id", None)) in ("exp", "log"):
                names = {n.id for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
                if names & {"y", "ys", "log_y"}:
                    forming.add(fn.name)
    assert forming == {"_whittaker_form"}
    callers = {
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_whittaker_form"
    }
    assert callers == {"wavefunction_derivs", "wavefunction_grid", "bound_state_wave_derivs"}


def test_one_layout_for_a_set_of_parameter_points():
    # a set of points is one MorseParameters of (R, 1) columns: the list
    # layout, its B and a rule and the two-kappa index record are gone
    text = "".join(p.read_text() for p in PACKAGE.glob("*.py"))
    gone = (r"\bIndices\b", "for_sector", r"Sequence\[MorseParameters\]", "share one B and one a")
    assert [g for g in gone if re.search(g, text)] == []


def test_one_bound_state_index_rule():
    # the bound states are indexed by Sector: the two-value convention enum
    # and its separate K' rule are gone
    text = "".join(p.read_text() for p in PACKAGE.glob("*.py"))
    assert [gone for gone in ("BoundStateConvention", "bound_state_kprime") if gone in text] == []
    assert not hasattr(nhmorse, "BoundStateConvention")


def test_one_bound_state_path():
    # a bound state's core is a terminating kummer_m_derivs row, which the
    # kernel's one Laguerre recurrence sums: the second profile, the
    # float-or-array body it shared with wavefunction_derivs and its own
    # Laguerre rows are gone, and the series kernels hold no degree logic
    text = "".join(p.read_text() for p in PACKAGE.glob("*.py"))
    assert [gone for gone in (r"\bhermitic_bound_state\b", r"\b_wave_derivs\b") if re.search(gone, text)] == []
    tree = ast.parse((PACKAGE / "morse.py").read_text())
    body = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "bound_state_wave_derivs")
    called = {
        getattr(node.func, "attr", getattr(node.func, "id", None)) for node in ast.walk(body) if isinstance(node, ast.Call)
    }
    assert "kummer_m_derivs" in called and "laguerre_poly" not in called
    for kernel in ("_kummer_block", "_kummer_pass"):
        assert _specfun_calls(kernel) & {"_degree", "_degrees"} == set()


def test_one_number_formatter():
    # morse writes '%.17g' text only through _format_g17: outside it, no
    # string in its code (docstrings aside) holds the .17g format
    tree = ast.parse((PACKAGE / "morse.py").read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    formatter = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_format_g17")
    inside = {id(node) for node in ast.walk(formatter)}
    formats = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))
        and ".17g" in str(node.value) and id(node) not in docstrings
    ]
    assert formats and [node.lineno for node in formats if id(node) not in inside] == []


def test_susy_takes_values_and_imports_nothing_from_the_package():
    text = "".join(p.read_text() for p in PACKAGE.glob("*.py"))
    assert [gone for gone in GONE_FROM_SUSY_LAYER if re.search(rf"\b{gone}\b", text)] == []
    assert relative_imports(PACKAGE / "susy.py") == set()


def test_grid_oracles_take_arrays():
    text = "".join(p.read_text() for p in PACKAGE.glob("*.py"))
    assert [gone for gone in GONE_FROM_VERIFY if re.search(rf"\b{gone}\b", text)] == []
    assert not hasattr(nhmorse, "Grid1D")


def test_removed_verify_code_stays_out():
    text = (PACKAGE / "verify.py").read_text()
    assert [gone for gone in GONE_FROM_VERIFY if gone in text] == []


def test_verify_measures_and_checks_judges():
    # the oracles return what they measured and take no tolerance or
    # target; ResidualReport, its verdict and every tolerance live in
    # checks, and no registered check passes whatever it measures
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == []
    knobs = [
        (fn.name, arg.arg) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs if arg.arg in ("tol", "target_rel")
    ]
    assert knobs == []
    assert nhmorse.ResidualReport is checks.ResidualReport
    defaults = {name: inspect.signature(fn).parameters["tol"].default for name, fn in checks.CHECKS.items()}
    assert [name for name, tol in defaults.items() if not 0.0 < tol < math.inf] == []


def test_a_verdict_is_its_number_and_tolerance():
    # a check reports what it cannot measure as inf: no flag beside the
    # number decides the verdict, and passed is derived, not stored
    text = (PACKAGE / "checks.py").read_text()
    assert [gone for gone in ("_report", "_UNMEASURED", "failed=") if gone in text] == []
    assert "passed" not in {field.name for field in dataclasses.fields(checks.ResidualReport)}


def test_every_data_file_is_package_data():
    # an installed nhmorse (kummer-oracle reads kummer_oracle.npy) carries
    # every file of the package that is not a module
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    listed = tomllib.loads((root / "pyproject.toml").read_text())["tool"]["setuptools"]["package-data"]["nhmorse"]
    data = sorted(p.name for p in (root / "src" / "nhmorse").iterdir() if p.is_file() and p.suffix != ".py")
    assert "kummer_oracle.npy" in data and sorted(listed) == data


# The array kernels, whose every matrix product goes through _serial_product.
BLOCK_KERNELS = ("_kummer_block", "_tricomi_block")


def test_block_kernels_multiply_only_in_serial_products():
    # no @ or matmul in the bodies of the block kernels: each product is
    # taken in _serial_product's one-thread tiles
    tree = ast.parse((PACKAGE / "specfun.py").read_text())
    kernels = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in BLOCK_KERNELS]
    assert sorted(fn.name for fn in kernels) == sorted(BLOCK_KERNELS)
    found = [
        (fn.name, node.lineno) for fn in kernels for node in ast.walk(fn)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or getattr(node, "attr", getattr(node, "id", None)) in ("matmul", "dot")
    ]
    assert found == []


def test_block_kernels_take_real_products(monkeypatch):
    # one W block and one 1F1 block: every operand of their products is real
    operands = []
    product = specfun._serial_product

    def recording(left, right):
        operands.append((left.dtype, right.dtype))
        return product(left, right)

    monkeypatch.setattr(specfun, "_serial_product", recording)
    zs = np.geomspace(0.5, 30.0, 9)
    specfun.tricomi_u_derivs(np.array([[0.3 + 0.4j], [2.0 + 1.0j]]), np.array([[2.1 - 0.7j], [3.5]]), zs)
    w_products = len(operands)
    specfun.kummer_m_derivs(np.array([[0.3 + 0.4j]]), np.array([[2.1 - 0.7j]]), zs)
    assert 0 < w_products < len(operands)
    assert set(operands) == {(np.dtype(float), np.dtype(float))}
