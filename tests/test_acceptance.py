"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the same checks back the `nhmorse verify` CLI subcommand.
"""

import dataclasses
import time

import numpy as np
import pytest

from nhmorse import checks, morse


def _run(name, runtime_limit=None):
    start = time.monotonic()
    rep = checks.CHECKS[name]()
    elapsed = time.monotonic() - start
    print(rep.line())
    if runtime_limit is not None:
        assert elapsed < runtime_limit, f"{name} took {elapsed:.1f}s (limit {runtime_limit}s)"
    return rep


def test_criterion_01_kummer_oracle():
    rep = _run("kummer-oracle", runtime_limit=0.05)
    assert rep.passed and rep.tolerance == 1e-10


def test_criterion_02_residual_derived():
    rep = _run("residual-derived", runtime_limit=0.1)
    assert rep.passed and rep.tolerance == 1e-8


def test_criterion_03_residual_printed_report():
    # report-only: the printed index map is measured, not required to pass;
    # large residuals here are the documented finding, not a failure
    rep = _run("residual-printed-report", runtime_limit=0.1)
    assert rep.passed
    assert rep.max_rel_residual > 0.0
    assert "documented finding" in rep.note


def test_criterion_04_integration_cross_check():
    rep = _run("integration-cross-check", runtime_limit=0.1)
    assert rep.passed and rep.tolerance == 1e-6


def test_criterion_05_intertwining():
    rep = _run("intertwining", runtime_limit=0.25)
    assert rep.passed and rep.tolerance == 1e-8


def test_criterion_06_riccati_closure():
    rep = _run("riccati-closure", runtime_limit=0.1)
    assert rep.passed and rep.tolerance == 1e-12


def test_criterion_07_expansion_identity():
    rep = _run("expansion-identity", runtime_limit=0.1)
    assert rep.passed and rep.tolerance == 1e-12


def test_criterion_08_laguerre_identity():
    rep = _run("laguerre-identity", runtime_limit=0.1)
    assert rep.passed and rep.tolerance == 1e-10


def test_criterion_09_reality_at_k_zero():
    rep = _run("reality-k0", runtime_limit=0.1)
    assert rep.passed and rep.tolerance == 1e-12


def test_criterion_10_wronskian():
    rep = _run("wronskian", runtime_limit=0.25)
    assert rep.passed and rep.tolerance == 1e-8


def test_criterion_11_grid_determinism_and_shape():
    rep = _run("grid-shape", runtime_limit=0.25)
    assert rep.passed
    assert rep.grid_size == 61 * 41


def test_grid_shape_names_every_problem(monkeypatch):
    # renders that differ, a wrong header and a wrong row count are each
    # noted, and fail the check
    renders = iter(["x,K,y\n0,0,1,2,0\n", "x,K,y\n0,0,1,2,0.5\n"])
    monkeypatch.setattr(morse, "render_grid", lambda spec: next(renders))
    rep = checks.check_grid_shape()
    assert not rep.passed and rep.grid_size == 1
    assert rep.note == f"output not deterministic; bad header 'x,K,y'; expected {61 * 41} rows, got 1"


def test_wronskian_fails_on_a_zero_solution(monkeypatch):
    # a W row of zeros makes every Wronskian zero: the oracle measures 0
    # with a zero-scale note, and the check keeps the note and fails
    grid = morse.wavefunction_grid

    def zero_w_row(*args, **kwargs):
        return tuple(np.vstack((v[:1], 0.0 * v[1:])) for v in grid(*args, **kwargs))

    monkeypatch.setattr(morse, "wavefunction_grid", zero_w_row)
    rep = checks.check_wronskian()
    assert not rep.passed and rep.max_rel_residual == 0.0
    assert rep.note == "; ".join(f"{s}: zero-scale: Wronskian identically zero" for s in ("fermionic", "bosonic"))
    assert rep.line().startswith("FAIL wronskian ")


def test_intertwining_fails_on_a_zero_raised_side(monkeypatch):
    # a zero A+ w1 makes the ratio zero everywhere: the check keeps the
    # oracle's zero-scale note and fails
    raised = checks.raised_fermionic
    monkeypatch.setattr(checks, "raised_fermionic", lambda *args: 0.0 * raised(*args))
    rep = checks.check_intertwining()
    assert not rep.passed and rep.max_rel_residual == 0.0
    assert rep.note.startswith("zero-scale: ratio identically zero; mean_ratio/Kprime = ")


def test_criterion_12_rk4_order():
    rep = _run("rk4-order", runtime_limit=0.1)
    assert rep.passed
    # tolerance 0.25 on |ratio/16 - 1| is exactly the window [12, 20]
    assert rep.tolerance == 0.25


def test_every_check_keeps_its_grid_size():
    # perfbench's verify-suite points_per_s sums these sizes over a pass
    sizes = (1000, 301, 301, 0, 57, 602, 2640, 27, 122, 114, 2501, 0)
    assert {rep.name: rep.grid_size for rep in checks.run_checks()} == dict(zip(checks.CHECKS, sizes))


def test_every_check_reports_its_wall_time():
    # run_checks times each check; the times fit inside the pass and leave
    # the printed lines as they were
    start = time.perf_counter()
    reports = checks.run_checks()
    wall = time.perf_counter() - start
    assert [rep.name for rep in reports] == list(checks.CHECKS)
    assert all(rep.elapsed_s > 0.0 for rep in reports)
    assert sum(rep.elapsed_s for rep in reports) <= wall
    assert all(dataclasses.replace(rep, elapsed_s=0.0).line() == rep.line() for rep in reports)
