"""Self-tests of the benchmark: span arithmetic, wrapper install and
restore, the seeded point stream and the independent grid reference."""

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nhmorse import checks, cli, morse, riccati, specfun  # noqa: E402
from nhmorse.susy import Sector  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # A [0,10] has children B [2,5] and C [6,8]; B has child D [3,4].
    start = np.array([0.0, 2.0, 6.0, 3.0])
    end = np.array([10.0, 5.0, 8.0, 4.0])
    parent = np.array([-1, 0, 0, 1])
    assert spans.self_times(start, end, parent).tolist() == [5.0, 2.0, 2.0, 1.0]


def test_self_time_of_a_recorded_nested_call():
    mod = types.ModuleType("fake")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()

    inner.__module__ = outer.__module__ = "fake"
    mod.inner, mod.outer = inner, outer
    rec = spans.SpanRecorder()
    with rec.installed([mod]):
        rec.unit_id = 0
        mod.outer()
    assert mod.inner is inner and mod.outer is outer
    totals = spans.layer_totals(rec.arrays(), rec.layers, range(0, 1))
    calls_o, self_o, span_o = totals["fake.outer"]
    calls_i, self_i, span_i = totals["fake.inner"]
    assert calls_o == calls_i == 1
    assert self_i == span_i >= 0.02
    assert self_o == pytest.approx(span_o - span_i, abs=1e-12)
    assert 0.01 <= self_o <= span_o - 0.02


def test_traced_run_restores_every_original():
    before = {
        "kummer_m": specfun.kummer_m,
        "morse_y": riccati.morse_y,
        "cli.morse_y": cli.morse_y,
        "derivs": morse.wavefunction_derivs,
        "checks": dict(checks.CHECKS),
    }
    wl = workloads.RecessiveSweep(seed=3)
    wl.trace_units = 20
    metrics, res = run.run_traced(wl, seconds=0.0)
    assert specfun.kummer_m is before["kummer_m"]
    assert not hasattr(specfun.kummer_m, "__wrapped__")
    assert riccati.morse_y is before["morse_y"] and cli.morse_y is before["cli.morse_y"]
    assert morse.wavefunction_derivs is before["derivs"]
    assert checks.CHECKS == before["checks"]
    assert metrics["morse.wavefunction_derivs.calls"] == 20
    assert metrics["morse.wavefunction_derivs.calls_per_point"] == 1.0
    assert res["attempted"] == 40


def test_aliases_are_wrapped_while_installed():
    rec = spans.SpanRecorder()
    with rec.installed([riccati, cli]):
        assert cli.morse_y is riccati.morse_y
        assert cli.morse_y.__wrapped__ is riccati.morse_y.__wrapped__
    assert not hasattr(cli.morse_y, "__wrapped__")


def test_sweep_points_follow_the_seed():
    a = workloads.sweep_chunk(7, 0)
    assert a == workloads.sweep_chunk(7, 0)
    assert a != workloads.sweep_chunk(8, 0)
    assert a != workloads.sweep_chunk(7, 1)
    assert {p.params.B for p in a} == set(workloads.SWEEP_B)
    assert all(0.0 <= p.x <= 3.0 and 0.0 <= p.params.K <= 2.0 for p in a)


def test_sweep_result_counts_only_the_census():
    wl = workloads.RecessiveSweep(seed=0)
    assert wl.min_units == workloads.SWEEP_CENSUS
    r = wl.run_unit(workloads.SWEEP_CENSUS)
    assert (r.points, r.attempted, r.failed) == (1, 0, 0)
    assert sum(wl.attempted_by_B.values()) == 1


@pytest.mark.parametrize("sector", list(Sector))
def test_grid_reference_matches_render_grid(sector):
    spec = cli.GridSpec(nx=5, nK=4, K_max=1.7, component=sector)
    rows = cli.render_grid(spec).split("\n")[1:-1]
    for k in range(spec.nK):
        for i in range(spec.nx):
            _, _, _, re, im = rows[k * spec.nx + i].split(",")
            ref = workloads.grid_reference(spec, k, i)
            assert abs(complex(float(re), float(im)) - ref) <= 1e-10 * abs(ref)


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(checks.CHECKS) == list(run.CHECK_NAMES)
