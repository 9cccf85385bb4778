"""nhmorse benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
`src/`. Workloads are in `workloads.py`.

--trace 0 measures the end-to-end metrics with tracing off. Times are
at the reference speed of `speed.py` (raw times are printed beside them):
  setup_s       median wall time of fresh interpreters that import
                nhmorse.cli and do one small unit of the workload's kind,
                each scaled by a reference interpreter that imports numpy
  unit_p50_ms   median wall time of one unit (verify-suite: one registry
                pass; figure-grid: one render; recessive-sweep: one point)
  points_per_s  points evaluated and checked per second of unit time
                (verify-suite: the grid sizes its twelve reports state)
  peak_rss_mb   peak resident memory of a fresh interpreter that runs
                one fixed batch of the workload (the traced run's batch),
                so the benchmark's own records of a long run do not count
The lines before the result add the unit-time percentiles that have at
least ten samples beyond them, with the sample count, and fail_frac.

--trace 1 runs a fixed batch of units (the same work for the same
seed) alternately untraced and traced until the time is up, and reports
the per-layer metrics of one batch from `spans.py`: exact call counts,
median self time, and the tracing overhead. Its attempted and failed
are those of the first untraced and traced batch; every batch must
agree with them.

The last line of stdout is one JSON object: correct, attempted, failed
(failed / attempted is the failure fraction) and metrics. For
recessive-sweep they count the seed's first points only (the census of
workloads.SWEEP_CENSUS), so they do not depend on the machine's speed. The lines
before it print the same numbers for people, the failure diagnostics,
and a stamp of the machine and versions. The exit code is 2, with no
result line, when the checkout holds no library to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9
SETUP_REFERENCE = "import numpy"
SETUP_REFERENCE_S = 0.15  # the reference interpreter's time at reference speed
SETUP_CALIBRATIONS = 20

# Registry of checks.CHECKS at the seed commit, in order.
CHECK_NAMES = (
    "kummer-oracle", "residual-derived", "residual-printed-report",
    "integration-cross-check", "intertwining", "riccati-closure",
    "expansion-identity", "laguerre-identity", "reality-k0", "wronskian",
    "grid-shape", "rk4-order",
)
# Layers with calls and self time.
TIMED_LAYERS = (
    "specfun.kummer_m", "specfun.log_gamma", "specfun.reciprocal_gamma",
    "specfun.tricomi_u", "specfun.whittaker_m_derivs", "specfun.whittaker_w_derivs",
    "specfun.kummer_core", "morse.wavefunction_derivs", "morse.indices",
    "morse.wavefunction_laguerre_form", "morse.ode_coefficient", "riccati.morse_y",
    "verify.ode_residual", "verify.integrate_ode", "verify.wronskian_constancy",
    "verify.intertwining_check", "verify.reference_kummer",
)

END_TO_END = {
    "setup_s": "s",
    "unit_p50_ms": "ms",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["specfun.tricomi_u.asymptotic_frac"] = "ratio"
    units["specfun.errors"] = "count"
    units["morse.wavefunction_derivs.calls_per_point"] = "ratio"
    units["morse.indices.calls_per_point"] = "ratio"
    units["susy.apply_first_order.calls"] = "count"
    for name in CHECK_NAMES:
        units[f"checks.{name}.s"] = "s"
    units["cli.render_grid.self_s"] = "s"
    units["cli.render_grid.bytes_per_point"] = "B"
    units["trace.overhead_frac"] = "ratio"
    return units


def stamp(args) -> dict:
    """Where and on what a result was measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
    }


def measure_setup(code: str) -> tuple[np.ndarray, np.ndarray]:
    """Raw and scaled wall times of fresh interpreters running `code`
    after importing nhmorse.cli.

    Each run follows a reference interpreter that only imports numpy and
    is scaled by SETUP_REFERENCE_S over that reference's time: starting
    interpreters and importing from disk speed up and slow down with the
    machine in ways the pure-Python loop of speed.py does not follow.
    """
    prog = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nfrom nhmorse import cli\n{code}\n"

    def wall(source: str) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", source], cwd=ROOT, capture_output=True, timeout=60
        )
        took = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.decode(errors='replace')}")
        return took

    ref, took = [], []
    for _ in range(SETUP_REPEATS):
        ref.append(wall(SETUP_REFERENCE))
        took.append(wall(prog))
    took = np.array(took)
    return took, took * (SETUP_REFERENCE_S / np.array(ref))


def measure_peak_rss_mb(wl) -> float:
    """Peak RSS of a fresh interpreter running one batch of wl's units.

    Read from VmHWM, which belongs to the interpreter's own address
    space; ru_maxrss would also carry the RSS of this process, which
    Linux keeps across the child's exec.
    """
    prog = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import workloads\n"
        f"wl = workloads.WORKLOADS[{wl.name!r}]({wl.seed!r})\n"
        f"for i in range({wl.trace_units}):\n"
        "    wl.run_unit(i)\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", prog], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"memory run failed: {proc.stderr}")
    return int(proc.stdout.split()[-1]) / 1024.0


def run_untraced(wl, seconds: float) -> dict:
    """Closed loop of units for `seconds`, calibrating as it goes."""
    probe = speed.SpeedProbe()
    mid, took = [], []
    points = attempted = failed = 0
    measured = 0.0
    probe.sample()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.min_units or time.perf_counter() < deadline:
        r = wl.run_unit(i)
        mid.append(time.perf_counter() - 0.5 * r.seconds)
        took.append(r.seconds)
        points += r.points
        attempted += r.attempted
        failed += r.failed
        measured += r.seconds
        probe.keep_up(measured)
        i += 1
    probe.sample(SETUP_CALIBRATIONS)
    took = np.array(took)
    return {
        "raw": took,
        "scaled": took * probe.scale(np.array(mid), took),
        "calibration_ms": statistics.median(probe.took) * 1e3,
        "points": points, "attempted": attempted, "failed": failed,
    }


def percentiles(samples: np.ndarray) -> dict[str, float]:
    """p50, and p90 / p99 where at least ten samples lie beyond them, and max."""
    out = {"p50": float(np.median(samples))}
    if len(samples) >= 100:
        out["p90"] = float(np.quantile(samples, 0.9))
    if len(samples) >= 1000:
        out["p99"] = float(np.quantile(samples, 0.99))
    out["max"] = float(samples.max())
    return out


def run_traced(wl, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced batches of wl.trace_units units."""
    import spans
    from nhmorse import checks, cli, morse, riccati, specfun, susy, verify

    modules = (specfun, riccati, susy, morse, verify, checks, cli)
    rec = spans.SpanRecorder()
    n = wl.trace_units
    untraced, traced, per_batch = [], [], []
    first_batch_spans = None
    outcomes = []  # (attempted, failed) of each batch
    out_bytes = out_points = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while not traced or time.perf_counter() < deadline:
        for tracing in (False, True):
            if tracing:
                results = []
                with rec.installed(modules, registries=[("checks", checks.CHECKS)]):
                    for j in range(n):
                        rec.unit_id = i + j
                        results.append(wl.run_unit(j))
                rec.unit_id = -1
                per_batch.append(spans.layer_totals(rec.arrays(), rec.layers, range(i, i + n)))
                # keep only the first batch's records, so memory stays bounded
                if first_batch_spans is None:
                    first_batch_spans = len(rec.start)
                else:
                    rec.truncate(first_batch_spans, range(i, i + n))
                i += n
            else:
                results = [wl.run_unit(j) for j in range(n)]
            # the batch's own timed regions; output checks are excluded
            (traced if tracing else untraced).append(sum(r.seconds for r in results))
            outcomes.append((sum(r.attempted for r in results), sum(r.failed for r in results)))
            out_bytes += sum(r.csv_bytes for r in results)
            out_points += sum(r.points for r in results if r.csv_bytes)
    rec.save(OUT / f"spans-{wl.name}.npz")

    first = per_batch[0]
    for other in per_batch[1:]:
        if {k: v[0] for k, v in other.items()} != {k: v[0] for k, v in first.items()}:
            raise RuntimeError("call counts differ between batches of the same work")
    # Every batch is the same work, so the result counts the first pair
    # (one untraced, one traced), which every run makes whatever its speed.
    if len(set(outcomes)) != 1:
        raise RuntimeError(f"failures differ between batches of the same work: {outcomes}")
    attempted = 2 * outcomes[0][0]
    failed = 2 * outcomes[0][1]

    def calls(layer: str) -> int:
        return first.get(layer, (0, 0.0, 0.0))[0]

    def median_of(layer: str, field: int) -> float:
        return statistics.median(t.get(layer, (0, 0.0, 0.0))[field] for t in per_batch)

    b0 = range(n)
    derivs_points = sum(len(rec.points[spans.DERIVS][u]) for u in b0)
    all_points = sum(
        len(rec.points[spans.DERIVS][u] | rec.points[spans.LAGUERRE_FORM][u]) for u in b0
    )
    asym = sum(rec.asymptotic[u] for u in b0)

    m = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = median_of(layer, 1)
    m["specfun.tricomi_u.asymptotic_frac"] = asym / calls(spans.TRICOMI) if calls(spans.TRICOMI) else 0.0
    m["specfun.errors"] = sum(rec.specfun_errors.values()) / len(per_batch)
    m["morse.wavefunction_derivs.calls_per_point"] = (
        calls(spans.DERIVS) / derivs_points if derivs_points else 0.0
    )
    m["morse.indices.calls_per_point"] = calls("morse.indices") / all_points if all_points else 0.0
    m["susy.apply_first_order.calls"] = calls("susy.apply_first_order")
    for name in CHECK_NAMES:
        m[f"checks.{name}.s"] = median_of(f"checks.{name}", 2)
    m["cli.render_grid.self_s"] = median_of("cli.render_grid", 1)
    m["cli.render_grid.bytes_per_point"] = out_bytes / out_points if out_points else 0.0
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    info = {
        "batches": len(per_batch),
        "units_per_batch": n,
        "spans_per_batch": first_batch_spans,
        "specfun_errors": dict(rec.specfun_errors),
    }
    return m, {"attempted": attempted, "failed": failed, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nhmorse" / "__init__.py").is_file():
        print(f"error: no nhmorse library under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    st = stamp(args)

    if args.trace:
        metrics, res = run_traced(wl, args.seconds)
        units = per_layer_units()
        counts = {"batches": res["info"]["batches"], "units_per_batch": wl.trace_units}
        for name, unit in units.items():
            print(f"{args.workload}  {name} = {metrics[name]!r} {unit}")
        print("trace: " + json.dumps(res["info"]))
    else:
        setup_raw, setup = measure_setup(wl.setup_code)
        res = run_untraced(wl, args.seconds)
        raw, scaled = res["raw"], res["scaled"]
        metrics = {
            "setup_s": float(np.median(setup)),
            "unit_p50_ms": float(np.median(scaled)) * 1e3,
            "points_per_s": res["points"] / float(scaled.sum()),
            "peak_rss_mb": measure_peak_rss_mb(wl),
        }
        units = END_TO_END
        counts = {"setup_s": len(setup), "units": len(raw), "peak_rss_mb": 1}
        for name, unit in units.items():
            print(f"{args.workload}  {name} = {metrics[name]!r} {unit}")
        print(f"{args.workload}  fail_frac = {res['failed'] / res['attempted']!r} "
              f"({res['failed']} of {res['attempted']})")
        name, unit, factor = wl.unit_metric
        for label, values in (("", scaled), (" raw", raw)):
            for k, v in percentiles(values).items():
                print(f"{args.workload} {label} {name}[{k}] = {v * factor!r} {unit} (n={len(values)})")
        print(f"{args.workload}  raw setup_s = {float(np.median(setup_raw))!r} s, "
              f"raw points_per_s = {res['points'] / float(raw.sum())!r}, "
              f"calibration median = {res['calibration_ms']:.6g} ms")
    print("diagnostics: " + json.dumps(wl.diagnostics()))
    print("stamp: " + json.dumps({**st, "samples": counts}))
    # Failed operations are counted, not hidden: `correct` says that every
    # unit's output was checked and each wrong one is counted in `failed`.
    print(json.dumps({
        "correct": res["attempted"] >= 1 and not wl.unchecked,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
