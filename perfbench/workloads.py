"""The three benchmark workloads.

Each workload is a closed loop with one caller on one thread: the next
unit starts only when the previous one has finished. A unit is

  * verify-suite: one in-process pass of the whole `checks.run_checks()`
    registry (what `nhmorse verify` does after start-up);
  * figure-grid: one `cli.render_grid` call on the figure defaults
    (printed map, Laguerre/M form) at three times the default resolution
    per axis, alternating the fermionic and bosonic components;
  * recessive-sweep: one seeded point, evaluated with one
    `morse.wavefunction_derivs` and one `morse.ode_coefficient` call and
    checked by its ODE residual.

Inputs come only from the seed. `run_unit(i)` returns a `UnitResult`;
output checks that call the library's oracles run outside the timed
region, so they are neither timed nor traced. A wrong output counts as
a failed operation; `unchecked` lists what made outputs impossible to
check at all (an unexpected registry, a CSV of the wrong shape).
"""

from __future__ import annotations

import cmath
import collections
import hashlib
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from nhmorse import checks, cli, morse, verify
from nhmorse.morse import MorseParameters, ParameterMap
from nhmorse.susy import Sector


@dataclass
class UnitResult:
    seconds: float  # wall time of the timed region
    points: int  # evaluation points the unit produced and checked
    attempted: int
    failed: int
    csv_bytes: int = 0  # size of the CSV text a render produced


class VerifySuite:
    """The whole verification registry, repeated.

    The checks pin their own seeds, so the workload seed is recorded but
    changes no input. A check that reports FAIL or raises is a failed
    operation; the points of a pass are the grid sizes the reports state.
    """

    name = "verify-suite"
    unit_metric = ("verify_s", "s", 1.0)
    setup_code = "raise SystemExit(cli.main(['verify', '--only', 'rk4-order']))"
    min_units = 1
    trace_units = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.failures: collections.Counter[str] = collections.Counter()
        self.unchecked: set[str] = set()

    def run_unit(self, i: int) -> UnitResult:
        expected = list(checks.CHECKS)
        t0 = time.perf_counter()
        try:
            reports = checks.run_checks()
        except Exception as exc:  # a raising check fails the whole pass
            seconds = time.perf_counter() - t0
            self.failures[f"raised {type(exc).__name__}"] += len(expected)
            return UnitResult(seconds, 0, len(expected), len(expected))
        seconds = time.perf_counter() - t0
        names = [rep.name for rep in reports]
        failed = len(expected) - len(reports)
        for rep in reports:
            if not rep.line().startswith("PASS "):
                self.failures[rep.name] += 1
                failed += 1
        if names != expected:
            self.unchecked.add(f"reports {names} do not match the registry")
        return UnitResult(seconds, sum(rep.grid_size for rep in reports), len(expected), failed)

    def diagnostics(self) -> dict:
        return {"failures": dict(self.failures), "unchecked": sorted(self.unchecked)}


# Figure parameters of `cli.GridSpec`; only the grid bounds are jittered.
GRID_NX = 181
GRID_NK = 121
GRID_SAMPLES = 24
GRID_REL_TOL = 1e-10
REALITY_TOL = 1e-12


class FigureGrid:
    """Figure-default grids, checked against an independent evaluation.

    Every render must match the first render of its component byte for
    byte (sha256), keep its K = 0 row real to 1e-12, and agree to 1e-10
    relative at seeded sample points with
    alpha sqrt(2B/a) y^mu e^{-y/2} 1F1(mu - kappa + 1/2; 2 mu + 1; y),
    evaluated here with `verify.reference_kummer`, which shares no code
    with `specfun`.
    """

    name = "figure-grid"
    unit_metric = ("render_s", "s", 1.0)
    setup_code = "raise SystemExit(cli.main(['grid', '--nx', '3', '--nK', '3']))"
    min_units = 4  # two renders of each component, for the sha256 check
    trace_units = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        base = cli.GridSpec(nx=GRID_NX, nK=GRID_NK)
        jitter = dict(
            x_min=base.x_min + rng.uniform(0.0, 0.01),
            x_max=base.x_max + rng.uniform(-0.01, 0.01),
            K_max=base.K_max + rng.uniform(-0.01, 0.01),
        )
        self.specs = [
            cli.GridSpec(nx=GRID_NX, nK=GRID_NK, component=sector, **jitter)
            for sector in (Sector.FERMIONIC, Sector.BOSONIC)
        ]
        n = GRID_NX * GRID_NK
        self.samples = [
            [divmod(j, GRID_NX) for j in sorted(rng.sample(range(n), GRID_SAMPLES))]
            for _ in self.specs
        ]
        self.references = [
            [grid_reference(spec, k, i) for k, i in samples]
            for spec, samples in zip(self.specs, self.samples)
        ]
        self.digests: list[str | None] = [None, None]
        self.failures: collections.Counter[str] = collections.Counter()
        self.unchecked: set[str] = set()

    def run_unit(self, i: int) -> UnitResult:
        c = i % 2
        t0 = time.perf_counter()
        text = cli.render_grid(self.specs[c])
        seconds = time.perf_counter() - t0
        problems = self.check(c, text)
        for p in problems:
            self.failures[p] += 1
        return UnitResult(seconds, GRID_NX * GRID_NK, 1, int(bool(problems)), len(text))

    def check(self, c: int, text: str) -> list[str]:
        spec = self.specs[c]
        problems = []
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests[c] is None:
            self.digests[c] = digest
        elif digest != self.digests[c]:
            problems.append("render differs from the first render")
        lines = text.split("\n")
        if lines[0] != cli.HEADER or len(lines) != 2 + GRID_NX * GRID_NK:
            self.unchecked.add("CSV header or row count changed")
            return problems + ["bad header or row count"]
        for ln in lines[1 : 1 + GRID_NX]:
            _, K, _, _, im = ln.split(",")
            if float(K) != 0.0 or abs(float(im)) > REALITY_TOL:
                problems.append("K=0 row not real")
                break
        for (k, i), ref in zip(self.samples[c], self.references[c]):
            _, _, _, re, im = lines[1 + k * spec.nx + i].split(",")
            if abs(complex(float(re), float(im)) - ref) > GRID_REL_TOL * abs(ref):
                problems.append("sample differs from reference")
                break
        return problems

    def diagnostics(self) -> dict:
        return {
            "failures": dict(self.failures),
            "unchecked": sorted(self.unchecked),
            "sha256": self.digests,
        }


def grid_reference(spec: cli.GridSpec, k: int, i: int) -> complex:
    """Printed-map Laguerre-form value at row k, column i, from the
    published index formulas and the oracle's 1F1."""
    x = float(np.linspace(spec.x_min, spec.x_max, spec.nx)[i])
    K = float(np.linspace(spec.K_min, spec.K_max, spec.nK)[k])
    A, B, a, Kp = spec.A, spec.B, spec.a, spec.Kprime
    half = 0.5 if spec.component is Sector.FERMIONIC else -0.5
    kappa = A / a + half - 1j * K / a
    mu = cmath.sqrt(complex(Kp * Kp - K * K, -2.0 * K * A)) / a
    y = 2.0 * B / a * math.exp(-a * x)
    core = verify.reference_kummer(mu - kappa + 0.5, 2.0 * mu + 1.0, y)
    return spec.alpha * math.sqrt(2.0 * B / a) * cmath.exp(mu * math.log(y) - 0.5 * y) * core


# The sweep reaches y = (2B/a) e^{-a x} up to 80, past the z = 20 switch
# of tricomi_u to its asymptotic series.
SWEEP_B = (2.0, 5.0, 10.0, 20.0)
RESIDUAL_TOL = 1e-8
SWEEP_CHUNK = 4096
# `attempted` and `failed` count the seed's first SWEEP_CENSUS points, which
# every run evaluates whatever its speed, so runs of the same seed report the
# same failures. Later points are timed and checked as well; their failures
# show in `failed_by_B`.
SWEEP_CENSUS = 4 * SWEEP_CHUNK


@dataclass(frozen=True)
class SweepPoint:
    params: MorseParameters
    sector: Sector
    x: float


def sweep_chunk(seed: int, index: int) -> list[SweepPoint]:
    """Points index*SWEEP_CHUNK .. (index+1)*SWEEP_CHUNK - 1 of the seed's stream.

    B from SWEEP_B, K in [0, 2], x in [0, 3], either sector, W-only or
    M + beta W with |beta| = 1; A = 1, a = 0.5, K' = 2. No two points
    share Whittaker indices.
    """
    rng = random.Random(f"recessive-sweep/{seed}/{index}")
    out = []
    for _ in range(SWEEP_CHUNK):
        B = rng.choice(SWEEP_B)
        K = rng.uniform(0.0, 2.0)
        x = rng.uniform(0.0, 3.0)
        sector = rng.choice((Sector.FERMIONIC, Sector.BOSONIC))
        if rng.random() < 0.5:
            alpha, beta = 0.0j, 1.0 + 0.0j
        else:
            alpha, beta = 1.0 + 0.0j, cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        params = MorseParameters(
            A=1.0, B=B, a=0.5, K=K, Kprime=2.0,
            alpha1=alpha, beta1=beta, alpha2=alpha, beta2=beta,
        )
        out.append(SweepPoint(params, sector, x))
    return out


class RecessiveSweep:
    """Independent seeded points on the recessive (W) branch.

    A point fails when its evaluation raises or when
    |w'' + Q w| / (1 + |Q||w|) exceeds 1e-8. Failures are counted per B
    over every point, and in the result over the census.
    """

    name = "recessive-sweep"
    unit_metric = ("point_us", "us", 1e6)
    min_units = SWEEP_CENSUS
    setup_code = (
        "from nhmorse import morse\n"
        "p = morse.MorseParameters(B=10.0, K=1.0, alpha1=0, beta1=1)\n"
        "s = morse.Sector.FERMIONIC\n"
        "morse.wavefunction_derivs(p, s, morse.ParameterMap.DERIVED, 1.0)\n"
        "morse.ode_coefficient(p, s, 1.0)"
    )
    trace_units = 2000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._chunk: list[SweepPoint] = []
        self._chunk_index = -1
        self.attempted_by_B: collections.Counter[float] = collections.Counter()
        self.failed_by_B: collections.Counter[float] = collections.Counter()
        self.errors: collections.Counter[str] = collections.Counter()
        self.unchecked: set[str] = set()

    def point(self, i: int) -> SweepPoint:
        index, j = divmod(i, SWEEP_CHUNK)
        if index != self._chunk_index:
            self._chunk = sweep_chunk(self.seed, index)
            self._chunk_index = index
        return self._chunk[j]

    def run_unit(self, i: int) -> UnitResult:
        pt = self.point(i)
        p, sector, x = pt.params, pt.sector, pt.x
        t0 = time.perf_counter()
        try:
            w, _, d2w = morse.wavefunction_derivs(p, sector, ParameterMap.DERIVED, x)
            q = morse.ode_coefficient(p, sector, x)
            ok = abs(d2w + q * w) / (1.0 + abs(q) * abs(w)) <= RESIDUAL_TOL
        except Exception as exc:  # a raising evaluation is a failed point
            self.errors[type(exc).__name__] += 1
            ok = False
        seconds = time.perf_counter() - t0
        self.attempted_by_B[p.B] += 1
        self.failed_by_B[p.B] += not ok
        counted = i < SWEEP_CENSUS
        return UnitResult(seconds, 1, int(counted), int(counted and not ok))

    def diagnostics(self) -> dict:
        return {
            "failed_by_B": {f"{B:g}": self.failed_by_B[B] for B in SWEEP_B},
            "attempted_by_B": {f"{B:g}": self.attempted_by_B[B] for B in SWEEP_B},
            "errors": dict(self.errors),
            "unchecked": sorted(self.unchecked),
        }


WORKLOADS = {w.name: w for w in (VerifySuite, FigureGrid, RecessiveSweep)}
