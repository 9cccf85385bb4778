"""Independent numerical oracles.

Everything here exists to check the closed-form layer without sharing its
code paths: a compensated-summation Kummer reference with a majorized
tail bound (deliberately different accumulation order and stopping rule
than specfun.kummer_m), a fixed-step RK4 integrator for complex linear
second-order equations, residual/Wronskian/intertwining evaluators.

The grid oracles take grid callables: Q(xs) returns the coefficient at
every point of a grid, and derivs(xs) returns (w, w', w'') there, so a
grid costs one evaluation of each.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import morse as morse_mod
from . import riccati as riccati_mod
from . import susy as susy_mod
from .errors import NonConvergence, ParameterPole

GridMap = Callable[[np.ndarray], np.ndarray]
GridDerivs = Callable[[np.ndarray], tuple[np.ndarray, ...]]

# integrate_ode evaluates its coefficient this many steps at a time.
_RK4_BLOCK = 1024


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with n_points >= 2 points."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max):
            raise ValueError(f"require x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 2:
            raise ValueError(f"require n_points >= 2, got {self.n_points}")

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass
class ResidualReport:
    """Outcome of one verification check."""

    name: str
    grid_size: int
    max_abs_residual: float
    max_rel_residual: float
    passed: bool
    tolerance: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"{status} {self.name} max_rel_residual={self.max_rel_residual:.3e} "
            f"tol={self.tolerance:.3e}"
        )
        if self.note:
            out += f" ({self.note})"
        return out


def _kahan_add(total: complex, comp: complex, term: complex) -> tuple[complex, complex]:
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def reference_kummer(a: complex, b: complex, z: float, target_rel: float = 1e-13) -> complex:
    """High-accuracy 1F1(a; b; z) reference.

    Independent of specfun.kummer_m by construction: terms are built with
    a differently grouped recurrence, accumulated with Kahan-compensated
    summation, and stopped by a geometric majorization of the tail
    (|t_n| q / (1 - q) with q an upper bound on subsequent term ratios)
    instead of a consecutive-small-terms heuristic.
    """
    a = complex(a)
    b = complex(b)
    z = float(z)
    if target_rel < 1e-14:
        raise ValueError(f"target_rel must be >= 1e-14, got {target_rel}")
    rb = round(b.real)
    if rb <= 0 and abs(b - rb) <= 1e-12:
        ra = round(a.real)
        if not (abs(a - ra) <= 1e-12 and ra <= 0 and -ra <= -rb):
            raise ParameterPole(f"reference_kummer: b = {b} at a nonpositive integer")
    ra = round(a.real)
    n_term = -ra if (ra <= 0 and abs(a - ra) <= 1e-12) else None

    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    comp = 0.0 + 0.0j
    abs_a, abs_b, abs_z = abs(a), abs(b), abs(z)
    for n in range(20_000):
        if n_term is not None and n >= n_term:
            return total
        term *= ((a + n) * z) / ((b + n) * (n + 1))
        total, comp = _kahan_add(total, comp, term)
        if n_term is None and n + 1 > abs_b + 1.0:
            # |(a+m)/(b+m)| <= (m+|a|)/(m-|b|) for m > |b|; monotone down in m
            m = n + 1
            q = abs_z * (m + abs_a) / ((m - abs_b) * (m + 1))
            if q < 1.0:
                tail = abs(term) * q / (1.0 - q)
                if tail <= target_rel * abs(total):
                    return total
    raise NonConvergence(f"reference_kummer did not converge: a={a}, b={b}, z={z}")


def fd_derivs(w: GridMap) -> GridDerivs:
    """derivs callable from a value-only one: (w, w', w'') with w' and w''
    from 5-point central differences, step 1e-4 (1 + |x|)."""

    def derivs(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        h = 1e-4 * (1.0 + np.abs(xs))
        wm2, wm1, w0, wp1, wp2 = (w(xs + k * h) for k in (-2, -1, 0, 1, 2))
        d1 = (wm2 - 8 * wm1 + 8 * wp1 - wp2) / (12.0 * h)
        d2 = (-wm2 + 16 * wm1 - 30 * w0 + 16 * wp1 - wp2) / (12.0 * h * h)
        return w0, d1, d2

    return derivs


def ode_residual(
    Q: GridMap,
    derivs: GridDerivs,
    grid: Grid1D,
    tol: float = 1e-8,
    name: str = "ode-residual",
) -> ResidualReport:
    """Residual of w'' + Q w = 0 over a grid.

    derivs(xs) gives (w, w', w'') at the grid points; its w'' must be
    analytic, not a rearrangement of the equation itself (fd_derivs
    supplies a finite-difference one). The relative residual is
    normalized by 1 + |Q||w| so decaying tails do not blow it up.
    """
    xs = grid.points()
    q = Q(xs)
    w, _, d2w = derivs(xs)
    r = np.abs(d2w + q * w)
    rel = r / (1.0 + np.abs(q) * np.abs(w))
    max_rel = float(rel.max())
    return ResidualReport(
        name=name,
        grid_size=len(xs),
        max_abs_residual=float(r.max()),
        max_rel_residual=max_rel,
        passed=max_rel <= tol,
        tolerance=tol,
    )


def integrate_ode(
    Q: GridMap,
    x0: float,
    w0: complex,
    dw0: complex,
    x1: float,
    step: float = 1e-4,
) -> tuple[complex, complex]:
    """Fixed-step classical RK4 for (w, w')' = (w', -Q w) from x0 to x1.

    Q(xs) gives the coefficient at every point of an array. It is
    evaluated once per block of _RK4_BLOCK steps, on all the stage points
    x, x + h/2 and x + h of the block, before those steps run; the block
    bounds the memory a long integration holds.
    """
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    if x1 == x0:
        return complex(w0), complex(dw0)
    n = max(1, math.ceil(abs(x1 - x0) / step))
    h = (x1 - x0) / n
    w = complex(w0)
    dw = complex(dw0)
    for start in range(0, n, _RK4_BLOCK):
        xs = x0 + np.arange(start, min(start + _RK4_BLOCK, n)) * h
        m = len(xs)
        q = Q(np.concatenate([xs, xs + 0.5 * h, xs + h])).tolist()
        for x, qs, qm, qe in zip(xs.tolist(), q[:m], q[m : 2 * m], q[2 * m :]):
            k1w, k1d = dw, -qs * w
            k2w, k2d = dw + 0.5 * h * k1d, -qm * (w + 0.5 * h * k1w)
            k3w, k3d = dw + 0.5 * h * k2d, -qm * (w + 0.5 * h * k2w)
            k4w, k4d = dw + h * k3d, -qe * (w + h * k3w)
            w = w + h / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
            dw = dw + h / 6.0 * (k1d + 2 * k2d + 2 * k3d + k4d)
            if not (cmath.isfinite(w) and cmath.isfinite(dw)):
                raise OverflowError(f"integration overflowed near x = {x + h}")
    return w, dw


def wronskian_constancy(
    f: GridDerivs,
    g: GridDerivs,
    grid: Grid1D,
    tol: float = 1e-8,
    name: str = "wronskian",
) -> ResidualReport:
    """Relative standard deviation of the Wronskian f g' - g f' over the grid.

    f(xs) and g(xs) give (value, derivative, ...) at the grid points. For
    equations without a first-derivative term the Wronskian of any two
    solutions is x-independent, so the deviation should vanish. The
    absolute residual is the RMS deviation itself.
    """
    xs = grid.points()
    fv, df = f(xs)[:2]
    gv, dg = g(xs)[:2]
    vals = fv * dg - gv * df
    scale = float(np.max(np.abs(vals)))
    mean = vals.mean()
    dev = float(np.sqrt(np.mean(np.abs(vals - mean) ** 2)))
    note = ""
    if scale == 0.0:
        rel = 0.0
        note = "zero-scale: Wronskian identically zero"
    elif abs(mean) <= 1e-13 * scale:
        rel = math.inf
        note = "degenerate: zero-mean Wronskian"
    else:
        rel = dev / float(abs(mean))
    return ResidualReport(
        name=name,
        grid_size=len(xs),
        max_abs_residual=dev,
        max_rel_residual=rel,
        passed=rel <= tol,
        tolerance=tol,
        note=note,
    )


def intertwining_check(
    params: morse_mod.MorseParameters,
    pmap: morse_mod.ParameterMap,
    grid: Grid1D,
    tol: float = 1e-8,
    name: str = "intertwining",
    w2_override: GridMap | None = None,
) -> ResidualReport:
    """Constancy of (A+ w_1) / w_2 over the grid.

    Uses analytic derivatives of the closed-form fermionic component and
    reports the mean ratio divided by K' as a note (the claimed
    proportionality constant). w2_override(xs) substitutes the bosonic
    component, e.g. to inject a defect and confirm the check fails.
    """
    R = riccati_mod.morse_riccati(params.shape(), riccati_mod.RiccatiSign.PLUS)
    xs = grid.points()
    w1, dw1, _ = morse_mod.wavefunction_derivs_row(params, susy_mod.Sector.FERMIONIC, pmap, xs)
    if w2_override is not None:
        w2 = w2_override(xs)
    else:
        w2 = morse_mod.wavefunction_derivs_row(params, susy_mod.Sector.BOSONIC, pmap, xs)[0]
    keep = np.abs(w2) > 1e-12
    if not keep.any():
        raise ValueError("all grid points degenerate (|w2| <= 1e-12)")
    num = susy_mod.apply_first_order(susy_mod.Ladder.RAISE, R, params.K, w1[keep], dw1[keep], xs[keep])
    arr = num / w2[keep]
    mean = arr.mean()
    rel = float(np.sqrt(np.mean(np.abs(arr - mean) ** 2)) / abs(mean))
    note = ""
    if params.Kprime != 0.0:
        c = mean / params.Kprime
        note = f"mean_ratio/Kprime = {c.real:.12g}{c.imag:+.12g}i"
    return ResidualReport(
        name=name,
        grid_size=len(arr),
        max_abs_residual=float(np.max(np.abs(arr - mean))),
        max_rel_residual=rel,
        passed=rel <= tol,
        tolerance=tol,
        note=note,
    )


def bound_state_residual(
    A: float,
    B: float,
    a: float,
    n: int,
    convention: morse_mod.BoundStateConvention,
    kprime_sq: float,
    grid: Grid1D,
    tol: float = 1e-8,
    name: str = "bound-state",
) -> ResidualReport:
    """Residual of the hermitic bound-state candidate in the K = 0 bosonic
    equation with the given eigenvalue K'^2 (which may be negative)."""
    B_bar, C2_bar = B * B, B * (2.0 * A - a)

    def Q(xs: np.ndarray) -> np.ndarray:
        e = np.exp(-a * xs)
        return -(B_bar * e * e - C2_bar * e) - kprime_sq - A * A + 0j

    derivs = partial(morse_mod.bound_state_wave_derivs, A, B, a, n, convention)
    return ode_residual(Q, derivs, grid, tol=tol, name=name)
