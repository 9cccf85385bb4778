"""Independent numerical oracles.

Everything here exists to check the closed-form layer without sharing its
code paths, so it imports nothing of the package but errors: a
compensated-summation Kummer reference with a majorized tail bound
(deliberately different accumulation order and stopping rule than
specfun.kummer_m) summed one element at a time, a fixed-step RK4
integrator for complex linear second-order equations that multiplies the
steps' propagators, and residual/Wronskian/intertwining evaluators.

The grid oracles take the arrays their caller evaluated (checks evaluates
the closed forms once on its grid): the coefficient and the values at
every point, as (N,) arrays or (R, N) blocks of R rows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergence, ParameterPole

# integrate_ode evaluates its coefficient this many steps at a time.
_RK4_BLOCK = 1024


@dataclass
class ResidualReport:
    """Outcome of one verification check; elapsed_s is the check's wall
    time in seconds where checks.run_checks ran it, and is not printed."""

    name: str
    grid_size: int
    max_abs_residual: float
    max_rel_residual: float
    passed: bool
    tolerance: float
    note: str = ""
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"{status} {self.name} max_rel_residual={self.max_rel_residual:.3e} "
            f"tol={self.tolerance:.3e}"
        )
        if self.note:
            out += f" ({self.note})"
        return out


# reference_kummer gives up after this many terms.
_REF_MAX_TERMS = 20_000


def _modulus(c: complex) -> float:
    """abs(c), or inf where abs raises OverflowError: finite parts whose
    modulus is past the float range."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


def _reference_one(a, b, z, target_rel: float) -> complex:
    """reference_kummer at one (a, b, z), in Python complex arithmetic."""
    a, b, z = complex(a), complex(b), float(z)
    named = f"a={a}, b={b}, z={z}"
    if not (cmath.isfinite(a) and cmath.isfinite(b) and math.isfinite(z)):
        raise ValueError(f"reference_kummer needs finite arguments, got {named}")
    if z < 0.0:
        raise ValueError(f"reference_kummer requires z >= 0, got {named}")
    ra, rb = round(a.real), round(b.real)
    # a = -k stops after k terms, which a pole b = -j past them does not reach
    n_terms = -ra if ra <= 0 and abs(a - ra) <= 1e-12 else None
    if rb <= 0 and abs(b - rb) <= 1e-12 and not (n_terms is not None and n_terms <= -rb):
        raise ParameterPole(f"reference_kummer: b = {b} at a nonpositive integer")
    term = total = 1.0 + 0.0j
    comp = 0.0j
    abs_a, abs_b = _modulus(a), _modulus(b)
    for n in range(_REF_MAX_TERMS):
        if n_terms is not None and n >= n_terms:
            return total
        term *= ((a + n) * z) / ((b + n) * (n + 1))
        # Kahan-compensated sum
        y = term - comp
        new = total + y
        comp = (new - total) - y
        total = new
        size = _modulus(total)
        if not size < math.inf:
            raise NonConvergence(f"reference_kummer: term or sum not finite at {named}")
        # |(a+m)/(b+m)| <= (m+|a|)/(m-|b|) for m > |b|; monotone down in m,
        # so the tail bound holds once m > |b| + 1
        m = n + 1
        if n_terms is None and m > abs_b + 1.0:
            q = z * (m + abs_a) / ((m - abs_b) * (m + 1))
            if q < 1.0 and _modulus(term) * q / (1.0 - q) <= target_rel * size:
                return total
    raise NonConvergence(f"reference_kummer did not converge: {named}")


def reference_kummer(a, b, z, target_rel: float = 1e-13):
    """High-accuracy 1F1(a; b; z) reference, at a float z >= 0 or at every
    element of numpy arrays.

    Independent of specfun.kummer_m by construction: terms are built with
    a differently grouped recurrence, t_{n+1} = t_n ((a+n) z) / ((b+n)(n+1)),
    accumulated with Kahan-compensated summation, and stopped by a
    geometric majorization of the tail (|t_n| q / (1 - q) with q an upper
    bound on subsequent term ratios) instead of a consecutive-small-terms
    heuristic. A nonpositive integer a = -n stops after its n terms, and b
    at a nonpositive integer raises ParameterPole unless that comes first.

    a, b and z broadcast together. A call with no numpy array among them
    returns a complex, any other an array of the broadcast shape, each
    element summed by the one-element loop in C order. A non-finite
    target_rel or one below 1e-14, a non-finite argument or a z < 0 raises
    ValueError, and a term or sum that goes non-finite at or before the
    stop, or a series still running after _REF_MAX_TERMS terms, raises
    NonConvergence; each names the a, b and z of the lowest-index element
    that fails.
    """
    if not 1e-14 <= target_rel < math.inf:
        raise ValueError(f"target_rel must be finite and >= 1e-14, got {target_rel}")
    if not any(isinstance(v, np.ndarray) for v in (a, b, z)):
        return _reference_one(a, b, z, target_rel)
    a, b, z = np.broadcast_arrays(
        np.asarray(a, dtype=complex), np.asarray(b, dtype=complex), np.asarray(z, dtype=float)
    )
    values = [_reference_one(*e, target_rel) for e in zip(a.ravel().tolist(), b.ravel().tolist(), z.ravel().tolist())]
    return np.array(values, dtype=complex).reshape(a.shape)


def ode_residual(q: np.ndarray, w: np.ndarray, d2w: np.ndarray, tol: float = 1e-8) -> ResidualReport:
    """Residual of w'' + Q w = 0 over a grid, from Q, w and w'' at its N
    points.

    d2w must be analytic, not a rearrangement of the equation itself. The
    relative residual is normalized by 1 + |Q||w| so decaying tails do not
    blow it up. q, w and d2w may also be (R, N) blocks, one row per
    solution: the report is the worst over the whole block (grid_size
    stays the N points).
    """
    r = np.abs(d2w + q * w)
    rel = r / (1.0 + np.abs(q) * np.abs(w))
    max_rel = float(rel.max())
    return ResidualReport(
        name="ode-residual",
        grid_size=r.shape[-1],
        max_abs_residual=float(r.max()),
        max_rel_residual=max_rel,
        passed=max_rel <= tol,
        tolerance=tol,
    )


def integrate_ode(
    Q: Callable[[np.ndarray], np.ndarray],
    x0: float,
    w0: complex,
    dw0: complex,
    x1: float,
    step: float = 1e-4,
) -> tuple[complex, complex]:
    """Fixed-step classical RK4 for (w, w')' = (w', -Q w) from x0 to x1.

    Q(xs) gives the coefficient at every point of an array. It is
    evaluated once per block of _RK4_BLOCK steps, on all the stage points
    x, x + h/2 and x + h of the block. The equation is linear, so each
    step maps the state (w, w') by a 2 x 2 propagator I + N; the RK4
    stages run as arrays on the basis states (1, 0) and (0, 1) to give
    every step's N, and the block's propagator is their product, taken
    pairwise with the later step on the left,
    (I + N1)(I + N0) = I + (N1 + N0 + N1 N0). Only the deviations N are
    multiplied, so the identity's rounding never enters them. The state
    is known at block ends only: a non-finite one raises OverflowError
    naming the block's x range.
    """
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    if x1 == x0:
        return complex(w0), complex(dw0)
    n = max(1, math.ceil(abs(x1 - x0) / step))
    h = (x1 - x0) / n
    state = np.array([w0, dw0], dtype=complex)
    # row j is basis state j, (w, w') = (1, 0) then (0, 1); its increments
    # over a step are column j of that step's N
    w, dw = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    for start in range(0, n, _RK4_BLOCK):
        xs = x0 + np.arange(start, min(start + _RK4_BLOCK, n)) * h
        m = len(xs)
        q = Q(np.concatenate([xs, xs + 0.5 * h, xs + h]))
        qs, qm, qe = q[:m], q[m : 2 * m], q[2 * m :]
        # an overflow shows as a non-finite state below
        with np.errstate(over="ignore", invalid="ignore"):
            k1w, k1d = dw, -qs * w
            k2w, k2d = dw + 0.5 * h * k1d, -qm * (w + 0.5 * h * k1w)
            k3w, k3d = dw + 0.5 * h * k2d, -qm * (w + 0.5 * h * k2w)
            k4w, k4d = dw + h * k3d, -qe * (w + h * k3w)
            # N[:, :, i] of step i, padded to a power of two with N = 0 steps
            N = np.zeros((2, 2, 1 << (m - 1).bit_length()), dtype=complex)
            N[0, :, :m] = h / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
            N[1, :, :m] = h / 6.0 * (k1d + 2 * k2d + 2 * k3d + k4d)
            while N.shape[-1] > 1:
                # later @ earlier of every pair as a broadcast sum: numpy's
                # stacked matmul is several times slower on 2 x 2 matrices
                later, earlier = N[..., 1::2], N[..., ::2]
                N = later + earlier + (later[:, :, None] * earlier[None]).sum(1)
            state = state + N[..., 0] @ state
        if not np.isfinite(state).all():
            raise OverflowError(f"integration overflowed between x = {float(xs[0])} and x = {float(xs[-1] + h)}")
    return complex(state[0]), complex(state[1])


def _constancy(name: str, what: str, vals: np.ndarray, tol: float) -> tuple[ResidualReport, np.ndarray]:
    """Report on the RMS deviation of vals from their mean along the last
    axis (absolute, and relative to |mean|), the largest over the rows of
    an (R, N) block, and the mean of each row. A row of values zero
    everywhere gives 0 with a zero-scale note, a mean below 1e-13 of the
    row's max |vals| inf with a degenerate one."""
    scale = np.max(np.abs(vals), axis=-1)
    mean = vals.mean(axis=-1)
    dev = np.sqrt(np.mean(np.abs(vals - mean[..., None]) ** 2, axis=-1))
    zero = scale == 0.0
    degenerate = ~zero & (np.abs(mean) <= 1e-13 * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = float(np.where(zero, 0.0, np.where(degenerate, math.inf, dev / np.abs(mean))).max())
    notes = ((zero, f"zero-scale: {what} identically zero"), (degenerate, f"degenerate: zero-mean {what}"))
    report = ResidualReport(
        name=name,
        grid_size=vals.shape[-1],
        max_abs_residual=float(dev.max()),
        max_rel_residual=rel,
        passed=rel <= tol,
        tolerance=tol,
        note="; ".join(note for flags, note in notes if flags.any()),
    )
    return report, mean


def wronskian_constancy(
    f: np.ndarray, df: np.ndarray, g: np.ndarray, dg: np.ndarray, tol: float = 1e-8
) -> ResidualReport:
    """Relative standard deviation of the Wronskian f g' - g f' over a grid,
    from the values and derivatives of f and g at its N points.

    For equations without a first-derivative term the Wronskian of any two
    solutions is x-independent, so the deviation should vanish. The arrays
    may also be (R, N) blocks, row r of f paired with row r of g: each
    row's Wronskian has its own mean, and the report is the worst row's.
    """
    return _constancy("wronskian", "Wronskian", f * dg - g * df, tol)[0]


def intertwining_check(raised: np.ndarray, partner: np.ndarray, Kprime: float, tol: float = 1e-8) -> ResidualReport:
    """Constancy of the ratio raised / partner over a grid.

    raised is A+ applied to one sector's solution and partner the other
    sector's solution at the grid's points; the intertwining relation
    makes them proportional. Points where |partner| <= 1e-12 are dropped.
    The ratio goes through wronskian_constancy's reduction, and for
    K' != 0 the note gives the mean ratio over K', the claimed
    proportionality constant.
    """
    keep = np.abs(partner) > 1e-12
    if not keep.any():
        raise ValueError("all grid points degenerate (|partner| <= 1e-12)")
    report, mean = _constancy("intertwining", "ratio", raised[keep] / partner[keep], tol)
    if Kprime != 0.0:
        c = complex(mean) / Kprime
        ratio_note = f"mean_ratio/Kprime = {c.real:.12g}{c.imag:+.12g}i"
        report.note = f"{report.note}; {ratio_note}" if report.note else ratio_note
    return report
