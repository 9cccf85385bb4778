"""Independent numerical oracles.

Everything here exists to check the closed-form layer without sharing its
code paths, so it imports nothing of the package but errors: a
compensated-summation Kummer reference with a majorized tail bound
(deliberately different accumulation order and stopping rule than
specfun.kummer_m) summed one element at a time, a fixed-step RK4
integrator for complex linear second-order equations stepped one scalar
step at a time, and residual/Wronskian/intertwining evaluators.

The grid oracles take the arrays their caller evaluated (checks evaluates
the closed forms once on its grid): the coefficient and the values at
every point, as (N,) arrays or (R, N) blocks of R rows. Each oracle
returns what it measured; checks judges that against a tolerance.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .errors import NonConvergence, ParameterPole

# integrate_ode evaluates its coefficient this many steps at a time.
_RK4_BLOCK = 1024

# reference_kummer gives up after this many terms, and stops once its tail
# bound is below this fraction of the sum.
_REF_MAX_TERMS = 20_000
_REF_TARGET_REL = 1e-13


def _modulus(c: complex) -> float:
    """abs(c), or inf where abs raises OverflowError: finite parts whose
    modulus is past the float range."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


def _reference_one(a, b, z) -> complex:
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
            if q < 1.0 and _modulus(term) * q / (1.0 - q) <= _REF_TARGET_REL * size:
                return total
    raise NonConvergence(f"reference_kummer did not converge: {named}")


def reference_kummer(a, b, z):
    """High-accuracy 1F1(a; b; z) reference, at a float z >= 0 or at every
    element of numpy arrays.

    Independent of specfun.kummer_m by construction: terms are built with
    a differently grouped recurrence, t_{n+1} = t_n ((a+n) z) / ((b+n)(n+1)),
    accumulated with Kahan-compensated summation, and stopped once a
    geometric majorization of the tail (|t_n| q / (1 - q) with q an upper
    bound on subsequent term ratios) is within _REF_TARGET_REL of the sum,
    instead of by a consecutive-small-terms heuristic. A nonpositive
    integer a = -n stops after its n terms, and b at a nonpositive integer
    raises ParameterPole unless that comes first.

    a, b and z broadcast together. A call with no numpy array among them
    returns a complex, any other an array of the broadcast shape, each
    element summed by the one-element loop in C order. A non-finite
    argument or a z < 0 raises ValueError, and a term or sum that goes
    non-finite at or before the stop, or a series still running after
    _REF_MAX_TERMS terms, raises NonConvergence; each names the a, b and z
    of the lowest-index element that fails.
    """
    if not any(isinstance(v, np.ndarray) for v in (a, b, z)):
        return _reference_one(a, b, z)
    a, b, z = np.broadcast_arrays(
        np.asarray(a, dtype=complex), np.asarray(b, dtype=complex), np.asarray(z, dtype=float)
    )
    values = [_reference_one(*e) for e in zip(a.ravel().tolist(), b.ravel().tolist(), z.ravel().tolist())]
    return np.array(values, dtype=complex).reshape(a.shape)


def ode_residual(q: np.ndarray, w: np.ndarray, d2w: np.ndarray) -> np.ndarray:
    """Relative residual of w'' + Q w = 0 at every point of a grid, from Q,
    w and w'' there.

    d2w must be analytic, not a rearrangement of the equation itself. The
    residual |w'' + Q w| is normalized by 1 + |Q||w| so decaying tails do
    not blow it up. q, w and d2w may also be (R, N) blocks, one row per
    solution; the result has their shape.
    """
    return np.abs(d2w + q * w) / (1.0 + np.abs(q) * np.abs(w))


def integrate_ode(
    Q: Callable[[np.ndarray], np.ndarray],
    x0: float,
    w0: complex,
    dw0: complex,
    x1: float,
    step: float = 1e-4,
) -> tuple[complex, complex]:
    """Fixed-step classical RK4 for (w, w')' = (w', -Q w) from x0 to x1,
    one scalar step at a time.

    Q(xs) gives the coefficient at every point of an array. It is
    evaluated once per block of _RK4_BLOCK steps, on all the stage points
    x, x + h/2 and x + h of the block. The state is tested at block ends:
    a non-finite one raises OverflowError naming the block's x range.
    """
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    if x1 == x0:
        return complex(w0), complex(dw0)
    n = max(1, math.ceil(abs(x1 - x0) / step))
    h = (x1 - x0) / n
    w, dw = complex(w0), complex(dw0)
    for start in range(0, n, _RK4_BLOCK):
        xs = x0 + np.arange(start, min(start + _RK4_BLOCK, n)) * h
        m = len(xs)
        q = Q(np.concatenate([xs, xs + 0.5 * h, xs + h])).tolist()
        for qs, qm, qe in zip(q[:m], q[m : 2 * m], q[2 * m :]):
            k1w, k1d = dw, -qs * w
            k2w, k2d = dw + 0.5 * h * k1d, -qm * (w + 0.5 * h * k1w)
            k3w, k3d = dw + 0.5 * h * k2d, -qm * (w + 0.5 * h * k2w)
            k4w, k4d = dw + h * k3d, -qe * (w + h * k3w)
            w = w + h / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
            dw = dw + h / 6.0 * (k1d + 2 * k2d + 2 * k3d + k4d)
        if not (cmath.isfinite(w) and cmath.isfinite(dw)):
            raise OverflowError(f"integration overflowed between x = {float(xs[0])} and x = {float(xs[-1] + h)}")
    return w, dw


def _constancy(what: str, vals: np.ndarray) -> tuple[float, str, np.ndarray]:
    """The RMS deviation of vals from their mean along the last axis,
    relative to |mean| and the largest over the rows of an (R, N) block; a
    note; and the mean of each row. A row of values zero everywhere gives
    0 with a zero-scale note, a mean below 1e-13 of the row's max |vals|
    inf with a degenerate one."""
    scale = np.max(np.abs(vals), axis=-1)
    mean = vals.mean(axis=-1)
    dev = np.sqrt(np.mean(np.abs(vals - mean[..., None]) ** 2, axis=-1))
    zero = scale == 0.0
    degenerate = ~zero & (np.abs(mean) <= 1e-13 * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = float(np.where(zero, 0.0, np.where(degenerate, math.inf, dev / np.abs(mean))).max())
    notes = ((zero, f"zero-scale: {what} identically zero"), (degenerate, f"degenerate: zero-mean {what}"))
    return rel, "; ".join(note for flags, note in notes if flags.any()), mean


def wronskian_constancy(f: np.ndarray, df: np.ndarray, g: np.ndarray, dg: np.ndarray) -> tuple[float, str]:
    """Relative standard deviation of the Wronskian f g' - g f' over a grid,
    from the values and derivatives of f and g at its N points, and a note.

    For equations without a first-derivative term the Wronskian of any two
    solutions is x-independent, so the deviation should vanish. The arrays
    may also be (R, N) blocks, row r of f paired with row r of g: each
    row's Wronskian has its own mean, and the deviation is the worst row's.
    """
    return _constancy("Wronskian", f * dg - g * df)[:2]


def intertwining_check(raised: np.ndarray, partner: np.ndarray, Kprime: float) -> tuple[float, str]:
    """Relative standard deviation of the ratio raised / partner over a
    grid, and a note.

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
    rel, note, mean = _constancy("ratio", raised[keep] / partner[keep])
    if Kprime != 0.0:
        c = complex(mean) / Kprime
        note = "; ".join(filter(None, (note, f"mean_ratio/Kprime = {c.real:.12g}{c.imag:+.12g}i")))
    return rel, note
