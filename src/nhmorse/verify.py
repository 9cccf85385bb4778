"""Independent numerical oracles.

Everything here exists to check the closed-form layer without sharing its
code paths, so it imports nothing of the package but errors: a
compensated-summation Kummer reference with a majorized tail bound
(deliberately different accumulation order and stopping rule than
specfun.kummer_m), a fixed-step RK4 integrator for complex linear
second-order equations that multiplies the steps' propagators, and
residual/Wronskian/intertwining evaluators.

The grid oracles take grid callables (checks builds them from the closed
forms): Q(xs) or w(xs) returns the coefficient or the values at every
point of a grid, and derivs(xs) returns (w, w', w'') there, so a grid
costs one evaluation of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


# reference_kummer gives up after this many terms.
_REF_MAX_TERMS = 20_000


def _named(a: np.ndarray, b: np.ndarray, z: np.ndarray, i) -> str:
    """'a=..., b=..., z=...' of element i, formatted as Python numbers."""
    return f"a={complex(a[i])}, b={complex(b[i])}, z={float(z[i])}"


# a term or sum that overflows raises NonConvergence here, so numpy need not
# warn of it; q and the tail may divide by zero where they are not used
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
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
    returns a complex, any other an array of the broadcast shape. Every
    element takes the steps of the one-element loop in Python complex
    arithmetic: the loop spells out CPython's complex product and quotient
    (Smith's method, dividing by the scaled denominator) in real
    arithmetic, since numpy's complex division rounds differently, and an
    element leaves the working arrays once it stops. A non-finite argument
    or a z < 0 raises ValueError, and a term or sum that goes non-finite
    raises NonConvergence at once; each names the element's a, b and z.
    """
    if target_rel < 1e-14:
        raise ValueError(f"target_rel must be >= 1e-14, got {target_rel}")
    is_array = any(isinstance(v, np.ndarray) for v in (a, b, z))
    a, b, z = np.broadcast_arrays(
        np.asarray(a, dtype=complex), np.asarray(b, dtype=complex), np.asarray(z, dtype=float)
    )
    shape = a.shape
    a, b, z = a.ravel(), b.ravel(), z.ravel()
    bad = ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(z))
    if bad.any():
        raise ValueError(f"reference_kummer needs finite arguments, got {_named(a, b, z, np.argmax(bad))}")
    if (z < 0.0).any():
        raise ValueError(f"reference_kummer requires z >= 0, got {_named(a, b, z, np.argmax(z < 0.0))}")
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    ra, rb = np.round(ar), np.round(br)
    terminating = (ra <= 0) & (np.hypot(ar - ra, ai) <= 1e-12)
    pole = (rb <= 0) & (np.hypot(br - rb, bi) <= 1e-12) & ~(terminating & (-ra <= -rb))
    if pole.any():
        raise ParameterPole(f"reference_kummer: b = {complex(b[np.argmax(pole)])} at a nonpositive integer")

    abs_b = np.hypot(br, bi)
    # one column per element, one row per quantity the loop reads; the last
    # two are the term count of a terminating series (inf for any other)
    # and the element's place in out. Python's a + n and b + n add 0.0 to
    # the imaginary part, and a product with the real z or n + 1 first
    # makes it complex with imaginary part 0.0.
    a_im, b_im = ai + 0.0, bi + 0.0
    consts = np.stack((
        ar, a_im * 0.0, a_im * z, br, b_im * 0.0, b_im, z,
        np.hypot(ar, ai), abs_b, np.abs(z),
        # the tail bound holds once n + 1 > |b| + 1, on a series that does not terminate
        np.where(terminating, np.inf, abs_b + 1.0),
        np.where(terminating, -ra, np.inf),
        np.arange(a.size),
    ))
    N_TERMS, INDEX = 11, 12
    tr, sr = np.ones(a.size), np.ones(a.size)
    ti, si, cr, ci = (np.zeros(a.size) for _ in range(4))
    out = np.empty((a.size, 2))

    def retire(stop: np.ndarray) -> None:
        """Write out the sums of the elements that stop, and drop them."""
        nonlocal consts, tr, ti, sr, si, cr, ci
        if not stop.any():
            return
        i = consts[INDEX, stop].astype(np.intp)
        out[i, 0], out[i, 1] = sr[stop], si[stop]
        keep = ~stop
        consts = consts[:, keep]
        tr, ti, sr, si, cr, ci = tr[keep], ti[keep], sr[keep], si[keep], cr[keep], ci[keep]

    for n in range(_REF_MAX_TERMS):
        retire(n >= consts[N_TERMS])
        if not consts.shape[1]:
            break
        a_re, a_im_0, a_im_z, b_re, b_im_0, b_im, zs, abs_a, abs_b, abs_z, tail_from = consts[:N_TERMS]
        # t *= ((a + n) z) / ((b + n)(n + 1)): CPython's _Py_c_prod and _Py_c_quot
        p = a_re + n
        nr, ni = p * zs - a_im_0, p * 0.0 + a_im_z
        p = b_re + n
        dr, di = p * (n + 1) - b_im_0, p * 0.0 + b_im * (n + 1)
        # Smith's method scales by the larger part x of the denominator; u, v
        # are the numerator's parts in the same order
        big = np.abs(dr) >= np.abs(di)
        x, y = np.where(big, dr, di), np.where(big, di, dr)
        u, v = np.where(big, nr, ni), np.where(big, ni, nr)
        ratio = y / x
        denom = x + y * ratio
        uq = u * ratio
        qr = (u + v * ratio) / denom
        qi = np.where(big, v - uq, uq - v) / denom
        tr, ti = tr * qr - ti * qi, tr * qi + ti * qr
        # Kahan-compensated sum
        yr, yi = tr - cr, ti - ci
        new_r, new_i = sr + yr, si + yi
        cr, ci = (new_r - sr) - yr, (new_i - si) - yi
        sr, si = new_r, new_i
        abs_total = np.hypot(sr, si)
        if not abs_total.max() < math.inf:
            i = int(consts[INDEX, np.argmax(~np.isfinite(abs_total))])
            raise NonConvergence(f"reference_kummer: term or sum not finite at {_named(a, b, z, i)}")
        # |(a+m)/(b+m)| <= (m+|a|)/(m-|b|) for m > |b|; monotone down in m
        m = n + 1
        q = abs_z * (m + abs_a) / ((m - abs_b) * (m + 1))
        tail = np.hypot(tr, ti) * q / (1.0 - q)
        retire((m > tail_from) & (q < 1.0) & (tail <= target_rel * abs_total))
    if consts.shape[1]:
        raise NonConvergence(f"reference_kummer did not converge: {_named(a, b, z, int(consts[INDEX, 0]))}")
    result = out.view(complex).reshape(shape)
    return result if is_array else complex(result[()])


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


def ode_residual(Q: GridMap, derivs: GridDerivs, grid: Grid1D, tol: float = 1e-8) -> ResidualReport:
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
        name="ode-residual",
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
    if step <= 0.0:
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


def _constancy(name: str, what: str, vals: np.ndarray, tol: float) -> tuple[ResidualReport, complex]:
    """Report on the RMS deviation of vals from their mean (absolute, and
    relative to |mean|), and the mean. Values zero everywhere give 0 with a
    zero-scale note, a mean below 1e-13 max |vals| inf with a degenerate one."""
    scale = float(np.max(np.abs(vals)))
    mean = vals.mean()
    dev = float(np.sqrt(np.mean(np.abs(vals - mean) ** 2)))
    if scale == 0.0:
        rel, note = 0.0, f"zero-scale: {what} identically zero"
    elif abs(mean) <= 1e-13 * scale:
        rel, note = math.inf, f"degenerate: zero-mean {what}"
    else:
        rel, note = dev / float(abs(mean)), ""
    report = ResidualReport(
        name=name,
        grid_size=len(vals),
        max_abs_residual=dev,
        max_rel_residual=rel,
        passed=rel <= tol,
        tolerance=tol,
        note=note,
    )
    return report, mean


def wronskian_constancy(f: GridDerivs, g: GridDerivs, grid: Grid1D, tol: float = 1e-8) -> ResidualReport:
    """Relative standard deviation of the Wronskian f g' - g f' over the grid.

    f(xs) and g(xs) give (value, derivative, ...) at the grid points. For
    equations without a first-derivative term the Wronskian of any two
    solutions is x-independent, so the deviation should vanish.
    """
    xs = grid.points()
    fv, df = f(xs)[:2]
    gv, dg = g(xs)[:2]
    return _constancy("wronskian", "Wronskian", fv * dg - gv * df, tol)[0]


def intertwining_check(
    raised: GridMap, partner: GridMap, grid: Grid1D, Kprime: float, tol: float = 1e-8
) -> ResidualReport:
    """Constancy of the ratio raised / partner over the grid.

    raised(xs) is A+ applied to one sector's solution and partner(xs) the
    other sector's solution at the grid points; the intertwining relation
    makes them proportional. Points where |partner| <= 1e-12 are dropped.
    The ratio goes through wronskian_constancy's reduction, and for
    K' != 0 the note gives the mean ratio over K', the claimed
    proportionality constant.
    """
    xs = grid.points()
    w2 = partner(xs)
    keep = np.abs(w2) > 1e-12
    if not keep.any():
        raise ValueError("all grid points degenerate (|partner| <= 1e-12)")
    report, mean = _constancy("intertwining", "ratio", raised(xs)[keep] / w2[keep], tol)
    if Kprime != 0.0:
        c = mean / Kprime
        ratio_note = f"mean_ratio/Kprime = {c.real:.12g}{c.imag:+.12g}i"
        report.note = f"{report.note}; {ratio_note}" if report.note else ratio_note
    return report
