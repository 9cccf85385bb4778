"""Independent numerical oracles.

Everything here exists to check the closed-form layer without sharing its
code paths, so it imports nothing of the package but errors: a
compensated-summation Kummer reference with a majorized tail bound
(deliberately different accumulation order and stopping rule than
specfun.kummer_m) that takes its terms a chunk at a time, every element
still summed term by term as the one-element loop sums it, a fixed-step
RK4 integrator for complex linear second-order equations that multiplies
the steps' propagators, and residual/Wronskian/intertwining evaluators.

The grid oracles take the arrays their caller evaluated (checks evaluates
the closed forms once on its grid): the coefficient and the values at
every point, as (N,) arrays or (R, N) blocks of R rows.
"""

from __future__ import annotations

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


# reference_kummer gives up after this many terms, and takes them this many
# at a time.
_REF_MAX_TERMS = 20_000
_REF_CHUNK = 8
# hypot(re, im) lies in [max(|re|, |im|), |re| + |im|]; scaled by these, the
# rounded bounds also hold the rounded hypot, with room to spare
_BELOW, _ABOVE = 1.0 - 2.0**-50, 1.0 + 2.0**-50


def _named(a: np.ndarray, b: np.ndarray, z: np.ndarray, i) -> str:
    """'a=..., b=..., z=...' of element i, formatted as Python numbers."""
    return f"a={complex(a[i])}, b={complex(b[i])}, z={float(z[i])}"


def _term_ratios(consts: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ratios ((a + n) z) / ((b + n)(n + 1)) of reference_kummer's terms
    for a column n of term numbers, from the first seven rows of its
    constants: (len(n), 2, L) blocks of (real, imaginary) parts and of
    (-imaginary, real) parts. The product and the quotient are CPython's
    _Py_c_prod and _Py_c_quot spelled out."""
    a_re, a_im_0, a_im_z, b_re, b_im_0, b_im, zs = consts
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
    return np.stack((qr, qi), axis=1), np.stack((-qi, qr), axis=1)


# a term or sum that overflows raises NonConvergence here, so numpy need not
# warn of it; q and the tail may divide by zero where they are not used, and
# terms past an element's stop may be 0/0
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
    arithmetic: CPython's complex product and quotient (Smith's method,
    dividing by the scaled denominator) are spelled out in real
    arithmetic, since numpy's complex division rounds differently. The
    terms come _REF_CHUNK at a time: the chunk's quotients as one array
    operation, then the product and the compensated sum term by term,
    then the stopping rules on the whole chunk. Each element takes its
    sum at its first stop, and the elements that stopped leave the
    working arrays once per chunk. A non-finite target_rel or one below
    1e-14, a non-finite argument or a z < 0 raises ValueError, and a term
    or sum that goes non-finite at or before its element's stop raises
    NonConvergence; each names the element's a, b and z, the earliest
    term first and then the lowest index.
    """
    if not 1e-14 <= target_rel < math.inf:
        raise ValueError(f"target_rel must be finite and >= 1e-14, got {target_rel}")
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
    # a = 0 stops before its first term, at the sum 1
    out = np.zeros((a.size, 2))
    out[:, 0] = 1.0
    consts = consts[:, consts[N_TERMS] > 0]
    # (real, imaginary) rows of the term, the sum and the compensation
    t, s, c = np.zeros((3, 2, consts.shape[1]))
    t[0] = s[0] = 1.0
    for n0 in range(0, _REF_MAX_TERMS, _REF_CHUNK):
        if not consts.shape[1]:
            break
        abs_a, abs_b, abs_z, tail_from, n_terms = consts[7:INDEX]
        # row j of the chunk is term n0 + j
        n = np.arange(n0, min(n0 + _REF_CHUNK, _REF_MAX_TERMS), dtype=float)[:, None]
        quot, quot_turned = _term_ratios(consts[:7], n)
        terms, sums = np.empty_like(quot), np.empty_like(quot)
        for j in range(len(n)):
            t = terms[j] = t[0] * quot[j] + t[1] * quot_turned[j]
            # Kahan-compensated sum
            dt = t - c
            new = sums[j] = s + dt
            c = (new - s) - dt
            s = new
        # |(a+m)/(b+m)| <= (m+|a|)/(m-|b|) for m > |b|; monotone down in m
        m = n + 1
        q = abs_z * (m + abs_a) / ((m - abs_b) * (m + 1))
        # the tail rule hypot(term) q / (1 - q) <= target_rel hypot(sum),
        # decided from the bounds of both hypots where they agree (the
        # steps are monotone for 0 <= q < 1), and from hypot elsewhere
        t_abs, s_abs = np.abs(terms), np.abs(sums)
        t_low = np.maximum(t_abs[:, 0], t_abs[:, 1]) * _BELOW
        t_high = (t_abs[:, 0] + t_abs[:, 1]) * _ABOVE
        s_high = (s_abs[:, 0] + s_abs[:, 1]) * _ABOVE
        tail_rule = t_high * q / (1.0 - q) <= target_rel * (np.maximum(s_abs[:, 0], s_abs[:, 1]) * _BELOW)
        near = (m > tail_from) & (q < 1.0)
        exact = near & ~tail_rule & ~(t_low * q / (1.0 - q) > target_rel * s_high)
        if exact.any():
            qe = q[exact]
            tail_rule[exact] = (
                np.hypot(terms[:, 0][exact], terms[:, 1][exact]) * qe / (1.0 - qe)
                <= target_rel * np.hypot(sums[:, 0][exact], sums[:, 1][exact])
            )
        # a = -k stops after term k - 1, if the term limit lets it
        stop = near & tail_rule
        stop |= (m >= n_terms) & (m < _REF_MAX_TERMS)
        stopped = stop.any(axis=0)
        first = np.where(stopped, np.argmax(stop, axis=0), len(n) - 1)
        # a sum whose bound is finite has a finite hypot
        finite = s_high < math.inf
        if not finite.all():
            finite[~finite] = np.hypot(sums[:, 0][~finite], sums[:, 1][~finite]) < math.inf
        # only terms up to an element's stop count: past it, a pole
        # b = -k behind a terminating a makes the terms 0/0
        bad = ~finite & (n <= first + n0)
        if bad.any():
            i = int(consts[INDEX, np.argmax(bad) % bad.shape[1]])
            raise NonConvergence(f"reference_kummer: term or sum not finite at {_named(a, b, z, i)}")
        if stopped.any():
            i = consts[INDEX, stopped].astype(np.intp)
            out[i] = sums[first[stopped], :, stopped]
            keep = ~stopped
            consts, t, s, c = consts[:, keep], t[:, keep], s[:, keep], c[:, keep]
    if consts.shape[1]:
        raise NonConvergence(f"reference_kummer did not converge: {_named(a, b, z, int(consts[INDEX, 0]))}")
    result = out.view(complex).reshape(shape)
    return result if is_array else complex(result[()])


def fd_derivs(w: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, w', w'') at the points xs from a value-only w, with w' and w''
    from 5-point central differences, step 1e-4 (1 + |x|)."""
    h = 1e-4 * (1.0 + np.abs(xs))
    wm2, wm1, w0, wp1, wp2 = (w(xs + k * h) for k in (-2, -1, 0, 1, 2))
    d1 = (wm2 - 8 * wm1 + 8 * wp1 - wp2) / (12.0 * h)
    d2 = (-wm2 + 16 * wm1 - 30 * w0 + 16 * wp1 - wp2) / (12.0 * h * h)
    return w0, d1, d2


def ode_residual(q: np.ndarray, w: np.ndarray, d2w: np.ndarray, tol: float = 1e-8) -> ResidualReport:
    """Residual of w'' + Q w = 0 over a grid, from Q, w and w'' at its N
    points.

    d2w must be analytic, not a rearrangement of the equation itself
    (fd_derivs supplies a finite-difference one). The relative residual is
    normalized by 1 + |Q||w| so decaying tails do not blow it up. q, w and
    d2w may also be (R, N) blocks, one row per solution: the report is the
    worst over the whole block (grid_size stays the N points).
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
