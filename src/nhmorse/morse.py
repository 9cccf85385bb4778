"""Closed-form solutions of the non-Hermitian Morse problem.

The second-order equations for the two spinor components, after the
substitution y = (2B/a) e^{-a x}, reduce to Whittaker normal form with
complex indices. Two index maps coexist deliberately:

  * PRINTED: mu^2 = (K'^2 - K^2 - 2iKA) / a^2, the formula as published;
  * DERIVED: mu^2 = (A^2 + K'^2 - K^2 - 2iKA) / a^2, obtained by matching
    the constant term of the expanded coefficient to the Whittaker normal
    form.

They differ by the A^2 term under the root; the residual oracle in
`verify` is the arbiter of which one actually solves the printed
equations (the derived map does; the printed map fails for A != 0 with
K != 0 or K' != 0). kappa_1 and kappa_2 agree between the maps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import riccati, specfun
from .errors import NonNormalizable
from .riccati import MorseRiccati
from .specfun import WhittakerIndices
from .susy import Sector


class ParameterMap(str, Enum):
    PRINTED = "printed"
    DERIVED = "derived"


@dataclass(frozen=True)
class MorseParameters:
    """Full parameter record: Morse shape (A, B, a), extension (K, K'),
    and superposition amplitudes for both sectors.

    Defaults reproduce the canonical operating point A=1, B=2, a=0.5,
    K'=2, alpha=1, beta=0.
    """

    A: float = 1.0
    B: float = 2.0
    a: float = 0.5
    K: float = 0.0
    Kprime: float = 2.0
    alpha1: complex = 1.0 + 0.0j
    beta1: complex = 0.0 + 0.0j
    alpha2: complex = 1.0 + 0.0j
    beta2: complex = 0.0 + 0.0j

    def __post_init__(self) -> None:
        # the Morse shape's own checks: a > 0, B > 0, finite A
        self.shape()

    @property
    def B_bar(self) -> float:
        return self.B * self.B

    @property
    def C1_bar(self) -> float:
        return self.B * (2.0 * self.A + self.a)

    @property
    def C2_bar(self) -> float:
        return self.B * (2.0 * self.A - self.a)

    def shape(self) -> MorseRiccati:
        return MorseRiccati(A=self.A, B=self.B, a=self.a)

    def amplitudes(self, sector: Sector) -> tuple[complex, complex]:
        if sector is Sector.FERMIONIC:
            return self.alpha1, self.beta1
        return self.alpha2, self.beta2


@dataclass(frozen=True)
class Indices:
    kappa1: complex
    kappa2: complex
    mu: complex

    def for_sector(self, sector: Sector) -> WhittakerIndices:
        kappa = self.kappa1 if sector is Sector.FERMIONIC else self.kappa2
        return WhittakerIndices(kappa=kappa, mu=self.mu)


def indices(params: MorseParameters, pmap: ParameterMap) -> Indices:
    """Whittaker indices (kappa_1, kappa_2, mu) for the chosen map.

    The published kappa formulas are expanded to the pole-free form
    kappa_{1,2} = A/a +/- 1/2 - iK/a, valid for any A. Raises OverflowError
    where an index is not finite (K^2 overflows once |K| > 1.3e154).
    """
    A, a, K, Kp = params.A, params.a, params.K, params.Kprime
    base = A / a - 1j * K / a
    kappa1 = base + 0.5
    kappa2 = base - 0.5
    # + 0.0 turns the -0.0 of A = 0, K > 0 into +0.0, so both maps take the
    # same side of the branch cut (under real and negative): cmath.sqrt is the
    # principal root, Re >= 0, and on the cut Im > 0
    under = complex(Kp * Kp - K * K, -2.0 * K * A + 0.0)
    if pmap is ParameterMap.DERIVED:
        under += A * A
    mu = cmath.sqrt(under) / a
    if not (cmath.isfinite(kappa1) and cmath.isfinite(kappa2) and cmath.isfinite(mu)):
        raise OverflowError(f"Whittaker indices overflow at K = {K:.17g}, K' = {Kp:.17g}")
    return Indices(kappa1=kappa1, kappa2=kappa2, mu=mu)


def ode_coefficient(params: MorseParameters, sector: Sector, x) -> complex:
    """Expanded coefficient of the Morse second-order equation.

    -(B_bar e^{-2ax} - C_i e^{-ax}) + (K^2 - K'^2) - A^2 + 2iK(A - B e^{-ax});
    identical (to roundoff) to the generic bracket evaluated on the Morse
    superpotential. x may be a float or an array of x. K and K' may also
    be (R, 1) columns, one (K, K') pair per row, giving an (R, N) block
    over x of shape (N,).
    """
    A, B, a, K, Kp = params.A, params.B, params.a, params.K, params.Kprime
    C = params.C1_bar if sector is Sector.FERMIONIC else params.C2_bar
    e = np.exp(-a * x) if isinstance(x, np.ndarray) else math.exp(-a * x)
    return (
        -(params.B_bar * e * e - C * e)
        + (K * K - Kp * Kp)
        - A * A
        + 2j * K * (A - B * e)
    )


def _chain_rule(a: float, g, y, f, f1, f2):
    """(w, w', w'') in x of w = g F(y) with g = e^{ax/2}, y' = -a y,
    y'' = a^2 y, from F and its y-derivatives; floats or arrays alike."""
    yp = -a * y
    ypp = a * a * y
    w = g * f
    dw = g * (0.5 * a * f + f1 * yp)
    d2w = g * (0.25 * a * a * f + a * f1 * yp + f2 * yp * yp + f1 * ypp)
    return w, dw, d2w


def _wave_derivs(idx: WhittakerIndices, shape: MorseRiccati, alpha: complex, beta: complex, x):
    """(w, w', w'') in x of w = alpha e^{ax/2} M(y) + beta e^{ax/2} W(y), at a
    float x or elementwise over an array of them; a term with a zero
    amplitude is not evaluated. The Whittaker derivatives are analytic
    (never obtained from the differential equation).
    """
    y = riccati.morse_y(shape, x)
    g = np.exp(0.5 * shape.a * x) if isinstance(x, np.ndarray) else math.exp(0.5 * shape.a * x)
    w = dw = d2w = 0j * g  # zero, or zeros of the shape of x
    for amp, kernel in ((alpha, specfun.whittaker_m_derivs), (beta, specfun.whittaker_w_derivs)):
        if amp != 0.0:
            v, v1, v2 = _chain_rule(shape.a, g, y, *kernel(idx, y))
            w, dw, d2w = w + amp * v, dw + amp * v1, d2w + amp * v2
    return w, dw, d2w


def wavefunction_derivs(
    params: MorseParameters, sector: Sector, pmap: ParameterMap, x: float
) -> tuple[complex, complex, complex]:
    """Value and first two x-derivatives of the superposed wavefunction
    alpha e^{ax/2} M + beta e^{ax/2} W at one x.

    A term is only evaluated when its amplitude is nonzero, so W-only
    parameter sets never reach the rejections of the Kummer core.
    """
    idx = indices(params, pmap).for_sector(sector)
    return _wave_derivs(idx, params.shape(), *params.amplitudes(sector), x)


def _grid_columns(rows: Sequence[MorseParameters], sector: Sector, pmap: ParameterMap, xs: np.ndarray):
    """The shared Morse shape and y of a grid's rows, and their Whittaker
    indices and amplitudes (alpha, beta) as (R, 1) columns."""
    if len({(p.B, p.a) for p in rows}) != 1:
        raise ValueError("grid rows must share one B and one a")
    shape = rows[0].shape()
    idx = [indices(p, pmap).for_sector(sector) for p in rows]
    columns = WhittakerIndices(kappa=np.array([[i.kappa] for i in idx]), mu=np.array([[i.mu] for i in idx]))
    alpha, beta = (np.array(c)[:, None] for c in zip(*(p.amplitudes(sector) for p in rows)))
    return shape, riccati.morse_y(shape, xs), columns, alpha, beta


def wavefunction_derivs_grid(
    rows: Sequence[MorseParameters], sector: Sector, pmap: ParameterMap, xs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """wavefunction_derivs of every parameter row at every x, as three (R, N)
    blocks (w, w', w'') for R rows and N values of x: the triple twin of
    wavefunction_grid.

    The M triple is one block over the rows whose alpha is nonzero, the W
    triple one block over the rows whose beta is nonzero, each over the y
    shared by every row; a row with a zero amplitude never evaluates that
    term. The rows must share B and a.
    """
    xs = np.asarray(xs, dtype=float)
    out = np.zeros((3, len(rows), xs.size), dtype=complex)
    if not rows:
        return tuple(out)
    shape, y, idx, alpha, beta = _grid_columns(rows, sector, pmap, xs)
    g = np.exp(0.5 * shape.a * xs)
    for amp, kernel in ((alpha, specfun.whittaker_m_derivs), (beta, specfun.whittaker_w_derivs)):
        on = amp[:, 0] != 0.0
        if on.any():
            triple = kernel(WhittakerIndices(kappa=idx.kappa[on], mu=idx.mu[on]), y)
            out[:, on] += amp[on] * np.array(_chain_rule(shape.a, g, y, *triple))
    return tuple(out)


# wavefunction_grid takes the W term this many rows at a time, which bounds
# the memory of its quadrature block.
_W_ROWS = 32


def wavefunction_grid(
    rows: Sequence[MorseParameters], sector: Sector, pmap: ParameterMap, xs
) -> np.ndarray:
    """Values alpha (Laguerre-form M) + beta (e^{ax/2} W) of every parameter
    row at every x, as an (R, N) block for R rows and N values of x.

    Both terms are (2B/a)^{1/2} y^mu e^{-y/2} times a core, 1F1 and U
    with the same (mu - kappa + 1/2, 2 mu + 1). The M term is one 1F1
    block over the rows whose alpha is nonzero, its terms taken a chunk at
    a time as one matrix product of the rows' coefficients with the powers
    of y shared by every row; the W term is one U block per _W_ROWS of the
    rows whose beta is nonzero, each one quadrature whose exponentials of
    y are shared by its rows, so it holds one such block of rows at a
    time. A row with a zero amplitude never evaluates that term. The rows
    share one Morse variable y, so B and a must agree; the indices are
    computed per row.
    """
    xs = np.asarray(xs, dtype=float)
    if not rows:
        return np.zeros((0, xs.size), dtype=complex)
    shape, y, idx, alpha, beta = _grid_columns(rows, sector, pmap, xs)
    a, b = idx.series_a, idx.series_b
    core = np.zeros((len(rows), xs.size), dtype=complex)
    on = alpha[:, 0] != 0.0
    if on.any():
        core[on] = alpha[on] * specfun.kummer_m(a[on], b[on], y)
    on = np.flatnonzero(beta[:, 0])
    for r in (on[i : i + _W_ROWS] for i in range(0, on.size, _W_ROWS)):
        core[r] += beta[r] * specfun.tricomi_u(a[r], b[r], y)
    return math.sqrt(2.0 * shape.B / shape.a) * np.exp(idx.mu * np.log(y) - 0.5 * y) * core


HEADER = "x,K,y,re,im"


@dataclass(frozen=True)
class GridSpec:
    """Everything needed to render one figure grid; defaults reproduce the
    published figure parameters."""

    A: float = 1.0
    B: float = 2.0
    a: float = 0.5
    Kprime: float = 2.0
    component: Sector = Sector.BOSONIC
    param_map: ParameterMap = ParameterMap.PRINTED
    alpha: complex = 1.0 + 0.0j
    beta: complex = 0.0 + 0.0j
    x_min: float = 0.0
    x_max: float = 3.0
    nx: int = 61
    K_min: float = 0.0
    K_max: float = 2.0
    nK: int = 41


def render_grid(spec: GridSpec) -> str:
    """CSV text for the grid: K outer loop ascending, x inner ascending; the whole
    K x x block is evaluated in one call, and its failure raised as a RuntimeError
    naming the grid's K and x range.

    x and y are formatted once, into a row template that every K row fills
    with its K and its values; '%.17g' writes the same bytes as
    f'{v:.17g}', signed zeros, nan and inf included.
    """
    xs = np.linspace(spec.x_min, spec.x_max, spec.nx)
    Ks = np.linspace(spec.K_min, spec.K_max, spec.nK).tolist()
    amps = dict(alpha1=spec.alpha, beta1=spec.beta, alpha2=spec.alpha, beta2=spec.beta)
    rows = [MorseParameters(A=spec.A, B=spec.B, a=spec.a, K=K, Kprime=spec.Kprime, **amps) for K in Ks]
    try:
        w = wavefunction_grid(rows, spec.component, spec.param_map, xs)
    except Exception as exc:
        raise RuntimeError(
            f"evaluation failed on the grid K={Ks[0]:.17g} to {Ks[-1]:.17g}, "
            f"x={xs[0]:.17g} to {xs[-1]:.17g}: {exc}"
        ) from exc
    ys = riccati.morse_y(MorseRiccati(A=spec.A, B=spec.B, a=spec.a), xs)
    template = "".join(f"{x:.17g},{{K}},{y:.17g},%.17g,%.17g\n" for x, y in zip(xs.tolist(), ys.tolist()))
    # the header goes in the joined list: prepending it after the join
    # would copy the whole text once more
    lines = [HEADER + "\n"]
    # re and im of each x in turn, converted to Python floats one row at a time
    values = np.stack((w.real, w.imag), -1)
    for K, row in zip(Ks, values):
        lines.append(template.replace("{K}", f"{K:.17g}") % tuple(row.ravel().tolist()))
    return "".join(lines)


def bound_state_exponent(A: float, a: float, n: int, sector: Sector) -> float:
    """The power of y in the hermitic bound-state profile: A/a - n in the
    fermionic sector, one less in the bosonic one, whose states are the
    fermionic ones without the ground state (the SUSY partners)."""
    s = A / a - n
    return s - 1 if sector is Sector.BOSONIC else s


def hermitic_bound_state(A: float, B: float, a: float, n: int, sector: Sector, x: float) -> float:
    """Hermitic (K = 0) bound state n of the sector,
    (2B/a)^{1/2} y^s e^{-y/2} L_n^{2s}(y), up to its constant amplitude."""
    if n < 0:
        raise ValueError(f"require n >= 0, got {n}")
    s = bound_state_exponent(A, a, n, sector)
    if s <= 0.0:
        raise NonNormalizable(f"bound-state exponent {s} <= 0 for n = {n}")
    shape = MorseRiccati(A=A, B=B, a=a)
    y = riccati.morse_y(shape, x)
    return math.sqrt(2.0 * B / a) * y**s * math.exp(-0.5 * y) * specfun.laguerre_poly(n, 2.0 * s, y)


def bound_state_wave_derivs(
    A: float, B: float, a: float, n: int, sector: Sector, x: float
) -> tuple[complex, complex, complex]:
    """(w, w', w'') of bound state n of the sector, up to its constant
    amplitude, at a float x or elementwise over an array of them.

    Uses the exact proportionality of the state to
    e^{ax/2} M_{s+n+1/2, s}(y) (terminating Kummer series), so the
    derivatives are analytic.
    """
    s = bound_state_exponent(A, a, n, sector)
    if s <= 0.0:
        raise NonNormalizable(f"bound-state exponent {s} <= 0 for n = {n}")
    idx = WhittakerIndices(kappa=complex(s + n + 0.5), mu=complex(s))
    return _wave_derivs(idx, MorseRiccati(A=A, B=B, a=a), 1.0, 0.0, x)


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n, empty product = 1."""
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def whittaker_laguerre_identity(n: int, p: float, y: float) -> tuple[complex, float, float]:
    """Both sides of the Whittaker-to-Laguerre reduction.

    Returns (lhs, rhs_printed, rhs_corrected) where
      lhs           = M_{p/2+n+1/2, p/2}(y),
      rhs_printed   = y^{(p+1)/2} e^{-y/2} L_n^p(y)  (as published),
      rhs_corrected = rhs_printed * n! / (p+1)_n     (classical relation).
    """
    if n < 0:
        raise ValueError(f"require n >= 0, got {n}")
    idx = WhittakerIndices(kappa=complex(0.5 * p + n + 0.5), mu=complex(0.5 * p))
    lhs = specfun.whittaker_m_derivs(idx, y)[0]
    rhs_printed = y ** (0.5 * (p + 1.0)) * math.exp(-0.5 * y) * specfun.laguerre_poly(n, p, y)
    rhs_corrected = rhs_printed * math.factorial(n) / pochhammer(p + 1.0, n)
    return lhs, rhs_printed, rhs_corrected
