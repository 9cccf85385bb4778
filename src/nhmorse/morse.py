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
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import riccati, specfun
from .errors import NonNormalizable
from .riccati import MorseRiccati
from .specfun import WhittakerIndices
from .susy import Sector


class ParameterMap(str, Enum):
    PRINTED = "printed"
    DERIVED = "derived"


_POINT_FIELDS = ("K", "Kprime", "alpha1", "beta1", "alpha2", "beta2")


@dataclass(frozen=True)
class MorseParameters:
    """Full parameter record: Morse shape (A, B, a), extension (K, K'),
    and superposition amplitudes for both sectors.

    Defaults reproduce the canonical operating point A=1, B=2, a=0.5,
    K'=2, alpha=1, beta=0. One record also holds R points of one shape:
    K, K' and the amplitudes may each be an (R, 1) column, one row a point.
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
        for name in _POINT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                bad = ~np.isfinite(value)
                if bad.any():
                    raise ValueError(f"require finite {name}, got {name} = {value[bad][0]} in row {bad.nonzero()[0][0]}")
            elif not cmath.isfinite(value):
                raise ValueError(f"require finite {name}, got {name} = {value}")

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


def indices(params: MorseParameters, sector: Sector, pmap: ParameterMap) -> WhittakerIndices:
    """The sector's Whittaker indices (kappa, mu) for the chosen map:
    complex for float K and K', (R, 1) columns where either is a column.

    The published kappa formulas are expanded to the pole-free form
    kappa_{1,2} = A/a +/- 1/2 - iK/a (fermionic +, bosonic -), valid for
    any A. Raises OverflowError where an index is not finite (K^2
    overflows once |K| > 1.3e154), naming the first such row's K and K'.
    """
    A, a, K, Kp = params.A, params.a, params.K, params.Kprime
    half = 0.5 if sector is Sector.FERMIONIC else -0.5
    shift = A * A if pmap is ParameterMap.DERIVED else 0.0
    # in (a mu)^2, + 0.0 turns the -0.0 of A = 0, K > 0 into +0.0, so both maps
    # take the same side of the branch cut (under real and negative): cmath.sqrt
    # is the principal root, Re >= 0, and on the cut Im > 0
    if not (isinstance(K, np.ndarray) or isinstance(Kp, np.ndarray)):
        kappa = A / a - 1j * (K / a) + half
        mu = cmath.sqrt(complex(Kp * Kp - K * K + shift, -2.0 * K * A + 0.0)) / a
        if cmath.isfinite(kappa) and cmath.isfinite(mu):
            return WhittakerIndices(kappa=kappa, mu=mu)
    else:
        # K / a first, as numpy divides a complex by a float through its
        # reciprocal; and mu per row by cmath.sqrt, which np.sqrt misses by
        # an ulp at (a mu)^2 = -4i
        with np.errstate(over="ignore", invalid="ignore"):
            K, Kp = np.broadcast_arrays(K, Kp)
            kappa = A / a - 1j * (K / a) + half
            under = zip((Kp * Kp - K * K + shift).flat, (-2.0 * K * A + 0.0).flat)
        mu = np.array([cmath.sqrt(complex(r, i)) / a for r, i in under], dtype=complex).reshape(K.shape)
        finite = np.isfinite(kappa) & np.isfinite(mu)
        if finite.all():
            return WhittakerIndices(kappa=kappa, mu=mu)
        K, Kp = K[~finite][0], Kp[~finite][0]
    K_text, Kp_text = _g17([K, Kp])
    raise OverflowError(f"Whittaker indices overflow at K = {K_text}, K' = {Kp_text}")


def ode_coefficient(params: MorseParameters, sector: Sector, x) -> complex:
    """Expanded coefficient of the Morse second-order equation.

    -(B_bar e^{-2ax} - C_i e^{-ax}) + (K^2 - K'^2) - A^2 + 2iK(A - B e^{-ax});
    identical (to roundoff) to the generic bracket evaluated on the Morse
    superpotential. x may be a float or an array of x; (R, 1) columns of K
    and K' give an (R, N) block over x of shape (N,).
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


def _positive_y(y, x):
    """y, the (2B/a) e^{-a x} of a float x or an array of x, raising ValueError
    naming x where y underflowed to 0: the W term diverges there, as U(a, b, y)
    needs y > 0."""
    # a float y is compared directly: np.any on it costs 3 us, a tenth of a W point
    if (y == 0.0).any() if isinstance(y, np.ndarray) else y == 0.0:
        raise ValueError(f"y = (2B/a) e^(-a x) underflows to 0 at x = {_g17([np.max(x)])[0]}")
    return y


def _whittaker_form(B: float, a: float, mu, x, y, core):
    """The closed form e^{ax/2} e^{-y/2} y^(mu+1/2) F(y) = P F, where
    P = (2B/a)^{1/2} y^mu e^{-y/2} as e^{ax/2} = (2B/a)^{1/2} y^{-1/2}: its
    value from core = (F,), or (w, w', w'') in x from the core triple
    (F, y F', y^2 F''). With y' = -a y and t = mu + 1/2 - y/2,
      w' = a P ((y/2 - mu) F - y F'),
      w'' = a^2 P ((t^2 - mu - 1/4) F + 2 t y F' + y^2 F'').
    x and y are floats or arrays, mu a number or an (R, 1) column. No y is
    divided by, and far out in x, where y underflows to 0, log y is
    log(2B/a) - a x, so y^mu = e^{mu log y} keeps its value at every finite x.
    """
    if isinstance(y, np.ndarray):
        with np.errstate(divide="ignore"):
            log_y = np.where(y > 0.0, np.log(y), math.log(2.0 * B / a) - a * x)
        exp = np.exp
    else:
        # math and cmath take a float in a fifth of numpy's time
        log_y = math.log(y) if y > 0.0 else math.log(2.0 * B / a) - a * x
        exp = cmath.exp
    p = math.sqrt(2.0 * B / a) * exp(mu * log_y - 0.5 * y)
    if len(core) == 1:
        return p * core[0]
    f, yf1, y2f2 = core
    t = mu + 0.5 - 0.5 * y
    return p * f, a * p * ((0.5 * y - mu) * f - yf1), a * a * p * ((t * t - mu - 0.25) * f + 2.0 * t * yf1 + y2f2)


def wavefunction_derivs(
    params: MorseParameters, sector: Sector, pmap: ParameterMap, x: float
) -> tuple[complex, complex, complex]:
    """Value and first two x-derivatives of the superposed wavefunction
    alpha e^{ax/2} M + beta e^{ax/2} W at one x: the amplitude-weighted core
    triples of 1F1 and U, then _whittaker_form.

    A term is only evaluated when its amplitude is nonzero, so W-only
    parameter sets never reach the rejections of the Kummer core; the core
    derivatives are analytic, not taken from the equation.
    """
    idx = indices(params, sector, pmap)
    y = riccati.morse_y(params.shape(), x)
    a, b = idx.series_a, idx.series_b
    alpha, beta = params.amplitudes(sector)
    core = (0j, 0j, 0j)
    if alpha != 0.0:
        core = [alpha * f for f in specfun.kummer_m_derivs(a, b, y)]
    if beta != 0.0:
        core = [c + beta * u for c, u in zip(core, specfun.tricomi_u_derivs(a, b, _positive_y(y, x)))]
    return _whittaker_form(params.B, params.a, idx.mu, x, y, core)


# wavefunction_grid takes the W term this many rows at a time, which bounds
# the memory of its quadrature block.
_W_ROWS = 32


def wavefunction_grid(params: MorseParameters, sector: Sector, pmap: ParameterMap, xs, derivs: bool = False):
    """alpha e^{ax/2} M + beta e^{ax/2} W of every parameter row at every x:
    its values as an (R, N) block for R rows and N values of x, or with
    derivs, (w, w', w'') as three such blocks, each row and x as
    wavefunction_derivs gives them. R is the length of the fields that are
    (R, 1) columns, or 1 where every field is a number.

    Both terms are (2B/a)^{1/2} y^mu e^{-y/2} times a core, 1F1 and U
    with the same (mu - kappa + 1/2, 2 mu + 1): the cores (or their
    triples) are summed, weighted by the amplitudes, and _whittaker_form
    applies the prefactor once. The M term is one 1F1 block over the rows
    whose alpha is nonzero, its terms taken a chunk at a time as one matrix
    product of the rows' coefficients with the powers of y shared by every
    row; the W term is one U block per _W_ROWS of the rows whose beta is
    nonzero, each one quadrature whose exponentials of y are shared by its
    rows, so it holds one such block of rows at a time. A row with a zero
    amplitude never evaluates that term.
    """
    shapes = {name: np.shape(getattr(params, name)) for name in _POINT_FIELDS}
    for name, field_shape in shapes.items():
        if field_shape != () and field_shape[1:] != (1,):
            raise ValueError(f"{name} must be a number or an (R, 1) column, got shape {field_shape}")
    rows = np.broadcast_shapes((1, 1), *shapes.values())
    idx = indices(params, sector, pmap)
    mu, a, b, alpha, beta = (np.broadcast_to(v, rows) for v in (idx.mu, idx.series_a, idx.series_b, *params.amplitudes(sector)))
    xs = np.asarray(xs, dtype=float)
    y = riccati.morse_y(params.shape(), xs)
    core = np.zeros((3 if derivs else 1, len(alpha), xs.size), dtype=complex)
    on = alpha[:, 0] != 0.0
    if on.any():
        m = specfun.kummer_m_derivs(a[on], b[on], y) if derivs else [specfun.kummer_m(a[on], b[on], y)]
        core[:, on] = alpha[on] * np.array(m)
    on = np.flatnonzero(beta[:, 0])
    if on.size:
        _positive_y(y, xs)
    for r in (on[i : i + _W_ROWS] for i in range(0, on.size, _W_ROWS)):
        core[:, r] += beta[r] * np.array(specfun.tricomi_u_derivs(a[r], b[r], y)[: len(core)])
    return _whittaker_form(params.B, params.a, mu, xs, y, core)


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


# Tables of _format_g17.
_SPLIT = 134217729.0  # 2^27 + 1


def _powers_of_ten() -> np.ndarray:
    """10^s for s = 0..21, an exact double (5^21 < 2^53), and its Dekker
    split hi + lo, as three rows."""
    power = np.array([float(10**s) for s in range(22)])
    hi = _SPLIT * power - (_SPLIT * power - power)
    return np.array([power, hi, power - hi])


_POW10 = _powers_of_ten()
# by k = E + 4 of N 10^(E-16): the factor 10^(k mod 8) that aligns N to
# the 8-digit limbs of the places 19 to -20, and the 4-digit group of the
# places 19 - 4j to 16 - 4j at which the first of its three limbs starts
_LIMB_SCALE = 10 ** (np.arange(21) % 8)
_LIMB_GROUP = 4 - 2 * (np.arange(21) // 8)
# the sign as the first byte in memory of a little-endian word
_MINUS = np.uint32(ord("-"))
# offsets of the variants of _digit_words
_LEAD, _LEAD0, _TRAIL = np.uint16(10000), np.uint16(20000), np.uint16(30000)


def _decades() -> np.ndarray:
    """The least double >= 10^e for e = -5..17, at index e + 5."""
    out = []
    for e in range(-5, 18):
        # the double nearest 10^e: int to float and int / int round correctly
        d = float(10**e) if e >= 0 else 1 / 10**-e
        n, m = d.as_integer_ratio()
        if n * 10 ** max(-e, 0) < m * 10 ** max(e, 0):  # d = n/m < 10^e
            d = math.nextafter(d, math.inf)
        out.append(d)
    return np.array(out)


_DECADES = _decades()
# by the biased exponent field b of a double a = m 2^(b - 1023), m in
# [1, 2): floor((b - 1023) log10 2), which is floor(log10 a) or one less
# (clipped to the decades above), and the least double >= 10^(that + 1)
_B_DECADE = np.clip((np.arange(2048) - 1023) * 78913 >> 18, -6, 16)
_B_NEXT_DECADE = _DECADES[_B_DECADE + 6]


@functools.cache
def _digit_words() -> np.ndarray:
    """The four ASCII digits of each of 0..9999 as one little-endian uint32
    in memory order, in four variants of 10000 words: every digit; leading
    zeros as NUL; the same but keeping the last digit; trailing zeros as
    NUL. Built on first use and read-only, so a program that writes no grid
    never holds it."""
    digits = np.moveaxis(np.indices((10,) * 4, dtype=np.uint8), 0, -1).reshape(10000, 4) + np.uint8(48)
    nonzero = digits != 48
    lead = np.logical_or.accumulate(nonzero, axis=1)
    lead0 = lead | (np.arange(4) == 3)
    trail = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    words = np.array([digits, digits * lead, digits * lead0, digits * trail]).view("<u4").ravel()
    words.flags.writeable = False
    return words


def _round17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, E, fixed): |v| rounded half-to-even to 17 digits as N 10^(E-16),
    10^16 <= N < 10^17, where '%.17g' writes v in fixed notation (rounded
    |v| in [1e-4, 1e17)); N = E = 0 elsewhere, and fixed marks those
    elements and ±0.

    E = floor(log10|v|) comes from the binary exponent and one comparison
    with the least double >= 10^(E+1). |v| 10^(16-E) is the exact
    double-double hi + lo (Dekker's TwoProduct; 10^(16-E) is an exact
    double), and N = hi + rint(lo) is its half-to-even rounding, since hi
    is an even integer >= 2^53. N never rounds up to 10^17: that needs a
    double within 5e-18 (relative) below 10^(E+1), and for every power of
    ten from 1e-4 to 1e17 the nearest double below it is 8e-17 or more away.
    """
    a = np.abs(v)
    # the elements whose rounded |v| is in [1e-4, 1e17): no double below
    # 1e-4 or 1e17 rounds up to it
    fast = (a >= _DECADES[1]) & (a < 1e17)
    a[~fast] = 1.0
    b = a.view(np.int64) >> 52
    E = _B_DECADE.take(b)
    E += a >= _B_NEXT_DECADE.take(b)
    power = _POW10.take(16 - E, axis=1)
    hi = a * power[0]
    # Veltkamp's split of a into a_hi + a_lo; the partial products of
    # a_hi + a_lo and the split of 10^(16-E) are exact, and so is their sum
    # with -hi in this order
    a_split = np.empty((2, a.size))
    a_hi, a_lo = a_split
    np.multiply(a, _SPLIT, out=a_hi)
    np.subtract(a_hi, a, out=a_lo)
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    by_hi = a_split * power[1]
    a_split *= power[2]
    lo = by_hi[0]
    lo -= hi
    lo += a_split[0]
    lo += by_hi[1]
    lo += a_split[1]
    N = hi.astype(np.int64)
    N += np.rint(lo, out=lo).astype(np.int64)
    N[~fast] = 0
    E[~fast] = 0
    return N, E, fast | (v == 0.0)


def _digit_groups(N: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The ten 4-digit groups of N 10^(E+4) < 10^37 as the rows of a uint16
    array, most significant first: group j holds the decimal places 19 - 4j
    to 16 - 4j, so the last five are the fraction (places -1 to -20)."""
    # five 8-digit limbs, the places 19 to -20: N 10^(k mod 8) < 10^24,
    # k = E + 4, fills the three of them that end k div 8 limbs before the
    # last, and its six groups start at group _LIMB_GROUP[k], 0, 2 or 4
    k = E + 4
    high_low = np.empty((2, N.size), np.int64)
    high, low = high_low
    np.floor_divide(N, 10**8, out=high)
    np.multiply(high, -(10**8), out=low)
    low += N
    high_low *= _LIMB_SCALE.take(k)
    carry = high_low // 10**8
    high_low -= carry * 10**8
    limbs = np.empty((3, N.size), np.int32)
    limbs[0] = carry[0]
    np.add(high, carry[1], out=limbs[1], casting="unsafe")
    limbs[2] = low
    split = np.empty((6, N.size), np.uint16)
    split[0::2] = upper = limbs // 10**4
    split[1::2] = limbs - upper * 10**4
    # one masked sum per start: a put_along_axis scatter of the six rows
    # takes about 30 times as long as a slice copy
    groups = np.zeros((10, N.size), np.uint16)
    at = _LIMB_GROUP.take(k)
    for start in (0, 2, 4):
        groups[start : start + 6] += split * (at == start)
    return groups


def _format_g17(values) -> np.ndarray:
    """The '%.17g' text of every element of a float array, as the rows of an
    (M, W) uint8 array: row i with its NUL bytes deleted is
    b'%.17g' % values.flat[i].

    ±0 and the values that '%.17g' writes in fixed notation take an array
    path: _round17 rounds them exactly, and N 10^(E+4) is laid out about a
    fixed point in 4-digit table words whose leading (integer) and
    trailing (fraction) zeros are NUL, as %g strips them. The integer words
    start one place above every element's highest digit, and the sign
    takes that place; the point takes a byte. Every other element (nan,
    ±inf, subnormals, scientific notation) is formatted by '%.17g' itself.
    """
    v = np.asarray(values, dtype=float).ravel()
    N, E, fixed = _round17(v)
    groups = _digit_groups(N, E)
    top = max(int(E.max(initial=0)), 0)
    first = (18 - top) // 4
    n_int = 5 - first
    # integer group j drops its leading zeros, the units group keeping its
    # last digit, where it holds the element's highest digit (place
    # max(E, 0)) or lies above it
    for j in range(first, 5):
        variant = _LEAD0 if j == 4 else _LEAD
        groups[j] += variant if 19 - 4 * j >= top else variant * (E <= 19 - 4 * j)
    # zero[j]: fraction group j and those after it are all zero. A fraction
    # group drops its trailing zeros where every group after it is zero,
    # and only the groups that hold a digit of some element are written.
    frac = groups[5:]
    zero = frac == 0
    for j in range(3, -1, -1):
        zero[j] &= zero[j + 1]
    frac[:-1] += _TRAIL * zero[1:]
    frac[-1] += _TRAIL
    n_frac = 5 - int(np.count_nonzero(zero.all(axis=1)))
    slow = [] if fixed.all() else np.flatnonzero(~fixed)
    texts = [b"%.17g" % x for x in v[slow].tolist()]
    fixed_width = 4 * n_int + (1 + 4 * n_frac if n_frac else 0)
    width = max([fixed_width] + [len(t) for t in texts])
    words = _digit_words()
    int_words = words.take(groups[first:5], mode="wrap")
    int_words[0] |= np.signbit(v) * _MINUS
    out = np.empty((v.size, width), np.uint8)
    if width > fixed_width:
        out[:, fixed_width:] = 0
    out[:, : 4 * n_int].view("<u4")[...] = int_words.T
    if n_frac:
        out[:, 4 * n_int] = np.where(zero[0], 0, ord("."))
        out[:, 4 * n_int + 1 : fixed_width].view("<u4")[...] = words.take(groups[5 : 5 + n_frac], mode="wrap").T
    if texts:
        out[slow] = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint8).reshape(-1, width)
    return out


def _g17(values) -> list[str]:
    """'%.17g' % v for every element v of values, by _format_g17."""
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in _format_g17(values)]


# render_grid formats and lays out at most this many points of the grid at
# a time, which bounds the memory of its byte blocks.
_GRID_BLOCK = 4096


def _packed(*columns) -> list[np.ndarray]:
    """The '%.17g' text of every element of each column, left-aligned in
    NUL-padded uint8 rows of the fewest bytes, one array per column. The
    columns are formatted together, 2 _GRID_BLOCK values at a time, and
    each block's texts taken apart by one NUL-deleting translate."""
    values = np.concatenate([np.asarray(c, dtype=float).ravel() for c in columns])
    texts, lengths = [np.zeros(0, "S1")], [np.zeros(0, np.intp)]
    for i in range(0, values.size, 2 * _GRID_BLOCK):
        rows = _format_g17(values[i : i + 2 * _GRID_BLOCK])
        lines = np.zeros((len(rows), rows.shape[1] + 1), np.uint8)
        lines[:, :-1] = rows
        lines[:, -1] = ord("\n")
        texts.append(np.array(lines.tobytes().translate(None, b"\0").split(b"\n")[:-1], dtype="S"))
        lengths.append(np.count_nonzero(rows, axis=1))
    bounds = np.cumsum([np.size(c) for c in columns])[:-1]
    out = []
    for text, length in zip(np.split(np.concatenate(texts), bounds), np.split(np.concatenate(lengths), bounds)):
        width = max(int(length.max(initial=0)), 1)
        out.append(text.astype(f"S{width}").view(np.uint8).reshape(text.size, width))
    return out


def render_grid(spec: GridSpec) -> str:
    """CSV text for the grid: K outer loop ascending, x inner ascending; the whole
    K x x block is evaluated in one call, and its failure raised as a RuntimeError
    naming the grid's K and x range.

    Every number is written by _format_g17, the bytes of '%.17g': x, K and
    y once for the grid, by _packed, and re and im in blocks of at most
    _GRID_BLOCK points, whole K rows or, where a row is longer, a column
    range of one row. Each block is laid out as one uint8 array, one row
    per line: the x, K, y, re and im fields, each followed by its
    separator; deleting its NUL bytes leaves the block's lines of the CSV.
    """
    xs = np.linspace(spec.x_min, spec.x_max, spec.nx)
    Ks = np.linspace(spec.K_min, spec.K_max, spec.nK)
    amps = dict(alpha1=spec.alpha, beta1=spec.beta, alpha2=spec.alpha, beta2=spec.beta)
    params = MorseParameters(A=spec.A, B=spec.B, a=spec.a, K=Ks[:, None], Kprime=spec.Kprime, **amps)
    try:
        w = wavefunction_grid(params, spec.component, spec.param_map, xs)
    except Exception as exc:
        K_first, K_last, x_first, x_last = _g17([Ks[0], Ks[-1], xs[0], xs[-1]])
        raise RuntimeError(
            f"evaluation failed on the grid K={K_first} to {K_last}, x={x_first} to {x_last}: {exc}"
        ) from exc
    ys = riccati.morse_y(MorseRiccati(A=spec.A, B=spec.B, a=spec.a), xs)
    x_text, K_text, y_text = _packed(xs, Ks, ys)
    chunks = [HEADER + "\n"]
    cols = max(1, min(xs.size, _GRID_BLOCK))
    rows = max(1, _GRID_BLOCK // cols)
    for r in range(0, Ks.size, rows):
        for c in range(0, xs.size, cols):
            block = w[r : r + rows, c : c + cols]
            text = _format_g17(block.view(float))
            values = text.reshape(*block.shape, 2, text.shape[1])
            fields = (x_text[c : c + cols], K_text[r : r + rows, None], y_text[c : c + cols], values[..., 0, :], values[..., 1, :])
            widths = [f.shape[-1] for f in fields]
            line = sum(widths) + len(fields)
            buffer = bytearray(block.size * line)
            lines = np.frombuffer(buffer, np.uint8).reshape(*block.shape, line)
            at = 0
            for field, width, sep in zip(fields, widths, b",,,,\n"):
                lines[..., at : at + width] = field
                lines[..., at + width] = sep
                at += width + 1
            chunks.append(buffer.translate(None, b"\0").decode("ascii"))
    return "".join(chunks)


def bound_state_exponent(A: float, a: float, n: int, sector: Sector) -> float:
    """The power of y in the hermitic bound-state profile: A/a - n in the
    fermionic sector, one less in the bosonic one, whose states are the
    fermionic ones without the ground state (the SUSY partners)."""
    s = A / a - n
    return s - 1 if sector is Sector.BOSONIC else s


def bound_state_wave_derivs(
    A: float, B: float, a: float, n: int, sector: Sector, x: float
) -> tuple[complex, complex, complex]:
    """(w, w', w'') of bound state n of the sector, up to its constant
    amplitude, at a float x or elementwise over an array of them: the state
    is e^{ax/2} M_{s+n+1/2, s}(y), whose core 1F1(-n; 2s+1; y) is
    c L_n^{2s}(y), c = n!/(2s+1)_n, with the analytic y-derivatives
    -c L_{n-1}^{2s+1}(y) and c L_{n-2}^{2s+2}(y), all three from one pass of
    the Laguerre recurrence; c is a product of ratios, as n! overflows past 170."""
    s = bound_state_exponent(A, a, n, sector)
    if s <= 0.0:
        raise NonNormalizable(f"bound-state exponent {s} <= 0 for n = {n}")
    y = riccati.morse_y(MorseRiccati(A=A, B=B, a=a), x)
    # the (degree, order) rows (n - k, 2s + k), k = 0, 1, 2, against every y
    k = np.arange(3).reshape((3,) + (1,) * np.ndim(y))
    c = math.prod(j / (2.0 * s + j) for j in range(1, n + 1))
    f, f1, f2 = (-1.0) ** k * c * specfun.laguerre_poly(n - k, 2.0 * s + k, y)
    return _whittaker_form(B, a, complex(s), x, y, (f, y * f1, y * (y * f2)))
