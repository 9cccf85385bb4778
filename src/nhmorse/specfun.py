"""Complex special-function kernel.

Log-gamma, Kummer (regular) and Tricomi (recessive) confluent
hypergeometric functions with complex parameters, Whittaker M/W with their
first two derivatives, and classical associated Laguerre polynomials.

Each quantity has one entry point, which takes a float or a numpy array.
Float 1F1 values come from one loop, `_kummer_pass`. On an array,
`kummer_m` sums its series once over arguments sharing one parameter
set, or (R, 1) columns of per-row parameters giving an (R, N) block. A
Kummer sum that overflows raises NonConvergence rather than return inf
or NaN.

The Whittaker triples (value and first two derivatives) are the only
Whittaker entry points. M's derivatives come from the term-by-term
differentiated series: one pass over the 1F1 terms gives all three sums.
U and its derivatives come from one kernel, its Laplace integral summed on
exp-sinh nodes, whose weights gain a factor -t per derivative; it serves
`tricomi_u` and `whittaker_w_derivs`, for every complex a and b and any
z > 0, a float or an array.

Conventions fixed here and used everywhere else in the library:
  * double precision throughout; every complex power, root and logarithm
    is taken on the principal branch (argument in (-pi, pi]);
  * the function argument of the confluent/Whittaker family is real: z >= 0
    for 1F1 (kummer_m and verify.reference_kummer; z < 0 raises
    ValueError), z > 0 for Tricomi/Whittaker; parameters may be complex;
  * one pole rule: b within _INTEGER_TOL of a nonpositive integer raises
    ParameterPole unless the series terminates first;
  * all functions are pure and hold no mutable state, so repeated calls
    with identical inputs are bit-identical and thread-safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, ParameterPole, PoleError

# Kummer series controls: stop once three consecutive terms fall below
# _STOP_REL of the running sum, give up at _MAX_TERMS.
_MAX_TERMS = 10_000
_STOP_REL = 1e-17
# A parameter this close to a nonpositive integer counts as that integer.
_INTEGER_TOL = 1e-12

# Lanczos approximation, g = 7, 9 coefficients (Godfrey/Pugh set).
# Valid for Re z > 0; the reflection formula covers the left half plane.
_LANCZOS_G = 7
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _integer_near(z: complex):
    """Return the nonpositive integer within _INTEGER_TOL of z, or None."""
    r = round(z.real)
    if abs(z - r) <= _INTEGER_TOL and r <= 0:
        return r
    return None


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z) for complex z.

    Lanczos rational approximation on Re z >= 0.5, reflection formula on
    the left half plane (there the imaginary part is correct only modulo
    2*pi*i, which is immaterial for the gamma *ratios* this library
    exponentiates).
    """
    z = complex(z)
    if _integer_near(z) is not None:
        raise PoleError(f"log_gamma pole at z = {z}")
    if z.real < 0.5:
        # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
        return math.log(math.pi) - cmath.log(cmath.sin(math.pi * z)) - log_gamma(1.0 - z)
    zz = z - 1.0
    s = complex(_LANCZOS[0])
    for i in range(1, len(_LANCZOS)):
        s += _LANCZOS[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (zz + 0.5) * cmath.log(t) - t + cmath.log(s)


def _terminating_degree(a: complex):
    """If a is (numerically) a nonpositive integer -n, return n, else None."""
    r = _integer_near(a)
    return None if r is None else -r


def _kummer_pass(a: complex, b: complex, z):
    """(S0, S1, S2) = sums of t_n, n t_n and n(n-1) t_n over the terms t_n
    of 1F1(a; b; z) in one pass, the one float 1F1 loop: 1F1 then has value
    S0, first derivative S1/z and second derivative S2/z^2.

    A terminating series (a a nonpositive integer -n) sums its n terms;
    otherwise each sum stops once three consecutive terms fall below
    _STOP_REL of it. Overflow raises NonConvergence. A numpy array z is
    summed by _kummer_pass_row.
    """
    if isinstance(z, np.ndarray):
        return _kummer_pass_row(a, b, z)
    n_term = _terminating_degree(a)
    stop = _STOP_REL if n_term is None else -1.0
    term = s0 = 1.0 + 0.0j
    s1 = s2 = 0j
    small = 0
    for n in range(_MAX_TERMS if n_term is None else n_term):
        term *= (a + n) / (b + n) * z / (n + 1)
        d1 = (n + 1) * term
        d2 = n * d1
        s0 += term
        s1 += d1
        s2 += d2
        if abs(term) <= stop * abs(s0) and abs(d1) <= stop * abs(s1) and abs(d2) <= stop * abs(s2):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    if not (cmath.isfinite(s0) and cmath.isfinite(s1) and cmath.isfinite(s2)):
        raise NonConvergence(f"kummer series did not converge: overflow at a={a}, b={b}, z={z}")
    if n_term is None and small < 3:
        raise NonConvergence(f"kummer series did not converge: a={a}, b={b}, z={z}")
    return s0, s1, s2


def _excess(terms: np.ndarray, sums: np.ndarray) -> float:
    """The largest |term| - _STOP_REL |sum| over an array (-inf if it is
    empty): at most 0 once every term is negligible, NaN once an element
    is NaN or both are infinite, so that an overflowed array sum stops at
    once."""
    return (np.abs(terms) - _STOP_REL * np.abs(sums)).max(initial=-math.inf)


def _at_first(a, b, zs: np.ndarray, bad: np.ndarray) -> str:
    """'a=..., b=..., z=...' of the first element where bad is set, a and b
    broadcast against zs."""
    i = np.unravel_index(np.argmax(bad), bad.shape)
    a_i, b_i, z_i = (np.broadcast_to(v, bad.shape)[i] for v in (a, b, zs))
    return f"a={a_i}, b={b_i}, z={z_i}"


# overflow raises NonConvergence here, so numpy need not warn of it
@np.errstate(over="ignore", invalid="ignore")
def _kummer_pass_row(a: complex, b: complex, zs: np.ndarray):
    """_kummer_pass at every z of an array, a and b scalars: the same
    terms, summed once over the whole array, and the stopping rule holding
    at every element."""
    n_term = _terminating_degree(a)
    term = np.ones(zs.shape, dtype=complex)
    s0, s1, s2 = term.copy(), np.zeros_like(term), np.zeros_like(term)
    small = 0
    for n in range(_MAX_TERMS if n_term is None else n_term):
        term *= (a + n) / (b + n) / (n + 1) * zs
        d1 = (n + 1) * term
        d2 = n * d1
        s0 += term
        s1 += d1
        s2 += d2
        excess = _excess(term, s0) if n_term is None else math.inf
        small = small + 1 if excess <= 0.0 and _excess(d1, s1) <= 0.0 and _excess(d2, s2) <= 0.0 else 0
        if small >= 3 or math.isnan(excess):
            break
    bad = ~(np.isfinite(s0) & np.isfinite(s1) & np.isfinite(s2))
    if bad.any():
        raise NonConvergence(f"kummer series did not converge: overflow at {_at_first(a, b, zs, bad)}")
    if n_term is None and small < 3:
        raise NonConvergence(f"kummer series did not converge: a={a}, b={b}, z up to {zs.max()}")
    return s0, s1, s2


# overflow raises NonConvergence here, so numpy need not warn of it
@np.errstate(over="ignore", invalid="ignore")
def _kummer_series_row(a: np.ndarray, b: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """1F1(a; b; z) summed over a block of z at once, a and b of one shape
    (a single row, or a column of per-row values) broadcast against zs.

    The terms of _kummer_pass, with its terminating-series rule per row: a
    row whose a is a nonpositive integer -n stops after its n terms. The
    sum stops once three consecutive terms fall below _STOP_REL of the
    running sum at every element, and at once when an element overflows.
    """
    degrees = [_terminating_degree(x) for x in a.ravel().tolist()]
    n_stop = np.array([math.inf if d is None else d for d in degrees]).reshape(a.shape)
    n_last = max((d for d in degrees if d is not None), default=0)
    terminating = None not in degrees
    term = np.ones(np.broadcast(a, zs).shape, dtype=complex)
    total = term.copy()
    small = 0
    for n in range(n_last if terminating else max(_MAX_TERMS, n_last + 3)):
        # rows past their last term get a zero ratio, without dividing by
        # the b + n that may vanish there
        live = n < n_stop
        term *= np.where(live, (a + n) / np.where(live, b + n, 1.0), 0.0) / (n + 1) * zs
        total += term
        excess = _excess(term, total) if n + 1 >= n_last else math.inf
        small = small + 1 if excess <= 0.0 else 0
        if small >= 3 or math.isnan(excess):
            break
    bad = ~np.isfinite(total)
    if bad.any():
        raise NonConvergence(f"kummer series did not converge: overflow at {_at_first(a, b, zs, bad)}")
    if not terminating and small < 3:
        unsettled = np.abs(term) > _STOP_REL * np.abs(total)
        raise NonConvergence(f"kummer series did not converge: {_at_first(a, b, zs, unsettled)}")
    return total


def _check_kummer_b(a: complex, b: complex) -> None:
    """Reject b at a nonpositive integer unless the series terminates first."""
    pole = _integer_near(b)
    if pole is not None:
        n_term = _terminating_degree(a)
        if n_term is None or n_term > -pole:
            raise ParameterPole(f"kummer_m: b = {b} at a nonpositive integer")


def kummer_m(a, b, z):
    """Confluent hypergeometric function 1F1(a; b; z) at a float z, or at
    every z of a numpy array, one series summed over all of them; z >= 0.

    A float z takes the one float loop, _kummer_pass's. For an array z, a
    and b are scalars, giving an array of the shape of z, or (R, 1) columns
    of per-row values, giving an (R, N) block for N values of z; each row
    is checked like a float call, and a rejection names that row's b.
    Terminating series (a a nonpositive integer) are allowed even for b at
    a nonpositive integer, provided the numerator zero comes first.
    """
    if np.any(z < 0.0):
        raise ValueError(f"kummer_m requires z >= 0, got min z = {np.min(z)}")
    if isinstance(z, np.ndarray):
        a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
        for ai, bi in zip(a.ravel().tolist(), b.ravel().tolist()):
            _check_kummer_b(ai, bi)
        return _kummer_series_row(a, b, z.astype(float, copy=False))
    a, b, z = complex(a), complex(b), float(z)
    _check_kummer_b(a, b)
    return _kummer_pass(a, b, z)[0]


# Tricomi U and its first two derivatives come from the Laplace integral
# (DLMF 13.4.4)
#   U^(k)(a, b, z) = (-1)^k / Gamma(a) int_0^inf e^{-zt} t^{a-1+k} (1+t)^{b-a-1} dt,
# summed by the trapezoidal rule on exp-sinh nodes t = exp(pi/2 sinh s),
# s in [-5, 5] (Takahasi and Mori, 1974). The table holds the nodes of the
# finest step 2^-_ES_FINEST; those of step 2^-k are every 2^(_ES_FINEST-k)-th
# of them, so halving the step adds only the midpoints. Far out (z beyond
# about 1e-20 or 1e20) even the finest step no longer resolves the
# integrand's peak, and the quadrature raises NonConvergence rather than
# return a wrong sum.
_ES_FIRST = 3
_ES_FINEST = 8
# Halve the step until no sum moves by more than this share of itself; the
# trapezoidal error falls roughly as its square with each halving.
_ES_TOL = 1e-7
# Nodes whose integrand is below e^-_ES_CUT of its largest are dropped.
_ES_CUT = 40.0
_es_s = np.arange(-5 * 2**_ES_FINEST, 5 * 2**_ES_FINEST + 1) / 2**_ES_FINEST
_es_log_t = 0.5 * math.pi * np.sinh(_es_s)
_ES_T = np.exp(_es_log_t)
# log t, log(1+t), log dt/ds, -t and 1 at every node: their dot product with
# (a-1, b-a-1, 1, z, -log Gamma(a)) is the log of the integrand times dt/ds
_ES_LOGS = np.stack((
    _es_log_t,
    np.log1p(_ES_T),
    np.log(0.5 * math.pi * np.cosh(_es_s)) + _es_log_t,
    -_ES_T,
    np.ones_like(_ES_T),
))
# t^k and t^k t/(1+t), k = 0, 1, 2: the factors that turn the integrand of U
# at a into those of its derivatives and of U at a + 1 (times a)
_es_r = _ES_T / (1.0 + _ES_T)
_ES_POWERS = np.stack((np.ones_like(_ES_T), _ES_T, _ES_T**2, _es_r, _es_r * _ES_T, _es_r * _ES_T**2))


def _positive(y, name: str):
    """y as a float, or as a float array when it is one; y > 0 throughout."""
    row = isinstance(y, np.ndarray)
    y = y.astype(float, copy=False) if row else float(y)
    if np.any(y <= 0.0) if row else y <= 0.0:
        raise ValueError(f"{name} requires arguments > 0, got min = {np.min(y)}")
    return y


def _tricomi_quadrature(a: complex, b: complex, z):
    """(U, U', U'') at a and at a + 1, Re a >= 1, from one set of nodes: the
    weights of the derivatives gain factors of -t, and those at a + 1 a
    factor t / ((1+t) a). z is a float or an array.

    The nodes serve the whole z range: where the integrands of U at the
    largest z and of U'' at the smallest z are below e^-_ES_CUT of their
    peaks, every z's integrand is, so those nodes are dropped.
    """
    row = isinstance(z, np.ndarray)
    if row and z.size == 0:
        return (np.zeros(z.shape, dtype=complex),) * 6
    z_lo, z_hi = (float(z.min()), float(z.max())) if row else (z, z)
    c = b - a - 1.0
    step = 2 ** (_ES_FINEST - _ES_FIRST)
    # log sizes, on the coarsest nodes, of the integrands of U at z_hi and of
    # U'' at z_lo; the kept window reaches one coarse node past each
    env = np.array([[a.real - 1.0, c.real, 1.0, z_hi, 0.0], [a.real + 1.0, c.real, 1.0, z_lo, 0.0]])
    env = env @ _ES_LOGS[:, ::step]
    last = env.shape[1] - 1
    i = max(np.argmax(env[0] >= env[0].max() - _ES_CUT) - 1, 0) * step
    j = min(last + 1 - np.argmax(env[1, ::-1] >= env[1].max() - _ES_CUT), last) * step
    coef = np.array([a - 1.0, c, 1.0, z_lo, -log_gamma(a)])

    def node_sum(nodes: slice):
        # the six sums over the given nodes, each integrand taken at z_lo
        # and carried to every z by e^{(z_lo - z) t} <= 1
        w = np.exp(coef @ _ES_LOGS[:, nodes])
        if not row:
            return _ES_POWERS[:, nodes] @ w
        # a real product for the (z, node) block: real and imaginary parts
        # of the weights side by side
        x = _ES_POWERS[:, nodes] * w
        s = np.exp(np.multiply.outer(z_lo - z, _ES_T[nodes])) @ np.concatenate((x.real, x.imag)).T
        return s[:, :6] + 1j * s[:, 6:]

    h = 2.0**-_ES_FIRST
    sums = h * node_sum(slice(i, j + 1, step))
    for _ in range(_ES_FIRST, _ES_FINEST):
        step //= 2
        h /= 2.0
        halved = 0.5 * sums + h * node_sum(slice(i + step, j, 2 * step))
        done = np.all(np.abs(halved - sums) <= _ES_TOL * np.abs(halved))
        sums = halved
        if done:
            break
    else:
        raise NonConvergence(f"tricomi_u quadrature did not converge: a={a}, b={b}, z in [{z_lo}, {z_hi}]")
    u, du, d2u, v, dv, d2v = sums.T if row else sums.tolist()
    return u, -du, d2u, v / a, -dv / a, d2v / a


def _tricomi_derivs(a: complex, b: complex, z):
    """(U, dU/dz, d2U/dz2) of U(a, b, z) at a float z > 0, or elementwise
    over an array of them; any complex a and b.

    The quadrature gives the triples at a0 = a + n and a0 + 1, n the least
    shift that makes Re a0 >= 1; the three-term recurrence in a (DLMF
    13.3.7), differentiated in z, takes them down to a. Downward is its
    stable direction for Re a > 0, U being the minimal solution as a grows
    (Gil, Segura and Temme, Numerical Methods for Special Functions, ch. 4);
    below that, at small z, each step can multiply the rounding error by a
    few. At a nonpositive integer -m, U is a polynomial in z, and the
    recurrence starts from U(0, b, z) = 1, which needs no U(1): its
    coefficient vanishes at a = 0. Started from Re a0 >= 1 instead, it
    would cancel the large z^(1-b) parts of the seeds down to that
    polynomial.
    """
    if a.imag == 0.0 and a.real <= 0.0 and a.real.is_integer():
        n, a0 = -int(a.real), 0.0
        one = np.ones_like(z, dtype=complex) if isinstance(z, np.ndarray) else 1.0 + 0.0j
        u, du, d2u, v, dv, d2v = one, 0.0 * one, 0.0 * one, 0.0, 0.0, 0.0
    else:
        n = max(0, math.ceil(1.0 - a.real))
        a0 = a + n
        u, du, d2u, v, dv, d2v = _tricomi_quadrature(a0, b, z)
    for m in range(n):
        # U(e - 1) = -(b - 2e - z) U(e) - e (e - b + 1) U(e + 1), e = a0 - m
        e = a0 - m
        p, q = b - 2.0 * e - z, e * (e - b + 1.0)
        u, du, d2u, v, dv, d2v = (
            -(p * u + q * v), u - p * du - q * dv, 2.0 * du - p * d2u - q * d2v, u, du, d2u
        )
    return u, du, d2u


def tricomi_u(a: complex, b: complex, z) -> complex:
    """Tricomi confluent hypergeometric function U(a, b, z) at a float z > 0,
    or elementwise over an array of them; a and b any complex numbers."""
    return _tricomi_derivs(complex(a), complex(b), _positive(z, "tricomi_u"))[0]


@dataclass(frozen=True)
class WhittakerIndices:
    """The complex index pair (kappa, mu) of a Whittaker function."""

    kappa: complex
    mu: complex

    @property
    def series_a(self) -> complex:
        return self.mu - self.kappa + 0.5

    @property
    def series_b(self) -> complex:
        return 2.0 * self.mu + 1.0


def _core_derivs(core, core_d1, core_d2, mu: complex, y):
    """Value and first two y-derivatives of e^{-y/2} y^{mu+1/2} F(y), at a
    float y or elementwise over an array.

    The core derivatives are supplied analytically (term-by-term
    differentiated series), never through the differential equation, so
    residual checks built on these stay non-circular.
    """
    s = mu + 0.5
    # the prefactor e^{-y/2} y^s, principal branch of the power
    if isinstance(y, np.ndarray):
        pre = np.exp(-0.5 * y + s * np.log(y))
    else:
        pre = cmath.exp(-0.5 * y + s * math.log(y))
    l1 = -0.5 + s / y  # (d/dy prefactor) / prefactor
    l2 = l1 * l1 - s / (y * y)  # (d2/dy2 prefactor) / prefactor
    f = pre * core
    d1 = pre * (l1 * core + core_d1)
    d2 = pre * (l2 * core + 2.0 * l1 * core_d1 + core_d2)
    return f, d1, d2


def whittaker_m_derivs(idx: WhittakerIndices, y):
    """(M, dM/dy, d2M/dy2) with analytic derivatives of the Kummer core, at
    a float y > 0 or elementwise over an array of them (one series pass)."""
    y = _positive(y, "whittaker_m_derivs")
    a, b = idx.series_a, idx.series_b
    # the k-th derivative of 1F1(a; b; z) is (a)_k/(b)_k 1F1(a+k; b+k; z):
    # reject the triple wherever one of those three series is rejected
    for k in range(3):
        _check_kummer_b(a + k, b + k)
    s0, s1, s2 = _kummer_pass(a, b, y)
    return _core_derivs(s0, s1 / y, s2 / (y * y), idx.mu, y)


def whittaker_w_derivs(idx: WhittakerIndices, y):
    """(W, dW/dy, d2W/dy2) with analytic derivatives of the Tricomi core, at
    a float y > 0 or elementwise over an array of them (one quadrature)."""
    y = _positive(y, "whittaker_w_derivs")
    a, b = complex(idx.series_a), complex(idx.series_b)
    return _core_derivs(*_tricomi_derivs(a, b, y), idx.mu, y)


def laguerre_poly(n: int, p: float, y: float) -> float:
    """Classical associated Laguerre polynomial L_n^p(y), three-term recurrence."""
    if n < 0:
        raise ValueError(f"laguerre_poly requires n >= 0, got {n}")
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + p - y
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1 + p - y) * cur - (k - 1 + p) * prev) / k
    return cur

