"""Complex special-function kernel.

Log-gamma, Kummer (regular) and Tricomi (recessive) confluent
hypergeometric functions with complex parameters, each also as the core
triple (F, z F', z^2 F'') that the Whittaker closed forms of `morse` are
built on, and classical associated Laguerre polynomials.

Each quantity has one entry point, which takes a float or a numpy array.
Float 1F1 values come from one loop, `_kummer_pass`. Array 1F1 sums, the
values of `kummer_m` and the triples of `kummer_m_derivs` alike, come from
one kernel, `_kummer_block`, over arguments sharing one parameter set or
(R, 1) columns of per-row parameters giving an (R, N) block: a chunk of
terms at a time, as one real matrix product of per-row coefficients with
per-column powers of z. A Kummer sum that overflows raises
NonConvergence rather than return inf or NaN, and a non-finite argument
raises ValueError before any sum starts.

The 1F1 triple comes from the term-by-term differentiated series: one
pass over the terms gives all three sums. U and its derivatives come from
their Laplace integral, summed on one table of exp-sinh nodes whose
weights gain a factor -t per derivative, for every complex a and b and
any z > 0; a float z sums the first two steps as one product over the
whole s range. Like `kummer_m`, `tricomi_u` and both triples take (R, 1)
columns of parameters with an array of shape (N,), giving (R, N) blocks:
a 1F1 triple block is one `_kummer_block`, a U block one `_tricomi_block`
over the nodes of the rows' union window, its exponentials of z shared by
every row, as one real matrix product per step. Both kernels take their
products in tiles that OpenBLAS runs on one thread.

Conventions fixed here and used everywhere else in the library:
  * double precision throughout; every complex power, root and logarithm
    is taken on the principal branch (argument in (-pi, pi]);
  * the function argument of the confluent family is real and finite:
    z >= 0 for 1F1 (kummer_m, kummer_m_derivs and verify.reference_kummer),
    z > 0 for Tricomi; parameters may be complex but finite; an argument
    outside raises ValueError naming it;
  * one pole rule: b within _INTEGER_TOL of a nonpositive integer raises
    ParameterPole unless the series terminates first;
  * all functions are pure and hold no mutable state, so repeated calls
    with identical inputs are bit-identical and thread-safe, whatever the
    BLAS thread count.
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


def _degrees(a: np.ndarray) -> np.ndarray:
    """_terminating_degree over an array, with inf for None: n where a is
    within _INTEGER_TOL of the nonpositive integer -n."""
    r = np.round(a.real)
    return np.where((np.abs(a - r) <= _INTEGER_TOL) & (r <= 0.0), 0.0 - r, np.inf)


def _kummer_pass(a: complex, b: complex, z):
    """(S0, S1, S2) = sums of t_n, n t_n and n(n-1) t_n over the terms t_n
    of 1F1(a; b; z) in one pass, the one float 1F1 loop: 1F1 then has value
    S0, first derivative S1/z and second derivative S2/z^2.

    A terminating series (a a nonpositive integer -n) sums its n terms;
    otherwise each sum stops once three consecutive terms fall below
    _STOP_REL of it. Overflow raises NonConvergence.
    """
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


def _at_first(a, b, zs: np.ndarray, bad: np.ndarray) -> str:
    """'a=..., b=..., z=...' of the first element where bad is set, a and b
    broadcast against zs."""
    i = np.unravel_index(np.argmax(bad), bad.shape)
    a_i, b_i, z_i = (np.broadcast_to(v, bad.shape)[i] for v in (a, b, zs))
    return f"a={a_i}, b={b_i}, z={z_i}"


# The array 1F1 kernel takes its terms this many at a time.
_CHUNK = 16
# OpenBLAS multiplies on one thread while m n k <= 65,536 times its
# GEMM_MULTITHREAD_THRESHOLD, 4; on more, the split of the output between
# threads can change the last bits of a product.
_SERIAL_MNK = 65_536 * 4


def _split(size: int, most: int) -> list[int]:
    """Bounds of the fewest near-equal tiles of at most `most` items; for
    most >= 3, a tile holds a single item only if the whole size is one."""
    count = max(1, -(-size // most))
    return [size * i // count for i in range(count + 1)]


def _serial_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right for real (m, k) and (k, n) arrays, in tiles of columns and
    rows that OpenBLAS multiplies on one thread each, so the bits do not
    depend on the BLAS thread count. A tile has a single row or column
    only where the whole product does: numpy would hand it to a
    matrix-vector routine, which OpenBLAS threads on another rule."""
    m, k = left.shape
    if m * k * right.shape[1] <= _SERIAL_MNK:
        return left @ right
    out = np.empty((m, right.shape[1]))
    cols = _split(right.shape[1], max(3, _SERIAL_MNK // (3 * k)))
    for c0, c1 in zip(cols, cols[1:]):
        rows = _split(m, _SERIAL_MNK // (k * (c1 - c0)))
        for r0, r1 in zip(rows, rows[1:]):
            np.matmul(left[r0:r1], right[:, c0:c1], out=out[r0:r1, c0:c1])
    return out


# overflow raises NonConvergence here, and a division by a vanishing b + n
# is zeroed, so numpy need not warn of either
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _kummer_block(a: np.ndarray, b: np.ndarray, z: np.ndarray, triple: bool):
    """The sums of _kummer_pass, of t_n (and for the triple also of n t_n
    and n(n-1) t_n) over the terms of 1F1(a; b; z), at every z of an
    array: a and b 0-d, for sums of the shape of z, or (R, 1) columns of
    per-row values, with z of shape (N,) shared by every row or (R, 1).

    The terms come _CHUNK at a time. A row's coefficients c_n are its
    terms at its largest z, zhat, so t_n(z) = c_n (z/zhat)^n: a chunk adds
    P @ [Re c, Im c], P[j, n] = (z_j/zhat)^n <= 1, to the real and
    imaginary parts of the sums, the triple's n c_n and n(n-1) c_n being
    more columns of the same real product (P is 1 for z given per row). A
    row whose a is a nonpositive integer -n keeps its first n terms; past
    the last of those, the sums stop at the end of a chunk whose last
    three terms, bounded by their largest c_n times (z/zhat)^n at the least
    of their n, are below _STOP_REL of every sum at every element.
    Overflow raises NonConvergence naming the first element to overflow.
    The product is taken in tiles that OpenBLAS runs on one thread, so
    the sums do not depend on the BLAS thread count, and repeated calls
    agree bit for bit.
    """
    shape = np.broadcast_shapes(a.shape, z.shape)
    if a.ndim == 0:
        a, b, z = a.reshape(1, 1), b.reshape(1, 1), z.ravel()
    if z.ndim == 2:
        zhat, x = z[:, 0], np.ones(1)
    else:
        zhat = z.max(initial=0.0)
        x = z / zhat if zhat > 0.0 else z
    rows, sums_per_row = a.shape[0], 3 if triple else 1
    n_stop = _degrees(a[:, 0])
    terminating = settled = bool(np.isfinite(n_stop).all())
    n_last = int(np.where(np.isfinite(n_stop), n_stop, 0.0).max(initial=0.0))
    # the chunk's (term, row) arrays, one row per term
    a_rows, b_rows = (np.tile(v[:, 0], (_CHUNK, 1)) for v in (a, b))
    # the sums, one row per z, the real and imaginary parts of each
    # parameter row side by side, the value's sums then the derivatives';
    # the n = 0 term is 1
    sums = np.zeros((x.size, 2 * sums_per_row * rows))
    sums[:, : 2 * rows : 2] = 1.0
    c = np.ones((1, rows), dtype=complex)
    # P transposed: x^(n + 1) for the chunk's n, each chunk's the last's
    # times x^_CHUNK
    powers = x[:, None] ** np.arange(1, _CHUNK + 1)
    step = powers[:, -1:].copy()
    for n0 in range(0, n_last if terminating else max(_MAX_TERMS, n_last + 3), _CHUNK):
        n = np.arange(n0, n0 + _CHUNK)[:, None]
        # term n + 1 is term n times (a + n) / (b + n) zhat / (n + 1); a
        # terminating row is zeroed past its last term, where b + n may vanish
        ratio = a_rows + n
        ratio /= b_rows + n
        ratio *= zhat / (n + 1)
        ratio[0] *= c[-1]
        c = np.multiply.accumulate(ratio, axis=0, out=ratio)
        np.copyto(c, 0.0, where=n >= n_stop)
        bad = ~np.isfinite(c)
        if bad.any():
            # the terms at zhat are the largest: name the first row to overflow there
            first = bad[np.argmax(bad.any(axis=1))][:, None]
            at = _at_first(a, b, np.reshape(zhat, (-1, 1)), first)
            raise NonConvergence(f"kummer series did not converge: overflow at {at}")
        cv = c.view(float)
        terms = np.hstack((cv, (n + 1.0) * cv, (n + 1.0) * n * cv)) if triple else cv
        sums += _serial_product(powers, terms)
        if not terminating and n0 + _CHUNK >= n_last:
            tail = np.abs(terms[-3:].view(complex)).max(axis=0) * powers[:, -3, None]
            # an overflowed sum, inf or NaN, counts as settled: the
            # overflow is raised once the others settle
            unsettled = tail > _STOP_REL * np.abs(sums.view(complex))
            settled = not unsettled.any()
            if settled:
                break
        powers *= step
    s = sums.view(complex).reshape(x.size, sums_per_row, rows).transpose(1, 2, 0)
    bad = ~np.isfinite(s).all(axis=0)
    if bad.any():
        raise NonConvergence(f"kummer series did not converge: overflow at {_at_first(a, b, z, bad)}")
    if not settled:
        unsettled = unsettled.reshape(x.size, sums_per_row, rows).any(axis=1).T
        raise NonConvergence(f"kummer series did not converge: {_at_first(a, b, z, unsettled)}")
    return tuple(np.ascontiguousarray(s).reshape((len(s),) + shape))


def _check_kummer_b(a, b) -> None:
    """Reject b at a nonpositive integer unless the series terminates first;
    a and b complex numbers, or arrays checked elementwise (b at -m is
    rejected where a's degree exceeds m), naming the first rejected b."""
    if isinstance(a, np.ndarray):
        poles = _degrees(b)
        if np.isfinite(poles).any():
            bad = _degrees(a) > poles
            if bad.any():
                raise ParameterPole(f"kummer_m: b = {complex(b.ravel()[np.argmax(bad.ravel())])} at a nonpositive integer")
        return
    pole = _integer_near(b)
    if pole is not None:
        n_term = _terminating_degree(a)
        if n_term is None or n_term > -pole:
            raise ParameterPole(f"kummer_m: b = {b} at a nonpositive integer")


def _arguments(name: str, a, b, z, positive: bool):
    """(a, b, z) once a, b and z are finite and z lies in its domain, z > 0
    if positive, else z >= 0: complex a and b with a float z, or with a
    numpy array z complex arrays a and b, scalars or (R, 1) columns of
    per-row values with z of shape (N,), shared by every row (for 1F1 also
    of shape (R, 1), one z per row). A rejection raises ValueError naming
    the first element outside, or the shapes that do not fit."""
    row = isinstance(z, np.ndarray)
    if row:
        ca, cb = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        if ca.shape != cb.shape:
            ca, cb = np.broadcast_arrays(ca, cb)
        z = z.astype(float, copy=False)
        if ca.ndim and not (ca.shape[1:] == (1,) and (z.ndim == 1 or (z.shape == ca.shape and not positive))):
            raise ValueError(f"{name}: a and b of shape {ca.shape} do not fit z of shape {z.shape}")
    else:
        ca, cb, z = complex(a), complex(b), float(z)
    inside = (z > 0.0 if positive else z >= 0.0) & (z < math.inf)
    if row and np.isfinite(ca).all() and np.isfinite(cb).all() and inside.all():
        return ca, cb, z
    if not row and cmath.isfinite(ca) and cmath.isfinite(cb) and inside:
        return ca, cb, z
    checks = (("a", a, np.isfinite(a)), ("b", b, np.isfinite(b)), ("z", z, inside))
    label, v, ok = next(c for c in checks if not np.all(c[2]))
    bad = np.ravel(v)[np.argmax(~np.ravel(ok))]
    raise ValueError(f"{name} requires finite a and b and {'z > 0' if positive else 'z >= 0'}, got {label} = {bad}")


def kummer_m(a, b, z):
    """Confluent hypergeometric function 1F1(a; b; z) at a float z, or at
    every z of a numpy array, one series summed over all of them; z >= 0.

    A float z takes the one float loop, _kummer_pass's. For an array z, a
    and b are scalars, giving an array of the shape of z, or (R, 1) columns
    of per-row values with z of shape (N,), giving an (R, N) block, or of
    shape (R, 1), one z per row; the rows are checked by the rule of a
    float call, as one array operation, and a rejection names the first
    rejected row's b. Arrays are summed by _kummer_block. Terminating
    series (a a nonpositive integer) are allowed even for b at a
    nonpositive integer, provided the numerator zero comes first.
    """
    a, b, z = _arguments("kummer_m", a, b, z, positive=False)
    _check_kummer_b(a, b)
    if isinstance(z, np.ndarray):
        return _kummer_block(a, b, z, triple=False)[0]
    return _kummer_pass(a, b, z)[0]


def kummer_m_derivs(a, b, z):
    """(F, z F', z^2 F'') of F = 1F1(a; b; z), the sums of t_n, n t_n and
    n(n-1) t_n over its terms, taking the arguments of kummer_m: one float
    pass, or one _kummer_block for an array z. The k-th derivative is
    (a)_k/(b)_k 1F1(a+k; b+k; z), so the triple is rejected wherever one of
    those three series is."""
    a, b, z = _arguments("kummer_m_derivs", a, b, z, positive=False)
    if isinstance(z, np.ndarray):
        _check_kummer_b(a + np.arange(3.0), b + np.arange(3.0))
        return _kummer_block(a, b, z, triple=True)
    for k in range(3):
        _check_kummer_b(a + k, b + k)
    return _kummer_pass(a, b, z)


# Tricomi U and its first two derivatives come from the Laplace integral
# (DLMF 13.4.4)
#   U^(k)(a, b, z) = (-1)^k / Gamma(a) int_0^inf e^{-zt} t^{a-1+k} (1+t)^{b-a-1} dt,
# summed by the trapezoidal rule on exp-sinh nodes t = exp(pi/2 sinh s),
# s in [-5, 5] (Takahasi and Mori, 1974). The table holds the nodes of the
# finest step 2^-_ES_FINEST; those of step 2^-k are every 2^(_ES_FINEST-k)-th
# of them, so halving the step adds only the midpoints. A float z sums the
# first two steps as one product over all their nodes; a block drops those
# where every row's integrand is below e^-_ES_CUT of its peak. Far out (z
# beyond about 1e-20 or 1e20) the finest step misses the integrand's peak,
# and the quadrature raises NonConvergence rather than return a wrong sum.
_ES_FIRST = 3
_ES_FINEST = 8
# Halve the step until no sum moves by more than this share of itself; the
# trapezoidal error falls roughly as its square with each halving.
_ES_TOL = 1e-7
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
# the signs (-1)^k of the derivatives, at a and at a + 1
_ES_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])[:, None, None]
# The float quadrature's levels, in ascending s, hold every node once: every
# n-th node, of step 2^-(_ES_FIRST+1), then every 2m-th from the m-th, the
# midpoints of step m / 2^_ES_FINEST. Each holds complex logs and the powers
# times its step; the first stacks the weights of step 2^-_ES_FIRST on top.
_es_n = 2 ** (_ES_FINEST - _ES_FIRST - 1)
_es_w = np.vstack((2.0 * _ES_POWERS[:, ::_es_n], _ES_POWERS[:, ::_es_n])) * (_es_n / 2**_ES_FINEST)
_es_w[:6, 1::2] = 0.0
_ES_LEVELS = [(_ES_LOGS[:, ::_es_n].astype(complex), _es_w)] + [
    (_ES_LOGS[:, m::2 * m].astype(complex), m / 2**_ES_FINEST * _ES_POWERS[:, m::2 * m])
    for m in _es_n >> np.arange(1, _ES_FINEST - _ES_FIRST)
]


def _tricomi_quadrature(a: complex, b: complex, z: float, named: complex):
    """(U, U', U'') at a and at a + 1, Re a >= 1, at a float z, from one set
    of nodes: the weights of the derivatives gain factors of -t, and those
    at a + 1 a factor t / ((1+t) a). Past the first level, the step halves
    only while some sum moves by more than _ES_TOL of itself. NonConvergence
    names `named`, the caller's a before its shift to Re a >= 1."""
    coef = np.array([a - 1.0, b - a - 1.0, 1.0, z, -log_gamma(a)])
    # the six sums at the last two steps, the coarser first: the first level
    # gives both, each later one the midpoints that halve the step
    sums = []
    for logs, weights in _ES_LEVELS:
        level = (weights @ np.exp(coef @ logs).view(float).reshape(-1, 2)).view(complex).ravel().tolist()
        sums = level if not sums else sums[6:] + [0.5 * s + m for s, m in zip(sums[6:], level)]
        if all(abs(s - c) <= _ES_TOL * abs(s) for c, s in zip(sums[:6], sums[6:])):
            u, du, d2u, v, dv, d2v = sums[6:]
            return u, -du, d2u, v / a, -dv / a, d2v / a
    raise NonConvergence(f"tricomi_u quadrature did not converge: a={named}, b={b}, z in [{z}, {z}]")


def _tricomi_block(a: np.ndarray, b: np.ndarray, z: np.ndarray, named: np.ndarray) -> np.ndarray:
    """_tricomi_quadrature's six values for (R, 1) columns of a, Re a >= 1,
    and b, at every z of shape (N,) > 0, as one (6, R, N) array.

    The nodes serve every row and the whole z range: each row's window
    keeps the nodes where its integrand of U at the largest z or of U'' at
    the smallest z is within e^-_ES_CUT of its peak (outside, every z's
    integrand is below that), and the rows share the union of the windows.
    At each step the integrands are taken at the least z and carried to
    every z by one block e^{(z_lo - z) t} <= 1, shared by the rows: one
    real product, (N, nodes) @ (nodes, 12 R), real and imaginary parts of
    the six weights of each row side by side. The step halves until every
    row has settled at once; NonConvergence names the first row that has
    not by its a in the column `named`, the caller's a before the shift.
    """
    rows = a.shape[0]
    if rows == 0 or z.size == 0:
        return np.zeros((6, rows, z.size), dtype=complex)
    z_lo, z_hi = float(z.min()), float(z.max())
    # each row's (a-1, b-a-1, 1, z_lo, -log Gamma(a)), whose product with
    # _ES_LOGS is the log of its integrand times dt/ds at z_lo
    log_g = [[-log_gamma(v)] for v in a[:, 0].tolist()]
    coef = np.hstack((a - 1.0, b - a - 1.0, np.ones((rows, 1)), np.full((rows, 1), z_lo), log_g))
    # log sizes, on the coarsest nodes, of each row's integrands of U at
    # z_hi and of U'' at z_lo; the union window reaches one coarse node
    # past each row's
    step = 2 ** (_ES_FINEST - _ES_FIRST)
    env = np.stack((coef.real, coef.real))
    env[0, :, 3] = z_hi
    env[1, :, 0] += 2.0
    env[..., 4] = 0.0
    env = env @ _ES_LOGS[:, ::step]
    last = env.shape[2] - 1
    kept = env >= env.max(axis=2, keepdims=True) - _ES_CUT
    i = max(int(np.argmax(kept[0], axis=1).min()) - 1, 0) * step
    j = min(last + 1 - int(np.argmax(kept[1, :, ::-1], axis=1).min()), last) * step

    def node_sum(nodes: slice):
        # the (N, R, 6) sums over the given nodes: the weights as (node,
        # row, sum), whose float view puts the real and imaginary parts of
        # each side by side, as the product's are
        w = np.exp(_ES_LOGS[:, nodes].T @ coef.T)
        x = np.multiply(w[:, :, None], _ES_POWERS[:, nodes].T[:, None, :], order="C")
        carry = np.exp(np.multiply.outer(z_lo - z, _ES_T[nodes]))
        return _serial_product(carry, x.reshape(x.shape[0], -1).view(float)).view(complex).reshape(z.size, -1, 6)

    h = 2.0**-_ES_FIRST
    sums = h * node_sum(slice(i, j + 1, step))
    for _ in range(_ES_FIRST, _ES_FINEST):
        step //= 2
        h /= 2.0
        halved = 0.5 * sums + h * node_sum(slice(i + step, j, 2 * step))
        done = np.all(np.abs(halved - sums) <= _ES_TOL * np.abs(halved), axis=(0, 2))
        sums = halved
        if done.all():
            break
    else:
        r = np.argmax(~done)
        raise NonConvergence(
            f"tricomi_u quadrature did not converge: a={complex(named[r, 0])}, b={complex(b[r, 0])}, z in [{z_lo}, {z_hi}]"
        )
    out = sums.T * _ES_SIGNS
    out[3:] /= a
    return out


def _recur_down(a0, b, z, m: int, u, du, d2u, v, dv, d2v):
    """The six values of _tricomi_quadrature at e = a0 - m, carried to
    e - 1 by U(e - 1) = -(b - 2e - z) U(e) - e (e - b + 1) U(e + 1)
    (DLMF 13.3.7), differentiated in z."""
    e = a0 - m
    p, q = b - 2.0 * e - z, e * (e - b + 1.0)
    return -(p * u + q * v), u - p * du - q * dv, 2.0 * du - p * d2u - q * d2v, u, du, d2u


def _tricomi_derivs(a, b, z):
    """(U, dU/dz, d2U/dz2) of U(a, b, z) at a float z > 0 with complex a and
    b; or, at a numpy array z, with a and b complex scalars, elementwise, or
    (R, 1) columns with z of shape (N,), as (R, N) blocks.

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
    polynomial. A block shifts each row by its own n, takes the quadrature
    once over the rows that need it, and recurs each row down its own n
    steps.
    """
    if isinstance(z, np.ndarray):
        shape = np.broadcast_shapes(a.shape, z.shape)
        a, b, z = a.reshape(-1, 1), b.reshape(-1, 1), z.ravel()
        integer = (a.imag == 0.0) & (a.real <= 0.0) & (a.real == np.round(a.real))
        n = np.where(integer, -a.real, np.maximum(0.0, np.ceil(1.0 - a.real))).astype(int)
        a0 = np.where(integer, 0.0, a + n)
        shifted = ~integer[:, 0]
        state = np.zeros((6, a.shape[0], z.size), dtype=complex)
        state[0, ~shifted] = 1.0
        state[:, shifted] = _tricomi_block(a0[shifted], b[shifted], z, a[shifted])
        for m in range(int(n.max(initial=0))):
            r = np.flatnonzero(n[:, 0] > m)
            state[:, r] = _recur_down(a0[r], b[r], z, m, *state[:, r])
        return tuple(v.reshape(shape) for v in state[:3])
    if a.imag == 0.0 and a.real <= 0.0 and a.real.is_integer():
        n, a0 = -int(a.real), 0.0
        state = (1.0 + 0.0j, 0j, 0j, 0j, 0j, 0j)
    else:
        n = max(0, math.ceil(1.0 - a.real))
        a0 = a + n
        state = _tricomi_quadrature(a0, b, z, a)
    for m in range(n):
        state = _recur_down(a0, b, z, m, *state)
    return state[:3]


def tricomi_u(a, b, z):
    """Tricomi confluent hypergeometric function U(a, b, z), any complex a
    and b: at a float z > 0; elementwise over a numpy array of them; or, for
    (R, 1) columns of a and b, as an (R, N) block over z of shape (N,)."""
    return _tricomi_derivs(*_arguments("tricomi_u", a, b, z, positive=True))[0]


def tricomi_u_derivs(a, b, z):
    """(U, z U', z^2 U'') of U(a, b, z), taking the arguments of tricomi_u."""
    a, b, z = _arguments("tricomi_u_derivs", a, b, z, positive=True)
    u, u1, u2 = _tricomi_derivs(a, b, z)
    return u, z * u1, z * (z * u2)


@dataclass(frozen=True)
class WhittakerIndices:
    """The complex index pair (kappa, mu) of a Whittaker function, or (R, 1)
    columns of such pairs, one per row of a block."""

    kappa: complex
    mu: complex

    @property
    def series_a(self) -> complex:
        return self.mu - self.kappa + 0.5

    @property
    def series_b(self) -> complex:
        return 2.0 * self.mu + 1.0


def laguerre_poly(n, p, y):
    """Classical associated Laguerre polynomial L_n^p(y) by its three-term
    recurrence (DLMF 18.9.1) from L_{-1} = 0 and L_0 = 1; a negative degree
    gives 0, so d/dy L_n^p = -L_{n-1}^{p+1} holds at n = 0 too. n, p and y
    broadcast: (R, 1) columns of degrees and orders with y of shape (N,)
    give an (R, N) block from one pass up to the largest degree, each row
    keeping its value from its own degree on."""
    n = np.asarray(n)
    top = int(n.max(initial=0))
    lowest = int(n.min(initial=top))
    # the coefficients 2k - 1 + p and k - 1 + p of every step k
    ks = np.arange(1, top + 1).reshape((-1,) + (1,) * np.ndim(p))
    c1, c2 = 2 * ks - 1 + p, ks - 1 + p
    prev, cur = 0.0, np.ones(np.broadcast_shapes(n.shape, np.shape(p), np.shape(y)))
    for k in range(1, top + 1):
        step = (c1[k - 1] - y) * cur
        step -= c2[k - 1] * prev
        step /= k
        prev, cur = cur, step if k <= lowest else np.where(k <= n, step, cur)
    return np.where(n < 0, 0.0, cur)[()]
