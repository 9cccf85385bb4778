"""Whittaker M and W with their first two y-derivatives, for the tests: the
core triples (F, y F', y^2 F'') of nhmorse.specfun times e^{-y/2} y^(mu+1/2),
differentiated in y. The library forms this product only in x, inside morse."""

import cmath
import math

import numpy as np

from nhmorse import specfun


def from_core(core, mu, y):
    """(W, dW/dy, d2W/dy2) of e^{-y/2} y^(mu+1/2) F(y), at a float y > 0 or
    over an array of them, from core = (F, y F', y^2 F'')."""
    f, yf1, y2f2 = core
    s = mu + 0.5
    if isinstance(y, np.ndarray):
        pre = np.exp(-0.5 * y + s * np.log(y))
    else:
        pre = cmath.exp(-0.5 * y + s * math.log(y))
    t = s - 0.5 * y
    return pre * f, pre / y * (t * f + yf1), pre / y / y * ((t * t - s) * f + 2.0 * t * yf1 + y2f2)


def whittaker_m(idx, y):
    """(M, M', M'') of M_{kappa, mu}(y) from specfun.kummer_m_derivs."""
    return from_core(specfun.kummer_m_derivs(idx.series_a, idx.series_b, y), idx.mu, y)


def whittaker_w(idx, y):
    """(W, W', W'') of W_{kappa, mu}(y) from specfun.tricomi_u_derivs."""
    return from_core(specfun.tricomi_u_derivs(idx.series_a, idx.series_b, y), idx.mu, y)
