"""The general SUSY layer on a second superpotential, R = omega x.

`susy` takes the values R and R', so its bracket and ladder operators hold
for any shape. With R = omega x the complex-extended equation is a harmonic
oscillator about the complex centre x0 = iK/omega, whatever K: its states
are the Hermite functions H_n(sqrt(omega) (x - x0)) e^{-omega (x - x0)^2 / 2},
with K'^2 = -2 omega n in the fermionic sector and -2 omega (n + 1) in the
bosonic one. The closed forms and their derivatives here come from
numpy.polynomial.hermite alone, so they share no code with the Morse forms.
For the oscillator K moves no eigenvalue, where for Morse it does; a sign
slip in the bracket or the ladder would show on both shapes.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import hermite

from nhmorse import susy, verify
from nhmorse.susy import Ladder, Sector

XS = np.linspace(-3.0, 3.0, 121)
OMEGA_K = list(itertools.product((0.7, 1.3, 2.0), (0.0, 0.7, 2.0)))
DEGREES = range(6)


def state(omega: float, K: float, n: int):
    """(psi, psi', psi'') of the Hermite function of degree n about
    x0 = iK/omega at XS, differentiated term by term in x."""
    c = np.zeros(n + 1)
    c[n] = 1.0
    root = math.sqrt(omega)
    s = root * (XS - 1j * K / omega)
    f, df, d2f = (hermite.hermval(s, hermite.hermder(c, k)) for k in range(3))
    e = np.exp(-0.5 * s * s)
    return f * e, root * (df - s * f) * e, omega * (d2f - 2.0 * s * df + (s * s - 1.0) * f) * e


def kprime(omega: float, n: int, sector: Sector) -> complex:
    """K' of state n in the sector: K'^2 = -2 omega n, or -2 omega (n + 1)."""
    level = n if sector is Sector.FERMIONIC else n + 1
    return cmath.sqrt(-2.0 * omega * level)


@pytest.mark.parametrize("omega, K", OMEGA_K)
def test_states_solve_the_bracket_equation(omega, K):
    # w'' + Q w = 0 with Q from complex_potential_coefficient, in both sectors
    R, dR = omega * XS, np.full_like(XS, omega)
    worst = 0.0
    for sector, n in itertools.product(Sector, DEGREES):
        w, _, d2w = state(omega, K, n)
        q = susy.complex_potential_coefficient(R, dR, K, kprime(omega, n, sector), sector)
        worst = max(worst, float(verify.ode_residual(q, w, d2w).max()))
    assert worst <= 1e-12


@pytest.mark.parametrize("omega, K", OMEGA_K)
def test_raise_maps_fermionic_n_onto_bosonic_n_minus_one(omega, K):
    # A+ takes fermionic state n to 2 i n sqrt(omega) times bosonic state
    # n - 1, the state with the same K'^2, away from that state's nodes
    worst = 0.0
    for n in DEGREES[1:]:
        w, dw, _ = state(omega, K, n)
        raised = susy.apply_first_order(Ladder.RAISE, omega * XS, K, w, dw)
        partner = 2j * n * math.sqrt(omega) * state(omega, K, n - 1)[0]
        keep = np.abs(partner) > 1e-3 * np.abs(partner).max()
        worst = max(worst, float(np.max(np.abs(raised[keep] - partner[keep]) / np.abs(partner[keep]))))
    assert worst <= 1e-12


@pytest.mark.parametrize("omega, K", OMEGA_K)
def test_raise_annihilates_the_zero_mode(omega, K):
    # the fermionic ground state, at K' = 0, is the zero mode of A+:
    # i psi' cancels (K + i R) psi to roundoff of either
    w, dw, _ = state(omega, K, 0)
    raised = susy.apply_first_order(Ladder.RAISE, omega * XS, K, w, dw)
    scale = np.abs(dw) + np.abs((K + 1j * omega * XS) * w)
    assert kprime(omega, 0, Sector.FERMIONIC) == 0.0
    assert float(np.max(np.abs(raised)) / np.max(scale)) <= 1e-12
