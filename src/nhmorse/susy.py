"""Factorization and complex-extension layer, on superpotential values.

The complex extension with nonhermiticity parameter K and energy
parameter K', and the first-order intertwining operators
+/- i D_x + K + i R, each taking the values R and R' of the
superpotential at the points of x.

Sign bookkeeping (fixed here, tested in the suite): the second-order
bracket Q_i carries +R' for the fermionic sector and -R' for the bosonic
one, so that w'' + Q_i w = 0.
"""

from enum import Enum


class Sector(str, Enum):
    FERMIONIC = "fermionic"
    BOSONIC = "bosonic"


class Ladder(str, Enum):
    RAISE = "raise"
    LOWER = "lower"


def complex_potential_coefficient(R, dR, K, Kprime, sector: Sector):
    """The bracket Q_i = +/-R' + 2iKR + (K^2 - K'^2) - R^2 with w'' + Q_i w = 0,
    from the values R and R' at the points of x.

    R and R' may be arrays over x of shape (N,), and K and K' columns
    of one (K, K') pair per row, giving a block of one row per pair.
    """
    s = 1.0 if sector is Sector.FERMIONIC else -1.0
    return s * dR + 2j * K * R + (K * K - Kprime * Kprime) - R * R


def apply_first_order(direction: Ladder, R, K, f, df):
    """Apply A+ (raise) or A- (lower), i.e. +/- i D_x + K + i R, to (f, f')
    at the points where R holds the superpotential's values; R, f and f'
    may be arrays.

    The caller supplies the derivative; this layer never differentiates
    numerically.
    """
    s = 1j if direction is Ladder.RAISE else -1j
    return s * df + (K + 1j * R) * f
