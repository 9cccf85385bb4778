"""Factorization and complex-extension layer.

Real SUSY partner potentials for the Dirac-Schroedinger connection, the
complex extension with nonhermiticity parameter K and energy parameter
K', and the first-order intertwining operators +/- i D_x + K + i R.

Sign bookkeeping (fixed here, tested in the suite):
  * the second-order bracket Q_i carries +R' for the fermionic sector and
    -R' for the bosonic one, so that w'' + Q_i w = 0;
  * the real-case potential U_i = (m+R)^2 - m^2 -/+ R' carries the
    opposite sign because the bracket sits on the other side of the
    equation; U_fermionic - U_bosonic = -2 R' exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .riccati import RiccatiSolution


class Sector(str, Enum):
    FERMIONIC = "fermionic"
    BOSONIC = "bosonic"


class Ladder(str, Enum):
    RAISE = "raise"
    LOWER = "lower"


@dataclass(frozen=True)
class RealCaseParams:
    """Real Dirac case: fermion mass m and eigenvalue E."""

    m: float
    E: float

    @property
    def epsilon(self) -> float:
        """Schroedinger eigenvalue E^2 - m^2."""
        return self.E * self.E - self.m * self.m


@dataclass(frozen=True)
class ExtensionParams:
    """Complex extension parameters: mass/nonhermiticity K, energy K'."""

    K: float
    Kprime: float


def real_partner_potential(R: RiccatiSolution, m: float, sector: Sector, x: float) -> float:
    """Real SUSY partner potential (m + R)^2 - m^2 -/+ R'."""
    s = -1.0 if sector is Sector.FERMIONIC else 1.0
    Rx = R.eval_R(x)
    return (m + Rx) ** 2 - m * m + s * R.eval_dR(x)


def complex_potential_coefficient(
    R: RiccatiSolution, ext: ExtensionParams, sector: Sector, x
) -> complex:
    """The bracket Q_i(x) = +/-R' + 2iKR + (K^2 - K'^2) - R^2 with w'' + Q_i w = 0.

    x may be an array. ext's K and K' may also be (R, 1) columns, one
    (K, K') pair per row, giving an (R, N) block over x of shape (N,).
    """
    s = 1.0 if sector is Sector.FERMIONIC else -1.0
    Rx = R.eval_R(x)
    K, Kp = ext.K, ext.Kprime
    return s * R.eval_dR(x) + 2j * K * Rx + (K * K - Kp * Kp) - Rx * Rx


def apply_first_order(
    direction: Ladder,
    R: RiccatiSolution,
    K: float,
    f: complex,
    df: complex,
    x,
) -> complex:
    """Apply A+ (raise) or A- (lower), i.e. +/- i D_x + K + i R, to (f, f')(x);
    f, f' and x may be arrays.

    The caller supplies the derivative; this layer never differentiates
    numerically.
    """
    Rx = R.eval_R(x)
    s = 1j if direction is Ladder.RAISE else -1j
    return s * df + (K + 1j * Rx) * f
