"""The Morse superpotential and its Witten-type Riccati combinations.

R(x) = A - B e^{-a x} and its exact derivative R'(x) = a B e^{-a x} give
the induced potentials R' +/- R^2 of the two SUSY partners. The Morse
substitution y = (2B/a) e^{-a x} maps the closed-form layer onto
Whittaker's equation. Each takes a float x or an array of x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class RiccatiSign(Enum):
    """Which sign the Riccati combination R' +/- R^2 carries."""

    PLUS = 1
    MINUS = -1


@dataclass(frozen=True)
class MorseRiccati:
    """Parameters of the Morse superpotential R(x) = A - B e^{-a x}."""

    A: float
    B: float
    a: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0):
            raise ValueError(f"require a > 0, got a = {self.a}")
        if not (self.B > 0.0):
            raise ValueError(f"require B > 0, got B = {self.B}")
        if not math.isfinite(self.A):
            raise ValueError(f"require finite A, got A = {self.A}")

    def R(self, x):
        """The superpotential A - B e^{-a x}."""
        return self.A - self.B * np.exp(-self.a * x)

    def dR(self, x):
        """The exact derivative a B e^{-a x} of R."""
        return self.a * self.B * np.exp(-self.a * x)

    def witten(self, sign: RiccatiSign, x):
        """The Witten combination R' + sign R^2."""
        R = self.R(x)
        return self.dR(x) + sign.value * R * R


def morse_y(params: MorseRiccati, x):
    """The Morse substitution y = (2B/a) e^{-a x}; positive, decreasing in x.

    x may be a float or an array of x. Raises OverflowError where y overflows.
    """
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            y = 2.0 * params.B / params.a * np.exp(-params.a * x)
        if not np.isinf(y).any():
            return y
    else:
        try:
            y = 2.0 * params.B / params.a * math.exp(-params.a * x)
        except OverflowError:
            y = math.inf
        if y < math.inf:
            return y
    raise OverflowError(f"y(x) overflows at x = {np.min(x):.17g}")
