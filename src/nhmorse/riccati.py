"""Witten-type Riccati superpotentials.

A superpotential R(x) together with its derivative and a sign convention
determines the induced potential u = R' +/- R^2. The Morse family
R(x) = A - B e^{-a x} is the one used throughout the closed-form layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np


class RiccatiSign(Enum):
    """Which sign the Riccati combination R' +/- R^2 carries."""

    PLUS = 1
    MINUS = -1


@dataclass(frozen=True)
class RiccatiSolution:
    """A superpotential bundle: R, R', the sign, and u = R' +/- R^2."""

    eval_R: Callable[[float], float]
    eval_dR: Callable[[float], float]
    sign: RiccatiSign
    eval_u: Callable[[float], float] = field(repr=False)


def from_superpotential(
    R: Callable[[float], float],
    dR: Callable[[float], float],
    sign: RiccatiSign,
    validate_at: list[float] | None = None,
) -> RiccatiSolution:
    """Bundle a user-supplied superpotential, building u from R and R'.

    When validate_at is given, dR is checked against a central finite
    difference of R at those points (relative tolerance 1e-6).
    """
    if validate_at is not None:
        for x in validate_at:
            h = 1e-6 * (1.0 + abs(x))
            fd = (R(x + h) - R(x - h)) / (2.0 * h)
            if abs(fd - dR(x)) > 1e-6 * (1.0 + abs(fd)):
                raise ValueError(f"derivative mismatch at x = {x}: dR = {dR(x)}, fd = {fd}")

    def u(x: float) -> float:
        return dR(x) + sign.value * R(x) ** 2

    return RiccatiSolution(eval_R=R, eval_dR=dR, sign=sign, eval_u=u)


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


def morse_riccati(params: MorseRiccati, sign: RiccatiSign) -> RiccatiSolution:
    """The Morse superpotential with its exact derivative a B e^{-a x}; x a float or an array."""
    A, B, a = params.A, params.B, params.a

    def R(x):
        return A - B * (np.exp(-a * x) if isinstance(x, np.ndarray) else math.exp(-a * x))

    def dR(x):
        return a * B * (np.exp(-a * x) if isinstance(x, np.ndarray) else math.exp(-a * x))

    return from_superpotential(R, dR, sign)


def riccati_residual(sol: RiccatiSolution, x):
    """|R'(x) +/- R(x)^2 - u(x)| under the solution's own sign, elementwise over an array."""
    return abs(sol.eval_dR(x) + sol.sign.value * sol.eval_R(x) ** 2 - sol.eval_u(x))


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
