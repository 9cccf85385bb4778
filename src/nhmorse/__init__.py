"""Non-Hermitian Morse problem from Riccati superpotentials.

Closed-form wavefunctions built from complex-parameter Whittaker and
Laguerre-like functions; the SUSY factorization/intertwining layer that
generates them, acting on the values R and R' of the Morse superpotential;
and independent numerical oracles that verify every closed form by ODE
residual, integration cross-check, Wronskian constancy and intertwining
constancy.
"""

from .checks import ResidualReport
from .errors import (
    EvaluationError,
    NonConvergence,
    NonNormalizable,
    ParameterPole,
    PoleError,
)
from .morse import MorseParameters, ParameterMap, WhittakerIndices
from .riccati import MorseRiccati, RiccatiSign
from .susy import Ladder, Sector

__all__ = [
    "EvaluationError",
    "Ladder",
    "MorseParameters",
    "MorseRiccati",
    "NonConvergence",
    "NonNormalizable",
    "ParameterMap",
    "ParameterPole",
    "PoleError",
    "ResidualReport",
    "RiccatiSign",
    "Sector",
    "WhittakerIndices",
]
