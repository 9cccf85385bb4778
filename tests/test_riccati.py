import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmorse import riccati
from nhmorse.riccati import MorseRiccati, RiccatiSign


@pytest.fixture
def shape():
    return MorseRiccati(A=1.0, B=2.0, a=0.5)


def test_morse_riccati_values(shape):
    sol = riccati.morse_riccati(shape, RiccatiSign.PLUS)
    assert sol.eval_R(0.0) == pytest.approx(-1.0)
    assert sol.eval_dR(0.0) == pytest.approx(1.0)
    assert sol.eval_R(50.0) == pytest.approx(shape.A, abs=1e-9)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        MorseRiccati(A=1.0, B=-2.0, a=0.5)
    with pytest.raises(ValueError):
        MorseRiccati(A=1.0, B=2.0, a=0.0)
    with pytest.raises(ValueError):
        MorseRiccati(A=math.inf, B=2.0, a=0.5)


@pytest.mark.parametrize("sign", list(RiccatiSign))
def test_residual_closure(shape, sign):
    sol = riccati.morse_riccati(shape, sign)
    for i in range(151):
        x = -5.0 + 0.1 * i
        assert riccati.riccati_residual(sol, x) <= 1e-12


def test_residual_detects_corruption(shape):
    sol = riccati.morse_riccati(shape, RiccatiSign.PLUS)
    bad = riccati.RiccatiSolution(
        eval_R=sol.eval_R,
        eval_dR=sol.eval_dR,
        sign=sol.sign,
        eval_u=lambda x: sol.eval_u(x) + 1.0,
    )
    assert riccati.riccati_residual(bad, 0.7) == pytest.approx(1.0, abs=1e-12)


def test_sign_mismatch_is_two_r_squared(shape):
    plus = riccati.morse_riccati(shape, RiccatiSign.PLUS)
    x = 0.3
    wrong = abs(plus.eval_dR(x) - plus.eval_R(x) ** 2 - plus.eval_u(x))
    assert wrong == pytest.approx(2.0 * plus.eval_R(x) ** 2, rel=1e-12)


@given(st.floats(min_value=-5.0, max_value=10.0), st.floats(min_value=-5.0, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_monotonicity(x1, x2):
    shape = MorseRiccati(A=1.0, B=2.0, a=0.5)
    sol = riccati.morse_riccati(shape, RiccatiSign.PLUS)
    # require a gap wide enough that exp(-a x) actually changes in floats
    if x1 + 1e-9 < x2:
        assert riccati.morse_y(shape, x1) > riccati.morse_y(shape, x2) > 0.0
        assert sol.eval_R(x1) < sol.eval_R(x2)


def test_morse_y_values(shape):
    assert riccati.morse_y(shape, 0.0) == pytest.approx(8.0)
    assert riccati.morse_y(shape, 3.0) == pytest.approx(8.0 * math.exp(-1.5), rel=1e-12)
    assert riccati.morse_y(shape, 100.0) > 0.0


def test_morse_y_array_overflow_raises(shape):
    # y is past the double range at x = -2000, and at x = -1416, where only
    # the product 2B/a e^{-ax} overflows: the float and the array call both
    # raise, naming that x, and numpy does not warn first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for x in (-2000.0, -1416.0):
            with pytest.raises(OverflowError, match=rf"x = {x:g}\b"):
                riccati.morse_y(shape, np.array([x, 0.0, 3.0]))
            with pytest.raises(OverflowError, match=rf"x = {x:g}\b"):
                riccati.morse_y(shape, x)
    assert caught == []


def test_user_supplied_superpotential_validation():
    sol = riccati.from_superpotential(
        R=lambda x: math.tanh(x),
        dR=lambda x: 1.0 / math.cosh(x) ** 2,
        sign=RiccatiSign.MINUS,
        validate_at=[-1.0, 0.0, 2.0],
    )
    assert riccati.riccati_residual(sol, 0.5) <= 1e-12
    with pytest.raises(ValueError):
        riccati.from_superpotential(
            R=lambda x: math.tanh(x),
            dR=lambda x: 0.5,  # wrong derivative
            sign=RiccatiSign.MINUS,
            validate_at=[0.0],
        )
