import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmorse import checks, riccati
from nhmorse.morse import MorseParameters
from nhmorse.riccati import MorseRiccati, RiccatiSign


@pytest.fixture
def shape():
    return MorseRiccati(A=1.0, B=2.0, a=0.5)


def test_morse_riccati_values(shape):
    assert shape.R(0.0) == pytest.approx(-1.0)
    assert shape.dR(0.0) == pytest.approx(1.0)
    assert shape.R(50.0) == pytest.approx(shape.A, abs=1e-9)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        MorseRiccati(A=1.0, B=-2.0, a=0.5)
    with pytest.raises(ValueError):
        MorseRiccati(A=1.0, B=2.0, a=0.0)
    with pytest.raises(ValueError):
        MorseRiccati(A=math.inf, B=2.0, a=0.5)


@pytest.mark.parametrize("sign", list(RiccatiSign))
def test_residual_closure(shape, sign):
    # R' +/- R^2 is the Morse potential written out by hand:
    # +/-(B^2 e^{-2ax} - (2A -/+ a) B e^{-ax} + A^2)
    A, B, a = shape.A, shape.B, shape.a
    for i in range(151):
        x = -5.0 + 0.1 * i
        e = math.exp(-a * x)
        u = sign.value * (B * B * e * e - (2.0 * A - sign.value * a) * B * e + A * A)
        assert abs(shape.witten(sign, x) - u) <= 1e-12


def test_closure_check_fails_on_swapped_constants(monkeypatch):
    # riccati-closure builds its reference potential from C1_bar and C2_bar,
    # not from R, so swapping the two constants makes it fail
    assert checks.check_riccati_closure().passed
    c1, c2 = MorseParameters.C1_bar, MorseParameters.C2_bar
    monkeypatch.setattr(MorseParameters, "C1_bar", c2)
    monkeypatch.setattr(MorseParameters, "C2_bar", c1)
    rep = checks.check_riccati_closure()
    assert not rep.passed
    assert rep.line().startswith("FAIL riccati-closure")


def test_sign_mismatch_is_two_r_squared(shape):
    x = 0.3
    wrong = abs(shape.witten(RiccatiSign.MINUS, x) - shape.witten(RiccatiSign.PLUS, x))
    assert wrong == pytest.approx(2.0 * shape.R(x) ** 2, rel=1e-12)


@given(st.floats(min_value=-5.0, max_value=10.0), st.floats(min_value=-5.0, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_monotonicity(x1, x2):
    shape = MorseRiccati(A=1.0, B=2.0, a=0.5)
    # require a gap wide enough that exp(-a x) actually changes in floats
    if x1 + 1e-9 < x2:
        assert riccati.morse_y(shape, x1) > riccati.morse_y(shape, x2) > 0.0
        assert shape.R(x1) < shape.R(x2)


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

