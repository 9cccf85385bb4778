import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmorse import morse, susy, verify
from nhmorse.morse import MorseParameters, ParameterMap
from nhmorse.riccati import MorseRiccati, RiccatiSign
from nhmorse.susy import Ladder, Sector


@pytest.fixture
def shape():
    return MorseRiccati(A=1.0, B=2.0, a=0.5)


def bracket(shape, K, Kprime, sector, x):
    """The susy bracket Q_i of the Morse superpotential at x."""
    return susy.complex_potential_coefficient(shape.R(x), shape.dR(x), K, Kprime, sector)


def test_complex_coefficient_hand_value(shape):
    q = bracket(shape, 1.0, 2.0, Sector.FERMIONIC, 0.0)
    assert q == pytest.approx(-3.0 - 2.0j)


def test_complex_coefficient_real_at_k_zero(shape):
    for x in (0.0, 0.5, 2.0):
        q = bracket(shape, 0.0, 2.0, Sector.BOSONIC, x)
        assert q.imag == 0.0


def test_complex_coefficient_asymptotics(shape):
    K = 1.0
    q = bracket(shape, K, 2.0, Sector.FERMIONIC, 60.0)
    A = 1.0
    expected = complex((1.0 - 4.0) - A * A, 2.0 * K * A)
    assert abs(q - expected) < 1e-9


def test_imaginary_part_is_2kr(shape):
    K = 1.7
    for x in (-0.5, 0.0, 1.2):
        q = bracket(shape, K, 0.4, Sector.BOSONIC, x)
        assert q.imag == 2.0 * K * shape.R(x)


def test_single_k_zero_witten_form(shape):
    for x in (0.0, 1.0):
        q = bracket(shape, 0.0, 0.0, Sector.FERMIONIC, x)
        assert q == pytest.approx(shape.witten(RiccatiSign.MINUS, x))


def test_apply_first_order_free_particle():
    lam = 0.7
    x = 0.3
    f = cmath.exp(lam * x)
    out = susy.apply_first_order(Ladder.RAISE, 0.0, 0.0, f, lam * f)
    assert abs(out - 1j * lam * f) < 1e-14


@pytest.mark.parametrize("sign", list(RiccatiSign))
def test_array_calls_match_float_calls(sign, shape):
    # R, R', R' +/- R^2 and the ladder operator take an array of x with no
    # other change; each element agrees with the float call at that x, to
    # 1e-15 relative, or absolute below one, as R = A - B e^{-ax} cancels
    # near x = 1.39
    xs = np.linspace(-5.0, 10.0, 31)
    f = np.exp(1j * xs) * (1.0 + xs)
    df = 1j * f + np.exp(1j * xs)
    R = shape.R(xs)
    arrays = [
        R, shape.dR(xs), shape.witten(sign, xs),
        susy.apply_first_order(Ladder.RAISE, R, 0.7, f, df),
        susy.apply_first_order(Ladder.LOWER, R, 0.7, f, df),
    ]
    for i, x in enumerate(xs.tolist()):
        fi, dfi = complex(f[i]), complex(df[i])
        floats = [
            shape.R(x), shape.dR(x), shape.witten(sign, x),
            susy.apply_first_order(Ladder.RAISE, shape.R(x), 0.7, fi, dfi),
            susy.apply_first_order(Ladder.LOWER, shape.R(x), 0.7, fi, dfi),
        ]
        for arr, ref in zip(arrays, floats):
            assert abs(arr[i] - ref) <= 1e-15 * max(abs(ref), 1.0)


def test_apply_first_order_annihilates_zero_mode(shape):
    # f = e^{-int R}, f' = -R f is the K = 0 zero mode of the raise operator
    x = 0.8
    f = 2.2 + 0.5j
    df = -shape.R(x) * f
    out = susy.apply_first_order(Ladder.RAISE, shape.R(x), 0.0, f, df)
    assert abs(out) < 1e-14


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-1.0, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_operator_algebra(lam_re, lam_im, K, Kprime, x):
    """Composing lower after raise reproduces the fermionic second-order
    bracket; raise after lower the bosonic one."""
    shape = MorseRiccati(A=1.0, B=2.0, a=0.5)
    lam = complex(lam_re, lam_im)
    f = cmath.exp(lam * x)
    df = lam * f
    d2f = lam * lam * f
    Rx = shape.R(x)
    dRx = shape.dR(x)
    for first, second, sector in (
        (Ladder.RAISE, Ladder.LOWER, Sector.FERMIONIC),
        (Ladder.LOWER, Ladder.RAISE, Sector.BOSONIC),
    ):
        g = susy.apply_first_order(first, Rx, K, f, df)
        # d/dx of (+/- i f' + (K + iR) f), using the analytic derivatives
        s = 1j if first is Ladder.RAISE else -1j
        dg = s * d2f + 1j * dRx * f + (K + 1j * Rx) * df
        composed = susy.apply_first_order(second, Rx, K, g, dg)
        q = susy.complex_potential_coefficient(Rx, dRx, K, Kprime, sector)
        # (A-+ A+- - K^2) f = f'' + (Q + K'^2 - K^2) f
        expected = d2f + (q + Kprime * Kprime - K * K) * f
        lhs = composed - K * K * f
        assert abs(lhs - expected) <= 1e-9 * max(1.0, abs(expected))


def test_hamiltonian_eigen_residual(shape):
    # w'' + Q w = 0 for the derived-map wavefunction, Q the susy bracket
    # over the whole grid in one call
    p = MorseParameters(K=1.0)
    xs = np.linspace(0.0, 3.0, 51)
    w, _, d2w = morse.wavefunction_grid(p, Sector.FERMIONIC, ParameterMap.DERIVED, xs, derivs=True)
    assert verify.ode_residual(bracket(shape, 1.0, 2.0, Sector.FERMIONIC, xs), w, d2w).max() <= 1e-8
