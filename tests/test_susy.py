import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmorse import riccati, susy
from nhmorse.riccati import MorseRiccati, RiccatiSign
from nhmorse.susy import ExtensionParams, Ladder, RealCaseParams, Sector


@pytest.fixture
def morse_sol():
    return riccati.morse_riccati(MorseRiccati(A=1.0, B=2.0, a=0.5), RiccatiSign.PLUS)


def zero_sol():
    return riccati.from_superpotential(lambda x: 0.0, lambda x: 0.0, RiccatiSign.PLUS)


def test_real_case_epsilon():
    p = RealCaseParams(m=1.5, E=2.0)
    assert p.epsilon == pytest.approx(4.0 - 2.25)


def test_real_partner_zero_superpotential():
    sol = zero_sol()
    for sector in Sector:
        assert susy.real_partner_potential(sol, 1.3, sector, 0.7) == 0.0


def test_real_partner_asymptotics(morse_sol):
    m, A = 1.0, 1.0
    for sector in Sector:
        val = susy.real_partner_potential(morse_sol, m, sector, 60.0)
        assert val == pytest.approx((m + A) ** 2 - m * m, abs=1e-9)


def test_real_partner_hand_value(morse_sol):
    # (m + R(0))^2 - m^2 - R'(0) with m=1, R(0)=-1, R'(0)=1
    assert susy.real_partner_potential(morse_sol, 1.0, Sector.FERMIONIC, 0.0) == pytest.approx(-2.0)


def test_partner_difference_is_minus_two_dr(morse_sol):
    for x in (-1.0, 0.0, 0.4, 2.0):
        diff = susy.real_partner_potential(morse_sol, 0.7, Sector.FERMIONIC, x) - \
            susy.real_partner_potential(morse_sol, 0.7, Sector.BOSONIC, x)
        assert diff == pytest.approx(-2.0 * morse_sol.eval_dR(x), rel=1e-12)


def test_complex_coefficient_hand_value(morse_sol):
    ext = ExtensionParams(K=1.0, Kprime=2.0)
    q = susy.complex_potential_coefficient(morse_sol, ext, Sector.FERMIONIC, 0.0)
    assert q == pytest.approx(-3.0 - 2.0j)


def test_complex_coefficient_real_at_k_zero(morse_sol):
    ext = ExtensionParams(K=0.0, Kprime=2.0)
    for x in (0.0, 0.5, 2.0):
        q = susy.complex_potential_coefficient(morse_sol, ext, Sector.BOSONIC, x)
        assert q.imag == 0.0


def test_complex_coefficient_asymptotics(morse_sol):
    ext = ExtensionParams(K=1.0, Kprime=2.0)
    q = susy.complex_potential_coefficient(morse_sol, ext, Sector.FERMIONIC, 60.0)
    A = 1.0
    expected = complex((1.0 - 4.0) - A * A, 2.0 * ext.K * A)
    assert abs(q - expected) < 1e-9


def test_imaginary_part_is_2kr(morse_sol):
    ext = ExtensionParams(K=1.7, Kprime=0.4)
    for x in (-0.5, 0.0, 1.2):
        q = susy.complex_potential_coefficient(morse_sol, ext, Sector.BOSONIC, x)
        assert q.imag == 2.0 * ext.K * morse_sol.eval_R(x)


def test_single_k_zero_witten_form(morse_sol):
    for x in (0.0, 1.0):
        q = susy.complex_potential_coefficient(morse_sol, ExtensionParams(0.0, 0.0), Sector.FERMIONIC, x)
        assert q == pytest.approx(morse_sol.eval_dR(x) - morse_sol.eval_R(x) ** 2)


def test_apply_first_order_free_particle():
    sol = zero_sol()
    lam = 0.7
    x = 0.3
    f = cmath.exp(lam * x)
    out = susy.apply_first_order(Ladder.RAISE, sol, 0.0, f, lam * f, x)
    assert abs(out - 1j * lam * f) < 1e-14


@pytest.mark.parametrize("sign", list(RiccatiSign))
def test_array_calls_match_float_calls(sign):
    # R, R', u and the ladder operator take an array of x with no other
    # change; each element agrees with the float call at that x, to 1e-15
    # relative, or absolute below one: np.exp and math.exp may differ in
    # the last bit, and R = A - B e^{-ax} cancels near x = 1.39
    sol = riccati.morse_riccati(MorseRiccati(A=1.0, B=2.0, a=0.5), sign)
    xs = np.linspace(-5.0, 10.0, 31)
    f = np.exp(1j * xs) * (1.0 + xs)
    df = 1j * f + np.exp(1j * xs)
    arrays = [
        sol.eval_R(xs), sol.eval_dR(xs), sol.eval_u(xs),
        susy.apply_first_order(Ladder.RAISE, sol, 0.7, f, df, xs),
        susy.apply_first_order(Ladder.LOWER, sol, 0.7, f, df, xs),
    ]
    for i, x in enumerate(xs.tolist()):
        fi, dfi = complex(f[i]), complex(df[i])
        floats = [
            sol.eval_R(x), sol.eval_dR(x), sol.eval_u(x),
            susy.apply_first_order(Ladder.RAISE, sol, 0.7, fi, dfi, x),
            susy.apply_first_order(Ladder.LOWER, sol, 0.7, fi, dfi, x),
        ]
        for arr, ref in zip(arrays, floats):
            assert abs(arr[i] - ref) <= 1e-15 * max(abs(ref), 1.0)


def test_apply_first_order_annihilates_zero_mode(morse_sol):
    # f = e^{-int R}, f' = -R f is the K = 0 zero mode of the raise operator
    x = 0.8
    f = 2.2 + 0.5j
    df = -morse_sol.eval_R(x) * f
    out = susy.apply_first_order(Ladder.RAISE, morse_sol, 0.0, f, df, x)
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
    sol = riccati.morse_riccati(MorseRiccati(A=1.0, B=2.0, a=0.5), RiccatiSign.PLUS)
    ext = ExtensionParams(K=K, Kprime=Kprime)
    lam = complex(lam_re, lam_im)
    f = cmath.exp(lam * x)
    df = lam * f
    d2f = lam * lam * f
    Rx = sol.eval_R(x)
    dRx = sol.eval_dR(x)
    for first, second, sector in (
        (Ladder.RAISE, Ladder.LOWER, Sector.FERMIONIC),
        (Ladder.LOWER, Ladder.RAISE, Sector.BOSONIC),
    ):
        g = susy.apply_first_order(first, sol, K, f, df, x)
        # d/dx of (+/- i f' + (K + iR) f), using the analytic derivatives
        s = 1j if first is Ladder.RAISE else -1j
        dg = s * d2f + 1j * dRx * f + (K + 1j * Rx) * df
        composed = susy.apply_first_order(second, sol, K, g, dg, x)
        q = susy.complex_potential_coefficient(sol, ext, sector, x)
        # (A-+ A+- - K^2) f = f'' + (Q + K'^2 - K^2) f
        expected = d2f + (q + Kprime * Kprime - K * K) * f
        lhs = composed - K * K * f
        assert abs(lhs - expected) <= 1e-9 * max(1.0, abs(expected))


def test_hamiltonian_eigen_residual(morse_sol):
    # w'' + Q w = 0 for the derived-map wavefunction, Q the susy bracket
    import numpy as np

    from nhmorse import morse as morse_mod
    from nhmorse import verify
    from nhmorse.morse import MorseParameters, ParameterMap
    from nhmorse.verify import Grid1D

    p = MorseParameters(K=1.0)
    ext = ExtensionParams(K=1.0, Kprime=2.0)

    def Q(xs):
        return np.array([susy.complex_potential_coefficient(morse_sol, ext, Sector.FERMIONIC, x) for x in xs.tolist()])

    def derivs(xs):
        return morse_mod.wavefunction_derivs_grid(p, Sector.FERMIONIC, ParameterMap.DERIVED, xs)

    rep = verify.ode_residual(Q, derivs, Grid1D(0.0, 3.0, 51), tol=1e-8)
    assert rep.passed
