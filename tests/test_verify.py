import math
import warnings

import numpy as np
import pytest

from nhmorse import morse, specfun, verify
from nhmorse.errors import NonConvergence, ParameterPole
from nhmorse.morse import MorseParameters, ParameterMap
from nhmorse.specfun import WhittakerIndices
from nhmorse.susy import Sector
from nhmorse.verify import Grid1D


class TestGrid:
    def test_points(self):
        g = Grid1D(0.0, 1.0, 5)
        assert list(g.points()) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 5)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)


class TestReferenceKummer:
    def test_exponential(self):
        val = verify.reference_kummer(1.0, 1.0, 1.0, target_rel=1e-14)
        assert abs(val - math.e) < 1e-14 * math.e

    def test_terminating_exact(self):
        # 1F1(-3; 2; 5): 1 - 15/2 + 25/2 - 125/24 = 19/24
        exact = 1.0 - 15.0 / 2.0 + 25.0 / 2.0 - 125.0 / 24.0
        ref = verify.reference_kummer(-3.0, 2.0, 5.0)
        val = specfun.kummer_m(-3.0, 2.0, 5.0)
        assert abs(ref - exact) <= 1e-14 * abs(exact)
        assert abs(val - ref) <= 1e-14 * abs(exact)

    def test_pole_rejected(self):
        with pytest.raises(ParameterPole):
            verify.reference_kummer(0.5, -1.0, 2.0)

    def test_target_rel_floor(self):
        with pytest.raises(ValueError):
            verify.reference_kummer(1.0, 1.0, 1.0, target_rel=1e-16)

    def test_agreement_with_kummer_m(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            a = complex(rng.uniform(-7, 7), rng.uniform(-7, 7))
            b = complex(rng.uniform(-7, 7), rng.uniform(-7, 7))
            r = round(b.real)
            if r <= 0 and abs(b - r) < 0.05:
                continue
            z = rng.uniform(0.01, 30.0)
            ref = verify.reference_kummer(a, b, z)
            val = specfun.kummer_m(a, b, z)
            assert abs(val - ref) <= 1e-10 * max(abs(ref), 1e-300)


def const(c):
    return lambda xs: np.full(xs.shape, complex(c))


def exp_derivs(xs):
    e = np.exp(xs) + 0j
    return e, e, e


def sin_derivs(xs):
    return np.sin(xs) + 0j, np.cos(xs) + 0j, -np.sin(xs) + 0j


class TestOdeResidual:
    def test_exponential_solution(self):
        # w'' - w = 0 with Q = -1 and w = e^x
        rep = verify.ode_residual(const(-1.0), exp_derivs, Grid1D(0.0, 2.0, 21))
        assert rep.max_rel_residual <= 1e-14

    def test_sine_solution_analytic(self):
        rep = verify.ode_residual(const(1.0), sin_derivs, Grid1D(0.0, 3.0, 31))
        assert rep.max_rel_residual <= 1e-10

    def test_finite_difference_fallback(self):
        rep = verify.ode_residual(const(1.0), verify.fd_derivs(np.sin), Grid1D(0.5, 3.0, 11))
        assert rep.passed, rep.line()

    def test_detects_non_solution(self):
        rep = verify.ode_residual(const(1.0), exp_derivs, Grid1D(0.0, 1.0, 11), tol=1e-8)
        assert not rep.passed

    def test_morse_derived_map(self):
        p = MorseParameters(K=1.0)
        rep = verify.ode_residual(
            lambda xs: morse.ode_coefficient(p, Sector.FERMIONIC, xs),
            lambda xs: morse.wavefunction_derivs_row(p, Sector.FERMIONIC, ParameterMap.DERIVED, xs),
            Grid1D(0.0, 3.0, 61),
        )
        assert rep.passed


def _one(xs):
    """Q = 1 at every point: w'' + w = 0."""
    return np.full(xs.shape, 1.0 + 0.0j)


class TestIntegrator:
    def test_sine(self):
        w, dw = verify.integrate_ode(_one, 0.0, 0.0, 1.0, math.pi / 2.0, step=1e-4)
        assert abs(w - 1.0) <= 1e-9
        assert abs(dw) <= 1e-9

    def test_backward_integration(self):
        w, _ = verify.integrate_ode(_one, math.pi / 2.0, 1.0, 0.0, 0.0, step=1e-3)
        assert abs(w) <= 1e-8

    def test_morse_cross_check(self):
        p = MorseParameters(K=1.0)
        pmap = ParameterMap.DERIVED

        def Q(xs):
            return morse.ode_coefficient(p, Sector.FERMIONIC, xs)

        w0, dw0, _ = morse.wavefunction_derivs(p, Sector.FERMIONIC, pmap, 1.0)
        w, _ = verify.integrate_ode(Q, 1.0, w0, dw0, 2.0, step=1e-4)
        exact = morse.wavefunction_derivs(p, Sector.FERMIONIC, pmap, 2.0)[0]
        assert abs(w - exact) <= 1e-6 * abs(exact)

    def test_order_four_step_halving(self):
        errs = []
        for h in (0.02, 0.01):
            w, dw = verify.integrate_ode(_one, 0.0, 0.0, 1.0, 1.0, step=h)
            errs.append(math.hypot(abs(w - math.sin(1.0)), abs(dw - math.cos(1.0))))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            verify.integrate_ode(_one, 0.0, 0.0, 1.0, 1.0, step=-1.0)

    def test_whittaker_equation_cross_check(self):
        # integrate the Whittaker normal form in y, seeded at y=1
        idx = WhittakerIndices(kappa=2.5, mu=4.0)

        def Q(ys):
            return -0.25 + idx.kappa / ys + (0.25 - idx.mu * idx.mu) / (ys * ys)

        f0, f1, _ = specfun.whittaker_m_derivs(idx, 1.0)
        f, _ = verify.integrate_ode(Q, 1.0, f0, f1, 8.0, step=1e-4)
        exact = specfun.whittaker_m_derivs(idx, 8.0)[0]
        assert abs(f - exact) <= 1e-6 * abs(exact)


class TestWronskian:
    def test_sin_cos(self):
        rep = verify.wronskian_constancy(
            lambda xs: (np.sin(xs) + 0j, np.cos(xs) + 0j),
            lambda xs: (np.cos(xs) + 0j, -np.sin(xs) + 0j),
            Grid1D(0.0, 3.0, 31),
        )
        assert rep.passed
        assert rep.max_rel_residual <= 1e-14

    def test_degenerate_pair_flagged(self):
        f = lambda xs: (np.sin(xs) + 0j, np.cos(xs) + 0j)
        rep = verify.wronskian_constancy(f, f, Grid1D(0.0, 3.0, 11))
        assert "zero-scale" in rep.note

    def test_zero_mean_reports_finite_deviation(self):
        # W = f g' - g f' = cos x takes 1, 0, -1 on [0, pi]: zero mean, scale 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify.wronskian_constancy(
                lambda xs: (np.ones_like(xs), np.zeros_like(xs)),
                lambda xs: (np.zeros_like(xs), np.cos(xs)),
                Grid1D(0.0, math.pi, 3),
            )
        assert "degenerate" in rep.note and not rep.passed
        assert type(rep.max_abs_residual) is float
        assert rep.max_abs_residual == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_morse_m_w_pair(self):
        p = MorseParameters(K=1.0, alpha1=1, beta1=0)
        q = MorseParameters(K=1.0, alpha1=0, beta1=1)
        pmap = ParameterMap.DERIVED
        sector = Sector.FERMIONIC
        rep = verify.wronskian_constancy(
            lambda xs: morse.wavefunction_derivs_row(p, sector, pmap, xs),
            lambda xs: morse.wavefunction_derivs_row(q, sector, pmap, xs),
            Grid1D(0.2, 3.0, 29),
        )
        assert rep.passed, rep.line()


class TestIntertwiningCheck:
    def test_corrupted_partner_fails(self):
        # multiplying w2 by x destroys the proportionality
        p = MorseParameters(K=1.0)
        pmap = ParameterMap.DERIVED
        corrupted = lambda xs: xs * morse.wavefunction_derivs_row(p, Sector.BOSONIC, pmap, xs)[0]
        rep = verify.intertwining_check(
            p, pmap, Grid1D(0.2, 3.0, 29), w2_override=corrupted
        )
        assert not rep.passed

    def test_reports_proportionality_constant(self):
        rep = verify.intertwining_check(MorseParameters(K=1.0), ParameterMap.DERIVED, Grid1D(0.2, 3.0, 29))
        assert "mean_ratio/Kprime" in rep.note


class TestReportInvariants:
    def test_pass_iff_within_tolerance(self):
        rep = verify.ode_residual(const(-1.0), exp_derivs, Grid1D(0.0, 1.0, 11), tol=1e-8)
        assert rep.passed == (rep.max_rel_residual <= rep.tolerance)
        assert rep.max_abs_residual >= 0.0 and rep.max_rel_residual >= 0.0

    def test_deterministic(self):
        args = (const(1.0), verify.fd_derivs(np.sin), Grid1D(0.0, 3.0, 21))
        a = verify.ode_residual(*args)
        b = verify.ode_residual(*args)
        assert a.max_rel_residual == b.max_rel_residual

    def test_fd_residual_order(self):
        # FD residual of a true solution drops ~h^4 until roundoff; compare
        # the built-in step with a 10x larger one
        def resid(h_scale):
            worst = 0.0
            for x in np.linspace(0.5, 2.5, 9):
                h = h_scale * (1.0 + abs(x))
                vals = [math.sin(x + k * h) for k in (-2, -1, 0, 1, 2)]
                second = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
                worst = max(worst, abs(second + math.sin(x)))
            return worst

        # ~1e-4 for pure h^4; the small-step residual sits near the eps/h^2
        # roundoff floor, so only require a clear drop
        assert resid(1e-3) / resid(1e-2) < 0.05
