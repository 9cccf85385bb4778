import cmath
import hashlib
import inspect
import math
import random
import re
import warnings
from functools import partial

import numpy as np
import pytest

from nhmorse import checks, morse, specfun, verify
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


def scalar_reference_kummer(a, b, z, target_rel=1e-13):
    """reference_kummer's one-element loop in Python complex arithmetic, as
    it stood before the oracle took arrays: the reference its array loop
    must match bit for bit."""
    a, b, z = complex(a), complex(b), float(z)
    ra = round(a.real)
    n_term = -ra if (ra <= 0 and abs(a - ra) <= 1e-12) else None
    term = total = 1.0 + 0.0j
    comp = 0.0 + 0.0j
    abs_a, abs_b, abs_z = abs(a), abs(b), abs(z)
    for n in range(20_000):
        if n_term is not None and n >= n_term:
            return total
        term *= ((a + n) * z) / ((b + n) * (n + 1))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if n_term is None and n + 1 > abs_b + 1.0:
            m = n + 1
            q = abs_z * (m + abs_a) / ((m - abs_b) * (m + 1))
            if q < 1.0 and abs(term) * q / (1.0 - q) <= target_rel * abs(total):
                return total
    raise NonConvergence(f"a={a}, b={b}, z={z}")


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

    def test_oracle_samples_unchanged(self):
        # sha256 of kummer-oracle's 1000 reference values as the
        # one-element loop summed them, before the oracle took arrays
        ref = checks._kummer_oracle_samples()[3]
        digest = hashlib.sha256(ref.tobytes()).hexdigest()
        assert digest == "592ccc315c709e2003fcf75aae0394765763f9c87b8cb9defdc68a73c6f1f325"

    def test_array_call_equals_float_calls_and_the_loop(self):
        rng = random.Random(11)
        # a row of terminating a (a = -n stops after n terms, even with b at
        # a nonpositive integer past it), then generic rows, against six z
        a = np.array([[-3.0, 0.0, -2.0 + 1e-13j, -5.0]] + [
            [complex(rng.uniform(-7, 7), rng.uniform(-7, 7)) for _ in range(4)] for _ in range(3)
        ])
        b = np.array([[2.0, 0.5, 1.5 - 2j, -6.0]] + [
            [complex(rng.uniform(0.5, 7), rng.uniform(-7, 7)) for _ in range(4)] for _ in range(3)
        ])
        z = np.array([1e-6, 0.7, 3.0, 12.5, 29.0, 0.0])
        a, b = a.reshape(-1, 1), b.reshape(-1, 1)
        block = verify.reference_kummer(a, b, z)
        assert block.shape == (16, 6)
        floats = np.array([
            [verify.reference_kummer(ai, bi, zi) for zi in z.tolist()]
            for ai, bi in zip(a[:, 0].tolist(), b[:, 0].tolist())
        ])
        loop = np.array([
            [scalar_reference_kummer(ai, bi, zi) for zi in z.tolist()]
            for ai, bi in zip(a[:, 0].tolist(), b[:, 0].tolist())
        ])
        assert block.tobytes() == floats.tobytes() == loop.tobytes()
        assert type(verify.reference_kummer(-3.0, 2.0, 5.0)) is complex
        assert verify.reference_kummer(-3.0, 2.0, np.array(5.0)).shape == ()

    def test_empty_array(self):
        out = verify.reference_kummer(1.0, np.zeros((0, 3)), np.ones(3))
        assert out.shape == (0, 3) and out.dtype == complex

    def test_independent_of_specfun(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reference_kummer called specfun")

        expected = checks._kummer_oracle_samples()[3]
        for name, value in vars(specfun).items():
            if not name.startswith("_") and inspect.isfunction(value):
                monkeypatch.setattr(specfun, name, refuse)
        with pytest.raises(AssertionError):
            specfun.kummer_m(1.0, 2.0, 1.0)
        assert checks._kummer_oracle_samples()[3].tobytes() == expected.tobytes()

    def test_within_mpmath_on_the_oracle_samples(self):
        mp = pytest.importorskip("mpmath")
        a, b, z, ref = checks._kummer_oracle_samples()
        worst = 0.0
        with mp.workdps(40):
            for ai, bi, zi, r in zip(a.tolist(), b.tolist(), z.tolist(), ref.tolist()):
                exact = mp.hyp1f1(mp.mpc(ai), mp.mpc(bi), mp.mpf(zi))
                worst = max(worst, float(abs(mp.mpc(r) - exact) / abs(exact)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(ValueError, match="z=(nan|inf)"):
            verify.reference_kummer(1.0, 2.0, z)
        with pytest.raises(ValueError, match="z=(nan|inf)"):
            verify.reference_kummer(1.0, 2.0, np.array([1.0, z]))

    def test_overflow_fails_fast(self):
        # 1F1(1; 2; 800) = (e^800 - 1)/800 is past the double range: the
        # first non-finite term or sum raises, not the term limit
        with pytest.raises(NonConvergence, match=r"not finite at a=\(1\+0j\), b=\(2\+0j\), z=800\.0"):
            verify.reference_kummer(1.0, np.array([[3.0], [2.0]]), np.array([1.0, 800.0]))

    def test_array_pole_names_b(self):
        with pytest.raises(ParameterPole, match=r"b = \(-2\+0j\)"):
            verify.reference_kummer(0.5, np.array([1.5, -2.0, 3.0]), 2.0)
        # a terminating a whose series ends before the pole is no pole
        assert verify.reference_kummer(np.array([-2.0]), np.array([-2.0]), 2.0).shape == (1,)


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


def loop_integrate_ode(Q, x0, w0, dw0, x1, step=1e-4):
    """RK4 one scalar step at a time, Q evaluated per block of 1024 steps:
    the loop integrate_ode replaced, kept as its reference."""
    if x1 == x0:
        return complex(w0), complex(dw0)
    n = max(1, math.ceil(abs(x1 - x0) / step))
    h = (x1 - x0) / n
    w = complex(w0)
    dw = complex(dw0)
    for start in range(0, n, 1024):
        xs = x0 + np.arange(start, min(start + 1024, n)) * h
        m = len(xs)
        q = Q(np.concatenate([xs, xs + 0.5 * h, xs + h])).tolist()
        for x, qs, qm, qe in zip(xs.tolist(), q[:m], q[m : 2 * m], q[2 * m :]):
            k1w, k1d = dw, -qs * w
            k2w, k2d = dw + 0.5 * h * k1d, -qm * (w + 0.5 * h * k1w)
            k3w, k3d = dw + 0.5 * h * k2d, -qm * (w + 0.5 * h * k2w)
            k4w, k4d = dw + h * k3d, -qe * (w + h * k3w)
            w = w + h / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
            dw = dw + h / 6.0 * (k1d + 2 * k2d + 2 * k3d + k4d)
            if not (cmath.isfinite(w) and cmath.isfinite(dw)):
                raise OverflowError(f"integration overflowed near x = {x + h}")
    return w, dw


def _morse_problem():
    """The fermionic Morse equation at K = 1 (derived map), seeded from its
    M solution at x = 1; integrated over [1, 2]."""
    p = MorseParameters(K=1.0)
    w0, dw0, _ = morse.wavefunction_derivs(p, Sector.FERMIONIC, ParameterMap.DERIVED, 1.0)
    return (lambda xs: morse.ode_coefficient(p, Sector.FERMIONIC, xs)), 1.0, w0, dw0, 2.0


def _whittaker_problem():
    """The Whittaker normal form in y at kappa = 2.5, mu = 4, seeded from
    M at y = 1; integrated over [1, 3]."""
    idx = WhittakerIndices(kappa=2.5, mu=4.0)
    f0, f1, _ = specfun.whittaker_m_derivs(idx, 1.0)
    return (lambda ys: -0.25 + idx.kappa / ys + (0.25 - idx.mu * idx.mu) / (ys * ys)), 1.0, f0, f1, 3.0


class TestIntegrator:
    @pytest.mark.parametrize("problem", [_morse_problem, _whittaker_problem])
    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 3000])
    @pytest.mark.parametrize("backward", [False, True])
    def test_equals_the_scalar_loop(self, problem, n, backward):
        # n steps exactly, so the blocks end short of, at and past a power of two
        Q, x0, w0, dw0, x1 = problem()
        if backward:
            x0, x1 = x1, x0
        step = abs(x1 - x0) / (n - 0.5)
        got = verify.integrate_ode(Q, x0, w0, dw0, x1, step=step)
        ref = loop_integrate_ode(Q, x0, w0, dw0, x1, step=step)
        assert math.hypot(*(abs(g - r) for g, r in zip(got, ref))) <= 1e-13 * math.hypot(*map(abs, ref))

    def test_zero_length_returns_the_seed_unevaluated(self):
        def Q(xs):
            raise AssertionError("Q evaluated")

        assert verify.integrate_ode(Q, 1.5, 2, 3j, 1.5) == (2 + 0j, 3j)

    def test_growing_solution_overflow_names_the_block(self):
        # w = cosh(1000 x) passes the largest float at x = 0.7105, inside the
        # block of steps 6144 to 7167
        with pytest.raises(OverflowError, match="between x = ") as info:
            verify.integrate_ode(lambda xs: np.full(xs.shape, -1e6 + 0j), 0.0, 1.0, 0.0, 1.0, step=1e-4)
        lo, hi = (float(v) for v in re.findall(r"x = (\S+)", str(info.value)))
        assert lo == pytest.approx(0.6144) and hi == pytest.approx(0.7168)

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
    @staticmethod
    def bosonic(p, pmap):
        return lambda xs: morse.wavefunction_derivs_row(p, Sector.BOSONIC, pmap, xs)[0]

    def test_corrupted_partner_fails(self):
        # multiplying w2 by x destroys the proportionality
        p = MorseParameters(K=1.0)
        pmap = ParameterMap.DERIVED
        w2 = self.bosonic(p, pmap)
        rep = verify.intertwining_check(
            partial(checks.raised_fermionic, p, pmap), lambda xs: xs * w2(xs), Grid1D(0.2, 3.0, 29), p.Kprime
        )
        assert not rep.passed

    def test_reports_proportionality_constant(self):
        p = MorseParameters(K=1.0)
        pmap = ParameterMap.DERIVED
        rep = verify.intertwining_check(
            partial(checks.raised_fermionic, p, pmap), self.bosonic(p, pmap), Grid1D(0.2, 3.0, 29), p.Kprime
        )
        assert "mean_ratio/Kprime" in rep.note

    def test_zero_ratio_is_zero_scale_not_nan(self):
        # alpha1 = beta1 = 0 makes w1, hence A+ w1 and the ratio, zero
        # everywhere; this once gave nan with a RuntimeWarning
        p = MorseParameters(K=1.0, alpha1=0, beta1=0)
        pmap = ParameterMap.DERIVED
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify.intertwining_check(
                partial(checks.raised_fermionic, p, pmap), self.bosonic(p, pmap), Grid1D(0.2, 3.0, 29), p.Kprime
            )
        assert type(rep.max_rel_residual) is float and rep.max_rel_residual == 0.0
        assert rep.passed and "zero-scale" in rep.note

    def test_zero_mean_ratio_is_degenerate(self):
        # the ratio cos x takes 1, 0, -1 on [0, pi]: zero mean, scale 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify.intertwining_check(
                lambda xs: np.cos(xs) + 0j, lambda xs: np.ones_like(xs) + 0j, Grid1D(0.0, math.pi, 3), 2.0
            )
        assert rep.max_rel_residual == math.inf and not rep.passed
        assert "degenerate" in rep.note
        assert rep.max_abs_residual == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_same_reduction_as_wronskian(self):
        # a ratio and a Wronskian with the same values give the same report figures
        vals = lambda xs: np.exp(1j * xs) + 3.0
        grid = Grid1D(0.0, 1.0, 17)
        ratio = verify.intertwining_check(vals, lambda xs: np.ones_like(xs) + 0j, grid, 0.0)
        one = lambda xs: (np.ones_like(xs) + 0j, np.zeros_like(xs) + 0j)
        wronskian = verify.wronskian_constancy(one, lambda xs: (np.zeros_like(xs), vals(xs)), grid)
        assert ratio.max_rel_residual == wronskian.max_rel_residual
        assert ratio.max_abs_residual == wronskian.max_abs_residual
        assert ratio.note == ""


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
