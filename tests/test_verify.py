import hashlib
import inspect
import itertools
import math
import random
import re
import warnings

import numpy as np
import pytest

from nhmorse import checks, morse, specfun, verify
from nhmorse.errors import NonConvergence, ParameterPole
from nhmorse.morse import MorseParameters, ParameterMap, WhittakerIndices
from nhmorse.susy import Sector

import kummer_oracle_table
from whittaker_triples import whittaker_m


class TestReferenceKummer:
    def test_exponential(self, monkeypatch):
        # the tail bound stops the sum within the target: at a target of
        # 1e-14, e to that accuracy
        monkeypatch.setattr(verify, "_REF_TARGET_REL", 1e-14)
        val = verify.reference_kummer(1.0, 1.0, 1.0)
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
        assert block.tobytes() == floats.tobytes()
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
        assert kummer_oracle_table.draw()[3].tobytes() == expected.tobytes()

    def test_stored_oracle_table_is_a_fresh_draw(self):
        # the samples and references that kummer-oracle reads equal a new
        # draw and reference_kummer call, bit for bit, so the table cannot
        # go stale
        stored = np.load(kummer_oracle_table.PATH)
        assert (stored.shape, stored.dtype) == ((4, 1000), complex)
        assert stored.tobytes() == kummer_oracle_table.draw().tobytes()
        a, b, z, ref = checks._kummer_oracle_samples()
        assert z.dtype == float and np.all(stored[2].imag == 0.0)
        assert np.array([a, b, z, ref]).tobytes() == stored.tobytes()

    def test_oracle_check_reads_the_table(self, monkeypatch):
        # a verify pass neither draws the samples nor sums the references
        def refuse(*args, **kwargs):
            raise AssertionError("kummer-oracle drew or summed its table")

        monkeypatch.setattr(verify, "reference_kummer", refuse)
        monkeypatch.setattr(random, "Random", refuse)
        rep = checks.check_kummer_oracle()
        assert rep.passed and rep.grid_size == 1000

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
            verify.reference_kummer(1.0, 2.0, 800.0)
        # in C order, (b, z) = (3, 800) is the lowest index that overflows:
        # the array call raises that element's own float-call message
        with pytest.raises(NonConvergence) as array_call:
            verify.reference_kummer(1.0, np.array([[3.0], [2.0]]), np.array([1.0, 800.0]))
        with pytest.raises(NonConvergence) as float_call:
            verify.reference_kummer(1.0, 3.0, 800.0)
        assert str(array_call.value) == str(float_call.value)

    def test_modulus_past_the_float_range_is_inf(self):
        # abs raises OverflowError for finite parts whose modulus overflows
        assert verify._modulus(3.0 + 4.0j) == 5.0
        assert verify._modulus(complex(1.5e308, 1.5e308)) == math.inf

    def test_array_pole_names_b(self):
        with pytest.raises(ParameterPole, match=r"b = \(-2\+0j\)"):
            verify.reference_kummer(0.5, np.array([1.5, -2.0, 3.0]), 2.0)
        # a terminating a whose series ends before the pole is no pole
        assert verify.reference_kummer(np.array([-2.0]), np.array([-2.0]), 2.0).shape == (1,)

    def test_terminating_a_at_the_term_limit(self, monkeypatch):
        # a = -k stops before term k, which the loop reaches only for k
        # below the term limit
        expected = verify.reference_kummer(-19.0, 1.0, 3.0)
        monkeypatch.setattr(verify, "_REF_MAX_TERMS", 20)
        last = verify.reference_kummer(np.array([-19.0]), 1.0, 3.0)
        assert last.tobytes() == np.array([expected]).tobytes()
        with pytest.raises(NonConvergence, match=r"did not converge: a=\(-20\+0j\)"):
            verify.reference_kummer(np.array([-19.0, -20.0]), 1.0, 3.0)

    def test_tail_stop_at_the_term_limit(self, monkeypatch):
        # 1F1(1; 2; z) stops on its tail bound at term 15 for z = 1.3 and at
        # term 16 for z = 1.55: it converges under a limit of one term more
        # and not under that term count
        for z, last in ((1.3, 15), (1.55, 16)):
            expected = verify.reference_kummer(1.0, 2.0, z)
            monkeypatch.setattr(verify, "_REF_MAX_TERMS", last)
            with pytest.raises(NonConvergence, match="did not converge"):
                verify.reference_kummer(1.0, 2.0, z)
            monkeypatch.setattr(verify, "_REF_MAX_TERMS", last + 1)
            assert verify.reference_kummer(1.0, 2.0, z) == expected
            monkeypatch.undo()

    def test_overflow_after_an_earlier_stop(self):
        # 1F1(-18; -18; 2) stops at term 17 (its term 18 is 0/0), and
        # 1F1(1; 2; 1e17) and 1F1(1; 2.5; 1e17) first overflow at term 19,
        # 1F1(1; 2; 1e100) at term 3
        def message(a, b, z):
            with pytest.raises(NonConvergence, match="not finite") as info:
                verify.reference_kummer(a, b, z)
            return str(info.value)

        stopper = verify.reference_kummer(np.array([-18.0]), np.array([-18.0]), np.array([2.0]))
        assert stopper.tobytes() == np.array([verify.reference_kummer(-18.0, -18.0, 2.0)]).tobytes()
        # the lowest index of those that fail, whichever term fails first,
        # with the message of the element's own float call
        a, z = np.array([-18.0, 1.0, 1.0]), np.array([2.0, 1e17, 1e17])
        assert message(a, np.array([-18.0, 2.5, 2.0]), z) == message(1.0, 2.5, 1e17)
        assert message(a, np.array([-18.0, 2.0, 2.5]), z) == message(1.0, 2.0, 1e17)
        # index 0 fails at term 19, index 2 at term 3
        a, b, z = np.array([1.0, -18.0, 1.0]), np.array([2.0, -18.0, 2.0]), np.array([1e17, 2.0, 1e100])
        assert message(a, b, z) == message(1.0, 2.0, 1e17)


def const(c, xs):
    return np.full(xs.shape, complex(c))


def exp_derivs(xs):
    e = np.exp(xs) + 0j
    return e, e, e


def sin_derivs(xs):
    return np.sin(xs) + 0j, np.cos(xs) + 0j, -np.sin(xs) + 0j


def residual(q, triple):
    """The worst verify.ode_residual of the value and second derivative of
    a triple."""
    w, _, d2w = triple
    return float(verify.ode_residual(q, w, d2w).max())


class TestOdeResidual:
    def test_exponential_solution(self):
        # w'' - w = 0 with Q = -1 and w = e^x
        xs = np.linspace(0.0, 2.0, 21)
        assert residual(const(-1.0, xs), exp_derivs(xs)) <= 1e-14

    def test_sine_solution_analytic(self):
        xs = np.linspace(0.0, 3.0, 31)
        assert residual(const(1.0, xs), sin_derivs(xs)) <= 1e-10

    def test_finite_difference_fallback(self):
        xs = np.linspace(0.5, 3.0, 11)
        assert residual(const(1.0, xs), sin_derivs(xs)) <= 1e-8

    def test_two_row_block_reports_the_worse_row(self):
        # Q and the triple as (2, N) blocks, a solution and a non-solution
        # of w'' + w = 0: each row of the block's residual is that row's
        # own, so its worst value is the worse row's
        xs = np.linspace(0.0, 3.0, 31)
        bad = np.sin(xs) + 0.1 * xs**2 + 0j, np.cos(xs) + 0.2 * xs + 0j, -np.sin(xs) + 0.2 + 0j
        q = const(1.0, xs)
        single = [verify.ode_residual(q, d[0], d[2]) for d in (sin_derivs(xs), bad)]
        w, _, d2w = (np.stack(rows) for rows in zip(sin_derivs(xs), bad))
        block = verify.ode_residual(np.stack((q, q)), w, d2w)
        assert block.shape == (2, 31) and block.tobytes() == np.stack(single).tobytes()
        assert block.max() == single[1].max() > 1e-3

    def test_detects_non_solution(self):
        xs = np.linspace(0.0, 1.0, 11)
        assert residual(const(1.0, xs), exp_derivs(xs)) > 1e-8

    def test_morse_derived_map(self):
        p = MorseParameters(K=1.0)
        xs = np.linspace(0.0, 3.0, 61)
        worst = residual(
            morse.ode_coefficient(p, Sector.FERMIONIC, xs),
            morse.wavefunction_grid(p, Sector.FERMIONIC, ParameterMap.DERIVED, xs, derivs=True),
        )
        assert worst <= 1e-8


def _one(xs):
    """Q = 1 at every point: w'' + w = 0."""
    return np.full(xs.shape, 1.0 + 0.0j)


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
    f0, f1, _ = whittaker_m(idx, 1.0)
    return (lambda ys: -0.25 + idx.kappa / ys + (0.25 - idx.mu * idx.mu) / (ys * ys)), 1.0, f0, f1, 3.0


class TestIntegrator:
    @pytest.mark.parametrize("problem", [_morse_problem, _whittaker_problem])
    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 3000])
    @pytest.mark.parametrize("backward", [False, True])
    def test_equals_the_scalar_loop(self, problem, n, backward, monkeypatch):
        # n steps exactly, so the blocks of Q end short of, at and past the
        # block size; Q at one step per call (the plain scalar loop), at
        # blocks of 7 and at one block of all steps give the same result
        Q, x0, w0, dw0, x1 = problem()
        if backward:
            x0, x1 = x1, x0
        step = abs(x1 - x0) / (n - 0.5)
        got = verify.integrate_ode(Q, x0, w0, dw0, x1, step=step)
        for block in (1, 7, 10**6):
            monkeypatch.setattr(verify, "_RK4_BLOCK", block)
            ref = verify.integrate_ode(Q, x0, w0, dw0, x1, step=step)
            assert math.hypot(*(abs(g - r) for g, r in zip(got, ref))) <= 1e-13 * math.hypot(*map(abs, ref)), block

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

    def test_nan_step_rejected(self):
        with pytest.raises(ValueError, match="step must be > 0, got nan"):
            verify.integrate_ode(_one, 0.0, 0.0, 1.0, 1.0, step=math.nan)

    def test_whittaker_equation_cross_check(self):
        # integrate the Whittaker normal form in y, seeded at y=1
        idx = WhittakerIndices(kappa=2.5, mu=4.0)

        def Q(ys):
            return -0.25 + idx.kappa / ys + (0.25 - idx.mu * idx.mu) / (ys * ys)

        f0, f1, _ = whittaker_m(idx, 1.0)
        f, _ = verify.integrate_ode(Q, 1.0, f0, f1, 8.0, step=1e-4)
        exact = whittaker_m(idx, 8.0)[0]
        assert abs(f - exact) <= 1e-6 * abs(exact)


class TestWronskian:
    def test_two_row_block_reports_the_worse_row(self):
        # row r of f pairs with row r of g, each row's Wronskian with its
        # own mean: constant Wronskians of -1 and -2 in one block are both
        # constant, and a non-constant row makes the report that row's
        xs = np.linspace(0.0, 3.0, 31)
        sin_cos = np.sin(xs) + 0j, np.cos(xs) + 0j
        cos_sin = np.cos(xs) + 0j, -np.sin(xs) + 0j
        line = xs + 0j, np.ones_like(xs) + 0j

        def stack(*pairs):
            return tuple(np.stack(rows) for rows in zip(*pairs))

        twice = 2.0 * cos_sin[0], 2.0 * cos_sin[1]
        constant, _ = verify.wronskian_constancy(*stack(sin_cos, sin_cos), *stack(cos_sin, twice))
        assert constant <= 1e-14
        single = [verify.wronskian_constancy(*sin_cos, *g)[0] for g in (cos_sin, line)]
        worst, _ = verify.wronskian_constancy(*stack(sin_cos, sin_cos), *stack(cos_sin, line))
        assert worst == max(single) > 0.1

    def test_sin_cos(self):
        xs = np.linspace(0.0, 3.0, 31)
        rel, _ = verify.wronskian_constancy(np.sin(xs) + 0j, np.cos(xs) + 0j, np.cos(xs) + 0j, -np.sin(xs) + 0j)
        assert rel <= 1e-14

    def test_degenerate_pair_flagged(self):
        xs = np.linspace(0.0, 3.0, 11)
        f = np.sin(xs) + 0j, np.cos(xs) + 0j
        assert verify.wronskian_constancy(*f, *f) == (math.inf, "zero-scale: Wronskian identically zero")

    def test_zero_mean_is_degenerate_without_warning(self):
        # W = f g' - g f' = cos x takes 1, 0, -1 on [0, pi]: zero mean, scale 1
        xs = np.linspace(0.0, math.pi, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rel, note = verify.wronskian_constancy(np.ones_like(xs), np.zeros_like(xs), np.zeros_like(xs), np.cos(xs))
        assert type(rel) is float and rel == math.inf
        assert note == "degenerate: zero-mean Wronskian"

    def test_morse_m_w_pair(self):
        p = MorseParameters(K=1.0, alpha1=1, beta1=0)
        q = MorseParameters(K=1.0, alpha1=0, beta1=1)
        pmap = ParameterMap.DERIVED
        sector = Sector.FERMIONIC
        xs = np.linspace(0.2, 3.0, 29)
        f, df, _ = morse.wavefunction_grid(p, sector, pmap, xs, derivs=True)
        g, dg, _ = morse.wavefunction_grid(q, sector, pmap, xs, derivs=True)
        assert verify.wronskian_constancy(f, df, g, dg)[0] <= 1e-8


class TestIntertwiningCheck:
    xs = np.linspace(0.2, 3.0, 29)

    def sides(self, p):
        """A+ w1 and w2 at p on xs, derived map."""
        pmap = ParameterMap.DERIVED
        w2 = morse.wavefunction_grid(p, Sector.BOSONIC, pmap, self.xs, derivs=True)[0][0]
        return checks.raised_fermionic(p, pmap, self.xs), w2

    def test_corrupted_partner_fails(self):
        # multiplying w2 by x destroys the proportionality
        p = MorseParameters(K=1.0)
        raised, w2 = self.sides(p)
        assert verify.intertwining_check(raised, self.xs * w2, p.Kprime)[0] > 1e-8

    def test_reports_proportionality_constant(self):
        p = MorseParameters(K=1.0)
        rel, note = verify.intertwining_check(*self.sides(p), p.Kprime)
        assert rel <= 1e-8 and note.startswith("mean_ratio/Kprime = ")

    def test_zero_ratio_is_zero_scale_not_nan(self):
        # alpha1 = beta1 = 0 makes w1, hence A+ w1 and the ratio, zero
        # everywhere; this once gave nan with a RuntimeWarning
        p = MorseParameters(K=1.0, alpha1=0, beta1=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rel, note = verify.intertwining_check(*self.sides(p), p.Kprime)
        assert type(rel) is float and rel == math.inf
        assert note.startswith("zero-scale: ratio identically zero; mean_ratio/Kprime = ")

    def test_zero_mean_ratio_is_degenerate(self):
        # the ratio cos x takes 1, 0, -1 on [0, pi]: zero mean, scale 1
        xs = np.linspace(0.0, math.pi, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rel, note = verify.intertwining_check(np.cos(xs) + 0j, np.ones_like(xs) + 0j, 2.0)
        assert rel == math.inf
        assert note.startswith("degenerate: zero-mean ratio; mean_ratio/Kprime = ")

    def test_all_points_degenerate_reads_inf(self):
        # no point with |partner| > 1e-12 leaves no ratio to reduce
        rel, note = verify.intertwining_check(np.ones(3) + 0j, np.array([0.0, 1e-12, -1e-13j]), 2.0)
        assert rel == math.inf and note == "all grid points degenerate (|partner| <= 1e-12)"

    def test_same_reduction_as_wronskian(self):
        # a ratio and a Wronskian with the same values give the same deviation
        xs = np.linspace(0.0, 1.0, 17)
        vals = np.exp(1j * xs) + 3.0
        ratio = verify.intertwining_check(vals, np.ones_like(xs) + 0j, 0.0)
        wronskian = verify.wronskian_constancy(np.ones_like(xs) + 0j, np.zeros_like(xs) + 0j, np.zeros_like(xs), vals)
        assert ratio == wronskian and ratio[0] > 0.0 and ratio[1] == ""


class TestReportInvariants:
    def test_pass_iff_within_tolerance(self):
        # checks judges an oracle's number: a report passes where it is
        # finite and within the tolerance, so an unmeasured inf never does
        xs = np.linspace(0.0, 1.0, 11)
        worst = residual(const(-1.0, xs), exp_derivs(xs))
        assert worst >= 0.0
        for rel, tol in itertools.product((worst, math.inf), (worst, worst / 2.0, 1e-8, math.inf)):
            rep = checks.ResidualReport("ode-residual", 11, rel, tol)
            assert rep.passed == (math.isfinite(rel) and rel <= tol)

    def test_deterministic(self):
        xs = np.linspace(0.0, 3.0, 21)
        a, b = (verify.ode_residual(const(1.0, xs), *sin_derivs(xs)[::2]) for _ in range(2))
        assert a.tobytes() == b.tobytes()

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
