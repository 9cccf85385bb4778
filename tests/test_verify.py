import cmath
import hashlib
import inspect
import math
import random
import re
import warnings

import numpy as np
import pytest

from nhmorse import checks, morse, specfun, verify
from nhmorse.errors import NonConvergence, ParameterPole
from nhmorse.morse import MorseParameters, ParameterMap
from nhmorse.specfun import WhittakerIndices
from nhmorse.susy import Sector

import kummer_oracle_table
from whittaker_triples import whittaker_m


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

    @pytest.mark.parametrize("target_rel", [math.nan, math.inf])
    def test_non_finite_target_rel_rejected(self, target_rel):
        # nan once ran all 20,000 terms and inf stopped after the first
        with pytest.raises(ValueError, match=f"target_rel must be finite and >= 1e-14, got {target_rel}"):
            verify.reference_kummer(1.0, 2.0, 1.0, target_rel=target_rel)

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
            verify.reference_kummer(1.0, np.array([[3.0], [2.0]]), np.array([1.0, 800.0]))

    def test_array_pole_names_b(self):
        with pytest.raises(ParameterPole, match=r"b = \(-2\+0j\)"):
            verify.reference_kummer(0.5, np.array([1.5, -2.0, 3.0]), 2.0)
        # a terminating a whose series ends before the pole is no pole
        assert verify.reference_kummer(np.array([-2.0]), np.array([-2.0]), 2.0).shape == (1,)


class TestReferenceKummerChunks:
    """The chunked loop where an element's stop, or its first non-finite
    term, falls at an edge of a chunk, against the one-element loop."""

    def test_terminating_a_at_the_chunk_edges(self):
        C = verify._REF_CHUNK
        a = np.array([0.0, 1.0 - C, -C, -1.0 - C, -2.0 * C])[:, None]
        z = np.array([0.5, 2.0, 7.5])
        # b = a puts a pole right behind each stop: the next term is 0/0
        block = verify.reference_kummer(a, a, z)
        loop = [[scalar_reference_kummer(ai, ai, zi) for zi in z.tolist()] for ai in a[:, 0].tolist()]
        assert block.tobytes() == np.array(loop).tobytes()

    def test_terminating_a_at_the_term_limit(self, monkeypatch):
        # a = -k stops before term k, which the loop reaches only for k
        # below the term limit; the last chunk is cut short at the limit
        monkeypatch.setattr(verify, "_REF_MAX_TERMS", 20)
        last = verify.reference_kummer(np.array([-19.0]), 1.0, 3.0)
        assert last.tobytes() == np.array([scalar_reference_kummer(-19.0, 1.0, 3.0)]).tobytes()
        with pytest.raises(NonConvergence, match=r"did not converge: a=\(-20\+0j\)"):
            verify.reference_kummer(np.array([-19.0, -20.0]), 1.0, 3.0)

    def test_tail_stop_on_the_first_and_last_term_of_a_chunk(self, monkeypatch):
        # 1F1(1; 2; z) stops on its tail bound at term 15 for z = 1.3 and at
        # term 16 for z = 1.55: it converges under a limit of one term more
        # and not under that term count
        for z, last in ((1.3, 15), (1.55, 16)):
            monkeypatch.setattr(verify, "_REF_MAX_TERMS", last)
            with pytest.raises(NonConvergence, match="did not converge"):
                verify.reference_kummer(1.0, 2.0, z)
            monkeypatch.setattr(verify, "_REF_MAX_TERMS", last + 1)
            verify.reference_kummer(1.0, 2.0, z)
        monkeypatch.undo()
        rng = random.Random(5)
        z = np.concatenate([[1.3, 1.55], np.linspace(0.05, 6.0, 24)])
        a = np.array([[1.0]] + [[complex(rng.uniform(-3, 3), rng.uniform(-3, 3))] for _ in range(3)])
        b = np.array([[2.0]] + [[complex(rng.uniform(0.5, 4), rng.uniform(-3, 3))] for _ in range(3)])
        loop = np.array([
            [scalar_reference_kummer(ai, bi, zi) for zi in z.tolist()]
            for ai, bi in zip(a[:, 0].tolist(), b[:, 0].tolist())
        ])
        # chunks of 16 put term 16 first and term 15 last, chunks of 15
        # and 17 term 15 first and term 16 last, chunks of 1 every term both
        for chunk in (1, 2, 15, 16, 17, verify._REF_CHUNK):
            monkeypatch.setattr(verify, "_REF_CHUNK", chunk)
            assert verify.reference_kummer(a, b, z).tobytes() == loop.tobytes()

    def test_overflow_after_an_earlier_stop_in_the_same_chunk(self, monkeypatch):
        # in chunks of 16, terms 16 to 31 form the second: 1F1(-18; -18; 2)
        # stops at term 17 there (its term 18 is 0/0), and 1F1(1; 2; 1e17)
        # and 1F1(1; 2.5; 1e17) first overflow at term 19
        monkeypatch.setattr(verify, "_REF_CHUNK", 16)

        def message(a, b, z):
            with pytest.raises(NonConvergence, match="not finite") as info:
                verify.reference_kummer(np.array(a), np.array(b), np.array(z))
            return str(info.value)

        stopper = verify.reference_kummer(np.array([-18.0]), np.array([-18.0]), np.array([2.0]))
        assert stopper.tobytes() == np.array([scalar_reference_kummer(-18.0, -18.0, 2.0)]).tobytes()
        # the lowest index of those that overflow first, the same message as
        # the element's own float call
        assert message([-18.0, 1.0, 1.0], [-18.0, 2.5, 2.0], [2.0, 1e17, 1e17]) == message(1.0, 2.5, 1e17)
        assert message([-18.0, 1.0, 1.0], [-18.0, 2.0, 2.5], [2.0, 1e17, 1e17]) == message(1.0, 2.0, 1e17)
        # the earliest term before the lowest index: 1F1(1; 2; 1e100)
        # overflows at term 3
        assert message([1.0, -18.0, 1.0], [2.0, -18.0, 2.0], [1e17, 2.0, 1e100]) == message(1.0, 2.0, 1e100)


def const(c, xs):
    return np.full(xs.shape, complex(c))


def exp_derivs(xs):
    e = np.exp(xs) + 0j
    return e, e, e


def sin_derivs(xs):
    return np.sin(xs) + 0j, np.cos(xs) + 0j, -np.sin(xs) + 0j


def residual(q, triple, tol=1e-8):
    """verify.ode_residual of the value and second derivative of a triple."""
    w, _, d2w = triple
    return verify.ode_residual(q, w, d2w, tol=tol)


class TestOdeResidual:
    def test_exponential_solution(self):
        # w'' - w = 0 with Q = -1 and w = e^x
        xs = np.linspace(0.0, 2.0, 21)
        rep = residual(const(-1.0, xs), exp_derivs(xs))
        assert rep.max_rel_residual <= 1e-14

    def test_sine_solution_analytic(self):
        xs = np.linspace(0.0, 3.0, 31)
        rep = residual(const(1.0, xs), sin_derivs(xs))
        assert rep.max_rel_residual <= 1e-10

    def test_finite_difference_fallback(self):
        xs = np.linspace(0.5, 3.0, 11)
        rep = residual(const(1.0, xs), verify.fd_derivs(np.sin, xs))
        assert rep.passed, rep.line()

    def test_two_row_block_reports_the_worse_row(self):
        # Q and the triple as (2, N) blocks, a solution and a non-solution
        # of w'' + w = 0: the report is the worse of the two single-row ones
        xs = np.linspace(0.0, 3.0, 31)
        bad = np.sin(xs) + 0.1 * xs**2 + 0j, np.cos(xs) + 0.2 * xs + 0j, -np.sin(xs) + 0.2 + 0j
        q = const(1.0, xs)
        single = [residual(q, d) for d in (sin_derivs(xs), bad)]
        rep = residual(np.stack((q, q)), tuple(np.stack(rows) for rows in zip(sin_derivs(xs), bad)))
        assert rep.max_rel_residual == max(r.max_rel_residual for r in single) > 1e-3
        assert rep.max_abs_residual == max(r.max_abs_residual for r in single)
        assert rep.grid_size == 31 and not rep.passed

    def test_detects_non_solution(self):
        xs = np.linspace(0.0, 1.0, 11)
        rep = residual(const(1.0, xs), exp_derivs(xs), tol=1e-8)
        assert not rep.passed

    def test_morse_derived_map(self):
        p = MorseParameters(K=1.0)
        xs = np.linspace(0.0, 3.0, 61)
        rep = residual(
            morse.ode_coefficient(p, Sector.FERMIONIC, xs),
            morse.wavefunction_grid(p, Sector.FERMIONIC, ParameterMap.DERIVED, xs, derivs=True),
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
    f0, f1, _ = whittaker_m(idx, 1.0)
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
        constant = verify.wronskian_constancy(*stack(sin_cos, sin_cos), *stack(cos_sin, twice))
        assert constant.max_rel_residual <= 1e-14 and constant.passed
        single = [verify.wronskian_constancy(*sin_cos, *g) for g in (cos_sin, line)]
        rep = verify.wronskian_constancy(*stack(sin_cos, sin_cos), *stack(cos_sin, line))
        assert rep.max_rel_residual == max(r.max_rel_residual for r in single) > 0.1
        assert rep.max_abs_residual == max(r.max_abs_residual for r in single)
        assert rep.grid_size == 31 and not rep.passed

    def test_sin_cos(self):
        xs = np.linspace(0.0, 3.0, 31)
        rep = verify.wronskian_constancy(np.sin(xs) + 0j, np.cos(xs) + 0j, np.cos(xs) + 0j, -np.sin(xs) + 0j)
        assert rep.passed
        assert rep.max_rel_residual <= 1e-14

    def test_degenerate_pair_flagged(self):
        xs = np.linspace(0.0, 3.0, 11)
        f = np.sin(xs) + 0j, np.cos(xs) + 0j
        rep = verify.wronskian_constancy(*f, *f)
        assert "zero-scale" in rep.note

    def test_zero_mean_reports_finite_deviation(self):
        # W = f g' - g f' = cos x takes 1, 0, -1 on [0, pi]: zero mean, scale 1
        xs = np.linspace(0.0, math.pi, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify.wronskian_constancy(np.ones_like(xs), np.zeros_like(xs), np.zeros_like(xs), np.cos(xs))
        assert "degenerate" in rep.note and not rep.passed
        assert type(rep.max_abs_residual) is float
        assert rep.max_abs_residual == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_morse_m_w_pair(self):
        p = MorseParameters(K=1.0, alpha1=1, beta1=0)
        q = MorseParameters(K=1.0, alpha1=0, beta1=1)
        pmap = ParameterMap.DERIVED
        sector = Sector.FERMIONIC
        xs = np.linspace(0.2, 3.0, 29)
        f, df, _ = morse.wavefunction_grid(p, sector, pmap, xs, derivs=True)
        g, dg, _ = morse.wavefunction_grid(q, sector, pmap, xs, derivs=True)
        rep = verify.wronskian_constancy(f, df, g, dg)
        assert rep.passed, rep.line()


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
        rep = verify.intertwining_check(raised, self.xs * w2, p.Kprime)
        assert not rep.passed

    def test_reports_proportionality_constant(self):
        p = MorseParameters(K=1.0)
        rep = verify.intertwining_check(*self.sides(p), p.Kprime)
        assert "mean_ratio/Kprime" in rep.note

    def test_zero_ratio_is_zero_scale_not_nan(self):
        # alpha1 = beta1 = 0 makes w1, hence A+ w1 and the ratio, zero
        # everywhere; this once gave nan with a RuntimeWarning
        p = MorseParameters(K=1.0, alpha1=0, beta1=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify.intertwining_check(*self.sides(p), p.Kprime)
        assert type(rep.max_rel_residual) is float and rep.max_rel_residual == 0.0
        assert rep.passed and "zero-scale" in rep.note

    def test_zero_mean_ratio_is_degenerate(self):
        # the ratio cos x takes 1, 0, -1 on [0, pi]: zero mean, scale 1
        xs = np.linspace(0.0, math.pi, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify.intertwining_check(np.cos(xs) + 0j, np.ones_like(xs) + 0j, 2.0)
        assert rep.max_rel_residual == math.inf and not rep.passed
        assert "degenerate" in rep.note
        assert rep.max_abs_residual == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    def test_same_reduction_as_wronskian(self):
        # a ratio and a Wronskian with the same values give the same report figures
        xs = np.linspace(0.0, 1.0, 17)
        vals = np.exp(1j * xs) + 3.0
        ratio = verify.intertwining_check(vals, np.ones_like(xs) + 0j, 0.0)
        wronskian = verify.wronskian_constancy(np.ones_like(xs) + 0j, np.zeros_like(xs) + 0j, np.zeros_like(xs), vals)
        assert ratio.max_rel_residual == wronskian.max_rel_residual
        assert ratio.max_abs_residual == wronskian.max_abs_residual
        assert ratio.note == ""


class TestReportInvariants:
    def test_pass_iff_within_tolerance(self):
        xs = np.linspace(0.0, 1.0, 11)
        rep = residual(const(-1.0, xs), exp_derivs(xs), tol=1e-8)
        assert rep.passed == (rep.max_rel_residual <= rep.tolerance)
        assert rep.max_abs_residual >= 0.0 and rep.max_rel_residual >= 0.0

    def test_deterministic(self):
        xs = np.linspace(0.0, 3.0, 21)
        a, b = (residual(const(1.0, xs), verify.fd_derivs(np.sin, xs)) for _ in range(2))
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
