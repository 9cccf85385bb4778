import cmath
import itertools
import math
import random
import re
from functools import partial

import numpy as np
import pytest

from nhmorse import checks, morse, riccati, specfun, susy, verify
from nhmorse.errors import NonConvergence, NonNormalizable
from nhmorse.morse import BoundStateConvention, GridSpec, MorseParameters, ParameterMap
from nhmorse.susy import ExtensionParams, Sector
from nhmorse.verify import Grid1D

FIG = MorseParameters()  # A=1, B=2, a=0.5, K=0, K'=2


def _laguerre_form(p, sector, pmap, x):
    """alpha (2B/a)^{1/2} y^mu e^{-y/2} 1F1(mu - kappa + 1/2; 2 mu + 1; y) at
    one x, the 1F1 from float kummer_m."""
    idx = morse.indices(p, pmap).for_sector(sector)
    y = riccati.morse_y(p.shape(), x)
    core = specfun.kummer_m(idx.series_a, idx.series_b, y)
    alpha, _ = p.amplitudes(sector)
    return alpha * math.sqrt(2.0 * p.B / p.a) * cmath.exp(idx.mu * math.log(y) - 0.5 * y) * core


class TestParameters:
    def test_derived_coefficients(self):
        assert FIG.B_bar == 4.0
        assert FIG.C1_bar == 5.0
        assert FIG.C2_bar == 3.0

    def test_amplitude_defaults(self):
        assert FIG.alpha1 == 1.0 and FIG.beta1 == 0.0
        assert FIG.alpha2 == 1.0 and FIG.beta2 == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            MorseParameters(B=-1.0)

    @pytest.mark.parametrize(
        "bad", [{"A": math.nan}, {"A": -math.inf}, {"B": 0.0}, {"a": -0.5}], ids=["A=nan", "A=-inf", "B=0", "a<0"]
    )
    def test_shape_rule_at_construction(self, bad):
        # the Morse shape has one rule: MorseParameters raises the error of
        # MorseRiccati for the same A, B and a, a non-finite A included
        with pytest.raises(ValueError) as shape_error:
            riccati.MorseRiccati(**{"A": 1.0, "B": 2.0, "a": 0.5, **bad})
        with pytest.raises(ValueError, match=f"^{re.escape(str(shape_error.value))}$"):
            MorseParameters(**bad)


class TestIndices:
    def test_kappas(self):
        idx = morse.indices(MorseParameters(K=1.0), ParameterMap.PRINTED)
        assert idx.kappa1 == pytest.approx(2.5 - 2.0j)
        assert idx.kappa2 == pytest.approx(1.5 - 2.0j)
        # kappas agree between the maps
        idx2 = morse.indices(MorseParameters(K=1.0), ParameterMap.DERIVED)
        assert idx2.kappa1 == idx.kappa1 and idx2.kappa2 == idx.kappa2

    def test_mu_printed(self):
        idx = morse.indices(FIG, ParameterMap.PRINTED)
        assert idx.mu == pytest.approx(4.0 + 0.0j)

    def test_mu_derived(self):
        idx = morse.indices(FIG, ParameterMap.DERIVED)
        assert idx.mu == pytest.approx(2.0 * math.sqrt(5.0))

    def test_mu_branch_re_nonnegative(self):
        for K in (0.0, 0.7, 2.0, -1.5):
            for pmap in ParameterMap:
                mu = morse.indices(MorseParameters(K=K), pmap).mu
                assert mu.real >= 0.0

    @pytest.mark.parametrize("K, Kp", [(4.0, 0.0), (1.0, 0.5), (3.0, 2.0), (1e3, 7.0)])
    def test_a_zero_maps_agree_on_the_cut(self, K, Kp):
        # at A = 0 the maps coincide, and with K > K' mu^2 is real and
        # negative: both take the principal root, Im mu > 0, bit for bit
        printed, derived = (
            morse.indices(MorseParameters(A=0.0, K=K, Kprime=Kp), pmap).mu
            for pmap in (ParameterMap.PRINTED, ParameterMap.DERIVED)
        )
        assert (printed.real.hex(), printed.imag.hex()) == (derived.real.hex(), derived.imag.hex())
        assert printed.imag > 0.0

    def test_a_zero_is_pole_free(self):
        idx = morse.indices(MorseParameters(A=0.0, K=1.0), ParameterMap.PRINTED)
        assert idx.kappa1 == pytest.approx(0.5 - 2.0j)

    @pytest.mark.parametrize("pmap", list(ParameterMap))
    def test_huge_k_overflows(self, pmap):
        # K^2 overflows past |K| = 1.3e154, so mu is not finite there
        with pytest.raises(OverflowError, match=r"K = 1.0000000000000001e\+300"):
            morse.indices(MorseParameters(K=1e300), pmap)


class TestOdeCoefficient:
    def test_hand_value(self):
        q = morse.ode_coefficient(MorseParameters(K=1.0), Sector.FERMIONIC, 0.0)
        assert q == pytest.approx(-3.0 - 2.0j)

    def test_real_at_k_zero(self):
        for x in np.linspace(0.0, 3.0, 7):
            assert morse.ode_coefficient(FIG, Sector.BOSONIC, x).imag == 0.0

    def test_matches_generic_bracket(self):
        p = MorseParameters(A=0.7, B=1.3, a=0.9, K=1.4, Kprime=0.3)
        sol = riccati.morse_riccati(p.shape(), riccati.RiccatiSign.PLUS)
        ext = ExtensionParams(K=p.K, Kprime=p.Kprime)
        for sector in Sector:
            for x in np.linspace(0.0, 3.0, 100):
                lhs = morse.ode_coefficient(p, sector, x)
                rhs = susy.complex_potential_coefficient(sol, ext, sector, x)
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


class TestWavefunction:
    def test_real_at_k_zero_printed(self):
        w = morse.wavefunction_derivs(FIG, Sector.BOSONIC, ParameterMap.PRINTED, 0.0)[0]
        assert w.imag == 0.0

    def test_derived_map_solves_printed_ode(self):
        p = MorseParameters(K=1.0)
        grid = Grid1D(0.0, 3.0, 61)
        for sector in Sector:
            def Q(xs, sector=sector):
                return morse.ode_coefficient(p, sector, xs)

            def derivs(xs, sector=sector):
                return morse.wavefunction_derivs_row(p, sector, ParameterMap.DERIVED, xs)

            rep = verify.ode_residual(Q, derivs, grid, tol=1e-8)
            assert rep.passed, rep.line()

    def test_k_to_zero_continuity(self):
        small = MorseParameters(K=1e-8)
        for sector in Sector:
            a = morse.wavefunction_derivs(small, sector, ParameterMap.PRINTED, 1.0)[0]
            b = morse.wavefunction_derivs(FIG, sector, ParameterMap.PRINTED, 1.0)[0]
            assert abs(a - b) <= 1e-6 * max(1.0, abs(b))

    def test_derivatives_match_finite_difference(self):
        p = MorseParameters(K=0.8, beta1=0.3 + 0.1j, beta2=0.2j)
        x, h = 1.3, 1e-5
        for sector in Sector:
            w, dw, d2w = morse.wavefunction_derivs(p, sector, ParameterMap.DERIVED, x)
            wp = morse.wavefunction_derivs(p, sector, ParameterMap.DERIVED, x + h)[0]
            wm = morse.wavefunction_derivs(p, sector, ParameterMap.DERIVED, x - h)[0]
            assert abs((wp - wm) / (2 * h) - dw) <= 1e-7 * max(1.0, abs(dw))
            assert abs((wp - 2 * w + wm) / (h * h) - d2w) <= 1e-4 * max(1.0, abs(d2w))

    def test_overflow_raises(self):
        # x = -9.07 puts y near 746, where the M series overflows double
        # precision: a typed error naming the series, not (nan, nan, nan)
        with pytest.raises(NonConvergence, match=r"a=\(2\+0j\), b=\(9\+0j\), z=745\.78"):
            morse.wavefunction_derivs(FIG, Sector.FERMIONIC, ParameterMap.PRINTED, -9.07)

    def test_recessive_branch_residual_to_y_80(self):
        # the W branch over the recessive-sweep region: B in {2, 5, 10, 20},
        # K in [0, 2], x in [0, 3] (so y = (2B/a) e^{-ax} in [1.8, 80]), both
        # sectors, W-only and M + beta W, derived map; each parameter set
        # at one x through a float call and at 16 through an array call
        rng = random.Random(20061018)
        worst = 0.0
        for _ in range(400):
            B = rng.choice((2.0, 5.0, 10.0, 20.0))
            K = rng.uniform(0.0, 2.0)
            sector = rng.choice((Sector.FERMIONIC, Sector.BOSONIC))
            if rng.random() < 0.5:
                alpha, beta = 0.0j, 1.0 + 0.0j
            else:
                alpha, beta = 1.0 + 0.0j, cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            p = MorseParameters(
                A=1.0, B=B, a=0.5, K=K, Kprime=2.0,
                alpha1=alpha, beta1=beta, alpha2=alpha, beta2=beta,
            )
            x = rng.uniform(0.0, 3.0)
            xs = np.array([rng.uniform(0.0, 3.0) for _ in range(16)])
            w, _, d2w = morse.wavefunction_derivs(p, sector, ParameterMap.DERIVED, x)
            q = morse.ode_coefficient(p, sector, x)
            worst = max(worst, abs(d2w + q * w) / (1.0 + abs(q) * abs(w)))
            w, _, d2w = morse.wavefunction_derivs_row(p, sector, ParameterMap.DERIVED, xs)
            q = morse.ode_coefficient(p, sector, xs)
            worst = max(worst, np.max(np.abs(d2w + q * w) / (1.0 + np.abs(q) * np.abs(w))))
        assert worst <= 1e-8


class TestRowPath:
    def test_residual_sweep_rows_match_scalar(self):
        # every row of the residual-sweep checks: both maps, K in
        # {0, 0.5, 1, 2}, both sectors, M and W (the integer b = 9 of the
        # printed map at K = 0 too), 301 x
        xs = Grid1D(0.0, 3.0, 301).points()
        worst = 0.0
        for pmap in ParameterMap:
            for K in (0.0, 0.5, 1.0, 2.0):
                for sector in Sector:
                    for alpha, beta in ((1, 0), (0, 1)):
                        p = MorseParameters(K=K, alpha1=alpha, beta1=beta, alpha2=alpha, beta2=beta)
                        row = morse.wavefunction_derivs_row(p, sector, pmap, xs)
                        for i, x in enumerate(xs.tolist()):
                            for j, ref in enumerate(morse.wavefunction_derivs(p, sector, pmap, x)):
                                worst = max(worst, abs(row[j][i] - ref) / abs(ref))
        assert worst <= 1e-12

    def test_ode_coefficient_row_is_the_scalar_expression(self):
        p = MorseParameters(K=1.3)
        xs = np.linspace(0.0, 3.0, 31)
        for sector in Sector:
            row = morse.ode_coefficient(p, sector, xs)
            for x, q in zip(xs, row):
                assert abs(q - morse.ode_coefficient(p, sector, x)) <= 1e-14 * abs(q)

    def test_laguerre_form_figure_rows_match_scalar(self):
        # the default 61 x 41 figure grid as one block, M solution only
        xs = np.linspace(0.0, 3.0, 61)
        rows = [MorseParameters(K=K) for K in np.linspace(0.0, 2.0, 41).tolist()]
        for sector in Sector:
            block = morse.wavefunction_grid(rows, sector, ParameterMap.PRINTED, xs)
            assert block.shape == (41, 61)
            for p, values in zip(rows, block.tolist()):
                for x, v in zip(xs.tolist(), values):
                    ref = _laguerre_form(p, sector, ParameterMap.PRINTED, x)
                    assert abs(v - ref) <= 1e-14 * abs(ref)

    def test_grid_skips_zero_amplitude_terms_per_row(self):
        # rows with and without a W term in one block, each equal to its
        # scalar wavefunction: M only, M + W, W only and, printed map at
        # K' = 1, K = 0, the integer b = 5 W row
        xs = np.linspace(0.0, 3.0, 7)
        m_row = MorseParameters(K=0.0, Kprime=1.0)
        rows = [
            m_row,
            MorseParameters(K=1.0, Kprime=1.0, alpha2=0.5, beta2=1.0 - 1.0j),
            MorseParameters(K=0.5, Kprime=1.0, alpha2=0.0, beta2=0.25j),
            MorseParameters(K=0.0, Kprime=1.0, alpha2=0.0, beta2=1.0),
        ]
        block = morse.wavefunction_grid(rows, Sector.BOSONIC, ParameterMap.PRINTED, xs)
        for p, values in zip(rows, block.tolist()):
            for x, v in zip(xs.tolist(), values):
                ref = morse.wavefunction_derivs(p, Sector.BOSONIC, ParameterMap.PRINTED, x)[0]
                assert abs(v - ref) <= 1e-12 * abs(ref)
        with pytest.raises(ValueError):
            morse.wavefunction_grid([m_row, MorseParameters(B=3.0)], Sector.BOSONIC, ParameterMap.PRINTED, xs)


def loop_render_grid(spec):
    """CSV of the grid one f-string line per point: the formatter render_grid
    replaced, kept as its reference."""
    xs = np.linspace(spec.x_min, spec.x_max, spec.nx)
    Ks = np.linspace(spec.K_min, spec.K_max, spec.nK).tolist()
    amps = dict(alpha1=spec.alpha, beta1=spec.beta, alpha2=spec.alpha, beta2=spec.beta)
    rows = [MorseParameters(A=spec.A, B=spec.B, a=spec.a, K=K, Kprime=spec.Kprime, **amps) for K in Ks]
    w = morse.wavefunction_grid(rows, spec.component, spec.param_map, xs)
    ys = riccati.morse_y(riccati.MorseRiccati(A=spec.A, B=spec.B, a=spec.a), xs)
    x_text = [f"{x:.17g}" for x in xs.tolist()]
    y_text = [f"{y:.17g}" for y in ys.tolist()]
    lines = [morse.HEADER]
    for K, row in zip(Ks, w):
        k_text = f"{K:.17g}"
        lines.extend(
            f"{x},{k_text},{y},{re:.17g},{im:.17g}"
            for x, y, re, im in zip(x_text, y_text, row.real.tolist(), row.imag.tolist())
        )
    return "\n".join(lines) + "\n"


_AMPLITUDES = {"m": (1.0, 0.0), "w": (0.0, 1.0), "mix": (1.0, 0.5 - 0.3j)}


class TestRenderGrid:
    @pytest.mark.parametrize(
        "kind, sector, pmap", list(itertools.product(_AMPLITUDES, Sector, ParameterMap))
    )
    def test_equals_the_line_loop(self, kind, sector, pmap):
        # odd nx, and a K = 0 row first; K' = 1.9 keeps the W rows off integer b
        alpha, beta = _AMPLITUDES[kind]
        spec = GridSpec(Kprime=1.9, component=sector, param_map=pmap, alpha=alpha, beta=beta, nx=7, nK=3)
        assert morse.render_grid(spec) == loop_render_grid(spec)

    @pytest.mark.parametrize("spec", [
        GridSpec(nx=11, nK=1),
        GridSpec(A=0.0, Kprime=0.0, K_min=-1.0, K_max=4.0, nx=5, nK=6),
        GridSpec(x_min=-1.0, x_max=5.0, nx=1, nK=2),
    ])
    def test_edge_grids_equal_the_line_loop(self, spec):
        assert morse.render_grid(spec) == loop_render_grid(spec)

    def test_row_format_writes_the_fstring_bytes(self):
        # the row template formats values with %, the reference with format()
        for v in (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, -1.7976931348623157e308):
            assert "%.17g" % v == f"{v:.17g}"


class TestLaguerreForm:
    # the Laguerre form is a one-row wavefunction_grid
    def test_equals_m_wavefunction(self):
        p = MorseParameters(K=1.3)
        xs = np.linspace(0.0, 3.0, 13)
        for pmap in ParameterMap:
            for sector in Sector:
                row = morse.wavefunction_grid([p], sector, pmap, xs)[0]
                for x, lhs in zip(xs.tolist(), row.tolist()):
                    rhs = morse.wavefunction_derivs(p, sector, pmap, x)[0]  # beta = 0
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_figure_box_evaluates(self):
        xs = np.linspace(0.0, 3.0, 7)
        for K in np.linspace(0.0, 2.0, 5):
            p = MorseParameters(K=float(K))
            for sector in Sector:
                w = morse.wavefunction_grid([p], sector, ParameterMap.PRINTED, xs)
                assert np.isfinite(w).all()

    def test_k_zero_slice_real(self):
        xs = np.linspace(0.0, 3.0, 61)
        for sector in Sector:
            w = morse.wavefunction_grid([FIG], sector, ParameterMap.PRINTED, xs)
            assert np.abs(w.imag).max() <= 1e-12


class TestBoundStates:
    def test_non_normalizable(self):
        with pytest.raises(NonNormalizable):
            morse.hermitic_bound_state(1.0, 2.0, 0.5, 2, BoundStateConvention.PAPER, 0.0)
        with pytest.raises(NonNormalizable):
            morse.hermitic_bound_state(1.0, 2.0, 2.0, 0, BoundStateConvention.SHIFTED, 0.0)

    def test_ground_state_positive_profile(self):
        for x in np.linspace(-1.0, 4.0, 9):
            w = morse.hermitic_bound_state(1.0, 2.0, 0.5, 0, BoundStateConvention.SHIFTED, x)
            assert w.real > 0.0 and w.imag == 0.0

    def test_shifted_matched_eigenvalue_solves_ode(self):
        # the residual oracle decides the pairing: shifted convention with
        # K'^2 = a^2 s^2 - A^2 (negative) solves the printed bosonic equation
        A, B, a, n = 1.0, 2.0, 0.5, 0
        s = morse.bound_state_exponent(A, a, n, BoundStateConvention.SHIFTED)
        kp2 = a * a * s * s - A * A
        rep = checks.bound_state_residual(
            A, B, a, n, BoundStateConvention.SHIFTED, kp2, Grid1D(0.0, 3.0, 101)
        )
        assert kp2 < 0.0
        assert rep.passed, rep.line()

    def test_paper_convention_documented_failure(self):
        # with K' = A - a n real, the candidate does not solve the printed
        # bosonic equation; the residual is recorded, not hidden
        A, B, a, n = 1.0, 2.0, 0.5, 0
        kp = morse.bound_state_kprime(A, a, n, BoundStateConvention.PAPER)
        rep = checks.bound_state_residual(
            A, B, a, n, BoundStateConvention.PAPER, kp * kp, Grid1D(0.0, 3.0, 101)
        )
        assert math.isfinite(rep.max_rel_residual)
        assert rep.max_rel_residual > 1e-3

    def test_candidate_proportional_to_closed_form(self):
        A, B, a, n = 1.0, 2.0, 0.5, 1
        conv = BoundStateConvention.PAPER
        ratios = []
        for x in np.linspace(0.0, 2.0, 5):
            direct = morse.hermitic_bound_state(A, B, a, n, conv, x)
            wave = morse.bound_state_wave_derivs(A, B, a, n, conv, x)[0]
            ratios.append(direct / wave)
        assert max(abs(r - ratios[0]) for r in ratios) <= 1e-10 * abs(ratios[0])


class TestWhittakerLaguerreIdentity:
    def test_degree_zero_all_equal(self):
        lhs, rhs_printed, rhs_corrected = morse.whittaker_laguerre_identity(0, 2.0, 1.5)
        assert abs(lhs - rhs_printed) <= 1e-12 * abs(lhs)
        assert rhs_printed == rhs_corrected

    def test_degree_one_pochhammer_factor(self):
        lhs, rhs_printed, rhs_corrected = morse.whittaker_laguerre_identity(1, 2.0, 1.0)
        assert abs(lhs - rhs_corrected) <= 1e-10 * abs(lhs)
        assert abs(lhs / rhs_printed - 1.0 / 3.0) <= 1e-10

    def test_degree_two(self):
        lhs, _, rhs_corrected = morse.whittaker_laguerre_identity(2, 3.0, 4.0)
        assert abs(lhs - rhs_corrected) <= 1e-10 * max(1.0, abs(lhs))

    def test_pochhammer(self):
        assert morse.pochhammer(3.0, 0) == 1.0
        assert morse.pochhammer(3.0, 2) == 12.0


def intertwining(p: MorseParameters, grid: Grid1D):
    """verify.intertwining_check of A+ w_1 against w_2 at p, derived map."""
    pmap = ParameterMap.DERIVED
    raised = partial(checks.raised_fermionic, p, pmap)
    partner = lambda xs: morse.wavefunction_derivs_row(p, Sector.BOSONIC, pmap, xs)[0]
    return verify.intertwining_check(raised, partner, grid, p.Kprime)


class TestIntertwining:
    def test_raise_maps_w1_onto_w2(self):
        rep = intertwining(MorseParameters(K=1.0), Grid1D(0.2, 3.0, 29))
        assert rep.passed, rep.line()

    def test_k_zero_real_ratio(self):
        rep = intertwining(FIG, Grid1D(0.2, 3.0, 29))
        assert rep.passed
