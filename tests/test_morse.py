import cmath
import dataclasses
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nhmorse import checks, morse, riccati, specfun, susy, verify
from nhmorse.errors import NonConvergence, NonNormalizable
from nhmorse.morse import GridSpec, MorseParameters, ParameterMap
from nhmorse.susy import Sector

FIG = MorseParameters()  # A=1, B=2, a=0.5, K=0, K'=2


def _column(values) -> np.ndarray:
    """The values as an (R, 1) column."""
    return np.array(values)[:, None]


def _row(p: MorseParameters, r: int) -> MorseParameters:
    """Row r of a record of (R, 1) columns, as a record of numbers."""
    columns = {f.name: getattr(p, f.name) for f in dataclasses.fields(p)}
    return dataclasses.replace(p, **{k: v[r, 0].item() for k, v in columns.items() if isinstance(v, np.ndarray)})


def _laguerre_form(p, sector, pmap, x):
    """alpha (2B/a)^{1/2} y^mu e^{-y/2} 1F1(mu - kappa + 1/2; 2 mu + 1; y) at
    one x, the 1F1 from float kummer_m."""
    idx = morse.indices(p, sector, pmap)
    y = riccati.morse_y(p, x)
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

    def test_record_is_its_shape(self):
        # the record is the superpotential shape it extends: R, R' and the
        # Witten combinations are the shape's own, with no copy to take
        p = MorseParameters(A=0.7, B=1.3, a=0.9, K=1.4)
        shape = riccati.MorseRiccati(A=0.7, B=1.3, a=0.9)
        xs = np.linspace(-1.0, 3.0, 9)
        assert isinstance(p, riccati.MorseRiccati) and not hasattr(p, "shape")
        assert np.array_equal(p.R(xs), shape.R(xs)) and np.array_equal(p.dR(xs), shape.dR(xs))
        for sign in riccati.RiccatiSign:
            assert np.array_equal(p.witten(sign, xs), shape.witten(sign, xs))
        assert np.array_equal(riccati.morse_y(p, xs), riccati.morse_y(shape, xs))

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

    @pytest.mark.parametrize("name", ["K", "Kprime", "alpha1", "beta1", "alpha2", "beta2"])
    def test_non_finite_point_field_raises(self, name):
        # a nan or infinite K, K' or amplitude is named at construction, as a
        # number or in an (R, 1) column, rather than surfacing as an index
        # overflow or a nan wavefunction on first use
        for bad in (math.nan, -math.inf, complex(0.0, math.nan)):
            with pytest.raises(ValueError, match=f"^require finite {name}, got {name} = "):
                MorseParameters(**{name: bad})
        with pytest.raises(ValueError, match=f"^require finite {name}, got {name} = nan in row 1$"):
            MorseParameters(**{name: _column([1.0, math.nan, math.inf])})

    @pytest.mark.parametrize("name", ["K", "Kprime", "alpha1", "beta1", "alpha2", "beta2"])
    def test_non_numeric_point_field_raises(self, name):
        # a nested list of the (R, 1) shape and an object column are named
        # with the type they are, as the record's ValueError, not a
        # TypeError from the finiteness test
        for bad, got in (([[1.0], [2.0]], "list"), (np.array([[1.0], [2.0]], dtype=object), "ndarray of dtype object")):
            with pytest.raises(ValueError, match=f"^{name} must be a number or a numeric numpy array, got {got}$"):
                MorseParameters(**{name: bad})
        # numpy scalars and bool columns pass
        for good in (np.float64(0.5), np.complex128(0.5j), np.int64(2), np.True_, _column([True, False])):
            MorseParameters(**{name: good})


class TestIndices:
    def test_kappas(self):
        kappa1, kappa2 = (morse.indices(MorseParameters(K=1.0), s, ParameterMap.PRINTED).kappa for s in Sector)
        assert kappa1 == pytest.approx(2.5 - 2.0j)
        assert kappa2 == pytest.approx(1.5 - 2.0j)
        # kappas agree between the maps
        derived = [morse.indices(MorseParameters(K=1.0), s, ParameterMap.DERIVED).kappa for s in Sector]
        assert derived == [kappa1, kappa2]

    def test_mu_printed(self):
        idx = morse.indices(FIG, Sector.FERMIONIC, ParameterMap.PRINTED)
        assert idx.mu == pytest.approx(4.0 + 0.0j)

    def test_mu_derived(self):
        idx = morse.indices(FIG, Sector.FERMIONIC, ParameterMap.DERIVED)
        assert idx.mu == pytest.approx(2.0 * math.sqrt(5.0))

    def test_mu_branch_re_nonnegative(self):
        for K in (0.0, 0.7, 2.0, -1.5):
            for pmap in ParameterMap:
                for sector in Sector:
                    mu = morse.indices(MorseParameters(K=K), sector, pmap).mu
                    assert mu.real >= 0.0

    @pytest.mark.parametrize("K, Kp", [(4.0, 0.0), (1.0, 0.5), (3.0, 2.0), (1e3, 7.0)])
    def test_a_zero_maps_agree_on_the_cut(self, K, Kp):
        # at A = 0 the maps coincide, and with K > K' mu^2 is real and
        # negative: both take the principal root, Im mu > 0, bit for bit
        printed, derived = (
            morse.indices(MorseParameters(A=0.0, K=K, Kprime=Kp), Sector.FERMIONIC, pmap).mu
            for pmap in (ParameterMap.PRINTED, ParameterMap.DERIVED)
        )
        assert (printed.real.hex(), printed.imag.hex()) == (derived.real.hex(), derived.imag.hex())
        assert printed.imag > 0.0

    def test_a_zero_is_pole_free(self):
        idx = morse.indices(MorseParameters(A=0.0, K=1.0), Sector.FERMIONIC, ParameterMap.PRINTED)
        assert idx.kappa == pytest.approx(0.5 - 2.0j)

    @pytest.mark.parametrize("pmap", list(ParameterMap))
    def test_huge_k_overflows(self, pmap):
        # K^2 overflows past |K| = 1.3e154, so mu is not finite there; in
        # columns the error names the first such row, and numpy warns nothing
        with pytest.raises(OverflowError, match=r"K = 1.0000000000000001e\+300"):
            morse.indices(MorseParameters(K=1e300), Sector.FERMIONIC, pmap)
        with pytest.raises(OverflowError, match=r"K = 1e\+308, K' = 2$"):
            morse.indices(MorseParameters(K=_column([1.0, 1e308, 1e300])), Sector.FERMIONIC, pmap)

    def test_columns_equal_the_float_indices_bit_for_bit(self):
        # the figure grid's 121 K values (the K = 2 row puts mu^2 at -4i on
        # the printed map), and negative K, A = 0 and a column of K'
        def bits(z):
            return z.real.hex(), z.imag.hex()

        Ks = np.linspace(0.0, 2.0, 121).tolist() + [-1.5, -0.0, 4.0]
        for A, Kp in ((1.0, 2.0), (0.0, 2.0), (1.0, _column([2.0, 0.0, 1.9] * 41 + [0.5]))):
            p = MorseParameters(A=A, K=_column(Ks), Kprime=Kp)
            for pmap in ParameterMap:
                for sector in Sector:
                    idx = morse.indices(p, sector, pmap)
                    assert idx.kappa.shape == idx.mu.shape == (len(Ks), 1)
                    for r in range(len(Ks)):
                        ref = morse.indices(_row(p, r), sector, pmap)
                        assert bits(idx.kappa[r, 0].item()) == bits(ref.kappa), (A, pmap, sector, r)
                        assert bits(idx.mu[r, 0].item()) == bits(ref.mu), (A, pmap, sector, r)


class TestOdeCoefficient:
    def test_hand_value(self):
        q = morse.ode_coefficient(MorseParameters(K=1.0), Sector.FERMIONIC, 0.0)
        assert q == pytest.approx(-3.0 - 2.0j)

    def test_real_at_k_zero(self):
        for x in np.linspace(0.0, 3.0, 7):
            assert morse.ode_coefficient(FIG, Sector.BOSONIC, x).imag == 0.0

    def test_matches_generic_bracket(self):
        p = MorseParameters(A=0.7, B=1.3, a=0.9, K=1.4, Kprime=0.3)
        for sector in Sector:
            for x in np.linspace(0.0, 3.0, 100):
                lhs = morse.ode_coefficient(p, sector, x)
                rhs = susy.complex_potential_coefficient(p.R(x), p.dR(x), p.K, p.Kprime, sector)
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_expansion_identity_columns_are_the_scalar_calls(self):
        # the check's six (K, K') pairs as columns give its 240 scalar
        # (params, sector) calls bit for bit, on both sides, and so the
        # same worst value over the same 2640 points
        xs = np.linspace(0.0, 3.0, 11)
        pairs = list(itertools.product((0.0, 1.0, 2.0), (0.0, 2.0)))
        K, Kp = (np.array(column)[:, None] for column in zip(*pairs))
        worst, calls = 0.0, 0
        for A, B, a in itertools.product((-1.0, 0.0, 0.5, 1.0, 2.0), (1.0, 2.0), (0.5, 1.0)):
            shape = riccati.MorseRiccati(A=A, B=B, a=a)
            R, dR = shape.R(xs), shape.dR(xs)
            block = MorseParameters(A=A, B=B, a=a, K=K, Kprime=Kp)
            for sector in Sector:
                lhs = morse.ode_coefficient(block, sector, xs)
                rhs = susy.complex_potential_coefficient(R, dR, K, Kp, sector)
                lhs_rows, rhs_rows = [], []
                for k, kp in pairs:
                    p = MorseParameters(A=A, B=B, a=a, K=k, Kprime=kp)
                    lhs_rows.append(morse.ode_coefficient(p, sector, xs))
                    rhs_rows.append(susy.complex_potential_coefficient(R, dR, k, kp, sector))
                    worst = max(worst, float(np.max(np.abs(lhs_rows[-1] - rhs_rows[-1]) / (1.0 + np.abs(rhs_rows[-1])))))
                    calls += 1
                assert lhs.tobytes() == np.array(lhs_rows).tobytes()
                assert rhs.tobytes() == np.array(rhs_rows).tobytes()
        rep = checks.check_expansion_identity()
        assert calls == 240
        assert (rep.max_rel_residual, rep.grid_size) == (worst, 2640)


class TestWavefunction:
    def test_real_at_k_zero_printed(self):
        w = morse.wavefunction_derivs(FIG, Sector.BOSONIC, ParameterMap.PRINTED, 0.0)[0]
        assert w.imag == 0.0

    def test_derived_map_solves_printed_ode(self):
        p = MorseParameters(K=1.0)
        xs = np.linspace(0.0, 3.0, 61)
        for sector in Sector:
            w, _, d2w = morse.wavefunction_grid(p, sector, ParameterMap.DERIVED, xs, derivs=True)
            assert verify.ode_residual(morse.ode_coefficient(p, sector, xs), w, d2w).max() <= 1e-8, sector

    def test_recessive_non_convergence_names_the_callers_a(self):
        # at x = 80 (y = 3.4e-17) the W quadrature does not settle; the error
        # names the W core's a = 1/2 + mu - kappa of each sector, not the
        # a + 2 or a + 1 that the quadrature took
        p = MorseParameters(K=1.0, Kprime=0.0, alpha1=0, beta1=1, alpha2=0, beta2=1)
        for sector in Sector:
            a = morse.indices(p, sector, ParameterMap.PRINTED).series_a
            assert a.real < 1.0
            with pytest.raises(NonConvergence, match=re.escape(f"did not converge: a={a}, b=")):
                morse.wavefunction_derivs(p, sector, ParameterMap.PRINTED, 80.0)
            with pytest.raises(NonConvergence, match=re.escape(f"did not converge: a={a}, b=")):
                morse.wavefunction_grid(p, sector, ParameterMap.PRINTED, np.array([80.0]), derivs=True)

    def test_recessive_overflow_raises_without_warnings(self):
        # at x = 300 (y = 5.7e-65) U(a, b, y) overflows before W's prefactor
        # brings it back: the W block raises its typed error and no numpy
        # warning comes before it
        p = MorseParameters(alpha1=0, beta1=1, alpha2=0, beta2=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonConvergence, match="tricomi_u quadrature did not converge"):
                morse.wavefunction_grid(p, Sector.FERMIONIC, ParameterMap.DERIVED, np.array([300.0]), derivs=True)
        assert caught == []

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

    def test_far_x_triples_equal_the_grid(self):
        # at x = 1400, y = 7.9e-304, and past x = 1490 (a = 0.5) y = 0: log y
        # is then log(2B/a) - a x, the prefactor y^mu e^{-y/2} has underflowed
        # to 0, and the M triples are the grid value and zeros, with no
        # warning; e^{ax/2} alone would overflow past x = 2839
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for x in (1400.0, 1500.0, 2900.0):
                xs = np.array([x])
                for pmap in ParameterMap:
                    for sector in Sector:
                        value = morse.wavefunction_grid(FIG, sector, pmap, xs)[0, 0]
                        block = [d[0, 0] for d in morse.wavefunction_grid(FIG, sector, pmap, xs, derivs=True)]
                        for triple in (morse.wavefunction_derivs(FIG, sector, pmap, x), block):
                            assert list(triple) == [value, 0.0, 0.0]
                # a bound state of exponent s is the M row at K = 0, K' = a s of
                # the printed map; where y is 0 or below 1e-300 its triple is
                # that row's value w and the limits -a s w and a^2 s^2 w
                for sector, n in ((Sector.FERMIONIC, 0), (Sector.FERMIONIC, 1), (Sector.BOSONIC, 0)):
                    s = morse.bound_state_exponent(1.0, 0.5, n, sector)
                    value = morse.wavefunction_grid(MorseParameters(Kprime=0.5 * s), sector, ParameterMap.PRINTED, xs)[0, 0]
                    for triple in (morse.bound_state_wave_derivs(1.0, 2.0, 0.5, n, sector, x),
                                   [d[0] for d in morse.bound_state_wave_derivs(1.0, 2.0, 0.5, n, sector, xs)]):
                        for got, ref in zip(triple, (value, -0.5 * s * value, 0.25 * s * s * value)):
                            assert abs(got - ref) <= 1e-15 * abs(ref), (x, sector, n)
                        assert (triple[0] == 0.0) == (x > 1400.0 or s > 1.0)
        assert caught == []

    @pytest.mark.parametrize("x", [1500.0, 2900.0])
    def test_underflowed_y_names_x(self, x):
        # at a = 0.5, y = 0 past x = 1490: W diverges there, and one error
        # names x for a W term, at a float x and in a block of the grid, of
        # values or triples alike
        w_only = MorseParameters(K=1.0, alpha1=0.0, beta1=1.0)
        with pytest.raises(ValueError, match=rf"underflows to 0 at x = {x:g}\b"):
            morse.wavefunction_derivs(w_only, Sector.FERMIONIC, ParameterMap.DERIVED, x)
        rows = MorseParameters(K=np.array([[0.5], [1.0]]), alpha2=_column([1.0, 0.0]), beta2=_column([0.0, 1.0]))
        for derivs in (False, True):
            with pytest.raises(ValueError, match=rf"underflows to 0 at x = {x:g}\b"):
                morse.wavefunction_grid(rows, Sector.BOSONIC, ParameterMap.DERIVED, np.array([0.0, x]), derivs)

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
            w, _, d2w = (d[0] for d in morse.wavefunction_grid(p, sector, ParameterMap.DERIVED, xs, derivs=True))
            q = morse.ode_coefficient(p, sector, xs)
            worst = max(worst, np.max(np.abs(d2w + q * w) / (1.0 + np.abs(q) * np.abs(w))))
        assert worst <= 1e-8


class TestRowPath:
    def test_residual_sweep_rows_match_scalar(self):
        # every row of the residual-sweep checks: both maps, K in
        # {0, 0.5, 1, 2}, both sectors, M and W (the integer b = 9 of the
        # printed map at K = 0 too), 301 x
        xs = np.linspace(0.0, 3.0, 301)
        worst = 0.0
        for pmap in ParameterMap:
            for K in (0.0, 0.5, 1.0, 2.0):
                for sector in Sector:
                    for alpha, beta in ((1, 0), (0, 1)):
                        p = MorseParameters(K=K, alpha1=alpha, beta1=beta, alpha2=alpha, beta2=beta)
                        row = [d[0] for d in morse.wavefunction_grid(p, sector, pmap, xs, derivs=True)]
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
        rows = MorseParameters(K=np.linspace(0.0, 2.0, 41)[:, None])
        for sector in Sector:
            block = morse.wavefunction_grid(rows, sector, ParameterMap.PRINTED, xs)
            assert block.shape == (41, 61)
            for r, values in enumerate(block.tolist()):
                for x, v in zip(xs.tolist(), values):
                    ref = _laguerre_form(_row(rows, r), sector, ParameterMap.PRINTED, x)
                    assert abs(v - ref) <= 1e-14 * abs(ref)

    def test_grid_skips_zero_amplitude_terms_per_row(self):
        # rows with and without a W term in one block, each equal to its
        # scalar wavefunction: M only, M + W, W only and, printed map at
        # K' = 1, K = 0, the integer b = 5 W row
        xs = np.linspace(0.0, 3.0, 7)
        rows = MorseParameters(
            K=_column([0.0, 1.0, 0.5, 0.0]), Kprime=1.0,
            alpha2=_column([1.0, 0.5, 0.0, 0.0]), beta2=_column([0.0, 1.0 - 1.0j, 0.25j, 1.0]),
        )
        block = morse.wavefunction_grid(rows, Sector.BOSONIC, ParameterMap.PRINTED, xs)
        for r, values in enumerate(block.tolist()):
            for x, v in zip(xs.tolist(), values):
                ref = morse.wavefunction_derivs(_row(rows, r), Sector.BOSONIC, ParameterMap.PRINTED, x)[0]
                assert abs(v - ref) <= 1e-12 * abs(ref)

    def test_derivs_grid_rows_match_scalar(self):
        # the grid's triples (derivs=True):
        # M only, M + W, W only, the integer b = 5 W row and a row with no
        # term, in one block, each row equal to its scalar triples
        xs = np.linspace(0.0, 3.0, 7)
        rows = MorseParameters(
            K=_column([0.0, 1.0, 0.5, 0.0, 2.0]), Kprime=1.0,
            alpha2=_column([1.0, 0.5, 0.0, 0.0, 0.0]), beta2=_column([0.0, 1.0 - 1.0j, 0.25j, 1.0, 0.0]),
        )
        block = morse.wavefunction_grid(rows, Sector.BOSONIC, ParameterMap.PRINTED, xs, derivs=True)
        assert [v.shape for v in block] == [(5, 7)] * 3
        for r in range(5):
            for i, x in enumerate(xs.tolist()):
                for got, ref in zip(block, morse.wavefunction_derivs(_row(rows, r), Sector.BOSONIC, ParameterMap.PRINTED, x)):
                    assert abs(got[r, i] - ref) <= 1e-12 * abs(ref)

    def test_one_record_of_numbers_is_one_row(self):
        xs = np.linspace(0.0, 3.0, 5)
        p = MorseParameters(K=0.7, beta2=0.5j)
        block = morse.wavefunction_grid(p, Sector.BOSONIC, ParameterMap.DERIVED, xs, derivs=True)
        assert [v.shape for v in block] == [(1, 5)] * 3
        assert morse.wavefunction_grid(p, Sector.BOSONIC, ParameterMap.DERIVED, xs).shape == (1, 5)
        for i, x in enumerate(xs.tolist()):
            for got, ref in zip(block, morse.wavefunction_derivs(p, Sector.BOSONIC, ParameterMap.DERIVED, x)):
                assert abs(got[0, i] - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("field, value", [
        ("K", np.zeros(3)), ("Kprime", np.zeros((2, 2))), ("alpha1", np.ones((1, 1, 1))), ("beta2", np.zeros((1, 2))),
    ])
    def test_fields_are_numbers_or_columns(self, field, value):
        # any shape but a number or an (R, 1) column is rejected by name
        with pytest.raises(ValueError, match=rf"^{field} must be a number or an \(R, 1\) column, got shape"):
            MorseParameters(**{field: value})

    def test_sweep_blocks_match_single_rows(self):
        # the residual sweeps' blocks, 4 K x {M only, W only} per sector and
        # map over 301 x, against one-row calls
        xs = np.linspace(0.0, 3.0, 301)
        rows = checks._m_and_w_rows([0.0, 0.5, 1.0, 2.0])
        for pmap in ParameterMap:
            for sector in Sector:
                block = morse.wavefunction_grid(rows, sector, pmap, xs, derivs=True)
                for r in range(8):
                    for got, ref in zip(block, morse.wavefunction_grid(_row(rows, r), sector, pmap, xs, derivs=True)):
                        assert np.all(np.abs(got[r] - ref[0]) <= 1e-13 * np.abs(ref[0])), (pmap, sector, r)

    def test_w_term_in_row_chunks_matches_single_rows(self):
        # more W rows than one chunk of the W term: every row as its own call
        xs = np.linspace(0.0, 3.0, 13)
        rows = MorseParameters(K=np.linspace(0.0, 2.0, 2 * morse._W_ROWS + 5)[:, None], Kprime=1.9, alpha2=0.0, beta2=1.0)
        for derivs in (False, True):
            block = np.reshape(morse.wavefunction_grid(rows, Sector.BOSONIC, ParameterMap.PRINTED, xs, derivs), (-1, len(rows.K), xs.size))
            for r in range(len(rows.K)):
                ref = np.reshape(morse.wavefunction_grid(_row(rows, r), Sector.BOSONIC, ParameterMap.PRINTED, xs, derivs), (-1, xs.size))
                assert np.all(np.abs(block[:, r] - ref) <= 1e-13 * np.abs(ref)), (derivs, r)

    def test_w_terms_do_not_call_the_public_tricomi_u(self, monkeypatch):
        # U and its triple come from tricomi_u_derivs: perfbench's span of the
        # public tricomi_u reads its z as a float, so no array z may reach it
        def refuse(*args):
            raise AssertionError("tricomi_u called")

        monkeypatch.setattr(specfun, "tricomi_u", refuse)
        rows = checks._m_and_w_rows([0.0, 1.0])
        for derivs in (False, True):
            morse.wavefunction_grid(rows, Sector.BOSONIC, ParameterMap.DERIVED, np.linspace(0.0, 3.0, 5), derivs)
        morse.wavefunction_derivs(MorseParameters(beta1=1.0), Sector.FERMIONIC, ParameterMap.DERIVED, 1.0)

    def test_large_grid_csv_does_not_depend_on_blas_threads(self, tmp_path):
        # every matrix product of the M and W blocks stays within OpenBLAS's
        # one-thread size, so fresh interpreters with one and with two BLAS
        # threads write the same bytes for a 601 x 401 grid of each kind
        src = str(Path(morse.__file__).resolve().parents[1])
        digests = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            for kind, flags in (("m", []), ("w", ["--solution", "w", "--beta", "1", "--Kprime", "1.9"])):
                out = tmp_path / f"{kind}{threads}.csv"
                cmd = [sys.executable, "-m", "nhmorse.cli", "grid", "--nx", "601", "--nK", "401", "--out", str(out), *flags]
                subprocess.run(cmd, env=env, check=True, timeout=300)
                digests[kind, threads] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests["m", "1"] == digests["m", "2"]
        assert digests["w", "1"] == digests["w", "2"]


class TestResidualSweep:
    def test_raising_block_is_a_skip_note_and_fails_the_check(self, monkeypatch):
        # a block that raises is named by map, sector and exception, once,
        # with no per-row fallback; the other sector is still measured
        calls = []
        grid = morse.wavefunction_grid

        def fail_fermionic(rows, sector, pmap, xs, derivs=False):
            calls.append(sector)
            if sector is Sector.FERMIONIC:
                raise NonConvergence("quadrature did not converge")
            return grid(rows, sector, pmap, xs, derivs)

        monkeypatch.setattr(morse, "wavefunction_grid", fail_fermionic)
        rep = checks.check_residual_derived()
        assert calls == [Sector.FERMIONIC, Sector.BOSONIC]
        assert not rep.passed
        assert rep.note == "derived fermionic: NonConvergence: quadrature did not converge"
        assert 0.0 < rep.max_rel_residual <= 1e-8
        printed = checks.check_residual_printed()
        assert printed.note.endswith("; skipped printed fermionic: NonConvergence: quadrature did not converge")
        assert not printed.passed

    def test_printed_map_solves_the_shifted_equation(self):
        # the printed map's closed forms, M and W, solve w'' + (Q + A^2) w = 0:
        # the printed formula drops the constant A^2 of the expanded
        # coefficient and nothing else
        xs = np.linspace(0.0, 3.0, 301)
        worst = 0.0
        for (A, K, Kp), (B, a) in itertools.product(
            ((1.0, 1.0, 2.0), (1.0, 0.0, 2.0), (2.3, 0.7, 1.3), (-1.0, 2.0, 0.5), (0.4, 3.0, 0.0)), ((2.0, 0.5), (5.0, 1.0))
        ):
            rows = dataclasses.replace(checks._m_and_w_rows([K]), A=A, B=B, a=a, Kprime=Kp)
            for sector in Sector:
                q = morse.ode_coefficient(rows, sector, xs)
                w, _, d2w = morse.wavefunction_grid(rows, sector, ParameterMap.PRINTED, xs, derivs=True)
                worst = max(worst, verify.ode_residual(q + A * A, w, d2w).max())
        assert worst <= 1e-12

    def test_derived_map_over_a_wider_region(self):
        # residual-derived's blocks at B up to 20 and K up to 4: an M row and
        # a W row per K, both sectors, on the check's 301 points
        xs = np.linspace(0.0, 3.0, 301)
        worst = 0.0
        for B in (2.0, 5.0, 10.0, 20.0):
            rows = dataclasses.replace(checks._m_and_w_rows([0.0, 0.5, 1.0, 2.0, 4.0]), B=B)
            for sector in Sector:
                q = morse.ode_coefficient(rows, sector, xs)
                w, _, d2w = morse.wavefunction_grid(rows, sector, ParameterMap.DERIVED, xs, derivs=True)
                worst = max(worst, verify.ode_residual(q, w, d2w).max())
        assert worst <= 1e-8


def loop_render_grid(spec):
    """CSV of the grid one f-string line per point: the formatter render_grid
    replaced, kept as its reference."""
    xs = np.linspace(spec.x_min, spec.x_max, spec.nx)
    Ks = np.linspace(spec.K_min, spec.K_max, spec.nK).tolist()
    amps = dict(alpha1=spec.alpha, beta1=spec.beta, alpha2=spec.alpha, beta2=spec.beta)
    rows = MorseParameters(A=spec.A, B=spec.B, a=spec.a, K=_column(Ks), Kprime=spec.Kprime, **amps)
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
        # rows of more than one block each, and blocks of several rows with
        # a shorter last one
        GridSpec(nx=morse._GRID_BLOCK + 1, nK=2),
        GridSpec(nx=7, nK=morse._GRID_BLOCK // 7 + 3),
        # y = 1.5429998783711343e-21 and values near 1e-83: scientific notation
        GridSpec(x_min=100.0, x_max=100.0, nx=1, nK=2),
        # y = 1.0954450732490517e-314 (subnormal) and y = 0 (underflowed)
        GridSpec(x_min=1400.0, x_max=1500.0, nx=3, nK=2),
        GridSpec(A=0.0, Kprime=0.0, K_max=0.0, nK=1, x_min=1500.0, x_max=1500.0, nx=1),
        GridSpec(K_min=-2.0, K_max=2.0, nx=9, nK=5),
        GridSpec(alpha=1.0, beta=0.5 - 0.3j, nx=9, nK=5),
        GridSpec(nx=0, nK=3),
        GridSpec(nx=3, nK=0),
    ])
    def test_edge_grids_equal_the_line_loop(self, spec):
        assert morse.render_grid(spec) == loop_render_grid(spec)

    def test_row_format_writes_the_fstring_bytes(self):
        # _format_g17 falls back to % formatting, the reference to format()
        for v in (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, -1.7976931348623157e308):
            assert "%.17g" % v == f"{v:.17g}"


def _count_format_calls(monkeypatch):
    """Wrap morse._format_g17; return the list of the value counts it gets."""
    sizes = []
    format_g17 = morse._format_g17

    def counted(values):
        sizes.append(np.size(values))
        return format_g17(values)

    monkeypatch.setattr(morse, "_format_g17", counted)
    return sizes


class TestRenderGridBlocks:
    # mixed signs, values above 10^4 at small x beside values below 1 (so
    # that blocks need different number widths and different limbs), and a
    # K = 0 row
    MIXED = GridSpec(K_min=-2.0, K_max=2.0, x_min=-1.0, x_max=3.0, nx=37, nK=9, alpha=1.0, beta=0.5 - 0.3j, Kprime=1.9)

    @pytest.mark.parametrize("block", [1, 7, 181, 10**6])
    def test_text_does_not_depend_on_the_block_size(self, monkeypatch, block):
        monkeypatch.setattr(morse, "_GRID_BLOCK", block)
        assert morse.render_grid(self.MIXED) == loop_render_grid(self.MIXED)

    def test_figure_grid_formats_in_few_large_calls(self, monkeypatch):
        # one call for the x, K and y columns together and one per block of
        # whole K rows: 22 of the 121 rows of 181 points to a block
        sizes = _count_format_calls(monkeypatch)
        morse.render_grid(GridSpec(nx=181, nK=121))
        assert len(sizes) == 7
        assert sizes[0] == 181 + 121 + 181

    def test_long_rows_are_split_into_column_ranges(self, monkeypatch):
        # no call formats more than a block's points, however long a row is
        sizes = _count_format_calls(monkeypatch)
        spec = GridSpec(nx=2 * morse._GRID_BLOCK + 5, nK=2)
        assert morse.render_grid(spec) == loop_render_grid(spec)
        assert max(sizes) <= 2 * morse._GRID_BLOCK


def g17_samples(seed: int) -> np.ndarray:
    """Seeded doubles that exercise every branch of morse._format_g17."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 40000, dtype=np.uint64).view(np.float64)
    powers = 10.0 ** np.arange(-6, 19)
    neighbours = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    # j / 2^m with 18 significant digits, the last a 5: a tie at 17 digits,
    # for E = 15 down to -4; and j / 2^m with 17 digits, written exactly
    ties = []
    for m in range(2, 22):
        for digits in (18, 17):
            low, high = -(-10 ** (digits - 1) // 5**m), min(10**digits // 5**m, 2**53)
            if low < high:
                j = rng.integers(low, high, 200) | 1
                ties.append(j / 2.0**m)
    integers = np.concatenate([1e16 + np.arange(-500.0, 500.0), 1e17 - 16.0 * np.arange(500.0), np.arange(2000.0)])
    # the doubles just below 10^k, which 17 digits keep apart from 10^k
    carries = np.concatenate([powers * (1.0 - j * 2.0**-53) for j in range(1, 5)])
    decimals = [round(x, k) for x, k in zip(rng.uniform(-1e3, 1e3, 5000).tolist(), rng.integers(1, 17, 5000).tolist())]
    spread = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-7.0, 19.0, 20000)
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    return np.concatenate([bits, neighbours, *ties, integers, carries, decimals, spread, specials])


class TestFormatG17:
    @pytest.mark.parametrize("sign_bit", [0, 1 << 63])
    def test_writes_the_percent_bytes(self, sign_bit):
        # the sign bit is flipped as bits: the random patterns hold
        # signalling NaNs, which a float product would trap on
        values = (g17_samples(18).view(np.uint64) ^ np.uint64(sign_bit)).view(np.float64)
        assert morse._g17(values) == ["%.17g" % v for v in values.tolist()]

    def test_rows_keep_the_order_of_any_shape(self):
        values = g17_samples(19)[:3000].reshape(30, 10, 10)
        text = morse._format_g17(values)
        assert text.shape[0] == values.size and text.dtype == np.uint8
        assert morse._g17(values) == ["%.17g" % v for v in values.ravel().tolist()]

    def test_empty(self):
        assert morse._g17(np.zeros(0)) == []

    def test_decades_are_the_least_doubles_at_or_above_the_powers(self):
        for e, d in zip(range(-5, 18), morse._DECADES.tolist()):
            assert Fraction(d) >= Fraction(10) ** e > Fraction(math.nextafter(d, 0.0))


class TestLaguerreForm:
    # the Laguerre form is a one-row wavefunction_grid
    def test_equals_m_wavefunction(self):
        p = MorseParameters(K=1.3)
        xs = np.linspace(0.0, 3.0, 13)
        for pmap in ParameterMap:
            for sector in Sector:
                row = morse.wavefunction_grid(p, sector, pmap, xs)[0]
                for x, lhs in zip(xs.tolist(), row.tolist()):
                    rhs = morse.wavefunction_derivs(p, sector, pmap, x)[0]  # beta = 0
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_figure_box_evaluates(self):
        xs = np.linspace(0.0, 3.0, 7)
        for K in np.linspace(0.0, 2.0, 5):
            p = MorseParameters(K=float(K))
            for sector in Sector:
                w = morse.wavefunction_grid(p, sector, ParameterMap.PRINTED, xs)
                assert np.isfinite(w).all()

    def test_k_zero_slice_real(self):
        xs = np.linspace(0.0, 3.0, 61)
        for sector in Sector:
            w = morse.wavefunction_grid(FIG, sector, ParameterMap.PRINTED, xs)
            assert np.abs(w.imag).max() <= 1e-12


class TestBoundStates:
    # the paper's pairing K' = A - a n is the fermionic sector's spectrum,
    # the shifted K' = A - a (n + 1) the bosonic one's
    def test_non_normalizable(self):
        with pytest.raises(NonNormalizable):
            morse.bound_state_wave_derivs(1.0, 2.0, 0.5, 2, Sector.FERMIONIC, 0.0)
        with pytest.raises(NonNormalizable):
            morse.bound_state_wave_derivs(1.0, 2.0, 2.0, 0, Sector.BOSONIC, 0.0)

    def test_ground_state_positive_profile(self):
        for x in np.linspace(-1.0, 4.0, 9):
            w = morse.bound_state_wave_derivs(1.0, 2.0, 0.5, 0, Sector.BOSONIC, x)[0]
            assert w.real > 0.0 and w.imag == 0.0

    def test_shifted_matched_eigenvalue_solves_ode(self):
        # the residual oracle decides the pairing: the bosonic state with
        # K'^2 = a^2 s^2 - A^2 (negative) solves the printed bosonic equation
        A, B, a, n = 1.0, 2.0, 0.5, 0
        s = morse.bound_state_exponent(A, a, n, Sector.BOSONIC)
        kp2 = a * a * s * s - A * A
        [res] = checks.bound_state_residual(A, B, a, n, Sector.BOSONIC, [kp2], np.linspace(0.0, 3.0, 101))
        assert kp2 < 0.0
        assert type(res) is float and res <= 1e-8

    def test_paper_convention_documented_failure(self):
        # with K' = A - a n real, the fermionic state does not solve the
        # printed fermionic equation; the residual is recorded, not hidden
        A, B, a, n = 1.0, 2.0, 0.5, 0
        kp = A - a * n
        [res] = checks.bound_state_residual(A, B, a, n, Sector.FERMIONIC, [kp * kp], np.linspace(0.0, 3.0, 101))
        assert math.isfinite(res)
        assert res > 1e-3

    def test_bosonic_level_n_is_fermionic_level_n_plus_1(self):
        # the same exponent, so the same eigenvalue K'^2 = a^2 s^2 - A^2
        for A, a, n in ((1.0, 0.5, 0), (3.0, 0.5, 2), (2.5, 0.7, 1)):
            bosonic = morse.bound_state_exponent(A, a, n, Sector.BOSONIC)
            assert bosonic == morse.bound_state_exponent(A, a, n + 1, Sector.FERMIONIC)

    def test_candidate_proportional_to_closed_form(self):
        # the state is (2B/a)^{1/2} y^s e^{-y/2} 1F1(-n; 2s+1; y), with
        # 1F1 from verify's oracle, which shares no code with the recurrence
        A, B, a = 2.5, 2.0, 0.5
        for sector, n in itertools.product(Sector, range(4)):
            s = morse.bound_state_exponent(A, a, n, sector)
            for x in np.linspace(0.0, 2.0, 5):
                y = 2.0 * B / a * math.exp(-a * x)
                closed = math.sqrt(2.0 * B / a) * y**s * math.exp(-0.5 * y) * verify.reference_kummer(-n, 2 * s + 1, y)
                wave = morse.bound_state_wave_derivs(A, B, a, n, sector, x)[0]
                assert abs(wave - closed) <= 1e-10 * abs(closed)

    def test_triples_match_mpmath(self):
        # (w, w', w'') of every state of both sectors at A = 20 (n up to 39)
        # against e^{ax/2} M_{s+n+1/2, s}(y) by mpmath's whitm, derivatives
        # by mp.diff, at 30 digits
        mp = pytest.importorskip("mpmath")
        A, B, a = 20.0, 2.0, 0.5
        xs = [0.0, 0.75, 1.5, 2.25, 3.0]
        worst, states = 0.0, 0
        with mp.workdps(30):
            for sector in Sector:
                n = 0
                while (s := morse.bound_state_exponent(A, a, n, sector)) > 0.0:
                    triple = morse.bound_state_wave_derivs(A, B, a, n, sector, np.array(xs))

                    def w(x, s=s, n=n):
                        return mp.exp(a * x / 2) * mp.whitm(s + n + 0.5, s, 2 * B / a * mp.exp(-a * x))

                    for i, x in enumerate(xs):
                        refs = [w(mp.mpf(x))] + [mp.diff(w, mp.mpf(x), k) for k in (1, 2)]
                        for got, ref in zip(triple, map(complex, refs)):
                            worst = max(worst, abs(got[i] - ref) / abs(ref))
                    states += 1
                    n += 1
        assert states == 79
        assert worst <= 1e-11


class TestWhittakerLaguerreIdentity:
    # 1F1(-n; p+1; y) = n!/(p+1)_n L_n^p(y), on the kernels laguerre-identity compares
    def test_degree_zero_all_equal(self):
        assert specfun.kummer_m(0, 3.0, 1.5) == specfun.laguerre_poly(0, 2.0, 1.5) == 1.0

    def test_degree_one_pochhammer_factor(self):
        # the printed relation omits the factor 1!/(3)_1 = 1/3
        lhs, rhs_printed = specfun.kummer_m(-1, 3.0, 1.0), specfun.laguerre_poly(1, 2.0, 1.0)
        assert abs(lhs - rhs_printed / 3.0) <= 1e-10 * abs(lhs)
        assert abs(lhs / rhs_printed - 1.0 / 3.0) <= 1e-10

    def test_degree_two(self):
        lhs = specfun.kummer_m(-2, 4.0, 4.0)
        assert abs(lhs - 2.0 / (4.0 * 5.0) * specfun.laguerre_poly(2, 3.0, 4.0)) <= 1e-10 * max(1.0, abs(lhs))


def intertwining(p: MorseParameters, xs: np.ndarray):
    """verify.intertwining_check of A+ w_1 against w_2 at p on xs, derived map."""
    pmap = ParameterMap.DERIVED
    partner = morse.wavefunction_grid(p, Sector.BOSONIC, pmap, xs, derivs=True)[0][0]
    return verify.intertwining_check(checks.raised_fermionic(p, pmap, xs), partner, p.Kprime)


class TestIntertwining:
    def test_raise_maps_w1_onto_w2(self):
        rel, note = intertwining(MorseParameters(K=1.0), np.linspace(0.2, 3.0, 29))
        assert rel <= 1e-8, note

    def test_k_zero_real_ratio(self):
        assert intertwining(FIG, np.linspace(0.2, 3.0, 29))[0] <= 1e-8
