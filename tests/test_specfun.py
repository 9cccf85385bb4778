import cmath
import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmorse import checks, morse, riccati, specfun
from nhmorse.errors import NonConvergence, ParameterPole, PoleError
from nhmorse.morse import MorseParameters, ParameterMap, WhittakerIndices
from nhmorse.susy import Sector
from nhmorse.verify import reference_kummer

from whittaker_triples import from_core, laguerre_series, whittaker_m, whittaker_w


def assert_close(a, b, rel=1e-12):
    assert abs(complex(a) - complex(b)) <= rel * max(1.0, abs(complex(b)))


class TestLogGamma:
    def test_trivial_values(self):
        assert_close(specfun.log_gamma(1.0), 0.0)
        assert_close(specfun.log_gamma(0.5), math.log(math.sqrt(math.pi)))
        assert_close(specfun.log_gamma(4.0), math.log(6.0))

    def test_pole_raises(self):
        for z in (0.0, -1.0, -5.0, -3.0 + 1e-13j):
            with pytest.raises(PoleError):
                specfun.log_gamma(z)

    def test_exp_matches_factorials(self):
        for n in range(1, 12):
            assert_close(cmath.exp(specfun.log_gamma(n)), math.factorial(n - 1), rel=1e-13)

    @given(
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_reflection_mod_2pi(self, re, im):
        z = complex(re, im)
        lhs = specfun.log_gamma(z) + specfun.log_gamma(1.0 - z)
        rhs = cmath.log(math.pi / cmath.sin(math.pi * z))
        diff = lhs - rhs
        # imaginary part only defined modulo 2*pi
        k = round(diff.imag / (2.0 * math.pi))
        assert abs(diff - 2j * math.pi * k) <= 1e-10 * max(1.0, abs(rhs))


complex_param = st.builds(
    complex,
    st.floats(min_value=-7.0, max_value=7.0),
    st.floats(min_value=-7.0, max_value=7.0),
)


def _admissible_b(b):
    r = round(b.real)
    return not (r <= 0 and abs(b - r) < 0.05)


class TestKummer:
    def test_exponential(self):
        assert_close(specfun.kummer_m(1.0, 1.0, 1.0), math.e)

    def test_empty_sum(self):
        assert specfun.kummer_m(2.3 + 1j, -0.5 + 2j, 0.0) == 1.0

    def test_terminating(self):
        assert_close(specfun.kummer_m(-1.0, 2.0, 1.0), 0.5)

    def test_parameter_pole(self):
        with pytest.raises(ParameterPole):
            specfun.kummer_m(0.7, -2.0, 1.0)

    def test_term_limit_raises(self, monkeypatch):
        # a float series still moving at _MAX_TERMS terms raises NonConvergence
        # naming its arguments; a terminating one sums its terms whatever the limit
        terminating = specfun.kummer_m(-8.0, 1.5, 30.0)
        monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
        with pytest.raises(NonConvergence, match=r"^kummer series did not converge: a=\(0\.5\+0j\), b=\(1\.5\+0j\), z=30\.0$"):
            specfun.kummer_m(0.5, 1.5, 30.0)
        assert specfun.kummer_m(-8.0, 1.5, 30.0) == terminating

    def test_terminating_survives_nonpositive_b(self):
        # numerator zero at index 2 precedes the denominator zero at 4
        val = specfun.kummer_m(-2.0, -4.0, 1.0)
        assert_close(val, 1.0 + 0.5 + 2.0 / 4.0 / 3.0 * 0.5)

    def test_frozen_complex_value(self):
        # mpmath.hyp1f1(2+1j, 3-0.5j, 7.5), 30 digits
        assert_close(
            specfun.kummer_m(2 + 1j, 3 - 0.5j, 7.5),
            -266.448301706013953815389699297 + 363.325248154401373811788505728j,
            rel=1e-12,
        )

    def test_determinism(self):
        a, b, z = 1.3 - 2.2j, 0.7 + 0.9j, 17.5
        assert specfun.kummer_m(a, b, z) == specfun.kummer_m(a, b, z)

    @given(complex_param.filter(_admissible_b), complex_param, st.floats(min_value=0.01, max_value=30.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, b, a, z):
        # (b-a) M(a-1) + (2a-b+z) M(a) - a M(a+1) = 0
        m_prev = specfun.kummer_m(a - 1, b, z)
        m = specfun.kummer_m(a, b, z)
        m_next = specfun.kummer_m(a + 1, b, z)
        lhs = (b - a) * m_prev + (2 * a - b + z) * m - a * m_next
        scale = max(abs(m_prev), abs(m), abs(m_next), 1.0)
        assert abs(lhs) <= 1e-9 * scale

    def test_float_path_on_the_oracle_samples(self):
        # kummer-oracle's 1000 samples, float calls: the check itself sums
        # them as one block
        a, b, z, ref = checks._kummer_oracle_samples()
        worst = max(
            abs(specfun.kummer_m(ai, bi, zi) - r) / abs(r)
            for ai, bi, zi, r in zip(a.tolist(), b.tolist(), z.tolist(), ref.tolist())
        )
        assert worst <= 1e-10

    def test_oracle_agreement_spot(self):
        for a, b, z in [(1.5 - 2j, 0.3 + 1j, 12.0), (-4.2 + 0.1j, 6.0, 25.0)]:
            assert_close(specfun.kummer_m(a, b, z), reference_kummer(a, b, z), rel=1e-11)

    def test_overflow_raises(self):
        # 1F1(1; 2; 750) = (e^750 - 1)/750 is past the double range: every
        # Kummer loop raises, naming a, b and the z that overflowed, rather
        # than return inf or NaN
        name = r"overflow at a=\(1\+0j\), b=\(2\+0j\), z=750\.0"
        with pytest.raises(NonConvergence, match=name):
            specfun.kummer_m(1.0, 2.0, 750.0)
        with pytest.raises(NonConvergence, match=name):
            specfun.kummer_m(1.0, 2.0, np.array([1.0, 750.0]))
        with pytest.raises(NonConvergence, match=name):
            specfun.kummer_m(np.array([[3.0], [1.0]]), np.array([[9.0], [2.0]]), np.array([1.0, 750.0]))
        # the M triple's pass over the same series: M_{0,1/2}(y) = 2 sinh(y/2)
        idx = WhittakerIndices(kappa=0j, mu=0.5 + 0j)
        with pytest.raises(NonConvergence, match=name):
            whittaker_m(idx, 750.0)
        with pytest.raises(NonConvergence, match=name):
            whittaker_m(idx, np.array([1.0, 750.0]))
        # a terminating series overflows too: 1F1(-2; 1; z) = 1 - 2z + z^2/2
        with pytest.raises(NonConvergence, match="overflow"):
            specfun.kummer_m(-2.0, 1.0, 1e200)

    @pytest.mark.parametrize("z", [-1e-300, -8.0, -50.0, -750.0])
    def test_negative_z_rejected(self, z):
        # every 1F1 entry point has the domain z >= 0: float and array calls
        # of kummer_m and of the reference raise ValueError naming the z
        name = rf"z ?= ?{re.escape(repr(z))}\b"
        for fn in (specfun.kummer_m, reference_kummer):
            with pytest.raises(ValueError, match=name):
                fn(1.0, 2.0, z)
            with pytest.raises(ValueError, match=name):
                fn(1.0, 2.0, np.array([1.0, z, 2.0]))

    def test_derivative_identity(self):
        a, b, z = 1.2 + 0.4j, 2.5 - 1j, 3.0
        h = 1e-6
        fd = (specfun.kummer_m(a, b, z + h) - specfun.kummer_m(a, b, z - h)) / (2 * h)
        # d/dz 1F1(a; b; z) = (a/b) 1F1(a+1; b+1; z)
        assert_close(a / b * specfun.kummer_m(a + 1, b + 1, z), fd, rel=1e-8)


def _abs_term_sum(a, b, z, k=0):
    """sum_n n!/(n-k)! |t_n| of the 1F1(a; b; z) series: the scale of the
    roundoff of its sum (k = 0), and of the sums of n t_n (k = 1) and of
    n(n-1) t_n (k = 2) that give its derivatives."""
    term, total = 1.0, float(k == 0)
    for n in range(10_000):
        if (a + n) == 0:
            break
        term *= abs((a + n) / (b + n)) * z / (n + 1)
        weighted = math.perm(n + 1, k) * term
        total += weighted
        if n >= k and weighted <= 1e-20 * total:
            break
    return total


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("array", [False, True], ids=["float", "array"])
@pytest.mark.parametrize(
    "call, z, named",
    [
        (lambda z: specfun.kummer_m(1.0, 2.0, z), _NAN, "z = nan"),
        (lambda z: specfun.kummer_m(1.0, 2.0, z), _INF, "z = inf"),
        (lambda z: specfun.tricomi_u_derivs(1.0, 2.0, z)[0], _NAN, "z = nan"),
        (lambda z: specfun.tricomi_u_derivs(1.0, 2.0, z)[0], _INF, "z = inf"),
        (lambda z: specfun.kummer_m(complex(_NAN, 0.0), 2.0, z), 1.0, "a = (nan+0j)"),
        (lambda z: specfun.kummer_m(1.0, _INF, z), 1.0, "b = inf"),
        (lambda z: whittaker_m(WhittakerIndices(kappa=0.3, mu=0.8), z), _NAN, "z = nan"),
        (lambda z: whittaker_w(WhittakerIndices(kappa=0.3, mu=0.8), z), _INF, "z = inf"),
    ],
    ids=["kummer-z-nan", "kummer-z-inf", "tricomi-z-nan", "tricomi-z-inf", "kummer-a-nan", "kummer-b-inf",
         "whittaker-m-y-nan", "whittaker-w-y-inf"],
)
def test_non_finite_argument_rejected(call, z, named, array):
    # a non-finite argument raises ValueError naming it, before any series
    # or quadrature runs: no 10,000-term loop, overflow message or numpy
    # warning first
    with pytest.raises(ValueError, match=re.escape(named)):
        call(np.array([1.0, z, 2.0]) if array else z)


class TestKummerRow:
    def test_agrees_with_scalar_on_oracle_distribution(self):
        # the kummer-oracle check's sampling: a, b in [-7, 7]^2, z in (0, 30]
        rng = random.Random(20060515)
        worst = 0.0
        for _ in range(200):
            a = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
            b = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
            if not _admissible_b(b):
                continue
            zs = np.array([rng.uniform(1e-6, 30.0) for _ in range(16)])
            row = specfun.kummer_m(a, b, zs)
            for z, v in zip(zs.tolist(), row.tolist()):
                worst = max(worst, abs(v - specfun.kummer_m(a, b, z)) / _abs_term_sum(a, b, z))
        assert worst <= 1e-14

    def test_float_is_its_one_element_block(self):
        # a float z is summed as a one-element block, bit for bit, on the
        # samples above, and gives a complex scalar
        rng = random.Random(20060515)
        for _ in range(200):
            a = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
            b = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
            if not _admissible_b(b):
                continue
            for z in [rng.uniform(1e-6, 30.0) for _ in range(16)]:
                got = specfun.kummer_m(a, b, z)
                assert isinstance(got, np.complex128) and np.ndim(got) == 0
                assert got.tobytes() == specfun.kummer_m(a, b, np.array([z]))[0].tobytes()

    def test_terminating_series_is_the_finite_sum(self):
        zs = np.linspace(0.0, 30.0, 31)
        for n in range(7):
            for b in (2.0, 0.5 + 1.5j, -3.5 - 2.0j):
                row = specfun.kummer_m(-n, b, zs)
                for z, v in zip(zs.tolist(), row.tolist()):
                    bound = 1e-14 * _abs_term_sum(-n, b, z)
                    assert abs(v - specfun.kummer_m(-n, b, z)) <= bound
        # 1F1(-3; 2; z) = 1 - 3z/2 + z^2/2 - z^3/24, summed to roundoff
        row = specfun.kummer_m(-3.0, 2.0, zs)
        exact = 1.0 - 1.5 * zs + 0.5 * zs**2 - zs**3 / 24.0
        assert np.all(np.abs(row - exact) <= 1e-14 * (1.0 + 1.5 * zs + 0.5 * zs**2 + zs**3 / 24.0))
        # a within 1e-12 of -3 still stops after the same four terms
        a = -3.0 + 1e-13
        row = specfun.kummer_m(a, 2.0, zs)
        for z, v in zip(zs.tolist(), row.tolist()):
            assert abs(v - specfun.kummer_m(a, 2.0, z)) <= 1e-14 * _abs_term_sum(-3.0, 2.0, z)

    def test_rejections_match_scalar(self):
        with pytest.raises(ParameterPole):
            specfun.kummer_m(0.7, -2.0, np.array([1.0]))
        assert specfun.kummer_m(-2.0, -4.0, np.array([1.0]))[0] == pytest.approx(
            specfun.kummer_m(-2.0, -4.0, 1.0), rel=1e-15
        )
        with pytest.raises(ValueError):
            specfun.kummer_m(1.0, 2.0, np.array([1.0, -1.0]))


    def test_block_agrees_with_scalar_on_oracle_distribution(self):
        # one (R, 1) column of parameter rows against a shared z array
        rng = random.Random(20060516)
        rows = []
        while len(rows) < 40:
            a = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
            b = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
            if _admissible_b(b):
                rows.append((a, b))
        zs = np.array([rng.uniform(1e-6, 30.0) for _ in range(16)])
        a_col, b_col = (np.array(c)[:, None] for c in zip(*rows))
        block = specfun.kummer_m(a_col, b_col, zs)
        assert block.shape == (40, 16)
        worst = 0.0
        for (a, b), values in zip(rows, block.tolist()):
            for z, v in zip(zs.tolist(), values):
                worst = max(worst, abs(v - specfun.kummer_m(a, b, z)) / _abs_term_sum(a, b, z))
        assert worst <= 1e-14

    def test_block_terminating_rows_are_their_finite_sums(self):
        # terminating rows (one with b at a nonpositive integer past its
        # last term, one with a within 1e-12 of -5) between series that
        # need many more terms
        rows = [(-3.0, 2.0), (0.7 + 0.2j, 1.5 - 0.5j), (-2.0, -4.0), (-5.0 + 1e-13, 0.5 + 1.5j), (2.0 - 1.0j, 3.0)]
        zs = np.linspace(0.0, 30.0, 31)
        a_col, b_col = (np.array(c)[:, None] for c in zip(*rows))
        block = specfun.kummer_m(a_col, b_col, zs)
        for (a, b), values in zip(rows, block.tolist()):
            for z, v in zip(zs.tolist(), values):
                bound = 1e-14 * _abs_term_sum(round(a.real) if a.real < 0 else a, b, z)
                assert abs(v - specfun.kummer_m(a, b, z)) <= bound
        # 1F1(-3; 2; z) = 1 - 3z/2 + z^2/2 - z^3/24, summed to roundoff
        exact = 1.0 - 1.5 * zs + 0.5 * zs**2 - zs**3 / 24.0
        assert np.all(np.abs(block[0] - exact) <= 1e-14 * (1.0 + 1.5 * zs + 0.5 * zs**2 + zs**3 / 24.0))
        # 1F1(-2; -4; z) = 1 + z/2 + z^2/12
        assert np.all(np.abs(block[2] - (1.0 + zs / 2.0 + zs**2 / 12.0)) <= 1e-14 * (1.0 + zs + zs**2))

    def test_empty_array(self):
        # an empty z array sums nothing and returns an empty result, as
        # tricomi_u_derivs does
        assert specfun.kummer_m(1.0, 2.0, np.array([])).shape == (0,)
        assert specfun.kummer_m(np.array([[1.0], [2.0]]), np.array([[2.0], [3.0]]), np.array([])).shape == (2, 0)
        idx = WhittakerIndices(kappa=0.3, mu=0.8)
        assert [v.shape for v in whittaker_m(idx, np.array([]))] == [(0,)] * 3

    def test_block_pole_row_named(self):
        a_col = np.array([[0.5 + 0.5j], [0.7], [1.0]])
        b_col = np.array([[1.5], [-2.0 + 1e-13j], [2.0]])
        with pytest.raises(ParameterPole, match=re.escape(str(complex(b_col[1, 0])))):
            specfun.kummer_m(a_col, b_col, np.array([1.0, 2.0]))


def _morse_columns(params, pmap, sector):
    """(R, 1) columns of the 1F1 parameters a and b of the Morse M term, one
    row per row of the parameter columns."""
    idx = morse.indices(params, sector, pmap)
    return idx.series_a, idx.series_b


class TestKummerBlock:
    # _kummer_block, the one array 1F1 kernel: kummer_m's arrays and (R, 1)
    # blocks, and the M triple's sums over an array

    def test_block_and_triple_match_the_float_loop_on_the_morse_region(self):
        # the CLI-reachable M indices: B in {2, 5, 10, 20}, K in {0, 1, 2, 4},
        # both maps and both sectors (A = 1, a = 0.5, K' = 2), at the y of
        # x in [0, 3] (up to 4B = 80) and y = 0. Each of the three sums, as
        # a block, as one row and as kummer_m's per-row z, is within 1e-14
        # of its roundoff scale of the float loop _kummer_pass
        xs = np.linspace(0.0, 3.0, 31)
        for B in (2.0, 5.0, 10.0, 20.0):
            params = MorseParameters(B=B, K=np.array([[0.0], [1.0], [2.0], [4.0]]))
            ys = np.concatenate(([0.0], riccati.morse_y(params, xs)))
            z_col = ys[[0, 1, 16, 31], None]
            for pmap in ParameterMap:
                for sector in Sector:
                    a_col, b_col = _morse_columns(params, pmap, sector)
                    block = specfun._kummer_block(a_col, b_col, ys, triple=True)
                    assert np.array_equal(specfun.kummer_m(a_col, b_col, ys), block[0])
                    per_row = specfun.kummer_m(a_col, b_col, z_col)
                    for r, (a, b) in enumerate(zip(a_col[:, 0].tolist(), b_col[:, 0].tolist())):
                        row = specfun._kummer_block(np.array(a), np.array(b), ys, triple=True)
                        for j, z in enumerate(ys.tolist()):
                            for k, ref in enumerate(specfun._kummer_pass(a, b, z)):
                                bound = 1e-14 * _abs_term_sum(a, b, z, k)
                                assert abs(block[k][r, j] - ref) <= bound
                                assert abs(row[k][j] - ref) <= bound
                        z = float(z_col[r, 0])
                        assert abs(per_row[r, 0] - specfun._kummer_pass(a, b, z)[0]) <= 1e-14 * _abs_term_sum(a, b, z)
        # a z = 0 element sums to 1, its derivative sums to 0
        assert [v.tolist() for v in specfun._kummer_block(a_col, b_col, np.zeros(2), triple=True)] == [
            [[1.0, 1.0]] * 4, [[0.0, 0.0]] * 4, [[0.0, 0.0]] * 4
        ]

    def test_unsettled_row_raises_naming_it(self, monkeypatch):
        # a block whose sums still move after _MAX_TERMS terms raises
        # NonConvergence naming the first unsettled element: here the
        # non-terminating row at its largest z
        monkeypatch.setattr(specfun, "_MAX_TERMS", specfun._CHUNK)
        a, b = np.array([[-2.0], [0.5]]), np.array([[1.5], [1.5]])
        for call in (specfun.kummer_m, specfun.kummer_m_derivs):
            with pytest.raises(NonConvergence, match=r"^kummer series did not converge: a=\(0\.5\+0j\), b=\(1\.5\+0j\), z=30\.0$"):
                call(a, b, np.array([0.1, 30.0]))
        # the terminating row alone settles within the limit
        assert np.isfinite(specfun.kummer_m(a[:1], b[:1], np.array([0.1, 30.0]))).all()

    def test_repeated_and_misaligned_calls_are_byte_identical(self):
        # the figure grid and grid-shape compare renders byte for byte, so
        # the kernel's matrix product must give the same bits on every call,
        # and for a z that is a view of misaligned memory
        Ks = np.linspace(0.0, 2.0, 121)
        params = MorseParameters(K=Ks[:, None])
        a_col, b_col = _morse_columns(params, ParameterMap.PRINTED, Sector.BOSONIC)
        idx = morse.indices(MorseParameters(K=Ks[60]), Sector.BOSONIC, ParameterMap.PRINTED)
        ys = riccati.morse_y(params, np.linspace(0.0, 3.0, 181))
        misaligned = np.empty(ys.size + 1)[1:]
        misaligned[:] = ys
        assert misaligned.ctypes.data % 16 == 8

        def call(z):
            block = specfun.kummer_m(a_col, b_col, z)
            return block.tobytes() + b"".join(v.tobytes() for v in whittaker_m(idx, z))

        first = call(ys)
        assert all(call(z) == first for z in [ys] * 20 + [misaligned, ys.copy()])


class TestColumnRules:
    # the pole and termination rules over (R, 1) columns, one array
    # operation, against the float path's _degree

    VALUES = [
        0.0, -0.0, 1e-12, -1e-12, 1.5e-12, -1.5e-12, -1e-12j, 0.5, 3.0,
        -3.0, -3.0 + 1e-12, -3.0 - 1e-12, -3.0 + 0.9e-12, -3.0 - 1.1e-12, -3.0 + 1e-12j, -3.0 - 0.9e-12j,
        -3.0 + 7e-13 + 7e-13j, -3.0 + 8e-13 - 8e-13j, -2.5, -0.5 + 1e-13, -2.0 + 1e-6j,
        -1e6, -1e6 + 1e-12, -(2.0**52), -(2.0**52) + 1.0, -1e15 - 0.5, -1e300,
    ]

    def test_degrees_match_the_scalar_rule(self):
        column = specfun._degrees(np.array(self.VALUES, dtype=complex)[:, None])[:, 0]
        for v, got in zip(self.VALUES, column.tolist()):
            assert got == specfun._degree(complex(v)), v

    def test_pole_rule_matches_the_scalar_rule(self):
        # every (a, b) pair of VALUES: an (R, 1) column is rejected exactly
        # when one of its rows is, and names the first rejected row's b
        pairs = [(complex(a), complex(b)) for a in self.VALUES for b in self.VALUES]
        rejected = []
        for a, b in pairs:
            try:
                specfun._check_kummer_b(a, b)
            except ParameterPole:
                rejected.append(True)
            else:
                rejected.append(False)
            try:
                specfun._check_kummer_b(np.array([[a]]), np.array([[b]]))
            except ParameterPole:
                assert rejected[-1], (a, b)
            else:
                assert not rejected[-1], (a, b)
        assert 0 < sum(rejected) < len(pairs)
        a_col, b_col = (np.array(c)[:, None] for c in zip(*pairs))
        first = pairs[rejected.index(True)][1]
        with pytest.raises(ParameterPole, match=re.escape(f"b = {first} ")):
            specfun._check_kummer_b(a_col, b_col)

    def test_column_broadcasts_against_a_number(self):
        # an (R, 1) column a with a number b, or a number a with a column b,
        # is the pair of columns, for every kernel that takes blocks
        zs = np.linspace(0.5, 4.0, 7)
        column, number = np.array([[0.5], [-1.2 + 0.3j]]), 1.5 - 0.2j
        both = np.full((2, 1), number)
        for call in (specfun.kummer_m, specfun.kummer_m_derivs, specfun.tricomi_u_derivs):
            assert np.array_equal(call(column, number, zs), call(column, both, zs)), call
            assert np.array_equal(call(number, column + 2.0, zs), call(both, column + 2.0, zs)), call


def _index_columns(idx):
    """WhittakerIndices holding (R, 1) columns of the given index pairs."""
    return WhittakerIndices(kappa=np.array([[i.kappa] for i in idx]), mu=np.array([[i.mu] for i in idx]))


class TestWhittakerBlocks:
    # the Whittaker triples over (R, 1) columns of indices: one M block
    # (_kummer_block) and one W block (_tricomi_block) for every row

    def test_blocks_match_per_row_calls_on_the_morse_region(self):
        # B in {2, 5, 10, 20}, K in {0, 1, 2, 4}, both maps and both sectors
        # (A = 1, a = 0.5, K' = 2), at the y of x in [0, 3]: each element of
        # a block triple is within 1e-13 of the row's own array call
        xs = np.linspace(0.0, 3.0, 31)
        Ks = (0.0, 1.0, 2.0, 4.0)
        for B in (2.0, 5.0, 10.0, 20.0):
            params = MorseParameters(B=B, K=np.array(Ks)[:, None])
            ys = riccati.morse_y(params, xs)
            for pmap in ParameterMap:
                for sector in Sector:
                    idx = morse.indices(params, sector, pmap)
                    for fn in (whittaker_m, whittaker_w):
                        block = fn(idx, ys)
                        assert [v.shape for v in block] == [(4, ys.size)] * 3
                        for r, K in enumerate(Ks):
                            row_idx = morse.indices(MorseParameters(B=B, K=K), sector, pmap)
                            for got, ref in zip(block, fn(row_idx, ys)):
                                assert np.all(np.abs(got[r] - ref) <= 1e-13 * np.abs(ref)), (B, pmap, sector, r)

    def test_unsettled_w_block_names_its_first_row(self, monkeypatch):
        # with a zero tolerance no row of the quadrature block settles:
        # NonConvergence names the first row and the block's z range
        monkeypatch.setattr(specfun, "_ES_TOL", 0.0)
        a, b = np.array([[1.5 + 0.5j], [2.0]]), np.array([[3.0 - 1.0j], [4.5]])
        zs = np.array([0.5, 2.0, 8.0])
        with pytest.raises(NonConvergence, match=re.escape("a=(1.5+0.5j), b=(3-1j), z in [0.5, 8.0]")):
            specfun._tricomi_block(a, b, zs, a, 6)
        # rows shifted up to Re a >= 1 are named by the caller's a, not the
        # shifted a the quadrature takes, in a block and at a float z
        with pytest.raises(NonConvergence, match=re.escape("a=(-0.5+0.5j), b=(3-1j), z in [0.5, 8.0]")):
            specfun.tricomi_u_derivs(a - 2.0, b, zs)
        with pytest.raises(NonConvergence, match=re.escape("a=(-0.5+0.5j), b=(3-1j), z in [0.5, 0.5]")):
            specfun.tricomi_u_derivs(-0.5 + 0.5j, 3.0 - 1.0j, 0.5)

    def test_block_mixes_shifted_integer_and_plain_rows(self, monkeypatch):
        # rows shifted up to Re a >= 1 by one and by three steps, integer a
        # (0 and -2, polynomials in z) and rows needing no shift, in one
        # block: each row as its own array call and as float calls
        rows = [(0.3 + 0.4j, 2.1 - 0.7j), (2.0, 3.5), (-2.0, 3.0), (-2.4 + 0.3j, 1.7 + 0.2j), (0.0, 1.3), (1.2 + 1.5j, 7.4 - 5.0j)]
        a_col, b_col = (np.array(c, dtype=complex)[:, None] for c in zip(*rows))
        zs = np.geomspace(0.3, 30.0, 17)
        block = specfun._tricomi_derivs(a_col, b_col, zs)
        for r, (a, b) in enumerate(rows):
            row = specfun._tricomi_derivs(np.array(complex(a)), np.array(complex(b)), zs)
            for got, ref in zip(block, row):
                assert np.all(np.abs(got[r] - ref) <= 1e-13 * np.abs(ref)), (a, b)
            for j, z in enumerate(zs.tolist()):
                for got, ref in zip(block, specfun._tricomi_derivs(complex(a), complex(b), z)):
                    assert abs(got[r, j] - ref) <= 1e-12 * abs(ref), (a, b, z)
        # U(-2, 3, z) = z^2 - 8z + 12 and U(0, b, z) = 1
        assert np.all(np.abs(block[0][2] - (zs**2 - 8.0 * zs + 12.0)) <= 1e-13 * (zs**2 + 8.0 * zs + 12.0))
        assert block[0][4].tolist() == [1.0] * zs.size and block[1][4].tolist() == [0.0] * zs.size
        # the rows needing no shift, alone (the block sums only U and its
        # derivatives at a) and beside a row that recurs (the sums at a + 1
        # as well): the same values, each that of its one-row call
        taken = []
        block_fn = specfun._tricomi_block

        def recording(*args):
            taken.append(args[-1])
            return block_fn(*args)

        monkeypatch.setattr(specfun, "_tricomi_block", recording)
        plain = [rows[1], rows[5]]
        a_col, b_col = (np.array(c, dtype=complex)[:, None] for c in zip(*plain))
        alone = specfun._tricomi_derivs(a_col, b_col, zs)
        beside = specfun._tricomi_derivs(np.vstack((a_col, [[rows[0][0]]])), np.vstack((b_col, [[rows[0][1]]])), zs)
        assert taken == [3, 6]
        for r, (a, b) in enumerate(plain):
            row = specfun._tricomi_derivs(np.array(complex(a)), np.array(complex(b)), zs)
            for three, six, ref in zip(alone, beside, row):
                assert np.all(np.abs(three[r] - six[r]) <= 1e-13 * np.abs(six[r])), (a, b)
                assert np.all(np.abs(three[r] - ref) <= 1e-13 * np.abs(ref)), (a, b)
                assert np.all(np.abs(six[r] - ref) <= 1e-13 * np.abs(ref)), (a, b)

    def test_block_non_convergence_names_the_failing_row(self):
        # a = b = 1+16i does not converge on the real ray (the derived map at
        # A = 0, K' = 0, K = 4); nor does 1+20i, but the error names the
        # first failing row
        zs = riccati.morse_y(MorseParameters(), np.linspace(0.0, 3.0, 31))
        a_col = np.array([[1.5], [1.0 + 16.0j], [1.0 + 20.0j]])
        b_col = np.array([[2.0], [1.0 + 16.0j], [1.0 + 20.0j]])
        with pytest.raises(NonConvergence, match=re.escape("a=(1+16j), b=(1+16j)")):
            specfun.tricomi_u_derivs(a_col, b_col, zs)
        with pytest.raises(NonConvergence, match=re.escape("a=(1+20j), b=(1+20j)")):
            specfun.tricomi_u_derivs(a_col[::2], b_col[::2], zs)

    def test_empty_blocks(self):
        # no rows, or no y: empty (R, N) results, no quadrature or series
        idx = _index_columns([WhittakerIndices(kappa=0.3, mu=0.8)] * 2)
        none = WhittakerIndices(kappa=np.zeros((0, 1)), mu=np.zeros((0, 1)))
        for fn in (whittaker_m, whittaker_w):
            assert [v.shape for v in fn(none, np.array([1.0, 2.0]))] == [(0, 2)] * 3
            assert [v.shape for v in fn(idx, np.array([]))] == [(2, 0)] * 3
        assert specfun.tricomi_u_derivs(np.zeros((0, 1)), np.zeros((0, 1)), np.array([1.0]))[0].shape == (0, 1)
        no_rows = MorseParameters(K=np.zeros((0, 1)))
        assert [v.shape for v in morse.wavefunction_grid(no_rows, Sector.BOSONIC, ParameterMap.DERIVED, [1.0], derivs=True)] == [(0, 1)] * 3

    def test_repeated_block_calls_are_byte_identical(self):
        params = MorseParameters(B=10.0, K=np.array([[0.0], [0.5], [1.0], [2.0]]))
        idx = morse.indices(params, Sector.FERMIONIC, ParameterMap.DERIVED)
        ys = riccati.morse_y(params, np.linspace(0.0, 3.0, 301))

        def call():
            return b"".join(v.tobytes() for fn in (whittaker_m, whittaker_w) for v in fn(idx, ys))

        first = call()
        assert all(call() == first for _ in range(20))

    def test_shapes_that_do_not_fit_are_rejected(self):
        # (R, 1) columns take y of shape (N,); one y per row only for 1F1,
        # whose triple then equals the float loop's
        idx = _index_columns([WhittakerIndices(kappa=0.3, mu=0.8), WhittakerIndices(kappa=-0.4, mu=1.1)])
        a, b = idx.series_a, idx.series_b
        with pytest.raises(ValueError, match="do not fit"):
            specfun.tricomi_u_derivs(a, b, np.ones((2, 1)))
        with pytest.raises(ValueError, match="do not fit"):
            specfun.tricomi_u_derivs(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="do not fit"):
            specfun.kummer_m_derivs(a, b, np.ones((2, 3)))
        zs = np.array([[0.5], [3.0]])
        per_row = specfun.kummer_m_derivs(a, b, zs)
        for r in range(2):
            ref = specfun._kummer_pass(complex(a[r, 0]), complex(b[r, 0]), float(zs[r, 0]))
            for got, want in zip(per_row, ref):
                assert_close(got[r, 0], want, rel=1e-14)


def _hyperu(a, b, z):
    """mpmath U(a, b, z) at 30 digits, as a complex."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        return complex(mp.hyperu(mp.mpc(a), mp.mpc(b), mp.mpf(z)))


class TestTricomiRow:
    # U over a numpy array of z: one quadrature for the whole array

    def test_row_matches_float_calls(self):
        # each element agrees with its float call
        a, b = 0.5 + 0.5j, 2.3 - 1.1j
        zs = np.array([0.5, 2.0, 4.0, 8.0, 19.9, 20.0, 25.0, 40.0])
        row = specfun.tricomi_u_derivs(a, b, zs)[0]
        for z, v in zip(zs.tolist(), row.tolist()):
            assert_close(v, specfun.tricomi_u_derivs(a, b, z)[0], rel=1e-13)
        with pytest.raises(ValueError):
            specfun.tricomi_u_derivs(1.0, 1.5, np.array([2.0, 0.0]))
        assert specfun.tricomi_u_derivs(1.0, 1.5, np.array([]))[0].shape == (0,)

    def test_integer_b_rejected_like_scalar(self):
        # neither call rejects integer b any longer: the array call takes
        # the float call's values there, and rejects only what the float
        # call rejects, a nonpositive z
        zs = np.array([3.0, 25.0])
        for b in (2.0, 2.0 + 5e-7, -3.0):
            row = specfun.tricomi_u_derivs(1.0, b, zs)[0]
            for z, v in zip(zs.tolist(), row.tolist()):
                assert_close(v, specfun.tricomi_u_derivs(1.0, b, z)[0], rel=1e-13)
        for z in (0.0, -2.0):
            with pytest.raises(ValueError):
                specfun.tricomi_u_derivs(1.0, 2.0, z)
            with pytest.raises(ValueError):
                specfun.tricomi_u_derivs(1.0, 2.0, np.array([3.0, z]))

    def test_block_integer_b_row_named(self):
        # the parameter rows of a block whose middle row has b within 1e-6
        # of the integer 3: each row, that one too, takes its mpmath values
        # over the array; a rejected array names its least z
        zs = np.array([3.0, 25.0])
        for a, b in ((1.0, 1.5), (0.5 + 0.5j, 3.0 + 4e-7j), (2.0, 2.5 - 1.0j)):
            row = specfun.tricomi_u_derivs(a, b, zs)[0]
            for z, v in zip(zs.tolist(), row.tolist()):
                assert_close(v, _hyperu(a, b, z), rel=1e-13)
        with pytest.raises(ValueError, match=re.escape(str(-1.5))):
            specfun.tricomi_u_derivs(0.5 + 0.5j, 3.0 + 4e-7j, np.array([3.0, -1.5, 25.0]))

    def test_integer_b_row_matches_mpmath(self):
        # integer b, including b = a + n, b = 1 and nonpositive b, and a
        # nonpositive integer a (a polynomial in z), over z in [0.05, 80]
        zs = np.geomspace(0.05, 80.0, 9)
        for a, b in ((3.0, 9.0), (1.3 + 0.4j, 1.0), (2.0, -3.0), (1.0, 2.0), (-2.0, 3.0), (0.7 - 0.2j, 2.0 + 5e-7)):
            row = specfun.tricomi_u_derivs(a, b, zs)[0]
            for z, v in zip(zs.tolist(), row.tolist()):
                assert_close(v, _hyperu(a, b, z), rel=1e-13)

    def test_block_agrees_with_scalar_on_oracle_distribution(self):
        # rows from the kummer-oracle distribution, a and b in [-7, 7]^2,
        # z in (0.05, 30], no b excluded: each array call agrees with its
        # float calls and with mpmath
        rng = random.Random(20060517)
        worst = 0.0
        for _ in range(30):
            a = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
            b = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
            zs = np.sort([rng.uniform(0.05, 30.0) for _ in range(4)])
            row = specfun.tricomi_u_derivs(a, b, zs)[0]
            for z, v in zip(zs.tolist(), row.tolist()):
                ref = _hyperu(a, b, z)
                assert_close(v, specfun.tricomi_u_derivs(a, b, z)[0], rel=1e-12)
                worst = max(worst, abs(v - ref) / abs(ref))
        assert worst <= 1e-12


class TestTricomi:
    def test_a_zero(self):
        assert_close(specfun.tricomi_u_derivs(0.0, 1.3, 2.0)[0], 1.0)

    def test_frozen_values(self):
        # mpmath.hyperu, 30 digits
        assert_close(specfun.tricomi_u_derivs(1.0, 1.5, 2.0)[0], 0.421369229288054473224934333542, rel=1e-12)
        assert_close(
            specfun.tricomi_u_derivs(0.5 + 0.5j, 2.3 - 1.1j, 4.0)[0],
            0.430639534101488061106449126402 - 0.473131261216224586144770785594j,
            rel=1e-11,
        )

    def test_integer_b_matches_mpmath(self):
        # U(1, 2, z) = 1/z and U(-n, b, z) a polynomial; the rest against
        # mpmath, z from 0.05 to 80
        for z in (0.05, 3.0, 19.9, 20.0, 25.0, 80.0):
            assert_close(specfun.tricomi_u_derivs(1.0, 2.0, z)[0], 1.0 / z, rel=1e-14)
            # U(-2, b, z) = z^2 - 2(b + 1) z + b(b + 1)
            assert_close(specfun.tricomi_u_derivs(-2.0, 9.0, z)[0], z * z - 20.0 * z + 90.0, rel=1e-13)
            for a, b in ((3.0, 9.0), (1.3 + 0.4j, 1.0), (2.0, -3.0), (1.0, 2.0 + 5e-7)):
                assert_close(specfun.tricomi_u_derivs(a, b, z)[0], _hyperu(a, b, z), rel=1e-13)

    def test_decay_in_z(self):
        vals = [abs(specfun.tricomi_u_derivs(1.5, 0.3, z)[0]) for z in range(5, 31, 5)]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_nonpositive_z_rejected(self):
        with pytest.raises(ValueError):
            specfun.tricomi_u_derivs(1.0, 1.5, -2.0)

    def test_float_sum_edges(self):
        # U(1, 2, z) = 1/z, with derivatives -1/z^2 and 2/z^3, from z = 1e-20,
        # where the integrand reaches out to t near 1e20, to z = 1e20, where
        # its peak lies on the first nodes
        for z in (1e-20, 1e-10, 1e-3, 1.0, 80.0, 1e3, 1e10, 1e20):
            got = specfun._tricomi_derivs(1.0 + 0j, 2.0 + 0j, z)
            for g, w in zip(got, (1.0 / z, -1.0 / z**2, 2.0 / z**3)):
                assert abs(g - w) <= 1e-14 * abs(w), z

    @pytest.mark.parametrize("a, b, z", [
        (1.5, 2.0, 1e-30), (1.5, 2.0, 1e30),
        (1.0 + 16.0j, 1.0 + 16.0j, 1.785), (1.0 + 16.0j, 1.0 + 16.0j, 3.0), (1.0 + 16.0j, 1.0 + 16.0j, 8.0),
        (1.0 + 20.0j, 1.0 + 20.0j, 2.0),
    ])
    def test_float_sum_non_convergence(self, a, b, z):
        # far out in z even the finest step misses the integrand's peak, and
        # a = b = 1+16i or 1+20i oscillates past it: NonConvergence naming a
        # and b, with no numpy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match=re.escape(f"a={complex(a)}, b={complex(b)}")):
                specfun.tricomi_u_derivs(a, b, z)

    def test_float_sum_has_one_node_table(self):
        # the float quadrature's levels, the step 2^-(_ES_FIRST+1) nodes and
        # the midpoints of each halving, hold every node of _ES_T once, each
        # level in ascending s, with the table's logs and powers bit for bit
        # (a level's weights are its powers times its step, a power of two)
        (first, weights), *midpoints = specfun._ES_LEVELS
        coarse, fine = weights[:6], weights[6:]
        seen = []
        for k, (logs, weights) in enumerate([(first, fine), *midpoints], start=specfun._ES_FIRST + 1):
            nodes = np.searchsorted(specfun._ES_LOGS[0], logs[0].real)
            assert np.all(np.diff(nodes) > 0)
            assert np.array_equal(logs, specfun._ES_LOGS[:, nodes]) and not logs.imag.any()
            assert np.array_equal(weights * 2.0**k, specfun._ES_POWERS[:, nodes])
            seen.extend(nodes.tolist())
        assert sorted(seen) == list(range(specfun._ES_T.size))
        # the first level's other six rows weigh its every other node by the
        # coarsest step, 2^-_ES_FIRST
        assert np.array_equal(coarse[:, ::2], 2.0 * fine[:, ::2]) and not coarse[:, 1::2].any()


class TestWhittaker:
    def test_m_closed_form(self):
        # M_{0,1/2}(z) = 2 sinh(z/2)
        idx = WhittakerIndices(kappa=0.0, mu=0.5)
        assert_close(whittaker_m(idx, 2.0)[0], 2.0 * math.sinh(1.0))

    def test_m_small_y_leading_term(self):
        idx = WhittakerIndices(kappa=1.3 - 0.2j, mu=0.8 + 0.1j)
        y = 1e-8
        ratio = whittaker_m(idx, y)[0] / cmath.exp((idx.mu + 0.5) * math.log(y))
        assert abs(ratio - 1.0) < 1e-7

    def test_m_rk_oracle(self):
        # frozen via mpmath.whitm(2.5, 4, 8); RK cross-check lives in test_verify
        idx = WhittakerIndices(kappa=2.5, mu=4.0)
        assert_close(whittaker_m(idx, 8.0)[0], 2529.10419445730073934178216258, rel=1e-12)

    def test_m_frozen_complex(self):
        idx = WhittakerIndices(kappa=1.2 + 0.3j, mu=0.7 - 0.2j)
        assert_close(
            whittaker_m(idx, 3.0)[0],
            0.577277154996386313674240642878 - 1.08691778516082850257363838552j,
            rel=1e-12,
        )

    def test_w_frozen_complex(self):
        idx = WhittakerIndices(kappa=1.2 + 0.3j, mu=0.7 - 0.2j)
        assert_close(
            whittaker_w(idx, 3.0)[0],
            0.868104377536695377387625193 + 0.0770861253801650240831506387955j,
            rel=1e-11,
        )

    def test_w_near_closed_form(self):
        # W_{0,1/2}(y) = e^{-y/2}: a = 1 and b = 2 exactly, U(1, 2, y) = 1/y.
        # W'' takes 1e-12: the y^-3 terms of the chain rule cancel there,
        # 3,200 times the result at y = 0.05
        idx = WhittakerIndices(kappa=0.0, mu=0.5)
        ys = np.geomspace(0.05, 80.0, 25)
        row = whittaker_w(idx, ys)
        for i, y in enumerate(ys.tolist()):
            exact = math.exp(-0.5 * y)
            for k, got in enumerate(whittaker_w(idx, y)):
                rel = 1e-12 if k == 2 else 1e-14
                assert_close(got / exact, (-0.5) ** k, rel=rel)
                assert_close(row[k][i] / exact, (-0.5) ** k, rel=rel)

    def test_w_wronskian_gamma_ratio(self):
        # W{M, W}(y) = M W' - W M' = -Gamma(1 + 2mu) / Gamma(1/2 + mu - kappa)
        # (DLMF 13.14.26), a check of U that is not itself a U algorithm:
        # the Morse indices of B in {2, 5, 10, 20}, K in {0, 0.5, 1, 2}, both
        # maps and both sectors (A = 1, a = 0.5, K' = 2), at y in [0.05, 80];
        # y = (2B/a) e^{-ax} reaches 4B at x = 0, and B only sets that top
        worst = 0.0
        for B in (2.0, 5.0, 10.0, 20.0):
            ys = np.geomspace(0.05, 4.0 * B, 40)
            for K in (0.0, 0.5, 1.0, 2.0):
                for pmap in ParameterMap:
                    for sector in Sector:
                        idx = morse.indices(MorseParameters(B=B, K=K), sector, pmap)
                        expected = -cmath.exp(
                            specfun.log_gamma(2 * idx.mu + 1) - specfun.log_gamma(idx.mu - idx.kappa + 0.5)
                        )
                        rows = whittaker_m(idx, ys), whittaker_w(idx, ys)
                        for i, y in enumerate(ys.tolist()):
                            floats = whittaker_m(idx, y), whittaker_w(idx, y)
                            for (m, m1, _), (w, w1, _) in (floats, [[d[i] for d in r] for r in rows]):
                                v = m * w1 - w * m1
                                worst = max(worst, abs(v - expected) / abs(expected))
        assert worst <= 1e-12

    def test_w_large_y_decay_slope(self):
        # |W| ~ e^{-y/2} y^kappa (1 + O(1/y)): the compensated log should
        # settle toward a constant, with shrinking steps from the 1/y tail
        idx = WhittakerIndices(kappa=1.4, mu=0.3)
        ys = [10.0, 15.0, 20.0, 25.0, 30.0]
        logs = [math.log(abs(whittaker_w(idx, y)[0])) + 0.5 * y - idx.kappa.real * math.log(y)
                for y in ys]
        steps = [abs(b - a) for a, b in zip(logs, logs[1:])]
        assert all(s1 > s2 for s1, s2 in zip(steps, steps[1:]))
        assert steps[-1] < 0.01

    def test_m_derivative_closed_form(self):
        idx = WhittakerIndices(kappa=0.0, mu=0.5)
        assert_close(whittaker_m(idx, 2.0)[1], math.cosh(1.0))

    def test_m_derivative_finite_difference(self):
        idx = WhittakerIndices(kappa=1.7 - 0.9j, mu=1.1 + 0.4j)
        y = 3.7
        h = 1e-5
        fd = (whittaker_m(idx, y + h)[0] - whittaker_m(idx, y - h)[0]) / (2 * h)
        assert_close(whittaker_m(idx, y)[1], fd, rel=1e-7)

    def test_m_second_derivative_finite_difference(self):
        idx = WhittakerIndices(kappa=1.7 - 0.9j, mu=1.1 + 0.4j)
        y = 3.7
        h = 1e-4
        vals = [whittaker_m(idx, y + k * h)[0] for k in (-2, -1, 0, 1, 2)]
        fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
        # FD of the second derivative hits the eps/h^2 roundoff floor ~1e-8;
        # the analytic value is far more accurate than this comparison
        assert_close(whittaker_m(idx, y)[2], fd, rel=1e-6)

    def test_small_y_derivative_scaling(self):
        idx = WhittakerIndices(kappa=0.3, mu=0.8)
        y = 1e-6
        lead = (idx.mu + 0.5) * cmath.exp((idx.mu - 0.5) * math.log(y))
        assert abs(whittaker_m(idx, y)[1] / lead - 1.0) < 1e-5

    def test_derivative_rows_match_scalar(self):
        # array calls against float calls of both triples, y in [0.05, 40];
        # the W triple's derivatives are also the shifted values
        # U^(k)(a, b, y) = (-1)^k (a)_k U(a+k, b+k, y) (DLMF 13.3.22), each a
        # quadrature of its own
        ys = np.concatenate((np.linspace(0.05, 8.0, 41), np.linspace(8.0, 40.0, 41)))
        idx = WhittakerIndices(kappa=1.2 + 0.3j, mu=0.7 - 0.2j)
        for fn in (whittaker_m, whittaker_w):
            rows = fn(idx, ys)
            for i, y in enumerate(ys.tolist()):
                for row, ref in zip(rows, fn(idx, y)):
                    assert_close(row[i], ref, rel=1e-12)
        a, b = idx.series_a, idx.series_b
        for y in ys.tolist():
            # from_core takes U, y U' and y^2 U''
            u = [specfun.tricomi_u_derivs(a + k, b + k, y)[0] for k in range(3)]
            core = (u[0], -a * y * u[1], a * (a + 1) * y * y * u[2])
            for got, ref in zip(whittaker_w(idx, y), from_core(core, idx.mu, y)):
                assert_close(got, ref, rel=1e-12)

    def test_inadmissible_indices(self):
        with pytest.raises(ParameterPole):
            whittaker_m(WhittakerIndices(kappa=0.3, mu=-1.0), 2.0)

    def test_m_triple_near_a_pole_matches_mpmath(self):
        # 2mu + 1 within 1e-8 to 1e-6 of -1, -2 and -3, on series that do
        # not terminate: past the pole rule's 1e-12 the triple evaluates,
        # float and array calls alike, to mpmath's whitm and mp.diff
        mp = pytest.importorskip("mpmath")
        ys = [0.5, 2.0, 8.0]
        worst = 0.0
        with mp.workdps(40):
            for kappa in (0.3 + 0.2j, 1.1 - 0.4j):
                for b in (-1.0 + 1e-8, -1.0 - 1e-6, -2.0 + 6e-8j, -3.0 + 8e-7, -3.0 + 1e-6j):
                    idx = WhittakerIndices(kappa=kappa, mu=(b - 1.0) / 2.0)
                    rows = whittaker_m(idx, np.array(ys))

                    def f(t, idx=idx):
                        return mp.whitm(mp.mpc(idx.kappa), mp.mpc(idx.mu), t)

                    for i, y in enumerate(ys):
                        refs = [complex(f(mp.mpf(y)))] + [complex(mp.diff(f, mp.mpf(y), k)) for k in (1, 2)]
                        for got, row, r in zip(whittaker_m(idx, y), rows, refs):
                            worst = max(worst, abs(got - r) / abs(r), abs(row[i] - r) / abs(r))
        assert worst <= 1e-13

    def test_triples_match_mpmath(self):
        # (W, W', W'') of both kinds against mpmath's whitm/whitw, derivatives
        # by mp.diff, at 40 digits: |Re kappa| <= 2, Re mu in [0.2, 2],
        # imaginary parts within 1.5, y in [0.2, 5]
        mp = pytest.importorskip("mpmath")
        rng = random.Random(20060519)
        worst = {whittaker_m: 0.0, whittaker_w: 0.0}
        n = 0
        with mp.workdps(40):
            while n < 16:
                kappa = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5))
                mu = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.5, 1.5))
                n += 1
                y = rng.uniform(0.2, 5.0)
                for fn, ref in ((whittaker_m, mp.whitm), (whittaker_w, mp.whitw)):
                    def f(t, ref=ref):
                        return ref(mp.mpc(kappa), mp.mpc(mu), t)
                    refs = [complex(f(mp.mpf(y)))] + [complex(mp.diff(f, mp.mpf(y), k)) for k in (1, 2)]
                    for got, r in zip(fn(WhittakerIndices(kappa=kappa, mu=mu), y), refs):
                        worst[fn] = max(worst[fn], abs(got - r) / abs(r))
        assert worst[whittaker_m] <= 1e-13
        assert worst[whittaker_w] <= 1e-12

    def test_w_triple_matches_mpmath_on_the_morse_region(self):
        # (W, W', W'') against mpmath at 30 digits: U from hyperu, its
        # derivatives from U^(k) = (-1)^k (a)_k U(a+k, b+k, y) and the
        # product with e^{-y/2} y^(mu+1/2) differentiated exactly. Seeded
        # Morse indices (A = 1, a = 0.5, K' = 2, K in [0, 2], both maps and
        # sectors) at y in [0.05, 80]; the integer b of the printed map at
        # K = 0 and of (a, b) = (1.3+0.4i, 1), (2, -3); and CLI-reachable
        # indices with Re a <= 0, where the recurrence from Re a >= 1 down to
        # a loses up to a few digits at small y
        mp = pytest.importorskip("mpmath")
        def reference(idx, y):
            with mp.workdps(30):
                a, b, mu, t = mp.mpc(idx.series_a), mp.mpc(idx.series_b), mp.mpc(idx.mu), mp.mpf(y)
                u = [mp.hyperu(a, b, t), -a * mp.hyperu(a + 1, b + 1, t), a * (a + 1) * mp.hyperu(a + 2, b + 2, t)]
                s = mu + 0.5
                pre = mp.exp(-t / 2) * t**s
                l1 = -0.5 + s / t
                l2 = l1 * l1 - s / t**2
                return [complex(pre * u[0]), complex(pre * (l1 * u[0] + u[1])),
                        complex(pre * (l2 * u[0] + 2 * l1 * u[1] + u[2]))]

        def worst(points):
            out = 0.0
            for idx, y in points:
                for got, ref in zip(whittaker_w(idx, y), reference(idx, y)):
                    out = max(out, abs(got - ref) / abs(ref))
            return out

        rng = random.Random(20061019)
        log_y = (math.log(0.05), math.log(80.0))
        morse_points = []
        for _ in range(24):
            p = MorseParameters(K=rng.uniform(0.0, 2.0))
            pmap = rng.choice(list(ParameterMap))
            idx = morse.indices(p, rng.choice(list(Sector)), pmap)
            morse_points.append((idx, math.exp(rng.uniform(*log_y))))
        assert worst(morse_points) <= 1e-12
        integer_b = [morse.indices(MorseParameters(), s, ParameterMap.PRINTED) for s in Sector]
        integer_b += [WhittakerIndices(kappa=(b - 1) / 2 - a + 0.5, mu=(b - 1) / 2) for a, b in ((1.3 + 0.4j, 1.0), (2.0, -3.0))]
        assert worst([(idx, y) for idx in integer_b for y in (0.05, 0.7, 8.0, 30.0, 80.0)]) <= 1e-12
        nonpositive = []
        while len(nonpositive) < 16:
            p = MorseParameters(
                A=rng.choice((1.0, 1.5, 2.0, 3.0)), a=rng.choice((0.5, 1.0)),
                K=rng.uniform(0.0, 2.0), Kprime=rng.choice((0.0, 0.5, 1.0, 2.0)),
            )
            pmap = rng.choice(list(ParameterMap))
            idx = morse.indices(p, rng.choice(list(Sector)), pmap)
            if idx.series_a.real <= 0.0:
                nonpositive.append((idx, math.exp(rng.uniform(*log_y))))
        assert worst(nonpositive) <= 1e-11

    def test_terminating_m_triple_is_the_differentiated_finite_sum(self):
        # 1F1(-3; 2; z) = 1 - 3z/2 + z^2/2 - z^3/24 and its derivatives,
        # through the float and the array triple, both the Laguerre
        # recurrence of the terminating row: three steps, no stopping rule
        zs = np.linspace(1.0, 30.0, 30)
        exact = (
            1.0 - 1.5 * zs + 0.5 * zs**2 - zs**3 / 24.0,
            -1.5 + zs - zs**2 / 8.0,
            1.0 - zs / 4.0,
        )
        scale = (1.0 + 1.5 * zs + 0.5 * zs**2 + zs**3 / 24.0, 1.5 + zs + zs**2 / 8.0, 1.0 + zs / 4.0)
        for i, z in enumerate(zs.tolist()):
            s0, s1, s2 = specfun.kummer_m_derivs(-3.0, 2.0, z)
            for got, ref, sc in zip((s0, s1 / z, s2 / (z * z)), exact, scale):
                assert abs(got - ref[i]) <= 1e-14 * sc[i]
        s0, s1, s2 = specfun.kummer_m_derivs(-3.0, 2.0, zs)
        for got, ref, sc in zip((s0, s1 / zs, s2 / zs**2), exact, scale):
            assert np.all(np.abs(got - ref) <= 1e-14 * sc)
        # dyadic case summed without rounding: 1F1(-2; 1; 2) = 1 - 2z + z^2/2
        # at z = 2, with derivatives -2 + z = 0 and 1
        assert specfun.kummer_m_derivs(-2.0, 1.0, 2.0) == (-1.0, 0.0, 4.0)
        block = specfun.kummer_m_derivs(-2.0, 1.0, np.array([2.0]))
        assert [v.tolist() for v in block] == [[-1.0], [0.0], [4.0]]
        # a terminating triple whose b is a nonpositive integer past its
        # last term: 1F1(-2; -4; y) = 1 + y/2 + y^2/12
        idx = WhittakerIndices(kappa=0.0, mu=-2.5)
        y = 1.5
        pre, pre1, pre2 = from_core((1.0, 0.0, 0.0), idx.mu, y)
        core = (1.0 + y / 2.0 + y * y / 12.0, 0.5 + y / 6.0, 1.0 / 6.0)
        expected = (pre * core[0], pre1 * core[0] + pre * core[1],
                    pre2 * core[0] + 2.0 * pre1 * core[1] + pre * core[2])
        for got, ref in zip(whittaker_m(idx, y), expected):
            assert_close(got, ref, rel=1e-14)

    def test_pass_derivative_sums_match_shifted_series(self):
        # S1/z = (a/b) M(a+1, b+1, z) and S2/z^2 = a(a+1)/(b(b+1)) M(a+2, b+2, z):
        # the contiguous identities the term-by-term sums replace, on the
        # kummer-oracle distribution with z <= 5
        rng = random.Random(20060518)
        worst = 0.0
        for _ in range(200):
            a = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
            b = complex(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
            if not _admissible_b(b):
                continue
            z = rng.uniform(1e-6, 5.0)
            _, s1, s2 = specfun._kummer_pass(a, b, z)
            d1 = a / b * specfun.kummer_m(a + 1, b + 1, z)
            d2 = a * (a + 1) / (b * (b + 1)) * specfun.kummer_m(a + 2, b + 2, z)
            worst = max(worst, abs(s1 / z - d1) / abs(d1), abs(s2 / (z * z) - d2) / abs(d2))
        assert worst <= 1e-12

    def test_triple_exists_wherever_the_value_does(self):
        # the triple takes the value's one pole rule, on the float and the
        # block path: 1F1(0; -1; z) = 1 and 1F1(-1; -2; z) = 1 + z/2 end
        # before their denominators vanish, and their derivatives with them
        def both_paths(a, b, z):
            block = specfun.kummer_m_derivs(a, b, np.array([z]))
            return [complex(v) for v in specfun.kummer_m_derivs(a, b, z)], [complex(v[0]) for v in block]

        for z in (0.5, 1.0, 3.0):
            assert both_paths(0.0, -1.0, z) == ([1.0, 0.0, 0.0],) * 2
            assert both_paths(-1.0, -2.0, z) == ([1.0 + z / 2.0, z / 2.0, 0.0],) * 2
        # a series that reaches its vanishing denominator is still rejected
        for a in (0.7, -3.0):
            for z in (1.0, np.array([1.0])):
                with pytest.raises(ParameterPole, match=re.escape("kummer_m: b = (-2+0j) at a nonpositive integer")):
                    specfun.kummer_m_derivs(a, -2.0, z)


class TestLaguerre:
    # terminating kummer_m and kummer_m_derivs rows: 1F1(-n; p+1; y) is
    # n!/(p+1)_n L_n^p(y), which the kernel sums by the Laguerre recurrence
    def test_degree_zero_and_one(self):
        assert specfun.kummer_m(0, 4.7, 11.0) == 1.0
        assert_close(specfun.kummer_m(-1, 3.5, 0.7), (1 + 2.5 - 0.7) / 3.5)

    def test_l2_value(self):
        # independent series: (p+1)(p+2)/2 - (p+2) y + y^2/2 at p=2, y=3,
        # times 2!/(3)_2
        assert_close(specfun.kummer_m(-2, 3.0, 3.0), -1.5 / 6.0)
        assert_close(laguerre_series(2, 2.0, 3.0), -1.5)

    @given(
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=-0.9, max_value=5.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_recurrence_vs_series(self, n, p, y):
        lhs = specfun.kummer_m(-n, p + 1.0, y)
        # n!/(p+1)_n L_n^p(y) from the explicit Laguerre sum
        rhs = math.prod(j / (p + j) for j in range(1, n + 1)) * laguerre_series(n, p, y)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        assert specfun.kummer_m_derivs(-n, p + 1.0, y)[0] == lhs

    def test_rows_equal_the_float_calls(self):
        # (R, 1) columns of degrees and of b against an array of y: one
        # pass of the recurrence, each row stopping at its own degree, bit
        # for bit its float calls, the value's and the triple's
        n = np.array([[7], [6], [0], [3]])
        b = np.array([[3.5], [4.5], [2.0], [0.5]])
        y = np.array([0.0, 0.7, 3.0, 11.0])
        block, triple = specfun.kummer_m(-n, b, y), specfun.kummer_m_derivs(-n, b, y)
        assert block.shape == (4, 4)
        assert np.array_equal(triple[0], block)
        for r, (deg, order) in enumerate(zip(n[:, 0].tolist(), b[:, 0].tolist())):
            assert block[r].tolist() == [specfun.kummer_m(-deg, order, v) for v in y.tolist()]
            floats = [specfun.kummer_m_derivs(-deg, order, v) for v in y.tolist()]
            assert [list(v) for v in zip(*floats)] == [v[r].tolist() for v in triple]

    def test_rows_match_mpmath_to_degree_200(self):
        # the alternating series lost every digit here (relative error
        # 5.1e-2 at n = 60, 2.8e14 at n = 199, b = 3, y = 8): against mpmath
        # at 40 digits, each value to 1e-13 of itself, and each member of
        # the triple (F, y F', y^2 F'') to 1e-13 of the triple's largest,
        # as a member alone is as small as it likes near its zeros
        mp = pytest.importorskip("mpmath")
        degrees = np.array([[0], [1], [2], [5], [20], [60], [100], [150], [199], [200]])
        ys = np.array([0.0, 0.5, 8.0, 25.0, 40.0])
        worst_value = worst_triple = 0.0
        with mp.workdps(40):
            for b in (1.5, 3.0, 9.0, 2.5 - 1.5j):
                values = specfun.kummer_m(-degrees, np.full(degrees.shape, b), ys)
                triple = specfun.kummer_m_derivs(-degrees, np.full(degrees.shape, b), ys)
                for r, n in enumerate(degrees[:, 0].tolist()):
                    for j, y in enumerate(ys.tolist()):
                        bm, ym = mp.mpmathify(b), mp.mpf(y)
                        refs = [
                            complex(mp.hyp1f1(-n, bm, ym)),
                            complex(-n / bm * ym * mp.hyp1f1(1 - n, bm + 1, ym)),
                            complex(n * (n - 1) / (bm * (bm + 1)) * ym**2 * mp.hyp1f1(2 - n, bm + 2, ym)),
                        ]
                        worst_value = max(worst_value, abs(values[r, j] - refs[0]) / abs(refs[0]))
                        scale = max(map(abs, refs))
                        worst_triple = max(worst_triple, *(abs(v[r, j] - ref) / scale for v, ref in zip(triple, refs)))
        assert worst_value <= 1e-13
        assert worst_triple <= 1e-13

    def test_core_nu_zero(self):
        # the Laguerre-like core 1F1(-nu; alpha + 1; y) at nu = 0
        nu, alpha = 0.0, 1.7 + 0.3j
        assert specfun.kummer_m(-nu, alpha + 1, 5.0) == 1.0

    def test_core_whittaker_identity(self):
        kappa, mu, y = 1.5, 0.5, 3.0
        lhs = whittaker_m(WhittakerIndices(kappa=kappa, mu=mu), y)[0]
        rhs = y ** (mu + 0.5) * math.exp(-0.5 * y) * specfun.kummer_m(-(kappa - mu - 0.5), 2 * mu + 1.0, y)
        assert_close(lhs, rhs, rel=1e-12)

    def test_core_degree_one(self):
        p = 2.3
        core = specfun.kummer_m(-1.0, p + 1.0, 1.1)
        assert_close(core, 1.0 - 1.1 / (p + 1.0))
        assert_close(core, laguerre_series(1, p, 1.1) * 1.0 / (p + 1.0))
