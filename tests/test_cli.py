import cmath
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from nhmorse import cli, morse, verify
from nhmorse.morse import GridSpec, MorseParameters, ParameterMap
from nhmorse.susy import Sector

FIG_ROWS = 61 * 41


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGrid:
    def test_shape_and_header(self, capsys):
        code, out, _ = run(capsys, "grid")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,K,y,re,im"
        assert len(lines) == FIG_ROWS + 1

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "grid")
        _, second, _ = run(capsys, "grid")
        assert first == second

    def test_k_zero_rows_real(self, capsys):
        code, out, _ = run(capsys, "grid", "--component", "bosonic")
        assert code == 0
        for line in out.splitlines()[1:]:
            x, K, y, re, im = line.split(",")
            if float(K) == 0.0:
                assert abs(float(im)) <= 1e-12

    def test_ordering(self, capsys):
        _, out, _ = run(capsys, "grid", "--nx", "3", "--nK", "2")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        ks = [float(r[1]) for r in rows]
        xs = [float(r[0]) for r in rows]
        assert ks == sorted(ks)
        assert xs == [0.0, 1.5, 3.0, 0.0, 1.5, 3.0]

    def test_corner_value_round_trips(self, capsys):
        _, out, _ = run(capsys, "grid")
        first_row = out.splitlines()[1].split(",")
        assert float(first_row[0]) == 0.0 and float(first_row[1]) == 0.0
        Ks = np.linspace(0.0, 2.0, 41)
        rows = MorseParameters(K=Ks[:, None])
        block = morse.wavefunction_grid(rows, Sector.BOSONIC, ParameterMap.PRINTED, np.linspace(0.0, 3.0, 61))
        value = block[0, 0]
        assert float(first_row[3]) == value.real
        assert float(first_row[4]) == value.imag
        first = MorseParameters(K=Ks[0])
        expected = morse.wavefunction_grid(first, Sector.BOSONIC, ParameterMap.PRINTED, np.array([0.0]))[0, 0]
        assert abs(value - expected) <= 1e-14 * abs(expected)

    def test_param_maps_differ(self, capsys):
        _, printed, _ = run(capsys, "grid", "--nx", "5", "--nK", "3", "--param-map", "printed")
        _, derived, _ = run(capsys, "grid", "--nx", "5", "--nK", "3", "--param-map", "derived")
        assert printed != derived

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "grid", "--nx", "3", "--nK", "2", "--out", str(path))
        assert code == 0 and out == ""
        text = path.read_text()
        assert text.startswith("x,K,y,re,im\n")
        assert text.count("\n") == 7

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        # a missing directory: one error line naming the path, no traceback, no CSV
        path = tmp_path / "missing" / "grid.csv"
        code, out, err = run(capsys, "grid", "--nx", "3", "--nK", "2", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write --out {path}: ") and err.count("\n") == 1

    def test_solution_kinds(self, capsys):
        code_w, out_w, _ = run(capsys, "grid", "--nx", "3", "--nK", "2",
                               "--alpha", "0", "--beta", "1,0", "--K-min", "0.5")
        code_mix, out_mix, _ = run(capsys, "grid", "--nx", "3", "--nK", "2",
                                   "--beta", "0.5,0.5", "--K-min", "0.5")
        assert code_w == 0 and code_mix == 0
        assert out_w != out_mix

    def test_amplitudes_alone_pick_the_terms(self, capsys):
        # a nonzero --beta adds W to the default M; there is no flag that
        # overrides the amplitudes
        _, default, _ = run(capsys, "grid", "--nx", "3", "--nK", "2")
        _, mixed, _ = run(capsys, "grid", "--nx", "3", "--nK", "2", "--beta", "1")
        assert mixed != default
        code, out, err = run(capsys, "grid", "--solution", "w")
        assert code == 2 and out == "" and "unrecognized arguments: --solution w" in err

    def test_flag_error_exits_2(self, capsys):
        code, _, _ = run(capsys, "grid", "--component", "spinless")
        assert code == 2

    @pytest.mark.parametrize("solution, beta", [("w", "1,0"), ("mix", "0.5,-0.25")])
    def test_recessive_grids_match_scalar_wavefunction(self, capsys, solution, beta):
        # W alone (alpha = 0) and alpha M + beta W; K' = 1.9 keeps
        # b = 2 mu + 1 off the integers on every row
        alpha = 0.0 if solution == "w" else 0.75 + 0.5j
        code, out, _ = run(capsys, "grid", "--alpha", f"{alpha.real},{alpha.imag}", "--beta", beta,
                           "--Kprime", "1.9", "--nx", "7", "--nK", "5", "--component", "fermionic")
        assert code == 0
        beta = complex(*map(float, beta.split(",")))
        for line in out.splitlines()[1:]:
            x, K, _, re, im = map(float, line.split(","))
            p = MorseParameters(K=K, Kprime=1.9, alpha1=alpha, beta1=beta)
            ref = morse.wavefunction_derivs(p, Sector.FERMIONIC, ParameterMap.PRINTED, x)[0]
            assert abs(complex(re, im) - ref) <= 1e-12 * abs(ref)

    def test_evaluation_error_exits_1(self, capsys):
        # x in [-20, -19] puts y near 1.8e5, where the Kummer series of the M
        # solution does not converge; the failure names the grid's K and x
        code, out, err = run(capsys, "grid", "--x-min", "-20", "--x-max", "-19", "--nx", "2", "--nK", "2")
        assert code == 1 and out == ""
        assert "did not converge" in err
        assert "K=0 to 2" in err and "x=-20 to -19" in err
        # a bosonic W row whose quadrature does not settle at x = 80 names
        # its own a = 1/2 + mu - kappa, not the a + 1 that the quadrature took
        code, out, err = run(capsys, *"grid --alpha 0 --beta 1 --Kprime 0 --K-min 1 --K-max 1 --nK 1 "
                             "--x-min 80 --x-max 80 --nx 1".split())
        assert code == 1 and out == ""
        assert "did not converge: a=(0.5723027555148466-0.544039299028138j)" in err and "K=1 to 1, x=80 to 80" in err

    def test_overflow_exits_1(self, capsys):
        # x near -9.07 puts y near 746, where the M series overflows: one
        # error line and no CSV, not rows of nan
        argv = "grid --component fermionic --x-min -9.07 --x-max -9 --nx 4 --nK 2".split()
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow at" in err

    def test_overflow_fails_fast(self, capsys):
        # at x = -12 (y near 3,227) the block series overflows within a few
        # hundred terms; it stops there instead of summing NaN to its limit
        start = time.perf_counter()
        code, out, err = run(capsys, "grid", "--x-min", "-12", "--nx", "181", "--nK", "121")
        elapsed = time.perf_counter() - start
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert elapsed < 1.0

    def test_y_overflow_exits_1(self, capsys):
        # y = (2B/a) e^{-ax} is past the double range at x = -2000: one
        # error line naming that x, and no numpy warning before it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "grid", "--x-min", "-2000", "--nx", "3", "--nK", "2")
        assert caught == []
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "x = -2000" in err

    def test_recessive_overflow_exits_1_without_warnings(self, capsys):
        # at x = 300 the W quadrature's sums overflow: one error line naming
        # the row's a and b, and no numpy warning before it
        argv = "grid --alpha 0 --beta 1 --x-min 300 --x-max 300 --nx 1 --K-max 0 --nK 1".split()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert caught == []
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "tricomi_u quadrature did not converge: a=(3+0j), b=(9+0j)" in err

    @pytest.mark.parametrize("argv", ["grid --alpha 0", "grid --alpha 0,0 --beta 0,0"])
    def test_all_zero_grid_exits_2(self, capsys, argv):
        # both amplitudes zero: a grid of zeros says nothing, so one error
        # line names the flags to set
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err == "error: the grid is zero everywhere; set a nonzero --alpha or --beta\n"

    def test_huge_k_exits_1(self, capsys):
        # K^2 overflows past |K| = 1.3e154: one error line naming K, and no
        # numpy warning before it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "grid", "--K-min", "1e300", "--K-max", "1e300", "--nx", "2", "--nK", "2")
        assert caught == []
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "K = 1.0000000000000001e+300" in err

    def test_underflowed_y_at_mu_zero(self, capsys):
        # y = 8 e^{-750} underflows to 0 at x = 1500; with mu = 0 the value
        # is sqrt(2B/a) y^0 = sqrt(8), as at x = 1400, not nan
        argv = "grid --A 0 --Kprime 0 --K-max 0 --nK 1 --x-min 1500 --x-max 1500 --nx 1".split()
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == "x,K,y,re,im\n1500,0,0,2.8284271247461903,0\n"

    def test_underflowed_y_warns_nothing(self, capsys):
        # y is subnormal at x = 1450 and 0 at x = 1500; Re mu > 0 on both rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "grid", "--x-min", "1400", "--x-max", "1500", "--nx", "3", "--nK", "2")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [y for _, _, y, _, _ in rows] == ["7.8877412350078166e-304", "1.0954450732490517e-314", "0"] * 2
        assert all(float(re) == 0.0 and float(im) == 0.0 for *_, re, im in rows)

    def test_underflowed_y_at_imaginary_mu(self, capsys):
        # A = K' = 0, K = 1 gives mu = 2i: y^mu = e^{2i log y} keeps modulus
        # 1 and the phase of log y = log 8 - 750 where y itself is 0
        argv = "grid --A 0 --Kprime 0 --K-min 1 --K-max 1 --nK 1 --x-min 1500 --x-max 1500 --nx 1".split()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        *_, re, im = out.splitlines()[1].split(",")
        expected = math.sqrt(8.0) * cmath.exp(2j * (math.log(8.0) - 750.0))
        assert abs(complex(float(re), float(im)) - expected) <= 1e-12

    def test_recessive_at_underflowed_y_exits_1(self, capsys):
        # W diverges as y -> 0: the error names the x where y underflows to
        # 0, as the float and triple paths do, not U's z > 0
        argv = "grid --alpha 0 --beta 1 --x-min 1500 --x-max 1500 --nx 1 --nK 1".split()
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == (
            "error: evaluation failed on the grid K=0 to 0, x=1500 to 1500: "
            "y = (2B/a) e^(-a x) underflows to 0 at x = 1500\n"
        )

    def test_recessive_grid_at_the_figure_point(self, capsys):
        # the W solution on the default grid: printed map, K = 0 gives the
        # integer b = 2 mu + 1 = 9, and there W is real
        code, out, _ = run(capsys, "grid", "--alpha", "0", "--beta", "1,0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,K,y,re,im" and len(lines) == FIG_ROWS + 1
        k_zero = [line.split(",") for line in lines[1:] if float(line.split(",")[1]) == 0.0]
        assert len(k_zero) == 61
        for _, _, _, re, im in k_zero:
            assert abs(float(im)) <= 1e-12 * abs(float(re))


    @pytest.mark.parametrize("A", [20.0, 30.0, 40.0])
    def test_terminating_row_solves_its_equation(self, capsys, A):
        # printed map, fermionic, K = 0, K' = 0.5: the M row's 1F1 is the
        # terminating row a = -(2A - 1), b = 3, whose alternating series
        # read shifted residuals 4.2e-6, 6.7e-2 and 1.8 here; the grid
        # prints the values whose triple solves w'' + (Q + A^2) w = 0
        code, out, _ = run(capsys, "grid", "--param-map", "printed", "--component", "fermionic", "--A", str(A),
                           "--Kprime", "0.5", "--K-max", "0", "--nK", "1", "--nx", "4")
        assert code == 0
        xs = np.linspace(0.0, 3.0, 4)
        params = MorseParameters(A=A, K=0.0, Kprime=0.5)
        w, _, d2w = morse.wavefunction_grid(params, Sector.FERMIONIC, ParameterMap.PRINTED, xs, derivs=True)
        printed = [complex(float(line.split(",")[3]), float(line.split(",")[4])) for line in out.splitlines()[1:]]
        assert printed == w[0].tolist()
        q = morse.ode_coefficient(params, Sector.FERMIONIC, xs)
        assert verify.ode_residual(q + A * A, w, d2w).max() <= 1e-8


class TestParams:
    def test_fig_values(self, capsys):
        code, out, _ = run(capsys, "params", "--K", "0")
        assert code == 0
        assert "mu_printed" in out and "4 " in out
        assert "4.4721359549995796" in out
        assert "C1_bar" in out and "5" in out

    def test_default_k_is_zero(self, capsys):
        _, explicit, _ = run(capsys, "params", "--K", "0")
        _, default, _ = run(capsys, "params")
        assert explicit == default

    def test_y_range(self, capsys):
        _, out, _ = run(capsys, "params")
        line = next(ln for ln in out.splitlines() if ln.startswith("y(x_min)"))
        assert line.split()[-1] == "8"


    def test_y_overflow_exits_1(self, capsys):
        # y = (2B/a) e^{-ax} is past the double range at x = -2000
        code, out, err = run(capsys, "params", "--x-min", "-2000")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_y_product_overflow_exits_1(self, capsys):
        # at x = -1416, e^{-ax} is finite but (2B/a) e^{-ax} is not: one error
        # line naming that x, not y(x_min) printed as inf
        code, out, err = run(capsys, "params", "--x-min", "-1416")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows at x = -1416" in err

    def test_huge_k_exits_1(self, capsys):
        # K^2 overflows past |K| = 1.3e154: one error line, not a nan mu
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "params", "--K", "1e300")
        assert caught == []
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "K = 1.0000000000000001e+300" in err


def bound_state_rows(out: str) -> list[list[str]]:
    """The bound-state table's rows split into their fields, header dropped."""
    lines = out.splitlines()
    assert lines[0] == "sector  n  Kprime  exponent  residual(Kprime^2)  residual(matched Kprime^2)"
    return [line.split() for line in lines[1:]]


class TestBoundStates:
    # the paper's pairing K' = A - a n is the fermionic sector's spectrum,
    # the shifted K' = A - a (n + 1) the bosonic one's; the table lists both
    def test_paper_convention_rows(self, capsys):
        code, out, _ = run(capsys, "bound-states")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("fermionic  0  1  2  ")
        assert lines[2].startswith("fermionic  1  0.5  1  ")
        assert sum(line.startswith("fermionic") for line in lines) == 2

    def test_shifted_convention_rows(self, capsys):
        code, out, _ = run(capsys, "bound-states")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert [line for line in lines if line.startswith("bosonic")] == [lines[3]]
        assert lines[3].startswith("bosonic  0  0.5  1  ")

    def test_no_bound_states(self, capsys):
        # at A = 0 the fermionic n = 0 exponent is 0: a spectral
        # singularity, not a state
        code, out, _ = run(capsys, "bound-states", "--A", "0")
        assert code == 0
        assert out == "no bound states\n"

    def test_fermionic_ground_state_only(self, capsys):
        code, out, _ = run(capsys, "bound-states", "--A", "1", "--a", "2")
        assert code == 0
        assert [row[:4] for row in bound_state_rows(out)] == [["fermionic", "0", "1", "0.5"]]

    def test_shifted_matched_residual_small(self, capsys):
        _, out, _ = run(capsys, "bound-states")
        row = bound_state_rows(out)[2]
        assert row[0] == "bosonic"
        assert float(row[5]) <= 1e-8  # matched eigenvalue solves the ODE
        assert float(row[4]) > 1e-3   # published real K' does not

    def test_every_matched_residual_small(self, capsys):
        # each state is checked in its own sector's equation
        _, out, _ = run(capsys, "bound-states")
        rows = bound_state_rows(out)
        assert {row[0] for row in rows} == {"fermionic", "bosonic"}
        assert [row[:2] for row in rows if not float(row[5]) <= 1e-8] == []

    def test_every_matched_residual_small_at_large_A(self, capsys):
        # 79 states, n up to 39, where a terminating 1F1 series loses digits
        _, out, _ = run(capsys, "bound-states", "--A", "20")
        rows = bound_state_rows(out)
        assert len(rows) == 79
        assert [row[:2] for row in rows if not float(row[5]) <= 1e-8] == []

    def test_default_table_unchanged(self, capsys):
        code, out, _ = run(capsys, "bound-states")
        assert code == 0
        assert out == (
            "sector  n  Kprime  exponent  residual(Kprime^2)  residual(matched Kprime^2)\n"
            "fermionic  0  1  2  1.643e+00  1.495e-15\n"
            "fermionic  1  0.5  1  7.748e-01  3.469e-16\n"
            "bosonic  0  0.5  1  8.359e-01  2.257e-16\n"
        )

    def test_bosonic_row_is_the_next_fermionic_row(self, capsys):
        # SUSY partners: the bosonic spectrum is the fermionic one without
        # its ground state
        _, out, _ = run(capsys, "bound-states")
        rows = bound_state_rows(out)
        fermionic = {int(row[1]): row[2:4] for row in rows if row[0] == "fermionic"}
        bosonic = {int(row[1]): row[2:4] for row in rows if row[0] == "bosonic"}
        assert bosonic == {n - 1: kp_s for n, kp_s in fermionic.items() if n >= 1}

    @pytest.mark.parametrize("argv", [
        "bound-states --convention paper", "bound-states --K 1", "bound-states --Kprime 1", "grid --K 1",
    ])
    def test_removed_flags_exit_2(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split())
        assert code == 2
        assert out == ""


class TestVerify:
    def test_single_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "rk4-order")
        assert code == 0
        assert out.startswith("PASS rk4-order")

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "nope")
        assert code == 2
        assert "unknown check" in err

    def test_tol_override_can_fail(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "kummer-oracle", "--tol", "1e-16")
        assert code == 1
        assert out.startswith("FAIL")

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tol_exits_2(self, capsys, tol):
        # a usage error, not twelve FAIL lines
        code, out, err = run(capsys, "verify", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: --tol must be a number >= 0, got {float(tol):g}"]

    @pytest.mark.parametrize("tol", ["inf", "1e-11"])
    def test_tol_accepted(self, capsys, tol):
        code, out, _ = run(capsys, "verify", "--only", "kummer-oracle", "--tol", tol)
        assert code == 0
        assert out.startswith("PASS kummer-oracle")


class TestMisc:
    def test_no_command_exits_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_python_m_nhmorse_runs_the_cli(self):
        # `python -m nhmorse` is the nhmorse command line, with its exit code
        src = str(Path(cli.__file__).resolve().parents[1])
        cmd = [sys.executable, "-m", "nhmorse", "verify", "--only", "rk4-order"]
        done = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("PASS rk4-order") and done.stdout.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "grid --nx -1", "grid --nK -2", "grid --B -1", "params --B 0", "params --a -1",
        "bound-states --B 0", "bound-states --a 0", "bound-states --a -1",
        "grid --Kprime nan", "grid --x-min=-inf", "grid --K-max inf", "params --A inf",
        "params --x-max nan", "bound-states --A inf", "params --K=-inf",
        "grid --alpha nan --nx 2 --nK 2", "grid --alpha 0 --beta inf --nx 2 --nK 2",
    ])
    def test_nonpositive_parameter_exits_2(self, capsys, argv):
        # B, a and the grid sizes must be positive, and the float flags
        # finite: one error line, no output
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error: --") and err.count("\n") == 1

    def test_parse_complex(self):
        assert cli._parse_complex("1.5") == 1.5 + 0.0j
        assert cli._parse_complex("1,-2") == 1.0 - 2.0j
        with pytest.raises(Exception):
            cli._parse_complex("1,2,3")

    def test_render_grid_spec_defaults(self):
        text = morse.render_grid(GridSpec(nx=2, nK=2))
        assert text.splitlines()[0] == "x,K,y,re,im"
        assert text.endswith("\n")
