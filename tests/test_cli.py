import math
import time
import warnings

import numpy as np
import pytest

from nhmorse import cli, morse
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
        rows = [MorseParameters(K=K) for K in np.linspace(0.0, 2.0, 41).tolist()]
        block = morse.wavefunction_grid(rows, Sector.BOSONIC, ParameterMap.PRINTED, np.linspace(0.0, 3.0, 61))
        value = block[0, 0]
        assert float(first_row[3]) == value.real
        assert float(first_row[4]) == value.imag
        expected = morse.wavefunction_grid(rows[:1], Sector.BOSONIC, ParameterMap.PRINTED, np.array([0.0]))[0, 0]
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
                               "--solution", "w", "--beta", "1,0", "--K-min", "0.5")
        code_mix, out_mix, _ = run(capsys, "grid", "--nx", "3", "--nK", "2",
                                   "--solution", "mix", "--beta", "0.5,0.5", "--K-min", "0.5")
        assert code_w == 0 and code_mix == 0
        assert out_w != out_mix

    def test_flag_error_exits_2(self, capsys):
        code, _, _ = run(capsys, "grid", "--component", "spinless")
        assert code == 2

    @pytest.mark.parametrize("solution, beta", [("w", "1,0"), ("mix", "0.5,-0.25")])
    def test_recessive_grids_match_scalar_wavefunction(self, capsys, solution, beta):
        # K' = 1.9 keeps b = 2 mu + 1 off the integers on every row
        code, out, _ = run(capsys, "grid", "--solution", solution, "--beta", beta, "--alpha", "0.75,0.5",
                           "--Kprime", "1.9", "--nx", "7", "--nK", "5", "--component", "fermionic")
        assert code == 0
        alpha = 0.0 if solution == "w" else 0.75 + 0.5j
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

    @pytest.mark.parametrize("argv, flag", [
        ("grid --solution w", "--beta"),
        ("grid --alpha 0", "--alpha"),
        ("grid --solution mix --alpha 0,0", "--alpha or --beta"),
    ])
    def test_all_zero_grid_exits_2(self, capsys, argv, flag):
        # both amplitudes zero after --solution picks the terms: a grid of
        # zeros says nothing, so one error line names the flag to set
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.rstrip().endswith(f"set a nonzero {flag}")

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

    def test_recessive_grid_at_the_figure_point(self, capsys):
        # the W solution on the default grid: printed map, K = 0 gives the
        # integer b = 2 mu + 1 = 9, and there W is real
        code, out, _ = run(capsys, "grid", "--solution", "w", "--beta", "1,0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,K,y,re,im" and len(lines) == FIG_ROWS + 1
        k_zero = [line.split(",") for line in lines[1:] if float(line.split(",")[1]) == 0.0]
        assert len(k_zero) == 61
        for _, _, _, re, im in k_zero:
            assert abs(float(im)) <= 1e-12 * abs(float(re))


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

    def test_huge_k_exits_1(self, capsys):
        # K^2 overflows past |K| = 1.3e154: one error line, not a nan mu
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "params", "--K", "1e300")
        assert caught == []
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "K = 1.0000000000000001e+300" in err


class TestBoundStates:
    def test_paper_convention_rows(self, capsys):
        code, out, _ = run(capsys, "bound-states", "--convention", "paper")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("0  1  2")
        assert lines[2].startswith("1  0.5  1")
        assert len(lines) == 3

    def test_shifted_convention_rows(self, capsys):
        code, out, _ = run(capsys, "bound-states", "--convention", "shifted")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0  0.5  1")

    def test_no_bound_states(self, capsys):
        code, out, _ = run(capsys, "bound-states", "--A", "1", "--a", "2",
                           "--convention", "shifted")
        assert code == 0
        assert "no bound states" in out

    def test_shifted_matched_residual_small(self, capsys):
        _, out, _ = run(capsys, "bound-states", "--convention", "shifted")
        row = out.splitlines()[1].split()
        assert float(row[4]) <= 1e-8  # matched eigenvalue solves the ODE
        assert float(row[3]) > 1e-3   # published real K' does not


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

    @pytest.mark.parametrize("argv", [
        "grid --nx -1", "grid --nK -2", "grid --B -1", "params --B 0", "params --a -1",
        "bound-states --B 0", "bound-states --a 0", "bound-states --a -1",
        "grid --Kprime nan", "grid --x-min=-inf", "grid --K-max inf", "params --A inf",
        "params --x-max nan", "bound-states --A inf", "bound-states --K=-inf",
        "grid --alpha nan --nx 2 --nK 2", "grid --solution w --beta inf --nx 2 --nK 2",
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
