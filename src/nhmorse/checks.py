"""Named verification checks.

Each check returns a ResidualReport; the registry drives both the CLI
`verify` subcommand and the acceptance test module, so the two surfaces
can never drift apart. The Morse compositions that the oracles of verify
check are built here, since verify imports none of the closed forms.
kummer-oracle's samples and reference values do not change between
passes: they are read from kummer_oracle.npy beside this module, which
tests/kummer_oracle_table.py draws and writes, and which tier-1 compares
bit for bit with a fresh draw.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import morse, specfun, susy, verify
from .morse import MorseParameters, ParameterMap
from .riccati import RiccatiSign
from .susy import Ladder, Sector
from .verify import ResidualReport

FIG_PARAMS = MorseParameters(A=1.0, B=2.0, a=0.5, K=0.0, Kprime=2.0)


def _report(name, rel, tol, grid_size=0, abs_res=None, note=""):
    return ResidualReport(
        name=name,
        grid_size=grid_size,
        max_abs_residual=rel if abs_res is None else abs_res,
        max_rel_residual=rel,
        passed=rel <= tol,
        tolerance=tol,
        note=note,
    )


def _kummer_oracle_samples():
    """kummer-oracle's 1000 seeded (a, b, z) samples and their reference
    values from verify.reference_kummer, read from the table stored beside
    this module (tests/kummer_oracle_table.py draws and writes it)."""
    a, b, z, ref = np.load(Path(__file__).with_name("kummer_oracle.npy"))
    return a, b, z.real.copy(), ref


def check_kummer_oracle(tol: float = 1e-10) -> ResidualReport:
    """kummer_m against the stored compensated-summation references, as one
    block."""
    a, b, z, ref = _kummer_oracle_samples()
    val = specfun.kummer_m(a[:, None], b[:, None], z[:, None])[:, 0]
    worst = float(np.max(np.abs(val - ref) / np.maximum(np.abs(ref), 1e-300)))
    return _report("kummer-oracle", worst, tol, grid_size=len(ref))


def _m_and_w_rows(Ks: list[float]) -> MorseParameters:
    """An M row (alpha = 1, beta = 0) and then a W row (alpha = 0, beta = 1)
    at each K, as the columns of one record."""
    m = np.tile([[1.0], [0.0]], (len(Ks), 1))
    return MorseParameters(K=np.repeat(Ks, 2)[:, None], alpha1=m, beta1=1 - m, alpha2=m, beta2=1 - m)


def _residual_sweep(pmap: ParameterMap, tol: float) -> tuple[float, list[str]]:
    """The worst residual of the M and W solutions at K in {0, 0.5, 1, 2},
    one block of eight rows (an M row and a W row per K) per sector, whose
    coefficient is one ode_coefficient call over the same columns, and a
    note for each block that raised instead, naming the map, the sector,
    the exception and its message."""
    xs = np.linspace(0.0, 3.0, 301)
    rows = _m_and_w_rows([0.0, 0.5, 1.0, 2.0])
    worst = 0.0
    skipped: list[str] = []
    for sector in Sector:
        try:
            q = morse.ode_coefficient(rows, sector, xs)
            w, _, d2w = morse.wavefunction_grid(rows, sector, pmap, xs, derivs=True)
            rep = verify.ode_residual(q, w, d2w, tol=tol)
        except Exception as exc:  # noqa: BLE001 - recorded, not hidden
            skipped.append(f"{pmap.value} {sector.value}: {type(exc).__name__}: {exc}")
            continue
        worst = max(worst, rep.max_rel_residual)
    return worst, skipped


def raised_fermionic(params: MorseParameters, pmap: ParameterMap, xs: np.ndarray) -> np.ndarray:
    """A+ applied to the fermionic closed form at the points xs, with its
    analytic derivative: the side of the intertwining relation that should
    be proportional to the bosonic solution."""
    w1, dw1, _ = (d[0] for d in morse.wavefunction_grid(params, Sector.FERMIONIC, pmap, xs, derivs=True))
    return susy.apply_first_order(Ladder.RAISE, params.shape().R(xs), params.K, w1, dw1)


def bound_state_residual(
    A: float, B: float, a: float, n: int, sector: Sector, kprime_sqs: Sequence[float], xs: np.ndarray,
    tol: float = 1e-8,
) -> list[ResidualReport]:
    """Residuals of the sector's hermitic bound state n in that sector's K = 0
    equation at the points xs, one report for each eigenvalue K'^2 given
    (which may be negative), all from one evaluation of the state's triple."""
    hermitic = MorseParameters(A=A, B=B, a=a, K=0.0, Kprime=0.0)
    q = morse.ode_coefficient(hermitic, sector, xs)
    w, _, d2w = morse.bound_state_wave_derivs(A, B, a, n, sector, xs)
    return [verify.ode_residual(q - kp2, w, d2w, tol=tol) for kp2 in kprime_sqs]


def check_residual_derived(tol: float = 1e-8) -> ResidualReport:
    """Derived-map closed forms satisfy their printed equations."""
    worst, skipped = _residual_sweep(ParameterMap.DERIVED, tol)
    note = "; ".join(skipped)
    rep = _report("residual-derived", worst, tol, grid_size=301, note=note)
    if skipped:
        rep.passed = False
    return rep


def check_residual_printed(tol: float = math.inf) -> ResidualReport:
    """Report-only: printed-map residuals are measured, not required to pass.

    The published index formula omits the A^2 contribution of the
    expanded coefficient, so for A != 0 these residuals are expected to
    be large; the check passes as long as the report is produced.
    """
    worst, skipped = _residual_sweep(ParameterMap.PRINTED, 1e-8)
    note = f"documented finding: printed map max residual {worst:.3e}"
    if skipped:
        note += "; skipped " + "; ".join(skipped)
    return _report("residual-printed-report", worst, tol, grid_size=301, note=note)


def check_integration_cross(tol: float = 1e-6) -> ResidualReport:
    """Seed the fermionic equation at x=1 from the closed form, RK4 to x=2."""
    p = MorseParameters(K=1.0)
    pmap = ParameterMap.DERIVED
    sector = Sector.FERMIONIC

    def Q(xs):
        return morse.ode_coefficient(p, sector, xs)

    w0, dw0, _ = morse.wavefunction_derivs(p, sector, pmap, 1.0)
    w1, _ = verify.integrate_ode(Q, 1.0, w0, dw0, 2.0, step=1e-4)
    exact = morse.wavefunction_derivs(p, sector, pmap, 2.0)[0]
    rel = abs(w1 - exact) / abs(exact)
    return _report("integration-cross-check", rel, tol)


def check_intertwining(tol: float = 1e-8) -> ResidualReport:
    """A+ maps the fermionic solution onto a multiple of the bosonic one."""
    p = MorseParameters(K=1.0)
    pmap = ParameterMap.DERIVED
    xs = np.linspace(0.2, 3.0, 57)
    partner = morse.wavefunction_grid(p, Sector.BOSONIC, pmap, xs, derivs=True)[0][0]
    return verify.intertwining_check(raised_fermionic(p, pmap, xs), partner, p.Kprime, tol=tol)


def check_riccati_closure(tol: float = 1e-12) -> ResidualReport:
    """R' +/- R^2 of the Morse superpotential is the Morse potential in the
    paper's constants: B_bar e^{-2ax} - C2_bar e^{-ax} + A^2 for PLUS, and
    minus (B_bar e^{-2ax} - C1_bar e^{-ax} + A^2) for MINUS; the residual is
    relative to 1 + |V|."""
    p = FIG_PARAMS
    xs = np.linspace(-5.0, 10.0, 301)
    e = np.exp(-p.a * xs)
    worst = 0.0
    for sign, C in ((RiccatiSign.PLUS, p.C2_bar), (RiccatiSign.MINUS, p.C1_bar)):
        V = sign.value * (p.B_bar * e * e - C * e + p.A * p.A)
        worst = max(worst, float(np.max(np.abs(p.shape().witten(sign, xs) - V) / (1.0 + np.abs(V)))))
    return _report("riccati-closure", worst, tol, grid_size=602)


def check_expansion_identity(tol: float = 1e-12) -> ResidualReport:
    """Expanded Morse coefficient vs the generic bracket on the superpotential,
    the six (K, K') pairs as columns of one block per (A, B, a, sector)."""
    xs = np.linspace(0.0, 3.0, 11)
    K, Kp = (np.array(column)[:, None] for column in zip(*itertools.product((0.0, 1.0, 2.0), (0.0, 2.0))))
    worst = 0.0
    count = 0
    for A, B, a in itertools.product((-1.0, 0.0, 0.5, 1.0, 2.0), (1.0, 2.0), (0.5, 1.0)):
        p = MorseParameters(A=A, B=B, a=a, K=K, Kprime=Kp)
        shape = p.shape()
        R, dR = shape.R(xs), shape.dR(xs)
        for sector in Sector:
            lhs = morse.ode_coefficient(p, sector, xs)
            rhs = susy.complex_potential_coefficient(R, dR, K, Kp, sector)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))
            count += lhs.size
    return _report("expansion-identity", worst, tol, grid_size=count)


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n, empty product = 1."""
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def whittaker_laguerre_identity(n: int, p: float, y: float) -> tuple[complex, float, float]:
    """Both sides of the Whittaker-to-Laguerre reduction.

    Returns (lhs, rhs_printed, rhs_corrected) where
      lhs           = M_{p/2+n+1/2, p/2}(y) = y^{(p+1)/2} e^{-y/2} 1F1(-n; p+1; y),
      rhs_printed   = y^{(p+1)/2} e^{-y/2} L_n^p(y)  (as published),
      rhs_corrected = rhs_printed * n! / (p+1)_n     (classical relation).
    """
    if n < 0:
        raise ValueError(f"require n >= 0, got {n}")
    prefactor = y ** (0.5 * (p + 1.0)) * math.exp(-0.5 * y)
    lhs = prefactor * specfun.kummer_m(-n, p + 1.0, y)
    rhs_printed = prefactor * specfun.laguerre_poly(n, p, y)
    rhs_corrected = rhs_printed * math.factorial(n) / pochhammer(p + 1.0, n)
    return lhs, rhs_printed, rhs_corrected


def check_laguerre_identity(tol: float = 1e-10) -> ResidualReport:
    """Whittaker-to-Laguerre reduction with the explicit Pochhammer factor."""
    worst = 0.0
    for n in (0, 1, 2):
        for p in (1.0, 2.0, 3.0):
            for y in (0.5, 1.0, 8.0):
                lhs, rhs_printed, rhs_corrected = whittaker_laguerre_identity(n, p, y)
                worst = max(worst, abs(lhs - rhs_corrected) / abs(lhs))
                if n >= 1 and rhs_printed != 0.0:
                    factor = math.factorial(n) / pochhammer(p + 1.0, n)
                    worst = max(worst, abs(lhs / rhs_printed - factor) / abs(factor))
    return _report("laguerre-identity", worst, tol, grid_size=27)


def check_reality_k0(tol: float = 1e-12) -> ResidualReport:
    """K = 0 slice of the figure grid is purely real (printed map)."""
    xs = np.linspace(0.0, 3.0, 61)
    w = np.array([morse.wavefunction_grid(FIG_PARAMS, s, ParameterMap.PRINTED, xs) for s in Sector])
    return _report("reality-k0", float(np.abs(w.imag).max()), tol, grid_size=w.size)


def check_wronskian(tol: float = 1e-8) -> ResidualReport:
    """M/W solution pairs (derived map, K = 1) have an x-independent Wronskian."""
    xs = np.linspace(0.2, 3.0, 57)
    pair = _m_and_w_rows([1.0])
    worst = 0.0
    for sector in Sector:
        # one block per sector, its M row and its W row, serves both solutions
        (m, w), (dm, dw), _ = morse.wavefunction_grid(pair, sector, ParameterMap.DERIVED, xs, derivs=True)
        rep = verify.wronskian_constancy(m, dm, w, dw, tol=tol)
        worst = max(worst, rep.max_rel_residual)
    return _report("wronskian", worst, tol, grid_size=114)


def check_grid_shape(tol: float = 1e-12) -> ResidualReport:
    """Default figure grid: exact header, 61 x 41 rows, byte-identical reruns,
    real K = 0 rows."""
    first = morse.render_grid(morse.GridSpec())
    second = morse.render_grid(morse.GridSpec())
    lines = first.split("\n")
    problems = []
    if first != second:
        problems.append("output not deterministic")
    if lines[0] != morse.HEADER:
        problems.append(f"bad header {lines[0]!r}")
    body = [ln for ln in lines[1:] if ln]
    if len(body) != 61 * 41:
        problems.append(f"expected {61*41} rows, got {len(body)}")
    # the K = 0 rows, picked by their K field; only their im field is parsed
    k0_im = (ln.rsplit(",", 1)[1] for ln in body if ln.split(",", 2)[1] == "0")
    worst_im = max((abs(float(im)) for im in k0_im), default=0.0)
    rep = _report("grid-shape", worst_im, tol, grid_size=len(body), note="; ".join(problems))
    if problems:
        rep.passed = False
    return rep


def check_rk4_order(tol: float = 0.25) -> ResidualReport:
    """Order-4 convergence on w'' + w = 0: error ratio h vs h/2 near 16.

    Reported residual is |ratio/16 - 1|; tolerance 0.25 corresponds to
    the acceptance window [12, 20].
    """
    def Q(xs):
        return np.full(xs.shape, 1.0 + 0.0j)

    # endpoint 1.0: at pi/2 the leading error term of the w component
    # vanishes (superconvergence) and the measured order jumps to 5
    errs = []
    for h in (0.02, 0.01):
        w, dw = verify.integrate_ode(Q, 0.0, 0.0, 1.0, 1.0, step=h)
        errs.append(math.hypot(abs(w - math.sin(1.0)), abs(dw - math.cos(1.0))))
    ratio = errs[0] / errs[1]
    return _report("rk4-order", abs(ratio / 16.0 - 1.0), tol, note=f"ratio = {ratio:.3f}")


CHECKS: dict[str, Callable[..., ResidualReport]] = {
    "kummer-oracle": check_kummer_oracle,
    "residual-derived": check_residual_derived,
    "residual-printed-report": check_residual_printed,
    "integration-cross-check": check_integration_cross,
    "intertwining": check_intertwining,
    "riccati-closure": check_riccati_closure,
    "expansion-identity": check_expansion_identity,
    "laguerre-identity": check_laguerre_identity,
    "reality-k0": check_reality_k0,
    "wronskian": check_wronskian,
    "grid-shape": check_grid_shape,
    "rk4-order": check_rk4_order,
}


def run_checks(only: str | None = None, tol: float | None = None) -> list[ResidualReport]:
    if only is not None and only not in CHECKS:
        raise KeyError(only)
    names = [only] if only is not None else list(CHECKS)
    reports = []
    for name in names:
        fn = CHECKS[name]
        reports.append(fn(tol) if tol is not None else fn())
    return reports
