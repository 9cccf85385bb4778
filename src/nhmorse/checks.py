"""Named verification checks.

Each check returns a ResidualReport, built here and nowhere else: the
oracles of verify return numbers, and a check judges them against its
tolerance. The registry drives both the CLI `verify` subcommand and the
acceptance test module, so the two surfaces can never drift apart. The
Morse compositions that the oracles check are built here, since verify
imports none of the closed forms.
kummer-oracle's samples and reference values do not change between
passes: they are read from kummer_oracle.npy beside this module, which
tests/kummer_oracle_table.py draws and writes, and which tier-1 compares
bit for bit with a fresh draw.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import morse, specfun, susy, verify
from .morse import MorseParameters, ParameterMap
from .riccati import RiccatiSign
from .susy import Ladder, Sector

FIG_PARAMS = MorseParameters()


@dataclass
class ResidualReport:
    """Outcome of one verification check; elapsed_s is the check's wall
    time in seconds where run_checks ran it, and is not printed. A fault
    the residual does not measure reads inf, so no tolerance passes it."""

    name: str
    grid_size: int
    max_rel_residual: float
    tolerance: float
    note: str = ""
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_rel_residual) and self.max_rel_residual <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"{status} {self.name} max_rel_residual={self.max_rel_residual:.3e} "
            f"tol={self.tolerance:.3e}"
        )
        if self.note:
            out += f" ({self.note})"
        return out


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
    return ResidualReport("kummer-oracle", len(ref), worst, tol)


def _m_and_w_rows(Ks: list[float]) -> MorseParameters:
    """An M row (alpha = 1, beta = 0) and then a W row (alpha = 0, beta = 1)
    at each K, as the columns of one record."""
    m = np.tile([[1.0], [0.0]], (len(Ks), 1))
    return MorseParameters(K=np.repeat(Ks, 2)[:, None], alpha1=m, beta1=1 - m, alpha2=m, beta2=1 - m)


def _residual_sweep(pmap: ParameterMap, shifts: Sequence[float]) -> tuple[list[float], list[str]]:
    """The worst residual in w'' + (Q + s) w = 0 at each shift s given, of
    the M and W solutions at K in {0, 0.5, 1, 2}, one block of eight rows
    (an M row and a W row per K) per sector, whose coefficient is one
    ode_coefficient call over the same columns. A block that raises makes
    every shift inf, and leaves a note naming the map, the sector, the
    exception and its message."""
    xs = np.linspace(0.0, 3.0, 301)
    rows = _m_and_w_rows([0.0, 0.5, 1.0, 2.0])
    worst = [0.0] * len(shifts)
    skipped: list[str] = []
    for sector in Sector:
        try:
            q = morse.ode_coefficient(rows, sector, xs)
            w, _, d2w = morse.wavefunction_grid(rows, sector, pmap, xs, derivs=True)
            rels = [float(verify.ode_residual(q + s, w, d2w).max()) for s in shifts]
        except Exception as exc:  # noqa: BLE001 - recorded, not hidden
            skipped.append(f"{pmap.value} {sector.value}: {type(exc).__name__}: {exc}")
            rels = [math.inf] * len(shifts)
        worst = [max(pair) for pair in zip(worst, rels)]
    return worst, skipped


def raised_fermionic(params: MorseParameters, pmap: ParameterMap, xs: np.ndarray) -> np.ndarray:
    """A+ applied to the fermionic closed form at the points xs, with its
    analytic derivative: the side of the intertwining relation that should
    be proportional to the bosonic solution."""
    w1, dw1, _ = (d[0] for d in morse.wavefunction_grid(params, Sector.FERMIONIC, pmap, xs, derivs=True))
    return susy.apply_first_order(Ladder.RAISE, params.R(xs), params.K, w1, dw1)


def bound_state_residual(
    A: float, B: float, a: float, n: int, sector: Sector, kprime_sqs: Sequence[float], xs: np.ndarray
) -> list[float]:
    """The worst residual of the sector's hermitic bound state n in that
    sector's K = 0 equation at the points xs, for each eigenvalue K'^2
    given (which may be negative), all from one evaluation of the state's
    triple."""
    hermitic = MorseParameters(A=A, B=B, a=a, K=0.0, Kprime=0.0)
    q = morse.ode_coefficient(hermitic, sector, xs)
    w, _, d2w = morse.bound_state_wave_derivs(A, B, a, n, sector, xs)
    return [float(verify.ode_residual(q - kp2, w, d2w).max()) for kp2 in kprime_sqs]


def check_residual_derived(tol: float = 1e-8) -> ResidualReport:
    """Derived-map closed forms satisfy their printed equations."""
    [worst], skipped = _residual_sweep(ParameterMap.DERIVED, [0.0])
    return ResidualReport("residual-derived", 301, worst, tol, "; ".join(skipped))


def check_residual_printed(tol: float = 1e-8) -> ResidualReport:
    """Printed-map closed forms satisfy the shifted equation
    w'' + (Q + A^2) w = 0, with the A of the sweep's rows and FIG_PARAMS.

    The published index formula omits the A^2 of the expanded coefficient,
    so in the printed equation w'' + Q w = 0 these forms miss for A != 0:
    that residual is the documented finding in the note.
    """
    (plain, shifted), skipped = _residual_sweep(ParameterMap.PRINTED, [0.0, FIG_PARAMS.A**2])
    note = f"documented finding: printed map max residual {plain:.3e}"
    if skipped:
        note += "; skipped " + "; ".join(skipped)
    return ResidualReport("residual-printed-report", 301, shifted, tol, note)


def check_integration_cross(tol: float = 1e-6) -> ResidualReport:
    """Seed the fermionic equation at x=1 from the closed form, RK4 to x=2."""
    p = MorseParameters(K=1.0)
    pmap = ParameterMap.DERIVED
    sector = Sector.FERMIONIC

    def Q(xs):
        return morse.ode_coefficient(p, sector, xs)

    w0, dw0, _ = morse.wavefunction_derivs(p, sector, pmap, 1.0)
    w1, _ = verify.integrate_ode(Q, 1.0, w0, dw0, 2.0, step=5e-4)
    exact = morse.wavefunction_derivs(p, sector, pmap, 2.0)[0]
    rel = abs(w1 - exact) / abs(exact)
    return ResidualReport("integration-cross-check", 0, rel, tol)


def check_intertwining(tol: float = 1e-8) -> ResidualReport:
    """A+ maps the fermionic solution onto a multiple of the bosonic one."""
    p = MorseParameters(K=1.0)
    pmap = ParameterMap.DERIVED
    xs = np.linspace(0.2, 3.0, 57)
    partner = morse.wavefunction_grid(p, Sector.BOSONIC, pmap, xs)[0]
    rel, note = verify.intertwining_check(raised_fermionic(p, pmap, xs), partner, p.Kprime)
    return ResidualReport("intertwining", len(xs), rel, tol, note)


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
        worst = max(worst, float(np.max(np.abs(p.witten(sign, xs) - V) / (1.0 + np.abs(V)))))
    return ResidualReport("riccati-closure", 602, worst, tol)


def check_expansion_identity(tol: float = 1e-12) -> ResidualReport:
    """Expanded Morse coefficient vs the generic bracket on the superpotential,
    the six (K, K') pairs as columns of one block per (A, B, a, sector)."""
    xs = np.linspace(0.0, 3.0, 11)
    K, Kp = (np.array(column)[:, None] for column in zip(*itertools.product((0.0, 1.0, 2.0), (0.0, 2.0))))
    worst = 0.0
    count = 0
    for A, B, a in itertools.product((-1.0, 0.0, 0.5, 1.0, 2.0), (1.0, 2.0), (0.5, 1.0)):
        p = MorseParameters(A=A, B=B, a=a, K=K, Kprime=Kp)
        R, dR = p.R(xs), p.dR(xs)
        for sector in Sector:
            lhs = morse.ode_coefficient(p, sector, xs)
            rhs = susy.complex_potential_coefficient(R, dR, K, Kp, sector)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))
            count += lhs.size
    return ResidualReport("expansion-identity", count, worst, tol)


def check_laguerre_identity(tol: float = 1e-10) -> ResidualReport:
    """The Whittaker-to-Laguerre reduction 1F1(-n; p+1; y) = n!/(p+1)_n L_n^p(y)
    with its Pochhammer factor, which the printed relation omits, at
    n in {0, 1, 2}, p in {1, 2, 3} and y in {0.5, 1, 8}: one kummer_m block,
    a row per (n, p), whose Laguerre recurrence carries that factor in F_0 = 1,
    against verify.reference_kummer, which shares no code with it."""
    n, p = (np.array(column)[:, None] for column in zip(*itertools.product((0, 1, 2), (1.0, 2.0, 3.0))))
    y = np.array([0.5, 1.0, 8.0])
    lhs = specfun.kummer_m(-n, p + 1.0, y)
    worst = float(np.max(np.abs(lhs - verify.reference_kummer(-n, p + 1.0, y)) / np.abs(lhs)))
    return ResidualReport("laguerre-identity", 27, worst, tol)


def check_reality_k0(tol: float = 1e-12) -> ResidualReport:
    """K = 0 slice of the figure grid is purely real (printed map)."""
    xs = np.linspace(0.0, 3.0, 61)
    w = np.array([morse.wavefunction_grid(FIG_PARAMS, s, ParameterMap.PRINTED, xs) for s in Sector])
    return ResidualReport("reality-k0", w.size, float(np.abs(w.imag).max()), tol)


def check_wronskian(tol: float = 1e-8) -> ResidualReport:
    """M/W solution pairs (derived map, K = 1) have an x-independent Wronskian."""
    xs = np.linspace(0.2, 3.0, 57)
    pair = _m_and_w_rows([1.0])
    worst, notes = 0.0, []
    for sector in Sector:
        # one block per sector, its M row and its W row, serves both solutions
        (m, w), (dm, dw), _ = morse.wavefunction_grid(pair, sector, ParameterMap.DERIVED, xs, derivs=True)
        rel, note = verify.wronskian_constancy(m, dm, w, dw)
        worst = max(worst, rel)
        notes += [f"{sector.value}: {note}"] if note else []
    return ResidualReport("wronskian", 114, worst, tol, "; ".join(notes))


def check_grid_shape(tol: float = 1e-12) -> ResidualReport:
    """Default figure grid: exact header, 61 x 41 rows, byte-identical reruns,
    real K = 0 rows. A problem of the first three reads inf."""
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
    rel = math.inf if problems else worst_im
    return ResidualReport("grid-shape", len(body), rel, tol, "; ".join(problems))


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
    return ResidualReport("rk4-order", 0, abs(ratio / 16.0 - 1.0), tol, f"ratio = {ratio:.3f}")


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
        start = time.perf_counter()
        rep = fn(tol) if tol is not None else fn()
        rep.elapsed_s = time.perf_counter() - start
        reports.append(rep)
    return reports
