"""Command-line surface: parses the flags of the figure-grid, parameter,
bound-state and verification commands and dispatches them to the library.

Exit codes: 0 success / all checks pass, 1 evaluation or verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import checks, morse
from .morse import GridSpec, MorseParameters, ParameterMap, render_grid
from .morse import HEADER  # noqa: F401 - not used here; perfbench reads cli.HEADER
from .riccati import morse_y
from .susy import Sector


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--B", type=float, default=2.0)
    p.add_argument("--a", type=float, default=0.5)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nhmorse")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grid", help="emit a wavefunction grid as CSV")
    _add_shared_flags(g)
    g.add_argument("--Kprime", type=float, default=2.0)
    g.add_argument("--component", choices=[s.value for s in Sector], default="bosonic")
    g.add_argument("--param-map", choices=[m.value for m in ParameterMap], default="printed")
    g.add_argument("--solution", choices=["m", "w", "mix"], default="m",
                   help="m: regular (Laguerre-form), w: recessive, mix: alpha*M + beta*W")
    g.add_argument("--alpha", type=_parse_complex, default=1.0 + 0.0j, metavar="RE[,IM]")
    g.add_argument("--beta", type=_parse_complex, default=0.0 + 0.0j, metavar="RE[,IM]")
    g.add_argument("--x-min", type=float, default=0.0)
    g.add_argument("--x-max", type=float, default=3.0)
    g.add_argument("--nx", type=int, default=61)
    g.add_argument("--K-min", type=float, default=0.0)
    g.add_argument("--K-max", type=float, default=2.0)
    g.add_argument("--nK", type=int, default=41)
    g.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("params", help="print index/coefficient table")
    _add_shared_flags(p)
    p.add_argument("--K", type=float, default=0.0)
    p.add_argument("--Kprime", type=float, default=2.0)
    p.add_argument("--x-min", type=float, default=0.0)
    p.add_argument("--x-max", type=float, default=3.0)

    b = sub.add_parser("bound-states", help="hermitic bound states of both sectors with residuals")
    _add_shared_flags(b)

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--only", default=None, metavar="CHECK",
                   help="run a single named check")
    v.add_argument("--tol", type=float, default=None,
                   help="override the tolerance of the selected checks")
    return parser


def cmd_grid(args) -> int:
    alpha = 0j if args.solution == "w" else args.alpha
    beta = 0j if args.solution == "m" else args.beta
    if alpha == 0 and beta == 0:
        flag = {"m": "--alpha", "w": "--beta"}.get(args.solution, "--alpha or --beta")
        print(f"error: the grid is zero everywhere; set a nonzero {flag}", file=sys.stderr)
        return 2
    spec = GridSpec(
        A=args.A, B=args.B, a=args.a, Kprime=args.Kprime,
        component=Sector(args.component),
        param_map=ParameterMap(args.param_map),
        alpha=alpha, beta=beta,
        x_min=args.x_min, x_max=args.x_max, nx=args.nx,
        K_min=args.K_min, K_max=args.K_max, nK=args.nK,
    )
    try:
        text = render_grid(spec)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g} {z.imag:+.17g}i"


def cmd_params(args) -> int:
    p = MorseParameters(A=args.A, B=args.B, a=args.a, K=args.K, Kprime=args.Kprime)
    try:
        # one call per sector, as kappa is the same in both maps
        printed = morse.indices(p, Sector.FERMIONIC, ParameterMap.PRINTED)
        derived = morse.indices(p, Sector.BOSONIC, ParameterMap.DERIVED)
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        y_ends = morse_y(p, args.x_min), morse_y(p, args.x_max)
    except OverflowError as exc:
        print(f"error: y(x) on x={args.x_min:.17g} to {args.x_max:.17g}: {exc}", file=sys.stderr)
        return 1
    rows = [
        ("kappa1", _fmt_complex(printed.kappa)),
        ("kappa2", _fmt_complex(derived.kappa)),
        ("mu_printed", _fmt_complex(printed.mu)),
        ("mu_derived", _fmt_complex(derived.mu)),
        ("B_bar", f"{p.B_bar:.17g}"),
        ("C1_bar", f"{p.C1_bar:.17g}"),
        ("C2_bar", f"{p.C2_bar:.17g}"),
        ("y(x_min)", f"{y_ends[0]:.17g}"),
        ("y(x_max)", f"{y_ends[1]:.17g}"),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0


def cmd_bound_states(args) -> int:
    A, B, a = args.A, args.B, args.a
    xs = np.linspace(0.0, 3.0, 301)
    rows = []
    for sector in Sector:
        n = 0
        while (s := morse.bound_state_exponent(A, a, n, sector)) > 0.0:
            # bosonic level n is fermionic level n + 1
            kprime = A - a * (n + (sector is Sector.BOSONIC))
            kp2_matched = a * a * s * s - A * A
            res = checks.bound_state_residual(A, B, a, n, sector, (kprime * kprime, kp2_matched), xs)
            rows.append((sector.value, n, kprime, s, *res))
            n += 1
    if not rows:
        print("no bound states")
        return 0
    print("sector  n  Kprime  exponent  residual(Kprime^2)  residual(matched Kprime^2)")
    for sector, n, kprime, s, r1, r2 in rows:
        print(f"{sector}  {n}  {kprime:.17g}  {s:.17g}  {r1:.3e}  {r2:.3e}")
    return 0


def cmd_verify(args) -> int:
    try:
        reports = checks.run_checks(only=args.only, tol=args.tol)
    except KeyError:
        known = ", ".join(checks.CHECKS)
        print(f"error: unknown check {args.only!r}; known checks: {known}", file=sys.stderr)
        return 2
    all_pass = True
    for rep in reports:
        print(rep.line())
        all_pass = all_pass and rep.passed
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag in ("A", "B", "a", "K", "Kprime", "x_min", "x_max", "K_min", "K_max", "alpha", "beta"):
        value = getattr(args, flag, 0.0)
        if not np.isfinite(value):
            print(f"error: --{flag.replace('_', '-')} must be finite, got {value:g}", file=sys.stderr)
            return 2
    for flag in ("B", "a", "nx", "nK"):
        value = getattr(args, flag, 1)
        if not value > 0:
            print(f"error: --{flag} must be > 0, got {value:g}", file=sys.stderr)
            return 2
    tol = getattr(args, "tol", None)
    if tol is not None and not tol >= 0.0:
        print(f"error: --tol must be a number >= 0, got {tol:g}", file=sys.stderr)
        return 2
    if args.command == "grid":
        return cmd_grid(args)
    if args.command == "params":
        return cmd_params(args)
    if args.command == "bound-states":
        return cmd_bound_states(args)
    return cmd_verify(args)


if __name__ == "__main__":
    raise SystemExit(main())
