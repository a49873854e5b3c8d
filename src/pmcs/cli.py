"""Command-line interface.

    pmcs weyl dump --N 2 --mu 1 --nu 1
    pmcs state build --mu 0 --nu 1 --N 2 --zeta-re 1.0 --zeta-im 0.0
    pmcs a3 sweep --preset fig1 --out fig1.csv
    pmcs squeeze sweep --preset fig2 --out fig2.csv
    pmcs quasiprob grid --preset fig3a --out fig3a.csv
    pmcs fidelity sweep --preset fig4 --out fig4.csv --format json
    pmcs wavefn dump --n 3 --xmin -6 --xmax 6 --points 241

Exit codes: 0 success, 2 configuration error, 3 numerical-convergence error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import fock, states, sweeps, wavefunctions, weyl
from .errors import ConfigError, ConvergenceError, DegenerateStateError


def _add_sweep_flags(parser: argparse.ArgumentParser, presets: tuple[str, ...]) -> None:
    parser.add_argument("--preset", choices=presets, help="built-in figure regime")
    parser.add_argument("--config", help="JSON sweep configuration (overrides the preset)")
    parser.add_argument("--engine", choices=sweeps.ENGINES, help="which evaluation paths to run")
    parser.add_argument("--out", help="output file (stdout when omitted)")
    parser.add_argument("--format", choices=sweeps.FORMATS, help="csv (default) or json")
    parser.add_argument(
        "--gnuplot-hint", action="store_true",
        help="print a ready-to-use gnuplot script for the CSV file written by --out",
    )


def _complex_arg(text: str) -> complex:
    """``sweeps.parse_complex``, its message shown in argparse's usage error."""
    try:
        return sweeps.parse_complex(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pmcs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    weyl_cmd = sub.add_parser("weyl", help="normal-ordered expansions")
    weyl_sub = weyl_cmd.add_subparsers(dest="subcommand", required=True)
    dump = weyl_sub.add_parser("dump", help="emit the series of (mu a + nu a†)^N as JSON")
    dump.add_argument("--N", type=int, required=True)
    dump.add_argument("--mu", type=_complex_arg, required=True)
    dump.add_argument("--nu", type=_complex_arg, required=True)
    dump.add_argument("--out")

    state_cmd = sub.add_parser("state", help="photon-modulated state construction")
    state_sub = state_cmd.add_subparsers(dest="subcommand", required=True)
    build = state_sub.add_parser("build", help="build one state and print amplitudes + norms")
    build.add_argument("--mu", type=_complex_arg, required=True)
    build.add_argument("--nu", type=_complex_arg, required=True)
    build.add_argument("--N", type=int, required=True)
    build.add_argument("--zeta-re", type=float, required=True)
    build.add_argument("--zeta-im", type=float, required=True)
    build.add_argument("--dim", type=int)
    build.add_argument("--out")

    for family in sweeps.FAMILIES:
        cmd = sub.add_parser(family, help=f"{family} sweep data")
        fam_sub = cmd.add_subparsers(dest="subcommand", required=True)
        run = fam_sub.add_parser("grid" if family == "quasiprob" else "sweep", help=f"run a {family} sweep")
        _add_sweep_flags(run, tuple(name for name, cfg in sweeps.PRESETS.items() if cfg.family == family))
        run.set_defaults(family=family)

    wavefn_cmd = sub.add_parser("wavefn", help="position-space eigenfunctions")
    wavefn_sub = wavefn_cmd.add_subparsers(dest="subcommand", required=True)
    wdump = wavefn_sub.add_parser("dump", help="emit CSV of (x, psi_n, V)")
    wdump.add_argument("--n", type=int, required=True)
    wdump.add_argument("--xmin", type=float, required=True)
    wdump.add_argument("--xmax", type=float, required=True)
    wdump.add_argument("--points", type=int, required=True)
    wdump.add_argument("--out")

    return parser


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_weyl_dump(args) -> int:
    params = weyl.ModulationParams(args.mu, args.nu, args.N)
    _write(json.dumps(weyl.series_as_json_dict(params), indent=2) + "\n", args.out)
    return 0


def _cmd_state_build(args) -> int:
    params = weyl.ModulationParams(args.mu, args.nu, args.N)
    zeta = complex(args.zeta_re, args.zeta_im)
    state = states.build_state(params, zeta, args.dim)
    doc = {
        "mu": [params.mu.real, params.mu.imag],
        "nu": [params.nu.real, params.nu.imag],
        "N": params.N,
        "zeta": [zeta.real, zeta.imag],
        "dim": state.dim,
        "basis_offset": fock.BASIS_OFFSET,
        "amplitudes": [[a.real, a.imag] for a in state.amplitudes],
        "norm_sq_paper": state.norm_sq_paper,
        "norm_sq_oracle": state.norm_sq_oracle,
        "discrepancy": state.discrepancy,
        "tail_mass": state.tail_mass,
    }
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.config:
        base = sweeps.preset_config(args.preset) if args.preset else None
        cfg = sweeps.load_config(args.config, base=base, family=args.family)
    elif args.preset:
        cfg = sweeps.preset_config(args.preset)
    else:
        raise ConfigError("provide --preset and/or --config")
    if cfg.family != args.family:
        raise ConfigError(f"config family {cfg.family!r} does not match the {args.family!r} subcommand")
    if args.engine:
        cfg = replace(cfg, engine=args.engine)
    if args.format:
        cfg = replace(cfg, format=args.format)
    if args.gnuplot_hint and cfg.format != "csv":
        raise ConfigError(f"--gnuplot-hint plots CSV output only, not --format {cfg.format}")
    if args.gnuplot_hint and not args.out:
        raise ConfigError("--gnuplot-hint plots the CSV file written by --out; give --out")
    _write(sweeps.render(sweeps.run_sweep(cfg), cfg.family, cfg.format), args.out)
    if args.gnuplot_hint:
        sys.stdout.write(sweeps.gnuplot_hint(cfg, args.out))
    return 0


def _cmd_wavefn_dump(args) -> int:
    import numpy as np

    if not 2 <= args.points <= sweeps.MAX_GRID_POINTS:
        raise ConfigError(f"--points must be in [2, {sweeps.MAX_GRID_POINTS}], got {args.points}")
    for flag, value in (("--xmin", args.xmin), ("--xmax", args.xmax)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    window = f"--xmin/--xmax window [{args.xmin:g}, {args.xmax:g}]"
    if not math.isfinite(args.xmax - args.xmin):
        raise ConfigError(f"{window}: its span overflows the double range")
    x = np.linspace(args.xmin, args.xmax, args.points)
    with np.errstate(over="ignore", invalid="ignore"):  # (2x^2+1)^2 = inf past |x| ~ 8e76 only zeroes its term
        pot = wavefunctions.potential(x)
    if not np.isfinite(pot).all():
        raise ConfigError(f"{window}: V(x) overflows the double range")
    psi = wavefunctions.eigenfunction(args.n, x)
    lines = ["x,psi,V"]
    lines += [
        f"{format(xi, '.17g')},{format(pi_, '.17g')},{format(vi, '.17g')}"
        for xi, pi_, vi in zip(x, psi, pot)
    ]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "weyl":
            return _cmd_weyl_dump(args)
        if args.command == "state":
            return _cmd_state_build(args)
        if args.command == "wavefn":
            return _cmd_wavefn_dump(args)
        return _cmd_sweep(args)
    except (ConvergenceError, DegenerateStateError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
