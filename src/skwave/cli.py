"""Command line interface.

Exit codes:
  0  success;
  2  usage, domain or existence error, degenerate profile, a --config
     file that cannot be read or is not a JSON object of known flags,
     or an --out path that cannot be written;
  3  inconclusive verdict;
  4  numerical failure: a non-finite evolved state or a failed LAPACK
     call.

A JSON config file passed with --config holds flag names and values.
Each value replaces the chosen subcommand's default for that flag, and
explicit flags override it; required flags must still be given.  A key
that no subcommand takes is an error, and one that only other
subcommands take is ignored, so one file can serve several subcommands.
A value is checked as its flag checks a command-line value (a flag
without one, --even, takes a JSON boolean), and a wrong one is an error.
All JSON is strict: a non-finite number is an error, not ``NaN``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import evolution as ev
from . import functionals as fn
from . import report as rp
from . import spectral as sp
from . import waves as wv
from .errors import (
    DegenerateProfileError,
    DimensionError,
    DomainError,
    UsageError,
)

FAMILY_ALIASES = {
    "solitary": wv.SOLITARY,
    "dn": wv.PERIODIC_DN,
    "dnq": wv.PERIODIC_DNQ,
}


def _family_point(args) -> tuple[str, int, float]:
    family = FAMILY_ALIASES[args.family]
    kind, flag = ("solitary", "omega") if family == wv.SOLITARY else ("periodic", "k")
    at = getattr(args, flag)
    if at is None:
        raise UsageError(f"{kind} waves are selected by --{flag}")
    if not math.isfinite(at):
        raise UsageError(f"--{flag} must be finite, got {at}")
    return family, args.r, at


def _print_json(obj, fh=None) -> None:
    """The one JSON writer: stdout, ``spectrum --out`` and manifest.json."""
    fh = sys.stdout if fh is None else fh
    json.dump(obj, fh, indent=2, allow_nan=False)
    fh.write("\n")


def cmd_profile(args) -> int:
    family, r, at = _family_point(args)
    prof = rp._profile(family, r, at, args.n)
    wv.write_profile_csv(prof, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_spectrum(args) -> int:
    family, r, at = _family_point(args)
    rep = rp.spectrum_report(family, r, at, args.n)
    if args.out:
        with open(args.out, "w") as fh:
            _print_json(rep, fh)
        print(f"wrote {args.out}")
    else:
        _print_json(rep)
    return 0


def cmd_theta(args) -> int:
    family, r, at = _family_point(args)
    prof = rp._profile(family, r, at, args.n)
    res = sp.floquet_theta(prof)
    _print_json({"family": args.family, "r": r, "k": at,
                 "theta": res.theta, "omega": res.omega_at})
    return 0


def cmd_vk_slope(args) -> int:
    family, r, at = _family_point(args)
    res = fn.vk_slope(family, r, at)
    _print_json({
        "family": args.family, "r": r, "parameter": at,
        "slope": res.slope, "sign": rp.slope_sign_of(res),
        "index_I": res.index_I, "method": res.method,
        "richardson_discrepancy": res.richardson_discrepancy, "flagged": res.flagged,
    })
    return 0


def cmd_verdict(args) -> int:
    family, r, at = _family_point(args)
    v = rp.verdict(family, r, at, args.n)
    _print_json(v.to_dict())
    return 3 if v.verdict == rp.INCONCLUSIVE else 0


def cmd_evolve(args) -> int:
    family, r, at = _family_point(args)
    res = ev.stability_experiment(family, r, at, args.epsilon, args.T,
                                  dt=args.dt, n=args.n, even=args.even)
    os.makedirs(args.out, exist_ok=True)
    ev.write_trajectory_csv(os.path.join(args.out, "trajectory.csv"),
                            res.evolution)
    manifest = res.manifest()
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        _print_json(manifest, fh)
    _print_json(manifest)
    if res.blow_up is not None:
        print(f"numerical failure: state became non-finite at t = {res.blow_up:.6g}",
              file=sys.stderr)
        return 4
    return 0


def cmd_figures(args) -> int:
    paths = rp.reproduce_figures(args.out)
    for p in paths:
        print(p)
    return 0


def _add_selectors(p: argparse.ArgumentParser, theta_only: bool = False) -> None:
    fams = ["dn", "dnq"] if theta_only else ["solitary", "dn", "dnq"]
    p.add_argument("--family", required=True, choices=fams)
    p.add_argument("--r", type=int, required=True, choices=[1, 2, 4])
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="grid size")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The waves parser and its subcommand parsers by name."""
    top = argparse.ArgumentParser(
        prog="waves",
        description="standing waves of the 1D Schrodinger-Kirchhoff "
                    "equation: profiles, spectra, slopes, verdicts, evolution")
    top.add_argument("--config", default=None,
                     help="JSON file with default values for the subcommand's flags")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="sample a wave profile to CSV")
    _add_selectors(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("spectrum", help="eigenvalue counts of the linearization")
    _add_selectors(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("theta", help="Floquet constant of the periodic Hill equation")
    _add_selectors(p, theta_only=True)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("vk-slope", help="closed-form slope of the squared norm in omega")
    _add_selectors(p)
    p.set_defaults(func=cmd_vk_slope)

    p = sub.add_parser("verdict", help="orbital stability verdict")
    _add_selectors(p)
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("evolve", help="perturb, evolve, and track the orbit distance")
    _add_selectors(p)
    p.set_defaults(n=512)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--even", action="store_true",
                   help="even perturbation, rotation-only distance")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("figures", help="emit the family/slope curve data as CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figures)

    return top, sub.choices


def _config_value(path: str, action: argparse.Action, value):
    """A config value as its flag parses it.  argparse converts a default
    only if it is a string, so the value is given as one to the flag's
    ``type`` and checked against its ``choices``; a flag that takes no
    value (``store_true``) accepts a JSON boolean alone."""
    parsed = value
    try:
        if action.nargs == 0:
            ok = isinstance(value, bool)
        elif action.type is None:
            ok = isinstance(value, str)
        else:
            parsed = action.type(str(value))
            ok = action.choices is None or parsed in action.choices
    except ValueError:
        ok = False
    if not ok:
        raise UsageError(f"config {path}: invalid value {json.dumps(value)} "
                         f"for {action.dest}")
    return parsed


def _config_defaults(path: str, subparsers: dict, command: str) -> dict:
    """The values of ``command``'s flags in the config file at ``path``,
    each converted as its flag's own (``_config_value``).  The file is
    strict JSON: ``NaN`` and ``Infinity`` are errors."""
    def non_finite(name: str):
        raise UsageError(f"config {path}: {name} is not JSON")

    with open(path) as fh:
        config = json.load(fh, parse_constant=non_finite)
    if not isinstance(config, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    config = {k.replace("-", "_"): v for k, v in config.items()}
    flags = {name: {a.dest: a for a in p._actions if a.dest != "help"}
             for name, p in subparsers.items()}
    unknown = sorted(set(config).difference(*flags.values()))
    if unknown:
        raise UsageError(f"config {path}: no subcommand takes {', '.join(unknown)}")
    actions = flags[command]
    return {k: _config_value(path, actions[k], v) for k, v in config.items()
            if k in actions}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    top, subparsers = _build_parser()
    args = top.parse_args(argv)
    try:
        if args.config:
            # the first parse names the subcommand; the second reads its
            # flags' defaults from the config
            subparsers[args.command].set_defaults(
                **_config_defaults(args.config, subparsers, args.command))
            args = top.parse_args(argv)
        return args.func(args)
    except (DomainError, UsageError, DimensionError, DegenerateProfileError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
