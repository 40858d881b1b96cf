"""Command line interface.

Exit codes: 0 success, 2 domain/existence error or degenerate profile,
3 inconclusive verdict, 4 numerical failure.  A JSON config file passed
with --config supplies defaults for any flag; explicit flags override it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import evolution as ev
from . import functionals as fn
from . import report as rp
from . import spectral as sp
from . import waves as wv
from .errors import (
    BlowUpError,
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
    if family == wv.SOLITARY:
        if args.omega is None:
            raise UsageError("solitary waves are selected by --omega")
        return family, args.r, args.omega
    if args.k is None:
        raise UsageError("periodic waves are selected by --k")
    return family, args.r, args.k


def _print_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_profile(args) -> int:
    family, r, at = _family_point(args)
    prof = rp._profile(family, r, at, args.n)
    wv.write_profile_csv(prof, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_spectrum(args) -> int:
    family, r, at = _family_point(args)
    rep = rp.spectrum_report(family, r, at, args.n, args.tol_kernel)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rep, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    else:
        _print_json(rep)
    return 0


def cmd_theta(args) -> int:
    family, r, at = _family_point(args)
    if family == wv.SOLITARY:
        raise UsageError("theta is defined for the periodic families")
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
    v = rp.verdict(family, r, at, args.n, args.tol_kernel)
    _print_json(v.to_dict())
    return 3 if v.verdict == rp.INCONCLUSIVE else 0


def cmd_evolve(args) -> int:
    family, r, at = _family_point(args)
    res = ev.stability_experiment(family, r, at, args.epsilon, args.T,
                                  dt=args.dt, n=args.n, even=args.even)
    os.makedirs(args.out, exist_ok=True)
    ev.write_trajectory_csv(os.path.join(args.out, "trajectory.csv"),
                            res.evolution)
    ev.write_manifest_json(os.path.join(args.out, "manifest.json"), res)
    _print_json(res.manifest())
    if res.blow_up is not None:
        raise BlowUpError(res.blow_up)
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


def _build_parser(defaults: dict) -> argparse.ArgumentParser:
    """The waves parser; ``defaults`` replace the built-in defaults of the
    subcommand flags, and explicit flags still win."""
    top = argparse.ArgumentParser(
        prog="waves",
        description="standing waves of the 1D Schrodinger-Kirchhoff "
                    "equation: profiles, spectra, slopes, verdicts, evolution")
    top.add_argument("--config", default=None,
                     help="JSON file with default values for any flag")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="sample a wave profile to CSV")
    _add_selectors(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("spectrum", help="eigenvalue counts of the linearization")
    _add_selectors(p)
    p.add_argument("--tol-kernel", type=float, default=None)
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
    p.add_argument("--tol-kernel", type=float, default=None)
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

    for p in sub.choices.values():
        p.set_defaults(**defaults)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser({}).parse_args(argv)
    if args.config:
        with open(args.config) as fh:
            config = {k.replace("-", "_"): v for k, v in json.load(fh).items()}
        # the first parse tells which flags the chosen subcommand has;
        # the second takes their defaults from the config, and config
        # keys the subcommand lacks are dropped
        known = {k: v for k, v in config.items()
                 if k in vars(args) and k not in ("config", "command", "func")}
        args = _build_parser(known).parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, UsageError, DimensionError, DegenerateProfileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
