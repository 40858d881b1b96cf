"""Verdict pipeline: wave construction -> spectral counts -> norm slope
-> orbital stability/instability call, plus the figure-data sweeps.

The counting rule is the standard sufficient condition for Hamiltonian
systems with a two-parameter symmetry group: with n(L) = 1 negative
direction, a two-dimensional kernel spanned by (phi', 0) and (0, phi),
and a positive slope of int phi^2 in omega, the wave is orbitally
stable in H^1 x H^1.  A negative slope yields instability in the even
subspace, where the translation symmetry (and its kernel direction) is
dropped, so the counts become n = 1, z = 1.  Anything else is reported
as inconclusive, never guessed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import functionals as fn
from . import spectral as sp
from . import waves as wv
from .errors import (
    BracketError,
    DegenerateProfileError,
    DimensionError,
    DomainError,
    UsageError,
)

SLOPE_PLUS = "+"
SLOPE_MINUS = "-"
SLOPE_DEGENERATE = "0-flagged"

STABLE = "stable_H1"
UNSTABLE_EVEN = "unstable_even_subspace"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StabilityVerdict:
    family: str
    r: int
    parameter: float
    n_neg_L: Optional[int]
    z_kernel_L: Optional[int]
    slope_sign: Optional[str]
    theta: Optional[float]
    verdict: str
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "family": self.family, "r": self.r, "parameter": self.parameter,
            "n_neg_L": self.n_neg_L, "z_kernel_L": self.z_kernel_L,
            "slope_sign": self.slope_sign, "theta": self.theta,
            "verdict": self.verdict, "evidence": self.evidence,
        }


def decide(n_neg_L: int, z_kernel_L: int, slope_sign: str,
           even_counts: Optional[tuple] = None) -> str:
    """Pure counting rule; re-running on stored evidence reproduces the
    verdict."""
    if slope_sign == SLOPE_PLUS and n_neg_L == 1 and z_kernel_L == 2:
        return STABLE
    if slope_sign == SLOPE_MINUS and even_counts == (1, 1):
        return UNSTABLE_EVEN
    return INCONCLUSIVE


def slope_sign_of(res: fn.VkSlopeResult) -> str:
    """Degenerate when flagged or within 10x the Richardson discrepancy
    of zero (the counting argument cannot be applied there)."""
    if res.flagged or abs(res.slope) < 10 * res.richardson_discrepancy:
        return SLOPE_DEGENERATE
    return SLOPE_PLUS if res.slope > 0 else SLOPE_MINUS


def _solve(family: str, r: int, at: float) -> wv.WaveParams:
    return wv.solve_family(family, r, at)


def _block(prof: wv.Profile, count, tol_kernel: Optional[float]):
    """Count L_Re, then L_Im, with ``count`` (``sp.spectrum`` or
    ``sp.spectrum_even``); returns (s_re, s_im, block summary)."""
    s_re = count(sp.assemble("L_Re", prof), tol_kernel)
    s_im = count(sp.assemble("L_Im", prof), tol_kernel)
    return s_re, s_im, sp.block_summary(s_re, s_im)


def verdict(family: str, r: int, at: float, n: Optional[int] = None,
            tol_kernel: Optional[float] = None) -> StabilityVerdict:
    """Run the full pipeline at one family point.

    A numerical or domain failure in any stage produces an inconclusive
    verdict naming the stage instead of raising; programming errors
    propagate.
    """
    evidence: dict = {"parameter": at}
    stage = "construct"
    try:
        params = _solve(family, r, at)
        evidence["params"] = {"a": params.a, "b": params.b,
                              "omega": params.omega, "c": params.c}
        prof = wv.sample_profile(params, wv.default_grid(params, n))

        stage = "spectrum"
        s_re, s_im, block = _block(prof, sp.spectrum, tol_kernel)
        evidence["L_Re"] = {"n_neg": s_re.n_neg, "z_kernel": s_re.z_kernel}
        evidence["L_Im"] = {"n_neg": s_im.n_neg, "z_kernel": s_im.z_kernel}
        evidence["block"] = {"n_neg": block.n_neg, "z_kernel": block.z_kernel}

        theta = None
        if family != wv.SOLITARY:
            stage = "floquet"
            theta = sp.floquet_theta(prof).theta
            evidence["theta"] = theta

        stage = "slope"
        slope = fn.vk_slope(family, r, at)
        sign = slope_sign_of(slope)
        evidence["slope"] = {"value": slope.slope, "step": slope.step,
                             "richardson": slope.richardson_discrepancy,
                             "flagged": slope.flagged, "sign": sign}

        even_counts = None
        if sign == SLOPE_MINUS:
            stage = "even_restriction"
            even = _block(prof, sp.spectrum_even, tol_kernel)[2]
            even_counts = (even.n_neg, even.z_kernel)
            evidence["even_block"] = {"n_neg": even.n_neg,
                                      "z_kernel": even.z_kernel}
    except (DomainError, BracketError, UsageError, DimensionError,
            DegenerateProfileError, np.linalg.LinAlgError) as exc:
        # verdicts never guess past a failed stage; any other exception
        # is a programming error and propagates
        evidence["failed_stage"] = stage
        evidence["error"] = f"{type(exc).__name__}: {exc}"
        return StabilityVerdict(family, r, at, None, None, None, None,
                                INCONCLUSIVE, evidence)
    call = decide(block.n_neg, block.z_kernel, sign, even_counts)
    return StabilityVerdict(family, r, at, block.n_neg, block.z_kernel,
                            sign, theta, call, evidence)


def spectrum_report(family: str, r: int, at: float, n: Optional[int] = None,
                    tol_kernel: Optional[float] = None) -> dict:
    """Machine-readable spectrum summary of the block operator."""
    params = _solve(family, r, at)
    prof = wv.sample_profile(params, wv.default_grid(params, n))
    s_re, s_im, block = _block(prof, sp.spectrum, tol_kernel)
    theta = None
    if family != wv.SOLITARY:
        theta = sp.floquet_theta(prof).theta
    return {
        "family": family, "r": r, "parameter": at,
        "n_neg": block.n_neg, "z_kernel": block.z_kernel,
        "lowest": list(block.lowest), "ess_edge": block.ess_edge,
        "theta": theta,
        "L_Re": {"n_neg": s_re.n_neg, "z_kernel": s_re.z_kernel,
                 "lowest": list(s_re.lowest)},
        "L_Im": {"n_neg": s_im.n_neg, "z_kernel": s_im.z_kernel,
                 "lowest": list(s_im.lowest)},
    }


# ----------------------------------------------------------------------
# figure data
# ----------------------------------------------------------------------

def _monotone(vals) -> str:
    d = np.diff(np.asarray(vals))
    if np.all(d > 0):
        return "increasing"
    if np.all(d < 0):
        return "decreasing"
    return "non-monotone"


def _sign_summary(vals) -> str:
    v = np.asarray(vals)
    if np.all(v < 0):
        return "all-negative"
    if np.all(v > 0):
        return "all-positive"
    return "mixed-sign"


def _write_csv(path, header, rows, summary) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
        w.writerow(summary)


def reproduce_figures(output_dir, n_points: int = 40) -> list:
    """Emit the data behind the family/slope curves as CSV files.

    One file per curve: amplitude/width against frequency for the three
    solitary exponents, the periodic parameter curves, the tau and gamma
    sign curves, and the squared-norm curves whose monotonicity carries
    the stability verdicts.  The last row of each file summarizes the
    monotonicity or sign of the data columns.
    """
    os.makedirs(output_dir, exist_ok=True)
    out = []

    for r in (1, 2, 4):
        thr = wv.solitary_threshold(r)
        omegas = thr + np.linspace(0.005, 1.5, n_points)
        rows, mrows = [], []
        for w in omegas:
            p = wv.solve_solitary(r, float(w), validate=False)
            rows.append([w, p.a, p.b])
            mrows.append([w, p.a ** 2 / p.b, fn.mass_closed_form(p)])
        path = os.path.join(output_dir, f"solitary_params_r{r}.csv")
        _write_csv(path, ["omega", "a", "b"], rows,
                   ["summary", "a:" + _monotone([x[1] for x in rows]),
                    "b:" + _monotone([x[2] for x in rows])])
        out.append(path)
        path = os.path.join(output_dir, f"solitary_mass_r{r}.csv")
        _write_csv(path, ["omega", "a2_over_b", "mass"], mrows,
                   ["summary", "a2_over_b:" + _monotone([x[1] for x in mrows]),
                    "mass:" + _monotone([x[2] for x in mrows])])
        out.append(path)

    ks = np.linspace(0.02, 0.96, n_points)
    rows, mrows = [], []
    for k in ks:
        p = wv.solve_periodic_r1(float(k), validate=False)
        rows.append([k, p.a, p.omega])
        mrows.append([k, fn.mass_closed_form(p)])
    path = os.path.join(output_dir, "periodic_dn_params.csv")
    _write_csv(path, ["k", "a", "omega"], rows,
               ["summary", "a:" + _monotone([x[1] for x in rows]),
                "omega:" + _monotone([x[2] for x in rows])])
    out.append(path)
    path = os.path.join(output_dir, "periodic_dn_mass.csv")
    _write_csv(path, ["k", "mass"], mrows,
               ["summary", "mass:" + _monotone([x[1] for x in mrows])])
    out.append(path)

    kq = np.linspace(0.05, 0.95, min(n_points, 30))
    rows, mrows, grows = [], [], []
    for k in kq:
        p = wv.solve_periodic_r2(float(k), validate=False)
        prof = wv.sample_profile(p, wv.default_grid(p))
        rows.append([k, p.a, p.omega])
        mrows.append([k, fn.mass_closed_form(p)])
        grows.append([k, fn.lre_phi_identity(prof)])
    path = os.path.join(output_dir, "periodic_dnq_params.csv")
    _write_csv(path, ["k", "a", "omega"], rows,
               ["summary", "a:" + _monotone([x[1] for x in rows]),
                "omega:" + _monotone([x[2] for x in rows])])
    out.append(path)
    path = os.path.join(output_dir, "periodic_dnq_mass.csv")
    _write_csv(path, ["k", "mass"], mrows,
               ["summary", "mass:" + _monotone([x[1] for x in mrows])])
    out.append(path)
    path = os.path.join(output_dir, "gamma_curve.csv")
    _write_csv(path, ["k", "gamma"], grows,
               ["summary", "gamma:" + _sign_summary([x[1] for x in grows])])
    out.append(path)

    ktau = np.linspace(0.02, 0.97, 40)
    rows = [[k, *fn.closed_form_tau(float(k))] for k in ktau]
    path = os.path.join(output_dir, "tau_curve.csv")
    _write_csv(path, ["k", "tau1", "tau2", "tau"], rows,
               ["summary", "tau:" + _sign_summary([x[3] for x in rows])])
    out.append(path)

    return out


def write_verdict_json(path, v: StabilityVerdict) -> None:
    with open(path, "w") as fh:
        json.dump(v.to_dict(), fh, indent=2)
        fh.write("\n")
