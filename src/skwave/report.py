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
import os
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import functionals as fn
from . import spectral as sp
from . import waves as wv
from .errors import DegenerateProfileError, StageError

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
        return asdict(self)


def decide(n_neg_L: int, z_kernel_L: int, slope_sign: str,
           even_counts: Optional[tuple] = None,
           unresolved: Sequence[str] = ()) -> str:
    """Pure counting rule; re-running on stored evidence reproduces the
    verdict.  A count made where an operator is ``unresolved`` (its
    kernel tolerance reaches the continuum edge) settles nothing."""
    if unresolved:
        return INCONCLUSIVE
    if slope_sign == SLOPE_PLUS and n_neg_L == 1 and z_kernel_L == 2:
        return STABLE
    if slope_sign == SLOPE_MINUS and even_counts == (1, 1):
        return UNSTABLE_EVEN
    return INCONCLUSIVE


def slope_sign_of(res: fn.VkSlopeResult) -> str:
    """Degenerate when flagged: where the slope's stated bound exceeds 1%
    of |slope| the counting argument cannot be applied."""
    if res.flagged:
        return SLOPE_DEGENERATE
    return SLOPE_PLUS if res.slope > 0 else SLOPE_MINUS


def _solve(family: str, r: int, at: float) -> wv.WaveParams:
    return wv.solve_family(family, r, at)


def _profile(family: str, r: int, at: float, n: Optional[int]) -> wv.Profile:
    """``_solve``'s wave, validated as ``_solve`` validates it, sampled on
    its default grid with ``n`` nodes."""
    return wv.validated_profile(wv.solve_family(family, r, at, validate=False), n)


def _operator_evidence(s: sp.SpectrumSummary) -> dict:
    """An operator's counts, its tolerance, and its parity blocks'
    (n_neg, z_kernel) pairs with the witnesses of their split counts:
    the core rows eigensolved and the Schur growth, (even, odd) each."""
    return {"n_neg": s.n_neg, "z_kernel": s.z_kernel,
            "tol_kernel": s.tol_kernel,
            "even": (s.even.n_neg, s.even.z_kernel),
            "odd": (s.odd.n_neg, s.odd.z_kernel),
            "core_rows": (s.even.core_rows, s.odd.core_rows),
            "schur_growth": (s.even.growth, s.odd.growth)}


def verdict(family: str, r: int, at: float, n: Optional[int] = None) -> StabilityVerdict:
    """Run the full pipeline at one family point.

    A numerical or domain failure in any stage produces an inconclusive
    verdict naming the stage instead of raising; programming errors
    propagate.
    """
    evidence: dict = {"parameter": at}
    stage = "construct"
    try:
        prof = _profile(family, r, at, n)
        params = prof.params
        evidence["params"] = {"a": params.a, "b": params.b,
                              "omega": params.omega, "c": params.c}

        stage = "spectrum"
        # assembled once: the even pass reads the even blocks counted here
        ops = [sp.assemble(kind, prof) for kind in sp.OPERATOR_KINDS]
        s_re, s_im = (sp.spectrum(op) for op in ops)
        block = sp.block_summary(s_re, s_im)
        evidence["L_Re"] = _operator_evidence(s_re)
        evidence["L_Im"] = _operator_evidence(s_im)
        # a kernel tolerance at or above the continuum edge counts the
        # discretized continuum as kernel: the grid does not resolve it
        unresolved = [kind for kind, s in zip(sp.OPERATOR_KINDS, (s_re, s_im))
                      if block.ess_edge is not None
                      and s.tol_kernel >= block.ess_edge]
        evidence["block"] = {"n_neg": block.n_neg, "z_kernel": block.z_kernel,
                             "ess_edge": block.ess_edge,
                             "unresolved": unresolved}

        theta = None
        if family != wv.SOLITARY:
            stage = "floquet"
            theta = sp.floquet_theta(prof).theta
            evidence["theta"] = theta

        stage = "slope"
        slope = fn.vk_slope(family, r, at)
        sign = slope_sign_of(slope)
        evidence["slope"] = {"value": slope.slope,
                             "richardson": slope.richardson_discrepancy,
                             "flagged": slope.flagged, "sign": sign}

        even_counts = None
        if sign == SLOPE_MINUS:
            stage = "even_restriction"
            even = sp.block_summary(*(sp.spectrum_even(op) for op in ops))
            even_counts = (even.n_neg, even.z_kernel)
            evidence["even_block"] = {"n_neg": even.n_neg,
                                      "z_kernel": even.z_kernel}
    except (StageError, np.linalg.LinAlgError) as exc:
        # verdicts never guess past a failed stage; any other exception
        # is a programming error and propagates
        evidence["failed_stage"] = stage
        evidence["error"] = f"{type(exc).__name__}: {exc}"
        return StabilityVerdict(family, r, at, None, None, None, None,
                                INCONCLUSIVE, evidence)
    call = decide(block.n_neg, block.z_kernel, sign, even_counts, unresolved)
    return StabilityVerdict(family, r, at, block.n_neg, block.z_kernel,
                            sign, theta, call, evidence)


def spectrum_report(family: str, r: int, at: float, n: Optional[int] = None) -> dict:
    """Machine-readable spectrum summary of the block operator; each
    ``lowest`` comes with ``lowest_width``, the bisection width that
    bounds its error.  Where phi''(0) vanishes (periodic k <= 1e-7)
    theta is None and ``theta_error`` says why; the counts stand."""
    prof = _profile(family, r, at, n)
    ops = [sp.assemble(kind, prof) for kind in sp.OPERATOR_KINDS]
    s_re, s_im = (sp.spectrum(op) for op in ops)
    block = sp.block_summary(s_re, s_im)
    lowest = [sp.lowest(op) for op in ops]
    theta = theta_error = None
    if family != wv.SOLITARY:
        try:
            theta = sp.floquet_theta(prof).theta
        except DegenerateProfileError as exc:
            theta_error = f"{type(exc).__name__}: {exc}"
    return {
        "family": family, "r": r, "parameter": at,
        "n_neg": block.n_neg, "z_kernel": block.z_kernel,
        "lowest": sorted(lowest[0] + lowest[1])[:5],
        "lowest_width": block.lowest_width,
        "ess_edge": block.ess_edge, "theta": theta, "theta_error": theta_error,
        **{kind: {**_operator_evidence(s), "lowest": list(low),
                  "lowest_width": s.lowest_width}
           for kind, s, low in zip(sp.OPERATOR_KINDS, (s_re, s_im), lowest)},
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


def _write_csv(path, header, rows, rule, columns) -> str:
    """Write ``rows`` under ``header`` to ``path``, then the summary row:
    ``rule`` (``_monotone`` or ``_sign_summary``) of each named column."""
    summary = [f"{name}:{rule([row[header.index(name)] for row in rows])}"
               for name in columns]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows, ["summary", *summary]])
    return path


def reproduce_figures(output_dir, n_points: int = 40) -> list:
    """Emit the data behind the family/slope curves as CSV files.

    One file per curve: amplitude/width against frequency for the three
    solitary exponents, the periodic parameter curves, the tau and gamma
    sign curves, and the squared-norm curves whose monotonicity carries
    the stability verdicts.  The last row of each file summarizes the
    monotonicity or sign of the data columns.
    """
    os.makedirs(output_dir, exist_ok=True)
    path = partial(os.path.join, output_dir)
    out = []

    for r in (1, 2, 4):
        omegas = wv.solitary_threshold(r) + np.linspace(0.005, 1.5, n_points)
        waves = [wv.solve_solitary(r, float(w), validate=False) for w in omegas]
        out.append(_write_csv(
            path(f"solitary_params_r{r}.csv"), ["omega", "a", "b"],
            [[w, p.a, p.b] for w, p in zip(omegas, waves)],
            _monotone, ("a", "b")))
        out.append(_write_csv(
            path(f"solitary_mass_r{r}.csv"), ["omega", "a2_over_b", "mass"],
            [[w, p.a ** 2 / p.b, fn.mass_closed_form(p)]
             for w, p in zip(omegas, waves)],
            _monotone, ("a2_over_b", "mass")))

    kn = np.linspace(0.02, 0.96, n_points)
    kq = np.linspace(0.05, 0.95, min(n_points, 30))
    dn = [wv.solve_periodic_r1(float(k), validate=False) for k in kn]
    dnq = [wv.solve_periodic_r2(float(k), validate=False) for k in kq]
    for name, ks, waves in (("dn", kn, dn), ("dnq", kq, dnq)):
        out.append(_write_csv(
            path(f"periodic_{name}_params.csv"), ["k", "a", "omega"],
            [[k, p.a, p.omega] for k, p in zip(ks, waves)],
            _monotone, ("a", "omega")))
        out.append(_write_csv(
            path(f"periodic_{name}_mass.csv"), ["k", "mass"],
            [[k, fn.mass_closed_form(p)] for k, p in zip(ks, waves)],
            _monotone, ("mass",)))

    profiles = [wv.sample_profile(p, wv.default_grid(p)) for p in dnq]
    out.append(_write_csv(
        path("gamma_curve.csv"), ["k", "gamma"],
        [[k, fn.lre_phi_identity(prof)] for k, prof in zip(kq, profiles)],
        _sign_summary, ("gamma",)))

    ktau = np.linspace(0.02, 0.97, 40)
    out.append(_write_csv(
        path("tau_curve.csv"), ["k", "tau1", "tau2", "tau"],
        [[k, *fn.closed_form_tau(float(k))] for k in ktau],
        _sign_summary, ("tau",)))
    return out

