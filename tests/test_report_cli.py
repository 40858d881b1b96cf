import csv
import json
import math
import os
import shlex
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skwave
from skwave import cli
from skwave import elliptic as el
from skwave import evolution as ev
from skwave import functionals as fn
from skwave import report as rp
from skwave import waves as wv
from skwave.errors import DomainError

from oracles import read_profile_header


# ----------------------------------------------------------------------
# the counting rule
# ----------------------------------------------------------------------

def test_decide_stable():
    assert rp.decide(1, 2, "+") == rp.STABLE


def test_decide_unstable_needs_even_counts():
    assert rp.decide(1, 2, "-", even_counts=(1, 1)) == rp.UNSTABLE_EVEN
    assert rp.decide(1, 2, "-", even_counts=(2, 1)) == rp.INCONCLUSIVE
    assert rp.decide(1, 2, "-", even_counts=None) == rp.INCONCLUSIVE


@given(st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(["+", "-", "0-flagged"]),
       st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3))))
@settings(max_examples=200, deadline=None)
def test_decide_never_mislabels(n_neg, z, sign, even):
    # rule integrity under corrupted evidence: stable only ever comes out
    # of (1, 2, +), unstable only out of slope '-' with even counts (1, 1)
    out = rp.decide(n_neg, z, sign, even)
    if out == rp.STABLE:
        assert (n_neg, z, sign) == (1, 2, "+")
    elif out == rp.UNSTABLE_EVEN:
        assert sign == "-" and even == (1, 1)
    else:
        assert out == rp.INCONCLUSIVE


def test_verdict_reproducible_from_evidence():
    v = rp.verdict("periodic_dn", 1, 0.5, n=128)
    again = rp.decide(v.n_neg_L, v.z_kernel_L, v.slope_sign)
    assert again == v.verdict == rp.STABLE


def test_verdict_failure_names_stage():
    v = rp.verdict("solitary", 1, 0.2)
    assert v.verdict == rp.INCONCLUSIVE
    assert v.evidence["failed_stage"] == "construct"
    assert "ExistenceError" in v.evidence["error"]


def test_verdict_programming_error_propagates(monkeypatch):
    # only numerical and domain failures become an inconclusive verdict
    def broken(prof, *args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(rp.sp, "floquet_theta", broken)
    with pytest.raises(TypeError):
        rp.verdict("periodic_dn", 1, 0.5, n=128)


def test_verdict_solitary_r4_even_evidence():
    v = rp.verdict("solitary", 4, 0.3, n=512)
    assert v.verdict == rp.UNSTABLE_EVEN
    assert v.evidence["even_block"] == {"n_neg": 1, "z_kernel": 1}
    assert v.theta is None


def spy_eigensolves(monkeypatch):
    """Record the kind of each ``assemble`` call, the shape of each
    Schur complement ``symmetric_eigen`` solves and the shape of each
    dense eigensolve input; returns the three logs."""
    assembled, schur, shapes = [], [], []

    def spy(fn, log, record):
        def wrapped(*args, **kwargs):
            log.append(record(*args))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(rp.sp, "assemble", spy(rp.sp.assemble, assembled, lambda kind, p: kind))
    monkeypatch.setattr(rp.sp, "symmetric_eigen", spy(rp.sp.symmetric_eigen, schur, np.shape))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name), shapes, np.shape))
    return assembled, schur, shapes


def test_line_verdict_counts_by_inertia(monkeypatch):
    # an r = 4 line verdict (full and even passes) assembles each operator
    # once and runs no eigensolve larger than the 1x1 Schur complements:
    # two of them, L_Re's coupled even block at -tol and +tol
    assembled, schur, shapes = spy_eigensolves(monkeypatch)
    v = rp.verdict("solitary", 4, 0.3, n=2048)
    assert v.verdict == rp.UNSTABLE_EVEN
    assert v.evidence["even_block"] == {"n_neg": 1, "z_kernel": 1}
    assert assembled == ["L_Re", "L_Im"]
    assert schur == [(1, 1)] * 2
    assert shapes and max(shapes) <= (1, 1)


def test_periodic_verdict_counts_by_inertia(monkeypatch):
    # the torus twin: a dnq verdict counts the trig-basis bands, with the
    # same two 1x1 Schur complements and no larger eigensolve
    assembled, schur, shapes = spy_eigensolves(monkeypatch)
    v = rp.verdict("periodic_dn_quotient", 2, 0.5, n=512)
    assert v.verdict == rp.STABLE
    assert assembled == ["L_Re", "L_Im"]
    assert schur == [(1, 1)] * 2
    assert shapes and max(shapes) <= (1, 1)


@pytest.mark.parametrize("family, r, at, n, orders", [
    ("solitary", 4, 0.3, 2048, [1024] * 4),
    ("periodic_dn_quotient", 2, 0.5, 512, [257, 255] * 2),
])
def test_verdict_solves_each_parity_block_once(monkeypatch, family, r, at, n, orders):
    # each parity block of L_Re and of L_Im (of the given orders) is
    # counted once per shift +tol, -tol, except L_Im's odd block, which
    # has every eigenvalue above +tol and so none below -tol; the even
    # pass of the r = 4 verdict reads the even blocks of the full pass.
    # A count factors the far part and eigensolves only its core (LAPACK
    # dsbev), so no banded eigensolve reaches the order of a block, and
    # sigma's core term comes from the core's eigenpairs: no LU (dgbsv)
    counted, solved = [], []

    def spy(fn, log):
        def wrapped(band, *args, **kwargs):
            log.append(np.shape(band)[1])
            return fn(band, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(rp.sp, "_inertia", spy(rp.sp._inertia, counted))
    monkeypatch.setattr(rp.sp, "dsbev", spy(rp.sp.dsbev, solved))
    lu = []
    dgbsv = rp.sp.dgbsv
    monkeypatch.setattr(rp.sp, "dgbsv", lambda *a, **kw: lu.append(a) or dgbsv(*a, **kw))
    v = rp.verdict(family, r, at, n=n)
    assert v.verdict != rp.INCONCLUSIVE
    assert sorted(counted) == sorted(orders + orders[:-1])
    assert solved and max(solved) <= 3 < n // 2
    assert not lu


def test_verdict_inconclusive_when_schur_growth_exceeds_bound(monkeypatch):
    # a split count whose far part is too close to singular is not
    # certified: the verdict stops at the spectrum stage
    monkeypatch.setattr(rp.sp, "GROWTH_BOUND", 0.0)
    v = rp.verdict("solitary", 1, 1.0, n=256)
    assert v.verdict == rp.INCONCLUSIVE
    assert v.evidence["failed_stage"] == "spectrum"
    assert "Schur growth" in v.evidence["error"]


def test_spectrum_report_gives_lowest_width_and_witnesses():
    # lowest comes with its bisection width, and each block with the
    # core rows and Schur growth of its split count
    rep = rp.spectrum_report("solitary", 2, 0.5)
    params = wv.solve_family("solitary", 2, 0.5)
    prof = wv.sample_profile(params, wv.default_grid(params))
    widths = []
    for kind in rp.sp.OPERATOR_KINDS:
        blocks = rp.sp._parity_blocks(rp.sp.assemble(kind, prof))
        ev = rep[kind]
        widths.append(ev["lowest_width"])
        assert ev["lowest_width"] == max(1e-14 * np.max(np.abs(band))
                                         for band, _ in blocks)
        assert all(0 <= rows <= 3 for rows in ev["core_rows"])
        assert all(0 <= g <= rp.sp.GROWTH_BOUND for g in ev["schur_growth"])
    assert rep["lowest_width"] == max(widths)


@pytest.mark.parametrize("family, r, at", [
    ("solitary", 2, 0.5), ("periodic_dn_quotient", 2, 0.5),
])
def test_spectrum_report_lowest_makes_no_split_count(monkeypatch, family, r, at):
    # lowest is bisected on its own secular count, so the only split
    # counts of a report are the counts themselves: 2 operators x 2
    # parity blocks x 2 shifts, less the -tol count of L_Im's odd block,
    # which its +tol count settles; reading lowest adds none
    calls, marks, inertia, lowest = [], [], rp.sp._inertia, rp.sp._lowest

    def spy(*args):
        calls.append(args)
        return inertia(*args)

    def spy_lowest(*args):
        marks.append(len(calls))
        return lowest(*args)

    monkeypatch.setattr(rp.sp, "_inertia", spy)
    monkeypatch.setattr(rp.sp, "_lowest", spy_lowest)
    rep = rp.spectrum_report(family, r, at)
    assert len(rep["lowest"]) == 5
    assert len(calls) == 7
    assert marks == [7] * 4


@pytest.mark.parametrize("family, r, at", [
    ("periodic_dn", 1, 0.5), ("periodic_dn_quotient", 2, 0.5),
])
def test_periodic_verdict_samples_its_grid_once(monkeypatch, family, r, at):
    # at the default n the validation's two checks run on the verdict's
    # own sample of the closed form; at another n they still run on a
    # default-grid sample
    sizes, values = [], wv.profile_values

    def spy(params, x):
        sizes.append(np.size(x))
        return values(params, x)

    monkeypatch.setattr(wv, "profile_values", spy)
    default = wv.DEFAULT_N_TORUS
    assert rp.verdict(family, r, at).verdict == rp.STABLE
    assert sizes.count(default) == 1
    sizes.clear()
    assert rp.verdict(family, r, at, n=default // 2).verdict == rp.STABLE
    assert (sizes.count(default), sizes.count(default // 2)) == (1, 1)


def spy_evaluations(monkeypatch) -> tuple[list, list, list]:
    """Record the sizes of ``el.jacobi``'s arguments and the moduli at
    which the AGM chain and the dn-quotient rule are evaluated, behind
    fresh one-entry memos of the functions the program's memos wrap."""
    for memo in (el._agm_chain, wv._dnq_rule):
        assert memo.cache_parameters() == {"maxsize": 1, "typed": False}
    sizes, chains, rules = [], [], []
    jacobi, chain, rule = el.jacobi, el._agm_chain.__wrapped__, wv._dnq_rule.__wrapped__

    def spy_jacobi(u, k):
        sizes.append(np.size(u))
        return jacobi(u, k)

    def spy_chain(k):
        chains.append(k)
        return chain(k)

    def spy_rule(k, alpha, b):
        rules.append(k)
        return rule(k, alpha, b)

    monkeypatch.setattr(el, "jacobi", spy_jacobi)
    monkeypatch.setattr(el, "_agm_chain", lru_cache(maxsize=1)(spy_chain))
    monkeypatch.setattr(wv, "_dnq_rule", lru_cache(maxsize=1)(spy_rule))
    return sizes, chains, rules


@pytest.mark.parametrize("family, r, sizes_seen, rules_seen", [
    ("periodic_dn", 1, [512, 1], []),
    ("periodic_dn_quotient", 2, [512, 512, 1], [0.5]),
])
def test_periodic_verdict_evaluates_its_modulus_once(monkeypatch, family, r,
                                                      sizes_seen, rules_seen):
    # the solve, the profile, theta and the slope's re-solve share one
    # AGM chain and, on the dn quotient, one rule: the rule's 512-node
    # sample, the profile's and theta's scalar phi''(0) are the only
    # jacobi calls
    sizes, chains, rules = spy_evaluations(monkeypatch)
    assert rp.verdict(family, r, 0.5).verdict == rp.STABLE
    assert (sorted(sizes, reverse=True), chains, rules) == (sizes_seen, [0.5], rules_seen)


def test_alternating_moduli_evaluate_their_own_rules(monkeypatch):
    sizes, chains, rules = spy_evaluations(monkeypatch)
    for k in (0.3, 0.6, 0.3):
        rp.verdict("periodic_dn_quotient", 2, k)
    assert chains == rules == [0.3, 0.6, 0.3]
    assert sizes.count(512) == 6


@pytest.mark.parametrize("n", [None, 256])
def test_failed_validation_fails_the_construct_stage(monkeypatch, n):
    monkeypatch.setattr(wv, "ode_residual", lambda p: 1.0)
    v = rp.verdict("periodic_dn", 1, 0.5, n=n)
    assert v.evidence["failed_stage"] == "construct"
    assert v.evidence["error"].startswith("DomainError: stationary-equation residual")
    assert "params" not in v.evidence
    with pytest.raises(DomainError, match="stationary-equation residual"):
        rp.spectrum_report("periodic_dn", 1, 0.5, n)


@pytest.mark.parametrize("family, r, at", [
    ("solitary", 1, 1.0), ("solitary", 2, 0.5), ("solitary", 4, 0.3),
    ("periodic_dn", 1, 0.5), ("periodic_dn_quotient", 2, 0.5),
])
def test_kernels_sit_in_their_parity_blocks(family, r, at):
    # phi' is odd and phi even: L_Re's kernel lies in the odd block and
    # its negative direction in the even one, L_Im's kernel in the even
    # block; the verdict and the spectrum report carry the same pairs
    v = rp.verdict(family, r, at)
    rep = rp.spectrum_report(family, r, at)
    for evidence in (v.evidence, rep):
        assert (evidence["L_Re"]["even"], evidence["L_Re"]["odd"]) == ((1, 0), (0, 1))
        assert (evidence["L_Im"]["even"], evidence["L_Im"]["odd"]) == ((0, 1), (0, 0))


def test_verdict_periodic_carries_theta():
    v = rp.verdict("periodic_dn", 1, 0.5, n=256)
    assert v.theta is not None and v.theta < 0


@pytest.mark.parametrize("family, r", [("periodic_dn", 1), ("periodic_dn_quotient", 2)])
@pytest.mark.parametrize("k, n", [(0.5, 512), (0.5, 1024), (0.5, 2048), (0.1, None),
                                  (0.02, None), (0.01, None), (5e-3, None), (3e-3, None)])
def test_periodic_verdict_stable_on_fine_grids_and_small_modulus(family, r, k, n):
    # the third eigenvalue of L_Re closes on zero like k^4 (3.9e-5 at dn
    # k = 0.1); the residual of phi' (1e-11 to 2e-10) keeps it out of the
    # kernel however fine the grid
    v = rp.verdict(family, r, k, n=n)
    assert v.verdict == rp.STABLE
    assert (v.evidence["L_Re"]["n_neg"], v.evidence["L_Re"]["z_kernel"]) == (1, 1)


def test_kernel_tolerance_reported_as_evidence():
    # each operator's evidence carries the tolerance it was counted at,
    # its kernel residual
    prof = wv.sample_profile(wv.solve_periodic_r1(0.5), wv.torus_grid(256))
    v = rp.verdict("periodic_dn", 1, 0.5, n=256)
    rep = rp.spectrum_report("periodic_dn", 1, 0.5, n=256)
    for kind in rp.sp.OPERATOR_KINDS:
        tol = rp.sp.spectrum(rp.sp.assemble(kind, prof)).tol_kernel
        assert 0 < tol < 1e-8
        assert v.evidence[kind]["tol_kernel"] == rep[kind]["tol_kernel"] == tol


@pytest.mark.parametrize("r", [4, 5])
@pytest.mark.parametrize("n, unresolved", [(256, ["L_Re"]), (1024, [])])
def test_coarse_line_grid_names_itself(r, n, unresolved):
    # at n = 256 the residual of phi' (0.65 at r = 4, 1.39 at r = 5)
    # reaches the continuum edge omega/c = 0.21, so the count at +-rho
    # takes in the discretized continuum; at n = 1024 it is below 0.014
    v = rp.verdict("solitary", r, 0.3, n=n)
    block = v.evidence["block"]
    assert block["ess_edge"] == pytest.approx(0.3 / v.evidence["params"]["c"])
    assert block["unresolved"] == unresolved
    for kind in rp.sp.OPERATOR_KINDS:
        assert (v.evidence[kind]["tol_kernel"] >= block["ess_edge"]) == (kind in unresolved)
    assert (v.verdict == rp.INCONCLUSIVE) == bool(unresolved)


def test_torus_verdict_has_no_continuum_edge():
    block = rp.verdict("periodic_dn", 1, 0.5, n=256).evidence["block"]
    assert block["ess_edge"] is None and block["unresolved"] == []


# ----------------------------------------------------------------------
# figure data
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    rp.reproduce_figures(out, n_points=12)
    return out


def _read(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:-1], rows[-1]


FIGURE_FILES = {
    **{f"solitary_params_r{r}.csv": (["omega", "a", "b"], ["a", "b"])
       for r in (1, 2, 4)},
    **{f"solitary_mass_r{r}.csv": (["omega", "a2_over_b", "mass"],
                                   ["a2_over_b", "mass"])
       for r in (1, 2, 4)},
    **{f"periodic_{name}_params.csv": (["k", "a", "omega"], ["a", "omega"])
       for name in ("dn", "dnq")},
    **{f"periodic_{name}_mass.csv": (["k", "mass"], ["mass"])
       for name in ("dn", "dnq")},
    "gamma_curve.csv": (["k", "gamma"], ["gamma"]),
    "tau_curve.csv": (["k", "tau1", "tau2", "tau"], ["tau"]),
}


def test_figures_every_file(figure_dir):
    # each of the 12 files has its header, one row per point and a
    # summary row naming each summarized column with its rule's value
    assert sorted(os.listdir(figure_dir)) == sorted(FIGURE_FILES)
    signs = {"all-negative", "all-positive", "mixed-sign"}
    trends = {"increasing", "decreasing", "non-monotone"}
    for name, (columns, summarized) in FIGURE_FILES.items():
        header, rows, summary = _read(figure_dir / name)
        assert header == columns, name
        # tau is sampled at 40 moduli whatever n_points is
        assert len(rows) == (40 if name == "tau_curve.csv" else 12), name
        assert all(len(row) == len(columns) for row in rows), name
        labels, values = zip(*(item.split(":") for item in summary[1:]))
        assert summary[0] == "summary" and list(labels) == summarized, name
        assert set(values) <= (signs if name.endswith("curve.csv") else trends)


def test_figures_solitary_params(figure_dir):
    header, rows, summary = _read(figure_dir / "solitary_params_r1.csv")
    assert header == ["omega", "a", "b"]
    assert summary[1] == "a:increasing" and summary[2] == "b:increasing"


def test_figures_mass_direction(figure_dir):
    # increasing squared norm for r = 1, decreasing for r = 4: the two
    # signs behind the stability and instability calls
    _, _, s1 = _read(figure_dir / "solitary_mass_r1.csv")
    assert s1[1] == "a2_over_b:increasing"
    _, _, s4 = _read(figure_dir / "solitary_mass_r4.csv")
    assert s4[1] == "a2_over_b:decreasing"


def test_figures_tau_gamma_signs(figure_dir):
    _, rows, summary = _read(figure_dir / "tau_curve.csv")
    assert summary[1] == "tau:all-negative"
    assert len(rows) == 40
    _, _, sg = _read(figure_dir / "gamma_curve.csv")
    assert sg[1] == "gamma:all-negative"


def test_figures_periodic_mass_increasing(figure_dir):
    _, _, s = _read(figure_dir / "periodic_dn_mass.csv")
    assert s[1] == "mass:increasing"
    _, _, sq = _read(figure_dir / "periodic_dnq_mass.csv")
    assert sq[1] == "mass:increasing"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_theta(capsys):
    ret = cli.main(["theta", "--family", "dn", "--r", "1", "--k", "0.5"])
    assert ret == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["theta"] + 18.7569) < 0.19
    assert abs(out["omega"] - 0.508) < 1e-3


def test_cli_vk_slope(capsys):
    ret = cli.main(["vk-slope", "--family", "solitary", "--r", "4",
                    "--omega", "0.3"])
    assert ret == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sign"] == "-" and out["slope"] < 0
    assert out["richardson_discrepancy"] < 0.01 * abs(out["slope"])


def test_cli_verdict_exit_codes(capsys):
    ret = cli.main(["verdict", "--family", "dn", "--r", "1", "--k", "0.5",
                    "--n", "128"])
    assert ret == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "stable_H1"
    # below the existence threshold every stage fails: inconclusive
    ret = cli.main(["verdict", "--family", "solitary", "--r", "1",
                    "--omega", "0.2"])
    assert ret == 3


def test_verdict_at_dn_k_1e_3_passes_the_slope_stage():
    # omega'(k) ~ k^3 is exact to its stated bound at k = 1e-3, so the
    # verdict is inconclusive on its counts alone: the near-kernel
    # eigenvalue of L_Re (about 0.39 k^4) is counted as kernel
    v = rp.verdict(wv.PERIODIC_DN, 1, 0.001)
    assert v.verdict == rp.INCONCLUSIVE
    assert "failed_stage" not in v.evidence
    assert v.evidence["slope"]["sign"] == rp.SLOPE_PLUS
    assert (v.n_neg_L, v.z_kernel_L) == (1, 3)


@pytest.mark.parametrize("command, family, k, code", [
    # flagged at 1e-7; at 1e-9 domega/dk evaluates to zero
    ("vk-slope", "dn", "1e-3", 0),
    *(("vk-slope", family, "1e-7", 0) for family in ("dn", "dnq")),
    *(("vk-slope", family, "1e-9", 2) for family in ("dn", "dnq")),
    *(("theta", family, k, 2) for family in ("dn", "dnq") for k in ("1e-7", "1e-9")),
    # the spectrum's counts stand without theta
    *(("spectrum", family, k, 0) for family in ("dn", "dnq") for k in ("1e-7", "1e-9")),
    ("verdict", "dn", "1e-3", 3),
])
def test_cli_small_modulus_exit_codes(capsys, command, family, k, code):
    # a derivative that evaluates to zero for the slope, and a phi''(0)
    # that vanishes for theta, are domain failures, not tracebacks
    r = "1" if family == "dn" else "2"
    assert cli.main([command, "--family", family, "--r", r, "--k", k]) == code
    if command == "vk-slope" and code == 0:
        assert json.loads(capsys.readouterr().out)["flagged"] == (k == "1e-7")


@pytest.mark.parametrize("family, r", [("periodic_dn", 1), ("periodic_dn_quotient", 2)])
def test_spectrum_report_without_theta_keeps_counts(family, r):
    # at k = 1e-9 phi''(0) vanishes: the report gives theta as None with
    # the reason and the counts the verdict's evidence carries, while the
    # verdict stops at its floquet stage
    rep = rp.spectrum_report(family, r, 1e-9)
    v = rp.verdict(family, r, 1e-9)
    assert rep["theta"] is None
    assert rep["theta_error"] == ("DegenerateProfileError: phi''(0) vanishes, "
                                  "theta is undefined")
    assert v.verdict == rp.INCONCLUSIVE
    assert v.evidence["failed_stage"] == "floquet"
    for kind in rp.sp.OPERATOR_KINDS:
        assert rep[kind] == {**v.evidence[kind], "lowest": rep[kind]["lowest"],
                             "lowest_width": rep[kind]["lowest_width"]}
    assert (rep["n_neg"], rep["z_kernel"]) == (v.evidence["block"]["n_neg"],
                                               v.evidence["block"]["z_kernel"])


def test_cli_domain_error_exit(capsys, tmp_path):
    ret = cli.main(["profile", "--family", "solitary", "--r", "1",
                    "--omega", "0.2", "--out", str(tmp_path / "x.csv")])
    assert ret == 2
    assert "omega" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--T", "nan"), ("--T", "inf"), ("--dt", "nan"), ("--epsilon", "nan")])
def test_cli_evolve_nonfinite_exit(capsys, tmp_path, flag, value):
    # a non-finite time, step or amplitude is a usage error (exit 2),
    # not a traceback or a run reported as a blow-up
    args = {"--epsilon": "0.01", "--T": "0.1", "--dt": "0.01", flag: value}
    ret = cli.main(["evolve", "--family", "dn", "--r", "1", "--k", "0.5",
                    "--n", "64", "--out", str(tmp_path / "run"),
                    *[x for kv in args.items() for x in kv]])
    assert ret == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("family, r, at", [
    ("solitary", 1, 1.0), ("periodic_dn", 1, 0.5)])
def test_zero_grid_size_is_rejected(family, r, at):
    # n = 0 meant the default grid (1024 or 512 nodes)
    v = rp.verdict(family, r, at, n=0)
    assert v.verdict == rp.INCONCLUSIVE
    assert v.evidence["failed_stage"] == "construct"
    assert v.evidence["error"] == "DomainError: grid size must be even and >= 16, got 0"


@pytest.mark.parametrize("omega", [math.nan, math.inf])
def test_non_finite_frequency_is_rejected(omega):
    # the solve rejects it, so the verdict fails at construct and the
    # slope raises, rather than reading a nan slope as "-"
    v = rp.verdict("solitary", 1, omega)
    assert v.verdict == rp.INCONCLUSIVE
    assert v.evidence["failed_stage"] == "construct"
    assert v.evidence["error"].startswith("DomainError: frequency omega must be finite")
    with pytest.raises(DomainError, match="finite"):
        fn.vk_slope("solitary", 1, omega)


SOLITARY_1 = ["--family", "solitary", "--r", "1"]
DN_1 = ["--family", "dn", "--r", "1"]


@pytest.mark.parametrize("argv, config, named", [
    (["verdict", *SOLITARY_1, "--omega", "nan"], None, "--omega"),
    (["verdict", *SOLITARY_1, "--omega", "inf"], None, "--omega"),
    (["vk-slope", *SOLITARY_1, "--omega", "nan"], None, "--omega"),
    (["evolve", *SOLITARY_1, "--omega", "inf", "--epsilon", "0.01", "--T", "0.1",
      "--out", "{out}"], None, "--omega"),
    (["spectrum", *SOLITARY_1, "--omega", "nan"], None, "--omega"),
    (["verdict", *DN_1, "--k", "nan"], None, "--k"),
    (["verdict", *DN_1, "--k", "inf"], None, "--k"),
    (["profile", *SOLITARY_1, "--omega", "nan", "--out", "{out}"], None, "--omega"),
    (["profile", *SOLITARY_1, "--omega=-inf", "--out", "{out}"], None, "--omega"),
    (["--config", "{cfg}", "profile", *SOLITARY_1, "--out", "{out}"],
     '{"omega": NaN}', "NaN"),
    (["--config", "{cfg}", "verdict", *DN_1], '{"k": Infinity}', "Infinity"),
])
def test_cli_non_finite_selector_exits_2(tmp_path, capsys, argv, config, named):
    # a non-finite --omega or --k, on the command line or in a config, is
    # a usage error naming it: not a traceback from the strict JSON
    # writer or from LAPACK, and not a CSV of nan
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    if config is not None:
        cfg.write_text(config)
    assert cli.main([a.format(cfg=cfg, out=out) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


def test_cli_zero_grid_size_exit(capsys, tmp_path):
    ret = cli.main(["profile", "--family", "dn", "--r", "1", "--k", "0.5",
                    "--n", "0", "--out", str(tmp_path / "x.csv")])
    assert ret == 2
    assert "grid size" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["spectrum", "verdict"])
def test_cli_has_no_kernel_tolerance_flag(capsys, command):
    # each operator is counted at its own kernel residual only
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--family", "dn", "--r", "1", "--k", "0.5",
                  "--tol-kernel", "1e-6"])
    assert exc.value.code == 2
    assert "--tol-kernel" in capsys.readouterr().err


def test_cli_family_exponent_mismatch(capsys, tmp_path):
    ret = cli.main(["profile", "--family", "dn", "--r", "2", "--k", "0.5",
                    "--out", str(tmp_path / "x.csv")])
    assert ret == 2
    assert "r = 1" in capsys.readouterr().err


def test_cli_missing_selector(capsys, tmp_path):
    ret = cli.main(["profile", "--family", "solitary", "--r", "1",
                    "--out", str(tmp_path / "x.csv")])
    assert ret == 2


def test_cli_profile_and_spectrum(tmp_path, capsys):
    out = tmp_path / "p.csv"
    ret = cli.main(["profile", "--family", "dnq", "--r", "2", "--k", "0.5",
                    "--n", "128", "--out", str(out)])
    assert ret == 0
    capsys.readouterr()
    header = read_profile_header(out)
    assert header["family"] == "periodic_dn_quotient"

    ret = cli.main(["spectrum", "--family", "dn", "--r", "1", "--k", "0.5",
                    "--n", "128"])
    assert ret == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n_neg"] == 1 and rep["z_kernel"] == 2
    assert rep["theta"] < 0 and rep["theta_error"] is None
    assert rep["ess_edge"] is None


def test_cli_config_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 0.5, "n": 128}))
    ret = cli.main(["--config", str(cfg), "theta", "--family", "dn",
                    "--r", "1"])
    assert ret == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 0.5
    # explicit flag wins over the config value
    ret = cli.main(["--config", str(cfg), "theta", "--family", "dn",
                    "--r", "1", "--k", "0.3"])
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 0.3


def test_cli_evolve_n_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64}))
    ret = cli.main(["--config", str(cfg), "evolve", "--family", "dn",
                    "--r", "1", "--k", "0.5", "--epsilon", "0.01",
                    "--T", "0.05", "--dt", "0.005", "--out", str(tmp_path)])
    assert ret == 0
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["n"] == 64
    capsys.readouterr()


@pytest.mark.parametrize("config", [{"omgea": 3}, {"tol_kernel": 1.0}])
def test_cli_config_rejects_unknown_key(tmp_path, capsys, config):
    # a key no subcommand takes was dropped without a word
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    ret = cli.main(["--config", str(cfg), "verdict", "--family", "dn",
                    "--r", "1", "--k", "0.5"])
    assert ret == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and next(iter(config)) in err


def test_cli_config_ignores_other_subcommands_keys(tmp_path, capsys):
    # one config serves several subcommands: evolve's epsilon is ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 0.01, "k": 0.5}))
    ret = cli.main(["--config", str(cfg), "verdict", "--family", "dn",
                    "--r", "1", "--n", "128"])
    assert ret == 0
    assert json.loads(capsys.readouterr().out)["parameter"] == 0.5


@pytest.mark.parametrize("config", [{"n": [64]}, {"n": 64.5}, {"n": True},
                                    {"r": 3}],
                         ids=["list", "fraction", "bool", "choice"])
def test_cli_config_value_has_the_flags_type(tmp_path, capsys, config):
    # argparse checks a default only when it is a string: a list reached
    # the grid as a TypeError traceback and 64.5 the grid-size check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    ret = cli.main(["--config", str(cfg), "verdict", "--family", "dn",
                    "--r", "1", "--k", "0.5"])
    assert ret == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"for {next(iter(config))}" in err


@pytest.mark.parametrize("even, ret", [("false", 2), (1, 2), (False, 0), (True, 0)])
def test_cli_config_store_true_takes_booleans(tmp_path, capsys, even, ret):
    # the string "false" ran the even perturbation
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"even": even, "n": 64}))
    assert cli.main(["--config", str(cfg), "evolve", "--family", "dn",
                     "--r", "1", "--k", "0.5", "--epsilon", "0.01", "--T", "0.02",
                     "--dt", "0.01", "--out", str(tmp_path)]) == ret
    captured = capsys.readouterr()
    if ret:
        assert captured.err.startswith("error:") and "for even" in captured.err
    else:
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["even_perturbation"] is even


@pytest.mark.parametrize("files, argv", [
    ({}, ["--config", "missing.json", "verdict", "--family", "dn", "--r", "1"]),
    ({"cfg.json": "{"}, ["--config", "cfg.json", "verdict", "--family", "dn", "--r", "1"]),
    ({"cfg.json": "[1]"}, ["--config", "cfg.json", "verdict", "--family", "dn", "--r", "1"]),
    ({}, ["spectrum", "--family", "dn", "--r", "1", "--k", "0.5", "--n", "64",
          "--out", "nodir/s.json"]),
    ({}, ["profile", "--family", "dn", "--r", "1", "--k", "0.5", "--n", "64",
          "--out", "nodir/p.csv"]),
], ids=["missing-config", "invalid-json", "json-array", "spectrum-out", "profile-out"])
def test_cli_outside_input_exit(tmp_path, monkeypatch, capsys, files, argv):
    # an unreadable config or an unwritable --out is exit 2, not a traceback
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_cli_evolve_zero_epsilon_is_strict_json(tmp_path, capsys):
    # the initial distance is 0: the growth ratio was written as Infinity
    ret = cli.main(["evolve", "--family", "dn", "--r", "1", "--k", "0.5",
                    "--epsilon", "0", "--T", "0.1", "--dt", "0.01",
                    "--n", "64", "--out", str(tmp_path)])
    assert ret == 0
    for text in (capsys.readouterr().out, (tmp_path / "manifest.json").read_text()):
        man = json.loads(text, parse_constant=_reject_constant)
        assert man["initial_distance"] == 0.0
        assert man["growth_ratio"] is None


def test_cli_evolve_blow_up_exit(tmp_path, monkeypatch, capsys):
    # a non-finite state exits 4 after both files are written
    step = ev.step_strang

    def poisoned(state, dt):
        new = step(state, dt)
        if new.t > 0.065:
            u = new.u.copy()
            u[3] = np.nan
            new = ev.EvolutionState(u, new.t, new.r, new.grid)
        return new

    monkeypatch.setattr(ev, "step_strang", poisoned)
    ret = cli.main(["evolve", "--family", "dn", "--r", "1", "--k", "0.5",
                    "--epsilon", "0.01", "--T", "0.5", "--dt", "0.01",
                    "--n", "64", "--out", str(tmp_path)])
    assert ret == 4
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: state became non-finite at t = 0.07\n"
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man == json.loads(captured.out)
    assert man["blow_up"] == pytest.approx(0.07, abs=1e-12)
    assert (tmp_path / "trajectory.csv").exists()


def test_cli_spectrum_out_matches_stdout(tmp_path, capsys):
    argv = ["spectrum", "--family", "dnq", "--r", "2", "--k", "0.95", "--n", "64"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "spec.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text() == printed


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every waves line of the README's CLI block, as written there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("waves ")]
    assert any("--config cfg.json" in ln for ln in lines)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"k": 0.5}))
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_cli_evolve(tmp_path, capsys):
    ret = cli.main(["evolve", "--family", "dn", "--r", "1", "--k", "0.5",
                    "--epsilon", "0.01", "--T", "0.5", "--dt", "0.005",
                    "--out", str(tmp_path)])
    assert ret == 0
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["blow_up"] is None
    assert man["n"] == 512
    assert (tmp_path / "trajectory.csv").exists()
    capsys.readouterr()


def test_cli_figures(tmp_path, capsys):
    ret = cli.main(["figures", "--out", str(tmp_path / "figs")])
    assert ret == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert len(listed) == 12
    for p in listed:
        assert (tmp_path / "figs").as_posix() in p


# ----------------------------------------------------------------------
# import path
# ----------------------------------------------------------------------

def test_import_skips_optimize():
    # the package needs no root finder, quadrature, special function or
    # FFT from scipy, and a fresh import must not pay for loading them
    # (tens of ms for scipy.special alone, about 0.1 s for scipy.fft,
    # whose transforms numpy gives in place too); only a new process sees
    # this, since any test module may already have loaded them here
    src = os.path.dirname(os.path.dirname(skwave.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, skwave; print([m for m in sys.modules if m.startswith("
            "('scipy.special', 'scipy.optimize', 'scipy.integrate', "
            "'scipy.fft'))])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
