"""Spans around the calls into each skwave module's public functions.

While a ``Tracer`` is installed, each function listed in ``LAYERS`` is
replaced, in every skwave namespace that binds it, by a wrapper that
records one span (name, tag, start, end, parent span, op instance).  The
spans therefore follow the calls in the order the program makes them.
Spans stay in memory; ``save`` writes them out when the run ends.
Nothing inside ``src/`` is changed, and an uninstalled tracer costs
nothing.  Unlisted functions count to their caller: trivial helpers
(quadrature, grids, wavenumbers), and the kernel solvers that call back
into the program (integrate_ivp, find_root_bracketed), so that the RK45
theta counts to spectral and the dnq amplitude solve to waves.
"""

from __future__ import annotations

import contextlib
import functools
import io
import statistics
import time

import numpy as np

import skwave
from skwave import (cli, elliptic, evolution, functionals, kernel, report,
                    spectral, waves)

FAMILY_TAGS = {waves.SOLITARY: "solitary", waves.PERIODIC_DN: "dn",
               waves.PERIODIC_DNQ: "dnq"}


def _grid(grid) -> str:
    return f"{grid.topology}{grid.n}"


def _family(family, *args, **kwargs) -> str:
    return FAMILY_TAGS.get(family, str(family))


# module -> {public function: tagger(*args, **kwargs) or None}
LAYERS = {
    kernel: {"symmetric_eigen": None},
    elliptic: {"jacobi": lambda u, k: ("scalar" if np.ndim(u) == 0
                                       else f"vec{np.size(u)}"),
               "complete_K": None, "complete_E": None, "complete_Pi": None},
    waves: {"solve_family": _family, "sample_profile": None},
    functionals: {"vk_slope": _family},
    spectral: {"assemble": lambda kind, p: _grid(p.grid),
               "spectrum": lambda op, *a, **k: _grid(op.profile.grid),
               "spectrum_even": lambda op, *a, **k: _grid(op.profile.grid),
               "floquet_theta": lambda p, *a, **k: FAMILY_TAGS[p.params.family]},
    evolution: {"stability_experiment": None,
                # tag: the number of steps the call takes
                "evolve": lambda u0, grid, r, T, dt, *a, **k: max(1, round(T / dt)),
                "step_strang": None,
                "orbital_distance": lambda u, p, rotation_only=False:
                    "rotate" if rotation_only else "translate"},
    report: {"verdict": None},
    cli: {"main": None},
}
MODULES = tuple(m.__name__.rsplit(".", 1)[1] for m in LAYERS)
NAMESPACES = (skwave, *LAYERS)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.name, self.tag, self.parent, self.op = [], [], [], []
        self.start, self.end = [], []
        self.op_kind = []      # op instance -> op index in the pass, -1 probe
        self._stack = [-1]
        self._op = -1
        self._patches = []
        for module, functions in LAYERS.items():
            short = module.__name__.rsplit(".", 1)[1]
            for fname, tagger in functions.items():
                fn = getattr(module, fname)
                wrapper = self._wrap(f"{short}.{fname}", fn, tagger)
                self._patches += [(ns, attr, fn, wrapper)
                                  for ns in NAMESPACES
                                  for attr, val in vars(ns).items() if val is fn]

    def _open(self, name, tag) -> int:
        i = len(self.start)
        self.name.append(name)
        self.tag.append(tag)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, tagger):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = None
            if tagger is not None:
                try:
                    tag = tagger(*args, **kwargs)
                except (TypeError, AttributeError, KeyError):
                    tag = None
            i = self._open(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return traced

    @contextlib.contextmanager
    def op_span(self, kind: int):
        """One traced operation: an op span around the wrappers."""
        self._op = len(self.op_kind)
        self.op_kind.append(kind)
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        i = self._open("op", None)
        try:
            yield
        finally:
            self._close(i)
            for ns, attr, fn, _ in reversed(self._patches):
                setattr(ns, attr, fn)
            self._op = -1

    def save(self, path) -> None:
        names = sorted(set(self.name))
        code = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path, names=np.array(names),
            name=np.array([code[n] for n in self.name], dtype=np.int16),
            tag=np.array([str(t) for t in self.tag]),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.int32),
            op_kind=np.array(self.op_kind, dtype=np.int32))


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

class SpanTable:
    """Column view of a tracer's spans with self times."""

    def __init__(self, tracer: Tracer):
        self.name = np.array(tracer.name, dtype=object)
        self.tag = np.array(tracer.tag, dtype=object)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.op = np.array(tracer.op, dtype=np.int64)
        self.op_kind = np.array(tracer.op_kind, dtype=np.int64)
        self.from_workload = (self.op >= 0) & (self.op_kind[self.op] >= 0)
        self.dur = np.array(tracer.end) - np.array(tracer.start)
        children = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - children
        self.module = np.array([n.split(".", 1)[0] for n in self.name], dtype=object)

    def select(self, name, tag=None, parent=None, parent_tag=None) -> np.ndarray:
        mask = self.name == name
        if tag is not None:
            mask &= self.tag == tag
        if parent is not None:
            up = np.where(self.parent >= 0, self.parent, 0)
            mask &= (self.parent >= 0) & (self.name[up] == parent)
            if parent_tag is not None:
                mask &= self.tag[up] == parent_tag
        return mask

    def median(self, mask, values=None, scale=1e3) -> float:
        """Median over the workload's own spans, or over the probe's where
        the workload makes no such call."""
        values = self.dur if values is None else values
        if np.any(mask & self.from_workload):
            mask = mask & self.from_workload
        elif not np.any(mask):
            return float("nan")
        return scale * float(np.median(values[mask]))

    def per_pass(self, n_ops: int, values: np.ndarray) -> float:
        """Sum over the pass's ops of the mean, over that op's traced
        instances, of ``values`` summed within an instance."""
        traced = self.op >= 0
        sums = np.bincount(self.op[traced], weights=values[traced],
                           minlength=self.op_kind.size)
        return float(sum(np.mean(sums[self.op_kind == kind])
                         for kind in range(n_ops)
                         if np.any(self.op_kind == kind)))


SIZES = ("line1024", "line2048", "torus512")


def layer_metrics(t: SpanTable, n_ops: int) -> dict:
    """Per-layer metrics (value, unit) from one traced run."""
    us = 1e6
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for size in SIZES:
        put(f"kernel.symmetric_eigen_ms.{size}",
            t.median(t.select("kernel.symmetric_eigen", parent="spectral.spectrum",
                              parent_tag=size)), "ms")
    for fname in ("assemble", "spectrum"):
        for size in SIZES:
            put(f"spectral.{fname}_ms.{size}",
                t.median(t.select(f"spectral.{fname}", tag=size)), "ms")
    for size in SIZES[:2]:
        put(f"spectral.spectrum_even_ms.{size}",
            t.median(t.select("spectral.spectrum_even", tag=size)), "ms")
    for fam in ("dn", "dnq"):
        put(f"spectral.floquet_theta_ms.{fam}",
            t.median(t.select("spectral.floquet_theta", tag=fam)), "ms")
    put("elliptic.jacobi_scalar_us",
        t.median(t.select("elliptic.jacobi", tag="scalar"), scale=us), "us")
    put("elliptic.jacobi_vec512_us",
        t.median(t.select("elliptic.jacobi", tag="vec512"), scale=us), "us")
    for fam in ("solitary", "dn", "dnq"):
        put(f"waves.solve_family_ms.{fam}",
            t.median(t.select("waves.solve_family", tag=fam)), "ms")
    put("waves.sample_profile_ms", t.median(t.select("waves.sample_profile")), "ms")
    for fam in ("solitary", "dn", "dnq"):
        put(f"functionals.vk_slope_ms.{fam}",
            t.median(t.select("functionals.vk_slope", tag=fam)), "ms")

    step = t.median(t.select("evolution.step_strang"), scale=us)
    evolve = t.select("evolution.evolve")
    steps = np.array([s if isinstance(s, int) else 1 for s in t.tag], dtype=float)
    evolve_step = t.median(evolve, t.dur / steps, scale=us)
    put("evolution.step_strang_us", step, "us")
    put("evolution.evolve_step_us", evolve_step, "us")
    put("evolution.monitor_share", 1.0 - step / evolve_step, "fraction")
    for kind in ("translate", "rotate"):
        put(f"evolution.orbital_distance_us.{kind}",
            t.median(t.select("evolution.orbital_distance", tag=kind), scale=us), "us")

    put("report.self_ms", t.median(t.select("report.verdict"), t.self_time), "ms")
    put("cli.overhead_ms", t.median(t.select("cli.main"), t.self_time), "ms")

    # shares and counts of the workload's pass (probe spans excluded)
    pass_time = t.per_pass(n_ops, np.where(t.name == "op", t.dur, 0.0))
    for module in MODULES:
        if module != "cli":
            busy = t.per_pass(n_ops, np.where(t.module == module, t.self_time, 0.0))
            put(f"{module}.share", busy / pass_time, "fraction")
    for name, tag, metric in (
            ("kernel.symmetric_eigen", None, "kernel.symmetric_eigen_calls"),
            ("elliptic.jacobi", "scalar", "elliptic.jacobi_scalar_calls"),
            ("evolution.step_strang", None, "evolution.step_strang_calls")):
        put(metric, t.per_pass(n_ops, t.select(name, tag).astype(float)), "count")
    return out


# ----------------------------------------------------------------------
# fixed calls shared by every workload's traced run
# ----------------------------------------------------------------------

def probe(tracer) -> None:
    """Fixed calls, the same in every workload, so that each per-call
    metric has samples even where the workload bypasses the layer."""
    def line2048():
        params = waves.solve_family(waves.SOLITARY, 4, 0.3)
        prof = waves.sample_profile(params, waves.default_grid(params, 2048))
        spectral.spectrum(spectral.assemble("L_Re", prof))
        spectral.spectrum_even(spectral.assemble("L_Re", prof))

    calls = [
        lambda: cli.main(["verdict", "--family", "dn", "--r", "1", "--k", "0.5"]),
        lambda: report.verdict(waves.PERIODIC_DNQ, 2, 0.5),
        lambda: report.verdict(waves.SOLITARY, 4, 0.3, n=1024),
        line2048,
        # 200 steps at the T = 20 runs' cadence: the distance every 100
        lambda: evolution.stability_experiment(waves.PERIODIC_DN, 1, 0.5, 1e-2, 0.2,
                                               log_every=100),
        lambda: evolution.stability_experiment(waves.SOLITARY, 4, 0.3, 1e-2, 0.2,
                                               even=True, log_every=100),
    ]
    for call in calls:
        with tracer.op_span(-1), contextlib.redirect_stdout(io.StringIO()):
            call()


def fft_floor_us(n: int = 512, repeats: int = 2000) -> float:
    """Median time of one numpy fft+ifft pair at size n."""
    u = np.exp(1j * np.linspace(0.0, 6.0, n))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.fft.ifft(np.fft.fft(u))
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)
