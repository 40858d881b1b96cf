"""skwave benchmark: three closed-loop workloads through the public API.

    python3 perfbench/run.py --workload line_verdicts --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one caller: each operation starts when the
previous one returns.  OpenBLAS is pinned to ``nproc`` threads before
numpy loads.

--trace 0 measures the end-to-end metrics: the median set-up time of
fresh interpreters, the pass time (the sum over the pass's operations of
each one's median), peak RSS, and the check results.  On a shared 2-vCPU
virtual machine the speed of interpreter-bound work drifts by up to a
third over minutes.  So every timed interval is divided by a fixed
calibration loop of the same kind of work, timed next to it, and
multiplied by that loop's reference time: the declared ``setup_s`` and
``pass_ref_s`` are seconds at the host speed where the loop takes its
reference time.  Set-up and the periodic and stability operations use an
interpreter-and-FFT loop; the line operations, which are BLAS-bound, use
a dense eigensolve.  The wall-clock figures are reported beside them.

--trace 1 is a separate run that times every call into the modules'
public functions (see ``tracing.py``) and reports the per-layer metrics.

The last line of standard output is the result object; the line before
it is the full per-workload report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("line_verdicts", "periodic_sweep", "stability_t20")
SETUP_REPEATS = 5
SETUP_CHILD = ("import sys; sys.path[:0] = [{src!r}, {here!r}]; "
               "import skwave, workloads; workloads.warm_caches()")

# the declared metrics, with units, in the order BENCHMARK.json lists them
END_TO_END = {"setup_s": "s", "pass_ref_s": "s", "peak_rss_mib": "MiB"}


def pin_blas_threads() -> int:
    n = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(n)
    return n


def provenance(seed: int, nproc: int) -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas_threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    if libs:
        get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            blas_threads = get()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    blas = lambda mod: mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    return {"seed": seed, "nproc": nproc, "blas_threads": blas_threads,
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas(np), "openblas_scipy": blas(scipy),
            "python": sys.version.split()[0], "git_commit": commit}


def measure_setup(calibrate) -> tuple:
    """Wall times of fresh interpreters importing skwave and filling the
    per-r caches, as every ``waves`` call pays it, and the same at the
    calibration loop's reference speed."""
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE))
    wall, ref = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
        ref.append(wall[-1] * calibrate.ref_s / ((before + calibrate()) / 2))
    return wall, ref


class Ledger:
    """Attempted/failed operations and the check results."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.verdicts = self.conclusive = 0
        self.failures = []
        self.energy_drift = []
        self.witness = []

    def record(self, op, outcome) -> None:
        self.attempted += 1
        if outcome.failures:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.label}: {'; '.join(outcome.failures)}")
        if outcome.conclusive is not None:
            self.verdicts += 1
            self.conclusive += outcome.conclusive
        if outcome.energy_drift is not None:
            self.energy_drift.append(outcome.energy_drift)
        if outcome.witness is not None:
            self.witness.append(outcome.witness)


def run_op(op, ledger: Ledger, span=None) -> float:
    """Run one operation (inside ``span``, a context manager, if given),
    then check it, and return the wall time of the run alone."""
    import workloads

    t0 = time.perf_counter()
    try:
        with span or contextlib.nullcontext():
            out = op.run()
    except Exception as exc:  # a raising operation counts as failed
        elapsed = time.perf_counter() - t0
        ledger.record(op, workloads.Outcome([f"raised {type(exc).__name__}: {exc}"]))
        return elapsed
    elapsed = time.perf_counter() - t0
    try:
        outcome = op.check(out)
    except Exception as exc:  # a malformed result fails its check
        outcome = workloads.Outcome([f"check raised {type(exc).__name__}: {exc}"])
    ledger.record(op, outcome)
    return elapsed


def closed_loop(workload, seconds: float, step) -> None:
    """Call ``step(i, op)`` for the pass's operations in order, pass after
    pass, until at least one pass is done and ``seconds`` have elapsed;
    the last pass may stop part way."""
    t0 = time.perf_counter()
    passes = 0
    while True:
        for i, op in enumerate(workload.ops):
            if passes and time.perf_counter() - t0 >= seconds:
                return
            step(i, op)
        passes += 1


class Calibration:
    """A fixed loop of interpreter arithmetic, small FFTs and a small dense
    eigensolve, the mix of the set-up and of the periodic and stability
    operations.  The fastest of three repeats is taken, so that a
    transient (such as BLAS threads still spinning after a large solve)
    does not count.  ``ref_s`` is its time on a reference host."""

    ref_s = 2.5e-3

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.exp(1j * np.linspace(0.0, 6.0, 512))
        m = np.random.default_rng(0).standard_normal((96, 96))
        self.m = m + m.T

    def work(self) -> None:
        np = self.np
        for _ in range(40):
            np.fft.ifft(np.fft.fft(self.x) * self.x)
            sum(i * 0.5 for i in range(200))
        np.linalg.eigh(self.m)

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - t0)
        return best


class BlasCalibration(Calibration):
    """A dense symmetric eigensolve at n = 512, at the pinned BLAS thread
    count: the kind of work (dense eigh and assembly) that takes ~80% of
    a line operation."""

    ref_s = 40e-3

    def __init__(self):
        import numpy as np

        self.np = np
        m = np.random.default_rng(0).standard_normal((512, 512))
        self.m = m + m.T

    def work(self) -> None:
        self.np.linalg.eigh(self.m)


def pass_seconds(samples: list) -> float:
    """Sum over the pass's operations of each operation's median time."""
    return sum(statistics.median(s) for s in samples)


def pass_tail(samples: list) -> dict:
    """Highest percentile with at least ten samples beyond it, of each
    sample over its operation's median, scaled to the pass time."""
    ratios = sorted(t / statistics.median(s) for s in samples for t in s)
    n = len(ratios)
    if n < 20:
        return {"value": None, "unit": "s", "samples": n,
                "note": "under 20 samples: no percentile from the median up "
                        "has ten beyond it"}
    return {"value": pass_seconds(samples) * ratios[n - 11], "unit": "s",
            "percentile": round(100.0 * (n - 10) / n, 1), "samples": n}


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = pin_blas_threads()
    if not (SRC / "skwave" / "__init__.py").is_file():
        print(f"error: no skwave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skwave

    if Path(skwave.__file__).resolve().parent != SRC / "skwave":
        print(f"error: skwave imported from {skwave.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    calibrate = Calibration()
    setup_wall, setup_ref = ([], []) if args.trace else measure_setup(calibrate)
    workloads.warm_caches()
    workload = workloads.build(args.workload, args.seed)
    for warm in workload.warmup:
        try:
            warm()
        except Exception:  # the timed operations record any failure
            pass

    ledger = Ledger()
    untraced = [[] for _ in workload.ops]
    report = {"workload": args.workload, "trace": bool(args.trace),
              "provenance": provenance(args.seed, nproc),
              "load": "closed loop, 1 caller", "inputs": workload.inputs}

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        traced = [[] for _ in workload.ops]
        tracing.probe(tracer)

        def step(i, op):
            untraced[i].append(run_op(op, ledger))
            traced[i].append(run_op(op, ledger, tracer.op_span(i)))

        closed_loop(workload, args.seconds, step)
        table = tracing.SpanTable(tracer)
        layers = tracing.layer_metrics(table, len(workload.ops))
        done = [i for i, s in enumerate(traced) if s]
        base = pass_seconds([untraced[i] for i in done])
        overhead = pass_seconds([traced[i] for i in done]) - base
        floor = tracing.fft_floor_us()
        layers["evolution.fft_floor_us"] = (floor, "us")
        layers["evolution.step_overhead_ratio"] = (
            layers["evolution.step_strang_us"][0] / floor, "ratio")
        layers["trace.overhead_frac"] = (overhead / base, "fraction")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(span_file)
        report.update({"spans": len(tracer.start),
                       "span_file": str(span_file.relative_to(ROOT)),
                       "tracing_overhead_s": overhead, "untraced_pass_s": base})
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        op_calibrate = BlasCalibration() if workload.blas_bound else calibrate
        calib = [op_calibrate()]
        relative = [[] for _ in workload.ops]

        def step(i, op):
            untraced[i].append(run_op(op, ledger))
            calib.append(op_calibrate())
            relative[i].append(untraced[i][-1] * op_calibrate.ref_s
                               / ((calib[-2] + calib[-1]) / 2))

        closed_loop(workload, args.seconds, step)
        values = {"setup_s": statistics.median(setup_ref),
                  "pass_ref_s": pass_seconds(relative),
                  "peak_rss_mib": peak_rss_mib()}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        report["setup_wall_s"] = {"value": statistics.median(setup_wall), "unit": "s",
                                  "samples": setup_wall}
        report["pass_s"] = {"value": pass_seconds(untraced), "unit": "s"}
        report["calibration_ms"] = {"value": 1e3 * statistics.median(calib),
                                    "kind": type(op_calibrate).__name__,
                                    "ref_ms": 1e3 * op_calibrate.ref_s,
                                    "unit": "ms", "samples": len(calib)}
        report["pass_tail_s"] = pass_tail(untraced)
        report["op_times_s"] = [[round(t, 4) for t in s] for s in untraced]

    # end-to-end figures that do not apply to every workload
    report["failed_frac"] = {"value": ledger.failed / ledger.attempted,
                             "unit": "fraction"}
    if ledger.verdicts:
        report["conclusive_frac"] = {"value": ledger.conclusive / ledger.verdicts,
                                     "unit": "fraction"}
    if ledger.energy_drift:
        report["energy_drift"] = {"value": max(ledger.energy_drift), "unit": "relative"}
        report["hamiltonian_drift_witness"] = {"value": max(ledger.witness),
                                               "unit": "relative"}
    report["checks"] = {"attempted": ledger.attempted, "failed": ledger.failed,
                        "failures": ledger.failures}
    report["metrics"] = metrics
    print(json.dumps(report))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
