"""The benchmark harness runs against this source tree and prints a
result line that strict JSON readers accept."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# a count, over the workload's own pass, of a call that the workload's
# per-layer metrics stand on
OWN_CALLS = {"line_verdicts": "kernel.symmetric_eigen_calls",
             "periodic_sweep": "elliptic.jacobi_scalar_calls",
             "stability_t20": "evolution.step_strang_calls"}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _listing(path: Path) -> list:
    return sorted(p.name for p in path.iterdir()) if path.is_dir() else []


def _run_copied(tmp_path, workload: str, trace: int) -> dict:
    """One ``--seconds 0`` run of the harness on a copy of this tree; its
    result line, read by a strict JSON reader."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(script, bench)
    # a copy, not a symlink: run.py checks where skwave resolves to
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out_before = _listing(ROOT / "perfbench" / "out")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _listing(ROOT / "perfbench" / "out") == out_before
    result = json.loads(proc.stdout.strip().splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", sorted(OWN_CALLS))
def test_traced_result_is_strict_json(tmp_path, workload):
    # a per-layer metric whose function no call makes any more reads
    # nan, which json.dumps writes as the non-JSON token NaN
    result = _run_copied(tmp_path, workload, trace=1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        assert math.isfinite(value), metric["name"]
    assert result["metrics"][OWN_CALLS[workload]]["value"] > 0


def test_untraced_periodic_result_is_strict_json(tmp_path):
    # the end-to-end metrics come from an untraced run, whose outputs
    # must be correct and well formed too
    result = _run_copied(tmp_path, "periodic_sweep", trace=0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        assert math.isfinite(value) and value > 0, metric["name"]
