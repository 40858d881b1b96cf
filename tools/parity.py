"""Write the outputs a refactor must leave unchanged, as one canonical
JSON file, for the tree this script sits in.

The file holds the ``to_dict()`` of every ``line_verdicts`` and
``periodic_sweep`` verdict of the benchmark at seeds 0-3 (points from
``perfbench/workloads.py``'s ``build``), ``spectrum_report`` at the
five acceptance points, and the three c9 stability experiments at
T = 2: each one's manifest with the sha256 of its final state's bytes
and of its monitor lists.  Keys are sorted and every float is written
in its shortest round-trip form, so two trees agree bit for bit exactly
where their files are byte-identical:

    python3 tools/parity.py change.json
    python3 <copy of the parent>/tools/parity.py parent.json
    cmp parent.json change.json

The script reads the tree it sits in, so a parent whose own copy
predates a section is compared by running this copy from the parent's
``tools/``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(4)
WORKLOADS = ("line_verdicts", "periodic_sweep")
ACCEPTANCE_POINTS = (("solitary", 1, 1.0), ("solitary", 2, 0.5),
                     ("solitary", 4, 0.3), ("periodic_dn", 1, 0.5),
                     ("periodic_dn_quotient", 2, 0.5))
# the c9 runs: (family, r, parameter, even perturbation)
STABILITY_RUNS = (("periodic_dn", 1, 0.5, False), ("solitary", 2, 0.5, False),
                  ("solitary", 4, 0.3, True))
STABILITY_T = 2.0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trajectory(family: str, r: int, at: float, even: bool) -> dict:
    """One c9 run to ``STABILITY_T``: its manifest, the sha256 of its
    final state's bytes and of its monitor lists (floats in their
    shortest round-trip form)."""
    from skwave import evolution

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="r = 4 evolution")
        res = evolution.stability_experiment(family, r, at, 1e-2, STABILITY_T,
                                             even=even)
    monitors = json.dumps(asdict(res.evolution.monitors), sort_keys=True)
    return {"manifest": res.manifest(),
            "state_sha256": _sha256(res.evolution.state.u.tobytes()),
            "monitors_sha256": _sha256(monitors.encode())}


def outputs() -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import skwave
    if Path(skwave.__file__).resolve().parent != ROOT / "src" / "skwave":
        raise SystemExit(f"skwave imported from {skwave.__file__}, not {ROOT / 'src'}")
    from skwave import report
    from workloads import build

    out = {name: {str(seed): [{"op": op.label, "verdict": op.run().to_dict()}
                              for op in build(name, seed).ops]
                  for seed in SEEDS}
           for name in WORKLOADS}
    out["spectrum_report"] = [report.spectrum_report(*point)
                              for point in ACCEPTANCE_POINTS]
    out["trajectories"] = [trajectory(*run) for run in STABILITY_RUNS]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/parity.py OUT.json", file=sys.stderr)
        return 2
    with open(argv[0], "w") as fh:
        json.dump(outputs(), fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
