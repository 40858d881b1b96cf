"""Write the outputs a refactor must leave unchanged, as one canonical
JSON file, for the tree this script sits in.

The file holds the ``to_dict()`` of every ``line_verdicts`` and
``periodic_sweep`` verdict of the benchmark at seeds 0-3 (points from
``perfbench/workloads.py``'s ``build``), and ``spectrum_report`` at the
five acceptance points.  Keys are sorted and every float is written in
its shortest round-trip form, so two trees agree bit for bit exactly
where their files are byte-identical:

    python3 tools/parity.py change.json
    python3 <copy of the parent>/tools/parity.py parent.json
    cmp parent.json change.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(4)
WORKLOADS = ("line_verdicts", "periodic_sweep")
ACCEPTANCE_POINTS = (("solitary", 1, 1.0), ("solitary", 2, 0.5),
                     ("solitary", 4, 0.3), ("periodic_dn", 1, 0.5),
                     ("periodic_dn_quotient", 2, 0.5))


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
