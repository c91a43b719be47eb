"""Fit a workload's host sensitivity from the runs it has left behind.

    python3 perfbench/fit_sensitivity.py WORKLOAD

Reads every .perfbench_work/WORKLOAD-seed*-trace0/summary.json and fits
log(command wall time) = intercept + alpha * log(probe time), with one
intercept per run and input (the work of a command differs between inputs
and seeds; the host's speed is what varies within them), and the same for
set-up times with one intercept per run. alpha is how a time scales with
the speed probe_kernel() sees: 1 for work that slows down as much as the
pure-Python probe, 0 for work the host's slow periods do not touch.
`host_sensitivity` in gen.py and SETUP_SENSITIVITY in run.py hold the
values.
"""

from __future__ import annotations

import glob
import json
import math
import os
import sys


def _slope(groups) -> tuple[float, int]:
    """Least-squares slope of y on x with one intercept per group."""
    sxy = sxx = 0.0
    n = 0
    for pts in groups:
        if len(pts) < 2:
            continue
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        n += len(pts)
    return (sxy / sxx if sxx else float("nan")), n


def fit(workload: str, root: str = ".") -> dict:
    commands: dict[tuple, list] = {}
    setups: list[list] = []
    pattern = os.path.join(root, ".perfbench_work", f"{workload}-seed*-trace0", "summary.json")
    for path in sorted(glob.glob(pattern)):
        with open(path) as fh:
            summary = json.load(fh)
        for r in summary["runs"]:
            if not r.get("failed", True) and r.get("probe_s"):
                commands.setdefault((path, r["input"]), []).append(
                    (math.log(r["probe_s"]), math.log(r["run_s"])))
        setups.append([(math.log(c["setup_probe_s"]), math.log(c["setup_s"]))
                       for c in summary.get("children", []) if c.get("setup_probe_s")])
    return {"command": _slope(commands.values()), "setup": _slope(setups)}


if __name__ == "__main__":
    for part, (alpha, n) in fit(sys.argv[1]).items():
        print(f"{sys.argv[1]} {part}: alpha {alpha:.3f} from {n} samples")
