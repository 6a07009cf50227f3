#!/usr/bin/env python3
"""Bound-vs-dimension curve data and log(d) slopes for all three worst-case
families.

For each family, runs the engine over d in a doubling grid at a fixed
horizon, verifies every trajectory against its closed form, and writes one
CSV per family with columns d, final_suboptimality, bound.  The files are
ready for external plotting.

Then it fits, by least squares over the rows with d >= 2, the slope of the
scaled final value (times T for sc, times sqrt(T) for the Lipschitz
families) against ln d.  The certified bounds are ln(d)/5 (sc) and
ln(d)/32 (Lipschitz) on that scale, so each slope is printed next to its
constant; all are written to slopes.json, with null for a family that ran
fewer than two dimensions d >= 2.

Exit status: the worst exit status of the sweeps (0 when every trajectory
verifies), or 2 with one error line when --out-dir cannot be made or written.

Usage:
    python scripts/bound_vs_dimension.py --T 4096 --out-dir results/
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lastiter import cli  # noqa: E402
from lastiter.constructions import FAMILIES, STRONGLY_CONVEX  # noqa: E402


def log_d_slope(curve_path: Path, family: str, T: int) -> float | None:
    """Least-squares slope of scaled final value against ln d, d >= 2."""
    with open(curve_path, newline="") as fh:
        rows = [(int(r["d"]), float(r["final_suboptimality"]))
                for r in csv.DictReader(fh) if int(r["d"]) >= 2]
    if len({d for d, _ in rows}) < 2:
        return None
    scale = T if family == STRONGLY_CONVEX else math.sqrt(T)
    x = np.log([d for d, _ in rows])
    y = scale * np.array([v for _, v in rows])
    return float(np.polyfit(x, y, 1)[0])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=int, default=4096)
    ap.add_argument("--dims", default="1,2,4,8,16,32,64")
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()
    try:
        return study(args)
    except OSError as exc:
        ap.error(str(exc))


def study(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    slopes = {}
    for family in FAMILIES:
        sweep_path = out_dir / f"sweep_{family}.csv"
        curve_path = out_dir / f"curve_{family}.csv"
        code = cli.main([
            "sweep", "--family", family, "--d", args.dims, "--T", str(args.T),
            "--out", str(sweep_path), "--curve-out", str(curve_path),
        ])
        print(f"{family}: wrote {sweep_path} and {curve_path} (exit {code})")
        status = max(status, code)
        certified = 1 / 5 if family == STRONGLY_CONVEX else 1 / 32
        slope = log_d_slope(curve_path, family, args.T)
        slopes[family] = {"slope": slope, "certified": certified}
        shown = "n/a" if slope is None else f"{slope:.4f}"
        print(f"{family}: slope of scaled final value vs ln d = {shown}"
              f" (certified {certified:.4f})")
    slopes_path = out_dir / "slopes.json"
    slopes_path.write_text(json.dumps({"T": args.T, "families": slopes},
                                      indent=2, sort_keys=True) + "\n")
    print(f"wrote {slopes_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
