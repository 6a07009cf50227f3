#!/usr/bin/env python3
"""Monte Carlo scaling study on a nearly linear instance.

Sweeps the horizon, printing mean suboptimality of the final iterate, its
sqrt(T)-scaled value, the never-hit count and (where the distribution is
rich enough) the fitted tail decay rate.  With the default epsilon = 0.5
the walk is genuinely stochastic and the scaled means stay flat; epsilon
close to 1 degenerates the two-point oracle toward a deterministic zigzag.

Exit status: 0 on success, 2 with one error line for an input the study
cannot serve (a bad horizon list or a horizon below 1, epsilon outside
(0, 1], fewer than 100 trials, a seed outside [0, 2^64), an unwritable
--out, too many trials for memory).  The argument types and the exit-2
guard are those of the ``lastiter`` command line.

Usage:
    python scripts/mc_scaling_study.py --epsilon 0.5 --trials 10000
"""

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lastiter import cli  # noqa: E402
from lastiter import nearly_linear as nl  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shape", choices=nl.SHAPES, default="abs")
    ap.add_argument("--epsilon", type=float, default=0.5)
    ap.add_argument("--band-ratio", type=float, default=1.0)
    ap.add_argument("--horizons", type=cli.int_list, default="100,400,1600,6400")
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--x0", type=float, default=None)
    ap.add_argument("--seed", type=cli.seed_int, default=0)
    ap.add_argument("--out", default=None, help="optional JSON output path")
    args = ap.parse_args(cli.attach_negative_numbers(sys.argv[1:]))
    with cli.usage_errors(ap):
        return study(args)


def study(args) -> int:
    inst = nl.build_nearly_linear(args.shape, 1.0, 1.0, args.epsilon, args.band_ratio)
    x0 = args.x0 if args.x0 is not None else inst.hi
    if args.trials < nl.MIN_TRIALS:
        raise ValueError(f"need at least {nl.MIN_TRIALS} trials for a stable mean")
    if min(args.horizons) < 1:
        raise ValueError(f"--horizons must all be >= 1, got {min(args.horizons)}")
    rows = []
    print(f"{'T':>6} {'mean':>12} {'mean*sqrtT':>12} {'se':>10} {'never':>6} {'rate':>8}")
    for T in args.horizons:
        stats = nl.simulate_paths(inst, T, args.trials, x0, seed=args.seed)
        mean, se = nl.expected_suboptimality(stats)
        try:
            rate = nl.tail_estimate(stats).rate
            rate_txt = f"{rate:8.3f}"
        except ValueError:
            rate, rate_txt = None, "     n/a"
        print(f"{T:>6} {mean:12.6f} {mean * math.sqrt(T):12.4f} {se:10.6f} "
              f"{stats.never_hit_count:>6} {rate_txt}")
        rows.append({"T": T, "mean": mean, "se": se,
                     "scaled_mean": mean * math.sqrt(T),
                     "never_hit": stats.never_hit_count, "tail_rate": rate})

    if args.out:
        payload = {"shape": args.shape, "epsilon": args.epsilon,
                   "band_ratio": args.band_ratio, "trials": args.trials,
                   "x0": x0, "seed": args.seed, "rows": rows}
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
