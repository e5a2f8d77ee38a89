#!/usr/bin/env python3
"""Show the random-matrix moments converging to the exact predictions.

Samples block matrices at a sweep of sizes and prints, per moment, the
empirical deviation from the exact value next to the acceptance tolerance.

    python3 scripts/mc_crosscheck.py --spec scripts/mixed2x2.spec --trials 10
"""

import argparse
import sys
from pathlib import Path

from ncfree.cli import mc_radii, parse_spec
from ncfree.mc import McConfig, compare, exact_family_moments, sample_block_moments


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--sizes", default="64,128,256,512")
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-moment", type=int, default=6, dest="max_moment")
    args = ap.parse_args()

    try:
        spec = parse_spec(Path(args.spec).read_text(encoding="utf-8"))
        d, radii = spec.d, mc_radii(spec)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    sizes = [int(tok) for tok in args.sizes.split(",")]
    base = McConfig.of(d, radii, sizes[0], args.trials, args.seed)
    exact = exact_family_moments(base, args.max_moment)
    preds = {n: exact[n] for n in range(2, args.max_moment + 1, 2)}
    print("size\tmoment\texact\tempirical\tdeviation\ttolerance\tverdict")
    worst_fail = False
    for size in sizes:
        cfg = McConfig.of(d, radii, size, args.trials, args.seed)
        samples = sample_block_moments(cfg, args.max_moment)
        for report in compare(cfg, preds, samples):
            n = int(report.inputs.split()[0].split("=")[1])
            exact_str, tol_str = report.expected.split(" within ")
            mean_str, dev_str = report.actual.split(" off by ")
            verdict = "PASS" if report.passed else "FAIL"
            worst_fail |= not report.passed
            print(f"{size}\t{n}\t{exact_str}\t{mean_str}\t{dev_str}\t{tol_str}\t{verdict}")
    return 1 if worst_fail else 0


if __name__ == "__main__":
    sys.exit(main())
