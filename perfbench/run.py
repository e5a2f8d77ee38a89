#!/usr/bin/env python3
"""ncfree benchmark: run one workload with one seed, check it, print metrics.

    python3 perfbench/run.py --workload spectra --seed 0 --seconds 20 --trace 0

Run from the repository root.  Each workload runs in a fresh child process
with a pinned environment; set-up is repeated in further fresh processes and
reported as a median.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from measure import tail_latency  # noqa: E402

SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0
# The tail percentile is chosen for a run of this many passes, the fewest a
# run makes at the default --seconds; see measure.tail_latency.
REF_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "throughput_jobs_s": "jobs/s",
    "lat_p50_s": "s",
    "lat_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ncpartition.enumerate_nc_s": "s",
    "ncpartition.kreweras_s": "s",
    "ncpartition.partitions": "count",
    "rcyclic.cyclic_family_s": "s",
    "rcyclic.patterns": "count",
    "rcyclic.table_entries": "count",
    "rcyclic.family_moments_s": "s",
    "rcyclic.family_rtransform_s": "s",
    "series.h_series_s": "s",
    "rcyclic.closure_check_s": "s",
    "freeprob.moment_series_s": "s",
    "freeprob.moment_words": "count",
    "freeprob.r_transform_s": "s",
    "freeprob.m_from_r_s": "s",
    "series.boxed_inverse_s": "s",
    "series.out_coeffs": "count",
    "opvalued.check_amalgamated_freeness_s": "s",
    "opvalued.opvalued_cumulant_generic_s": "s",
    "opvalued.dcumulant_data_s": "s",
    "opvalued.dvalued_cumulant_s": "s",
    "opvalued.amalg_pass": "count",
    "opvalued.amalg_fail": "count",
    "mc.sample_block_moments_s": "s",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.series_s": "s",
    "cli.rcyclic_s": "s",
    "cli.check_s": "s",
    "cli.opcumulant_s": "s",
    "cli.verify_s": "s",
    "cli.mc_s": "s",
    "cli.exit_mismatch": "count",
    "trace.overhead_s": "s",
}


def pinned_env(root: str) -> dict[str, str]:
    """Environment shared by every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # bytecode goes to a benchmark-owned cache, never under src/
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, "perfbench", ".work", "pycache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(env: dict[str, str], args, out: str, timeout: float, setup_only: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
            str(args.trace), "--out", out]
    if setup_only:
        argv.append("--setup-only")
    subprocess.run(argv, env=env, check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def tail(res: dict, key: str = "latencies") -> tuple[float, float, int]:
    return tail_latency(res[key], REF_PASSES * res["jobs_per_pass"])


def end_to_end(res: dict, setups: list[dict], raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics from scaled times, or from unscaled ones."""
    key = "raw_latencies" if raw else "latencies"
    lat = res[key]
    return {
        "setup_s": statistics.median(s["setup_raw_s" if raw else "setup_s"] for s in setups),
        "throughput_jobs_s": (res["attempted"] - res["failed"]) / sum(lat),
        "lat_p50_s": statistics.median(lat),
        "lat_tail_s": tail(res, key)[0],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def report(args, res: dict, setups: list[float]) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    lat = res["latencies"]
    _, pct, beyond = tail(res)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['attempted']} jobs in {res['passes']} passes of {res['jobs_per_pass']}, "
          f"{sum(res['raw_latencies']):.3f} s of job time")
    if args.trace:
        metrics = {k: res["layers"][k] for k in PER_LAYER}
        for name, value in metrics.items():
            print(f"  {name:40s} {value:14.6f} {PER_LAYER[name]}")
        print("  self time per pass by span (s):")
        for name, value in res["layers"]["_self_s"].items():
            print(f"    {name:38s} {value:12.6f}")
        units = PER_LAYER
    else:
        metrics = end_to_end(res, setups)
        unscaled = end_to_end(res, setups, raw=True)
        print(f"  {'':20s} {'scaled':>12s}      {'unscaled':>12s}")
        for name, value in metrics.items():
            extra = f"  (p{pct:g}, {beyond} samples beyond, n={len(lat)})" if name == "lat_tail_s" else ""
            print(f"  {name:20s} {value:12.6f} {END_TO_END[name]:6s} {unscaled[name]:12.6f}{extra}")
        units = END_TO_END
    print(f"  {'fail_ratio':20s} {res['failed'] / res['attempted']:12.6f} ratio")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    for kb in res["known_broken"]:
        verdict = "still broken" if kb["code"] != kb["want"] else "fixed"
        print(f"  known-broken request (not timed): ncfree {kb['argv']}: exit {kb['code']}, "
              f"contract {kb['want']} -> {verdict}")
    if res["digests_checked"]:
        print("  outputs compared with digests recorded at the seed commit")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ncfree", "__init__.py")):
        print("error: run from the repository root; src/ncfree not found", file=sys.stderr)
        return 2
    env = pinned_env(root)
    work = os.path.join(root, "perfbench", ".work")
    os.makedirs(work, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    try:
        # untimed first set-up: fills the bytecode cache and writes inputs
        run_child(env, args, os.path.join(work, f"setup-{tag}.json"), 60, True)
        setups = [
            run_child(env, args, os.path.join(work, f"setup-{tag}.json"), 60, True)
            for _ in range(SETUP_REPEATS)
        ]
        left = RUN_BUDGET_S - (time.monotonic() - start)
        res = run_child(env, args, os.path.join(work, f"result-{tag}.json"), left, False)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res)
    print(json.dumps(report(args, res, setups)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
