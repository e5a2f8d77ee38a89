"""One workload in one fresh process: set up, measure, gate, report.

Started by run.py with a pinned environment; writes its raw results as JSON
to --out.  With --setup-only it stops after set-up and reports only its
set-up time.  Every timing is scaled by the speed factor taken next to it
(see measure.REF_QUIET_S); raw job times are kept beside the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import gen
from measure import REF_QUIET_S, Tracer, reference, speed_factor

WALL_CAP_S = 110.0
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def _median_run(argv: list[str], env: dict[str, str], times: int = 5) -> float:
    """Median scaled wall time of a short command in a fresh interpreter."""
    vals = []
    for _ in range(times):
        factor = speed_factor()
        t = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True)
        vals.append((time.perf_counter() - t) * factor)
    return statistics.median(vals)


def _nc_fresh(max_n: int, env: dict[str, str]) -> dict[str, float]:
    """Median of three cold NC(n) probes, each in a fresh interpreter."""
    code = (
        "import json, sys; sys.path.insert(0, 'perfbench'); import jobs, measure; "
        f"f = measure.speed_factor(); r = jobs.nc_probe({max_n}); "
        "print(json.dumps({k: v * f if k.endswith('_s') else v for k, v in r.items()}))"
    )
    runs = [
        json.loads(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
        ).stdout)
        for _ in range(3)
    ]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def prepare(workload: str, seed: int):
    """Set-up: import the library, make the inputs from the seed, warm NC caches.

    Returns the jobs module, the job list and the directory generated specs
    were written to.
    """
    import jobs

    job_list = gen.jobs_for(workload, seed)
    workdir = os.path.join("perfbench", ".work", f"{workload}-{seed}")
    os.makedirs(workdir, exist_ok=True)
    if workload == "cli":
        for name, text in job_list[0]["files"].items():
            with open(os.path.join(workdir, name + ".spec"), "w", encoding="utf-8") as fh:
                fh.write(text)
    jobs.warm_nc(gen.max_order(workload))
    return jobs, job_list, workdir


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    env = dict(os.environ)

    factor = speed_factor()
    t0 = time.perf_counter()
    J, job_list, workdir = prepare(args.workload, args.seed)
    setup = {"setup_raw_s": time.perf_counter() - t0}
    setup["setup_s"] = setup["setup_raw_s"] * factor
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(setup, fh)
        return 0

    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh).get(args.workload, {}).get(str(args.seed))

    tr = Tracer(False)
    runner = J.Runner(tr, env=env, workdir=workdir)
    signal.signal(signal.SIGALRM, _on_alarm)
    latencies: list[float] = []
    raw: list[float] = []
    scale: dict[str, float] = {}
    failures: list[str] = []
    traced_ranges: list[tuple[int, int]] = []
    counts: dict[str, int] = {}
    loop_start = time.perf_counter()
    measured = 0.0
    passes = 0

    def one_pass(traced: bool) -> bool:
        """Run every job once; False when the wall-clock cap cut the pass short."""
        nonlocal measured, passes
        first = len(tr.spans)
        complete = True
        for idx, job in enumerate(job_list):
            if time.perf_counter() - loop_start > WALL_CAP_S:
                complete = False
                break
            tr.job = f"{passes}:{idx}"
            before = reference()
            tr.enabled = traced
            signal.setitimer(signal.ITIMER_REAL, J.JOB_TIMEOUT_S + 5)
            t = time.perf_counter()
            try:
                res, err = runner.run(job), None
            except JobTimeout:
                res, err = None, "timeout"
            except Exception as exc:  # any library error is a failed job
                res, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0)
            tr.enabled = False
            # a long job can outlast a change in host load: take the reference
            # on both sides of it
            scale[tr.job] = factor = 2 * REF_QUIET_S / (before + reference())
            if err is None:
                try:
                    err = runner.gate(job, res)
                except Exception as exc:
                    err = f"gate raised {type(exc).__name__}: {exc}"
            if err is None and recorded is not None and J.digest(res["text"]) != recorded[idx]:
                err = "output differs from the digest recorded at the seed commit"
            if traced and passes == 0 and res is not None:
                # counts come from the first pass only, so they repeat exactly
                for k, v in runner.counts(job, res).items():
                    counts[k] = counts.get(k, 0) + v
            raw.append(dt)
            latencies.append(dt * factor)
            measured += dt
            if err is not None:
                failures.append(f"job {idx}: {err}")
        if traced:
            traced_ranges.append((first, len(tr.spans)))
        passes += 1
        return complete

    # Whole passes until --seconds of job time: every run measures the same
    # multiset of jobs, so percentiles do not depend on where a run stops.
    # A traced run alternates traced and untraced passes over the same jobs.
    while True:
        if not one_pass(bool(args.trace)):
            break
        if args.trace and not one_pass(False):
            break
        if measured >= args.seconds:
            break

    known_broken = []
    if args.workload == "cli":
        for argv in gen.KNOWN_BROKEN:
            code, _, _ = runner.request(list(argv))
            want = runner.expected(list(argv))[0]
            known_broken.append({"argv": " ".join(argv), "code": code, "want": want})
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    out = {
        **setup, "latencies": latencies, "raw_latencies": raw,
        "attempted": len(latencies), "failed": len(failures), "failures": failures[:20],
        "passes": passes, "jobs_per_pass": len(job_list), "peak_rss_mb": peak_rss_mb,
        "known_broken": known_broken, "digests_checked": recorded is not None,
    }
    if args.trace:
        out["layers"] = _layers(args, tr, scale, runner, job_list, traced_ranges, latencies,
                                counts, known_broken, env)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def _layers(args, tr, scale, runner, job_list, traced_ranges, latencies, counts,
            known_broken, env):
    """Per-layer numbers of a traced run: scaled seconds per pass over the job list."""
    npass = len(traced_ranges)
    # passes alternate traced, untraced; pair each job with its untraced rerun
    k = len(job_list)
    diffs = [latencies[i] - latencies[i + k] for p in range(0, len(latencies) - k, 2 * k)
             for i in range(p, min(p + k, len(latencies) - k))]
    self_s: dict[str, float] = {}
    for first, last in traced_ranges:
        for name, v in tr.self_times(scale, first, last).items():
            self_s[name] = self_s.get(name, 0.0) + v / npass
    probe_first = len(tr.spans)
    for idx, job in enumerate(job_list):
        tr.job = f"probe:{idx}"
        scale[tr.job] = speed_factor()
        tr.enabled = True
        runner.probe(job)
        tr.enabled = False
    probe_s = tr.self_times(scale, probe_first)
    nc = _nc_fresh(gen.max_order(args.workload), env)
    layers = {
        "ncpartition.enumerate_nc_s": nc["enumerate_nc_s"],
        "ncpartition.kreweras_s": nc["kreweras_s"],
        "ncpartition.partitions": nc["partitions"],
        "series.h_series_s": probe_s.get("series.h_series", 0.0),
        "mc.sample_block_moments_s": probe_s.get("mc.sample_block_moments", 0.0),
        "trace.overhead_s": k * statistics.median(diffs) if diffs else 0.0,
    }
    for name in (
        "rcyclic.cyclic_family", "rcyclic.family_moments", "rcyclic.family_rtransform",
        "rcyclic.closure_check", "freeprob.moment_series", "freeprob.r_transform",
        "freeprob.m_from_r", "series.boxed_inverse", "opvalued.check_amalgamated_freeness",
        "opvalued.opvalued_cumulant_generic", "opvalued.dcumulant_data",
        "opvalued.dvalued_cumulant",
    ):
        layers[name + "_s"] = self_s.get(name, 0.0)
    for name in ("rcyclic.patterns", "rcyclic.table_entries", "freeprob.moment_words",
                 "series.out_coeffs", "opvalued.amalg_pass", "opvalued.amalg_fail"):
        layers[name] = counts.get(name, 0)
    if args.workload == "cli":
        interp = _median_run([sys.executable, "-c", "pass"], env)
        layers["cli.interp_s"] = interp
        layers["cli.import_s"] = _median_run([sys.executable, "-c", "import ncfree.cli"], env) - interp
    else:
        layers["cli.interp_s"] = layers["cli.import_s"] = 0.0
    for sub in ("series", "rcyclic", "check", "opcumulant", "verify", "mc"):
        durs = [d for first, last in traced_ranges
                for d in tr.durations("cli." + sub, scale, first, last)]
        layers[f"cli.{sub}_s"] = statistics.median(durs) if durs else 0.0
    layers["cli.exit_mismatch"] = counts.get("cli.exit_mismatch", 0) + sum(
        k["code"] != k["want"] for k in known_broken
    )
    # every span (jobs, layers, probes) and each job's speed factor, for offline reading
    tr.write(os.path.join(runner.workdir, "trace.json"), scale)
    layers["_self_s"] = dict(sorted(self_s.items()))
    return layers


if __name__ == "__main__":
    sys.exit(main())
