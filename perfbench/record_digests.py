#!/usr/bin/env python3
"""Record SHA-256 digests of every job's output for the recorded seeds.

    python3 perfbench/record_digests.py

Run from the repository root, on the commit whose outputs are the reference.
Later runs on these seeds fail any job whose output differs, which enforces
byte-identical results across optimisations.  Re-recording on a later commit
would silently accept a changed output; do it only when an output change is
intended and reviewed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RECORDED_SEEDS = range(10)


def record(workload: str, seed: int) -> list[str]:
    """One pass of the workload; every job must pass its gate."""
    sys.path.insert(0, HERE)
    from child import prepare
    from measure import Tracer

    jobs, job_list, workdir = prepare(workload, seed)
    runner = jobs.Runner(Tracer(False), env=dict(os.environ), workdir=workdir)
    out = []
    for idx, job in enumerate(job_list):
        res = runner.run(job)
        err = runner.gate(job, res)
        if err is not None:
            raise SystemExit(f"{workload} seed {seed} job {idx}: {err}")
        out.append(jobs.digest(res["text"]))
    return out


def main() -> int:
    if len(sys.argv) == 3:
        print(json.dumps(record(sys.argv[1], int(sys.argv[2]))))
        return 0
    sys.path.insert(0, HERE)
    import gen
    from run import pinned_env

    env = pinned_env(os.getcwd())
    table: dict[str, dict[str, list[str]]] = {}
    for workload in gen.WORKLOADS:
        for seed in RECORDED_SEEDS:
            # a fresh pinned process per seed, as in a benchmark run
            p = subprocess.run([sys.executable, __file__, workload, str(seed)], env=env,
                               check=True, capture_output=True, text=True)
            table.setdefault(workload, {})[str(seed)] = json.loads(p.stdout)
            print(workload, seed, "recorded", file=sys.stderr)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
