"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Run from the repository root.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from measure import Tracer, tail_latency, tail_percentile  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _shape(job):
    return {k: v for k, v in job.items() if k not in ("spec", "table", "elements", "files",
                                                      "lam", "shift", "argv")}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert gen.jobs_for(workload, 7) == gen.jobs_for(workload, 7)
    assert gen.jobs_for(workload, 7) != gen.jobs_for(workload, 8)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seed_changes_content_not_shape(workload):
    a, b = gen.jobs_for(workload, 1), gen.jobs_for(workload, 2)
    assert len(a) == len(b) == gen.JOBS_PER_PASS
    assert [_shape(j) for j in a] == [_shape(j) for j in b]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(gen.WORKLOADS)


def test_tail_rule_needs_ten_samples_beyond():
    assert tail_percentile(66) == 75.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(37) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    lat = [float(i) for i in range(66)]
    value, pct, beyond = tail_latency(lat)
    assert pct == 75.0
    assert beyond == sum(x > value for x in lat) == 17
    assert beyond >= 10


def test_tail_rule_keeps_reference_percentile_for_longer_runs():
    lat = [float(i) for i in range(200)]
    assert tail_latency(lat)[1] == 95.0
    value, pct, beyond = tail_latency(lat, n_ref=66)
    assert pct == 75.0
    assert beyond == sum(x > value for x in lat)


def _fake_result(trace):
    lat = [0.1 + 0.01 * i for i in range(66)]
    res = {
        "setup_s": 0.2, "setup_raw_s": 0.25, "latencies": lat, "raw_latencies": [1.3 * x for x in lat],
        "attempted": 66, "failed": 0, "failures": [], "passes": 3, "jobs_per_pass": 22,
        "peak_rss_mb": 40.0, "known_broken": [], "digests_checked": False,
    }
    if trace:
        res["layers"] = {name: 0.5 for name in run.PER_LAYER}
        res["layers"]["_self_s"] = {"job.spectra": 0.1}
    return res


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    class Args:
        workload, seed = "spectra", 0
    Args.trace = trace
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out = run.report(Args, _fake_result(trace),
                         [{"setup_s": x, "setup_raw_s": 1.2 * x} for x in (0.2, 0.3, 0.25)])
    last = json.loads(json.dumps(out))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    want = [(m["name"], m["unit"]) for m in BENCH[key]]
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == want
    text = buf.getvalue()
    for name, _ in want:
        assert name in text


def test_traced_run_emits_every_per_layer_metric():
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectra", "--seed", "3",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert last["metrics"]["rcyclic.patterns"]["value"] == sum(
        sum((s * d * d) ** k for k in range(1, n + 1)) for d, s, n, _ in gen.SPECTRA_SLOTS
    )


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert "correct" not in p.stdout


def _runner():
    return jobs.Runner(Tracer(False))


def test_gate_flags_corrupted_spectra_result():
    job = gen.spectra_jobs(0)[0]
    runner = _runner()
    res = runner.run(job)
    assert runner.gate(job, res) is None
    m = res["m"]
    word, value = m.items[-1]
    res["m"] = type(m).of(m.alphabet, m.order, {**m.coeffs, word: value + Fraction(1, 7)})
    assert runner.gate(job, res) is not None


def test_gate_flags_corrupted_scalar_result():
    job = next(j for j in gen.freeness_jobs(0) if j["kind"] == "scalar")
    runner = _runner()
    res = runner.run(job)
    assert runner.gate(job, res) is None
    res["free"] = not res["free"]
    assert runner.gate(job, res) is not None


def test_gate_flags_wrong_cli_stdout_and_exit_code(tmp_path):
    runner = jobs.Runner(Tracer(False), workdir=str(tmp_path))
    job = {"kind": "cli", "argv": ["series", "--kind", "Zeta", "--s", "1", "--order", "3"]}
    want_code, want_out = runner.expected(job["argv"])
    good = {"code": want_code, "out": want_out, "err": "", "argv": job["argv"]}
    assert runner.gate(job, good) is None
    assert runner.gate(job, {**good, "out": want_out.replace("1/1", "2/1", 1)}) is not None
    assert runner.gate(job, {**good, "code": 1}) is not None


def test_known_broken_requests_expect_usage_exit():
    runner = _runner()
    for argv in gen.KNOWN_BROKEN:
        assert runner.expected(list(argv)) == (2, "")
