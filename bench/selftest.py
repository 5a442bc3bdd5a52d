"""Self-test of the benchmark at tiny problem sizes.

    python3 bench/selftest.py            (or: python3 -m pytest bench/selftest.py)

Runs every workload with n=16 locations and m=8 replicates, untraced and
traced, and checks that:

- every end-to-end and per-layer metric named in BENCHMARK.json is emitted
  with its unit and a finite value;
- traced spans nest (each lies inside its parent), self times are >= 0 and
  sum to no more than the run's raw timed phase;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(w):
    return replace(w, n=16, m=8, nominal_op_s=1.0)


def _check_metrics(record, declared):
    metrics = record["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        raise AssertionError("%s: metrics %s, expected %s" % (
            record["workload"], sorted(metrics), sorted(want)))
    for name, m in metrics.items():
        if m["unit"] != want[name] or not np.isfinite(m["value"]):
            raise AssertionError("%s: bad metric %s = %r" % (record["workload"], name, m))
    if record["attempted"] < 1:
        raise AssertionError("%s: no operation attempted" % record["workload"])


def _check_spans(record, results_dir):
    sp = np.load(Path(results_dir) / record["workload"] / record["spans_file"])
    parent, t0, t1, op = sp["parent"], sp["t0"], sp["t1"], sp["op"]
    has = parent >= 0
    if not (np.all(t0[has] >= t0[parent[has]]) and np.all(t1[has] <= t1[parent[has]])):
        raise AssertionError("%s: a span ends outside its parent" % record["workload"])
    if np.any(t1 < t0) or np.any(sp["self"] < -1e-9):
        raise AssertionError("%s: negative span or self time" % record["workload"])
    total_self = float(np.sum(sp["self"][op >= 0]))
    if not 0.0 < total_self <= record["timed_phase_raw_s"]:
        raise AssertionError("%s: self times sum to %.6f s, the timed phase %.6f s" % (
            record["workload"], total_self, record["timed_phase_raw_s"]))


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_tiny_runs_emit_every_metric_and_nested_spans():
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    out = tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS)
    try:
        for w in run.WORKLOADS.values():
            plain = run.run_benchmark(_tiny(w), seed=1, seconds=2, trace=0, results_dir=out)
            _check_metrics(plain, SPEC["end_to_end"])
            traced = run.run_benchmark(_tiny(w), seed=1, seconds=2, trace=1, results_dir=out)
            _check_metrics(traced, SPEC["per_layer"])
            _check_spans(traced, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_fails_without_sources():
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.RESULTS))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-grid-n100",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_workloads_match_benchmark_json, test_fails_without_sources,
                 test_tiny_runs_emit_every_metric_and_nested_spans):
        test()
        print("ok", test.__name__)
