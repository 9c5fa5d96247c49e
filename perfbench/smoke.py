#!/usr/bin/env python3
"""Smoke test of the repository benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
--scale smoke (a few hundred nodes, a 500 s serving window) for one
second, untraced and traced, on two seeds, and asserts that:

  * the last stdout line is one JSON object with exactly the keys
    correct, attempted, failed and metrics, and the output check passed;
  * its metrics are exactly BENCHMARK.json's end_to_end metrics
    (untraced) or per_layer metrics (traced), with the recorded units,
    finite values and valid names;
  * the perfbench-report line carries every workload metric the
    benchmark documents for that workload, with valid names and units;
  * with --corrupt-digest the output check fails: exit status 1 and
    "correct": false.

Exit status 0 when every assertion holds, 1 otherwise.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# The workload metrics each workload reports besides the gated ones.
REPORTED = {
    "kube-zonekill-10k": ["setup_s", "epoch_p50_s", "epoch_samples",
                          "sim_s_per_host_s", "recovery_sim_s",
                          "availability", "failed_fraction",
                          "peak_rss_mib"],
    "replan-100k": ["setup_s", "epoch_p50_s", "epoch_samples",
                    "availability", "revenue", "failed_fraction",
                    "peak_rss_mib"],
    "serve-cap50": ["setup_s", "sim_s_per_host_s", "req_per_host_s",
                    "crit_slo_viol_sim_s", "shed_fraction",
                    "failed_fraction", "peak_rss_mib"],
}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what, flush=True)
    return ok


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--scale", "smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    result = report = None
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        pass
    for line in lines:
        if line.startswith("perfbench-report "):
            report = json.loads(line[len("perfbench-report "):])
    return done.returncode, result, report


def check_metrics(label, metrics, spec):
    expect(list(metrics) == [m["name"] for m in spec],
           f"{label}: metric names {list(metrics)}")
    for m in spec:
        got = metrics.get(m["name"])
        if not expect(got is not None, f"{label}: {m['name']} missing"):
            continue
        expect(set(got) == {"value", "unit"}, f"{label}: {m['name']} keys")
        expect(got.get("unit") == m["unit"],
               f"{label}: {m['name']} unit {got.get('unit')}")
        value = got.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {m['name']} value {value}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed, trace in ((1, 0), (2, 0), (3, 1)):
            label = f"{workload} seed {seed} trace {trace}"
            code, result, report = run(workload, seed, trace)
            print(f"{label}: exit {code}", flush=True)
            if not expect(code == 0 and result is not None,
                          f"{label}: exit {code}, no result"):
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: result keys")
            expect(result["correct"] is True, f"{label}: not correct")
            expect(isinstance(result["attempted"], int)
                   and result["attempted"] >= 1, f"{label}: attempted")
            expect(result["failed"] == 0, f"{label}: failed")
            check_metrics(label, result["metrics"],
                          spec["per_layer"] if trace else spec["end_to_end"])
            if not expect(report is not None, f"{label}: no report line"):
                continue
            for name in REPORTED[workload]:
                expect(name in report["report"], f"{label}: {name} missing")
            for name, m in report["report"].items():
                expect(NAME.match(name) and UNIT.match(m["unit"]),
                       f"{label}: bad name or unit {name} {m['unit']}")
            if trace:
                expect(result["metrics"]["kube.invariant_violations"]
                       ["value"] == 0, f"{label}: invariant violations")

        label = f"{workload} corrupted digest"
        code, result, _ = run(workload, 1, 0, "--corrupt-digest")
        print(f"{label}: exit {code}", flush=True)
        expect(code == 1, f"{label}: exit {code}, expected 1")
        expect(result is not None and result.get("correct") is False,
               f"{label}: check did not fail")

    print("smoke:", "FAILED" if failures else "ok", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
