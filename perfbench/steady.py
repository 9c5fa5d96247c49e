#!/usr/bin/env python3
"""Steadiness tool: run workloads repeatedly and report each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seed0 1]
                                [--seconds S] [--out FILE]

Runs perfbench/run.py once per seed (seed0, seed0+1, ...) for every
workload, untraced, one run at a time. For each end-to-end metric it
prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
that spread against the metric's bound in BENCHMARK.json: "ok" when the
spread is below a third of the bound, "wide" when below the bound, and
"OVER" otherwise (setup_s is reported but its spread is not judged).
--out writes the same numbers, with every run's values, as JSON.
Exit status 1 if any run fails or prints an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") else None


def summarize(values, bound, judged):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    if not judged:
        verdict = "-"
    elif spread < bound / 3:
        verdict = "ok"
    elif spread <= bound:
        verdict = "wide"
    else:
        verdict = "OVER"
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "verdict": verdict, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.seed0 + i
            result = run_once(workload, seed, args.seconds)
            if result is None:
                print(f"{workload} seed {seed}: run failed", flush=True)
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        if len(values["setup_s"]) < 2:
            continue
        report[workload] = {
            name: summarize(vals, bounds[name], name != "setup_s")
            for name, vals in values.items()}
        print(f"\n{workload}: {len(values['setup_s'])} runs")
        print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for name, s in report[workload].items():
            print(f"  {name:<18}{s['median']:>14.6g}{s['q1']:>14.6g}"
                  f"{s['q3']:>14.6g}{s['spread']:>9.4f}{s['bound']:>7}"
                  f"  {s['verdict']}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": args.runs, "seed0": args.seed0,
                       "seconds": args.seconds, "workloads": report},
                      f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
