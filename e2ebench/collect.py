#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records the figures.

Usage (from the repository root):

    python3 e2ebench/collect.py --seeds 1-10 [--workloads ref_1k,...]
                                [--out e2ebench/baseline.json]

For every workload and seed it runs `e2ebench/run.py ... --trace 0`,
keeps each end-to-end metric's per-run values, and writes their median,
quartiles (statistics.quantiles(n=4)) and spread ((q3 - q1) / median,
the figure BENCHMARK.json's bounds are compared with), together with the
git revision, nproc, CPU model and kernel of the machine. Exits nonzero if
any run fails its output checks.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"git_sha": sha or "unknown", "nproc": os.cpu_count(),
            "cpu_model": cpu, "kernel": platform.release(),
            "date": datetime.datetime.utcnow().strftime("%Y-%m-%dT%H:%M:%SZ")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = {"machine": machine(), "run_seconds": bench["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
            try:
                report = json.loads(last)
            except ValueError:
                report = {"correct": False, "metrics": {}}
            if run.returncode != 0 or not report.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: FAILED\n{run.stdout[-1500:]}"
                      f"\n{run.stderr[-1500:]}", file=sys.stderr)
                continue
            for name, m in report["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in report["metrics"].items()),
                flush=True)
        summary = {}
        for name, vals in values.items():
            entry = {"values": vals, "median": statistics.median(vals)}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                entry.update({"q1": q1, "q3": q3,
                              "spread": (q3 - q1) / entry["median"]
                              if entry["median"] else 0.0})
            entry["bound"] = bounds.get(name)
            summary[name] = entry
            spread = entry.get("spread", 0.0)
            print(f"  {workload:14s} {name:18s} median {entry['median']:.6g} "
                  f"spread {spread:.4f} bound {entry['bound']}")
        result["workloads"][workload] = summary
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
