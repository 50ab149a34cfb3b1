#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

Run from the repository root, for example:

    python3 perfbench/baseline.py --workloads capping-10k,steady-10k \
        --seeds 101-110 --seconds 10 --out perfbench/baseline.json

For every workload and metric it records the ten (or however many) values,
their median, first and third quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median. With --trace 1 it summarises the
per-layer metrics instead. An existing --out file is updated in place, one
entry per workload, trace mode and --label.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        sys.exit("%s failed (exit %d):\n%s%s" % (" ".join(cmd), p.returncode, p.stdout, p.stderr))
    lines = p.stdout.strip().splitlines()
    digest = next((l.split()[1] for l in lines if l.strip().startswith("digest ")), None)
    return json.loads(lines[-1]), digest


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--label", default="", help="suffix for the entry key, e.g. heldout")
    args = ap.parse_args()

    doc = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    for workload in args.workloads.split(","):
        runs, ok = [], True
        for seed in seeds(args.seeds):
            res, digest = run_once(workload, seed, args.seconds, args.trace)
            ok = ok and res["correct"]
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"], "digest": digest,
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(workload, seed, "correct" if res["correct"] else "INCORRECT",
                  " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items())),
                  flush=True)
        names = sorted(runs[0]["metrics"])
        summary = {n: summarise([r["metrics"][n] for r in runs]) for n in names}
        print("%s: all correct=%s" % (workload, ok))
        for n in names:
            s = summary[n]
            spread = "-" if s["spread"] is None else "%.4f" % s["spread"]
            print("  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %s" % (n, s["median"], s["q1"], s["q3"], spread))
        key = "%s/trace%d" % (workload, args.trace)
        if args.label:
            key += "/" + args.label
        doc[key] = {"seconds": args.seconds, "seeds": seeds(args.seeds), "all_correct": ok,
                    "summary": summary, "runs": runs}
        if args.out:
            with open(args.out, "w") as f:
                json.dump(doc, f, indent=1, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    main()
