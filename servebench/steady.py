#!/usr/bin/env python3
"""Steadiness check for the serving benchmark; run from the repository root.

    python3 servebench/steady.py --workload joint-read --seeds 1-10
    python3 servebench/steady.py --workload churn-mix --seeds 1-5 --trace 1
    python3 servebench/steady.py --all --seeds 1-10 --save first.json
    python3 servebench/steady.py --all --seeds 11-20 --against first.json

Runs the benchmark once per seed and workload and, per end-to-end metric,
reports the median and the spread (q3 - q1) / median with quartiles from
statistics.quantiles(values, n=4). A spread above the metric's bound in
BENCHMARK.json fails (setup_s excepted, as in the acceptance rule); a
spread above a third of it is flagged. With --against, a median worse
than the saved one by more than the bound fails.

Traced runs (--trace 1) gate the deterministic counters exactly: any
difference between two runs fails. Every run must report correct.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Per-layer metrics that are exact work counts: they must repeat bit for
# bit across runs and seeds.
EXACT = [
    "index.node_visits",
    "storage.invfile_blocks",
    "core.topk_io",
    "core.select_io",
    "dynamic.mutation_io",
    "topk.ro_objects",
    "serve.request_bytes",
    "serve.reply_bytes",
]


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run (exit {proc.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    if not workloads:
        ap.error("name a --workload or pass --all")
    prior = {}
    if args.against:
        with open(args.against) as f:
            prior = json.load(f)

    results = {}
    ok = True
    for w in workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            runs.append(run_once(bench, w, seed, args.trace))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        results[w] = runs
        print(f"\n{w}: {len(runs)} runs")
        for name in runs[0]:
            values = [r[name] for r in runs]
            if args.trace:
                if name in EXACT and len(set(values)) > 1:
                    print(f"  FAIL {name}: exact counter differs across runs: {values}")
                    ok = False
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]["bound"]
            flag = "ok"
            if spread > bound and name != "setup_s":
                flag, ok = "FAIL", False
            elif spread > bound / 3:
                flag = "wide"
            line = (f"  {name:<16} median {med:>10.4f}  spread {spread:6.3f}"
                    f"  bound {bound:.2f}  {flag}")
            if w in prior:
                old = statistics.quantiles([r[name] for r in prior[w]], n=4)[1]
                worse = (med - old) / old if bounds[name]["better"] == "lower" \
                    else (old - med) / old
                line += f"  vs saved {old:.4f} ({worse:+.3f} worse)"
                if worse > bound:
                    line += " FAIL"
                    ok = False
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
