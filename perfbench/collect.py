#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes the results.

    python3 perfbench/collect.py --workloads serve_cold_search \
        --seeds 1-10 --sets 2 --out runs.json

Run from the repository root. Each (set, workload, seed) is one
`perfbench/run.sh` invocation. Per workload and metric it reports the
median, the quartiles (statistics.quantiles, n=4), the sample count and
the spread (interquartile distance over the median). With two or more
sets it also checks that every seed reports identical `gates_total` and
`quantum_cost_total` in every set (a difference is a determinism
failure, not noise) and that each later set's median is within the
metric's bound of the first set's. It exits nonzero when a run is not
correct or any of these checks fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    detail = json.loads(lines[-2].split(" ", 1)[1]) if len(lines) > 1 else {}
    return detail, json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds(args.seeds):
                detail, result = run_once(workload, seed, seconds, args.trace)
                report.setdefault("host", detail.get("host"))
                keep = ("passes", "pass_ops", "latency_ms", "pass_tail_percentile", "setup_s",
                        "failed_frac", "replay_pairs")
                runs.append({"seed": seed, "result": result,
                             "detail": {k: detail[k] for k in keep if k in detail}})
                m = result["metrics"]
                brief = {k: round(v["value"], 4) for k, v in m.items()} if not args.trace else ""
                print(f"set {s} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {brief}", flush=True)
                ok &= result["correct"]
            sets.append(runs)
        summary = []
        for runs in sets:
            names = runs[0]["result"]["metrics"].keys()
            summary.append({k: summarize([r["result"]["metrics"][k]["value"] for r in runs])
                            for k in names} if len(runs) > 1 else {})
        checks = []
        if not args.trace:
            for metric in ("gates_total", "quantum_cost_total"):
                for i, seed in enumerate(seeds(args.seeds)):
                    vals = {runs[i]["result"]["metrics"][metric]["value"] for runs in sets}
                    if len(vals) > 1:
                        ok = False
                        checks.append(f"DETERMINISM FAILURE {metric} seed {seed}: {sorted(vals)}")
            for k, bound in bounds.items():
                for s in summary[1:]:
                    first, later = summary[0][k]["median"], s[k]["median"]
                    better = next(m["better"] for m in bench["end_to_end"] if m["name"] == k)
                    worse = (later - first) / first if better == "lower" else (first - later) / first
                    if worse > bound:
                        checks.append(f"median of {k} worse by {worse:.3f} > bound {bound}")
                # The acceptance rule bounds the spread of every metric but
                # setup_s, which is a median of a few set-ups per run; its
                # set-to-set median is still checked above.
                for i, s in enumerate(summary):
                    if k != "setup_s" and s[k]["spread"] is not None and s[k]["spread"] > bound:
                        checks.append(f"set {i} spread of {k} {s[k]['spread']:.3f} > bound {bound}")
        ok &= not checks
        for c in checks:
            print(f"{workload}: {c}")
        for i, s in enumerate(summary):
            for k, v in s.items():
                b = bounds.get(k)
                flag = "" if b is None or v["spread"] is None or v["spread"] < b / 3 else "  (above bound/3)"
                print(f"{workload} set {i} {k}: median {v['median']:.6g} spread {v['spread']:.4f}{flag}"
                      if v["spread"] is not None else f"{workload} set {i} {k}: median {v['median']:.6g}")
        report["workloads"][workload] = {"sets": sets, "summary": summary, "checks": checks}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
