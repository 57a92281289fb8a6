#!/usr/bin/env python3
"""Repeats volbench runs over seeds and summarizes how steady each metric is.

    python3 volbench/steady.py run --workload serve-leaf,serve-ball --seeds 1-10 --out set1.jsonl
    python3 volbench/steady.py summarize set1.jsonl [set2.jsonl]

`run` calls volbench/run.py once per seed and workload (trace 0, the
run_seconds of BENCHMARK.json unless --seconds is given), cycling through
the workloads for each seed so that every workload's runs are spread over
the whole set.  It appends each run's JSON result with its workload, seed
and start time to --out, and then summarizes.

`summarize` prints, per workload and end-to-end metric, the median, first
and third quartiles (statistics.quantiles, n=4), min and max, and the
quartile spread as a share of the median next to the metric's bound in
BENCHMARK.json.  Given two files, it also prints how far the second set's
median moved from the first's, in the direction that is worse.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def parse_seeds(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run(args):
    bench = load_benchmark()
    seconds = args.seconds or bench.get("run_seconds", 20)
    runs = [(seed, w) for seed in parse_seeds(args.seeds) for w in args.workload.split(",")]
    for seed, workload in runs:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        started = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        record = {"workload": workload, "seed": seed, "started": started,
                  "wall_s": time.time() - started, "exit": proc.returncode, "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
        values = {k: round(v["value"], 5) for k, v in (result or {}).get("metrics", {}).items()}
        print(f"{workload} seed {seed}: exit {proc.returncode} in {record['wall_s']:.1f} s "
              f"{values}", flush=True)
    summarize_files([args.out])


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def table(records):
    """{workload: {metric: [values]}} over the correct runs."""
    out = {}
    for r in records:
        res = r.get("result")
        if not res or not res.get("correct") or r.get("exit") != 0:
            continue
        for name, m in res["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def summarize_files(paths):
    bench = load_benchmark()
    metas = {m["name"]: m for m in bench.get("end_to_end", [])}
    sets = [table(read_records(p)) for p in paths]
    for w in sorted(set().union(*[s.keys() for s in sets])):
        print(f"== {w}")
        for name in sorted(sets[0].get(w, {})):
            meta = metas.get(name, {})
            bound = meta.get("bound")
            meds = []
            for i, s in enumerate(sets):
                vals = s.get(w, {}).get(name, [])
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                meds.append(med)
                spread = (q3 - q1) / med if med else float("nan")
                flag = ""
                if bound is not None and name != "setup_s":
                    flag = "ok" if spread <= bound else "OVER BOUND"
                    if spread > bound / 3:
                        flag += " (above a third)"
                print(f"  set{i + 1} {name:16s} n={len(vals):2d} median {med:.6g} q1 {q1:.6g} "
                      f"q3 {q3:.6g} min {min(vals):.6g} max {max(vals):.6g} "
                      f"spread {spread:.4f} bound {bound} {flag}")
            if len(meds) == 2 and bound is not None:
                lower_better = meta.get("better", "lower") == "lower"
                worse = (meds[1] - meds[0]) / meds[0] if lower_better else \
                    (meds[0] - meds[1]) / meds[0]
                print(f"  set2 vs set1 {name:16s} worse by {worse:+.4f} (bound {bound}) "
                      f"{'ok' if worse <= bound else 'OVER BOUND'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("files", nargs="+")
    args = ap.parse_args()
    if args.cmd == "run":
        run(args)
    else:
        summarize_files(args.files)


if __name__ == "__main__":
    main()
