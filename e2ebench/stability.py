#!/usr/bin/env python3
"""Stability tooling for the end-to-end benchmark.

    # run every workload once per seed and save the result lines
    python3 e2ebench/stability.py run --seeds 101-110 --out set-a.json
    # the spread of each end-to-end metric against its bound
    python3 e2ebench/stability.py spread set-a.json
    # two sets of runs of the same (or parent vs changed) code, metric by metric
    python3 e2ebench/stability.py compare set-a.json set-b.json

Run from the repository root. Bounds, workloads, run length and the
benchmark command come from BENCHMARK.json; runs are untraced. The spread
of a metric is the distance between the first and third quartiles of its
per-run values (`statistics.quantiles(values, n=4)`) as a share of their
median; a set is steady when every spread stays below a third of the
bound, and two sets agree when they ran the same workloads for the same
length, untraced, and neither median is worse than the other's by more than the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return result, wall


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = {"seconds": seconds, "trace": 0, "runs": {}}
    for w in workloads:
        out["runs"][w] = []
        for seed in parse_seeds(args.seeds):
            result, wall = run_once(spec["command"], w, seed, seconds)
            out["runs"][w].append({"seed": seed, "wall_s": wall, "result": result})
            brief = ", ".join(f"{k}={v['value']:.6g}"
                              for k, v in result["metrics"].items())
            print(f"{w} seed {seed} ({wall:.1f}s): {brief}", flush=True)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)


def values(run_set, workload, metric):
    return [r["result"]["metrics"][metric]["value"]
            for r in run_set["runs"].get(workload, [])
            if metric in r["result"]["metrics"]]


def spread(vals):
    """Interquartile distance as a share of the median."""
    if len(vals) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def cmd_spread(args):
    spec = load_spec()
    ok = True
    for path in args.sets:
        with open(path) as f:
            run_set = json.load(f)
        print(f"== {path}")
        for w in run_set["runs"]:
            for m in spec["end_to_end"]:
                vals = values(run_set, w, m["name"])
                if not vals:
                    continue
                s = spread(vals)
                limit = m["bound"] / 3
                flag = "ok"
                if not s <= m["bound"]:
                    flag, ok = "OVER BOUND", False
                elif not s <= limit:
                    flag = "over bound/3"
                print(f"{w:<14} {m['name']:<20} median {statistics.median(vals):<14.6g}"
                      f" spread {s:8.4f}  bound {m['bound']:.3f}  {flag}")
    return 0 if ok else 1


def worse_by(a, b, better):
    """How much b is worse than a, as a share of a (negative: better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def cmd_compare(args):
    spec = load_spec()
    with open(args.a) as f:
        set_a = json.load(f)
    with open(args.b) as f:
        set_b = json.load(f)
    ok = True
    for key in ("seconds", "trace"):
        if set_a.get(key) != set_b.get(key):
            print(f"{key} differs: {set_a.get(key)} vs {set_b.get(key)}")
            ok = False
    for w in sorted(set(set_a["runs"]) ^ set(set_b["runs"])):
        print(f"{w:<14} in one set only")
        ok = False
    for w in set_a["runs"]:
        if w not in set_b["runs"]:
            continue
        for m in spec["end_to_end"]:
            va, vb = values(set_a, w, m["name"]), values(set_b, w, m["name"])
            if not va or not vb:
                print(f"{w:<14} {m['name']:<20} missing from "
                      f"{'both sets' if not va and not vb else 'one set'}")
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = max(worse_by(ma, mb, m["better"]), worse_by(mb, ma, m["better"]))
            agree = worse <= m["bound"]
            ok &= agree
            print(f"{w:<14} {m['name']:<20} A {ma:<12.6g} B {mb:<12.6g} "
                  f"apart {worse:7.4f}  bound {m['bound']:.3f}  "
                  f"spread A {spread(va):.4f} B {spread(vb):.4f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run workloads once per seed")
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", help="comma-separated; default all")
    s = sub.add_parser("spread", help="per-metric spread against the bounds")
    s.add_argument("sets", nargs="+")
    c = sub.add_parser("compare", help="compare two sets of runs")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_spread(args) if args.cmd == "spread" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
