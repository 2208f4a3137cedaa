#!/usr/bin/env python3
"""Steadiness check of the Oscar benchmark.

    python3 perfbench/steadiness.py [--held-out-seed 9001]

Runs every workload of BENCHMARK.json ten times per set (seeds 1 .. 10),
in two sets, alternating the order of the workloads from one pass to the
next, through perfbench/run.py with BENCHMARK.json's run_seconds. For each set it prints every end-to-end metric's median and
quartiles beside its bound, and the spread: (q3 - q1) / median, the
quartiles as Python's statistics.quantiles(values, n=4) gives them.

It also checks what a second set of runs of the same commit must show:
  - every spread, setup_s's too, within its bound;
  - the second set's median no worse than the first set's by more than
    the bound;
  - the exact metrics (msgs_per_lookup through sampling_steps_per_peer)
    identical, seed by seed, between the sets;
  - the same share of failed operations in every set.
A held-out seed, when given, is run once per workload and printed beside
the medians. Raw results go to .bench_build/steadiness.json. Exits 1 when
a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2
FIRST_SEED = 1
EXACT = ("msgs_per_lookup", "lookup_p50_ms", "lookup_p99_ms",
         "lookups_delivered", "indegree_load_gini", "sampling_steps_per_peer")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"steadiness: {workload} seed {seed} exited "
                         f"{out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (<= 0: not worse)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--held-out-seed", type=int, default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [FIRST_SEED + i for i in range(RUNS)]

    # results[set][workload] = list of (seed, result)
    results = []
    for s in range(SETS):
        per = {w: [] for w in workloads}
        for i, seed in enumerate(seeds):
            order = workloads if (i + s) % 2 == 0 else workloads[::-1]
            for w in order:
                r = run_once(w, seed, seconds)
                per[w].append((seed, r))
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)
        results.append(per)
    held_out = {}
    if args.held_out_seed is not None:
        for w in workloads:
            held_out[w] = run_once(w, args.held_out_seed, seconds)

    ok = True
    for w in workloads:
        print(f"\n== {w}  ({RUNS} runs per set, {seconds} s each)")
        header = f"{'metric':26s} {'bound':>6s}"
        for s in range(SETS):
            header += (f" | set{s + 1} {'median':>12s} {'q1':>12s} "
                       f"{'q3':>12s} {'spread':>7s}")
        if held_out:
            header += f" | {'held-out':>12s}"
        print(header)
        medians = []
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = f"{name:26s} {bound:6.3f}"
            set_medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"]
                          for _, r in results[s][w]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                set_medians.append(med)
                mark = " "
                if spread > bound:
                    mark, ok = "!", False
                elif spread > bound / 3:
                    mark = "~"
                line += (f" | {'':4s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                         f"{spread:6.3f}{mark}")
            if held_out:
                line += f" | {held_out[w]['metrics'][name]['value']:12.6g}"
            print(line)
            medians.append((m, set_medians))
        ok_before = ok
        for m, set_medians in medians:
            for s in range(1, SETS):
                worse = worse_by(set_medians[0], set_medians[s], m["better"])
                if worse > m["bound"]:
                    ok = False
                    print(f"  REGRESSED {m['name']}: set {s + 1} median is "
                          f"{worse:.3f} worse than set 1 (bound "
                          f"{m['bound']})")
        for s in range(1, SETS):
            for (seed, a), (_, b) in zip(results[0][w], results[s][w]):
                for name in EXACT:
                    va = a["metrics"][name]["value"]
                    vb = b["metrics"][name]["value"]
                    if va != vb:
                        ok = False
                        print(f"  NOT EXACT {name} seed {seed}: {va!r} vs "
                              f"{vb!r}")
        shares = []
        for s in range(SETS):
            attempted = sum(r["attempted"] for _, r in results[s][w])
            failed = sum(r["failed"] for _, r in results[s][w])
            shares.append((failed, attempted))
        base_failed, base_attempted = shares[0]
        if any(f * base_attempted != base_failed * a for f, a in shares[1:]):
            ok = False
            print(f"  FAILED SHARE differs between sets: {shares}")
        incorrect = [seed for s in range(SETS)
                     for seed, r in results[s][w] if not r["correct"]]
        if incorrect:
            ok = False
            print(f"  INCORRECT runs at seeds {incorrect}")
        print(f"  exact metrics identical across sets, failed share "
              f"{shares[0][0]}/{shares[0][1]} in every set"
              if ok == ok_before else "  (see the lines above)")

    out = os.path.join(ROOT, ".bench_build", "steadiness.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seeds": seeds, "sets": results, "held_out": held_out},
                  f, indent=1)
    print(f"\nsteadiness: {'PASS' if ok else 'FAIL'} (raw results in "
          f"{out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
