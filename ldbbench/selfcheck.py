#!/usr/bin/env python3
"""The benchmark's own tests: is it steady, and do its counts repeat?

    python3 ldbbench/selfcheck.py repeat [--seed N] [--workload NAME ...]
    python3 ldbbench/selfcheck.py spread [--seeds K] [--workload NAME ...]

`repeat` runs each workload twice with the same seed, untraced and traced.
It reports each end-to-end metric's relative difference between the two
runs against the metric's bound in BENCHMARK.json, and checks that the
per-layer work counts repeat exactly.  `spread` runs each workload on K
seeds and reports each end-to-end metric's spread: the distance between
the first and third quartiles as a share of the median, against its bound.
Both exit non-zero when a check fails.  Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Counts that depend only on the seed: they must repeat exactly.
EXACT = ["machine.insns", "nub.rpc.fetch", "nub.rpc.store", "nub.rpc.continue",
         "nub.rpc.step", "nub.rpc.set_cond", "nub.rpc.fetch_trace", "nub.rpc.other",
         "symtab.units_forced", "replay.checkpoints", "replay.seek_insns"]


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def bench(spec, workload, seed, trace):
    cmd = ["python3", "ldbbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit("%s exited with %d" % (" ".join(cmd), out.returncode))
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if res["failed"]:
        print("  %s seed %d: %d of %d ops failed" % (workload, seed, res["failed"], res["attempted"]))
    return {k: v["value"] for k, v in res["metrics"].items()}


def repeat(spec, workloads, seed):
    ok = True
    for w in workloads:
        a, b = bench(spec, w, seed, 0), bench(spec, w, seed, 0)
        for m in spec["end_to_end"]:
            n = m["name"]
            rel = abs(a[n] - b[n]) / a[n] if a[n] else 0.0
            flag = "ok" if rel <= m["bound"] else "OVER"
            ok &= rel <= m["bound"] or n == "setup_s"
            print("%-11s %-18s %12.4f %12.4f  diff %6.1f%%  bound %4.0f%%  %s"
                  % (w, n, a[n], b[n], 100 * rel, 100 * m["bound"], flag))
        ta, tb = bench(spec, w, seed, 1), bench(spec, w, seed, 1)
        for n in EXACT:
            same = ta[n] == tb[n]
            ok &= same
            print("%-11s %-18s %12g %12g  %s" % (w, n, ta[n], tb[n], "repeats" if same else "DIFFERS"))
    return ok


def spread(spec, workloads, seeds):
    ok = True
    for w in workloads:
        runs = [bench(spec, w, s, 0) for s in range(1, seeds + 1)]
        for m in spec["end_to_end"]:
            n = m["name"]
            vals = [r[n] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            good = share <= m["bound"] or n == "setup_s"
            ok &= good
            print("%-11s %-18s median %12.4f  spread %6.1f%%  bound %4.0f%%  %-4s  %s"
                  % (w, n, med, 100 * share, 100 * m["bound"], "ok" if good else "OVER",
                     " ".join("%.4g" % v for v in vals)))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("repeat", "spread"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append")
    a = ap.parse_args()
    spec = load_spec()
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    ok = repeat(spec, workloads, a.seed) if a.mode == "repeat" else spread(spec, workloads, a.seeds)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
