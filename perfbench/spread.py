#!/usr/bin/env python3
"""Runs one workload with several seeds and prints, for each metric, its
median and quartile spread (the distance between the first and third
quartile as a share of the median) next to its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]
                                [--save FILE] [--against FILE]

Run from the root of a checkout. Each run is a separate process, as the
benchmark's driver runs them. `--save` writes the runs' values to FILE;
`--against` compares this set's medians with a set saved earlier and
reports, for each metric with a bound, how far this set's median is worse.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.monotonic()
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        wall = time.monotonic() - t0
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: run failed (exit {out.returncode})")
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    print(f"failed share per run: {sorted(shares)}")
    earlier = json.load(open(args.against)) if args.against else {}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        line = f"{name:40} median {med:14.6g}  spread {spread:7.4f}"
        m = metrics.get(name)
        if m is not None:
            line += f"  bound {m['bound']}  {'within' if spread <= m['bound'] else 'OVER'}"
            if name in earlier:
                before = statistics.median(earlier[name])
                worse = (med - before) / before if before else 0.0
                if m["better"] == "higher":
                    worse = -worse
                line += f"  worse than saved set by {worse:+.4f}"
        print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f)


if __name__ == "__main__":
    main()
