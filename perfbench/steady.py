"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py --workload W [--seeds 0-9]

Runs perfbench/run.py untraced once per seed, one run after another, with
the run length from BENCHMARK.json.  For every end-to-end metric it prints
the median, the first and third quartiles (statistics.quantiles(values,
n=4)), the spread (q3 - q1) / median and the metric's bound, and the share
of failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("seed %d: exit code %d" % (seed, proc.returncode), file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        for extra in lines[:-1]:
            if extra.startswith("perfbench: wall"):
                print("seed %d: %s" % (seed, extra[len("perfbench: "):]))
        line = lines[-1]
        result = json.loads(line)
        results.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.5g" % (k, v["value"])
                     for k, v in result["metrics"].items())), flush=True)

    print("%-14s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print("%-14s %12.5g %12.5g %12.5g %8.4f %6s" % (
            name, med, q1, q3, (q3 - q1) / med if med else 0.0, bounds[name]))
    shares = {r["failed"] / r["attempted"] for r in results}
    print("failed share: %s; all correct: %s"
          % (sorted(shares), all(r["correct"] for r in results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
