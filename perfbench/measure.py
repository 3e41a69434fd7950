"""One benchmark run of one workload, in the interpreter it starts in.

run.py starts this script in a fresh process with one BLAS/OpenMP thread.
The run makes whole rounds of the workload for as long as the next round
still fits in --seconds (always at least one), between two halves of the
workload's fixed number of set-up passes, and after the rounds its fixed
number of trace passes.  After the timed part it reads the peak resident
memory, checks every round's outputs and prints one JSON line: the
end-to-end metrics (medians over the run's rounds and passes), or with
--trace 1 the per-layer metrics (medians over the rounds).
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import hostspeed
import tracing
import workloads

OUT_ROOT = os.path.join(workloads.ROOT, "perfbench", "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_layer_table(spans):
    rows = sorted(tracing.layer_table(spans).items(), key=lambda kv: -kv[1][2])
    print("%-32s %7s %10s %10s" % ("span", "calls", "incl_s", "self_s"))
    for name, (calls, incl, own) in rows:
        print("%-32s %7d %10.4f %10.4f" % (name, calls, incl, own))


def main(argv=None):
    args = parse_args(argv)
    name = args.workload
    out_dir = os.path.join(OUT_ROOT, name)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.make(name, out_dir, args.seed)
    sampler = None if tracer else hostspeed.SpeedSampler()

    attempted = failed = 0
    setups, traces, rounds, layers, spans = [], [], [], [], []

    def run_passes(run_pass, count, into):
        nonlocal attempted, failed
        for _ in range(count):
            attempted += 1
            try:
                into.append(run_pass())
            except Exception:
                failed += 1
                traceback.print_exc()

    # Host speed drifts over tens of seconds, so half the set-up passes
    # run before the rounds and half after them.
    passes = workloads.SETUP_PASSES[name]
    if sampler:
        sampler.start()
    start = time.perf_counter()
    run_passes(workload.setup_pass, passes // 2, setups)
    while True:
        if tracer:
            tracer.reset()       # keep only the round's spans
        attempted += 1
        t0 = time.perf_counter()
        try:
            rounds.append(workload.round())
            if tracer:
                layers.append(tracing.layer_metrics(tracer.spans))
                spans.append(tracer.spans)
                tracer.reset()
        except Exception:
            failed += 1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > args.seconds:
            break
    if name in workloads.TRACE_PASSES:
        run_passes(workload.trace_pass, workloads.TRACE_PASSES[name], traces)
    run_passes(workload.setup_pass, passes - passes // 2, setups)
    if sampler:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    if not rounds:
        print("perfbench: no round of %s completed" % name, file=sys.stderr)
        return 1

    ctx = workloads.context(name, workload, rounds, OUT_ROOT)
    correct = True
    for i, r in enumerate(rounds):
        for msg in workloads.run_checks(name, r.artifacts, ctx):
            correct = False
            print("perfbench: %s round %d: %s" % (name, i, msg), file=sys.stderr)

    if tracer:
        with open(os.path.join(out_dir, "spans-seed%d.jsonl" % args.seed), "w") as fh:
            for i, round_spans in enumerate(spans):
                for span in round_spans:
                    fh.write(json.dumps(dict(span, round=i)) + "\n")
        print_layer_table(spans[0])
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["perfbench.traced_total_s"] = statistics.median(
            r.end - r.start for r in rounds)
    else:
        raw = end_to_end(setups, traces, rounds, lambda t0, t1: t1 - t0)
        kernel = [e - s for s, e in sampler.samples]
        print("perfbench: wall seconds before the host-speed correction: %s; "
              "speed kernel median %.3f ms over %d samples"
              % (" ".join("%s=%.4f" % kv for kv in raw.items()),
                 1e3 * statistics.median(kernel), len(kernel)))
        metrics = end_to_end(setups, traces, rounds, sampler.normalized)
        metrics["peak_rss_mb"] = peak_rss_mb
    print("perfbench: %s seed %d: %d set-up passes, %d trace passes, %d rounds"
          % (name, args.seed, len(setups), len(traces), len(rounds)))
    declared = declared_metrics("per_layer" if tracer else "end_to_end")
    if set(declared) != set(metrics):
        raise RuntimeError("metrics %s differ from BENCHMARK.json's %s"
                           % (sorted(metrics), sorted(declared)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": unit}
                                  for k, unit in declared.items()}}))
    sys.stdout.flush()
    return 0


def end_to_end(setups, traces, rounds, seconds):
    """Median set-up, trace and total time; seconds(t0, t1) times an interval."""
    return {
        "setup_s": statistics.median([seconds(*s) for s in setups]
                                     + [seconds(r.start, r.trace_start) for r in rounds]),
        "trace_s": statistics.median([seconds(*t) for t in traces]
                                     + [seconds(r.trace_start, r.trace_end) for r in rounds]),
        "total_s": statistics.median(seconds(r.start, r.end) for r in rounds),
    }


def declared_metrics(kind):
    """name -> unit of the BENCHMARK.json metrics of the kind."""
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
