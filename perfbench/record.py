#!/usr/bin/env python3
"""Run every workload of the benchmark on several seeds and summarise.

For each set (--sets), runs the command BENCHMARK.json declares once per
workload and seed, untraced. Then, per workload, one traced run on the
first seed, one run on each profile's own seed (no --seed) and, with
--held-out, one run on that seed. Checks that each result line carries
exactly the declared metrics with their units and that every simulated
value repeats across sets. Prints, per set, each end-to-end metric's
median, quartiles and spread (quartile distance / median), the unscaled
CPU-time and wall-clock throughput, the reference kernel's CPU time and
the host's steal share beside them, and how far each
later set's median lies from the first set's, against the metric's
bound. Optionally writes everything, with the host's core count, to a
JSON file.

    python3 perfbench/record.py --seeds 1,2,3,4,5 --sets 2 --held-out 4242 --out FILE.json

Run from the repository root. Runs are sequential, one process at a time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# Report-only metrics summarised beside the end-to-end ones.
BESIDE = ["bench.events_per_cpu_s", "bench.events_per_wall_s", "bench.reference_s",
          "host.steal_share", "bench.cpu_share"]
# Counts that come from the simulation and must repeat exactly.
SIM_COUNTS = ["trace.ops", "fleet.steps", "fleet.reclaims", "fleet.oom_kills",
              "fleet.committed_peak_mb"]


def run(command, workload, seed, seconds, trace, declared):
    args = command + ["--workload", workload, "--seconds", str(seconds),
                      "--trace", str(trace)]
    if seed is not None:
        args += ["--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != declared:
        raise SystemExit(f"{' '.join(args)}: metrics differ from BENCHMARK.json")
    report = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, _unit = line.split()
            report[name] = float(value)
        elif line.startswith("events_per_s by iteration:"):
            by_iteration = [float(v) for v in line.split(":")[1].split()]
        elif line.startswith("events_per_cpu_s by iteration:"):
            cpu_by_iteration = [float(v) for v in line.split(":")[1].split()]
        elif line.startswith("reference kernel cpu-s:"):
            kernel_s = [float(v) for v in line.split(":")[1].split()]
    return {"seed": seed, "trace": trace, "elapsed_s": round(elapsed, 3),
            "events_per_s_by_iteration": by_iteration,
            "events_per_cpu_s_by_iteration": cpu_by_iteration,
            "reference_kernel_s": kernel_s, "report": report,
            "result": result}


def sims(entry):
    return {k: v for k, v in entry["report"].items()
            if k.startswith("sim.") or k in SIM_COUNTS}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--held-out", type=int,
                        help="also run each workload once on this seed")
    parser.add_argument("--out", help="write every result here as JSON")
    opts = parser.parse_args()
    seeds = [int(s) for s in opts.seeds.split(",")]
    workloads = opts.workloads.split(",")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    e2e_spec = {m["name"]: m for m in bench["end_to_end"]}
    record = {"nproc": os.cpu_count(), "machine": platform.machine(),
              "command": bench["command"], "run_seconds": opts.seconds,
              "seeds": seeds, "held_out_seed": opts.held_out,
              "sets": [], "workloads": {}}

    def go(workload, seed, trace):
        return run(bench["command"], workload, seed, opts.seconds, trace,
                   layers if trace else e2e)

    for k in range(opts.sets):
        started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        this = {"started": started, "workloads": {}}
        record["sets"].append(this)
        print(f"set {k + 1}, started {started}")
        for workload in workloads:
            runs = [go(workload, s, 0) for s in seeds]
            summary = {}
            for name in list(e2e) + BESIDE:
                values = [r["report"][name] for r in runs if name in r["report"]]
                if len(values) > 1:
                    summary[name] = spread(values)
            this["workloads"][workload] = {"summary": summary, "runs": runs}
            print(f"  {workload}: run wall {min(r['elapsed_s'] for r in runs):.1f}-"
                  f"{max(r['elapsed_s'] for r in runs):.1f} s")
            for name, s in summary.items():
                bound = e2e_spec[name]["bound"] if name in e2e_spec else None
                drift = ""
                if k > 0 and name in e2e_spec:
                    m0 = record["sets"][0]["workloads"][workload]["summary"][name]["median"]
                    worse = (s["median"] - m0) / m0
                    if e2e_spec[name]["better"] == "higher":
                        worse = -worse
                    drift = f"  worse than set 1 by {worse:+.4f}"
                sp = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"    {name:24s} median {s['median']:.6g}  q1 {s['q1']:.6g}"
                      f"  q3 {s['q3']:.6g}  spread {sp}"
                      + (f" (bound {bound})" if bound is not None else "") + drift)
            sys.stdout.flush()

    for workload in workloads:
        extra = {"traced": go(workload, seeds[0], 1),
                 "profile_seed": go(workload, None, 0)}
        if opts.held_out is not None:
            extra["held_out"] = go(workload, opts.held_out, 0)
        done = [r for st in record["sets"] for r in st["workloads"][workload]["runs"]]
        done += list(extra.values())
        attempted = sum(r["result"]["attempted"] for r in done)
        failed = sum(r["result"]["failed"] for r in done)
        repeat = all(sims(a) == sims(b)
                     for st in record["sets"][1:]
                     for a, b in zip(record["sets"][0]["workloads"][workload]["runs"],
                                     st["workloads"][workload]["runs"]))
        repeat = repeat and sims(extra["traced"]) == sims(
            record["sets"][0]["workloads"][workload]["runs"][0])
        record["workloads"][workload] = dict(
            extra, error_rate=failed / attempted, attempted=attempted,
            failed=failed, sims_repeat_across_runs=repeat)
        print(f"{workload}: {failed}/{attempted} checks failed (traced, profile-seed"
              f"{'' if opts.held_out is None else ', held-out seed %d' % opts.held_out}"
              f" runs included); simulated values repeat across runs: {repeat}")
        sys.stdout.flush()
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
