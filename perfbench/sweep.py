"""Run the benchmark over several seeds and summarise each metric.

From the repository root:

    python3 perfbench/sweep.py --seeds 10 [--workloads enumerate,census]
        [--trace] [--out perfbench/baseline.json]

For each workload it runs ``run.py`` once per seed, prints the median,
quartiles and spread ((q3 - q1) / median) of every end-to-end metric next
to a third of its bound from ``BENCHMARK.json``, and with ``--trace`` adds
one traced run per workload.  ``--out`` writes all of it, with the
environment, as a JSON record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, environment
from workloads import WORKLOADS


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    record = {"environment": environment(), "seeds": seeds,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        results = [run(workload, s, bench["run_seconds"], 0) for s in seeds]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "unit": results[0]["metrics"][name]["unit"], "values": values,
            }
            ok = spread < bound / 3 or name == "setup_s"
            steady = steady and ok
            print(f"{workload:12} {name:12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {spread:.4f}  bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}")
        print(f"{workload:12} error_rate   {entry['failed']} of {entry['attempted']} jobs")
        if args.trace:
            traced = run(workload, seeds[0], bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            layers = {k: v for k, v in entry["per_layer"].items()
                      if k.count(".") == 1 and k.endswith(".self_s")}
            print(f"{workload:12} layers (self_s): " + ", ".join(
                f"{k[:-7]} {v:.2f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
            print(f"{workload:12} attributed {entry['per_layer']['trace.attributed']:.4f}"
                  f"  overhead {entry['per_layer']['trace_overhead']:.3f}"
                  f"  shi.feasible.calls {entry['per_layer']['shi.feasible.calls']}")
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
